"""The repository benchmark: seeded workloads over the MSE program.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints its result as
the last line of standard output.  See ``perfbench/README.md`` for the
workloads, the metrics and which layer metric should move which
end-to-end metric.
"""
