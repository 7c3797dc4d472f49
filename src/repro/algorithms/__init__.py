"""Algorithmic substrates: edit distances, matching, clique enumeration."""

from repro.algorithms.cliques import maximal_cliques, section_instance_groups
from repro.algorithms.lcs import (
    common_prefix,
    common_suffix,
    lcs_length,
    longest_common_subsequence,
)
from repro.algorithms.stable_marriage import is_stable, stable_match
from repro.algorithms.string_edit import edit_distance, normalized_edit_distance
from repro.algorithms.tree_edit import (
    OrderedTree,
    forest_distance,
    normalized_tree_distance,
    signature_tree_distance,
    tree_edit_distance,
    tree_from_element,
    tree_signature,
)

__all__ = [
    "OrderedTree",
    "common_prefix",
    "common_suffix",
    "edit_distance",
    "forest_distance",
    "is_stable",
    "lcs_length",
    "longest_common_subsequence",
    "maximal_cliques",
    "normalized_edit_distance",
    "normalized_tree_distance",
    "section_instance_groups",
    "signature_tree_distance",
    "stable_match",
    "tree_edit_distance",
    "tree_from_element",
    "tree_signature",
]
