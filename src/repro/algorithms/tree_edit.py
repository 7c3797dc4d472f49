"""Tree edit distance (Zhang–Shasha).

The paper (§4.1, citing Chawathe [9]) uses the edit distance between two
*tag trees* — rooted, ordered, labelled trees — normalized by the size of
the larger tree.  We implement the classic Zhang–Shasha dynamic program,
which computes the exact ordered tree edit distance with unit costs in
O(n1 * n2 * min(depth, leaves)^2) time.

A tree is held as its :func:`tree_signature`: one ``(label,
leftmost_leaf_index)`` pair per node in post-order, which is exactly the
annotation the dynamic program reads.  :func:`signature_tree_distance`
is the production kernel and runs on signatures alone; the memoized
layer in :mod:`repro.perf.kernels` calls it with the interned signatures
of the block fingerprints.

:class:`OrderedTree` (a ``(label, children)`` recursion, adapted from
the DOM by :func:`tree_from_element`), :func:`tree_edit_distance` (the
same program driven by a per-move cost callback),
:func:`normalized_tree_distance` and :func:`forest_distance` are the
reference oracle the kernels are property-tested and benchmarked
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.htmlmod.dom import Element


TreeSignature = Tuple[Tuple[str, int], ...]


def _keyroots(sig: TreeSignature) -> List[int]:
    """Zhang–Shasha keyroots of a signed tree, in post-order.

    Nodes that are not the leftmost child of their parent, equivalently
    the highest node for each distinct leftmost leaf.
    """
    highest: Dict[int, int] = {}
    for index, (_, leaf) in enumerate(sig):
        highest[leaf] = index
    return sorted(highest.values())


def signature_tree_distance(sig1: TreeSignature, sig2: TreeSignature) -> int:
    """Exact ordered tree edit distance between two tree signatures.

    The keyroot/forest program of :func:`tree_edit_distance`, reading
    labels and leftmost leaves straight from the signatures, with the
    unit insert/delete/relabel costs inlined as integers; equal to the
    callback oracle on every pair of trees.
    """
    labels1 = [label for label, _ in sig1]
    lml1 = [leaf for _, leaf in sig1]
    n1, n2 = len(sig1), len(sig2)
    tree_dist = [[0] * n2 for _ in range(n1)]
    # One forest-distance table serves every keyroot pair: row 0 and
    # column 0 (all-insert / all-delete prefixes) hold the same unit
    # costs for every pair, and each pair writes its interior cells
    # before it reads them.
    fd = [list(range(n2 + 1))]
    fd.extend([i] + [0] * n2 for i in range(1, n1 + 1))
    # Per keyroot of tree 2, its columns: (column, node, label, leftmost
    # leaf relative to the keyroot's), read once per keyroot of tree 1.
    columns2: List[List[Tuple[int, int, str, int]]] = []
    for kr2 in _keyroots(sig2):
        l2 = sig2[kr2][1]
        columns2.append(
            [
                (j, l2 + j - 1, label, leaf - l2)
                for j, (label, leaf) in enumerate(sig2[l2 : kr2 + 1], 1)
            ]
        )
    for kr1 in _keyroots(sig1):
        l1 = lml1[kr1]
        for columns in columns2:
            prev = fd[0]
            for i in range(1, kr1 - l1 + 2):
                node1 = l1 + i - 1
                label1 = labels1[node1]
                sub1 = lml1[node1] - l1
                subtree_row = fd[sub1]
                dist_row = tree_dist[node1]
                cur = fd[i]
                left = i
                for j, node2, label2, sub2 in columns:
                    up = prev[j]
                    best = (up if up < left else left) + 1
                    if sub1 == 0 and sub2 == 0:
                        # Both prefixes are whole trees: a relabel move applies.
                        other = prev[j - 1] + (label1 != label2)
                        if other < best:
                            best = other
                        dist_row[node2] = best
                    else:
                        # Use the previously computed distance of the two subtrees.
                        other = subtree_row[sub2] + dist_row[node2]
                        if other < best:
                            best = other
                    cur[j] = left = best
                prev = cur
    return tree_dist[n1 - 1][n2 - 1]


@dataclass
class OrderedTree:
    """A rooted ordered labelled tree node (reference oracle form)."""

    label: str
    children: List["OrderedTree"] = field(default_factory=list)

    def size(self) -> int:
        """Number of nodes in this subtree."""
        return 1 + sum(child.size() for child in self.children)

    @classmethod
    def from_tuple(cls, spec: Tuple[Any, ...]) -> "OrderedTree":
        """Build from a nested tuple ``(label, child_spec, ...)``.

        This is the shape produced by
        :meth:`repro.htmlmod.dom.Element.tag_signature`.
        """
        label, *children = spec
        return cls(str(label), [cls.from_tuple(c) for c in children])

    def __repr__(self) -> str:
        return f"OrderedTree({self.label!r}, n={self.size()})"


def tree_from_element(element: "Element") -> OrderedTree:
    """Adapt a :class:`repro.htmlmod.dom.Element` subtree (elements only)."""
    return OrderedTree.from_tuple(element.tag_signature())


def tree_signature(tree: OrderedTree) -> TreeSignature:
    """Hashable flattened post-order signature of a tree.

    One ``(label, leftmost_leaf_index)`` pair per node in post-order —
    the Zhang–Shasha annotation itself — which uniquely identifies the
    labelled ordered tree: two trees are structurally equal iff their
    signatures are equal, and ``len(signature) == tree.size()``.
    """
    labels: List[str] = []
    lml: List[int] = []

    def visit(node: OrderedTree) -> int:
        if node.children:
            first = visit(node.children[0])
            for child in node.children[1:]:
                visit(child)
            my_lml = first
        else:
            my_lml = len(labels)
        labels.append(node.label)
        lml.append(my_lml)
        return my_lml

    visit(tree)
    return tuple(zip(labels, lml))


def _default_cost(label1: Optional[str], label2: Optional[str]) -> float:
    """Unit insert/delete; substitution free for equal labels else 1."""
    if label1 is None or label2 is None:
        return 1.0
    return 0.0 if label1 == label2 else 1.0


def tree_edit_distance(tree1: OrderedTree, tree2: OrderedTree) -> float:
    """Exact ordered tree edit distance between two trees (the oracle).

    The textbook program: annotate both trees, then price every move
    through a cost callback — ``_default_cost(a, None)`` deletes a node
    labelled ``a``, ``_default_cost(None, b)`` inserts one and
    ``_default_cost(a, b)`` relabels.
    """
    sig1 = tree_signature(tree1)
    sig2 = tree_signature(tree2)
    tree_dist = [[0.0] * len(sig2) for _ in range(len(sig1))]

    keyroots2 = _keyroots(sig2)
    for kr1 in _keyroots(sig1):
        for kr2 in keyroots2:
            _forest_distance(sig1, sig2, kr1, kr2, tree_dist)
    return tree_dist[-1][-1]


def _forest_distance(
    sig1: TreeSignature,
    sig2: TreeSignature,
    kr1: int,
    kr2: int,
    tree_dist: List[List[float]],
) -> None:
    cost = _default_cost
    l1, l2 = sig1[kr1][1], sig2[kr2][1]
    rows = kr1 - l1 + 2
    cols = kr2 - l2 + 2
    fd = [[0.0] * cols for _ in range(rows)]

    for i in range(1, rows):
        fd[i][0] = fd[i - 1][0] + cost(sig1[l1 + i - 1][0], None)
    for j in range(1, cols):
        fd[0][j] = fd[0][j - 1] + cost(None, sig2[l2 + j - 1][0])

    for i in range(1, rows):
        label1, lml1 = sig1[l1 + i - 1]
        node1 = l1 + i - 1
        for j in range(1, cols):
            label2, lml2 = sig2[l2 + j - 1]
            node2 = l2 + j - 1
            delete = fd[i - 1][j] + cost(label1, None)
            insert = fd[i][j - 1] + cost(None, label2)
            if lml1 == l1 and lml2 == l2:
                # Both prefixes are whole trees: a relabel move applies.
                replace = fd[i - 1][j - 1] + cost(label1, label2)
                fd[i][j] = min(delete, insert, replace)
                tree_dist[node1][node2] = fd[i][j]
            else:
                # Use the previously computed distance of the two subtrees.
                replace = fd[lml1 - l1][lml2 - l2] + tree_dist[node1][node2]
                fd[i][j] = min(delete, insert, replace)


def normalized_tree_distance(tree1: OrderedTree, tree2: OrderedTree) -> float:
    """Tree edit distance normalized by the larger tree's size (paper §4.1).

    Clamped to [0, 1]: with unit costs the distance usually stays below
    max(size1, size2), but ancestry constraints can force delete+insert
    pairs where a relabel is impossible, pushing the raw ratio past 1
    (two same-size trees can differ by more than their size).  Callers
    treat this as a bounded dissimilarity score, so those structurally
    disjoint pairs saturate at 1.
    """
    larger = max(tree1.size(), tree2.size())
    if larger == 0:
        return 0.0
    return min(1.0, tree_edit_distance(tree1, tree2) / larger)


def forest_distance(
    forest1: Sequence[OrderedTree],
    forest2: Sequence[OrderedTree],
) -> float:
    """Normalized distance between two tag forests (paper §4.1).

    A forest is an ordered list of trees; the paper treats it as a string
    of trees and takes the string edit distance, normalized by the longer
    list, with tree substitution cost equal to the normalized tree edit
    distance.
    """
    from repro.algorithms.string_edit import normalized_edit_distance

    return normalized_edit_distance(
        list(forest1), list(forest2), substitution_cost=normalized_tree_distance
    )
