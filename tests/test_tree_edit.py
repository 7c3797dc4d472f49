"""Zhang-Shasha tree edit distance tests."""

from hypothesis import given, settings, strategies as st

from repro.algorithms.tree_edit import (
    OrderedTree,
    forest_distance,
    normalized_tree_distance,
    tree_edit_distance,
    tree_from_element,
)
from repro.htmlmod.parser import parse_html


def t(spec):
    return OrderedTree.from_tuple(spec)


class TestKnownValues:
    def test_identical_trees(self):
        tree = t(("a", ("b",), ("c", ("d",))))
        assert tree_edit_distance(tree, tree) == 0.0

    def test_single_relabel(self):
        assert tree_edit_distance(t(("a", ("b",))), t(("a", ("x",)))) == 1.0

    def test_single_insert(self):
        assert tree_edit_distance(t(("a",)), t(("a", ("b",)))) == 1.0

    def test_single_delete(self):
        assert tree_edit_distance(t(("a", ("b",), ("c",))), t(("a", ("b",)))) == 1.0

    def test_leaf_vs_chain(self):
        # a vs a->b->c: two insertions
        assert tree_edit_distance(t(("a",)), t(("a", ("b", ("c",))))) == 2.0

    def test_zhang_shasha_classic_example(self):
        # The canonical f(d(a c(b)) e) vs f(c(d(a b)) e) example: distance 2.
        t1 = t(("f", ("d", ("a",), ("c", ("b",))), ("e",)))
        t2 = t(("f", ("c", ("d", ("a",), ("b",))), ("e",)))
        assert tree_edit_distance(t1, t2) == 2.0

    def test_completely_different_labels(self):
        t1 = t(("a", ("b",)))
        t2 = t(("x", ("y",)))
        assert tree_edit_distance(t1, t2) == 2.0

    def test_sibling_order_matters(self):
        t1 = t(("r", ("a",), ("b",)))
        t2 = t(("r", ("b",), ("a",)))
        # ordered TED: one relabel pair or delete+insert; cost 2 either way
        assert tree_edit_distance(t1, t2) == 2.0


class TestSizeAndConstruction:
    def test_size(self):
        assert t(("a", ("b", ("c",)), ("d",))).size() == 4

    def test_from_element(self):
        doc = parse_html("<body><ul><li>a</li><li>b</li></ul></body>")
        tree = tree_from_element(doc.body.find("ul"))
        assert tree.label == "ul"
        assert [c.label for c in tree.children] == ["li", "li"]


class TestNormalized:
    def test_identical_is_zero(self):
        tree = t(("a", ("b",)))
        assert normalized_tree_distance(tree, tree) == 0.0

    def test_range(self):
        t1 = t(("a", ("b",), ("c",)))
        t2 = t(("x",))
        d = normalized_tree_distance(t1, t2)
        assert 0.0 <= d <= 1.0

    def test_structurally_disjoint_pair_saturates_at_one(self):
        # Regression (found by hypothesis): ancestry constraints make a
        # raw distance of 6 between these two 5-node trees, so the
        # larger-size ratio is 1.2 without the clamp.
        t1 = t(("a", ("b", ("a",), ("a",)), ("a",)))
        t2 = t(("c", ("c",), ("a", ("c",), ("b",))))
        assert tree_edit_distance(t1, t2) == 6.0
        assert normalized_tree_distance(t1, t2) == 1.0


# Random tree strategy: nested tuples with small labels and sizes.
def tree_strategy(max_depth=3):
    labels = st.sampled_from(["a", "b", "c"])
    return st.recursive(
        labels.map(lambda l: (l,)),
        lambda children: st.tuples(labels, children, children).map(
            lambda triple: (triple[0], triple[1], triple[2])
        ),
        max_leaves=6,
    )


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(tree_strategy())
    def test_self_distance_zero(self, spec):
        tree = t(spec)
        assert tree_edit_distance(tree, tree) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(tree_strategy(), tree_strategy())
    def test_symmetry(self, s1, s2):
        t1, t2 = t(s1), t(s2)
        assert tree_edit_distance(t1, t2) == tree_edit_distance(t2, t1)

    @settings(max_examples=40, deadline=None)
    @given(tree_strategy(), tree_strategy())
    def test_bounds(self, s1, s2):
        t1, t2 = t(s1), t(s2)
        d = tree_edit_distance(t1, t2)
        assert abs(t1.size() - t2.size()) <= d <= t1.size() + t2.size()
        assert 0.0 <= normalized_tree_distance(t1, t2) <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(tree_strategy(), tree_strategy(), tree_strategy())
    def test_triangle_inequality(self, s1, s2, s3):
        t1, t2, t3 = t(s1), t(s2), t(s3)
        assert tree_edit_distance(t1, t3) <= (
            tree_edit_distance(t1, t2) + tree_edit_distance(t2, t3) + 1e-9
        )


class TestForestDistance:
    def test_identical_forests(self):
        f = [t(("a", ("b",))), t(("c",))]
        assert forest_distance(f, f) == 0.0

    def test_empty_forests(self):
        assert forest_distance([], []) == 0.0

    def test_one_empty(self):
        assert forest_distance([t(("a",))], []) == 1.0

    def test_extra_tree_costs_fractionally(self):
        f1 = [t(("a",)), t(("b",))]
        f2 = [t(("a",))]
        assert abs(forest_distance(f1, f2) - 0.5) < 1e-9

    def test_range(self):
        f1 = [t(("a", ("b",), ("c",)))]
        f2 = [t(("x",)), t(("y",))]
        assert 0.0 <= forest_distance(f1, f2) <= 1.0
