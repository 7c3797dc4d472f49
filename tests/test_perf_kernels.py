"""The repro.perf fast kernels must agree exactly with the references.

Every optimisation in the perf layer (trimmed edit distance, bitmask
Dtal, the Zhang–Shasha program over tree signatures, memoized
tree/forest distance, the fingerprint fast paths and the Drec memo
inside ``record_distance``) claims *score identity* with the naive
formula implementations — these property tests are that claim, on
randomized inputs.
"""

import sys

from hypothesis import example, given, settings, strategies as st

from repro.algorithms.string_edit import (
    edit_distance,
    edit_distance_reference,
    normalized_edit_distance,
)
from repro.algorithms.tree_edit import (
    OrderedTree,
    forest_distance,
    normalized_tree_distance,
    signature_tree_distance,
    tree_edit_distance,
    tree_signature,
)
from repro.features.blocks import Block
from repro.features.line_distance import line_distance, text_attr_distance
from repro.features.record_distance import (
    record_distance,
    record_distance_reference,
)
from repro.htmlmod.parser import parse_html
from repro.perf import kernels
from repro.perf import (
    ATTR_INTERNER,
    FOREST_MEMO,
    TREE_MEMO,
    TUPLE_INTERNER,
    PairMemo,
    block_fingerprint,
    clear_kernel_caches,
    fast_normalized_tree_distance,
    kernel_cache_stats,
    masked_attr_distance,
    memo_forest_distance,
)
from repro.render.layout import render_page
from repro.render.styles import TextAttr

# -- strategies -------------------------------------------------------------

symbols = st.integers(min_value=0, max_value=5)
sequences = st.lists(symbols, max_size=12).map(tuple)


@st.composite
def trees(draw, depth=3):
    label = draw(st.sampled_from("abcd"))
    if depth == 0:
        return (label,)
    children = draw(st.lists(trees(depth=depth - 1), max_size=3))
    return (label, *children)


@st.composite
def forests(draw):
    return [OrderedTree.from_tuple(spec) for spec in draw(st.lists(trees(), max_size=3))]


def tree_from_signature(sig):
    """Decode a post-order ``(label, leftmost_leaf)`` signature to a tree.

    A node's subtree spans post-order indices ``leftmost_leaf..node``, so
    its children are exactly the finished subtrees on the stack whose
    leftmost leaf lies in that range.
    """
    stack = []  # (leftmost leaf, subtree) of every finished, unparented subtree
    for label, leaf in sig:
        children = []
        while stack and stack[-1][0] >= leaf:
            children.append(stack.pop()[1])
        children.reverse()
        stack.append((leaf, OrderedTree(label, children)))
    ((_, root),) = stack
    return root


def _sign(forest):
    """Interned forest signature, as the block fingerprints hold it."""
    intern = TUPLE_INTERNER.intern
    return intern(tuple(intern(tree_signature(tree)) for tree in forest))


attr_sets = st.frozensets(
    st.builds(
        TextAttr,
        size=st.sampled_from([10, 12, 14]),
        style=st.sampled_from(["plain", "bold", "italic"]),
        underline=st.booleans(),
    ),
    max_size=4,
)


@st.composite
def random_page(draw):
    """A small rendered page with enough lines for multi-line blocks."""
    n = draw(st.integers(min_value=3, max_value=6))
    items = []
    for i in range(n):
        word = "abcdef"[i % 6]
        body = f"<li><a href='/{i}'>{word} item {i}</a>"
        if draw(st.booleans()):
            body += f"<br>snippet {word} text {i}"
        if draw(st.booleans()):
            body = body.replace("<a ", "<a style='font-weight:bold' ", 1)
        items.append(body + "</li>")
    markup = f"<html><body><ul>{''.join(items)}</ul></body></html>"
    return render_page(parse_html(markup))


def random_block(draw, page):
    start = draw(st.integers(min_value=0, max_value=len(page.lines) - 1))
    end = draw(st.integers(min_value=start, max_value=len(page.lines) - 1))
    return Block(page, start, end)


# -- edit distance ----------------------------------------------------------


class TestEditDistanceFast:
    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_matches_reference_default_costs(self, s1, s2):
        assert edit_distance(s1, s2) == edit_distance_reference(s1, s2)

    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_matches_reference_custom_cost(self, s1, s2):
        def cost(a, b):
            return abs(a - b) / 5.0

        assert edit_distance(s1, s2, substitution_cost=cost) == (
            edit_distance_reference(s1, s2, substitution_cost=cost)
        )

    @settings(max_examples=200, deadline=None)
    @given(sequences, sequences)
    def test_nonzero_equal_substitution_cost(self, s1, s2):
        # Equal items may have nonzero substitution cost; trimming must
        # not fire then (an existing threshold test depends on this).
        def cost(a, b):
            return 0.2

        assert edit_distance(s1, s2, substitution_cost=cost) == (
            edit_distance_reference(s1, s2, substitution_cost=cost)
        )

    def test_trim_only_pays_for_the_difference(self):
        # A long shared prefix/suffix must not change the score.
        base = tuple(range(200))
        edited = base[:100] + (999,) + base[101:]
        assert edit_distance(base, edited) == 1.0


# -- Dtal bitmasks ----------------------------------------------------------


class TestAttrMasks:
    @settings(max_examples=200, deadline=None)
    @given(attr_sets, attr_sets)
    def test_masked_distance_equals_frozenset_distance(self, a1, a2):
        m1 = ATTR_INTERNER.mask(a1)
        m2 = ATTR_INTERNER.mask(a2)
        assert masked_attr_distance(m1, m2) == text_attr_distance(a1, a2)

    def test_interner_reuses_masks(self):
        attrs = frozenset([TextAttr(style="bold")])
        assert ATTR_INTERNER.mask(attrs) is ATTR_INTERNER.mask(frozenset(attrs))


# -- tree / forest memoization ----------------------------------------------


class TestSignatureTreeDistance:
    @settings(max_examples=300, deadline=None)
    @given(trees(), trees())
    @example(("a",), ("a",))  # single nodes
    @example(("a",), ("b",))
    @example(("a",), ("a", ("b",), ("c",)))  # a leaf against leaf-only children
    @example(("a", ("b",), ("c",)), ("a", ("c",), ("b",), ("d",)))
    # Clamp regression: ancestry constraints make a raw distance of 6
    # between these two 5-node trees, a normalized 1.2 without the clamp.
    @example(
        ("a", ("b", ("a",), ("a",)), ("a",)),
        ("c", ("c",), ("a", ("c",), ("b",))),
    )
    def test_matches_callback_oracle(self, spec1, spec2):
        t1, t2 = OrderedTree.from_tuple(spec1), OrderedTree.from_tuple(spec2)
        sig1 = TUPLE_INTERNER.intern(tree_signature(t1))
        sig2 = TUPLE_INTERNER.intern(tree_signature(t2))
        assert signature_tree_distance(sig1, sig2) == tree_edit_distance(t1, t2)
        clear_kernel_caches()
        reference = normalized_tree_distance(t1, t2)
        assert fast_normalized_tree_distance(sig1, sig2) == reference
        # and again, now served from the memo
        assert fast_normalized_tree_distance(sig2, sig1) == reference

    @settings(max_examples=100, deadline=None)
    @given(trees())
    def test_signature_round_trip(self, spec):
        tree = OrderedTree.from_tuple(spec)
        sig = tree_signature(tree)
        assert tree_from_signature(sig) == tree
        assert tree_signature(tree_from_signature(sig)) == sig

    def test_memo_hits_are_counted(self):
        clear_kernel_caches()
        sig1 = TUPLE_INTERNER.intern((("b", 0), ("a", 0)))
        sig2 = TUPLE_INTERNER.intern((("a", 0),))
        assert fast_normalized_tree_distance(sig1, sig2) == 0.5
        fast_normalized_tree_distance(sig2, sig1)
        assert (TREE_MEMO.hits, TREE_MEMO.misses) == (1, 1)


class TestForestMemo:
    @settings(max_examples=100, deadline=None)
    @given(forests(), forests())
    def test_matches_reference(self, f1, f2):
        clear_kernel_caches()
        sig1, sig2 = _sign(f1), _sign(f2)
        assert memo_forest_distance(sig1, sig2) == forest_distance(f1, f2)
        # and again, now served from the memo
        assert memo_forest_distance(sig1, sig2) == forest_distance(f1, f2)

    @settings(max_examples=50, deadline=None)
    @given(forests())
    def test_signature_equality_means_zero(self, f):
        clone = [OrderedTree.from_tuple(_spec(t)) for t in f]
        assert _sign(f) is _sign(clone)
        assert memo_forest_distance(_sign(f), _sign(clone)) == 0.0

    def test_signature_is_postorder_unique(self):
        # (a(b c)) vs (a(b(c))): same label multiset, different shape.
        t1 = OrderedTree.from_tuple(("a", ("b",), ("c",)))
        t2 = OrderedTree.from_tuple(("a", ("b", ("c",))))
        assert tree_signature(t1) != tree_signature(t2)
        assert len(tree_signature(t1)) == t1.size()

    def test_memo_hits_are_counted(self):
        clear_kernel_caches()
        f1 = _sign([OrderedTree.from_tuple(("a", ("b",)))])
        f2 = _sign([OrderedTree.from_tuple(("a", ("c",)))])
        memo_forest_distance(f1, f2)
        before = FOREST_MEMO.hits
        memo_forest_distance(f1, f2)
        assert FOREST_MEMO.hits == before + 1
        stats = kernel_cache_stats()
        assert stats["forest_memo"]["hits"] >= 1


def _spec(tree):
    return (tree.label, *[_spec(c) for c in tree.children])


class TestPairMemo:
    def test_stats_cover_every_kernel_cache(self):
        stats = kernel_cache_stats()
        for name in (
            "tree_memo",
            "forest_memo",
            "record_memo",
            "dinr_memo",
            "attr_interner",
            "tuple_interner",
        ):
            assert name in stats

    def test_clear_resets_dinr_memo(self):
        from repro.perf.kernels import DINR_MEMO

        DINR_MEMO.store(("config", "key"), 0.25)
        assert DINR_MEMO.get(("config", "key")) == 0.25
        clear_kernel_caches()
        assert DINR_MEMO.get(("config", "key")) is None
        assert len(DINR_MEMO) == 0

    def test_symmetric_lookup(self):
        memo = PairMemo("t")
        a, b = ("a",), ("b",)
        key, found = memo.lookup(a, b)
        assert found is None
        memo.store(key, 1.5)
        key2, found2 = memo.lookup(b, a)
        assert key2 == key and found2 == 1.5
        assert memo.hits == 1 and memo.misses == 1

    def test_bounded(self):
        memo = PairMemo("t", max_entries=2)
        for i in range(5):
            key, _ = memo.lookup((i,), (i, i))
            memo.store(key, float(i))
        assert len(memo) <= 2


# -- feature-layer fast paths -----------------------------------------------


class TestFeatureFastPaths:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_record_distance_matches_reference(self, data):
        page = data.draw(random_page())
        b1 = random_block(data.draw, page)
        b2 = random_block(data.draw, page)
        ref = record_distance_reference(b1, b2)
        assert record_distance(b1, b2) == ref
        # and again, now served from the Drec memo
        assert record_distance(b1, b2) == ref

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_identical_line_fast_path(self, data):
        page = data.draw(random_page())
        for line in page.lines:
            assert line_distance(line, line) == 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_identical_block_fast_path(self, data):
        page = data.draw(random_page())
        block = random_block(data.draw, page)
        twin = Block(page, block.start, block.end)
        assert record_distance(block, twin) == 0.0
        assert record_distance_reference(block, twin) == 0.0

    def test_fingerprint_cached_on_block(self):
        page = render_page(
            parse_html("<html><body><p>one</p><p>two</p></body></html>")
        )
        block = Block(page, 0, len(page.lines) - 1)
        fp = block_fingerprint(block)
        assert block_fingerprint(block) is fp
        assert len(fp.type_codes) == len(block)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_element_signature_matches_tree_signature(self, data):
        """Single-walk DOM signatures == reference via OrderedTree."""
        from repro.htmlmod.dom import Element
        from repro.perf.fingerprints import element_tree_signature

        page = data.draw(random_page())
        for node in page.document.root.iter():
            if isinstance(node, Element):
                reference = tree_signature(
                    OrderedTree.from_tuple(node.tag_signature())
                )
                assert element_tree_signature(node) == reference

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_span_forest_matches_all_leaf_reference(self, data):
        """The two-chain span fast paths == the all-leaves reference.

        ``span_forest`` and ``span_subtree`` both lean on the
        document-order invariant (pre-order rendering => contiguous leaf
        runs per subtree) to consider only the first and last span leaf;
        the reference below works from every leaf.
        """
        from repro.render.lines import deepest_common_ancestor

        page = data.draw(random_page())
        block = random_block(data.draw, page)
        leaves = []
        for line in page.lines[block.start : block.end + 1]:
            leaves.extend(line.leaves)
        reference_subtree = (
            deepest_common_ancestor(leaves) if leaves else None
        )
        assert page.span_subtree(block.start, block.end) is reference_subtree
        forest = page.span_forest(block.start, block.end)
        if reference_subtree is None:
            assert forest == []
        elif forest != [reference_subtree]:
            # The forest is a consecutive run of the ancestor's element
            # children (unrendered middles included), covering the span.
            children = [
                child
                for child in reference_subtree.children
                if child in forest
            ]
            assert children == forest


# -- end to end -------------------------------------------------------------


def _reference_forest_distance(sig1, sig2):
    """``memo_forest_distance``'s signature over the unmemoized oracle."""
    return forest_distance(
        [tree_from_signature(sig) for sig in sig1],
        [tree_from_signature(sig) for sig in sig2],
    )


class TestEndToEnd:
    def test_wrapper_induction_identical_with_fast_kernels(self, monkeypatch):
        """Memoized kernels and the reference kernels behave the same.

        The reference run swaps the oracles in at every import site of
        the production kernels (every loaded module holding them): Drec,
        whose module also serves Davgrs, the memoized forest distance
        that grouping calls and the health check's Dinr memo.  Both runs must induce the same wrapper,
        grade to the same eval rows and serve every page's extraction
        and health (Dinr included) identically.
        """
        from repro.evalkit.golden import engine_record

        engine_id = 83  # multi-section engine
        clear_kernel_caches()
        fast, _ = engine_record(engine_id)
        swaps = {
            "record_distance": (record_distance, record_distance_reference),
            "memo_forest_distance": (
                kernels.memo_forest_distance,
                _reference_forest_distance,
            ),
            # the health check's Dinr memo, replaced by one that never stores
            "DINR_MEMO": (kernels.DINR_MEMO, PairMemo("dinr_memo", max_entries=0)),
        }
        for module in list(sys.modules.values()):
            for name, (production, oracle) in swaps.items():
                if getattr(module, name, None) is production:
                    monkeypatch.setattr(module, name, oracle)
        clear_kernel_caches()
        ref, _ = engine_record(engine_id)
        clear_kernel_caches()
        assert fast["rows"] == ref["rows"]
        assert fast["wrapper"] == ref["wrapper"]
        assert fast["pages"] == ref["pages"]
