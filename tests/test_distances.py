"""Feature measure tests: Formulas 2-7."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.features.blocks import Block
from repro.features.cohesion import (
    best_partition,
    inter_record_distance,
    record_diversity,
    section_cohesion,
)
from repro.features.config import DEFAULT_CONFIG, FeatureConfig
from repro.features.line_distance import (
    line_distance,
    position_distance,
    text_attr_distance,
)
from repro.features.record_distance import (
    average_distance,
    block_position_distance,
    block_shape_distance,
    block_text_attr_distance,
    block_type_distance,
    record_distance,
    tag_forest_distance,
)
from repro.render.linetypes import LineType, type_distance
from repro.render.styles import TextAttr
from tests.helpers import render

PAGE = render(
    "<html><body>"
    "<ul><li><a href='/1'>alpha one</a><br>snippet alpha</li>"
    "<li><a href='/2'>beta two</a><br>snippet beta</li>"
    "<li><a href='/3'>gamma three</a><br>snippet gamma</li></ul>"
    "<h2>Header</h2>"
    "</body></html>"
)
R1, R2, R3 = Block(PAGE, 0, 1), Block(PAGE, 2, 3), Block(PAGE, 4, 5)
HEADER = Block(PAGE, 6, 6)


class TestTypeDistance:
    def test_identity(self):
        for lt in LineType:
            assert type_distance(lt, lt) == 0.0

    def test_symmetry(self):
        for a in LineType:
            for b in LineType:
                assert type_distance(a, b) == type_distance(b, a)

    def test_range(self):
        for a in LineType:
            for b in LineType:
                assert 0.0 <= type_distance(a, b) <= 1.0

    def test_related_types_closer_than_unrelated(self):
        assert type_distance(LineType.LINK, LineType.LINK_TEXT) < type_distance(
            LineType.LINK, LineType.HR
        )


class TestPositionDistance:
    def test_zero_for_same_position(self):
        assert position_distance(100, 100) == 0.0

    def test_paper_k_constant(self):
        expected = 0.127 * math.log1p(50)
        assert abs(position_distance(0, 50) - expected) < 1e-9

    def test_clamped_to_one(self):
        assert position_distance(0, 10**9) == 1.0

    def test_symmetry(self):
        assert position_distance(10, 90) == position_distance(90, 10)


class TestTextAttrDistance:
    def test_formula_two(self):
        a1 = frozenset({TextAttr(), TextAttr(style="bold")})
        a2 = frozenset({TextAttr()})
        # |intersection| = 1, max size = 2 -> 1 - 1/2
        assert text_attr_distance(a1, a2) == 0.5

    def test_identical_sets(self):
        a = frozenset({TextAttr()})
        assert text_attr_distance(a, a) == 0.0

    def test_disjoint_sets(self):
        a1 = frozenset({TextAttr(color="red")})
        a2 = frozenset({TextAttr(color="blue")})
        assert text_attr_distance(a1, a2) == 1.0

    def test_both_empty(self):
        assert text_attr_distance(frozenset(), frozenset()) == 0.0


class TestLineDistance:
    def test_identity(self):
        assert line_distance(PAGE.lines[0], PAGE.lines[0]) == 0.0

    def test_similar_lines_close(self):
        # two title lines
        assert line_distance(PAGE.lines[0], PAGE.lines[2]) < 0.1

    def test_title_vs_snippet_far(self):
        d_titles = line_distance(PAGE.lines[0], PAGE.lines[2])
        d_mixed = line_distance(PAGE.lines[0], PAGE.lines[1])
        assert d_mixed > d_titles

    def test_range(self):
        for l1 in PAGE.lines:
            for l2 in PAGE.lines:
                assert 0.0 <= line_distance(l1, l2) <= 1.0 + 1e-9

    def test_weights_validated(self):
        with pytest.raises(ValueError):
            FeatureConfig(line_weights=(0.5, 0.5, 0.5))


class TestBlockDistances:
    def test_same_format_records_near_zero(self):
        assert record_distance(R1, R2) < 0.05

    def test_record_vs_header_far(self):
        assert record_distance(R1, HEADER) > 0.3

    def test_type_distance_component(self):
        assert block_type_distance(R1, R2) == 0.0
        assert block_type_distance(R1, HEADER) > 0.0

    def test_shape_distance_translation_invariant(self):
        assert block_shape_distance(R1, R2) == 0.0

    def test_position_distance_same_column(self):
        assert block_position_distance(R1, R2) == 0.0

    def test_text_attr_distance(self):
        assert block_text_attr_distance(R1, R2) == 0.0
        assert block_text_attr_distance(R1, HEADER) > 0.0

    def test_tag_forest_distance_identical_structure(self):
        assert tag_forest_distance(R1, R2) == 0.0

    def test_record_weights_validated(self):
        with pytest.raises(ValueError):
            FeatureConfig(record_weights=(1.0, 1.0, 0.0, 0.0, 0.0))

    def test_cache_returns_same_value(self):
        # The second ask of each order is served from the kernel memo.
        first = record_distance(HEADER, R1)
        assert record_distance(HEADER, R1) == first
        assert record_distance(R1, HEADER) == first

    def test_cache_average_to_group(self):
        avg = average_distance(HEADER, [R1, R2])
        manual = (record_distance(HEADER, R1) + record_distance(HEADER, R2)) / 2
        assert abs(avg - manual) < 1e-9
        assert average_distance(R1, [HEADER, R2]) == average_distance(
            R1, [R2, HEADER]
        )

    def test_cache_average_empty_group(self):
        assert average_distance(R1, []) == 0.0


class TestCohesion:
    def test_diversity_of_single_line_record_is_zero(self):
        assert record_diversity(Block(PAGE, 0, 0)) == 0.0

    def test_diversity_of_mixed_record_positive(self):
        assert record_diversity(R1) > 0.0

    def test_inter_record_distance_single_record(self):
        assert inter_record_distance([R1]) == 0.0

    def test_inter_record_distance_of_uniform_records_low(self):
        assert inter_record_distance([R1, R2, R3]) < 0.05

    def test_formula_seven(self):
        records = [R1, R2, R3]
        div = sum(record_diversity(r) for r in records) / 3
        dinr = inter_record_distance(records)
        assert abs(section_cohesion(records) - div / (1 + dinr)) < 1e-9

    def test_empty_section_cohesion_zero(self):
        assert section_cohesion([]) == 0.0

    def test_correct_partition_beats_merged_and_split(self):
        correct = [R1, R2, R3]
        merged = [Block(PAGE, 0, 5)]
        split = [Block(PAGE, i, i) for i in range(6)]
        assert section_cohesion(correct) > section_cohesion(merged)
        assert section_cohesion(correct) > section_cohesion(split)

    def test_best_partition_selects_correct(self):
        correct = [R1, R2, R3]
        candidates = [
            [Block(PAGE, 0, 5)],
            correct,
            [Block(PAGE, i, i) for i in range(6)],
        ]
        assert best_partition(candidates) == correct

    def test_best_partition_empty_raises(self):
        with pytest.raises(ValueError):
            best_partition([])

    def test_best_partition_tie_prefers_finer(self):
        # identical cohesion (all zero): single-line blocks everywhere
        page = render(
            "<html><body><ul><li><a href='/1'>a</a></li>"
            "<li><a href='/2'>b</a></li></ul></body></html>"
        )
        coarse = [Block(page, 0, 1)]
        fine = [Block(page, 0, 0), Block(page, 1, 1)]
        # both have zero-ish cohesion; finer must win ties
        result = best_partition([coarse, fine])
        assert len(result) >= len(coarse)
