import pytest

from crossmap.arcs import (
    Arc,
    ArcSet,
    CLASSICAL,
    ENHANCED,
    arcs_classical,
    arcs_enhanced,
    distance_multiset,
)
from crossmap.errors import OutOfRange
from crossmap.counting import bell
from crossmap.partition import enumerate_partial, from_blocks, parse_text


PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"


class TestClassicalArcs:
    def test_paper_example(self):
        a = arcs_classical(parse_text(PAPER_PI))
        assert set(a) == {(1, 4), (4, 7), (7, 9), (2, 5)}

    def test_all_singletons(self):
        p = from_blocks(4, [[1], [2], [3], [4]])
        assert arcs_classical(p).arcs == ()

    def test_one_block(self):
        assert set(arcs_classical(parse_text("3:1,2,3"))) == {(1, 2), (2, 3)}

    def test_arc_count_formula(self):
        for p in enumerate_partial(6):
            present = tuple(j + 1 for j, v in enumerate(p.labels) if v)
            assert len(arcs_classical(p)) == len(present) - p.num_blocks


class TestEnhancedArcs:
    def test_paper_example_has_loops_at_singletons(self):
        a = arcs_enhanced(parse_text(PAPER_PI))
        assert set(a) == {(1, 4), (2, 5), (3, 3), (4, 7), (6, 6), (7, 9)}

    def test_empty(self):
        assert arcs_enhanced(parse_text("3:")).arcs == ()

    def test_all_singletons(self):
        p = from_blocks(3, [[1], [2], [3]])
        assert set(arcs_enhanced(p)) == {(1, 1), (2, 2), (3, 3)}

    def test_enhanced_extends_classical_by_loop_set(self):
        for p in enumerate_partial(6):
            classical = set(arcs_classical(p))
            enhanced = set(arcs_enhanced(p))
            assert classical <= enhanced
            singletons = [b[0] for b in p.blocks() if len(b) == 1]
            assert enhanced - classical == {(u, u) for u in singletons}


class TestArcSetInvariants:
    def test_no_loops_in_classical(self):
        with pytest.raises(OutOfRange):
            ArcSet(CLASSICAL, (Arc(2, 2),))

    def test_sorted_by_left(self):
        with pytest.raises(OutOfRange):
            ArcSet(ENHANCED, (Arc(3, 4), Arc(1, 2)))

    def test_duplicate_right_endpoints(self):
        with pytest.raises(OutOfRange):
            ArcSet(CLASSICAL, (Arc(1, 4), Arc(2, 4)))

    def test_distinct_endpoints_exhaustive(self):
        for p in enumerate_partial(8):
            for a in (arcs_classical(p), arcs_enhanced(p)):
                lefts = [arc.left for arc in a]
                rights = [arc.right for arc in a]
                assert len(set(lefts)) == len(lefts)
                assert len(set(rights)) == len(rights)


class TestDistances:
    def test_paper_example_enhanced(self):
        a = arcs_enhanced(parse_text(PAPER_PI))
        assert distance_multiset(a) == sorted([3, 3, 2, 3, 0, 0])

    def test_paper_image_classical(self):
        a = arcs_classical(parse_text(PAPER_PI_HAT))
        assert distance_multiset(a) == sorted([4, 4, 3, 4, 1, 1])

    def test_empty(self):
        assert distance_multiset(arcs_enhanced(parse_text("0:"))) == []


class TestInjectivity:
    def test_enhanced_arcs_are_distinct_exhaustive(self):
        # Distinct partial partitions of [n] have distinct enhanced arc sets,
        # so the arcs lose nothing of the partition.
        for n in range(8):
            seen = {arcs_enhanced(p).arcs for p in enumerate_partial(n)}
            assert len(seen) == bell(n + 1)
