from itertools import combinations

import pytest

from crossmap import crossings
from crossmap.arcs import Arc, ArcSet, CLASSICAL, ENHANCED, arcs_classical, arcs_enhanced
from crossmap.crossings import (
    CROSSING,
    MAX_K,
    NESTING,
    CrossingWitness,
    _find_crossing,
    count_k_witnesses,
    find_k_crossing,
    find_k_nesting,
    max_crossing_number,
    max_nesting_number,
    oracle_count,
    oracle_find,
)
from crossmap.errors import InvalidK, OutOfRange, TooManyArcs
from crossmap.partition import enumerate_full, enumerate_partial, from_blocks, parse_text

PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"


class TestFindCrossing:
    def test_minimal_classical_2_crossing(self):
        a = arcs_classical(parse_text("4:1,3/2,4"))
        w = find_k_crossing(a, 2)
        assert w.arcs == (Arc(1, 3), Arc(2, 4))
        assert w.kind == CROSSING and w.mode == CLASSICAL

    def test_enhanced_3_crossing_with_shared_endpoint(self):
        a = arcs_enhanced(parse_text("5:1,3,5/2,4"))
        w = find_k_crossing(a, 3)
        assert w.arcs == (Arc(1, 3), Arc(2, 4), Arc(3, 5))

    def test_classical_3_crossing_absent_on_five_points(self):
        a = arcs_enhanced(parse_text("5:1,3,5/2,4"))
        assert find_k_crossing(a, 3, CLASSICAL) is None

    def test_invalid_k(self):
        a = arcs_classical(parse_text("4:1,3/2,4"))
        with pytest.raises(InvalidK):
            find_k_crossing(a, 0)
        with pytest.raises(InvalidK):
            find_k_crossing(a, 9)


class TestFindNesting:
    def test_minimal_classical_2_nesting(self):
        a = arcs_classical(parse_text("4:1,4/2,3"))
        assert find_k_nesting(a, 2).arcs == (Arc(1, 4), Arc(2, 3))

    def test_enhanced_nesting_with_innermost_loop(self):
        a = arcs_enhanced(parse_text("3:1,3/2"))
        assert find_k_nesting(a, 2).arcs == (Arc(1, 3), Arc(2, 2))

    def test_classical_nesting_needs_two_nontrivial_arcs(self):
        a = arcs_enhanced(parse_text("3:1,3/2"))
        assert find_k_nesting(a, 2, CLASSICAL) is None

    def test_unknown_mode_is_out_of_range(self):
        # read as enhanced, "Classical" would find the loop (2, 2)
        a = arcs_enhanced(parse_text("3:1,3/2"))
        for call in (
            lambda: find_k_nesting(a, 2, "Classical"),
            lambda: find_k_crossing(a, 1, "Classical"),
            lambda: max_nesting_number(a, "Classical"),
            lambda: count_k_witnesses(a, 2, NESTING, "Classical"),
            lambda: oracle_find(a, 2, NESTING, "Classical"),
        ):
            with pytest.raises(OutOfRange):
                call()


class TestMaxNumbers:
    def test_paper_example_enhanced_crossing_number(self):
        a = arcs_enhanced(parse_text(PAPER_PI))
        assert max_crossing_number(a) == 3
        assert find_k_crossing(a, 3).arcs == (Arc(1, 4), Arc(2, 5), Arc(4, 7))

    def test_paper_image_classical_crossing_number(self):
        a = arcs_classical(parse_text(PAPER_PI_HAT))
        assert max_crossing_number(a) == 3
        assert find_k_crossing(a, 3).arcs == (Arc(1, 5), Arc(2, 6), Arc(4, 8))

    def test_all_singletons(self):
        p = from_blocks(5, [[e] for e in range(1, 6)])
        a = arcs_enhanced(p)
        assert max_crossing_number(a, CLASSICAL) == 0
        assert max_crossing_number(a, ENHANCED) == 1

    def test_nesting_examples(self):
        assert max_nesting_number(arcs_classical(parse_text("4:1,4/2,3"))) == 2
        a = arcs_enhanced(parse_text("5:1,5/2,4/3"))
        assert max_nesting_number(a) == 3
        assert find_k_nesting(a, 3).arcs == (Arc(1, 5), Arc(2, 4), Arc(3, 3))
        assert max_nesting_number(arcs_classical(parse_text("0:"))) == 0


class TestCounts:
    def test_single_2_crossing(self):
        a = arcs_classical(parse_text("4:1,3/2,4"))
        assert count_k_witnesses(a, 2, CROSSING) == 1

    def test_k1_counts_all_arcs(self):
        a = arcs_enhanced(parse_text(PAPER_PI))
        assert count_k_witnesses(a, 1, CROSSING) == 6
        b = arcs_classical(parse_text(PAPER_PI_HAT))
        assert count_k_witnesses(b, 1, CROSSING) == 6

    def test_paper_example_has_one_3_crossing(self):
        a = arcs_enhanced(parse_text(PAPER_PI))
        assert count_k_witnesses(a, 3, CROSSING) == 1

    def test_k1_semantics(self):
        # classical 1-crossings are the nontrivial arcs; enhanced ones are all arcs
        for p in enumerate_partial(5):
            a = arcs_enhanced(p)
            nontrivial = sum(1 for arc in a if not arc.is_loop)
            assert count_k_witnesses(a, 1, CROSSING, CLASSICAL) == nontrivial
            assert count_k_witnesses(a, 1, CROSSING, ENHANCED) == len(a)
            assert count_k_witnesses(a, 1, NESTING, CLASSICAL) == nontrivial
            assert count_k_witnesses(a, 1, NESTING, ENHANCED) == len(a)


class TestOracle:
    def test_oracle_matches_examples(self):
        a = arcs_enhanced(parse_text("5:1,3,5/2,4"))
        assert oracle_find(a, 3, CROSSING).arcs == find_k_crossing(a, 3).arcs
        assert oracle_find(a, 3, CROSSING, CLASSICAL) is None

    @pytest.mark.parametrize("oracle", [oracle_find, oracle_count])
    def test_unknown_kind_is_out_of_range(self, oracle):
        a = arcs_enhanced(parse_text("5:1,3,5/2,4"))
        with pytest.raises(OutOfRange):
            oracle(a, 2, "bogus")

    def test_too_many_arcs(self):
        arcs = tuple(Arc(i, i) for i in range(1, 26))
        with pytest.raises(TooManyArcs):
            oracle_find(ArcSet(ENHANCED, arcs), 2, CROSSING)

    @pytest.mark.parametrize("mode", [CLASSICAL, ENHANCED])
    @pytest.mark.parametrize("kind", [CROSSING, NESTING])
    def test_detector_agrees_with_oracle_n6(self, kind, mode):
        finder = find_k_crossing if kind == CROSSING else find_k_nesting
        for p in enumerate_full(6):
            a = arcs_enhanced(p)
            for k in range(1, 5):
                fast = finder(a, k, mode)
                slow = oracle_find(a, k, kind, mode)
                assert (fast is None) == (slow is None)
                if fast is not None:
                    assert fast.arcs == slow.arcs
                assert count_k_witnesses(a, k, kind, mode) == oracle_count(a, k, kind, mode)


class TestWalk:
    """One walk per (kind, mode) answers every k; its memo lives on the ArcSet."""

    @pytest.mark.parametrize("mode", [CLASSICAL, ENHANCED])
    @pytest.mark.parametrize("kind", [CROSSING, NESTING])
    @pytest.mark.parametrize("n", range(7))
    def test_every_order_agrees_with_oracle(self, n, kind, mode):
        finder = find_k_crossing if kind == CROSSING else find_k_nesting
        for p in enumerate_partial(n):
            # A fresh arc set, asked for the highest k first, so an answer
            # cannot come from a memo an earlier, smaller k filled.
            a = arcs_enhanced(p)
            for k in range(MAX_K, 0, -1):
                slow = oracle_find(a, k, kind, mode)
                fast = finder(a, k, mode)
                assert (fast and fast.arcs) == (slow and slow.arcs)
                assert count_k_witnesses(a, k, kind, mode) == oracle_count(a, k, kind, mode)
                if kind == CROSSING:
                    # As _walked does: strict arcs hold no loop.
                    arcs = a.arcs if mode == ENHANCED else [x for x in a.arcs if x[0] != x[1]]
                    stopped = _find_crossing(arcs, k, mode == CLASSICAL)
                    assert stopped == (slow and slow.arcs)

    @pytest.mark.parametrize("mode", [CLASSICAL, ENHANCED])
    def test_max_numbers_match_oracle(self, mode):
        for n in range(8):
            for p in enumerate_partial(n):
                a = arcs_enhanced(p)
                for kind, maxer in ((CROSSING, max_crossing_number), (NESTING, max_nesting_number)):
                    k = 0
                    while k < MAX_K and oracle_find(a, k + 1, kind, mode) is not None:
                        k += 1
                    assert maxer(a, mode) == k

    def test_memo_is_not_part_of_the_value(self):
        for p in enumerate_partial(4):
            a = arcs_enhanced(p)
            for kind in (CROSSING, NESTING):
                for mode in (CLASSICAL, ENHANCED):
                    count_k_witnesses(a, 1, kind, mode)
            assert len(a._walks) == 4
            fresh = ArcSet(a.mode, a.arcs)
            assert not fresh._walks
            assert a == fresh and hash(a) == hash(fresh) and repr(a) == repr(fresh)

    @pytest.mark.parametrize("mode", [CLASSICAL, ENHANCED])
    def test_one_count_fills_both_kinds(self, mode, monkeypatch):
        walks = []
        walk = crossings._walk
        monkeypatch.setattr(crossings, "_walk", lambda *args: walks.append(args) or walk(*args))
        for n in range(7):
            for i, p in enumerate(enumerate_partial(n)):
                for a in (arcs_enhanced(p), arcs_classical(p)):
                    del walks[:]
                    count_k_witnesses(a, 1, (CROSSING, NESTING)[i % 2], mode)
                    assert set(a._walks) == {(CROSSING, mode), (NESTING, mode)}
                    # Every k of both kinds now reads that one walk.
                    for kind, finder in ((CROSSING, find_k_crossing), (NESTING, find_k_nesting)):
                        for k in range(1, MAX_K + 1):
                            assert count_k_witnesses(a, k, kind, mode) == oracle_count(a, k, kind, mode)
                            assert finder(a, k, mode) == oracle_find(a, k, kind, mode)
                    assert len(walks) == 1


def _pairwise_witness(arcs, kind, mode):
    """Independent characterization: every pair must itself be a 2-witness."""
    if len(arcs) == 1:
        (a,) = arcs
        return a.left < a.right if mode == CLASSICAL else True
    for x, y in combinations(arcs, 2):
        x, y = sorted((x, y))
        if kind == CROSSING:
            ok = x.left < y.left and x.right < y.right and (
                y.left < x.right if mode == CLASSICAL else y.left <= x.right
            )
        else:
            ok = x.left < y.left and y.right < x.right and (
                y.left < y.right if mode == CLASSICAL else y.left <= y.right
            )
        if not ok:
            return False
    return True


class TestProperties:
    @pytest.mark.parametrize("mode", [CLASSICAL, ENHANCED])
    @pytest.mark.parametrize("kind", [CROSSING, NESTING])
    def test_subset_characterization(self, kind, mode):
        for p in enumerate_full(6):
            a = arcs_enhanced(p)
            for k in range(1, 5):
                by_pairs = sum(
                    1
                    for combo in combinations(a.arcs, k)
                    if _pairwise_witness(combo, kind, mode)
                )
                assert by_pairs == count_k_witnesses(a, k, kind, mode)

    def test_monotonicity_and_avoidance_consistency(self):
        for p in enumerate_full(6):
            a = arcs_enhanced(p)
            for mode in (CLASSICAL, ENHANCED):
                for kind, counter, finder, maxer in (
                    (CROSSING, count_k_witnesses, find_k_crossing, max_crossing_number),
                    (NESTING, count_k_witnesses, find_k_nesting, max_nesting_number),
                ):
                    m = maxer(a, mode)
                    for k in range(2, 5):
                        if counter(a, k, kind, mode) > 0:
                            assert counter(a, k - 1, kind, mode) > 0
                    for k in range(1, 5):
                        assert (m < k) == (finder(a, k, mode) is None)

    def test_classical_witnesses_never_contain_loops(self):
        for p in enumerate_partial(6):
            a = arcs_enhanced(p)
            for k in range(1, 4):
                for finder in (find_k_crossing, find_k_nesting):
                    w = finder(a, k, CLASSICAL)
                    if w is not None:
                        assert all(not arc.is_loop for arc in w.arcs)


class TestJson:
    def test_witness_to_json(self):
        w = CrossingWitness(CROSSING, ENHANCED, (Arc(1, 4), Arc(2, 5), Arc(4, 7)))
        assert w.to_json() == {
            "kind": "crossing",
            "mode": "enhanced",
            "arcs": [[1, 4], [2, 5], [4, 7]],
        }
