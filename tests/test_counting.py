import gc
import hashlib
import inspect
import math
import textwrap
import tracemalloc

import pytest

from crossmap import counting
from crossmap.counting import (
    DEFAULT_BUDGET,
    INT64_MAX,
    IdentityReport,
    _partial_keys,
    _reverse_keys,
    bell,
    binomial,
    checked,
    count_C,
    count_E,
    count_partial_E,
    count_table,
    verify_eigensequence,
    verify_identity,
)
from crossmap.errors import InvalidK, Overflow, OutOfBudget, OutOfRange
from crossmap.arcs import arcs_classical, arcs_enhanced
from crossmap.crossings import CROSSING, find_k_crossing, oracle_find
from crossmap.oeis import bundled
from crossmap.bijection import reverse
from crossmap.partition import PartialPartition, _iter_labels, enumerate_full, enumerate_partial, parse_text


BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]

#: The walk's counts on [20] for k = 1..8, taken from the unpruned walk that
#: rebuilt every step; Bell(20) items are too many to enumerate.
WALK_AT_CAP = {
    "C": [
        1, 6564120420, 6123822269373, 36544023687590, 50193986895328,
        51665915664913, 51723290618772, 51724153679062,
    ],
    "E": [
        0, 50852019, 1705548000296, 26898763482122, 47950929125540,
        51505026270176, 51718812364549, 51724106292307,
    ],
    "partial_E": [
        1, 24466267020, 40877248201308, 309088822019071, 455436027242590,
        473990899143781, 474853429890994, 474869697851972,
    ],
}

#: Per (enhanced, partial): the last n at which the walk's column stays
#: inside int64, for k = 2..8, and the sha256 of repr() of those seven
#: columns, taken from the walk that built its classical and enhanced steps
#: by two separate recipes.
WALK_EDGES = {
    (False, False): ([35, 27, 25, 25, 25, 25, 25],
                     "3b4e56d8357ffabe7f7554b037fa85134f0d5b3690b6125f10c75dbb0480bac9"),
    (True, False): ([44, 28, 25, 25, 25, 25, 25],
                    "aa678bd904b1a0c3a8deb576dee51104ed964ba638d6ea08b8d76b8c37f6e603"),
    (True, True): ([34, 26, 24, 24, 24, 24, 24],
                   "f23e9d3cdf43c3156cdfdf7cf121ef4c391597ed91c171239f97d73ed53d73b1"),
    (False, True): ([30, 25, 24, 24, 24, 24, 24],
                    "ed8c428b744c9ff8232b73ae00e553a0cfa094182a2e41eb41f812151525df37"),
}


class TestBinomial:
    def test_values(self):
        assert binomial(5, 2) == 10
        assert binomial(9, 4) == 126
        assert binomial(7, 0) == 1
        assert binomial(62, 31) > 0

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            binomial(3, 4)
        with pytest.raises(OutOfRange):
            binomial(5, -1)

    def test_int64_edge(self):
        # checked() is the one cap: C(66, 33) = 7.2e18 fits, C(67, 33) = 1.4e19 does not.
        assert binomial(63, 1) == 63
        assert binomial(66, 33) == 7219428434016265740
        with pytest.raises(Overflow, match="exceeds the signed 64-bit range"):
            binomial(67, 33)


class TestChecked:
    def test_passes_int64(self):
        assert checked(INT64_MAX) == INT64_MAX

    def test_overflow(self):
        with pytest.raises(Overflow):
            checked(INT64_MAX + 1)


class TestBell:
    @pytest.mark.parametrize("n,value", list(enumerate(BELL)))
    def test_small_values(self, n, value):
        assert bell(n) == value

    def test_cap(self):
        # Bell(26) = 49,631,246,523,618,756,274 lies past 2**63 - 1.
        assert bell(25) == 4638590332229999353
        assert len(counting._bell_column()) == 26
        with pytest.raises(Overflow, match=r"^Bell\(26\) exceeds the signed 64-bit range, which ends at Bell\(25\)$"):
            bell(26)
        with pytest.raises(OutOfRange, match="n must be >= 0, got -1"):
            bell(-1)


class TestCounts:
    def test_catalan_prefix(self):
        assert [count_C(2, n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]

    def test_motzkin_prefix(self):
        assert [count_E(2, n) for n in range(7)] == [1, 1, 2, 4, 9, 21, 51]

    def test_three_crossing_values(self):
        assert count_C(3, 6) == 202
        assert count_E(3, 5) == 51

    def test_k1(self):
        for n in range(1, 6):
            assert count_C(1, n) == 1
            assert count_E(1, n) == 0
        assert count_E(1, 0) == 1

    def test_budget(self, monkeypatch):
        # The budget binds enumeration only; the walk answers to the ground set.
        with pytest.raises(OutOfBudget, match="^n=13 exceeds the enumeration budget 12$"):
            count_C(2, DEFAULT_BUDGET + 1, parts=2)
        with pytest.raises(OutOfBudget, match="^n=5 exceeds the enumeration budget 4$"):
            count_partial_E(2, 5, parts=2, budget=4)

        def boom(*args):
            raise AssertionError("the walk route enumerated")

        monkeypatch.setattr(counting, "_count_cached", boom)
        assert count_C(2, DEFAULT_BUDGET + 1) == 742900  # Catalan(13), walked
        assert count_E(2, 5, budget=0) == 21
        with pytest.raises(InvalidK):
            count_C(0, 3)

    def test_every_count_needs_a_k(self):
        # Only verify_eigensequence and the Bell column run without a k.
        with pytest.raises(InvalidK):
            count_C(None, 3)
        with pytest.raises(InvalidK):
            count_E(None, 3, parts=2)
        with pytest.raises(InvalidK):
            count_table("E", None, 3)

    def test_small_n_equals_bell(self):
        # a classical k-crossing needs 2k elements, an enhanced one 2k-1
        for k in (2, 3, 4):
            for n in range(min(2 * k, 8)):
                assert count_C(k, n) == bell(n)
            for n in range(min(2 * k - 1, 8)):
                assert count_E(k, n) == bell(n)

    def test_sandwich(self):
        for k in (1, 2, 3):
            for n in range(8):
                assert count_E(k, n) <= count_C(k, n) <= bell(n)

    @pytest.mark.parametrize("parts", [1, 2, 4, 8])
    def test_parallel_determinism(self, parts):
        assert count_C(3, 7, parts=parts) == 859
        assert count_E(3, 7, parts=parts) == 772
        assert count_partial_E(2, 5, parts=parts) == count_partial_E(2, 5)

    @pytest.mark.parametrize(
        "count, args",
        [
            (count_C, (2, 5)),
            (count_E, (2, 5)),
            (count_partial_E, (2, 5)),
            (count_C, (2, 5, 2)),
            (count_E, (2, 5, 2)),
            (count_partial_E, (2, 5, 3)),
            (count_table, ("C", 3, 2)),
            (count_table, ("E", 3, 2)),
            (count_table, ("Bell", None, 2)),
        ],
        ids=["C", "E", "partial_E", "C-parts", "E-parts", "partial_E-parts", "table-C", "table-E", "table-Bell"],
    )
    def test_negative_budget_is_out_of_range(self, count, args):
        # On every route and family, as a usage error (exit 2), not as a
        # budget refusal: no n has been compared with it yet.
        with pytest.raises(OutOfRange) as err:
            count(*args, budget=-5)
        assert str(err.value) == "budget must be >= 0, got -5" and err.value.exit_code == 2

    def test_budget_checked_after_k_and_before_n(self):
        with pytest.raises(InvalidK, match="^k must be >= 1, got 0$"):
            count_C(0, -1, budget=-1)
        with pytest.raises(InvalidK, match="^k must be >= 1, got 0$"):
            count_table("E", 0, 2, budget=-1)
        for call in (
            lambda: count_C(2, -1, budget=-1),
            lambda: count_E(2, 21, parts=2, budget=-1),
            lambda: count_table("C", 3, 25, budget=-1),
            lambda: count_table("Bell", None, -1, budget=-1),
        ):
            with pytest.raises(OutOfRange, match="^budget must be >= 0, got -1$"):
                call()

    def test_every_column_refuses_a_negative_n_max(self):
        with pytest.raises(OutOfRange, match="^n must be >= 0, got -1$"):
            count_table("Bell", None, -1)
        with pytest.raises(OutOfRange, match=r"^n must be in 0\.\.20, got -1$"):
            count_table("C", 3, -1)
        assert count_table("Bell", None, 0) == {0: 1}

    @pytest.mark.parametrize("n", range(7))
    def test_enumeration_matches_validated_objects(self, n):
        # The raw label-array route against partitions and arc sets built
        # through the validating public API.
        for k in range(1, 5):
            for enhanced, partial, stream, arcs in (
                (False, False, enumerate_full, arcs_classical),
                (True, False, enumerate_full, arcs_enhanced),
                (True, True, enumerate_partial, arcs_enhanced),
            ):
                want = sum(find_k_crossing(arcs(p), k) is None for p in stream(n))
                assert counting._count_cached(k, n, enhanced, partial) == want, (k, enhanced, partial)


def _enumerated(k, n, enhanced, partial=False):
    return counting._count_cached(k, n, enhanced, partial)


def _no_walk(*args):
    raise AssertionError("the tableau walk must not run here")


class TestWalk:
    # One walk to 9 (8 for partial) gives every shorter length: its column
    # must match enumeration entry by entry, as each count does.
    @pytest.mark.parametrize("k", range(1, 7))
    def test_classical_matches_enumeration(self, k):
        column = counting._walk(k, 9, False, False)
        for n in range(10):
            assert count_C(k, n) == column[n] == _enumerated(k, n, enhanced=False), n

    @pytest.mark.parametrize("k", range(1, 7))
    def test_enhanced_matches_enumeration(self, k):
        column = counting._walk(k, 9, True, False)
        for n in range(10):
            assert count_E(k, n) == column[n] == _enumerated(k, n, enhanced=True), n

    @pytest.mark.parametrize("k", range(1, 7))
    def test_partial_enhanced_matches_enumeration(self, k):
        column = counting._walk(k, 8, True, True)
        for n in range(9):
            assert count_partial_E(k, n) == column[n] == _enumerated(k, n, enhanced=True, partial=True), n

    @pytest.mark.parametrize("k", range(1, 7))
    def test_partial_classical_matches_enumeration(self, k):
        column = counting._walk(k, 8, False, True)
        for n in range(9):
            assert column[n] == _enumerated(k, n, enhanced=False, partial=True), n

    @pytest.mark.parametrize("enhanced, partial", list(WALK_EDGES))
    def test_columns_pinned_to_the_int64_edge(self, enhanced, partial):
        edges, digest = WALK_EDGES[enhanced, partial]
        columns = []
        for k, edge in enumerate(edges, start=2):
            columns.append(counting._walk(k, edge, enhanced, partial))
            with pytest.raises(Overflow):
                counting._walk(k, edge + 1, enhanced, partial)
        assert hashlib.sha256(repr(columns).encode()).hexdigest() == digest

    def test_closed_forms_at_the_ground_set_cap(self):
        # Catalan(20) and Motzkin(20); Bell(20) items would take hours to enumerate
        assert count_C(2, 20) == 6564120420
        assert count_E(2, 20) == 50852019
        # Each column to 20 is exact at every length.  Partial E on [n] is
        # Catalan(n+1): the identity for k = 2.
        catalan = [math.comb(2 * n, n) // (n + 1) for n in range(22)]
        motzkin = [sum(math.comb(n, 2 * i) * catalan[i] for i in range(n // 2 + 1)) for n in range(21)]
        assert counting._walk(2, 20, False, False) == catalan[:21]
        assert counting._walk(2, 20, True, False) == motzkin
        assert counting._walk(2, 20, True, True) == catalan[1:]
        with pytest.raises(OutOfRange):
            count_partial_E(2, 21)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_k_at_the_ground_set_cap(self, k):
        assert count_C(k, 20) == WALK_AT_CAP["C"][k - 1]
        assert count_E(k, 20) == WALK_AT_CAP["E"][k - 1]
        assert count_partial_E(k, 20) == WALK_AT_CAP["partial_E"][k - 1]

    @pytest.mark.parametrize("oeis_id, enhanced", [("A108304", False), ("A108307", True)])
    def test_reproduces_the_bundled_three_crossing_terms(self, oeis_id, enhanced):
        ref = bundled(oeis_id)
        assert len(ref.values) == 16
        assert counting._walk(3, 15, enhanced, False) == list(ref.values)

    def test_parts_route_enumerates(self, monkeypatch):
        monkeypatch.setattr(counting, "_walk", _no_walk)
        assert count_C(3, 7, parts=2) == 859
        assert count_partial_E(2, 5, parts=3) == _enumerated(2, 5, enhanced=True, partial=True)

    def test_bad_parts(self):
        with pytest.raises(OutOfRange, match="parts must be >= 1, got 0"):
            count_C(3, 3, parts=0)
        with pytest.raises(OutOfRange, match="parts must be >= 1, got -1"):
            count_partial_E(2, 3, parts=-1)

    def test_count_and_count_table_share_one_entry(self):
        counting._count_cached.cache_clear()
        assert count_C(3, 7, parts=2) == 859
        hits = counting._count_cached.cache_info().hits
        assert count_table("C", 3, 7)[7] == 859
        assert counting._count_cached.cache_info().hits == hits + 1

    def test_count_table_keeps_enumeration_route(self, monkeypatch):
        counting._count_cached.cache_clear()
        monkeypatch.setattr(counting, "_walk", _no_walk)
        assert list(count_table("C", 3, 9).values()) == [
            1, 1, 2, 5, 15, 52, 202, 859, 3930, 19095
        ]


def _oscillating(k, n):
    """Closed walks of each length 2m = 0, 2, .., 2n from the empty shape,
    each step adding a corner (at most k - 1 rows) or removing one."""
    states, column = {(): 1}, [1]
    for step in range(1, 2 * n + 1):
        nxt = {}
        for shape, c in states.items():
            for t in counting._add_corners(shape, k - 1) + counting._remove_corners(shape):
                nxt[t] = nxt.get(t, 0) + c
        states = nxt
        if step % 2 == 0:
            column.append(states.get((), 0))
    return column


def _matchings_without(k, m):
    """Perfect matchings of [m] with no k-crossing, each tested by the oracle."""
    return sum(
        oracle_find(arcs_classical(PartialPartition(m, tuple(labels))), k, CROSSING) is None
        for labels in _iter_labels(m, False)
        if all(labels.count(v) == 2 for v in labels)
    )


class TestCornerRules:
    # Chen et al.: the perfect matchings of [2n] with no k-crossing are the
    # oscillating tableaux of length 2n with at most k - 1 rows.  So a walk
    # that only adds or removes one corner per step checks the corner rules
    # that the partition walk composes, without it and without enumerating.
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_walk_counts_the_matchings(self, k):
        assert _oscillating(k, 4) == [_matchings_without(k, 2 * n) for n in range(5)]

    def test_one_row_gives_catalan(self):
        assert _oscillating(2, 20) == [math.comb(2 * n, n) // (n + 1) for n in range(21)]

    def test_three_and_four_crossings_pinned(self):
        assert _oscillating(3, 6) == [1, 1, 3, 14, 84, 594, 4719]
        assert _oscillating(4, 10) == [
            1, 1, 3, 15, 104, 909, 9449, 112398, 1489410, 21562086, 336086022
        ]


class TestIdentity:
    def test_k3_n5(self):
        r = verify_identity(3, 5)
        assert r.lhs == 202
        assert r.rhs_terms == [1, 5, 20, 50, 75, 51]
        assert r.rhs == 202 and r.rhs_direct == 202 and r.holds

    def test_k1_trivial(self):
        for n in range(6):
            r = verify_identity(1, n)
            assert r.lhs == 1 and r.rhs == 1 and r.holds

    def test_k2_n2(self):
        r = verify_identity(2, 2)
        assert r.lhs == 5 and r.rhs == 5 and r.holds

    def test_both_rhs_routes_agree(self):
        for k in (2, 3):
            for n in range(7):
                r = verify_identity(k, n)
                assert r.holds and r.rhs == r.rhs_direct == r.lhs

    def test_direct_route_mismatch_fails(self, monkeypatch):
        real = counting._walk

        def broken(k, n, enhanced, partial):
            column = real(k, n, enhanced, partial)
            return [0] * len(column) if partial else column

        monkeypatch.setattr(counting, "_walk", broken)
        r = verify_identity(3, 5)
        assert r.lhs == r.rhs == 202 and r.rhs_direct == 0 and not r.holds

    def test_walk_answers_to_the_ground_set_alone(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the budget was checked on the walk route")

        monkeypatch.setattr(counting, "_check_budget", boom)
        r = verify_identity(3, 19)
        assert r.lhs == WALK_AT_CAP["C"][2] and r.holds
        with pytest.raises(OutOfRange, match=r"^n must be in 0\.\.19, got 20$"):
            verify_identity(3, 20)
        assert list(inspect.signature(verify_identity).parameters) == ["k", "n"]

    def test_negative_n(self):
        with pytest.raises(OutOfRange, match=r"^n must be in 0\.\.19, got -1$"):
            verify_identity(3, -1)
        with pytest.raises(InvalidK):
            verify_identity(0, -1)

    def test_json_shape(self):
        obj = verify_identity(2, 3).to_json()
        assert obj["k"] == 2 and obj["n"] == 3
        assert obj["lhs"] == sum(obj["rhs_terms"]) == obj["rhs"]
        assert obj["holds"] is True


class TestEigensequence:
    def test_n3(self):
        r = verify_eigensequence(3)
        assert r.lhs == 15 and r.rhs == 1 + 3 + 6 + 5
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": True}
        assert r.holds

    def test_n0(self):
        r = verify_eigensequence(0)
        assert r.lhs == 1 and r.holds

    def test_n7(self):
        r = verify_eigensequence(7)
        assert r.lhs == 4140 and r.holds

    def test_reverse_runs_once_per_partition(self, monkeypatch):
        calls = []
        real = counting._reverse_keys

        def recorded(m, seen):
            calls.append(m)
            count = real(m, seen)
            # Distinct images: as many bits set as partitions visited.
            assert popcount(seen) == count == bell(m)
            return count

        monkeypatch.setattr(counting, "_reverse_keys", recorded)
        assert verify_eigensequence(6).holds
        assert calls == [7]

    def test_enumeration_route_catches_a_missed_partition(self, monkeypatch):
        real = counting._reverse_keys
        first = form_code(reverse(next(enumerate_full(7))).labels)

        def skips_its_leaf(m, seen):
            count = real(m, seen)
            clear(seen, first)
            return count - 1

        def visits_but_marks_nothing(m, seen):
            count = real(m, seen)
            clear(seen, first)
            return count

        monkeypatch.setattr(counting, "_reverse_keys", skips_its_leaf)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": False, "bijection": False}
        assert not r.holds
        # A leaf counted but left unmarked is caught by the partial side alone.
        monkeypatch.setattr(counting, "_reverse_keys", visits_but_marks_nothing)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    def test_bijection_route_catches_a_non_injective_map(self, monkeypatch):
        constant = form_code(parse_text("6:1/2/3/4/5/6").labels)
        real = counting._reverse_keys

        def constant_map(m, seen):
            # Visit every partition, but mark only the one image.
            count = real(m, words(m - 1))
            mark(seen, constant)
            return count

        monkeypatch.setattr(counting, "_reverse_keys", constant_map)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    def test_bijection_route_catches_images_outside_the_partial_set(self, monkeypatch):
        # Injective, so as many distinct images as partitions, but some of
        # them code no partition of a subset of [6]: bits 7..15 of a word
        # would give element 6 a value past 6.
        def own_keys(m, seen):
            for code in range(bell(m)):
                mark(seen, code)
            return bell(m)

        monkeypatch.setattr(counting, "_reverse_keys", own_keys)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    def test_peak_memory_is_the_bitmap(self):
        # The image bitmap of n = 9 takes 2 * 9! bytes, about 726 KB.
        tracemalloc.start()
        try:
            for n in range(10):
                verify_eigensequence(n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_leaves_no_cyclic_garbage(self):
        # Both searches recurse through closures that refer to themselves.
        # Kept alive, they would hold the image bitmap until a collector pass.
        gc.collect()
        gc.disable()
        try:
            verify_eigensequence(7)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_out_of_range_n(self):
        with pytest.raises(OutOfRange):
            verify_eigensequence(-1)
        with pytest.raises(OutOfRange, match="^n must be in 0..19, got 20$"):
            verify_eigensequence(20)

    def test_bitmap_cap(self, monkeypatch):
        # The default cap admits n = 12 and refuses n = 13.
        assert 2 * math.factorial(12) <= counting.BITMAP_CAP < 2 * math.factorial(13)

        def boom(*args):
            raise AssertionError("searched before the bitmap cap was checked")

        monkeypatch.setattr(counting, "_reverse_keys", boom)
        monkeypatch.setattr(counting, "_partial_keys", boom)
        with pytest.raises(OutOfBudget, match="^n=13 needs a 12454041600-byte bitmap"):
            verify_eigensequence(13)
        monkeypatch.setattr(counting, "BITMAP_CAP", 2 * math.factorial(5))
        with pytest.raises(OutOfBudget, match="^n=6 needs a 1440-byte bitmap, over the 240-byte"):
            verify_eigensequence(6)

    def test_bell_reports_check_every_n_then_run_each_in_turn(self, monkeypatch):
        runs = []
        real = counting.verify_eigensequence
        monkeypatch.setattr(counting, "verify_eigensequence", lambda n: runs.append(n) or real(n))
        real_bitmap = counting._check_bitmap

        def no_bitmap(n):
            raise AssertionError("checked the bitmap before the ground set")

        # The ground set first, then the bitmap of n_max, and nothing runs.
        monkeypatch.setattr(counting, "_check_bitmap", no_bitmap)
        with pytest.raises(OutOfRange, match="^n must be in 0..19, got 20$"):
            counting._bell_reports(20)
        monkeypatch.setattr(counting, "_check_bitmap", real_bitmap)
        with pytest.raises(OutOfBudget, match="^n=13 needs a 12454041600-byte bitmap"):
            counting._bell_reports(13)
        reports = counting._bell_reports(3)
        assert runs == []
        assert next(reports).n == 0 and runs == [0]
        assert [r.lhs for r in reports] == BELL[2:5] and runs == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "old, new",
        [
            ("code + a * f + (own[a] if pending & bit else 0)", "code + a * f"),
            ("seen[code + a + (own[a] if pending & bit else 0)]", "seen[code + a]"),
            ("pending | 1 << (e - 1))", "pending)"),
        ],
        ids=["inner-node", "child", "opening"],
    )
    def test_bijection_route_catches_a_dropped_pending_value(self, monkeypatch, old, new):
        # A pending a opens its image block once an element follows it, so
        # the image gives a its own value a; a search that leaves it out
        # marks forms with a absent.
        monkeypatch.setattr(counting, "_reverse_keys", mutant(_reverse_keys, old, new))
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    @pytest.mark.parametrize(
        "old, new",
        [
            ("place(1, 0, 0, 1 | 1 << n)", "place(1, 0, 0, 1 << n)"),
            ("place(x + 1, blocks, code, mask | bit)", "place(x + 1, blocks, code, mask)"),
        ],
        ids=["n-absent", "pair-with-absent"],
    )
    def test_bijection_route_catches_a_mask_without_absent(self, monkeypatch, old, new):
        # The mask must hold bit 0, for n absent, and the bit of each absent
        # element b, for the block {b, n}.
        broken = mutant(_partial_keys, old, new)
        seen = words(6)
        _reverse_keys(7, seen)
        total, hits = broken(6, seen)
        assert total == bell(7) and hits < total
        monkeypatch.setattr(counting, "_partial_keys", broken)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds


def pred_form(labels):
    """The predecessor form of a label array, written out from its definition."""
    key = [0] * len(labels)
    last = {}
    for x, v in enumerate(labels, start=1):
        if v:
            key[x - 1] = last.get(v, x)
            last[v] = x
    return bytes(key)


def form_code(labels):
    """The position of the predecessor form in the bitmap, 16 * word + bit:
    bit v_n of word sum(v_x * n!/(x+1)!) over x < n, with v_b taken as 0
    when n's block is {b, n}, and bit 0 of word 0 for n = 0."""
    n = len(labels)
    key = list(pred_form(labels))
    if n and 0 < key[-1] < n and key[key[-1] - 1] == key[-1]:
        key[key[-1] - 1] = 0
    word = sum(v * math.factorial(n) // math.factorial(x + 1) for x, v in enumerate(key[:-1], start=1))
    return 16 * word + (key[-1] if n else 0)


def words(n, spare=0):
    """A zeroed bitmap for n, n! words of 16 bits, with ``spare`` more words."""
    return memoryview(bytearray(2 * (math.factorial(n) + spare))).cast("H")


def mark(seen, code):
    seen[code >> 4] |= 1 << (code & 15)


def clear(seen, code):
    seen[code >> 4] &= ~(1 << (code & 15))


def bitmap(codes, n):
    """The bitmap for n with the bits of ``codes`` set."""
    seen = words(n)
    for code in codes:
        mark(seen, code)
    return seen


def set_bits(seen):
    """The positions whose bits are set, in increasing order."""
    return [16 * i + b for i, word in enumerate(seen) if word for b in range(16) if word >> b & 1]


def popcount(seen):
    return sum(word.bit_count() for word in seen)


class Probe:
    """A stand-in bitmap that records the position of every bit tested,
    16 * i + b for each bit b of the mask in ``seen[i] & mask``, and reads
    each bit as set."""

    def __init__(self):
        self.codes = []

    def __getitem__(self, i):
        return ProbeWord(self.codes, i)


class ProbeWord:
    def __init__(self, codes, i):
        self.codes = codes
        self.i = i

    def __and__(self, mask):
        self.codes.extend(16 * self.i + b for b in range(mask.bit_length()) if mask >> b & 1)
        return mask


def in_bounds(n, reverse_keys=_reverse_keys, partial_keys=_partial_keys):
    """Whether the reverse search for n + 1 writes only bits 0..n of words
    0..n! - 1, and the partial search for n finds every bit it tests when
    exactly those are set.  A spare word past the bitmap catches a word
    index past the end, or -1, which would wrap to the last word."""
    size = math.factorial(n)
    seen = words(n, spare=1)
    reverse_keys(n + 1, seen)
    low = words(n, spare=1)
    for i in range(size):
        low[i] = (2 << n) - 1
    return seen[size] == 0 and max(seen) < 2 << n, partial_keys(n, low) == (bell(n + 1), bell(n + 1))


def mutant(func, old, new):
    """func rebuilt from its source with the one ``old`` in it replaced by ``new``."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, old
    namespace = dict(func.__globals__)
    exec(source.replace(old, new), namespace)
    return namespace[func.__name__]


class TestPredecessorForms:
    def test_paper_example(self):
        # 9:1,4,7,9/2,5/3/6, element 8 absent; word place values 9!/(x+1)!
        labels = parse_text("9:1,4,7,9/2,5/3/6").labels
        assert pred_form(labels) == bytes([1, 2, 3, 1, 2, 6, 4, 0, 7])
        word = 1 * 181440 + 2 * 60480 + 3 * 15120 + 1 * 3024 + 2 * 504 + 6 * 72 + 4 * 9 + 0 * 1
        assert form_code(labels) == 16 * word + 7
        # The block {6, 9} puts 9:1,4,7/2,5/3/6,9 in the word where 6 is absent.
        labels = parse_text("9:1,4,7/2,5/3/6,9").labels
        assert pred_form(labels) == bytes([1, 2, 3, 1, 2, 6, 4, 0, 6])
        word = 1 * 181440 + 2 * 60480 + 3 * 15120 + 1 * 3024 + 2 * 504 + 0 * 72 + 4 * 9 + 0 * 1
        assert form_code(labels) == 16 * word + 6

    @pytest.mark.parametrize("m", range(1, 10))
    def test_reverse_keys_are_the_forms_of_the_reverse_images(self, m):
        # m = 1 and 2 reach the search's one-word case.
        seen = words(m - 1)
        assert _reverse_keys(m, seen) == popcount(seen) == bell(m)
        want = [form_code(reverse(q).labels) for q in enumerate_full(m)]
        assert set_bits(seen) == sorted(want)

    @pytest.mark.parametrize("n", range(9))
    def test_partial_keys_are_the_forms_of_enumerate_partial(self, n):
        # n = 0 and 1 reach the search's one-word case.
        probe = Probe()
        assert _partial_keys(n, probe) == (bell(n + 1), bell(n + 1))
        assert len(probe.codes) == len(set(probe.codes)) == bell(n + 1)
        forms = [form_code(p.labels) for p in enumerate_partial(n)]
        assert sorted(probe.codes) == sorted(forms)
        assert _partial_keys(n, bitmap(forms, n)) == (bell(n + 1), bell(n + 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partial_keys_count_only_true_visits(self, n):
        # Leaving out element 1 leaves the partitions of subsets of [2..n].
        # v_1 is the top digit of the word index for n >= 2, so their forms
        # fill the lower half of the words, but for bit 1, which holds the
        # block {1, n}; for n = 1, v_1 is the bit itself.
        seen = words(n)
        if n == 1:
            seen[0] = 1
        else:
            for i in range(math.factorial(n) // 2):
                seen[i] = 0xFFFF & ~2
        assert _partial_keys(n, seen) == (bell(n + 1), bell(n))

    @pytest.mark.parametrize("n", range(10))
    def test_codes_index_the_bitmap(self, n):
        # verify_eigensequence(n) marks and tests bits 0..n of words
        # 0..n! - 1 only.
        assert in_bounds(n) == (True, True)

    @pytest.mark.parametrize(
        "search, old, new",
        [
            (_reverse_keys, "seen[code + a + (own", "seen[code + a + 1 + (own"),
            (_partial_keys, "seen[code + x] & mask", "seen[code + x + 1] & mask"),
        ],
        ids=["reverse-write", "partial-read"],
    )
    def test_a_word_offset_off_by_one_is_caught(self, search, old, new):
        broken = mutant(search, old, new)
        if search is _reverse_keys:
            assert in_bounds(5, reverse_keys=broken) == (False, True)
        else:
            assert in_bounds(5, partial_keys=broken) == (True, False)

    def test_every_admitted_n_fits_v_n_in_a_word(self):
        # v_n <= n is a bit of a 16-bit word, so n + 1 <= 16 for every n the
        # default cap admits; n = 13 is the first it refuses.
        admitted = []
        for n in range(20):
            try:
                counting._check_bitmap(n)
            except OutOfBudget:
                break
            admitted.append(n)
        assert admitted == list(range(13))
        assert max(admitted) + 1 <= 16 and words(0).itemsize == 2


class TestSequenceTable:
    """count_table returns one plain column {n: value}."""

    def test_values_and_rows(self):
        t = count_table("C", 2, 4)
        assert t == {0: 1, 1: 1, 2: 2, 3: 5, 4: 14}
        assert list(t.items())[0] == (0, 1)
        assert list(t.items())[-1] == (4, 14)

    def test_bell_family_uses_no_k(self):
        t = count_table("Bell", None, 3)
        assert t == {0: 1, 1: 1, 2: 2, 3: 5}
        assert list(t.items())[-1] == (3, 5)

    def test_overflow_rejected(self):
        with pytest.raises(Overflow):
            checked(INT64_MAX + 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(OutOfRange):
            count_table("partial-E", 3, 4)
        # Up front, even when the column would be empty.
        with pytest.raises(OutOfRange, match="unknown family 'partial-E'"):
            count_table("partial-E", 3, -1)
