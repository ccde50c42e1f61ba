import gc
import math
import tracemalloc
from collections import Counter

import pytest

from crossmap import counting, partition
from crossmap.counting import (
    DEFAULT_BUDGET,
    INT64_MAX,
    IdentityReport,
    bell,
    binomial,
    checked,
    count_C,
    count_E,
    count_partial_E,
    count_table,
    distribution_table,
    verify_eigensequence,
    verify_identity,
)
from crossmap.errors import InvalidK, Overflow, OutOfBudget, OutOfRange
from crossmap.arcs import CLASSICAL, ENHANCED, arcs_classical, arcs_enhanced
from crossmap.crossings import max_crossing_number, max_nesting_number
from crossmap.oeis import bundled
from crossmap.bijection import _reverse_keys, reverse
from crossmap.partition import _partial_keys, enumerate_full, enumerate_partial, parse_text


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
            binomial(63, 1)
        with pytest.raises(OutOfRange):
            binomial(5, -1)


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
        with pytest.raises(Overflow, match=r"Bell\(26\) exceeds the signed 64-bit range"):
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

    def test_budget(self):
        with pytest.raises(OutOfBudget):
            count_C(2, DEFAULT_BUDGET + 1)
        with pytest.raises(InvalidK):
            count_C(0, 3)

    def test_every_count_needs_a_k(self):
        # Only verify_eigensequence and distribution_table run without a k.
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

    def test_closed_forms_at_the_ground_set_cap(self):
        # Catalan(20) and Motzkin(20); Bell(20) items would take hours to enumerate
        assert count_C(2, 20, budget=20) == 6564120420
        assert count_E(2, 20, budget=20) == 50852019
        # Each column to 20 is exact at every length.  Partial E on [n] is
        # Catalan(n+1): the identity for k = 2.
        catalan = [math.comb(2 * n, n) // (n + 1) for n in range(22)]
        motzkin = [sum(math.comb(n, 2 * i) * catalan[i] for i in range(n // 2 + 1)) for n in range(21)]
        assert counting._walk(2, 20, False, False) == catalan[:21]
        assert counting._walk(2, 20, True, False) == motzkin
        assert counting._walk(2, 20, True, True) == catalan[1:]
        with pytest.raises(OutOfRange):
            count_partial_E(2, 21, budget=21)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_k_at_the_ground_set_cap(self, k):
        assert count_C(k, 20, budget=20) == WALK_AT_CAP["C"][k - 1]
        assert count_E(k, 20, budget=20) == WALK_AT_CAP["E"][k - 1]
        assert count_partial_E(k, 20, budget=20) == WALK_AT_CAP["partial_E"][k - 1]

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
            count = real(m, bytearray(len(seen)))
            mark(seen, constant)
            return count

        monkeypatch.setattr(counting, "_reverse_keys", constant_map)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    def test_bijection_route_catches_images_outside_the_partial_set(self, monkeypatch):
        # Injective, so as many distinct images as partitions, but some of
        # them code no partition of a subset of [6]: code 2 gives element 2
        # the predecessor 1 while 1 is absent.
        def own_keys(m, seen):
            for code in range(bell(m)):
                mark(seen, code)
            return bell(m)

        monkeypatch.setattr(counting, "_reverse_keys", own_keys)
        r = verify_eigensequence(6)
        assert r.routes == {"triangle": True, "enumeration": True, "bijection": False}
        assert not r.holds

    def test_peak_memory_is_the_bitmap(self):
        # The image bitmap of n = 9 takes 10!/8 bytes, about 454 KB.
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
        with pytest.raises(OutOfRange):
            verify_eigensequence(20, budget=20)

    def test_bitmap_cap(self, monkeypatch):
        # The default cap admits the default budget and nothing past it.
        assert math.factorial(13) // 8 <= counting.BITMAP_CAP < math.factorial(14) // 8

        def boom(*args):
            raise AssertionError("searched before the bitmap cap was checked")

        monkeypatch.setattr(counting, "_reverse_keys", boom)
        with pytest.raises(OutOfBudget, match="^n=13 needs a 10897286400-byte bitmap"):
            verify_eigensequence(13, budget=13)
        monkeypatch.setattr(counting, "BITMAP_CAP", math.factorial(6) // 8)
        with pytest.raises(OutOfBudget, match="^n=6 needs a 630-byte bitmap, over the 90-byte"):
            verify_eigensequence(6)


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
    """The integer code of the predecessor form: sum of v_x * x!."""
    return sum(v * math.factorial(x) for x, v in enumerate(pred_form(labels), start=1))


def mark(seen, code):
    seen[code >> 3] |= 1 << (code & 7)


def clear(seen, code):
    seen[code >> 3] &= ~(1 << (code & 7))


def bitmap(codes, size):
    """A bitmap of ``size`` bytes with the bits of ``codes`` set."""
    seen = bytearray(size)
    for code in codes:
        mark(seen, code)
    return seen


def set_bits(seen):
    """The codes whose bits are set, in increasing order."""
    return [8 * i + b for i, byte in enumerate(seen) if byte for b in range(8) if byte >> b & 1]


def popcount(seen):
    return int.from_bytes(seen, "little").bit_count()


class Probe:
    """A stand-in bitmap that records the code of every bit tested,
    8 * i + s for ``seen[i] >> s``, and reads each bit as set."""

    def __init__(self):
        self.codes = []

    def __getitem__(self, i):
        return ProbeByte(self.codes, i)


class ProbeByte:
    def __init__(self, codes, i):
        self.codes = codes
        self.i = i

    def __rshift__(self, s):
        self.codes.append(8 * self.i + s)
        return 1


class TestPredecessorForms:
    def test_paper_example(self):
        # 9:1,4,7,9/2,5/3/6, element 8 absent
        labels = parse_text("9:1,4,7,9/2,5/3/6").labels
        assert pred_form(labels) == bytes([1, 2, 3, 1, 2, 6, 4, 0, 7])
        assert form_code(labels) == 1 + 2 * 2 + 3 * 6 + 1 * 24 + 2 * 120 + 6 * 720 + 4 * 5040 + 7 * 362880

    @pytest.mark.parametrize("m", range(1, 10))
    def test_reverse_keys_are_the_forms_of_the_reverse_images(self, m):
        # m = 1 reaches the search's plain leaf: one visit, bit 0 alone.
        seen = bytearray((math.factorial(m) + 7) // 8)
        assert _reverse_keys(m, seen) == popcount(seen) == bell(m)
        want = [form_code(reverse(q).labels) for q in enumerate_full(m)]
        assert set_bits(seen) == sorted(want)

    @pytest.mark.parametrize("n", range(9))
    def test_partial_keys_are_the_forms_of_enumerate_partial(self, n):
        # n = 0 reaches the search's plain leaf: one visit, code 0.
        probe = Probe()
        assert _partial_keys(n, probe) == (bell(n + 1), bell(n + 1))
        assert len(probe.codes) == len(set(probe.codes)) == bell(n + 1)
        forms = [form_code(p.labels) for p in enumerate_partial(n)]
        assert sorted(probe.codes) == sorted(forms)
        size = (math.factorial(n + 1) + 7) // 8
        assert _partial_keys(n, bitmap(forms, size)) == (bell(n + 1), bell(n + 1))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_partial_keys_count_only_true_visits(self, n):
        # Leaving out element 1 leaves the partitions of subsets of [2..n];
        # x! is even for x >= 2, so the code is even exactly then.
        evens = bytearray(b"\x55" * ((math.factorial(n + 1) + 7) // 8))
        assert _partial_keys(n, evens) == (bell(n + 1), bell(n))

    @pytest.mark.parametrize("n", range(10))
    def test_codes_index_the_bitmap(self, n):
        # verify_eigensequence(n) marks and tests bits 0..(n+1)! - 1 only.
        # A spare byte past the bitmap catches a code past the end, or one
        # in -8..-1, which would wrap to the last byte.
        size = math.factorial(n + 1)
        nbytes = (size + 7) // 8 + 1
        seen = bytearray(nbytes)
        _reverse_keys(n + 1, seen)
        assert int.from_bytes(seen, "little") >> size == 0
        low = bytearray(((1 << size) - 1).to_bytes(nbytes, "little"))
        assert _partial_keys(n, low) == (bell(n + 1), bell(n + 1))


class TestDistribution:
    def test_n0(self):
        t = distribution_table(0, k_max=1)
        row = next(r for r in t.rows if r.kind == "crossing" and r.k == 0)
        assert row.partial_enhanced == row.full_classical == 1
        assert t.all_match

    def test_n4_crossings(self):
        t = distribution_table(4, k_max=3)
        assert t.all_match
        total = sum(r.partial_enhanced for r in t.rows if r.kind == "crossing")
        assert total == bell(5)

    def test_n5_nestings(self):
        t = distribution_table(5, k_max=3)
        for r in t.rows:
            if r.kind == "nesting":
                assert r.match

    def test_budget(self):
        with pytest.raises(OutOfBudget):
            distribution_table(10, k_max=2)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_validated_objects(self, n):
        # The label-array route against partitions and arc sets built through
        # the validating public API.
        def tally(arc_sets, mode):
            return {
                kind: Counter(order(a, mode) for a in arc_sets)
                for kind, order in (("crossing", max_crossing_number), ("nesting", max_nesting_number))
            }

        part = tally([arcs_enhanced(p) for p in enumerate_partial(n)], ENHANCED)
        full = tally([arcs_classical(q) for q in enumerate_full(n + 1)], CLASSICAL)
        expected = [
            (kind, k, part[kind][k], full[kind][k])
            for k in range(5)
            for kind in ("crossing", "nesting")
        ]
        rows = distribution_table(n, 4).rows
        assert [(r.kind, r.k, r.partial_enhanced, r.full_classical) for r in rows] == expected

    def test_ground_set_cap_checked_before_enumerating(self, monkeypatch):
        # Bell(21) items of [20] would take days; the check must come first.
        def no_enumeration(*args):
            raise AssertionError("nothing may be enumerated here")

        monkeypatch.setattr(partition, "_iter_labels", no_enumeration)
        monkeypatch.setattr(counting, "_iter_labels", no_enumeration)
        with pytest.raises(OutOfRange, match="n must be in 0..19, got 20"):
            distribution_table(20, 2, budget=25)

    def test_negative_k_max(self):
        with pytest.raises(OutOfRange, match="k_max must be >= 0, got -1"):
            distribution_table(3, -1)


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
