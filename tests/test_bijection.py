import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmap.arcs import (
    Arc,
    CLASSICAL,
    ENHANCED,
    arcs_classical,
    arcs_enhanced,
    distance_multiset,
)
from crossmap.bijection import forward, reverse, witness_forward, witness_reverse
from crossmap.crossings import (
    CROSSING,
    NESTING,
    CrossingWitness,
    _is_witness,
    count_k_witnesses,
    find_k_crossing,
    find_k_nesting,
    max_crossing_number,
    max_nesting_number,
    oracle_find,
)
from crossmap.errors import NotFull
from crossmap.partition import (
    PartialPartition,
    enumerate_full,
    enumerate_partial,
    from_blocks,
    parse_text,
)

from crossmap.counting import bell

PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"


class TestForward:
    def test_paper_worked_example(self):
        assert forward(parse_text(PAPER_PI)).to_text() == PAPER_PI_HAT

    def test_empty_maps_to_all_singletons(self):
        q = forward(parse_text("3:"))
        assert q.to_text() == "4:1/2/3/4"

    def test_singleton_rule(self):
        assert forward(parse_text("1:1")).to_text() == "2:1,2"

    def test_image_is_always_full(self):
        for p in enumerate_partial(6):
            q = forward(p)
            assert q.n == p.n + 1 and q.is_full


class TestReverse:
    def test_paper_worked_example(self):
        assert reverse(parse_text(PAPER_PI_HAT)).to_text() == PAPER_PI

    def test_all_singletons_maps_to_empty(self):
        q = from_blocks(5, [[e] for e in range(1, 6)])
        assert reverse(q).to_text() == "4:"

    def test_unit_block(self):
        assert reverse(parse_text("2:1,2")).to_text() == "1:1"

    def test_rejects_non_full(self):
        with pytest.raises(NotFull):
            reverse(PartialPartition(3, (1, 0, 1)))


class TestBijectivity:
    @pytest.mark.parametrize("n", range(7))
    def test_reverse_of_forward(self, n):
        for p in enumerate_partial(n):
            assert reverse(forward(p)) == p

    @pytest.mark.parametrize("n", range(7))
    def test_forward_of_reverse(self, n):
        for q in enumerate_full(n + 1):
            assert forward(reverse(q)) == q


class TestWitnessTransport:
    def test_witness_forward_example(self):
        w = CrossingWitness(CROSSING, ENHANCED, (Arc(1, 4), Arc(2, 5), Arc(4, 7)))
        assert witness_forward(w).arcs == (Arc(1, 5), Arc(2, 6), Arc(4, 8))

    def test_loop_becomes_unit_arc(self):
        w = CrossingWitness(CROSSING, ENHANCED, (Arc(3, 3),))
        assert witness_forward(w).arcs == (Arc(3, 4),)

    def test_nesting_transport_is_valid_in_image(self):
        p = parse_text("3:1,3/2")
        w = find_k_nesting(arcs_enhanced(p), 2)
        assert w.arcs == (Arc(1, 3), Arc(2, 2))
        image = witness_forward(w)
        assert image.arcs == (Arc(1, 4), Arc(2, 3))
        q_arcs = arcs_classical(forward(p))
        assert oracle_find(q_arcs, 2, NESTING, CLASSICAL).arcs == image.arcs

    def test_witness_reverse_inverts(self):
        w = CrossingWitness(CROSSING, ENHANCED, (Arc(1, 4), Arc(2, 5)))
        assert witness_reverse(witness_forward(w)) == w

    def test_hand_built_witness_past_the_arc_table(self):
        # Hand-built witnesses may end past MAX_N + 1, where no prebuilt
        # arc exists; the transport builds each arc itself.
        w = CrossingWitness(NESTING, ENHANCED, (Arc(1, 30), Arc(2, 29)))
        image = witness_forward(w)
        assert image == (NESTING, CLASSICAL, ((1, 31), (2, 30)))
        assert witness_reverse(image) == w
        back = witness_reverse(CrossingWitness(CROSSING, CLASSICAL, (Arc(29, 31), Arc(30, 32))))
        assert back.arcs == (Arc(29, 30), Arc(30, 31))

    def test_transported_witnesses_are_witnesses(self):
        # every enhanced witness of p maps to a valid classical witness of forward(p)
        for p in enumerate_partial(5):
            a = arcs_enhanced(p)
            q_arcs = set(arcs_classical(forward(p)).arcs)
            for k in range(1, 4):
                for finder, kind in ((find_k_crossing, CROSSING), (find_k_nesting, NESTING)):
                    w = finder(a, k, ENHANCED)
                    if w is None:
                        continue
                    image = witness_forward(w)
                    assert set(image.arcs) <= q_arcs
                    assert _is_witness(image.arcs, kind, strict=True)


class TestStatisticTransport:
    @pytest.mark.parametrize("n", range(7))
    def test_counts_and_maxima(self, n):
        for p in enumerate_partial(n):
            a = arcs_enhanced(p)
            b = arcs_classical(forward(p))
            assert len(a) == len(b)
            assert max_crossing_number(a, ENHANCED) == max_crossing_number(b, CLASSICAL)
            assert max_nesting_number(a, ENHANCED) == max_nesting_number(b, CLASSICAL)
            for k in range(1, 5):
                for kind in (CROSSING, NESTING):
                    assert count_k_witnesses(a, k, kind, ENHANCED) == count_k_witnesses(
                        b, k, kind, CLASSICAL
                    )

    @pytest.mark.parametrize("n", range(7))
    def test_distance_shift(self, n):
        for p in enumerate_partial(n):
            shifted = [d + 1 for d in distance_multiset(arcs_enhanced(p))]
            assert shifted == distance_multiset(arcs_classical(forward(p)))


def oracle_forward(p):
    """Forward image by the paper's rule, through a plain union-find.

    Consecutive v < w of a block merge v with w+1, a singleton u merges u
    with u+1, and every other element of [n+1] stays alone.
    """
    n1 = p.n + 1
    parent = list(range(n1 + 1))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for b in p.blocks():
        for v, w in zip(b, b[1:]) if len(b) > 1 else [(b[0], b[0])]:
            parent[root(v)] = root(w + 1)
    groups = {}
    for e in range(1, n1 + 1):
        groups.setdefault(root(e), []).append(e)
    return from_blocks(n1, list(groups.values()))


def _checked(p):
    """p, checked as soon as it is built: it holds no arc set yet, and the
    validating constructor, which raises on labels that are not
    restricted-growth on [p.n], rebuilds it unchanged."""
    assert type(p.labels) is tuple and p._enhanced is None
    assert PartialPartition(p.n, p.labels) == p
    return p


class TestTrustedConstructor:
    """from_blocks, forward and reverse skip the constructor's check of
    their labels; each of their results must pass it.  The maps keep an
    arc set on their input, so each result is checked before it becomes one."""

    @pytest.mark.parametrize("n", range(8))
    def test_every_small_partition(self, n):
        for p in enumerate_partial(n):
            built = _checked(from_blocks(n, p.blocks()[::-1]))
            q = _checked(forward(p))
            back = _checked(reverse(q))
            assert built == back == p

    def test_seeded_witness_size_inputs(self):
        rng = random.Random(21)
        for _ in range(4000):
            n = rng.randint(12, 19)
            blocks = []
            for e in range(1, n + 1):
                if rng.random() < 0.25:
                    continue
                i = rng.randint(0, len(blocks))
                if i == len(blocks):
                    blocks.append([])
                blocks[i].append(e)
            rng.shuffle(blocks)
            p = _checked(from_blocks(n, blocks))
            q = _checked(forward(p))
            assert _checked(reverse(q)) == p


class TestOracle:
    @pytest.mark.parametrize("n", range(9))
    def test_forward_matches_oracle(self, n):
        for p in enumerate_partial(n):
            assert forward(p) == oracle_forward(p)

    @pytest.mark.parametrize("n", range(9))
    def test_reverse_inverts_oracle(self, n):
        preimage = {oracle_forward(p): p for p in enumerate_partial(n)}
        assert len(preimage) == bell(n + 1)
        for q in enumerate_full(n + 1):
            assert reverse(q) == preimage[q]


@st.composite
def partitions(draw, n_max, full):
    """A random partition of [n] (``full``) or of a subset of [n], n <= n_max."""
    n = draw(st.integers(1 if full else 0, n_max))
    labels, top = [], 0
    for _ in range(n):
        v = draw(st.integers(1 if full else 0, top + 1))
        top = max(top, v)
        labels.append(v)
    return PartialPartition(n, tuple(labels))


# Shared machines make per-example timing noisy; these tests check results only.
derandomized = settings(derandomize=True, deadline=None)
FINDERS = ((find_k_crossing, CROSSING), (find_k_nesting, NESTING))


class TestProperties:
    @derandomized
    @given(partitions(19, full=False))
    def test_reverse_of_forward(self, p):
        assert reverse(forward(p)) == p

    @derandomized
    @given(partitions(20, full=True))
    def test_forward_of_reverse(self, q):
        assert forward(reverse(q)) == q

    @derandomized
    @given(partitions(19, full=False))
    def test_witness_forward_transport(self, p):
        q_arcs = set(arcs_classical(forward(p)).arcs)
        for k in range(1, 5):
            for finder, kind in FINDERS:
                w = finder(arcs_enhanced(p), k, ENHANCED)
                if w is not None:
                    image = witness_forward(w)
                    assert set(image.arcs) <= q_arcs
                    assert _is_witness(image.arcs, kind, strict=True)
                    assert witness_reverse(image) == w

    @derandomized
    @given(partitions(20, full=True))
    def test_witness_reverse_transport(self, q):
        p_arcs = set(arcs_enhanced(reverse(q)).arcs)
        for k in range(1, 5):
            for finder, kind in FINDERS:
                w = finder(arcs_classical(q), k, CLASSICAL)
                if w is not None:
                    back = witness_reverse(w)
                    assert set(back.arcs) <= p_arcs
                    assert _is_witness(back.arcs, kind, strict=False)
                    assert witness_forward(back) == w
