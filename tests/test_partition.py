import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossmap.bijection import reverse
from crossmap.errors import (
    DuplicateElement,
    EmptyBlock,
    NotFull,
    OutOfRange,
    ParseError,
)
from crossmap.partition import (
    MAX_N,
    PartialPartition,
    _iter_labels,
    _labelled,
    enumerate_full,
    enumerate_partial,
    from_blocks,
    parse_text,
)


def bell_triangle(n):
    """Independent Bell-number oracle (triangle recurrence)."""
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[0]


class TestFromBlocks:
    def test_paper_example(self):
        p = from_blocks(9, [[1, 4, 7, 9], [2, 5], [3], [6]])
        assert p.labels == (1, 2, 3, 1, 2, 4, 1, 0, 1)

    def test_empty(self):
        assert from_blocks(3, []).labels == (0, 0, 0)

    def test_single_block(self):
        assert from_blocks(2, [[1, 2]]).labels == (1, 1)

    def test_relabels_to_restricted_growth(self):
        # block order in the input must not matter
        p = from_blocks(4, [[3], [1, 4], [2]])
        assert p.labels == (1, 2, 3, 1)

    def test_elements_out_of_order(self):
        # nor the order of the elements within a block
        assert from_blocks(4, [[4, 1], [3, 2]]).labels == (1, 2, 2, 1)

    def test_first_refusal_wins(self):
        # Blocks and their elements are checked in the order given.
        with pytest.raises(DuplicateElement, match=r"^element 2 appears twice$"):
            from_blocks(3, [[2, 2, 0]])
        with pytest.raises(OutOfRange, match=r"^element 4 outside \[1..3\]$"):
            from_blocks(3, [[4, 1], [1]])
        with pytest.raises(DuplicateElement, match=r"^element 1 appears twice$"):
            from_blocks(3, [[2, 1], [1], []])

    def test_duplicate_across_blocks(self):
        with pytest.raises(DuplicateElement):
            from_blocks(3, [[1, 2], [2, 3]])

    def test_duplicate_within_block(self):
        with pytest.raises(DuplicateElement):
            from_blocks(3, [[1, 1]])

    def test_out_of_range_element(self):
        with pytest.raises(OutOfRange):
            from_blocks(3, [[4]])
        with pytest.raises(OutOfRange):
            from_blocks(3, [[0]])

    def test_empty_block(self):
        with pytest.raises(EmptyBlock):
            from_blocks(3, [[]])

    def test_n_cap(self):
        with pytest.raises(OutOfRange):
            from_blocks(MAX_N + 1, [])


class TestBlocksOf:
    def test_paper_example(self):
        p = PartialPartition(9, (1, 2, 3, 1, 2, 4, 1, 0, 1))
        assert p.blocks() == [[1, 4, 7, 9], [2, 5], [3], [6]]

    def test_empty(self):
        assert PartialPartition(2, (0, 0)).blocks() == []

    def test_simple(self):
        assert PartialPartition(3, (1, 1, 2)).blocks() == [[1, 2], [3]]

    @settings(derandomize=True)
    @given(
        st.integers(0, 8).flatmap(
            lambda n: st.lists(st.integers(1, max(n, 1)), max_size=n, unique=True).map(
                lambda present: (n, present)
            )
        ),
        st.randoms(),
    )
    def test_roundtrip(self, case, rng):
        n, present = case
        present = [e for e in present if e <= n]
        blocks = []
        for e in present:
            if blocks and rng.random() < 0.5:
                rng.choice(blocks).append(e)
            else:
                blocks.append([e])
        p = from_blocks(n, blocks)
        canonical = sorted([sorted(b) for b in blocks], key=lambda b: b[0])
        assert p.blocks() == canonical


def _links(p, least):
    """p as links over [0..n]: each element of a block links to the block's
    least element (``least``) or to the element just before it."""
    link = [0] * (p.n + 1)
    for block in p.blocks():
        for before, x in zip(block[:1] + block, block):
            link[x] = block[0] if least else before
    return link


class TestLabelled:
    @pytest.mark.parametrize("n", range(7))
    @pytest.mark.parametrize("least", [True, False], ids=["least", "predecessor"])
    def test_links_give_the_labels(self, n, least):
        # Any smaller element of the block will do as a link.
        for p in enumerate_partial(n):
            assert _labelled(_links(p, least)).labels == p.labels


class TestValidation:
    def test_rejects_label_gap(self):
        with pytest.raises(OutOfRange):
            PartialPartition(3, (1, 3, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(OutOfRange):
            PartialPartition(3, (1, 1))

    def test_rejects_negative(self):
        with pytest.raises(OutOfRange):
            PartialPartition(2, (-1, 1))

    def test_empty_partition_is_first_class(self):
        p = PartialPartition(5, (0,) * 5)
        assert p.num_blocks == 0 and not p.is_full
        assert tuple(j + 1 for j, v in enumerate(p.labels) if v) == ()

    def test_reverse_refuses_absent_elements(self):
        assert reverse(PartialPartition(2, (1, 2))).to_text() == "1:"
        with pytest.raises(NotFull, match=r"^partition 2:1 has absent elements$"):
            reverse(PartialPartition(2, (1, 0)))


class TestText:
    def test_paper_example(self):
        p = parse_text("9:1,4,7,9/2,5/3/6")
        assert p.to_text() == "9:1,4,7,9/2,5/3/6"

    def test_empty(self):
        assert parse_text("4:").to_text() == "4:"

    def test_bad_text(self):
        with pytest.raises(ParseError):
            parse_text("no-colon")
        with pytest.raises(ParseError):
            parse_text("3:1,x")
        with pytest.raises(ParseError):
            parse_text("x:1")
        # int() takes all of these; the grammar takes ASCII digits alone.
        for text in ("1_0:1", "３:1", "3:1,+2", "3: 1,2"):
            with pytest.raises(ParseError):
                parse_text(text)

    def test_elements_out_of_order(self):
        assert parse_text("4:4,1/3,2").to_text() == "4:1,4/2,3"

    def test_outer_whitespace_is_stripped(self):
        assert parse_text(" 3:1,2 \n").to_text() == "3:1,2"

    def test_roundtrip_all_n4(self):
        for p in enumerate_partial(4):
            assert parse_text(p.to_text()) == p

    @settings(derandomize=True, deadline=None)
    @given(
        st.integers(0, MAX_N).flatmap(
            lambda n: st.lists(st.integers(0, n), min_size=n, max_size=n)
        )
    )
    def test_roundtrip_random(self, raw):
        # raw[j] names the block of j + 1 (0: absent); relabel by first use
        first_use: dict[int, int] = {}
        labels = tuple(first_use.setdefault(v, len(first_use) + 1) if v else 0 for v in raw)
        p = PartialPartition(len(raw), labels)
        assert parse_text(p.to_text()) == p


class TestEnumeration:
    @pytest.mark.parametrize("n", range(11))
    def test_full_count_is_bell(self, n):
        assert sum(1 for _ in enumerate_full(n)) == bell_triangle(n)

    @pytest.mark.parametrize("n", range(10))
    def test_partial_count_is_bell_shifted(self, n):
        assert sum(1 for _ in enumerate_partial(n)) == bell_triangle(n + 1)

    def test_n0(self):
        assert [p.labels for p in enumerate_full(0)] == [()]
        assert [p.labels for p in enumerate_partial(0)] == [()]

    @pytest.mark.parametrize("enumerate_", [enumerate_full, enumerate_partial])
    @pytest.mark.parametrize("n", [-1, MAX_N + 1])
    def test_ground_set_checked_at_the_call(self, enumerate_, n):
        # The call itself raises; nothing is iterated.
        with pytest.raises(OutOfRange, match=f"n must be in 0..{MAX_N}, got {n}"):
            enumerate_(n)

    def test_full_n3_by_hand(self):
        got = [p.labels for p in enumerate_full(3)]
        assert got == [
            (1, 1, 1),
            (1, 1, 2),
            (1, 2, 1),
            (1, 2, 2),
            (1, 2, 3),
        ]

    def test_partial_n2_by_hand(self):
        got = {p.labels for p in enumerate_partial(2)}
        assert got == {(0, 0), (1, 0), (0, 1), (1, 2), (1, 1)}

    @pytest.mark.parametrize("n", [0, 1, 4, 6])
    @pytest.mark.parametrize("partial", [False, True])
    def test_lexicographic_order_and_distinct(self, n, partial):
        stream = enumerate_partial(n) if partial else enumerate_full(n)
        seen = [p.labels for p in stream]
        assert seen == sorted(seen)
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize(
        "m, partial", [(m, False) for m in range(10)] + [(m, True) for m in range(9)]
    )
    def test_raw_arrays_are_valid_partitions(self, m, partial):
        # Enumerated counts use these arrays unchecked.
        seen = [PartialPartition(m, tuple(labels)).labels for labels in _iter_labels(m, partial)]
        assert partial or all(0 not in labels for labels in seen)
        assert len(seen) == len(set(seen)) == bell_triangle(m + 1 if partial else m)
