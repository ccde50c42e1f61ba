"""Canonical set partitions of subsets of [n].

A partition of a subset of [n] is stored as a flat label array: position j
(0-based) holds 0 when element j+1 is absent from the ground subset, and a
positive block id otherwise.  Block ids follow the restricted-growth rule,
so every partition has exactly one encoding and label arrays compare
lexicographically for deterministic enumeration (0 sorts before 1).
``_check_n`` is the one check of every ground set, [n] or [n+1].
``_partial_keys`` and ``_weights`` define the bitmap of predecessor forms,
n! words of 16 bits, that ``bell-check`` checks the reverse map against.
"""
from __future__ import annotations

import re
from typing import Iterator, Sequence

from .errors import DuplicateElement, EmptyBlock, NotFull, OutOfRange, ParseError

#: Largest ambient ground set the package accepts anywhere.
MAX_N = 20
#: ``_ELEMENT_TEXT[x - 1]`` is ``str(x)``, for every element x of a ground set.
_ELEMENT_TEXT = [str(x) for x in range(1, MAX_N + 1)]


def _check_n(n: int, shift: int = 0) -> None:
    """Check n for a run whose objects lie on [n + shift]."""
    if not 0 <= n <= MAX_N - shift:
        raise OutOfRange(f"n must be in 0..{MAX_N - shift}, got {n}")


class _Record:
    """Value semantics for a slot class: its value is its public slots in
    declaration order.  Immutable; each ``__init__`` validates and sets the
    fields with ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f[0] != "_")

    def _value(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self):
        return hash(self._value())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._value()))
        return f"{self.__class__.__name__}({fields})"

    def __reduce__(self):
        return self.__class__, self._value()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PartialPartition(_Record):
    """A set partition of a subset of [n], in restricted-growth form.

    ``arcs.arcs_enhanced`` keeps its arc set in ``_enhanced`` (None until
    then) on first use; the labels never change, so the memo lives as long
    as they do.  It is no part of the value.
    """

    __slots__ = ("n", "labels", "_enhanced")

    def __init__(self, n: int, labels: Sequence[int]):
        labels = tuple(labels)
        _check_n(n)
        if len(labels) != n:
            raise OutOfRange(f"label array has length {len(labels)}, expected {n}")
        seen_max = 0
        for j, v in enumerate(labels):
            if v < 0:
                raise OutOfRange(f"negative label at position {j + 1}")
            if v > seen_max + 1:
                raise OutOfRange(f"label {v} at position {j + 1} breaks restricted growth")
            if v == seen_max + 1:
                seen_max = v
        _fill(self, n, labels)

    @property
    def num_blocks(self) -> int:
        return max(self.labels, default=0)

    @property
    def is_full(self) -> bool:
        return 0 not in self.labels

    def _group(self, items: Sequence) -> list[list]:
        """The blocks ordered by minimum, with each element x as items[x - 1]."""
        out: list[list] = []
        for x, v in zip(items, self.labels):
            if v > len(out):  # restricted growth: a new block takes the next label
                out.append([x])
            elif v:
                out[v - 1].append(x)
        return out

    def blocks(self) -> list[list[int]]:
        """Blocks as sorted element lists, ordered by minimum element."""
        return self._group(range(1, self.n + 1))

    def to_text(self) -> str:
        """Canonical text form, e.g. ``9:1,4,7,9/2,5/3/6``; empty is ``n:``."""
        return f"{self.n}:" + "/".join([",".join(b) for b in self._group(_ELEMENT_TEXT)])

    def __str__(self) -> str:
        return self.to_text()


def _fill(p: PartialPartition, n: int, labels: tuple[int, ...]) -> PartialPartition:
    """Set p's fields unchecked, with no arc set kept yet."""
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "labels", labels)
    object.__setattr__(p, "_enhanced", None)
    return p


def _trusted(n: int, labels: tuple[int, ...]) -> PartialPartition:
    """The partition with these labels, unchecked: ``from_blocks``, ``forward``
    and ``reverse`` check their input and build restricted-growth labels."""
    return _fill(object.__new__(PartialPartition), n, labels)


def from_blocks(n: int, blocks: Sequence[Sequence[int]]) -> PartialPartition:
    """Build the canonical partition of a subset of [n] with these blocks."""
    _check_n(n)
    labels = [0] * n
    for block in blocks:
        if not block:
            raise EmptyBlock("blocks must be nonempty")
        for e in block:
            if not 1 <= e <= n:
                raise OutOfRange(f"element {e} outside [1..{n}]")
            if labels[e - 1]:
                raise DuplicateElement(f"element {e} appears twice")
            labels[e - 1] = -1  # provisional mark; real ids assigned below
    # Restricted-growth ids: blocks numbered by first (smallest) occurrence.
    for rank, block in enumerate(sorted(blocks, key=min), start=1):
        for e in block:
            labels[e - 1] = rank
    return _trusted(n, tuple(labels))


#: The text grammar in ASCII digits; ``int`` alone would also take signs,
#: underscores, inner spaces and non-ASCII digits.
_TEXT = re.compile(r"([0-9]+):([0-9]+(?:[,/][0-9]+)*)?")


def parse_text(text: str) -> PartialPartition:
    """Parse the ``n:elems/elems/...`` grammar used by the CLI and fixtures."""
    match = _TEXT.fullmatch(text.strip())
    if match is None:
        head, sep, _ = text.strip().partition(":")
        if not sep:
            raise ParseError(f"missing ':' in partition text {text!r}")
        if not _TEXT.fullmatch(head + ":"):
            raise ParseError(f"bad ambient size {head!r}")
        raise ParseError(f"bad element in partition text {text!r}")
    head, body = match.groups()
    blocks = [list(map(int, part.split(","))) for part in body.split("/")] if body else []
    return from_blocks(int(head), blocks)


def _iter_labels(n: int, partial: bool) -> Iterator[list[int]]:
    """Yield raw label arrays in lexicographic order.

    The same list object is reused between yields; callers must copy if they
    keep a reference.
    """
    lo = 0 if partial else 1
    labels = [lo] * n
    maxes = [0] + labels  # maxes[i] = max label among positions < i
    i = n - 1
    while True:
        yield labels
        # backtrack to the rightmost position that can increment
        while i >= 0 and labels[i] > maxes[i]:
            i -= 1
        if i < 0:
            return
        labels[i] += 1
        while i < n - 1:  # descend, each new position at its least label
            maxes[i + 1] = max(maxes[i], labels[i])
            i += 1
            labels[i] = lo


def _weights(n: int) -> list[int]:
    """``w[x]``, for x in [n-1], the place value of v_x in the word index
    of a predecessor form of [n] (see ``_partial_keys``): a mixed radix
    with v_1 most significant and radix x + 1 for v_x, so w[n-1] = 1, the
    word indices fill [0, n!), and w[x] = n!/(x+1)!.  w[0] is unused."""
    w = [1] * n
    for x in range(n - 2, 0, -1):
        w[x] = w[x + 1] * (x + 2)
    return w


def _partial_keys(n: int, seen: memoryview) -> tuple[int, int]:
    """Test the bit of every partition of a subset of [n] in the bitmap
    ``seen``, n! words of 16 bits, and return how many partitions were
    visited, Bell(n+1), and how many of their bits were set.

    The predecessor form gives each element x of [n] a value v_x: 0 when x
    is absent, x when x opens its block, and otherwise the element just
    before x in its block.  It is canonical, and since 0 <= v_x <= x, a
    form's bit is bit v_n of word ``sum(v_x * w[x] for x < n)`` with the
    weights of ``_weights``: one to one into n! words, and v_n <= n < 16.
    One exception keeps every form below a search node in that node's
    word: when n's block is {b, n} with b < n, the word takes v_b as 0, as
    if b were absent.  No other form has that bit there, since n cannot
    follow an absent b.

    One depth-first search places 1..n-1 in turn and passes down the word
    index and the mask of the values n takes in that word: 0 (absent), n
    (opening a block), the last element of each block of two or more, and
    each absent element b (the block {b, n}).  The node that places n-1
    tests each child's word with its mask and counts the hits with
    ``int.bit_count``, with no call or bit operation per partition.
    """
    if n < 2:  # no element before n: one word, v_n absent or (n = 1) opening
        return n + 1, (seen[0] & (2 << n) - 1).bit_count()
    top = n - 1
    w = _weights(n)
    last = [0] * (n + 1)  # last[v]: the last element placed in block v
    total = hits = 0

    def place(x: int, blocks: int, code: int, mask: int) -> None:
        nonlocal total, hits
        lasts = last[1 : blocks + 1]
        bit = 1 << x
        if x == top:  # w[top] = 1: the child where x follows a is word code + a
            found = (seen[code] & (mask | bit)).bit_count()  # x absent
            for a in lasts:
                found += (seen[code + a] & (mask & ~(1 << a) | bit)).bit_count()
            found += (seen[code + x] & mask).bit_count()  # x opens a block
            hits += found
            # blocks + 1 children with blocks + 2 leaves, one with blocks + 3
            total += (blocks + 1) * (blocks + 2) + blocks + 3
            return
        f = w[x]
        place(x + 1, blocks, code, mask | bit)  # x absent
        for v, a in enumerate(lasts, start=1):
            last[v] = x
            place(x + 1, blocks, code + a * f, mask & ~(1 << a) | bit)
            last[v] = a
        last[blocks + 1] = x
        place(x + 1, blocks + 1, code + x * f, mask)  # x opens a block

    place(1, 0, 0, 1 | 1 << n)
    # place refers to itself; dropping the name frees it (and what it holds)
    # now rather than in a garbage-collector pass.
    del place
    return total, hits


def enumerate_full(n: int) -> Iterator[PartialPartition]:
    """All partitions of [n], lexicographic in restricted-growth order.

    n is checked at the call, before anything is iterated.
    """
    _check_n(n)
    return (PartialPartition(n, tuple(labels)) for labels in _iter_labels(n, partial=False))


def enumerate_partial(n: int) -> Iterator[PartialPartition]:
    """All partitions of all subsets of [n]; Bell(n+1) items in total.

    n is checked at the call, before anything is iterated.
    """
    _check_n(n)
    return (PartialPartition(n, tuple(labels)) for labels in _iter_labels(n, partial=True))


def require_full(p: PartialPartition) -> None:
    if not p.is_full:
        raise NotFull(f"partition {p} has absent elements")
