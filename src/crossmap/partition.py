"""Canonical set partitions of subsets of [n].

A partition of a subset of [n] is stored as a flat label array: position j
(0-based) holds 0 when element j+1 is absent from the ground subset, and a
positive block id otherwise.  Block ids follow the restricted-growth rule,
so every partition has exactly one encoding and label arrays compare
lexicographically for deterministic enumeration (0 sorts before 1).
``_check_n`` is the one check of every ground set, [n] or [n+1].
"""
from __future__ import annotations

import re
from typing import Iterator, Sequence

from .errors import DuplicateElement, EmptyBlock, OutOfRange, ParseError

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


def _labelled(link: list[int]) -> PartialPartition:
    """The partition of a subset of [n], n = len(link) - 1, unchecked.
    ``link[x]`` is 0 when x is absent, x when x is the least element of its
    block, and otherwise any smaller element of x's block.  Blocks are
    numbered as their least elements come: restricted growth by
    construction.  The one unchecked build: ``from_blocks``, ``forward``
    and ``reverse`` check their input and write links."""
    labels = [0] * len(link)  # labels[0] stays 0, for the absent elements
    blocks = 0
    for x in range(1, len(link)):
        if link[x] == x:
            blocks += 1
            labels[x] = blocks
        else:
            labels[x] = labels[link[x]]
    return _fill(object.__new__(PartialPartition), len(link) - 1, tuple(labels[1:]))


def from_blocks(n: int, blocks: Sequence[Sequence[int]]) -> PartialPartition:
    """Build the canonical partition of a subset of [n] with these blocks."""
    _check_n(n)
    link = [0] * (n + 1)
    for block in blocks:
        if not block:
            raise EmptyBlock("blocks must be nonempty")
        for e in block:
            if not 1 <= e <= n:
                raise OutOfRange(f"element {e} outside [1..{n}]")
            if link[e]:
                raise DuplicateElement(f"element {e} appears twice")
            link[e] = e  # seen: a duplicate in this block is refused too
        least = min(block)
        for e in block:
            link[e] = least
    return _labelled(link)


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
