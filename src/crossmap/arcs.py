"""Arc diagrams of partitions, classical and enhanced.

An arc joins two elements that are consecutive within a block.  Under the
enhanced convention every singleton additionally carries a loop (u, u);
under the classical convention singletons contribute nothing.  Every arc
the package builds from a partition is taken from one prebuilt table,
``ARC``.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import OutOfRange
from .partition import MAX_N, PartialPartition, _Record

CLASSICAL = "classical"
ENHANCED = "enhanced"


def _strict(mode: str) -> bool:
    if mode not in (CLASSICAL, ENHANCED):
        raise OutOfRange(f"unknown arc mode {mode!r}")
    return mode == CLASSICAL


class Arc(NamedTuple):
    left: int
    right: int

    @property
    def is_loop(self) -> bool:
        return self.left == self.right

    @property
    def distance(self) -> int:
        return self.right - self.left


class ArcSet(_Record):
    """Arcs of one partition, sorted by left endpoint.

    Left endpoints are pairwise distinct and so are right endpoints: within
    a block each element has at most one successor and one predecessor, and
    a loop uses up both roles of its element.
    """

    __slots__ = ("mode", "arcs", "_walks")

    def __init__(self, mode: str, arcs: Iterable[Arc]):
        arcs = tuple(arcs)
        strict = _strict(mode)
        lefts = [a.left for a in arcs]
        rights = [a.right for a in arcs]
        if lefts != sorted(lefts) or len(set(lefts)) != len(lefts):
            raise OutOfRange("arcs must be sorted by distinct left endpoints")
        if len(set(rights)) != len(rights):
            raise OutOfRange("right endpoints must be distinct")
        for a in arcs:
            if not 1 <= a.left <= a.right:
                raise OutOfRange(f"bad arc {a}")
            if a.is_loop and strict:
                raise OutOfRange("classical arc sets cannot contain loops")
        _fill(self, mode, arcs)

    def __iter__(self):
        return iter(self.arcs)

    def __len__(self):
        return len(self.arcs)


def _fill(a: ArcSet, mode: str, arcs: tuple[Arc, ...]) -> ArcSet:
    """Set a's fields unchecked: ``arcs_enhanced`` passes the sorted, valid
    arcs of ``_arcs``, and ``arcs_classical`` those of them that are no loop.

    ``crossings`` keeps its witness walks per (kind, mode) in ``_walks``;
    the arcs never change, so the memo lives as long as they do.  It is no
    part of the value.
    """
    object.__setattr__(a, "mode", mode)
    object.__setattr__(a, "arcs", arcs)
    object.__setattr__(a, "_walks", {})
    return a


#: ``_new(cls, fields)`` builds the named tuple cls in C, without the
#: Python-level ``__new__`` that calling cls runs.
_new = tuple.__new__

#: ``ARC[x][y]`` is the arc (x, y), for 0 <= x, y <= MAX_N + 1: every arc of
#: a partition of [n] and of its forward image on [n + 1], built once.
ARC = [[_new(Arc, (x, y)) for y in range(MAX_N + 2)] for x in range(MAX_N + 2)]


def _arcs(labels: Sequence[int], enhanced: bool) -> tuple[Arc, ...]:
    """Consecutive pairs within each block, plus a loop on every singleton
    when ``enhanced``, sorted by left endpoint: ``out[x]`` is the arc x
    starts, to the next element of its block or, while none came, its loop."""
    n = len(labels)
    out: list[Optional[Arc]] = [None] * (n + 1)
    last = [0] * (n + 1)  # last[v]: the last element seen so far in block v
    for x, v in enumerate(labels, 1):
        if v:
            a = last[v]
            if a:
                out[a] = ARC[a][x]
            elif enhanced:
                out[x] = ARC[x][x]
            last[v] = x
    # Through a list: tuple() of a filter shrinks an oversized tuple, which
    # keeps its larger memory block.
    return tuple(list(filter(None, out)))


def arcs_classical(p: PartialPartition) -> ArcSet:
    """p's enhanced arcs without their loops, read from the arc set kept on p.
    For p = forward(s) they are the arc shift of s: (x, y) becomes (x, y+1)."""
    arcs = tuple([a for a in arcs_enhanced(p).arcs if a[0] != a[1]])
    return _fill(object.__new__(ArcSet), CLASSICAL, arcs)


def arcs_enhanced(p: PartialPartition) -> ArcSet:
    """Classical arcs plus a loop for every singleton block.

    Built once per partition: the arc set is kept on p, outside its value,
    so every later call returns the same object (and its witness walks).
    """
    a = p._enhanced
    if a is None:
        a = _fill(object.__new__(ArcSet), ENHANCED, _arcs(p.labels, True))
        object.__setattr__(p, "_enhanced", a)
    return a


def distance_multiset(a: ArcSet) -> list[int]:
    """Sorted multiset of arc spans (right - left); loops contribute 0."""
    return sorted(arc.distance for arc in a)

