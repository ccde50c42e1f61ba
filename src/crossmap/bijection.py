"""The bijection between partitions of subsets of [n] and partitions of [n+1].

It is the arc shift: each enhanced arc (x, y) of the source, a loop (u, u)
on every singleton, becomes the classical arc (x, y+1) of the image, whose
other elements stay singletons; ``reverse`` shifts (x, z) back to (x, z-1).
So enhanced k-crossings (and k-nestings) map onto classical ones.

Both maps shift the enhanced arc list kept on their input into links of
the result: ``link[x]`` is a smaller element of x's block, x when x is the
block's least element, and 0 when x is absent.  ``partition._labelled``
turns the links into restricted-growth labels, unchecked.
"""
from __future__ import annotations

from .arcs import Arc, CLASSICAL, ENHANCED, _new, arcs_enhanced
from .crossings import CrossingWitness
from .errors import NotFull, OutOfRange
from .partition import PartialPartition, _check_n, _labelled


def image_n(p: PartialPartition) -> int:
    """The ambient n of forward(p), p.n + 1, checked as a ground set."""
    _check_n(p.n, shift=1)
    return p.n + 1


def forward(p: PartialPartition) -> PartialPartition:
    """Map a partition of a subset of [n] to a full partition of [n+1]."""
    n = image_n(p)
    link = list(range(n + 1))
    for x, y in arcs_enhanced(p).arcs:  # a loop (u, u) joins u + 1 to u
        link[y + 1] = x
    return _labelled(link)


def reverse(q: PartialPartition) -> PartialPartition:
    """Map a full partition of [n+1] back to a partition of a subset of [n].

    Raises NotFull when q has absent elements and OutOfRange when q is the
    partition of the empty set, which is no partition of [n+1].
    """
    if not q.is_full:
        raise NotFull(f"partition {q} has absent elements")
    if q.n == 0:
        raise OutOfRange("reverse needs a partition of [n+1] with n >= 0, got one of [0]")
    link = [0] * q.n
    for x, z in arcs_enhanced(q).arcs:
        # Loops (q's singletons) have no preimage.  Arcs are sorted by left
        # end, so an arc that ends at x + 1 came first and linked x already.
        if x != z:
            link[z - 1] = x
            link[x] = link[x] or x
    return _labelled(link)


def witness_forward(w: CrossingWitness) -> CrossingWitness:
    """Transport an enhanced witness of p to a classical witness of forward(p).

    Each arc (a, b) maps to (a, b+1); kind is preserved.
    """
    arcs = tuple([_new(Arc, (a.left, a.right + 1)) for a in w.arcs])
    return _new(CrossingWitness, (w.kind, CLASSICAL, arcs))


def witness_reverse(w: CrossingWitness) -> CrossingWitness:
    """Inverse of witness_forward: (a, b) maps to (a, b-1), mode to enhanced."""
    arcs = tuple([_new(Arc, (a.left, a.right - 1)) for a in w.arcs])
    return _new(CrossingWitness, (w.kind, ENHANCED, arcs))
