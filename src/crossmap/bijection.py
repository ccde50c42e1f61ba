"""The bijection between partitions of subsets of [n] and partitions of [n+1].

It is the arc shift: each enhanced arc (x, y) of the source, a loop (u, u)
on every singleton, becomes the classical arc (x, y+1) of the image, whose
other elements stay singletons; ``reverse`` shifts (x, z) back to (x, z-1).
So enhanced k-crossings (and k-nestings) map onto classical ones.

Both maps shift the enhanced arc list kept on their input into ``succ[x]``,
the next element of x's block in the result (x at a block's end, 0 when x
is absent), and label each chain from its smallest element: restricted
growth by construction, so they wrap those labels unchecked
(``partition._trusted``).
"""
from __future__ import annotations

from .arcs import Arc, CLASSICAL, ENHANCED, _new, arcs_enhanced
from .crossings import CrossingWitness
from .errors import NotFull, OutOfRange
from .partition import PartialPartition, _check_n, _trusted


def _from_successors(succ: list[int], n: int) -> tuple[int, ...]:
    """Labels of the partition of a subset of [n] whose blocks are the chains of ``succ``."""
    labels = [0] * (n + 1)  # labels[x] for x in [n]; labels[0] is dropped
    blocks = 0
    for x in range(1, n + 1):
        if succ[x] and not labels[x]:
            blocks += 1
            y = x
            labels[y] = blocks
            while succ[y] != y:
                y = succ[y]
                labels[y] = blocks
    return tuple(labels[1:])


def image_n(p: PartialPartition) -> int:
    """The ambient n of forward(p), p.n + 1, checked as a ground set."""
    _check_n(p.n, shift=1)
    return p.n + 1


def forward(p: PartialPartition) -> PartialPartition:
    """Map a partition of a subset of [n] to a full partition of [n+1]."""
    n = image_n(p)
    succ = list(range(n + 1))
    for x, y in arcs_enhanced(p).arcs:  # a loop (u, u) joins u to u + 1
        succ[x] = y + 1
    return _trusted(n, _from_successors(succ, n))


def reverse(q: PartialPartition) -> PartialPartition:
    """Map a full partition of [n+1] back to a partition of a subset of [n].

    Raises NotFull when q has absent elements and OutOfRange when q is the
    partition of the empty set, which is no partition of [n+1].
    """
    if not q.is_full:
        raise NotFull(f"partition {q} has absent elements")
    if q.n == 0:
        raise OutOfRange("reverse needs a partition of [n+1] with n >= 0, got one of [0]")
    succ = [0] * q.n
    for x, z in arcs_enhanced(q).arcs:
        # Loops (q's singletons) have no preimage.  z - 1 is present and ends
        # its block unless it starts an arc, which comes later: arcs are sorted.
        if x != z:
            succ[x] = succ[z - 1] = z - 1
    return _trusted(q.n - 1, _from_successors(succ, q.n - 1))


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
