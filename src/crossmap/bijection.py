"""The bijection between partitions of subsets of [n] and partitions of [n+1].

It is the arc shift: each enhanced arc (x, y) of the source, a loop (u, u)
on every singleton, becomes the classical arc (x, y+1) of the image, whose
other elements stay singletons; ``reverse`` shifts (x, z) back to (x, z-1).
So enhanced k-crossings (and k-nestings) map onto classical ones.

Both maps shift the enhanced arc list kept on their input into ``succ[x]``,
the next element of x's block in the result (x at a block's end, 0 when x
is absent), and label each chain from its smallest element: restricted
growth by construction, so they wrap those labels unchecked
(``partition._trusted``).  ``_reverse_keys`` serves ``bell-check``: one
depth-first search over all partitions of [m] keeps the word index of
each reverse image's predecessor form up to date as it goes, and the node
that places m-1 sets the bits of all the images below each of its
children with one OR on their word.
"""
from __future__ import annotations

from .arcs import Arc, CLASSICAL, ENHANCED, _new, arcs_enhanced
from .crossings import CrossingWitness
from .errors import OutOfRange
from .partition import PartialPartition, _check_n, _trusted, _weights, require_full


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


def _reverse_keys(m: int, seen: memoryview) -> int:
    """Mark the reverse image of every partition of [m], m >= 1, in the
    bitmap ``seen`` of ``partition._partial_keys``, (m-1)! words of 16
    bits, and return how many partitions were visited, Bell(m).

    One depth-first search places 2..m in turn (1 opens block 1) and
    passes the image's word index down, so backtracking undoes it for
    free.  Placing e after a, the last element of its block so far, gives
    a -> e-1: e-1's value becomes a (a loop when a = e-1).  If a + 1
    opened a block, a was absent from the image and now opens an image
    block: a is pending, and its own value a adds a * w[a] more.  The node
    that places m-1 also places m, inline.  m opening a block leaves
    m-1 absent, bit 0; m after a last a sets bit a of the same word, also
    when a is pending, since a's image block is then {a, m-1}, which the
    layout keeps in the word where a is absent.  So each child takes one
    OR for all of its leaves.
    """
    if m < 3:  # no element between 1 and m: one word, bit 0 and (m = 2) bit 1
        seen[0] |= (1 << m) - 1
        return m
    top = m - 1
    w = _weights(top)
    own = [a * x for a, x in enumerate(w)]  # own[a]: the word offset of v_a = a
    last = [0, 1] + [0] * (m - 1)  # last[v]: the last element placed in block v
    leaves = 0

    def place(e: int, blocks: int, code: int, ends: int, pending: int) -> None:
        # ends: bit 0 (m opens a block) and the bit of each block's last
        # element; pending: the bit of each last a whose a + 1 opened a block.
        nonlocal leaves
        lasts = last[1 : blocks + 1]
        ends |= 1 << e  # e ends its block in every child
        if e == top:  # w[e - 1] = 1: the child where e follows a is word code + a
            for a in lasts:
                bit = 1 << a
                seen[code + a + (own[a] if pending & bit else 0)] |= ends ^ bit
            seen[code] |= ends  # e opens a block
            # blocks children with blocks + 1 leaves, one with blocks + 2
            leaves += blocks * (blocks + 1) + blocks + 2
            return
        f = w[e - 1]
        for v, a in enumerate(lasts, start=1):
            last[v] = e
            bit = 1 << a
            c = code + a * f + (own[a] if pending & bit else 0)
            place(e + 1, blocks, c, ends ^ bit, pending & ~bit)
            last[v] = a
        last[blocks + 1] = e
        place(e + 1, blocks + 1, code, ends, pending | 1 << (e - 1))  # e opens a block

    place(2, 1, 0, 1 | 1 << 1, 0)
    # place refers to itself; dropping the name frees it (and what it holds)
    # now rather than in a garbage-collector pass.
    del place
    return leaves


def reverse(q: PartialPartition) -> PartialPartition:
    """Map a full partition of [n+1] back to a partition of a subset of [n].

    Raises NotFull when q has absent elements and OutOfRange when q is the
    partition of the empty set, which is no partition of [n+1].
    """
    require_full(q)
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
