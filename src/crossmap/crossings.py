"""Detection and counting of k-crossings and k-nestings.

A k-crossing is a set of k arcs that, written in order of left endpoints
(a_1, b_1), ..., (a_k, b_k), satisfies a_1 < ... < a_k and b_1 < ... < b_k
together with a_k <= b_1 (enhanced) or a_k < b_1 (classical).  A k-nesting
instead has b_k < ... < b_1 with a_k <= b_k (enhanced) or a_k < b_k
(classical).  Loops can therefore only ever appear in enhanced witnesses.

One walk, ``_walk``, takes arcs in left-endpoint order and builds the
witnesses level by level: one scan over the pairs of arcs gives level 2 of
both kinds, and one level loop, ``_deeper``, extends every k-witness by one
later arc, keeping each level in lexicographic order.  So it tallies, for
every order k at once, the k-crossings and k-nestings and the least of
each.  The enumeration route's ``_find_crossing`` runs the same loop from
level 1, stopped at its order.  The walk is memoised on the immutable
``ArcSet`` per (kind, mode), and a miss fills both kinds, so finding,
counting and the maximal orders for any k read one walk per mode; they read
the memo first and check kind and mode only on a miss.
The brute-force oracle re-checks the defining inequalities on every
k-subset and exists purely to cross-validate that walk; finding and
counting share its one guard.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .arcs import Arc, ArcSet, _new, _strict
from .errors import InvalidK, OutOfRange, TooManyArcs

CROSSING = "crossing"
NESTING = "nesting"

MAX_K = 8
ORACLE_MAX_ARCS = 24

#: One kind's walk, as ``_walk`` returns it: (counts, least).
_Walk = tuple[list[int], list[tuple[Arc, ...]]]


class CrossingWitness(NamedTuple):
    """k arcs certifying one k-crossing or k-nesting."""

    kind: str
    mode: str
    arcs: tuple[Arc, ...]

    @property
    def k(self) -> int:
        return len(self.arcs)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "mode": self.mode,
            "arcs": [[a.left, a.right] for a in self.arcs],
        }


def _check_k(k: int) -> None:
    if k is None or k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise InvalidK(f"k is capped at {MAX_K}, got {k}")


def _check_kind(kind: str) -> None:
    if kind not in (CROSSING, NESTING):
        raise OutOfRange(f"unknown witness kind {kind!r}")


def _deeper(arcs: Sequence[Arc], level: list, nesting: bool, end: int) -> list:
    """The next level of one kind's witnesses, extending each entry of
    ``level`` by one later arc with index below ``end``.

    A level lists its witnesses in lexicographic order by index, as (index
    of the last arc, limit, witness), so its first entry is the least.  An
    extension must start before the limit, so a scan stops at the first arc
    past it: the first right end (plus one unless strict) for a crossing,
    the last right end for a nesting.  No loop extends a strict crossing:
    it would end both before and after the first right end.
    """
    deeper = []
    add = deeper.append
    for i, limit, w in level:
        last_right = arcs[i][1]  # indexing: unpacking a namedtuple is slower
        for j in range(i + 1, end):
            a = arcs[j]
            if a[0] >= limit:
                break
            right = a[1]
            if nesting:
                if right < last_right:
                    add((j, right, w + (a,)))
            elif right > last_right:
                add((j, limit, w + (a,)))
    return deeper


def _walk(arcs: Sequence[Arc], strict: bool) -> dict[str, _Walk]:
    """Per kind, ``(counts, least)``: the number of j-witnesses and the least
    one for j = 0 .. the largest order (0 is the empty witness).

    ``arcs`` are sorted by left end, with distinct right ends, and hold no
    loop when strict.  So every arc is a 1-witness of both kinds, and arcs
    i < j with j starting before i's crossing limit are a crossing if j
    ends after i and a nesting otherwise: one pair scan gives level 2.
    """
    slack = not strict
    n = len(arcs)
    crossings, nestings = [], []
    for i, first in enumerate(arcs):
        right = first[1]
        limit = right + slack
        for j in range(i + 1, n):
            a = arcs[j]
            if a[0] >= limit:
                break
            if a[1] > right:
                crossings.append((j, limit, (first, a)))
            else:
                nestings.append((j, a[1], (first, a)))
    walks = {}
    for kind, level in ((CROSSING, crossings), (NESTING, nestings)):
        counts, least = ([1, n], [(), (arcs[0],)]) if n else ([1], [()])
        nesting = kind == NESTING
        while level:
            counts.append(len(level))
            least.append(level[0][2])
            level = _deeper(arcs, level, nesting, n)
        walks[kind] = counts, least
    return walks


def _find_crossing(arcs: Sequence[Arc], k: int, strict: bool) -> Optional[tuple[Arc, ...]]:
    """The least k-crossing of arcs sorted by left end, or None: the walk
    from level 1, stopped at order k.  ``arcs`` meet ``_walk``'s contract,
    so they hold no loop when strict.  An entry of level d ending at index
    i can reach k arcs only if i < n - k + d, so every scan ends there."""
    slack = not strict
    n = len(arcs)
    starts = enumerate(arcs[: n - k + 1])  # the arcs that can start k of them
    level = [(i, a[1] + slack, (a,)) for i, a in starts]
    d = 1
    while level and d < k:
        d += 1
        level = _deeper(arcs, level, False, n - k + d)
    return level[0][2] if level else None


def _walked(a: ArcSet, kind: str, mode: Optional[str]) -> _Walk:
    """The walk of one kind on a, memoised on the arc set per (kind, mode);
    a miss fills both kinds' entries.  Kind and mode are checked only on a
    miss, so only valid keys are ever stored and a hit needs no check.  Read
    in the other mode, an arc set drops its loops (a classical one has none).
    """
    mode = mode or a.mode
    walk = a._walks.get((kind, mode))
    if walk is None:
        _check_kind(kind)
        arcs = a.arcs if mode == a.mode else [x for x in a.arcs if x[0] != x[1]]
        for other, walk in _walk(arcs, _strict(mode)).items():
            a._walks[other, mode] = walk
        walk = a._walks[kind, mode]
    return walk


def _find(a: ArcSet, k: int, kind: str, mode: Optional[str]) -> Optional[CrossingWitness]:
    _check_k(k)
    least = (a._walks.get((kind, mode or a.mode)) or _walked(a, kind, mode))[1]
    return _new(CrossingWitness, (kind, mode or a.mode, least[k])) if k < len(least) else None


def find_k_crossing(a: ArcSet, k: int, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Lexicographically least k-crossing by left endpoints, if any."""
    return _find(a, k, CROSSING, mode)


def find_k_nesting(a: ArcSet, k: int, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Lexicographically least k-nesting by left endpoints, if any."""
    return _find(a, k, NESTING, mode)


def max_crossing_number(a: ArcSet, mode: Optional[str] = None) -> int:
    """Largest k admitting a k-crossing; 0 when no arc qualifies."""
    return len(_walked(a, CROSSING, mode)[0]) - 1


def max_nesting_number(a: ArcSet, mode: Optional[str] = None) -> int:
    """Largest k admitting a k-nesting; 0 when no arc qualifies."""
    return len(_walked(a, NESTING, mode)[0]) - 1


def count_k_witnesses(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> int:
    """Number of distinct k-subsets of arcs forming a valid witness."""
    _check_k(k)
    counts = (a._walks.get((kind, mode or a.mode)) or _walked(a, kind, mode))[0]
    return counts[k] if k < len(counts) else 0


def _is_witness(arcs: Sequence[Arc], kind: str, strict: bool) -> bool:
    lefts = [a.left for a in arcs]
    rights = [a.right for a in arcs]
    if any(x >= y for x, y in zip(lefts, lefts[1:])):
        return False
    if kind == CROSSING:
        if any(x >= y for x, y in zip(rights, rights[1:])):
            return False
        return lefts[-1] < rights[0] if strict else lefts[-1] <= rights[0]
    if any(x <= y for x, y in zip(rights, rights[1:])):
        return False
    return lefts[-1] < rights[-1] if strict else lefts[-1] <= rights[-1]


def _oracle(a: ArcSet, k: int, kind: str, mode: Optional[str]) -> Iterator[CrossingWitness]:
    """The oracle's one guard (k, kind, arc limit, mode), then its witnesses, lazily."""
    _check_k(k)
    _check_kind(kind)
    if len(a.arcs) > ORACLE_MAX_ARCS:
        raise TooManyArcs(f"oracle handles at most {ORACLE_MAX_ARCS} arcs")
    mode = mode or a.mode
    strict = _strict(mode)
    return (CrossingWitness(kind, mode, c) for c in combinations(a.arcs, k) if _is_witness(c, kind, strict))


def oracle_find(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Unpruned brute-force search over all k-subsets of arcs.

    Independent cross-check for the pruned search; refuses large inputs.
    """
    return next(_oracle(a, k, kind, mode), None)


def oracle_count(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> int:
    """Brute-force witness count over all k-subsets."""
    return sum(1 for _ in _oracle(a, k, kind, mode))
