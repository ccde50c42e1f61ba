"""Detection and counting of k-crossings and k-nestings.

A k-crossing is a set of k arcs that, written in order of left endpoints
(a_1, b_1), ..., (a_k, b_k), satisfies a_1 < ... < a_k and b_1 < ... < b_k
together with a_k <= b_1 (enhanced) or a_k < b_1 (classical).  A k-nesting
instead has b_k < ... < b_1 with a_k <= b_k (enhanced) or a_k < b_k
(classical).  Loops can therefore only ever appear in enhanced witnesses.

One walk, ``_walk``, takes arcs in left-endpoint order and builds the
witnesses level by level: every (k+1)-witness extends a k-witness by one
later arc, and each level lists its witnesses in lexicographic order.  So
it tallies, for every order k at once, the number of k-witnesses of one
kind and the least one.  A stop order ends it at the first witness of that
order and drops every entry too short to reach it, for the enumeration
route.  The unstopped walk is memoised per (kind, mode) on the immutable
``ArcSet``, so finding, counting and the maximal orders for any k read one
walk; they read the memo first and check kind and mode only on a miss.
The brute-force oracle re-checks the defining inequalities on every
k-subset and exists purely to cross-validate that walk; finding and
counting share its one guard.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Optional, Sequence

from .arcs import Arc, ArcSet, CLASSICAL, ENHANCED, _new
from .errors import InvalidK, OutOfRange, TooManyArcs

CROSSING = "crossing"
NESTING = "nesting"

MAX_K = 8
ORACLE_MAX_ARCS = 24

#: What ``_walk`` returns: (counts, least, found).
_Walk = tuple[list[int], list[tuple[Arc, ...]], tuple[Arc, ...]]


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
    if k < 1:
        raise InvalidK(f"k must be >= 1, got {k}")
    if k > MAX_K:
        raise InvalidK(f"k is capped at {MAX_K}, got {k}")


def _check_kind(kind: str) -> None:
    if kind not in (CROSSING, NESTING):
        raise OutOfRange(f"unknown witness kind {kind!r}")


def _strict(mode: str) -> bool:
    if mode not in (CLASSICAL, ENHANCED):
        raise OutOfRange(f"unknown arc mode {mode!r}")
    return mode == CLASSICAL


def _walk(
    arcs: Sequence[Arc], kind: str, strict: bool, stop: int = 0
) -> _Walk:
    """Per order j, the number of j-witnesses of one kind and the least one.

    ``arcs`` must be sorted by left endpoint.  Every prefix of a witness in
    left-endpoint order is a witness of the same kind and mode, so the walk
    builds level j + 1 from level j by extending each j-witness with a later
    arc.  Level j lists every j-witness in lexicographic order by index, as
    (index of its last arc, limit, witness), so its first entry is the least
    j-witness.  Returns ``(counts, least, found)``.  Without ``stop``,
    ``counts[j]`` and ``least[j]`` cover j = 0 .. the largest order (index 0
    is the empty witness) and ``found`` is ().  With ``stop``, the walk drops
    every entry whose remaining arcs are too few to reach ``stop`` arcs, so
    its tallies are partial, and ``found`` is the least ``stop``-witness
    (() if there is none).

    Each arc after the first must start before a limit: the first right end
    (plus one unless strict) for a crossing, the last right end for a
    nesting.  Left ends increase, so the scan stops at the first arc past
    the limit.  Strict witnesses hold no loop, and a loop can only close a
    nesting.
    """
    nesting = kind == NESTING
    slack = not strict
    n = len(arcs)
    counts = [1]
    least: list[tuple[Arc, ...]] = [()]
    # With stop, an entry of level d ending at index i can still reach stop
    # arcs only while n - 1 - i >= stop - d, so each scan ends before
    # n - stop + d.  Level 1 is a plain loop: a comprehension is a call.
    d = 1
    level = []
    for i in range(n - stop + d if stop else n):
        a = arcs[i]
        right = a[1]  # indexing: unpacking a namedtuple is slower
        if not (strict and a[0] == right):
            level.append((i, right if nesting else right + slack, (a,)))
    while level:
        if d == stop:
            return counts, least, level[0][2]
        counts.append(len(level))
        least.append(level[0][2])
        d += 1
        end = n - stop + d if stop else n
        deeper = []
        add = deeper.append
        for i, limit, w in level:
            last_right = arcs[i][1]
            for j in range(i + 1, end):
                a = arcs[j]
                left = a[0]
                if left >= limit:
                    break
                right = a[1]
                if strict and left == right:
                    continue
                if nesting:
                    if right < last_right:
                        add((j, right, w + (a,)))
                elif right > last_right:
                    add((j, limit, w + (a,)))
        level = deeper
    return counts, least, ()


def _find_crossing(arcs: Sequence[Arc], k: int, strict: bool) -> Optional[tuple[Arc, ...]]:
    return _walk(arcs, CROSSING, strict, k)[2] or None


def _walked(a: ArcSet, kind: str, mode: Optional[str]) -> _Walk:
    """The unstopped walk of one kind on a, memoised on the arc set per
    (kind, mode).  Kind and mode are checked only on a miss, so only valid
    keys are ever stored and a hit needs no check."""
    key = (kind, mode or a.mode)
    walk = a._walks.get(key)
    if walk is None:
        _check_kind(kind)
        walk = a._walks[key] = _walk(a.arcs, kind, _strict(key[1]))
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


def _max_order(arcs: Sequence[Arc], kind: str, strict: bool) -> int:
    return len(_walk(arcs, kind, strict)[0]) - 1


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
