"""Detection and counting of k-crossings and k-nestings.

A k-crossing is a set of k arcs that, written in order of left endpoints
(a_1, b_1), ..., (a_k, b_k), satisfies a_1 < ... < a_k and b_1 < ... < b_k
together with a_k <= b_1 (enhanced) or a_k < b_1 (classical).  A k-nesting
instead has b_k < ... < b_1 with a_k <= b_k (enhanced) or a_k < b_k
(classical).  Loops can therefore only ever appear in enhanced witnesses.

One pruned depth-first walk, ``_walk``, takes arcs in left-endpoint order
and tallies, for every order k at once, the number of k-witnesses of one
kind and the least one; a stop order ends it at the first witness of that
order, for the enumeration route.  The unstopped walk is memoised per
(kind, mode) on the immutable ``ArcSet``, so finding, counting and the
maximal orders for any k read one walk.  The brute-force oracle re-checks
the defining inequalities on every k-subset and exists purely to
cross-validate that walk; finding and counting share its one guard.
"""
from __future__ import annotations

from itertools import combinations
from math import inf
from typing import Iterator, NamedTuple, Optional, Sequence

from .arcs import Arc, ArcSet, CLASSICAL, ENHANCED
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
    left-endpoint order is a witness of the same kind and mode, so one
    depth-first walk over prefixes visits every witness of every order once,
    and the first j-witness it reaches is the least by index.  Returns
    ``(counts, least, found)``.  Without ``stop``, ``counts[j]`` and
    ``least[j]`` cover j = 0 .. the largest order (index 0 is the empty
    witness) and ``found`` is ().  With ``stop``, the walk keeps no tallies,
    skips prefixes too short to grow to ``stop`` arcs and ends at the first
    ``stop``-witness, which is ``found`` (() if there is none).

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
    path: list[Optional[Arc]] = [None] * n

    def extend(start: int, d: int, limit: float, last_right: float) -> tuple[Arc, ...]:
        # d - 1 arcs are chosen; the d-th comes from arcs[start:].  Returns
        # the tail of the stop-witness, built on the way back up.
        for i in range(start, n - stop + d if stop else n):
            a = arcs[i]
            left = a[0]  # indexing: unpacking a namedtuple is slower
            right = a[1]
            if left >= limit:
                break
            if strict and left == right:
                continue
            if nesting:
                if right >= last_right:
                    continue
            elif right <= last_right:
                continue
            if d == stop:
                return (a,)
            if not stop:
                path[d - 1] = a
                if d < len(counts):
                    counts[d] += 1
                else:
                    counts.append(1)
                    least.append(tuple(path[:d]))
            below = right if nesting else limit if d > 1 else right + slack
            tail = extend(i + 1, d + 1, below, right)
            if tail:
                return (a,) + tail
        return ()

    found = extend(0, 1, inf, inf if nesting else 0)
    # extend refers to itself; dropping the name frees it (and the lists it
    # holds) now rather than in a garbage-collector pass.
    del extend
    return counts, least, found


def _find_crossing(arcs: Sequence[Arc], k: int, strict: bool) -> Optional[tuple[Arc, ...]]:
    return _walk(arcs, CROSSING, strict, k)[2] or None


def _walked(a: ArcSet, kind: str, mode: Optional[str]) -> _Walk:
    """The unstopped walk of one kind on a, memoised on the arc set."""
    key = (kind, _strict(mode or a.mode))
    walk = a._walks.get(key)
    if walk is None:
        walk = a._walks[key] = _walk(a.arcs, *key)
    return walk


def _find(a: ArcSet, k: int, kind: str, mode: Optional[str]) -> Optional[CrossingWitness]:
    _check_k(k)
    least = _walked(a, kind, mode)[1]
    return CrossingWitness(kind, mode or a.mode, least[k]) if k < len(least) else None


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
    _check_kind(kind)
    counts = _walked(a, kind, mode)[0]
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
