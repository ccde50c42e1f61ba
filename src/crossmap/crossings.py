"""Detection and counting of k-crossings and k-nestings.

A k-crossing is a set of k arcs that, written in order of left endpoints
(a_1, b_1), ..., (a_k, b_k), satisfies a_1 < ... < a_k and b_1 < ... < b_k
together with a_k <= b_1 (enhanced) or a_k < b_1 (classical).  A k-nesting
instead has b_k < ... < b_1 with a_k <= b_k (enhanced) or a_k < b_k
(classical).  Loops can therefore only ever appear in enhanced witnesses.

One pruned backtracking search, ``_search``, walks arcs in left-endpoint
order and serves finding, counting and the maximal orders for both kinds.
The brute-force oracle re-checks the defining inequalities on every
k-subset and exists purely to cross-validate that search.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import inf
from typing import Optional, Sequence

from .arcs import Arc, ArcSet, CLASSICAL, ENHANCED
from .errors import InvalidK, OutOfRange, TooManyArcs

CROSSING = "crossing"
NESTING = "nesting"

MAX_K = 8
ORACLE_MAX_ARCS = 24


@dataclass(frozen=True)
class CrossingWitness:
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


def _search(
    arcs: Sequence[Arc], k: int, kind: str, strict: bool, first: bool
) -> tuple[int, tuple[Arc, ...]]:
    """(number of k-witnesses of one kind, the least one by index or ()).

    ``arcs`` must be sorted by left endpoint.  With ``first`` the search
    stops at the least witness, so the count is 1 or 0.  Each arc after the
    first must start before a limit: the first right end (plus one unless
    strict) for a crossing, the last right end for a nesting.  Left ends
    increase, so the scan stops at the first arc past the limit.  Strict
    witnesses hold no loop, and a loop can only close a nesting.
    """
    nesting = kind == NESTING
    slack = not strict
    n = len(arcs)
    leaf = k - 1

    def extend(start: int, j: int, limit: float, last_right: float) -> tuple[int, tuple[Arc, ...]]:
        # j arcs are chosen; the next comes from arcs[start:] and leaves
        # room for the k - j - 1 after it.
        total = 0
        least: tuple[Arc, ...] = ()
        for i in range(start, n - leaf + j):
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
            if j == leaf:
                count, tail = 1, ()
            else:
                below = right if nesting else limit if j else right + slack
                count, tail = extend(i + 1, j + 1, below, right)
                if not count:
                    continue
            if first:
                return 1, (a,) + tail
            if not total:
                least = (a,) + tail
            total += count
        return total, least

    return extend(0, 0, inf, inf if nesting else 0)


def _find_crossing(arcs: Sequence[Arc], k: int, strict: bool) -> Optional[tuple[Arc, ...]]:
    return _search(arcs, k, CROSSING, strict, True)[1] or None


def _find(a: ArcSet, k: int, kind: str, mode: Optional[str]) -> Optional[CrossingWitness]:
    _check_k(k)
    mode = mode or a.mode
    arcs = _search(a.arcs, k, kind, _strict(mode), True)[1]
    return CrossingWitness(kind, mode, arcs) if arcs else None


def find_k_crossing(a: ArcSet, k: int, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Lexicographically least k-crossing by left endpoints, if any."""
    return _find(a, k, CROSSING, mode)


def find_k_nesting(a: ArcSet, k: int, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Lexicographically least k-nesting by left endpoints, if any."""
    return _find(a, k, NESTING, mode)


def _max_order(arcs: Sequence[Arc], kind: str, strict: bool) -> int:
    k = 0
    while k < len(arcs) and _search(arcs, k + 1, kind, strict, True)[0]:
        k += 1
    return k


def max_crossing_number(a: ArcSet, mode: Optional[str] = None) -> int:
    """Largest k admitting a k-crossing; 0 when no arc qualifies."""
    return _max_order(a.arcs, CROSSING, _strict(mode or a.mode))


def max_nesting_number(a: ArcSet, mode: Optional[str] = None) -> int:
    """Largest k admitting a k-nesting; 0 when no arc qualifies."""
    return _max_order(a.arcs, NESTING, _strict(mode or a.mode))


def count_k_witnesses(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> int:
    """Number of distinct k-subsets of arcs forming a valid witness."""
    _check_k(k)
    _check_kind(kind)
    return _search(a.arcs, k, kind, _strict(mode or a.mode), False)[0]


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


def oracle_find(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> Optional[CrossingWitness]:
    """Unpruned brute-force search over all k-subsets of arcs.

    Independent cross-check for the pruned search; refuses large inputs.
    """
    _check_k(k)
    _check_kind(kind)
    if len(a.arcs) > ORACLE_MAX_ARCS:
        raise TooManyArcs(f"oracle handles at most {ORACLE_MAX_ARCS} arcs")
    mode = mode or a.mode
    strict = _strict(mode)
    for combo in combinations(a.arcs, k):
        if _is_witness(combo, kind, strict):
            return CrossingWitness(kind, mode, combo)
    return None


def oracle_count(a: ArcSet, k: int, kind: str, mode: Optional[str] = None) -> int:
    """Brute-force witness count over all k-subsets."""
    _check_k(k)
    _check_kind(kind)
    if len(a.arcs) > ORACLE_MAX_ARCS:
        raise TooManyArcs(f"oracle handles at most {ORACLE_MAX_ARCS} arcs")
    strict = _strict(mode or a.mode)
    return sum(1 for combo in combinations(a.arcs, k) if _is_witness(combo, kind, strict))
