"""Exact counting and identity verification.

All values are exact integers kept inside the signed 64-bit range; leaving
it raises Overflow instead of wrapping.

``count_C``, ``count_E`` and ``count_partial_E`` (and so ``verify_identity``)
count by a polynomial walk over vacillating tableaux (Chen, Deng, Du,
Stanley and Yan): a partition of [n] has no k-crossing exactly when its
tableau never has more than k-1 rows.  The walk memoises each shape's
steps and prunes shapes with more cells than steps left to n.  No closed
walk of any length m <= n meets such a shape, so one walk to n gives the
exact counts for every m <= n: ``verify-identity`` makes one walk per
family per run.  Exhaustive enumeration of all partitions is kept as the
independent route: a count takes it when ``parts > 1``, and
``count_table`` (behind ``oeis-check``) always uses it, because the
bundled A108304/A108307 snapshots come from the same walk.  The route's one
entry, ``_count_cached``, keeps each count: a process enumerates none twice.
Each enumerated count makes one pass over the raw label arrays of
``_iter_labels``.

``verify_eigensequence`` checks the reverse map against a bitmap over
predecessor forms.  The predecessor form of a partition of a subset of
[n] is its link array (defined at ``partition._labelled``) that links each
x to the element just before x in its block, and v_x is link[x].  It is
canonical, and 0 <= v_x <= x, so v_1..v_{n-1} pick one of n! words by the
mixed radix of ``_weights`` and v_n <= n < 16 picks a bit of that 16-bit
word.  One exception: when n's block is {b, n} with b < n, the word
takes v_b as 0, as if b were absent.  No other form has that bit there,
since n cannot follow an absent b, and so every form below a search node
lies in that node's word.  Each side runs one depth-first search that
keeps the word index up to date and handles the leaves below the node
that places n-1 a word at a time: ``_reverse_keys`` sets the bits of the
reverse images with one OR per word, and ``_partial_keys`` tests the
partitions of subsets with one mask per word.  Neither builds partition
objects or makes a call per partition.

Each resource has one cap, checked once, before any work starts (after
k, if the run has one), by the function that owns it; the CLI repeats
none of these checks.  The ground set, n <= 20 or n <= 19 on [n+1], is
``_check_n``'s and alone bounds the walk, whose columns stay in int64 up
to it.  Enumeration also answers to the n budget (default 12) of
``_check_budget``, whose messages name the n and budget given: a column
up to n_max is checked once, as its last count, so ``count_table``
refuses an n_max as ``count --parts`` refuses that n.  Every route
refuses a negative budget, after k.  The Bell check answers to
[n_max + 1], then to ``_check_bitmap``'s memory cap.
"""
from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, NamedTuple, Optional

from .arcs import _arcs
from .crossings import _check_k, _find_crossing
from .errors import Overflow, OutOfBudget, OutOfRange
from .partition import _check_n, _iter_labels

INT64_MAX = 2**63 - 1

DEFAULT_BUDGET = 12
BITMAP_CAP = 2**30  # bytes; admits the bitmap of n = 12, 2 * 12! (914 MiB), not n = 13 (11.6 GiB)

FAMILY_C = "C"
FAMILY_E = "E"
FAMILY_BELL = "Bell"


def checked(value: int) -> int:
    if value > INT64_MAX:
        raise Overflow(f"value {value} exceeds the signed 64-bit range")
    return value


def binomial(n: int, i: int) -> int:
    """Exact binomial coefficient for 0 <= i <= n, inside int64."""
    if not 0 <= i <= n:
        raise OutOfRange(f"need 0 <= i <= n, got i={i}, n={n}")
    return checked(math.comb(n, i))


@lru_cache(maxsize=None)
def _bell_column() -> tuple[int, ...]:
    """Bell(0), Bell(1), ..., the first column of the Bell triangle, up to
    the last Bell number inside int64."""
    row, column = [1], [1]
    while row[-1] <= INT64_MAX:  # the last entry of a row is the next Bell number
        row = list(accumulate(row, initial=row[-1]))
        column.append(row[0])
    return tuple(column)


def bell(n: int) -> int:
    """Bell number via the Bell triangle, independent of enumeration."""
    if n < 0:
        raise OutOfRange(f"n must be >= 0, got {n}")
    column = _bell_column()
    if n >= len(column):
        raise Overflow(f"Bell({n}) exceeds the signed 64-bit range, which ends at Bell({len(column) - 1})")
    return column[n]


def _check_budget_range(budget: int) -> None:
    if budget < 0:
        raise OutOfRange(f"budget must be >= 0, got {budget}")


def _check_budget(n: int, budget: int) -> None:
    """Check n against the budget, then the ground set [n]."""
    if n > budget:
        raise OutOfBudget(f"n={n} exceeds the enumeration budget {budget}")
    _check_n(n)


def _check_bitmap(n: int) -> int:
    """Bytes of the bitmap for n >= 0, n! words of 16 bits, within ``BITMAP_CAP``."""
    size = 2 * math.factorial(n)
    if size > BITMAP_CAP:
        raise OutOfBudget(f"n={n} needs a {size}-byte bitmap, over the {BITMAP_CAP}-byte memory cap")
    return size


def _add_corners(shape: tuple[int, ...], rows: int) -> list[tuple[int, ...]]:
    """Shapes obtained by adding one cell, keeping at most ``rows`` rows."""
    res = []
    for i in range(len(shape)):
        if i == 0 or shape[i - 1] > shape[i]:
            res.append(shape[:i] + (shape[i] + 1,) + shape[i + 1 :])
    if len(shape) < rows:
        res.append(shape + (1,))
    return res


def _remove_corners(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Shapes obtained by removing one corner cell."""
    res = []
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            t = shape[:i] + (shape[i] - 1,) + shape[i + 1 :]
            res.append(tuple(x for x in t if x))
    return res


def _steps(
    shape: tuple[int, ...], rows: int, enhanced: bool, partial: bool
) -> list[tuple[int, tuple[int, ...]]]:
    """Every shape one step leads to from ``shape``, as (cells, shape) pairs.

    A step is two half-steps, each adding a corner, removing one or doing
    nothing: classical removes then adds, enhanced adds then removes.  Of
    the (nothing, nothing) steps, 1 + partial - enhanced are kept: an
    enhanced singleton is a loop instead, and ``partial`` adds one for an
    absent element.  A shape reached in several ways appears once per way.
    """
    add = lambda s: _add_corners(s, rows)
    first, then = (add, _remove_corners) if enhanced else (_remove_corners, add)
    ends = [end for mid in [shape] + first(shape) for end in [mid] + then(mid)][1:]
    ends += [shape] * (1 + partial - enhanced)
    return [(sum(t), t) for t in ends]


def _walk(k: int, n: int, enhanced: bool, partial: bool) -> list[int]:
    """Closed walks of each length m = 0..n on shapes with at most k-1 rows,
    one ``_steps`` step per element of [m], as the column indexed by m.

    Each shape's steps are built once per walk.  A step removes at most one
    cell, so no closed walk of length m <= n meets a shape with more cells
    than steps left to n, and the walk drops it: every entry is exact.
    """
    rows = k - 1
    steps: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    states = {(): 1}
    column = [1]
    for left in range(n - 1, -1, -1):
        nxt: dict[tuple[int, ...], int] = {}
        for shape, c in states.items():
            table = steps.get(shape)
            if table is None:
                table = steps[shape] = _steps(shape, rows, enhanced, partial)
            for cells, t in table:
                if cells <= left:
                    nxt[t] = nxt.get(t, 0) + c
        states = nxt
        column.append(checked(states.get((), 0)))
    return column


def _count(k: int, n: int, budget: int, enhanced: bool, partial: bool, parts: int) -> int:
    _check_k(k)
    _check_budget_range(budget)
    if parts > 1:
        _check_budget(n, budget)
        return _count_cached(k, n, enhanced, partial)
    _check_n(n)
    if parts < 1:
        raise OutOfRange(f"parts must be >= 1, got {parts}")
    return _walk(k, n, enhanced, partial)[n]


@lru_cache(maxsize=None)
def _count_cached(k: int, n: int, enhanced: bool, partial: bool) -> int:
    """Avoiders by one pass over every label array of [n], or of its subsets
    when ``partial``: the enumeration route's one entry, kept per count."""
    arrays = _iter_labels(n, partial)
    return checked(sum(_find_crossing(_arcs(x, enhanced), k, not enhanced) is None for x in arrays))


def count_C(k: int, n: int, parts: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of [n] with no classical k-crossing."""
    return _count(k, n, budget, enhanced=False, partial=False, parts=parts)


def count_E(k: int, n: int, parts: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of [n] with no enhanced k-crossing."""
    return _count(k, n, budget, enhanced=True, partial=False, parts=parts)


def count_partial_E(k: int, n: int, parts: int = 1, budget: int = DEFAULT_BUDGET) -> int:
    """Partitions of subsets of [n] with no enhanced k-crossing."""
    return _count(k, n, budget, enhanced=True, partial=True, parts=parts)


class IdentityReport(NamedTuple):
    """One instance of a binomial-transform identity check."""

    k: Optional[int]
    n: int
    lhs: int
    rhs_terms: list[int]
    rhs: int
    holds: bool
    rhs_direct: Optional[int] = None
    routes: Optional[dict] = None

    def to_json(self) -> dict:
        obj = self._asdict()
        for key in ("rhs_direct", "routes"):
            if obj[key] is None:
                del obj[key]
        return obj


def _binomial_transform(column: list[int]) -> tuple[list[int], int]:
    """The terms binomial(n, i) * column[i], n = len(column) - 1, and their sum.

    Every term is nonnegative, so checking the total checks each partial sum.
    """
    n = len(column) - 1
    terms = [checked(binomial(n, i) * term) for i, term in enumerate(column)]
    return terms, checked(sum(terms))


def _identity_reports(k: int, n_max: int) -> list[IdentityReport]:
    """``verify_identity(k, n)`` for n = 0..n_max: k and [n_max + 1] checked, then three walks."""
    _check_k(k)
    _check_n(n_max, shift=1)
    lhs = _walk(k, n_max + 1, enhanced=False, partial=False)
    enhanced = _walk(k, n_max, enhanced=True, partial=False)
    direct = _walk(k, n_max, enhanced=True, partial=True)
    reports = []
    for n in range(n_max + 1):
        terms, rhs = _binomial_transform(enhanced[: n + 1])
        holds = lhs[n + 1] == rhs == direct[n]
        reports.append(IdentityReport(k, n, lhs[n + 1], terms, rhs, holds, rhs_direct=direct[n]))
    return reports


def verify_identity(k: int, n: int) -> IdentityReport:
    """Check that avoiders of [n+1] equal the binomial transform over [n].

    lhs counts partitions of [n+1] with no classical k-crossing, rhs sums
    binomial(n, i) times the enhanced avoiders of [i], and rhs_direct counts
    enhanced avoiders on subsets of [n].  All three are ``_walk`` columns and
    agree for any corner rule: rhs == direct by choosing which partial steps
    stay, and lhs == direct by regrouping half-steps.  The independent check
    is enumeration (``count --parts``, ``oeis-check`` and the tests).
    """
    return _identity_reports(k, n)[n]


def _weights(n: int) -> list[int]:
    """``w[x]``, for x in [n-1], the place value of v_x in the word index
    of a predecessor form of [n]: v_1 is most significant and v_x has radix
    x + 1, so w[n-1] = 1, the word indices fill [0, n!), and
    w[x] = n!/(x+1)!.  w[0] is unused."""
    w = [1] * n
    for x in range(n - 2, 0, -1):
        w[x] = w[x + 1] * (x + 2)
    return w


def _reverse_keys(m: int, seen: memoryview) -> int:
    """Mark the reverse image of every partition of [m], m >= 1, in the
    bitmap ``seen`` for n = m - 1, and return how many partitions were
    visited, Bell(m).

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


def _partial_keys(n: int, seen: memoryview) -> tuple[int, int]:
    """Test the bit of every partition of a subset of [n] in the bitmap
    ``seen``, and return how many partitions were visited, Bell(n+1), and
    how many of their bits were set.

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


def verify_eigensequence(n: int) -> IdentityReport:
    """Check the Bell-number fixed point of the binomial transform, three ways.

    Routes: the Bell-triangle recurrence, direct enumeration of partitions
    of [n+1], and the reverse map, whose images over all partitions of
    [n+1] must be pairwise distinct and, compared as a set, equal to the
    enumerated partitions of subsets of [n].  The set is a bitmap over the
    images' predecessor forms, n! words of 16 bits, ``_check_bitmap(n)``
    bytes.
    """
    _check_n(n, shift=1)
    lhs = bell(n + 1)
    terms, rhs = _binomial_transform([bell(i) for i in range(n + 1)])

    # Both sides reach the bits of predecessor forms, which are canonical,
    # so one bit per form marks the set of images.  The partial side's bits
    # are distinct: when all lhs of them find their bit set by lhs marks,
    # the images are distinct and are exactly that set.
    seen = memoryview(bytearray(_check_bitmap(n))).cast("H")
    enumerated = _reverse_keys(n + 1, seen)
    partial_total, hits = _partial_keys(n, seen)
    routes = {
        "triangle": lhs == rhs,
        "enumeration": enumerated == lhs,
        "bijection": enumerated == lhs == partial_total == hits,
    }
    return IdentityReport(
        None, n, lhs, terms, rhs, all(routes.values()), routes=routes
    )


def _bell_reports(n_max: int) -> Iterator[IdentityReport]:
    """``verify_eigensequence(n)`` for n = 0..n_max, each as it finishes,
    after the ground set [n_max + 1] and n_max's bitmap cap pass."""
    _check_n(n_max, shift=1)
    _check_bitmap(n_max)
    return (verify_eigensequence(n) for n in range(n_max + 1))


def count_table(family: str, k: Optional[int], n_max: int, budget: int = DEFAULT_BUDGET) -> dict[int, int]:
    """One counting family for n = 0..n_max, as the column {n: value}.

    Counts come from enumeration, never from the walk, so comparing them
    with the walk-generated snapshots is an independent check.  A column
    checks k (C and E), the budget, then n_max, as ``count --parts`` does.
    """
    if family == FAMILY_BELL:
        _check_budget_range(budget)
        if n_max < 0:
            bell(n_max)  # bell owns the range of n, and refuses this one
        return {n: bell(n) for n in range(n_max + 1)}
    if family not in (FAMILY_C, FAMILY_E):
        raise OutOfRange(f"unknown family {family!r}")
    _check_k(k)
    _check_budget_range(budget)
    _check_budget(n_max, budget)
    return {n: _count_cached(k, n, family == FAMILY_E, False) for n in range(n_max + 1)}
