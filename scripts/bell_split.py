#!/usr/bin/env python3
"""In-process cost of ``bell-check``'s two searches, per n.

    python3 scripts/bell_split.py --n-max 11 --repeat 3

For each n in 0..N it prints the lower of R timings, in seconds, of
``counting._reverse_keys(n + 1, seen)``, which marks the reverse images in
a fresh bitmap, and of ``counting._partial_keys(n, seen)``, which then
tests every partition of a subset of [n] against it, and the bitmap's size
in bytes (``counting._check_bitmap(n)``, so an n over the memory cap
fails before any search).  The last line gives the process's max RSS.
Each repeat builds its bitmap anew, after dropping the one before.
"""
from __future__ import annotations

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from crossmap.counting import _check_bitmap, _partial_keys, _reverse_keys, bell  # noqa: E402
from crossmap.errors import OutOfBudget  # noqa: E402


def split(n: int, repeat: int) -> tuple[float, float]:
    """Best-of-``repeat`` seconds of the reverse and partial searches for n."""
    clock = time.perf_counter
    best_reverse = best_partial = float("inf")
    for _ in range(repeat):
        seen = None  # drop the last bitmap before the next is built
        seen = memoryview(bytearray(_check_bitmap(n))).cast("H")
        t0 = clock()
        visited = _reverse_keys(n + 1, seen)
        t1 = clock()
        total, hits = _partial_keys(n, seen)
        t2 = clock()
        if not visited == total == hits == bell(n + 1):
            raise SystemExit(f"n={n}: the searches disagree: {visited}, {total}, {hits}")
        best_reverse = min(best_reverse, t1 - t0)
        best_partial = min(best_partial, t2 - t1)
    return best_reverse, best_partial


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=9)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if args.n_max < 0 or args.repeat < 1:
        parser.error("--n-max must be >= 0 and --repeat >= 1")
    try:
        _check_bitmap(args.n_max)
    except OutOfBudget as e:
        parser.error(str(e))
    print(f"best of {args.repeat}, Python {sys.version.split()[0]}")
    print("| n | _reverse_keys s | _partial_keys s | bitmap bytes |")
    print("|---|---|---|---|")
    for n in range(args.n_max + 1):
        rev, part = split(n, args.repeat)
        print(f"| {n} | {rev:.4f} | {part:.4f} | {_check_bitmap(n)} |")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"max RSS: {rss_mb:.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
