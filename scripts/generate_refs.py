#!/usr/bin/env python3
"""Regenerate the bundled reference-sequence snapshots in src/crossmap/data/.

Each snapshot is written in OEIS b-file format (`index value` per line,
offset 0):

  A000108  Catalan numbers, product formula
  A001006  Motzkin numbers, convolution recurrence
  A000110  Bell numbers, Bell triangle
  A108304  3-noncrossing partitions, tableau walk
  A108307  enhanced 3-noncrossing partitions, tableau walk

The tableau walk is crossmap.counting._walk, which counts closed walks of
every length up to n on Young diagrams with at most k-1 rows, so one walk
per sequence gives all its terms.  It is also the route behind count_C and
count_E, so the A108304 and A108307 snapshots are not independent of those
functions; the package's enumeration route is.  Its one entry,
_count_cached, also serves count --parts N > 1, count_table and oeis-check.
With k=2 the walk must reproduce Catalan and Motzkin; run with --check to
re-verify it against enumeration for every n <= 12 (slow: about 2.5
minutes on a 2-CPU VM with Python 3.11).
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = SRC / "crossmap" / "data"
TERMS = 16

sys.path.insert(0, str(SRC))
from crossmap.counting import _count_cached, _walk  # noqa: E402
from crossmap.oeis import _bfile_name  # noqa: E402


def catalan(nmax: int) -> list[int]:
    return [math.comb(2 * n, n) // (n + 1) for n in range(nmax + 1)]


def motzkin(nmax: int) -> list[int]:
    m = [1]
    for n in range(nmax):
        nxt = m[n] + sum(m[i] * m[n - 1 - i] for i in range(n))
        m.append(nxt)
    return m


def bell(nmax: int) -> list[int]:
    row = [1]
    out = [1]
    for _ in range(nmax):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[0])
    return out


def walk(k: int, enhanced: bool) -> list[int]:
    return _walk(k, TERMS - 1, enhanced, partial=False)


def write_bfile(oeis_id: str, values: list[int]) -> None:
    path = DATA_DIR / _bfile_name(oeis_id)
    lines = [f"# {oeis_id}, offset 0, regenerated by scripts/generate_refs.py"]
    lines += [f"{n} {v}" for n, v in enumerate(values)]
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(values)} terms)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="cross-check the tableau walk against enumeration (slow)",
    )
    args = parser.parse_args()

    cat = catalan(TERMS - 1)
    mot = motzkin(TERMS - 1)
    c3 = walk(3, enhanced=False)
    e3 = walk(3, enhanced=True)

    # Row bound 1 (k=2) must collapse the walks to Catalan / Motzkin.
    assert walk(2, enhanced=False) == cat
    assert walk(2, enhanced=True) == mot

    if args.check:
        for n in range(13):
            assert _count_cached(3, n, False, False) == c3[n], n
            assert _count_cached(3, n, True, False) == e3[n], n
        print("enumeration cross-check passed for n <= 12")

    DATA_DIR.mkdir(parents=True, exist_ok=True)
    write_bfile("A000108", cat)
    write_bfile("A001006", mot)
    write_bfile("A000110", bell(25))
    write_bfile("A108304", c3)
    write_bfile("A108307", e3)
    return 0


if __name__ == "__main__":
    sys.exit(main())
