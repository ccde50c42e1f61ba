#!/usr/bin/env python3
"""Per-stage cost of the ``witness`` request, in microseconds per request.

    python3 scripts/witness_split.py --seed 1 --repeat 5

The inputs are ``perfbench/checks.witness_inputs(seed, count)``, the seeded
partitions the ``witness`` benchmark serves.  Each stage runs over every
input in turn, on objects the stages before it built, so a stage's time is
its own.  A repeat builds everything anew, since partitions keep their arc
set and arc sets their walks; the table shows each stage's best repeat.
The SVG frames stay cached across repeats, so ``render_overlay`` is timed
on frame hits after the first.

Stages, in request order:

- ``parse_text``: the input text to a partition p
- ``forward``: p's label scan, which builds the enhanced arc set kept on p,
  and the arc shift of those arcs to the image q
- ``to_text``: the image's text
- ``reverse``: q's label scan, which builds the enhanced arc set kept on
  q, and the shift of its arcs back to p
- ``two arc sets``: p's enhanced arc set, a memo read, and q's classical
  one, the memo read plus the filter that drops q's loops
- ``witness walks``: the first ``count_k_witnesses`` per side and kind,
  which walks the arc set
- ``table reads``: every count and find of the ``map --witnesses 4`` table
  and each found witness's transport, all read from the walks
- ``render_overlay``: p's SVG
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import WITNESS_K_MAX, WITNESS_REQUESTS, witness_inputs  # noqa: E402

from crossmap.arcs import CLASSICAL, ENHANCED, arcs_classical, arcs_enhanced  # noqa: E402
from crossmap.bijection import forward, reverse, witness_forward  # noqa: E402
from crossmap.crossings import (  # noqa: E402
    CROSSING,
    NESTING,
    count_k_witnesses,
    find_k_crossing,
    find_k_nesting,
)
from crossmap.diagram import render_overlay  # noqa: E402
from crossmap.partition import parse_text  # noqa: E402

STAGES = (
    "parse_text",
    "forward",
    "to_text",
    "reverse",
    "two arc sets",
    "witness walks",
    "table reads",
    "render_overlay",
)
FINDS = ((CROSSING, find_k_crossing), (NESTING, find_k_nesting))


def _walks(sides) -> None:
    src, dst = sides
    for kind in (CROSSING, NESTING):
        count_k_witnesses(src, 1, kind, ENHANCED)
        count_k_witnesses(dst, 1, kind, CLASSICAL)


def _table(sides) -> None:
    src, dst = sides
    for k in range(1, WITNESS_K_MAX + 1):
        for kind, find in FINDS:
            count_k_witnesses(src, k, kind, ENHANCED)
            count_k_witnesses(dst, k, kind, CLASSICAL)
            w = find(src, k, ENHANCED)
            if w is not None:
                witness_forward(w)


def one_pass(texts: list[str]) -> dict[str, float]:
    """Seconds each stage took over all texts, in one fresh pass."""
    clock = time.perf_counter
    spent = {}

    def stage(name, fn, items):
        t0 = clock()
        out = [fn(x) for x in items]
        spent[name] = clock() - t0
        return out

    ps = stage("parse_text", parse_text, texts)
    qs = stage("forward", forward, ps)
    stage("to_text", lambda q: q.to_text(), qs)
    stage("reverse", reverse, qs)
    pairs = list(zip(ps, qs))
    sides = stage("two arc sets", lambda pq: (arcs_enhanced(pq[0]), arcs_classical(pq[1])), pairs)
    stage("witness walks", _walks, sides)
    stage("table reads", _table, sides)
    stage("render_overlay", render_overlay, ps)
    return spent


def split(texts: list[str], repeat: int) -> dict[str, float]:
    """Best-of-``repeat`` µs per request for each stage, and their total."""
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeat):
        for name, seconds in one_pass(texts).items():
            best[name] = min(best[name], seconds)
    us = {name: best[name] * 1e6 / len(texts) for name in STAGES}
    us["total"] = sum(us.values())
    return us


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--count", type=int, default=WITNESS_REQUESTS, help="inputs per pass")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.count < 1:
        parser.error("--repeat and --count must be >= 1")
    texts = [text for text, _ in witness_inputs(args.seed, args.count)]
    us = split(texts, args.repeat)
    print(f"seed {args.seed}, {args.count} inputs, best of {args.repeat}, "
          f"Python {sys.version.split()[0]}")
    print("| stage | µs |")
    print("|---|---|")
    for name, value in us.items():
        print(f"| {name} | {value:.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
