"""The ``witness`` request: the library path behind ``map --witnesses 4``
plus ``render``, for one partition given as text.

Run as a script it is the workload's child process:

    PYTHONPATH=src python3 perfbench/witness.py INPUTS.json

INPUTS.json holds ``[[input_text, expected_image_text], ...]``.  The child
times every request, checks every response, and prints one JSON object
``{"latencies_s": [...], "attempted": a, "failed": f}``.

Functions are looked up on their modules at call time, so a traced run
that replaces module attributes sees these calls.
"""
from __future__ import annotations

import json
import sys
import time

from checks import WITNESS_K_MAX

from crossmap import arcs, bijection, crossings, diagram, partition


def request(text: str) -> dict:
    """Parse, map both ways, count and find witnesses, transport, render."""
    p = partition.parse_text(text)
    q = bijection.forward(p)
    image_text = q.to_text()
    back = bijection.reverse(q)
    src = arcs.arcs_enhanced(p)
    dst = arcs.arcs_classical(q)
    table = []
    for k in range(1, WITNESS_K_MAX + 1):
        for kind, find in (
            (crossings.CROSSING, crossings.find_k_crossing),
            (crossings.NESTING, crossings.find_k_nesting),
        ):
            enhanced = crossings.count_k_witnesses(src, k, kind, arcs.ENHANCED)
            classical = crossings.count_k_witnesses(dst, k, kind, arcs.CLASSICAL)
            w = find(src, k, arcs.ENHANCED)
            image = bijection.witness_forward(w) if w is not None else None
            table.append((k, enhanced, classical, image))
    svg = diagram.render_overlay(p)
    return {
        "p": p, "back": back, "image_text": image_text, "src": src, "dst": dst,
        "table": table, "svg": svg,
    }


def check(r: dict, expected_image: str) -> tuple[int, int]:
    """(attempted, failed) for one response.

    Checks: reverse(forward(p)) == p; the image text equals the reference
    forward image; for every (k, kind) the enhanced count of p equals the
    classical count of its image (the paper's transport statement); every
    transported witness has k arcs, all of them classical arcs of the
    image; the SVG is one document with one polyline per arc.
    """
    results = [r["back"] == r["p"], r["image_text"] == expected_image]
    dst_arcs = set(r["dst"])
    for k, enhanced, classical, image in r["table"]:
        results.append(enhanced == classical)
        if image is not None:
            results.append(len(image.arcs) == k and set(image.arcs) <= dst_arcs)
    svg = r["svg"]
    results.append(
        svg.startswith("<?xml")
        and svg.endswith("</svg>\n")
        and svg.count("<polyline") == len(r["src"]) + len(r["dst"])
    )
    return len(results), results.count(False)


def run_all(inputs: list) -> tuple[list[float], int, int]:
    """Run every request in order; (latencies in s, attempted, failed)."""
    latencies = []
    attempted = failed = 0
    clock = time.perf_counter
    for text, expected_image in inputs:
        t0 = clock()
        r = request(text)
        latencies.append(clock() - t0)
        a, f = check(r, expected_image)
        attempted += a
        failed += f
    return latencies, attempted, failed


def main(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        inputs = json.load(fh)
    latencies, attempted, failed = run_all(inputs)
    json.dump({"latencies_s": latencies, "attempted": attempted, "failed": failed}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
