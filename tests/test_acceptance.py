"""End-to-end acceptance checks; one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every check is exact;
there are no tolerances anywhere.
"""
import xml.etree.ElementTree as ET

from crossmap.arcs import (
    Arc,
    CLASSICAL,
    ENHANCED,
    arcs_classical,
    arcs_enhanced,
    distance_multiset,
)
from crossmap.bijection import forward, reverse
from crossmap.cli import main
from crossmap.counting import count_table, verify_identity
from crossmap.crossings import (
    CROSSING,
    NESTING,
    count_k_witnesses,
    find_k_crossing,
    find_k_nesting,
    oracle_count,
    oracle_find,
)
from crossmap.diagram import render_overlay
from crossmap.oeis import bundled, compare
from crossmap.partition import enumerate_full, enumerate_partial, parse_text
from test_diagram import _decode_overlay

PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"


def _report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_identity_exhaustive():
    failures = []
    for k in (1, 2, 3, 4, 5):
        for n in range(10):
            r = verify_identity(k, n)
            if not (r.holds and r.lhs == r.rhs == r.rhs_direct):
                failures.append((k, n))
    _report(1, not failures, "Theorem check: C_k(n+1) = binomial transform of E_k, "
            "k in 1..5, n in 0..9, both right-hand-side routes")


def test_criterion_2_worked_example(capsys):
    code_f = main(["map", "--input", PAPER_PI])
    code_r = main(["map", "--input", PAPER_PI_HAT, "--reverse"])
    out = capsys.readouterr().out.splitlines()
    with capsys.disabled():
        _report(2, code_f == code_r == 0 and out == [PAPER_PI_HAT, PAPER_PI],
                "worked example maps forward and back byte-exactly")


def test_criterion_3_bijectivity():
    bad = 0
    cases = 0
    for n in range(8):
        for p in enumerate_partial(n):
            cases += 1
            if reverse(forward(p)) != p:
                bad += 1
        for q in enumerate_full(n + 1):
            if forward(reverse(q)) != q:
                bad += 1
    _report(3, bad == 0, f"reverse∘forward and forward∘reverse are identities, "
            f"n <= 7 ({cases} partial cases), {bad} failures")


def test_criterion_4_statistic_transport():
    bad = 0
    for n in range(8):
        for p in enumerate_partial(n):
            a = arcs_enhanced(p)
            b = arcs_classical(forward(p))
            if len(a) != len(b):
                bad += 1
                continue
            if [d + 1 for d in distance_multiset(a)] != distance_multiset(b):
                bad += 1
                continue
            for k in range(1, 5):
                for kind in (CROSSING, NESTING):
                    if count_k_witnesses(a, k, kind, ENHANCED) != count_k_witnesses(
                        b, k, kind, CLASSICAL
                    ):
                        bad += 1
    _report(4, bad == 0, f"witness counts, distance shift and arc counts transport "
            f"through the bijection, n <= 7, k <= 4, {bad} failures")


def test_criterion_5_oracle_equivalence():
    bad = 0
    for n in range(8):
        for p in enumerate_full(n):
            a = arcs_enhanced(p)
            for mode in (CLASSICAL, ENHANCED):
                for kind, finder in ((CROSSING, find_k_crossing), (NESTING, find_k_nesting)):
                    for k in range(1, 5):
                        fast = finder(a, k, mode)
                        slow = oracle_find(a, k, kind, mode)
                        if (fast is None) != (slow is None):
                            bad += 1
                        elif fast is not None and fast.arcs != slow.arcs:
                            bad += 1
                        if count_k_witnesses(a, k, kind, mode) != oracle_count(a, k, kind, mode):
                            bad += 1
    _report(5, bad == 0, f"pruned detector vs brute-force oracle, n <= 7, both kinds "
            f"and modes, k <= 4, {bad} disagreements")


def test_criterion_6_sequence_regressions():
    checks = (
        ("A000108", "C", 2, 10),
        ("A001006", "E", 2, 10),
        ("A108304", "C", 3, 9),
        ("A108307", "E", 3, 9),
    )
    bad = []
    for oeis_id, family, k, n_max in checks:
        diff = compare(count_table(family, k, n_max), bundled(oeis_id))
        if not diff.ok:
            bad.append(oeis_id)
    _report(6, not bad, "counts match bundled snapshots of the four cited sequences"
            + (f", mismatches in {bad}" if bad else ""))


def test_criterion_7_bell_eigensequence(capsys):
    code = main(["bell-check", "--n-max", "10"])
    out = capsys.readouterr().out
    ok = code == 0 and all(line.endswith("OK") for line in out.splitlines())
    with capsys.disabled():
        _report(7, ok, "Bell fixed point holds via triangle, enumeration and "
                "bijection-image routes for n <= 10")


def test_criterion_8_parallel_determinism(capsys):
    values = []
    for parts in (1, 2, 4, 8):
        code = main(["count", "--k", "3", "--n", "9", "--family", "C", "--parts", str(parts)])
        values.append((code, capsys.readouterr().out.strip()))
    ok = all(code == 0 for code, _ in values) and len({v for _, v in values}) == 1
    with capsys.disabled():
        _report(8, ok, f"count --k 3 --n 9 --family C identical for parts 1,2,4,8 "
                f"(value {values[0][1]})")


def test_criterion_9_rendering():
    p = parse_text(PAPER_PI)
    svg1 = render_overlay(p)
    svg2 = render_overlay(p)
    root = ET.fromstring(svg1)
    ns = "{http://www.w3.org/2000/svg}"
    source_arcs = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "source-arc"]
    image_arcs = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "image-arc"]
    vertices = [e for e in root.iter(f"{ns}circle") if e.get("class") == "baseline-vertex"]
    source, image = _decode_overlay(p)
    apex_of_image = {arc: points[1] for arc, points in image}
    shared = all(
        points[1] == apex_of_image[Arc(arc.left, arc.right + 1)]
        for arc, points in source
        if not arc.is_loop
    )
    ok = (
        len(source_arcs) == 6
        and len(image_arcs) == 6
        and len(vertices) == 10
        and shared
        and svg1 == svg2
    )
    _report(9, ok, f"overlay SVG has 6+6 arcs and 10 baseline vertices, shared "
            f"apexes, byte-stable output")
