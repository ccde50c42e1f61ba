"""Command-line interface.

Exit codes: 0 success / all checks hold, 1 verification failure, 141
stdout closed early (128 + SIGPIPE, as a shell reports it), and otherwise
the ``exit_code`` of the ``CrossmapError`` that ended the run: 2 usage
error, 3 budget or overflow, 4 network failure.  A value is checked once,
by the library function that owns its range or cap: a command checks only
``--limit``, and names ``--witnesses`` in ``_check_k``'s refusal of it.
No command restates a library default: an option the user did not give is
not passed, so the function that owns it decides.

``json``, ``oeis`` and ``diagram`` serve only some commands, which import
them when they run, so every other command starts without them.
"""
from __future__ import annotations

import argparse
import sys
from itertools import islice

from . import counting
from .arcs import arcs_classical, arcs_enhanced
from .bijection import forward, reverse, witness_forward
from .crossings import CROSSING, NESTING, _check_k, count_k_witnesses, find_k_crossing, find_k_nesting
from .errors import CrossmapError, InvalidK, OutOfRange, UnknownId
from .partition import enumerate_full, enumerate_partial, parse_text

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PIPE = 141

#: Computed column and default check range for each bundled OEIS id.
OEIS_CHECKS = {
    "A000108": (counting.FAMILY_C, 2, 10),
    "A001006": (counting.FAMILY_E, 2, 10),
    "A108304": (counting.FAMILY_C, 3, 9),
    "A108307": (counting.FAMILY_E, 3, 9),
    "A000110": (counting.FAMILY_BELL, None, 12),
}


def _given(args, *names) -> dict:
    """The options among ``names`` that the user gave (argparse's None is not given)."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_enumerate(args) -> int:
    stream = enumerate_partial(args.n) if args.partial else enumerate_full(args.n)
    if args.limit is not None:
        if args.limit < 0:
            raise OutOfRange(f"--limit must be >= 0, got {args.limit}")
        stream = islice(stream, args.limit)
    for p in stream:
        print(p.to_text())
    return EXIT_OK


def _cmd_count(args) -> int:
    fn = counting.count_C if args.family == counting.FAMILY_C else counting.count_E
    value = fn(args.k, args.n, **_given(args, "parts", "budget"))
    print(value)
    return EXIT_OK


def _cmd_verify_identity(args) -> int:
    reports = counting._identity_reports(args.k, args.n_max)
    if args.json:
        import json

        print(json.dumps([r.to_json() for r in reports]))
    else:
        for r in reports:
            status = "OK" if r.holds else "FAIL"
            print(
                f"k={r.k} n={r.n} lhs={r.lhs} rhs={r.rhs} "
                f"direct={r.rhs_direct} {status}"
            )
    return EXIT_OK if all(r.holds for r in reports) else EXIT_FAIL


def _cmd_map(args) -> int:
    if args.witnesses:
        try:
            _check_k(args.witnesses)
        except InvalidK as exc:
            raise InvalidK(f"--witnesses: {exc}") from exc
    p = parse_text(args.input)
    image = reverse(p) if args.reverse else forward(p)
    print(image.to_text())
    if args.witnesses:
        import json

        # The classical side is forward(src): the image, or in reverse mode
        # the input itself, since forward(reverse(p)) == p.
        src, dst = (image, p) if args.reverse else (p, image)
        src_arcs = arcs_enhanced(src)
        dst_arcs = arcs_classical(dst)
        for k in range(1, args.witnesses + 1):
            for kind, find in ((CROSSING, find_k_crossing), (NESTING, find_k_nesting)):
                # Each side is walked once per kind; every k reads that walk.
                cla = count_k_witnesses(dst_arcs, k, kind)
                enh = count_k_witnesses(src_arcs, k, kind)
                line = f"k={k} {kind}: enhanced={enh} classical={cla}"
                w = find(src_arcs, k)
                if w is not None:
                    line += (
                        f" witness={json.dumps(w.to_json())}"
                        f" image={json.dumps(witness_forward(w).to_json())}"
                    )
                print(line)
    return EXIT_OK


def _cmd_render(args) -> int:
    from .diagram import render_overlay

    p = parse_text(args.input)
    svg = render_overlay(p, **_given(args, "scale", "source_color", "image_color"))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
        except OSError as exc:
            raise CrossmapError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(svg)
    return EXIT_OK


def _cmd_oeis_check(args) -> int:
    from . import oeis

    if args.id not in OEIS_CHECKS:
        raise UnknownId(f"no check defined for {args.id}")
    family, k, default = OEIS_CHECKS[args.id]
    n_max = default if args.n_max is None else args.n_max
    # Counted first, so a run that fails its checks fetches and caches nothing.
    table = counting.count_table(family, k, n_max, **_given(args, "budget"))
    ref = oeis.fetch_bfile(args.id) if args.fetch else oeis.bundled(args.id)
    diff = oeis.compare(table, ref)
    if diff.ok:
        print(f"OK ({diff.compared} terms compared)")
        return EXIT_OK
    for n, got, want in diff.mismatches:
        print(f"MISMATCH n={n}: computed {got}, {args.id} has {want}")
    return EXIT_FAIL


def _cmd_bell_check(args) -> int:
    ok = True
    for r in counting._bell_reports(args.n_max):
        status = "OK" if r.holds else "FAIL"
        routes = " ".join(f"{name}={'OK' if v else 'FAIL'}" for name, v in r.routes.items())
        print(f"n={r.n} bell={r.lhs} {routes} {status}")
        ok = ok and r.holds
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crossmap",
        description="Set-partition crossings, nestings, and the subset-partition bijection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list partitions in canonical text form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--partial", action="store_true", help="partitions of subsets of [n]")
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("count", help="count k-crossing avoiders")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", choices=[counting.FAMILY_C, counting.FAMILY_E], required=True)
    p.add_argument("--parts", type=int)
    p.add_argument("--budget", type=int, help="largest n that is enumerated")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("verify-identity", help="check the binomial-transform identity")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify_identity)

    p = sub.add_parser("map", help="apply the bijection (or its inverse)")
    p.add_argument("--input", required=True, metavar='"n:blocks"')
    p.add_argument("--reverse", action="store_true")
    p.add_argument(
        "--witnesses",
        type=int,
        default=0,
        metavar="K",
        help="also print the witness transport table up to order K",
    )
    p.set_defaults(func=_cmd_map)

    p = sub.add_parser("render", help="render the overlay arc diagram as SVG")
    p.add_argument("--input", required=True, metavar='"n:blocks"')
    p.add_argument("--out", default=None)
    p.add_argument("--scale", type=int)
    p.add_argument("--source-color")
    p.add_argument("--image-color")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("oeis-check", help="compare computed counts to a reference sequence")
    p.add_argument("--id", required=True)
    p.add_argument("--fetch", action="store_true", help="fetch the live b-file instead of the snapshot")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--budget", type=int, help="largest n that is enumerated")
    p.set_defaults(func=_cmd_oeis_check)

    p = sub.add_parser("bell-check", help="check the Bell-number fixed point three ways")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_bell_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        import os

        # Python flushes stdout once more at exit; let that write go nowhere.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except CrossmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
