#!/usr/bin/env python3
"""Compare the CLI's output in this checkout with another source tree.

    python3 scripts/same_outputs.py --parent DIR

Runs one fixed, network-free list of ``crossmap`` commands in both trees,
each as ``PYTHONPATH=<tree>/src python3 -m crossmap.cli ...`` in a fresh
empty working directory, and compares exit code, stdout, stderr and any
file the command wrote there.  Prints one line per command that differs,
naming the command and what differed, then a summary line; exits 1 if any
command differs and 0 otherwise.  DIR is any checkout with a ``src/``, such
as a clone of the parent commit.  The full list takes about 19 s on two CPUs.
"""
from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"
#: The paper's pi with its blocks and their elements in reverse order.
PAPER_PI_REVERSED = "9:9,7,4,1/6/5,2/3"
#: Error cases: each fails one of the checks a command makes before it runs.
ERRORS = """\
count --k 0 --n 3 --family C
count --k 3 --n 13 --family C --parts 2
count --k 3 --n -1 --family E
count --k 3 --n 3 --family C --parts 0
count --k 3 --n 21 --family C --budget 25
count --k 3 --n 0 --family C --budget -1
count --k 0 --n 3 --family C --budget -1
enumerate --n -1
enumerate --n 21
enumerate --n 3 --limit -1
verify-identity --k 0 --n-max 3
verify-identity --k 0 --n-max -1
verify-identity --k 3 --n-max -1 --json
verify-identity --k 3 --n-max 20
map --input 21:1
map --input 20:1
map --input 3:1,+2
map --input 3
map --input 2:1 --reverse
map --input 3:4,1/1
map --input 3:2,1/1
map --input 9:1,4,7,9/2,5/3/6 --witnesses 9
map --input 3:1 --witnesses -1
render --input 2:1 --scale 0
render --input 2:1 --scale -3
render --input 2:1 --source-color a;b
render --input 20:1
oeis-check --id A999999
oeis-check --id A108304 --n-max 13
oeis-check --id A108304 --n-max 21 --budget 25
oeis-check --id A108304 --n-max 22 --budget 21
oeis-check --id A108304 --n-max 21 --budget 15
oeis-check --id A000108 --budget -1
oeis-check --id A000108 --budget 0
oeis-check --id A000110 --n-max 26
oeis-check --id A000110 --budget -1
oeis-check --id A000110 --n-max -1
bell-check --n-max 13
bell-check --n-max -1
bell-check --n-max 20
"""


def readme_commands() -> list[list[str]]:
    """argv of every ``crossmap`` line in the README's ``sh`` blocks, except ``--fetch``."""
    commands, in_sh = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_sh = line == "```sh"
        elif in_sh and line.startswith("crossmap ") and "--fetch" not in line:
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def commands() -> list[list[str]]:
    out = readme_commands()
    for k in ("3", "4", "8"):
        out += [["map", "--input", PAPER_PI, "--witnesses", k],
                ["map", "--input", PAPER_PI_HAT, "--reverse", "--witnesses", k]]
    out += [["map", "--input", PAPER_PI_REVERSED, "--witnesses", "3"],
            ["render", "--input", PAPER_PI_REVERSED]]
    out += [["render", "--input", PAPER_PI],
            ["render", "--input", PAPER_PI_HAT, "--scale", "7", "--source-color", "red",
             "--image-color", "#ABCdef"],
            # Edge frames: no arcs, a lone loop, the tallest tent with an
            # image on [20], and scale 1, the smallest label font.
            ["render", "--input", "0:"],
            ["render", "--input", "1:1"],
            ["render", "--input", "19:1,19"],
            ["render", "--input", "19:1,19", "--scale", "1"]]
    for k in range(1, 6):
        out += [["verify-identity", "--k", str(k), "--n-max", "9", *json] for json in ([], ["--json"])]
    out += [["verify-identity", "--k", "3", "--n-max", "13"], ["count", "--k", "3", "--n", "13", "--family", "C"]]
    out += [["bell-check", "--n-max", str(n)] for n in range(11)]
    out += [["count", "--k", str(k), "--n", str(n), "--family", family, "--parts", "2"]
            for family in "CE" for k in range(1, 5) for n in range(11)]
    out += [["enumerate", "--n", str(n), *partial] for partial in ([], ["--partial"]) for n in range(7)]
    out += [["oeis-check", "--id", "A" + path.stem[1:]]
            for path in sorted((ROOT / "src" / "crossmap" / "data").glob("b*.txt"))]
    return out + [line.split(" ") for line in ERRORS.splitlines()]


def outcome(tree: Path, argv: list[str]) -> dict:
    """Exit code, stdout, stderr and the files written, of one command run in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")))
    with tempfile.TemporaryDirectory() as cwd:
        env["CROSSMAP_CACHE_DIR"] = str(Path(cwd, "cache"))
        done = subprocess.run([sys.executable, "-m", "crossmap.cli", *argv], cwd=cwd, env=env,
                              capture_output=True, timeout=600)
        files = {p.name: p.read_bytes() for p in sorted(Path(cwd).iterdir()) if p.is_file()}
    return {"exit code": done.returncode, "stdout": done.stdout, "stderr": done.stderr, "files": files}


def compare(parent: Path, tree: Path, argvs: list[list[str]]) -> int:
    """Print one line per command whose outcome differs between the trees;
    return 1 if any does and 0 otherwise."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        pairs = list(pool.map(lambda argv: (outcome(parent, argv), outcome(tree, argv)), argvs))
    differing = 0
    for argv, (old, new) in zip(argvs, pairs):
        parts = [key for key in old if old[key] != new[key]]
        if parts:
            differing += 1
            codes = f" ({old['exit code']} -> {new['exit code']})" if "exit code" in parts else ""
            print(f"differs: crossmap {shlex.join(argv)}: {', '.join(parts)}{codes}")
    print(f"{len(argvs)} commands, {differing} differ")
    return 1 if differing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the other tree, a checkout with src/")
    args = parser.parse_args(argv)
    if not (args.parent / "src" / "crossmap").is_dir():
        parser.error(f"{args.parent} has no src/crossmap")
    return compare(args.parent, ROOT, commands())


if __name__ == "__main__":
    sys.exit(main())
