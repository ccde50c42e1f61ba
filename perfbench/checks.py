"""Reference values, output checks and seeded inputs for the benchmark.

Everything here is independent of the crossmap package: the snapshots are
read straight from the bundled b-files and the forward image of a witness
input is computed by a separate union-find, so a defect in the package
cannot hide behind its own code.
"""
from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "src" / "crossmap" / "data"

#: Witness inputs: ambient n is drawn from this range.  n = 20 is excluded
#: because its forward image lives on [21], above the package's MAX_N.
WITNESS_N = (12, 19)
WITNESS_REQUESTS = 2000
WITNESS_K_MAX = 4

IDENTITY_LINE = re.compile(
    r"k=(\d+) n=(\d+) lhs=(\d+) rhs=(\d+) direct=(\d+) (OK|FAIL)"
)
BELL_LINE = re.compile(
    r"n=(\d+) bell=(\d+) triangle=(OK|FAIL) enumeration=(OK|FAIL) "
    r"bijection=(OK|FAIL) (OK|FAIL)"
)


def read_bfile(name: str) -> dict[int, int]:
    """``index -> value`` from one bundled b-file, e.g. ``b108304.txt``."""
    values = {}
    for line in (DATA_DIR / name).read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            idx, val = line.split()
            values[int(idx)] = int(val)
    return values


def _check_lines(stdout: str, returncode: int, n_max: int, line_ok) -> tuple[int, int]:
    """(attempted, failed): one check per line n = 0..n_max, ``line_ok(n, line)``,
    and one that the process exited 0 and printed nothing more."""
    lines = stdout.splitlines()
    failed = int(returncode != 0 or len(lines) > n_max + 1)
    for n in range(n_max + 1):
        failed += not (n < len(lines) and line_ok(n, lines[n]))
    return n_max + 2, failed


def check_identity(stdout: str, returncode: int, n_max: int, expected: dict[int, int]) -> tuple[int, int]:
    """Checks of one ``verify-identity --k 3`` pass.

    Line n must say OK, and its left side and both right sides must equal
    ``expected[n + 1]`` (A108304).
    """
    def line_ok(n: int, line: str) -> bool:
        m = IDENTITY_LINE.fullmatch(line)
        return (m is not None and int(m[2]) == n
                and int(m[3]) == int(m[4]) == int(m[5]) == expected.get(n + 1)
                and m[6] == "OK")
    return _check_lines(stdout, returncode, n_max, line_ok)


def check_bell(stdout: str, returncode: int, n_max: int, expected: dict[int, int]) -> tuple[int, int]:
    """Checks of one ``bell-check`` pass.

    Line n must report ``expected[n + 1]`` (A000110), and its three routes
    and the line itself must say OK.
    """
    def line_ok(n: int, line: str) -> bool:
        m = BELL_LINE.fullmatch(line)
        return (m is not None and int(m[1]) == n and int(m[2]) == expected.get(n + 1)
                and m[3] == m[4] == m[5] == m[6] == "OK")
    return _check_lines(stdout, returncode, n_max, line_ok)


def _text(n: int, blocks: list[list[int]]) -> str:
    blocks = sorted(blocks)
    return f"{n}:" + "/".join(",".join(map(str, b)) for b in blocks)


def reference_forward(n: int, blocks: list[list[int]]) -> str:
    """Text of the forward image on [n+1], by the paper's definition.

    Consecutive elements v < w of a block merge v with w+1; a singleton u
    merges u with u+1; every other element of [n+1] stays alone.
    """
    parent = list(range(n + 2))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for b in blocks:
        pairs = zip(b, b[1:]) if len(b) > 1 else [(b[0], b[0])]
        for v, w in pairs:
            parent[root(v)] = root(w + 1)
    groups: dict[int, list[int]] = {}
    for e in range(1, n + 2):
        groups.setdefault(root(e), []).append(e)
    return _text(n + 1, list(groups.values()))


def witness_inputs(seed: int, count: int = WITNESS_REQUESTS) -> list[tuple[str, str]]:
    """``count`` (input text, expected forward image text) pairs.

    Each input is a partition of a random subset of [n]: an element is
    absent with probability 1/4, otherwise it joins one of the blocks so
    far or opens a new one, uniformly.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*WITNESS_N)
        blocks: list[list[int]] = []
        for e in range(1, n + 1):
            if rng.random() < 0.25:
                continue
            i = rng.randint(0, len(blocks))
            if i == len(blocks):
                blocks.append([])
            blocks[i].append(e)
        out.append((_text(n, blocks), reference_forward(n, blocks)))
    return out


def digest(inputs: list[tuple[str, str]]) -> str:
    """SHA-256 over the input texts, to show two runs used the same inputs."""
    return hashlib.sha256("\n".join(t for t, _ in inputs).encode()).hexdigest()
