#!/usr/bin/env python3
"""crossmap benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload identity --seed 1 --seconds 35 --trace 0

Run it from anywhere inside a source checkout; it uses ``src/`` of the
checkout it sits in and writes only under ``.bench_build/`` there.
``--workload all`` runs the three workloads one after another and prints
every metric prefixed with its workload.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when the
checkout has no crossmap sources.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import NamedTuple

import checks
from checks import ROOT
from spans import LAYER_METRICS, Tracer, restore

SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

#: How the installed ``crossmap`` console script starts the CLI.
CLI = ["-c", "import sys; from crossmap.cli import main; sys.exit(main())"]
SETUP_ARGV = ["map", "--input", "1:1"]
SETUP_OUTPUT = "2:1,2\n"
SETUP_PER_PASS = 2
IMPORT_REPEATS = 5
PASS_TIMEOUT_S = 150

N_MAX = 9
JOBS = {
    "identity": (["verify-identity", "--k", "3", "--n-max", str(N_MAX)],
                 checks.check_identity, "b108304.txt"),
    "bell": (["bell-check", "--n-max", str(N_MAX)], checks.check_bell, "b000110.txt"),
}
WORKLOADS = ("identity", "bell", "witness")

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
}


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's sources, bytecode cached
    next to them as an installed package would have it."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str]) -> tuple[float, str, int, float]:
    """Run ``python3 *args`` in a fresh interpreter.

    Returns (wall seconds, stdout, exit code, peak RSS in MB).  The RSS is
    that child's own, from wait4, not the cumulative RUSAGE_CHILDREN.
    """
    with tempfile.TemporaryFile(dir=BUILD) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(PASS_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace"))
    return wall, out.decode(), proc.returncode, usage.ru_maxrss / 1024


def closed_loop(seconds: float, one_pass) -> list:
    """One client: run passes back to back for about ``seconds``.

    A pass is not started when, at the length of the previous one, it
    would end after ``seconds``; the first pass always runs.
    """
    results = []
    start = time.perf_counter()
    last = 0.0
    while not results or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(one_pass())
        last = time.perf_counter() - t0
    return results


def p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def setup_call() -> tuple[float, bool]:
    """(wall seconds, output wrong) of a trivial CLI call in a fresh interpreter."""
    wall, out, code, _ = run_child(CLI + SETUP_ARGV)
    return wall, code != 0 or out != SETUP_OUTPUT


def witness_file(seed: int) -> tuple[list, str]:
    """Generate the seeded inputs, write them for the child, print their digest."""
    inputs = checks.witness_inputs(seed)
    path = BUILD / f"witness-{seed}.json"
    path.write_text(json.dumps(inputs))
    print(f"inputs: requests={len(inputs)} sha256={checks.digest(inputs)}")
    return inputs, str(path)


class Pass(NamedTuple):
    wall: float
    rss_mb: float
    latencies: list[float]
    setup: list[float]
    attempted: int
    failed: int


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """End-to-end metrics; every pass is a fresh interpreter, as for a CLI user.

    Set-up calls are spread over the run, SETUP_PER_PASS before each pass,
    so that their median sees the same machine load as the passes do.
    """
    _, failed = setup_call()  # fills the bytecode cache, so it is not timed
    if workload == "witness":
        _, path = witness_file(seed)

        def job():
            wall, out, code, rss = run_child([str(ROOT / "perfbench" / "witness.py"), path])
            if code:
                return wall, rss, [wall], 1, 1
            r = json.loads(out)
            return wall, rss, r["latencies_s"], r["attempted"], r["failed"]
    else:
        argv, checker, bfile = JOBS[workload]
        expected = checks.read_bfile(bfile)

        def job():
            wall, out, code, rss = run_child(CLI + argv)
            return (wall, rss, [wall], *checker(out, code, N_MAX, expected))

    def one_pass() -> Pass:
        setup = [setup_call() for _ in range(SETUP_PER_PASS)]
        wall, rss, latencies, attempted, failed = job()
        return Pass(wall, rss, latencies, [w for w, _ in setup],
                    attempted + len(setup), failed + sum(bad for _, bad in setup))

    passes = closed_loop(seconds, one_pass)
    print(f"passes: {len(passes)}")
    latencies = [x for p in passes for x in p.latencies]
    metrics = {
        "setup_s": statistics.median(x for p in passes for x in p.setup),
        "job_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "request_p50_ms": statistics.median(latencies) * 1000,
        "request_p99_ms": p99(latencies) * 1000,
    }
    attempted = 1 + sum(p.attempted for p in passes)
    failed += sum(p.failed for p in passes)
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, attempted, failed


def oeis_import_s() -> float:
    """Median cumulative import time of ``crossmap.oeis`` under ``import crossmap.cli``."""
    samples = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import crossmap.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
        us = 0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "crossmap.oeis":
                us = int(fields[1])
        samples.append(us / 1e6)
    return statistics.median(samples)


def in_process_job(workload: str, seed: int):
    """The workload's job as a call in this process; returns (attempted, failed).

    The traced run calls the CLI and library here rather than in a child,
    so that the tracer sees every call.
    """
    sys.path.insert(0, str(SRC))
    import crossmap.cli  # loads every crossmap module before tracing starts

    if workload == "witness":
        import witness
        inputs, _ = witness_file(seed)
        return lambda: witness.run_all(inputs)[1:]

    argv, checker, bfile = JOBS[workload]
    expected = checks.read_bfile(bfile)

    def job():
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = crossmap.cli.main(argv)
        return checker(out.getvalue(), code, N_MAX, expected)
    return job


def clear_caches(counting) -> None:
    """Empty every lru_cache in ``counting``, so a pass reuses no earlier count."""
    for value in vars(counting).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


class InProcessPass(NamedTuple):
    seconds: float
    attempted: int
    failed: int
    metrics: dict  # per-layer metrics; empty for an untraced pass


def plain_pass(job, counting) -> InProcessPass:
    """One in-process pass without tracing."""
    clear_caches(counting)
    t0 = time.perf_counter()
    attempted, failed = job()
    return InProcessPass(time.perf_counter() - t0, attempted, failed, {})


def traced_pass(job, counting) -> InProcessPass:
    """One in-process pass with every traced binding wrapped."""
    tracer = Tracer()
    clear_caches(counting)
    saved = tracer.install()
    t0 = time.perf_counter()
    try:
        attempted, failed = job()
    finally:
        restore(saved)
    seconds = time.perf_counter() - t0
    cached = getattr(counting, "_count_cached", None)
    hits = cached.cache_info().hits if cached is not None else 0
    return InProcessPass(seconds, attempted, failed, tracer.metrics(hits))


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics from in-process passes, alternating untraced and traced."""
    import_s = oeis_import_s()
    job = in_process_job(workload, seed)
    from crossmap import counting

    pairs = closed_loop(seconds, lambda: (plain_pass(job, counting), traced_pass(job, counting)))
    print(f"passes: {len(pairs)} untraced + {len(pairs)} traced")
    plain = [p for p, _ in pairs]
    with_trace = [t for _, t in pairs]
    attempted = sum(p.attempted for p in plain + with_trace)
    failed = sum(p.failed for p in plain + with_trace)
    metrics = {}
    for name, value in with_trace[0].metrics.items():
        values = [t.metrics[name] for t in with_trace]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            # Counts are exact: a count that differs between passes on the
            # same inputs is a failed check.
            attempted += 1
            failed += len(set(values)) != 1
            metrics[name] = value
    metrics["oeis.import_s"] = import_s
    metrics["trace.overhead_ratio"] = (
        statistics.median(t.seconds for t in with_trace) / statistics.median(p.seconds for p in plain)
    )
    units = {name: unit for name, unit, _, _ in LAYER_METRICS}
    return {k: (v, units[k]) for k, v in metrics.items()}, attempted, failed


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` when it is not a git checkout."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crossmap" / "cli.py").is_file():
        print(f"error: no crossmap sources under {SRC}", file=sys.stderr)
        return 2
    BUILD.mkdir(exist_ok=True)
    print(f"env: python={platform.python_version()} nproc={len(os.sched_getaffinity(0))} git={git_sha()}")

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    moves = {name: m for name, _, _, m in LAYER_METRICS}
    run = traced if args.trace else untraced
    results, attempted, failed = {}, 0, 0
    for w in workloads:
        print(f"workload: {w} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        metrics, a, f = run(w, args.seed, args.seconds)
        attempted += a
        failed += f
        for name, (value, unit) in metrics.items():
            note = f"  (moves {moves[name]})" if args.trace else ""
            print(f"{w} {name} = {value:.6g} {unit}{note}")
            key = f"{w}.{name}" if args.workload == "all" else name
            results[key] = {"value": value, "unit": unit}
        print(f"{w} checks: attempted={a} failed={f} fail_ratio={f / a:.6g}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": results}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
