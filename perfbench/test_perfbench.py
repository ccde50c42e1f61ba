"""Tests of the benchmark itself: its checks catch wrong outputs, its inputs
repeat per seed, its traced counts have the shape of the code, and
BENCHMARK.json lists what it reports.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import sys

import pytest

import checks
import run
import spans

sys.path.insert(0, str(checks.ROOT / "src"))

from crossmap import cli, counting  # noqa: E402

import witness  # noqa: E402

N_MAX = 5


def cli_output(*argv: str) -> tuple[str, int]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return out.getvalue(), code


def identity_job():
    out, code = cli_output("verify-identity", "--k", "3", "--n-max", str(N_MAX))
    return checks.check_identity(out, code, N_MAX, checks.read_bfile("b108304.txt"))


def bell_job():
    out, code = cli_output("bell-check", "--n-max", str(N_MAX))
    return checks.check_bell(out, code, N_MAX, checks.read_bfile("b000110.txt"))


WITNESS_INPUTS = checks.witness_inputs(seed=5, count=12)


def witness_job():
    return witness.run_all(WITNESS_INPUTS)[1:]


@pytest.mark.parametrize(
    "argv, checker, bfile",
    [
        (("verify-identity", "--k", "3"), checks.check_identity, "b108304.txt"),
        (("bell-check",), checks.check_bell, "b000110.txt"),
    ],
)
def test_wrong_expected_value_makes_fail_ratio_positive(argv, checker, bfile):
    out, code = cli_output(*argv, "--n-max", str(N_MAX))
    expected = checks.read_bfile(bfile)
    assert checker(out, code, N_MAX, expected) == (N_MAX + 2, 0)
    expected[4] += 1
    attempted, failed = checker(out, code, N_MAX, expected)
    assert failed / attempted > 0


def test_nonzero_exit_and_missing_lines_fail():
    out, _ = cli_output("bell-check", "--n-max", str(N_MAX))
    expected = checks.read_bfile("b000110.txt")
    assert checks.check_bell(out, 1, N_MAX, expected)[1] == 1
    truncated = "".join(out.splitlines(keepends=True)[:-1])
    assert checks.check_bell(truncated, 0, N_MAX, expected)[1] == 1


def test_wrong_expected_image_fails_witness_check():
    _, attempted, failed = witness.run_all(WITNESS_INPUTS)
    assert attempted > 0 and failed == 0
    text, image = WITNESS_INPUTS[0]
    wrong = image.replace("/", ",", 1) if "/" in image else image + "x"
    assert witness.run_all([(text, wrong)])[2] == 1


def test_reference_forward_matches_paper_example():
    # The worked example of the README: 9:1,4,7,9/2,5/3/6 -> 10:1,5/2,6,7,10/3,4,8/9
    assert checks.reference_forward(9, [[1, 4, 7, 9], [2, 5], [3], [6]]) == "10:1,5/2,6,7,10/3,4,8/9"


def test_witness_inputs_repeat_per_seed():
    a, b = checks.witness_inputs(7, 50), checks.witness_inputs(7, 50)
    assert a == b and checks.digest(a) == checks.digest(b)
    assert checks.digest(checks.witness_inputs(8, 50)) != checks.digest(a)
    ns = {int(text.split(":")[0]) for text, _ in checks.witness_inputs(7)}
    assert ns == set(range(checks.WITNESS_N[0], checks.WITNESS_N[1] + 1))


def traced_counts(job) -> dict:
    p = run.traced_pass(job, counting)
    assert p.attempted > 0 and p.failed == 0
    return p.metrics


def bell_sum(n_max: int) -> int:
    return sum(counting.bell(n + 1) for n in range(n_max + 1))


def test_traced_counts_have_the_shape_of_the_code():
    identity = traced_counts(identity_job)
    bell = traced_counts(bell_job)
    wit = traced_counts(witness_job)
    assert bell["crossings.find_calls"] == 0
    assert bell["bijection.reverse_calls"] == bell_sum(N_MAX)
    assert identity["bijection.reverse_calls"] == 0
    assert identity["crossings.find_calls"] == identity["counting.items_visited"] > 0
    assert identity["counting.cache_hits"] > 0
    assert wit["diagram.render_calls"] == len(WITNESS_INPUTS)
    assert identity["diagram.render_calls"] == bell["diagram.render_calls"] == 0
    assert wit["crossings.count_calls"] == 2 * 2 * checks.WITNESS_K_MAX * len(WITNESS_INPUTS)
    assert wit["partition.enum_items"] == 0


def test_traced_counts_repeat_and_bindings_are_restored():
    original = counting._find_crossing
    first = traced_counts(identity_job)
    assert counting._find_crossing is original
    second = traced_counts(identity_job)
    exact = {k: v for k, v in first.items() if not k.endswith("_s")}
    assert exact == {k: v for k, v in second.items() if not k.endswith("_s")}


def test_missing_name_reports_zero_calls(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", [("counting", "_gone", "crossings.find", spans.CALL)])
    tracer = spans.Tracer()
    assert tracer.install() == []
    assert tracer.metrics(0)["crossings.find_calls"] == 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((checks.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in spans.LAYER_METRICS
    ]
    reported = set(traced_counts(witness_job)) | {"oeis.import_s", "trace.overhead_ratio"}
    assert reported == {m["name"] for m in spec["per_layer"]}
