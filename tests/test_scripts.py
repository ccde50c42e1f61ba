import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

WITNESS_SPLIT = Path(__file__).resolve().parents[1] / "scripts" / "witness_split.py"


def test_witness_split_prints_every_stage():
    out = subprocess.run(
        [sys.executable, str(WITNESS_SPLIT), "--seed", "1", "--repeat", "1", "--count", "20"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    rows = {line.split("|")[1].strip() for line in out.splitlines() if line.startswith("| ")}
    stages = ("parse_text", "forward", "to_text", "reverse", "two arc sets", "witness walks",
              "table reads", "render_overlay", "total")
    assert rows == {"stage", *stages}


BELL_SPLIT = Path(__file__).resolve().parents[1] / "scripts" / "bell_split.py"


def test_bell_split_prints_every_n():
    out = subprocess.run(
        [sys.executable, str(BELL_SPLIT), "--n-max", "6", "--repeat", "1"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    rows = [line.split("|")[1:-1] for line in out.splitlines() if line.startswith("| ")]
    assert [r[0].strip() for r in rows] == ["n", *map(str, range(7))]
    assert [int(r[3]) for r in rows[1:]] == [2, 2, 4, 12, 48, 240, 1440]
    assert out.splitlines()[-1].startswith("max RSS: ")


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAME_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
SMOKE = [["count", "--k", "3", "--n", "6", "--family", "C"], ["oeis-check", "--id", "A999999"], ["enumerate", "--n", "2"]]


def test_same_outputs_reports_the_command_that_differs(tmp_path, capsys):
    same_outputs = _load(SAME_OUTPUTS)
    shutil.copytree(same_outputs.ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    assert same_outputs.compare(tmp_path, same_outputs.ROOT, SMOKE) == 0
    assert capsys.readouterr().out == "3 commands, 0 differ\n"

    cli = tmp_path / "src" / "crossmap" / "cli.py"
    cli.write_text(cli.read_text().replace("no check defined for", "no check for"))
    assert same_outputs.compare(tmp_path, same_outputs.ROOT, SMOKE) == 1
    assert capsys.readouterr().out == (
        "differs: crossmap oeis-check --id A999999: stderr\n3 commands, 1 differ\n"
    )


def test_same_outputs_error_cases_fail(capsys):
    # Each ERRORS line fails a check before any work runs.
    from crossmap.cli import main

    for line in _load(SAME_OUTPUTS).ERRORS.splitlines():
        try:
            code = main(line.split(" "))
        except SystemExit as exc:
            code = exc.code
        assert code != 0, line
    capsys.readouterr()
