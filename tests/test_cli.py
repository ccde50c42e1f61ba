import hashlib
import json
import os
import shlex
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from crossmap import cli, counting, crossings, errors
from crossmap.bijection import forward
from crossmap.cli import main
from test_counting import WALK_AT_CAP
from test_scripts import SAME_OUTPUTS, _load

PAPER_PI = "9:1,4,7,9/2,5/3/6"
PAPER_PI_HAT = "10:1,5/2,6,7,10/3,4,8/9"

#: ``map --witnesses 3`` of the paper's example after its first line; the
#: same whichever side is given, since both print the source's table.
WITNESS_TABLE = """\
k=1 crossing: enhanced=6 classical=6 witness={"kind": "crossing", "mode": "enhanced", "arcs": [[1, 4]]} image={"kind": "crossing", "mode": "classical", "arcs": [[1, 5]]}
k=1 nesting: enhanced=6 classical=6 witness={"kind": "nesting", "mode": "enhanced", "arcs": [[1, 4]]} image={"kind": "nesting", "mode": "classical", "arcs": [[1, 5]]}
k=2 crossing: enhanced=4 classical=4 witness={"kind": "crossing", "mode": "enhanced", "arcs": [[1, 4], [2, 5]]} image={"kind": "crossing", "mode": "classical", "arcs": [[1, 5], [2, 6]]}
k=2 nesting: enhanced=3 classical=3 witness={"kind": "nesting", "mode": "enhanced", "arcs": [[1, 4], [3, 3]]} image={"kind": "nesting", "mode": "classical", "arcs": [[1, 5], [3, 4]]}
k=3 crossing: enhanced=1 classical=1 witness={"kind": "crossing", "mode": "enhanced", "arcs": [[1, 4], [2, 5], [4, 7]]} image={"kind": "crossing", "mode": "classical", "arcs": [[1, 5], [2, 6], [4, 8]]}
k=3 nesting: enhanced=0 classical=0
"""


README = Path(__file__).resolve().parents[1] / "README.md"

#: sha256 of stdout (of the written file for ``--out``) and the exit code of
#: every ``crossmap`` line in the README, as the commands printed them before
#: code that no caller needed was deleted.  Keys are the argv after
#: ``crossmap``, joined by spaces.
README_DIGESTS = {
    'map --input 9:1,4,7,9/2,5/3/6': (0, '1967e349722f5a5b72a36e45f99b323c3ac9825c134d6555599597908ee25631'),
    'map --input 10:1,5/2,6,7,10/3,4,8/9 --reverse': (0, '541f7f5281e1e428460b85e10000e2bc19bd9a7a1b543dfa01469751e96ca48b'),
    'map --input 9:1,4,7,9/2,5/3/6 --witnesses 3': (0, 'f821f0725784fd4d0f4750e775bf4c0c69bf2a19583a22b05743141ff16910a1'),
    'enumerate --n 3': (0, '8e5ae1cc412d9711b8f57642f276b19a27d45a6d5865a83589630efda359f690'),
    'enumerate --n 2 --partial': (0, '43daafc9c6d4685867b23165b2451cec5993ac6f664733adb6dcb7111bfa4a26'),
    'count --k 3 --n 6 --family C': (0, '1a55a7d16b47deb40890edb52c2234c4adddf330dbac2e1f1eedf0a9723a4c70'),
    'count --k 3 --n 9 --family C --parts 4': (0, 'b446ad1ac521916c4112258acac97f93a267dd53def975e5a2f1594a69f8360a'),
    'verify-identity --k 3 --n-max 7': (0, '46628051c741caaf3c6545675d3ca20d8caeccb0d6c60c61c2e1df9e04efc4ce'),
    'bell-check --n-max 8': (0, '339ba8aa30102709b66cc12eb6710f4c5832d9bda4b4e6d8ef5f9dcc6f0e921b'),
    'oeis-check --id A108307': (0, 'e65d2f5c5ef7033199df40f0078c2ff06631fa516cd6e36866cc1a026549fc16'),
    'render --input 9:1,4,7,9/2,5/3/6 --out fig.svg': (0, 'c91bb63236b5a17bf4c00632ecc7a6674454c8614f47b65caf7b1ffeeb2fe3bb'),
}


#: argv of every ``crossmap`` line in the README's ``sh`` blocks, except ``--fetch``.
README_COMMANDS = _load(SAME_OUTPUTS).readme_commands()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _no_budget(*args):
    raise AssertionError("the budget was checked on the walk route")


#: The exit code the README lists for each error class that is not a usage
#: error (2).
README_EXIT_CODES = {"OutOfBudget": 3, "Overflow": 3, "NetworkError": 4}
ERROR_CLASSES = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.CrossmapError)]


class TestExitCodes:
    def test_readme_lists_the_codes(self):
        text = " ".join(README.read_text(encoding="utf-8").split())
        assert "2 usage error, 3 budget or overflow, 4 network failure" in text

    @pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda c: c.__name__)
    def test_error_class_names_its_exit_code(self, capsys, monkeypatch, cls):
        def refuse(args):
            raise cls("refused")

        monkeypatch.setattr(cli, "_cmd_enumerate", refuse)
        code = README_EXIT_CODES.get(cls.__name__, 2)
        assert cls.exit_code == code
        assert run(capsys, "enumerate", "--n", "1") == (code, "", "error: refused\n")


class TestEnumerate:
    def test_full(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "3")
        assert code == 0 and len(out.splitlines()) == 5

    def test_partial(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "2", "--partial")
        assert code == 0 and len(out.splitlines()) == 5

    def test_n0(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "0")
        assert code == 0 and out == "0:\n"

    def test_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "5", "--limit", "3")
        assert code == 0 and len(out.splitlines()) == 3

    def test_bad_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--n", "notanumber"])
        assert exc.value.code == 2

    def test_closed_stdout_exits_141_quietly(self):
        # As in ``crossmap enumerate --n 9 | head -1``: the reader takes one
        # line of 21147 and closes the pipe.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "crossmap.cli", "enumerate", "--n", "9"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert child.stdout.readline() == b"9:1,2,3,4,5,6,7,8,9\n"
        child.stdout.close()
        assert child.stderr.read() == b""
        assert child.wait(timeout=60) == cli.EXIT_PIPE == 141


class TestCount:
    def test_c3_n6(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "3", "--n", "6", "--family", "C")
        assert code == 0 and out.strip() == "202"

    def test_e2_n5(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "2", "--n", "5", "--family", "E")
        assert code == 0 and out.strip() == "21"

    def test_c1_n4(self, capsys):
        code, out, _ = run(capsys, "count", "--k", "1", "--n", "4", "--family", "C")
        assert code == 0 and out.strip() == "1"

    @pytest.mark.parametrize("parts", ["1", "2", "4", "8"])
    def test_parts_deterministic(self, capsys, parts):
        code, out, _ = run(
            capsys, "count", "--k", "3", "--n", "7", "--family", "C", "--parts", parts
        )
        assert code == 0 and out.strip() == "859"

    def test_budget_exit_3(self, capsys, monkeypatch):
        # The budget binds the enumeration route, and refuses before it runs.
        def boom(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(counting, "_count_cached", boom)
        assert run(capsys, "count", "--k", "2", "--n", "15", "--family", "C", "--parts", "2") == (
            3, "", "error: n=15 exceeds the enumeration budget 12\n"
        )

    def test_walk_answers_to_the_ground_set_alone(self, capsys, monkeypatch):
        monkeypatch.setattr(counting, "_check_budget", _no_budget)
        assert run(capsys, "count", "--k", "2", "--n", "15", "--family", "C") == (0, "9694845\n", "")
        assert run(capsys, "count", "--k", "3", "--n", "21", "--family", "C") == (
            2, "", "error: n must be in 0..20, got 21\n"
        )
        # n is checked before parts, so n over the budget fails on parts.
        assert run(capsys, "count", "--k", "3", "--n", "13", "--family", "C", "--parts", "0") == (
            2, "", "error: parts must be >= 1, got 0\n"
        )

    @pytest.mark.parametrize("family", ["C", "E"])
    @pytest.mark.parametrize("k", range(2, 9))
    def test_walk_at_the_ground_set_cap(self, capsys, monkeypatch, k, family):
        monkeypatch.setattr(counting, "_check_budget", _no_budget)
        value = WALK_AT_CAP[family][k - 1]
        assert run(capsys, "count", "--k", str(k), "--n", "20", "--family", family) == (0, f"{value}\n", "")


class TestVerifyIdentity:
    def test_all_ok(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--k", "3", "--n-max", "5")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 6
        assert all(line.endswith("OK") for line in lines)

    def test_k1(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--k", "1", "--n-max", "9")
        assert code == 0 and all(l.endswith("OK") for l in out.splitlines())

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--k", "2", "--n-max", "3", "--json")
        reports = json.loads(out)
        assert code == 0 and [r["n"] for r in reports] == [0, 1, 2, 3]
        assert all(r["holds"] for r in reports)

    def test_json_is_the_report_dicts(self, capsys):
        code, out, _ = run(capsys, "verify-identity", "--k", "3", "--n-max", "4", "--json")
        reports = [counting.verify_identity(3, n).to_json() for n in range(5)]
        assert (code, out) == (0, json.dumps(reports) + "\n")

    def test_injected_fault_exits_nonzero(self, capsys, monkeypatch):
        real = counting._walk

        def broken(k, n, enhanced, partial):
            column = real(k, n, enhanced, partial)
            return [v + 1 for v in column] if partial else column

        monkeypatch.setattr(counting, "_walk", broken)
        code, out, _ = run(capsys, "verify-identity", "--k", "2", "--n-max", "1")
        assert code == 1 and "FAIL" in out

    def test_one_walk_per_family(self, capsys, monkeypatch):
        # With default flags: the walk answers to the ground set alone.
        calls = []
        real = counting._walk

        def recorded(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(counting, "_walk", recorded)
        monkeypatch.setattr(counting, "_check_budget", _no_budget)
        code, out, _ = run(capsys, "verify-identity", "--k", "8", "--n-max", "19")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 20 and all(l.endswith(" OK") for l in lines) and len(calls) == 3
        calls.clear()
        code, out, _ = run(capsys, "count", "--k", "8", "--n", "19", "--family", "E")
        assert code == 0 and len(calls) == 1

    def test_has_no_budget(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-identity", "--k", "3", "--n-max", "3", "--budget", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--k", "3", "--n-max", "20"], 2, "error: n must be in 0..19, got 20\n"),
            (["--k", "9", "--n-max", "2"], 2, "error: k is capped at 8, got 9\n"),
            (["--k", "9", "--n-max", "20"], 2, "error: k is capped at 8, got 9\n"),
            (["--k", "3", "--n-max", "22"], 2, "error: n must be in 0..19, got 22\n"),
        ],
        ids=["ground-set-cap", "k-cap", "k-before-ground-set", "ground-set-past-cap"],
    )
    def test_n_max_checked_before_walking(self, capsys, monkeypatch, argv, code, err):
        # k, then the ground set [n-max + 1], are checked before any walk runs.
        def boom(*args, **kwargs):
            raise AssertionError("walked before every n was checked")

        monkeypatch.setattr(counting, "_walk", boom)
        assert run(capsys, "verify-identity", *argv) == (code, "", err)


class TestMap:
    def test_paper_example(self, capsys):
        code, out, _ = run(capsys, "map", "--input", PAPER_PI)
        assert code == 0 and out.strip() == PAPER_PI_HAT

    def test_paper_example_reverse(self, capsys):
        code, out, _ = run(capsys, "map", "--input", PAPER_PI_HAT, "--reverse")
        assert code == 0 and out.strip() == PAPER_PI

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "map", "--input", "3:")
        assert code == 0 and out.strip() == "4:1/2/3/4"

    def test_witness_table(self, capsys):
        code, out, _ = run(capsys, "map", "--input", PAPER_PI, "--witnesses", "3")
        lines = out.splitlines()
        assert code == 0 and lines[0] == PAPER_PI_HAT
        k3 = next(l for l in lines if l.startswith("k=3 crossing"))
        assert "enhanced=1 classical=1" in k3
        payload = json.loads(k3.split("witness=", 1)[1].split(" image=")[0])
        assert payload == {
            "kind": "crossing",
            "mode": "enhanced",
            "arcs": [[1, 4], [2, 5], [4, 7]],
        }

    def test_witness_table_bytes(self, capsys):
        code, out, _ = run(capsys, "map", "--input", PAPER_PI, "--witnesses", "3")
        assert code == 0 and out == PAPER_PI_HAT + "\n" + WITNESS_TABLE
        code, out, _ = run(
            capsys, "map", "--input", PAPER_PI_HAT, "--reverse", "--witnesses", "3"
        )
        assert code == 0 and out == PAPER_PI + "\n" + WITNESS_TABLE

    def test_witnesses_past_max_k_exit_2(self, capsys):
        # K is checked before the image or any table row is printed.
        assert run(capsys, "map", "--input", PAPER_PI, "--witnesses", "9") == (
            2, "", "error: --witnesses: k is capped at 8, got 9\n"
        )

    def test_witness_table_walks_once_per_side(self, capsys, monkeypatch):
        calls = []
        walk = crossings._walk

        def counted(*args):
            calls.append(args)
            return walk(*args)

        monkeypatch.setattr(crossings, "_walk", counted)
        code, _, _ = run(capsys, "map", "--input", PAPER_PI, "--witnesses", "4")
        # One walk per side yields both kinds and answers every k.
        assert code == 0 and len(calls) == 2

    @pytest.mark.parametrize("argv, calls", [((PAPER_PI,), 1), ((PAPER_PI_HAT, "--reverse"), 0)])
    def test_witness_table_maps_once(self, capsys, monkeypatch, argv, calls):
        seen = []
        monkeypatch.setattr(cli, "forward", lambda p: seen.append(p) or forward(p))
        code, _, _ = run(capsys, "map", "--input", *argv, "--witnesses", "3")
        assert code == 0 and len(seen) == calls

    def test_bad_input_exit_2(self, capsys):
        code, _, err = run(capsys, "map", "--input", "nonsense")
        assert code == 2

    def test_reverse_of_empty_ground_set_exit_2(self, capsys):
        code, out, err = run(capsys, "map", "--reverse", "--input", "0:")
        assert code == 2 and out == ""
        assert err == "error: reverse needs a partition of [n+1] with n >= 0, got one of [0]\n"


class TestRender:
    def test_writes_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, _, _ = run(capsys, "render", "--input", PAPER_PI, "--out", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<?xml") and "</svg>" in text

    def test_stdout_and_stability(self, capsys):
        code1, out1, _ = run(capsys, "render", "--input", "4:1,3/2,4")
        code2, out2, _ = run(capsys, "render", "--input", "4:1,3/2,4")
        assert code1 == code2 == 0 and out1 == out2

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        out_file = tmp_path / "missing" / "x.svg"
        code, out, err = run(capsys, "render", "--input", "3:1,2", "--out", str(out_file))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_file}: ") and err.count("\n") == 1
        assert not out_file.parent.exists()

    def test_ambient_n_over_cap_exit_2(self, capsys):
        code, out, err = run(capsys, "render", "--input", "21:1")
        assert (code, out, err) == (2, "", "error: n must be in 0..20, got 21\n")

    @pytest.mark.parametrize("command", ["render", "map"])
    def test_image_past_the_cap_exit_2(self, capsys, command):
        # The input on [20] is valid; its image would lie on [21].
        assert run(capsys, command, "--input", "20:1") == (2, "", "error: n must be in 0..19, got 20\n")

    def test_bad_colour_after_a_cached_frame_exit_2(self, capsys):
        # A good render caches the frame of this size; a bad colour is
        # another frame, so it is still checked.
        assert run(capsys, "render", "--input", "4:1,3/2,4")[0] == 0
        code, out, err = run(capsys, "render", "--input", "4:1,3/2,4", "--source-color", "a;b")
        assert (code, out, err) == (2, "", "error: colour must be # plus hex digits or a name, got 'a;b'\n")

    def test_bad_colour_reported_before_the_image_cap(self, capsys):
        # Both the colour and the image's ground set are wrong: the colour
        # error comes first, as it did when colours were checked up front.
        code, out, err = run(capsys, "render", "--input", "20:1", "--source-color", "a;b")
        assert (code, out, err) == (2, "", "error: colour must be # plus hex digits or a name, got 'a;b'\n")


class TestOeisCheck:
    @pytest.mark.parametrize("oeis_id", list(cli.OEIS_CHECKS))
    def test_bundled_ok(self, capsys, oeis_id):
        code, out, _ = run(capsys, "oeis-check", "--id", oeis_id)
        assert code == 0 and out.startswith("OK (")

    def test_unknown_id_exit_2(self, capsys):
        assert run(capsys, "oeis-check", "--id", "A999999") == (
            2, "", "error: no check defined for A999999\n"
        )

    def test_fetch_offline_exit_4(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(tmp_path))

        def boom(url, timeout):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        code, _, err = run(capsys, "oeis-check", "--id", "A000110", "--fetch")
        assert code == 4

    def test_fetch_offline_serves_seeded_cache(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(tmp_path))
        snapshot = Path(cli.__file__).parent / "data" / "b000110.txt"
        (tmp_path / "b000110.txt").write_bytes(snapshot.read_bytes())

        def boom(url, timeout):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        code, out, _ = run(capsys, "oeis-check", "--id", "A000110", "--fetch")
        assert code == 0 and out == "OK (13 terms compared)\n"

    @pytest.mark.parametrize(
        "argv, code, err",
        [
            (["--n-max", "21", "--budget", "25"], 2, "error: n must be in 0..20, got 21\n"),
            (["--n-max", "21", "--budget", "15"], 3, "error: n=21 exceeds the enumeration budget 15\n"),
            (["--n-max", "22", "--budget", "22"], 2, "error: n must be in 0..20, got 22\n"),
        ],
        ids=["ground-set-cap", "budget", "ground-set-within-budget"],
    )
    def test_n_max_checked_before_enumerating(self, capsys, monkeypatch, argv, code, err):
        # Enumerating up to the bad n would take hours; the checks come
        # first, on n-max itself, as for one count.
        def boom(*args):
            raise AssertionError("enumerated before every n was checked")

        monkeypatch.setattr(counting, "_count_cached", boom)
        assert run(capsys, "oeis-check", "--id", "A108304", *argv) == (code, "", err)

    @pytest.mark.parametrize("n_max, budget", [(13, 12), (21, 15), (22, 21), (21, 25), (10, 0)])
    def test_budget_refusal_is_count_parts(self, capsys, monkeypatch, n_max, budget):
        # The C column up to n-max is refused exactly as one enumerated
        # count of n-max is: same exit code, same message.
        def boom(*args):
            raise AssertionError("enumerated before n-max was checked")

        monkeypatch.setattr(counting, "_count_cached", boom)
        n_max, budget = str(n_max), str(budget)
        column = run(capsys, "oeis-check", "--id", "A108304", "--n-max", n_max, "--budget", budget)
        count = run(capsys, "count", "--k", "3", "--n", n_max, "--family", "C", "--parts", "2", "--budget", budget)
        assert column == count and column[0] in (2, 3) and column[2].startswith("error: ")

    @pytest.mark.parametrize("fetch", [[], ["--fetch"]], ids=["bundled", "fetch"])
    def test_run_checked_before_any_reference_is_read(self, capsys, monkeypatch, fetch):
        # A run that fails its budget reads no snapshot and fetches nothing.
        from crossmap import oeis

        def boom(*args, **kwargs):
            raise AssertionError("read a reference before the run was checked")

        monkeypatch.setattr(oeis, "bundled", boom)
        monkeypatch.setattr(oeis, "fetch_bfile", boom)
        assert run(capsys, "oeis-check", "--id", "A108304", "--n-max", "13", *fetch) == (
            3, "", "error: n=13 exceeds the enumeration budget 12\n"
        )

    @pytest.mark.parametrize("fetch", [[], ["--fetch"]], ids=["bundled", "fetch"])
    def test_bell_past_int64_is_an_overflow(self, capsys, monkeypatch, tmp_path, fetch):
        monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(tmp_path))

        def boom(url, timeout):
            raise urllib.error.URLError("offline")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        assert run(capsys, "oeis-check", "--id", "A000110", "--n-max", "26", *fetch) == (
            3, "", "error: Bell(26) exceeds the signed 64-bit range, which ends at Bell(25)\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestBellCheck:
    def test_all_ok(self, capsys):
        code, out, _ = run(capsys, "bell-check", "--n-max", "6")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 7
        assert all(l.endswith("OK") for l in lines)
        assert "triangle=OK enumeration=OK bijection=OK" in lines[-1]

    @pytest.mark.parametrize(
        "n_max, code, err",
        [
            ("13", 3, "error: n=13 needs a 12454041600-byte bitmap, over the 1073741824-byte memory cap\n"),
            ("19", 3, "error: n=19 needs a 243290200817664000-byte bitmap, over the 1073741824-byte memory cap\n"),
            ("20", 2, "error: n must be in 0..19, got 20\n"),
            ("22", 2, "error: n must be in 0..19, got 22\n"),
        ],
        # "default-budget": the default 1 GiB memory budget of the bitmap refuses n = 13.
        ids=["default-budget", "bitmap-cap-names-n-max", "ground-set-cap", "ground-set-names-n-max"],
    )
    def test_n_max_checked_before_running(self, capsys, monkeypatch, n_max, code, err):
        # Running every n below the bad one first would take minutes and,
        # at n = 12, a 958 MB bitmap; the checks come first.
        def boom(*args, **kwargs):
            raise AssertionError("ran before n-max was checked")

        monkeypatch.setattr(counting, "verify_eigensequence", boom)
        assert run(capsys, "bell-check", "--n-max", n_max) == (code, "", err)

    def test_ground_set_checked_before_the_bitmap(self, capsys, monkeypatch):
        # n = 20 is refused as a ground set before its bitmap is sized.
        def boom(*args):
            raise AssertionError("checked the bitmap before the ground set")

        monkeypatch.setattr(counting, "_check_bitmap", boom)
        assert run(capsys, "bell-check", "--n-max", "20") == (2, "", "error: n must be in 0..19, got 20\n")

    def test_has_no_budget(self, capsys):
        # The bitmap cap refuses n = 13, so an n budget would bound nothing more.
        with pytest.raises(SystemExit) as exc:
            main(["bell-check", "--n-max", "5", "--budget", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --budget 3" in capsys.readouterr().err

    def test_bitmap_cap_with_a_small_cap(self, capsys, monkeypatch):
        # n = 6 needs 2 * 6! = 1,440 bytes and n = 7 needs 2 * 7! = 10,080.
        monkeypatch.setattr(counting, "BITMAP_CAP", 2048)
        code, out, _ = run(capsys, "bell-check", "--n-max", "6")
        assert code == 0 and len(out.splitlines()) == 7
        assert run(capsys, "bell-check", "--n-max", "7") == (
            3, "", "error: n=7 needs a 10080-byte bitmap, over the 2048-byte memory cap\n"
        )

    def test_bitmap_cap_within_the_budget(self, capsys, monkeypatch):
        # n = 13 is inside the ground set but would take 2 * 13! bytes, about
        # 12.5 GB; the cap refuses it before any search starts.
        def boom(*args):
            raise AssertionError("searched before the bitmap cap was checked")

        monkeypatch.setattr(counting, "_reverse_keys", boom)
        monkeypatch.setattr(counting, "_partial_keys", boom)
        assert run(capsys, "bell-check", "--n-max", "13") == (
            3, "", "error: n=13 needs a 12454041600-byte bitmap, over the 1073741824-byte memory cap\n"
        )

    def test_cli_leaves_the_caps_to_counting(self):
        # counting._bell_reports checks the ground set and the bitmap; cli calls no check of its own.
        assert "counting._check_" not in Path(cli.__file__).read_text(encoding="utf-8")


#: (argv, stderr message) of a refusal with exit 2, one per checked range.
OUT_OF_RANGE = [
    (["enumerate", "--n", "3", "--limit", "-1"], "--limit must be >= 0, got -1"),
    (["render", "--input", PAPER_PI, "--scale", "0"], "scale must be >= 1, got 0"),
    (["render", "--input", PAPER_PI, "--scale", "-5"], "scale must be >= 1, got -5"),
    (["map", "--input", PAPER_PI, "--witnesses", "-1"], "--witnesses: k must be >= 1, got -1"),
    (["verify-identity", "--k", "3", "--n-max", "-1"], "n must be in 0..19, got -1"),
    (["verify-identity", "--k", "3", "--n-max", "-1", "--json"], "n must be in 0..19, got -1"),
    (["bell-check", "--n-max", "-1"], "n must be in 0..19, got -1"),
    (["count", "--k", "3", "--n", "0", "--family", "C", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["oeis-check", "--id", "A000110", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["oeis-check", "--id", "A000108", "--budget", "-1"], "budget must be >= 0, got -1"),
    (["count", "--k", "3", "--n", "0", "--family", "C", "--parts", "2", "--budget", "-1"],
     "budget must be >= 0, got -1"),
    (["render", "--input", "2:1", "--source-color", '}</style><x y="'],
     "colour must be # plus hex digits or a name, got '}</style><x y=\"'"),
    (["render", "--input", "2:1", "--image-color", "red;x"],
     "colour must be # plus hex digits or a name, got 'red;x'"),
    (["render", "--input", "2:1", "--source-color", ""], "colour must be # plus hex digits or a name, got ''"),
    (["render", "--input", "2:1", "--image-color", "#12g"], "colour must be # plus hex digits or a name, got '#12g'"),
    (["oeis-check", "--id", "A000108", "--n-max", "-1"], "n must be in 0..20, got -1"),
    (["oeis-check", "--id", "A000108", "--n-max", "-1", "--fetch"], "n must be in 0..20, got -1"),
    (["map", "--input", PAPER_PI, "--witnesses", "9"], "--witnesses: k is capped at 8, got 9"),
    (["oeis-check", "--id", "A000110", "--n-max", "-1"], "n must be >= 0, got -1"),
]


class TestLibraryDefaults:
    def test_only_given_options_are_passed(self, capsys, monkeypatch):
        # An option the user did not give is left to the default of the
        # function that owns it, so the CLI cannot drift from that default.
        from crossmap import diagram

        seen = []

        def recorded(fn):
            def record(*args, **kwargs):
                seen.append(kwargs)
                return fn(*args, **kwargs)

            return record

        for module, name in ((diagram, "render_overlay"), (counting, "count_C"), (counting, "count_table")):
            monkeypatch.setattr(module, name, recorded(getattr(module, name)))
        for argv in (
            ["render", "--input", PAPER_PI],
            ["count", "--k", "3", "--n", "6", "--family", "C"],
            ["oeis-check", "--id", "A108304"],
            ["render", "--input", PAPER_PI, "--scale", "7"],
            ["count", "--k", "3", "--n", "6", "--family", "C", "--parts", "2"],
            ["oeis-check", "--id", "A108304", "--budget", "0"],
        ):
            run(capsys, *argv)
        assert seen == [{}, {}, {}, {"scale": 7}, {"parts": 2}, {"budget": 0}]


class TestFlagRanges:
    @pytest.mark.parametrize("argv, err", OUT_OF_RANGE, ids=[shlex.join(argv) for argv, _ in OUT_OF_RANGE])
    def test_out_of_range_exit_2(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_negative_n_has_one_wording(self, capsys):
        # Counting runs and enumeration report a negative n through the one
        # ground-set check, partition._check_n: on [n], or on [n+1] for the
        # runs that count there.
        err = "error: n must be in 0..20, got -1\n"
        assert run(capsys, "count", "--k", "3", "--n", "-1", "--family", "C") == (2, "", err)
        assert run(capsys, "enumerate", "--n", "-1") == (2, "", err)
        err = "error: n must be in 0..19, got -1\n"
        assert run(capsys, "verify-identity", "--k", "3", "--n-max", "-1") == (2, "", err)
        assert run(capsys, "bell-check", "--n-max", "-1") == (2, "", err)

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--k", "0", "--n", "-1", "--family", "C"],
            ["verify-identity", "--k", "0", "--n-max", "-1"],
            ["count", "--k", "0", "--n", "3", "--family", "C", "--budget", "-1"],
        ],
        ids=["count", "verify-identity", "count-budget"],
    )
    def test_bad_k_reported_before_bad_n(self, capsys, argv):
        assert run(capsys, *argv) == (2, "", "error: k must be >= 1, got 0\n")

    def test_bad_colour_writes_no_file(self, capsys, tmp_path):
        out_file = tmp_path / "fig.svg"
        code, out, err = run(capsys, "render", "--input", "2:1", "--out", str(out_file), "--source-color", "<x>")
        assert (code, out, err) == (2, "", "error: colour must be # plus hex digits or a name, got '<x>'\n")
        assert not out_file.exists()

    def test_lowest_values_are_accepted(self, capsys):
        assert run(capsys, "enumerate", "--n", "3", "--limit", "0") == (0, "", "")
        assert run(capsys, "map", "--input", PAPER_PI, "--witnesses", "0") == (0, PAPER_PI_HAT + "\n", "")
        code, out, _ = run(capsys, "render", "--input", PAPER_PI, "--scale", "1")
        assert code == 0 and out.startswith("<?xml")
        assert run(capsys, "bell-check", "--n-max", "0") == (
            0, "n=0 bell=1 triangle=OK enumeration=OK bijection=OK OK\n", ""
        )
        assert run(capsys, "count", "--k", "3", "--n", "0", "--family", "C", "--budget", "0") == (0, "1\n", "")
        assert run(capsys, "count", "--k", "3", "--n", "0", "--family", "C", "--parts", "2", "--budget", "0") == (
            0, "1\n", ""
        )
        assert run(capsys, "verify-identity", "--k", "3", "--n-max", "0") == (
            0, "k=3 n=0 lhs=1 rhs=1 direct=1 OK\n", ""
        )
        code, _, err = run(capsys, "oeis-check", "--id", "A000108", "--budget", "0")
        assert (code, err) == (3, "error: n=10 exceeds the enumeration budget 0\n")
        # The Bell column is read from the triangle, not enumerated, so the
        # budget does not bind it.
        assert run(capsys, "oeis-check", "--id", "A000110", "--budget", "0") == (0, "OK (13 terms compared)\n", "")
        assert run(capsys, "oeis-check", "--id", "A000108", "--n-max", "0") == (0, "OK (1 terms compared)\n", "")
        code, out, _ = run(capsys, "render", "--input", "2:1", "--source-color", "red", "--image-color", "#ABCdef")
        assert code == 0 and "stroke:red;" in out and "stroke:#ABCdef;" in out


def _run_readme_line(capsys, argv, tmp_path):
    """(exit code, sha256 of stdout, or of the file that ``--out`` names)."""
    argv = list(argv)
    out_file = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out_file = tmp_path / argv[i]
        argv[i] = str(out_file)
    code, out, _ = run(capsys, *argv)
    body = out_file.read_bytes() if out_file is not None else out.encode("utf-8")
    return code, hashlib.sha256(body).hexdigest()


class TestReadme:
    def test_readme_has_cli_lines(self):
        assert len(README_COMMANDS) >= 10

    @pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
    def test_line_output_is_unchanged(self, capsys, tmp_path, argv):
        assert _run_readme_line(capsys, argv, tmp_path) == README_DIGESTS[" ".join(argv)]


def _loaded_modules(code: str) -> set:
    """Modules loaded after running ``code`` in a fresh interpreter that
    writes and reads bytecode, as an installed package would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(done.stdout.split())


class TestColdStart:
    def test_cli_import_loads_no_network_stack(self):
        # Only ``oeis-check --fetch`` needs HTTP; importing the network stack
        # at start-up would double the wall time of every other command.
        network = {"requests", "urllib.request", "http.client", "ssl"}
        added = _loaded_modules("import crossmap.cli") - _loaded_modules("pass")
        assert network & added == set()

    def test_cli_import_loads_only_what_every_command_needs(self):
        # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and
        # ``tokenize``; ``json``, ``oeis`` and ``diagram`` serve a few
        # commands, which import them when they run.
        heavy = {"dataclasses", "inspect", "json", "crossmap.oeis", "crossmap.diagram"}
        added = _loaded_modules("import crossmap.cli") - _loaded_modules("pass")
        assert "crossmap.cli" in added
        assert heavy & added == set()
