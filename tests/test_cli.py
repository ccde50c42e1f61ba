import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from crossmap import cli, counting
from crossmap.bijection import forward
from crossmap.cli import main
from crossmap.counting import IdentityReport

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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "count", "--k", "2", "--n", "15", "--family", "C")
        assert code == 3 and "budget" in err


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

    def test_injected_fault_exits_nonzero(self, capsys, monkeypatch):
        def broken(k, n, budget=12):
            return IdentityReport(k, n, lhs=1, rhs_terms=[2], rhs=2, holds=False)

        monkeypatch.setattr(counting, "verify_identity", broken)
        code, out, _ = run(capsys, "verify-identity", "--k", "2", "--n-max", "1")
        assert code == 1 and "FAIL" in out


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

    def test_ambient_n_over_cap_exit_2(self, capsys):
        code, out, err = run(capsys, "render", "--input", "21:1")
        assert (code, out, err) == (2, "", "error: ambient n must be in 0..20, got 21\n")


class TestOeisCheck:
    @pytest.mark.parametrize("oeis_id", ["A000108", "A001006", "A108304", "A108307", "A000110"])
    def test_bundled_ok(self, capsys, oeis_id):
        code, out, _ = run(capsys, "oeis-check", "--id", oeis_id)
        assert code == 0 and out.startswith("OK (")

    def test_unknown_id_exit_2(self, capsys):
        code, _, _ = run(capsys, "oeis-check", "--id", "A999999")
        assert code == 2

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


class TestBellCheck:
    def test_all_ok(self, capsys):
        code, out, _ = run(capsys, "bell-check", "--n-max", "6")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 7
        assert all(l.endswith("OK") for l in lines)
        assert "triangle=OK enumeration=OK bijection=OK" in lines[-1]


class TestColdStart:
    def test_cli_import_loads_no_network_stack(self):
        # Only ``oeis-check --fetch`` needs HTTP; importing the network stack
        # at start-up would double the wall time of every other command.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import crossmap.cli\n"
            "network = {'requests', 'urllib.request', 'http.client', 'ssl'}\n"
            "print(sorted(network & (set(sys.modules) - before)))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"
