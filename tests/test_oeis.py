import errno
import http.client
import importlib.util
import io
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from crossmap import cli, counting, oeis
from crossmap.cli import main
from crossmap.errors import NetworkError, NoOverlap, ParseError, UnknownId
from crossmap.oeis import (
    RefSequence,
    bundled,
    cache_dir,
    compare,
    fetch_bfile,
    parse_bfile,
)


GENERATE_REFS = Path(__file__).resolve().parents[1] / "scripts" / "generate_refs.py"
SRC = Path(__file__).resolve().parents[1] / "src"
A001006_URL = "https://oeis.org/A001006/b001006.txt"
#: A well-formed b-file of the Motzkin numbers, n = 0..15.
MOTZKIN = "".join(
    f"{n} {v}\n"
    for n, v in enumerate(
        [1, 1, 2, 4, 9, 21, 51, 127, 323, 835, 2188, 5798, 15511, 41835, 113634, 310572]
    )
)
#: The ids of the bundled snapshots, read from their data files.
SNAPSHOT_IDS = [
    "A" + path.stem[1:] for path in sorted((Path(oeis.__file__).parent / "data").glob("b*.txt"))
]


@pytest.fixture
def generate_refs(monkeypatch):
    """scripts/generate_refs.py as a module; its sys.path insert is undone after."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("generate_refs", GENERATE_REFS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGenerateRefs:
    """The generator's sequences equal the snapshots it wrote; main is not run,
    since it rewrites them."""

    def test_walks_reproduce_the_snapshots(self, generate_refs, monkeypatch):
        calls = []
        real = generate_refs._walk

        def recorded(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(generate_refs, "_walk", recorded)
        assert generate_refs.walk(3, False) == list(bundled("A108304").values)
        assert generate_refs.walk(3, True) == list(bundled("A108307").values)
        assert len(calls) == 2

    def test_closed_forms_reproduce_the_snapshots(self, generate_refs):
        for oeis_id, sequence in (
            ("A000108", generate_refs.catalan),
            ("A001006", generate_refs.motzkin),
            ("A000110", generate_refs.bell),
        ):
            values = list(bundled(oeis_id).values)
            assert sequence(len(values) - 1) == values, oeis_id


class TestBundled:
    def test_bell_prefix(self):
        ref = bundled("A000110")
        assert ref.values[:6] == (1, 1, 2, 5, 15, 52)
        assert ref.offset == 0

    def test_catalan_prefix(self):
        assert bundled("A000108").values[:6] == (1, 1, 2, 5, 14, 42)

    def test_unknown_id(self):
        with pytest.raises(UnknownId):
            bundled("A999999")
        with pytest.raises(UnknownId):
            bundled("banana")

    def test_every_snapshot_has_at_least_15_terms(self):
        assert SNAPSHOT_IDS
        for oeis_id in SNAPSHOT_IDS:
            assert len(bundled(oeis_id).values) >= 15

    def test_every_snapshot_has_a_check(self):
        assert SNAPSHOT_IDS == sorted(cli.OEIS_CHECKS)


class TestParse:
    def test_comments_and_offsets(self):
        ref = parse_bfile("# hi\n2 10\n3 20\n", "A000001")
        assert ref.offset == 2 and ref.values == (10, 20)
        assert ref.value_at(3) == 20 and ref.value_at(1) is None

    def test_malformed_line(self):
        with pytest.raises(ParseError):
            parse_bfile("abc def\n", "A000001")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_bfile("1 2 3\n", "A000001")

    def test_non_contiguous(self):
        with pytest.raises(ParseError):
            parse_bfile("0 1\n2 5\n", "A000001")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_bfile("# only comments\n", "A000001")


class _FakeResponse(io.BytesIO):
    """The body ``urlopen`` returns: a readable context manager."""


def _serve(body: bytes):
    return lambda url, timeout: _FakeResponse(body)


def _fail(exc: Exception):
    def urlopen(url, timeout):
        raise exc

    return urlopen


def _http_error(code: int) -> urllib.error.HTTPError:
    return urllib.error.HTTPError("https://oeis.org/", code, "status", None, None)


class TestFetch:
    @pytest.fixture(autouse=True)
    def _tmp_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(tmp_path))
        self.tmp = tmp_path
        self.cached = tmp_path / "b001006.txt"

    def test_fetch_writes_cache(self, monkeypatch):
        body = "0 1\n1 1\n2 2\n3 4\n4 9\n"
        monkeypatch.setattr(urllib.request, "urlopen", _serve(body.encode()))
        ref = fetch_bfile("A001006")
        assert ref.values == (1, 1, 2, 4, 9)
        assert self.cached.read_text() == body

    def test_cache_stores_raw_bytes(self, monkeypatch):
        body = b"# A001006\r\n0 1\r\n1 1\r\n"
        monkeypatch.setattr(urllib.request, "urlopen", _serve(body))
        assert fetch_bfile("A001006").values == (1, 1)
        assert self.cached.read_bytes() == body

    def test_offline_falls_back_to_cache(self, monkeypatch):
        self.cached.write_text("0 1\n1 1\n2 2\n")
        monkeypatch.setattr(urllib.request, "urlopen", _fail(urllib.error.URLError("offline")))
        ref = fetch_bfile("A001006")
        assert ref.values == (1, 1, 2)

    def test_offline_without_cache(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", _fail(urllib.error.URLError("offline")))
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")

    def test_timeout_without_cache(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", _fail(TimeoutError("timed out")))
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")

    def test_http_503_falls_back_to_cache(self, monkeypatch):
        self.cached.write_text("0 1\n1 1\n2 2\n")
        monkeypatch.setattr(urllib.request, "urlopen", _fail(_http_error(503)))
        assert fetch_bfile("A001006").values == (1, 1, 2)

    def test_http_503_without_cache(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", _fail(_http_error(503)))
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")
        assert not self.cached.exists()

    def test_incomplete_read_is_network_error_and_not_cached(self, monkeypatch):
        class Truncated(_FakeResponse):
            def read(self):
                raise http.client.IncompleteRead(b"0 1\n1 ", 100)

        monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: Truncated())
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")
        assert not self.cached.exists()

    def test_non_utf8_body_is_network_error_and_not_cached(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", _serve(b"0 1\n1 \xff\n"))
        with pytest.raises(NetworkError, match="did not return a b-file"):
            fetch_bfile("A001006")
        assert not self.cached.exists()

    def test_bad_payload_is_network_error_and_not_cached(self, monkeypatch, capsys):
        monkeypatch.setattr(urllib.request, "urlopen", _serve(b"<html>"))
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")
        assert main(["oeis-check", "--id", "A001006", "--fetch"]) == 4
        assert "did not return a b-file" in capsys.readouterr().err
        assert not self.cached.exists()

    def test_bad_payload_keeps_earlier_cache(self, monkeypatch):
        self.cached.write_text("0 1\n1 1\n2 2\n")
        monkeypatch.setattr(urllib.request, "urlopen", _serve(b"<html>"))
        with pytest.raises(NetworkError):
            fetch_bfile("A001006")
        assert self.cached.read_text() == "0 1\n1 1\n2 2\n"

    def test_http_404(self, monkeypatch):
        monkeypatch.setattr(urllib.request, "urlopen", _fail(_http_error(404)))
        with pytest.raises(UnknownId):
            fetch_bfile("A999999")

    def test_short_run_reads_a_whole_good_body(self, monkeypatch, capsys):
        monkeypatch.setattr(urllib.request, "urlopen", _serve(MOTZKIN.encode()))
        assert main(["oeis-check", "--id", "A001006", "--fetch", "--n-max", "5"]) == 0
        assert capsys.readouterr().out == "OK (6 terms compared)\n"
        assert self.cached.read_text() == MOTZKIN

    @pytest.mark.parametrize("earlier", [None, b"0 1\n1 1\n2 2\n"], ids=["no-cache", "cache"])
    def test_bad_tail_is_network_error_and_not_cached(self, monkeypatch, capsys, earlier):
        # The whole body must parse before it is cached, however few of its
        # terms this run compares.
        if earlier is not None:
            self.cached.write_bytes(earlier)
        body = "".join(MOTZKIN.splitlines(keepends=True)[:8]) + "<html>rate limited</html>\n"
        monkeypatch.setattr(urllib.request, "urlopen", _serve(body.encode()))
        assert main(["oeis-check", "--id", "A001006", "--fetch", "--n-max", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {A001006_URL} did not return a b-file: A001006 line 9: "
            "non-integer field in '<html>rate limited</html>'\n"
        )
        if earlier is None:
            assert list(self.tmp.iterdir()) == []
        else:
            assert self.cached.read_bytes() == earlier

    def test_cache_write_failure_is_one_error_line(self, monkeypatch, capsys):
        (self.tmp / "file").write_text("")
        monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(self.tmp / "file" / "cache"))
        monkeypatch.setattr(urllib.request, "urlopen", _serve(MOTZKIN.encode()))
        assert main(["oeis-check", "--id", "A001006", "--fetch"]) == 2
        assert capsys.readouterr() == (
            "", f"error: cannot write {self.tmp}/file/cache/b001006.txt: Not a directory\n"
        )

    @pytest.mark.parametrize("under_a_file", [False, True], ids=["missing", "under-a-file"])
    def test_no_cache_message(self, monkeypatch, capsys, under_a_file):
        if under_a_file:
            (self.tmp / "file").write_text("")
            monkeypatch.setenv("CROSSMAP_CACHE_DIR", str(self.tmp / "file"))
        monkeypatch.setattr(urllib.request, "urlopen", _fail(urllib.error.URLError("offline")))
        assert main(["oeis-check", "--id", "A001006", "--fetch"]) == 4
        assert capsys.readouterr() == (
            "", f"error: cannot fetch {A001006_URL} and no cache exists: <urlopen error offline>\n"
        )

    def test_unreadable_cache_is_network_error(self, monkeypatch, capsys):
        self.cached.mkdir()
        monkeypatch.setattr(urllib.request, "urlopen", _fail(urllib.error.URLError("offline")))
        assert main(["oeis-check", "--id", "A001006", "--fetch"]) == 4
        assert capsys.readouterr() == (
            "",
            f"error: cannot fetch {A001006_URL} and cannot read its cache: "
            f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{self.cached}'\n",
        )

    def test_non_utf8_cache_is_network_error(self, monkeypatch, capsys):
        self.cached.write_bytes(b"0 1\n1 \xff\n")
        monkeypatch.setattr(urllib.request, "urlopen", _fail(urllib.error.URLError("offline")))
        assert main(["oeis-check", "--id", "A001006", "--fetch"]) == 4
        assert capsys.readouterr() == (
            "",
            f"error: cannot fetch {A001006_URL} and cannot read its cache: 'utf-8' codec "
            "can't decode byte 0xff in position 6: invalid start byte\n",
        )

    def test_cache_is_read_as_utf8_in_any_locale(self):
        self.cached.write_text("# A001006 by Václav Kotěšovec\n" + MOTZKIN, encoding="utf-8")
        code = (
            "import sys, urllib.error, urllib.request\n"
            "def offline(url, timeout):\n"
            "    raise urllib.error.URLError('offline')\n"
            "urllib.request.urlopen = offline\n"
            "from crossmap.cli import main\n"
            "sys.exit(main(['oeis-check', '--id', 'A001006', '--fetch']))\n"
        )
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8"))}
        env.update(LC_ALL="C", CROSSMAP_CACHE_DIR=str(self.tmp))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "OK (11 terms compared)\n", "")

    def test_cache_dir_env(self):
        assert cache_dir() == self.tmp

    @pytest.mark.parametrize("oeis_id", ["A000108\n", "A\u0661\u0662\u0663\u0664\u0665\u0666"])
    def test_malformed_id_builds_no_url(self, monkeypatch, oeis_id):
        # "$" matched before a final newline and "\d" took Arabic-Indic digits.
        def boom(url, timeout):
            raise AssertionError(f"fetched {url}")

        monkeypatch.setattr(urllib.request, "urlopen", boom)
        with pytest.raises(UnknownId, match="malformed OEIS id"):
            fetch_bfile(oeis_id)
        with pytest.raises(UnknownId, match="malformed OEIS id"):
            bundled(oeis_id)
        assert list(self.tmp.iterdir()) == []


class TestCompare:
    def test_regression_pass(self):
        diff = compare(counting.count_table("C", 3, 9), bundled("A108304"))
        assert diff.ok and diff.compared == 10

    def test_enhanced_regression_pass(self):
        diff = compare(counting.count_table("E", 3, 9), bundled("A108307"))
        assert diff.ok

    def test_corrupted_value_is_reported(self):
        table = counting.count_table("C", 2, 5)
        bad = RefSequence("A000108", 0, (1, 1, 2, 5, 14, 43))
        diff = compare(table, bad)
        assert not diff.ok
        assert diff.mismatches == ((5, 42, 43),)

    def test_offset_alignment(self):
        table = counting.count_table("Bell", None, 5)
        shifted = RefSequence("A000110", 2, (2, 5, 15, 52))
        diff = compare(table, shifted)
        assert diff.ok and diff.compared == 4

    def test_no_overlap(self):
        table = counting.count_table("Bell", None, 3)
        far = RefSequence("A000110", 50, (1, 2))
        with pytest.raises(NoOverlap):
            compare(table, far)

    def test_bundled_matches_computed_everywhere(self):
        # offsets recorded in the snapshots line up with the counters
        for oeis_id, family, k, n_max in (
            ("A000108", "C", 2, 10),
            ("A001006", "E", 2, 10),
            ("A108304", "C", 3, 9),
            ("A108307", "E", 3, 9),
            ("A000110", "Bell", None, 12),
        ):
            diff = compare(counting.count_table(family, k, n_max), bundled(oeis_id))
            assert diff.ok, oeis_id
