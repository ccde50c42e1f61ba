"""Reference integer sequences: bundled snapshots and OEIS b-file fetching.

Snapshots live under ``crossmap/data`` in plain b-file format, one file per
bundled id, and are the default for tests (no network).  ``fetch_bfile``
downloads the live b-file with the standard library's ``urllib.request``,
caches the raw bytes under ``$CROSSMAP_CACHE_DIR`` (default
``~/.cache/crossmap``) only once all of them parse, and falls back to the
cache when offline.  Every b-file, bundled, fetched or cached, is read one
way: decoded as UTF-8 and parsed whole.  ``urllib`` is imported
inside ``fetch_bfile``, so only a fetch loads ``http.client`` and ``ssl``;
every other command starts without them.
"""
from __future__ import annotations

import os
import re
import tempfile
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Optional

from .errors import CrossmapError, NetworkError, NoOverlap, ParseError, UnknownId

#: The whole id, in ASCII digits: ``\d`` takes other digits, ``$`` a final newline.
_ID = re.compile(r"A[0-9]{6}")
_BFILE_URL = "https://oeis.org/{id}/{name}"
DEFAULT_TIMEOUT = 10.0


class RefSequence(NamedTuple):
    id: str
    offset: int
    values: tuple[int, ...]

    def value_at(self, n: int) -> Optional[int]:
        i = n - self.offset
        return self.values[i] if 0 <= i < len(self.values) else None


def _check_id(oeis_id: str) -> None:
    if not _ID.fullmatch(oeis_id):
        raise UnknownId(f"malformed OEIS id {oeis_id!r}")


def _bfile_name(oeis_id: str) -> str:
    """The b-file's name, as OEIS, the data files and the cache spell it."""
    return f"b{oeis_id[1:]}.txt"


def parse_bfile(text: str, oeis_id: str) -> RefSequence:
    """Parse b-file text: `index value` lines, `#` comments ignored."""
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ParseError(f"{oeis_id} line {lineno}: expected `index value`, got {raw!r}")
        try:
            idx, val = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"{oeis_id} line {lineno}: non-integer field in {raw!r}") from None
        pairs.append((idx, val))
    if not pairs:
        raise ParseError(f"{oeis_id}: b-file contains no terms")
    offset = pairs[0][0]
    for j, (idx, _) in enumerate(pairs):
        if idx != offset + j:
            raise ParseError(f"{oeis_id}: non-contiguous index {idx}")
    return RefSequence(oeis_id, offset, tuple(v for _, v in pairs))


def bundled(oeis_id: str) -> RefSequence:
    """The snapshot shipped with the package: its data file for the id."""
    _check_id(oeis_id)
    path = resources.files("crossmap") / "data" / _bfile_name(oeis_id)
    if not path.is_file():
        raise UnknownId(f"no bundled snapshot for {oeis_id}")
    return parse_bfile(path.read_text(encoding="utf-8"), oeis_id)


def cache_dir() -> Path:
    env = os.environ.get("CROSSMAP_CACHE_DIR")
    return Path(env) if env else Path.home() / ".cache" / "crossmap"


def _atomic_write(path: Path, data: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fetch_bfile(oeis_id: str) -> RefSequence:
    """Download (or, offline, read from the cache) the b-file and parse all
    of it; a download is cached only once all of it parses."""
    _check_id(oeis_id)  # before urllib is imported or anything is fetched
    import http.client
    import urllib.error
    import urllib.request

    name = _bfile_name(oeis_id)
    url = _BFILE_URL.format(id=oeis_id, name=name)
    cache = cache_dir() / name
    try:
        with urllib.request.urlopen(url, timeout=DEFAULT_TIMEOUT) as resp:
            content = resp.read()
    # HTTPError, URLError and timeouts are OSErrors; a truncated body
    # (IncompleteRead) is an HTTPException.
    except (OSError, http.client.HTTPException) as exc:
        if isinstance(exc, urllib.error.HTTPError) and exc.code == 404:
            raise UnknownId(f"OEIS has no b-file for {oeis_id}") from None
        try:
            text = cache.read_text(encoding="utf-8")
        except (FileNotFoundError, NotADirectoryError):
            raise NetworkError(f"cannot fetch {url} and no cache exists: {exc}") from exc
        except (OSError, UnicodeDecodeError) as err:
            raise NetworkError(f"cannot fetch {url} and cannot read its cache: {err}") from exc
        return parse_bfile(text, oeis_id)
    # Only a body that parses whole is cached, so a bad payload cannot
    # poison the offline fallback.
    try:
        ref = parse_bfile(content.decode("utf-8"), oeis_id)
    except (UnicodeDecodeError, ParseError) as exc:
        raise NetworkError(f"{url} did not return a b-file: {exc}") from exc
    try:
        _atomic_write(cache, content)
    except OSError as exc:
        raise CrossmapError(f"cannot write {cache}: {exc.strerror}") from exc
    return ref


class SequenceDiff(NamedTuple):
    """Mismatches between a computed column and a reference sequence."""

    compared: int
    mismatches: tuple[tuple[int, int, int], ...]  # (n, computed, reference)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def compare(column: dict[int, int], ref: RefSequence) -> SequenceDiff:
    """Diff a computed column {n: value} against a reference, aligned on n
    with offsets."""
    mismatches = []
    compared = 0
    for n, value in sorted(column.items()):
        expected = ref.value_at(n)
        if expected is None:
            continue
        compared += 1
        if value != expected:
            mismatches.append((n, value, expected))
    if compared == 0:
        raise NoOverlap(f"no common indices between table and {ref.id}")
    return SequenceDiff(compared, tuple(mismatches))
