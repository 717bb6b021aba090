"""On-disk formats: exact float64 arrays, 16-bit PGM previews, bucket CSV,
and the flat key = value config text.

Formats are versioned and byte-reproducible:

* ``.f64`` arrays: an 8-field header of little-endian float64 values
  (magic, version, nx, ny, pitch, centered flag, kind tag, reserved)
  followed by ny*nx row-major little-endian float64 samples.
* ``.pgm`` previews: binary P5, maxval 65535, big-endian samples,
  min-max scaled; write-only pictures, never read back.
* CSV tables (buckets, E_F traces, scores): one header line, then one line
  per row; floats are repr-formatted.  Buckets have the header ``j,value``
  and rows ``f"{j},{v!r}"``.  The reader's grammar is the per-line one: a
  row is stripped and cut at its first comma, and ``int`` and ``float`` of
  the two parts must give the row's index and value; blank lines are
  skipped.  A file that numpy's C parser takes exactly, as it takes every
  file the writer makes, is read by one ``np.loadtxt`` call, and any other
  by that per-line rule, so the reader accepts and rejects the files the
  grammar does, with the same messages.

Text files (CSV tables, configs) are UTF-8.
"""

from __future__ import annotations

import io
import warnings
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import FormatError, UsageError

MAGIC_BYTES = b"BGIARR\x00\x01"
MAGIC = float(np.frombuffer(MAGIC_BYTES, dtype="<f8")[0])
FORMAT_VERSION = 1.0

# kind tags for the array header
KIND_IMAGE = 0.0
KIND_SPECTRUM = 1.0
KIND_PSF = 2.0
KIND_CORRELATION = 3.0

_HEADER_COUNT = 8
_HEADER_BYTES = _HEADER_COUNT * 8

TEXT_ENCODING = "utf-8"


def write_array(
    path: str,
    values: np.ndarray,
    pitch: float,
    centered: bool = False,
    kind: float = KIND_IMAGE,
) -> None:
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise UsageError(f"can only write 2-D arrays, got shape {values.shape}")
    ny, nx = values.shape
    header = np.array(
        [MAGIC, FORMAT_VERSION, nx, ny, pitch, 1.0 if centered else 0.0, kind, 0.0],
        dtype="<f8",
    )
    with open(path, "wb") as fh:
        fh.write(header.tobytes())
        fh.write(values.astype("<f8").tobytes())


def _read_bytes(path: str) -> bytes:
    """The bytes of a file; FormatError naming it if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: cannot read ({exc.strerror})") from None


def read_array(path: str) -> tuple[np.ndarray, dict]:
    """Read an ``.f64`` array; returns (values, meta) with grid/kind metadata."""
    raw = _read_bytes(path)
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes < {_HEADER_BYTES} (byte offset 0)")
    header = np.frombuffer(raw[:_HEADER_BYTES], dtype="<f8")
    if header[0] != MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if header[1] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {header[1]} at byte offset 8")
    dims = header[2:4]
    if not np.all(np.isfinite(dims) & (dims >= 1) & (dims == np.floor(dims))):
        raise FormatError(f"{path}: bad dimensions {dims[0]}x{dims[1]} at byte offset 16")
    nx, ny = int(dims[0]), int(dims[1])
    expected = _HEADER_BYTES + nx * ny * 8
    if len(raw) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, file has {len(raw)} bytes, "
            f"expected {expected} (first missing byte offset {min(len(raw), expected)})"
        )
    values = np.frombuffer(raw[_HEADER_BYTES:], dtype="<f8").reshape(ny, nx).copy()
    meta = {
        "nx": nx,
        "ny": ny,
        "pitch": float(header[4]),
        "centered": bool(header[5]),
        "kind": float(header[6]),
    }
    return values, meta


def write_pgm16(path: str, values: np.ndarray) -> None:
    """Min-max scaled 16-bit PGM preview."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise UsageError("PGM preview needs a 2-D array")
    vmin, vmax = float(values.min()), float(values.max())
    span = vmax - vmin
    scaled = np.zeros_like(values) if span == 0 else (values - vmin) / span
    samples = np.round(scaled * 65535).astype(">u2")
    ny, nx = values.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{nx} {ny}\n65535\n".encode("ascii"))
        fh.write(samples.tobytes())


def _decode(path: str, raw: bytes) -> str:
    """The text of the bytes ``raw`` read from ``path``; FormatError naming
    the file if they are not UTF-8."""
    try:
        return raw.decode(TEXT_ENCODING)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not {TEXT_ENCODING} text (byte offset {exc.start})") from None


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A CSV table: the header line, then one line per row of formatted fields."""
    with open(path, "w", encoding=TEXT_ENCODING, newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# Rows of a bucket table formatted at a time: enough to make the per-block
# numpy and Python call overhead small, few enough that a block's strings
# stay about 100 KB.
_CSV_BLOCK = 1024

_BUCKET_ROW = np.dtype([("j", "<i8"), ("v", "<f8")])


def write_buckets_csv(path: str, buckets: np.ndarray) -> None:
    """Buckets as a ``j,value`` table, one block of formatted rows per write."""
    values = np.asarray(buckets, dtype=np.float64)
    with open(path, "w", encoding=TEXT_ENCODING, newline="") as fh:
        fh.write("j,value\n")
        for a in range(0, len(values), _CSV_BLOCK):
            block = values[a : a + _CSV_BLOCK].tolist()
            fh.write("".join([f"{j},{v!r}\n" for j, v in enumerate(block, a)]))


# numpy's C parser takes these for blanks inside a field, where the line
# grammar breaks the line (VT, FF, FS, GS, RS, and NEL, LS and PS outside
# ASCII) or int() and float() refuse them (US); a file holding one, or any
# byte outside ASCII, is left to the grammar.
_LOADTXT_BLANKS = b"\v\f\x1c\x1d\x1e\x1f"


def read_buckets_csv(path: str) -> np.ndarray:
    """Bucket values of a ``j,value`` CSV.

    An ASCII file whose rows numpy's C parser takes without a warning, as
    rows 0, 1, 2, ..., is read by one ``np.loadtxt`` call: such a row is one
    the line grammar takes with the same value.  Any other file is read by
    that grammar, which accepts it or names the line it rejects.
    """
    raw = _read_bytes(path)
    if raw.isascii() and not any(c in raw for c in _LOADTXT_BLANKS):
        try:
            with (io.TextIOWrapper(io.BytesIO(raw), encoding=TEXT_ENCODING) as fh,
                  warnings.catch_warnings()):
                warnings.simplefilter("error")
                if fh.readline().strip() == "j,value":
                    rows = np.loadtxt(fh, delimiter=",", comments=None, dtype=_BUCKET_ROW, ndmin=1)
                    if np.array_equal(rows["j"], np.arange(len(rows))):
                        return rows["v"]
        except (ValueError, Warning):
            pass
    # the grammar holds only the lines: the bytes and the text go first
    text = _decode(path, raw)
    del raw
    lines = text.splitlines()
    del text
    header = lines[0].strip() if lines else ""
    if header != "j,value":
        raise FormatError(f"{path}: expected header 'j,value', got {header!r} (line 1)")
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        j_str, _, v_str = line.partition(",")
        try:
            j = int(j_str)
            values.append(float(v_str))
        except ValueError as exc:
            raise FormatError(f"{path}: bad row at line {lineno}: {line!r}") from exc
        if j != len(values) - 1:
            raise FormatError(f"{path}: non-sequential index {j} at line {lineno}")
    return np.array(values)


def write_flat_config(path: str, entries: dict) -> None:
    """Write ``key = value`` lines, sorted for byte reproducibility."""
    with open(path, "w", encoding=TEXT_ENCODING) as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


def read_flat_config(path: str) -> dict:
    entries = {}
    first_line = {}
    for lineno, line in enumerate(_decode(path, _read_bytes(path)).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key = key.strip()
        if not sep or not key:
            raise FormatError(f"{path}: line {lineno} is not 'key = value': {line!r}")
        if key in first_line:
            raise FormatError(
                f"{path}: key {key!r} repeated at lines {first_line[key]} and {lineno}"
            )
        first_line[key] = lineno
        entries[key] = value.strip()
    return entries
