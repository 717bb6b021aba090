"""On-disk formats: exact float64 arrays, 16-bit PGM previews, bucket CSV,
and the flat key = value config text.

Formats are versioned and byte-reproducible:

* ``.f64`` arrays: an 8-field header of little-endian float64 values
  (magic, version, nx, ny, pitch, centered flag, kind tag, reserved)
  followed by ny*nx row-major little-endian float64 samples.
* ``.pgm`` previews: binary P5, maxval 65535, big-endian samples,
  min-max scaled; the scale is recorded in a ``.pgm.scale`` sidecar.
* buckets: CSV with header ``j,value`` and repr-formatted floats.
"""

from __future__ import annotations

import os

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


def read_array(path: str) -> tuple[np.ndarray, dict]:
    """Read an ``.f64`` array; returns (values, meta) with grid/kind metadata."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER_BYTES:
        raise FormatError(f"{path}: truncated header, {len(raw)} bytes < {_HEADER_BYTES} (byte offset 0)")
    header = np.frombuffer(raw[:_HEADER_BYTES], dtype="<f8")
    if header[0] != MAGIC:
        raise FormatError(f"{path}: bad magic at byte offset 0")
    if header[1] != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {header[1]} at byte offset 8")
    nx, ny = int(header[2]), int(header[3])
    if nx < 1 or ny < 1:
        raise FormatError(f"{path}: bad dimensions {nx}x{ny} at byte offset 16")
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
    """Min-max scaled 16-bit PGM preview plus a ``.scale`` sidecar."""
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
    with open(path + ".scale", "w") as fh:
        fh.write(f"vmin = {vmin!r}\nvmax = {vmax!r}\n")


def read_pgm16(path: str) -> np.ndarray:
    """Read back a P5 preview, rescaled to physical values via the sidecar."""
    with open(path, "rb") as fh:
        raw = fh.read()
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        if pos >= len(raw):
            raise FormatError(f"{path}: truncated header, {len(fields)} of 4 fields (byte offset {pos})")
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    if fields[0] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (byte offset 0)")
    try:
        nx, ny, maxval = (int(f) for f in fields[1:])
    except ValueError:
        raise FormatError(f"{path}: non-numeric header fields {fields[1:]!r}") from None
    if nx < 1 or ny < 1:
        raise FormatError(f"{path}: bad dimensions {nx}x{ny}")
    if maxval != 65535:
        raise FormatError(f"{path}: expected maxval 65535, got {maxval}")
    pos += 1  # single whitespace after maxval
    expected = nx * ny * 2
    payload = raw[pos:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: expected {expected} sample bytes, got {len(payload)} "
            f"(payload starts at byte offset {pos})"
        )
    samples = np.frombuffer(payload, dtype=">u2").reshape(ny, nx).astype(np.float64)
    scale_path = path + ".scale"
    scale = read_flat_config(scale_path)
    try:
        vmin, vmax = float(scale["vmin"]), float(scale["vmax"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{scale_path}: needs numeric vmin and vmax ({exc})") from None
    return vmin + samples / 65535.0 * (vmax - vmin)


def write_buckets_csv(path: str, buckets: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("j,value\n")
        for j, value in enumerate(buckets):
            fh.write(f"{j},{float(value)!r}\n")


def read_buckets_csv(path: str) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "j,value":
            raise FormatError(f"{path}: expected header 'j,value', got {header!r} (line 1)")
        values = []
        for lineno, line in enumerate(fh, start=2):
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
    with open(path, "w") as fh:
        for key in sorted(entries):
            fh.write(f"{key} = {entries[key]}\n")


def read_flat_config(path: str) -> dict:
    if not os.path.exists(path):
        raise FormatError(f"file not found: {path}")
    entries = {}
    first_line = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, value = stripped.partition("=")
            if not sep:
                raise FormatError(f"{path}: line {lineno} is not 'key = value': {line!r}")
            key = key.strip()
            if key in first_line:
                raise FormatError(
                    f"{path}: key {key!r} repeated at lines {first_line[key]} and {lineno}"
                )
            first_line[key] = lineno
            entries[key] = value.strip()
    return entries
