"""Preset source-pattern ensembles and their ensemble statistics.

Patterns are never stored: each one is regenerated on demand from
``(seed, index)`` with a counter-based generator, so ensembles of 10^6
patterns cost no memory and neither generation order nor chunking can
change a pattern.

Both random kinds read one Philox stream per ensemble, keyed by
``(seed, _STREAM_PATTERNS)``.  Each Philox counter yields four 64-bit words,
256 bits read little-endian and cut into w-bit scores: pattern j owns the
counters ``[j*P, (j+1)*P)`` with ``P = ceil(npixels * w / 256)`` and pixel i
reads the little-endian w-bit field i, in row-major pixel order, dropping the
padding fields.  random-binary uses the smallest w of 1, 8 or 16 for which
``fill * 2^w`` is an integer, and 32 otherwise, and turns pixel i on where
its score is below ``round(fill * 2^w)``: fill 0.5 costs one bit per pixel.
random-fixed-fill always uses w = 32.  A batch of n patterns draws exactly its
n * P counters, in row blocks of about 256 KB so that it never holds them all,
and leaves its generator at the next pattern's first counter: a pass continues
one generator from counter 0, and a lone batch starts one at its first counter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, UsageError
from .grid import Grid2D

KINDS = ("random-binary", "random-fixed-fill", "hadamard", "pixel-scan")

_MASK64 = (1 << 64) - 1

# Key word of the random pattern stream derived from the ensemble seed.
_STREAM_PATTERNS = 0x5041_5400


def _key(*key_words: int) -> np.ndarray:
    return np.array([int(w) & _MASK64 for w in key_words], dtype=np.uint64)


def _philox(*key_words: int) -> np.random.Generator:
    """Counter-based stream keyed by up to two 64-bit words."""
    return np.random.Generator(np.random.Philox(key=_key(*key_words)))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _hadamard(n: int) -> np.ndarray:
    """Sylvester-order +-1 integer Hadamard matrix of power-of-two order ``n``."""
    h = np.ones((1, 1), dtype=int)
    while len(h) < n:  # double: H -> [[H, H], [H, -H]]
        h = np.block([[h, h], [h, -h]])
    return h


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for an ensemble of binary patterns.

    kind: "random-binary" (i.i.d. Bernoulli pixels: a pixel is on where its
    w-bit score is below round(fill * 2^w), w the fewest of 1, 8 or 16 bits
    that hold fill exactly and 32 otherwise, so other fills are rounded to a
    multiple of 2^-32), "random-fixed-fill" (exactly round(fill * nx * ny)
    pixels on, positions drawn without replacement by 32-bit scores, which
    removes the per-pattern fill fluctuation and with it the dominant bucket
    background noise), "hadamard" (rows of the 2-D Walsh-Hadamard basis
    remapped to {0,1}), or "pixel-scan" (one pixel on per pattern, raster
    order; a complete scan needs count = nx*ny).
    """

    kind: str
    grid: Grid2D
    count: int
    fill_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown ensemble.kind {self.kind!r}; expected one of {KINDS}")
        if self.count < 1:
            raise ConfigError(f"ensemble.count must be >= 1, got {self.count}")
        if self.kind in ("random-binary", "random-fixed-fill") and not 0 < self.fill_fraction < 1:
            raise ConfigError(f"ensemble.fill_fraction must be in (0,1), got {self.fill_fraction}")
        if self.kind == "hadamard":
            if not (_is_pow2(self.grid.nx) and _is_pow2(self.grid.ny)):
                raise ConfigError("ensemble.kind 'hadamard' needs power-of-two grid dimensions")
        if self.kind in ("hadamard", "pixel-scan") and self.count > self.grid.npixels:
            raise ConfigError(
                f"ensemble.count must be <= nx*ny = {self.grid.npixels} for "
                f"ensemble.kind {self.kind!r}, got {self.count}"
            )


def _score_bits(fill: float) -> int:
    """Bits per random-binary score: the fewest of 1, 8, 16 that hold fill exactly, else 32."""
    return next((w for w in (1, 8, 16) if (fill * 2**w).is_integer()), 32)


def _next_scores(bits: np.random.Philox, n: int, npix: int, w: int) -> np.ndarray:
    """w-bit scores of the next n patterns of the stream, shape (n, npix).

    w is 1, 8, 16 or 32; the scores are uint8 bits for w = 1, else uintw.
    """
    per = -(-npix * w // 256)  # counters per pattern
    raw = bits.random_raw(n * per * 4).astype("<u8", copy=False)
    raw = raw.view(np.uint8).reshape(n, per * 32)
    if w == 1:
        return np.unpackbits(raw, axis=1, count=npix, bitorder="little")
    return raw.view(f"<u{w // 8}")[:, :npix]


def _fixed_fill(scores: np.ndarray, k: int, out: np.ndarray) -> None:
    """Set row i of ``out`` (n, npix) to 1 on its k lowest scores, 0 elsewhere.

    The k-th order statistic (counting from 0) comes from partitioning a copy
    of the scores held in ``out``'s own memory: a fresh scratch array per
    chunk costs hundreds of page faults.  A row's pixels below that statistic
    are exactly its k lowest unless a lower score ties it; such rows are
    redone by index.
    """
    part = out.view(np.uint32)[:, : scores.shape[1]]
    part[...] = scores
    part.partition(k, axis=1)
    kth = part[:, k : k + 1].copy()
    tied = np.flatnonzero(part[:, :k].max(axis=1) == kth[:, 0])
    np.less(scores, kth, out=out)
    for i in tied:
        out[i] = 0.0
        out[i, np.argpartition(scores[i], k)[:k]] = 1.0


# Bytes of Philox words a random batch draws, or of patterns a lag sum
# shifts, at a time.
_BLOCK_BYTES = 1 << 18


def pattern_batch(
    spec: EnsembleSpec,
    start: int,
    stop: int,
    out: np.ndarray | None = None,
    bits: np.random.Philox | None = None,
) -> np.ndarray:
    """Patterns start..stop-1 stacked as a (stop-start, ny, nx) float array.

    They are written into ``out`` when it is given (a C-contiguous float64
    array of that shape), which is then returned.  A given Philox ``bits``
    continues a pass: the batches before this one left it at pattern
    ``start``'s first counter.  Without it the batch starts a generator there.
    """
    if not 0 <= start <= stop <= spec.count:
        raise UsageError(f"batch range [{start}, {stop}) out of bounds for count {spec.count}")
    ny, nx = spec.grid.shape
    n = stop - start
    if out is None:
        out = np.empty((n, ny, nx))
    elif out.shape != (n, ny, nx) or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise UsageError(
            f"pattern buffer must be a C-contiguous float64 array of shape {(n, ny, nx)}, "
            f"got {out.dtype} {out.shape}"
        )
    flat = out.reshape(n, ny * nx)
    if spec.kind in ("random-binary", "random-fixed-fill"):
        fill = spec.fill_fraction
        w = 32 if spec.kind == "random-fixed-fill" else _score_bits(fill)
        k = min(max(int(round(fill * ny * nx)), 1), ny * nx - 1)
        threshold = min(round(fill * 2**w), 2**w - 1)
        per = -(-ny * nx * w // 256)
        if bits is None:
            bits = np.random.Philox(key=_key(spec.seed, _STREAM_PATTERNS), counter=start * per)
        rows = max(1, _BLOCK_BYTES // (per * 32))
        for a in range(0, n, rows):
            block = flat[a : a + rows]
            scores = _next_scores(bits, len(block), ny * nx, w)
            if spec.kind == "random-binary":
                np.less(scores, scores.dtype.type(threshold), out=block)
            else:
                _fixed_fill(scores, k, block)
    elif spec.kind == "hadamard":
        j = np.arange(start, stop)
        hy, hx = _hadamard(ny)[j // nx], _hadamard(nx)[j % nx]
        np.multiply(hy[:, :, None], hx[:, None, :], out=out)
        out += 1
        out /= 2
    else:
        flat[:] = 0.0
        flat[np.arange(n), np.arange(start, stop)] = 1.0
    return out


# Chunk size for streaming passes over an ensemble.  Fixed so that summation
# order never depends on the caller.  On 64x64, 32 to 256 ran equally fast;
# 128 keeps a pass's workspace at 4 MB and its Python overhead small on small
# grids.
STREAM_CHUNK = 128


def iter_chunks(spec: EnsembleSpec):
    """Yield ``(lo, hi, patterns lo..hi-1)`` over the ensemble in fixed chunks.

    A pass allocates one chunk-sized workspace and one bit generator, and
    every chunk it yields is a view of that workspace: a chunk is valid only
    until the next one is asked for, so a caller that keeps one must copy it.
    """
    work = np.empty((min(STREAM_CHUNK, spec.count), *spec.grid.shape))
    bits = np.random.Philox(key=_key(spec.seed, _STREAM_PATTERNS))
    for lo in range(0, spec.count, STREAM_CHUNK):
        hi = min(lo + STREAM_CHUNK, spec.count)
        yield lo, hi, pattern_batch(spec, lo, hi, work[: hi - lo], bits)


def _lag_sums(stack: np.ndarray, lags: list[tuple[int, int]]) -> np.ndarray:
    """sum_p s(p) s(p+lag) per row s of an (n, ny, nx) stack: shape (n, len(lags)).

    Rows are shifted a block at a time, so no copy of the whole stack is made.
    """
    rows = max(1, _BLOCK_BYTES // stack[0].nbytes)
    out = np.empty((len(stack), len(lags)))
    for a in range(0, len(stack), rows):
        block = stack[a : a + rows]
        for i, (dy, dx) in enumerate(lags):
            out[a : a + rows, i] = np.einsum(
                "jyx,jyx->j", block, np.roll(block, (-dy, -dx), axis=(1, 2))
            )
    return out


def ensemble_autocorrelations(
    spec: EnsembleSpec, lags: list[tuple[int, int]], counts: list[int] | None = None
) -> np.ndarray:
    """Mean-removed ensemble autocorrelation at several pixel lags (dy, dx).

    Each value is (1/J) sum_j <dM_j(p) dM_j(p+lag)>_p with dM_j = M_j minus
    the per-pixel ensemble mean and periodic indexing in p.  At zero lag this
    is the mean per-pixel variance; away from zero it decays like 1/sqrt(J)
    for random ensembles and vanishes for a complete Hadamard basis.

    Row i holds the values for the ensemble's first ``counts[i]`` patterns
    (default: all of them), one column per lag.  Those ensembles are prefixes
    of one stream, so a single pass serves every count and every lag through
    the moment form (1/J) sum_j <M_j(p) M_j(p+lag)>_p - <m(p) m(p+lag)>_p,
    m the per-pixel mean of the J patterns.
    """
    ny, nx = spec.grid.shape
    for dy, dx in lags:
        if abs(dy) >= ny or abs(dx) >= nx:
            raise UsageError(f"lag {(dy, dx)} outside grid {spec.grid.shape}")
    counts = [spec.count] if counts is None else list(counts)
    for c in counts:
        if not 1 <= c <= spec.count:
            raise UsageError(f"prefix count {c} out of range [1, {spec.count}]")
    total = np.zeros(spec.grid.shape)  # per-pixel sum of the patterns so far
    prod = np.zeros(len(lags))  # sum over those patterns of sum_p M(p) M(p+lag)
    out = np.empty((len(counts), len(lags)))
    for lo, hi, batch in iter_chunks(replace(spec, count=max(counts))):
        per_pattern = _lag_sums(batch, lags)
        for i, c in enumerate(counts):
            if lo < c <= hi:
                mean = (total + batch[: c - lo].sum(axis=0)) / c
                moment = (prod + per_pattern[: c - lo].sum(axis=0)) / c
                out[i] = (moment - _lag_sums(mean[None], lags)[0]) / spec.grid.npixels
        total += batch.sum(axis=0)
        prod += per_pattern.sum(axis=0)
    return out

