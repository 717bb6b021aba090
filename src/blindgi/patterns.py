"""Preset source-pattern ensembles and their ensemble statistics.

Patterns are never stored: each one is regenerated on demand from
``(seed, index)`` with a counter-based generator, so ensembles of 10^6
patterns cost no memory and neither generation order nor chunking can
change a pattern.

Both random kinds read one Philox stream per ensemble, keyed by
``(seed, _STREAM_PATTERNS)``.  Each Philox counter yields four 64-bit words,
read as eight little-endian 32-bit scores; pattern j owns the counters
``[j*P, (j+1)*P)`` with ``P = ceil(npixels / 8)`` and uses its first
``npixels`` scores in row-major pixel order.  A chunk of patterns is thus one
``advance`` plus one ``random_raw`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .grid import Grid2D

KINDS = ("random-binary", "random-fixed-fill", "hadamard", "pixel-scan")

_MASK64 = (1 << 64) - 1

# Key word of the random pattern stream derived from the ensemble seed.
_STREAM_PATTERNS = 0x5041_5400


def _philox(*key_words: int) -> np.random.Generator:
    """Counter-based stream keyed by up to two 64-bit words."""
    key = np.array([int(w) & _MASK64 for w in key_words], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _hadamard(n: int) -> np.ndarray:
    """Sylvester-order +-1 integer Hadamard matrix of power-of-two order ``n``."""
    h = np.ones((1, 1), dtype=int)
    while len(h) < n:  # double: H -> [[H, H], [H, -H]]
        h = np.block([[h, h], [h, -h]])
    return h


@dataclass(frozen=True)
class Pattern:
    """One binary source pattern with its ordinal in the ensemble."""

    grid: Grid2D
    values: np.ndarray
    index: int

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ConfigError(f"pattern shape {vals.shape} does not match grid")
        if not np.all((vals == 0) | (vals == 1)):
            raise ConfigError("pattern values must be 0 or 1")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for an ensemble of binary patterns.

    kind: "random-binary" (i.i.d. Bernoulli pixels), "random-fixed-fill"
    (exactly round(fill * nx * ny) pixels on, positions drawn without
    replacement, which removes the per-pattern fill fluctuation and with it
    the dominant bucket background noise), "hadamard" (rows of the 2-D
    Walsh-Hadamard basis remapped to {0,1}), or "pixel-scan" (one pixel on
    per pattern, raster order; a complete scan needs count = nx*ny).
    """

    kind: str
    grid: Grid2D
    count: int
    fill_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown ensemble kind {self.kind!r}; expected one of {KINDS}")
        if self.count < 1:
            raise ConfigError(f"ensemble count must be >= 1, got {self.count}")
        if self.kind in ("random-binary", "random-fixed-fill") and not 0 < self.fill_fraction < 1:
            raise ConfigError(f"fill_fraction must be in (0,1), got {self.fill_fraction}")
        if self.kind == "hadamard":
            if not (_is_pow2(self.grid.nx) and _is_pow2(self.grid.ny)):
                raise ConfigError("hadamard ensemble needs power-of-two grid dimensions")
            if self.count > self.grid.npixels:
                raise ConfigError(
                    f"hadamard ensemble supports at most {self.grid.npixels} patterns"
                )
        if self.kind == "pixel-scan" and self.count > self.grid.npixels:
            raise ConfigError("pixel-scan ensemble supports at most nx*ny patterns")


def generate_pattern(spec: EnsembleSpec, j: int) -> Pattern:
    """Pattern ``j`` of the ensemble; a pure function of (spec.seed, j)."""
    if not 0 <= j < spec.count:
        raise UsageError(f"pattern index {j} out of range [0, {spec.count})")
    return Pattern(spec.grid, pattern_batch(spec, j, j + 1)[0], j)


def _scores(spec: EnsembleSpec, start: int, stop: int) -> np.ndarray:
    """uint32 scores of patterns start..stop-1, shape (stop-start, npixels)."""
    npix = spec.grid.npixels
    per = -(-npix // 8)  # counters per pattern
    bits = _philox(spec.seed, _STREAM_PATTERNS).bit_generator
    bits.advance(start * per)
    raw = bits.random_raw((stop - start) * per * 4)
    return raw.astype("<u8", copy=False).view("<u4").reshape(stop - start, per * 8)[:, :npix]


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


def pattern_batch(spec: EnsembleSpec, start: int, stop: int) -> np.ndarray:
    """Patterns start..stop-1 stacked as a (stop-start, ny, nx) float array."""
    if not 0 <= start <= stop <= spec.count:
        raise UsageError(f"batch range [{start}, {stop}) out of bounds for count {spec.count}")
    ny, nx = spec.grid.shape
    n = stop - start
    out = np.empty((n, ny, nx))
    flat = out.reshape(n, ny * nx)
    if spec.kind == "random-binary":
        threshold = np.uint32(min(round(spec.fill_fraction * 2**32), 2**32 - 1))
        np.less(_scores(spec, start, stop), threshold, out=flat)
    elif spec.kind == "random-fixed-fill":
        k = min(max(int(round(spec.fill_fraction * ny * nx)), 1), ny * nx - 1)
        _fixed_fill(_scores(spec, start, stop), k, flat)
    elif spec.kind == "hadamard":
        j = np.arange(start, stop)
        hy, hx = _hadamard(ny)[j // nx], _hadamard(nx)[j % nx]
        out[:] = (1 + hy[:, :, None] * hx[:, None, :]) / 2
    else:
        flat[:] = 0.0
        flat[np.arange(n), np.arange(start, stop)] = 1.0
    return out


# Chunk size for streaming passes over an ensemble.  Fixed so that summation
# order never depends on the caller.  On 64x64, 32 to 256 ran equally fast;
# 128 keeps a chunk's arrays at 6 MB and its Python overhead small on small
# grids.
STREAM_CHUNK = 128


def iter_chunks(spec: EnsembleSpec):
    """Yield ``(lo, hi, patterns lo..hi-1)`` over the ensemble in fixed chunks."""
    for lo in range(0, spec.count, STREAM_CHUNK):
        hi = min(lo + STREAM_CHUNK, spec.count)
        yield lo, hi, pattern_batch(spec, lo, hi)


def ensemble_mean(spec: EnsembleSpec) -> np.ndarray:
    """Per-pixel mean of the ensemble, streamed in fixed chunk order."""
    acc = np.zeros(spec.grid.shape)
    for _, _, batch in iter_chunks(spec):
        acc += batch.sum(axis=0)
    return acc / spec.count


def ensemble_autocorrelations(
    spec: EnsembleSpec, lags: list[tuple[int, int]]
) -> list[float]:
    """Mean-removed ensemble autocorrelation at several pixel lags (dy, dx).

    Each value is (1/J) sum_j <dM_j(p) dM_j(p+lag)>_p with dM_j = M_j minus
    the per-pixel ensemble mean and periodic indexing in p.  At zero lag this
    is the mean per-pixel variance; away from zero it decays like 1/sqrt(J)
    for random ensembles and vanishes for a complete Hadamard basis.

    One streaming pass serves all lags, so scanning lags costs little more
    than a single evaluation.
    """
    ny, nx = spec.grid.shape
    for dy, dx in lags:
        if abs(dy) >= ny or abs(dx) >= nx:
            raise UsageError(f"lag {(dy, dx)} outside grid {spec.grid.shape}")
    mean = ensemble_mean(spec)
    acc = np.zeros(len(lags))
    for _, _, batch in iter_chunks(spec):
        d = batch - mean
        for i, (dy, dx) in enumerate(lags):
            d_shift = np.roll(d, (-dy, -dx), axis=(1, 2))
            acc[i] += float(np.einsum("jyx,jyx->", d, d_shift))
    return list(acc / (spec.count * spec.grid.npixels))


def ensemble_autocorrelation(spec: EnsembleSpec, lag: tuple[int, int]) -> float:
    """Single-lag form of :func:`ensemble_autocorrelations`."""
    return ensemble_autocorrelations(spec, [lag])[0]
