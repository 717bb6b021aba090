"""Preset source-pattern ensembles.

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

A chunk of patterns is packed bits, for every kind: pattern j is one row of
``ceil(npixels / 8)`` uint8 bytes, and bit i (little bit order) of byte b is
pixel ``8b + i`` in row-major order, 1 where the pixel is on; the padding bits
of the last byte are 0.  At w = 1 the inverted Philox bytes already are that
row.  Only this module knows the layout: ``unpack`` turns rows into uint8 0/1
patterns, and ``matvec`` and ``covariance`` give the product M x and the
covariance M^T (w - mean w) / J of the J x npixels 0/1 pattern matrix M
through per-byte tables.  ``matvec_covariance`` gives b = M x and the
covariance of b from the same pass, so a run that needs both regenerates its
patterns once.
``matvec`` reads only the byte positions where x has a nonzero pixel, so an
x that is 0 off a small object costs one lookup per byte of the object's
pixels.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, UsageError
from .grid import Grid2D, unit_scale

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
        if self.kind == "random-binary" and not 0 < round(self.fill_fraction * 2**32) < 2**32:
            raise ConfigError(
                f"ensemble.fill_fraction = {self.fill_fraction!r} rounds to an all-dark or "
                "all-lit random-binary pattern: its 32-bit scores need a fill in "
                "(2^-33, 1 - 2^-33)"
            )
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


def _next_bytes(bits: np.random.Philox, n: int, per: int) -> np.ndarray:
    """The next n patterns' Philox words as bytes, shape (n, per * 32), for
    patterns of ``per`` counters each."""
    raw = bits.random_raw(n * per * 4).astype("<u8", copy=False)
    return raw.view(np.uint8).reshape(n, per * 32)


def _fixed_fill(scores: np.ndarray, k: int) -> np.ndarray:
    """Bool rows (n, npix), True on each row's k lowest scores.

    The k-th order statistic (counting from 0) comes from partitioning a copy
    of the scores.  A row's pixels below that statistic are exactly its k
    lowest unless a lower score ties it; such a row fills up with the tied
    pixels of lowest index, so the partition's order among equal scores,
    which numpy leaves open, never shows.
    """
    part = scores.copy()
    part.partition(k, axis=1)
    kth = part[:, k : k + 1]
    tied = np.flatnonzero(part[:, :k].max(axis=1) == kth[:, 0])
    on = scores < kth
    for i in tied:
        at = scores[i] == kth[i]
        on[i] |= at & (np.cumsum(at) <= k - on[i].sum())
    return on


def _pack(on: np.ndarray) -> np.ndarray:
    """Packed rows of a bool (n, npixels) array; the padding bits are 0."""
    return np.packbits(on, axis=1, bitorder="little")


def packed_width(grid: Grid2D) -> int:
    """Bytes in one packed pattern row: ceil(npixels / 8)."""
    return -(-grid.npixels // 8)


# Bytes of Philox words a random batch draws at a time.
_BLOCK_BYTES = 1 << 18


def pattern_batch(
    spec: EnsembleSpec,
    start: int,
    stop: int,
    bits: np.random.Philox | None = None,
) -> np.ndarray:
    """Patterns start..stop-1 as packed rows, a new (stop-start, ceil(npixels/8)) uint8 array.

    Bit i (little bit order) of byte b of a row is pixel 8b + i in row-major
    order, 1 where it is on; the padding bits of the last byte are 0.
    ``unpack`` turns rows into uint8 0/1 patterns.  A given Philox ``bits``
    continues a pass: the batches before this one left it at pattern
    ``start``'s first counter.  Without it the batch starts a generator there.
    """
    if not 0 <= start <= stop <= spec.count:
        raise UsageError(f"batch range [{start}, {stop}) out of bounds for count {spec.count}")
    ny, nx = spec.grid.shape
    npix, nb, n = ny * nx, packed_width(spec.grid), stop - start
    if spec.kind in ("random-binary", "random-fixed-fill"):
        fixed = spec.kind == "random-fixed-fill"
        fill = spec.fill_fraction
        w = 32 if fixed else _score_bits(fill)
        k = min(max(int(round(fill * npix)), 1), npix - 1)
        threshold = round(fill * 2**w)
        per = -(-npix * w // 256)
        if bits is None:
            bits = np.random.Philox(key=_key(spec.seed, _STREAM_PATTERNS), counter=start * per)
        rows = max(1, _BLOCK_BYTES // (per * 32))
        out = np.empty((n, nb), dtype=np.uint8)
        for a in range(0, n, rows):
            block = out[a : a + rows]
            raw = _next_bytes(bits, len(block), per)
            if w == 1:  # a pixel is on where its bit is below 1
                np.invert(raw[:, :nb], out=block)
            else:
                scores = raw.view(f"<u{w // 8}")[:, :npix]
                block[...] = _pack(_fixed_fill(scores, k) if fixed else scores < threshold)
        if w == 1 and npix % 8:
            out[:, -1] &= (1 << npix % 8) - 1  # zero the padding bits
        return out
    j = np.arange(start, stop)
    if spec.kind == "hadamard":
        # Sylvester order: H[r, y] = (-1)^popcount(r & y), and pixel (y, x) of
        # row j of kron(H_ny, H_nx) is on where its two signs agree
        hy = np.bitwise_count((j // nx)[:, None] & np.arange(ny)) % 2
        hx = np.bitwise_count((j % nx)[:, None] & np.arange(nx)) % 2
        return _pack((hy[:, :, None] == hx[:, None, :]).reshape(n, npix))
    out = np.zeros((n, nb), dtype=np.uint8)
    out[np.arange(n), j // 8] = 1 << (j % 8)
    return out


def unpack(spec: EnsembleSpec, packed: np.ndarray) -> np.ndarray:
    """Packed pattern rows as a uint8 (n, ny, nx) array of 0s and 1s."""
    on = np.unpackbits(packed, axis=1, count=spec.grid.npixels, bitorder="little")
    return on.reshape(-1, *spec.grid.shape)


# Chunk size for streaming passes over an ensemble.  Fixed so that summation
# order never depends on the caller.  On 64x64, 32 to 256 ran equally fast;
# 128 keeps a chunk at 64 KB and a pass's Python overhead small on small
# grids.
STREAM_CHUNK = 128


def iter_chunks(spec: EnsembleSpec):
    """Yield ``(lo, hi, packed rows of patterns lo..hi-1)`` over the ensemble in fixed chunks.

    A pass continues one bit generator from counter 0, and each chunk is a
    new array (128 x 512 bytes at 64x64) that stays valid after the next one
    is asked for.
    """
    bits = np.random.Philox(key=_key(spec.seed, _STREAM_PATTERNS))
    for lo in range(0, spec.count, STREAM_CHUNK):
        hi = min(lo + STREAM_CHUNK, spec.count)
        yield lo, hi, pattern_batch(spec, lo, hi, bits)


# _BYTE_BITS[v, i] is bit i of byte value v, little bit order.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.float64)


def _pass(spec: EnsembleSpec, x=None, w=None, covary: bool = False):
    """The one pass over the ensemble behind every product: ``(b, c)``.

    Given an image x, b = M x.  x becomes the per-byte table T[b, v] =
    sum_i bit_i(v) x[8b + i], 1 MB at 64x64, and the product for a packed row
    r is sum_b T[b, r[b]] over the byte positions b where x has a nonzero
    pixel, since T[b] is 0 at every other: one lookup per eight pixels, and
    no float64 pattern.  Otherwise b is None.

    Given a length-count w, or x and ``covary``, c is the covariance
    M^T (s - mean s) / J of s = w, or of s = b, as a (ny, nx) float64 image;
    otherwise c is None.  Each chunk adds 2^-k s to a histogram H[b, v] over
    (byte position, byte value) of its packed rows, k fixed before the pass
    so that the sum cannot overflow: s's own exponent for a given w, and for
    b the bound |b_j| <= npixels max|x|.  At the end H becomes pixels,
    x[8b + i] = sum_v bit_i(v) H[b, v], and the mean, the on-count correction
    and the 1/J are taken at s's unit scale (``grid.unit_scale``) before 2^e
    scales c back.  A power of two scales every value exactly unless it is
    subnormal, so a gathered b gives the c of the same b given as w, bit for
    bit.  ``np.add.at`` adds in place, in pattern order: a per-chunk
    ``np.bincount`` plus a sum ran slower, and it held a second histogram.
    The on-count M^T 1 is exact: a chunk's unpacked rows sum in uint8, and
    a chunk adds at most STREAM_CHUNK = 128 to a pixel.

    A chunk's indices idx[j, c] = 256 b + r[b], b the c-th byte position read
    (every one for the scatter, the used ones for a gather alone), are the
    flat indices of its rows' entries in a raveled table: one intp workspace
    holds 256 b, whose low byte is 0, and each chunk copies its rows, or
    their columns at those positions, into the low bytes.
    """
    grid, nb = spec.grid, packed_width(spec.grid)
    scatter = w is not None or covary
    b = gather = None
    if x is not None:
        padded = np.zeros(nb * 8)
        padded[: grid.npixels] = np.reshape(x, grid.npixels)
        octets = padded.reshape(-1, 8)
        table = (octets @ _BYTE_BITS.T).ravel()
        used = np.flatnonzero(octets.any(axis=1))
        gather = None if len(used) == nb else used
        b = np.empty(spec.count)
    if scatter:
        s, k = (w, 0) if w is not None else (b, grid.npixels.bit_length())
        k += int(np.frexp(np.abs(x if w is None else w).max())[1])
        hist = np.zeros(nb * 256)
        count = np.zeros(nb * 8, dtype=np.uint64)
    whole = scatter or gather is None
    positions = np.arange(nb) if whole else gather
    work = np.empty((min(STREAM_CHUNK, spec.count), len(positions)), dtype=np.intp)
    work[...] = 256 * positions
    low = 0 if sys.byteorder == "little" else work.itemsize - 1
    low_bytes = work.view(np.uint8).reshape(*work.shape, work.itemsize)[..., low]
    # Per-chunk temporaries are freed before the next chunk is drawn, so a
    # pass holds the tables, the index workspace and one chunk's worth.
    for lo, hi, packed in iter_chunks(spec):
        idx = work[: hi - lo]
        low_bytes[: hi - lo] = packed if whole else packed[:, positions]
        if x is not None:
            cols = idx[:, gather] if scatter and gather is not None else idx
            np.take(table, cols).sum(axis=1, out=b[lo:hi])
        if scatter:
            np.add.at(hist, idx.ravel(), np.repeat(np.ldexp(s[lo:hi], -k), nb))
            count += np.unpackbits(packed, axis=1, bitorder="little").sum(axis=0, dtype=np.uint8)
    if not scatter:
        return b, None
    total = (hist.reshape(-1, 256) @ _BYTE_BITS).ravel()[: grid.npixels]
    unit, e = unit_scale(s)
    on = count[: grid.npixels].astype(np.float64)
    c = (np.ldexp(total, k - e) - unit.mean() * on) / spec.count
    return b, np.ldexp(c, e).reshape(grid.shape)


def matvec(spec: EnsembleSpec, x: np.ndarray) -> np.ndarray:
    """M @ x.ravel(), a length-count float64 array, for M the count x npixels
    0/1 pattern matrix and x an image of npixels values (any shape).

    One pass of per-byte table lookups that reads only the byte positions
    where x has a nonzero pixel; when every position holds one the gather
    reads whole rows.
    """
    return _pass(spec, x=x)[0]


def covariance(spec: EnsembleSpec, w: np.ndarray) -> np.ndarray:
    """M^T (w - mean w) / J as a (ny, nx) float64 image, for M the J x npixels
    0/1 pattern matrix and w a length-J vector: the mean-removed weighted
    mean of the patterns, from one pass that scatters w into per-byte
    histograms in pattern order.  It is (M^T w - mean(w) M^T 1) / J, with
    each pixel's exact on-count M^T 1, which cancels the mean's share of
    M^T w: at J = 2^16 on 64x64 fixed-fill patterns that costs about 1e-11 of
    the peak (Chan, Golub and LeVeque, Am. Stat. 37, 242 (1983), bound the
    loss by the ratio of mean to spread).
    """
    return _pass(spec, w=np.reshape(w, spec.count))[1]


def matvec_covariance(spec: EnsembleSpec, x: np.ndarray):
    """``(b, covariance(spec, b))`` for b = ``matvec(spec, x)``, bit for bit,
    from the one pass that gathers b."""
    return _pass(spec, x=x, covary=True)
