"""Pattern ensemble tests: determinism, statistics, and orthogonality."""

import functools
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import blindgi
from blindgi import ConfigError, EnsembleSpec, Grid2D, UsageError
from blindgi import objects
from blindgi.config import RunConfig
from blindgi.correlation import correlate
from blindgi.forward import MeasurementSet, NoiseModel, psf_for, simulate
from blindgi.patterns import (
    KINDS,
    STREAM_CHUNK,
    _STREAM_PATTERNS,
    _fixed_fill,
    _hadamard,
    _philox,
    _table_indices,
    iter_chunks,
    matvec,
    packed_width,
    pattern_batch,
    rmatvec,
    unpack,
)
from scipy.linalg import hadamard

from reference import ensemble_autocorrelations


def grid(n=64):
    return Grid2D(nx=n, ny=n, pitch=1e-5)


def spec(kind="random-binary", n=64, count=16, fill=0.5, seed=9, nx=None):
    g = grid(n) if nx is None else Grid2D(nx=nx, ny=n, pitch=1e-5)
    return EnsembleSpec(kind=kind, grid=g, count=count, fill_fraction=fill, seed=seed)


def dense(s, start, stop):
    """Patterns start..stop-1 of the ensemble ``s`` as a float64 (n, ny, nx) stack,
    so that arithmetic such as ``1 - p`` cannot wrap as uint8 would."""
    return unpack(s, pattern_batch(s, start, stop)).astype(np.float64)


def one(s, j):
    """Pattern ``j`` of the ensemble ``s``, generated on its own."""
    return dense(s, j, j + 1)[0]


class TestGeneratePattern:
    def test_binary_values(self):
        pat = one(spec(), 3)
        assert set(np.unique(pat)) <= {0.0, 1.0}

    def test_sample_mean_near_fill(self):
        s = spec(count=8)
        for j in range(8):
            mean = one(s, j).mean()
            assert abs(mean - 0.5) < 5 / 64  # 10 sigma for 64x64 Bernoulli(1/2)
        # fill 0.3 over 256 patterns: within 5 sigma of the binomial mean
        s = spec(count=256, fill=0.3)
        trials = s.count * s.grid.npixels
        mean = dense(s, 0, s.count).mean()
        assert abs(mean - 0.3) < 5 * np.sqrt(0.3 * 0.7 / trials)

    def test_deterministic_and_order_independent(self):
        s = spec(count=100)
        a = one(s, 57)
        # generate others in between; regeneration must be bit-identical
        one(s, 3), one(s, 99)
        b = one(s, 57)
        npt.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        s = spec()
        assert not np.array_equal(one(s, 0), one(s, 1))

    def test_distinct_seeds_differ(self):
        a = one(spec(seed=1), 0)
        b = one(spec(seed=2), 0)
        assert not np.array_equal(a, b)

    def test_negative_seeds_have_own_streams(self):
        # a seed is taken mod 2^64; key words at or above 2^63 keep their
        # low bits, so -1 is not 0 and -2 is not -3 (no float cast, no warning)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pats = {s: pattern_batch(spec(seed=s, count=2), 0, 2) for s in (0, -1, -2, -3)}
            key = _philox(-1, 5).bit_generator.state["state"]["key"]
        assert not np.array_equal(pats[-1], pats[0])
        assert not np.array_equal(pats[-2], pats[-3])
        npt.assert_array_equal(key, [2**64 - 1, 5])

    def test_index_range_checked(self):
        for start, stop in ((4, 5), (-1, 1), (3, 2)):
            with pytest.raises(UsageError, match="out of bounds for count 4"):
                pattern_batch(spec(count=4), start, stop)

    def test_fixed_fill_exact_count(self):
        s = spec(kind="random-fixed-fill", count=8)
        for j in range(8):
            assert one(s, j).sum() == 64 * 64 // 2
        # the extreme fills: k = 1 and k = npixels - 1, on both grids
        for n, nx in ((64, 64), (33, 31)):
            npix = n * nx
            for fill, k in ((1 / npix, 1), (1e-9, 1), ((npix - 1) / npix, npix - 1)):
                s = spec(kind="random-fixed-fill", n=n, nx=nx, count=200, fill=fill)
                sums = dense(s, 0, s.count).sum(axis=(1, 2))
                npt.assert_array_equal(sums, k)

    def test_binary_fill_must_round_inside_the_scores(self):
        # a random-binary fill that rounds to 0 or 2^32 of the 32-bit scores
        # would give all-dark or all-lit patterns; just inside, one pixel in
        # 2^32 is on or off, and the fill 2^-16 reads exact 16-bit scores
        lo, hi = 2.0**-33, 1 - 2.0**-33
        for fill in (1e-12, lo, hi, 1 - 1e-12):
            with pytest.raises(ConfigError, match="ensemble.fill_fraction"):
                spec(fill=fill)
        for fill in (np.nextafter(lo, 1), np.nextafter(hi, 0), 2.0**-16, 1 - 2.0**-16):
            spec(fill=fill)
        # fixed-fill turns k >= 1 pixels on at any fill in (0, 1)
        spec(kind="random-fixed-fill", fill=1e-12)

    def test_fixed_fill_repairs_ties(self):
        # row 0 ties its k-th value below it, row 1 is constant, row 2 has
        # the tie only above the k-th value, row 3 has no ties
        k = 3
        scores = np.array(
            [[5, 1, 5, 5, 0, 9], [7, 7, 7, 7, 7, 7], [4, 0, 1, 6, 6, 6], [3, 0, 5, 1, 4, 2]],
            dtype=np.uint32,
        )
        part = np.full((5, 6), 99, dtype=np.uint32)  # scratch with a spare row
        out = _fixed_fill(scores, k, part)
        assert out.dtype == bool
        npt.assert_array_equal(out.sum(axis=1), k)
        for row, on in zip(scores, out):
            assert row[on].max() <= row[~on].min()
        npt.assert_array_equal(out[2], scores[2] < 6)
        npt.assert_array_equal(out[3], scores[3] < 3)

    def test_random_stream_layout(self):
        # pattern j reads counters [j*P, (j+1)*P) of one Philox stream keyed by
        # (seed, stream word); P = ceil(npixels * w / 256) and pixel i is on
        # where the little-endian w-bit field i is below round(fill * 2^w),
        # padding fields dropped; 33 x 31 * w is no multiple of 256
        npix = 33 * 31
        for fill, w in ((0.5, 1), (0.25, 8), (0.3, 32)):
            s = spec(n=33, nx=31, count=4, fill=fill, seed=11)
            per = -(-npix * w // 256)
            raw = np.random.Philox(key=[11, _STREAM_PATTERNS]).random_raw(4 * per * 4)
            fields = [[(int(word) >> (w * b)) & (2**w - 1) for word in row
                       for b in range(64 // w)] for row in raw.reshape(4, per * 4)]
            want = np.array(fields)[:, :npix] < round(fill * 2**w)
            npt.assert_array_equal(dense(s, 0, 4), want.reshape(4, 33, 31))

    def test_batch_at_a_multiword_counter(self):
        # pattern 2^64 + 5 of a fixed-fill ensemble starts at a counter above
        # 2^64, so the stream counter spans two words; its rows are the k lowest
        # 32-bit scores of the words a fresh stream advanced to that counter reads
        npix, fill = 33 * 31, 0.3
        s = spec(kind="random-fixed-fill", n=33, nx=31, count=2**70, fill=fill, seed=11)
        start, per = 2**64 + 5, -(-npix * 32 // 256)
        bits = np.random.Philox(key=[11, _STREAM_PATTERNS])
        bits.advance(start * per)
        raw = bits.random_raw(2 * per * 4).astype("<u8")
        scores = raw.view("<u4").reshape(2, per * 8)[:, :npix]
        want = np.zeros((2, npix))
        for row, lowest in zip(want, np.argsort(scores, axis=1, kind="stable")):
            row[lowest[: round(fill * npix)]] = 1.0
        npt.assert_array_equal(dense(s, start, start + 2), want.reshape(2, 33, 31))

    def test_hadamard_first_is_all_ones(self):
        s = spec(kind="hadamard", n=8, count=64)
        npt.assert_array_equal(one(s, 0), 1.0)

    def test_hadamard_batch_is_kronecker_rows(self):
        # pattern j is row j of kron(H_ny, H_nx), remapped to {0, 1}
        for ny, nx in ((8, 8), (4, 16), (64, 64), (2, 32)):
            s = spec(kind="hadamard", n=ny, nx=nx, count=ny * nx)
            want = (1 + np.kron(hadamard(ny), hadamard(nx))) / 2
            npt.assert_array_equal(dense(s, 0, s.count).reshape(s.count, -1), want)
            npt.assert_array_equal(dense(s, 5, 21).reshape(16, -1), want[5:21])

    def test_hadamard_builder_matches_scipy(self):
        for k in range(9):
            got, want = _hadamard(2**k), hadamard(2**k)
            assert got.dtype == want.dtype
            npt.assert_array_equal(got, want)

    def test_hadamard_needs_power_of_two(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(kind="hadamard", grid=Grid2D(nx=12, ny=12, pitch=1e-5), count=4)

    def test_hadamard_count_capped(self):
        with pytest.raises(ConfigError):
            EnsembleSpec(kind="hadamard", grid=grid(8), count=65)

    def test_pixel_scan(self):
        s = spec(kind="pixel-scan", n=8, count=64)
        pat = one(s, 10)
        assert pat.sum() == 1 and pat[1, 2] == 1

    def test_batch_matches_singles(self):
        s = spec(count=12)
        batch = dense(s, 2, 7)
        for i, j in enumerate(range(2, 7)):
            npt.assert_array_equal(batch[i], one(s, j))
        # any sub-batch is the same rows of one stream, across chunk
        # boundaries and when npixels % 8 != 0 (33 x 31), at every score width
        cases = [("random-binary", f) for f in (0.5, 0.25, 0.3)] + [("random-fixed-fill", 0.3)]
        for kind, fill in cases:
            for n, nx in ((64, 64), (33, 31)):
                s = spec(kind=kind, n=n, nx=nx, count=300, fill=fill)
                full = pattern_batch(s, 0, s.count)
                for a, b in ((0, 1), (5, 133), (127, 129), (129, 300), (299, 300)):
                    npt.assert_array_equal(pattern_batch(s, a, b), full[a:b])
                npt.assert_array_equal(pattern_batch(s, 131, 132)[0], full[131])


class TestPackedFormat:
    """Bit i (little bit order) of byte b is pixel 8b + i; padding bits are 0."""

    @pytest.mark.parametrize("kind", ["random-binary", "random-fixed-fill", "hadamard",
                                      "pixel-scan"])
    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)], ids=["64x64", "33x31"])
    def test_rows_are_packbits_of_the_patterns(self, kind, shape):
        # hadamard needs power-of-two sides, so it has no padding bits
        ny, nx = (16, 32) if kind == "hadamard" and shape == (33, 31) else shape
        npix = ny * nx
        for fill in (0.5, 0.3):
            s = spec(kind=kind, n=ny, nx=nx, count=min(300, npix), fill=fill)
            packed = pattern_batch(s, 0, s.count)  # crosses the 128-pattern chunk edge
            assert packed.dtype == np.uint8
            assert packed.shape == (s.count, packed_width(s.grid)) == (s.count, -(-npix // 8))
            # decoded by shifts, independently of np.unpackbits
            bits = (packed[:, :, None] >> np.arange(8, dtype=np.uint8)) & 1
            pixels = bits.reshape(s.count, -1)
            patterns = unpack(s, packed)
            assert patterns.dtype == np.uint8 and patterns.shape == (s.count, ny, nx)
            npt.assert_array_equal(pixels[:, :npix], patterns.reshape(s.count, -1))
            assert not pixels[:, npix:].any()  # padding bits
            flat = patterns.reshape(s.count, -1).astype(bool)
            npt.assert_array_equal(np.packbits(flat, axis=1, bitorder="little"), packed)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)], ids=["64x64", "33x31"])
    def test_products_are_dense_products(self, kind, shape):
        # matvec is M @ x and rmatvec is (w - mean w) @ M for the dense 0/1
        # pattern matrix M, on 300 patterns so that the last chunk is partial; hadamard needs
        # power-of-two sides.  x is dense, then 0 on whole bytes, which matvec
        # skips: one pixel, the last pixel (alone in the partial last byte of
        # 33x31), the letter's pixels, and nothing (buckets of exactly 0)
        ny, nx = (16, 32) if kind == "hadamard" and shape == (33, 31) else shape
        rng = np.random.default_rng(0)
        one, last = np.zeros((2, ny, nx), bool)
        one[ny // 3, nx // 5] = last[-1, -1] = True
        letter = objects.letter(Grid2D(nx=nx, ny=ny, pitch=1e-5)).values > 0
        for fill, mask in [(0.5, True), (0.3, True), (0.5, one), (0.5, last), (0.5, letter),
                           (0.5, False)]:
            s = spec(kind=kind, n=ny, nx=nx, count=300, fill=fill)
            m = dense(s, 0, s.count).reshape(s.count, -1)
            x, w = rng.standard_normal((ny, nx)) * mask, rng.standard_normal(s.count)
            mx, mtw = matvec(s, x), rmatvec(s, w)
            if not np.any(mask):
                npt.assert_array_equal(mx, 0.0)
            assert mx.dtype == mtw.dtype == np.float64
            assert mx.shape == (s.count,) and mtw.shape == (ny, nx)
            npt.assert_allclose(mx, m @ x.ravel(), rtol=0, atol=1e-13 * np.abs(x).sum())
            centred = w - w.mean()
            npt.assert_allclose(mtw.ravel(), centred @ m, rtol=0, atol=1e-13 * np.abs(w).sum())
            # the pass that sums w counts each pixel's on-states exactly, so a
            # constant w centres to exactly 0
            for value in (1.0, 0.75):
                npt.assert_array_equal(rmatvec(s, np.full(s.count, value)), 0.0)
            # the adjoint identity <M x, v> = <x, M^T v> for v = w - mean w,
            # within roundoff of the sum of |M[j, p] x[p] w[j]|
            scale = np.abs(w) @ m @ np.abs(x.ravel())
            assert abs(np.dot(mx, centred) - np.sum(x * mtw)) <= 1e-13 * scale


def traced_peak(fn):
    """Peak bytes that ``fn()`` holds at once, numpy buffers included."""
    fn()  # first call untraced: one-time imports and caches are not the pass
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkWorkspace:
    """A pass yields a new array per chunk and holds about one chunk at a time."""

    def test_chunks_match_one_batch(self):
        # every chunk, kept after the next is asked for, equals the same rows
        # of one pattern_batch; the count ends mid-chunk
        cases = [(kind, fill, shape) for kind in ("random-binary", "random-fixed-fill")
                 for fill in (0.5, 0.3) for shape in ((64, 64), (33, 31))]
        cases += [("hadamard", 0.5, (64, 64)), ("pixel-scan", 0.5, (33, 31))]
        for kind, fill, (ny, nx) in cases:
            s = spec(kind=kind, n=ny, nx=nx, count=300, fill=fill)
            chunks = list(iter_chunks(s))
            assert [(lo, hi) for lo, hi, _ in chunks] == [(0, 128), (128, 256), (256, 300)]
            rows = np.concatenate([batch for _, _, batch in chunks])
            npt.assert_array_equal(rows, pattern_batch(s, 0, s.count))
            # a lone batch, across a chunk edge, is the same rows of the pass
            npt.assert_array_equal(pattern_batch(s, 100, 140), rows[100:140])

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)], ids=["64x64", "33x31"])
    def test_table_indices_are_offset_rows(self, kind, shape):
        # idx = packed + 256 b for every chunk of the same pass, the last one
        # partial, over every byte position b or the given ones; hadamard needs
        # power-of-two sides
        ny, nx = (16, 32) if kind == "hadamard" and shape == (33, 31) else shape
        s = spec(kind=kind, n=ny, nx=nx, count=300)
        nb = packed_width(s.grid)
        for positions in (None, np.array([1, 2, 7, nb - 1])):
            cols = np.arange(nb) if positions is None else positions
            spans = []
            for (lo, hi, packed), (ilo, ihi, ipacked, idx) in zip(
                    iter_chunks(s), _table_indices(s, positions), strict=True):
                assert (ilo, ihi) == (lo, hi)
                npt.assert_array_equal(ipacked, packed)
                assert idx.dtype == np.intp and not idx.flags.writeable
                npt.assert_array_equal(idx, np.add(packed[:, cols], 256 * cols))
                spans.append((lo, hi))
            assert spans == [(0, 128), (128, 256), (256, 300)]

    def test_passes_hold_one_chunk(self):
        cfg = RunConfig(ensemble_kind="random-fixed-fill", ensemble_count=3 * STREAM_CHUNK + 44)
        ens, psf = cfg.ensemble(), psf_for(cfg.optical(), cfg.psf_seed)
        obj = objects.from_spec(cfg.grid(), cfg.object_source)
        # the buckets alone, as read from a file: correlate makes its own pass
        ms = MeasurementSet(ens, simulate(obj, psf, ens, NoiseModel(), cfg.psf_seed).buckets)
        # a chunk of float64 patterns; simulate (which also forms the sums)
        # and correlate read packed chunks and never hold one, and the
        # reference ensemble_autocorrelations holds a chunk of bool patterns,
        # a rolled copy and their product, an eighth of one each (0.35 chunks
        # measured)
        chunk_bytes = STREAM_CHUNK * cfg.grid().npixels * 8
        for name, fn, bound in (
            ("simulate", lambda: simulate(obj, psf, ens, NoiseModel(), cfg.psf_seed), 1.0),
            ("correlate", lambda: correlate(ms), 1.0),
            ("ensemble_autocorrelations",
             lambda: ensemble_autocorrelations(ens, [(0, 0), (1, 2), (-3, 5)], [100, ens.count]),
             1.25),
        ):
            peak = traced_peak(fn)
            assert peak < bound * chunk_bytes, f"{name} held {peak / chunk_bytes:.2f} chunks"


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(blindgi.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import sys, blindgi, blindgi.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    assert out.stdout.strip() == "[]"


class TestEnsembleAutocorrelation:
    def test_zero_lag_is_pixel_variance(self):
        s = spec(count=4096)
        value = ensemble_autocorrelations(s, [(0, 0)])[0, 0]
        assert abs(value - 0.25) < 3 / np.sqrt(4096 * 64 * 64)

    def test_nonzero_lag_small(self):
        s = spec(count=4096)
        value = ensemble_autocorrelations(s, [(1, 0)])[0, 0]
        assert abs(value) < 0.25 * 4 / np.sqrt(4096 * 64 * 64)

    def test_hadamard_complete_basis_off_peak_zero(self):
        s = spec(kind="hadamard", n=8, count=64)
        lags = [(1, 0), (0, 1), (3, 5)]
        assert np.max(np.abs(ensemble_autocorrelations(s, lags))) < 1e-12

    def test_hadamard_complete_basis_diagonal(self):
        # sum_j dM_j(p) dM_j(p') over the full basis is exactly diagonal
        s = spec(kind="hadamard", n=4, count=16)
        stack = dense(s, 0, 16).reshape(16, -1)
        d = stack - stack.mean(axis=0)
        gram = d.T @ d
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_lag_out_of_range(self):
        with pytest.raises(UsageError):
            ensemble_autocorrelations(spec(n=8, count=4), [(8, 0)])

    def test_prefix_counts_match_two_pass_form(self):
        # one pass over every prefix count against the mean-then-products
        # reference run on each count's own ensemble
        lags = [(0, 0), (1, 0), (0, 1), (2, 3), (-3, 5)]
        for kind, n, nx in (("random-binary", 33, 31), ("random-fixed-fill", 16, 16),
                            ("hadamard", 16, 16)):
            s = spec(kind=kind, n=n, nx=nx, count=256, fill=0.3)
            counts = [1, 2, 100, 128, 129, 256, 200]
            got = ensemble_autocorrelations(s, lags, counts)
            assert got.shape == (len(counts), len(lags))
            for row, c in zip(got, counts):
                npt.assert_allclose(row, two_pass_autocorrelations(replace(s, count=c), lags),
                                    rtol=0, atol=1e-12)
        with pytest.raises(UsageError):
            ensemble_autocorrelations(s, lags, [257])
        with pytest.raises(UsageError):
            ensemble_autocorrelations(s, lags, [0])


def two_pass_autocorrelations(s, lags):
    """Reference form: the per-pixel mean in one pass, then mean-removed products."""
    mean = sum(unpack(s, packed).sum(axis=0) for _, _, packed in iter_chunks(s)) / s.count
    acc = np.zeros(len(lags))
    for _, _, packed in iter_chunks(s):
        d = unpack(s, packed) - mean
        for i, (dy, dx) in enumerate(lags):
            acc[i] += float(np.einsum("jyx,jyx->", d, np.roll(d, (-dy, -dx), axis=(1, 2))))
    return acc / (s.count * s.grid.npixels)


@functools.lru_cache(maxsize=None)
def max_offpeak_autocorrelations(kind, seed, exponents=tuple(range(8, 15))):
    """Helper shared with the acceptance suite: max |autocorr| over fixed lags
    for each J = 2^k, k in ``exponents``, from one pass over the ensemble.

    Cached, so criterion 3 and the decay test below share one computation."""
    lags = [(1, 0), (0, 1), (1, 1), (2, 3), (5, 0), (0, 7), (3, 3), (6, 2)]
    counts = [2**k for k in exponents]
    s = EnsembleSpec(kind=kind, grid=grid(64), count=max(counts), fill_fraction=0.5, seed=seed)
    return tuple(np.abs(ensemble_autocorrelations(s, lags, counts)).max(axis=1))


def offpeak_decay_slope(kind="random-binary", exponents=range(8, 15), seeds=(5, 6, 7)):
    """Log-log slope of the off-peak autocorrelation level versus J."""
    vals = np.array([max_offpeak_autocorrelations(kind, seed, tuple(exponents)) for seed in seeds])
    logj = np.array(exponents) * np.log10(2.0)
    slope = np.polyfit(logj, np.log10(vals).mean(axis=0), 1)[0]
    return float(slope)


@pytest.mark.slow
def test_offpeak_decay_is_inverse_sqrt_j():
    slope = offpeak_decay_slope()
    assert abs(slope + 0.5) < 0.1
