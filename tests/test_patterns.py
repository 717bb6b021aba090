"""Pattern ensemble tests: determinism, statistics, and orthogonality."""

import functools
import os
import subprocess
import sys
import warnings
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import blindgi
from blindgi import ConfigError, EnsembleSpec, Grid2D, UsageError, generate_pattern
from blindgi.patterns import (
    _STREAM_PATTERNS,
    _fixed_fill,
    _hadamard,
    _philox,
    ensemble_autocorrelation,
    ensemble_autocorrelations,
    iter_chunks,
    pattern_batch,
)
from scipy.linalg import hadamard


def grid(n=64):
    return Grid2D(nx=n, ny=n, pitch=1e-5)


def spec(kind="random-binary", n=64, count=16, fill=0.5, seed=9, nx=None):
    g = grid(n) if nx is None else Grid2D(nx=nx, ny=n, pitch=1e-5)
    return EnsembleSpec(kind=kind, grid=g, count=count, fill_fraction=fill, seed=seed)


class TestGeneratePattern:
    def test_binary_values(self):
        pat = generate_pattern(spec(), 3)
        assert set(np.unique(pat.values)) <= {0.0, 1.0}

    def test_sample_mean_near_fill(self):
        s = spec(count=8)
        for j in range(8):
            mean = generate_pattern(s, j).values.mean()
            assert abs(mean - 0.5) < 5 / 64  # 10 sigma for 64x64 Bernoulli(1/2)
        # fill 0.3 over 256 patterns: within 5 sigma of the binomial mean
        s = spec(count=256, fill=0.3)
        trials = s.count * s.grid.npixels
        mean = pattern_batch(s, 0, s.count).mean()
        assert abs(mean - 0.3) < 5 * np.sqrt(0.3 * 0.7 / trials)

    def test_deterministic_and_order_independent(self):
        s = spec(count=100)
        a = generate_pattern(s, 57).values
        # generate others in between; regeneration must be bit-identical
        generate_pattern(s, 3), generate_pattern(s, 99)
        b = generate_pattern(s, 57).values
        npt.assert_array_equal(a, b)

    def test_distinct_indices_differ(self):
        s = spec()
        assert not np.array_equal(generate_pattern(s, 0).values, generate_pattern(s, 1).values)

    def test_distinct_seeds_differ(self):
        a = generate_pattern(spec(seed=1), 0).values
        b = generate_pattern(spec(seed=2), 0).values
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
        with pytest.raises(UsageError):
            generate_pattern(spec(count=4), 4)

    def test_fixed_fill_exact_count(self):
        s = spec(kind="random-fixed-fill", count=8)
        for j in range(8):
            assert generate_pattern(s, j).values.sum() == 64 * 64 // 2
        # the extreme fills: k = 1 and k = npixels - 1, on both grids
        for n, nx in ((64, 64), (33, 31)):
            npix = n * nx
            for fill, k in ((1 / npix, 1), (1e-9, 1), ((npix - 1) / npix, npix - 1)):
                s = spec(kind="random-fixed-fill", n=n, nx=nx, count=200, fill=fill)
                sums = pattern_batch(s, 0, s.count).sum(axis=(1, 2))
                npt.assert_array_equal(sums, k)

    def test_fixed_fill_repairs_ties(self):
        # row 0 ties its k-th value below it, row 1 is constant, row 2 has
        # the tie only above the k-th value, row 3 has no ties
        k = 3
        scores = np.array(
            [[5, 1, 5, 5, 0, 9], [7, 7, 7, 7, 7, 7], [4, 0, 1, 6, 6, 6], [3, 0, 5, 1, 4, 2]],
            dtype=np.uint32,
        )
        out = np.full(scores.shape, -1.0)
        _fixed_fill(scores, k, out)
        npt.assert_array_equal(out.sum(axis=1), k)
        assert set(np.unique(out)) == {0.0, 1.0}
        for row, on in zip(scores, out == 1):
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
            npt.assert_array_equal(pattern_batch(s, 0, 4), want.reshape(4, 33, 31))

    def test_hadamard_first_is_all_ones(self):
        s = spec(kind="hadamard", n=8, count=64)
        npt.assert_array_equal(generate_pattern(s, 0).values, 1.0)

    def test_hadamard_batch_is_kronecker_rows(self):
        # pattern j is row j of kron(H_ny, H_nx), remapped to {0, 1}
        for ny, nx in ((8, 8), (4, 16), (64, 64), (2, 32)):
            s = spec(kind="hadamard", n=ny, nx=nx, count=ny * nx)
            want = (1 + np.kron(hadamard(ny), hadamard(nx))) / 2
            npt.assert_array_equal(pattern_batch(s, 0, s.count).reshape(s.count, -1), want)
            npt.assert_array_equal(pattern_batch(s, 5, 21).reshape(16, -1), want[5:21])

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
        pat = generate_pattern(s, 10).values
        assert pat.sum() == 1 and pat[1, 2] == 1

    def test_batch_matches_singles(self):
        s = spec(count=12)
        batch = pattern_batch(s, 2, 7)
        for i, j in enumerate(range(2, 7)):
            npt.assert_array_equal(batch[i], generate_pattern(s, j).values)
        # any sub-batch is the same rows of one stream, across chunk
        # boundaries and when npixels % 8 != 0 (33 x 31), at every score width
        cases = [("random-binary", f) for f in (0.5, 0.25, 0.3)] + [("random-fixed-fill", 0.3)]
        for kind, fill in cases:
            for n, nx in ((64, 64), (33, 31)):
                s = spec(kind=kind, n=n, nx=nx, count=300, fill=fill)
                full = pattern_batch(s, 0, s.count)
                for a, b in ((0, 1), (5, 133), (127, 129), (129, 300), (299, 300)):
                    npt.assert_array_equal(pattern_batch(s, a, b), full[a:b])
                npt.assert_array_equal(generate_pattern(s, 131).values, full[131])


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
        value = ensemble_autocorrelation(s, (0, 0))
        assert abs(value - 0.25) < 3 / np.sqrt(4096 * 64 * 64)

    def test_nonzero_lag_small(self):
        s = spec(count=4096)
        value = ensemble_autocorrelation(s, (1, 0))
        assert abs(value) < 0.25 * 4 / np.sqrt(4096 * 64 * 64)

    def test_hadamard_complete_basis_off_peak_zero(self):
        s = spec(kind="hadamard", n=8, count=64)
        for lag in [(1, 0), (0, 1), (3, 5)]:
            assert abs(ensemble_autocorrelation(s, lag)) < 1e-12

    def test_hadamard_complete_basis_diagonal(self):
        # sum_j dM_j(p) dM_j(p') over the full basis is exactly diagonal
        s = spec(kind="hadamard", n=4, count=16)
        stack = pattern_batch(s, 0, 16).reshape(16, -1)
        d = stack - stack.mean(axis=0)
        gram = d.T @ d
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12

    def test_lag_out_of_range(self):
        with pytest.raises(UsageError):
            ensemble_autocorrelation(spec(n=8, count=4), (8, 0))

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
    mean = sum(batch.sum(axis=0) for _, _, batch in iter_chunks(s)) / s.count
    acc = np.zeros(len(lags))
    for _, _, batch in iter_chunks(s):
        d = batch - mean
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
