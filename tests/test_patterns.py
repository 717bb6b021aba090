"""Pattern ensemble tests: determinism, statistics, and orthogonality."""

import numpy as np
import numpy.testing as npt
import pytest

from blindgi import ConfigError, EnsembleSpec, Grid2D, UsageError, generate_pattern
from blindgi.patterns import (
    _STREAM_PATTERNS,
    _fixed_fill,
    ensemble_autocorrelation,
    ensemble_autocorrelations,
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
        # (seed, stream word); P = ceil(npixels / 8), padding scores dropped
        s = spec(n=33, nx=31, count=4, fill=0.25, seed=11)
        per = -(-33 * 31 // 8)
        raw = np.random.Philox(key=[11, _STREAM_PATTERNS]).random_raw(4 * per * 4)
        scores = raw.astype("<u8").view("<u4").reshape(4, per * 8)[:, : 33 * 31]
        want = (scores < 2**30).reshape(4, 33, 31)
        npt.assert_array_equal(pattern_batch(s, 0, 4), want)

    def test_hadamard_first_is_all_ones(self):
        s = spec(kind="hadamard", n=8, count=64)
        npt.assert_array_equal(generate_pattern(s, 0).values, 1.0)

    def test_hadamard_batch_is_kronecker_rows(self):
        # pattern j is row j of kron(H_ny, H_nx), remapped to {0, 1}
        for ny, nx in ((8, 8), (4, 16)):
            s = spec(kind="hadamard", n=ny, nx=nx, count=ny * nx)
            want = (1 + np.kron(hadamard(ny), hadamard(nx))) / 2
            npt.assert_array_equal(pattern_batch(s, 0, s.count).reshape(s.count, -1), want)
            npt.assert_array_equal(pattern_batch(s, 5, 21).reshape(16, -1), want[5:21])

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
        # boundaries and when npixels % 8 != 0 (33 x 31)
        for kind in ("random-binary", "random-fixed-fill"):
            for n, nx in ((64, 64), (33, 31)):
                s = spec(kind=kind, n=n, nx=nx, count=300, fill=0.3)
                full = pattern_batch(s, 0, s.count)
                for a, b in ((0, 1), (5, 133), (127, 129), (129, 300), (299, 300)):
                    npt.assert_array_equal(pattern_batch(s, a, b), full[a:b])
                npt.assert_array_equal(generate_pattern(s, 131).values, full[131])


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


def max_offpeak_autocorrelation(kind, count, seed, lags=None):
    """Helper shared with the acceptance suite: max |autocorr| over fixed lags."""
    lags = lags or [(1, 0), (0, 1), (1, 1), (2, 3), (5, 0), (0, 7), (3, 3), (6, 2)]
    s = EnsembleSpec(kind=kind, grid=grid(64), count=count, fill_fraction=0.5, seed=seed)
    return max(abs(v) for v in ensemble_autocorrelations(s, lags))


def offpeak_decay_slope(kind="random-binary", exponents=range(8, 15), seeds=(5, 6, 7)):
    """Log-log slope of the off-peak autocorrelation level versus J."""
    logj, logv = [], []
    for k in exponents:
        vals = [max_offpeak_autocorrelation(kind, 2**k, seed) for seed in seeds]
        logj.append(k * np.log10(2.0))
        logv.append(np.mean([np.log10(v) for v in vals]))
    slope = np.polyfit(logj, logv, 1)[0]
    return float(slope)


@pytest.mark.slow
def test_offpeak_decay_is_inverse_sqrt_j():
    slope = offpeak_decay_slope()
    assert abs(slope + 0.5) < 0.1
