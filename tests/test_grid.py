"""Grid, convolution, and disk-autocorrelation tests.

The convolution path is checked against a slow direct-sum oracle that shares
nothing with the implementation.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from blindgi import (
    ConfigError,
    DataError,
    Grid2D,
    MagnitudeSpectrum,
    RealImage,
    circ_convolve,
    disk_autocorrelation,
    point_reflect,
)
from blindgi.grid import centered_disk


def grid(n=8, pitch=1e-5):
    return Grid2D(nx=n, ny=n, pitch=pitch)


def circ_convolve_direct(a, b):
    """O(N^4) periodic convolution oracle."""
    ny, nx = a.shape
    out = np.zeros((ny, nx))
    for y in range(ny):
        for x in range(nx):
            acc = 0.0
            for v in range(ny):
                for u in range(nx):
                    acc += a[v, u] * b[(y - v) % ny, (x - u) % nx]
            out[y, x] = acc
    return out


def disk_overlap_direct(n, d):
    """Overlap-pixel counts of a disk with its own shifted copy, centered layout."""
    g = grid(n)
    mask = centered_disk(g, d)
    ys, xs = np.nonzero(mask)
    pts = set(zip(ys.tolist(), xs.tolist()))
    out = np.zeros((n, n))
    for ly in range(-(n // 2), n - n // 2):
        for lx in range(-(n // 2), n - n // 2):
            out[ly + n // 2, lx + n // 2] = sum(
                (y + ly, x + lx) in pts for (y, x) in pts
            )
    return out / len(pts)


class TestGrid2D:
    def test_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            Grid2D(nx=1, ny=8, pitch=1e-5)
        with pytest.raises(ConfigError):
            Grid2D(nx=8, ny=8, pitch=0.0)

    def test_frequency_axes(self):
        g = grid(8, pitch=2e-6)
        fy, fx = g.freq_axes()
        assert fy[4] == 0.0
        npt.assert_allclose(fx[5], 1.0 / (8 * 2e-6))
        npt.assert_allclose(g.nyquist, 1.0 / (4e-6))

    def test_non_square_grid(self):
        g = Grid2D(nx=16, ny=8, pitch=1e-5)
        assert g.shape == (8, 16)
        rng = np.random.default_rng(5)
        a, b = rng.random((8, 16)), rng.random((8, 16))
        got = circ_convolve(RealImage(g, a), RealImage(g, b)).values
        npt.assert_allclose(got, circ_convolve_direct(a, b), rtol=1e-10)

    def test_real_image_rejects_nonfinite(self):
        x = np.ones((8, 8))
        x[3, 3] = np.nan
        with pytest.raises(DataError):
            RealImage(grid(8), x)

    def test_magnitude_spectrum_rejects_negative(self):
        x = np.ones((8, 8))
        x[2, 5] = -1e-300
        with pytest.raises(DataError, match="nonnegative"):
            MagnitudeSpectrum(grid(8), x)


class TestFFT:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_hermitian_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        spec = np.fft.fft2(rng.random((16, 16)), norm="ortho")
        mirrored = point_reflect(spec)
        assert np.max(np.abs(spec - np.conj(mirrored))) < 1e-12


class TestCircConvolve:
    def test_identity_kernel(self):
        g = grid(8)
        rng = np.random.default_rng(3)
        a = RealImage(g, rng.random((8, 8)))
        delta = np.zeros((8, 8))
        delta[0, 0] = 1.0
        out = circ_convolve(a, RealImage(g, delta))
        npt.assert_allclose(out.values, a.values, atol=1e-12)

    def test_impulse_shift_composition(self):
        g = grid(8)
        d1 = np.zeros((8, 8)); d1[2, 3] = 1.0
        d2 = np.zeros((8, 8)); d2[1, 1] = 1.0
        out = circ_convolve(RealImage(g, d1), RealImage(g, d2)).values
        expected = np.zeros((8, 8)); expected[3, 4] = 1.0
        npt.assert_allclose(out, expected, atol=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        g = grid(8)
        a, b = rng.random((8, 8)), rng.random((8, 8))
        got = circ_convolve(RealImage(g, a), RealImage(g, b)).values
        want = circ_convolve_direct(a, b)
        npt.assert_allclose(got, want, rtol=1e-10)

    def test_grid_mismatch(self):
        a = RealImage(grid(8), np.ones((8, 8)))
        b = RealImage(grid(8, pitch=2e-5), np.ones((8, 8)))
        with pytest.raises(ConfigError):
            circ_convolve(a, b)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_commutative_and_linear(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(8)
        a, b, c = (rng.random((8, 8)) for _ in range(3))
        alpha = float(rng.normal())
        ab = circ_convolve(RealImage(g, a), RealImage(g, b)).values
        ba = circ_convolve(RealImage(g, b), RealImage(g, a)).values
        npt.assert_allclose(ab, ba, atol=1e-10)
        lin = circ_convolve(RealImage(g, a + alpha * c), RealImage(g, b)).values
        ac = circ_convolve(RealImage(g, c), RealImage(g, b)).values
        npt.assert_allclose(lin, ab + alpha * ac, atol=1e-10)


class TestDiskAutocorrelation:
    def test_point_aperture_is_delta(self):
        g = grid(16)
        ac = disk_autocorrelation(1, g).values
        assert ac[8, 8] == 1.0
        assert ac.sum() == 1.0

    def test_support_bound(self):
        g = grid(64)
        d = 16
        ac = disk_autocorrelation(d, g).values
        lag = g.pixel_radius()
        assert np.all(ac[lag >= d] == 0)

    def test_matches_overlap_counts(self):
        g = grid(64)
        got = disk_autocorrelation(16, g).values
        want = disk_overlap_direct(64, 16)
        npt.assert_allclose(got, want, atol=1e-12)

    def test_centrosymmetric(self):
        g = grid(32)
        ac = disk_autocorrelation(9, g).values
        npt.assert_allclose(ac, point_reflect(ac), atol=0)

    def test_radially_non_increasing(self):
        g = grid(64)
        ac = disk_autocorrelation(20, g).values
        r = g.pixel_radius()
        prof = [ac[(r >= k) & (r < k + 1)].max() for k in range(22)]
        assert all(a >= b - 1e-12 for a, b in zip(prof, prof[1:]))

    def test_oversized_disk_rejected(self):
        with pytest.raises(ConfigError):
            disk_autocorrelation(65, grid(64))
