"""Correlation estimator, magnitude spectrum, filter model, and
compensation tests."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from blindgi import (
    EnsembleSpec,
    Grid2D,
    MagnitudeSpectrum,
    NoiseModel,
    OpticalConfig,
    RealImage,
    UsageError,
    circ_convolve,
    compensate,
    correlate,
    filter_model,
    magnitude_spectrum,
    point_reflect,
    simulate,
)
from blindgi.forward import MeasurementSet, psf_for
from blindgi.patterns import pattern_batch, unpack
from blindgi import objects
from reference import otf_magnitude


def grid(n=16, pitch=12.5e-6):
    return Grid2D(nx=n, ny=n, pitch=pitch)


def optical(n=16, pitch=12.5e-6, aperture=2e-3, case="delta"):
    return OpticalConfig(
        wavelength=532e-9, z_o=0.3,
        aperture_diameter=aperture, dmd_pitch=7.4e-6,
        object_grid=grid(n, pitch), case=case,
    )


def central_half(values):
    ny, nx = values.shape
    return values[ny // 4 : ny // 4 + ny // 2, nx // 4 : nx // 4 + nx // 2]


def pearson(a, b):
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def classic_gi_pearson(n=64, count=2**14, seed=31):
    """Delta-PSF ghost imaging of the letter object; shared with acceptance.

    Returns (pearson over the central-half object domain, full-grid pearson).
    """
    cfg = optical(n=n)
    obj = objects.letter(cfg.object_grid)
    ens = EnsembleSpec(kind="random-binary", grid=cfg.object_grid, count=count,
                       fill_fraction=0.5, seed=seed)
    ms = simulate(obj, psf_for(cfg, 1), ens, NoiseModel(), psf_seed=1)
    c = correlate(ms)
    return (
        pearson(central_half(c.values), central_half(obj.values)),
        pearson(c.values, obj.values),
    )


class TestCorrelate:
    def test_needs_two_measurements(self):
        cfg = optical()
        ens = EnsembleSpec(kind="pixel-scan", grid=cfg.object_grid, count=1, seed=0)
        ms = MeasurementSet(ens, np.array([1.0]))
        with pytest.raises(UsageError):
            correlate(ms)

    def test_constant_buckets_give_zero(self):
        cfg = optical()
        ens = EnsembleSpec(kind="random-binary", grid=cfg.object_grid, count=32, seed=3)
        ms = MeasurementSet(ens, np.full(32, 7.5))
        npt.assert_allclose(correlate(ms).values, 0.0, atol=1e-12)

    def test_pixel_scan_closed_form(self):
        # with a complete scan, J*C + mean(B) equals the object correlated
        # with the reflected kernel, exactly
        cfg = optical(case="scattering", aperture=1e-3)
        obj = objects.rectangle(cfg.object_grid, 6, 4)
        ens = EnsembleSpec(kind="pixel-scan", grid=cfg.object_grid,
                           count=cfg.object_grid.npixels, seed=0)
        psf = psf_for(cfg, 8)
        ms = simulate(obj, psf, ens, NoiseModel(), psf_seed=8)
        c = correlate(ms)
        w = circ_convolve(obj, RealImage(cfg.object_grid, point_reflect(psf.values)))
        want = w.values * cfg.object_grid.pitch**2
        got = c.values * ens.count + ms.buckets.mean()
        npt.assert_allclose(got, want, rtol=1e-10, atol=1e-22)

    def test_classic_gi_recovers_object(self):
        # J = 2^12 warm-up; the sampling-noise floor caps the correlation at
        # ~0.88 here (acceptance runs the full J = 2^14 case)
        p_central, p_full = classic_gi_pearson(count=2**12)
        assert p_central > 0.82
        assert p_full > 0.65

    def test_streaming_equals_two_pass(self):
        cfg = optical(n=32)
        obj = objects.letter(cfg.object_grid, height=12, stroke=2)
        ens = EnsembleSpec(kind="random-binary", grid=cfg.object_grid, count=2**10, seed=5)
        ms = simulate(obj, psf_for(cfg, 2), ens, NoiseModel(), psf_seed=2)
        streamed = correlate(ms).values
        # two-pass reference: materialize all patterns
        stack = unpack(ens, pattern_batch(ens, 0, ens.count))
        b = ms.buckets
        ref = np.einsum("j,jyx->yx", b - b.mean(), stack - stack.mean(axis=0)) / ens.count
        assert np.max(np.abs(streamed - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_rerun_byte_identical_and_matches_dense(self):
        cfg = optical(n=32)
        obj = objects.rectangle(cfg.object_grid, 8, 6)
        for kind in ("random-fixed-fill", "random-binary", "hadamard"):
            ens = EnsembleSpec(kind=kind, grid=cfg.object_grid, count=1000, seed=5)
            ms = simulate(obj, psf_for(cfg, 2), ens, NoiseModel(), psf_seed=2)
            first = correlate(ms).values
            npt.assert_array_equal(first, correlate(ms).values)
            # dense reference on the materialized ensemble, both sides centred
            m = unpack(ens, pattern_batch(ens, 0, ens.count)).reshape(ens.count, -1)
            b = ms.buckets
            ref = ((b - b.mean()) @ (m - m.mean(axis=0)) / ens.count).reshape(first.shape)
            assert np.max(np.abs(first - ref)) <= 1e-12 * np.max(np.abs(ref)), kind

    @pytest.mark.slow
    def test_converges_to_complete_basis_limit(self):
        # the random-binary estimate approaches the complete-Hadamard-basis
        # correlation at the Monte-Carlo rate 1/sqrt(J)
        cfg = optical(n=16)
        obj = objects.rectangle(cfg.object_grid, 5, 3)

        def corr_for(kind, count, seed):
            ens = EnsembleSpec(kind=kind, grid=cfg.object_grid, count=count,
                               fill_fraction=0.5, seed=seed)
            ms = simulate(obj, psf_for(cfg, 0), ens, NoiseModel(), psf_seed=0)
            return correlate(ms).values

        c_limit = corr_for("hadamard", cfg.object_grid.npixels, 0)
        norm = np.linalg.norm(c_limit)
        logj, logr = [], []
        for k in range(8, 14):
            resid = np.mean(
                [np.linalg.norm(corr_for("random-binary", 2**k, s) - c_limit) / norm
                 for s in (3, 4)]
            )
            logj.append(k * np.log10(2.0))
            logr.append(np.log10(resid))
        slope = np.polyfit(logj, logr, 1)[0]
        assert abs(slope + 0.5) < 0.1


class TestMagnitudeSpectrum:
    def test_impulse_flat(self):
        g = grid()
        c = np.zeros(g.shape); c[3, 5] = 1.0
        from blindgi.correlation import CorrelationImage

        spec = magnitude_spectrum(CorrelationImage(g, c, 2))
        npt.assert_allclose(spec.values, 1.0 / 16, atol=1e-14)

    def test_real_input_centrosymmetric(self):
        from blindgi.correlation import CorrelationImage

        g = grid()
        rng = np.random.default_rng(0)
        spec = magnitude_spectrum(CorrelationImage(g, rng.random(g.shape), 2)).values
        # centered layout: reflection about the center bin
        flipped = point_reflect(np.fft.ifftshift(spec))
        npt.assert_allclose(np.fft.ifftshift(spec), flipped, atol=1e-12)

    def test_translation_invariant(self):
        from blindgi.correlation import CorrelationImage

        g = grid()
        rng = np.random.default_rng(1)
        c = rng.random(g.shape)
        a = magnitude_spectrum(CorrelationImage(g, c, 2)).values
        b = magnitude_spectrum(CorrelationImage(g, np.roll(c, (3, 5), axis=(0, 1)), 2)).values
        npt.assert_allclose(a, b, atol=1e-12)

    def test_scan_spectrum_factorizes(self):
        # |C~| from a complete scan equals |O~| x MTF pointwise (modulo DC)
        cfg = optical(n=32, case="lens-only", aperture=1.5e-3)
        obj = objects.rectangle(cfg.object_grid, 7, 5)
        ens = EnsembleSpec(kind="pixel-scan", grid=cfg.object_grid,
                           count=cfg.object_grid.npixels, seed=0)
        psf = psf_for(cfg, 0)
        ms = simulate(obj, psf, ens, NoiseModel(), psf_seed=0)
        spec = magnitude_spectrum(correlate(ms)).values
        o_mag = np.abs(np.fft.fftshift(np.fft.fft2(obj.values, norm="ortho")))
        mtf = otf_magnitude(psf)
        want = o_mag * mtf
        got = spec * ens.count / cfg.object_grid.pitch**2
        passband = (mtf > 1e-3) & (o_mag > 1e-3 * o_mag.max())
        passband[16, 16] = False  # DC carries the removed mean
        rel = np.abs(got[passband] - want[passband]) / want[passband]
        assert rel.max() < 0.02


class TestFilterModel:
    def test_reference_geometry_cutoff(self):
        # D = 6 mm, z_o = 300 mm, wavelength 532 nm -> cutoff ~ 3.76e4 cycles/m,
        # resolution ~ 26.6 um; the 1-px source footprint leaves the speckle term
        cfg = optical(n=64, case="scattering", aperture=6e-3)
        assert cfg.cutoff_frequency == pytest.approx(3.759398e4, rel=1e-4)
        assert cfg.resolution_limit == pytest.approx(2.66e-5, rel=1e-2)
        mtf = filter_model(cfg)
        freq_r = cfg.object_grid.freq_radius()
        support = mtf.values > 0
        measured_cutoff = freq_r[support].max()
        assert measured_cutoff == pytest.approx(cfg.cutoff_frequency, rel=0.05)

    def test_source_pixel_mtf_dc_is_one(self):
        # delta case: the source-pixel footprint is the only factor
        cfg = replace(optical(case="delta"), dmd_pitch=3 * 12.5e-6)
        assert filter_model(cfg).values[8, 8] == 1.0

    def test_wide_source_pixel_is_sinc_like(self):
        cfg = optical(n=32, case="delta")
        wide = replace(cfg, dmd_pitch=4 * cfg.object_grid.pitch)
        vals = filter_model(wide).values
        assert vals[16, 16] == 1.0
        assert vals.min() < 0.2  # Dirichlet falloff well below flat

    @pytest.mark.parametrize("case", ["lens-only", "scattering", "delta"])
    @pytest.mark.parametrize("ny,nx", [(16, 16), (33, 33), (31, 20), (24, 67)])
    @pytest.mark.parametrize("aperture,span", [(1e-3, 1), (2e-3, 3), (6e-3, 5)])
    def test_peak_is_one_at_dc(self, case, ny, nx, aperture, span):
        # each factor is 1 at DC and at most 1 elsewhere, so an epsilon given as
        # a fraction of the peak is that fraction itself
        pitch = 12.5e-6
        cfg = OpticalConfig(
            wavelength=532e-9, z_o=0.3, aperture_diameter=aperture, dmd_pitch=span * pitch,
            object_grid=Grid2D(nx=nx, ny=ny, pitch=pitch), case=case,
        )
        vals = filter_model(cfg).values
        assert vals[ny // 2, nx // 2] == 1.0
        assert vals.max() == 1.0


class TestCompensate:
    def test_identity_filter(self):
        cfg = optical(case="delta")
        mtf = filter_model(cfg)  # unity for a 1-px footprint
        g = cfg.object_grid
        rng = np.random.default_rng(2)
        spec = MagnitudeSpectrum(g, rng.random(g.shape))
        out = compensate(spec, mtf, epsilon=1e-9)
        expected = spec.values.copy()
        expected[8, 8] = 0.0
        npt.assert_allclose(out.values, expected, rtol=1e-9)

    def test_synthetic_round_trip(self):
        cfg = optical(n=64, case="scattering", aperture=4e-3)
        mtf = filter_model(cfg)
        g = cfg.object_grid
        rng = np.random.default_rng(3)
        o_mag = rng.random(g.shape) + 0.5
        synthetic = MagnitudeSpectrum(g, o_mag * mtf.values)
        eps = 1e-3
        out = compensate(synthetic, mtf, epsilon=eps)
        region = mtf.values > 10 * eps
        region[32, 32] = False
        rel = np.abs(out.values[region] - o_mag[region]) / o_mag[region]
        assert rel.max() < 0.01

    def test_filter_nulls_stay_zero(self):
        cfg = optical(n=64, case="scattering", aperture=2e-3)
        mtf = filter_model(cfg)
        g = cfg.object_grid
        spec = MagnitudeSpectrum(g, np.ones(g.shape))
        out = compensate(spec, mtf, epsilon=1e-2)
        nulls = mtf.values == 0
        assert nulls.any()
        npt.assert_array_equal(out.values[nulls], 0.0)

    def test_epsilon_validated(self):
        cfg = optical(case="delta")
        mtf = filter_model(cfg)
        spec = MagnitudeSpectrum(cfg.object_grid, np.ones((16, 16)))
        with pytest.raises(UsageError):
            compensate(spec, mtf, epsilon=0.0)
