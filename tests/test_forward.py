"""Forward-model tests: PSF synthesis, the bucket identity, speckle
statistics, and measurement determinism."""

import os
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from blindgi import (
    ConfigError,
    DataError,
    EnsembleSpec,
    Grid2D,
    NoiseModel,
    OpticalConfig,
    PSF,
    RealImage,
    circ_convolve,
    correlate,
    point_reflect,
    psf_for,
    simulate,
)
import blindgi.forward
import blindgi.pipeline
from blindgi.arrayio import read_flat_config
from blindgi.config import RunConfig, config_from_entries
from blindgi.pipeline import run_simulation, separation_px
from blindgi.patterns import covariance, matvec, pattern_batch, unpack
from blindgi import objects
from reference import (bucket, centered_disk, disk_autocorrelation, illuminate, otf_magnitude,
                       pupil_diameter_px)


def grid(n=64, pitch=12.5e-6):
    return Grid2D(nx=n, ny=n, pitch=pitch)


def optical(n=64, pitch=12.5e-6, aperture=2e-3, case="scattering"):
    return OpticalConfig(
        wavelength=532e-9,
        z_o=0.3,
        aperture_diameter=aperture,
        dmd_pitch=7.4e-6,
        object_grid=grid(n, pitch),
        case=case,
    )


def bucket_both_forms(obj_vals, pat_vals, psf_vals, g):
    """The same bucket two ways: integrate O against (M conv S), and
    integrate (O conv S(-r)) against M."""
    obj = RealImage(g, obj_vals)
    pat = RealImage(g, pat_vals)
    psf = RealImage(g, psf_vals)
    p_j = circ_convolve(pat, psf)
    form1 = float(np.sum(obj.values * p_j.values)) * g.pitch**2
    w = circ_convolve(obj, RealImage(g, point_reflect(psf.values)))
    form2 = float(np.sum(w.values * pat.values)) * g.pitch**2
    return form1, form2


class TestBucketIdentity:
    def test_random_triples(self):
        rng = np.random.default_rng(123)
        g = grid(16)
        for _ in range(100):
            o = rng.random((16, 16))
            m = (rng.random((16, 16)) < 0.5).astype(float)
            s = rng.random((16, 16))
            s /= s.sum()
            f1, f2 = bucket_both_forms(o, m, s, g)
            assert abs(f1 - f2) <= 1e-10 * abs(f1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_bucket_bilinear(self, seed):
        rng = np.random.default_rng(seed)
        g = grid(16)
        s = rng.random((16, 16)); s /= s.sum()
        psf = PSF(g, s)
        o1, o2 = rng.random((16, 16)), rng.random((16, 16))
        m = (rng.random((16, 16)) < 0.5).astype(float)
        lit = illuminate(m, psf)
        b12 = bucket(RealImage(g, o1 + 2.0 * o2), lit)
        b1 = bucket(RealImage(g, o1), lit)
        b2 = bucket(RealImage(g, o2), lit)
        assert abs(b12 - (b1 + 2.0 * b2)) <= 1e-10 * max(abs(b12), 1e-30)


class TestLensPSF:
    def test_otf_matches_disk_autocorrelation(self):
        cfg = optical(case="lens-only")
        psf = psf_for(cfg, 0)
        got = otf_magnitude(psf)
        want = disk_autocorrelation(pupil_diameter_px(cfg), cfg.object_grid).values
        npt.assert_allclose(got, want, atol=1e-10)

    def test_otf_dc_and_beyond_cutoff(self):
        cfg = optical(case="lens-only")
        mtf = otf_magnitude(psf_for(cfg, 0))
        assert abs(mtf[32, 32] - 1.0) < 1e-12
        freq_r = cfg.object_grid.freq_radius()
        assert np.all(mtf[freq_r >= cfg.cutoff_frequency] < 1e-10)

    def test_point_pupil_gives_single_bin_otf(self):
        # aperture scaled so the pupil covers a single frequency pixel:
        # the PSF degenerates to a uniform floor, the OTF to a delta at DC
        g = grid(64)
        d_one_px = 1.0 * 532e-9 * 0.3 / (64 * 12.5e-6)
        cfg = optical(aperture=d_one_px, case="lens-only")
        assert pupil_diameter_px(cfg) == pytest.approx(1.0)
        psf = psf_for(cfg, 0)
        npt.assert_allclose(psf.values, 1.0 / g.npixels, atol=1e-15)
        mtf = otf_magnitude(psf)
        assert mtf[32, 32] == pytest.approx(1.0)
        off = mtf.copy(); off[32, 32] = 0.0
        assert np.max(off) < 1e-10

    def test_cutoff_validation_names_parameters(self):
        with pytest.raises(ConfigError, match="aperture_diameter"):
            optical(aperture=12e-3)  # cutoff 7.5e4 > nyquist 4e4


class TestSpecklePSF:
    def test_unit_sum_and_nonneg(self):
        psf = psf_for(optical(), 5)
        assert psf.values.min() >= 0
        assert abs(psf.values.sum() - 1.0) < 1e-12

    def test_deterministic_in_seed(self):
        cfg = optical()
        npt.assert_array_equal(psf_for(cfg, 5).values, psf_for(cfg, 5).values)
        assert not np.array_equal(psf_for(cfg, 5).values, psf_for(cfg, 6).values)

    def test_grain_size_matches_resolution_limit(self):
        cfg = optical(aperture=2e-3)  # grain ~ 6.4 px
        g = cfg.object_grid
        fwhm_px = []
        for seed in range(32):
            s = psf_for(cfg, seed).values
            ac = np.fft.fftshift(np.fft.ifft2(np.abs(np.fft.fft2(s - s.mean())) ** 2).real)
            ac /= ac[g.ny // 2, g.nx // 2]
            r = g.pixel_radius()
            prof = np.array([ac[(r >= k) & (r < k + 1)].mean() for k in range(12)])
            k = int(np.argmax(prof < 0.5))
            frac = (prof[k - 1] - 0.5) / (prof[k - 1] - prof[k])
            fwhm_px.append(2.0 * (k - 1 + frac))
        measured = np.mean(fwhm_px) * g.pitch
        expected = cfg.resolution_limit
        assert abs(measured - expected) < 0.25 * expected

    def test_ensemble_mtf_matches_sqrt_autocorrelation(self):
        cfg = optical(aperture=4.4e-3)
        g = cfg.object_grid
        acc = np.zeros(g.shape)
        for seed in range(64):
            acc += otf_magnitude(psf_for(cfg, seed))
        mtf_mean = acc / 64
        model = np.sqrt(disk_autocorrelation(pupil_diameter_px(cfg), g).values)
        r = g.pixel_radius()
        maxr = int(np.floor(pupil_diameter_px(cfg)))
        prof_m = np.array([mtf_mean[(r >= k) & (r < k + 1)].mean() for k in range(1, maxr)])
        prof_f = np.array([model[(r >= k) & (r < k + 1)].mean() for k in range(1, maxr)])
        scale = float(prof_m @ prof_f / (prof_f @ prof_f))
        rel = np.abs(prof_m - scale * prof_f) / (scale * prof_f)
        assert rel.max() < 0.10

    def test_full_aperture_speckle_is_negative_exponential(self):
        # fully developed speckle: intensity histogram ~ Exp(mean)
        from blindgi.patterns import _philox

        g = grid(64)
        mask = centered_disk(g, 64)
        rng = _philox(11, 0)
        phases = rng.random(g.shape) * 2 * np.pi
        field = np.fft.ifft2(np.fft.ifftshift(mask * np.exp(1j * phases)))
        intensity = (np.abs(field) ** 2).ravel()
        ks = scipy.stats.kstest(intensity / intensity.mean(), "expon").statistic
        assert ks < 0.05


class TestIlluminateAndBucket:
    def test_zero_pattern(self):
        psf = psf_for(optical(16, case="delta"), 0)
        lit = illuminate(np.zeros((16, 16)), psf)
        npt.assert_array_equal(lit.values, 0)

    def test_impulse_pattern_reproduces_psf(self):
        cfg = optical(16, aperture=1e-3)
        psf = psf_for(cfg, 3)
        pat = np.zeros((16, 16)); pat[0, 0] = 1
        lit = illuminate(pat, psf)
        npt.assert_allclose(lit.values, psf.values, atol=1e-12)

    def test_delta_psf_identity(self):
        rng = np.random.default_rng(0)
        pat = (rng.random((16, 16)) < 0.5).astype(float)
        lit = illuminate(pat, psf_for(optical(16, case="delta"), 0))
        npt.assert_allclose(lit.values, pat, atol=1e-12)

    def test_bucket_constant_object(self):
        g = grid(16)
        rng = np.random.default_rng(1)
        pat = (rng.random((16, 16)) < 0.5).astype(float)
        s = rng.random((16, 16)); s /= s.sum()
        lit = illuminate(pat, PSF(g, s))
        b = bucket(RealImage(g, np.ones((16, 16))), lit)
        assert abs(b - pat.sum() * g.pitch**2) < 1e-10 * b

    def test_bucket_double_sifting(self):
        g = grid(16)
        rng = np.random.default_rng(2)
        pat = (rng.random((16, 16)) < 0.5).astype(float)
        obj = np.zeros((16, 16)); obj[5, 7] = 1.0
        lit = illuminate(pat, psf_for(optical(16, case="delta"), 0))
        b = bucket(RealImage(g, obj), lit)
        assert abs(b - pat[5, 7] * g.pitch**2) < 1e-15

    def test_negative_object_rejected(self):
        g = grid(16)
        lit = illuminate(np.ones((16, 16)), psf_for(optical(16, case="delta"), 0))
        with pytest.raises(DataError):
            bucket(RealImage(g, np.full((16, 16), -1.0)), lit)


class TestSimulate:
    def ensemble(self, count=64, kind="random-binary", n=64):
        return EnsembleSpec(kind=kind, grid=grid(n), count=count, fill_fraction=0.5, seed=21)

    def test_single_impulse_pattern_bucket(self):
        cfg = optical(case="scattering")
        obj = objects.letter(cfg.object_grid)
        spec = EnsembleSpec(kind="pixel-scan", grid=cfg.object_grid, count=1, seed=0)
        psf = psf_for(cfg, 9)
        ms = simulate(obj, psf, spec, NoiseModel(), psf_seed=9)
        pat = unpack(spec, pattern_batch(spec, 0, 1))[0]
        want = bucket(obj, illuminate(pat, psf))
        assert abs(ms.buckets[0] - want) <= 1e-10 * abs(want)

    def test_deterministic_reruns(self):
        cfg = optical()
        obj = objects.letter(cfg.object_grid)
        psf = psf_for(cfg, 4)
        a = simulate(obj, psf, self.ensemble(), NoiseModel(), psf_seed=4).buckets
        b = simulate(obj, psf, self.ensemble(), NoiseModel(), psf_seed=4).buckets
        npt.assert_array_equal(a, b)
        # the per-byte table lookup is the dense M @ w up to roundoff
        ens = self.ensemble()
        m = unpack(ens, pattern_batch(ens, 0, ens.count)).reshape(ens.count, -1)
        dense = m @ blindgi.forward.bucket_weights(obj, psf).ravel()
        assert np.all(np.abs(a - dense) <= 1e-13 * np.abs(dense))

    def test_support_validation(self):
        cfg = optical()
        too_big = objects.rectangle(cfg.object_grid, 32, 32)
        vals = np.roll(too_big.values, 20, axis=1)  # slide off-center
        with pytest.raises(ConfigError):
            simulate(RealImage(cfg.object_grid, vals), psf_for(cfg, 4), self.ensemble(),
                     NoiseModel(), 4)

    def test_count_beyond_addressable_buckets(self):
        # 2^62 float64 buckets need 2^65 bytes: a ConfigError naming the key,
        # not numpy's "array is too big"
        cfg = optical(case="delta")
        obj = objects.rectangle(cfg.object_grid, 2, 2)
        with pytest.raises(ConfigError, match=r"ensemble\.count must be <="):
            simulate(obj, psf_for(cfg, 4), self.ensemble(count=2**62), NoiseModel(), psf_seed=4)

    def test_gaussian_noise_snr(self):
        cfg = optical()
        obj = objects.letter(cfg.object_grid)
        ens = self.ensemble(count=10_000)
        psf = psf_for(cfg, 4)
        clean = simulate(obj, psf, ens, NoiseModel(kind="none"), psf_seed=4).buckets
        noisy = simulate(obj, psf, ens, NoiseModel(kind="gaussian", snr_db=20), psf_seed=4).buckets
        noise = noisy - clean
        snr_db = 20 * np.log10(np.std(clean - clean.mean()) / np.std(noise))
        assert abs(snr_db - 20.0) < 1.0

    def test_poisson_noise_nonnegative_and_scaled(self):
        cfg = optical()
        obj = objects.letter(cfg.object_grid)
        ens = self.ensemble(count=2048)
        psf = psf_for(cfg, 4)
        noisy = simulate(obj, psf, ens, NoiseModel(kind="poisson", photons=1e4), psf_seed=4).buckets
        clean = simulate(obj, psf, ens, NoiseModel(kind="none"), psf_seed=4).buckets
        assert np.all(noisy >= 0)
        rel = np.std(noisy - clean) / clean.mean()
        assert rel == pytest.approx(1 / np.sqrt(1e4), rel=0.2)

    def test_run_simulation_draws_the_psf_once(self, monkeypatch):
        # the PSF that recorded the buckets is the one run_simulation returns
        calls = []

        def counted(*args):
            calls.append(args)
            return psf_for(*args)

        for module in (blindgi.forward, blindgi.pipeline):
            monkeypatch.setattr(module, "psf_for", counted)
        cfg = RunConfig(grid_nx=16, grid_ny=16, ensemble_count=64, object_source="rectangle(2,2)")
        ms, obj, psf = run_simulation(cfg)
        assert len(calls) == 1
        npt.assert_array_equal(psf.values, psf_for(cfg.optical(), cfg.psf_seed).values)
        again = simulate(obj, psf, cfg.ensemble(), cfg.noise(), cfg.psf_seed)
        npt.assert_array_equal(ms.buckets, again.buckets)

    @pytest.mark.parametrize("kind", ["random-binary", "random-fixed-fill", "hadamard",
                                      "pixel-scan"])
    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)], ids=["64x64", "33x31"])
    def test_stored_sums_are_rmatvec(self, kind, shape):
        # a noise-free simulate forms the correlation in the pass that gathers
        # the buckets: bit for bit the covariance of the buckets (rmatvec's
        # successor), for the letter's bytes alone (delta) and for every byte
        # (scattering), on 300 patterns that end mid-chunk; the buckets are
        # matvec's, bit for bit.  hadamard needs power-of-two sides
        ny, nx = (16, 32) if kind == "hadamard" and shape == (33, 31) else shape
        g = Grid2D(nx=nx, ny=ny, pitch=12.5e-6)
        ens = EnsembleSpec(kind=kind, grid=g, count=300, fill_fraction=0.3, seed=5)
        obj = objects.letter(g)
        for case in ("delta", "scattering"):
            psf = psf_for(replace(optical(case=case), object_grid=g), 6)
            ms = simulate(obj, psf, ens, NoiseModel(), psf_seed=6)
            weights = blindgi.forward.bucket_weights(obj, psf)
            npt.assert_array_equal(ms.buckets, matvec(ens, weights))
            npt.assert_array_equal(ms.correlation, covariance(ens, ms.buckets))
            bare = simulate(obj, psf, ens, NoiseModel(), psf_seed=6, sums=False)
            assert bare.correlation is None
            npt.assert_array_equal(bare.buckets, ms.buckets)
            # so the stored correlation and correlate's own pass give the same bits
            npt.assert_array_equal(correlate(ms).values, correlate(bare).values)
            # noise is drawn after the pass: correlate forms a noisy run's correlation
            for noise in (NoiseModel("gaussian"), NoiseModel("poisson")):
                assert simulate(obj, psf, ens, noise, psf_seed=6).correlation is None

    def test_replace_drops_the_stored_correlation(self):
        # the stored correlation belongs to the buckets and the recipe it was
        # formed from: a record with other buckets or another ensemble has
        # none, and correlates as a fresh record of the same two fields does
        g = grid(32)
        ens = EnsembleSpec(kind="random-fixed-fill", grid=g, count=300, seed=5)
        obj, psf = objects.letter(g), psf_for(optical(n=32), 6)
        ms = simulate(obj, psf, ens, NoiseModel(), psf_seed=6)
        assert ms.correlation is not None
        noisy = simulate(obj, psf, ens, NoiseModel("gaussian"), psf_seed=6).buckets
        for changed in (replace(ms, buckets=noisy), replace(ms, ensemble=replace(ens, seed=6))):
            assert changed.correlation is None
            fresh = blindgi.forward.MeasurementSet(changed.ensemble, changed.buckets)
            npt.assert_array_equal(correlate(changed).values, correlate(fresh).values)
            assert not np.array_equal(correlate(changed).values, ms.correlation)
        with pytest.raises(ValueError, match="init=False"):
            replace(ms, correlation=ms.correlation)

    @pytest.mark.slow
    def test_throughput_4096_patterns(self):
        cfg = optical()
        obj = objects.letter(cfg.object_grid)
        ens = self.ensemble(count=4096)
        start = time.time()
        simulate(obj, psf_for(cfg, 4), ens, NoiseModel(), psf_seed=4)
        assert time.time() - start < 10.0


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_file(name):
    return config_from_entries(read_flat_config(os.path.join(CONFIGS, name)))


def unrounded_weights(obj, psf):
    """bucket_weights without its roundoff rule: the scaled FFT convolution."""
    reflected = RealImage(psf.grid, point_reflect(psf.values))
    return circ_convolve(obj, reflected).values * obj.grid.pitch**2


class TestBucketWeights:
    @pytest.mark.parametrize("shape", [(64, 64), (33, 31)], ids=["64x64", "33x31"])
    @pytest.mark.parametrize("source", ["letter", "two-points(5)", "rectangle(3,4)",
                                        "double-slit(2,6,4)"])
    def test_delta_weights_are_the_object(self, shape, source):
        # with the delta PSF the FFT leaves roundoff off the object, and
        # bucket_weights sets it to exactly 0: the nonzero weights are the
        # object's pixels, within roundoff of the object times pitch^2
        g = Grid2D(nx=shape[1], ny=shape[0], pitch=12.5e-6)
        obj = objects.from_spec(g, source)
        psf = psf_for(OpticalConfig(532e-9, 0.3, 2e-3, 7.4e-6, g, case="delta"), 0)
        w = blindgi.forward.bucket_weights(obj, psf)
        npt.assert_array_equal(w != 0, obj.values != 0)
        npt.assert_allclose(w, obj.values * g.pitch**2, rtol=1e-12)

    def test_scattering_and_lens_weights_keep_their_bytes(self):
        # no weight of the headline run, its lens-only twin or criterion 8's
        # two points (scattering and lens-only) lies within roundoff of 0, so
        # the rule leaves every byte of the FFT convolution
        headline, resolution = config_file("headline.txt"), config_file("resolution.txt")
        limit = resolution.optical().resolution_limit
        cfgs = [headline, replace(headline, case="lens-only")]
        for rel in (0.35, 0.7, 1.4, 2.0):
            sep = separation_px(resolution.grid(), rel * limit)
            two = replace(resolution, object_source=f"two-points({sep})")
            cfgs += [two, replace(two, case="lens-only")]
        for cfg in cfgs:
            obj = objects.from_spec(cfg.grid(), cfg.object_source)
            psf = psf_for(cfg.optical(), cfg.psf_seed)
            w = blindgi.forward.bucket_weights(obj, psf)
            assert w.tobytes() == unrounded_weights(obj, psf).tobytes(), cfg

    def test_rule_precedes_the_pitch_scale(self):
        # a weight that overflows only when scaled by pitch^2 stays infinite,
        # with no warning, and the buckets are refused
        g = Grid2D(nx=16, ny=16, pitch=1e150)
        vals = np.zeros(g.shape)
        vals[7:9, 7:9] = 1e200
        obj = RealImage(g, vals)
        psf = psf_for(OpticalConfig(532e-9, 0.3, 2e-3, 7.4e-6, g, case="delta"), 0)
        w = blindgi.forward.bucket_weights(obj, psf)
        assert np.all(np.isinf(w[vals > 0])) and np.all(w[vals == 0] == 0)
        ens = EnsembleSpec("random-binary", g, 64)
        with pytest.raises(DataError, match="buckets contains non-finite values"):
            simulate(obj, psf, ens, NoiseModel(), 0)
