"""Phase-retrieval tests: the reference projections and ER/HIO steps, support
estimation, the stacked engine against those references, and the
multi-restart driver."""

import numpy as np
import numpy.testing as npt
import pytest

from blindgi import (
    ConfigError,
    Grid2D,
    MagnitudeSpectrum,
    NumericalError,
    RealImage,
    UsageError,
    ScheduleConfig,
    SupportPolicy,
    align_and_score,
    estimate_support,
    point_reflect,
    run,
)
from blindgi.retrieval import (
    SupportMask,
    centered_box_mask,
    _initial_iterate,
    _run_stack,
    _StackEngine,
)
from blindgi import objects
from reference import er_step, fourier_error, hio_step, project_magnitude


def grid(n=32):
    return Grid2D(nx=n, ny=n, pitch=1e-5)


def magnitude_of(values, g):
    return MagnitudeSpectrum(g, np.fft.fftshift(np.abs(np.fft.fft2(values, norm="ortho"))))


class TestSupportPolicy:
    """box_shape parses and bounds the box; select makes the support of a run."""

    G = Grid2D(nx=23, ny=40, pitch=1e-5)  # central half: 20x11

    def target(self):
        return magnitude_of(objects.rectangle(self.G, 6, 4).values, self.G)

    def test_half_is_the_central_half_box(self):
        policy = SupportPolicy(box="half")
        assert policy.box_shape(self.G) == (20, 11)
        npt.assert_array_equal(policy.select(self.target()).mask,
                               centered_box_mask(self.G, 20, 11).mask)

    @pytest.mark.parametrize("box,shape", [("7x5", (7, 5)), ("1x1", (1, 1)), ("20x11", (20, 11))])
    def test_fixed_box(self, box, shape):
        policy = SupportPolicy(box=box)
        assert policy.box_shape(self.G) == shape
        npt.assert_array_equal(policy.select(self.target()).mask,
                               centered_box_mask(self.G, *shape).mask)

    @pytest.mark.parametrize("box", ["0x5", "7x0", "21x5", "7x12", "7x", "axb", "halfx"])
    def test_bad_box_names_the_key(self, box):
        with pytest.raises(ConfigError, match=f"support.box.*{box!r}"):
            SupportPolicy(box=box).box_shape(self.G)

    @pytest.mark.parametrize("shape", [(21, 5), (7, 12), (0, 5)])
    def test_box_mask_is_not_clipped(self, shape):
        # only estimate_support clips; a fixed box outside the half is refused
        with pytest.raises(ConfigError, match="support mask"):
            centered_box_mask(self.G, *shape)

    def test_estimate_wider_than_half_is_the_half_box(self):
        policy = SupportPolicy(box="estimate", margin_px=10**30)
        assert policy.box_shape(self.G) is None
        npt.assert_array_equal(policy.select(self.target()).mask,
                               centered_box_mask(self.G, 20, 11).mask)
        # a margin that fits: the estimate, unclipped
        fits = SupportPolicy(margin_px=1).select(self.target()).mask
        assert fits.sum() < 20 * 11
        npt.assert_array_equal(fits, estimate_support(self.target(), 0.04, 1).mask)


class TestProjectMagnitude:
    def test_fixed_point(self):
        g = grid()
        obj = objects.rectangle(g, 8, 6)
        target = magnitude_of(obj.values, g)
        out = project_magnitude(obj.values, target)
        assert np.max(np.abs(out - obj.values)) < 1e-10

    def test_zero_iterate_takes_zero_phase(self):
        g = grid(8)
        target = MagnitudeSpectrum(g, np.full((8, 8), 2.0))
        out = project_magnitude(np.zeros((8, 8)), target)
        spec = np.fft.fft2(out, norm="ortho")
        npt.assert_allclose(spec, 2.0, atol=1e-12)  # zero phase everywhere

    def test_constrained_bins_match_free_bins_untouched(self):
        g = grid(16)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 16))
        t = rng.random((16, 16)) + 0.1  # uncentered
        target = MagnitudeSpectrum(g, np.fft.fftshift(t))
        out = project_magnitude(x, target, free_dc_radius=2.0)
        spec = np.fft.fft2(out, norm="ortho")
        free = np.fft.ifftshift(g.pixel_radius() < 2.0)
        npt.assert_allclose(np.abs(spec[~free]), t[~free], atol=1e-10)
        npt.assert_allclose(
            spec[free], np.fft.fft2(x, norm="ortho")[free], atol=1e-12
        )


class TestERStep:
    def test_fixed_point_at_truth(self):
        g = grid()
        obj = objects.rectangle(g, 8, 6)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 6, 8)
        out = er_step(obj.values, target, support)
        assert np.max(np.abs(out - obj.values)) < 1e-10

    def test_error_monotone_over_random_starts(self):
        g = grid()
        obj = objects.rectangle(g, 10, 7)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 14, 11)
        for start in range(50):
            x = _initial_iterate(target, seed=start, restart_id=start)
            prev = None
            for _ in range(20):
                x = er_step(x, target, support)
                err = fourier_error(x, target)
                if prev is not None:
                    assert err <= prev + 1e-12
                prev = err

    def test_relaxed_constraints_still_monotone(self):
        # support = whole central half, nonneg off: plain alternating projection
        g = grid()
        rng = np.random.default_rng(8)
        target = MagnitudeSpectrum(g, np.fft.fftshift(rng.random((32, 32))))
        support = centered_box_mask(g, 16, 16)
        x = rng.normal(size=(32, 32))
        prev = None
        for _ in range(30):
            x = er_step(x, target, support, nonneg=False)
            err = fourier_error(x, target)
            if prev is not None:
                assert err <= prev + 1e-12
            prev = err


class TestHIOStep:
    def test_beta_zero_keeps_violating_pixels(self):
        g = grid(16)
        rng = np.random.default_rng(5)
        x = rng.normal(size=(16, 16))
        target = MagnitudeSpectrum(g, np.fft.fftshift(rng.random((16, 16))))
        support = centered_box_mask(g, 6, 6)
        gp = project_magnitude(x, target).real
        out = hio_step(x, target, support, beta=0.0)
        violating = ~(support.mask & (gp >= 0))
        npt.assert_allclose(out[violating], x[violating], atol=1e-14)

    def test_feasible_projection_matches_er(self):
        g = grid()
        obj = objects.rectangle(g, 8, 6)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 6, 8)
        # at the truth, the magnitude projection is feasible everywhere
        out_hio = hio_step(obj.values, target, support, beta=0.9)
        out_er = er_step(obj.values, target, support)
        npt.assert_allclose(out_hio, out_er, atol=1e-12)

    def test_two_point_retrieval(self):
        g = grid()
        obj = objects.two_points(g, 6)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 4, 14)  # double the object box
        best = None
        for restart in range(10):
            x = _initial_iterate(target, seed=1000, restart_id=restart)
            for _ in range(200):
                x = hio_step(x, target, support, beta=0.9)
            x = np.where(support.mask, np.maximum(x, 0), 0)
            err = fourier_error(x, target)
            if best is None or err < best[0]:
                best = (err, x)
        score = align_and_score(RealImage(g, best[1]), obj)
        assert score.pearson >= 0.99


class TestEstimateSupport:
    def test_flat_spectrum_gives_point_box(self):
        g = grid()
        flat = MagnitudeSpectrum(g, np.ones((32, 32)))
        mask = estimate_support(flat, 0.04, margin_px=1).mask
        ys, xs = np.nonzero(mask)
        assert len(ys) == 9  # 1 px + 1 margin each side

    def test_rectangle_box_recovered(self):
        g = Grid2D(nx=64, ny=64, pitch=1e-5)
        for w, h in [(16, 10), (24, 14)]:
            obj = objects.rectangle(g, w, h)
            target = magnitude_of(obj.values, g)
            mask = estimate_support(target, 0.04, margin_px=0).mask
            ys, xs = np.nonzero(mask)
            got_h, got_w = ys.max() - ys.min() + 1, xs.max() - xs.min() + 1
            assert abs(got_h - h) <= 2 and abs(got_w - w) <= 2

    def test_threshold_monotone(self):
        g = Grid2D(nx=64, ny=64, pitch=1e-5)
        obj = objects.rectangle(g, 20, 12)
        target = magnitude_of(obj.values, g)
        loose = estimate_support(target, 0.04).mask.sum()
        tight = estimate_support(target, 0.9).mask.sum()
        assert tight < loose

    def test_same_mask_at_every_power_of_two_scale(self):
        # the autocorrelation squares the spectrum: at 2^600 it would
        # overflow, at 2^-600 underflow, without the unit scale
        g = Grid2D(nx=64, ny=64, pitch=1e-5)
        target = magnitude_of(objects.letter(g).values, g)
        want = estimate_support(target, 0.04).mask
        for k in (300, -300, 600, -600, 1000, -1000):
            scaled = MagnitudeSpectrum(g, np.ldexp(target.values, k))
            npt.assert_array_equal(estimate_support(scaled, 0.04).mask, want, err_msg=str(k))

    def test_zero_spectrum_fails(self):
        g = grid()
        zero = MagnitudeSpectrum(g, np.zeros((32, 32)))
        with pytest.raises(NumericalError):
            estimate_support(zero, 0.04)

    def test_threshold_range_checked(self):
        g = grid()
        flat = MagnitudeSpectrum(g, np.ones((32, 32)))
        with pytest.raises(UsageError):
            estimate_support(flat, 1.5)


class TestSupportMask:
    def test_requires_central_half(self):
        g = grid()
        mask = np.zeros((32, 32), bool)
        mask[0, 0] = True
        with pytest.raises(ConfigError):
            SupportMask(g, mask)

    def test_requires_nonempty(self):
        with pytest.raises(ConfigError):
            SupportMask(grid(), np.zeros((32, 32), bool))


class TestScheduleConfig:
    def test_blocks_in_order(self):
        sched = ScheduleConfig(cycles=2, hio_iterations=3, er_iterations=2, final_er=4)
        assert list(sched) == [("HIO", 3), ("ER", 2), ("HIO", 3), ("ER", 2), ("ER", 4)]
        assert sched.total_iterations == 14

    def test_zero_cycles_is_er_tail_only(self):
        assert list(ScheduleConfig(cycles=0, final_er=7)) == [("ER", 7)]

    @pytest.mark.parametrize("name,value", [
        ("cycles", -1), ("hio_iterations", 0), ("er_iterations", 0), ("final_er", 0),
        ("restarts", 0), ("beta", 0.0), ("beta", 1.5), ("free_dc_radius", -0.5),
    ])
    def test_bad_value_names_key(self, name, value):
        with pytest.raises(ConfigError, match=f"schedule.{name}"):
            ScheduleConfig(**{name: value})


class TestRun:
    def schedule(self, **kw):
        kw.setdefault("seed", 77)
        kw.setdefault("restarts", 16)
        return ScheduleConfig(**kw)

    def test_centrosymmetric_object_exact_recovery(self):
        g = grid()
        obj = objects.rectangle(g, 9, 7)
        target = magnitude_of(obj.values, g)
        support = estimate_support(target, 0.04)
        recon = run(target, self.schedule(), support)
        assert recon.fourier_error <= 1e-3
        score = align_and_score(recon.image, obj)
        assert score.pearson >= 0.99

    def test_more_restarts_never_worse(self):
        g = grid()
        obj = objects.double_slit(g, slit_width=2, slit_height=10, gap=4)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 14, 12)
        e1 = run(target, self.schedule(restarts=1, cycles=3), support).fourier_error
        e16 = run(target, self.schedule(restarts=16, cycles=3), support).fourier_error
        assert e16 <= e1

    def test_single_er_block_equals_one_step(self):
        g = grid()
        obj = objects.rectangle(g, 8, 6)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 10, 8)
        sched = ScheduleConfig(cycles=0, final_er=1, restarts=1, seed=5, free_dc_radius=0.0)
        recon = run(target, sched, support)
        x0 = _initial_iterate(target, seed=5, restart_id=0)
        want = er_step(x0, target, support)
        npt.assert_allclose(recon.image.values, want, atol=1e-14)

    def test_rerun_byte_identical(self):
        g = grid()
        obj = objects.rectangle(g, 9, 7)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 13, 11)
        sched = self.schedule(restarts=4, cycles=2)
        a = run(target, sched, support)
        b = run(target, sched, support)
        assert a.image.values.tobytes() == b.image.values.tobytes()
        assert a.ef_trace.tobytes() == b.ef_trace.tobytes()
        assert a.restart_id == b.restart_id and a.fourier_error == b.fourier_error

    def test_same_bits_at_every_power_of_two_scale(self):
        # E_F is a ratio and every step is linear in the target: at 2^k the
        # same restart and E_F trace bits, and the image at 2^k.  At 2^-1000
        # the image itself is subnormal, so its bits are checked to 2^-600.
        g = grid()
        obj = objects.double_slit(g, slit_width=2, slit_height=10, gap=4)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 14, 12)
        sched = self.schedule(restarts=4, cycles=2)
        base = run(target, sched, support)
        for k in (300, -300, 600, -600, 1000, -1000):
            got = run(MagnitudeSpectrum(g, np.ldexp(target.values, k)), sched, support)
            assert got.restart_id == base.restart_id, k
            assert got.ef_trace.tobytes() == base.ef_trace.tobytes(), k
            if abs(k) <= 600:
                want = np.ldexp(base.image.values, k)
                assert got.image.values.tobytes() == want.tobytes(), k

    def test_trace_shape_and_final_error(self):
        g = grid()
        obj = objects.rectangle(g, 8, 6)
        target = magnitude_of(obj.values, g)
        support = centered_box_mask(g, 10, 8)
        sched = self.schedule(restarts=2, cycles=1, final_er=5)
        recon = run(target, sched, support)
        assert recon.ef_trace.shape == (sched.total_iterations,)
        assert recon.iterations_run == sched.total_iterations


class TestStackEngine:
    """The batched engine against the single-iterate reference, restart by restart.

    HIO amplifies roundoff, so whole HIO runs are not compared: single steps
    of both kinds are, and so are ER-only runs, where errors do not grow.
    """

    SHAPES = [(32, 32), (33, 31), (30, 35)]  # (ny, nx): even, odd and mixed

    def problem(self, ny, nx, symmetric):
        g = Grid2D(nx=nx, ny=ny, pitch=1e-5)
        if symmetric:
            target = magnitude_of(objects.letter(g, height=12, stroke=2).values, g)
        else:  # not the magnitude of any real image: the engine must still agree
            noise = np.random.default_rng(3).random((ny, nx))
            target = MagnitudeSpectrum(g, np.fft.fftshift(noise))
        support = centered_box_mask(g, ny // 2 - 2, nx // 2 - 1)
        x0 = np.stack([_initial_iterate(target, seed=11, restart_id=r) for r in range(5)])
        return target, support, x0

    @pytest.mark.parametrize("free_dc_radius", [0.0, 1.0, 2.5])
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_one_step_matches_reference(self, shape, symmetric, free_dc_radius):
        target, support, x0 = self.problem(*shape, symmetric)
        engine = _StackEngine(target, support, free_dc_radius, len(x0))
        engine.transform(x0)
        npt.assert_allclose(
            engine.errors(), [fourier_error(x, target, free_dc_radius) for x in x0], rtol=1e-12
        )
        for algorithm in ("ER", "HIO"):
            got = x0.copy()
            engine.transform(got)
            engine.step(got, algorithm, 0.7)
            for r, x in enumerate(x0):
                if algorithm == "ER":
                    want = er_step(x, target, support, free_dc_radius)
                else:
                    want = hio_step(x, target, support, 0.7, free_dc_radius)
                assert np.max(np.abs(got[r] - want)) <= 1e-12 * np.max(np.abs(x)), algorithm

    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_er_run_matches_reference_per_restart(self, shape, symmetric):
        target, support, x0 = self.problem(*shape, symmetric)
        sched = ScheduleConfig(cycles=0, final_er=50, restarts=len(x0), free_dc_radius=1.0)
        engine = _StackEngine(target, support, 1.0, len(x0))
        images = x0.copy()
        traces = _run_stack(engine, sched, images)
        errors = traces[:, -1]
        for r, x in enumerate(x0):
            scale = np.max(np.abs(x))
            trace = []
            for _ in range(50):
                x = er_step(x, target, support, 1.0)
                trace.append(fourier_error(x, target, 1.0))
            assert np.max(np.abs(images[r] - x)) <= 1e-12 * scale
            # E_F is already normalized by the target, so its scale is 1.
            npt.assert_allclose(traces[r], trace, rtol=0, atol=1e-12)
            assert errors[r] == pytest.approx(trace[-1], rel=0, abs=1e-12)

    def test_zero_iterate_takes_zero_phase(self):
        g = grid(8)
        target = MagnitudeSpectrum(g, np.full((8, 8), 2.0))
        engine = _StackEngine(target, centered_box_mask(g, 4, 4), 1.0, 2)
        engine.transform(np.zeros((2, 8, 8)))
        want = project_magnitude(np.zeros((8, 8)), target, 1.0).real
        npt.assert_allclose(engine.project(), [want, want], atol=1e-14)


class TestTrivialAmbiguities:
    def test_magnitude_blind_to_shift_and_flip(self):
        g = grid()
        obj = objects.letter(g, height=12, stroke=2)
        base = magnitude_of(obj.values, g).values
        shifted = magnitude_of(np.roll(obj.values, (5, 3), axis=(0, 1)), g).values
        flipped = magnitude_of(point_reflect(obj.values), g).values
        npt.assert_allclose(base, shifted, atol=1e-12)
        npt.assert_allclose(base, flipped, atol=1e-12)
