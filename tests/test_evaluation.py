"""Alignment scoring and the two-point resolution machinery."""

import numpy as np
import numpy.testing as npt
import pytest

from blindgi import (
    ConfigError,
    Grid2D,
    NumericalError,
    RealImage,
    UsageError,
    align_and_score,
    apply_alignment,
    point_reflect,
)
from blindgi.evaluation import is_resolved, two_point_contrast
from blindgi import objects


def grid(n=32):
    return Grid2D(nx=n, ny=n, pitch=1e-5)


def letter_image(g):
    return objects.letter(g, height=12, stroke=2)


class TestAlignAndScore:
    def test_identity(self):
        g = grid()
        obj = letter_image(g)
        res = align_and_score(obj, obj)
        assert res.shift == (0, 0) and not res.flipped
        assert res.pearson == pytest.approx(1.0, abs=1e-12)

    def test_recovers_constructed_shift(self):
        g = grid()
        truth = letter_image(g)
        shifted = RealImage(g, np.roll(truth.values, (3, 5), axis=(0, 1)))
        res = align_and_score(shifted, truth)
        assert res.pearson == pytest.approx(1.0, abs=1e-12)
        assert res.shift == (3, 5) and not res.flipped
        aligned = apply_alignment(shifted, res)
        npt.assert_allclose(aligned.values, truth.values, atol=1e-12)

    def test_recovers_point_reflection(self):
        # the blocky digit glyph is centrosymmetric, so use an L shape here
        g = grid()
        vals = np.zeros(g.shape)
        vals[12:20, 14:16] = 1.0
        vals[18:20, 14:21] = 1.0
        truth = RealImage(g, vals)
        flipped = RealImage(g, point_reflect(truth.values))
        res = align_and_score(flipped, truth)
        assert res.flipped and res.pearson == pytest.approx(1.0, abs=1e-12)
        aligned = apply_alignment(flipped, res)
        npt.assert_allclose(aligned.values, truth.values, atol=1e-12)

    def test_centrosymmetric_glyph_prefers_unflipped(self):
        # point-reflecting the digit glyph is equivalent to a pure shift;
        # the tie-break must report the unflipped variant
        g = grid()
        truth = letter_image(g)
        flipped = RealImage(g, point_reflect(truth.values))
        res = align_and_score(flipped, truth)
        assert not res.flipped
        assert res.pearson == pytest.approx(1.0, abs=1e-12)
        aligned = apply_alignment(flipped, res)
        npt.assert_allclose(aligned.values, truth.values, atol=1e-12)

    def test_score_invariant_under_transforms_of_either_argument(self):
        g = grid()
        rng = np.random.default_rng(3)
        a = RealImage(g, rng.random(g.shape))
        b = RealImage(g, rng.random(g.shape))
        base = align_and_score(a, b).pearson
        moved_a = RealImage(g, np.roll(point_reflect(a.values), (4, 1), axis=(0, 1)))
        moved_b = RealImage(g, np.roll(b.values, (0, 7), axis=(0, 1)))
        assert align_and_score(moved_a, b).pearson == pytest.approx(base, abs=1e-12)
        assert align_and_score(a, moved_b).pearson == pytest.approx(base, abs=1e-12)

    def test_zero_variance_rejected(self):
        # either side constant, whatever the roundoff of its std (1.4e-17 for
        # 0.1 on 32x32, 2.8e-17 on 33x33)
        for n, value in ((32, 1.0), (32, 0.1), (33, 0.1), (45, 0.1)):
            g = grid(n)
            flat = RealImage(g, np.full(g.shape, value))
            for recon, truth in ((flat, letter_image(g)), (letter_image(g), flat)):
                with pytest.raises(NumericalError, match="constant image"):
                    align_and_score(recon, truth)

    def test_tiny_values_score(self):
        # squares of 1e-300 underflow, but the image is not constant
        g = grid()
        vals = np.full(g.shape, 1e-300)
        vals[16, 16] = 3e-300
        truth = np.zeros(g.shape)
        truth[18, 13] = 1.0
        res = align_and_score(RealImage(g, vals), RealImage(g, truth))
        assert res.pearson == pytest.approx(1.0, abs=1e-12) and res.shift == (-2 % 32, 3)

    def test_grids_must_match(self):
        with pytest.raises(ConfigError, match="grids differ"):
            align_and_score(letter_image(grid(32)), letter_image(grid(33)))

    def test_same_bits_at_every_power_of_two_scale(self):
        # both images at 2^k: the same shift, flip and Pearson bits, with
        # squares that would overflow (k > 0) or underflow (k < 0)
        g = grid()
        rng = np.random.default_rng(5)
        truth = letter_image(g).values
        recon = point_reflect(np.roll(truth, (3, -4), axis=(0, 1))) + 0.5 * rng.random(g.shape)
        base = align_and_score(RealImage(g, recon), RealImage(g, truth))
        for k in (300, -300, 600, -600, 1000, -1000):
            scaled = (RealImage(g, np.ldexp(v, k)) for v in (recon, truth))
            res = align_and_score(*scaled)
            assert (res.shift, res.flipped) == (base.shift, base.flipped), k
            assert res.pearson.hex() == base.pearson.hex(), k

    def test_inverted_input_scores_poorly(self):
        # the shift search can always find a weakly positive overlap, but an
        # inverted image must score far below a faithful one
        g = grid()
        obj = letter_image(g)
        inverted = RealImage(g, 1.0 - obj.values)
        res = align_and_score(inverted, obj)
        assert res.pearson < 0.5


class TestTwoPointContrast:
    def test_clean_two_points_fully_resolved(self):
        g = grid()
        sep = 8
        obj = objects.two_points(g, sep)
        y, xl, xr = objects.two_point_columns(g, sep)
        contrast = two_point_contrast(obj, y, xl, xr)
        assert contrast == pytest.approx(1.0)
        assert is_resolved(contrast)

    def test_merged_blob_unresolved(self):
        g = grid()
        sep = 6
        y, xl, xr = objects.two_point_columns(g, sep)
        vals = np.zeros(g.shape)
        x = np.arange(g.nx)
        vals[y] = np.exp(-0.5 * ((x - (xl + xr) / 2) / 4.0) ** 2)  # single hump
        contrast = two_point_contrast(RealImage(g, vals), y, xl, xr)
        assert contrast < 0.2
        assert not is_resolved(contrast)

    def test_partial_dip(self):
        g = grid()
        sep = 6
        y, xl, xr = objects.two_point_columns(g, sep)
        vals = np.zeros(g.shape)
        vals[y, xl] = vals[y, xr] = 1.0
        vals[y, xl + 1 : xr] = 0.7
        contrast = two_point_contrast(RealImage(g, vals), y, xl, xr)
        assert contrast == pytest.approx(0.3)

    def test_dark_points_have_zero_contrast(self):
        g = grid()
        y, xl, xr = objects.two_point_columns(g, 6)
        assert two_point_contrast(RealImage(g, np.zeros(g.shape)), y, xl, xr) == 0.0

    def test_points_must_be_ordered(self):
        g = grid()
        y, xl, xr = objects.two_point_columns(g, 6)
        with pytest.raises(UsageError, match="x_right must exceed x_left"):
            two_point_contrast(objects.two_points(g, 6), y, xr, xl)


class TestObjects:
    def test_builders_fit_central_half(self):
        from blindgi.grid import require_mask_in_central_half

        g = Grid2D(nx=64, ny=64, pitch=1e-5)
        for img in (
            objects.letter(g),
            objects.rectangle(g, 20, 12),
            objects.double_slit(g),
            objects.two_points(g, 9),
        ):
            require_mask_in_central_half(g, img.values, "object")  # raises on violation
            assert set(np.unique(img.values)) <= {0.0, 1.0}

    def test_from_spec_parsing(self):
        g = Grid2D(nx=64, ny=64, pitch=1e-5)
        npt.assert_array_equal(
            objects.from_spec(g, "two-points(9)").values, objects.two_points(g, 9).values
        )
        npt.assert_array_equal(
            objects.from_spec(g, "rectangle(20,12)").values,
            objects.rectangle(g, 20, 12).values,
        )
        npt.assert_array_equal(objects.from_spec(g, "letter").values, objects.letter(g).values)

    def test_from_spec_rejects_unknown(self):
        from blindgi import ConfigError

        with pytest.raises(ConfigError):
            objects.from_spec(grid(), "octagon(3)")
