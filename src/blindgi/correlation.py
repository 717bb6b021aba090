"""Pattern-bucket correlation, its Fourier magnitude, and the transfer-
function model F used to read (or compensate) the object spectrum out of it.

The correlation is the mean-removed estimator

    C(p) = (1/J) sum_j (B_j - mean B) (M_j(p) - mean_j M(p))
         = (1/J) (sum_j B_j M_j(p) - mean B * sum_j M_j(p)),

whose second form needs no mean during the pass over the patterns: the pass
that records the buckets can form both sums, M^T B and the exact on-count
M^T 1, so a noise-free run regenerates its patterns once.  Mean removal is
what turns a 0/1 ensemble into the delta-correlated ensemble the
factorization |C~| = |O~| * F assumes, and it also suppresses the constant
illumination background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .forward import MeasurementSet, OpticalConfig, pupil_mask
from .grid import Grid2D, MagnitudeSpectrum, freeze_field, indicator_autocorrelation, unit_scale
from .patterns import rmatvec


@dataclass(frozen=True)
class CorrelationImage:
    """Mean-removed pattern-bucket correlation on the object grid."""

    grid: Grid2D
    values: np.ndarray
    count_used: int

    def __post_init__(self):
        freeze_field(self, "values", "correlation", self.grid.shape)


def correlate(measurements: MeasurementSet) -> CorrelationImage:
    """Correlation image from a measurement set.

    C = (M^T B - mean(B) M^T 1) / J, formed on the unit-scaled buckets
    2^-e B (``grid.unit_scale``), where neither the sums nor the mean can
    overflow, and scaled back by 2^e: a power of two keeps every bit.  The
    sums are the record's own, which a noise-free ``simulate`` formed with
    the buckets, or else ``rmatvec``'s, one pass over regenerated patterns
    in fixed chunk order.  Both are the same sums in the same order, so the
    in-process and file routes agree.  The uncentred form cancels the
    mean's share of M^T B: at J = 2^16 on 64x64 fixed-fill patterns that
    costs about 1e-11 of C's peak (Chan, Golub and LeVeque, Am. Stat. 37,
    242 (1983), bound the loss by the ratio of mean to spread).
    """
    spec = measurements.ensemble
    if spec.count < 2:
        raise UsageError("correlation needs at least 2 measurements")
    scaled, e = unit_scale(measurements.buckets)
    if measurements.bucket_sum is None:
        total, count = rmatvec(spec, scaled)
    else:
        total, count = measurements.bucket_sum, measurements.on_count
    values = np.ldexp((total - scaled.mean() * count) / spec.count, e)
    return CorrelationImage(spec.grid, values, spec.count)


def magnitude_spectrum(c: CorrelationImage) -> MagnitudeSpectrum:
    """Centered Fourier magnitude of the correlation image (unitary transform)."""
    mag = np.abs(np.fft.fftshift(np.fft.fft2(c.values, norm="ortho")))
    return MagnitudeSpectrum(c.grid, mag)


def _source_pixel_mtf(config: OpticalConfig) -> np.ndarray:
    """Magnitude spectrum of one source-pixel footprint on the object grid.

    The footprint is the source cell rasterized to whole grid pixels; for a
    footprint of one pixel the spectrum is flat.  Larger footprints give the
    sinc-like Dirichlet falloff.
    """
    grid = config.object_grid
    # a footprint as wide as the grid already covers all of it
    span = max(1, round(min(config.dmd_pitch / grid.pitch, max(grid.shape))))
    block = np.zeros(grid.shape)
    block[:span, :span] = 1.0
    mag = np.abs(np.fft.fftshift(np.fft.fft2(block)))
    return mag / mag[grid.ny // 2, grid.nx // 2]


def filter_model(config: OpticalConfig) -> MagnitudeSpectrum:
    """MTF of the overall spatial filter for the configured optical path:
    lens MTF x speckle-MTF model x source-pixel MTF, each centered and 1 at
    zero frequency, so the product is 1 there and at most 1 elsewhere.

    lens-only: lens MTF = normalized pupil autocorrelation, speckle term unity.
    scattering: speckle MTF = sqrt of the pupil autocorrelation; the model
    assumes the aperture stop alone limits the band (no lens cuts it
    further), so the lens term is unity.
    delta: both unity; only the source-pixel footprint remains.
    """
    grid = config.object_grid
    lens = speckle = 1.0
    if config.case == "lens-only":
        lens = indicator_autocorrelation(grid, pupil_mask(config))
    elif config.case == "scattering":
        speckle = np.sqrt(indicator_autocorrelation(grid, pupil_mask(config)))
    return MagnitudeSpectrum(grid, lens * speckle * _source_pixel_mtf(config))


def compensate(
    spectrum: MagnitudeSpectrum, mtf: MagnitudeSpectrum, epsilon: float
) -> MagnitudeSpectrum:
    """Regularized inverse filtering of a magnitude spectrum by the MTF F.

    |O|_est = |C| * F / (F^2 + epsilon^2); bins where F = 0 stay 0, and the
    zero-frequency bin is zeroed (it carries the illumination background, not
    object information).  F peaks at 1, so epsilon is a fraction of its peak.
    """
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    grid = spectrum.grid
    f = mtf.values
    est = np.zeros(grid.shape)
    np.divide(spectrum.values * f, f**2 + epsilon**2, out=est, where=f > 0)
    est[grid.ny // 2, grid.nx // 2] = 0.0
    return MagnitudeSpectrum(grid, np.maximum(est, 0.0))
