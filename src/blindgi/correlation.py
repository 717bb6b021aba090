"""Pattern-bucket correlation, its Fourier magnitude, and the transfer-
function model used to read (or compensate) the object spectrum out of it.

The correlation is the mean-removed estimator

    C(p) = (1/J) sum_j (B_j - mean B) (M_j(p) - mean_j M(p)),

streamed over regenerated patterns in bounded memory.  Mean removal is what
turns a 0/1 ensemble into the delta-correlated ensemble the factorization
|C~| = |O~| * F assumes, and it also suppresses the constant illumination
background.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .forward import MeasurementSet, OpticalConfig, pupil_mask
from .grid import Grid2D, MagnitudeSpectrum, _check_field, _frozen_values, indicator_autocorrelation
from .patterns import iter_chunks


@dataclass(frozen=True)
class CorrelationImage:
    """Mean-removed pattern-bucket correlation on the object grid."""

    grid: Grid2D
    values: np.ndarray
    count_used: int

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.values, np.float64))
        _check_field(self.grid, self.values, "correlation")


def correlate(measurements: MeasurementSet) -> CorrelationImage:
    """Correlation image from a measurement set, regenerating patterns on the fly.

    Streams the centred form C = (1/J) sum_j (B_j - mean B) M_j, equal to the
    mean-removed estimator because the centred buckets sum to zero, into one
    accumulator in fixed chunk order.
    """
    spec = measurements.ensemble
    if spec.count < 2:
        raise UsageError("correlation needs at least 2 measurements")
    centred = measurements.buckets - measurements.buckets.mean()
    acc = np.zeros(spec.grid.npixels)
    for lo, hi, batch in iter_chunks(spec):
        acc += centred[lo:hi] @ batch.reshape(hi - lo, -1)
    return CorrelationImage(spec.grid, (acc / spec.count).reshape(spec.grid.shape), spec.count)


def magnitude_spectrum(c: CorrelationImage) -> MagnitudeSpectrum:
    """Centered Fourier magnitude of the correlation image (unitary transform)."""
    mag = np.abs(np.fft.fftshift(np.fft.fft2(c.values, norm="ortho")))
    return MagnitudeSpectrum(c.grid, mag)


@dataclass(frozen=True)
class FilterModel:
    """The predictable spectral filter: lens MTF x speckle-MTF model x source-pixel MTF.

    All components are centered, normalized to 1 at zero frequency; ``mtf``
    is their pointwise product.
    """

    mtf: MagnitudeSpectrum
    lens_mtf: MagnitudeSpectrum
    speckle_mtf: MagnitudeSpectrum
    source_pixel_mtf: MagnitudeSpectrum


def _source_pixel_mtf(config: OpticalConfig) -> np.ndarray:
    """Magnitude spectrum of one source-pixel footprint on the object grid.

    The footprint is the source cell rasterized to whole grid pixels; for a
    footprint of one pixel the spectrum is flat.  Larger footprints give the
    sinc-like Dirichlet falloff.
    """
    grid = config.object_grid
    span = max(1, round(config.dmd_pitch / grid.pitch))
    block = np.zeros(grid.shape)
    block[:span, :span] = 1.0
    mag = np.abs(np.fft.fftshift(np.fft.fft2(block)))
    return mag / mag[grid.ny // 2, grid.nx // 2]


def filter_model(config: OpticalConfig) -> FilterModel:
    """Model of the overall spatial filter for the configured optical path.

    lens-only: lens MTF = normalized pupil autocorrelation, speckle term unity.
    scattering: speckle MTF = sqrt of the pupil autocorrelation; the model
    assumes the aperture stop alone limits the band (no lens cuts it
    further), so the lens term is unity.
    delta: both unity; only the source-pixel footprint remains.
    """
    grid = config.object_grid
    ones = np.ones(grid.shape)
    lens = speckle = ones
    if config.case == "lens-only":
        lens = indicator_autocorrelation(grid, pupil_mask(config))
    elif config.case == "scattering":
        speckle = np.sqrt(indicator_autocorrelation(grid, pupil_mask(config)))
    pixel = _source_pixel_mtf(config)
    product = lens * speckle * pixel
    return FilterModel(
        mtf=MagnitudeSpectrum(grid, product),
        lens_mtf=MagnitudeSpectrum(grid, lens),
        speckle_mtf=MagnitudeSpectrum(grid, speckle),
        source_pixel_mtf=MagnitudeSpectrum(grid, pixel),
    )


def compensate(
    spectrum: MagnitudeSpectrum, filt: FilterModel, epsilon: float
) -> MagnitudeSpectrum:
    """Regularized inverse filtering of a magnitude spectrum.

    |O|_est = |C| * F / (F^2 + epsilon^2); bins where F = 0 stay 0, and the
    zero-frequency bin is zeroed (it carries the illumination background, not
    object information).
    """
    if not epsilon > 0:
        raise UsageError(f"epsilon must be positive, got {epsilon}")
    grid = spectrum.grid
    f = filt.mtf.values
    est = spectrum.values * f / (f**2 + epsilon**2)
    est[grid.ny // 2, grid.nx // 2] = 0.0
    return MagnitudeSpectrum(grid, np.maximum(est, 0.0))


def default_epsilon(filt: FilterModel, fraction: float = 1e-2) -> float:
    return fraction * float(filt.mtf.values.max())
