"""Forward model: source-to-object PSFs, illumination, and bucket signals.

The source patterns, the object, and the PSF all live on one object-plane
grid (the source plane is taken as already mapped through the imaging
optics), so illumination is a circular convolution and bucket detection is
a plain weighted sum.

PSF arrays use the uncentered layout: index (0, 0) is zero displacement, so
convolving with a PSF does not translate the scene.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigError, DataError, overflow_guard
from .grid import (Grid2D, RealImage, circ_convolve, freeze_field, point_reflect,
                   require_mask_in_central_half, unit_scale)
from .patterns import EnsembleSpec, _philox, matvec, matvec_covariance
# Not called here; kept importable as forward.pattern_batch, the name the
# benchmark's tracer test (perfbench/tests) patches and restores.
from .patterns import pattern_batch  # noqa: F401

CASES = ("lens-only", "scattering", "delta")
NOISE_KINDS = ("none", "gaussian", "poisson")

# Key words separating the random streams derived from psf_seed.
_STREAM_SPECKLE = 0x5053_4600
_STREAM_NOISE = 0x4E4F_4900

# numpy's Generator.poisson rejects larger means.
_POISSON_LAM_MAX = 9.2e18


@dataclass(frozen=True)
class OpticalConfig:
    """Geometry of the projection system, in meters.

    ``aperture_diameter`` is the stop in front of the scattering layer and
    ``z_o`` the distance from it to the object plane; the stop's incoherent
    cutoff ``aperture_diameter / (wavelength * z_o)`` must be
    representable on the object grid.  ``case`` selects the PSF model:
    a diffraction-limited lens, one speckle realization behind a diffuser,
    or an ideal single-pixel kernel ("delta", useful as a no-optics
    reference).
    """

    wavelength: float
    z_o: float
    aperture_diameter: float
    dmd_pitch: float
    object_grid: Grid2D
    case: str = "scattering"

    def __post_init__(self):
        lengths = {
            "wavelength": self.wavelength,
            "z_o": self.z_o,
            "aperture_diameter": self.aperture_diameter,
            "dmd_pitch": self.dmd_pitch,
        }
        for name, value in lengths.items():
            if not (value > 0 and np.isfinite(value)):
                raise ConfigError(f"optical.{name} must be positive, got {value}")
        if self.case not in CASES:
            raise ConfigError(f"unknown optical.case {self.case!r}; expected one of {CASES}")
        if self.case != "delta" and self.cutoff_frequency > self.object_grid.nyquist:
            raise ConfigError(
                "aperture cutoff above grid Nyquist: "
                f"aperture_diameter/(wavelength*z_o) = {self.cutoff_frequency:.4g} cycles/m "
                f"exceeds 1/(2*pitch) = {self.object_grid.nyquist:.4g} cycles/m; "
                "reduce optical.aperture_diameter, or increase optical.wavelength, "
                "optical.z_o or grid.pitch"
            )

    @property
    def cutoff_frequency(self) -> float:
        """Support radius of the intensity MTF, cycles/m; infinite where
        wavelength * z_o underflows to 0."""
        wz = self.wavelength * self.z_o
        return self.aperture_diameter / wz if wz > 0 else np.inf

    @property
    def resolution_limit(self) -> float:
        """Nominal resolution wavelength*z_o/aperture_diameter, meters."""
        return 1.0 / self.cutoff_frequency


def pupil_mask(config: OpticalConfig) -> np.ndarray:
    """Centered aperture indicator on the object-plane frequency grid.

    Circular in physical frequency units; the coherent pupil radius is
    cutoff/2, so the intensity autocorrelation support reaches the cutoff.
    """
    g = config.object_grid
    return g.freq_radius() < config.cutoff_frequency / 2.0


@dataclass(frozen=True)
class PSF:
    """Nonnegative unit-sum intensity point-spread function (uncentered layout)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        freeze_field(self, "values", "PSF", self.grid.shape)
        if np.any(self.values < 0):
            raise DataError("PSF values must be nonnegative")
        total = self.values.sum()
        if abs(total - 1.0) > 1e-12:
            raise DataError(f"PSF must sum to 1 within 1e-12, got {total!r}")


def psf_for(config: OpticalConfig, psf_seed: int) -> PSF:
    """The PSF of the configured case, the only PSF builder.

    lens-only: the diffraction-limited incoherent PSF of the aperture, whose
    OTF magnitude is the normalized autocorrelation of the pupil indicator.
    scattering: one speckle realization, uniform random phases across the
    aperture, deterministic in psf_seed (the diffuser is held fixed for a
    whole measurement run).  delta: all energy in the zero-displacement
    pixel.
    """
    grid = config.object_grid
    if config.case == "delta":
        vals = np.zeros(grid.shape)
        vals[0, 0] = 1.0
        return PSF(grid, vals)
    if config.case == "lens-only":
        pupil_field = pupil_mask(config).astype(complex)
    else:
        phases = _philox(psf_seed, _STREAM_SPECKLE).random(grid.shape) * (2.0 * np.pi)
        pupil_field = pupil_mask(config) * np.exp(1j * phases)
    intensity = np.abs(np.fft.ifft2(np.fft.ifftshift(pupil_field))) ** 2
    return PSF(grid, intensity / intensity.sum())


def bucket_weights(obj: RealImage, psf: PSF) -> np.ndarray:
    """Per-pixel weights w with bucket_j = sum(w * M_j).

    Integrating the object against a convolved pattern equals integrating the
    pattern against the object correlated with the reflected kernel, so all J
    buckets reduce to dot products against one precomputed image.

    Values of the convolution within the FFT's roundoff of zero, |w| <=
    npixels * eps * max|w|, are set to exactly 0: with the delta PSF the
    nonzero weights are then the object's pixels, and ``matvec`` reads only
    the pattern bytes that cover them.  The rule applies to the convolution,
    which a RealImage holds finite, before the pitch^2 scale, so a weight
    that overflows only when scaled stays infinite, with no warning, and
    ``simulate`` refuses the buckets.
    """
    reflected = RealImage(psf.grid, point_reflect(psf.values))
    w = circ_convolve(obj, reflected).values
    roundoff = w.size * np.finfo(np.float64).eps * np.abs(w).max()
    with np.errstate(over="ignore"):
        return np.where(np.abs(w) <= roundoff, 0.0, w) * obj.grid.pitch**2


@dataclass(frozen=True)
class NoiseModel:
    """Detector-noise recipe applied to bucket signals."""

    kind: str = "none"
    snr_db: float = 20.0
    photons: float = 1e6

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise.kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if self.kind == "gaussian" and not np.isfinite(self.snr_db):
            raise ConfigError(f"gaussian noise needs a finite noise.snr_db, got {self.snr_db}")
        if self.kind == "poisson" and not 0 < self.photons <= _POISSON_LAM_MAX:
            raise ConfigError(
                f"poisson noise needs 0 < noise.photons <= {_POISSON_LAM_MAX:.3g}, the sampler's "
                f"largest mean, got {self.photons}"
            )


@dataclass(frozen=True)
class MeasurementSet:
    """What the reconstruction side is allowed to see of a measurement: the
    pattern recipe and the buckets.  The diffuser realization is not part of
    it.

    ``correlation`` is the correlation C = M^T (B - mean B) / J of the
    buckets B (``patterns.covariance``), or None.  Only the third constructor
    argument sets it: a noise-free ``simulate`` stores the C it formed in the
    pass that recorded the buckets, so ``correlate`` walks no patterns.
    ``dataclasses.replace`` never carries it over, so a record with other
    buckets or another recipe has none.
    """

    ensemble: EnsembleSpec
    buckets: np.ndarray
    known_correlation: InitVar[np.ndarray | None] = None
    correlation: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self, known_correlation):
        freeze_field(self, "buckets", "buckets", (self.ensemble.count,))
        if known_correlation is not None:
            object.__setattr__(self, "correlation", known_correlation)
            freeze_field(self, "correlation", "correlation", self.ensemble.grid.shape)


def _apply_noise(buckets: np.ndarray, noise: NoiseModel, psf_seed: int) -> np.ndarray:
    rng = _philox(psf_seed, _STREAM_NOISE)
    # the bucket statistics are taken at unit scale, where neither the mean
    # nor the squares can overflow, and scaled back by the same power of two
    scaled, e = unit_scale(buckets)
    if noise.kind == "gaussian":
        # SNR is measured against the mean-removed bucket fluctuation, the
        # part of the signal the correlation estimator uses.
        try:
            ratio = 10.0 ** (noise.snr_db / 20.0)
        except OverflowError:  # above about 6165 dB no float noise is left to add
            ratio = np.inf
        std = float(np.ldexp(np.std(scaled - scaled.mean()), e))
        if not (ratio > 0 and std / ratio < np.inf):
            raise ConfigError(f"noise.snr_db = {noise.snr_db!r} makes the noise level overflow")
        return buckets + rng.normal(0.0, std / ratio, buckets.shape)
    mean = float(np.ldexp(scaled.mean(), e))
    scale = noise.photons / mean if mean > 0 else 1.0
    lam = buckets * scale
    if lam.max() > _POISSON_LAM_MAX:
        raise ConfigError(
            f"noise.photons = {noise.photons!r} gives a Poisson mean of {lam.max():.3g} photons "
            f"in the brightest bucket, above the sampler's limit of {_POISSON_LAM_MAX:.3g}"
        )
    # the weights are a nonnegative object seen through a nonnegative PSF, so
    # a bucket can fall below 0 only by roundoff; the draw takes it as 0
    return rng.poisson(np.maximum(lam, 0.0)).astype(np.float64) / scale


def simulate(
    obj: RealImage,
    psf: PSF,
    ensemble: EnsembleSpec,
    noise: NoiseModel,
    psf_seed: int,
    *,
    sums: bool = True,
) -> MeasurementSet:
    """Record bucket signals for a whole pattern ensemble.

    The one PSF given is held fixed for all J patterns (the diffuser is
    static during acquisition); ``psf_seed``, which drew it, also keys the
    noise stream.  Deterministic given (psf, psf_seed, ensemble.seed);
    bucket order is fixed by pattern index.  Buckets that overflow are
    refused (DataError) before any noise is drawn, and noise arithmetic
    that overflows on finite buckets is a NumericalError naming their peak.

    A noise-free run with ``sums`` also forms the record's ``correlation``
    in the pass that gathers the buckets, so that ``correlate`` walks no
    patterns; a caller that never correlates turns it off and saves the
    scatter.  Noise is drawn after the pass and its Gaussian level needs the
    spread of all buckets, so a noisy run leaves C to ``correlate``.
    """
    if ensemble.grid != psf.grid:
        raise ConfigError("ensemble grid does not match the PSF grid")
    if obj.grid != psf.grid:
        raise ConfigError("object grid does not match the PSF grid")
    if np.any(obj.values < 0):
        raise DataError("object transmittance must be nonnegative")
    require_mask_in_central_half(obj.grid, obj.values, "object support")
    # J float64 buckets need J * 8 addressable bytes; a pattern index may go further
    most = np.iinfo(np.intp).max // 8
    if ensemble.count > most:
        raise ConfigError(f"ensemble.count must be <= {most}, got {ensemble.count}")

    with np.errstate(over="ignore", invalid="ignore"):  # the record refuses non-finite buckets
        weights = bucket_weights(obj, psf)
        if sums and noise.kind == "none":
            return MeasurementSet(ensemble, *matvec_covariance(ensemble, weights))
        measured = MeasurementSet(ensemble, matvec(ensemble, weights))
    if noise.kind == "none":
        return measured
    with overflow_guard("add bucket noise", signal=measured.buckets):
        return MeasurementSet(ensemble, _apply_noise(measured.buckets, noise, psf_seed))
