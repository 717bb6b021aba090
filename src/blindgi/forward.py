"""Forward model: source-to-object PSFs, illumination, and bucket signals.

The source patterns, the object, and the PSF all live on one object-plane
grid (the source plane is taken as already mapped through the imaging
optics), so illumination is a circular convolution and bucket detection is
a plain weighted sum.

PSF arrays use the uncentered layout: index (0, 0) is zero displacement, so
convolving with a PSF does not translate the scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .grid import Grid2D, RealImage, circ_convolve, point_reflect, require_mask_in_central_half
from .patterns import EnsembleSpec, Pattern, _philox, iter_chunks
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

    ``aperture_diameter`` is the stop in front of the scattering layer; its
    incoherent cutoff ``aperture_diameter / (wavelength * z_o)`` must be
    representable on the object grid.  ``case`` selects the PSF model:
    a diffraction-limited lens, one speckle realization behind a diffuser,
    or an ideal single-pixel kernel ("delta", useful as a no-optics
    reference).
    """

    wavelength: float
    z_m: float
    z_l: float
    z_o: float
    focal_length: float
    aperture_diameter: float
    dmd_pitch: float
    object_grid: Grid2D
    case: str = "scattering"

    def __post_init__(self):
        lengths = {
            "wavelength": self.wavelength,
            "z_m": self.z_m,
            "z_l": self.z_l,
            "z_o": self.z_o,
            "focal_length": self.focal_length,
            "aperture_diameter": self.aperture_diameter,
            "dmd_pitch": self.dmd_pitch,
        }
        for name, value in lengths.items():
            if not (value > 0 and np.isfinite(value)):
                raise ConfigError(f"optical length {name} must be positive, got {value}")
        if self.case not in CASES:
            raise ConfigError(f"unknown case {self.case!r}; expected one of {CASES}")
        if self.case != "delta" and self.cutoff_frequency > self.object_grid.nyquist:
            raise ConfigError(
                "aperture cutoff above grid Nyquist: "
                f"aperture_diameter/(wavelength*z_o) = {self.cutoff_frequency:.4g} cycles/m "
                f"exceeds 1/(2*pitch) = {self.object_grid.nyquist:.4g} cycles/m; "
                "reduce aperture_diameter, or increase wavelength, z_o, or grid pitch"
            )

    @property
    def cutoff_frequency(self) -> float:
        """Support radius of the intensity MTF, cycles/m."""
        return self.aperture_diameter / (self.wavelength * self.z_o)

    @property
    def resolution_limit(self) -> float:
        """Nominal resolution wavelength*z_o/aperture_diameter, meters."""
        return 1.0 / self.cutoff_frequency

    @property
    def pupil_diameter_px(self) -> float:
        """Aperture diameter in pupil-grid pixels (pupil pitch wavelength*z_o/(N*pitch))."""
        g = self.object_grid
        return self.aperture_diameter * g.nx * g.pitch / (self.wavelength * self.z_o)


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
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != self.grid.shape:
            raise ConfigError(f"PSF shape {vals.shape} does not match grid")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise DataError("PSF values must be finite and nonnegative")
        total = vals.sum()
        if abs(total - 1.0) > 1e-12:
            raise DataError(f"PSF must sum to 1 within 1e-12, got {total!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def _psf_from_pupil_field(grid: Grid2D, pupil_field: np.ndarray) -> PSF:
    field = np.fft.ifft2(np.fft.ifftshift(pupil_field))
    intensity = np.abs(field) ** 2
    return PSF(grid, intensity / intensity.sum())


def delta_psf(grid: Grid2D) -> PSF:
    """Ideal kernel: all energy in the zero-displacement pixel."""
    vals = np.zeros(grid.shape)
    vals[0, 0] = 1.0
    return PSF(grid, vals)


def lens_psf(config: OpticalConfig) -> PSF:
    """Diffraction-limited incoherent PSF of the aperture-limited lens path.

    Its OTF magnitude equals the normalized autocorrelation of the circular
    pupil indicator.
    """
    if config.case != "lens-only":
        raise ConfigError(f"lens_psf requires case 'lens-only', got {config.case!r}")
    return _psf_from_pupil_field(config.object_grid, pupil_mask(config).astype(complex))


def speckle_psf(config: OpticalConfig, psf_seed: int) -> PSF:
    """One speckle realization: uniform random phases across the aperture.

    Deterministic in psf_seed; the diffuser is held fixed for a whole
    measurement run.
    """
    if config.case != "scattering":
        raise ConfigError(f"speckle_psf requires case 'scattering', got {config.case!r}")
    grid = config.object_grid
    rng = _philox(psf_seed, _STREAM_SPECKLE)
    phases = rng.random(grid.shape) * (2.0 * np.pi)
    return _psf_from_pupil_field(grid, pupil_mask(config) * np.exp(1j * phases))


def psf_for(config: OpticalConfig, psf_seed: int) -> PSF:
    if config.case == "lens-only":
        return lens_psf(config)
    if config.case == "scattering":
        return speckle_psf(config, psf_seed)
    return delta_psf(config.object_grid)


def otf_magnitude(psf: PSF) -> np.ndarray:
    """Centered MTF of a PSF, normalized to 1 at zero frequency."""
    otf = np.fft.fftshift(np.fft.fft2(psf.values, norm="ortho"))
    mag = np.abs(otf)
    return mag / mag[psf.grid.ny // 2, psf.grid.nx // 2]


def illuminate(pattern: Pattern, psf: PSF) -> RealImage:
    """Illumination produced by one source pattern: pattern convolved with the PSF."""
    if pattern.grid != psf.grid:
        raise ConfigError(
            f"pattern grid {pattern.grid} does not match PSF grid {psf.grid}"
        )
    out = circ_convolve(RealImage(pattern.grid, pattern.values), RealImage(psf.grid, psf.values))
    return RealImage(out.grid, np.maximum(out.values, 0.0))


def bucket(obj: RealImage, illumination: RealImage) -> float:
    """Bucket-detector reading: total transmitted intensity, pitch^2-weighted."""
    if obj.grid != illumination.grid:
        raise ConfigError("object and illumination grids differ")
    if np.any(obj.values < 0):
        raise DataError("object transmittance must be nonnegative")
    return float(np.sum(obj.values * illumination.values)) * obj.grid.pitch**2


def bucket_weights(obj: RealImage, psf: PSF) -> np.ndarray:
    """Per-pixel weights w with bucket_j = sum(w * M_j).

    Integrating the object against a convolved pattern equals integrating the
    pattern against the object correlated with the reflected kernel, so all J
    buckets reduce to dot products against one precomputed image.
    """
    reflected = RealImage(psf.grid, point_reflect(psf.values))
    w = circ_convolve(obj, reflected)
    return w.values * obj.grid.pitch**2


@dataclass(frozen=True)
class NoiseModel:
    """Detector-noise recipe applied to bucket signals."""

    kind: str = "none"
    snr_db: float = 20.0
    photons: float = 1e6

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}; expected one of {NOISE_KINDS}")
        if self.kind == "gaussian" and not np.isfinite(self.snr_db):
            raise ConfigError("gaussian noise needs a finite snr_db")
        if self.kind == "poisson" and not self.photons > 0:
            raise ConfigError("poisson noise needs photons > 0")


@dataclass(frozen=True)
class MeasurementSet:
    """Everything the reconstruction side is allowed to see, plus the buckets."""

    ensemble: EnsembleSpec
    buckets: np.ndarray
    config: OpticalConfig
    psf_seed: int

    def __post_init__(self):
        b = np.asarray(self.buckets, dtype=np.float64)
        if b.ndim != 1 or b.size != self.ensemble.count:
            raise ConfigError(
                f"expected {self.ensemble.count} buckets, got array of shape {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            raise DataError("buckets contain non-finite values")
        b.setflags(write=False)
        object.__setattr__(self, "buckets", b)


def validate_object_support(obj: RealImage) -> None:
    """Objects must fit in the central half of the grid (both axes)."""
    require_mask_in_central_half(obj.grid, obj.values, "object support")


def _apply_noise(buckets: np.ndarray, noise: NoiseModel, psf_seed: int) -> np.ndarray:
    if noise.kind == "none":
        return buckets
    rng = _philox(psf_seed, _STREAM_NOISE)
    if noise.kind == "gaussian":
        # SNR is measured against the mean-removed bucket fluctuation, the
        # part of the signal the correlation estimator uses.
        sigma = np.std(buckets - buckets.mean()) / 10.0 ** (noise.snr_db / 20.0)
        return buckets + rng.normal(0.0, sigma, buckets.shape)
    scale = noise.photons / buckets.mean() if buckets.mean() > 0 else 1.0
    lam = buckets * scale
    if lam.max() > _POISSON_LAM_MAX:
        raise ConfigError(
            f"noise.photons = {noise.photons!r} gives a Poisson mean of {lam.max():.3g} photons "
            f"in the brightest bucket, above the sampler's limit of {_POISSON_LAM_MAX:.3g}"
        )
    return rng.poisson(lam).astype(np.float64) / scale


def simulate(
    obj: RealImage,
    config: OpticalConfig,
    ensemble: EnsembleSpec,
    noise: NoiseModel,
    psf_seed: int,
) -> MeasurementSet:
    """Record bucket signals for a whole pattern ensemble.

    One PSF realization is drawn once and held fixed for all J patterns (the
    diffuser is static during acquisition).  Deterministic given
    (psf_seed, ensemble.seed); bucket order is fixed by pattern index.
    """
    if ensemble.grid != config.object_grid:
        raise ConfigError("ensemble grid does not match the object grid")
    if obj.grid != config.object_grid:
        raise ConfigError("object grid does not match the configured grid")
    if np.any(obj.values < 0):
        raise DataError("object transmittance must be nonnegative")
    validate_object_support(obj)

    psf = psf_for(config, psf_seed)
    w = bucket_weights(obj, psf).ravel()
    buckets = np.empty(ensemble.count)
    for lo, hi, batch in iter_chunks(ensemble):
        buckets[lo:hi] = batch.reshape(hi - lo, -1) @ w
    buckets = _apply_noise(buckets, noise, psf_seed)
    return MeasurementSet(ensemble, buckets, config, psf_seed)
