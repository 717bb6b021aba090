"""In-process pipeline: simulate -> correlate -> spectrum -> (compensate)
-> support -> retrieve -> score.

The CLI subcommands call these functions and only add file I/O, so a
composed file-based run and a single in-process run produce the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .correlation import (
    CorrelationImage,
    FilterModel,
    compensate,
    correlate,
    default_epsilon,
    filter_model,
    magnitude_spectrum,
)
from .errors import ConfigError
from .evaluation import AlignmentResult, align_and_score, apply_alignment
from .forward import MeasurementSet, simulate
from .grid import MagnitudeSpectrum, RealImage
from . import objects
from .retrieval import (
    Reconstruction,
    SupportMask,
    centered_box_mask,
    estimate_support,
    run as run_retrieval,
)


def build_object(cfg: RunConfig) -> RealImage:
    """Resolve the configured object source (built-in name or .f64 path)."""
    source = cfg.object_source
    if source.endswith(".f64"):
        from .arrayio import read_array

        values, meta = read_array(source)
        grid = cfg.grid()
        if (meta["ny"], meta["nx"]) != grid.shape:
            raise ConfigError(
                f"object file is {meta['ny']}x{meta['nx']}, run grid is {grid.ny}x{grid.nx}"
            )
        return RealImage(grid, values)
    return objects.from_spec(cfg.grid(), source)


def run_simulation(cfg: RunConfig, obj: RealImage | None = None):
    """Simulate a measurement run; returns (measurements, truth object, truth PSF)."""
    from .forward import psf_for

    obj = obj if obj is not None else build_object(cfg)
    optical = cfg.optical()
    ms = simulate(obj, optical, cfg.ensemble(), cfg.noise(), cfg.psf_seed)
    psf = psf_for(optical, cfg.psf_seed)
    return ms, obj, psf


def choose_support(cfg: RunConfig, spectrum: MagnitudeSpectrum) -> SupportMask:
    """Support box per the configured policy."""
    grid = spectrum.grid
    policy = cfg.support
    if policy.box == "half":
        return centered_box_mask(grid, grid.ny // 2, grid.nx // 2)
    if policy.box == "estimate":
        return estimate_support(spectrum, policy.threshold_fraction, policy.margin_px)
    return centered_box_mask(grid, *policy.fixed_box())


@dataclass(frozen=True)
class ReconstructionResult:
    correlation: CorrelationImage
    spectrum: MagnitudeSpectrum
    target: MagnitudeSpectrum
    filter: FilterModel
    support: SupportMask
    reconstruction: Reconstruction
    alignment: AlignmentResult | None = None
    aligned_image: RealImage | None = None


def run_reconstruction(
    cfg: RunConfig,
    measurements: MeasurementSet,
    truth: RealImage | None = None,
) -> ReconstructionResult:
    """Correlate, form the magnitude target per the configured mode, retrieve."""
    corr = correlate(measurements)
    spec = magnitude_spectrum(corr)
    filt = filter_model(measurements.config)
    if cfg.compensation_mode == "compensated":
        target = compensate(spec, filt, default_epsilon(filt, cfg.epsilon_fraction))
    else:
        target = spec
    support = choose_support(cfg, target)
    recon = run_retrieval(target, cfg.schedule, support)
    alignment = aligned = None
    if truth is not None and truth.values.std() > 0 and recon.image.values.std() > 0:
        alignment = align_and_score(recon.image, truth)
        aligned = apply_alignment(recon.image, alignment)
    return ReconstructionResult(
        correlation=corr,
        spectrum=spec,
        target=target,
        filter=filt,
        support=support,
        reconstruction=recon,
        alignment=alignment,
        aligned_image=aligned,
    )


def run_pipeline(cfg: RunConfig):
    """Full simulate-and-reconstruct run; returns (measurements, truth, result)."""
    ms, obj, _ = run_simulation(cfg)
    result = run_reconstruction(cfg, ms, truth=obj)
    return ms, obj, result


def resolution_probe(cfg: RunConfig, separation: float) -> dict:
    """Two-point resolvability at a physical separation (meters).

    Runs the full pipeline on a two-point object and reports the Rayleigh-style
    dip contrast of the aligned reconstruction.
    """
    grid = cfg.grid()
    if separation < 2 * grid.pitch:
        raise ConfigError(
            f"separation {separation} m must be at least 2 pixels ({2 * grid.pitch} m)"
        )
    sep_px = int(round(separation / grid.pitch))
    from dataclasses import replace

    cfg = replace(cfg, object_source=f"two-points({sep_px})")
    ms, obj, result = run_pipeline(cfg)
    from .evaluation import is_resolved, two_point_contrast
    from .objects import two_point_columns

    y, x_left, x_right = two_point_columns(grid, sep_px)
    contrast = two_point_contrast(result.aligned_image, y, x_left, x_right)
    return {
        "separation_m": separation,
        "separation_px": sep_px,
        "contrast": contrast,
        "resolved": is_resolved(contrast),
        "pearson": result.alignment.pearson,
    }
