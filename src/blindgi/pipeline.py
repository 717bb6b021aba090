"""In-process pipeline: simulate -> correlate -> spectrum -> (compensate)
-> support -> retrieve -> score.

The CLI subcommands call these functions and only add file I/O, so a
composed file-based run and a single in-process run produce the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import arrayio, objects
from .config import RunConfig
from .correlation import CorrelationImage, compensate, correlate, filter_model, magnitude_spectrum
from .errors import ConfigError, FormatError, overflow_guard
from .evaluation import (AlignmentResult, align_and_score, apply_alignment, is_resolved,
                         two_point_contrast)
from .forward import MeasurementSet, psf_for, simulate
from .grid import Grid2D, MagnitudeSpectrum, RealImage
from .retrieval import Reconstruction, SupportMask, run as run_retrieval


def read_image(path: str, grid: Grid2D) -> RealImage:
    """An ``.f64`` image on the run grid; FormatError naming the file if it is not one."""
    values, meta = arrayio.read_array(path)
    if meta["kind"] != arrayio.KIND_IMAGE:
        raise FormatError(f"{path}: kind tag {meta['kind']:g} at byte offset 48 is not an "
                          f"image's ({arrayio.KIND_IMAGE:g})")
    if values.shape != grid.shape or meta["pitch"] != grid.pitch:
        raise FormatError(f"{path}: array is {meta['ny']}x{meta['nx']}, run grid is {grid.ny}x"
                          f"{grid.nx}; pitch {meta['pitch']!r} m, run pitch {grid.pitch!r} m")
    return RealImage(grid, values)


def build_object(cfg: RunConfig) -> RealImage:
    """Resolve the configured object source (built-in name or .f64 path)."""
    if cfg.object_source.endswith(".f64"):
        return read_image(cfg.object_source, cfg.grid())
    return objects.from_spec(cfg.grid(), cfg.object_source)


def run_simulation(cfg: RunConfig, obj: RealImage | None = None):
    """Simulate a measurement run; returns (measurements, truth object, truth PSF)."""
    obj = obj if obj is not None else build_object(cfg)
    psf = psf_for(cfg.optical(), cfg.psf_seed)
    return simulate(obj, psf, cfg.ensemble(), cfg.noise(), cfg.psf_seed), obj, psf


@dataclass(frozen=True)
class ReconstructionResult:
    correlation: CorrelationImage
    spectrum: MagnitudeSpectrum
    target: MagnitudeSpectrum
    support: SupportMask
    reconstruction: Reconstruction
    alignment: AlignmentResult | None = None


def run_reconstruction(
    cfg: RunConfig,
    measurements: MeasurementSet,
    truth: RealImage | None = None,
) -> ReconstructionResult:
    """Correlate, form the magnitude target per the configured mode, retrieve."""
    corr = correlate(measurements)
    with overflow_guard("reconstruct", correlation=corr.values):
        spec = magnitude_spectrum(corr)
        if cfg.compensation_mode == "compensated":
            target = compensate(spec, filter_model(cfg.optical()), cfg.epsilon_fraction)
        else:
            target = spec
        support = cfg.support.select(target)
        recon = run_retrieval(target, cfg.schedule, support)
        alignment = None
        if truth is not None and all(v.max() > v.min() for v in (truth.values, recon.image.values)):
            alignment = align_and_score(recon.image, truth)
    return ReconstructionResult(corr, spec, target, support, recon, alignment)


def separation_px(grid: Grid2D, separation: float) -> int:
    """Pixels between the two points of a probe ``separation`` meters apart;
    ConfigError unless that is at least 2 and both points lie in the central half."""
    if not 2 * grid.pitch <= separation <= grid.nx * grid.pitch:
        raise ConfigError(f"separation {separation} m must be between 2 pixels "
                          f"({2 * grid.pitch} m) and the grid width ({grid.nx * grid.pitch} m)")
    sep_px = int(round(separation / grid.pitch))
    objects.two_point_columns(grid, sep_px)
    return sep_px


def resolution_probe(cfg: RunConfig, separation: float) -> dict:
    """Two-point resolvability at a physical separation (meters).

    Runs the full pipeline on a two-point object and reports the Rayleigh-style
    dip contrast of the aligned reconstruction.
    """
    grid = cfg.grid()
    sep_px = separation_px(grid, separation)
    obj = objects.two_points(grid, sep_px)
    result = run_reconstruction(cfg, run_simulation(cfg, obj)[0], truth=obj)
    y, x_left, x_right = objects.two_point_columns(grid, sep_px)
    aligned = apply_alignment(result.reconstruction.image, result.alignment)
    contrast = two_point_contrast(aligned, y, x_left, x_right)
    return {
        "separation_m": separation,
        "separation_px": sep_px,
        "contrast": contrast,
        "resolved": is_resolved(contrast),
        "pearson": result.alignment.pearson,
    }
