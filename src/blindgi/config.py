"""Run configuration: dataclasses, defaults, and the flat key = value codec.

Every field maps to a dotted key (``optical.z_o``, ``ensemble.count``, ...).
CLI flags use the same keys with dashes (``--optical.z-o``); flags override
file values which override defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .correlation import filter_model
from .errors import ConfigError
from .forward import NoiseModel, OpticalConfig
from .grid import Grid2D
from .patterns import EnsembleSpec
from .retrieval import ScheduleConfig, SupportPolicy

COMPENSATION_MODES = ("direct", "compensated")


@dataclass(frozen=True)
class RunConfig:
    """Everything a pipeline run needs, serializable to flat text."""

    grid_nx: int = 64
    grid_ny: int = 64
    grid_pitch: float = 12.5e-6

    wavelength: float = 532e-9
    z_o: float = 0.3
    aperture_diameter: float = 6e-3
    dmd_pitch: float = 7.4e-6
    case: str = "scattering"

    ensemble_kind: str = "random-binary"
    ensemble_count: int = 2**14
    ensemble_fill: float = 0.5
    ensemble_seed: int = 101

    noise_kind: str = "none"
    noise_snr_db: float = 20.0
    noise_photons: float = 1e6

    psf_seed: int = 7

    object_source: str = "letter"

    compensation_mode: str = "direct"
    epsilon_fraction: float = 1e-2

    support: SupportPolicy = field(default_factory=SupportPolicy)
    schedule: ScheduleConfig = field(default_factory=ScheduleConfig)

    def __post_init__(self):
        if self.compensation_mode not in COMPENSATION_MODES:
            raise ConfigError(
                f"compensation.mode must be one of {COMPENSATION_MODES}, got {self.compensation_mode!r}"
            )
        if not 0 < self.epsilon_fraction <= 1e154:  # compensate squares it
            raise ConfigError(
                f"compensation.epsilon_fraction must be > 0 and <= 1e154, got {self.epsilon_fraction}"
            )
        # the support, optics, ensemble and noise check their own keys, naming them
        self.support.box_shape(self.grid())
        # retrieval fits the bins at or beyond free_dc_radius; one must be left.
        # The farthest lies at the corner (-ny // 2, -nx // 2) of pixel_radius
        farthest = float(np.hypot(self.grid_ny // 2, self.grid_nx // 2))
        if self.schedule.free_dc_radius > farthest:
            raise ConfigError(
                f"schedule.free_dc_radius = {self.schedule.free_dc_radius!r} frees every bin of "
                f"the {self.grid_ny}x{self.grid_nx} grid, whose farthest bin lies {farthest:.6g} "
                "pixels from zero frequency"
            )
        self.optical()
        self.ensemble()
        self.noise()
        # compensate divides by F, which is 1 at zero frequency and must pass one more bin
        compensated = self.compensation_mode == "compensated"
        if compensated and (filter_model(self.optical()).values > 0).sum() < 2:
            raise ConfigError(
                "compensation.mode 'compensated' needs a filter model F that passes a nonzero "
                f"frequency, but F passes none with optical.dmd_pitch = {self.dmd_pitch!r} m, "
                f"optical.aperture_diameter = {self.aperture_diameter!r} m, optical.wavelength = "
                f"{self.wavelength!r} m and optical.z_o = {self.z_o!r} m on the "
                f"{self.grid_ny}x{self.grid_nx} grid of pitch {self.grid_pitch!r} m"
            )

    def grid(self) -> Grid2D:
        return Grid2D(nx=self.grid_nx, ny=self.grid_ny, pitch=self.grid_pitch)

    def optical(self) -> OpticalConfig:
        return OpticalConfig(
            wavelength=self.wavelength,
            z_o=self.z_o,
            aperture_diameter=self.aperture_diameter,
            dmd_pitch=self.dmd_pitch,
            object_grid=self.grid(),
            case=self.case,
        )

    def ensemble(self) -> EnsembleSpec:
        return EnsembleSpec(
            kind=self.ensemble_kind,
            grid=self.grid(),
            count=self.ensemble_count,
            fill_fraction=self.ensemble_fill,
            seed=self.ensemble_seed,
        )

    def noise(self) -> NoiseModel:
        return NoiseModel(
            kind=self.noise_kind, snr_db=self.noise_snr_db, photons=self.noise_photons
        )


# dotted key -> (attribute path, parser)
KEYMAP: dict[str, tuple[str, type]] = {
    "grid.nx": ("grid_nx", int),
    "grid.ny": ("grid_ny", int),
    "grid.pitch": ("grid_pitch", float),
    "optical.wavelength": ("wavelength", float),
    "optical.z_o": ("z_o", float),
    "optical.aperture_diameter": ("aperture_diameter", float),
    "optical.dmd_pitch": ("dmd_pitch", float),
    "optical.case": ("case", str),
    "ensemble.kind": ("ensemble_kind", str),
    "ensemble.count": ("ensemble_count", int),
    "ensemble.fill_fraction": ("ensemble_fill", float),
    "ensemble.seed": ("ensemble_seed", int),
    "noise.kind": ("noise_kind", str),
    "noise.snr_db": ("noise_snr_db", float),
    "noise.photons": ("noise_photons", float),
    "psf_seed": ("psf_seed", int),
    "object": ("object_source", str),
    "compensation.mode": ("compensation_mode", str),
    "compensation.epsilon_fraction": ("epsilon_fraction", float),
    "support.threshold_fraction": ("support.threshold_fraction", float),
    "support.margin_px": ("support.margin_px", int),
    "support.box": ("support.box", str),
    "schedule.cycles": ("schedule.cycles", int),
    "schedule.hio_iterations": ("schedule.hio_iterations", int),
    "schedule.er_iterations": ("schedule.er_iterations", int),
    "schedule.beta": ("schedule.beta", float),
    "schedule.final_er": ("schedule.final_er", int),
    "schedule.restarts": ("schedule.restarts", int),
    "schedule.seed": ("schedule.seed", int),
    "schedule.free_dc_radius": ("schedule.free_dc_radius", float),
}


def config_to_entries(cfg: RunConfig) -> dict[str, str]:
    """Flatten a RunConfig to dotted-key strings (repr-formatted floats)."""
    entries = {}
    for key, (path, _) in KEYMAP.items():
        value = reduce(getattr, path.split("."), cfg)
        entries[key] = repr(value) if isinstance(value, float) else str(value)
    return entries


def config_from_entries(entries: dict[str, str]) -> RunConfig:
    """Build a RunConfig from dotted-key strings over the defaults."""
    # attribute path "section.name" -> sections[section][name]; "" is RunConfig's own
    sections: dict[str, dict[str, object]] = {"": {}, "support": {}, "schedule": {}}
    for key, raw in entries.items():
        if key not in KEYMAP:
            raise ConfigError(f"unknown config key {key!r}")
        path, parser = KEYMAP[key]
        try:
            value = parser(raw)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {raw!r}") from exc
        if parser is float and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw!r}")
        section, _, name = path.rpartition(".")
        sections[section][name] = value
    return RunConfig(support=SupportPolicy(**sections["support"]),
                     schedule=ScheduleConfig(**sections["schedule"]), **sections[""])
