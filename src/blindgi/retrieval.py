"""Object recovery from a Fourier-magnitude target with support and
nonnegativity constraints: error-reduction and hybrid input-output steps,
stepped as (HIO, ER) cycles and an ER tail from seeded random restarts.

Iterates live in the object domain as real arrays in uncentered layout;
magnitude targets are centered and are shifted to match.  Bins
within ``free_dc_radius`` of zero frequency are left unconstrained, because
the correlation estimator's zero-frequency content carries the illumination
background rather than object information.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError, UsageError
from .grid import (Grid2D, MagnitudeSpectrum, RealImage, freeze_field, point_reflect,
                   require_mask_in_central_half, unit_scale)
from .patterns import _philox

_STREAM_RESTART = 0x5245_5354


@dataclass(frozen=True)
class SupportMask:
    """Boolean object-domain support, restricted to the central half of the grid."""

    grid: Grid2D
    mask: np.ndarray

    def __post_init__(self):
        freeze_field(self, "mask", "support mask", self.grid.shape, bool)
        if not self.mask.any():
            raise ConfigError("support mask has no pixels")
        require_mask_in_central_half(self.grid, self.mask, "support mask")


def centered_box_mask(grid: Grid2D, height: int, width: int) -> SupportMask:
    """Centered rectangular support of the given size; SupportMask refuses a
    box that is empty or leaves the central half."""
    ny, nx = grid.shape
    mask = np.zeros(grid.shape, dtype=bool)
    y0 = ny // 2 - height // 2
    x0 = nx // 2 - width // 2
    mask[y0 : y0 + height, x0 : x0 + width] = True
    return SupportMask(grid, mask)


@dataclass(frozen=True)
class SupportPolicy:
    """How the reconstruction support box is chosen: estimated from the
    target's autocorrelation, the central half of the grid, or a fixed
    ``HxW`` box."""

    threshold_fraction: float = 0.04
    margin_px: int = 2
    box: str = "estimate"  # "estimate", "half", or "HxW" fixed box

    def __post_init__(self):
        if not 0 < self.threshold_fraction < 1:
            raise ConfigError("support.threshold_fraction must be in (0,1)")
        if self.margin_px < 0:
            raise ConfigError("support.margin_px must be >= 0")

    def box_shape(self, grid: Grid2D) -> tuple[int, int] | None:
        """Height and width of the fixed box on ``grid``, None for "estimate"."""
        if self.box == "estimate":
            return None
        if self.box == "half":
            return grid.ny // 2, grid.nx // 2
        m = re.fullmatch(r"(\d+)x(\d+)", self.box)
        if not m:
            raise ConfigError(f"support.box must be 'estimate', 'half' or 'HxW', got {self.box!r}")
        h, w = int(m.group(1)), int(m.group(2))
        if not (1 <= h <= grid.ny // 2 and 1 <= w <= grid.nx // 2):
            raise ConfigError(
                f"support.box {self.box!r} must be between 1x1 and {grid.ny // 2}x{grid.nx // 2}, "
                f"the central half of the {grid.ny}x{grid.nx} grid"
            )
        return h, w

    def select(self, target: MagnitudeSpectrum) -> SupportMask:
        """The support box this policy gives for ``target``."""
        shape = self.box_shape(target.grid)
        if shape is None:
            return estimate_support(target, self.threshold_fraction, self.margin_px)
        return centered_box_mask(target.grid, *shape)


@dataclass(frozen=True)
class ScheduleConfig:
    """The retrieval schedule: ``cycles`` x (HIO, ER) blocks, then an ER tail
    of ``final_er`` iterations, from ``restarts`` seeded random starts.

    Iterating yields the blocks in order as ``(algorithm, iterations)``
    pairs; the last one is always ER.
    """

    cycles: int = 20
    hio_iterations: int = 40
    er_iterations: int = 10
    beta: float = 0.9
    final_er: int = 100
    restarts: int = 16
    seed: int = 2024
    free_dc_radius: float = 1.0

    def __post_init__(self):
        minimum = {"cycles": 0, "hio_iterations": 1, "er_iterations": 1,
                   "final_er": 1, "restarts": 1}
        for name, low in minimum.items():
            value = getattr(self, name)
            if value < low:
                raise ConfigError(f"schedule.{name} must be >= {low}, got {value}")
        if not 0 < self.beta <= 1:
            raise ConfigError(f"schedule.beta must be in (0, 1], got {self.beta}")
        if not self.free_dc_radius >= 0:
            raise ConfigError(f"schedule.free_dc_radius must be >= 0, got {self.free_dc_radius}")

    def __iter__(self):
        for _ in range(self.cycles):
            yield "HIO", self.hio_iterations
            yield "ER", self.er_iterations
        yield "ER", self.final_er

    @property
    def total_iterations(self) -> int:
        return self.cycles * (self.hio_iterations + self.er_iterations) + self.final_er


@dataclass(frozen=True)
class Reconstruction:
    """Best-restart retrieval result: the image and its per-iteration E_F."""

    image: RealImage
    restart_id: int
    ef_trace: np.ndarray = field(repr=False)

    def __post_init__(self):
        freeze_field(self, "ef_trace", "E_F trace", (np.size(self.ef_trace),))  # any length

    @property
    def fourier_error(self) -> float:
        """E_F of the returned image."""
        return float(self.ef_trace[-1])

    @property
    def iterations_run(self) -> int:
        return len(self.ef_trace)


def _free_bin_mask(grid: Grid2D, free_dc_radius: float) -> np.ndarray:
    """Uncentered mask of unconstrained bins: distance from DC < radius."""
    return np.fft.ifftshift(grid.pixel_radius() < free_dc_radius)


def estimate_support(
    spectrum: MagnitudeSpectrum, threshold_fraction: float, margin_px: int = 2
) -> SupportMask:
    """Box support from the autocorrelation support theorem.

    The inverse transform of the squared magnitude is the image
    autocorrelation, whose support is twice the object support per axis:
    threshold it, take the bounding box, halve each dimension, dilate by
    ``margin_px`` per side, and return a centered box.  A box that outgrows
    the central half of the grid is clipped to it.
    """
    if not 0 < threshold_fraction < 1:
        raise UsageError(f"threshold_fraction must be in (0,1), got {threshold_fraction}")
    grid = spectrum.grid
    ny, nx = grid.shape
    values, _ = unit_scale(spectrum.values)  # the threshold is a fraction of the peak
    ac = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(values) ** 2).real)
    peak = ac[ny // 2, nx // 2]
    if peak <= 0:  # at unit scale only an all-zero spectrum has no positive peak
        raise NumericalError("magnitude target is zero in every bin; cannot estimate support")
    ys, xs = np.nonzero(ac >= threshold_fraction * peak)  # the peak itself is always above
    box_h = int(ys.max() - ys.min() + 2) // 2 + 2 * margin_px
    box_w = int(xs.max() - xs.min() + 2) // 2 + 2 * margin_px
    return centered_box_mask(grid, min(box_h, ny // 2), min(box_w, nx // 2))


def _initial_iterate(target: MagnitudeSpectrum, seed: int, restart_id: int) -> np.ndarray:
    rng = _philox(seed ^ _STREAM_RESTART, restart_id)
    phases = rng.random(target.grid.shape) * (2.0 * np.pi)
    return np.fft.ifft2(np.fft.ifftshift(target.values) * np.exp(1j * phases), norm="ortho").real


class _StackEngine:
    """ER/HIO on a real ``(R, ny, nx)`` stack of iterates, in the half-spectrum
    layout of ``rfft2``: one forward and one inverse real transform per
    iteration.

    The target is symmetrized, ``(t(k) + t(-k)) / 2``, which is what taking
    the real part of the complex projection does anyway, so every restart
    follows the single-iterate complex-FFT ER and HIO steps to roundoff.
    E_F weighs each half-spectrum bin by the number of full-spectrum bins it
    stands for (2 for a conjugate pair, 1 on the self-conjugate columns, 0
    on free bins) and adds back the constant that symmetrizing removed, so
    it equals the full-spectrum normalized RMS magnitude error.  Those
    single-iterate forms are ``er_step``, ``hio_step`` and ``fourier_error``
    in ``tests/reference.py``, and the tests hold this engine to them.

    The work arrays are allocated once per run and every step writes into
    them: a fresh half-megabyte temporary per operation costs more in page
    faults than the arithmetic it holds.
    """

    def __init__(self, target: MagnitudeSpectrum, support: SupportMask,
                 free_dc_radius: float, restarts: int):
        t = np.fft.ifftshift(target.values)
        ny, nx = t.shape
        half = nx // 2 + 1
        t_sym = 0.5 * (t + point_reflect(t))
        free = _free_bin_mask(target.grid, free_dc_radius)
        self.norm = float(np.sum(t[~free] ** 2))
        if self.norm <= 0:
            raise NumericalError("magnitude target is zero on all constrained bins")
        self.offset = float(np.sum((t - t_sym)[~free] ** 2))
        weight = np.full((ny, half), 2.0)
        weight[:, 0] = 1.0
        if nx % 2 == 0:
            weight[:, -1] = 1.0
        self.free = free[:, :half]
        weight[self.free] = 0.0
        self.weight = weight.ravel()
        self.target = t_sym[:, :half]
        self.nx = nx
        self.support = support.mask
        self.spec = np.empty((restarts, ny, half), complex)
        self.mag = np.empty((restarts, ny, half))
        self.work = np.empty((restarts, ny, half))
        self.gp = np.empty((restarts, ny, nx))
        self.tmp = np.empty((restarts, ny, nx))
        self.feasible = np.empty((restarts, ny, nx), bool)

    def transform(self, x: np.ndarray) -> None:
        """Spectrum and magnitudes of the stack ``x``, into ``spec`` and ``mag``."""
        np.fft.rfft2(x, norm="ortho", out=self.spec)
        np.abs(self.spec, out=self.mag)

    def errors(self) -> np.ndarray:
        """Per-restart E_F of the last transformed stack."""
        d = np.subtract(self.mag, self.target, out=self.work)
        d *= d
        return np.sqrt((d.reshape(len(d), -1) @ self.weight + self.offset) / self.norm)

    def project(self) -> np.ndarray:
        """Magnitude projection of the last transformed stack, into ``gp``.

        Consumes ``spec``: bins take the target magnitude at their current
        phase, zero bins take it at zero phase, free bins keep their value.
        """
        ratio = self.work
        with np.errstate(divide="ignore", invalid="ignore"):  # zero bins are reset below
            np.divide(self.target, self.mag, out=ratio)
            ratio[:, self.free] = 1.0
            self.spec *= ratio
        zero = self.mag == 0
        if zero.any():
            np.copyto(self.spec, self.target, where=zero & ~self.free)
        # irfft2 as its two axis passes: irfft2 itself allocates a complex
        # temporary for the first pass, which costs more than the pass.
        np.fft.ifft(self.spec, axis=-2, norm="ortho", out=self.spec)
        return np.fft.irfft(self.spec, n=self.nx, axis=-1, norm="ortho", out=self.gp)

    def step(self, x: np.ndarray, algorithm: str, beta: float) -> None:
        """One ER or HIO step of every restart, in place on ``x``."""
        gp = self.project()
        if algorithm == "ER":
            np.maximum(gp, 0.0, out=x)
            x *= self.support
            return
        x -= np.multiply(gp, beta, out=self.tmp)
        feasible = np.greater_equal(gp, 0.0, out=self.feasible)
        feasible &= self.support
        np.copyto(x, gp, where=feasible)


def _run_stack(engine: _StackEngine, schedule: ScheduleConfig, x: np.ndarray) -> np.ndarray:
    """Iterate the schedule on the stack ``x`` (in place); returns the
    ``(restarts, iterations)`` E_F traces.

    The E_F of iteration k is taken from the spectrum of its result, which
    iteration k + 1 then projects, so the loop costs one forward and one
    inverse real transform per iteration.  The last block is ER, so the
    images already satisfy the object constraints.
    """
    trace = np.empty((len(x), schedule.total_iterations))
    engine.transform(x)
    for k, algorithm in enumerate(a for a, n in schedule for _ in range(n)):
        engine.step(x, algorithm, schedule.beta)
        engine.transform(x)
        trace[:, k] = engine.errors()
    return trace


def run(
    target: MagnitudeSpectrum,
    schedule: ScheduleConfig,
    support: SupportMask,
) -> Reconstruction:
    """Run the schedule from ``restarts`` independent random starts.

    All restarts advance together as one stack, on the target at ``unit_scale``
    (each step is linear in it and E_F is a ratio).  Returns the restart with
    the lowest final Fourier error (ties broken by restart id), scaled back;
    deterministic for a fixed schedule seed.
    """
    if target.grid != support.grid:
        raise ConfigError("target and support grids differ")
    values, e = unit_scale(target.values)
    target = MagnitudeSpectrum(target.grid, values)
    engine = _StackEngine(target, support, schedule.free_dc_radius, schedule.restarts)
    x = np.stack([_initial_iterate(target, schedule.seed, rid) for rid in range(schedule.restarts)])
    traces = _run_stack(engine, schedule, x)
    rid = int(np.argmin(traces[:, -1]))  # first minimum: ties go to the lowest id
    return Reconstruction(RealImage(target.grid, np.ldexp(x[rid], e)), rid, traces[rid])
