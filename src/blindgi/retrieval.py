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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, NumericalError, UsageError
from .grid import Grid2D, MagnitudeSpectrum, RealImage, point_reflect, require_mask_in_central_half
from .patterns import _philox

_STREAM_RESTART = 0x5245_5354


@dataclass(frozen=True)
class SupportMask:
    """Boolean object-domain support, restricted to the central half of the grid."""

    grid: Grid2D
    mask: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mask, dtype=bool)
        if m.shape != self.grid.shape:
            raise ConfigError("support mask shape does not match grid")
        if not m.any():
            raise ConfigError("support mask has no pixels")
        require_mask_in_central_half(self.grid, m, "support mask")
        m.setflags(write=False)
        object.__setattr__(self, "mask", m)


def centered_box_mask(grid: Grid2D, height: int, width: int) -> SupportMask:
    """Centered rectangular support of the given size (clipped to the central half)."""
    ny, nx = grid.shape
    h = int(min(max(height, 1), ny // 2))
    w = int(min(max(width, 1), nx // 2))
    mask = np.zeros(grid.shape, dtype=bool)
    y0 = ny // 2 - h // 2
    x0 = nx // 2 - w // 2
    mask[y0 : y0 + h, x0 : x0 + w] = True
    return SupportMask(grid, mask)


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
    """Best-restart retrieval result."""

    image: RealImage
    fourier_error: float
    restart_id: int
    iterations_run: int
    ef_trace: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.fourier_error < 0:
            raise DataError("fourier_error must be nonnegative")
        if self.ef_trace is not None:
            t = np.asarray(self.ef_trace, dtype=np.float64)
            t.setflags(write=False)
            object.__setattr__(self, "ef_trace", t)


def _free_bin_mask(grid: Grid2D, free_dc_radius: float) -> np.ndarray:
    """Uncentered mask of unconstrained bins: distance from DC < radius."""
    return np.fft.ifftshift(grid.pixel_radius() < free_dc_radius)


def project_magnitude(
    iterate: np.ndarray, target: MagnitudeSpectrum, free_dc_radius: float = 0.0
) -> np.ndarray:
    """Replace Fourier magnitudes with the target, keeping the current phase.

    Bins within ``free_dc_radius`` of zero frequency keep their current
    complex value.  Bins with zero current magnitude take the target value at
    zero phase.  Returns the complex object-domain field.
    """
    grid = target.grid
    if iterate.shape != grid.shape:
        raise ConfigError("iterate shape does not match target grid")
    t = np.fft.ifftshift(target.values)
    g_hat = np.fft.fft2(iterate, norm="ortho")
    mag = np.abs(g_hat)
    phase = np.where(mag > 0, g_hat / np.where(mag > 0, mag, 1.0), 1.0 + 0.0j)
    constrained = t * phase
    if free_dc_radius > 0:
        free = _free_bin_mask(grid, free_dc_radius)
        constrained = np.where(free, g_hat, constrained)
    return np.fft.ifft2(constrained, norm="ortho")


def fourier_error(
    iterate: np.ndarray, target: MagnitudeSpectrum, free_dc_radius: float = 0.0
) -> float:
    """Normalized RMS magnitude mismatch over the constrained bins."""
    t = np.fft.ifftshift(target.values)
    mag = np.abs(np.fft.fft2(iterate, norm="ortho"))
    keep = ~_free_bin_mask(target.grid, free_dc_radius) if free_dc_radius > 0 else np.ones(t.shape, bool)
    denom = float(np.sum(t[keep] ** 2))
    if denom <= 0:
        raise NumericalError("magnitude target is zero on all constrained bins")
    return float(np.sqrt(np.sum((mag[keep] - t[keep]) ** 2) / denom))


def er_step(
    iterate: np.ndarray,
    target: MagnitudeSpectrum,
    support: SupportMask,
    free_dc_radius: float = 0.0,
    nonneg: bool = True,
) -> np.ndarray:
    """Error reduction: magnitude projection, then clamp to the object constraints."""
    gp = project_magnitude(iterate, target, free_dc_radius).real
    if nonneg:
        gp = np.maximum(gp, 0.0)
    return np.where(support.mask, gp, 0.0)


def hio_step(
    iterate: np.ndarray,
    target: MagnitudeSpectrum,
    support: SupportMask,
    beta: float,
    free_dc_radius: float = 0.0,
) -> np.ndarray:
    """Hybrid input-output: keep feasible pixels, push back on violators."""
    if not 0 <= beta <= 1:
        raise UsageError(f"beta must be in [0, 1], got {beta}")
    gp = project_magnitude(iterate, target, free_dc_radius).real
    feasible = support.mask & (gp >= 0)
    return np.where(feasible, gp, iterate - beta * gp)


def estimate_support(
    spectrum: MagnitudeSpectrum, threshold_fraction: float, margin_px: int = 2
) -> SupportMask:
    """Box support from the autocorrelation support theorem.

    The inverse transform of the squared magnitude is the image
    autocorrelation, whose support is twice the object support per axis:
    threshold it, take the bounding box, halve each dimension, dilate by
    ``margin_px`` per side, and return a centered box (clipped to the
    central half of the grid).
    """
    if not 0 < threshold_fraction < 1:
        raise UsageError(f"threshold_fraction must be in (0,1), got {threshold_fraction}")
    grid = spectrum.grid
    ny, nx = grid.shape
    ac = np.fft.fftshift(np.fft.ifft2(np.fft.ifftshift(spectrum.values) ** 2).real)
    peak = ac[ny // 2, nx // 2]
    if peak <= 0:
        raise NumericalError("autocorrelation peak is not positive; cannot estimate support")
    above = ac >= threshold_fraction * peak
    ys, xs = np.nonzero(above)
    if ys.size == 0:
        raise NumericalError("no autocorrelation pixels above threshold")
    box_h = (ys.max() - ys.min() + 1 + 1) // 2 + 2 * margin_px
    box_w = (xs.max() - xs.min() + 1 + 1) // 2 + 2 * margin_px
    return centered_box_mask(grid, box_h, box_w)


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
    follows :func:`er_step`/:func:`hio_step` to roundoff.  E_F weighs each
    half-spectrum bin by the number of full-spectrum bins it stands for (2
    for a conjugate pair, 1 on the self-conjugate columns, 0 on free bins)
    and adds back the constant that symmetrizing removed, so it equals
    :func:`fourier_error`.

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


def _run_stack(
    engine: _StackEngine, schedule: ScheduleConfig, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Iterate the schedule on the stack ``x`` (in place); returns (final E_F,
    images, traces).

    The E_F of iteration k is taken from the spectrum that iteration k + 1
    projects, so the loop costs one forward and one inverse real transform
    per iteration.  The last block is ER, so the images already satisfy the
    object constraints.
    """
    trace = np.empty((len(x), schedule.total_iterations))
    engine.transform(x)
    k = 0
    for algorithm, iterations in schedule:
        for _ in range(iterations):
            if k:
                trace[:, k - 1] = engine.errors()
            engine.step(x, algorithm, schedule.beta)
            engine.transform(x)
            k += 1
    trace[:, -1] = engine.errors()
    return trace[:, -1], x, trace


def run(
    target: MagnitudeSpectrum,
    schedule: ScheduleConfig,
    support: SupportMask,
) -> Reconstruction:
    """Run the schedule from ``restarts`` independent random starts.

    All restarts advance together as one stack.  Returns the restart with
    the lowest final Fourier error (ties broken by restart id);
    deterministic for a fixed schedule seed.
    """
    if target.grid != support.grid:
        raise ConfigError("target and support grids differ")
    engine = _StackEngine(target, support, schedule.free_dc_radius, schedule.restarts)
    x0 = np.stack([_initial_iterate(target, schedule.seed, rid) for rid in range(schedule.restarts)])
    errors, images, traces = _run_stack(engine, schedule, x0)
    rid = int(np.argmin(errors))  # first minimum: ties go to the lowest id
    return Reconstruction(
        image=RealImage(target.grid, images[rid]),
        fourier_error=float(errors[rid]),
        restart_id=rid,
        iterations_run=schedule.total_iterations,
        ef_trace=traces[rid],
    )
