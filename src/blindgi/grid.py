"""Sampled-plane arithmetic: grids, circular convolution, and aperture
autocorrelations.

Conventions fixed here and used everywhere else:

* Arrays are ``(ny, nx)`` with a single physical pixel pitch for both axes.
* Frequency bin ``k`` maps to ``u_k = k / (N * pitch)`` cycles per meter.
* "Centered" layout puts zero frequency (or zero lag) at index
  ``(ny // 2, nx // 2)``; uncentered layout puts it at ``(0, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Grid2D:
    """A sampled transverse plane: pixel counts and a shared pixel pitch in meters."""

    nx: int
    ny: int
    pitch: float

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ConfigError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")
        if not (self.pitch > 0 and np.isfinite(self.pitch)):
            raise ConfigError(f"grid pitch must be positive and finite, got {self.pitch}")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def npixels(self) -> int:
        return self.nx * self.ny

    @property
    def nyquist(self) -> float:
        """Highest representable spatial frequency, cycles/m."""
        return 1.0 / (2.0 * self.pitch)

    def freq_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """Centered frequency axes (fy, fx) in cycles/m."""
        fy = (np.arange(self.ny) - self.ny // 2) / (self.ny * self.pitch)
        fx = (np.arange(self.nx) - self.nx // 2) / (self.nx * self.pitch)
        return fy, fx

    def freq_radius(self) -> np.ndarray:
        """Centered map of radial spatial frequency |u| in cycles/m."""
        fy, fx = self.freq_axes()
        return np.hypot(*np.meshgrid(fy, fx, indexing="ij"))

    def pixel_radius(self) -> np.ndarray:
        """Centered map of radial distance from the grid center, in pixels."""
        y = np.arange(self.ny) - self.ny // 2
        x = np.arange(self.nx) - self.nx // 2
        return np.hypot(*np.meshgrid(y, x, indexing="ij"))


def _frozen_values(arr, dtype) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_field(grid: Grid2D, values: np.ndarray, what: str):
    if values.shape != grid.shape:
        raise ConfigError(
            f"{what} shape {values.shape} does not match grid {grid.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise DataError(f"{what} contains non-finite values")


@dataclass(frozen=True)
class RealImage:
    """A real-valued image sampled on a grid."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.values, np.float64))
        _check_field(self.grid, self.values, "RealImage")


@dataclass(frozen=True)
class MagnitudeSpectrum:
    """A nonnegative magnitude array in centered layout."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen_values(self.values, np.float64))
        _check_field(self.grid, self.values, "MagnitudeSpectrum")
        if np.any(self.values < 0):
            raise DataError("MagnitudeSpectrum values must be nonnegative")


def circ_convolve(a: RealImage, b: RealImage) -> RealImage:
    """Circular (periodic) convolution of two images on the same grid."""
    if a.grid != b.grid:
        raise ConfigError(f"grid mismatch: {a.grid} vs {b.grid}")
    out = np.fft.ifft2(np.fft.fft2(a.values) * np.fft.fft2(b.values))
    return RealImage(a.grid, out.real)


def point_reflect(values: np.ndarray) -> np.ndarray:
    """Point reflection through the origin with periodic indexing: v(-r mod N)."""
    return np.roll(values[::-1, ::-1], (1, 1), axis=(0, 1))


def require_central_half(grid: Grid2D, rows: tuple[int, int], cols: tuple[int, int], what: str):
    """Raise ConfigError unless the inclusive row and column ranges lie in the
    central half: ``n // 2`` samples per axis from ``n // 2 - n // 4``, where
    a centered box of that size sits.  Objects and supports must lie inside
    it, so their autocorrelations fit on the grid without wrapping."""
    y0, x0 = (n // 2 - n // 4 for n in grid.shape)
    y1, x1 = y0 + grid.ny // 2 - 1, x0 + grid.nx // 2 - 1
    if rows[0] < y0 or rows[1] > y1 or cols[0] < x0 or cols[1] > x1:
        raise ConfigError(
            f"{what} (rows {rows[0]}..{rows[1]}, cols {cols[0]}..{cols[1]}) extends beyond "
            f"the central half of the {grid.ny}x{grid.nx} grid (rows {y0}..{y1}, cols {x0}..{x1})"
        )


def require_mask_in_central_half(grid: Grid2D, mask: np.ndarray, what: str):
    """Raise ConfigError unless every nonzero sample of ``mask`` lies in the central half."""
    ys, xs = np.nonzero(mask)
    if ys.size:
        require_central_half(grid, (ys.min(), ys.max()), (xs.min(), xs.max()), what)


def centered_disk(grid: Grid2D, diameter_px: float) -> np.ndarray:
    """Boolean disk indicator of the given pixel diameter, centered on the grid.

    A pixel belongs to the disk when its center lies strictly inside the
    radius, so a diameter-1 disk is the single center pixel and the
    autocorrelation of a diameter-d disk vanishes at lags >= d.
    """
    return grid.pixel_radius() < diameter_px / 2.0


def indicator_autocorrelation(grid: Grid2D, mask: np.ndarray) -> np.ndarray:
    """Aperiodic autocorrelation of a binary indicator, peak-normalized.

    Computed with a zero-padded FFT and rounded back to the exact integer
    overlap counts, then normalized so the zero-lag value is 1.  Returned in
    centered layout cropped to the grid; lags beyond half the grid extent are
    not representable and are dropped.
    """
    if mask.shape != grid.shape:
        raise ConfigError(f"mask shape {mask.shape} does not match grid {grid.shape}")
    ny, nx = grid.shape
    padded = np.zeros((2 * ny, 2 * nx))
    padded[:ny, :nx] = mask
    ac = np.fft.ifft2(np.abs(np.fft.fft2(padded)) ** 2).real
    ac = np.round(np.fft.fftshift(ac))
    ac = ac[ny - ny // 2 : 2 * ny - ny // 2, nx - nx // 2 : 2 * nx - nx // 2]
    peak = ac[ny // 2, nx // 2]
    if peak <= 0:
        raise DataError("indicator mask is empty")
    return ac / peak


def disk_autocorrelation(diameter_px: float, grid: Grid2D) -> MagnitudeSpectrum:
    """Normalized autocorrelation of a centered binary disk.

    Peak value 1 at zero lag, support within twice the disk diameter,
    radially non-increasing.
    """
    if not 0 < diameter_px <= min(grid.nx, grid.ny):
        raise ConfigError(
            f"disk diameter {diameter_px} px must be in (0, {min(grid.nx, grid.ny)}]"
        )
    ac = indicator_autocorrelation(grid, centered_disk(grid, diameter_px))
    return MagnitudeSpectrum(grid, ac)
