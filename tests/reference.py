"""Single-iterate, single-pattern reference arithmetic the tests hold the
package's batched code to, and the line-by-line bucket reader the block
reader is held to.

No run executes these.  ``simulate`` reduces every bucket to a dot product
against one weight image, and retrieval steps all restarts as one stack in
``retrieval._StackEngine``; the functions here are the textbook forms those
fast paths must reproduce: one pattern convolved with the PSF and summed
against the object, and one iterate projected onto the Fourier-magnitude
constraint with the complex FFT.
"""

from array import array
from contextlib import closing

import numpy as np

from blindgi.arrayio import _iter_lines
from blindgi.errors import ConfigError, DataError, FormatError, NumericalError, UsageError
from blindgi.forward import PSF
from blindgi.grid import MagnitudeSpectrum, RealImage, circ_convolve
from blindgi.retrieval import SupportMask, _free_bin_mask


def illuminate(pattern: np.ndarray, psf: PSF) -> RealImage:
    """Illumination produced by one source pattern: pattern convolved with the PSF."""
    out =circ_convolve(RealImage(psf.grid, pattern), RealImage(psf.grid, psf.values))
    return RealImage(out.grid, np.maximum(out.values, 0.0))


def bucket(obj: RealImage, illumination: RealImage) -> float:
    """Bucket-detector reading: total transmitted intensity, pitch^2-weighted."""
    if obj.grid != illumination.grid:
        raise ConfigError("object and illumination grids differ")
    if np.any(obj.values < 0):
        raise DataError("object transmittance must be nonnegative")
    return float(np.sum(obj.values * illumination.values)) * obj.grid.pitch**2


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


def read_buckets_csv(path: str) -> np.ndarray:
    """Bucket values of a ``j,value`` CSV, parsed one line at a time: the
    grammar ``arrayio.read_buckets_csv`` must accept, value for value and
    message for message."""
    values = array("d")
    with closing(_iter_lines(path)) as lines:
        header = next(lines, "").strip()
        if header != "j,value":
            raise FormatError(f"{path}: expected header 'j,value', got {header!r} (line 1)")
        for lineno, line in enumerate(lines, start=2):
            line = line.strip()
            if not line:
                continue
            j_str, _, v_str = line.partition(",")
            try:
                j = int(j_str)
                values.append(float(v_str))
            except ValueError as exc:
                raise FormatError(f"{path}: bad row at line {lineno}: {line!r}") from exc
            if j != len(values) - 1:
                raise FormatError(f"{path}: non-sequential index {j} at line {lineno}")
    return np.array(values)
