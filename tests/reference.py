"""Code the tests measure with and hold the package to; no run executes it.

* Single-iterate, single-pattern reference arithmetic for the batched code.
  ``simulate`` reduces every bucket to a dot product against one weight
  image, and retrieval steps all restarts as one stack in
  ``retrieval._StackEngine``; the textbook forms here are what those fast
  paths must reproduce: one pattern convolved with the PSF and summed
  against the object, and one iterate projected onto the Fourier-magnitude
  constraint with the complex FFT.
* The line-by-line bucket reader that ``arrayio.read_buckets_csv`` is held
  to, whether numpy's C parser or its own line grammar reads the file.
* The statistics the acceptance criteria measure: the mean-removed ensemble
  autocorrelation of the patterns (criterion 3), and a PSF's MTF against the
  autocorrelation of a disk the size of the pupil (criteria 4 and 5).
"""

from array import array
from dataclasses import replace

import numpy as np

from blindgi.arrayio import _decode, _read_bytes
from blindgi.errors import ConfigError, DataError, FormatError, NumericalError, UsageError
from blindgi.forward import PSF, OpticalConfig
from blindgi.grid import (Grid2D, MagnitudeSpectrum, RealImage, circ_convolve,
                          indicator_autocorrelation)
from blindgi.patterns import EnsembleSpec, iter_chunks, unpack
from blindgi.retrieval import SupportMask, _free_bin_mask


def illuminate(pattern: np.ndarray, psf: PSF) -> RealImage:
    """Illumination produced by one source pattern: pattern convolved with the PSF."""
    out = circ_convolve(RealImage(psf.grid, pattern), RealImage(psf.grid, psf.values))
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
    lines = iter(_decode(path, _read_bytes(path)).splitlines())
    header = next(lines, "").strip()
    if header != "j,value":
        raise FormatError(f"{path}: expected header 'j,value', got {header!r} (line 1)")
    values = array("d")
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


def centered_disk(grid: Grid2D, diameter_px: float) -> np.ndarray:
    """Boolean disk indicator of the given pixel diameter, centered on the grid.

    A pixel belongs to the disk when its center lies strictly inside the
    radius, so a diameter-1 disk is the single center pixel and the
    autocorrelation of a diameter-d disk vanishes at lags >= d.
    """
    return grid.pixel_radius() < diameter_px / 2.0


def pupil_diameter_px(config: OpticalConfig) -> float:
    """Aperture diameter in pupil-grid pixels (pupil pitch wavelength*z_o/(N*pitch))."""
    g = config.object_grid
    return config.aperture_diameter * g.nx * g.pitch / (config.wavelength * config.z_o)


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


def otf_magnitude(psf: PSF) -> np.ndarray:
    """Centered MTF of a PSF, normalized to 1 at zero frequency."""
    otf = np.fft.fftshift(np.fft.fft2(psf.values, norm="ortho"))
    mag = np.abs(otf)
    return mag / mag[psf.grid.ny // 2, psf.grid.nx // 2]


def ensemble_autocorrelations(
    spec: EnsembleSpec, lags: list[tuple[int, int]], counts: list[int] | None = None
) -> np.ndarray:
    """Mean-removed ensemble autocorrelation at several pixel lags (dy, dx).

    Each value is (1/J) sum_j <dM_j(p) dM_j(p+lag)>_p with dM_j = M_j minus
    the per-pixel ensemble mean and periodic indexing in p.  At zero lag this
    is the mean per-pixel variance; away from zero it decays like 1/sqrt(J)
    for random ensembles and vanishes for a complete Hadamard basis.

    Row i holds the values for the ensemble's first ``counts[i]`` patterns
    (default: all of them), one column per lag.  Those ensembles are prefixes
    of one stream, so a single pass serves every count and every lag through
    the moment form (1/J) sum_j <M_j(p) M_j(p+lag)>_p - <m(p) m(p+lag)>_p,
    m the per-pixel mean of the J patterns.  The pass cuts each chunk at the
    prefix counts inside it and keeps running sums over 0/1 patterns, exact
    integer counts; only that final formula is float64.
    """
    ny, nx = spec.grid.shape
    for dy, dx in lags:
        if abs(dy) >= ny or abs(dx) >= nx:
            raise UsageError(f"lag {(dy, dx)} outside grid {spec.grid.shape}")
    counts = [spec.count] if counts is None else list(counts)
    for c in counts:
        if not 1 <= c <= spec.count:
            raise UsageError(f"prefix count {c} out of range [1, {spec.count}]")
    total = np.zeros(spec.grid.shape, dtype=np.int64)  # per-pixel sum of the patterns so far
    prod = np.zeros(len(lags), dtype=np.int64)  # sum over those patterns of sum_p M(p) M(p+lag)
    out = np.empty((len(counts), len(lags)))
    spec = replace(spec, count=max(counts))
    for lo, hi, packed in iter_chunks(spec):
        on = unpack(spec, packed).view(bool)
        cuts = sorted({c - lo for c in counts if lo < c < hi} | {hi - lo})
        for a, b in zip([0, *cuts], cuts):
            seg, j = on[a:b], lo + b
            total += seg.sum(axis=0, dtype=np.int64)
            prod += [np.count_nonzero(seg & np.roll(seg, (-dy, -dx), axis=(1, 2)))
                     for dy, dx in lags]
            if j in counts:
                mean = total[None] / j
                mean_lags = np.concatenate([
                    np.einsum("jyx,jyx->j", mean, np.roll(mean, (-dy, -dx), axis=(1, 2)))
                    for dy, dx in lags])
                out[[c == j for c in counts]] = (prod / j - mean_lags) / spec.grid.npixels
    return out
