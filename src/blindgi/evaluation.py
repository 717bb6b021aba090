"""Scoring reconstructions against ground truth, modulo the ambiguities a
Fourier magnitude cannot see (circular translation and point reflection),
plus the two-point resolution probe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError, UsageError
from .grid import RealImage, point_reflect, unit_scale


@dataclass(frozen=True)
class AlignmentResult:
    """Best match over circular shifts x {identity, point reflection}.

    ``shift`` is the (dy, dx) circular displacement of the (possibly
    reflected) reconstruction relative to the truth: rolling the transformed
    reconstruction by the negated shift aligns it with the truth.
    """

    shift: tuple[int, int]
    flipped: bool
    pearson: float


def _pearson_maps(recon: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """Pearson correlation as a function of shift, stacked as (flip, dy, dx)
    with the unflipped state first."""
    npix = truth.size
    t = truth - truth.mean()
    t_std = truth.std()
    f_t_conj = np.conj(np.fft.fft2(t))
    maps = np.empty((2, *truth.shape))
    for flipped, x in enumerate((recon, point_reflect(recon))):
        x_std = x.std()
        # cross[s] = sum_r t(r) x(r + s): peaks at the displacement of x
        cross = np.fft.ifft2(f_t_conj * np.fft.fft2(x - x.mean())).real
        maps[flipped] = cross / (npix * t_std * x_std)
    return maps


def align_and_score(recon: RealImage, truth: RealImage) -> AlignmentResult:
    """Maximize Pearson correlation over all circular shifts and point reflection.

    Ties break toward unflipped and then the lexicographically smallest
    (dy, dx) shift.  Pearson is scale-free, so both images are correlated
    at ``unit_scale``, where no square overflows or underflows.
    """
    if recon.grid != truth.grid:
        raise ConfigError("reconstruction and truth grids differ")
    if not (recon.values.max() > recon.values.min() and truth.values.max() > truth.values.min()):
        raise NumericalError("Pearson correlation undefined for a constant image")
    maps = _pearson_maps(unit_scale(recon.values)[0], unit_scale(truth.values)[0])
    # argmax returns the first maximum in C order: that is the tie rule
    flipped, dy, dx = map(int, np.unravel_index(np.argmax(maps), maps.shape))
    return AlignmentResult(shift=(dy, dx), flipped=bool(flipped),
                           pearson=float(maps[flipped, dy, dx]))


def apply_alignment(recon: RealImage, result: AlignmentResult) -> RealImage:
    """Transform the reconstruction onto the truth's frame."""
    vals = point_reflect(recon.values) if result.flipped else recon.values
    return RealImage(recon.grid, np.roll(vals, (-result.shift[0], -result.shift[1]), axis=(0, 1)))


def two_point_contrast(
    aligned: RealImage, y: int, x_left: int, x_right: int
) -> float:
    """Rayleigh-style dip contrast along the row through two point sources.

    contrast = (peak - midpoint dip) / peak with peak the mean of the values
    at the two point positions; negative when the profile humps in between.
    """
    if x_right <= x_left:
        raise UsageError("x_right must exceed x_left")
    profile = aligned.values[y]
    peak = 0.5 * (profile[x_left] + profile[x_right])
    if peak <= 0:
        return 0.0
    mid = x_left + (x_right - x_left) / 2.0
    lo, hi = int(np.floor(mid)), int(np.ceil(mid))
    dip = min(profile[lo], profile[hi])
    return float((peak - dip) / peak)


DIP_THRESHOLD = 0.2  # two points are resolved at this dip contrast or more


def is_resolved(contrast: float) -> bool:
    return contrast >= DIP_THRESHOLD
