"""Built-in binary test objects.

All builders center the object on the grid and keep it inside the central
half, which the forward model requires.  ``from_spec`` parses the compact
"name(args)" strings used in config files, e.g. ``two-points(9)`` or
``rectangle(20,12)``.  Every size is in pixels and must be at least 1.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import ConfigError
from .grid import Grid2D, RealImage, require_central_half


def _blank(grid: Grid2D) -> np.ndarray:
    return np.zeros(grid.shape)


def _require_sizes(**sizes: int) -> None:
    """ConfigError naming the first size below one pixel."""
    for name, value in sizes.items():
        if value < 1:
            raise ConfigError(f"{name} must be >= 1 px, got {value}")


def _centered_box(grid: Grid2D, height: int, width: int, what: str) -> tuple[int, int]:
    """Top-left corner of a centered box, checked against the central half."""
    y0 = grid.ny // 2 - height // 2
    x0 = grid.nx // 2 - width // 2
    require_central_half(grid, (y0, y0 + height - 1), (x0, x0 + width - 1),
                         f"{what} of {height}x{width} px")
    return y0, x0


def letter(grid: Grid2D, height: int | None = None, stroke: int | None = None) -> RealImage:
    """A blocky hollow digit-two glyph built from five bar segments."""
    h = height if height is not None else max(8, (grid.ny * 7) // 16)
    t = stroke if stroke is not None else max(2, h // 7)
    _require_sizes(height=h, stroke=t)
    w = max(t + 2, (h * 2) // 3)
    y0, x0 = _centered_box(grid, h, w, "letter glyph")
    img = _blank(grid)
    img[y0 : y0 + t, x0 : x0 + w] = 1  # top bar
    img[y0 : y0 + h // 2, x0 + w - t : x0 + w] = 1  # upper-right stem
    ym = y0 + h // 2 - t // 2
    img[ym : ym + t, x0 : x0 + w] = 1  # middle bar
    img[y0 + h // 2 : y0 + h, x0 : x0 + t] = 1  # lower-left stem
    img[y0 + h - t : y0 + h, x0 : x0 + w] = 1  # bottom bar
    return RealImage(grid, img)


def two_points(grid: Grid2D, separation_px: int) -> RealImage:
    """Two unit pixels on the center row, separated along x."""
    _require_sizes(separation=separation_px)
    cy, x_left, x_right = two_point_columns(grid, separation_px)
    img = _blank(grid)
    img[cy, x_left] = 1
    img[cy, x_right] = 1
    return RealImage(grid, img)


def two_point_columns(grid: Grid2D, separation_px: int) -> tuple[int, int, int]:
    """Row and column indices (y, x_left, x_right) used by :func:`two_points`;
    ConfigError unless both points lie in the central half."""
    y, x_left = grid.ny // 2, grid.nx // 2 - separation_px // 2
    require_central_half(grid, (y, y), (x_left, x_left + separation_px),
                         f"two-point pair {separation_px} px apart")
    return y, x_left, x_left + separation_px


def rectangle(grid: Grid2D, width: int, height: int) -> RealImage:
    """A filled centered rectangle."""
    _require_sizes(width=width, height=height)
    y0, x0 = _centered_box(grid, height, width, "rectangle")
    img = _blank(grid)
    img[y0 : y0 + height, x0 : x0 + width] = 1
    return RealImage(grid, img)


def double_slit(
    grid: Grid2D, slit_width: int = 2, slit_height: int | None = None, gap: int = 6
) -> RealImage:
    """Two parallel vertical slits separated by a gap."""
    h = slit_height if slit_height is not None else max(8, grid.ny // 4)
    _require_sizes(slit_width=slit_width, slit_height=h, gap=gap)
    total_w = 2 * slit_width + gap
    y0, x0 = _centered_box(grid, h, total_w, "double slit")
    img = _blank(grid)
    img[y0 : y0 + h, x0 : x0 + slit_width] = 1
    img[y0 : y0 + h, x0 + slit_width + gap : x0 + total_w] = 1
    return RealImage(grid, img)


_SPEC_RE = re.compile(r"^\s*([a-z][a-z0-9-]*)\s*(?:\(([^)]*)\))?\s*$")

BUILTIN_NAMES = ("letter", "two-points", "rectangle", "double-slit")


def from_spec(grid: Grid2D, spec: str) -> RealImage:
    """Build an object from a "name" or "name(arg, ...)" string.

    Errors name the spec as the value of the ``object`` config key.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ConfigError(f"cannot parse object spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    try:
        args = [int(a) for a in argstr.split(",")] if argstr else []
        if name == "letter":
            return letter(grid, *args)
        if name == "two-points":
            if not args:
                raise ConfigError("two-points needs a separation, e.g. two-points(9)")
            return two_points(grid, *args)
        if name == "rectangle":
            if len(args) != 2:
                raise ConfigError("rectangle needs width and height, e.g. rectangle(20,12)")
            return rectangle(grid, args[0], args[1])
        if name == "double-slit":
            return double_slit(grid, *args)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"object {spec!r}: bad arguments for {name!r}") from exc
    except ConfigError as exc:
        raise ConfigError(f"object {spec!r}: {exc}") from None
    raise ConfigError(f"unknown object {name!r}; built-ins are {BUILTIN_NAMES}")
