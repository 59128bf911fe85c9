"""Boxes, grids, and sampled scalar fields.

Everything downstream samples functions on axis-aligned cubes centered near
the origin: generating functions on 2n-dimensional boxes, Morse data on
m-dimensional ones.  A Box is a center plus a half-width; grids are uniform
with an odd node count preferred so the center is a node.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

__all__ = ["Box", "SampledField"]

# annulus, in fractions of a box radius, where an isolated center has no critical point
SHELL = (0.25, 1.0)


@dataclass(frozen=True)
class Box:
    center: tuple
    radius: float

    @property
    def m(self) -> int:
        return len(self.center)

    def axes(self, resolution: int) -> List[np.ndarray]:
        return [
            np.linspace(c - self.radius, c + self.radius, resolution)
            for c in self.center
        ]

    def nodes(self, resolution: int) -> np.ndarray:
        """All grid nodes, shape (resolution**m, m), x-axis fastest last."""
        mesh = np.meshgrid(*self.axes(resolution), indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.m)

    def spacing(self, resolution: int) -> float:
        return 2.0 * self.radius / (resolution - 1)


@dataclass(frozen=True)
class SampledField:
    """Node samples of a scalar function on a box grid, shape (res,) * m."""

    box: Box
    values: np.ndarray

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    def __post_init__(self):
        res = self.values.shape[0]
        if self.values.shape != (res,) * self.box.m:
            raise ValueError(
                f"values shape {self.values.shape} does not match box dimension {self.box.m}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def interpolator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Multilinear interpolation on the grid; consistent with node values."""
        from scipy.interpolate import RegularGridInterpolator

        rgi = RegularGridInterpolator(
            tuple(self.box.axes(self.resolution)),
            self.values,
            method="linear",
            bounds_error=False,
            fill_value=None,
        )
        return lambda pts: np.asarray(rgi(np.atleast_2d(pts)), dtype=float)

