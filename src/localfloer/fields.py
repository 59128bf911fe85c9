"""Boxes, grids, and sampled scalar fields.

Everything downstream samples functions on axis-aligned cubes centered near
the origin: generating functions on 2n-dimensional boxes, Morse data on
m-dimensional ones.  A Box is a center plus a half-width; grids are uniform
with an odd node count preferred so the center is a node.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
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
        """Multilinear interpolation on the grid, extrapolated linearly
        outside it; consistent with node values.  A point in the cell from
        node i to node i + 1 along each axis sums, over the cell's corners
        in the order of ``itertools.product``, the corner value times the
        weights of its axes, multiplied in in axis order: the bits of
        scipy's ``RegularGridInterpolator(method="linear")`` on a plane."""
        axes, values = self.box.axes(self.resolution), self.values

        def interpolate(pts: np.ndarray) -> np.ndarray:
            pts = np.atleast_2d(np.asarray(pts, dtype=float))
            cells, weights = [], []
            for axis, p in zip(axes, pts.T):
                i = np.clip(np.searchsorted(axis, p, side="right") - 1, 0, len(axis) - 2)
                t = (p - axis[i]) / (axis[i + 1] - axis[i])
                cells.append(i)
                weights.append((1 - t, t))
            out = np.zeros(len(pts))
            for corner in product((0, 1), repeat=len(axes)):
                term = values[tuple(i + c for i, c in zip(cells, corner))]
                for w, c in zip(weights, corner):
                    term = term * w[c]
                out += term
            return out

        return interpolate
