"""Quintic tensor-product interpolating splines on a rectangular grid.

The knots are FITPACK's for an interpolant (smoothing s = 0) of odd degree
k = 5 on an axis x_0 < ... < x_{m-1}: x_0 and x_{m-1} six times each and
the interior nodes x_3 .. x_{m-4} once, so that there are m B-splines per
axis.  The coefficients solve the two collocation systems of the table,
one per axis.  B-splines and their first derivatives come from de Boor's
recursion; evaluation clamps a point to the grid's rectangle, as FITPACK
does.

A lookup contracts the coefficients with the six B-splines of each axis
that do not vanish at a point, in one fixed order of operations, first
along y and then along x.  On a grid the y sums are shared by every node
of a column, and each node still meets the same operations as it would
alone, so grid and point lookups agree bit for bit.
"""
from __future__ import annotations

import numpy as np

__all__ = ["QuinticSpline", "Basis"]

DEGREE = 5


def _knots(axis: np.ndarray) -> np.ndarray:
    k = DEGREE
    return np.concatenate([np.full(k + 1, axis[0]), axis[3:-3], np.full(k + 1, axis[-1])])


def _axis_basis(t: np.ndarray, x: np.ndarray):
    """First index and the values and first derivatives of the B-splines
    of knots t that do not vanish at each x: shapes (N,) and (2, 6, N).

    de Boor's recursion raises the degree from 0 on the span
    t[l] <= x < t[l + 1], the last span closed; the derivatives are the
    differences of the degree-4 B-splines."""
    k, ncoef = DEGREE, len(t) - DEGREE - 1
    x = np.clip(np.asarray(x, dtype=float), t[k], t[ncoef])
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, ncoef - 1)
    # the knots t[l - 4] .. t[l + 5] around each span l
    near = t[span + np.arange(1 - k, k + 1)[:, None]]
    h = np.ones((1, len(x)))
    for j in range(1, k + 1):
        right, left = near[k : k + j], near[k - j : k]
        f = h / (right - left)
        h = np.zeros((j + 1, len(x)))
        h[:j] = f * (right - x)
        h[1:] += f * (x - left)
    # f holds the degree-4 B-splines over the lengths of their supports
    deriv = np.zeros((k + 1, len(x)))
    deriv[1:] = k * f
    deriv[:k] -= k * f
    return span - k, np.stack([h, deriv])


class Basis:
    """The B-splines of a spline's two axes at a batch: on the axes x and
    y of a grid whose nodes run x slowest (grid=True), or at the points
    (x[i], y[i]).  Every spline on the same grid axes can read it."""

    def __init__(self, tx: np.ndarray, ty: np.ndarray, x, y, grid: bool):
        self.x, self.y, self.grid = x, y, grid
        self.ix, self.bx = _axis_basis(tx, x)
        self.iy, self.by = _axis_basis(ty, y)
        if not grid:
            # flat indices of each point's 6 x 6 coefficients, x slowest
            ny, span = len(ty) - DEGREE - 1, np.arange(DEGREE + 1)
            self.block = (self.ix * ny + self.iy) + (span[:, None] * ny + span)[..., None]


class QuinticSpline:
    """The quintic interpolant of table[i, j] at the grid nodes
    (ax[i], ay[j]); each axis needs at least 6 nodes."""

    def __init__(self, ax: np.ndarray, ay: np.ndarray, table: np.ndarray):
        if min(len(ax), len(ay)) <= DEGREE:
            raise ValueError(f"a quintic spline needs at least {DEGREE + 1} nodes per axis")
        self.tx, self.ty = _knots(ax), _knots(ay)
        colloc = [self._collocation(t, axis) for t, axis in ((self.tx, ax), (self.ty, ay))]
        self.coef = np.linalg.solve(colloc[1], np.linalg.solve(colloc[0], table).T).T

    @staticmethod
    def _collocation(t: np.ndarray, axis: np.ndarray) -> np.ndarray:
        first, b = _axis_basis(t, axis)
        out = np.zeros((len(axis), len(axis)))
        out[np.arange(len(axis))[:, None], first[:, None] + np.arange(DEGREE + 1)] = b[0].T
        return out

    def basis(self, x, y, grid: bool) -> Basis:
        return Basis(self.tx, self.ty, x, y, grid)

    def __call__(self, basis: Basis, dx: int = 0, dy: int = 0) -> np.ndarray:
        """Values (dx = dy = 0) or first partials (dx or dy = 1) at the
        basis's batch, flat, grid nodes x slowest."""
        bx, by, ix, iy, c = basis.bx[dx], basis.by[dy], basis.ix, basis.iy, self.coef
        if basis.grid:
            col = _contract(by, lambda j: c[:, iy + j])
            return _contract(bx[:, :, None], lambda i: col[ix + i]).ravel()
        block = c.ravel()[basis.block]
        rows = _contract(by[:, None], lambda j: block[:, j])
        return _contract(bx, lambda i: rows[i])


def _contract(weights: np.ndarray, terms) -> np.ndarray:
    """The sum of weights[q] * terms(q) over q = 0 .. 5, added in that order."""
    out = weights[0] * terms(0)
    for q in range(1, DEGREE + 1):
        out += weights[q] * terms(q)
    return out
