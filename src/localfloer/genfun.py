"""Generating functions of near-identity germs over the vertical complement.

For a germ map phi fixing 0, write psi_k(z) = (x-component of phi^k(z), y).
On a small enough box psi_k is a diffeomorphism and the k-th generating
function F_k is determined by

    phi^k(z) - z = X_{F_k}(psi_k(z)),        F_k(0) = 0,

with X_F = (F_y, -F_x).  Writing (u, v) = phi^k(z) - z this pins the
gradient samples grad F_k = (-v, u) at the nodes w = psi_k(z), and F_k is
assembled by integrating that 1-form from the center node: along x on the
center row, then along y from that row.  Assembly is plane code, as are
the spline maps that feed it: ``generating_function`` refuses germs of
dimension above 2.  The 1-form is closed up to discretization; the maximal
plaquette circulation is measured and reported, and large values signal a
box that is too large or a grid that is too coarse.

Convention check, shear phi(x, y) = (x + y, y): u = y, v = 0, psi = phi, so
grad F = (0, y) and F = y^2 / 2 with dF vanishing exactly on the fixed line
{y = 0}.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

import numpy as np

from .errors import (
    ClosednessDefect,
    NewtonDivergence,
    NotC1Small,
    NotInvertibleOnBox,
)
from .fields import Box, SampledField
from .germs import NEWTON_MAX_ITER, HamiltonianGerm, flow_jacobians, flow_points
from .symplectic import validate_symplectic

__all__ = [
    "GermMap",
    "OdeGermMap",
    "SplineGermMap",
    "PsiMap",
    "psi",
    "GeneratingFunction",
    "generating_function",
]

FIX_TOL = 1e-8
# PsiMap.invert stops at this max-norm residual
INVERT_TOL = 1e-12
# psi probes the xx Jacobian block on this many nodes per axis
PROBE_RES = 33
# generating_function: least |det| of the xx Jacobian block on the box
DET_MIN = 0.2
# generating_function: largest ||Dphi^k - id|| on the box, unless set
C1_GATE = 0.2
# SplineGermMap: grid nodes per axis, unless set
SPLINE_RESOLUTION = 97


def _opnorms(mats: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a stack of square matrices.

    1 x 1 and 2 x 2 in closed form; for [[a, b], [c, d]] the singular values
    are (p +- q) / 2 with p = |(a + d, c - b)| and q = |(a - d, b + c)|.
    Larger matrices go through the SVD.
    """
    size = mats.shape[-1]
    if size == 1:
        return np.abs(mats[..., 0, 0])
    if size == 2:
        a, b = mats[..., 0, 0], mats[..., 0, 1]
        c, d = mats[..., 1, 0], mats[..., 1, 1]
        return 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, b + c))
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


class _Reads(dict):
    """phi^k at one batch, as psi reads it: "x" and "y", the parts of the
    value, and "xx", the xx Jacobian block.  A missing part is computed on
    first access by ``look(part)``, which returns a dict of the parts it got."""

    def __init__(self, look):
        super().__init__()
        self._look = look

    def __missing__(self, part):
        self.update(self._look(part))
        return self[part]


def _node_axes(z: np.ndarray):
    """The x and y axes of z when z is a ``Box.nodes`` layout, the ij
    meshgrid of two strictly increasing axes, compared bit for bit; else None."""
    res = max(round(len(z) ** 0.5), 1)
    ax, ay = z[::res, 0], z[:res, 1]
    mesh = np.stack(np.meshgrid(ax, ay, indexing="ij"), axis=-1).reshape(-1, 2)
    increasing = np.all(np.diff(ax) > 0) and np.all(np.diff(ay) > 0)
    return (ax, ay) if increasing and mesh.tobytes() == np.ascontiguousarray(z).tobytes() else None


class GermMap:
    """Map germ fixing 0 with Jacobian access, vectorized over (N, 2n)."""

    n: int
    name: str

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def jac(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def value_and_jac(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(self(pts), self.jac(pts)); maps that get both from one pass override it."""
        return self(pts), self.jac(pts)

    def _psi_reads(self, pts: np.ndarray) -> "_Reads":
        """What psi reads of self at the batch pts (see ``_Reads``).  This
        default gets all of it from one value_and_jac pass, on first access;
        maps that can look up one part alone override it."""

        def look(_):
            img, d = self.value_and_jac(pts)
            return {"x": img[:, : self.n], "y": img[:, self.n :], "xx": d[:, : self.n, : self.n]}

        return _Reads(look)

    def iterate(self, k: int) -> "GermMap":
        raise NotImplementedError

    @cached_property
    def origin_jacobian(self) -> np.ndarray:
        """Dphi(0), evaluated once per map; ``_validate_origin`` keeps the
        one it computes."""
        return self.jac(np.zeros((1, 2 * self.n)))[0]

    def _validate_origin(self):
        z0 = np.zeros((1, 2 * self.n))
        img, d = self.value_and_jac(z0)
        drift = float(np.linalg.norm(img))
        if drift > FIX_TOL:
            raise ValueError(f"map does not fix the origin: |phi(0)| = {drift:.3e}")
        validate_symplectic(d[0], tol=1e-6)
        self.origin_jacobian = d[0]


class OdeGermMap(GermMap):
    """phi^k realized by k sequential unit-time flow integrations: exact
    anywhere, but each evaluation runs k flows (SplineGermMap tabulates once).

    ``__call__`` flows the points alone (``germs.flow_points``, which reads
    ``grad`` and never the jet).  Value and Jacobian come from one pass:
    each flow integrates the points together with their variational
    equations, so ``value_and_jac`` costs the same k flows as ``jac``, and
    so do psi's reads of one batch (``_psi_reads``, the inherited default):
    each psi Newton step is one pass.  The value-only flow takes its own
    steps, so its values agree with those of ``value_and_jac`` to about the
    integrator tolerance, not bit for bit."""

    def __init__(self, germ: HamiltonianGerm, k: int = 1, check: bool = True):
        self.germ = germ
        self.k = int(k)
        self.n = germ.n
        self.name = f"{germ.name}^{k}"
        if check:
            self._validate_origin()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        for _ in range(self.k):
            z = flow_points(self.germ, z)
        return z

    def jac(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_jac(pts)[1]

    def value_and_jac(self, pts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        total = np.broadcast_to(np.eye(2 * self.n), (len(z), 2 * self.n, 2 * self.n)).copy()
        for _ in range(self.k):
            z, d = flow_jacobians(self.germ, z)
            total = d @ total
        return z, total

    def iterate(self, k: int) -> "OdeGermMap":
        if k == 1:
            return self
        return OdeGermMap(self.germ, self.k * k, check=False)


class _IterateTower:
    """Images of the padded grid nodes under phi^j, j = 0, 1, ...

    Level j + 1 is one value-only flow of level j, so every order costs one
    grid flow however it is reached.
    """

    def __init__(self, germ: HamiltonianGerm, nodes: np.ndarray):
        self.germ = germ
        self.levels = [nodes]

    def level(self, k: int) -> np.ndarray:
        while len(self.levels) <= k:
            self.levels.append(flow_points(self.germ, self.levels[-1]))
        return self.levels[k]


class SplineGermMap(GermMap):
    """phi^k tabulated on a padded grid and interpolated with quintic splines.

    The grid for phi^{j+1} is obtained by flowing the images of phi^j, so
    iteration composes exactly at nodes with no interpolation error; only
    off-node evaluation interpolates.  Each order fits one spline per
    component; the Jacobian is their derivative, so psi's Newton steps
    invert the map they evaluate.  Every evaluator refuses points outside
    the padded box, and looks a ``Box.nodes`` batch up on its two axes,
    with the bits of point-by-point lookups (``_reader``).  All iterates of
    a map share one iterate tower (passed on as ``_data``); each call of
    ``iterate`` fits its order's splines on it anew.  Two dimensional
    germs only.
    """

    def __init__(
        self,
        germ: HamiltonianGerm,
        box: Box,
        resolution: int = SPLINE_RESOLUTION,
        k: int = 1,
        padding: float = 1.6,
        _data=None,
    ):
        from scipy.interpolate import RectBivariateSpline

        if germ.n != 1:
            raise ValueError("spline-backed maps are two dimensional only")
        self.germ = germ
        self.base_box = box
        self.resolution = int(resolution)
        self.k = int(k)
        self.padding = float(padding)
        self.n = 1
        self.name = f"{germ.name}^{k}[spline]"
        self.padded = Box(center=box.center, radius=box.radius * padding)
        if _data is None:
            _data = _IterateTower(germ, self.padded.nodes(self.resolution))
        self._tower = _data
        images, res = _data.level(self.k), self.resolution
        ax, deg = self.padded.axes(res), min(5, res - 1)
        self._phi_spl = [
            RectBivariateSpline(ax[0], ax[1], images[:, i].reshape(res, res), kx=deg, ky=deg)
            for i in range(2)
        ]
        self._validate_origin()

    def _tabulated(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        if not np.all(self.padded.contains(z, slack=1e-9)):
            raise NotInvertibleOnBox(
                "evaluation outside the tabulated padded box; rebuild the map "
                "with a larger padding for this displacement size"
            )
        return z

    def _reader(self, pts: np.ndarray):
        """read(comps, **deriv): components comps of phi^k at pts (partials
        with dx=1 or dy=1), shape (N, len(comps)).  Table and layout are
        checked once: a ``Box.nodes`` batch is looked up on its two axes
        (``grid=True``: FITPACK's grid routines, which give the bits of its
        point-by-point ones at every node), any other batch point by point."""
        z = self._tabulated(pts)
        axes = _node_axes(z)
        x, y = (z[:, 0], z[:, 1]) if axes is None else axes
        return lambda comps, **deriv: np.stack(
            [self._phi_spl[i](x, y, grid=axes is not None, **deriv).ravel() for i in comps], axis=1
        )

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self._reader(pts)([0, 1])

    def jac(self, pts: np.ndarray) -> np.ndarray:
        read = self._reader(pts)
        return np.stack([read([0, 1], dx=1), read([0, 1], dy=1)], axis=2)

    def _psi_reads(self, pts: np.ndarray) -> _Reads:
        read = self._reader(pts)
        looks = {
            "x": lambda: read([0]),
            "y": lambda: read([1]),
            "xx": lambda: read([0], dx=1)[:, :, None],
        }
        return _Reads(lambda part: {part: looks[part]()})

    def iterate(self, k: int) -> "SplineGermMap":
        if k == 1:
            return self
        return SplineGermMap(
            self.germ,
            self.base_box,
            resolution=self.resolution,
            k=self.k * k,
            padding=self.padding,
            _data=self._tower,
        )


# ----------------------------------------------------------------------- psi


class PsiMap:
    """psi_k(z) = (x-component of phi^k(z), y) with Newton inversion."""

    def __init__(self, phi_k: GermMap):
        self.phi_k = phi_k
        self.n = phi_k.n

    def invert(self, w: np.ndarray, _image: bool = False, _start=None):
        """Solve psi(z) = w per row by Newton, seeded at z = w.

        psi leaves y alone, so z keeps w's y part and Newton runs on x:
        each step reads phi^k at z through one ``_psi_reads`` and solves
        (D phi^k)_xx dx = r with r the x part of phi^k(z) - w.  A step that
        does not converge reads the x part and xx; the converged step reads
        the x part, and with ``_image`` the y part too, for a result
        (z, phi^k(z)).  ``_start``, if given, holds the parts at z = w, and
        the first step reads it instead.
        """
        n = self.n
        w = np.atleast_2d(np.asarray(w, dtype=float))
        z = w.copy()
        for _ in range(NEWTON_MAX_ITER):
            reads = self.phi_k._psi_reads(z) if _start is None else _start
            _start = None
            res = reads["x"] - w[:, :n]
            err = float(np.max(np.abs(res)))
            if err <= INVERT_TOL:
                return (z, np.concatenate([reads["x"], reads["y"]], axis=1)) if _image else z
            step = np.linalg.solve(reads["xx"], res[..., None])[..., 0]
            z = np.concatenate([z[:, :n] - step, w[:, n:]], axis=1)
        raise NewtonDivergence(f"psi inversion stalled at residual {err:.3e}")

    def gradient(self, w: np.ndarray, _start=None) -> np.ndarray:
        """grad F_k at w = psi_k(z): (-v, u) with (u, v) = phi^k(z) - z.

        phi^k(z) is the image ``invert`` computed at its last step, so no
        evaluation follows the inversion; ``_start`` goes to ``invert``."""
        z, img = self.invert(w, _image=True, _start=_start)
        disp = img - z
        return np.concatenate([-disp[:, self.n :], disp[:, : self.n]], axis=1)


def psi(phi: GermMap, k: int, probe_box: Box) -> PsiMap:
    """The vertical-complement projection of phi^k, probed for invertibility.

    D psi is block triangular with identity y block, so injectivity reduces
    to the xx Jacobian block: ||(D phi^k)_xx - id|| below 0.9 makes
    x -> (phi^k)_x(x, y) injective for each frozen y.  The probe tries
    shrinking fractions of probe_box; NotInvertibleOnBox if even the
    smallest fails.
    """
    phi_k = phi.iterate(k)
    n = phi.n
    for frac in (1.0, 0.75, 0.5, 0.25, 0.1):
        nodes = Box(center=probe_box.center, radius=probe_box.radius * frac).nodes(PROBE_RES)
        xx = phi_k._psi_reads(nodes)["xx"]
        dev = float(np.max(_opnorms(xx - np.eye(n))))
        if dev < 0.9:
            return PsiMap(phi_k)
    raise NotInvertibleOnBox(
        f"order {k}, box radius {probe_box.radius:g}: xx Jacobian block deviates "
        f"from identity by {dev:.3f} even at 10% of the box"
    )


# ------------------------------------------------------- assembly of F


def _sweep(line: np.ndarray, spacing: float) -> np.ndarray:
    """Cumulative trapezoid integral along the last axis, out from the center index."""
    c = line.shape[-1] // 2
    pair = 0.5 * spacing * (line[..., :-1] + line[..., 1:])
    cum = np.zeros_like(line)
    cum[..., c + 1 :] = np.cumsum(pair[..., c:], axis=-1)
    cum[..., c - 1 :: -1] = -np.cumsum(pair[..., c - 1 :: -1], axis=-1)
    return cum


def _path_integrate(grad_grid: np.ndarray, spacing: float) -> np.ndarray:
    """Potential from plane gradient samples, shape (res, res, 2), by two
    trapezoid sweeps from the center node: along x on the center row, then
    along y from that row."""
    # summed onto zeros, so that no entry comes out as -0.0
    f = np.zeros(grad_grid.shape[:2])
    f += _sweep(grad_grid[:, grad_grid.shape[0] // 2, 0], spacing)[:, None]
    f += _sweep(grad_grid[..., 1], spacing)
    return f


def _plaquette_defect(grad_grid: np.ndarray, spacing: float) -> float:
    """Max trapezoid circulation of the sampled plane 1-form over unit grid cells."""
    gx, gy = grad_grid[..., 0], grad_grid[..., 1]
    loop = 0.5 * spacing * (
        (gx[:-1, :-1] + gx[1:, :-1])
        + (gy[1:, :-1] + gy[1:, 1:])
        - (gx[:-1, 1:] + gx[1:, 1:])
        - (gy[:-1, :-1] + gy[:-1, 1:])
    )
    return float(np.max(np.abs(loop)))


@dataclass(frozen=True)
class GeneratingFunction:
    """F_k sampled on a box, with the psi_k it was assembled through."""

    field: SampledField
    order: int
    c1_norm: float
    closedness_defect: float
    psi_k: PsiMap


def generating_function(
    phi: GermMap,
    k: int,
    box: Box,
    resolution: int,
    c1_gate: float = C1_GATE,
    closedness_tol: float = 1e-6,
) -> GeneratingFunction:
    """Assemble F_k on the box at the given odd resolution.

    The C1 gate rejects maps too far from the identity for the vertical
    complement to be transverse everywhere (override it deliberately for
    maps whose xx Jacobian block is provably invertible, like shears).
    """
    if phi.n != 1:
        # the sweep assembly scales past memory off the plane; higher
        # dimensional germs go through the split route instead
        raise ValueError("generating functions are assembled for plane maps only")
    if resolution % 2 == 0:
        raise ValueError("resolution must be odd so the origin is a node")
    pm = psi(phi, k, probe_box=box)
    phi_k = pm.phi_k
    nodes = box.nodes(resolution)
    img, jacs = phi_k.value_and_jac(nodes)  # for both gates and psi's first step
    n = phi.n
    where = f"order {k}, box radius {box.radius:g}: "
    c1 = float(np.max(_opnorms(jacs - np.eye(2 * n))))
    if c1 > c1_gate:
        raise NotC1Small(f"{where}||Dphi^k - id|| = {c1:.3f} exceeds gate {c1_gate}")
    min_det = float(np.min(np.abs(np.linalg.det(jacs[:, :n, :n]))))
    if min_det < DET_MIN:
        raise NotInvertibleOnBox(f"{where}xx Jacobian block determinant reaches {min_det:.3e}")
    grad_grid = pm.gradient(nodes, _start={"x": img[:, :n], "y": img[:, n:], "xx": jacs[:, :n, :n]})
    grad_grid = grad_grid.reshape(resolution, resolution, 2)
    spacing = box.spacing(resolution)
    defect = _plaquette_defect(grad_grid, spacing)
    if defect > closedness_tol:
        raise ClosednessDefect(
            f"{where}plaquette circulation {defect:.3e} exceeds {closedness_tol:.1e}; "
            "shrink the box or refine the grid"
        )
    values = _path_integrate(grad_grid, spacing)
    values[resolution // 2, resolution // 2] = 0.0
    return GeneratingFunction(
        field=SampledField(box=box, values=values),
        order=k,
        c1_norm=c1,
        closedness_defect=defect,
        psi_k=pm,
    )
