"""Generating functions of near-identity germs over the vertical complement.

For a germ map phi fixing 0, write psi_k(z) = (x-component of phi^k(z), y).
On a small enough box psi_k is a diffeomorphism and the k-th generating
function F_k is determined by

    phi^k(z) - z = X_{F_k}(psi_k(z)),        F_k(0) = 0,

with X_F = (F_y, -F_x).  Writing (u, v) = phi^k(z) - z this pins the
gradient samples grad F_k = (-v, u) at the nodes w = psi_k(z), and F_k is
assembled by integrating that 1-form along axis-aligned paths from the
center node.  The 1-form is closed up to discretization; the maximal
plaquette circulation is measured and reported, and large values signal a
box that is too large or a grid that is too coarse.

Convention check, shear phi(x, y) = (x + y, y): u = y, v = 0, psi = phi, so
grad F = (0, y) and F = y^2 / 2 with dF vanishing exactly on the fixed line
{y = 0}.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .errors import (
    ClosednessDefect,
    NewtonDivergence,
    NotC1Small,
    NotInvertibleOnBox,
)
from .fields import SHELL, Box, SampledField, grid_gradient
from .germs import NEWTON_MAX_ITER, HamiltonianGerm, flow_jacobians
from .symplectic import validate_symplectic

__all__ = [
    "GermMap",
    "OdeGermMap",
    "SplineGermMap",
    "PsiMap",
    "psi",
    "GeneratingFunction",
    "generating_function",
    "gf_property_report",
    "ScanReport",
    "homotopy_isolation_scan",
    "conjugated_map",
    "scaling_conjugation",
    "reconstruction_residual",
]

FIX_TOL = 1e-8
# PsiMap.invert stops at this max-norm residual
INVERT_TOL = 1e-12
# psi probes the xx Jacobian block on this many nodes per axis
PROBE_RES = 33
# generating_function: least |det| of the xx Jacobian block on the box
DET_MIN = 0.2
# gf_property_report: shrinking boxes, and their grid resolution
SHRINK_STEPS = 4
SHRINK_RESOLUTION = 33
SCAN_T_SAMPLES = 11
SCAN_MARGIN = 3.0


def _opnorms(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


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

    def iterate(self, k: int) -> "GermMap":
        raise NotImplementedError

    def _validate_origin(self):
        z0 = np.zeros((1, 2 * self.n))
        img, d = self.value_and_jac(z0)
        drift = float(np.linalg.norm(img))
        if drift > FIX_TOL:
            raise ValueError(f"map does not fix the origin: |phi(0)| = {drift:.3e}")
        validate_symplectic(d[0], tol=1e-6)


class OdeGermMap(GermMap):
    """phi^k realized by k sequential unit-time flow integrations.  Exact but
    slow; the spline variant below is preferred for dense grids.

    Value and Jacobian come from one pass: each flow integrates the points
    together with their variational equations, so asking for both costs
    the same k flows as asking for either."""

    def __init__(self, germ: HamiltonianGerm, k: int = 1, check: bool = True):
        self.germ = germ
        self.k = int(k)
        self.n = germ.n
        self.name = f"{germ.name}^{k}"
        if check:
            self._validate_origin()

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        return self.value_and_jac(pts)[0]

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
    """Images and Jacobians of phi^j at the padded grid nodes, j = 0, 1, ...

    Level j + 1 is one flow of level j, so every order costs one grid flow
    however it is reached.  The spline map built for each order is kept in
    ``maps`` so that all iterates of one map share a single object per order.
    """

    def __init__(self, germ: HamiltonianGerm, nodes: np.ndarray):
        self.germ = germ
        self.levels = [(nodes, np.broadcast_to(np.eye(2), (len(nodes), 2, 2)).copy())]
        self.maps: dict = {}

    def level(self, k: int):
        while len(self.levels) <= k:
            pts, total = self.levels[-1]
            pts, d = flow_jacobians(self.germ, pts)
            self.levels.append((pts, d @ total))
        return self.levels[k]


class SplineGermMap(GermMap):
    """phi^k tabulated on a padded grid and interpolated with quintic splines.

    The grid for phi^{j+1} is obtained by flowing the images of phi^j, so
    iteration composes exactly at nodes with no interpolation error; only
    off-node evaluation interpolates.  All iterates of a map share one
    iterate tower (passed on as ``_data``).  Two dimensional germs only.
    """

    def __init__(
        self,
        germ: HamiltonianGerm,
        box: Box,
        resolution: int = 97,
        k: int = 1,
        padding: float = 1.6,
        _data=None,
    ):
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
        self._fit(_data.level(self.k))
        self._validate_origin()

    def _fit(self, data):
        from scipy.interpolate import RectBivariateSpline

        pts, jacs = data
        res = self.resolution
        ax = self.padded.axes(res)
        deg = min(5, res - 1)
        self._phi_spl = [
            RectBivariateSpline(ax[0], ax[1], pts[:, i].reshape(res, res), kx=deg, ky=deg)
            for i in range(2)
        ]
        self._jac_spl = [
            [
                RectBivariateSpline(
                    ax[0], ax[1], jacs[:, i, j].reshape(res, res), kx=deg, ky=deg
                )
                for j in range(2)
            ]
            for i in range(2)
        ]

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        if not np.all(self.padded.contains(z, slack=1e-9)):
            raise NotInvertibleOnBox(
                "evaluation outside the tabulated padded box; rebuild the map "
                "with a larger padding for this displacement size"
            )
        return np.stack([s(z[:, 0], z[:, 1], grid=False) for s in self._phi_spl], axis=1)

    def jac(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty((len(z), 2, 2))
        for i in range(2):
            for j in range(2):
                out[:, i, j] = self._jac_spl[i][j](z[:, 0], z[:, 1], grid=False)
        return out

    def iterate(self, k: int) -> "SplineGermMap":
        if k == 1:
            return self
        order = self.k * k
        maps = self._tower.maps
        if order not in maps:
            maps[order] = SplineGermMap(
                self.germ,
                self.base_box,
                resolution=self.resolution,
                k=order,
                padding=self.padding,
                _data=self._tower,
            )
        return maps[order]


# ----------------------------------------------------------------------- psi


class PsiMap:
    """psi_k(z) = (x-component of phi^k(z), y) with Newton inversion."""

    def __init__(self, phi_k: GermMap, invertibility_radius: float):
        self.phi_k = phi_k
        self.n = phi_k.n
        self.invertibility_radius = invertibility_radius

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        img = self.phi_k(z)
        out = z.copy()
        out[:, : self.n] = img[:, : self.n]
        return out

    def jac(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.phi_k.jac(z)
        out = np.broadcast_to(np.eye(2 * self.n), d.shape).copy()
        out[:, : self.n, :] = d[:, : self.n, :]
        return out

    def invert(self, w: np.ndarray) -> np.ndarray:
        """Solve psi(z) = w per row by Newton, seeded at z = w."""
        w = np.atleast_2d(np.asarray(w, dtype=float))
        z = w.copy()
        for _ in range(NEWTON_MAX_ITER):
            res = self(z) - w
            err = float(np.max(np.abs(res)))
            if err <= INVERT_TOL:
                return z
            j = self.jac(z)
            z = z - np.linalg.solve(j, res[..., None])[..., 0]
        raise NewtonDivergence(f"psi inversion stalled at residual {err:.3e}")

    def gradient(self, w: np.ndarray) -> np.ndarray:
        """grad F_k at w = psi_k(z): (-v, u) with (u, v) = phi^k(z) - z."""
        z = self.invert(w)
        disp = self.phi_k(z) - z
        return np.concatenate([-disp[:, self.n :], disp[:, : self.n]], axis=1)


def psi(phi: GermMap, k: int = 1, probe_box: Optional[Box] = None) -> PsiMap:
    """The vertical-complement projection of phi^k, with an invertibility radius.

    D psi is block triangular with identity y block, so injectivity reduces
    to the xx Jacobian block: the reported radius is the largest probed box
    fraction on which ||(D phi^k)_xx - id|| stays below 0.9, which makes
    x -> (phi^k)_x(x, y) injective for each frozen y.  NotInvertibleOnBox
    if even the smallest probe fails.
    """
    phi_k = phi.iterate(k)
    n = phi.n
    if probe_box is None:
        base = getattr(phi_k, "base_box", None)
        probe_box = base if base is not None else Box(center=(0.0,) * (2 * n), radius=0.5)
    pm = PsiMap(phi_k, invertibility_radius=0.0)
    radius = None
    for frac in (1.0, 0.75, 0.5, 0.25, 0.1):
        r = probe_box.radius * frac
        nodes = Box(center=probe_box.center, radius=r).nodes(PROBE_RES)
        xx = phi_k.jac(nodes)[:, :n, :n]
        dev = float(np.max(_opnorms(xx - np.eye(n))))
        if dev < 0.9:
            radius = r
            break
    if radius is None:
        raise NotInvertibleOnBox(
            f"xx Jacobian block deviates from identity by {dev:.3f} even at 10% of the box"
        )
    pm.invertibility_radius = radius
    return pm


# ------------------------------------------------------- assembly of F


def _path_integrate(grad_grid: np.ndarray, spacing: float) -> np.ndarray:
    """Potential from gradient samples by trapezoid sweeps from the center node.

    grad_grid has shape (res,) * m + (m,).  Axis d is integrated on the slab
    where axes > d sit at their center index, then broadcast.
    """
    shape = grad_grid.shape[:-1]
    m = grad_grid.shape[-1]
    res = shape[0]
    c = res // 2
    f = np.zeros(shape)
    for d in range(m):
        g = grad_grid[..., d]
        # restrict axes > d to center
        idx: List[object] = [slice(None)] * (d + 1) + [c] * (m - d - 1)
        line = g[tuple(idx)]
        # cumulative trapezoid along axis d away from the center index
        cum = np.zeros_like(line)
        pair = 0.5 * spacing * (np.take(line, range(0, res - 1), axis=d) + np.take(line, range(1, res), axis=d))
        fwd = np.cumsum(np.take(pair, range(c, res - 1), axis=d), axis=d)
        bwd = np.cumsum(np.take(pair, range(c - 1, -1, -1), axis=d), axis=d)
        front = [slice(None)] * d
        cum[tuple(front + [slice(c + 1, res)])] = fwd
        cum[tuple(front + [slice(c - 1, None, -1)])] = -bwd
        f += cum.reshape(shape[: d + 1] + (1,) * (m - d - 1))
    return f


def _plaquette_defect(grad_grid: np.ndarray, spacing: float) -> float:
    """Max trapezoid circulation of the sampled 1-form over unit grid cells."""
    m = grad_grid.shape[-1]
    worst = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            ga = grad_grid[..., a]
            gb = grad_grid[..., b]

            def shift(arr, axis, lo):
                sl = [slice(None)] * arr.ndim
                sl[axis] = slice(0, -1) if lo else slice(1, None)
                return arr[tuple(sl)]

            ga00 = shift(shift(ga, a, True), b, True)
            ga10 = shift(shift(ga, a, False), b, True)
            ga01 = shift(shift(ga, a, True), b, False)
            ga11 = shift(shift(ga, a, False), b, False)
            gb00 = shift(shift(gb, a, True), b, True)
            gb10 = shift(shift(gb, a, False), b, True)
            gb01 = shift(shift(gb, a, True), b, False)
            gb11 = shift(shift(gb, a, False), b, False)
            loop = 0.5 * spacing * (
                (ga00 + ga10) + (gb10 + gb11) - (ga01 + ga11) - (gb00 + gb01)
            )
            worst = max(worst, float(np.max(np.abs(loop))))
    return worst


@dataclass(frozen=True)
class GeneratingFunction:
    """F_k sampled on a box, with the psi_k it was assembled through."""

    field: SampledField
    order: int
    c1_norm: float
    min_det_xx: float
    closedness_defect: float
    psi_k: PsiMap

    @property
    def invertibility_radius(self) -> float:
        return self.psi_k.invertibility_radius

    def report(self) -> dict:
        return {
            "order": self.order,
            "c1_norm": self.c1_norm,
            "min_det_xx": self.min_det_xx,
            "closedness_defect": self.closedness_defect,
            "invertibility_radius": self.invertibility_radius,
        }


def generating_function(
    phi: GermMap,
    k: int,
    box: Box,
    resolution: int,
    c1_gate: float = 0.2,
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
    jacs = phi_k.jac(nodes)
    n = phi.n
    c1 = float(np.max(_opnorms(jacs - np.eye(2 * n))))
    if c1 > c1_gate:
        raise NotC1Small(f"||Dphi^k - id|| = {c1:.3f} exceeds gate {c1_gate}")
    dets = np.linalg.det(jacs[:, :n, :n])
    if float(np.min(np.abs(dets))) < DET_MIN:
        raise NotInvertibleOnBox(
            f"xx Jacobian block determinant reaches {float(np.min(np.abs(dets))):.3e}"
        )
    grad = pm.gradient(nodes)
    m = 2 * n
    grad_grid = grad.reshape((resolution,) * m + (m,))
    spacing = box.spacing(resolution)
    defect = _plaquette_defect(grad_grid, spacing)
    if defect > closedness_tol:
        raise ClosednessDefect(
            f"plaquette circulation {defect:.3e} exceeds {closedness_tol:.1e}; "
            "shrink the box or refine the grid"
        )
    values = _path_integrate(grad_grid, spacing)
    values[(resolution // 2,) * m] = 0.0
    return GeneratingFunction(
        field=SampledField(box=box, values=values),
        order=k,
        c1_norm=c1,
        min_det_xx=float(np.min(np.abs(dets))),
        closedness_defect=defect,
        psi_k=pm,
    )


# ------------------------------------------------------------ derived checks


def reconstruction_residual(phi: GermMap, k: int, gf: GeneratingFunction, probe: np.ndarray) -> float:
    """Max norm of (phi^k - id) - X_F o psi_k at probe points, F from the grid."""
    from scipy.interpolate import RegularGridInterpolator

    phi_k = phi.iterate(k)
    pm = PsiMap(phi_k, 0.0)
    n = phi.n
    g = grid_gradient(gf.field.values, gf.field.box)
    axes = tuple(gf.field.box.axes(gf.field.resolution))
    interps = [
        RegularGridInterpolator(axes, g[..., i], method="linear", bounds_error=False, fill_value=None)
        for i in range(2 * n)
    ]
    w = pm(probe)
    df = np.stack([it(w) for it in interps], axis=1)
    x_f = np.concatenate([df[:, n:], -df[:, :n]], axis=1)
    disp = phi_k(probe) - np.atleast_2d(probe)
    return float(np.max(np.linalg.norm(disp - x_f, axis=1)))


def _sign_change_cells(comp_grid: np.ndarray) -> np.ndarray:
    """Boolean mask of grid cells where the component attains both signs."""
    m = comp_grid.ndim
    pos = comp_grid > 0
    neg = comp_grid < 0
    zero = comp_grid == 0

    def cell_any(mask):
        out = None
        for corner in range(1 << m):
            sl = tuple(
                slice(1, None) if corner >> d & 1 else slice(0, -1) for d in range(m)
            )
            out = mask[sl] if out is None else out | mask[sl]
        return out

    return (cell_any(pos) & cell_any(neg)) | cell_any(zero)


def _cell_centers(box: Box, resolution: int, mask: np.ndarray) -> np.ndarray:
    axes = box.axes(resolution)
    centers = [0.5 * (a[:-1] + a[1:]) for a in axes]
    mesh = np.meshgrid(*centers, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    return pts[mask]


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def gf_property_report(phi: GermMap, gf: GeneratingFunction) -> dict:
    """Critical set of F against fixed set of phi^k, plus the C2/C1 ratio
    along shrinking boxes.  Violations are flagged, not raised."""
    box = gf.field.box
    res = gf.field.resolution
    g = grid_gradient(gf.field.values, box)
    crit_mask = None
    for i in range(g.shape[-1]):
        mask = _sign_change_cells(g[..., i])
        crit_mask = mask if crit_mask is None else crit_mask & mask
    crit_pts = _cell_centers(box, res, crit_mask)

    phi_k = phi.iterate(gf.order)
    nodes = box.nodes(res)
    disp = phi_k(nodes) - nodes
    fixed_mask = None
    for i in range(disp.shape[1]):
        mask = _sign_change_cells(disp[:, i].reshape((res,) * box.m))
        fixed_mask = mask if fixed_mask is None else fixed_mask & mask
    fixed_pts = _cell_centers(box, res, fixed_mask)

    tol = 3.0 * box.spacing(res)
    haus = _hausdorff(crit_pts, fixed_pts)

    ratios = []
    for j in range(SHRINK_STEPS):
        b = Box(center=box.center, radius=box.radius / 2.0**j)
        try:
            # shrinking cannot raise the C1 norm of a nonlinear germ, but a
            # linear part keeps its deviation at every scale: gate at the
            # measured norm so maps that produced gf in the first place pass
            sub = generating_function(
                phi,
                gf.order,
                b,
                SHRINK_RESOLUTION,
                c1_gate=max(1.0, 1.05 * gf.c1_norm),
                closedness_tol=np.inf,
            )
        except NotInvertibleOnBox:
            break
        gg = grid_gradient(sub.field.values, b)
        hh = np.stack([grid_gradient(gg[..., i], b) for i in range(gg.shape[-1])], axis=-1)
        c2 = max(
            float(np.max(np.abs(sub.field.values))),
            float(np.max(np.linalg.norm(gg, axis=-1))),
            float(np.max(np.abs(hh))),
        )
        sub_nodes = b.nodes(SHRINK_RESOLUTION)
        img, jacs = phi_k.value_and_jac(sub_nodes)
        d1 = float(np.max(np.linalg.norm(img - sub_nodes, axis=1)))
        d1 = max(d1, float(np.max(_opnorms(jacs - np.eye(2 * phi.n)))))
        if d1 > 0:
            ratios.append(c2 / d1)
    bounded = len(ratios) > 0 and max(ratios) <= 10.0 * (ratios[0] + 1.0)
    return {
        "critical_points": crit_pts,
        "fixed_points": fixed_pts,
        "hausdorff": haus,
        "matched": bool(haus <= tol),
        "grid_tol": tol,
        "c2_over_c1": ratios,
        "ratio_bounded": bool(bounded),
    }


@dataclass(frozen=True)
class ScanReport:
    passed: bool
    min_grad_norm: float
    margin: float
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _third_difference_scale(field: SampledField) -> float:
    """Max third derivative estimate, bounding the central-difference error."""
    h = field.box.spacing(field.resolution)
    worst = 0.0
    arrs = [field.values]
    for _ in range(3):
        nxt = []
        for a in arrs:
            grads = np.gradient(a, h, edge_order=1)
            nxt.extend([grads] if field.box.m == 1 else grads)
        arrs = nxt
    for a in arrs:
        worst = max(worst, float(np.max(np.abs(a))))
    return worst


def homotopy_isolation_scan(f: SampledField, f_k: SampledField, k: int) -> ScanReport:
    """Uniform isolation of the critical point along G_t = t F_k + (1 - t) k F.

    Scans the annulus SHELL (fractions of the box radius) for zeros of
    grad G_t; passes iff the minimal gradient norm exceeds SCAN_MARGIN
    times the central-difference truncation error h^2 max|f'''| / 6."""
    if f.box != f_k.box or f.resolution != f_k.resolution:
        raise ValueError("fields must share box and resolution")
    res = f.resolution
    nodes = f.box.nodes(res)
    radii = np.max(np.abs(nodes - np.asarray(f.box.center)), axis=1)
    inner, outer = SHELL[0] * f.box.radius, SHELL[1] * f.box.radius
    mask = ((radii >= inner) & (radii <= outer)).reshape((res,) * f.box.m)
    if not np.any(mask):
        raise ValueError("empty shell")
    g1 = grid_gradient(f.values, f.box)
    g2 = grid_gradient(f_k.values, f_k.box)
    h = f.box.spacing(res)
    best = np.inf
    for t in np.linspace(0.0, 1.0, SCAN_T_SAMPLES):
        g = t * g2 + (1.0 - t) * k * g1
        norms = np.linalg.norm(g[mask], axis=-1)
        best = min(best, float(np.min(norms)))
    d3 = max(_third_difference_scale(f_k), k * _third_difference_scale(f))
    err = h**2 * d3 / 6.0 + 1e-300
    margin = best / err
    passed = bool(margin > SCAN_MARGIN)
    note = "" if passed else "gradient of the homotopy nearly vanishes on the shell"
    return ScanReport(passed=passed, min_grad_norm=best, margin=margin, note=note)


# ---------------------------------------------------------------- conjugation


class _ConjugatedMap(GermMap):
    def __init__(self, inner: GermMap, s: np.ndarray, s_inv: np.ndarray):
        self.inner = inner
        self.s = s
        self.s_inv = s_inv
        self.n = inner.n
        self.name = f"conj({inner.name})"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.inner(z @ self.s.T) @ self.s_inv.T

    def jac(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.s_inv @ self.inner.jac(z @ self.s.T) @ self.s

    def iterate(self, k: int) -> "GermMap":
        if k == 1:
            return self
        return _ConjugatedMap(self.inner.iterate(k), self.s, self.s_inv)


def scaling_conjugation(n: int, s: float) -> np.ndarray:
    """The symplectic block scaling diag(s I, I / s)."""
    return np.diag([s] * n + [1.0 / s] * n)


def conjugated_map(phi: GermMap, s: np.ndarray) -> GermMap:
    """S^{-1} phi S for symplectic S.

    For the block scaling S = diag(s I, I/s) the generating functions relate
    by composition: F_{S^{-1} phi S} = F_phi o S, so a unipotent germ whose
    Jacobian violates the C1 gate can be treated after shrinking by S."""
    s = np.asarray(s, dtype=float)
    validate_symplectic(s, tol=1e-9)
    return _ConjugatedMap(phi, s, np.linalg.inv(s))
