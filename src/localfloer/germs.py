"""Hamiltonian germs near a fixed point of R^{2n} and their flows.

A germ packages callbacks for H, grad H, and Hess H, all vectorized over a
batch of points of shape (N, 2n).  Coordinates are z = (x, y); the flow
solves z' = X_H(t, z) with X_H = (H_y, -H_x), and linearizations solve the
variational equation M' = J_vf Hess_H M alongside.

Time-dependent germs arise from smooth concatenation: two unit-time germs
are run back to back through a reparametrization whose derivative vanishes
to infinite order at the junction, so the concatenated Hamiltonian is smooth
and 1-periodic whenever the pieces vanish at their time endpoints.

The action of a closed orbit t -> phi_t(z), z a fixed point of the time-1
map, is

    A = integral_0^1 ( H(t, z(t)) - y(t) . x'(t) ) dt,

integrated as an extra component of the same ODE system.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonIsolated, NotAdmissible, NotClosed, StepFailure
from .fields import Box
from .paths import SymplecticPath, index_report
from .symplectic import SymplecticMatrix, admissible, vectorfield_j

__all__ = [
    "HamiltonianGerm",
    "flow_jacobians",
    "monodromy",
    "iterate",
    "translate",
    "concatenate",
    "orbit_action",
    "FixedPointRecord",
    "fixed_point_record",
    "find_fixed_points",
    "GapTable",
    "gap_table",
]

RTOL = 1e-11
ATOL = 1e-13
# a closed orbit may miss its start by this much after one period
CLOSURE_TOL = 1e-6
# step cap of the Newton searches for fixed and periodic points and of PsiMap.invert
NEWTON_MAX_ITER = 40


@dataclass
class HamiltonianGerm:
    """Callbacks are vectorized: z has shape (N, 2n); value (N,), grad (N, 2n),
    hess (N, 2n, 2n).  The time argument is a scalar."""

    n: int
    value: Callable[[float, np.ndarray], np.ndarray]
    grad: Callable[[float, np.ndarray], np.ndarray]
    hess: Callable[[float, np.ndarray], np.ndarray]
    name: str = ""
    autonomous: bool = True
    # set for germs built as direct sums; consumers may split along it
    factors: Optional[tuple] = None


def _solve(rhs, y0: np.ndarray, dense: bool = False):
    sol = solve_ivp(
        rhs,
        (0.0, 1.0),
        y0,
        method="DOP853",
        rtol=RTOL,
        atol=ATOL,
        dense_output=dense,
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol


def _variational_flow(germ: HamiltonianGerm, z0: np.ndarray, dense: bool):
    """Time-1 flow of a batch z0 of shape (N, 2n) with its variational
    equation M' = J_vf Hess_H M from M = I.  The state is one block (z, M)
    per point."""
    jvf = vectorfield_j(germ.n)
    dim = 2 * germ.n
    nbatch = len(z0)
    per = dim + dim * dim
    y0 = np.zeros((nbatch, per))
    y0[:, :dim] = z0
    y0[:, dim:] = np.eye(dim).reshape(-1)

    def rhs(t, y):
        blocks = y.reshape(nbatch, per)
        z = blocks[:, :dim]
        m = blocks[:, dim:].reshape(nbatch, dim, dim)
        dz = germ.grad(t, z) @ jvf.T
        dm = jvf @ (germ.hess(t, z) @ m)
        return np.concatenate([dz, dm.reshape(nbatch, -1)], axis=1).reshape(-1)

    return _solve(rhs, y0.reshape(-1), dense)


def flow_jacobians(germ: HamiltonianGerm, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flow and its space derivative for a batch: (phi(z), Dphi(z))."""
    dim = 2 * germ.n
    z0 = np.atleast_2d(np.asarray(points, dtype=float))
    sol = _variational_flow(germ, z0, dense=False)
    final = sol.y[:, -1].reshape(len(z0), dim + dim * dim)
    phi = final[:, :dim]
    jac = final[:, dim:].reshape(len(z0), dim, dim)
    if np.asarray(points).ndim == 2:
        return phi, jac
    return phi[0], jac[0]


def monodromy(germ: HamiltonianGerm, point: Optional[np.ndarray] = None) -> SymplecticPath:
    """Linearized flow along the trajectory of a point, as a path in Sp(2n)."""
    dim = 2 * germ.n
    z0 = np.zeros(dim) if point is None else np.asarray(point, dtype=float)
    sol = _variational_flow(germ, z0.reshape(1, dim), dense=True)

    def ev(t: float) -> np.ndarray:
        tt = min(max(t, 0.0), 1.0)
        return sol.sol(tt)[dim:].reshape(dim, dim)

    return SymplecticPath(germ.n, 1.0, ev)


def iterate(germ: HamiltonianGerm, k: int) -> HamiltonianGerm:
    """Germ whose unit-time flow is the k-th iterate: k H(k t mod 1, z)."""
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if k == 1:
        return germ

    def wrap(f):
        def wrapped(t, z):
            s = (k * t) % 1.0
            return k * f(s, z)

        return wrapped

    return HamiltonianGerm(
        n=germ.n,
        value=wrap(germ.value),
        grad=wrap(germ.grad),
        hess=wrap(germ.hess),
        name=f"{germ.name}^'{k}" if germ.name else "",
        autonomous=germ.autonomous,
        factors=tuple(iterate(f, k) for f in germ.factors) if germ.factors else None,
    )


def translate(germ: HamiltonianGerm, point: np.ndarray) -> HamiltonianGerm:
    """Germ seen from a shifted origin: H'(t, z) = H(t, z + point).

    The time-1 map becomes z -> phi(z + point) - point, so a fixed point of
    phi at `point` sits at the origin of the translated germ.
    """
    p = np.asarray(point, dtype=float).reshape(1, -1)

    def shift(f):
        return lambda t, z: f(t, z + p)

    return HamiltonianGerm(
        n=germ.n,
        value=shift(germ.value),
        grad=shift(germ.grad),
        hess=shift(germ.hess),
        name=f"{germ.name}@shifted" if germ.name else "",
        autonomous=germ.autonomous,
    )


def _bump(s):
    return np.where(s > 1e-12, np.exp(-1.0 / np.maximum(s, 1e-12)), 0.0)


def _sigma(s):
    g, h = _bump(s), _bump(1.0 - s)
    return g / (g + h)


def _sigma_prime(s):
    # g'(s) = g(s)/s^2; flat to infinite order at both endpoints
    s = np.clip(s, 0.0, 1.0)
    g, h = _bump(s), _bump(1.0 - s)
    gp = np.where(s > 1e-12, g / np.maximum(s, 1e-12) ** 2, 0.0)
    hp = np.where(1.0 - s > 1e-12, h / np.maximum(1.0 - s, 1e-12) ** 2, 0.0)
    return (gp * h + g * hp) / (g + h) ** 2


def concatenate(first: HamiltonianGerm, second: HamiltonianGerm) -> HamiltonianGerm:
    """Unit-time germ whose flow is phi_second composed with phi_first.

    Each piece runs through the flat reparametrization sigma, so the result
    is smooth in t and vanishes near t in {0, 1/2, 1}.
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")

    def wrap(f1, f2):
        def wrapped(t, z):
            if t < 0.5:
                s = 2.0 * t
                return 2.0 * float(_sigma_prime(s)) * f1(float(_sigma(s)), z)
            s = 2.0 * t - 1.0
            return 2.0 * float(_sigma_prime(s)) * f2(float(_sigma(s)), z)

        return wrapped

    return HamiltonianGerm(
        n=first.n,
        value=wrap(first.value, second.value),
        grad=wrap(first.grad, second.grad),
        hess=wrap(first.hess, second.hess),
        name=f"{first.name}#{second.name}",
        autonomous=False,
    )


def orbit_action(germ: HamiltonianGerm, point: np.ndarray) -> float:
    """Action of the closed orbit through a fixed point of the time-1 map."""
    dim = 2 * germ.n
    jvf = vectorfield_j(germ.n)
    z0 = np.asarray(point, dtype=float)
    y0 = np.concatenate([z0, [0.0]])

    def rhs(t, y):
        z = y[:dim].reshape(1, dim)
        g = germ.grad(t, z)
        dz = (g @ jvf.T)[0]
        # integrand H - y . x', with x' the H_y block of the field
        da = float(germ.value(t, z)[0]) - float(np.dot(z[0, germ.n :], dz[: germ.n]))
        return np.concatenate([dz, [da]])

    sol = _solve(rhs, y0)
    final = sol.y[:, -1]
    drift = float(np.linalg.norm(final[:dim] - z0))
    if drift > CLOSURE_TOL:
        raise NotClosed(f"orbit endpoint differs from start by {drift:.3e}")
    return float(final[dim])


@dataclass(frozen=True)
class FixedPointRecord:
    """A fixed point of the time-1 map with its orbit invariants."""

    point: np.ndarray
    action: float
    path: SymplecticPath
    endpoint: SymplecticMatrix
    mean_index: float
    conley_zehnder: Optional[int]
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "point": [float(v) for v in self.point],
            "action": self.action,
            "mean_index": self.mean_index,
            "conley_zehnder": self.conley_zehnder,
            "degenerate": self.degenerate,
            "monodromy": self.endpoint.to_json(),
        }


def fixed_point_record(germ: HamiltonianGerm, point: np.ndarray) -> FixedPointRecord:
    path = monodromy(germ, point)
    report = index_report(path)
    return FixedPointRecord(
        point=np.asarray(point, dtype=float),
        action=orbit_action(germ, point),
        path=path,
        endpoint=path.endpoint(),
        mean_index=report.mean_index,
        conley_zehnder=report.conley_zehnder,
        degenerate=report.degenerate,
    )


def _newton_search(
    value_and_jac: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    seeds: np.ndarray,
    newton_tol: float,
    max_iter: int,
    escape: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched Newton iteration on f(z) - z, with value_and_jac(z) = (f(z), Df(z)).

    A seed retires at residual <= newton_tol, or when its step is not finite
    or leaves the ball of radius escape (that step is not taken).  Seeds
    still moving after max_iter steps are evaluated once more.  Returns the
    points and each one's residual at its last evaluation.
    """
    z = np.array(seeds, dtype=float)
    eye = np.eye(z.shape[1])
    rnorm = np.full(len(z), np.inf)
    active = np.ones(len(z), dtype=bool)
    for _ in range(max_iter):
        idx = np.nonzero(active)[0]
        if len(idx) == 0:
            break
        img, jac = value_and_jac(z[idx])
        res = img - z[idx]
        rnorm[idx] = np.linalg.norm(res, axis=1)
        moving = rnorm[idx] > newton_tol
        active[idx[~moving]] = False
        if not np.any(moving):
            break
        idx = idx[moving]
        # pinv tolerates the singular Jacobians of resonant iterates
        step = (np.linalg.pinv(jac[moving] - eye) @ res[moving][..., None])[..., 0]
        znew = z[idx] - step
        diverged = (
            ~np.all(np.isfinite(znew), axis=1)
            | (np.linalg.norm(znew, axis=1) > escape)
        )
        z[idx[~diverged]] = znew[~diverged]
        active[idx[diverged]] = False
    if np.any(active):
        rnorm[active] = np.linalg.norm(value_and_jac(z[active])[0] - z[active], axis=1)
    return z, rnorm


def _distinct(points: np.ndarray, tol: float) -> np.ndarray:
    """Points ordered by (norm, coordinates), less those within Euclidean
    distance tol of a point kept before them: each cluster keeps its
    least-norm point."""
    keep: List[np.ndarray] = []
    for p in sorted(points, key=lambda q: (float(np.linalg.norm(q)), tuple(q))):
        if all(np.linalg.norm(p - q) > tol for q in keep):
            keep.append(p)
    return np.array(keep).reshape(-1, points.shape[1])


def find_fixed_points(
    germ: HamiltonianGerm,
    radius: float,
    seeds_per_axis: int = 9,
    newton_tol: float = 1e-11,
) -> List[FixedPointRecord]:
    """Newton search for fixed points of the time-1 map inside a box.

    Seeds a uniform grid on [-radius, radius]^{2n}, runs a damped-free Newton
    iteration on phi(z) - z, deduplicates points converged within 1.5 * radius,
    and returns full records.  Raises NonIsolated when converged points
    accumulate: either two distinct points closer than 100 * newton_tol, or
    more points than half the seed count, which signals a positive-dimensional
    fixed set.
    """
    grid = Box(center=(0.0,) * (2 * germ.n), radius=radius).nodes(seeds_per_axis)
    z, rnorm = _newton_search(
        lambda pts: flow_jacobians(germ, pts), grid, newton_tol, NEWTON_MAX_ITER, 3.0 * radius
    )
    converged = z[(rnorm <= newton_tol) & (np.linalg.norm(z, axis=1) <= 1.5 * radius)]

    points = _distinct(converged, max(10.0 * newton_tol, 1e-9))
    for i, p in enumerate(points):
        for q in points[i + 1 :]:
            if np.linalg.norm(p - q) < 100.0 * newton_tol:
                raise NonIsolated(
                    f"fixed points {p} and {q} within 100 * newton_tol"
                )
    if len(points) > len(grid) // 2:
        raise NonIsolated(
            f"{len(points)} distinct fixed points from {len(grid)} seeds; "
            "fixed set appears positive-dimensional"
        )
    return [fixed_point_record(germ, p) for p in points]


@dataclass(frozen=True)
class GapTable:
    """Pairwise action and index gaps of the k-th iterate."""

    order: int
    rows: tuple

    @property
    def min_gamma(self) -> Optional[float]:
        return min((r["gamma"] for r in self.rows), default=None)

    def to_json(self) -> dict:
        return {"order": self.order, "rows": list(self.rows), "min_gamma": self.min_gamma}


def gap_table(records: Sequence[FixedPointRecord], k: int) -> GapTable:
    """Gaps k |A_i - A_j| and k |Delta_i - Delta_j| for all pairs i < j.

    Requires k admissible for every record monodromy."""
    for rec in records:
        if not admissible(rec.endpoint, k):
            raise NotAdmissible(f"order {k} not admissible at {rec.point}")
    rows = []
    for i in range(len(records)):
        for j in range(i + 1, len(records)):
            da = k * abs(records[i].action - records[j].action)
            di = k * abs(records[i].mean_index - records[j].mean_index)
            rows.append(
                {
                    "pair": [i, j],
                    "action_gap": da,
                    "index_gap": di,
                    "gamma": da + di,
                }
            )
    return GapTable(order=k, rows=tuple(rows))
