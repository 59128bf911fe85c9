"""Hamiltonian germs near a fixed point of R^{2n} and their flows.

A germ packages callbacks for H, for grad H, and for the jet (grad H,
Hess H), all vectorized over a batch of points of shape (N, 2n).
Coordinates are z = (x, y); the flow solves z' = X_H(t, z) with
X_H = (H_y, -H_x), and linearizations solve the variational equation
M' = J_vf Hess_H M alongside, reading both derivatives from one call of the
jet per right-hand side.  Value-only flows call grad alone.

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

import gc
import math
from dataclasses import dataclass, field
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
    and jet the pair (grad, Hess) of shapes (N, 2n) and (N, 2n, 2n) from one
    call, so terms the two share are computed once.  The time argument is a
    scalar.  jet's first half equals grad bit for bit; ``hess``, its second
    half, is derived and kept for callers that want the Hessian alone."""

    n: int
    value: Callable[[float, np.ndarray], np.ndarray]
    grad: Callable[[float, np.ndarray], np.ndarray]
    jet: Callable[[float, np.ndarray], Tuple[np.ndarray, np.ndarray]]
    name: str = ""
    # set for germs built as direct sums; consumers may split along it
    factors: Optional[tuple] = None
    hess: Callable[[float, np.ndarray], np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        jet = self.jet
        self.hess = lambda t, z: jet(t, z)[1]


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
    # the integrator refers to itself through its right-hand side wrapper;
    # collect it now, or its stage arrays live until the cyclic collector
    # next runs and peak memory follows that timing
    gc.collect(0)
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol


def _variational_flow(germ: HamiltonianGerm, z0: np.ndarray, dense: bool):
    """Time-1 flow of a batch z0 of shape (N, 2n) with its variational
    equation M' = J_vf Hess_H M from M = I; one call of ``germ.jet`` per
    right-hand side.

    The state is component-major, a (2n + 4n^2, N) array flattened: row c
    holds component c of every point, first z_0 .. z_{2n-1} and then the
    entries of M row by row, so every product below runs along contiguous
    rows of length N.  For N = 1 it is the single vector (z, M)."""
    jvf = vectorfield_j(germ.n)
    dim = 2 * germ.n
    nbatch = len(z0)
    per = dim + dim * dim
    y0 = np.zeros((per, nbatch))
    y0[:dim] = z0.T
    y0[dim:] = np.eye(dim).reshape(-1, 1)
    # Hess_H M, component-major, rewritten by every call
    hm = np.empty((dim, dim * nbatch))

    def rhs(t, y):
        state = y.reshape(per, nbatch)
        z = state[:dim].T
        m = state[dim:].reshape(dim, dim, nbatch)
        out = np.empty_like(state)
        grad, hess = germ.jet(t, z)
        # J_vf is a signed permutation: both products by it copy rows exactly
        np.matmul(jvf, grad.T, out=out[:dim])
        if nbatch == 1:
            # one point: a single matrix product sets up faster than einsum
            np.matmul(hess[0], m[..., 0], out=hm)
        else:
            hess = np.ascontiguousarray(hess.transpose(1, 2, 0))
            np.einsum("ikn,kjn->ijn", hess, m, out=hm.reshape(dim, dim, nbatch))
        np.matmul(jvf, hm, out=out[dim:].reshape(dim, -1))
        return out.reshape(-1)

    return _solve(rhs, y0.reshape(-1), dense)


def flow_points(germ: HamiltonianGerm, points: np.ndarray) -> np.ndarray:
    """Time-1 flow of a batch of shape (N, 2n), values only: the first 2n rows
    of the state of ``_variational_flow``, so only ``grad`` is called."""
    jvf, z0 = vectorfield_j(germ.n), np.atleast_2d(np.asarray(points, dtype=float))
    shape = z0.T.shape
    sol = _solve(lambda t, y: (jvf @ germ.grad(t, y.reshape(shape).T).T).ravel(), z0.T.ravel())
    return sol.y[:, -1].reshape(shape).T


def flow_jacobians(germ: HamiltonianGerm, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flow and its space derivative for a batch: (phi(z), Dphi(z))."""
    dim = 2 * germ.n
    z0 = np.atleast_2d(np.asarray(points, dtype=float))
    sol = _variational_flow(germ, z0, dense=False)
    final = sol.y[:, -1].reshape(dim + dim * dim, len(z0))
    phi = final[:dim].T
    jac = final[dim:].reshape(dim, dim, len(z0)).transpose(2, 0, 1)
    if np.asarray(points).ndim == 2:
        return phi, jac
    return phi[0], jac[0]


def monodromy(germ: HamiltonianGerm, point: Optional[np.ndarray] = None) -> SymplecticPath:
    """Linearized flow along the trajectory of a point, as a path in Sp(2n).

    The dense output of a one-point flow is the vector (z, M), so its rows
    from 2n on are the entries of M row by row."""
    dim = 2 * germ.n
    z0 = np.zeros(dim) if point is None else np.asarray(point, dtype=float)
    sol = _variational_flow(germ, z0.reshape(1, dim), dense=True)

    def ev(ts: np.ndarray) -> np.ndarray:
        return sol.sol(np.clip(ts, 0.0, 1.0))[dim:].T.reshape(-1, dim, dim)

    return SymplecticPath(germ.n, 1.0, ev)


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
        jet=shift(germ.jet),
        name=f"{germ.name}@shifted" if germ.name else "",
    )


def _reparam(t: float) -> Tuple[int, float, float]:
    """Piece (0 or 1) of a concatenation at time t, with sigma(s) and
    2 sigma'(s) at s = 2 t - piece.

    sigma(s) = g(s) / (g(s) + g(1 - s)) with g(s) = exp(-1/s), so sigma'
    is flat to infinite order at both endpoints.  Plain floats: the flow
    calls this once per right-hand side.
    """
    piece = 0 if t < 0.5 else 1
    s = min(max(2.0 * t - piece, 0.0), 1.0)
    r = 1.0 - s
    g = math.exp(-1.0 / s) if s > 1e-12 else 0.0
    h = math.exp(-1.0 / r) if r > 1e-12 else 0.0
    # g'(s) = g(s) / s^2
    gp = g / (s * s) if s > 1e-12 else 0.0
    hp = h / (r * r) if r > 1e-12 else 0.0
    return piece, g / (g + h), 2.0 * (gp * h + g * hp) / (g + h) ** 2


def concatenate(first: HamiltonianGerm, second: HamiltonianGerm) -> HamiltonianGerm:
    """Unit-time germ whose flow is phi_second composed with phi_first.

    Each piece runs through the flat reparametrization sigma, so the result
    is smooth in t and vanishes near t in {0, 1/2, 1}.
    """
    if first.n != second.n:
        raise ValueError("dimension mismatch")

    def wrap(f1, f2):
        def wrapped(t, z):
            piece, sig, dsig = _reparam(t)
            return dsig * (f2 if piece else f1)(sig, z)

        return wrapped

    jets = (first.jet, second.jet)

    def jet(t, z):
        piece, sig, dsig = _reparam(t)
        grad, hess = jets[piece](sig, z)
        return dsig * grad, dsig * hess

    return HamiltonianGerm(
        n=first.n,
        value=wrap(first.value, second.value),
        grad=wrap(first.grad, second.grad),
        jet=jet,
        name=f"{first.name}#{second.name}",
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
    endpoint: SymplecticMatrix
    mean_index: float
    conley_zehnder: Optional[int]
    degenerate: bool

    def to_json(self) -> dict:
        return {
            "point": self.point,
            "action": self.action,
            "mean_index": self.mean_index,
            "conley_zehnder": self.conley_zehnder,
            "degenerate": self.degenerate,
            "monodromy": self.endpoint,
        }


def fixed_point_record(germ: HamiltonianGerm, point: np.ndarray) -> FixedPointRecord:
    path = monodromy(germ, point)
    report = index_report(path)
    return FixedPointRecord(
        point=np.asarray(point, dtype=float),
        action=orbit_action(germ, point),
        endpoint=path.endpoint(),
        mean_index=report.mean_index,
        conley_zehnder=report.conley_zehnder,
        degenerate=report.degenerate,
    )


def _seed_orbit(
    value_and_jac: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    seeds: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes z_i = f^i(seed), i < k, of every seed's orbit with their
    images f(z_i) and Jacobians Df(z_i), from k calls of value_and_jac(z) =
    (f(z), Df(z)), one per node.  Shapes (N, k, 2n), (N, k, 2n) and
    (N, k, 2n, 2n); the first j nodes are the start of the order-j search,
    so one orbit serves every order up to k."""
    seeds = np.asarray(seeds, dtype=float)
    nseeds, dim = seeds.shape
    z = np.empty((nseeds, k, dim))
    img = np.empty_like(z)
    jac = np.empty((nseeds, k, dim, dim))
    z[:, 0] = seeds
    for i in range(k):
        img[:, i], jac[:, i] = value_and_jac(z[:, i])
        if i + 1 < k:
            z[:, i + 1] = img[:, i]
    return z, img, jac


def _newton_search(
    f: Callable[[np.ndarray], np.ndarray],
    value_and_jac: Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]],
    start: Tuple[np.ndarray, np.ndarray, np.ndarray],
    newton_tol: float,
    max_iter: int,
    escape: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched multiple-shooting Newton search for k-periodic points of f,
    with value_and_jac(z) = (f(z), Df(z)).

    The unknowns of a seed are the nodes z_0 .. z_{k-1} of its cycle and the
    residual is the stack of defects F_i = f(z_i) - z_{i+1 mod k}.  The
    Newton matrix is block-cyclic, Df(z_i) on the diagonal and -I at block
    (i, i+1 mod k).  ``start`` holds the nodes, images and Jacobians of the
    first k points of each seed's orbit (``_seed_orbit``; k is its second
    axis): they give the first step, which is the Newton step on
    f^k(z) - z wherever Df^k(seed) - I is invertible.  Every later step is
    one call of value_and_jac on the nodes of all active seeds.  At k = 1
    this is Newton's method on f(z) - z.

    A seed retires at residual (the norm of its stacked defects) <=
    newton_tol, or when its step makes a node non-finite or moves one out of
    the ball of radius escape (that step is not taken).  Seeds still moving
    after max_iter steps are evaluated once more, values only, by f.
    Returns each seed's z_0 and its residual at its last evaluation.
    """
    # copies: the search moves its nodes, and the caller's orbit may serve
    # other orders
    z, img, jac = (np.array(a, dtype=float) for a in start)
    nseeds, k, dim = z.shape
    eye = np.eye(dim)
    rnorm = np.full(nseeds, np.inf)
    active = np.ones(nseeds, dtype=bool)
    idx = np.arange(nseeds)
    for it in range(max_iter):
        if it > 0:
            idx = np.nonzero(active)[0]
            if len(idx) == 0:
                break
            img, jac = value_and_jac(z[idx].reshape(-1, dim))
            img = img.reshape(len(idx), k, dim)
            jac = jac.reshape(len(idx), k, dim, dim)
        res = (img - np.roll(z[idx], -1, axis=1)).reshape(len(idx), k * dim)
        rnorm[idx] = np.linalg.norm(res, axis=1)
        moving = rnorm[idx] > newton_tol
        active[idx[~moving]] = False
        if not np.any(moving):
            break
        idx = idx[moving]
        mat = np.zeros((len(idx), k, dim, k, dim))
        for i in range(k):
            mat[:, i, :, i, :] = jac[moving, i]
            mat[:, i, :, (i + 1) % k, :] -= eye
        # pinv tolerates the singular Jacobians of resonant iterates
        step = np.linalg.pinv(mat.reshape(len(idx), k * dim, k * dim)) @ res[moving][..., None]
        znew = z[idx] - step.reshape(len(idx), k, dim)
        diverged = (
            ~np.all(np.isfinite(znew), axis=(1, 2))
            | np.any(np.linalg.norm(znew, axis=2) > escape, axis=1)
        )
        z[idx[~diverged]] = znew[~diverged]
        active[idx[diverged]] = False
    if np.any(active):
        last = z[active]
        img = f(last.reshape(-1, dim)).reshape(last.shape)
        res = (img - np.roll(last, -1, axis=1)).reshape(len(last), -1)
        rnorm[active] = np.linalg.norm(res, axis=1)
    return z[:, 0], rnorm


def _distinct(points: np.ndarray, tol: float) -> np.ndarray:
    """Points ordered by (norm, coordinates), less those within Euclidean
    distance tol of a point kept before them: each cluster keeps its
    least-norm point.  Each candidate meets the kept points in one row.

    A row norm may round its last bit apart from the norm of one pair, so
    distances within a few ulps of tol are measured pair by pair: the
    decisions are those of a loop over pairs."""
    ranked = sorted(points, key=lambda q: (float(np.linalg.norm(q)), tuple(q)))
    keep = np.empty((len(ranked), points.shape[1]))
    count = 0
    for p in ranked:
        dist = np.linalg.norm(keep[:count] - p, axis=1)
        near = np.abs(dist - tol) <= 4.0 * np.spacing(tol)
        dist[near] = [np.linalg.norm(p - q) for q in keep[:count][near]]
        if np.all(dist > tol):
            keep[count] = p
            count += 1
    return keep[:count]


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

    def flow(pts):
        return flow_jacobians(germ, pts)

    z, rnorm = _newton_search(
        lambda pts: flow_points(germ, pts),
        flow,
        _seed_orbit(flow, grid, 1),
        newton_tol,
        NEWTON_MAX_ITER,
        3.0 * radius,
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
        return {"order": self.order, "rows": self.rows, "min_gamma": self.min_gamma}


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
