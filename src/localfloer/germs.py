"""Hamiltonian germs near a fixed point of R^{2n} and their flows.

A plain germ packages callbacks for H, for grad H, and for the jet (grad H,
Hess H), all vectorized over a batch of points of shape (N, 2n).
Coordinates are z = (x, y); the flow solves z' = X_H(t, z) with
X_H = (H_y, -H_x), and linearizations solve the variational equation
M' = J_vf Hess_H M alongside, reading both derivatives from one call of the
jet per right-hand side.  Value-only flows call grad alone.  Every flow
runs scipy's DOP853 algorithm in-house (``dop853.solve_ivp``), with scipy's
bits, at RTOL and ATOL.

Composite germs carry no callbacks and are flowed by their structure;
nested structure recurses.  A concatenation runs two unit-time germs back
to back through a reparametrization sigma whose derivative vanishes to
infinite order at the junction.  Its Hamiltonian 2 sigma'(s)
H_piece(sigma(s), z) is smooth and 1-periodic whenever the pieces vanish
at their time endpoints, and with tau = sigma(2 t - piece) it solves
dz/dtau = X_{H_piece}(tau, z) exactly.  So its flow composes its
``pieces``' unit-time flows, and no integration meets the high derivatives
of sigma near the junctions.  A direct sum H1(z1) + H2(z2), in the
coordinates of ``direct_sum_indices``, flows as its ``factors`` side by
side, with a block-diagonal linearization.

The action of a closed orbit t -> phi_t(z), z a fixed point of the time-1
map, is

    A = integral_0^1 ( H(t, z(t)) - y(t) . x'(t) ) dt,

integrated as an extra component of the same ODE system; along a
composite germ it is the sum of its pieces' or factors' actions.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .dop853 import solve_ivp
from .errors import NonIsolated, NotAdmissible, NotClosed, StepFailure
from .fields import Box
from .paths import SymplecticPath, index_report
from .symplectic import SymplecticMatrix, admissible, direct_sum_indices, vectorfield_j

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
# residual at which the fixed and periodic point searches stop, unless set
NEWTON_TOL = 1e-11
# right-hand sides one flow may take before it is refused; far out, the
# quartic's orbits turn like |z|^2 and a flow would step on for hours
RHS_BUDGET = 50_000


@dataclass
class HamiltonianGerm:
    """A plain germ sets all three callbacks, vectorized: z has shape
    (N, 2n); value (N,), grad (N, 2n), and jet the pair (grad, Hess) of
    shapes (N, 2n) and (N, 2n, 2n) from one call, so terms the two share are
    computed once.  The time argument is a scalar.  jet's first half equals
    grad bit for bit; ``hess``, its second half, is derived and kept for
    callers that want the Hessian alone.

    A composite germ sets ``pieces`` or ``factors`` and no callbacks; its
    flows run its structure.  A germ that sets only some callbacks, or none
    and no structure, cannot be flowed: ValueError; so is structure that is
    not two germs of the germ's n, or, for factors, of n adding up to it."""

    n: int
    value: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    grad: Optional[Callable[[float, np.ndarray], np.ndarray]] = None
    jet: Optional[Callable[[float, np.ndarray], Tuple[np.ndarray, np.ndarray]]] = None
    name: str = ""
    # set by corpus.direct_sum_germ (and kept by translate): (first, second)
    # in the coordinates of direct_sum_indices; flows run them side by side
    factors: Optional[tuple] = None
    # set by concatenate (and kept by translate): (first, second), whose
    # unit-time flows compose to this germ's flow; flows run them in turn
    pieces: Optional[tuple] = None
    hess: Optional[Callable[[float, np.ndarray], np.ndarray]] = field(init=False, repr=False)

    def __post_init__(self):
        given = [f is not None for f in (self.value, self.grad, self.jet)]
        if any(given) and not all(given):
            raise ValueError("a germ sets all of value, grad and jet, or none of them")
        if not any(given) and self.pieces is None and self.factors is None:
            raise ValueError("a germ without callbacks needs pieces or factors")
        if self.pieces is not None and [g.n for g in self.pieces] != [self.n, self.n]:
            raise ValueError(f"pieces must be two germs of n {self.n}")
        if self.factors is not None and (
            len(self.factors) != 2 or sum(g.n for g in self.factors) != self.n
        ):
            raise ValueError(f"factors must be two germs whose n add up to {self.n}")
        jet = self.jet
        self.hess = None if jet is None else lambda t, z: jet(t, z)[1]


def _solve(rhs, y0: np.ndarray, dense: bool = False):
    budget = iter(range(RHS_BUDGET))

    def budgeted(t, y):
        if next(budget, None) is None:
            raise StepFailure(f"flow unfinished after {RHS_BUDGET} right-hand sides")
        return rhs(t, y)

    # a NaN right-hand side makes the step size NaN and stalls the loop; an overflow only warns
    try:
        with np.errstate(invalid="raise", over="raise"):
            sol = solve_ivp(budgeted, (0.0, 1.0), y0, rtol=RTOL, atol=ATOL, dense_output=dense)
        failure = None if sol.success else f"integrator failed: {sol.message}"
    except FloatingPointError as exc:
        failure = f"non-finite right-hand side: {exc}"
    except StepFailure as exc:
        failure = str(exc)
    # a refusal keeps only its message: a caught exception's traceback
    # holds the integrator's frames and their stage arrays
    if failure is not None:
        raise StepFailure(failure)
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


def _factor_indices(germ: HamiltonianGerm):
    """Each factor of a direct sum with the indices of its coordinates."""
    first, second = germ.factors
    return zip(germ.factors, direct_sum_indices(first.n, second.n))


def flow_points(germ: HamiltonianGerm, points: np.ndarray) -> np.ndarray:
    """Time-1 flow of a batch of shape (N, 2n), values only: the first 2n rows
    of the state of ``_variational_flow``, so only ``grad`` is called."""
    z0 = np.atleast_2d(np.asarray(points, dtype=float))
    if germ.pieces is not None:
        for piece in germ.pieces:
            z0 = flow_points(piece, z0)
        return z0
    if germ.factors is not None:
        out = np.empty_like(z0)
        for factor, idx in _factor_indices(germ):
            out[:, idx] = flow_points(factor, z0[:, idx])
        return out
    jvf, shape = vectorfield_j(germ.n), z0.T.shape
    sol = _solve(lambda t, y: (jvf @ germ.grad(t, y.reshape(shape).T).T).ravel(), z0.T.ravel())
    return sol.y[:, -1].reshape(shape).T


def _flow_jacobians(germ: HamiltonianGerm, z0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(phi(z0), Dphi(z0)) of a batch z0 of shape (N, 2n); the Jacobian of a
    germ with pieces is the product of theirs, the last piece's first, and
    that of a direct sum is block diagonal, with its factors' blocks."""
    dim = 2 * germ.n
    if germ.pieces is not None:
        first, second = germ.pieces
        mid, d1 = _flow_jacobians(first, z0)
        end, d2 = _flow_jacobians(second, mid)
        return end, d2 @ d1
    if germ.factors is not None:
        end, jac = np.empty_like(z0), np.zeros((len(z0), dim, dim))
        for factor, idx in _factor_indices(germ):
            end[:, idx], jac[:, idx[:, None], idx] = _flow_jacobians(factor, z0[:, idx])
        return end, jac
    sol = _variational_flow(germ, z0, dense=False)
    final = sol.y[:, -1].reshape(dim + dim * dim, len(z0))
    return final[:dim].T, final[dim:].reshape(dim, dim, len(z0)).transpose(2, 0, 1)


def flow_jacobians(germ: HamiltonianGerm, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flow and its space derivative for a batch: (phi(z), Dphi(z))."""
    phi, jac = _flow_jacobians(germ, np.atleast_2d(np.asarray(points, dtype=float)))
    if np.asarray(points).ndim == 2:
        return phi, jac
    return phi[0], jac[0]


def _linearized_path(
    germ: HamiltonianGerm, z0: np.ndarray
) -> Tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]:
    """The linearized flow along the orbit of one point z0, as a function of
    an array of times in [0, 1], and the orbit's end point at time 1.

    The dense output of a one-point flow is the vector (z, M), so its rows
    from 2n on are the entries of M row by row.  Along a germ with pieces the
    path is the first piece's at sigma(2 t) for t < 1/2, and after that the
    second piece's at sigma(2 t - 1) times the first piece's endpoint: the
    time change under which the concatenated flow is theirs.  Along a direct
    sum it is block diagonal, with the factors' paths as blocks."""
    dim = len(z0)
    if germ.factors is not None:
        parts, end = [], np.empty(dim)
        for factor, idx in _factor_indices(germ):
            part, end[idx] = _linearized_path(factor, z0[idx])
            parts.append((part, idx))

        def blocks(ts: np.ndarray) -> np.ndarray:
            out = np.zeros((len(ts), dim, dim))
            for part, idx in parts:
                out[:, idx[:, None], idx] = part(ts)
            return out

        return blocks, end
    if germ.pieces is None:
        sol = _variational_flow(germ, z0.reshape(1, dim), dense=True)
        return (lambda ts: sol.sol(ts)[dim:].T.reshape(-1, dim, dim)), sol.y[:dim, -1]
    first, second = germ.pieces
    ev1, mid = _linearized_path(first, z0)
    ev2, end = _linearized_path(second, mid)
    e1 = ev1(np.ones(1))

    def ev(ts: np.ndarray) -> np.ndarray:
        out = np.empty((len(ts), dim, dim))
        lo = ts < 0.5
        out[lo] = ev1(_sigma(2.0 * ts[lo]))
        out[~lo] = ev2(_sigma(2.0 * ts[~lo] - 1.0)) @ e1
        return out

    return ev, end


def monodromy(germ: HamiltonianGerm, point: Optional[np.ndarray] = None) -> SymplecticPath:
    """Linearized flow along the trajectory of a point, as a path in Sp(2n)."""
    dim = 2 * germ.n
    z0 = np.zeros(dim) if point is None else np.asarray(point, dtype=float)
    ev, _ = _linearized_path(germ, z0)
    return SymplecticPath(germ.n, 1.0, lambda ts: ev(np.clip(ts, 0.0, 1.0)))


def translate(germ: HamiltonianGerm, point: np.ndarray) -> HamiltonianGerm:
    """Germ seen from a shifted origin: H'(t, z) = H(t, z + point).

    The time-1 map becomes z -> phi(z + point) - point, so a fixed point of
    phi at `point` sits at the origin of the translated germ.  A composite
    germ translates its structure: phi_2(phi_1(z + p)) - p composes the
    translated pieces' flows, and a direct sum shifts each factor by its
    own coordinates of p.
    """
    name = f"{germ.name}@shifted" if germ.name else ""
    if germ.pieces is not None:
        return HamiltonianGerm(
            n=germ.n, name=name, pieces=tuple(translate(g, point) for g in germ.pieces)
        )
    if germ.factors is not None:
        point = np.asarray(point, dtype=float)
        factors = tuple(translate(g, point[idx]) for g, idx in _factor_indices(germ))
        return HamiltonianGerm(n=germ.n, name=name, factors=factors)
    p = np.asarray(point, dtype=float).reshape(1, -1)

    def shift(f):
        return lambda t, z: f(t, z + p)

    return HamiltonianGerm(
        n=germ.n, value=shift(germ.value), grad=shift(germ.grad), jet=shift(germ.jet), name=name
    )


def _sigma(s: np.ndarray) -> np.ndarray:
    """The flat reparametrization sigma(s) = g(s) / (g(s) + g(1 - s)) of a
    concatenation, with g(s) = exp(-1/s), on an array of s in [0, 1]; its
    derivative vanishes to infinite order at both ends."""
    with np.errstate(divide="ignore"):
        g, h = np.exp(-1.0 / s), np.exp(-1.0 / (1.0 - s))
    return g / (g + h)


def concatenate(first: HamiltonianGerm, second: HamiltonianGerm) -> HamiltonianGerm:
    """Unit-time germ whose flow is phi_second composed with phi_first.

    Each piece runs through the flat reparametrization sigma (module
    docstring).  The germ is ``pieces=(first, second)`` and carries no
    callbacks: its flows run the two pieces in turn.
    """
    return HamiltonianGerm(n=first.n, name=f"{first.name}#{second.name}", pieces=(first, second))


def _segment_action(germ: HamiltonianGerm, z0: np.ndarray) -> Tuple[np.ndarray, float]:
    """End point of the unit-time orbit segment from z0, and the integral of
    H - y . x' along it; a germ with pieces adds up its pieces' segments,
    and a direct sum its factors' segments."""
    if germ.pieces is not None:
        action = 0.0
        for piece in germ.pieces:
            z0, part = _segment_action(piece, z0)
            action += part
        return z0, action
    if germ.factors is not None:
        end, action = np.empty_like(z0), 0.0
        for factor, idx in _factor_indices(germ):
            end[idx], part = _segment_action(factor, z0[idx])
            action += part
        return end, action
    dim = 2 * germ.n
    jvf = vectorfield_j(germ.n)
    y0 = np.concatenate([z0, [0.0]])

    def rhs(t, y):
        z = y[:dim].reshape(1, dim)
        g = germ.grad(t, z)
        dz = (g @ jvf.T)[0]
        # integrand H - y . x', with x' the H_y block of the field
        da = float(germ.value(t, z)[0]) - float(np.dot(z[0, germ.n :], dz[: germ.n]))
        return np.concatenate([dz, [da]])

    final = _solve(rhs, y0).y[:, -1]
    return final[:dim], float(final[dim])


def orbit_action(germ: HamiltonianGerm, point: np.ndarray) -> float:
    """Action of the closed orbit through a fixed point of the time-1 map."""
    z0 = np.asarray(point, dtype=float)
    end, action = _segment_action(germ, z0)
    drift = float(np.linalg.norm(end - z0))
    if drift > CLOSURE_TOL:
        raise NotClosed(f"orbit endpoint differs from start by {drift:.3e}")
    return action


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
    newton_tol: float = NEWTON_TOL,
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
