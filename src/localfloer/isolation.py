"""Quantitative persistence of isolation for iterated germ maps.

Three tools: the discrete Wirtinger-type constant c(k) relating the L1 norm
of a zero-mean cyclic sequence to that of its difference sequence, in
closed form; a grid-seeded multiple-shooting Newton search for j-periodic
points in shrinking balls, for every order j up to k in one call, the
orders sharing one flow of each object that does not depend on j (the
origin's linearization, the seeds' orbit and the probe rings' orbit); and a contraction certificate in the style of the Yorke
period bound, where a C1 bound on phi - id rules out non-fixed k-periodic
orbits.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import LinearizationNotIdentity, NewtonDivergence
from .fields import Box
from .genfun import GermMap, _opnorms
from .germs import NEWTON_MAX_ITER, _distinct, _newton_search, _seed_orbit
from .symplectic import SymplecticMatrix, admissible, split_spectral, validate_symplectic

__all__ = [
    "c_constant_exact",
    "periodic_point_search",
    "SearchReport",
    "contraction_check",
    "splitting_ratio_report",
]

# contraction_check: grid resolution of the C1 norm, largest |dphi(0) - id|
CONTRACTION_RESOLUTION = 33
ID_TOL = 1e-8
# splitting_ratio_report: sample points in W
SPLIT_SAMPLES = 8


# ----------------------------------------------------------- discrete norms


def c_constant_exact(k: int) -> Fraction:
    """max ||xi||_L1 over zero-mean xi with ||xi-dot||_L1 <= 1, exact.

    The feasible set maps bijectively (via cyclic summation on the zero-mean
    slice) to the zero-sum L1 ball in the difference variable, whose
    vertices are (e_i - e_j)/2.  A convex function attains its maximum at a
    vertex; the vertex with j - i = h (cyclically) gives the orbit that is
    1/2 on h consecutive positions, of norm h (k - h) / k, maximal at
    h = floor(k / 2), in any dimension (the L1 norms decouple by coordinate).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return Fraction((k // 2) * ((k + 1) // 2), k)


# ------------------------------------------------------------ point search


@dataclass(frozen=True)
class SearchReport:
    k: int
    admissible: bool
    radii: Tuple[float, ...]
    per_radius: Tuple[dict, ...]
    witnesses: Tuple[dict, ...]
    origin_resolution: float
    conclusion: str


def periodic_point_search(
    phi: GermMap,
    k: int,
    radii: Sequence[float],
    seeds_per_axis: int = 17,
    newton_tol: float = 1e-11,
    first: int = 1,
) -> Tuple[SearchReport, ...]:
    """Newton-from-grid search for fixed points of phi^j in shrinking balls,
    for every order j = first .. k: one report per order, in that order.

    Every finding is reported; isolation holds exactly when the smallest
    radius contains only the origin.  Points of phi^j that move under phi
    itself are listed as non-fixed j-periodic witnesses.

    All radii share one Newton batch per order: the scaled seed grids of
    every radius are stacked into one ``_newton_search`` (same tolerance,
    iteration cap and escape ball 3 * max(radii)) and its points sliced back
    per radius.  That search shoots the whole j-cycle z_0 -> z_1 -> ... ->
    z_0 on phi itself, and every Newton step is one call of phi on the j
    nodes of every active seed, however many radii there are.  A residual
    is the norm of a seed's stacked defects phi(z_i) - z_{i+1 mod j}.

    The orders share what does not depend on j, each computed once: the
    origin's linearization (``phi.origin_jacobian``); the seeds' orbit
    under phi, k calls that place the nodes of every order (order j starts
    from its first j); and the orbit of the two origin probe rings, k
    value-only calls, of which order j reads the j-th image.  Each order
    runs its own Newton loop and its own value-only call of phi on its
    witness candidates, and no order below ``first`` is searched, so the
    report of order j is the same whatever k and ``first`` are.

    Degenerate maps stall the residual early: when the displacement of
    phi^j vanishes to order d at 0, points inside r (tol / D(r))^(1/d)
    cannot be told apart from the origin at the achievable residual and
    are attributed to it in the conclusion (the raw findings keep them).
    """
    radii = sorted(set(float(r) for r in radii), reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if not 1 <= first <= k:
        raise ValueError("first order must be in 1 .. k")
    d = 2 * phi.n
    lin = validate_symplectic(phi.origin_jacobian)

    grid = Box(center=(0.0,) * d, radius=1.0).nodes(seeds_per_axis)
    grid = grid[np.linalg.norm(grid, axis=1) <= 1.0 + 1e-12]
    seeds = np.concatenate([radius * grid for radius in radii])
    orbit = _seed_orbit(phi.value_and_jac, seeds, k)

    r_min = radii[-1]
    dirs = np.concatenate([np.eye(d), -np.eye(d)])
    rings = [np.concatenate([r_min * dirs, 0.5 * r_min * dirs])]
    for _ in range(k):
        rings.append(phi(rings[-1]))

    dedup_tol = max(10.0 * newton_tol, 1e-9)
    ok_tol = 10.0 * newton_tol
    reports = []
    for j in range(first, k + 1):
        z, rnorm = _newton_search(
            phi,
            phi.value_and_jac,
            tuple(a[:, :j] for a in orbit),
            newton_tol,
            NEWTON_MAX_ITER,
            3.0 * radii[0],
        )
        per_radius = _per_radius(radii, z, rnorm, ok_tol, dedup_tol)
        origin_tol = _origin_resolution(rings[j] - rings[0], r_min, ok_tol, dedup_tol)
        smallest = per_radius[-1]
        only_origin = (
            len(smallest["points"]) >= 1
            and all(nrm <= origin_tol for nrm in smallest["norms"])
        )
        conclusion = "ISOLATION_HOLDS" if only_origin else "ISOLATION_FAILS"
        if len(smallest["points"]) == 0:
            # the origin itself must always be found; losing it means the seeds
            # all diverged, which deserves a loud answer rather than a pass
            conclusion = "SEARCH_INCONCLUSIVE"
        reports.append(
            SearchReport(
                k=j,
                admissible=admissible(lin, j),
                radii=tuple(radii),
                per_radius=tuple(per_radius),
                witnesses=_witnesses(phi, per_radius, origin_tol, newton_tol),
                origin_resolution=float(origin_tol),
                conclusion=conclusion,
            )
        )
    return tuple(reports)


def _witnesses(
    phi: GermMap, per_radius: List[dict], origin_tol: float, newton_tol: float
) -> Tuple[dict, ...]:
    """The points found off the origin that phi itself moves, checked by one
    value-only call of phi (none when every point is at the origin)."""
    outside = [
        (entries["radius"], p)
        for entries in per_radius
        for p, nrm in zip(entries["points"], entries["norms"])
        if nrm > origin_tol
    ]
    if not outside:
        return ()
    pts = np.array([p for _, p in outside])
    moves = np.linalg.norm(phi(pts) - pts, axis=1)
    return tuple(
        {"radius": radius, "point": list(p), "step_displacement": float(mv)}
        for (radius, p), mv in zip(outside, moves)
        if mv > 100.0 * newton_tol
    )


def _per_radius(
    radii: List[float], z: np.ndarray, rnorm: np.ndarray, ok_tol: float, dedup_tol: float
) -> List[dict]:
    """The distinct converged points inside each radius, from the search
    points of the stacked seed grids (one grid per radius, in order)."""
    per_radius = []
    for radius, zr, rr in zip(radii, np.split(z, len(radii)), np.split(rnorm, len(radii))):
        ok = rr <= ok_tol
        inside = np.linalg.norm(zr, axis=1) <= radius * (1.0 + 1e-9)
        found = _distinct(zr[ok & inside], dedup_tol)
        snapped = np.where(np.abs(found) <= dedup_tol, 0.0, found)
        per_radius.append(
            {
                "radius": radius,
                "points": [[float(v) for v in p] for p in snapped],
                "norms": [float(np.linalg.norm(p)) for p in snapped],
            }
        )
    return per_radius


def _origin_resolution(
    displacement: np.ndarray, r_min: float, ok_tol: float, dedup_tol: float
) -> float:
    """Radius within which a converged point is attributed to the origin,
    from the displacement of the probe rings at r_min and r_min / 2 (the
    first and second halves of the rows)."""
    moved = np.linalg.norm(displacement, axis=1)
    half = len(moved) // 2
    d1, d2 = float(np.max(moved[:half])), float(np.max(moved[half:]))
    if d1 <= ok_tol:
        origin_tol = 0.0  # displacement below tolerance everywhere: no resolution at all
    else:
        order = min(max(np.log2(d1 / max(d2, 1e-300)), 1.0), 6.0)
        origin_tol = min(3.0 * r_min * (ok_tol / d1) ** (1.0 / order), 0.5 * r_min)
    return max(origin_tol, dedup_tol)


# --------------------------------------------------------- contraction test


def contraction_check(phi: GermMap, k: int, box: Box, return_details: bool = False):
    """Certificate that every k-periodic orbit in the box is a fixed point.

    Requires dphi(0) = id; measures the C1 norm of phi - id on the box grid
    and compares against 1/c(k).  True certifies; False makes no claim.
    """
    d = 2 * phi.n
    lin = phi.origin_jacobian
    defect = float(np.max(np.abs(lin - np.eye(d))))
    if defect > ID_TOL:
        raise LinearizationNotIdentity(
            f"dphi(0) differs from the identity by {defect:.3e}"
        )
    nodes = box.nodes(CONTRACTION_RESOLUTION)
    inside = np.linalg.norm(nodes - np.asarray(box.center), axis=1) <= box.radius + 1e-12
    nodes = nodes[inside]
    img, jacs = phi.value_and_jac(nodes)
    lip = float(np.max(_opnorms(jacs - np.eye(d))))
    sup = float(np.max(np.linalg.norm(img - nodes, axis=1)))
    measured = max(lip, sup / max(box.radius, 1e-300))
    threshold = 1.0 / float(c_constant_exact(k))
    ok = bool(measured < threshold)
    if return_details:
        return ok, {
            "c1_norm": measured,
            "lipschitz": lip,
            "sup_norm": sup,
            "threshold": threshold,
            "k": k,
        }
    return ok


# ------------------------------------------------------- splitting ratios


def splitting_ratio_report(
    phi: GermMap,
    k: int = 1,
    radius: float = 0.05,
    newton_tol: float = 1e-11,
) -> dict:
    """Empirical Lipschitz ratio of the nondegenerate-direction graph.

    Splits the linearization with split_spectral into the eigenvalue-1
    generalized eigenspace W and its complement V (SplitFailed when an
    eigenvalue is too near 1 to place).  For w sampled on a closed curve of
    radius ``radius`` through every direction of W, solves the V-component
    fixed point equation P_V(phi^k(v + w) - (v + w)) = 0 for
    v = v(w) by Newton, and reports the largest ratio |v(w1) - v(w0)| / |w1 - w0| over
    consecutive sample pairs.  Trivial splits report ratio 0.
    NewtonDivergence if a solve misses newton_tol after 60 steps.
    """
    d = 2 * phi.n
    p_v, p_w = split_spectral(SymplecticMatrix(phi.n, phi.origin_jacobian))
    # rows: orthonormal bases of the ranges of P_V and P_W
    vb, wb = scipy.linalg.orth(p_v).T, scipy.linalg.orth(p_w).T
    v_dim, w_dim = len(vb), len(wb)
    if w_dim == 0 or v_dim == 0:
        return {
            "v_dim": v_dim,
            "w_dim": w_dim,
            "max_ratio": 0.0,
            "pairs": 0,
            "radius": radius,
            "note": "split is trivial; nothing to solve",
        }
    phi_k = phi.iterate(k)

    if w_dim == 1:
        coeffs = np.linspace(-1.0, 1.0, SPLIT_SAMPLES)[:, None]
    else:
        # a closed unit curve through every direction of W: the column pairs
        # (cos jt, sin jt), j = 1, 2, ..., with each row normalized
        t = np.linspace(0.0, 2.0 * np.pi, SPLIT_SAMPLES, endpoint=False)[:, None]
        j = np.arange(1, (w_dim + 1) // 2 + 1)
        coeffs = np.stack([np.cos(j * t), np.sin(j * t)], axis=2).reshape(len(t), -1)[:, :w_dim]
        coeffs /= np.linalg.norm(coeffs, axis=1, keepdims=True)
    ws = radius * coeffs @ wb

    sols = []
    for w in ws:
        v = np.zeros(v_dim)
        for _ in range(60):
            z = (w + v @ vb)[None, :]
            img, jac = phi_k.value_and_jac(z)
            res = vb @ p_v @ (img - z)[0]
            if np.linalg.norm(res) <= newton_tol:
                break
            v = v - np.linalg.solve(vb @ p_v @ (jac[0] - np.eye(d)) @ vb.T, res)
        else:
            raise NewtonDivergence(
                f"splitting graph solve stalled at residual {np.linalg.norm(res):.3e}"
            )
        sols.append(v)
    sols = np.array(sols)
    ratios = []
    for a in range(len(ws) - 1):
        dw = np.linalg.norm(ws[a + 1] - ws[a])
        if dw > 1e-12:
            ratios.append(float(np.linalg.norm(sols[a + 1] - sols[a]) / dw))
    return {
        "v_dim": v_dim,
        "w_dim": w_dim,
        "max_ratio": max(ratios) if ratios else 0.0,
        "pairs": len(ratios),
        "radius": radius,
    }
