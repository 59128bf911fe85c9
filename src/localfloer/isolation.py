"""Quantitative persistence of isolation for iterated germ maps.

Three tools: the discrete Wirtinger-type constant c(k) relating the L1 norm
of a zero-mean cyclic sequence to that of its difference sequence, in
closed form; a grid-seeded Newton search for k-periodic points in
shrinking balls; and a contraction certificate in the style of the Yorke
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
from .germs import NEWTON_MAX_ITER, _distinct, _newton_search
from .symplectic import SymplecticMatrix, admissible, split_spectral, validate_symplectic

__all__ = [
    "DiscreteOrbit",
    "c_constant",
    "c_constant_exact",
    "maximizing_orbit",
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


@dataclass(frozen=True)
class DiscreteOrbit:
    """Cyclic sequence z_1..z_k in R^m with its difference sequence."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or len(pts) < 1:
            raise ValueError("points must have shape (k, m)")
        object.__setattr__(self, "points", pts)

    @property
    def k(self) -> int:
        return len(self.points)

    def differences(self) -> np.ndarray:
        return np.roll(self.points, -1, axis=0) - self.points

    def l1_norm(self) -> float:
        return float(np.sum(np.linalg.norm(self.points, ord=1, axis=1)))

    def difference_l1_norm(self) -> float:
        return float(np.sum(np.linalg.norm(self.differences(), ord=1, axis=1)))


def c_constant_exact(k: int) -> Fraction:
    """max ||xi||_L1 over zero-mean xi with ||xi-dot||_L1 <= 1, exact.

    The feasible set maps bijectively (via cyclic summation on the zero-mean
    slice) to the zero-sum L1 ball in the difference variable, whose
    vertices are (e_i - e_j)/2.  A convex function attains its maximum at a
    vertex; the vertex with j - i = h (cyclically) gives the orbit that is
    1/2 on h consecutive positions, of norm h (k - h) / k, maximal at
    h = floor(k / 2).
    """
    if k < 2:
        raise ValueError("need k >= 2")
    return Fraction((k // 2) * ((k + 1) // 2), k)


def c_constant(k: int) -> float:
    """The constant in ||xi||_L1 <= c(k) ||xi-dot||_L1 for zero-mean xi.

    Independent of the ambient dimension: both L1 norms decouple across
    coordinates, so the per-coordinate constant is the global one.
    """
    return float(c_constant_exact(k))


def maximizing_orbit(k: int) -> np.ndarray:
    """A zero-mean sequence achieving equality in the c(k) bound (m = 1):
    1/2 on positions 1..floor(k/2), minus its mean."""
    if k < 2:
        raise ValueError("need k >= 2")
    h = k // 2
    mean = Fraction(h, 2 * k)
    xi = [Fraction(1, 2) if 1 <= l <= h else Fraction(0) for l in range(k)]
    return np.array([float(v - mean) for v in xi])[:, None]


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

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "admissible": self.admissible,
            "radii": list(self.radii),
            "per_radius": [dict(r) for r in self.per_radius],
            "witnesses": [dict(w) for w in self.witnesses],
            "origin_resolution": self.origin_resolution,
            "conclusion": self.conclusion,
        }


def periodic_point_search(
    phi: GermMap,
    k: int,
    radii: Sequence[float],
    seeds_per_axis: int = 17,
    newton_tol: float = 1e-11,
) -> SearchReport:
    """Newton-from-grid search for fixed points of phi^k in shrinking balls.

    Every finding is reported; isolation holds exactly when the smallest
    radius contains only the origin.  Points of phi^k that move under phi
    itself are listed as non-fixed k-periodic witnesses.

    Degenerate maps stall the residual early: when the displacement of
    phi^k vanishes to order d at 0, points inside r (tol / D(r))^(1/d)
    cannot be told apart from the origin at the achievable residual and
    are attributed to it in the conclusion (the raw findings keep them).
    """
    radii = sorted(set(float(r) for r in radii), reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    d = 2 * phi.n
    lin = validate_symplectic(phi.jac(np.zeros((1, d)))[0])
    adm = admissible(lin, k)
    phi_k = phi.iterate(k)

    grid = Box(center=(0.0,) * d, radius=1.0).nodes(seeds_per_axis)
    grid = grid[np.linalg.norm(grid, axis=1) <= 1.0 + 1e-12]

    dedup_tol = max(10.0 * newton_tol, 1e-9)
    per_radius: List[dict] = []
    witnesses: List[dict] = []
    for radius in radii:
        z, rnorm = _newton_search(
            phi_k.value_and_jac, radius * grid, newton_tol, NEWTON_MAX_ITER, 3.0 * radii[0]
        )
        ok = rnorm <= 10.0 * newton_tol
        inside = np.linalg.norm(z, axis=1) <= radius * (1.0 + 1e-9)
        found = _distinct(z[ok & inside], dedup_tol)
        snapped = np.where(np.abs(found) <= dedup_tol, 0.0, found)
        entries = {
            "radius": radius,
            "points": [[float(v) for v in p] for p in snapped],
            "norms": [float(np.linalg.norm(p)) for p in snapped],
        }
        per_radius.append(entries)
    r_min = radii[-1]
    dirs = np.zeros((2 * d, d))
    for i in range(d):
        dirs[2 * i, i] = 1.0
        dirs[2 * i + 1, i] = -1.0
    d1 = float(np.max(np.linalg.norm(phi_k(r_min * dirs) - r_min * dirs, axis=1)))
    d2 = float(np.max(np.linalg.norm(phi_k(0.5 * r_min * dirs) - 0.5 * r_min * dirs, axis=1)))
    ok_tol = 10.0 * newton_tol
    if d1 <= ok_tol:
        origin_tol = 0.0  # displacement below tolerance everywhere: no resolution at all
    else:
        order = min(max(np.log2(d1 / max(d2, 1e-300)), 1.0), 6.0)
        origin_tol = min(3.0 * r_min * (ok_tol / d1) ** (1.0 / order), 0.5 * r_min)
    origin_tol = max(origin_tol, dedup_tol)

    for entries in per_radius:
        pts = np.array(entries["points"]).reshape(-1, d)
        outside = [p for p, nrm in zip(pts, entries["norms"]) if nrm > origin_tol]
        if not outside:
            continue
        arr = np.array(outside)
        move = np.linalg.norm(phi(arr) - arr, axis=1)
        for p, mv in zip(arr, move):
            if mv > 100.0 * newton_tol:
                witnesses.append(
                    {
                        "radius": entries["radius"],
                        "point": [float(v) for v in p],
                        "step_displacement": float(mv),
                    }
                )

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
    return SearchReport(
        k=k,
        admissible=adm,
        radii=tuple(radii),
        per_radius=tuple(per_radius),
        witnesses=tuple(witnesses),
        origin_resolution=float(origin_tol),
        conclusion=conclusion,
    )


# --------------------------------------------------------- contraction test


def contraction_check(phi: GermMap, k: int, box: Box, return_details: bool = False):
    """Certificate that every k-periodic orbit in the box is a fixed point.

    Requires dphi(0) = id; measures the C1 norm of phi - id on the box grid
    and compares against 1/c(k).  True certifies; False makes no claim.
    """
    d = 2 * phi.n
    lin = phi.jac(np.zeros((1, d)))[0]
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
    threshold = 1.0 / c_constant(k)
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
    eigenvalue is too near 1 to place).  For sampled w in W, solves the
    V-component fixed point equation P_V(phi^k(v + w) - (v + w)) = 0 for
    v = v(w) by Newton, and reports the largest ratio |v(w1) - v(w0)| / |w1 - w0| over
    consecutive sample pairs.  Trivial splits report ratio 0.
    NewtonDivergence if a solve misses newton_tol after 60 steps.
    """
    d = 2 * phi.n
    lin = phi.jac(np.zeros((1, d)))[0]
    p_v, p_w = split_spectral(SymplecticMatrix(phi.n, lin))
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

    t = np.linspace(0.0, 2.0 * np.pi, SPLIT_SAMPLES, endpoint=False)
    if w_dim == 1:
        coeffs = np.linspace(-1.0, 1.0, SPLIT_SAMPLES)[:, None]
    else:
        coeffs = np.stack([np.cos(t), np.sin(t)], axis=1)[:, :w_dim]
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
