"""Quantitative persistence of isolation for iterated germ maps.

Two tools: the discrete Wirtinger-type constant c(k) relating the L1 norm
of a zero-mean cyclic sequence to that of its difference sequence, in
closed form; and a grid-seeded multiple-shooting Newton search for
j-periodic points in shrinking balls, for every order j up to k in one
call, the orders sharing one flow of each object that does not depend on
j (the origin's linearization, the seeds' orbit and the probe rings'
orbit).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

import numpy as np

from .errors import SearchTooLarge
from .fields import Box
from .genfun import GermMap
from .germs import NEWTON_MAX_ITER, NEWTON_TOL, _distinct, _newton_search, _seed_orbit
from .symplectic import admissible, validate_symplectic

__all__ = [
    "c_constant_exact",
    "periodic_point_search",
    "SearchReport",
]

# periodic_point_search refuses an order whose first Newton step would hold
# more than this many bytes
SHOOTING_BYTES = 2 * 10**9
# arrays the size of the stacked Newton matrices that numpy's pinv holds at
# once: the matrices, the SVD's copy, U, V^T, and two products
PINV_WORKSPACE = 6


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
    newton_tol: float = NEWTON_TOL,
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

    The first Newton step of order k solves for every seed at once, with
    seeds x (2n k)^2 doubles of Newton matrices and PINV_WORKSPACE times
    that for pinv.  Past SHOOTING_BYTES the search is refused before any
    call of phi: SearchTooLarge, naming the order and the size.
    """
    radii = sorted(set(float(r) for r in radii), reverse=True)
    if not radii:
        raise ValueError("need at least one radius")
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if not 1 <= first <= k:
        raise ValueError("first order must be in 1 .. k")
    d = 2 * phi.n
    grid = Box(center=(0.0,) * d, radius=1.0).nodes(seeds_per_axis)
    grid = grid[np.linalg.norm(grid, axis=1) <= 1.0 + 1e-12]
    seeds = np.concatenate([radius * grid for radius in radii])
    newton_bytes = len(seeds) * (k * d) ** 2 * 8 * PINV_WORKSPACE
    if newton_bytes > SHOOTING_BYTES:
        raise SearchTooLarge(
            f"order {k}: the Newton step of {len(seeds)} seeds would hold "
            f"{newton_bytes / 1e9:.3g} GB, past the budget of {SHOOTING_BYTES / 1e9:g} GB"
        )
    lin = validate_symplectic(phi.origin_jacobian)
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
