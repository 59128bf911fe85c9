"""Local Floer homology of an isolated fixed point and its iteration laws.

Three computation routes, each with its shift convention recorded:

  nondegenerate        rank 1 in the Conley-Zehnder degree of the iterated
                       linearized path ("cz_anchor");
  strongly_degenerate  all monodromy eigenvalues equal 1: the homology is
                       local Morse homology of the generating function of
                       the iterate, shifted down by n ("genfun_N0");
  split                direct-sum germs: Kunneth convolution of the factor
                       answers ("kunneth_product").

Mixed germs that fit none of these get RouteUnavailable rather than an
approximate answer.  On top of the per-iterate computation sit the
persistence laws: shift alignment s_k, evenness at good orders, the
support window, and detection of symplectically degenerate maxima.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cubical import GradedRanks, gradient_degree, local_morse_homology
from .errors import (
    HypothesisFailed,
    LocalFloerError,
    NotAdmissible,
    NotIsolated,
    RouteUnavailable,
    ShiftAmbiguous,
)
from .fields import Box
from .genfun import GermMap, OdeGermMap, SplineGermMap, generating_function
from .germs import (
    FixedPointRecord,
    HamiltonianGerm,
    fixed_point_record,
    flow_points,
    iterate,
    translate,
)
from .paths import conley_zehnder
from .symplectic import admissible, direct_sum_indices, good, spectrum, standard_j

__all__ = [
    "LocalFloer",
    "local_floer",
    "PersistenceRow",
    "PersistenceReport",
    "verify_persistence",
    "detect_sdm",
    "kunneth",
    "total_ranks",
    "fixed_point_index",
]

SDM_DELTA_TOL = 1e-6
WINDOW_TOL = 1e-6
# grids of the degenerate route: the spline of phi (n = 1) and the
# resolutions at which the local Morse homology of F_k must stabilize
SPLINE_RESOLUTION = 97
HM_RESOLUTIONS = (17, 25, 33)


@dataclass(frozen=True)
class LocalFloer:
    ranks: GradedRanks
    shift_convention: str
    delta: float
    route: str
    order: int
    hypothesis: Optional[dict] = None

    @property
    def total(self) -> int:
        return self.ranks.total

    def to_json(self) -> dict:
        out = {
            "ranks": self.ranks.to_json(),
            "shift_convention": self.shift_convention,
            "delta": self.delta,
            "route": self.route,
            "order": self.order,
        }
        if self.hypothesis is not None:
            out["hypothesis"] = self.hypothesis
        return out


def kunneth(a: GradedRanks, b: GradedRanks) -> GradedRanks:
    """Graded convolution: ranks multiply, degrees add."""
    return a.convolve(b)


def _check_window(ranks: GradedRanks, delta: float, n: int):
    for l in ranks.support:
        if l < delta - n - WINDOW_TOL or l > delta + n + WINDOW_TOL:
            raise RouteUnavailable(
                f"computed support {ranks.support} escapes the mean-index window "
                f"[{delta - n:.6f}, {delta + n:.6f}]; the computation is unreliable"
            )


def _degenerate_route(
    germ: HamiltonianGerm,
    record: FixedPointRecord,
    k: int,
    gf_radius: float,
    gf_resolution: int,
    c1_gate: float,
    exclude_fraction: float,
) -> Tuple[GradedRanks, dict]:
    n = germ.n
    base = germ
    if float(np.linalg.norm(record.point)) > 1e-9:
        base = translate(germ, record.point)
    box = Box(center=(0.0,) * (2 * n), radius=gf_radius)
    if n == 1:
        phi: GermMap = SplineGermMap(base, box, resolution=SPLINE_RESOLUTION)
    else:
        phi = OdeGermMap(base)
    gf = generating_function(phi, k, box, gf_resolution, c1_gate=c1_gate)
    pm = gf.psi_k
    phi_k = pm.phi_k

    def grad_fn(pts: np.ndarray) -> np.ndarray:
        z = pm.invert(np.asarray(pts, dtype=float))
        disp = phi_k(z) - z
        return np.concatenate([-disp[:, n:], disp[:, :n]], axis=1)

    # Hessian of F at 0 from the linearized return map M_k = A-block form:
    # d(grad F)(0) = J (M_k - I) S^{-1} with S the vertical-projection frame
    mk = np.linalg.matrix_power(record.endpoint.entries, k)
    s_frame = np.eye(2 * n)
    s_frame[:n, :n] = mk[:n, :n]
    s_frame[:n, n:] = mk[:n, n:]
    hess0 = standard_j(n) @ (mk - np.eye(2 * n)) @ np.linalg.inv(s_frame)
    hess_norm = float(np.linalg.norm(hess0, 2))
    if hess_norm >= 2.0 * np.pi:
        raise HypothesisFailed(
            f"||d2F(0)|| = {hess_norm:.3f} is not below 2 pi; the bridge from "
            "generating-function Morse data to Floer data is not certified"
        )
    try:
        hm = local_morse_homology(
            gf.field,
            box,
            resolutions=HM_RESOLUTIONS,
            grad=grad_fn,
            exclude_fraction=exclude_fraction,
        )
    except NotIsolated as exc:
        raise HypothesisFailed(f"critical point of F_{k} not isolated: {exc}")
    hypothesis = {
        "hessian_norm_at_zero": hess_norm,
        "c1_norm": gf.c1_norm,
        "closedness_defect": gf.closedness_defect,
        "gf_resolution": gf_resolution,
        "hm_resolutions": list(HM_RESOLUTIONS),
        "kk_side_bounds_checked": False,
    }
    return hm.shift(-n), hypothesis


def local_floer(
    germ: HamiltonianGerm,
    record: FixedPointRecord,
    k: int = 1,
    route: Optional[str] = None,
    gf_radius: float = 0.1,
    gf_resolution: int = 65,
    c1_gate: float = 0.2,
    exclude_fraction: float = 0.5,
) -> LocalFloer:
    """Local Floer homology of the k-th iterate at the recorded fixed point.

    The route is auto-detected from the monodromy spectrum unless forced:
    nondegenerate when no eigenvalue satisfies lambda^k = 1, split for
    direct-sum germs, strongly_degenerate when the monodromy is unipotent.
    """
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if not admissible(record.endpoint, k):
        raise NotAdmissible(f"iteration order {k} resonates with the monodromy spectrum")
    data = spectrum(record.endpoint)
    n = germ.n
    delta = k * record.mean_index

    if route is None:
        if not data.has_eigenvalue_one():
            route = "nondegenerate"
        elif germ.factors is not None:
            route = "split"
        elif data.all_eigenvalues_one():
            route = "strongly_degenerate"
        else:
            raise RouteUnavailable(
                "monodromy mixes eigenvalue-1 and other spectrum and the germ "
                "does not split; no computation route applies"
            )

    if route == "nondegenerate":
        if data.has_eigenvalue_one():
            raise RouteUnavailable("monodromy has eigenvalue 1; not nondegenerate")
        mu = conley_zehnder(record.path.iterated(k))
        ranks = GradedRanks.from_dict({mu: 1})
        result = LocalFloer(
            ranks=ranks, shift_convention="cz_anchor", delta=delta, route=route, order=k
        )
    elif route == "strongly_degenerate":
        if not data.all_eigenvalues_one():
            raise RouteUnavailable("monodromy is not unipotent")
        ranks, hypothesis = _degenerate_route(
            germ,
            record,
            k,
            gf_radius,
            gf_resolution,
            c1_gate,
            exclude_fraction,
        )
        result = LocalFloer(
            ranks=ranks,
            shift_convention="genfun_N0",
            delta=delta,
            route=route,
            order=k,
            hypothesis=hypothesis,
        )
    elif route == "split":
        if germ.factors is None or len(germ.factors) != 2:
            raise RouteUnavailable("germ does not expose two direct-sum factors")
        g1, g2 = germ.factors
        i1, i2 = direct_sum_indices(g1.n, g2.n)
        parts = []
        for g, idx in ((g1, i1), (g2, i2)):
            rec = fixed_point_record(g, np.asarray(record.point, dtype=float)[idx])
            parts.append(
                local_floer(
                    g,
                    rec,
                    k,
                    gf_radius=gf_radius,
                    gf_resolution=gf_resolution,
                    c1_gate=c1_gate,
                    exclude_fraction=exclude_fraction,
                )
            )
        ranks = kunneth(parts[0].ranks, parts[1].ranks)
        result = LocalFloer(
            ranks=ranks,
            shift_convention="kunneth_product",
            delta=parts[0].delta + parts[1].delta,
            route=route,
            order=k,
        )
    else:
        raise ValueError(f"unknown route {route!r}")

    _check_window(result.ranks, result.delta, n)
    return result


# ------------------------------------------------------------- persistence


@dataclass(frozen=True)
class PersistenceRow:
    k: int
    admissible: bool
    good: bool
    ranks: GradedRanks
    s_k: Optional[int]
    s_k_even: Optional[bool]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "admissible": self.admissible,
            "good": self.good,
            "ranks": self.ranks.to_json(),
            "s_k": self.s_k,
            "s_k_even": self.s_k_even,
        }


@dataclass(frozen=True)
class PersistenceReport:
    rows: Tuple[PersistenceRow, ...]
    delta: float
    limit_check: Tuple[float, ...]
    checks: Dict[str, bool]

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "delta": self.delta,
            "limit_check": list(self.limit_check),
            "checks": dict(self.checks),
        }

    def csv_rows(self) -> List[List[str]]:
        out = [["k", "admissible", "good", "support", "s_k", "even"]]
        for r in self.rows:
            out.append(
                [
                    str(r.k),
                    str(r.admissible).lower(),
                    str(r.good).lower(),
                    " ".join(f"{d}:{c}" for d, c in r.ranks.items),
                    "" if r.s_k is None else str(r.s_k),
                    "" if r.s_k_even is None else str(r.s_k_even).lower(),
                ]
            )
        return out


def _align_shift(base: GradedRanks, other: GradedRanks) -> int:
    if base.total == 0 or other.total == 0:
        raise ShiftAmbiguous("cannot align against a vanishing rank vector")
    s = other.support[0] - base.support[0]
    if other != base.shift(s):
        raise ShiftAmbiguous(
            f"no degree shift aligns {other.as_dict()} with {base.as_dict()}"
        )
    return s


def verify_persistence(
    germ: HamiltonianGerm,
    record: FixedPointRecord,
    ks: Sequence[int],
    **lf_kwargs,
) -> PersistenceReport:
    """Shift law across iterates: ranks_k = shift(ranks_1, s_k).

    Records per k the admissibility, goodness, graded ranks, the aligning
    shift s_k and its parity; checks the evenness of s_k at good orders,
    the mean-index window |s_k + l - k delta| <= n, and zero shifts in the
    degenerate-maximum regime.
    """
    ks = sorted(set(int(k) for k in ks))
    for k in ks:
        if not admissible(record.endpoint, k):
            raise NotAdmissible(f"iteration order {k} is not admissible")
    n = germ.n
    delta = record.mean_index
    base = local_floer(germ, record, 1, **lf_kwargs)

    rows = []
    limit_vals = []
    even_ok = True
    window_ok = True
    zero_ok = True
    sdm_regime = abs(delta) <= SDM_DELTA_TOL and base.ranks.rank(n) >= 1
    for k in ks:
        lf = base if k == 1 else local_floer(germ, record, k, **lf_kwargs)
        is_good = good(record.endpoint, k)
        s_k = _align_shift(base.ranks, lf.ranks)
        even = s_k % 2 == 0
        if is_good and not even:
            even_ok = False
        for l in base.ranks.support:
            if abs(s_k + l - k * delta) > n + WINDOW_TOL:
                window_ok = False
        if sdm_regime and s_k != 0:
            zero_ok = False
        limit_vals.append(abs(s_k / k - delta))
        rows.append(
            PersistenceRow(
                k=k,
                admissible=True,
                good=is_good,
                ranks=lf.ranks,
                s_k=s_k,
                s_k_even=even,
            )
        )
    checks = {
        "even_shift_at_good_orders": even_ok,
        "mean_index_window": window_ok,
        "zero_shift_in_sdm_regime": zero_ok,
    }
    return PersistenceReport(
        rows=tuple(rows),
        delta=delta,
        limit_check=tuple(limit_vals),
        checks=checks,
    )


# ---------------------------------------------------------------- detection


def detect_sdm(
    germ: HamiltonianGerm,
    record: FixedPointRecord,
    delta_tol: float = SDM_DELTA_TOL,
    crosscheck: bool = True,
    **lf_kwargs,
) -> dict:
    """Symplectically degenerate maximum test: delta = 0 and HF_n != 0.

    Evidence carries the mean index, the degree-n rank, whether the
    monodromy is unipotent, and (when computable) the higher-iterate
    cross-check HF_n(phi^k) != 0 at an admissible order k >= n + 1.
    """
    n = germ.n
    lf1 = local_floer(germ, record, 1, **lf_kwargs)
    hf_n = lf1.ranks.rank(n)
    strongly = spectrum(record.endpoint).all_eigenvalues_one()
    is_sdm = abs(record.mean_index) <= delta_tol and hf_n >= 1
    evidence = {
        "delta": record.mean_index,
        "hf_n_rank": hf_n,
        "strongly_degenerate": strongly,
    }
    if crosscheck and is_sdm:
        k0 = n + 1
        while k0 <= n + 8 and not admissible(record.endpoint, k0):
            k0 += 1
        try:
            lfk = local_floer(germ, record, k0, **lf_kwargs)
            evidence["crosscheck"] = {
                "k": k0,
                "hf_n_rank": lfk.ranks.rank(n),
                "consistent": lfk.ranks.rank(n) >= 1,
            }
        except LocalFloerError as exc:  # a refused cross-check is recorded, not fatal
            evidence["crosscheck"] = {"k": k0, "error": f"{type(exc).__name__}: {exc}"}
    return {"is_sdm": is_sdm, "evidence": evidence}


def total_ranks(
    germ: HamiltonianGerm,
    record: FixedPointRecord,
    ks: Sequence[int],
    **lf_kwargs,
) -> Dict[int, int]:
    """Total rank per admissible k in ks; inadmissible orders are skipped."""
    out = {}
    for k in sorted(set(int(k) for k in ks)):
        if admissible(record.endpoint, k):
            out[k] = local_floer(germ, record, k, **lf_kwargs).total
    return out


def fixed_point_index(
    germ: HamiltonianGerm,
    k: int = 1,
    radius: float = 0.05,
    point: Optional[np.ndarray] = None,
) -> int:
    """Brouwer degree of phi^k - id at the fixed point (plane germs only)."""
    if germ.n != 1:
        raise ValueError("index oracle implemented for plane germs only")
    base = germ if point is None else translate(germ, point)
    gk = iterate(base, k)

    def displacement(pts: np.ndarray) -> np.ndarray:
        return flow_points(gk, pts) - pts

    return gradient_degree(displacement, radius)
