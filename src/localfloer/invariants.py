"""Local Floer homology of an isolated fixed point and its iteration laws.

Three computation routes, each answer recording the one it took:

  nondegenerate        rank 1 in the Conley-Zehnder degree of the iterated
                       linearized path, read from the fixed point's own
                       index and monodromy by the iteration formula, so no
                       order winds rho again;
  strongly_degenerate  all monodromy eigenvalues equal 1: the homology is
                       local Morse homology of the generating function of
                       the iterate, shifted down by n;
  split                direct-sum germs: Kunneth convolution of the factor
                       answers.

Mixed germs that fit none of these, and strongly degenerate germs off the
plane that do not split, get RouteUnavailable rather than an approximate
answer.  Every entry point reads each order through ``local_floer(sweep,
k)`` from an ``IterateSweep``, all orders of one fixed point at one set of
grid settings: the route is decided, phi splined (one iterate tower) and
the factor records built once, and each order's answer is kept.  Each
answer passes a run-time check: the support window |l - k delta| <= n, or
on the nondegenerate route, where that window holds identically, the parity
(-1)^(CZ - n) = sign det(I - M^k).  On top sit the persistence laws: shift
alignment s_k, evenness at good orders, the support window, and detection
of symplectically degenerate maxima.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cubical import EXCLUDE_FRACTION, HM_RESOLUTIONS, GradedRanks, local_morse_homology
from .errors import (
    DegenerateEndpoint,
    HypothesisFailed,
    LocalFloerError,
    NonIsolated,
    NotAdmissible,
    RouteUnavailable,
    ShiftAmbiguous,
)
from .fields import Box
from .genfun import C1_GATE, SplineGermMap, generating_function
from .germs import FixedPointRecord, HamiltonianGerm, _factor_indices, fixed_point_record, translate
from .paths import _iterate_index
from .symplectic import admissible, good, standard_j

__all__ = [
    "LocalFloer",
    "IterateSweep",
    "local_floer",
    "PersistenceRow",
    "PersistenceReport",
    "verify_persistence",
    "detect_sdm",
    "total_ranks",
]

SDM_DELTA_TOL = 1e-6
WINDOW_TOL = 1e-6


@dataclass(frozen=True)
class LocalFloer:
    ranks: GradedRanks
    delta: float
    route: str
    hypothesis: Optional[dict] = None

    @property
    def total(self) -> int:
        return self.ranks.total


def _check_window(ranks: GradedRanks, delta: float, n: int):
    for l in ranks.support:
        if l < delta - n - WINDOW_TOL or l > delta + n + WINDOW_TOL:
            raise RouteUnavailable(
                f"computed support {ranks.support} escapes the mean-index window "
                f"[{delta - n:.6f}, {delta + n:.6f}]; the computation is unreliable"
            )


def _scaled_det_identity_minus_power(e: np.ndarray, k: int) -> float:
    """det(I - E^k) as the product of (1 - lambda^k) over E's eigenvalues,
    with each factor of |lambda| > 1 divided by |lambda|^k: the sign is kept,
    no power exceeds 1 in modulus, so nothing overflows and nothing is NaN."""
    vals = np.linalg.eigvals(e)
    mod = np.abs(vals)
    unit, small = (vals / mod) ** k, np.minimum(mod, 1.0 / mod) ** k
    return float(np.prod(np.where(mod > 1.0, small - unit, 1.0 - small * unit)).real)


@dataclass(eq=False)
class IterateSweep:
    """All iterates of the recorded fixed point at one set of the degenerate
    route's grid settings; route, phi and factor sweeps are built on first
    use, and ``at(k)`` keeps each answer but no refusal."""

    germ: HamiltonianGerm
    record: FixedPointRecord
    gf_radius: float = 0.1
    gf_resolution: int = 65
    c1_gate: float = C1_GATE
    exclude_fraction: float = EXCLUDE_FRACTION

    def __post_init__(self):
        self._answers: Dict[int, LocalFloer] = {}

    @cached_property
    def _route(self) -> str:
        data = self.record.endpoint.eigen
        if not data.has_eigenvalue_one():
            return "nondegenerate"
        if self.germ.factors is not None:
            return "split"
        if not data.all_eigenvalues_one():
            raise RouteUnavailable(
                "monodromy mixes eigenvalue-1 and other spectrum and the germ "
                "does not split; no computation route applies"
            )
        if self.germ.n != 1:
            raise RouteUnavailable(
                "generating functions are assembled for plane germs only, and "
                f"this germ of dimension {2 * self.germ.n} exposes no direct-sum factors"
            )
        return "strongly_degenerate"

    @cached_property
    def _phi(self) -> SplineGermMap:
        base = self.germ
        if float(np.linalg.norm(self.record.point)) > 1e-9:
            base = translate(self.germ, self.record.point)
        box = Box(center=(0.0, 0.0), radius=self.gf_radius)
        return SplineGermMap(base, box)

    @cached_property
    def _factors(self) -> Tuple["IterateSweep", ...]:
        point = np.asarray(self.record.point, dtype=float)
        return tuple(
            replace(self, germ=g, record=fixed_point_record(g, point[idx]))
            for g, idx in _factor_indices(self.germ)
        )

    def at(self, k: int) -> LocalFloer:
        if k not in self._answers:
            if k < 1:
                raise ValueError("iteration order must be >= 1")
            if not admissible(self.record.endpoint, k):
                raise NotAdmissible(f"iteration order {k} resonates with the monodromy spectrum")
            route = self._route
            delta, hypothesis = k * self.record.mean_index, None
            if route == "nondegenerate":
                ranks = GradedRanks.from_dict({self._nondegenerate(k): 1})
            elif route == "strongly_degenerate":
                ranks, hypothesis = self._degenerate(k)
                _check_window(ranks, delta, self.germ.n)
            else:
                parts = [factor.at(k) for factor in self._factors]
                ranks = parts[0].ranks.convolve(parts[1].ranks)
                delta = parts[0].delta + parts[1].delta
                _check_window(ranks, delta, self.germ.n)
            self._answers[k] = LocalFloer(ranks, delta, route, hypothesis)
        return self._answers[k]

    def _nondegenerate(self, k: int) -> int:
        """Index of the k-th iterate by the iteration formula; its parity
        (-1)^(CZ - n) must be the sign of det(I - M^k)."""
        cz, mono, n = self.record.conley_zehnder, self.record.endpoint.entries, self.germ.n
        if cz is None:
            raise DegenerateEndpoint("the fixed point has no integer index; neither has an iterate")
        cz_k = _iterate_index(cz, mono, k)
        det = _scaled_det_identity_minus_power(mono, k)
        if (1 - 2 * ((cz_k - n) % 2)) * det <= 0.0:
            raise RouteUnavailable(
                f"index {cz_k} has the wrong parity for det(I - M^k) = {det:.3e}; "
                "the computation is unreliable"
            )
        return cz_k

    def _degenerate(self, k: int) -> Tuple[GradedRanks, dict]:
        n = 1
        phi = self._phi
        box = phi.base_box
        gf = generating_function(phi, k, box, self.gf_resolution, c1_gate=self.c1_gate)

        # Hessian of F at 0 from the linearized return map M_k = A-block form:
        # d(grad F)(0) = J (M_k - I) S^{-1} with S the vertical-projection frame;
        # and M_k = E^k = I + k (E - I), E being unipotent on this route
        mk = np.eye(2 * n) + k * (self.record.endpoint.entries - np.eye(2 * n))
        s_frame = np.eye(2 * n)
        s_frame[:n] = mk[:n]
        hess0 = standard_j(n) @ (mk - np.eye(2 * n)) @ np.linalg.inv(s_frame)
        hess_norm = float(np.linalg.norm(hess0, 2))
        if hess_norm >= 2.0 * np.pi:
            raise HypothesisFailed(
                f"||d2F(0)|| = {hess_norm:.3f} is not below 2 pi; the bridge from "
                "generating-function Morse data to Floer data is not certified"
            )
        try:
            hm = local_morse_homology(
                gf.field.interpolator(),
                box,
                resolutions=HM_RESOLUTIONS,
                grad=gf.psi_k.gradient,
                exclude_fraction=self.exclude_fraction,
            )
        except NonIsolated as exc:
            raise HypothesisFailed(f"critical point of F_{k} not isolated: {exc}")
        hypothesis = {
            "hessian_norm_at_zero": hess_norm,
            "c1_norm": gf.c1_norm,
            "closedness_defect": gf.closedness_defect,
            "gf_resolution": self.gf_resolution,
            "hm_resolutions": list(HM_RESOLUTIONS),
        }
        return hm.ranks.shift(-n), hypothesis


def local_floer(sweep: IterateSweep, k: int = 1) -> LocalFloer:
    """Local Floer homology of the k-th iterate at the sweep's fixed point.

    The route is read from the monodromy spectrum: nondegenerate when 1 is
    not an eigenvalue, split for direct-sum germs, strongly_degenerate when
    the monodromy is unipotent.  The sweep keeps the answer, so asking
    again for k computes nothing.
    """
    return sweep.at(k)


# ------------------------------------------------------------- persistence


@dataclass(frozen=True)
class PersistenceRow:
    k: int
    admissible: bool
    good: bool
    ranks: GradedRanks
    s_k: Optional[int]
    s_k_even: Optional[bool]


@dataclass(frozen=True)
class PersistenceReport:
    rows: Tuple[PersistenceRow, ...]
    delta: float
    limit_check: Tuple[float, ...]
    checks: Dict[str, bool]

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


def verify_persistence(sweep: IterateSweep, ks: Sequence[int]) -> PersistenceReport:
    """Shift law across iterates: ranks_k = shift(ranks_1, s_k).

    Records per k the admissibility, goodness, graded ranks, the aligning
    shift s_k and its parity; checks the evenness of s_k at good orders,
    the mean-index window |s_k + l - k delta| <= n, and zero shifts in the
    degenerate-maximum regime.
    """
    record = sweep.record
    ks = sorted(set(int(k) for k in ks))
    for k in ks:
        if not admissible(record.endpoint, k):
            raise NotAdmissible(f"iteration order {k} is not admissible")
    n = sweep.germ.n
    delta = record.mean_index
    base = local_floer(sweep, 1)
    sdm_regime = abs(delta) <= SDM_DELTA_TOL and base.ranks.rank(n) >= 1
    rows = []
    for k in ks:
        ranks = local_floer(sweep, k).ranks if k > 1 else base.ranks
        s_k = _align_shift(base.ranks, ranks)
        rows.append(
            PersistenceRow(
                k=k,
                admissible=True,
                good=good(record.endpoint, k),
                ranks=ranks,
                s_k=s_k,
                s_k_even=s_k % 2 == 0,
            )
        )
    checks = {
        "even_shift_at_good_orders": all(r.s_k_even for r in rows if r.good),
        "mean_index_window": all(
            abs(r.s_k + l - r.k * delta) <= n + WINDOW_TOL for r in rows for l in base.ranks.support
        ),
        "zero_shift_in_sdm_regime": not sdm_regime or all(r.s_k == 0 for r in rows),
    }
    return PersistenceReport(
        rows=tuple(rows),
        delta=delta,
        limit_check=tuple(abs(r.s_k / r.k - delta) for r in rows),
        checks=checks,
    )


# ---------------------------------------------------------------- detection


def detect_sdm(
    sweep: IterateSweep, delta_tol: float = SDM_DELTA_TOL, crosscheck: bool = True
) -> dict:
    """Symplectically degenerate maximum test: delta = 0 and HF_n != 0.

    Evidence carries the mean index, the degree-n rank, whether the
    monodromy is unipotent, and (when computable) the higher-iterate
    cross-check HF_n(phi^k) != 0 at an admissible order k >= n + 1.
    """
    n, record = sweep.germ.n, sweep.record
    lf1 = local_floer(sweep, 1)
    hf_n = lf1.ranks.rank(n)
    strongly = record.endpoint.eigen.all_eigenvalues_one()
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
            lfk = local_floer(sweep, k0)
            evidence["crosscheck"] = {
                "k": k0,
                "hf_n_rank": lfk.ranks.rank(n),
                "consistent": lfk.ranks.rank(n) >= 1,
            }
        except LocalFloerError as exc:  # a refused cross-check is recorded, not fatal
            evidence["crosscheck"] = {"k": k0, "error": f"{type(exc).__name__}: {exc}"}
    return {"is_sdm": is_sdm, "evidence": evidence}


def total_ranks(sweep: IterateSweep, ks: Sequence[int]) -> Dict[int, int]:
    """Total rank per admissible k in ks; inadmissible orders are skipped."""
    return {
        k: local_floer(sweep, k).total
        for k in sorted(set(int(k) for k in ks))
        if admissible(sweep.record.endpoint, k)
    }
