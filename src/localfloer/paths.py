"""Index theory for paths of symplectic matrices.

The central object is the circle map rho on Sp(2n): a continuous extension of
the complex determinant on the unitary subgroup.  It is computed spectrally,

    rho(M) = (-1)^{h} * prod_{elliptic pairs} exp(i theta (p - q)),

where h counts negative real eigenvalues of modulus > 1 plus half the
multiplicity at -1, the product runs over non-real unit-circle eigenvalue
pairs {e^{i theta}, e^{-i theta}} with theta in (0, pi), and (p, q) is the
signature of the Hermitian form v -> -(i/2) conj(v)^T J v on the eigenspace
of e^{i theta}.  On block diagonals rho is multiplicative, on unitary
matrices [[A, -B], [B, A]] it equals det(A + iB), and on matrices without
unit-circle spectrum it is +-1.

The mean index of a path starting at the identity is the winding of rho
divided by pi.  The integer index of a path with nondegenerate endpoint is
recovered from the winding by a closed-form endpoint correction: each
elliptic pair contributes p (pi - theta) + q (theta - pi), every other
eigenvalue type contributes zero.  The correction is what the winding of an
explicit normalizing extension inside the nondegenerate stratum evaluates
to, so the quotient by pi is an integer up to discretization noise.

The winding is sampled by local bisection: an interval of the sample grid
is split until both halves turn by less than pi / 2 and agree with it, so
samples gather where rho turns.  Along an iterated hyperbolic path rho
turns only inside elliptic windows of width about 2^-j on leg j; each
window costs samples in proportion to the logarithm of its width, not to
its inverse.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateEndpoint,
    KreinDegenerate,
    NotALoop,
    WindingUnresolved,
)
from .symplectic import SymplecticMatrix, direct_sum_indices, standard_j, validate_symplectic

__all__ = [
    "SymplecticPath",
    "exponential_path",
    "rho",
    "winding",
    "mean_index",
    "conley_zehnder",
    "maslov_loop",
    "IndexReport",
    "index_report",
]

CIRCLE_TOL = 1e-6
REAL_TOL = 1e-8
KREIN_REL_TOL = 1e-7
AGREE_TOL = 1e-10
DEGENERACY_TOL = 1e-8
LOOP_TOL = 1e-6
ENDPOINT_TOL = 1e-7


def _krein_form(n: int) -> np.ndarray:
    # Hermitian since J^T = -J
    return -0.5j * standard_j(n)


def _elliptic_data(mat: np.ndarray, strict: bool):
    """Eigenvalue classification shared by rho and the endpoint correction.

    Returns (sign_exponent, pairs) where pairs is a list of (theta, p, q)
    over elliptic pairs.  With strict=True a numerically indefinite Krein
    block raises instead of being dropped.
    """
    dim = mat.shape[0]
    n = dim // 2
    vals, vecs = np.linalg.eig(mat)
    at_minus_one = np.abs(vals + 1.0) <= CIRCLE_TOL
    sign_exp = int(np.sum(at_minus_one)) // 2
    is_real = np.abs(vals.imag) <= REAL_TOL * (1.0 + np.abs(vals))
    for lam in vals[is_real & ~at_minus_one].real:
        if lam < 0.0 and abs(lam) > 1.0:
            sign_exp += 1

    cand = np.where(
        (~is_real)
        & (vals.imag > 0)
        & (np.abs(np.abs(vals) - 1.0) <= CIRCLE_TOL)
        & (~at_minus_one)
    )[0]
    k_herm = _krein_form(n)
    pairs = []
    used: set = set()
    for i in cand:
        if i in used:
            continue
        group = [
            j
            for j in cand
            if j not in used and abs(vals[j] - vals[i]) <= max(CIRCLE_TOL, 1e-9)
        ]
        used.update(group)
        v = vecs[:, group]
        gram = v.conj().T @ k_herm @ v
        gram = 0.5 * (gram + gram.conj().T)
        geigs = np.linalg.eigvalsh(gram)
        cut = KREIN_REL_TOL * max(1.0, float(np.max(np.abs(geigs))))
        p = int(np.sum(geigs > cut))
        q = int(np.sum(geigs < -cut))
        if strict and p + q != len(group):
            raise KreinDegenerate(
                f"Krein form nearly degenerate on eigenspace at angle "
                f"{float(np.angle(vals[i])):.6f}: eigenvalues {geigs}"
            )
        theta = float(np.angle(np.mean(vals[group])))
        pairs.append((theta, p, q))
    return sign_exp, pairs


def rho(mat: np.ndarray) -> complex:
    """Spectral circle map on Sp(2n); continuous, det_C on U(n), +-1 off circle."""
    sign_exp, pairs = _elliptic_data(np.asarray(mat, dtype=float), strict=False)
    phase = sum(theta * (p - q) for theta, p, q in pairs)
    return complex((-1.0) ** (sign_exp % 2) * np.exp(1j * phase))


class SymplecticPath:
    """Path [0, span] -> Sp(2n) given by a callable, starting anywhere.

    Index computations assume the path starts at the identity; nothing
    enforces it because intermediate constructions (iteration legs) reuse
    the same type.
    """

    def __init__(self, n: int, span: float, evaluate: Callable[[float], np.ndarray]):
        self.n = int(n)
        self.span = float(span)
        self._evaluate = evaluate
        self._rho_cache: dict = {}

    def __call__(self, t: float) -> np.ndarray:
        return np.asarray(self._evaluate(float(t)), dtype=float)

    def rho(self, t: float) -> complex:
        key = float(t)
        out = self._rho_cache.get(key)
        if out is None:
            out = rho(self(t))
            self._rho_cache[key] = out
        return out

    def start(self) -> np.ndarray:
        return self(0.0)

    def endpoint(self) -> SymplecticMatrix:
        return validate_symplectic(self(self.span), tol=ENDPOINT_TOL)

    def iterated(self, k: int) -> "SymplecticPath":
        """Path of the k-th iterate: on [j, j+1] it is t -> Psi(t - j) E^j.

        The first iterate is the path itself, with its cached rho samples.
        """
        if k < 1:
            raise ValueError("iteration order must be >= 1")
        if abs(self.span - 1.0) > 1e-12:
            raise ValueError("iteration requires a unit-span path")
        if k == 1:
            return self
        e = self(1.0)
        powers = [np.eye(2 * self.n)]
        for _ in range(k - 1):
            powers.append(e @ powers[-1])

        def ev(t: float) -> np.ndarray:
            j = min(int(np.floor(t)), k - 1)
            j = max(j, 0)
            return self(t - j) @ powers[j]

        return SymplecticPath(self.n, float(k), ev)

    def product(self, other: "SymplecticPath") -> "SymplecticPath":
        """Pointwise product path; same span required."""
        if abs(self.span - other.span) > 1e-12 or self.n != other.n:
            raise ValueError("product requires matching span and dimension")
        return SymplecticPath(self.n, self.span, lambda t: self(t) @ other(t))

    def direct_sum(self, other: "SymplecticPath") -> "SymplecticPath":
        """Block path in split coordinates (x1, x2, y1, y2)."""
        if abs(self.span - other.span) > 1e-12:
            raise ValueError("direct sum requires matching span")
        n = self.n + other.n
        i1, i2 = direct_sum_indices(self.n, other.n)

        def ev(t: float) -> np.ndarray:
            out = np.zeros((2 * n, 2 * n))
            out[np.ix_(i1, i1)] = self(t)
            out[np.ix_(i2, i2)] = other(t)
            return out

        return SymplecticPath(n, self.span, ev)


def exponential_path(generator: np.ndarray, span: float = 1.0) -> SymplecticPath:
    """t -> exp(t B) for B in the symplectic Lie algebra (J B symmetric)."""
    import scipy.linalg

    gen = np.asarray(generator, dtype=float)
    n = gen.shape[0] // 2
    j = standard_j(n)
    sym_defect = float(np.max(np.abs(j @ gen + gen.T @ j)))
    if sym_defect > 1e-9 * max(1.0, float(np.max(np.abs(gen)))):
        raise ValueError(f"generator not in sp(2n): defect {sym_defect:.3e}")
    return SymplecticPath(n, span, lambda t: scipy.linalg.expm(t * gen))


def winding(path: SymplecticPath, start_samples: int = 64, max_samples: int = 1 << 20) -> float:
    """Total winding (radians) of rho along the path.

    Local bisection with principal-branch increments.  The span starts as
    start_samples equal intervals, and at least one per unit of span: on an
    iterated path rho at t = j is rho of the j-th power of the endpoint,
    which can repeat, so a wider first interval can hide whole turns.
    Every open interval is bisected once per round.  An interval is settled
    when both halves turn by less than pi / 2 and their increments add up
    to its own within AGREE_TOL; only the halves of unsettled intervals are
    bisected again, so samples gather where rho turns.  The settle test does
    not rule out aliasing: if rho turns by close to a whole number of turns
    over a first-round interval, both halves can look settled and the turns
    are lost, so start_samples must be fine enough for the path.  The total is the sum
    of the settled half increments in t order.  Raises WindingUnresolved
    when the next round would take more than max_samples rho samples in
    all, or when an interval can no longer be split in floating point.
    """
    ts = np.linspace(0.0, path.span, max(int(start_samples), int(np.ceil(path.span))) + 1)
    vals = np.array([path.rho(t) for t in ts])
    samples = len(ts)
    # open intervals [a, b] with rho at both ends
    a, b, va, vb = ts[:-1], ts[1:], vals[:-1], vals[1:]
    done_t, done_incr = [], []
    while len(a):
        if samples + len(a) > max_samples:
            raise WindingUnresolved(
                f"no convergence with {samples} samples: "
                f"{len(a)} intervals still open, first at t = {a[0]}"
            )
        m = 0.5 * (a + b)
        stuck = (m <= a) | (m >= b)
        if np.any(stuck):
            raise WindingUnresolved(
                f"rho does not settle at t = {a[stuck][0]} "
                f"(interval below float resolution, {samples} samples)"
            )
        vm = np.array([path.rho(t) for t in m])
        samples += len(m)
        left = np.angle(vm / va)
        right = np.angle(vb / vm)
        settled = (
            (np.abs(left) < 0.5 * np.pi)
            & (np.abs(right) < 0.5 * np.pi)
            & (np.abs(left + right - np.angle(vb / va)) <= AGREE_TOL)
        )
        done_t += [a[settled], m[settled]]
        done_incr += [left[settled], right[settled]]
        keep = ~settled
        a, b = np.r_[a[keep], m[keep]], np.r_[m[keep], b[keep]]
        va, vb = np.r_[va[keep], vm[keep]], np.r_[vm[keep], vb[keep]]
    order = np.argsort(np.concatenate(done_t))
    return float(np.sum(np.concatenate(done_incr)[order]))


def mean_index(path: SymplecticPath, **kwargs) -> float:
    """Winding of rho divided by pi.  Homogeneous under iteration."""
    return winding(path, **kwargs) / np.pi


def _endpoint_correction(mat: np.ndarray) -> float:
    """Sum of p (pi - theta) + q (theta - pi) over elliptic pairs of the endpoint."""
    vals = np.linalg.eigvals(mat)
    gap = float(np.min(np.abs(vals - 1.0)))
    if gap <= DEGENERACY_TOL:
        raise DegenerateEndpoint(
            f"eigenvalue at distance {gap:.3e} from 1; integer index undefined"
        )
    _, pairs = _elliptic_data(mat, strict=True)
    return sum(p * (np.pi - theta) + q * (theta - np.pi) for theta, p, q in pairs)


def _integer_index(w: float, endpoint: np.ndarray) -> int:
    """Winding plus endpoint correction, divided by pi, as an integer."""
    raw = (w + _endpoint_correction(endpoint)) / np.pi
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise WindingUnresolved(
            f"index {raw} not within 0.1 of an integer; winding inconsistent"
        )
    return int(nearest)


def conley_zehnder(path: SymplecticPath, **winding_kwargs) -> int:
    """Integer index of a path from the identity with nondegenerate endpoint.

    winding plus endpoint correction, divided by pi; raises
    DegenerateEndpoint when the endpoint has spectrum within DEGENERACY_TOL
    of 1, and WindingUnresolved when the result is not close to an integer.
    """
    w = winding(path, **winding_kwargs)
    return _integer_index(w, path(path.span))


def maslov_loop(path: SymplecticPath, **winding_kwargs) -> int:
    """Winding number of a loop at the identity: winding / (2 pi)."""
    defect = float(np.max(np.abs(path(path.span) - path(0.0))))
    if defect > LOOP_TOL:
        raise NotALoop(f"endpoint differs from start by {defect:.3e}")
    w = winding(path, **winding_kwargs)
    raw = w / (2.0 * np.pi)
    nearest = round(raw)
    if abs(raw - nearest) > 0.1:
        raise WindingUnresolved(f"loop winding {raw} not close to an integer")
    return int(nearest)


@dataclass(frozen=True)
class IndexReport:
    """Bundle of path indices; integer fields are None when undefined."""

    winding: float
    mean_index: float
    conley_zehnder: Optional[int]
    degenerate: bool
    notes: tuple = field(default_factory=tuple)

    def to_json(self) -> dict:
        return {
            "winding": self.winding,
            "mean_index": self.mean_index,
            "conley_zehnder": self.conley_zehnder,
            "degenerate": self.degenerate,
            "notes": list(self.notes),
        }


def index_report(path: SymplecticPath, **winding_kwargs) -> IndexReport:
    w = winding(path, **winding_kwargs)
    notes = []
    cz: Optional[int] = None
    degenerate = False
    try:
        cz = _integer_index(w, path(path.span))
    except DegenerateEndpoint as exc:
        degenerate = True
        notes.append(str(exc))
    return IndexReport(
        winding=w,
        mean_index=w / np.pi,
        conley_zehnder=cz,
        degenerate=degenerate,
        notes=tuple(notes),
    )
