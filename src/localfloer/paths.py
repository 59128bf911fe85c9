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

The index of an iterate needs no winding along the k-fold path.  A
Bott-type iteration formula (Long, Index Theory for Symplectic Paths with
Applications, 2002, ch. 9) gives it from the base path's index and its
endpoint E alone: an elliptic pair (theta, p, q) of E adds
(q - p)(k - 1 - 2 floor(k theta / 2 pi)) to k times the index, and every
other eigenvalue type is homogeneous under iteration.

The winding is sampled by local bisection: an interval of the sample grid
is split until both halves turn by less than pi / 2 and agree with it, so
samples gather where rho turns.  Each round's new times are sampled as one
stack, through one batched eigendecomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateEndpoint, KreinDegenerate, WindingUnresolved
from .symplectic import SymplecticMatrix, standard_j, validate_symplectic

__all__ = [
    "SymplecticPath",
    "rho",
    "winding",
    "mean_index",
    "conley_zehnder",
    "IndexReport",
    "index_report",
]

CIRCLE_TOL = 1e-6
REAL_TOL = 1e-8
KREIN_REL_TOL = 1e-7
AGREE_TOL = 1e-10
DEGENERACY_TOL = 1e-8
ENDPOINT_TOL = 1e-7
# winding: default first interval count and sample budget
WINDING_START = 64
WINDING_MAX = 1 << 20


def _krein_form(n: int) -> np.ndarray:
    # Hermitian since J^T = -J
    return -0.5j * standard_j(n)


def _elliptic_data(vals: np.ndarray, vecs: np.ndarray, strict: bool):
    """Eigenvalue classification shared by rho and the endpoint correction.

    Takes the eigenpairs of a stack of matrices, vals (m, 2n) and vecs
    (m, 2n, 2n), and returns (sign_exponents, pairs): an integer array (m,)
    and, per matrix, a list of (theta, p, q) over elliptic pairs.  With
    strict=True a numerically indefinite Krein block raises instead of
    being dropped.
    """
    at_minus_one = np.abs(vals + 1.0) <= CIRCLE_TOL
    is_real = np.abs(vals.imag) <= REAL_TOL * (1.0 + np.abs(vals))
    sign_exp = np.sum(at_minus_one, axis=1) // 2 + np.sum(
        is_real & ~at_minus_one & (vals.real < -1.0), axis=1
    )
    cand = (
        (~is_real)
        & (vals.imag > 0)
        & (np.abs(np.abs(vals) - 1.0) <= CIRCLE_TOL)
        & (~at_minus_one)
    )
    k_herm = _krein_form(vals.shape[1] // 2)
    pairs: list = [[] for _ in range(len(vals))]
    for r in np.flatnonzero(np.any(cand, axis=1)):
        val, idx = vals[r], np.flatnonzero(cand[r])
        used: set = set()
        for i in idx:
            if i in used:
                continue
            group = [
                j
                for j in idx
                if j not in used and abs(val[j] - val[i]) <= max(CIRCLE_TOL, 1e-9)
            ]
            used.update(group)
            v = vecs[r][:, group]
            gram = v.conj().T @ k_herm @ v
            gram = 0.5 * (gram + gram.conj().T)
            geigs = np.linalg.eigvalsh(gram)
            cut = KREIN_REL_TOL * max(1.0, float(np.max(np.abs(geigs))))
            p = int(np.sum(geigs > cut))
            q = int(np.sum(geigs < -cut))
            if strict and p + q != len(group):
                raise KreinDegenerate(
                    f"Krein form nearly degenerate on eigenspace at angle "
                    f"{float(np.angle(val[i])):.6f}: eigenvalues {geigs}"
                )
            theta = float(np.angle(np.mean(val[group])))
            pairs[r].append((theta, p, q))
    return sign_exp, pairs


def _rho_values(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """rho of a stack of matrices from their eigenpairs, as an array (m,)."""
    sign_exp, pairs = _elliptic_data(vals, vecs, strict=False)
    phase = np.array([sum(theta * (p - q) for theta, p, q in pr) for pr in pairs])
    return np.where(sign_exp % 2, -1.0, 1.0) * np.exp(1j * phase)


def rho(mat: np.ndarray) -> complex:
    """Spectral circle map on Sp(2n); continuous, det_C on U(n), +-1 off circle."""
    return complex(_rho_values(*np.linalg.eig(np.asarray(mat, dtype=float)[None]))[0])


class SymplecticPath:
    """Path [0, span] -> Sp(2n), starting anywhere.

    `evaluate` maps an array of times (m,) to the stack of matrices
    (m, 2n, 2n); calling the path at one time returns one matrix.  Index
    computations assume the path starts at the identity; nothing enforces
    it.
    """

    def __init__(self, n: int, span: float, evaluate: Callable[[np.ndarray], np.ndarray]):
        self.n = int(n)
        self.span = float(span)
        self.evaluate = evaluate

    def __call__(self, t: float) -> np.ndarray:
        return self.evaluate(np.array([float(t)]))[0]

    def rho(self, ts: np.ndarray) -> np.ndarray:
        """rho at an array of times, through one batched eig."""
        vals, vecs = np.linalg.eig(self.evaluate(np.asarray(ts, dtype=float)))
        return _rho_values(vals, vecs)

    def endpoint(self) -> SymplecticMatrix:
        return validate_symplectic(self(self.span), tol=ENDPOINT_TOL)


def _wind(f: Callable, span: float, intervals: int, max_samples: int) -> float:
    """Total winding (radians) of a map t -> unit complex over [0, span].

    f takes an array of t and returns the values at all of them, and is
    called once per round.  Local bisection with principal-branch
    increments: the span starts as `intervals` equal intervals, and every
    open interval is bisected once per round.  An interval is settled when
    both halves turn by less than pi / 2 and their increments add up to
    its own within AGREE_TOL; only the halves of unsettled intervals are
    bisected again, so samples gather where f turns.  The settle test does
    not rule out aliasing: if f turns by close to a whole number of turns
    over a first-round interval, both halves can look settled and the
    turns are lost, so the first intervals must be fine enough for f.  The
    total is the sum of the settled half increments in t order.  Raises
    WindingUnresolved when the next round would take more than max_samples
    samples in all, or when an interval can no longer be split in floating
    point.
    """
    ts = np.linspace(0.0, span, intervals + 1)
    vals = f(ts)
    samples = len(ts)
    # open intervals [a, b] with f at both ends
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
                f"winding does not settle at t = {a[stuck][0]} "
                f"(interval below float resolution, {samples} samples)"
            )
        vm = f(m)
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


def winding(
    path: SymplecticPath, start_samples: int = WINDING_START, max_samples: int = WINDING_MAX
) -> float:
    """Total winding (radians) of rho along the path, sampled by _wind.

    There are start_samples first intervals, and at least one per unit of
    span: on an iterated path rho at t = j is rho of the j-th power of the
    endpoint, which can repeat, so a wider first interval can hide turns.
    """
    intervals = max(int(start_samples), int(np.ceil(path.span)))
    return _wind(path.rho, path.span, intervals, max_samples)


def mean_index(path: SymplecticPath) -> float:
    """Winding of rho divided by pi.  Homogeneous under iteration."""
    return winding(path) / np.pi


def _check_nondegenerate(vals: np.ndarray):
    gap = float(np.min(np.abs(vals - 1.0)))
    if gap <= DEGENERACY_TOL:
        raise DegenerateEndpoint(
            f"eigenvalue at distance {gap:.3e} from 1; integer index undefined"
        )


def _endpoint_correction(mat: np.ndarray) -> float:
    """Sum of p (pi - theta) + q (theta - pi) over elliptic pairs of the endpoint."""
    vals, vecs = np.linalg.eig(np.asarray(mat, dtype=float)[None])
    _check_nondegenerate(vals)
    _, (pairs,) = _elliptic_data(vals, vecs, strict=True)
    return sum(p * (np.pi - theta) + q * (theta - np.pi) for theta, p, q in pairs)


def _iterate_index(cz: int, endpoint: np.ndarray, k: int) -> int:
    """Integer index of the k-th iterate of a path with index cz and endpoint E.

    k cz plus (q - p)(k - 1 - 2 floor(k theta / 2 pi)) per elliptic pair
    (theta, p, q) of E.  Raises DegenerateEndpoint when E^k has spectrum
    within DEGENERACY_TOL of 1, which also catches resonances of order
    above the root-of-unity search, and KreinDegenerate when the Krein
    form of E is numerically indefinite on an eigenspace.
    """
    e = np.asarray(endpoint, dtype=float)
    _check_nondegenerate(np.linalg.eigvals(np.linalg.matrix_power(e, k)))
    vals, vecs = np.linalg.eig(e[None])
    _, (pairs,) = _elliptic_data(vals, vecs, strict=True)
    return k * cz + sum(
        (q - p) * (k - 1 - 2 * math.floor(k * theta / (2.0 * np.pi))) for theta, p, q in pairs
    )


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


@dataclass(frozen=True)
class IndexReport:
    """Bundle of path indices; integer fields are None when undefined."""

    mean_index: float
    conley_zehnder: Optional[int]
    degenerate: bool


def index_report(path: SymplecticPath) -> IndexReport:
    w = winding(path)
    cz: Optional[int] = None
    degenerate = False
    try:
        cz = _integer_index(w, path(path.span))
    except DegenerateEndpoint:
        degenerate = True
    return IndexReport(mean_index=w / np.pi, conley_zehnder=cz, degenerate=degenerate)
