"""Symplectic linear algebra over R^{2n}.

Coordinates are z = (x_1..x_n, y_1..y_n) and the symplectic form is
w = sum_i dy_i ^ dx_i, whose Gram matrix is

    J = [[0, -I], [I, 0]],

so M is symplectic iff M^T J M = J.  Multiplication by i under the
identification z_j = x_j + i y_j is exactly J, which the path-index module
relies on.

The spectrum of a symplectic matrix is symmetric under conjugation and
inversion.  Eigenvalues are clustered with an absolute tolerance, snapped to
the real axis / unit circle / roots of unity when within tolerance, and the
cluster data drives the iteration classes:

* k is admissible when no eigenvalue other than 1 is a k-th root of unity;
* k is good when the count of eigenvalue pairs on the negative real axis has
  the same parity for M and M^k.

Root-of-unity detection is bounded: orders are searched up to Q_MAX only.
Floating point cannot distinguish an irrational angle from a high-order
rational one, so the bound is part of the contract, not a shortcut.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import ClusterAmbiguous, NotAdmissible, NotSymplectic, SplitFailed

__all__ = [
    "standard_j",
    "vectorfield_j",
    "direct_sum_indices",
    "SymplecticMatrix",
    "validate_symplectic",
    "EigenCluster",
    "EigenData",
    "spectrum",
    "admissible",
    "good",
    "split_spectral",
]

DEFAULT_TOL_SYMP = 1e-9
CLUSTER_TOL = 1e-8
Q_MAX = 64
SPLIT_TOL = 1e-6
SPLIT_BOUNDARY_FACTOR = 10.0


def standard_j(n: int) -> np.ndarray:
    """Gram matrix of w = sum dy_i ^ dx_i in (x, y) coordinates."""
    j = np.zeros((2 * n, 2 * n))
    j[:n, n:] = -np.eye(n)
    j[n:, :n] = np.eye(n)
    return j


def vectorfield_j(n: int) -> np.ndarray:
    """Matrix mapping grad H to the Hamiltonian field: X_H = vectorfield_j @ grad H."""
    return -standard_j(n)


def direct_sum_indices(n1: int, n2: int):
    """Index arrays (i1, i2) of the factors in split coordinates (x1, x2, y1, y2)."""
    n = n1 + n2
    i1 = np.concatenate([np.arange(n1), n + np.arange(n1)])
    i2 = np.concatenate([n1 + np.arange(n2), n + n1 + np.arange(n2)])
    return i1, i2


@dataclass(frozen=True)
class SymplecticMatrix:
    """A validated symplectic matrix together with its validation tolerance."""

    n: int
    entries: np.ndarray
    tol_symp: float = DEFAULT_TOL_SYMP

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (2 * self.n, 2 * self.n):
            raise ValueError(f"expected shape {(2 * self.n, 2 * self.n)}, got {arr.shape}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @cached_property
    def eigen(self) -> "EigenData":
        """spectrum(self), computed on first use and kept."""
        return spectrum(self)


def validate_symplectic(entries: np.ndarray, tol: float = DEFAULT_TOL_SYMP) -> SymplecticMatrix:
    """Check M^T J M = J and det M = 1, returning the wrapped matrix.

    Raises NotSymplectic with the measured defect when the identity fails.
    The determinant check uses a looser derived tolerance; for a matrix that
    passes the structural identity it only guards against gross corruption.
    """
    arr = np.asarray(entries, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] % 2:
        raise ValueError(f"expected square even-dimensional matrix, got {arr.shape}")
    n = arr.shape[0] // 2
    j = standard_j(n)
    defect = float(np.max(np.abs(arr.T @ j @ arr - j)))
    if defect > tol:
        raise NotSymplectic(defect, tol)
    det = float(np.linalg.det(arr))
    scale = max(1.0, float(np.max(np.abs(arr))) ** (2 * n))
    if abs(det - 1.0) > 100.0 * tol * scale:
        raise NotSymplectic(abs(det - 1.0), tol)
    return SymplecticMatrix(n=n, entries=arr, tol_symp=tol)


# --------------------------------------------------------------------------- spectra


@dataclass(frozen=True)
class EigenCluster:
    value: complex
    multiplicity: int
    on_unit_circle: bool
    root_of_unity_order: Optional[int] = None

    def power(self, k: int) -> complex:
        if self.root_of_unity_order is not None:
            # exact rational angle: reduce the power mod the order
            q = self.root_of_unity_order
            theta = np.angle(self.value)
            p = int(round(theta * q / (2.0 * np.pi)))
            return complex(np.exp(2j * np.pi * ((p * k) % q) / q))
        if self.value.imag == 0.0:
            return complex(self.value.real ** k)
        return complex(self.value) ** k


@dataclass(frozen=True)
class EigenData:
    clusters: tuple
    cluster_tol: float
    q_max: int
    n: int

    @property
    def total_multiplicity(self) -> int:
        return sum(c.multiplicity for c in self.clusters)

    def negative_real_pair_count(self, k: int = 1) -> int:
        """Number of {lambda, 1/lambda} pairs of M^k lying on the negative reals."""
        tol = self.cluster_tol
        count = 0
        for c in self.clusters:
            v = c.power(k)
            # relative to |v|: the partner 1/lambda of a large lambda has a
            # power far below tol and must still be counted
            if abs(v.imag) <= tol * abs(v) and v.real < -tol * abs(v):
                count += c.multiplicity
        # -1 always carries even multiplicity; other negatives pair across inversion
        if count % 2:
            raise ClusterAmbiguous(
                f"odd total multiplicity {count} on the negative real axis at power {k}"
            )
        return count // 2

    def unit_root_orders(self) -> list:
        """Orders of root-of-unity clusters different from 1, sorted, deduplicated."""
        orders = set()
        for c in self.clusters:
            if c.root_of_unity_order is not None and abs(c.value - 1.0) > self.cluster_tol:
                orders.add(c.root_of_unity_order)
        return sorted(orders)

    def has_eigenvalue_one(self) -> bool:
        return any(abs(c.value - 1.0) <= self.cluster_tol for c in self.clusters)

    def all_eigenvalues_one(self) -> bool:
        return all(abs(c.value - 1.0) <= self.cluster_tol for c in self.clusters)


def _cluster_values(values: np.ndarray, tol: float):
    """Greedy union-find clustering of complex values with absolute tolerance."""
    m = len(values)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx, dtype=int) for idx in groups.values()]


def _snap(value: complex, tol: float, q_max: int):
    """Snap a cluster representative to real axis / unit circle / exact root of unity."""
    v = complex(value)
    if abs(v.imag) <= tol:
        v = complex(v.real, 0.0)
    on_circle = abs(abs(v) - 1.0) <= tol
    order = None
    if on_circle:
        v = v / abs(v)
        theta = float(np.angle(v))
        for q in range(1, q_max + 1):
            p = int(round(theta * q / (2.0 * np.pi)))
            candidate = np.exp(2j * np.pi * p / q)
            if abs(v - candidate) <= tol:
                # q is minimal, so p/q is already in lowest terms and the order is q
                pm = p % q
                order = 1 if pm == 0 else q // gcd(pm, q)
                v = complex(np.exp(2j * np.pi * pm / q))
                re = 0.0 if abs(v.real) < 4e-16 else v.real
                im = 0.0 if abs(v.imag) < 4e-16 else v.imag
                v = complex(round(re) if abs(re - round(re)) < 4e-16 else re, im)
                break
    return v, on_circle, order


def spectrum(m: SymplecticMatrix) -> EigenData:
    """Clustered eigenvalue data of a symplectic matrix.

    Clusters within CLUSTER_TOL are merged; representatives are snapped to the
    real axis, the unit circle, and exact roots of unity of order up to Q_MAX
    where the tolerance allows.  Raises ClusterAmbiguous when two distinct
    clusters are within 2 * CLUSTER_TOL of one another, since the
    classification Boolean answers (on circle or not, root of unity or not)
    would then be unreliable.
    """
    vals = np.linalg.eigvals(m.entries)
    groups = _cluster_values(vals, CLUSTER_TOL)
    clusters = []
    for idx in groups:
        rep = complex(np.mean(vals[idx]))
        snapped, on_circle, order = _snap(rep, CLUSTER_TOL, Q_MAX)
        clusters.append(
            EigenCluster(
                value=snapped,
                multiplicity=len(idx),
                on_unit_circle=on_circle,
                root_of_unity_order=order,
            )
        )
    clusters.sort(key=lambda c: (round(c.value.real, 12), round(c.value.imag, 12)))
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            d = abs(clusters[i].value - clusters[j].value)
            if d < 2.0 * CLUSTER_TOL:
                raise ClusterAmbiguous(
                    f"clusters {clusters[i].value} and {clusters[j].value} separated by "
                    f"{d:.3e} < 2 * cluster_tol"
                )
    data = EigenData(clusters=tuple(clusters), cluster_tol=CLUSTER_TOL, q_max=Q_MAX, n=m.n)
    if data.total_multiplicity != 2 * m.n:
        raise ClusterAmbiguous("cluster multiplicities do not sum to matrix dimension")
    _check_symmetry(data)
    return data


def _check_symmetry(data: EigenData) -> None:
    """Spectrum of a symplectic matrix is closed under conjugation and inversion."""
    tol = max(100.0 * data.cluster_tol, 1e-6)
    for c in data.clusters:
        for target in (np.conj(c.value), 1.0 / c.value):
            scale = max(1.0, abs(target))
            ok = any(
                abs(d.value - target) <= tol * scale and d.multiplicity == c.multiplicity
                for d in data.clusters
            )
            if not ok:
                raise ClusterAmbiguous(
                    f"spectrum not symmetric: no partner for {c.value} near {target}"
                )


def admissible(m: SymplecticMatrix, k: int) -> bool:
    """True when no eigenvalue other than 1 satisfies lambda^k = 1.

    Only detected root-of-unity clusters can forbid k: a unit-circle eigenvalue
    with no order up to Q_MAX is treated as never resonant.
    """
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    for q in m.eigen.unit_root_orders():
        if k % q == 0:
            return False
    return True


def good(m: SymplecticMatrix, k: int) -> bool:
    """Parity test on negative-real eigenvalue pairs of M versus M^k.

    Requires k admissible; raises NotAdmissible otherwise.
    """
    if not admissible(m, k):
        raise NotAdmissible(f"iteration order {k} is not admissible")
    data = m.eigen
    return data.negative_real_pair_count(1) % 2 == data.negative_real_pair_count(k) % 2


# --------------------------------------------------------------------- splitting


def split_spectral(m: SymplecticMatrix):
    """Projectors (P_V, P_W) onto the spectral subspaces away from / near 1.

    W is the invariant subspace for eigenvalues within SPLIT_TOL of 1, V the
    complementary invariant subspace.  Raises SplitFailed when an eigenvalue
    falls in the ambiguity annulus [SPLIT_TOL, SPLIT_BOUNDARY_FACTOR * SPLIT_TOL).
    """
    a = np.asarray(m.entries)
    dim = a.shape[0]
    vals = np.linalg.eigvals(a)
    dist = np.abs(vals - 1.0)
    near = dist <= SPLIT_TOL
    boundary = (dist > SPLIT_TOL) & (dist < SPLIT_BOUNDARY_FACTOR * SPLIT_TOL)
    if np.any(boundary):
        raise SplitFailed(
            f"eigenvalue at distance {float(dist[boundary].min()):.3e} from 1 "
            f"inside the ambiguity annulus "
            f"[{SPLIT_TOL:.1e}, {SPLIT_BOUNDARY_FACTOR * SPLIT_TOL:.1e})"
        )
    w_dim = int(np.sum(near))
    if w_dim == 0:
        return np.eye(dim), np.zeros((dim, dim))
    if w_dim == dim:
        return np.zeros((dim, dim)), np.eye(dim)

    def invariant_basis(select_near: bool) -> np.ndarray:
        def want(re, im):
            return bool(abs(complex(re, im) - 1.0) <= SPLIT_TOL) == select_near

        # sorted Schur moves the selected eigenvalues to the leading block
        _, z, sdim = scipy.linalg.schur(a, output="real", sort=want)
        expected = w_dim if select_near else dim - w_dim
        if sdim != expected:
            raise SplitFailed(f"Schur reordering selected {sdim} eigenvalues, expected {expected}")
        return z[:, :sdim]

    b_w = invariant_basis(True)
    b_v = invariant_basis(False)
    basis = np.hstack([b_w, b_v])
    inv = np.linalg.inv(basis)
    p_w = basis[:, :w_dim] @ inv[:w_dim, :]
    p_v = np.eye(dim) - p_w
    # ranges must be invariant under M
    for p in (p_v, p_w):
        leak = np.max(np.abs((np.eye(dim) - _range_projector(p)) @ a @ p))
        if leak > max(1e-7, 100 * SPLIT_TOL * np.max(np.abs(a))):
            raise SplitFailed(f"invariance defect {leak:.3e} after splitting")
    return p_v, p_w


def _range_projector(p: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto range(p), for invariance checks only."""
    u, s, _ = np.linalg.svd(p)
    rank = int(np.sum(s > 1e-9 * max(1.0, s[0] if len(s) else 1.0)))
    basis = u[:, :rank]
    return basis @ basis.T
