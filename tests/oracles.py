"""Reference implementations and helpers that only the tests use.

Each one is an independent route to a quantity that localfloer computes
another way, or a construction the tests need to probe it:

* ``smooth``, ``smooth_concatenation`` and ``smooth_direct_sum``: a
  composite germ as the callbacks of its Hamiltonian, integrated as one
  system, against the flows of ``germs``, which run its pieces or factors;
* ``iterate``: phi^k as the single flow of k H(k t mod 1, z), against
  which the k flows of phi through ``OdeGermMap`` in ``fixed_point_index``
  are checked, and the iterated germs of the index and detection tests;
* ``DiscreteOrbit`` and ``maximizing_orbit``: the L1 norms of a cyclic
  sequence and an orbit attaining the c(k) bound, for the closed form of
  ``c_constant_exact``;
* ``admissible_set``: the admissible orders as the complement of the
  forbidden divisibility classes, for ``admissible``;
* ``conjugated_map``: S^{-1} phi S for symplectic S;
* ``full_jacobian_psi_gradient``: grad F_k at w = psi_k(z), with z found
  by Newton on the full 2n x 2n D psi (identity y rows), against
  ``PsiMap.gradient``, which runs Newton on the xx block alone;
* ``reconstruction_residual``: how far X_F o psi_k misses phi^k - id;
* ``distinct_pairwise``: the deduplication of ``germs._distinct`` as a
  loop over pairs of points;
* ``gf2_rank`` and ``ranks_by_elimination``: H_*(X, A; Z2) of a cubical
  pair in any number m of variables, every boundary rank from bit-packed
  GF(2) elimination, against the component counts of
  ``cubical.relative_homology_z2`` (which answers for m <= 2 only);
* ``full_box_free_components``: the component count of
  ``cubical._free_components`` from a graph over every cell of the grid;
* ``full_grid_resolution_floor``: the floor of ``cubical.sublevel_pair``'s
  window check at every node, from ``np.gradient``, against
  ``cubical._resolution_floor`` at the window nodes;
* ``morse_sampling_every_grid``: ``cubical.local_morse_homology`` with
  every resolution sampled on its own grid, against the slices that grid
  takes from the finest sample when it is nested in it;
* ``any_dim_path_integrate`` and ``any_dim_plaquette_defect``: the
  assembly helpers of ``genfun`` for grids in any number m of variables,
  by loops over axes and axis pairs, against their plane forms;
* ``gf_property_report``: the critical set of F_k against the fixed set
  of phi^k, both as the grid cells where every component changes sign
  (``any_dim_sign_change_cells``, a loop over cell corners), and the
  C2/C1 ratio of F_k along shrinking boxes;
* certificates that no run reads yet, each waiting for the gate that is to
  read it (ROADMAP items 1, 4, 9 and 10): ``contraction_check``, the C1
  bound on phi - id against 1/c(k) (``LinearizationNotIdentity`` unless
  dphi(0) = id); ``split_spectral``, the projectors onto the spectral
  subspaces near and away from 1 (``SplitFailed`` when an eigenvalue is too
  near 1 to place), and ``splitting_ratio_report``, the Lipschitz ratio of
  the graph v(w) over that split; ``homotopy_isolation_scan``
  (``ScanReport``), the isolation of the critical point along
  t F_k + (1 - t) k F; ``fixed_point_index``, the Brouwer degree of
  phi^k - id.
"""
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np
import scipy.linalg
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from localfloer.cubical import (
    CubicalPair,
    GradedRanks,
    MorseReport,
    _node_radii,
    _sample,
    gradient_degree,
    relative_homology_z2,
    sublevel_pair,
)
from localfloer.errors import (
    ClusterAmbiguous,
    LocalFloerError,
    NewtonDivergence,
    NonIsolated,
    NotInvertibleOnBox,
    NotStabilized,
)
from localfloer.fields import SHELL, Box, SampledField, grid_gradient
from localfloer.genfun import (
    INVERT_TOL,
    GeneratingFunction,
    GermMap,
    OdeGermMap,
    _opnorms,
    generating_function,
)
from localfloer.germs import NEWTON_MAX_ITER, HamiltonianGerm, translate
from localfloer.isolation import c_constant_exact
from localfloer.symplectic import (
    SymplecticMatrix,
    admissible,
    direct_sum_indices,
    validate_symplectic,
)

# ---------------------------------------------------------------- iterates


def _reparam(t: float) -> Tuple[int, float, float]:
    """Piece (0 or 1) of a concatenation at time t, with sigma(s) and
    2 sigma'(s) at s = 2 t - piece.

    sigma(s) = g(s) / (g(s) + g(1 - s)) with g(s) = exp(-1/s), so sigma'
    is flat to infinite order at both endpoints.  Plain floats: the smooth
    callbacks of a concatenation call this once per call.
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


def smooth(germ: HamiltonianGerm) -> HamiltonianGerm:
    """A plain germ itself; a composite germ's smooth form, with its name:
    the same Hamiltonian as callbacks and no structure, so its flows
    integrate it as one system."""
    if germ.pieces is not None:
        out = smooth_concatenation(*germ.pieces)
    elif germ.factors is not None:
        out = smooth_direct_sum(*germ.factors)
    else:
        return germ
    out.name = germ.name
    return out


def smooth_concatenation(first: HamiltonianGerm, second: HamiltonianGerm) -> HamiltonianGerm:
    """``concatenate`` as the smooth time-dependent Hamiltonian
    2 sigma'(s) H_piece(sigma(s), z), with no pieces: its flows step through
    the reparametrization at the junction."""
    name = f"{first.name}#{second.name}"
    first, second = smooth(first), smooth(second)

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
        name=name,
    )


def smooth_direct_sum(g1: HamiltonianGerm, g2: HamiltonianGerm) -> HamiltonianGerm:
    """``corpus.direct_sum_germ`` as the callbacks of H1(z1) + H2(z2), with a
    Hessian assembled by fancy indexing and no factors: its flows integrate
    one system of dimension 2 (n1 + n2)."""
    name = f"{g1.name}(+){g2.name}"
    g1, g2 = smooth(g1), smooth(g2)
    n = g1.n + g2.n
    i1, i2 = direct_sum_indices(g1.n, g2.n)

    def value(t, z):
        return g1.value(t, z[:, i1]) + g2.value(t, z[:, i2])

    def grad(t, z):
        out = np.zeros_like(z)
        out[:, i1] = g1.grad(t, z[:, i1])
        out[:, i2] = g2.grad(t, z[:, i2])
        return out

    def jet(t, z):
        grad = np.zeros_like(z)
        hess = np.zeros((len(z), 2 * n, 2 * n))
        grad[:, i1], hess[:, i1[:, None], i1[None, :]] = g1.jet(t, z[:, i1])
        grad[:, i2], hess[:, i2[:, None], i2[None, :]] = g2.jet(t, z[:, i2])
        return grad, hess

    return HamiltonianGerm(n=n, value=value, grad=grad, jet=jet, name=name)


def iterate(germ: HamiltonianGerm, k: int) -> HamiltonianGerm:
    """Germ whose unit-time flow is the k-th iterate: k H(k t mod 1, z),
    with the callbacks of ``smooth(germ)``.  A direct sum keeps its factors,
    iterated, and its flows run them."""
    if k < 1:
        raise ValueError("iteration order must be >= 1")
    if k == 1:
        return germ
    base = smooth(germ)

    def wrap(f):
        def wrapped(t, z):
            s = (k * t) % 1.0
            return k * f(s, z)

        return wrapped

    def jet(t, z):
        grad, hess = base.jet((k * t) % 1.0, z)
        return k * grad, k * hess

    return HamiltonianGerm(
        n=germ.n,
        value=wrap(base.value),
        grad=wrap(base.grad),
        jet=jet,
        name=f"{germ.name}^'{k}" if germ.name else "",
        factors=tuple(iterate(f, k) for f in germ.factors) if germ.factors else None,
    )


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


def maximizing_orbit(k: int) -> np.ndarray:
    """A zero-mean sequence achieving equality in the c(k) bound (m = 1):
    1/2 on positions 1..floor(k/2), minus its mean."""
    if k < 2:
        raise ValueError("need k >= 2")
    h = k // 2
    mean = Fraction(h, 2 * k)
    xi = [Fraction(1, 2) if 1 <= l <= h else Fraction(0) for l in range(k)]
    return np.array([float(v - mean) for v in xi])[:, None]


# ------------------------------------------------------- admissible orders


@dataclass(frozen=True)
class AdmissibleSet:
    """Forbidden divisors plus a quasi-arithmetic witness progression."""

    forbidden_divisors: tuple
    progression_start: int
    progression_step: int
    horizon: int

    def members(self) -> list:
        return list(range(self.progression_start, self.horizon + 1, self.progression_step))


def admissible_set(m: SymplecticMatrix, horizon: int = 1000) -> AdmissibleSet:
    """Describe the admissible iteration orders of M up to a horizon.

    The admissible set is the complement of finitely many divisibility classes.
    The witness progression (1 + P, P) with P the product of the distinct
    forbidden divisors consists of admissible orders; for a matrix with no
    forbidden divisors every order is admissible and the progression is (1, 1).
    """
    forbidden = tuple(m.eigen.unit_root_orders())
    if not forbidden:
        described = AdmissibleSet((), 1, 1, horizon)
    else:
        prod = 1
        for q in forbidden:
            prod *= q
        described = AdmissibleSet(forbidden, 1 + prod, prod, horizon)
    for member in described.members():
        if not admissible(m, member):
            raise ClusterAmbiguous(f"witness progression member {member} is not admissible")
    return described


# --------------------------------------------------------- deduplication


def distinct_pairwise(points: np.ndarray, tol: float) -> np.ndarray:
    """Points ordered by (norm, coordinates), less those within Euclidean
    distance tol of a point kept before them, one pair at a time."""
    keep = []
    for p in sorted(points, key=lambda q: (float(np.linalg.norm(q)), tuple(q))):
        if all(np.linalg.norm(p - q) > tol for q in keep):
            keep.append(p)
    return np.array(keep).reshape(-1, points.shape[1])


# ------------------------------------------------------ cubical components


def gf2_rank(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """Rank over GF(2) of the nrows x ncols matrix with ones at (rows, cols),
    by Gaussian elimination on rows packed into 64-bit words."""
    if nrows == 0 or ncols == 0 or len(rows) == 0:
        return 0
    words = (ncols + 63) // 64
    mat = np.zeros((nrows, words), dtype=np.uint64)
    np.bitwise_or.at(
        mat,
        (rows, cols >> 6),
        np.uint64(1) << (cols.astype(np.uint64) & np.uint64(63)),
    )
    rank = 0
    one = np.uint64(1)
    for col in range(ncols):
        w = col >> 6
        bit = one << np.uint64(col & 63)
        candidates = np.nonzero(mat[rank:, w] & bit)[0]
        if candidates.size == 0:
            continue
        p = rank + int(candidates[0])
        if p != rank:
            mat[[rank, p]] = mat[[p, rank]]
        others = np.nonzero(mat[:, w] & bit)[0]
        others = others[others != rank]
        if others.size:
            mat[others] ^= mat[rank]
        rank += 1
        if rank == nrows:
            break
    return rank


def ranks_by_elimination(pair: CubicalPair) -> GradedRanks:
    """H_*(X, A; Z2) with every boundary rank from GF(2) elimination."""
    m = pair.m
    ids, counts = [], []
    for d in range(m + 1):
        offset, layer = 0, {}
        for dirs, mask in pair.relative_cell_masks(d).items():
            idx = -np.ones(mask.shape, dtype=np.int64)
            cnt = int(np.sum(mask))
            idx[mask] = offset + np.arange(cnt)
            offset += cnt
            layer[dirs] = idx
        ids.append(layer)
        counts.append(offset)

    def boundary_rank(d):
        rows, cols = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
        for dirs, idx_d in ids[d].items():
            for ax in dirs:
                idx_f = ids[d - 1][tuple(x for x in dirs if x != ax)]
                lo = [slice(None)] * m
                hi = [slice(None)] * m
                lo[ax] = slice(0, -1)
                hi[ax] = slice(1, None)
                for face_ids in (idx_f[tuple(lo)], idx_f[tuple(hi)]):
                    keep = (idx_d >= 0) & (face_ids >= 0)
                    rows.append(idx_d[keep])
                    cols.append(face_ids[keep])
        return gf2_rank(counts[d], counts[d - 1], np.concatenate(rows), np.concatenate(cols))

    b_rank = [0] + [boundary_rank(d) for d in range(1, m + 1)] + [0]
    return GradedRanks.from_dict(
        {d: counts[d] - b_rank[d] - b_rank[d + 1] for d in range(m + 1)}
    )


def full_box_free_components(sink: np.ndarray, joined) -> int:
    """Components of the cell graph that meet no sink cell, from a graph
    over every cell: joined[ax] joins each cell to its neighbour one step
    up along ax, and a component counts when none of its cells is a sink."""
    m = sink.ndim
    flat = np.arange(sink.size).reshape(sink.shape)
    lo, hi = [], []
    for ax, j in enumerate(joined):
        below = [slice(None)] * m
        above = [slice(None)] * m
        below[ax], above[ax] = slice(0, -1), slice(1, None)
        lo.append(flat[tuple(below)][j])
        hi.append(flat[tuple(above)][j])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    graph = coo_matrix((np.ones(lo.size, dtype=np.int8), (lo, hi)), shape=(sink.size,) * 2)
    ncomp, labels = connected_components(graph, directed=False)
    hit = np.zeros(ncomp, dtype=bool)
    hit[labels[sink.ravel()]] = True
    return ncomp - int(np.count_nonzero(hit))


def full_grid_resolution_floor(g: np.ndarray, h: float) -> np.ndarray:
    """0.75 h |Hess|_F at every node, Hess from np.gradient of g's components."""
    m = g.shape[-1]
    hess_sq = np.zeros(g.shape[:-1])
    for i in range(m):
        comps = np.gradient(g[..., i], h, edge_order=1)
        for cgrid in [comps] if m == 1 else comps:
            hess_sq += cgrid * cgrid
    return 0.75 * h * np.sqrt(hess_sq)


def morse_sampling_every_grid(f, box: Box, resolutions, grad=None, exclude_fraction=0.5):
    """local_morse_homology for valid input (m <= 2, two or more odd
    resolutions), sampling f (and grad) on every grid of its own."""
    res_sorted = sorted(int(r) for r in resolutions)
    c = float(np.asarray(f(np.zeros((1, box.m))))[0])
    fine = res_sorted[-1]
    values_fine, g_fine = _sample(f, grad, box, fine)
    gn_fine = np.linalg.norm(g_fine, axis=-1)
    radii = _node_radii(box, fine)
    shell_mask = (radii >= SHELL[0] * box.radius) & (radii <= SHELL[1] * box.radius)
    scale = max(float(np.max(gn_fine)), 1e-300)
    if float(np.min(gn_fine[shell_mask])) <= 1e-9 * scale:
        raise NonIsolated(
            "gradient vanishes on the shell; the critical point is not isolated"
        )
    results, deltas = [], []
    for res in res_sorted:
        if res == fine:
            values, g, gn = values_fine, g_fine, gn_fine
        else:
            values, g = _sample(f, grad, box, res)
            gn = np.linalg.norm(g, axis=-1)
        d = box.spacing(res) * max(float(np.median(gn)), 0.05 * float(np.max(gn)))
        pair = sublevel_pair(values, g, c, d, box, exclude_fraction=exclude_fraction)
        results.append(relative_homology_z2(pair))
        deltas.append(d)
    if results[-1] != results[-2]:
        raise NotStabilized(
            f"ranks {results[-2].as_dict()} at {res_sorted[-2]} vs "
            f"{results[-1].as_dict()} at {res_sorted[-1]}"
        )
    return MorseReport(
        ranks=results[-1],
        resolutions=tuple(res_sorted),
        deltas=tuple(deltas),
        per_resolution=tuple(results),
    )


# ------------------------------------------------- generating-function assembly


def any_dim_path_integrate(grad_grid: np.ndarray, spacing: float) -> np.ndarray:
    """Potential from gradient samples by trapezoid sweeps from the center node.

    grad_grid has shape (res,) * m + (m,).  Axis d is integrated on the slab
    where axes > d sit at their center index, then broadcast.
    """
    shape = grad_grid.shape[:-1]
    m = grad_grid.shape[-1]
    res = shape[0]
    c = res // 2
    f = np.zeros(shape)
    for d in range(m):
        g = grad_grid[..., d]
        # restrict axes > d to center
        idx: List[object] = [slice(None)] * (d + 1) + [c] * (m - d - 1)
        line = g[tuple(idx)]
        # cumulative trapezoid along axis d away from the center index
        cum = np.zeros_like(line)
        pair = 0.5 * spacing * (np.take(line, range(0, res - 1), axis=d) + np.take(line, range(1, res), axis=d))
        fwd = np.cumsum(np.take(pair, range(c, res - 1), axis=d), axis=d)
        bwd = np.cumsum(np.take(pair, range(c - 1, -1, -1), axis=d), axis=d)
        front = [slice(None)] * d
        cum[tuple(front + [slice(c + 1, res)])] = fwd
        cum[tuple(front + [slice(c - 1, None, -1)])] = -bwd
        f += cum.reshape(shape[: d + 1] + (1,) * (m - d - 1))
    return f


def any_dim_plaquette_defect(grad_grid: np.ndarray, spacing: float) -> float:
    """Max trapezoid circulation of the sampled 1-form over unit grid cells."""
    m = grad_grid.shape[-1]
    worst = 0.0
    for a in range(m):
        for b in range(a + 1, m):
            ga = grad_grid[..., a]
            gb = grad_grid[..., b]

            def shift(arr, axis, lo):
                sl = [slice(None)] * arr.ndim
                sl[axis] = slice(0, -1) if lo else slice(1, None)
                return arr[tuple(sl)]

            ga00 = shift(shift(ga, a, True), b, True)
            ga10 = shift(shift(ga, a, False), b, True)
            ga01 = shift(shift(ga, a, True), b, False)
            ga11 = shift(shift(ga, a, False), b, False)
            gb00 = shift(shift(gb, a, True), b, True)
            gb10 = shift(shift(gb, a, False), b, True)
            gb01 = shift(shift(gb, a, True), b, False)
            gb11 = shift(shift(gb, a, False), b, False)
            loop = 0.5 * spacing * (
                (ga00 + ga10) + (gb10 + gb11) - (ga01 + ga11) - (gb00 + gb01)
            )
            worst = max(worst, float(np.max(np.abs(loop))))
    return worst


def any_dim_sign_change_cells(comp_grid: np.ndarray) -> np.ndarray:
    """Boolean mask of grid cells where the component attains both signs."""
    m = comp_grid.ndim
    pos = comp_grid > 0
    neg = comp_grid < 0
    zero = comp_grid == 0

    def cell_any(mask):
        out = None
        for corner in range(1 << m):
            sl = tuple(
                slice(1, None) if corner >> d & 1 else slice(0, -1) for d in range(m)
            )
            out = mask[sl] if out is None else out | mask[sl]
        return out

    return (cell_any(pos) & cell_any(neg)) | cell_any(zero)


# ------------------------------------------- generating-function properties

# gf_property_report: shrinking boxes, and their grid resolution
SHRINK_STEPS = 4
SHRINK_RESOLUTION = 33


def _zero_cells(box: Box, vector_grid: np.ndarray) -> np.ndarray:
    """Centers of the grid cells where every component of a plane vector
    field, sampled at the box nodes with shape (res, res, 2), changes sign."""
    mask = any_dim_sign_change_cells(vector_grid[..., 0]) & any_dim_sign_change_cells(
        vector_grid[..., 1]
    )
    centers = [0.5 * (a[:-1] + a[1:]) for a in box.axes(vector_grid.shape[0])]
    return np.stack(np.meshgrid(*centers, indexing="ij"), axis=-1)[mask]


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    if len(a) == 0 and len(b) == 0:
        return 0.0
    if len(a) == 0 or len(b) == 0:
        return float("inf")
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def gf_property_report(phi: GermMap, gf: GeneratingFunction) -> dict:
    """Critical set of F against fixed set of phi^k, plus the C2/C1 ratio
    along shrinking boxes.  Violations are flagged, not raised."""
    box = gf.field.box
    res = gf.field.resolution
    crit_pts = _zero_cells(box, grid_gradient(gf.field.values, box))

    phi_k = phi.iterate(gf.order)
    nodes = box.nodes(res)
    fixed_pts = _zero_cells(box, (phi_k(nodes) - nodes).reshape(res, res, 2))

    tol = 3.0 * box.spacing(res)
    haus = _hausdorff(crit_pts, fixed_pts)

    ratios = []
    for j in range(SHRINK_STEPS):
        b = Box(center=box.center, radius=box.radius / 2.0**j)
        try:
            # shrinking cannot raise the C1 norm of a nonlinear germ, but a
            # linear part keeps its deviation at every scale: gate at the
            # measured norm so maps that produced gf in the first place pass
            sub = generating_function(
                phi,
                gf.order,
                b,
                SHRINK_RESOLUTION,
                c1_gate=max(1.0, 1.05 * gf.c1_norm),
                closedness_tol=np.inf,
            )
        except NotInvertibleOnBox:
            break
        gg = grid_gradient(sub.field.values, b)
        hh = np.stack([grid_gradient(gg[..., i], b) for i in range(gg.shape[-1])], axis=-1)
        c2 = max(
            float(np.max(np.abs(sub.field.values))),
            float(np.max(np.linalg.norm(gg, axis=-1))),
            float(np.max(np.abs(hh))),
        )
        sub_nodes = b.nodes(SHRINK_RESOLUTION)
        img, jacs = phi_k.value_and_jac(sub_nodes)
        d1 = float(np.max(np.linalg.norm(img - sub_nodes, axis=1)))
        d1 = max(d1, float(np.max(_opnorms(jacs - np.eye(2 * phi.n)))))
        if d1 > 0:
            ratios.append(c2 / d1)
    bounded = len(ratios) > 0 and max(ratios) <= 10.0 * (ratios[0] + 1.0)
    return {
        "critical_points": crit_pts,
        "fixed_points": fixed_pts,
        "hausdorff": haus,
        "matched": bool(haus <= tol),
        "grid_tol": tol,
        "c2_over_c1": ratios,
        "ratio_bounded": bool(bounded),
    }


# ------------------------------------------------------------- germ maps


class _ConjugatedMap(GermMap):
    def __init__(self, inner: GermMap, s: np.ndarray, s_inv: np.ndarray):
        self.inner = inner
        self.s = s
        self.s_inv = s_inv
        self.n = inner.n
        self.name = f"conj({inner.name})"

    def __call__(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.inner(z @ self.s.T) @ self.s_inv.T

    def jac(self, pts: np.ndarray) -> np.ndarray:
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.s_inv @ self.inner.jac(z @ self.s.T) @ self.s

    def iterate(self, k: int) -> "GermMap":
        if k == 1:
            return self
        return _ConjugatedMap(self.inner.iterate(k), self.s, self.s_inv)


def scaling_conjugation(n: int, s: float) -> np.ndarray:
    """The symplectic block scaling diag(s I, I / s)."""
    return np.diag([s] * n + [1.0 / s] * n)


def conjugated_map(phi: GermMap, s: np.ndarray) -> GermMap:
    """S^{-1} phi S for symplectic S.

    For the block scaling S = diag(s I, I/s) the generating functions relate
    by composition: F_{S^{-1} phi S} = F_phi o S, so a unipotent germ whose
    Jacobian violates the C1 gate can be treated after shrinking by S."""
    s = np.asarray(s, dtype=float)
    validate_symplectic(s, tol=1e-9)
    return _ConjugatedMap(phi, s, np.linalg.inv(s))


def full_jacobian_psi_gradient(phi_k: GermMap, w: np.ndarray) -> np.ndarray:
    """grad F_k at w = psi_k(z): (-v, u) with (u, v) = phi^k(z) - z, where z
    solves psi_k(z) = w by Newton on the full D psi, seeded at z = w.

    D psi is (D phi^k)_x over the identity y rows, and the residual has a y
    part too, so each step solves a 2n x 2n system for both parts of z."""
    n = phi_k.n
    w = np.atleast_2d(np.asarray(w, dtype=float))
    z = w.copy()
    j = np.broadcast_to(np.eye(2 * n), (len(w), 2 * n, 2 * n)).copy()
    for _ in range(NEWTON_MAX_ITER):
        img, d = phi_k.value_and_jac(z)
        j[:, :n, :] = d[:, :n]
        res = z.copy()
        res[:, :n] = img[:, :n]
        res -= w
        if float(np.max(np.abs(res))) <= INVERT_TOL:
            disp = img - z
            return np.concatenate([-disp[:, n:], disp[:, :n]], axis=1)
        z = z - np.linalg.solve(j, res[..., None])[..., 0]
    raise NewtonDivergence("full-Jacobian psi inversion stalled")


def reconstruction_residual(phi: GermMap, k: int, gf: GeneratingFunction, probe: np.ndarray) -> float:
    """Max norm of (phi^k - id) - X_F o psi_k at probe points, F from the grid."""
    phi_k = phi.iterate(k)
    n = phi.n
    g = grid_gradient(gf.field.values, gf.field.box)
    axes = tuple(gf.field.box.axes(gf.field.resolution))
    interps = [
        RegularGridInterpolator(axes, g[..., i], method="linear", bounds_error=False, fill_value=None)
        for i in range(2 * n)
    ]
    z = np.atleast_2d(probe)
    img = phi_k(z)
    # w = psi_k(z): the x-rows of phi^k(z) over the y-rows of z
    w = np.concatenate([img[:, :n], z[:, n:]], axis=1)
    df = np.stack([it(w) for it in interps], axis=1)
    x_f = np.concatenate([df[:, n:], -df[:, :n]], axis=1)
    disp = img - z
    return float(np.max(np.linalg.norm(disp - x_f, axis=1)))


# ------------------------------------------- certificates no run reads yet


class LinearizationNotIdentity(LocalFloerError):
    """Contraction test requires the linearization at the point to be 1."""


class SplitFailed(LocalFloerError):
    """Spectral splitting aborted: an eigenvalue sits at the tolerance boundary."""


# contraction_check: grid resolution of the C1 norm, largest |dphi(0) - id|
CONTRACTION_RESOLUTION = 33
ID_TOL = 1e-8
# splitting_ratio_report: sample points in W
SPLIT_SAMPLES = 8
# split_spectral: radius of W around 1, and of the ambiguity annulus beyond it
SPLIT_TOL = 1e-6
SPLIT_BOUNDARY_FACTOR = 10.0
# homotopy_isolation_scan: samples of t, and the least gradient norm in
# units of the central-difference error
SCAN_T_SAMPLES = 11
SCAN_MARGIN = 3.0


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


@dataclass(frozen=True)
class ScanReport:
    passed: bool
    min_grad_norm: float
    margin: float
    note: str = ""

    def __bool__(self) -> bool:
        return self.passed


def _third_difference_scale(field: SampledField) -> float:
    """Max third derivative estimate, bounding the central-difference error."""
    h = field.box.spacing(field.resolution)
    worst = 0.0
    arrs = [field.values]
    for _ in range(3):
        nxt = []
        for a in arrs:
            grads = np.gradient(a, h, edge_order=1)
            nxt.extend([grads] if field.box.m == 1 else grads)
        arrs = nxt
    for a in arrs:
        worst = max(worst, float(np.max(np.abs(a))))
    return worst


def homotopy_isolation_scan(f: SampledField, f_k: SampledField, k: int) -> ScanReport:
    """Uniform isolation of the critical point along G_t = t F_k + (1 - t) k F.

    Scans the annulus SHELL (fractions of the box radius) for zeros of
    grad G_t; passes iff the minimal gradient norm exceeds SCAN_MARGIN
    times the central-difference truncation error h^2 max|f'''| / 6."""
    if f.box != f_k.box or f.resolution != f_k.resolution:
        raise ValueError("fields must share box and resolution")
    res = f.resolution
    nodes = f.box.nodes(res)
    radii = np.max(np.abs(nodes - np.asarray(f.box.center)), axis=1)
    inner, outer = SHELL[0] * f.box.radius, SHELL[1] * f.box.radius
    mask = ((radii >= inner) & (radii <= outer)).reshape((res,) * f.box.m)
    if not np.any(mask):
        raise ValueError("empty shell")
    g1 = grid_gradient(f.values, f.box)
    g2 = grid_gradient(f_k.values, f_k.box)
    h = f.box.spacing(res)
    best = np.inf
    for t in np.linspace(0.0, 1.0, SCAN_T_SAMPLES):
        g = t * g2 + (1.0 - t) * k * g1
        norms = np.linalg.norm(g[mask], axis=-1)
        best = min(best, float(np.min(norms)))
    d3 = max(_third_difference_scale(f_k), k * _third_difference_scale(f))
    err = h**2 * d3 / 6.0 + 1e-300
    margin = best / err
    passed = bool(margin > SCAN_MARGIN)
    note = "" if passed else "gradient of the homotopy nearly vanishes on the shell"
    return ScanReport(passed=passed, min_grad_norm=best, margin=margin, note=note)


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
    phi_k = OdeGermMap(base).iterate(k)
    return gradient_degree(lambda pts: phi_k(pts) - pts, radius)
