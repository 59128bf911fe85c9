"""Z2 cubical relative homology and local Morse homology.

Sublevel pairs (X, A) = ({f <= c} n box, {f <= c - delta} n box) are realized
on a node grid: an elementary cube belongs to a mask when all its vertices
do, which makes both complexes closed and A a closed subcomplex of X.  The
homology of the pair is computed over GF(2) from relative cell counts and
boundary ranks.  The ranks of d_1 and d_m come from component counts
(H_0 and H_m, found with scipy's connected_components), so a line or plane
field needs no elimination; only d_2 .. d_{m-1} of a field in three or more
variables are ranked by bit-packed Gaussian elimination.

The sampling is an approximation; the correctness gate is stabilization of
the graded ranks across the two finest grid resolutions, plus an Euler
characteristic cross-check against the Brouwer degree of the gradient
computed independently by boundary winding (plane fields only).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    CriticalValueInWindow,
    NotIsolated,
    NotStabilized,
    WindingUnresolved,
)
from .fields import SHELL, Box, SampledField, grid_gradient
from .paths import WINDING_MAX, WINDING_START, _wind

__all__ = [
    "GradedRanks",
    "CubicalPair",
    "sublevel_pair",
    "relative_homology_z2",
    "local_morse_homology",
    "MorseReport",
    "gradient_degree",
]

# ------------------------------------------------------------- graded ranks


@dataclass(frozen=True)
class GradedRanks:
    """Finitely supported map degree -> rank."""

    items: tuple

    @classmethod
    def from_dict(cls, d: Dict[int, int]) -> "GradedRanks":
        cleaned = {int(k): int(v) for k, v in d.items() if v != 0}
        if any(v < 0 for v in cleaned.values()):
            raise ValueError("ranks must be nonnegative")
        return cls(items=tuple(sorted(cleaned.items())))

    def as_dict(self) -> Dict[int, int]:
        return dict(self.items)

    def rank(self, degree: int) -> int:
        return dict(self.items).get(degree, 0)

    @property
    def total(self) -> int:
        return sum(r for _, r in self.items)

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(d for d, _ in self.items)

    def euler(self) -> int:
        return sum((-1) ** d * r for d, r in self.items)

    def shift(self, s: int) -> "GradedRanks":
        return GradedRanks(items=tuple((d + s, r) for d, r in self.items))

    def convolve(self, other: "GradedRanks") -> "GradedRanks":
        out: Dict[int, int] = {}
        for d1, r1 in self.items:
            for d2, r2 in other.items:
                out[d1 + d2] = out.get(d1 + d2, 0) + r1 * r2
        return GradedRanks.from_dict(out)

    def to_json(self) -> Dict[str, int]:
        return {str(d): r for d, r in self.items}

    @classmethod
    def from_json(cls, data: Dict[str, int]) -> "GradedRanks":
        return cls.from_dict({int(k): int(v) for k, v in data.items()})


# ------------------------------------------------------- complexes and rank


def _axis_slice(m: int, ax: int, sl: slice) -> tuple:
    """Index of an m-dimensional array taking sl along ax and all else."""
    out = [slice(None)] * m
    out[ax] = sl
    return tuple(out)


LOWER, UPPER = slice(0, -1), slice(1, None)


def _cube_mask(node_mask: np.ndarray, dirs: Tuple[int, ...]) -> np.ndarray:
    """Mask of cubes spanned along dirs whose vertices all pass."""
    out, m = node_mask, node_mask.ndim
    for ax in dirs:
        out = out[_axis_slice(m, ax, LOWER)] & out[_axis_slice(m, ax, UPPER)]
    return out


@dataclass(frozen=True)
class CubicalPair:
    """Node masks for the pair (X, A); cells are derived lazily."""

    x_mask: np.ndarray
    a_mask: np.ndarray
    delta: float

    @property
    def m(self) -> int:
        return self.x_mask.ndim

    def __post_init__(self):
        if self.x_mask.shape != self.a_mask.shape:
            raise ValueError("mask shapes differ")
        if np.any(self.a_mask & ~self.x_mask):
            raise ValueError("A not contained in X")

    def relative_cell_masks(self, d: int) -> Dict[Tuple[int, ...], np.ndarray]:
        out = {}
        for dirs in combinations(range(self.m), d):
            out[dirs] = _cube_mask(self.x_mask, dirs) & ~_cube_mask(self.a_mask, dirs)
        return out


def _gf2_rank(nrows: int, ncols: int, rows: np.ndarray, cols: np.ndarray) -> int:
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


def _free_components(sink: np.ndarray, joined: Sequence[np.ndarray]) -> int:
    """Components of a cell graph that meet no sink cell.

    The cells are the entries of the grid-shaped boolean array sink;
    joined[ax] (one entry shorter along ax) joins each cell to its
    neighbour one step up along ax.
    """
    flat = np.arange(sink.size).reshape(sink.shape)
    lo = np.concatenate(
        [flat[_axis_slice(sink.ndim, ax, LOWER)][j] for ax, j in enumerate(joined)]
    )
    hi = np.concatenate(
        [flat[_axis_slice(sink.ndim, ax, UPPER)][j] for ax, j in enumerate(joined)]
    )
    graph = coo_matrix(
        (np.ones(lo.size, dtype=np.int8), (lo, hi)), shape=(sink.size, sink.size)
    )
    ncomp, labels = connected_components(graph, directed=False)
    hit = np.zeros(ncomp, dtype=bool)
    hit[labels[sink.ravel()]] = True
    return ncomp - int(np.count_nonzero(hit))


def _bottom_homology(pair: CubicalPair, rel_nodes: np.ndarray) -> int:
    """H_0(X, A): components of the X nodes, joined along X edges, that
    contain no A node."""
    joined = [_cube_mask(pair.x_mask, (ax,)) for ax in range(pair.m)]
    return _free_components(~rel_nodes, joined)


def _top_homology(
    pair: CubicalPair,
    rel_faces: Dict[Tuple[int, ...], np.ndarray],
    rel_top: np.ndarray,
) -> int:
    """H_m(X, A): components of relative top cells, joined across shared
    relative faces, in which no cell has a free relative face (one whose
    other side is not a top cell of X)."""
    m = pair.m
    x_top = _cube_mask(pair.x_mask, tuple(range(m)))
    sink = ~rel_top
    joined = []
    for ax in range(m):
        face = rel_faces[tuple(d for d in range(m) if d != ax)]
        widths = [(1, 1) if d == ax else (0, 0) for d in range(m)]
        padded = np.pad(x_top, widths)
        below = padded[_axis_slice(m, ax, LOWER)]
        above = padded[_axis_slice(m, ax, UPPER)]
        # face j is the lower face of cell j and the upper face of cell j - 1
        sink |= (face & ~below)[_axis_slice(m, ax, LOWER)]
        sink |= (face & ~above)[_axis_slice(m, ax, UPPER)]
        # a join next to a cell outside X only links two sinks
        joined.append(face[_axis_slice(m, ax, slice(1, -1))])
    return _free_components(sink, joined)


CellIds = Dict[Tuple[int, ...], np.ndarray]


def _cell_ids(masks: Dict[Tuple[int, ...], np.ndarray]) -> CellIds:
    """Consecutive ids of the cells of one degree, -1 off the masks."""
    offset = 0
    out = {}
    for dirs, mask in masks.items():
        idx = -np.ones(mask.shape, dtype=np.int64)
        cnt = int(np.count_nonzero(mask))
        idx[mask] = offset + np.arange(cnt)
        offset += cnt
        out[dirs] = idx
    return out


def _boundary_rank(
    m: int,
    ids_d: CellIds,
    ids_f: CellIds,
    nrows: int,
    ncols: int,
) -> int:
    """Rank of the relative boundary map from the cells ids_d to ids_f."""
    rows_all: List[np.ndarray] = []
    cols_all: List[np.ndarray] = []
    for dirs, idx_d in ids_d.items():
        cell_ok = idx_d >= 0
        for ax in dirs:
            idx_f = ids_f[tuple(x for x in dirs if x != ax)]
            for sl in (LOWER, UPPER):
                face_ids = idx_f[_axis_slice(m, ax, sl)]
                keep = cell_ok & (face_ids >= 0)
                rows_all.append(idx_d[keep])
                cols_all.append(face_ids[keep])
    return _gf2_rank(nrows, ncols, np.concatenate(rows_all), np.concatenate(cols_all))


def relative_homology_z2(pair: CubicalPair) -> GradedRanks:
    """Ranks of H_*(X, A; Z2).

    H_d = c_d - rank d_d - rank d_{d+1}, with c_d the relative cell counts.
    The two end boundary ranks come from component counts, rank d_1 =
    c_0 - H_0 and rank d_m = c_m - H_m (see _bottom_homology and
    _top_homology).  The top count is exact: every coface in X of a
    relative face is itself relative (A is closed), and a face has at most
    two cofaces, so a relative top cycle is a union of components closed
    under crossing relative faces, none with a free face.  Only
    d_2 .. d_{m-1}, which exist for m >= 3, are ranked by elimination.
    """
    m = pair.m
    cell_masks = [pair.relative_cell_masks(d) for d in range(m + 1)]
    counts = [sum(int(np.count_nonzero(c)) for c in cm.values()) for cm in cell_masks]
    b_rank = [0] * (m + 2)
    b_rank[1] = counts[0] - _bottom_homology(pair, cell_masks[0][()])
    if m >= 2:
        top = cell_masks[m][tuple(range(m))]
        b_rank[m] = counts[m] - _top_homology(pair, cell_masks[m - 1], top)
    # cell ids only for the degrees that feed the middle eliminations
    ids = {d: _cell_ids(cell_masks[d]) for d in range(1, m)} if m >= 3 else {}
    for d in range(2, m):
        b_rank[d] = _boundary_rank(m, ids[d], ids[d - 1], counts[d], counts[d - 1])
    return GradedRanks.from_dict(
        {d: counts[d] - b_rank[d] - b_rank[d + 1] for d in range(m + 1)}
    )


# ----------------------------------------------------------- sublevel pairs


FieldLike = Union[SampledField, Callable[[np.ndarray], np.ndarray]]


def _as_callable(f: FieldLike) -> Callable[[np.ndarray], np.ndarray]:
    if isinstance(f, SampledField):
        return f.interpolator()
    return f


def _sample(
    fn: Callable, grad: Optional[Callable], box: Box, resolution: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Field values, shape (res,) * m, and gradients, shape (res,) * m + (m,),
    at the box grid nodes; without grad, gradients are central differences."""
    nodes = box.nodes(resolution)
    shape = (resolution,) * box.m
    values = np.asarray(fn(nodes), dtype=float).reshape(shape)
    if grad is not None:
        return values, np.asarray(grad(nodes), dtype=float).reshape(shape + (box.m,))
    return values, grid_gradient(values, box)


def sublevel_pair(
    values: np.ndarray,
    g: np.ndarray,
    c: float,
    delta: float,
    box: Box,
    exclude_fraction: float = 0.5,
) -> CubicalPair:
    """The pair ({f <= c}, {f <= c - delta}) on the box grid.

    values and g are f and its gradient sampled at the box grid nodes.

    Checks that no critical point with value inside [c - delta, c + delta]
    exists away from the center: at any node in the value window outside
    exclude_fraction of the box the gradient must exceed a per-node
    resolution floor 0.75 h |Hess|_F, below which a zero of the gradient
    within one node spacing cannot be ruled out (half-diagonal reach
    h sqrt(m)/2 times operator norm, estimated as |Hess|_F / sqrt(m)).
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    resolution = values.shape[0]
    h = box.spacing(resolution)
    gnorm = np.linalg.norm(g, axis=-1)
    hess_sq = np.zeros_like(values)
    for i in range(box.m):
        comps = np.gradient(g[..., i], h, edge_order=1)
        if box.m == 1:
            comps = [comps]
        for cgrid in comps:
            hess_sq += cgrid * cgrid
    floor = 0.75 * h * np.sqrt(hess_sq)
    radii = np.max(
        np.abs(box.nodes(resolution) - np.asarray(box.center)), axis=1
    ).reshape(values.shape)
    window = (
        (values >= c - delta)
        & (values <= c + delta)
        & (radii > exclude_fraction * box.radius)
    )
    bad = window & (gnorm <= floor)
    if np.any(bad):
        weakest = float(np.min(gnorm[bad]))
        there = float(np.max(floor[bad]))
        raise CriticalValueInWindow(
            f"gradient norm {weakest:.3e} under resolution floor (up to {there:.3e}) "
            f"at a node with value inside [c - delta, c + delta]"
        )
    snap = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    return CubicalPair(
        x_mask=values <= c + snap,
        a_mask=values <= c - delta,
        delta=delta,
    )


# ------------------------------------------------------ local Morse homology


@dataclass(frozen=True)
class MorseReport:
    ranks: GradedRanks
    resolutions: tuple
    deltas: tuple
    per_resolution: tuple

    def to_json(self) -> dict:
        return {
            "ranks": self.ranks.to_json(),
            "resolutions": list(self.resolutions),
            "deltas": list(self.deltas),
            "per_resolution": [r.to_json() for r in self.per_resolution],
        }


def local_morse_homology(
    f: FieldLike,
    box: Box,
    resolutions: Sequence[int] = (17, 25, 33),
    delta: Optional[float] = None,
    grad: Optional[Callable] = None,
    exclude_fraction: float = 0.5,
    return_report: bool = False,
):
    """Local Morse homology of f at the origin over Z2.

    Computes sublevel-pair homology at each resolution and requires the
    graded ranks to agree across the two finest (NotStabilized otherwise).
    The critical point must be isolated: the gradient may not vanish on the
    SHELL annulus (NotIsolated).

    The default delta at each resolution is h times the median gradient
    norm over the box: wide enough that the gap between the sub-c and
    sub-(c - delta) sets resolves on the grid, narrow enough that the
    collar stays inside the box; pass an explicit delta to override.
    """
    if box.m == 4 and max(resolutions) > 33:
        raise ValueError("dimension 4 restricted to resolutions <= 33")
    if len(resolutions) < 2:
        raise ValueError("need at least two resolutions for the stabilization gate")
    res_sorted = sorted(int(r) for r in resolutions)
    fn = _as_callable(f)
    c = float(np.asarray(fn(np.zeros((1, box.m))))[0])

    fine = res_sorted[-1]
    values_fine, g_fine = _sample(fn, grad, box, fine)
    radii = np.max(np.abs(box.nodes(fine) - np.asarray(box.center)), axis=1).reshape(
        values_fine.shape
    )
    shell_mask = (radii >= SHELL[0] * box.radius) & (radii <= SHELL[1] * box.radius)
    gnorm_shell = np.linalg.norm(g_fine[shell_mask], axis=-1)
    scale = max(float(np.max(np.linalg.norm(g_fine, axis=-1))), 1e-300)
    if float(np.min(gnorm_shell)) <= 1e-9 * scale:
        raise NotIsolated(
            "gradient vanishes on the shell; the critical point is not isolated"
        )

    results = []
    deltas = []
    for res in res_sorted:
        values, g = (values_fine, g_fine) if res == fine else _sample(fn, grad, box, res)
        if delta is not None:
            d = delta
        else:
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
    report = MorseReport(
        ranks=results[-1],
        resolutions=tuple(res_sorted),
        deltas=tuple(deltas),
        per_resolution=tuple(results),
    )
    return report if return_report else results[-1]


# ------------------------------------------------------------ degree oracle


def gradient_degree(grad: Callable[[np.ndarray], np.ndarray], radius: float) -> int:
    """Brouwer degree of a plane vector field at 0: the winding of its direction
    around the probe circle, sampled by paths._wind with one grad call per round."""

    def direction(t: np.ndarray) -> np.ndarray:
        v = np.asarray(grad(radius * np.stack([np.cos(t), np.sin(t)], axis=1)), dtype=float)
        c = v[:, 0] + 1j * v[:, 1]
        norms = np.abs(c)
        if float(np.min(norms)) <= 0.0:
            raise WindingUnresolved("vector field vanishes on the probe circle")
        return c / norms

    turns = _wind(direction, 2.0 * np.pi, WINDING_START, WINDING_MAX) / (2.0 * np.pi)
    deg = round(turns)
    if abs(turns - deg) > 0.05:
        raise WindingUnresolved(f"winding {turns} not near an integer")
    return int(deg)
