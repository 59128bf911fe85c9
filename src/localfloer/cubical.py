"""Z2 cubical relative homology and local Morse homology in one or two variables.

Sublevel pairs (X, A) = ({f <= c} n box, {f <= c - delta} n box) are realized
on a node grid: an elementary cube belongs to a mask when all its vertices
do, which makes both complexes closed and A a closed subcomplex of X.  The
homology of the pair is computed over GF(2) from relative cell counts and
the ranks of d_1 and d_m, which for m <= 2 are all the boundary maps: they
come from component counts (H_0 and H_m, found by min-label hooking with
pointer jumping) on the relative cells of X minus A only, so their
cost follows the collar, not the box.  Three or more variables are refused
with ValueError; their middle degrees would need an elimination, and no
route builds such a complex.  Each grid node is sampled once: a grid
nested in the finest one is sliced from its sample.  The window check of
sublevel_pair reads only the nodes in its value window.

The sampling is an approximation; the correctness gate is stabilization of
the graded ranks across the two finest grid resolutions, plus an Euler
characteristic cross-check against the Brouwer degree of the gradient
computed independently by boundary winding (plane fields only).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .errors import (
    CriticalValueInWindow,
    NonIsolated,
    NotStabilized,
    WindingUnresolved,
)
from .fields import SHELL, Box
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

# the resolutions at which local Morse homology must stabilize, unless set
HM_RESOLUTIONS = (17, 25, 33)
# sublevel_pair looks for spurious critical values outside this fraction of
# the box radius, unless set
EXCLUDE_FRACTION = 0.5

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


def _free_components(sink: np.ndarray, joined: Sequence[np.ndarray]) -> int:
    """Components of a cell graph that meet no sink cell.

    The cells are the entries of the grid-shaped boolean array sink;
    joined[ax] (one entry shorter along ax) joins each cell to its
    neighbour one step up along ax.  The graph is built on the free cells
    (those not in sink) only, so its size follows the relative cells, not
    the grid: a join of two free cells is an edge, and a join of a free
    cell to a sink cell marks the free cell's component.
    """
    m, free = sink.ndim, ~sink
    nfree = int(np.count_nonzero(free))
    if nfree == 0:
        return 0
    ids = np.full(sink.shape, -1, dtype=np.int64)
    ids[free] = np.arange(nfree)
    lo: List[np.ndarray] = []
    hi: List[np.ndarray] = []
    marked: List[np.ndarray] = []
    for ax, j in enumerate(joined):
        free_lo = free[_axis_slice(m, ax, LOWER)]
        free_hi = free[_axis_slice(m, ax, UPPER)]
        ids_lo = ids[_axis_slice(m, ax, LOWER)]
        ids_hi = ids[_axis_slice(m, ax, UPPER)]
        edge = j & free_lo & free_hi
        lo.append(ids_lo[edge])
        hi.append(ids_hi[edge])
        marked.append(ids_lo[j & free_lo & ~free_hi])
        marked.append(ids_hi[j & free_hi & ~free_lo])
    roots = _component_roots(nfree, np.concatenate(lo), np.concatenate(hi))
    ncomp = int(np.count_nonzero(roots == np.arange(nfree)))
    hit = np.zeros(nfree, dtype=bool)
    hit[roots[np.concatenate(marked)]] = True
    return ncomp - int(np.count_nonzero(hit))


def _component_roots(n: int, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The least vertex of each vertex's component, in the graph on
    vertices 0 .. n-1 with edges (lo[e], hi[e]).

    Min-label hooking with pointer jumping: every parent is at most its
    vertex, and each round hooks the root of each edge's larger-rooted end
    onto the smaller root, then jumps every vertex to its root.  A
    component that still meets another merges with one of them each
    round, so the rounds are logarithmic in the number of vertices.
    """
    parent = np.arange(n)
    while True:
        a, b = parent[lo], parent[hi]
        apart = a != b
        if not np.any(apart):
            return parent
        a, b = a[apart], b[apart]
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


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


def relative_homology_z2(pair: CubicalPair) -> GradedRanks:
    """Ranks of H_*(X, A; Z2) for a pair in one or two variables.

    H_d = c_d - rank d_d - rank d_{d+1}, with c_d the relative cell counts.
    For m <= 2 the boundary ranks are rank d_1 = c_0 - H_0 and rank d_m =
    c_m - H_m, from component counts (_bottom_homology, _top_homology).
    The top count is exact: every coface in X of a relative face is itself
    relative (A is closed), and a face has at most two cofaces, so a
    relative top cycle is a union of components closed under crossing
    relative faces, none with a free face.  ValueError for m >= 3, whose
    d_2 .. d_{m-1} would need an elimination that no route reaches.
    """
    m = pair.m
    if m not in (1, 2):
        raise ValueError(f"cubical homology answers for 1 or 2 variables, not {m}")
    cell_masks = [pair.relative_cell_masks(d) for d in range(m + 1)]
    counts = [sum(int(np.count_nonzero(c)) for c in cm.values()) for cm in cell_masks]
    b_rank = [0] * (m + 2)
    b_rank[1] = counts[0] - _bottom_homology(pair, cell_masks[0][()])
    if m == 2:
        b_rank[2] = counts[2] - _top_homology(pair, cell_masks[1], cell_masks[2][(0, 1)])
    return GradedRanks.from_dict(
        {d: counts[d] - b_rank[d] - b_rank[d + 1] for d in range(m + 1)}
    )


# ----------------------------------------------------------- sublevel pairs


def _sample(
    fn: Callable, grad: Callable, box: Box, resolution: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Field values, shape (res,) * m, and gradients, shape (res,) * m + (m,),
    at the box grid nodes."""
    nodes = box.nodes(resolution)
    shape = (resolution,) * box.m
    values = np.asarray(fn(nodes), dtype=float).reshape(shape)
    return values, np.asarray(grad(nodes), dtype=float).reshape(shape + (box.m,))


def _nested_step(box: Box, res: int, fine: int) -> int:
    """s such that the res grid is every s-th node of the fine grid, axis
    entries equal bit for bit, or 0 when it is not."""
    if (fine - 1) % (res - 1):
        return 0
    s = (fine - 1) // (res - 1)
    pairs = zip(box.axes(res), box.axes(fine))
    return s if all(np.array_equal(a, b[::s]) for a, b in pairs) else 0


def _node_radii(box: Box, resolution: int) -> np.ndarray:
    """max_i |x_i - c_i| at the box grid nodes, shape (res,) * m, broadcast
    from the axes instead of read from box.nodes."""
    offsets = [np.abs(axis - c) for axis, c in zip(box.axes(resolution), box.center)]
    return reduce(np.maximum, np.ix_(*offsets))


def _resolution_floor(g: np.ndarray, at: Tuple[np.ndarray, ...], h: float) -> np.ndarray:
    """0.75 h |Hess|_F at the grid nodes at (index arrays, as np.nonzero
    gives them), Hess read from g as np.gradient(g[..., i], h,
    edge_order=1) would: central differences, one-sided on the box faces."""
    res, m = g.shape[0], g.shape[-1]
    hess_sq = np.zeros(len(at[0]))
    for i in range(m):
        for ax in range(m):
            up = np.minimum(at[ax] + 1, res - 1)
            down = np.maximum(at[ax] - 1, 0)
            above = at[:ax] + (up,) + at[ax + 1 :] + (i,)
            below = at[:ax] + (down,) + at[ax + 1 :] + (i,)
            cgrid = (g[above] - g[below]) / ((up - down) * h)
            hess_sq += cgrid * cgrid
    return 0.75 * h * np.sqrt(hess_sq)


def sublevel_pair(
    values: np.ndarray,
    g: np.ndarray,
    c: float,
    delta: float,
    box: Box,
    exclude_fraction: float = EXCLUDE_FRACTION,
) -> CubicalPair:
    """The pair ({f <= c}, {f <= c - delta}) on the box grid.

    values and g are f and its gradient sampled at the box grid nodes.

    Checks that no critical point with value inside [c - delta, c + delta]
    exists away from the center: at any node in the value window outside
    exclude_fraction of the box the gradient must exceed a per-node
    resolution floor 0.75 h |Hess|_F, below which a zero of the gradient
    within one node spacing cannot be ruled out (half-diagonal reach
    h sqrt(m)/2 times operator norm, estimated as |Hess|_F / sqrt(m)).
    The gradient norm and the floor are read at the window nodes only.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    resolution = values.shape[0]
    h = box.spacing(resolution)
    window = np.nonzero(
        (values >= c - delta)
        & (values <= c + delta)
        & (_node_radii(box, resolution) > exclude_fraction * box.radius)
    )
    gnorm = np.linalg.norm(g[window], axis=-1)
    floor = _resolution_floor(g, window, h)
    bad = gnorm <= floor
    if np.any(bad):
        weakest = float(np.min(gnorm[bad]))
        there = float(np.max(floor[bad]))
        raise CriticalValueInWindow(
            f"gradient norm {weakest:.3e} under resolution floor (up to {there:.3e}) "
            f"at a node with value inside [c - delta, c + delta]"
        )
    snap = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    return CubicalPair(x_mask=values <= c + snap, a_mask=values <= c - delta)


# ------------------------------------------------------ local Morse homology


@dataclass(frozen=True)
class MorseReport:
    ranks: GradedRanks
    resolutions: tuple
    deltas: tuple
    per_resolution: tuple


def local_morse_homology(
    f: Callable[[np.ndarray], np.ndarray],
    box: Box,
    resolutions: Sequence[int] = HM_RESOLUTIONS,
    *,
    grad: Callable[[np.ndarray], np.ndarray],
    exclude_fraction: float = EXCLUDE_FRACTION,
) -> MorseReport:
    """Local Morse homology of f at the origin over Z2; f maps points
    (N, m) to values (N,), as a sampled field's ``interpolator()`` does,
    and grad maps them to the gradient of f, shape (N, m).

    Computes sublevel-pair homology at each resolution and requires the
    graded ranks to agree across the two finest (NotStabilized otherwise).
    Resolutions must be distinct, so that the gate compares two grids, and
    odd and at least 3, so that the origin is an inner grid node; the box is
    of m <= 2, where relative_homology_z2 answers (ValueError before sampling).
    The critical point must be isolated: the gradient may not vanish on the
    SHELL annulus (NonIsolated).

    The delta at each resolution is h times the median gradient norm over
    the box: wide enough that the gap between the sub-c and sub-(c - delta)
    sets resolves on the grid, narrow enough that the collar stays inside
    the box.
    A grid nested in the finest (_nested_step) is sliced from its sample,
    values and gradients: for point-by-point f and grad, the bits of
    sampling it anew.
    """
    if box.m > 2:
        raise ValueError(f"local Morse homology answers for 1 or 2 variables, not {box.m}")
    res_sorted = sorted(int(r) for r in resolutions)
    if len(res_sorted) < 2 or len(set(res_sorted)) < len(res_sorted):
        raise ValueError("need at least two distinct resolutions for the stabilization gate")
    if any(r < 3 or r % 2 == 0 for r in res_sorted):
        raise ValueError("resolutions must be odd and at least 3 so the origin is an inner node")
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

    results = []
    deltas = []
    for res in res_sorted:
        s = _nested_step(box, res, fine)
        if s:
            at = (slice(None, None, s),) * box.m
            values, g, gn = values_fine[at], g_fine[at], gn_fine[at]
        else:
            values, g = _sample(f, grad, box, res)
            gn = np.linalg.norm(g, axis=-1)
        d = box.spacing(res) * max(_median(gn), 0.05 * float(np.max(gn)))
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


def _median(a: np.ndarray) -> float:
    """The median of the entries of a, the mean of the middle one or two,
    with the bits of ``np.median``, which imports numpy.ma on first use."""
    flat = a.ravel()
    half = flat.size // 2
    low = half - 1 + flat.size % 2
    return float(np.mean(np.partition(flat, (low, half))[low : half + 1]))


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
