"""Cubical Z2 homology of sublevel pairs and local Morse homology.

Rank oracles: a nondegenerate critical point of index d contributes a
single rank in degree d; the monkey saddle splits under perturbation
into two ordinary saddles, giving rank 2 in degree 1; f = x^3 on the
line has vanishing local homology.  Euler characteristics must agree
with the boundary winding degree of the gradient.  The engine's
component counts for degrees 0 and m are checked against elimination of
every boundary matrix (ranks_by_elimination).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfloer import cubical
from localfloer.corpus import FIELDS
from localfloer.cubical import (
    CubicalPair,
    GradedRanks,
    gradient_degree,
    local_morse_homology,
    relative_homology_z2,
)
from localfloer.errors import CriticalValueInWindow, NotIsolated
from localfloer.fields import Box

BOX1 = Box(center=(0.0,), radius=1.0)
BOX2 = Box(center=(0.0, 0.0), radius=1.0)
BOX4 = Box(center=(0.0, 0.0, 0.0, 0.0), radius=1.0)


# --- homology engine on hand-built pairs


def _pair(x, a):
    return CubicalPair(np.asarray(x, bool), np.asarray(a, bool), 1.0)


def test_solid_square_is_a_point():
    full = np.ones((3, 3), bool)
    empty = np.zeros((3, 3), bool)
    assert relative_homology_z2(_pair(full, empty)).as_dict() == {0: 1}


def test_punctured_square_is_a_circle():
    ring = np.ones((3, 3), bool)
    ring[1, 1] = False
    empty = np.zeros((3, 3), bool)
    assert relative_homology_z2(_pair(ring, empty)).as_dict() == {0: 1, 1: 1}


def test_square_rel_boundary_is_a_sphere():
    full = np.ones((3, 3), bool)
    boundary = full.copy()
    boundary[1, 1] = False
    assert relative_homology_z2(_pair(full, boundary)).as_dict() == {2: 1}


def test_equal_pair_vanishes():
    full = np.ones((4, 4), bool)
    assert relative_homology_z2(_pair(full, full)).as_dict() == {}


def test_pair_requires_containment():
    x = np.zeros((3, 3), bool)
    a = np.ones((3, 3), bool)
    with pytest.raises(ValueError):
        _pair(x, a)


# --- component counts against elimination of every boundary matrix


def ranks_by_elimination(pair):
    """H_*(X, A; Z2) with every boundary rank from dense GF(2) elimination."""
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
        return cubical._gf2_rank(
            counts[d], counts[d - 1], np.concatenate(rows), np.concatenate(cols)
        )

    b_rank = [0] + [boundary_rank(d) for d in range(1, m + 1)] + [0]
    return GradedRanks.from_dict(
        {d: counts[d] - b_rank[d] - b_rank[d + 1] for d in range(m + 1)}
    )


MAX_SIDE = {1: 12, 2: 12, 3: 5, 4: 5}


def random_pair(m, side, seed, px, pa, boxes):
    """Random node masks; each box is put whole into X and only its
    boundary into A, which makes top-degree classes common."""
    rng = np.random.default_rng(seed)
    shape = (side,) * m
    x = rng.random(shape) < px
    a = x & (rng.random(shape) < pa)
    for _ in range(boxes if side >= 3 else 0):
        lo = rng.integers(0, side - 2, m)
        hi = lo + rng.integers(2, side - lo)
        x[tuple(slice(i, j + 1) for i, j in zip(lo, hi))] = True
        a[tuple(slice(i, j + 1) for i, j in zip(lo, hi))] = True
        a[tuple(slice(i + 1, j) for i, j in zip(lo, hi))] = False
    return _pair(x, a)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(2, MAX_SIDE[m]),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
            st.integers(0, 2),
        )
    )
)
def test_component_counts_match_elimination(case):
    pair = random_pair(*case)
    assert relative_homology_z2(pair) == ranks_by_elimination(pair)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "case", ["x-empty", "a-empty", "a-equals-x", "x-full-a-boundary"]
)
@pytest.mark.parametrize("side", [2, 3, 5])
def test_component_counts_match_elimination_on_edge_cases(m, case, side):
    rng = np.random.default_rng(side * 10 + m)
    shape = (side,) * m
    full = np.ones(shape, bool)
    interior = np.zeros(shape, bool)
    interior[(slice(1, -1),) * m] = True
    x, a = {
        "x-empty": (~full, ~full),
        "a-empty": (rng.random(shape) < 0.7, ~full),
        "a-equals-x": (rng.random(shape) < 0.7,) * 2,
        "x-full-a-boundary": (full, ~interior),
    }[case]
    pair = _pair(x, a)
    assert relative_homology_z2(pair) == ranks_by_elimination(pair)
    if case == "x-full-a-boundary" and side >= 3:
        assert relative_homology_z2(pair).as_dict() == {m: 1}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_elimination_only_for_middle_degrees(monkeypatch, m):
    """_gf2_rank ranks d_2 .. d_{m-1} only: no call for m <= 2."""
    shapes = []
    rank = cubical._gf2_rank

    def counting(nrows, ncols, rows, cols):
        shapes.append((nrows, ncols))
        return rank(nrows, ncols, rows, cols)

    monkeypatch.setattr(cubical, "_gf2_rank", counting)
    shape = (4,) * m
    interior = np.zeros(shape, bool)
    interior[(slice(1, -1),) * m] = True
    pair = _pair(np.ones(shape, bool), ~interior)
    assert relative_homology_z2(pair).as_dict() == {m: 1}
    cells = [
        sum(map(np.count_nonzero, pair.relative_cell_masks(d).values()))
        for d in range(m)
    ]
    assert shapes == [(cells[d], cells[d - 1]) for d in range(2, m)]


# --- local Morse homology of the field corpus


CORPUS_RANKS = {
    "neg-r2": {2: 1},
    "r2": {0: 1},
    "saddle": {1: 1},
    "cubic-1d": {},
    "monkey": {1: 2},
    "quartic-neg": {2: 1},
}


@pytest.mark.parametrize("name,expected", list(CORPUS_RANKS.items()))
def test_field_corpus_ranks(name, expected):
    e = FIELDS[name]
    box = BOX1 if e.m == 1 else BOX2
    ranks = local_morse_homology(e.value, box, grad=e.grad)
    assert ranks.as_dict() == expected


@pytest.mark.parametrize("name", sorted(CORPUS_RANKS))
def test_fine_corpus_pairs_match_elimination(monkeypatch, name):
    """The sublevel pairs local_morse_homology builds at resolutions 129
    and 193 give the corpus ranks, by component counts and by elimination."""
    pairs = []
    engine = cubical.relative_homology_z2

    def recording(pair):
        pairs.append(pair)
        return engine(pair)

    monkeypatch.setattr(cubical, "relative_homology_z2", recording)
    e = FIELDS[name]
    box = BOX1 if e.m == 1 else BOX2
    local_morse_homology(e.value, box, resolutions=(129, 193), grad=e.grad)
    assert [p.x_mask.shape[0] for p in pairs] == [129, 193]
    for pair in pairs:
        ranks = engine(pair)
        assert ranks == ranks_by_elimination(pair)
        assert ranks.as_dict() == CORPUS_RANKS[name]


def test_monkey_saddle_without_supplied_gradient():
    e = FIELDS["monkey"]
    ranks = local_morse_homology(e.value, BOX2)
    assert ranks.as_dict() == {1: 2}


def test_negative_quartic_on_the_line():
    ranks = local_morse_homology(lambda p: -p[:, 0] ** 4, BOX1)
    assert ranks.as_dict() == {1: 1}


def test_report_shows_stabilized_refinements():
    e = FIELDS["saddle"]
    report = local_morse_homology(e.value, BOX2, grad=e.grad, return_report=True)
    assert report.resolutions == (17, 25, 33)
    assert report.per_resolution[-1] == report.per_resolution[-2]
    assert report.ranks.as_dict() == {1: 1}


def test_gradient_sampled_once_per_resolution():
    e = FIELDS["saddle"]
    sizes = []

    def grad(pts):
        sizes.append(len(pts))
        return e.grad(pts)

    local_morse_homology(e.value, BOX2, resolutions=(17, 25, 33), grad=grad)
    assert sorted(sizes) == [17**2, 25**2, 33**2]


def test_invariance_under_scaling_and_rotation():
    e = FIELDS["saddle"]

    def rotated(p):
        c, s = np.cos(0.6), np.sin(0.6)
        q = np.stack([c * p[:, 0] - s * p[:, 1], s * p[:, 0] + c * p[:, 1]], axis=1)
        return 2.5 * e.value(q)

    assert local_morse_homology(rotated, BOX2).as_dict() == {1: 1}


def test_four_dimensional_maximum():
    def f(p):
        return -np.sum(p**2, axis=1)

    ranks = local_morse_homology(f, BOX4, resolutions=(7, 9))
    assert ranks.as_dict() == {4: 1}


def test_product_ranks_convolve():
    # saddle plus maximum in split variables: {1:1} * {2:1} -> {3:1}
    def f(p):
        return (p[:, 0] ** 2 - p[:, 1] ** 2) - p[:, 2] ** 2 - p[:, 3] ** 2

    ranks = local_morse_homology(f, BOX4, resolutions=(7, 9), exclude_fraction=0.75)
    assert ranks.as_dict() == {3: 1}
    a = GradedRanks.from_dict({1: 1})
    b = GradedRanks.from_dict({2: 1})
    assert a.convolve(b) == ranks


# --- guards


def test_line_of_critical_points_is_rejected():
    with pytest.raises(NotIsolated):
        local_morse_homology(lambda p: p[:, 0] ** 2, BOX2)


def test_nearby_critical_value_in_window_is_rejected():
    # wells at (+-0.7, 0) share the window once delta reaches their value
    def f(p):
        return (p[:, 0] ** 2 - 0.49) ** 2 + p[:, 1] ** 2

    with pytest.raises(CriticalValueInWindow):
        local_morse_homology(f, BOX2, resolutions=(17, 25), delta=0.25)


def test_requires_two_resolutions():
    e = FIELDS["saddle"]
    with pytest.raises(ValueError):
        local_morse_homology(e.value, BOX2, resolutions=(17,))


# --- Morse perturbation oracle


def test_monkey_saddle_splits_into_two_ordinary_saddles():
    """Perturbing x^3 - 3xy^2 by a linear term leaves two nondegenerate
    saddles near 0, so the degenerate ranks must total the same way."""
    e = FIELDS["monkey"]
    eps = 0.05

    def fp(p):
        return e.value(p) + eps * p[:, 0]

    def gp(p):
        out = e.grad(p).copy()
        out[:, 0] += eps
        return out

    # Newton from a seed grid, then classify by Hessian signature
    seeds = BOX2.nodes(9) * 0.5
    pts = seeds.copy()
    for _ in range(60):
        x, y = pts[:, 0], pts[:, 1]
        hxx, hxy, hyy = 6.0 * x, -6.0 * y, -6.0 * x
        det = hxx * hyy - hxy**2
        ok = np.abs(det) > 1e-12
        g = gp(pts)
        step = np.zeros_like(pts)
        step[ok, 0] = (hyy[ok] * g[ok, 0] - hxy[ok] * g[ok, 1]) / det[ok]
        step[ok, 1] = (-hxy[ok] * g[ok, 0] + hxx[ok] * g[ok, 1]) / det[ok]
        pts = pts - step
    conv = pts[np.linalg.norm(gp(pts), axis=1) < 1e-10]
    uniq = []
    for p in conv:
        if np.all(np.isfinite(p)) and not any(np.linalg.norm(p - q) < 1e-6 for q in uniq):
            uniq.append(p)
    assert len(uniq) == 2
    for p in uniq:
        hxx, hxy, hyy = 6.0 * p[0], -6.0 * p[1], -6.0 * p[0]
        assert hxx * hyy - hxy**2 < 0  # both are saddles: index 1 each
    assert local_morse_homology(e.value, BOX2, grad=e.grad).as_dict() == {1: 2}


# --- degree oracle


@pytest.mark.parametrize(
    "name,expected",
    [("neg-r2", 1), ("r2", 1), ("saddle", -1), ("monkey", -2), ("quartic-neg", 1)],
)
def test_gradient_degree_of_corpus(name, expected):
    assert gradient_degree(FIELDS[name].grad, 0.5) == expected


@pytest.mark.parametrize(
    "m,sign",
    [(m, s) for m in (2, 5, 20, 40) for s in (1, -1)],
    ids=[f"{z}^{m}" for m in (2, 5, 20, 40) for z in ("z", "zbar")],
)
def test_degree_of_squared_rotation_field(m, sign):
    # z^m has degree m and its conjugate -m; at m = 20 and 40 the direction
    # turns by more than pi / 2 over each of the 64 first intervals, and at
    # m = 40 over their halves too, so the sampler bisects a second time
    def power(p):
        w = (p[:, 0] + 1j * sign * p[:, 1]) ** m
        return np.stack([w.real, w.imag], axis=1)

    assert gradient_degree(power, 0.3) == sign * m


def test_euler_characteristic_matches_degree():
    for name in ("neg-r2", "r2", "saddle", "monkey", "quartic-neg"):
        e = FIELDS[name]
        ranks = local_morse_homology(e.value, BOX2, grad=e.grad)
        assert ranks.euler() == gradient_degree(e.grad, 0.5)


# --- graded rank algebra


rank_dicts = st.dictionaries(
    st.integers(-5, 5), st.integers(0, 4), min_size=0, max_size=5
)


@settings(max_examples=50, deadline=None)
@given(rank_dicts, rank_dicts)
def test_convolution_is_commutative_and_euler_multiplicative(da, db):
    a, b = GradedRanks.from_dict(da), GradedRanks.from_dict(db)
    assert a.convolve(b) == b.convolve(a)
    assert a.convolve(b).euler() == a.euler() * b.euler()
    assert a.convolve(b).total == a.total * b.total


@settings(max_examples=50, deadline=None)
@given(rank_dicts, st.integers(-4, 4), st.integers(-4, 4))
def test_shift_adds_and_roundtrips(d, s, t):
    a = GradedRanks.from_dict(d)
    assert a.shift(s).shift(t) == a.shift(s + t)
    assert a.shift(s).shift(-s) == a
    assert GradedRanks.from_json(a.to_json()) == a


def test_negative_ranks_rejected():
    with pytest.raises(ValueError):
        GradedRanks.from_dict({0: -1})
