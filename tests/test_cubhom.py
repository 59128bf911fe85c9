"""Cubical Z2 homology of sublevel pairs and local Morse homology.

Rank oracles: a nondegenerate critical point of index d contributes a
single rank in degree d; the monkey saddle splits under perturbation
into two ordinary saddles, giving rank 2 in degree 1; f = x^3 on the
line has vanishing local homology.  Euler characteristics must agree
with the boundary winding degree of the gradient.  The engine's
component counts for degrees 0 and m are checked against elimination of
every boundary matrix (oracles.ranks_by_elimination), in one to four
variables, and the count of free components on the relative cells
against a graph over the whole grid (oracles.full_box_free_components).
The engine answers on the line and in the plane only; Kunneth products
are checked there, and in four variables on the oracle path.
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
    sublevel_pair,
)
from localfloer.errors import CriticalValueInWindow, LocalFloerError, NonIsolated
from localfloer.fields import Box
from oracles import (
    QUADRATIC_FIELDS,
    full_box_free_components,
    full_grid_resolution_floor,
    grid_gradient,
    morse_sampling_every_grid,
    ranks_by_elimination,
)

BOX1 = Box(center=(0.0,), radius=1.0)
BOX2 = Box(center=(0.0, 0.0), radius=1.0)
BOX3 = Box(center=(0.0, 0.0, 0.0), radius=1.0)
BOX4 = Box(center=(0.0, 0.0, 0.0, 0.0), radius=1.0)


# --- homology engine on hand-built pairs


def _pair(x, a):
    return CubicalPair(np.asarray(x, bool), np.asarray(a, bool))


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


def check_against_elimination(pair):
    """relative_homology_z2 against the oracle for m <= 2; for m >= 3, where
    the engine refuses, the component counts it is built from against the
    oracle's H_0 and H_m.  Returns the oracle's ranks."""
    expected = ranks_by_elimination(pair)
    m = pair.m
    if m <= 2:
        assert relative_homology_z2(pair) == expected
        return expected
    nodes = pair.relative_cell_masks(0)[()]
    faces, top = pair.relative_cell_masks(m - 1), pair.relative_cell_masks(m)
    assert cubical._bottom_homology(pair, nodes) == expected.rank(0)
    assert cubical._top_homology(pair, faces, top[tuple(range(m))]) == expected.rank(m)
    return expected


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
    check_against_elimination(random_pair(*case))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "case",
    ["x-empty", "a-empty", "a-equals-x", "x-full-a-boundary", "x-full-a-lower-faces"],
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
        # a contractible A whose complement's free faces are all upper faces
        "x-full-a-lower-faces": (full, np.indices(shape).min(axis=0) == 0),
    }[case]
    ranks = check_against_elimination(_pair(x, a))
    if case == "x-full-a-boundary" and side >= 3:
        assert ranks.as_dict() == {m: 1}
    if case == "x-full-a-lower-faces":
        assert ranks.as_dict() == {}


@pytest.mark.parametrize("m", [3, 4])
def test_three_or_more_variables_are_refused(m):
    """Pairs and boxes of three or more variables are refused, the boxes
    before the field is sampled."""
    interior = np.zeros((4,) * m, bool)
    interior[(slice(1, -1),) * m] = True
    with pytest.raises(ValueError, match="1 or 2 variables"):
        relative_homology_z2(_pair(np.ones((4,) * m, bool), ~interior))

    def never(p):
        pytest.fail("the field was sampled")

    box = {3: BOX3, 4: BOX4}[m]
    with pytest.raises(ValueError, match="1 or 2 variables"):
        local_morse_homology(never, box, resolutions=(7, 9), grad=never)


def test_every_corpus_field_is_on_the_line_or_in_the_plane():
    high = sorted(name for name, e in FIELDS.items() if e.m > 2)
    assert not high, (
        f"fields {high} have more than two variables, where cubical homology "
        "refuses; ROADMAP item 5 records how to bring m >= 3 back"
    )


# --- free components on the relative cells against the full-box graph


def random_joins(rng, shape, p_join):
    m = len(shape)
    return [
        rng.random(tuple(n - 1 if d == ax else n for d, n in enumerate(shape))) < p_join
        for ax in range(m)
    ]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.integers(1, MAX_SIDE[m]),
            st.integers(0, 2**32 - 1),
            st.floats(0.0, 1.0),
            st.floats(0.0, 1.0),
        )
    )
)
def test_free_components_match_full_box_graph(case):
    m, side, seed, p_sink, p_join = case
    rng = np.random.default_rng(seed)
    shape = (side,) * m
    sink = rng.random(shape) < p_sink
    joined = random_joins(rng, shape, p_join)
    assert cubical._free_components(sink, joined) == full_box_free_components(sink, joined)


def _spiral(side: int) -> np.ndarray:
    """Cells of a square spiral corridor one cell wide, walls between its
    turns, walked in from the corner (side odd)."""
    free = np.zeros((side, side), bool)
    r = c = 0
    dr, dc = 0, 1
    free[0, 0] = True
    while True:
        for _ in range(2):
            nr, nc = r + 2 * dr, c + 2 * dc
            if 0 <= nr < side and 0 <= nc < side and not free[nr, nc]:
                free[r + dr, c + dc] = free[nr, nc] = True
                r, c = nr, nc
                break
            dr, dc = dc, -dr
        else:
            return free


def _snake(side: int) -> np.ndarray:
    """Cells of a corridor that runs along every even row and turns down
    at alternate ends."""
    free = np.zeros((side, side), bool)
    free[::2] = True
    free[1::4, -1] = True
    free[3::4, 0] = True
    return free


@pytest.mark.parametrize("layout", [_spiral, _snake])
@pytest.mark.parametrize("side", [5, 31, 101])
@pytest.mark.parametrize("cuts", [0, 1, 7])
def test_free_components_of_long_corridors_match_full_box_graph(layout, side, cuts):
    """One long path of free cells, joined only along the path and cut at
    a few random joins, with a sink wall around it: paths whose labels
    meet only after many hookings."""
    free = layout(side)
    rng = np.random.default_rng(side + cuts)
    joined = []
    for ax in range(2):
        lo = free[:-1] if ax == 0 else free[:, :-1]
        hi = free[1:] if ax == 0 else free[:, 1:]
        joined.append(lo & hi)
    for _ in range(cuts):
        ax = int(rng.integers(2))
        where = np.argwhere(joined[ax])
        joined[ax][tuple(where[rng.integers(len(where))])] = False
    expected = full_box_free_components(~free, joined)
    assert cubical._free_components(~free, joined) == expected
    # each cut of the path adds a piece
    assert expected == cuts + 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("side", [2, 3, 5])
@pytest.mark.parametrize(
    "case", ["no-free-cell", "all-free", "all-free-unjoined", "free-joined-to-sinks-only"]
)
def test_free_components_on_edge_cases(m, side, case):
    rng = np.random.default_rng(side * 10 + m)
    shape = (side,) * m
    # a checkerboard: every neighbour of a free cell is a sink
    checker = np.indices(shape).sum(axis=0) % 2 == 0
    sink, joined, expected = {
        "no-free-cell": (np.ones(shape, bool), random_joins(rng, shape, 0.5), 0),
        "all-free": (np.zeros(shape, bool), random_joins(rng, shape, 1.0), 1),
        "all-free-unjoined": (np.zeros(shape, bool), random_joins(rng, shape, 0.0), side**m),
        "free-joined-to-sinks-only": (checker, random_joins(rng, shape, 1.0), 0),
    }[case]
    assert cubical._free_components(sink, joined) == expected
    assert full_box_free_components(sink, joined) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_free_cells_joined_to_sinks_only_count_when_unjoined(m):
    """Free cells among sinks, each joined to at most one sink: the ones
    with no join are components of their own, the rest are marked."""
    shape = (4,) * m
    sink = np.indices(shape).sum(axis=0) % 2 == 0
    joined = random_joins(np.random.default_rng(m), shape, 0.0)
    free = np.argwhere(~sink)
    for cell in free[::2]:
        ax = int(np.argmax(cell > 0))
        lower = tuple(cell - np.eye(m, dtype=int)[ax])
        joined[ax][lower] = True
    expected = len(free) - len(free[::2])
    assert cubical._free_components(sink, joined) == expected
    assert full_box_free_components(sink, joined) == expected


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
    ranks = local_morse_homology(e.value, box, grad=e.grad).ranks
    assert ranks.as_dict() == expected


@pytest.mark.parametrize("name", sorted(QUADRATIC_FIELDS))
def test_quadratic_fields_equal_their_closed_forms(name):
    """Built from their matrix, the quadratic fields give the closed forms'
    values and gradients bit for bit on the finest grid the benchmark samples.
    array_equal compares values, so a zero's sign is not compared."""
    nodes = BOX2.nodes(257)
    value, grad = QUADRATIC_FIELDS[name]
    assert np.array_equal(FIELDS[name].value(nodes), value(nodes))
    assert np.array_equal(FIELDS[name].grad(nodes), grad(nodes))


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


def test_negative_quartic_on_the_line():
    ranks = local_morse_homology(lambda p: -p[:, 0] ** 4, BOX1, grad=lambda p: -4 * p**3).ranks
    assert ranks.as_dict() == {1: 1}


def test_report_shows_stabilized_refinements():
    e = FIELDS["saddle"]
    report = local_morse_homology(e.value, BOX2, grad=e.grad)
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
    # 17 is every second node of 33, so it is sliced from 33's sample
    assert sorted(sizes) == [25**2, 33**2]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("res", [2, 7, 8, 33])
def test_node_radii_match_the_grid_nodes(m, res):
    center = tuple(0.37 * (-1) ** i * (i + 1) for i in range(m))
    box = Box(center=center, radius=0.81)
    expected = np.max(np.abs(box.nodes(res) - np.asarray(center)), axis=1)
    radii = cubical._node_radii(box, res)
    assert radii.shape == (res,) * m
    assert np.array_equal(radii.ravel(), expected)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("res", [2, 3, 8, 9])
def test_window_floor_matches_the_full_grid_gradient(m, res):
    """The window check's floor, read at a random window including the box
    faces and corners, equals np.gradient's over the whole grid bit for bit."""
    rng = np.random.default_rng(10 * res + m)
    g = rng.normal(size=(res,) * m + (m,)) * np.exp(rng.normal(size=(res,) * m + (m,)))
    h = Box(center=(0.3,) * m, radius=0.7).spacing(res)
    mask = rng.random((res,) * m) < 0.5
    mask[(0,) * m] = mask[(-1,) * m] = True
    floor = cubical._resolution_floor(g, np.nonzero(mask), h)
    assert np.array_equal(floor, full_grid_resolution_floor(g, h)[mask])


def test_grid_nodes_built_once_per_resolution(monkeypatch):
    """local_morse_homology builds the nodes of each grid it samples once;
    radii come from the axes, and 17, nested in 33, samples nothing."""
    calls = []
    nodes = Box.nodes

    def counting(self, resolution):
        calls.append(resolution)
        return nodes(self, resolution)

    monkeypatch.setattr(Box, "nodes", counting)
    e = FIELDS["saddle"]
    local_morse_homology(e.value, BOX2, resolutions=(17, 25, 33), grad=e.grad)
    assert sorted(calls) == [25, 33]


# resolution sets mixing grids nested in the finest (every s-th node) and not
MIXED_RESOLUTIONS = [
    (9, 17),
    (5, 9, 17),
    (7, 9, 17),
    (9, 13, 25),
    (11, 21, 31),
    (5, 7, 13, 25),
    (9, 25, 33),
    (3, 5, 9, 15),
]


def _morse_outcome(run):
    """A report as its ranks, resolutions, deltas (as hex, so bit for bit)
    and per-resolution ranks, or a refusal as its type and message."""
    try:
        r = run()
    except LocalFloerError as exc:
        return type(exc).__name__, str(exc)
    return r.ranks, r.resolutions, [d.hex() for d in r.deltas], r.per_resolution


def test_mixed_resolution_sets_nest_and_do_not():
    box = Box(center=(0.3, -0.2), radius=0.7)
    steps = {cubical._nested_step(box, r, rs[-1]) for rs in MIXED_RESOLUTIONS for r in rs[:-1]}
    assert steps == {0, 2, 3, 4, 6, 7}


def test_a_grid_whose_axis_misses_the_fine_slice_by_an_ulp_is_sampled():
    """9 nodes divide the 24 spacings of 25, but on this box linspace puts
    the 9-node axis up to 4.4e-16 off every third entry of the 25-node one."""
    box = Box(center=(-0.1533471020548487,), radius=1.6726349282588393)
    assert cubical._nested_step(box, 9, 25) == 0
    assert cubical._nested_step(box, 13, 25) == 2
    e = FIELDS["cubic-1d"]
    got = _morse_outcome(lambda: local_morse_homology(e.value, box, (9, 13, 25), grad=e.grad))
    want = _morse_outcome(lambda: morse_sampling_every_grid(e.value, box, (9, 13, 25), e.grad))
    assert got == want


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(sorted(FIELDS)),
    shift=st.tuples(st.floats(-0.4, 0.4), st.floats(-0.4, 0.4)),
    radius=st.sampled_from([0.35, 0.6, 1.0, 1.3]),
    resolutions=st.sampled_from(MIXED_RESOLUTIONS),
)
def test_nested_slices_equal_sampling_every_grid(name, shift, radius, resolutions):
    """Slicing nested grids from the finest sample gives the report, or the
    refusal, of sampling every grid on its own, bit for bit."""
    e = FIELDS[name]
    box = Box(center=tuple(radius * a for a in shift[: e.m]), radius=radius)
    got = _morse_outcome(lambda: local_morse_homology(e.value, box, resolutions, grad=e.grad))
    want = _morse_outcome(lambda: morse_sampling_every_grid(e.value, box, resolutions, e.grad))
    assert got == want


def test_invariance_under_scaling_and_rotation():
    e = FIELDS["saddle"]
    c, s = np.cos(0.6), np.sin(0.6)
    rot = np.array([[c, -s], [s, c]])

    def rotated(p):
        return 2.5 * e.value(p @ rot.T)

    def rotated_grad(p):
        return 2.5 * e.grad(p @ rot.T) @ rot

    assert local_morse_homology(rotated, BOX2, grad=rotated_grad).ranks.as_dict() == {1: 1}


def test_four_dimensional_maximum():
    """-|x|^2 in four variables on the oracle path: a single class in degree 4."""
    assert _oracle_ranks_4d(lambda p: -np.sum(p**2, axis=1), 0.5).as_dict() == {4: 1}


def test_product_ranks_convolve():
    """Kunneth: the plane answer of f(x) + g(y) is the convolution of the
    line answers of f and g, all from local_morse_homology.  In four
    variables, saddle plus maximum {1:1} * {2:1} -> {3:1} on the oracle path."""
    # value and derivative of each line field
    line = {
        "x^2": (lambda p: p[:, 0] ** 2, lambda p: 2 * p),
        "-x^2": (lambda p: -p[:, 0] ** 2, lambda p: -2 * p),
        "x^3": (lambda p: p[:, 0] ** 3, lambda p: 3 * p**2),
    }
    for f, g, expected in [("x^2", "-x^2", {1: 1}), ("-x^2", "-x^2", {2: 1}), ("x^3", "x^2", {})]:
        (fv, fd), (gv, gd) = line[f], line[g]
        a = local_morse_homology(fv, BOX1, grad=fd).ranks
        b = local_morse_homology(gv, BOX1, grad=gd).ranks
        plane = local_morse_homology(
            lambda p: fv(p[:, :1]) + gv(p[:, 1:]),
            BOX2,
            grad=lambda p: np.hstack([fd(p[:, :1]), gd(p[:, 1:])]),
        ).ranks
        assert a.convolve(b) == plane
        assert plane.as_dict() == expected

    def saddle_max(p):
        return (p[:, 0] ** 2 - p[:, 1] ** 2) - p[:, 2] ** 2 - p[:, 3] ** 2

    ranks = _oracle_ranks_4d(saddle_max, 0.75)
    assert ranks == GradedRanks.from_dict({1: 1}).convolve(GradedRanks.from_dict({2: 1}))
    assert ranks.as_dict() == {3: 1}


def _oracle_ranks_4d(f, exclude_fraction):
    """Ranks by elimination of the sublevel pair of f on BOX4 at resolution 7,
    with the delta rule of local_morse_homology."""
    res = 7
    values = f(BOX4.nodes(res)).reshape((res,) * 4)
    g = grid_gradient(values, BOX4)
    gn = np.linalg.norm(g, axis=-1)
    delta = BOX4.spacing(res) * max(float(np.median(gn)), 0.05 * float(np.max(gn)))
    pair = sublevel_pair(values, g, 0.0, delta, BOX4, exclude_fraction=exclude_fraction)
    return ranks_by_elimination(pair)


# --- guards


def test_line_of_critical_points_is_rejected():
    with pytest.raises(NonIsolated):
        local_morse_homology(lambda p: p[:, 0] ** 2, BOX2, grad=lambda p: p * [2.0, 0.0])


def test_nearby_critical_value_in_window_is_rejected():
    # wells at (+-0.7, 0) share the window once delta reaches their value
    def f(p):
        return (p[:, 0] ** 2 - 0.49) ** 2 + p[:, 1] ** 2

    values = f(BOX2.nodes(17)).reshape(17, 17)
    g = grid_gradient(values, BOX2)
    with pytest.raises(CriticalValueInWindow):
        sublevel_pair(values, g, float(f(np.zeros((1, 2)))[0]), 0.25, BOX2)


def test_requires_two_resolutions():
    e = FIELDS["saddle"]
    with pytest.raises(ValueError):
        local_morse_homology(e.value, BOX2, resolutions=(17,), grad=e.grad)


@pytest.mark.parametrize("resolutions", [(16, 20), (17, 20), (16, 21, 25)])
def test_even_resolutions_are_refused(resolutions):
    """An even grid has no node at the origin: refused, not answered."""
    e = FIELDS["monkey"]
    with pytest.raises(ValueError, match="odd"):
        local_morse_homology(e.value, BOX2, resolutions=resolutions, grad=e.grad)


def never_sampled(points):
    raise AssertionError("sampled before the resolutions were checked")


@pytest.mark.parametrize(
    "resolutions, message",
    [((1, 3), "at least 3"), ((17, 17), "distinct"), ((9, 17, 17), "distinct")],
)
def test_resolutions_the_scenario_parser_refuses_are_refused_before_sampling(
    resolutions, message
):
    """A grid of one node has no spacing, and a repeated finest resolution
    would let the stabilization gate compare a grid with itself."""
    with pytest.raises(ValueError, match=message):
        local_morse_homology(never_sampled, BOX2, resolutions=resolutions, grad=never_sampled)


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
    assert local_morse_homology(e.value, BOX2, grad=e.grad).ranks.as_dict() == {1: 2}


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
        ranks = local_morse_homology(e.value, BOX2, grad=e.grad).ranks
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
    # artifacts key the ranks by the decimal degree and drop zero ranks
    assert a.to_json() == {str(k): v for k, v in d.items() if v}


def test_negative_ranks_rejected():
    with pytest.raises(ValueError):
        GradedRanks.from_dict({0: -1})


@pytest.mark.parametrize("size", [1, 2, 3, 10, 11, 17 * 17, 257 * 257])
def test_median_has_the_bits_of_np_median(size):
    rng = np.random.default_rng(size)
    for scale in (1e-9, 1.0, 1e9):
        a = rng.random(size) * scale
        assert cubical._median(a) == float(np.median(a))
    a = rng.random((size, 3))
    assert cubical._median(a) == float(np.median(a))
