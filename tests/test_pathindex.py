"""Path indices: rotation quantity, winding, mean index, integer indices.

Expected values for rotation paths come from the closed form: a rotation
by total angle a has mean index a/pi and, when a is not a multiple of
2 pi, integer index 2 floor(a / 2 pi) + 1.  The bisecting winding is
checked against uniform doubling of the whole grid (uniform_winding), and
iterates of the reflected saddle against Long's iteration formula for
hyperbolic paths: the index of the k-th iterate is k times the index 1.
The closed-form index of an iterate (paths._iterate_index) is checked
against the winding along the k-fold path (pathhelpers.iterated).
"""
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfloer import paths
from localfloer.corpus import (
    GERMS,
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    negative_hyperbolic,
    shear,
)
from localfloer.errors import DegenerateEndpoint, LocalFloerError, WindingUnresolved
from localfloer.germs import concatenate, monodromy
from localfloer.paths import (
    SymplecticPath,
    conley_zehnder,
    index_report,
    mean_index,
    rho,
    winding,
)
from localfloer.symplectic import admissible, direct_sum_indices, standard_j, vectorfield_j
from pathhelpers import (
    NotALoop,
    exponential_path,
    iterated,
    maslov_loop,
    path_direct_sum,
    path_product,
    random_symplectic,
)


def rotation_path(a, span=1.0):
    return exponential_path(a * standard_j(1), span=span)


def hyperbolic_path(c):
    return exponential_path(np.diag([c, -c]))


def shear_path():
    return exponential_path(np.array([[0.0, 1.0], [0.0, 0.0]]))


def random_path(seed, n=1, scale=1.5):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((2 * n, 2 * n))
    s = scale * (s + s.T) / 2.0
    return exponential_path(vectorfield_j(n) @ s)


def test_rho_of_rotation_is_unit_eigenvalue():
    assert abs(rho(rotation_path(0.7)(1.0)) - np.exp(0.7j)) < 1e-9


def test_rho_of_hyperbolic_is_one():
    assert abs(rho(np.diag([2.0, 0.5])) - 1.0) < 1e-12


def test_rho_of_reflected_saddle_is_minus_one():
    assert abs(rho(np.diag([-2.0, -0.5])) + 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [0.05, 0.3183, 0.75, 1.2])
def test_mean_index_of_rotation_is_twice_alpha(alpha):
    path = rotation_path(2.0 * np.pi * alpha)
    assert abs(mean_index(path) - 2.0 * alpha) < 1e-9


@pytest.mark.parametrize("a,expected", [(0.4, 1), (5.0, 1), (7.0, 3), (13.0, 5)])
def test_integer_index_of_rotation(a, expected):
    assert conley_zehnder(rotation_path(a)) == expected


def test_integer_index_of_hyperbolic_is_zero():
    assert conley_zehnder(hyperbolic_path(np.log(2.0))) == 0
    assert abs(mean_index(hyperbolic_path(np.log(2.0)))) < 1e-9


def test_degenerate_endpoint_refused():
    with pytest.raises(DegenerateEndpoint):
        conley_zehnder(shear_path())


def test_index_report_flags_degenerate_endpoint():
    rep = index_report(shear_path())
    assert rep.degenerate
    assert rep.conley_zehnder is None
    assert abs(rep.mean_index) < 1e-9  # unipotent endpoint, even mean index


# --- iteration formula: mean index is homogeneous


@pytest.mark.parametrize("k", [2, 3, 5])
def test_iteration_formula_for_rotation(k):
    p = rotation_path(2.0 * np.pi * 0.3183)
    assert abs(mean_index(iterated(p, k)) - k * mean_index(p)) < 1e-6


@pytest.mark.parametrize("k", [2, 5])
def test_iteration_formula_for_hyperbolic(k):
    p = hyperbolic_path(np.log(3.0))
    assert abs(mean_index(iterated(p, k)) - k * mean_index(p)) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 4))
def test_iteration_formula_for_random_paths(seed, k):
    p = random_path(seed)
    assert abs(mean_index(iterated(p, k)) - k * mean_index(p)) < 1e-6


# --- nondegenerate index pinches the mean index


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_integer_index_within_n_of_mean(seed):
    p = random_path(seed)
    delta = mean_index(p)
    try:
        cz = conley_zehnder(p)
    except DegenerateEndpoint:
        return
    assert abs(cz - delta) <= 1.0 + 1e-9
    # strict when the spectrum leaves 1, which DegenerateEndpoint guaranteed
    assert abs(cz - delta) < 1.0 + 1e-9


def test_rotation_index_pinch_is_strict():
    p = rotation_path(2.0 * np.pi * 0.3183)
    assert abs(conley_zehnder(p) - mean_index(p)) < 1.0


# --- additivity across direct sums


def test_mean_index_adds_over_direct_sum():
    p = rotation_path(2.0 * np.pi * 0.3183)
    q = hyperbolic_path(np.log(2.0))
    s = path_direct_sum(p, q)
    assert abs(mean_index(s) - (mean_index(p) + mean_index(q))) < 1e-6


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_mean_index_adds_for_random_pairs(seed_a, seed_b):
    p, q = random_path(seed_a), random_path(seed_b)
    assert abs(mean_index(path_direct_sum(p, q)) - mean_index(p) - mean_index(q)) < 1e-6


# --- loops shift by twice their winding


def full_loop(m=1):
    return exponential_path(2.0 * np.pi * m * standard_j(1))


@pytest.mark.parametrize("m", [1, 2])
def test_loop_winding_number(m):
    assert maslov_loop(full_loop(m)) == m


def test_not_a_loop_refused():
    with pytest.raises(NotALoop):
        maslov_loop(rotation_path(0.5))


@pytest.mark.parametrize("m", [1, 2])
def test_loop_shifts_rotation_index_by_twice_winding(m):
    p = rotation_path(2.0 * np.pi * 0.3183)
    shifted = path_product(full_loop(m), p)
    assert conley_zehnder(shifted) == conley_zehnder(p) + 2 * m
    assert abs(mean_index(shifted) - mean_index(p) - 2.0 * m) < 1e-6


def test_loop_shifts_hyperbolic_index_by_twice_winding():
    # the loop and the path do not commute here; the shift law must survive
    p = hyperbolic_path(np.log(2.0))
    shifted = path_product(full_loop(1), p)
    assert conley_zehnder(shifted) == conley_zehnder(p) + 2
    assert abs(mean_index(shifted) - mean_index(p) - 2.0) < 1e-6


# --- unipotent endpoints carry even mean index


def test_full_loop_mean_index_is_twice_winding():
    for m in (1, 2):
        assert abs(mean_index(full_loop(m)) - 2.0 * m) < 1e-6


def test_unipotent_endpoint_mean_index_is_even():
    for path in (shear_path(), full_loop(1)):
        delta = mean_index(path)
        assert abs(delta - 2.0 * round(delta / 2.0)) < 1e-6


# --- bisecting winding against uniform doubling


def uniform_winding(path, agree_tol=1e-10, start_samples=64, max_samples=1 << 20):
    """Oracle: double the whole grid until two totals agree and every
    increment is below pi / 2."""
    nsamp = int(start_samples)
    ts = np.linspace(0.0, path.span, nsamp + 1)
    vals = path.rho(ts)
    prev_total = None
    while True:
        incr = np.angle(vals[1:] / vals[:-1])
        total = float(np.sum(incr))
        resolved = float(np.max(np.abs(incr))) < 0.5 * np.pi
        if prev_total is not None and resolved and abs(total - prev_total) <= agree_tol:
            return total
        if 2 * nsamp > max_samples:
            raise WindingUnresolved(f"no convergence with {nsamp} samples")
        prev_total = total
        mid_ts = 0.5 * (ts[:-1] + ts[1:])
        mid_vals = path.rho(mid_ts)
        merged_t = np.empty(2 * nsamp + 1)
        merged_v = np.empty(2 * nsamp + 1, dtype=complex)
        merged_t[0::2], merged_t[1::2] = ts, mid_ts
        merged_v[0::2], merged_v[1::2] = vals, mid_vals
        ts, vals = merged_t, merged_v
        nsamp *= 2


@functools.lru_cache(maxsize=None)
def reflected_saddle_path():
    return monodromy(negative_hyperbolic(2.0), np.zeros(2))


@pytest.fixture
def rho_calls(monkeypatch):
    """Counts matrices whose rho is computed."""
    calls = []
    real = paths._rho_values

    def counted(vals, vecs):
        calls.extend([1] * len(vals))
        return real(vals, vecs)

    monkeypatch.setattr(paths, "_rho_values", counted)
    return calls


@pytest.mark.parametrize(
    "make",
    [
        lambda: rotation_path(13.0),
        lambda: rotation_path(2.0 * np.pi * 0.3183),
        lambda: hyperbolic_path(np.log(3.0)),
        lambda: shear_path(),
        lambda: full_loop(2),
        lambda: random_path(7, n=2),
    ]
    + [lambda seed=seed: random_path(seed) for seed in range(5)],
)
def test_winding_matches_uniform_oracle(make):
    assert abs(winding(make()) - uniform_winding(make())) < 1e-9


@pytest.mark.parametrize("k", range(1, 10))
def test_winding_of_reflected_saddle_iterates_matches_oracle(k):
    path = iterated(reflected_saddle_path(), k)
    assert abs(winding(path) - uniform_winding(path)) < 1e-9


def test_iterated_once_is_the_path_itself():
    p = rotation_path(0.4)
    assert iterated(p, 1) is p
    with pytest.raises(ValueError):
        iterated(rotation_path(0.4, span=2.0), 1)


def test_reflected_saddle_iterate_samples_grow_slowly(rho_calls):
    winding(iterated(reflected_saddle_path(), 12))
    # uniform doubling takes 262,145 samples here
    assert len(rho_calls) < 1000


@pytest.mark.parametrize("k", [15, 20])
def test_high_iterates_of_reflected_saddle_follow_iteration_formula(k):
    assert conley_zehnder(iterated(reflected_saddle_path(), k)) == k


def test_genuine_rho_jump_is_refused_promptly(rho_calls):
    # rho jumps by pi at t = 0.5: no grid resolves it
    step = SymplecticPath(
        1, 1.0, lambda ts: np.where((ts < 0.5)[:, None, None], np.eye(2), -np.eye(2))
    )
    with pytest.raises(WindingUnresolved):
        winding(step)
    assert len(rho_calls) < 10**4


# --- batched sampling: one stack of matrices per call


def planar_matrices():
    """Elliptic, hyperbolic, negative hyperbolic and -1 spectra in Sp(2)."""
    return st.one_of(
        st.builds(lambda a: rotation_path(a)(1.0), st.floats(-np.pi, np.pi)),
        st.builds(lambda c: np.diag([c, 1.0 / c]), st.floats(0.2, 5.0)),
        st.builds(lambda c: -np.diag([c, 1.0 / c]), st.floats(0.2, 5.0)),
        st.just(-np.eye(2)),
    )


def direct_sum_matrix(a, b):
    out = np.zeros((4, 4))
    i1, i2 = direct_sum_indices(1, 1)
    out[np.ix_(i1, i1)], out[np.ix_(i2, i2)] = a, b
    return out


@settings(max_examples=30, deadline=None)
@given(
    st.one_of(
        st.lists(planar_matrices(), min_size=1, max_size=8),
        st.lists(
            st.builds(direct_sum_matrix, planar_matrices(), planar_matrices()),
            min_size=1,
            max_size=8,
        ),
    ),
    st.integers(0, 10**6),
)
def test_batched_rho_matches_rho_per_matrix(mats, seed):
    mats = np.array(mats)
    n = mats.shape[1] // 2
    c = random_symplectic(n, np.random.default_rng(seed)).entries
    mats = c @ mats @ np.linalg.inv(c)
    # the path's value at the integer time i is mats[i]
    path = SymplecticPath(n, float(len(mats) - 1), lambda ts: mats[ts.astype(int)])
    batched = path.rho(np.arange(len(mats)))
    assert np.allclose(batched, [rho(m) for m in mats], rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make",
    [
        lambda: reflected_saddle_path(),
        lambda: iterated(reflected_saddle_path(), 3),
        lambda: path_product(full_loop(1), reflected_saddle_path()),
        lambda: path_direct_sum(reflected_saddle_path(), rotation_path(0.7)),
    ],
)
def test_batched_evaluation_matches_pointwise(make):
    path = make()
    ts = np.concatenate(
        [np.arange(path.span + 1.0), np.random.default_rng(0).uniform(0.0, path.span, 40)]
    )
    stack = path.evaluate(ts)
    assert stack.shape == (len(ts), 2 * path.n, 2 * path.n)
    np.testing.assert_allclose(stack, [path(t) for t in ts], rtol=1e-14, atol=1e-15)


def test_winding_samples_rho_once_per_bisection_round():
    path = iterated(reflected_saddle_path(), 5)
    calls = []
    sample = path.rho
    path.rho = lambda ts: calls.append(np.asarray(ts)) or sample(ts)
    winding(path, start_samples=8)
    h = path.span / 8
    assert np.array_equal(calls[0], np.linspace(0.0, path.span, 9))
    # call r holds exactly the midpoints of round r: odd multiples of h / 2^r
    for r, ts in enumerate(calls[1:], start=1):
        q = ts * 2.0**r / h
        assert np.array_equal(q, np.round(q)) and np.all(q % 2 == 1)
    assert len(calls) > 2 and sum(map(len, calls)) > 5 * len(calls)


def test_winding_refuses_past_sample_budget():
    with pytest.raises(WindingUnresolved):
        winding(rotation_path(13.0), max_samples=100)


@settings(max_examples=15, deadline=None)
@given(
    st.one_of(
        st.builds(random_path, st.integers(0, 10**6)),
        st.builds(rotation_path, st.floats(-20.0, 20.0)),
        st.builds(lambda k: iterated(reflected_saddle_path(), k), st.integers(1, 20)),
    )
)
def test_indices_do_not_depend_on_start_samples(path):
    ref = winding(path)
    try:
        cz = conley_zehnder(path)
    except DegenerateEndpoint:
        cz = None
    for start in (3, 5, 8, 16, 256):
        assert abs(winding(path, start_samples=start) - ref) < 1e-9
        if cz is not None:
            assert conley_zehnder(path, start_samples=start) == cz


# --- closed-form index of iterates against the winding along the k-fold path


def _outcome(compute):
    """The index, or the type of the refusal."""
    try:
        return compute()
    except LocalFloerError as exc:
        return type(exc)


def _closed_form_matches_oracle(path, kmax):
    """Closed-form outcome per order k <= kmax, each checked against the
    winding oracle; None at inadmissible orders."""
    cz, endpoint = conley_zehnder(path), path.endpoint()
    out = []
    for k in range(1, kmax + 1):
        closed = None
        if admissible(endpoint, k):
            closed = _outcome(lambda: paths._iterate_index(cz, endpoint.entries, k))
            assert closed == _outcome(lambda: conley_zehnder(iterated(path, k))), k
        out.append(closed)
    return out


def _rotation(alpha):
    return lambda: linear_rotation(alpha)


ITERATION_GERMS = {
    # every corpus germ whose fixed point is nondegenerate
    **{
        name: GERMS[name].factory
        for name in (
            "rotation-a",
            "rotation-b",
            "hyperbolic-2",
            "negative-hyperbolic-2",
            "resonant-rotation",
            "twisted-rotation",
            "morse-triple",
            "product-rot-rot",
        )
    },
    **{f"rotation({a})": _rotation(a) for a in (0.05, 0.5, 0.75, 1.3, 1.5, -0.2, -1.37)},
    "negative-hyperbolic(1.3)": lambda: negative_hyperbolic(1.3),
    # E = -[[1, 1], [0, 1]]: a Jordan block at -1
    "half-turn-then-shear": lambda: concatenate(linear_rotation(0.5), shear()),
    "rot+rot": lambda: direct_sum_germ(linear_rotation(0.3183), linear_rotation(0.4142)),
    "rot+rot(-0.2)": lambda: direct_sum_germ(linear_rotation(0.3183), linear_rotation(-0.2)),
    "rot+hyperbolic": lambda: direct_sum_germ(linear_rotation(0.3183), hyperbolic(2.0)),
    "rot(0.5)+rot(0.3)": lambda: direct_sum_germ(linear_rotation(0.5), linear_rotation(0.3)),
    "negative-hyperbolic+rot": lambda: direct_sum_germ(
        negative_hyperbolic(2.0), linear_rotation(0.3183)
    ),
}


@pytest.mark.parametrize("name", list(ITERATION_GERMS))
def test_iteration_formula_matches_the_winding_oracle(name):
    _closed_form_matches_oracle(monodromy(ITERATION_GERMS[name]()), 24)


def negative_hyperbolic_path(c):
    """A half turn, then a stretch: through -I at t = 1/2 to -diag(e^c, e^-c)."""
    turn, stretch = rotation_path(np.pi), hyperbolic_path(c)
    return SymplecticPath(
        1,
        1.0,
        lambda ts: turn.evaluate(np.minimum(2.0 * ts, 1.0))
        @ stretch.evaluate(np.maximum(2.0 * ts - 1.0, 0.0)),
    )


def planar_paths(negative_hyperbolic=True):
    """Rotation, hyperbolic and negative hyperbolic paths in Sp(2)."""
    angle = st.floats(0.1, 6.2) | st.floats(-6.2, -0.1)
    # at e^(12 c) near 1e5 a conjugated 12-fold path can leave the oracle's
    # range: its winding is refused after 2^20 samples
    stretch = st.floats(0.2, 0.6)
    kinds = [st.builds(rotation_path, angle), st.builds(hyperbolic_path, stretch)]
    if negative_hyperbolic:
        kinds.append(st.builds(negative_hyperbolic_path, stretch))
    return st.one_of(kinds)


def conjugated(path, c):
    c_inv = np.linalg.inv(c)
    return SymplecticPath(path.n, path.span, lambda ts: c @ path.evaluate(ts) @ c_inv)


# two negative hyperbolic factors can turn rho by a whole turn inside one
# first-round interval of the oracle's winding, which it cannot see
@settings(max_examples=10, deadline=None)
@given(planar_paths(), st.none() | planar_paths(negative_hyperbolic=False), st.integers(0, 10**6))
def test_iteration_formula_does_not_depend_on_symplectic_conjugation(first, second, seed):
    path = first if second is None else path_direct_sum(first, second)
    c = random_symplectic(path.n, np.random.default_rng(seed)).entries
    closed = _closed_form_matches_oracle(conjugated(path, c), 12)
    cz, endpoint = conley_zehnder(path), path.endpoint()
    assert closed == [
        _outcome(lambda: paths._iterate_index(cz, endpoint.entries, k))
        if admissible(endpoint, k)
        else None
        for k in range(1, 13)
    ]
