"""Hamiltonian germs: flows, monodromy, iteration, actions, gap tables."""
import numpy as np
import pytest

from localfloer.corpus import (
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    morse_triple,
    negative_hyperbolic,
    quartic,
    resonant_rotation,
    twisted_rotation,
    zero_germ,
)
from localfloer.errors import NonIsolated, NotAdmissible
from localfloer.germs import (
    _distinct,
    _newton_search,
    concatenate,
    find_fixed_points,
    fixed_point_record,
    flow_jacobians,
    gap_table,
    iterate,
    monodromy,
    translate,
)
from localfloer.paths import index_report
from localfloer.symplectic import validate_symplectic

EPS = 0.05  # morse_triple default scale; H(+-1, 0) = -EPS / 4


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_rotation_flow_turns_counterclockwise():
    germ = linear_rotation(0.3183)
    start = np.array([[0.7, 0.0], [0.1, -0.2]])
    end = flow_jacobians(germ, start)[0]
    expected = start @ rot(2.0 * np.pi * 0.3183).T
    assert np.allclose(end, expected, atol=1e-8)


def test_hyperbolic_flow_squeezes():
    end = flow_jacobians(hyperbolic(2.0), np.array([[1.0, 1.0]]))[0]
    assert np.allclose(end, [[2.0, 0.5]], atol=1e-8)


def test_negative_hyperbolic_monodromy():
    path = monodromy(negative_hyperbolic(2.0), np.zeros(2))
    assert np.allclose(path.endpoint().entries, np.diag([-2.0, -0.5]), atol=1e-6)


def test_flow_jacobian_is_symplectic():
    germ = morse_triple()
    pts = np.array([[0.3, -0.1], [1.1, 0.4]])
    _, jac = flow_jacobians(germ, pts)
    for a in jac:
        validate_symplectic(a, tol=1e-6)


def test_monodromy_of_rotation_has_unit_index():
    rep = index_report(monodromy(linear_rotation(0.3183), np.zeros(2)))
    assert rep.conley_zehnder == 1
    assert abs(rep.mean_index - 2.0 * 0.3183) < 1e-6


def test_iterate_scales_mean_index():
    germ = linear_rotation(0.11)
    for k in (2, 3, 5):
        rep = index_report(monodromy(iterate(germ, k), np.zeros(2)))
        assert abs(rep.mean_index - k * 2.0 * 0.11) < 1e-6


def test_iterate_endpoint_is_matrix_power():
    germ = linear_rotation(0.3183)
    e1 = monodromy(germ, np.zeros(2)).endpoint().entries
    e3 = monodromy(iterate(germ, 3), np.zeros(2)).endpoint().entries
    assert np.allclose(e3, np.linalg.matrix_power(e1, 3), atol=1e-6)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_reflected_saddle_iterated_index_equals_order(k):
    path = monodromy(negative_hyperbolic(2.0), np.zeros(2))
    assert index_report(path.iterated(k)).conley_zehnder == k


def test_concatenation_composes_rotations():
    germ = concatenate(linear_rotation(0.1), linear_rotation(0.25))
    end = monodromy(germ, np.zeros(2)).endpoint().entries
    assert np.allclose(end, rot(2.0 * np.pi * 0.35), atol=1e-6)


def test_iterated_germ_keeps_split_structure():
    g = direct_sum_germ(linear_rotation(0.1), quartic(-1))
    g3 = iterate(g, 3)
    assert g3.factors is not None and len(g3.factors) == 2
    assert g3.factors[0].n == 1


# --- constant-orbit actions


def test_constant_orbit_action_is_hamiltonian_value():
    recs = find_fixed_points(morse_triple(), 1.4)
    actions = sorted(round(r.action, 9) for r in recs)
    assert actions == [-EPS / 4.0, -EPS / 4.0, 0.0]


def test_degenerate_maximum_record():
    rec = fixed_point_record(quartic(-1), np.zeros(2))
    assert rec.degenerate
    assert abs(rec.mean_index) < 1e-9
    assert rec.conley_zehnder is None


def test_translate_moves_fixed_point_to_origin():
    shifted = translate(morse_triple(), np.array([1.0, 0.0]))
    rec = fixed_point_record(shifted, np.zeros(2))
    assert abs(rec.action - (-EPS / 4.0)) < 1e-9
    # bottom of the well is a minimum of H: clockwise turning, index -n
    assert rec.mean_index < 0
    assert rec.conley_zehnder == -1


# --- fixed point search


def test_find_fixed_points_locates_all_three():
    recs = find_fixed_points(morse_triple(), 1.4)
    pts = sorted(tuple(np.round(r.point, 6)) for r in recs)
    assert pts == [(-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)]


def test_zero_germ_fixed_set_is_not_isolated():
    with pytest.raises(NonIsolated):
        find_fixed_points(zero_germ(), 0.5)


def fixed_points_by_row_solves(germ, radius, seeds_per_axis=9, newton_tol=1e-11, max_iter=40):
    """Oracle: Newton on phi(z) - z with one linear solve per seed, seeds
    still moving after max_iter dropped; converged points sorted by norm
    and deduplicated as find_fixed_points lists them."""
    dim = 2 * germ.n
    axes = [np.linspace(-radius, radius, seeds_per_axis)] * dim
    z = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dim)
    active = np.ones(len(z), dtype=bool)
    converged = []
    for _ in range(max_iter):
        if not np.any(active):
            break
        za = z[active]
        phi, jac = flow_jacobians(germ, za)
        res = phi - za
        done = np.linalg.norm(res, axis=1) <= newton_tol
        inside = np.linalg.norm(za, axis=1) <= 1.5 * radius
        converged.extend(za[done & inside])
        a = jac - np.eye(dim)
        step = np.zeros_like(res)
        for i in np.where(~done)[0]:
            try:
                step[i] = np.linalg.solve(a[i], res[i])
            except np.linalg.LinAlgError:
                step[i] = np.linalg.lstsq(a[i], res[i], rcond=None)[0]
        za_new = za - step
        ok = ~done & np.all(np.isfinite(za_new), axis=1) & (
            np.linalg.norm(za_new, axis=1) <= 3.0 * radius
        )
        idx = np.where(active)[0]
        z[idx[ok]] = za_new[ok]
        active = np.zeros(len(z), dtype=bool)
        active[idx[ok]] = True
    dedup_tol = max(10.0 * newton_tol, 1e-9)
    points = []
    for p in sorted(converged, key=lambda q: (float(np.linalg.norm(q)), tuple(q))):
        if all(np.linalg.norm(p - q) > dedup_tol for q in points):
            points.append(p)
    return points


@pytest.mark.parametrize("shift", [None, (0.3, -0.2)])
def test_find_fixed_points_matches_row_solve_oracle(shift):
    germ = morse_triple() if shift is None else translate(morse_triple(), np.array(shift))
    got = [r.point for r in find_fixed_points(germ, 1.4)]
    want = fixed_points_by_row_solves(germ, 1.4)
    assert len(got) == len(want) == 3
    for p, q in zip(got, want):
        assert np.max(np.abs(p - q)) <= 1e-12


def _affine(a, b, calls):
    """value_and_jac of z -> a z + b, recording the size of every batch."""

    def value_and_jac(z):
        calls.append(len(z))
        return z @ a.T + b, np.broadcast_to(a, (len(z),) + a.shape).copy()

    return value_and_jac


def test_newton_search_on_an_affine_map():
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    fixed = np.linalg.solve(np.eye(2) - a, b)
    seeds = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5], fixed])
    residual = lambda z: np.linalg.norm(z @ a.T + b - z, axis=1)

    # converged: every seed ends at the fixed point within newton_tol
    calls = []
    z, rnorm = _newton_search(_affine(a, b, calls), seeds, 1e-11, 40, 100.0)
    assert np.all(rnorm <= 1e-11)
    np.testing.assert_allclose(rnorm, residual(z), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(z - fixed)) <= 1e-12
    assert calls == [4, 3]

    # escaping: a step past the escape radius is not taken and retires the seed
    calls = []
    far = np.linalg.norm(fixed) / 2.0
    z, rnorm = _newton_search(_affine(a, b, calls), seeds[:3], 1e-11, 40, far)
    assert np.array_equal(z, seeds[:3])
    np.testing.assert_array_equal(rnorm, residual(seeds[:3]))
    assert calls == [3]

    # still moving after max_iter: one more evaluation gives the final residual
    calls = []
    z, rnorm = _newton_search(_affine(a, b, calls), seeds[:3], 1e-11, 1, 100.0)
    assert calls == [3, 3]
    np.testing.assert_array_equal(rnorm, residual(z))
    assert np.all(rnorm <= 1e-11)


def test_distinct_keeps_least_norm_point_and_orders_by_norm():
    tol = 1e-9
    # a cluster keeps its least-norm point, not its lexicographically first
    kept = _distinct(np.array([[-5e-10, 0.0], [0.0, 0.0]]), tol)
    assert np.array_equal(kept, [[0.0, 0.0]])
    # Euclidean distance 1.2e-9 > tol, although each coordinate moves by less
    kept = _distinct(np.array([[8.5e-10, 8.5e-10], [0.0, 0.0]]), tol)
    assert np.array_equal(kept, [[0.0, 0.0], [8.5e-10, 8.5e-10]])
    # ordered by norm, ties by coordinates
    pts = np.array([[0.0, 2.0], [1.0, 0.0], [0.0, -1.0], [-3.0, 0.0], [2.0, 0.0]])
    kept = _distinct(pts, tol)
    assert np.array_equal(kept, [[0.0, -1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0], [-3.0, 0.0]])
    assert _distinct(np.zeros((0, 2)), tol).shape == (0, 2)


# --- gap tables


def test_action_gap_scales_linearly():
    recs = find_fixed_points(morse_triple(), 1.4)
    t1 = gap_table(recs, 1)
    t5 = gap_table(recs, 5)
    gaps1 = sorted(round(r["action_gap"], 9) for r in t1.rows)
    gaps5 = sorted(round(r["action_gap"], 9) for r in t5.rows)
    assert gaps1 == [0.0, EPS / 4.0, EPS / 4.0]
    assert gaps5 == [0.0, 5.0 * EPS / 4.0, 5.0 * EPS / 4.0]


def test_self_pair_has_zero_gaps():
    rec = fixed_point_record(morse_triple(), np.zeros(2))
    table = gap_table([rec, rec], 4)
    assert table.rows[0]["action_gap"] == 0.0
    assert table.rows[0]["index_gap"] == 0.0
    assert table.rows[0]["gamma"] == 0.0
    assert table.min_gamma == 0.0


def test_gamma_is_sum_of_gaps():
    recs = find_fixed_points(morse_triple(), 1.4)
    for row in gap_table(recs, 3).rows:
        assert row["gamma"] == row["action_gap"] + row["index_gap"]
        assert row["action_gap"] >= 0 and row["index_gap"] >= 0


def test_gap_table_requires_admissible_order():
    rec = fixed_point_record(linear_rotation(1.0 / 3.0), np.zeros(2))
    with pytest.raises(NotAdmissible):
        gap_table([rec, rec], 3)


def _radial_hessians_by_outer_product(germ_name, z):
    """The Hessians of the two radial corpus germs as first written: an
    identity block plus an einsum outer product (defaults of the corpus)."""
    s = z[:, 0] ** 2 + z[:, 1] ** 2
    eye = np.broadcast_to(np.eye(2), (len(z), 2, 2))
    outer = np.einsum("ni,nj->nij", z, z)
    if germ_name == "resonant":
        twist, s_star = 40.0, 0.15**2
        rho_terms = -np.pi * (1.0 / 3.0 + twist * s * (s - s_star))
        d2 = -np.pi * twist * (2.0 * s - s_star)
        return 2.0 * rho_terms[:, None, None] * eye + 4.0 * d2[:, None, None] * outer
    alpha, beta = 0.3, 2.0 * np.pi
    h_prime = -2.0 * np.pi * alpha - beta * 0.5 * s
    return h_prime[:, None, None] * eye - beta * outer


@pytest.mark.parametrize("name", ["resonant", "twisted"])
def test_radial_corpus_hessians(name):
    germ = resonant_rotation() if name == "resonant" else twisted_rotation()
    z = np.random.default_rng(23).uniform(-0.3, 0.3, (200, 2))
    hess = germ.hess(0.0, z)
    oracle = _radial_hessians_by_outer_product(name, z)
    np.testing.assert_allclose(hess, oracle, rtol=1e-14, atol=1e-14)
    h = 1e-6
    fd = np.stack(
        [(germ.grad(0.0, z + h * e) - germ.grad(0.0, z - h * e)) / (2.0 * h) for e in np.eye(2)],
        axis=2,
    )
    np.testing.assert_allclose(hess, fd, rtol=0.0, atol=1e-7)
