"""Hamiltonian germs: flows, monodromy, iteration, actions, gap tables."""
import gc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients

import localfloer.germs as germs_module
from localfloer import dop853
from localfloer.corpus import (
    GERMS,
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    morse_triple,
    monkey_saddle,
    negative_hyperbolic,
    quadratic,
    quartic,
    resonant_rotation,
    shear,
    twisted_rotation,
    zero_germ,
)
from localfloer.errors import NonIsolated, NotAdmissible, StepFailure
from localfloer.fields import Box
from localfloer.germs import (
    ATOL,
    RTOL,
    HamiltonianGerm,
    _distinct,
    _newton_search,
    _seed_orbit,
    _sigma,
    _variational_flow,
    concatenate,
    find_fixed_points,
    fixed_point_record,
    flow_jacobians,
    flow_points,
    gap_table,
    monodromy,
    orbit_action,
    translate,
)
from localfloer.paths import index_report
from localfloer.symplectic import direct_sum_indices, validate_symplectic, vectorfield_j
from oracles import _reparam, iterate, smooth, smooth_concatenation, smooth_direct_sum
from pathhelpers import iterated

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
    assert np.allclose(path.endpoint().entries, np.diag([-2.0, -0.5]), rtol=0, atol=1e-9)


# the matrices S of the linear corpus germs H = 1/2 z.S z
LINEAR_CORPUS = {
    "zero": np.zeros((2, 2)),
    "rotation-a": np.diag([-2.0 * np.pi * 0.3183] * 2),
    "rotation-b": np.diag([-2.0 * np.pi * 0.4142] * 2),
    "hyperbolic-2": np.array([[0.0, np.log(2.0)], [np.log(2.0), 0.0]]),
    "shear": np.diag([0.0, 1.0]),
}


def _check_quadratic_germ(germ, s, seed):
    """grad and jet are S z and S bit for bit; the flow's Jacobian and
    values are exp(J_vf S) to 1e-10 exp(|S|), the integrator's tolerances
    times the growth of a unit-time linear flow with room to spare."""
    z = np.random.default_rng(seed).uniform(-0.5, 0.5, (5, len(s)))
    grad, hess = germ.jet(0.3, z)
    assert np.array_equal(germ.grad(0.3, z), z @ s) and np.array_equal(grad, z @ s)
    assert np.array_equal(hess, np.broadcast_to(s, hess.shape))
    expected = scipy.linalg.expm(vectorfield_j(germ.n) @ s)
    bound = 1e-10 * np.exp(np.linalg.norm(s, 2))
    phi, jac = flow_jacobians(germ, z)
    np.testing.assert_allclose(jac, np.broadcast_to(expected, jac.shape), rtol=0, atol=bound)
    np.testing.assert_allclose(phi, z @ expected.T, rtol=0, atol=bound)


@pytest.mark.parametrize("name", sorted(LINEAR_CORPUS))
def test_linear_corpus_germs_flow_by_their_matrix(name):
    _check_quadratic_germ(GERMS[name].factory(), LINEAR_CORPUS[name], seed=7)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 2), st.integers(0, 10**6))
def test_quadratic_germ_flows_by_the_exponential(n, seed):
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * n, 2 * n))
    s = a + a.T
    _check_quadratic_germ(quadratic(s, "q"), s, seed)


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
    assert index_report(iterated(path, k)).conley_zehnder == k


# --- the flat reparametrization of a concatenation, against numpy oracles


def _bump(s):
    return np.where(s > 1e-12, np.exp(-1.0 / np.maximum(s, 1e-12)), 0.0)


def _sigma_oracle(s):
    g, h = _bump(s), _bump(1.0 - s)
    return g / (g + h)


def _sigma_prime(s):
    s = np.clip(s, 0.0, 1.0)
    g, h = _bump(s), _bump(1.0 - s)
    gp = np.where(s > 1e-12, g / np.maximum(s, 1e-12) ** 2, 0.0)
    hp = np.where(1.0 - s > 1e-12, h / np.maximum(1.0 - s, 1e-12) ** 2, 0.0)
    return (gp * h + g * hp) / (g + h) ** 2


def test_reparam_matches_numpy_oracle():
    # 2 sigma' reaches about 4, where one ulp is 4.4e-16, and numpy's exp
    # differs from libm's by an ulp on some arguments: compare relatively
    ts = np.concatenate(
        [[0.0, 1e-13, 0.5 - 1e-13, 0.5, 0.5 + 1e-13, 1.0 - 1e-13, 1.0], np.linspace(0, 1, 1001)]
    )
    for t in ts:
        piece, sig, dsig = _reparam(float(t))
        s = 2.0 * t - piece
        oracle = 2.0 * float(_sigma_prime(s))
        assert piece == (0 if t < 0.5 else 1)
        assert abs(sig - float(_sigma_oracle(s))) <= 1e-15
        assert abs(dsig - oracle) <= 1e-15 * max(1.0, oracle)
        # the array sigma along which a concatenation's monodromy path runs
        assert abs(float(_sigma(np.array([s]))[0]) - sig) <= 1e-15


def _assembled_factor_flows(germ, z0, flow=flow_jacobians):
    """(phi(z0), Dphi(z0)) of a direct sum from flow(factor, points), each
    factor's values and Jacobian blocks placed by direct_sum_indices."""
    end, jac = np.empty_like(z0), np.zeros((len(z0), 2 * germ.n, 2 * germ.n))
    for g, idx in zip(germ.factors, direct_sum_indices(*(g.n for g in germ.factors))):
        end[:, idx], jac[:, idx[:, None], idx] = flow(g, z0[:, idx])
    return end, jac


def _row_major_flow(germ, z0):
    """Oracle for the component-major variational flow: the same equations
    with one (z, M) block per point, products as stacked matmuls.
    Returns (phi(z0), Dphi(z0)) of the batch z0 of shape (N, 2n).  A germ
    with pieces composes its pieces' flows, and a direct sum runs its
    factors' flows side by side, as the flow under test does."""
    if germ.pieces is not None:
        first, second = germ.pieces
        mid, d1 = _row_major_flow(first, z0)
        end, d2 = _row_major_flow(second, mid)
        return end, d2 @ d1
    if germ.factors is not None:
        return _assembled_factor_flows(germ, z0, _row_major_flow)
    jvf = vectorfield_j(germ.n)
    dim = 2 * germ.n
    nbatch = len(z0)
    per = dim + dim * dim
    y0 = np.zeros((nbatch, per))
    y0[:, :dim] = z0
    y0[:, dim:] = np.eye(dim).reshape(-1)

    def rhs(t, y):
        blocks = y.reshape(nbatch, per)
        z = blocks[:, :dim]
        m = blocks[:, dim:].reshape(nbatch, dim, dim)
        dz = germ.grad(t, z) @ jvf.T
        dm = jvf @ (germ.hess(t, z) @ m)
        return np.concatenate([dz, dm.reshape(nbatch, -1)], axis=1).reshape(-1)

    sol = solve_ivp(rhs, (0.0, 1.0), y0.reshape(-1), method="DOP853", rtol=RTOL, atol=ATOL)
    final = sol.y[:, -1].reshape(nbatch, per)
    return final[:, :dim], final[:, dim:].reshape(nbatch, dim, dim)


ORACLE_GERMS = {
    **{
        name: GERMS[name].factory
        for name in (
            "quartic-max",
            "resonant-rotation",
            "negative-hyperbolic-2",
            "product-rot-quartic",
        )
    },
    # time-dependent and nonlinear in both pieces
    "resonant#quartic": lambda: concatenate(resonant_rotation(), quartic(1)),
}


@pytest.mark.parametrize("nbatch", [1, 7, 300])
@pytest.mark.parametrize("name", sorted(ORACLE_GERMS))
def test_variational_flow_matches_row_major_oracle(name, nbatch):
    germ = ORACLE_GERMS[name]()
    z0 = np.random.default_rng(nbatch).uniform(-0.2, 0.2, (nbatch, 2 * germ.n))
    phi, jac = flow_jacobians(germ, z0)
    ref_phi, ref_jac = _row_major_flow(germ, z0)
    assert phi.shape == ref_phi.shape and jac.shape == ref_jac.shape
    np.testing.assert_allclose(phi, ref_phi, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(jac, ref_jac, rtol=0.0, atol=1e-12)
    if nbatch == 1:
        end = monodromy(germ, z0[0]).endpoint().entries
        np.testing.assert_allclose(end, ref_jac[0], rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "name", ["quartic-max", "quartic-min", "monkey-saddle", "shear", "zero"]
)
def test_value_only_flow_matches_variational_flow(name):
    # the germs of the degenerate route, on the padded box of its iterate
    # tower; on fast-turning germs the two flows take different steps and
    # differ at the integrator tolerance instead
    germ = GERMS[name].factory()
    z0 = Box(center=(0.0, 0.0), radius=0.16).nodes(33)
    values = flow_points(germ, z0)
    assert values.shape == z0.shape
    np.testing.assert_allclose(values, flow_jacobians(germ, z0)[0], rtol=0.0, atol=1e-12)


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


def _affine_search(a, b, calls, seeds, newton_tol, max_iter, escape, k):
    """_newton_search for k-periodic points of z -> a z + b from the seeds'
    orbit, recording the size of every batch; a value-only batch of n
    points as ("value", n)."""

    def value(z):
        calls.append(("value", len(z)))
        return z @ a.T + b

    def value_and_jac(z):
        calls.append(len(z))
        return z @ a.T + b, np.broadcast_to(a, (len(z),) + a.shape).copy()

    start = _seed_orbit(value_and_jac, seeds, k)
    return _newton_search(value, value_and_jac, start, newton_tol, max_iter, escape)


def test_newton_search_on_an_affine_map():
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    fixed = np.linalg.solve(np.eye(2) - a, b)
    seeds = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5], fixed])
    residual = lambda z: np.linalg.norm(z @ a.T + b - z, axis=1)

    # converged: every seed ends at the fixed point within newton_tol
    calls = []
    z, rnorm = _affine_search(a, b, calls, seeds, 1e-11, 40, 100.0, 1)
    assert np.all(rnorm <= 1e-11)
    np.testing.assert_allclose(rnorm, residual(z), rtol=0.0, atol=1e-15)
    assert np.max(np.abs(z - fixed)) <= 1e-12
    assert calls == [4, 3]

    # escaping: a step past the escape radius is not taken and retires the seed
    calls = []
    far = np.linalg.norm(fixed) / 2.0
    z, rnorm = _affine_search(a, b, calls, seeds[:3], 1e-11, 40, far, 1)
    assert np.array_equal(z, seeds[:3])
    np.testing.assert_array_equal(rnorm, residual(seeds[:3]))
    assert calls == [3]

    # still moving after max_iter: one more evaluation, values only, gives
    # the final residual
    calls = []
    z, rnorm = _affine_search(a, b, calls, seeds[:3], 1e-11, 1, 100.0, 1)
    assert calls == [3, ("value", 3)]
    np.testing.assert_array_equal(rnorm, residual(z))
    assert np.all(rnorm <= 1e-11)


@pytest.mark.parametrize("k", [2, 3])
def test_newton_search_solves_an_affine_k_cycle_in_one_step(k):
    # no eigenvalue of a is a root of unity, so the only k-periodic point of
    # z -> a z + b is its fixed point; the shooting system is linear
    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    fixed = np.linalg.solve(np.eye(2) - a, b)
    seeds = np.array([[0.0, 0.0], [1.0, -1.0], [-2.0, 0.5]])
    power = np.linalg.matrix_power(a, k)
    shift = sum(np.linalg.matrix_power(a, i) for i in range(k)) @ b
    orbit_residual = np.linalg.norm(seeds @ power.T + shift - seeds, axis=1)

    # k calls place the nodes on each seed's orbit; after the one step, a
    # single call on all k nodes of every seed finds the cycle closed
    calls = []
    z, rnorm = _affine_search(a, b, calls, seeds, 1e-11, 40, 1e3, k)
    assert calls == [3] * k + [3 * k]
    assert np.all(rnorm <= 1e-11)
    assert np.max(np.abs(z - fixed)) <= 1e-12

    # the step moves every node to the fixed point, out of this escape ball:
    # it is not taken, and the residual is that of the seed's orbit
    calls = []
    far = np.linalg.norm(fixed) / 2.0
    z, rnorm = _affine_search(a, b, calls, seeds, 1e-11, 40, far, k)
    assert calls == [3] * k
    assert np.array_equal(z, seeds)
    np.testing.assert_allclose(rnorm, orbit_residual, rtol=1e-12)


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


JET_GERMS = {
    # composite corpus germs carry no callbacks; their smooth forms do
    **{name: lambda f=entry.factory: smooth(f()) for name, entry in GERMS.items()},
    "translate": lambda: translate(resonant_rotation(), np.array([0.1, -0.05])),
    "concatenate": lambda: smooth_concatenation(resonant_rotation(), quartic(1)),
    "direct-sum": lambda: smooth_direct_sum(resonant_rotation(), twisted_rotation()),
    "iterate": lambda: iterate(concatenate(twisted_rotation(), quartic(-1)), 3),
}

# the germs whose flows call their callbacks, and the composites flowed by
# their structure, whose callbacks no flow may call
FLOWED_GERMS = {
    "resonant-rotation": resonant_rotation,
    "concatenate": lambda: concatenate(resonant_rotation(), quartic(1)),
    "direct-sum": lambda: direct_sum_germ(resonant_rotation(), twisted_rotation()),
}


@pytest.mark.parametrize("name", sorted(JET_GERMS))
def test_jet_equals_grad_and_hess(name):
    # times on both halves of a concatenation and at its junctions
    germ = JET_GERMS[name]()
    rng = np.random.default_rng(5)
    for t in (0.0, 0.2, 0.5, 0.7, 1.0):
        for nbatch in (1, 9, 200):
            z = rng.uniform(-0.4, 0.4, (nbatch, 2 * germ.n))
            grad, hess = germ.jet(t, z)
            assert grad.shape == z.shape and hess.shape == (nbatch, 2 * germ.n, 2 * germ.n)
            assert np.array_equal(grad, germ.grad(t, z))
            assert np.array_equal(hess, germ.hess(t, z))


def _refuse(*args):
    raise AssertionError("a callback the flow must not call")


def _refuse_smooth_callbacks(germ):
    if germ.pieces or germ.factors:
        germ.value = germ.jet = germ.grad = germ.hess = _refuse


def _record_solves(monkeypatch):
    """Patch the flows' solver to log the number of right-hand sides of
    every solve, in order; returns the log."""
    solve, nfevs = germs_module._solve, []

    def recording(rhs, y0, dense=False):
        sol = solve(rhs, y0, dense)
        nfevs.append(sol.nfev)
        return sol

    monkeypatch.setattr(germs_module, "_solve", recording)
    return nfevs


@pytest.mark.parametrize("name", sorted(FLOWED_GERMS))
def test_variational_flow_calls_the_jet_once_per_right_hand_side(name, monkeypatch):
    # a concatenation is flowed piece by piece and a direct sum factor by
    # factor: the count holds for each solve, and no callback of the
    # composite itself is called
    germ = FLOWED_GERMS[name]()
    solved = germ.pieces or germ.factors or (germ,)
    calls = [[] for _ in solved]
    for g, log in zip(solved, calls):

        def counting(t, z, jet=g.jet, log=log):
            log.append(len(z))
            return jet(t, z)

        g.jet, g.grad, g.hess = counting, _refuse, _refuse
    _refuse_smooth_callbacks(germ)
    nfevs = _record_solves(monkeypatch)
    z0 = np.random.default_rng(2).uniform(-0.2, 0.2, (7, 2 * germ.n))
    flow_jacobians(germ, z0)
    assert [len(log) for log in calls] == nfevs
    assert all(set(log) == {7} for log in calls)
    # value-only flows call grad alone
    germ = FLOWED_GERMS[name]()
    for g in germ.pieces or germ.factors or (germ,):
        g.jet, g.hess = _refuse, _refuse
    _refuse_smooth_callbacks(germ)
    flow_points(germ, z0)
    orbit_action(germ, np.zeros(2 * germ.n))


def test_negative_hyperbolic_monodromy_takes_few_right_hand_sides(monkeypatch):
    # its two pieces are flowed one after the other: 227 + 62 right-hand
    # sides, where the smooth concatenation took 1,838 to step through the
    # reparametrization at the junction
    nfevs = _record_solves(monkeypatch)
    monodromy(negative_hyperbolic(2.0)).endpoint()
    assert len(nfevs) == 2 and sum(nfevs) < 600


PIECEWISE_GERMS = {
    "negative-hyperbolic-2": lambda: negative_hyperbolic(2.0),
    "resonant#quartic": lambda: concatenate(resonant_rotation(), quartic(1)),
    "half-turn-then-shear": lambda: concatenate(linear_rotation(0.5), shear()),
    "nested": lambda: concatenate(
        concatenate(linear_rotation(0.1), twisted_rotation()), quartic(-1)
    ),
    "translated": lambda: translate(
        concatenate(resonant_rotation(), quartic(1)), np.array([0.05, -0.02])
    ),
}


@pytest.mark.parametrize("name", sorted(PIECEWISE_GERMS))
def test_piecewise_flows_match_the_smooth_concatenation(name):
    germ = PIECEWISE_GERMS[name]()
    assert germ.pieces is not None
    ref = smooth(germ)
    z0 = np.random.default_rng(8).uniform(-0.2, 0.2, (7, 2))
    phi, jac = flow_jacobians(germ, z0)
    ref_phi, ref_jac = flow_jacobians(ref, z0)
    np.testing.assert_allclose(phi, ref_phi, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(jac, ref_jac, rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(flow_points(germ, z0), ref_phi, rtol=0.0, atol=1e-9)
    # the path itself, on both pieces, at the junction and at the ends
    ts = np.linspace(0.0, 1.0, 101)
    path, ref_path = monodromy(germ), monodromy(ref)
    np.testing.assert_allclose(path.evaluate(ts), ref_path.evaluate(ts), rtol=0.0, atol=1e-9)
    assert index_report(path).conley_zehnder == index_report(ref_path).conley_zehnder


def test_piecewise_action_matches_the_smooth_concatenation():
    # (0.1, 0) is moved by each half turn and closes after the second
    germ = concatenate(linear_rotation(0.5), linear_rotation(0.5))
    point = np.array([0.1, 0.0])
    assert abs(orbit_action(germ, point) - orbit_action(smooth(germ), point)) < 1e-10


@pytest.mark.parametrize("x", [-1.0, 1.0])
def test_piecewise_action_adds_the_pieces_actions(x):
    # a rest point of both pieces: each contributes H(+-1, 0) = -EPS / 4,
    # up to the rounding of the integrator's weights
    germ = concatenate(morse_triple(), morse_triple())
    assert abs(orbit_action(germ, np.array([x, 0.0])) - (-EPS / 2.0)) <= 1e-15


def test_translate_distributes_over_pieces():
    point = np.array([1.0, 0.0])
    shifted = translate(concatenate(morse_triple(), linear_rotation(1.0)), point)
    assert [g.name for g in shifted.pieces] == ["morse-triple(0.05)@shifted", "rotation(1.0)@shifted"]
    # the translated rest point (1, 0) of the first piece, which the full
    # turn of the second brings back
    rec = fixed_point_record(shifted, np.zeros(2))
    assert abs(rec.action - (-EPS / 4.0 + orbit_action(linear_rotation(1.0), point))) < 1e-10


# --- direct sums, flowed factor by factor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_direct_sum_flows_are_the_factor_flows(seed):
    germ = GERMS["product-rot-quartic"].factory()
    (g1, g2), (i1, i2) = germ.factors, direct_sum_indices(1, 1)
    rng = np.random.default_rng(seed)
    z0 = rng.uniform(-0.3, 0.3, (int(rng.integers(1, 40)), 4))
    phi, jac = flow_jacobians(germ, z0)
    ref_phi, ref_jac = _assembled_factor_flows(germ, z0)
    assert np.array_equal(phi, ref_phi) and np.array_equal(jac, ref_jac)
    values = flow_points(germ, z0)
    assert np.array_equal(values[:, i1], flow_points(g1, z0[:, i1]))
    assert np.array_equal(values[:, i2], flow_points(g2, z0[:, i2]))
    # the monodromy path is block diagonal, with the factors' paths as blocks
    ts = np.linspace(0.0, 1.0, 101)
    path = monodromy(germ, z0[0]).evaluate(ts)
    blocks = np.zeros_like(path)
    blocks[:, i1[:, None], i1] = monodromy(g1, z0[0, i1]).evaluate(ts)
    blocks[:, i2[:, None], i2] = monodromy(g2, z0[0, i2]).evaluate(ts)
    assert np.array_equal(path, blocks)
    # the action is the sum of the factors' actions
    end, action = germs_module._segment_action(germ, z0[0])
    end1, a1 = germs_module._segment_action(g1, z0[0, i1])
    end2, a2 = germs_module._segment_action(g2, z0[0, i2])
    assert np.array_equal(end[i1], end1) and np.array_equal(end[i2], end2)
    assert action == a1 + a2
    # a closed orbit: a rest point of the double well times a full turn
    closed = direct_sum_germ(morse_triple(), linear_rotation(1.0))
    z = np.array([1.0, 0.1, 0.0, 0.0])
    parts = [orbit_action(g, z[idx]) for g, idx in zip(closed.factors, (i1, i2))]
    assert orbit_action(closed, z) == parts[0] + parts[1]


@pytest.mark.parametrize("seed", [0, 1])
def test_direct_sum_flows_match_the_smooth_direct_sum(seed):
    germ = GERMS["product-rot-quartic"].factory()
    ref = smooth_direct_sum(*germ.factors)
    z0 = np.random.default_rng(seed).uniform(-0.3, 0.3, (25, 4))
    phi, jac = flow_jacobians(germ, z0)
    ref_phi, ref_jac = flow_jacobians(ref, z0)
    np.testing.assert_allclose(phi, ref_phi, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(jac, ref_jac, rtol=0.0, atol=1e-11)
    np.testing.assert_allclose(flow_points(germ, z0), ref_phi, rtol=0.0, atol=1e-11)
    path, ref_path = monodromy(germ, z0[0]), monodromy(ref, z0[0])
    np.testing.assert_allclose(
        path.endpoint().entries, ref_path.endpoint().entries, rtol=0.0, atol=1e-11
    )
    # between steps the dense output interpolates at a lower order than the
    # steps take: the two paths differ there by up to 4.0e-11
    ts = np.linspace(0.0, 1.0, 101)
    np.testing.assert_allclose(path.evaluate(ts), ref_path.evaluate(ts), rtol=0.0, atol=1e-10)
    action, ref_action = (germs_module._segment_action(g, z0[0])[1] for g in (germ, ref))
    assert abs(action - ref_action) <= 1e-11


def test_direct_sum_with_a_concatenated_factor_takes_few_right_hand_sides(monkeypatch):
    # each factor is flowed alone, and the concatenated one piece by piece:
    # one 4D integration through the junction bump took 1,637 right-hand sides
    germ = direct_sum_germ(negative_hyperbolic(2.0), linear_rotation(0.3183))
    nfevs = _record_solves(monkeypatch)
    end = monodromy(germ).endpoint().entries
    assert len(nfevs) == 3 and sum(nfevs) < 600
    want = np.zeros((4, 4))
    want[[0, 2], [0, 2]] = -2.0, -0.5
    want[np.ix_([1, 3], [1, 3])] = rot(2.0 * np.pi * 0.3183)
    np.testing.assert_allclose(end, want, rtol=0.0, atol=1e-9)


def test_translate_distributes_over_factors():
    germ = direct_sum_germ(morse_triple(), linear_rotation(0.3183))
    point = np.array([1.0, 0.2, 0.0, -0.1])
    shifted = translate(germ, point)
    assert shifted.value is None
    assert [g.name for g in shifted.factors] == [
        "morse-triple(0.05)@shifted",
        "rotation(0.3183)@shifted",
    ]
    ref = translate(smooth(germ), point)
    z0 = np.random.default_rng(4).uniform(-0.2, 0.2, (9, 4))
    for got, want in zip(flow_jacobians(shifted, z0), flow_jacobians(ref, z0)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)
    # the rest point (1, 0) of the first factor times the rotation's origin
    rec = fixed_point_record(translate(germ, np.array([1.0, 0.0, 0.0, 0.0])), np.zeros(4))
    assert abs(rec.action - (-EPS / 4.0)) < 1e-10


def test_germ_refuses_callbacks_it_cannot_flow():
    g = linear_rotation(0.1)
    with pytest.raises(ValueError, match="all of value, grad and jet"):
        HamiltonianGerm(n=1, value=g.value, grad=g.grad)
    with pytest.raises(ValueError, match="all of value, grad and jet"):
        HamiltonianGerm(n=1, jet=g.jet, pieces=(g, g))
    with pytest.raises(ValueError, match="needs pieces or factors"):
        HamiltonianGerm(n=1, name="empty")
    # a composite sets no callback, and has no Hessian to derive
    assert concatenate(g, g).hess is None


def test_germ_refuses_malformed_structure_when_built():
    g = linear_rotation(0.1)
    with pytest.raises(ValueError, match="factors must be two germs whose n add up to 3"):
        HamiltonianGerm(n=3, factors=(g, g, g))
    with pytest.raises(ValueError, match="factors must be two germs whose n add up to 3"):
        HamiltonianGerm(n=3, factors=(g, g))
    with pytest.raises(ValueError, match="pieces must be two germs of n 2"):
        HamiltonianGerm(n=2, pieces=(g, g))
    with pytest.raises(ValueError, match="pieces must be two germs of n 1"):
        concatenate(g, direct_sum_germ(g, g))


def test_a_flow_past_its_right_hand_side_budget_is_refused(monkeypatch):
    germ = quartic(-1)
    z = np.array([[0.1, 0.0]])
    flow_points(germ, z)
    monkeypatch.setattr(germs_module, "RHS_BUDGET", 20)
    with pytest.raises(StepFailure, match="unfinished after 20 right-hand sides"):
        flow_points(germ, z)
    with pytest.raises(StepFailure, match="unfinished after 20 right-hand sides"):
        flow_jacobians(germ, z)


def test_flows_leave_no_integrator_behind():
    """The integrator makes no reference cycle: with the collector off, a
    flow, and each refusal, frees everything it allocated by reference
    counting, so gc.collect() finds nothing after it."""
    germ = resonant_rotation()
    # a long flow: the twist turns fast at |z| = 0.5
    far = np.array([[0.5, 0.0]])
    near = np.array([[0.1, 0.0]])
    blowup = HamiltonianGerm(
        n=1,
        value=lambda t, z: z[:, 0] * np.inf,
        grad=lambda t, z: z * np.inf,
        jet=lambda t, z: (z * np.inf, np.zeros((len(z), 2, 2))),
    )

    def refused(flow, germ, z, match):
        with pytest.raises(StepFailure, match=match):
            flow(germ, z)

    runs = [
        lambda: _variational_flow(germ, far, dense=False),
        lambda: flow_points(germ, far),
        lambda: flow_jacobians(
            germ, np.vstack([far, np.random.default_rng(3).uniform(-0.3, 0.3, (50, 2))])
        ),
        lambda: monodromy(germ, far[0]).endpoint(),
        lambda: flow_points(germ, np.empty((0, 2))),
        # past the default budget far out on the quartic
        lambda: refused(
            flow_points,
            quartic(-1),
            np.array([[100.0, 0.0]]),
            "unfinished after 50000 right-hand sides",
        ),
    ]
    # a right-hand side that is 0 * inf at a zero coordinate, and one of
    # order 1e306, which the step size selection divides by the tolerances,
    # overflowing
    for flow in (flow_points, flow_jacobians):
        for bad in (blowup, monkey_saddle(eps=1e308)):
            runs.append(lambda f=flow, g=bad: refused(f, g, near, "non-finite right-hand side"))
    assert _variational_flow(germ, far, dense=False).nfev > 1000
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_refusal_past_a_small_budget_leaves_nothing_for_the_collector(monkeypatch):
    monkeypatch.setattr(germs_module, "RHS_BUDGET", 20)
    gc.collect()
    gc.disable()
    try:
        for flow in (flow_points, flow_jacobians):
            with pytest.raises(StepFailure, match="unfinished after 20 right-hand sides"):
                flow(quartic(-1), np.array([[0.1, 0.0]]))
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_tableau_is_scipys_bit_for_bit():
    for name in ("A", "B", "C", "D", "E3", "E5"):
        ours, theirs = getattr(dop853, name), getattr(dop853_coefficients, name)
        assert ours.shape == theirs.shape and ours.tobytes() == theirs.tobytes(), name
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(dop853, name) == getattr(dop853_coefficients, name)


def _recorded_solves(monkeypatch, run) -> list:
    """The arguments of every integrator call that run() makes through
    germs.solve_ivp."""
    calls = []
    ours = germs_module.solve_ivp

    def recording(fun, t_span, y0, **options):
        calls.append((fun, t_span, np.array(y0, copy=True), options))
        return ours(fun, t_span, y0, **options)

    monkeypatch.setattr(germs_module, "solve_ivp", recording)
    run()
    monkeypatch.undo()
    return calls


def _assert_same_solution(fun, t_span, y0, options):
    ours = dop853.solve_ivp(fun, t_span, y0, **options)
    theirs = solve_ivp(fun, t_span, y0, method="DOP853", **options)
    assert ours.nfev == theirs.nfev
    for name in ("status", "message", "success"):
        assert getattr(ours, name) == getattr(theirs, name)
    assert ours.t.tobytes() == theirs.t.tobytes()
    assert ours.y.shape == theirs.y.shape and ours.y.tobytes() == theirs.y.tobytes()
    if options.get("dense_output"):
        # both ends, the step times (each read on the step it ends) and between
        ts = np.concatenate([theirs.t, np.linspace(0.0, 1.0, 41), [0.37, 1.0, 0.0]])
        assert np.array_equal(ours.sol(ts), theirs.sol(ts))


@pytest.mark.parametrize("npoints", [0, 1, 5])
@pytest.mark.parametrize("name", sorted(GERMS))
def test_flows_integrate_as_scipys_dop853_bit_for_bit(monkeypatch, name, npoints):
    """Every integrator call of a value-only flow, a variational flow and,
    for one point, a monodromy path gives scipy's states, right-hand-side
    count and dense output bit for bit.  An empty batch evaluates one
    right-hand side and stops, as scipy's does."""
    germ = GERMS[name].factory()
    z = np.random.default_rng(npoints).uniform(-0.05, 0.05, (npoints, 2 * germ.n))

    def run():
        flow_points(germ, z)
        flow_jacobians(germ, z)
        if npoints == 1:
            monodromy(germ, z[0]).endpoint()

    calls = _recorded_solves(monkeypatch, run)
    assert calls
    for fun, t_span, y0, options in calls:
        assert options == {"rtol": RTOL, "atol": ATOL, "dense_output": options["dense_output"]}
        _assert_same_solution(fun, t_span, y0, options)
        if npoints == 0:
            assert dop853.solve_ivp(fun, t_span, y0, **options).nfev == 1


def test_refusals_are_scipys():
    """A right-hand side that overflows and one that is not finite raise
    the same floating point error as in scipy; a solution that blows up in
    finite time fails with scipy's step size message, at the same count."""
    options = dict(rtol=RTOL, atol=ATOL)

    def scipys(*args, **kwargs):
        return solve_ivp(*args, method="DOP853", **kwargs)

    for fun, y0 in (
        (lambda t, y: y * 1e308, np.array([10.0])),
        (lambda t, y: y * np.inf, np.array([0.0, 1.0])),
    ):
        errors = []
        for solve in (dop853.solve_ivp, scipys):
            with np.errstate(invalid="raise", over="raise"):
                with pytest.raises(FloatingPointError) as info:
                    solve(fun, (0.0, 1.0), y0, **options)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    # y' = y^2 from y = 2 blows up at t = 1/2
    def blowup(t, y):
        return y * y

    with np.errstate(over="ignore"):
        ours = dop853.solve_ivp(blowup, (0.0, 1.0), np.array([2.0]), **options)
        assert not ours.success and ours.message == dop853.TOO_SMALL_STEP
        _assert_same_solution(blowup, (0.0, 1.0), np.array([2.0]), options)
