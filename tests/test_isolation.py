"""Discrete isolation certificates: the c(k) constant, periodic point
searches, and the contraction criterion."""

from fractions import Fraction

import numpy as np
import pytest

from localfloer import (
    Box,
    DiscreteOrbit,
    OdeGermMap,
    c_constant,
    c_constant_exact,
    contraction_check,
    maximizing_orbit,
    periodic_point_search,
    splitting_ratio_report,
)
from localfloer.errors import LinearizationNotIdentity, NewtonDivergence
from localfloer.corpus import (
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    quartic,
    resonant_rotation,
    shear,
    zero_germ,
)


# ----------------------------------------------------------- the constant


def test_c_constant_exact_small_values():
    # k=2 is the headline value; the rest follow the same vertex count
    assert c_constant_exact(2) == Fraction(1, 2)
    assert c_constant_exact(3) == Fraction(2, 3)
    assert c_constant_exact(4) == Fraction(1)
    assert c_constant_exact(5) == Fraction(6, 5)
    assert c_constant_exact(6) == Fraction(3, 2)
    assert c_constant_exact(7) == Fraction(12, 7)
    assert c_constant_exact(8) == Fraction(2)


def vertex_enumeration(k):
    """Best norm and maximizing orbit over the k(k-1) vertices (e_i - e_j)/2
    of the zero-sum L1 ball, first maximum kept, in exact arithmetic."""
    best_norm = Fraction(-1)
    best = None
    half = Fraction(1, 2)
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            eta = [Fraction(0)] * k
            eta[i] = half
            eta[j] = -half
            xi = [Fraction(0)] * k
            for l in range(1, k):
                xi[l] = xi[l - 1] + eta[l - 1]
            mean = sum(xi) / k
            norm = sum(abs(v - mean) for v in xi)
            if norm > best_norm:
                best_norm = norm
                best = [v - mean for v in xi]
    return best_norm, np.array([float(v) for v in best])[:, None]


@pytest.mark.parametrize("k", range(2, 13))
def test_c_constant_closed_form(k):
    norm, orbit = vertex_enumeration(k)
    assert c_constant_exact(k) == norm
    assert np.array_equal(maximizing_orbit(k), orbit)


def test_c_constant_rejects_k_below_two():
    with pytest.raises(ValueError):
        c_constant_exact(1)
    with pytest.raises(ValueError):
        c_constant(0)
    with pytest.raises(ValueError):
        maximizing_orbit(1)


def test_c_constant_independent_of_dimension():
    for k in (2, 3, 7, 12):
        assert c_constant(k) == float(c_constant_exact(k))


def test_c_constant_nondecreasing():
    vals = [c_constant_exact(k) for k in range(2, 13)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", range(2, 13))
def test_maximizing_orbit_attains_equality(k):
    xi = maximizing_orbit(k)
    orbit = DiscreteOrbit(xi.reshape(k, 1))
    assert abs(float(np.sum(xi))) <= 1e-12
    lhs = orbit.l1_norm()
    rhs = c_constant(k) * orbit.difference_l1_norm()
    assert orbit.difference_l1_norm() > 0.0
    assert abs(lhs - rhs) <= 1e-12


def test_random_zero_mean_orbits_satisfy_bound():
    # the inequality must hold for arbitrary zero-mean sequences in R^2
    rng = np.random.default_rng(0)
    for k in range(2, 13):
        c = c_constant(k)
        for _ in range(200):
            pts = rng.standard_normal((k, 2))
            pts -= pts.mean(axis=0)
            orbit = DiscreteOrbit(pts)
            assert orbit.l1_norm() <= c * orbit.difference_l1_norm() + 1e-12


def test_discrete_orbit_norms_by_hand():
    orbit = DiscreteOrbit(np.array([[1.0], [-1.0]]))
    assert orbit.k == 2
    assert orbit.l1_norm() == 2.0
    assert orbit.difference_l1_norm() == 4.0
    # this orbit is exactly the k=2 maximizer
    assert orbit.l1_norm() == c_constant(2) * orbit.difference_l1_norm()


def test_discrete_orbit_differences_are_cyclic():
    pts = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, -3.0]])
    diffs = DiscreteOrbit(pts).differences()
    assert np.allclose(diffs[-1], pts[0] - pts[-1])
    assert np.allclose(diffs.sum(axis=0), 0.0)


def test_discrete_orbit_rejects_flat_input():
    with pytest.raises(ValueError):
        DiscreteOrbit(np.zeros(4))


# ------------------------------------------------------ periodic searches


@pytest.fixture(scope="module")
def quartic_map():
    return OdeGermMap(quartic(-1))


@pytest.fixture(scope="module")
def resonant_map():
    return OdeGermMap(resonant_rotation())


@pytest.mark.parametrize("k", [2, 3])
def test_search_quartic_isolated(quartic_map, k):
    rep = periodic_point_search(quartic_map, k, [0.05, 0.01], seeds_per_axis=9)
    assert rep.conclusion == "ISOLATION_HOLDS"
    assert rep.admissible
    assert rep.witnesses == ()
    # degenerate origin: stalled seeds must be attributed, not reported
    assert 0.0 < rep.origin_resolution < 5e-3
    smallest = rep.per_radius[-1]
    assert smallest["radius"] == 0.01
    assert len(smallest["points"]) >= 1
    assert all(n <= rep.origin_resolution for n in smallest["norms"])


def test_search_rotation_third_fails_with_witnesses():
    phi = OdeGermMap(linear_rotation(1.0 / 3.0))
    rep = periodic_point_search(phi, 3, [0.1], seeds_per_axis=9)
    assert not rep.admissible
    assert rep.conclusion == "ISOLATION_FAILS"
    assert len(rep.witnesses) > 0
    for w in rep.witnesses:
        # a third of a turn moves every nonzero point noticeably
        assert w["step_displacement"] > 1e-3
        assert np.linalg.norm(w["point"]) > rep.origin_resolution


def test_search_resonant_ring_outside_small_ball(resonant_map):
    rep = periodic_point_search(resonant_map, 3, [0.2, 0.001], seeds_per_axis=9)
    # the 3-periodic ring sits near radius 0.15: outside the final ball,
    # so isolation holds there while the witnesses record the ring
    assert rep.conclusion == "ISOLATION_HOLDS"
    assert len(rep.witnesses) > 0
    for w in rep.witnesses:
        assert abs(np.linalg.norm(w["point"]) - 0.15) < 0.02
        assert w["step_displacement"] > 1e-3


def test_search_resonant_ring_inside_large_ball(resonant_map):
    rep = periodic_point_search(resonant_map, 3, [0.2], seeds_per_axis=9)
    assert rep.conclusion == "ISOLATION_FAILS"
    assert len(rep.witnesses) > 0


def test_search_resonant_clean_order(resonant_map):
    rep = periodic_point_search(resonant_map, 4, [0.2, 0.001], seeds_per_axis=9)
    assert rep.admissible
    assert rep.conclusion == "ISOLATION_HOLDS"
    assert rep.witnesses == ()


def test_search_flows_each_newton_step_once(monkeypatch):
    import localfloer.genfun as genfun

    phi = OdeGermMap(resonant_rotation())
    batches = []
    original = genfun.flow_jacobians

    def recording(germ, points, *args, **kwargs):
        batches.append(np.array(points, copy=True))
        return original(germ, points, *args, **kwargs)

    monkeypatch.setattr(genfun, "flow_jacobians", recording)
    # an even seed count leaves the origin out of the seeds, so every seed moves
    rep = periodic_point_search(phi, 1, [0.05], seeds_per_axis=8)
    assert rep.conclusion == "ISOLATION_HOLDS"
    for i, later in enumerate(batches):
        for earlier in batches[:i]:
            assert not np.array_equal(later, earlier)


def test_search_does_not_flow_retired_seeds():
    phi = OdeGermMap(resonant_rotation())
    calls = []
    one_pass = phi.value_and_jac

    def recording(pts):
        img, jac = one_pass(pts)
        calls.append((np.array(pts, copy=True), np.linalg.norm(img - pts, axis=1)))
        return img, jac

    phi.value_and_jac = recording
    newton_tol = 1e-11
    periodic_point_search(phi, 1, [0.05], seeds_per_axis=8, newton_tol=newton_tol)
    retired_early = 0
    for i, (pts, rnorm) in enumerate(calls):
        done = pts[rnorm <= newton_tol]
        retired_early += len(done) if i < len(calls) - 1 else 0
        for later, _ in calls[i + 1 :]:
            assert not any(np.any(np.all(later == p, axis=1)) for p in done)
    # seeds converge at different steps, so some retire before the loop ends
    assert retired_early > 0


def test_search_identity_fails_without_witnesses():
    # every point is fixed, so nothing moves and nothing can be a witness,
    # yet the origin is certainly not isolated
    rep = periodic_point_search(OdeGermMap(zero_germ()), 2, [0.05], seeds_per_axis=7)
    assert rep.conclusion == "ISOLATION_FAILS"
    assert rep.witnesses == ()
    assert len(rep.per_radius[-1]["points"]) > 1


def test_search_requires_a_radius(quartic_map):
    with pytest.raises(ValueError):
        periodic_point_search(quartic_map, 2, [])


def test_search_requires_a_positive_order(quartic_map):
    with pytest.raises(ValueError, match="iteration order must be >= 1"):
        periodic_point_search(quartic_map, 0, [0.1])


def test_search_report_round_trips_to_json(quartic_map):
    rep = periodic_point_search(quartic_map, 2, [0.02], seeds_per_axis=5)
    data = rep.to_json()
    assert data["k"] == 2
    assert data["conclusion"] == rep.conclusion
    assert data["radii"] == [0.02]
    assert isinstance(data["per_radius"], list)
    assert isinstance(data["witnesses"], list)


# ----------------------------------------------------------- contraction


def test_contraction_identity_always_certifies():
    assert contraction_check(OdeGermMap(zero_germ()), 7, Box((0.0, 0.0), 0.1))


def test_contraction_quartic_small_box(quartic_map):
    ok, details = contraction_check(
        quartic_map, 3, Box((0.0, 0.0), 0.05), return_details=True
    )
    assert ok
    assert details["c1_norm"] < details["threshold"]
    assert details["threshold"] == 1.0 / c_constant(3)


def test_contraction_quartic_large_box_makes_no_claim(quartic_map):
    assert not contraction_check(quartic_map, 12, Box((0.0, 0.0), 1.5))


def test_contraction_rejects_nontrivial_linearization():
    phi = OdeGermMap(linear_rotation(0.1))
    with pytest.raises(LinearizationNotIdentity):
        contraction_check(phi, 2, Box((0.0, 0.0), 0.05))


def test_contraction_certificate_matches_search(quartic_map):
    # the two routes must agree: a certified box contains no nontrivial
    # periodic orbit, and the direct search indeed finds only the origin
    box = Box((0.0, 0.0), 0.05)
    assert contraction_check(quartic_map, 3, box)
    rep = periodic_point_search(quartic_map, 3, [0.05, 0.01], seeds_per_axis=9)
    assert rep.conclusion == "ISOLATION_HOLDS"


# ------------------------------------------------------- splitting ratios


@pytest.mark.parametrize("second", [quartic(-1), shear()], ids=["quartic", "shear"])
def test_splitting_ratio_rotation_plus_quartic(second):
    # the shear's eigenvalue 1 is a Jordan block: W needs both directions
    phi = OdeGermMap(direct_sum_germ(linear_rotation(0.05), second))
    rep = splitting_ratio_report(phi, k=1, radius=0.02)
    assert rep["v_dim"] == 2
    assert rep["w_dim"] == 2
    assert rep["pairs"] > 0
    # graph over the degenerate directions is flat to leading order
    assert rep["max_ratio"] <= 1e-6


def test_splitting_ratio_trivial_for_hyperbolic():
    rep = splitting_ratio_report(OdeGermMap(hyperbolic(2.0)), k=1)
    assert rep["w_dim"] == 0
    assert rep["v_dim"] == 2
    assert rep["max_ratio"] == 0.0
    assert rep["pairs"] == 0


def test_splitting_ratio_unconverged_newton_raises():
    phi = OdeGermMap(direct_sum_germ(linear_rotation(0.05), quartic(-1)))
    with pytest.raises(NewtonDivergence):
        splitting_ratio_report(phi, k=1, radius=0.02, newton_tol=-1.0)
