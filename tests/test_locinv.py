"""Graded local Floer ranks, the iteration shift law, and detection."""
import dataclasses

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
    morse_triple,
    negative_hyperbolic,
    quartic,
    shear,
)
from localfloer.cubical import GradedRanks, gradient_degree
from localfloer.errors import (
    DegenerateEndpoint,
    HypothesisFailed,
    NotAdmissible,
    RouteUnavailable,
    ShiftAmbiguous,
)
from localfloer.germs import (
    HamiltonianGerm,
    fixed_point_record,
    flow_jacobians,
    monodromy,
    translate,
)
from localfloer.invariants import (
    IterateSweep,
    _scaled_det_identity_minus_power,
    detect_sdm,
    local_floer,
    total_ranks,
    verify_persistence,
)
from localfloer.scenarios import MAX_ORDER
from localfloer.symplectic import SymplecticMatrix, admissible, good, validate_symplectic
from oracles import (
    degenerate_by_power,
    det_by_power,
    fixed_point_index,
    good_by_power,
    iterate,
    smooth_direct_sum,
)
from pathhelpers import random_symplectic


def record_of(germ):
    return fixed_point_record(germ, np.zeros(2 * germ.n))


def sweep_of(germ, **settings):
    return IterateSweep(germ, record_of(germ), **settings)


# --- single-order ranks per route


def test_small_maximum_has_rank_one_in_top_degree():
    germ = linear_rotation(0.05)
    lf = local_floer(sweep_of(germ))
    assert lf.route == "nondegenerate"
    assert lf.ranks.as_dict() == {1: 1}
    assert abs(lf.delta - 0.1) < 1e-6


def test_hyperbolic_rank_sits_in_degree_zero():
    germ = hyperbolic(2.0)
    lf = local_floer(sweep_of(germ))
    assert lf.ranks.as_dict() == {0: 1}


def test_first_order_reuses_the_record_winding(monkeypatch):
    germ = negative_hyperbolic(2.0)
    rec = record_of(germ)
    calls = []
    real = paths._rho_values
    monkeypatch.setattr(
        paths, "_rho_values", lambda vals, vecs: calls.append(len(vals)) or real(vals, vecs)
    )
    lf = local_floer(IterateSweep(germ, rec), 1)
    assert lf.route == "nondegenerate" and lf.ranks.as_dict() == {1: 1}
    assert calls == []


def test_reflected_saddle_answers_every_order_to_100():
    # the winding along the k-fold path was refused from k = 25 on
    germ = negative_hyperbolic(2.0)
    report = verify_persistence(sweep_of(germ), range(25, 101))
    assert [row.ranks.as_dict() for row in report.rows] == [{k: 1} for k in range(25, 101)]
    assert [row.s_k for row in report.rows] == [k - 1 for k in range(25, 101)]


def test_resonance_beyond_the_root_of_unity_search_is_refused():
    # 97 exceeds Q_MAX, so k = 97 is admissible, but E^97 is the identity
    germ = linear_rotation(1.0 / 97.0)
    rec = record_of(germ)
    sweep = IterateSweep(germ, rec)
    with pytest.raises(DegenerateEndpoint):
        local_floer(sweep, 97)
    assert local_floer(sweep, 96).ranks.as_dict() == {1: 1}
    assert local_floer(sweep, 98).ranks.as_dict() == {3: 1}


def test_sweep_winds_no_order(monkeypatch):
    germ = negative_hyperbolic(2.0)
    rec = record_of(germ)
    calls = []
    real = paths.winding
    monkeypatch.setattr(paths, "winding", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    report = verify_persistence(IterateSweep(germ, rec), range(1, 10))
    assert [row.s_k for row in report.rows] == list(range(9))
    assert calls == []


def test_parity_check_refuses_a_wrong_iteration_formula(monkeypatch):
    germ = linear_rotation(0.3183)
    rec = record_of(germ)
    real = paths._elliptic_data

    def without_pairs(vals, vecs, strict):
        return real(vals, vecs, strict)[0], [[] for _ in vals]

    monkeypatch.setattr(paths, "_elliptic_data", without_pairs)
    with pytest.raises(RouteUnavailable, match="parity"):
        local_floer(IterateSweep(germ, rec), 2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_degenerate_maximum_rank_is_stable(k):
    germ = quartic(-1)
    lf = local_floer(sweep_of(germ), k)
    assert lf.route == "strongly_degenerate"
    assert lf.ranks.as_dict() == {1: 1}
    assert lf.delta == 0.0
    assert lf.hypothesis["hessian_norm_at_zero"] < 2.0 * np.pi


def flow_sizes(monkeypatch):
    """Sizes of the value-only flow batches the iterate tower runs from now on."""
    import localfloer.genfun as genfun

    sizes = []
    original = genfun.flow_points

    def counting(germ, points, *args, **kwargs):
        sizes.append(len(points))
        return original(germ, points, *args, **kwargs)

    monkeypatch.setattr(genfun, "flow_points", counting)
    return sizes


def test_degenerate_route_flows_the_padded_grid_once_per_order(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    local_floer(IterateSweep(germ, rec), 2)
    assert sizes == [97**2, 97**2]


def test_split_route_convolves_factors():
    germ = direct_sum_germ(linear_rotation(0.3183), quartic(-1))
    lf = local_floer(sweep_of(germ))
    assert lf.route == "split"
    assert lf.ranks.as_dict() == {2: 1}
    assert abs(lf.delta - 2.0 * 0.3183) < 1e-6


def test_split_of_two_rotations():
    germ = direct_sum_germ(linear_rotation(0.3183), linear_rotation(0.4142))
    lf = local_floer(sweep_of(germ))
    assert lf.ranks.as_dict() == {2: 1}
    assert abs(lf.delta - 2.0 * (0.3183 + 0.4142)) < 1e-6


def test_mixed_spectrum_without_split_has_no_route():
    opaque = smooth_direct_sum(hyperbolic(2.0), shear())
    with pytest.raises(RouteUnavailable):
        local_floer(sweep_of(opaque))


def test_degenerate_germ_off_the_plane_without_factors_is_refused(monkeypatch):
    opaque = smooth_direct_sum(quartic(-1), quartic(-1))
    rec = record_of(opaque)
    sizes = flow_sizes(monkeypatch)
    with pytest.raises(RouteUnavailable, match="plane germs only"):
        local_floer(IterateSweep(opaque, rec))
    assert sizes == []


def test_inadmissible_order_refused():
    germ = linear_rotation(1.0 / 3.0)
    with pytest.raises(NotAdmissible):
        local_floer(sweep_of(germ), 3)


def test_kunneth_is_rank_convolution():
    a = GradedRanks.from_dict({1: 1, 2: 3})
    b = GradedRanks.from_dict({0: 2, 1: 1})
    assert a.convolve(b).as_dict() == {1: 2, 2: 7, 3: 3}


# --- persistence of ranks across iteration


def test_rotation_shift_sequence():
    germ = linear_rotation(0.3183)
    report = verify_persistence(sweep_of(germ), range(1, 7))
    shifts = [row.s_k for row in report.rows]
    assert shifts == [0, 0, 0, 2, 2, 2]
    assert all(report.checks.values())


def test_persistence_grows_one_iterate_tower(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    verify_persistence(IterateSweep(germ, rec), [1, 2, 3])
    assert sizes == [97**2] * 3


def test_degenerate_maximum_shifts_vanish():
    germ = quartic(-1)
    report = verify_persistence(sweep_of(germ), range(1, 4))
    assert [row.s_k for row in report.rows] == [0, 0, 0]
    assert all(report.checks.values())
    assert all(row.ranks.as_dict() == {1: 1} for row in report.rows)


def test_fixed_point_off_the_origin_answers_as_at_the_origin():
    """A record off the origin is read through the germ translated to it:
    the degenerate maximum moved to -p gives the rows it gives at 0."""
    p = np.array([0.3, -0.2])
    moved = translate(quartic(-1), p)
    here = verify_persistence(IterateSweep(moved, fixed_point_record(moved, -p)), [1, 2])
    there = verify_persistence(sweep_of(quartic(-1)), [1, 2])
    assert [dataclasses.astuple(row) for row in here.rows] == [
        dataclasses.astuple(row) for row in there.rows
    ]
    assert here.delta == pytest.approx(there.delta, abs=1e-9)


def test_reflected_saddle_odd_shift_at_bad_order():
    germ = negative_hyperbolic(2.0)
    report = verify_persistence(sweep_of(germ), [1, 2, 3])
    rows = {row.k: row for row in report.rows}
    assert rows[2].s_k == 1 and not rows[2].good
    assert rows[3].s_k == 2 and rows[3].good
    # parity is only promised at good orders, so the checks still pass
    assert report.checks["even_shift_at_good_orders"]


def test_persistence_rejects_inadmissible_order():
    germ = linear_rotation(1.0 / 3.0)
    with pytest.raises(NotAdmissible):
        verify_persistence(sweep_of(germ), [1, 2, 3])


def test_vanishing_ranks_cannot_be_aligned():
    # H = a x^3 + eps y^2: local homology of the inflection is zero in
    # every degree; a from the identity gate, eps small enough that the
    # cubic gradient clears the grid floor set by the y-curvature
    a, eps = 0.25, 0.01

    def value(t, z):
        return a * z[:, 0] ** 3 + eps * z[:, 1] ** 2

    def grad(t, z):
        return np.stack([3.0 * a * z[:, 0] ** 2, 2.0 * eps * z[:, 1]], axis=1)

    def jet(t, z):
        out = np.zeros((len(z), 2, 2))
        out[:, 0, 0] = 6.0 * a * z[:, 0]
        out[:, 1, 1] = 2.0 * eps
        return grad(t, z), out

    germ = HamiltonianGerm(n=1, value=value, grad=grad, jet=jet, name="inflection")
    with pytest.raises(ShiftAmbiguous):
        verify_persistence(sweep_of(germ), [1, 2])


def test_csv_rows_have_header_and_shifts():
    germ = linear_rotation(0.3183)
    rows = verify_persistence(sweep_of(germ), [1, 2]).csv_rows()
    assert rows[0] == ["k", "admissible", "good", "support", "s_k", "even"]
    assert rows[1][4] == "0"


# --- degenerate-maximum detection


def test_degenerate_maximum_is_detected():
    germ = quartic(-1)
    result = detect_sdm(sweep_of(germ))
    assert result["is_sdm"]
    assert result["evidence"]["strongly_degenerate"]
    assert result["evidence"]["crosscheck"]["consistent"]


def test_crosscheck_adds_one_padded_grid_flow(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    result = detect_sdm(IterateSweep(germ, rec))
    assert result["evidence"]["crosscheck"]["k"] == 2
    assert sizes == [97**2, 97**2]


def _crosscheck_raising(monkeypatch, exc):
    """Make the iterate sweep raise exc at the cross-check order k = 2 only."""
    original = IterateSweep.at

    def patched(self, k):
        if k == 2:
            raise exc
        return original(self, k)

    monkeypatch.setattr(IterateSweep, "at", patched)


def test_crosscheck_programming_error_propagates(monkeypatch):
    _crosscheck_raising(monkeypatch, TypeError("bug in the cross-check"))
    germ = quartic(-1)
    with pytest.raises(TypeError, match="bug in the cross-check"):
        detect_sdm(sweep_of(germ))


def test_crosscheck_refusal_is_recorded(monkeypatch):
    _crosscheck_raising(monkeypatch, HypothesisFailed("refused at order 2"))
    germ = quartic(-1)
    result = detect_sdm(sweep_of(germ))
    assert result["is_sdm"]
    assert result["evidence"]["crosscheck"] == {
        "k": 2,
        "error": "HypothesisFailed: refused at order 2",
    }


def test_small_nondegenerate_maximum_is_not_detected():
    germ = linear_rotation(0.05)
    result = detect_sdm(sweep_of(germ))
    assert not result["is_sdm"]
    assert result["evidence"]["delta"] > 1e-3


def test_degenerate_minimum_is_not_detected():
    germ = quartic(+1)
    result = detect_sdm(sweep_of(germ))
    assert not result["is_sdm"]
    assert result["evidence"]["hf_n_rank"] == 0


# --- totals and the index oracle


def test_total_rank_constant_for_degenerate_maximum():
    germ = quartic(-1)
    totals = total_ranks(sweep_of(germ), range(1, 4))
    assert totals == {1: 1, 2: 1, 3: 1}


def test_total_ranks_builds_each_factor_record_once(monkeypatch):
    import localfloer.invariants as inv

    germ = direct_sum_germ(linear_rotation(0.3183), quartic(-1))
    rec = record_of(germ)
    built = []
    original = inv.fixed_point_record
    monkeypatch.setattr(
        inv, "fixed_point_record", lambda g, p: built.append(g.name) or original(g, p)
    )
    assert total_ranks(IterateSweep(germ, rec, gf_radius=0.06), [1, 2]) == {1: 1, 2: 1}
    assert built == [g.name for g in germ.factors]


def test_total_ranks_skips_resonant_orders():
    germ = linear_rotation(1.0 / 3.0)
    totals = total_ranks(sweep_of(germ), range(1, 5))
    assert sorted(totals) == [1, 2, 4]


def test_fixed_point_index_oracle():
    quartic_max = quartic(-1)
    rotation = linear_rotation(0.05)
    assert fixed_point_index(quartic_max) == 1
    assert fixed_point_index(rotation) == 1
    assert fixed_point_index(hyperbolic(2.0)) == -1


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "make",
    [
        lambda: quartic(-1),
        lambda: linear_rotation(0.05),
        lambda: hyperbolic(2.0),
        # eigenvalues -2 and -1/2: the index alternates, +1 at odd k, -1 at even
        lambda: negative_hyperbolic(2.0),
    ],
    ids=["quartic-max", "rotation-0.05", "hyperbolic-2", "negative-hyperbolic-2"],
)
def test_fixed_point_index_matches_the_time_rescaled_flow(make, k):
    # fixed_point_index flows phi k times; the oracle flows k H(kt, z) once
    germ = make()
    gk = iterate(germ, k)
    oracle = gradient_degree(lambda pts: flow_jacobians(gk, pts)[0] - pts, 0.05)
    assert fixed_point_index(germ, k) == oracle


def test_euler_characteristic_is_signed_index():
    # chi(HF) = (-1)^n deg(phi - id) for plane germs
    for germ in (quartic(-1), linear_rotation(0.05), hyperbolic(2.0)):
        rec = record_of(germ)
        lf = local_floer(IterateSweep(germ, rec))
        assert lf.ranks.euler() == (-1) ** germ.n * fixed_point_index(germ)


# --- every order read from the eigenvalues of E = Dphi(0)


@pytest.mark.parametrize(
    "germ,cz",
    [
        (negative_hyperbolic(2.0), 1),
        (morse_triple(), 0),
        (hyperbolic(10.0), 0),
        (negative_hyperbolic(10.0), 1),
    ],
    ids=["negative-hyperbolic-2", "morse-triple", "hyperbolic-10", "negative-hyperbolic-10"],
)
def test_nondegenerate_route_answers_every_order_k_range_admits(germ, cz):
    """No eigenvalue of E is a root of unity, so every order is admissible,
    and the iteration formula gives CZ_k = k CZ: rank 1 in degree k CZ at
    every order up to MAX_ORDER, where |lambda|^k reaches 10^1000."""
    sweep = sweep_of(germ)
    assert sweep.record.conley_zehnder == cz
    for k in range(1, MAX_ORDER + 1):
        assert local_floer(sweep, k).ranks.as_dict() == {k * cz: 1}


def _degenerate(e: np.ndarray, k: int) -> bool:
    try:
        paths._elliptic_pairs(e, k)
    except DegenerateEndpoint:
        return True
    return False


def assert_iterates_match_the_power_forms(m: SymplecticMatrix, horizon: int = MAX_ORDER):
    """At every order up to horizon where the largest |lambda|^k stays below
    1e6, the degeneracy of E^k, the sign of det(I - E^k) and good read from
    E's eigenvalues equal their forms from the k-th power of E or of its
    eigenvalue clusters."""
    e = m.entries
    log_top = float(np.log(np.max(np.abs(np.linalg.eigvals(e)))))
    orders = [k for k in range(1, horizon + 1) if k * log_top < np.log(1e6)]
    assert orders
    for k in orders:
        degenerate = _degenerate(e, k)
        assert degenerate == degenerate_by_power(e, k), k
        if not degenerate:
            det = _scaled_det_identity_minus_power(e, k)
            assert np.sign(det) == np.sign(det_by_power(e, k)) != 0.0, k
        if admissible(m, k):
            assert good(m, k) == good_by_power(m, k), k


PLANE_GERMS = sorted(name for name, entry in GERMS.items() if entry.factory().n == 1)


@pytest.mark.parametrize("name", PLANE_GERMS)
def test_corpus_iterates_match_the_power_forms(name):
    germ = GERMS[name].factory()
    assert_iterates_match_the_power_forms(monodromy(germ, np.zeros(2)).endpoint())


def test_quarter_turn_iterates_match_the_power_forms():
    """lambda = i: k = 2 is admissible and not good (lambda^2 = -1), k = 4
    is degenerate."""
    m = validate_symplectic(np.array([[0.0, -1.0], [1.0, 0.0]]))
    assert admissible(m, 2) and not good(m, 2)
    assert _degenerate(m.entries, 4) and not _degenerate(m.entries, 2)
    assert_iterates_match_the_power_forms(m)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from([1, 2]))
def test_random_iterates_match_the_power_forms(seed, n):
    m = random_symplectic(n, np.random.default_rng(seed))
    assert_iterates_match_the_power_forms(m, horizon=100)


@pytest.mark.parametrize("name", ["quartic-max", "quartic-min", "monkey-saddle", "zero", "shear"])
def test_unipotent_iterates_equal_the_matrix_power_bit_for_bit(name):
    """The degenerate route reads M_k = E^k as I + k (E - I) (Cayley-Hamilton
    for a unipotent plane E); on the germs it serves this is matrix_power's
    answer to the bit at orders 1..10."""
    e = monodromy(GERMS[name].factory(), np.zeros(2)).endpoint().entries
    for k in range(1, 11):
        closed = np.eye(2) + k * (e - np.eye(2))
        assert closed.tobytes() == np.linalg.matrix_power(e, k).tobytes(), k
