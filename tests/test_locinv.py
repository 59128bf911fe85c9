"""Graded local Floer ranks, the iteration shift law, and detection."""
import dataclasses

import numpy as np
import pytest

from localfloer import paths
from localfloer.corpus import (
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    negative_hyperbolic,
    quartic,
    shear,
)
from localfloer.cubical import GradedRanks
from localfloer.errors import (
    HypothesisFailed,
    NotAdmissible,
    RouteUnavailable,
    ShiftAmbiguous,
)
from localfloer.germs import HamiltonianGerm, fixed_point_record
from localfloer.invariants import (
    detect_sdm,
    fixed_point_index,
    kunneth,
    local_floer,
    total_ranks,
    verify_persistence,
)


def record_of(germ):
    return fixed_point_record(germ, np.zeros(2 * germ.n))


# --- single-order ranks per route


def test_small_maximum_has_rank_one_in_top_degree():
    germ = linear_rotation(0.05)
    lf = local_floer(germ, record_of(germ))
    assert lf.route == "nondegenerate"
    assert lf.ranks.as_dict() == {1: 1}
    assert abs(lf.delta - 0.1) < 1e-6


def test_hyperbolic_rank_sits_in_degree_zero():
    germ = hyperbolic(2.0)
    lf = local_floer(germ, record_of(germ))
    assert lf.ranks.as_dict() == {0: 1}


def test_first_order_reuses_the_record_winding(monkeypatch):
    germ = negative_hyperbolic(2.0)
    rec = record_of(germ)
    calls = []
    real = paths.rho
    monkeypatch.setattr(
        paths, "rho", lambda mat, circ_tol: calls.append(1) or real(mat, circ_tol)
    )
    lf = local_floer(germ, rec, 1)
    assert lf.route == "nondegenerate" and lf.ranks.as_dict() == {1: 1}
    assert calls == []


@pytest.mark.parametrize("k", [1, 2, 3])
def test_degenerate_maximum_rank_is_stable(k):
    germ = quartic(-1)
    lf = local_floer(germ, record_of(germ), k)
    assert lf.route == "strongly_degenerate"
    assert lf.ranks.as_dict() == {1: 1}
    assert lf.delta == 0.0
    assert lf.hypothesis["hessian_norm_at_zero"] < 2.0 * np.pi
    assert lf.hypothesis["kk_side_bounds_checked"] is False


def flow_sizes(monkeypatch):
    """Sizes of the flow_jacobians batches the map classes run from now on."""
    import localfloer.genfun as genfun

    sizes = []
    original = genfun.flow_jacobians

    def counting(germ, points, *args, **kwargs):
        sizes.append(len(points))
        return original(germ, points, *args, **kwargs)

    monkeypatch.setattr(genfun, "flow_jacobians", counting)
    return sizes


def test_degenerate_route_flows_the_padded_grid_once_per_order(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    local_floer(germ, rec, 2)
    assert sizes == [97**2, 97**2]


def test_forced_route_matches_detected_route():
    germ = quartic(-1)
    rec = record_of(germ)
    auto = local_floer(germ, rec)
    forced = local_floer(germ, rec, route="strongly_degenerate")
    assert auto.ranks == forced.ranks


def test_split_route_convolves_factors():
    germ = direct_sum_germ(linear_rotation(0.3183), quartic(-1))
    lf = local_floer(germ, record_of(germ))
    assert lf.route == "split"
    assert lf.ranks.as_dict() == {2: 1}
    assert abs(lf.delta - 2.0 * 0.3183) < 1e-6


def test_split_of_two_rotations():
    germ = direct_sum_germ(linear_rotation(0.3183), linear_rotation(0.4142))
    lf = local_floer(germ, record_of(germ))
    assert lf.ranks.as_dict() == {2: 1}
    assert abs(lf.delta - 2.0 * (0.3183 + 0.4142)) < 1e-6


def test_mixed_spectrum_without_split_has_no_route():
    base = direct_sum_germ(hyperbolic(2.0), shear())
    opaque = dataclasses.replace(base, factors=None)
    with pytest.raises(RouteUnavailable):
        local_floer(opaque, record_of(opaque))


def test_degenerate_germ_off_the_plane_without_factors_is_refused(monkeypatch):
    base = direct_sum_germ(quartic(-1), quartic(-1))
    opaque = dataclasses.replace(base, factors=None)
    rec = record_of(opaque)
    sizes = flow_sizes(monkeypatch)
    with pytest.raises(RouteUnavailable, match="plane germs only"):
        local_floer(opaque, rec)
    assert sizes == []


def test_nondegenerate_route_refused_on_unipotent_monodromy():
    germ = quartic(-1)
    with pytest.raises(RouteUnavailable):
        local_floer(germ, record_of(germ), route="nondegenerate")


def test_inadmissible_order_refused():
    germ = linear_rotation(1.0 / 3.0)
    with pytest.raises(NotAdmissible):
        local_floer(germ, record_of(germ), 3)


def test_kunneth_is_rank_convolution():
    a = GradedRanks.from_dict({1: 1, 2: 3})
    b = GradedRanks.from_dict({0: 2, 1: 1})
    assert kunneth(a, b).as_dict() == {1: 2, 2: 7, 3: 3}


def test_report_serializes():
    germ = linear_rotation(0.05)
    data = local_floer(germ, record_of(germ)).to_json()
    assert data["route"] == "nondegenerate"
    assert data["ranks"] == {"1": 1}


# --- persistence of ranks across iteration


def test_rotation_shift_sequence():
    germ = linear_rotation(0.3183)
    report = verify_persistence(germ, record_of(germ), range(1, 7))
    shifts = [row.s_k for row in report.rows]
    assert shifts == [0, 0, 0, 2, 2, 2]
    assert all(report.checks.values())


def test_persistence_grows_one_iterate_tower(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    verify_persistence(germ, rec, [1, 2, 3])
    assert sizes == [97**2] * 3


def test_degenerate_maximum_shifts_vanish():
    germ = quartic(-1)
    report = verify_persistence(germ, record_of(germ), range(1, 4))
    assert [row.s_k for row in report.rows] == [0, 0, 0]
    assert all(report.checks.values())
    assert all(row.ranks.as_dict() == {1: 1} for row in report.rows)


def test_reflected_saddle_odd_shift_at_bad_order():
    germ = negative_hyperbolic(2.0)
    report = verify_persistence(germ, record_of(germ), [1, 2, 3])
    rows = {row.k: row for row in report.rows}
    assert rows[2].s_k == 1 and not rows[2].good
    assert rows[3].s_k == 2 and rows[3].good
    # parity is only promised at good orders, so the checks still pass
    assert report.checks["even_shift_at_good_orders"]


def test_persistence_rejects_inadmissible_order():
    germ = linear_rotation(1.0 / 3.0)
    with pytest.raises(NotAdmissible):
        verify_persistence(germ, record_of(germ), [1, 2, 3])


def test_vanishing_ranks_cannot_be_aligned():
    # H = a x^3 + eps y^2: local homology of the inflection is zero in
    # every degree; a from the identity gate, eps small enough that the
    # cubic gradient clears the grid floor set by the y-curvature
    a, eps = 0.25, 0.01

    def value(t, z):
        return a * z[:, 0] ** 3 + eps * z[:, 1] ** 2

    def grad(t, z):
        return np.stack([3.0 * a * z[:, 0] ** 2, 2.0 * eps * z[:, 1]], axis=1)

    def hess(t, z):
        out = np.zeros((len(z), 2, 2))
        out[:, 0, 0] = 6.0 * a * z[:, 0]
        out[:, 1, 1] = 2.0 * eps
        return out

    germ = HamiltonianGerm(n=1, value=value, grad=grad, hess=hess, name="inflection")
    with pytest.raises(ShiftAmbiguous):
        verify_persistence(germ, record_of(germ), [1, 2])


def test_csv_rows_have_header_and_shifts():
    germ = linear_rotation(0.3183)
    rows = verify_persistence(germ, record_of(germ), [1, 2]).csv_rows()
    assert rows[0] == ["k", "admissible", "good", "support", "s_k", "even"]
    assert rows[1][4] == "0"


# --- degenerate-maximum detection


def test_degenerate_maximum_is_detected():
    germ = quartic(-1)
    result = detect_sdm(germ, record_of(germ))
    assert result["is_sdm"]
    assert result["evidence"]["strongly_degenerate"]
    assert result["evidence"]["crosscheck"]["consistent"]


def test_crosscheck_adds_one_padded_grid_flow(monkeypatch):
    germ = quartic(-1)
    rec = record_of(germ)
    sizes = flow_sizes(monkeypatch)
    result = detect_sdm(germ, rec)
    assert result["evidence"]["crosscheck"]["k"] == 2
    assert sizes == [97**2, 97**2]


def _crosscheck_raising(monkeypatch, exc):
    """Make the iterate sweep raise exc at the cross-check order k = 2 only."""
    import localfloer.invariants as inv

    original = inv._IterateSweep.at

    def patched(self, k):
        if k == 2:
            raise exc
        return original(self, k)

    monkeypatch.setattr(inv._IterateSweep, "at", patched)


def test_crosscheck_programming_error_propagates(monkeypatch):
    _crosscheck_raising(monkeypatch, TypeError("bug in the cross-check"))
    germ = quartic(-1)
    with pytest.raises(TypeError, match="bug in the cross-check"):
        detect_sdm(germ, record_of(germ))


def test_crosscheck_refusal_is_recorded(monkeypatch):
    _crosscheck_raising(monkeypatch, HypothesisFailed("refused at order 2"))
    germ = quartic(-1)
    result = detect_sdm(germ, record_of(germ))
    assert result["is_sdm"]
    assert result["evidence"]["crosscheck"] == {
        "k": 2,
        "error": "HypothesisFailed: refused at order 2",
    }


def test_small_nondegenerate_maximum_is_not_detected():
    germ = linear_rotation(0.05)
    result = detect_sdm(germ, record_of(germ))
    assert not result["is_sdm"]
    assert result["evidence"]["delta"] > 1e-3


def test_degenerate_minimum_is_not_detected():
    germ = quartic(+1)
    result = detect_sdm(germ, record_of(germ))
    assert not result["is_sdm"]
    assert result["evidence"]["hf_n_rank"] == 0


# --- totals and the index oracle


def test_total_rank_constant_for_degenerate_maximum():
    germ = quartic(-1)
    totals = total_ranks(germ, record_of(germ), range(1, 4))
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
    assert total_ranks(germ, rec, [1, 2], gf_radius=0.06) == {1: 1, 2: 1}
    assert built == [g.name for g in germ.factors]


def test_total_ranks_skips_resonant_orders():
    germ = linear_rotation(1.0 / 3.0)
    totals = total_ranks(germ, record_of(germ), range(1, 5))
    assert sorted(totals) == [1, 2, 4]


def test_fixed_point_index_oracle():
    quartic_max = quartic(-1)
    rotation = linear_rotation(0.05)
    assert fixed_point_index(quartic_max) == 1
    assert fixed_point_index(rotation) == 1
    assert fixed_point_index(hyperbolic(2.0)) == -1


def test_euler_characteristic_is_signed_index():
    # chi(HF) = (-1)^n deg(phi - id) for plane germs
    for germ in (quartic(-1), linear_rotation(0.05), hyperbolic(2.0)):
        rec = record_of(germ)
        lf = local_floer(germ, rec)
        assert lf.ranks.euler() == (-1) ** germ.n * fixed_point_index(germ)
