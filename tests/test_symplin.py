"""Symplectic linear algebra: validation, spectra, iteration classes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfloer.errors import NotAdmissible, NotSymplectic
from localfloer.symplectic import (
    CLUSTER_TOL,
    Q_MAX,
    _snap,
    admissible,
    good,
    spectrum,
    standard_j,
    validate_symplectic,
    vectorfield_j,
)
from oracles import admissible_set, snap_by_search, split_spectral
from pathhelpers import random_symplectic


def rot(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def test_standard_j_squares_to_minus_identity():
    for n in (1, 2, 3):
        j = standard_j(n)
        assert np.array_equal(j @ j, -np.eye(2 * n))
        assert np.array_equal(vectorfield_j(n), -j)


def test_standard_j_plane_block():
    assert np.array_equal(standard_j(1), np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_validate_accepts_rotation_rejects_stretch():
    m = validate_symplectic(rot(0.7))
    assert m.n == 1
    with pytest.raises(NotSymplectic):
        validate_symplectic(np.diag([2.0, 1.0]))


def test_validate_rejects_odd_dimension():
    with pytest.raises(ValueError):
        validate_symplectic(np.eye(3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3))
def test_random_symplectic_preserves_form(seed, n):
    m = random_symplectic(n, np.random.default_rng(seed))
    j = standard_j(n)
    a = m.entries
    assert np.allclose(a.T @ j @ a, j, atol=1e-8)


def test_spectrum_detects_third_root_of_unity():
    m = validate_symplectic(rot(2.0 * np.pi / 3.0))
    data = spectrum(m)
    assert data.unit_root_orders() == [3]
    assert data.total_multiplicity == 2
    assert not data.has_eigenvalue_one()


def _snap_inputs():
    """Unit-circle points at every p/q with |p| <= q <= 69, on the root and
    offset in angle across CLUSTER_TOL; random angles on and off the
    circle; the axis points and three just off the real axis."""
    rng = np.random.default_rng(0)
    offsets = (0.0, 1e-12, 5e-9, -5e-9, 9e-9, 1.1e-8, -1.1e-8, 2e-8, 1e-6)
    roots = [
        2.0 * np.pi * p / q + off for q in range(1, 70) for p in range(-q, q + 1) for off in offsets
    ]
    points = list(np.exp(1j * np.array(roots)))
    points += list(np.exp(1j * rng.uniform(-np.pi, np.pi, 20_000)))
    for r in (1.0 + 5e-9, 1.0 - 5e-9, 0.5, 1.5):
        points += list(r * np.exp(1j * rng.uniform(-np.pi, np.pi, 200)))
    points += [1, -1, 1j, -1j, complex(1, 1e-9), complex(-1, -5e-9), complex(0.5, 2e-9)]
    return points


def test_nearest_fraction_snaps_as_the_search_over_orders():
    """Distinct fractions of denominator <= Q_MAX lie far more than
    CLUSTER_TOL apart, so the nearest is the one the search finds first."""
    points = _snap_inputs()
    assert len(points) == 64_898
    for v in points:
        got = repr(_snap(v, CLUSTER_TOL, Q_MAX))
        assert got == repr(snap_by_search(v, CLUSTER_TOL, Q_MAX)), v


def test_spectrum_identity_is_all_ones():
    data = spectrum(validate_symplectic(np.eye(4)))
    assert data.all_eigenvalues_one()
    assert data.unit_root_orders() == []


def test_negative_pair_count_of_reflected_saddle():
    m = validate_symplectic(np.diag([-2.0, -0.5]))
    data = spectrum(m)
    assert data.negative_real_pair_count(1) == 1
    assert data.negative_real_pair_count(2) == 0  # squares are positive


# k is admissible iff no eigenvalue != 1 is a k-th root of unity
@pytest.mark.parametrize(
    "k,expected",
    [(1, True), (2, True), (3, False), (4, True), (5, True), (6, False), (9, False)],
)
def test_admissible_orders_of_resonant_rotation(k, expected):
    m = validate_symplectic(rot(2.0 * np.pi / 3.0))
    assert admissible(m, k) is expected


def test_hyperbolic_admits_every_order():
    m = validate_symplectic(np.diag([2.0, 0.5]))
    assert all(admissible(m, k) for k in range(1, 40))


def test_irrational_rotation_admits_every_order():
    m = validate_symplectic(rot(2.0 * np.pi * 0.3183))
    assert all(admissible(m, k) for k in range(1, 21))


def test_good_parity_of_negative_hyperbolic():
    m = validate_symplectic(np.diag([-2.0, -0.5]))
    # odd powers stay on the negative axis, even powers leave it
    assert good(m, 1)
    assert not good(m, 2)
    assert good(m, 3)
    assert not good(m, 4)
    assert good(m, 5)


def test_good_counts_the_small_partner_at_high_powers():
    # from k = 27 on, (-1/2)^k is within cluster_tol of 0; it still pairs
    # with (-2)^k on the negative axis
    m = validate_symplectic(np.diag([-2.0, -0.5]))
    assert [good(m, k) for k in range(1, 101)] == [k % 2 == 1 for k in range(1, 101)]


def test_good_requires_admissible():
    m = validate_symplectic(rot(2.0 * np.pi / 3.0))
    with pytest.raises(NotAdmissible):
        good(m, 3)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_order_one_always_admissible_and_good(seed):
    m = random_symplectic(2, np.random.default_rng(seed))
    assert admissible(m, 1)
    assert good(m, 1)


def test_admissible_set_of_resonant_rotation():
    m = validate_symplectic(rot(2.0 * np.pi / 3.0))
    desc = admissible_set(m, horizon=40)
    assert desc.forbidden_divisors == (3,)
    members = desc.members()
    assert members[:3] == [4, 7, 10]
    assert all(admissible(m, k) for k in members)


def test_admissible_set_without_resonance_is_everything():
    m = validate_symplectic(np.diag([2.0, 0.5]))
    desc = admissible_set(m, horizon=10)
    assert desc.forbidden_divisors == ()
    assert desc.members() == list(range(1, 11))


def test_split_spectral_hyperbolic_has_no_unit_part():
    m = validate_symplectic(np.diag([2.0, 0.5]))
    p_v, p_w = split_spectral(m)
    assert np.linalg.matrix_rank(p_v) == 2
    assert np.allclose(p_w, 0.0)


def test_split_spectral_shear_is_all_unit_part():
    m = validate_symplectic(np.array([[1.0, 1.0], [0.0, 1.0]]))
    p_v, p_w = split_spectral(m)
    assert np.allclose(p_v, 0.0)
    assert np.linalg.matrix_rank(p_w) == 2


def test_split_spectral_mixed_block():
    a = np.zeros((4, 4))
    # interleaved (x1, x2, y1, y2): rotation-free hyperbolic factor + identity factor
    a[0, 0], a[2, 2] = 2.0, 0.5
    a[1, 1], a[3, 3] = 1.0, 1.0
    p_v, p_w = split_spectral(validate_symplectic(a))
    assert np.linalg.matrix_rank(p_v) == 2
    assert np.linalg.matrix_rank(p_w) == 2
    assert np.allclose(p_v + p_w, np.eye(4))
