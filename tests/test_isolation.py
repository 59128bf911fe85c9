"""Discrete isolation certificates: the c(k) constant, periodic point
searches, and the contraction criterion."""

import json
from fractions import Fraction

import numpy as np
import pytest

from localfloer import Box, OdeGermMap, c_constant_exact, periodic_point_search
from localfloer.genfun import GermMap
from localfloer.germs import NEWTON_MAX_ITER, _distinct, _newton_search, _seed_orbit
from localfloer import isolation
from localfloer.errors import NewtonDivergence, SearchTooLarge
from localfloer.scenarios import _jsonable
from localfloer.corpus import (
    direct_sum_germ,
    hyperbolic,
    linear_rotation,
    quartic,
    resonant_rotation,
    shear,
    zero_germ,
)
from oracles import (
    DiscreteOrbit,
    LinearizationNotIdentity,
    contraction_check,
    distinct_pairwise,
    maximizing_orbit,
    splitting_ratio_report,
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
        c_constant_exact(0)
    with pytest.raises(ValueError):
        maximizing_orbit(1)


def test_c_constant_nondecreasing():
    vals = [c_constant_exact(k) for k in range(2, 13)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", range(2, 13))
def test_maximizing_orbit_attains_equality(k):
    xi = maximizing_orbit(k)
    orbit = DiscreteOrbit(xi.reshape(k, 1))
    assert abs(float(np.sum(xi))) <= 1e-12
    lhs = orbit.l1_norm()
    rhs = float(c_constant_exact(k)) * orbit.difference_l1_norm()
    assert orbit.difference_l1_norm() > 0.0
    assert abs(lhs - rhs) <= 1e-12


def test_random_zero_mean_orbits_satisfy_bound():
    # the inequality must hold for arbitrary zero-mean sequences in R^2
    rng = np.random.default_rng(0)
    for k in range(2, 13):
        c = float(c_constant_exact(k))
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
    assert orbit.l1_norm() == float(c_constant_exact(2)) * orbit.difference_l1_norm()


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
    rep = periodic_point_search(quartic_map, k, [0.05, 0.01], seeds_per_axis=9)[-1]
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
    rep = periodic_point_search(phi, 3, [0.1], seeds_per_axis=9)[-1]
    assert not rep.admissible
    assert rep.conclusion == "ISOLATION_FAILS"
    assert len(rep.witnesses) > 0
    for w in rep.witnesses:
        # a third of a turn moves every nonzero point noticeably
        assert w["step_displacement"] > 1e-3
        assert np.linalg.norm(w["point"]) > rep.origin_resolution


def test_search_resonant_ring_outside_small_ball(resonant_map):
    rep = periodic_point_search(resonant_map, 3, [0.2, 0.001], seeds_per_axis=9)[-1]
    # the 3-periodic ring sits near radius 0.15: outside the final ball,
    # so isolation holds there while the witnesses record the ring
    assert rep.conclusion == "ISOLATION_HOLDS"
    assert len(rep.witnesses) > 0
    for w in rep.witnesses:
        assert abs(np.linalg.norm(w["point"]) - 0.15) < 0.02
        assert w["step_displacement"] > 1e-3


def test_search_resonant_ring_inside_large_ball(resonant_map):
    rep = periodic_point_search(resonant_map, 3, [0.2], seeds_per_axis=9)[-1]
    assert rep.conclusion == "ISOLATION_FAILS"
    assert len(rep.witnesses) > 0


def test_search_resonant_clean_order(resonant_map):
    rep = periodic_point_search(resonant_map, 4, [0.2, 0.001], seeds_per_axis=9)[-1]
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
    (rep,) = periodic_point_search(phi, 1, [0.05], seeds_per_axis=8)
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


LADDER = [0.2, 0.05, 0.01, 0.001]


def _same_points(a, b, tol, origin_tol):
    """Same points up to tol, in any order (equal-norm ring points may
    swap).  Points within origin_tol are where the residual of a degenerate
    origin stalls; their place follows the flow's step sequence, amplified
    by the near-singular Jacobian, so only their count is compared."""
    a, b = np.array(a).reshape(-1, 2), np.array(b).reshape(-1, 2)
    near_a = np.linalg.norm(a, axis=1) <= origin_tol
    near_b = np.linalg.norm(b, axis=1) <= origin_tol
    if len(a) != len(b) or np.sum(near_a) != np.sum(near_b):
        return False
    a, b = a[~near_a], b[~near_b]
    return all(np.min(np.linalg.norm(b - p, axis=1)) <= tol for p in a)


@pytest.mark.parametrize(
    "germ, k, radii",
    [("resonant", k, LADDER) for k in (1, 2, 3, 4)]
    + [("quartic", k, [0.05, 0.01]) for k in (2, 3)],
)
def test_batched_search_matches_one_search_per_radius(
    resonant_map, quartic_map, germ, k, radii
):
    phi = resonant_map if germ == "resonant" else quartic_map
    batched = periodic_point_search(phi, k, radii, seeds_per_axis=9)[-1]
    for entry in batched.per_radius:
        single = periodic_point_search(phi, k, [entry["radius"]], seeds_per_axis=9)[-1]
        alone = single.per_radius[0]
        assert alone["radius"] == entry["radius"]
        assert len(alone["points"]) == len(entry["points"])
        assert _same_points(alone["points"], entry["points"], 1e-7, batched.origin_resolution)


class CountingTwist(GermMap):
    """The twist map z -> R(2 pi k (alpha + beta |z|^2)) z and its iterates,
    in closed form, counting the calls each iterate receives and, with a
    ``log`` list, recording the points of each (what, points) call."""

    def __init__(self, calls, k=1, alpha=0.3, beta=1.0, log=None):
        self.n, self.name = 1, f"twist^{k}"
        self.calls, self.k, self.alpha, self.beta = calls, k, alpha, beta
        self.log = log

    def _eval(self, pts):
        z = np.atleast_2d(np.asarray(pts, dtype=float))
        a = 2.0 * np.pi * self.k * (self.alpha + self.beta * np.sum(z * z, axis=1))
        c, s = np.cos(a), np.sin(a)
        rot = np.stack([np.stack([c, -s], 1), np.stack([s, c], 1)], 1)
        img = (rot @ z[..., None])[..., 0]
        # d/da (R(a) z) = J R(a) z with J the quarter turn; da/dz = 4 pi k beta z
        turned = np.stack([-img[:, 1], img[:, 0]], 1)
        grad = 4.0 * np.pi * self.k * self.beta * z
        return img, rot + turned[:, :, None] * grad[:, None, :]

    def _count(self, what, pts):
        self.calls[(self.k, what)] = self.calls.get((self.k, what), 0) + 1
        if self.log is not None:
            self.log.append((what, np.array(pts, copy=True)))

    def __call__(self, pts):
        self._count("value", pts)
        return self._eval(pts)[0]

    def jac(self, pts):
        self._count("jac", pts)
        return self._eval(pts)[1]

    def value_and_jac(self, pts):
        self._count("value_and_jac", pts)
        return self._eval(pts)

    def iterate(self, k):
        self._count("iterate", [])
        return CountingTwist(self.calls, self.k * k, self.alpha, self.beta, self.log)


def test_search_work_does_not_grow_with_the_radii():
    # at k = 3 the twist has a ring of 3-periodic points at |z|^2 = 1/30,
    # inside the two largest radii, so there are witnesses to check
    radii = [0.3, 0.2, 0.1, 0.05]
    newton = []
    for ladder in [[r] for r in radii] + [radii]:
        calls, log = {}, []
        reports = periodic_point_search(CountingTwist(calls, log=log), 3, ladder, seeds_per_axis=9)
        # only phi itself is called, never an iterate
        assert {order for order, _ in calls} == {1} and (1, "iterate") not in calls
        newton.append(calls[(1, "value_and_jac")])
    assert [r.k for r in reports] == [1, 2, 3]
    rep = reports[-1]
    assert rep.conclusion == "ISOLATION_HOLDS"
    assert {w["radius"] for w in rep.witnesses} == {0.3, 0.2}
    # one jac at the origin, the Newton calls, and values only for the 3
    # steps of the probe rings' orbit and one witness call of order 3, the
    # only order with points off the origin
    assert calls == {(1, "jac"): 1, (1, "value_and_jac"): newton[-1], (1, "value"): 3 + 1}
    # the first 3 value_and_jac calls walk the seeds' orbit, and no later
    # call takes a node of it again: 3 placement calls serve orders 1, 2, 3
    steps = [pts for what, pts in log if what == "value_and_jac"]
    orbit = steps[:3]
    assert len(orbit[0]) == len(radii) * len(_seed_disk(1.0))
    for earlier, later in zip(orbit, orbit[1:]):
        assert np.array_equal(later, CountingTwist({})(earlier))
    assert not any(np.array_equal(pts, node) for node in orbit for pts in steps[3:])
    # then each order runs its own Newton loop, one call per step
    assert newton[-1] <= 3 + 3 * NEWTON_MAX_ITER
    # one Newton batch per order: as many calls as the slowest radius alone needs
    assert newton[-1] <= max(newton[:-1])
    # the probe rings, 4 directions at r_min and at r_min / 2, and their images
    rings = [pts for what, pts in log if what == "value"][:3]
    assert all(len(r) == 8 for r in rings)
    np.testing.assert_allclose(np.abs(rings[0]).max(axis=1), [0.05] * 4 + [0.025] * 4)


@pytest.mark.parametrize(
    "germ, k, radii, orders",
    [("twist", 4, [0.3, 0.2, 0.1, 0.05], (1, 2, 3, 4)), ("resonant", 6, LADDER, (3, 6))],
)
def test_every_order_of_one_search_equals_its_own_search(resonant_map, germ, k, radii, orders):
    # order j's report must not depend on the other orders searched with it:
    # not on the largest (k = j), and not on the first (first = j)
    phi = resonant_map if germ == "resonant" else CountingTwist({})
    every = periodic_point_search(phi, k, radii, seeds_per_axis=9)
    assert [r.k for r in every] == list(range(1, k + 1))
    # both germs have 3-periodic rings inside the largest radius; for the
    # resonant germ they are witnesses of order 6 too, whose value-only
    # witness flow must not change order 3's step displacements
    assert every[2].witnesses
    assert all(every[j - 1].witnesses for j in orders if j % 3 == 0)
    for j in orders:
        up_to_j = periodic_point_search(phi, j, radii, seeds_per_axis=9)[-1]
        (alone,) = periodic_point_search(phi, j, radii, seeds_per_axis=9, first=j)
        assert every[j - 1] == up_to_j == alone


def test_search_runs_no_order_below_the_first():
    radii = [0.3, 0.2, 0.1, 0.05]

    def newton_calls(k, first=1):
        calls = {}
        reports = periodic_point_search(
            CountingTwist(calls), k, radii, seeds_per_axis=9, first=first
        )
        assert [r.k for r in reports] == list(range(first, k + 1))
        return calls[(1, "value_and_jac")]

    # k placement calls of the seeds' orbit, then only order 3's Newton loop:
    # orders 1 and 2 took all calls of the search up to 2 but its 2 placements
    assert newton_calls(3, first=3) == newton_calls(3) - (newton_calls(2) - 2)
    with pytest.raises(ValueError, match="first order"):
        periodic_point_search(CountingTwist({}), 3, radii, first=4)
    with pytest.raises(ValueError, match="first order"):
        periodic_point_search(CountingTwist({}), 3, radii, first=0)


def _seed_disk(radius):
    grid = Box((0.0, 0.0), radius).nodes(9)
    return grid[np.linalg.norm(grid, axis=1) <= radius + 1e-12]


def _shoot(phi, seeds, k, escape, tol=1e-11):
    """The shooting search for k-periodic points of phi from the seeds."""
    start = _seed_orbit(phi.value_and_jac, seeds, k)
    return _newton_search(phi, phi.value_and_jac, start, tol, NEWTON_MAX_ITER, escape)


@pytest.mark.parametrize("germ", ["twist", "resonant"])
@pytest.mark.parametrize("k", [2, 4, 5])
def test_shooting_search_matches_newton_on_phi_k(resonant_map, germ, k):
    # the oracle is the same search at k = 1 on phi^k: with one node it is
    # Newton's method on phi^k(z) - z.  The escape ball stops short of the
    # twist's circles of k-periodic points (radius 0.316 and more), where
    # the point a seed lands on follows its Newton path
    phi = resonant_map if germ == "resonant" else CountingTwist({})
    seeds, tol, escape = _seed_disk(0.2), 1e-11, 0.3
    z, rnorm = _shoot(phi, seeds, k, escape, tol)
    zo, ro = _shoot(phi.iterate(k), seeds, 1, escape, tol)
    ok, ok_oracle = rnorm <= tol, ro <= tol
    # shooting keeps every seed the oracle converges, and here a few more
    assert np.sum(ok) >= np.sum(ok_oracle) > 0
    both = ok & ok_oracle
    assert np.max(np.linalg.norm(z[both] - zo[both], axis=1)) <= 1e-7
    found, oracle = _distinct(z[ok], 1e-7), _distinct(zo[ok_oracle], 1e-7)
    assert _same_points(found, oracle, 1e-7, 0.0)


@pytest.mark.parametrize("germ, ring", [("twist", np.sqrt(1.0 / 30.0)), ("resonant", 0.15)])
def test_shooting_search_lands_on_the_ring_of_3_periodic_points(resonant_map, germ, ring):
    # a circle of 3-periodic points: where on it a seed lands follows its
    # Newton path, so ring points are compared by norm and by period
    phi = resonant_map if germ == "resonant" else CountingTwist({})
    seeds, tol, escape = _seed_disk(0.2), 1e-11, 0.6
    z, rnorm = _shoot(phi, seeds, 3, escape, tol)
    zo, ro = _shoot(phi.iterate(3), seeds, 1, escape, tol)

    def on_ring(pts):
        return pts[np.abs(np.linalg.norm(pts, axis=1) - ring) <= 1e-2]

    found, oracle = on_ring(z[rnorm <= tol]), on_ring(zo[ro <= tol])
    assert len(found) == len(oracle) > 0
    np.testing.assert_allclose(np.linalg.norm(found, axis=1), ring, rtol=0.0, atol=1e-7)
    assert np.all(np.linalg.norm(phi.iterate(3)(found) - found, axis=1) <= 10.0 * tol)
    assert np.all(np.linalg.norm(phi(found) - found, axis=1) > 1e-3)


@pytest.mark.parametrize("germ, k", [("twist", 2), ("twist", 3), ("resonant", 2), ("resonant", 4)])
def test_shooting_calls_take_the_k_nodes_of_every_active_seed(resonant_map, germ, k):
    phi = resonant_map if germ == "resonant" else CountingTwist({})
    seeds, tol = _seed_disk(0.05), 1e-11
    calls = []

    def recording(pts):
        img, jac = phi.value_and_jac(pts)
        calls.append((np.array(pts, copy=True), img))
        return img, jac

    start = _seed_orbit(recording, seeds, k)
    z, rnorm = _newton_search(phi, recording, start, tol, NEWTON_MAX_ITER, 0.15)
    # every seed converges, so none retires by escaping
    assert np.all(rnorm <= tol)
    # the first k calls walk the seeds' orbits
    assert np.array_equal(calls[0][0], seeds)
    for (_, img), (pts, _) in zip(calls[: k - 1], calls[1:k]):
        assert np.array_equal(pts, img)
    moving = int(np.sum(np.linalg.norm(calls[k - 1][1] - seeds, axis=1) > tol))
    # each later call takes the k nodes of every seed that the call before
    # left above tolerance
    assert len(calls) > k
    for pts, img in calls[k:]:
        assert len(pts) == k * moving
        nodes, images = pts.reshape(moving, k, 2), img.reshape(moving, k, 2)
        defects = (images - np.roll(nodes, -1, axis=1)).reshape(moving, -1)
        moving = int(np.sum(np.linalg.norm(defects, axis=1) > tol))
    assert moving == 0


# ---------------------------------------------------------- deduplication


def _tie_cloud():
    """Dyadic points with equal norms, exact duplicates, and neighbours at
    exactly the tolerance (2^-20), just inside it and just outside it."""
    tol = 2.0**-20
    base = np.array([[0.0, 0.0], [0.25, 0.0], [0.0, 0.25], [-0.25, 0.0], [0.0, -0.25]])
    offsets = tol * np.array(
        [[1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [0.75, -0.5], [1.0, 1.0], [-0.6, 0.8]]
    )
    offsets = np.concatenate([offsets, np.nextafter(offsets, 0.0), np.nextafter(offsets, 1.0)])
    cloud = np.concatenate([base, base, (base[:, None, :] + offsets[None]).reshape(-1, 2)])
    return cloud, tol


def _rounding_cloud(rng):
    """A pair of points whose distance, as the norm of one pair, differs in
    the last bit from the same distance as a row norm, with tol at the
    smaller of the two, among points far apart."""
    for v in rng.normal(0.0, 1e-3, (1000, 2)):
        one, row = np.linalg.norm(v), np.linalg.norm(v[None, :], axis=1)[0]
        if one != row:
            far = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
            return np.concatenate([np.zeros((1, 2)), v[None, :], far]), min(one, row)
    pytest.skip("row and pair norms agree to the last bit on this platform")


@pytest.mark.parametrize("case", ["ties", "rounding", "random", "clusters", "empty"])
def test_distinct_matches_the_pairwise_loop(case):
    rng = np.random.default_rng(23)
    if case == "ties":
        points, tol = _tie_cloud()
        points = points[rng.permutation(len(points))]
    elif case == "rounding":
        points, tol = _rounding_cloud(rng)
    elif case == "random":
        points, tol = rng.uniform(-1.0, 1.0, (300, 4)), 0.3
    elif case == "clusters":
        centres = rng.uniform(-0.2, 0.2, (12, 2))
        points = np.repeat(centres, 20, axis=0) + rng.normal(0.0, 1e-10, (240, 2))
        tol = 1e-9
    else:
        points, tol = np.empty((0, 2)), 1e-9
    got, want = _distinct(points, tol), distinct_pairwise(points, tol)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    if case in ("ties", "random", "clusters"):
        # something was merged and something was kept apart
        assert 1 < len(got) < len(points)


class _CountingMap(GermMap):
    """The identity, counting its calls."""

    n = 1
    name = "counting"

    def __init__(self):
        self.calls = 0

    def __call__(self, pts):
        self.calls += 1
        return np.array(pts, dtype=float)

    def jac(self, pts):
        self.calls += 1
        return np.broadcast_to(np.eye(2), (len(pts), 2, 2)).copy()


def test_a_search_whose_newton_matrices_cannot_fit_is_refused_before_any_flow():
    """788 seeds at k = 1000 would hold 788 (2000)^2 doubles per Newton
    matrix stack, 25 GB, and six times that in pinv: refused before phi is
    called once, and before anything of that size is allocated."""
    import tracemalloc

    phi = _CountingMap()
    tracemalloc.start()
    try:
        refusal = "^order 1000: the Newton step of 788 seeds would hold 151 GB"
        with pytest.raises(SearchTooLarge, match=refusal):
            periodic_point_search(phi, 1000, LADDER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert phi.calls == 0
    assert peak < 10**6
    # the budget's edge: the first order past it is refused too
    seeds = 788
    k = int((isolation.SHOOTING_BYTES / (seeds * 4 * 8 * isolation.PINV_WORKSPACE)) ** 0.5)
    assert seeds * (2 * k) ** 2 * 8 * isolation.PINV_WORKSPACE <= isolation.SHOOTING_BYTES
    with pytest.raises(SearchTooLarge, match=f"^order {k + 1}: "):
        periodic_point_search(phi, k + 1, LADDER)
    assert phi.calls == 0


def test_search_identity_fails_without_witnesses():
    # every point is fixed, so nothing moves and nothing can be a witness,
    # yet the origin is certainly not isolated
    rep = periodic_point_search(OdeGermMap(zero_germ()), 2, [0.05], seeds_per_axis=7)[-1]
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
    reports = periodic_point_search(quartic_map, 2, [0.02], seeds_per_axis=5)
    assert [r.k for r in reports] == [1, 2]
    rep = reports[-1]
    data = json.loads(json.dumps(_jsonable(rep)))
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
    assert details["threshold"] == 1.0 / float(c_constant_exact(3))


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
    rep = periodic_point_search(quartic_map, 3, [0.05, 0.01], seeds_per_axis=9)[-1]
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


def test_splitting_ratio_samples_every_direction_of_a_large_w():
    # W = quartic + shear, four directions; the sampled curve must span them
    germ = direct_sum_germ(direct_sum_germ(quartic(-1), shear()), linear_rotation(0.05))
    rep = splitting_ratio_report(OdeGermMap(germ), k=1, radius=0.02)
    assert rep["v_dim"] == 2
    assert rep["w_dim"] == 4
    assert rep["pairs"] > 0
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
