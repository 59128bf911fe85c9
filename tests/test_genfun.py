"""Generating functions of close-to-identity maps and their properties."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localfloer.corpus import linear_rotation, morse_triple, quartic, shear
from localfloer.errors import NotC1Small, NotInvertibleOnBox
from localfloer.fields import Box, SampledField
from localfloer.genfun import (
    GermMap,
    OdeGermMap,
    PsiMap,
    SplineGermMap,
    _opnorms,
    _path_integrate,
    _plaquette_defect,
    generating_function,
    psi,
)
from oracles import (
    any_dim_path_integrate,
    any_dim_plaquette_defect,
    conjugated_map,
    full_jacobian_psi_gradient,
    gf_property_report,
    homotopy_isolation_scan,
    reconstruction_residual,
    scaling_conjugation,
)

BOX2 = Box(center=(0.0, 0.0), radius=0.1)


def test_shear_generating_function_is_half_y_squared():
    phi = OdeGermMap(shear())
    box = Box(center=(0.0, 0.0), radius=0.5)
    gf = generating_function(phi, 1, box, 65, c1_gate=1.5)
    nodes = box.nodes(65)
    expected = 0.5 * nodes[:, 1] ** 2
    assert np.max(np.abs(gf.field.values.ravel() - expected)) < 1e-6


def test_shear_fails_default_c1_gate():
    # the Jacobian sits at distance 1 from the identity at every scale
    phi = OdeGermMap(shear())
    with pytest.raises(NotC1Small, match=r"^order 1, box radius 0\.5: \|\|Dphi\^k - id\|\| = "):
        generating_function(phi, 1, Box(center=(0.0, 0.0), radius=0.5), 33)


def test_closedness_defect_shrinks_under_refinement():
    phi = OdeGermMap(quartic(-1))
    coarse = generating_function(phi, 1, BOX2, 17)
    fine = generating_function(phi, 1, BOX2, 65)
    assert fine.closedness_defect <= coarse.closedness_defect + 1e-15
    assert fine.closedness_defect < 1e-8


def test_quarter_rotation_has_no_vertical_complement():
    # xx block of the Jacobian is cos(pi/2) = 0 at every radius
    phi = OdeGermMap(linear_rotation(0.25))
    with pytest.raises(NotInvertibleOnBox, match=r"^order 1, box radius 0\.1: xx Jacobian block "):
        psi(phi, 1, probe_box=BOX2)


def test_psi_inversion_roundtrip():
    phi = OdeGermMap(quartic(-1))
    pm = psi(phi, 2, probe_box=BOX2)
    rng = np.random.default_rng(7)
    z = 0.05 * rng.standard_normal((40, 2))
    w = z.copy()
    w[:, :1] = pm.phi_k(z)[:, :1]  # psi_2(z): the x-row of phi^2(z) over y
    back = pm.invert(w)
    assert np.max(np.abs(back - z)) < 1e-10


def test_reconstruction_residual_of_exact_quadratic():
    phi = OdeGermMap(shear())
    box = Box(center=(0.0, 0.0), radius=0.5)
    gf = generating_function(phi, 1, box, 65, c1_gate=1.5)
    rng = np.random.default_rng(3)
    probe = 0.3 * rng.standard_normal((30, 2))
    assert reconstruction_residual(phi, 1, gf, probe) < 1e-6


def test_critical_points_match_fixed_points_for_three_well():
    phi = OdeGermMap(morse_triple())
    box = Box(center=(0.0, 0.0), radius=1.2)
    gf = generating_function(phi, 1, box, 65, c1_gate=0.5)
    report = gf_property_report(phi, gf)
    assert report["matched"]
    assert len(report["critical_points"]) >= 3
    assert report["ratio_bounded"]


def test_rotation_has_single_matched_critical_point():
    phi = OdeGermMap(linear_rotation(0.02))
    gf = generating_function(phi, 1, BOX2, 33)
    report = gf_property_report(phi, gf)
    assert report["matched"]
    assert report["hausdorff"] <= report["grid_tol"]


def test_homotopy_scan_passes_for_degenerate_maximum():
    phi = OdeGermMap(quartic(-1))
    gf1 = generating_function(phi, 1, BOX2, 33)
    gf2 = generating_function(phi, 2, BOX2, 33)
    scan = homotopy_isolation_scan(gf1.field, gf2.field, 2)
    assert scan.passed
    assert scan.margin > 3.0


def test_homotopy_scan_rejects_flat_field():
    zeros = SampledField(box=BOX2, values=np.zeros((17, 17)))
    scan = homotopy_isolation_scan(zeros, zeros, 2)
    assert not scan.passed


def test_spline_map_agrees_with_integrated_flow():
    germ = quartic(-1)
    spline = SplineGermMap(germ, BOX2, resolution=97, k=3)
    ode = OdeGermMap(germ, k=3)
    rng = np.random.default_rng(11)
    z = 0.05 * rng.standard_normal((50, 2))
    assert np.max(np.abs(spline(z) - ode(z))) < 1e-7
    # the Jacobian is the derivative of the value splines, and close to Dphi^3
    jac, h = spline.jac(z), 1e-5
    central = np.stack(
        [(spline(z + step) - spline(z - step)) / (2.0 * h) for step in h * np.eye(2)], axis=2
    )
    assert np.max(np.abs(jac - central)) < 1e-8
    assert np.max(np.abs(jac - ode.jac(z))) < 1e-7


def test_spline_evaluators_refuse_points_off_the_table():
    # the padded box has radius 0.16; (0.5, 0) lies outside it
    spline = SplineGermMap(quartic(-1), BOX2, resolution=17)
    far = np.array([[0.5, 0.0]])
    for evaluate in (spline, spline.jac, spline.value_and_jac, spline._psi_reads):
        with pytest.raises(NotInvertibleOnBox, match="outside the tabulated padded box"):
            evaluate(far)


def test_conjugated_map_is_coordinate_change():
    phi = OdeGermMap(quartic(-1))
    s = scaling_conjugation(1, 0.5)
    conj = conjugated_map(phi, s)
    rng = np.random.default_rng(5)
    z = 0.05 * rng.standard_normal((20, 2))
    expected = (np.linalg.inv(s) @ phi(z @ s.T).T).T
    assert np.max(np.abs(conj(z) - expected)) < 1e-10


def test_first_iterate_is_the_map_itself():
    germ = quartic(-1)
    maps = [
        OdeGermMap(germ),
        SplineGermMap(germ, BOX2, resolution=17),
        conjugated_map(OdeGermMap(germ), scaling_conjugation(1, 0.5)),
    ]
    for phi in maps:
        assert phi.iterate(1) is phi


def test_spline_iterates_share_one_tower_flowed_once_per_level(monkeypatch):
    import localfloer.genfun as genfun

    sizes = []
    original = genfun.flow_points

    def counting(germ, points, *args, **kwargs):
        sizes.append(len(points))
        return original(germ, points, *args, **kwargs)

    monkeypatch.setattr(genfun, "flow_points", counting)
    phi = SplineGermMap(quartic(-1), BOX2, resolution=17)
    phi2, phi6 = phi.iterate(2), phi.iterate(6)
    assert phi2._tower is phi._tower and phi6._tower is phi._tower
    again = phi2.iterate(3)
    assert again._tower is phi._tower
    z = np.random.default_rng(11).uniform(-0.1, 0.1, (40, 2))
    assert np.array_equal(again(z), phi6(z))
    assert np.array_equal(again.jac(z), phi6.jac(z))
    # levels 1 to 6, each flowed once, though order 6 was asked for twice
    assert sizes == [17**2] * 6


@pytest.mark.parametrize("k", [2, 3])
def test_spline_iterate_equals_map_built_from_scratch(k):
    germ = quartic(-1)
    tower = SplineGermMap(germ, BOX2, resolution=17).iterate(k)
    scratch = SplineGermMap(germ, BOX2, resolution=17, k=k)
    rng = np.random.default_rng(13)
    z = rng.uniform(-0.1, 0.1, (40, 2))
    assert np.array_equal(tower(z), scratch(z))
    assert np.array_equal(tower.jac(z), scratch.jac(z))


def test_ode_value_and_jac_is_one_pass(monkeypatch):
    import localfloer.genfun as genfun

    germ = quartic(-1)
    phi = OdeGermMap(germ, 3)
    p = np.random.default_rng(17).uniform(-0.05, 0.05, (12, 2))
    value, jac = phi.value_and_jac(p)
    assert np.array_equal(jac, phi.jac(p))
    batches = []
    original = genfun.flow_jacobians

    def counting(germ, points, *args, **kwargs):
        batches.append(len(points))
        return original(germ, points, *args, **kwargs)

    monkeypatch.setattr(genfun, "flow_jacobians", counting)
    phi.value_and_jac(p)
    assert batches == [12, 12, 12]
    # __call__ flows the points alone, on a step sequence of its own: it
    # never reads the jet or hess, and agrees with the one-pass value to
    # about the integrator tolerance
    batches.clear()
    monkeypatch.setattr(germ, "jet", None)
    monkeypatch.setattr(germ, "hess", None)
    assert np.max(np.abs(phi(p) - value)) <= 1e-12
    assert batches == []



def _svd_norms(mats):
    return np.linalg.svd(mats, compute_uv=False)[..., 0]


def _hard_stacks(size, rng):
    """Random, singular, zero and equal-singular-value stacks of size x size."""
    rand = rng.standard_normal((200, size, size)) * 10.0 ** rng.uniform(-3.0, 3.0, (200, 1, 1))
    u = rng.standard_normal((200, size, 1))
    singular = u * rng.standard_normal((200, 1, size))  # rank one
    q, _ = np.linalg.qr(rng.standard_normal((200, size, size)))
    equal = q * rng.uniform(0.1, 10.0, (200, 1, 1))  # all singular values equal
    return [rand, singular, np.zeros((5, size, size)), equal, np.eye(size)[None] * 3.0]


@pytest.mark.parametrize("size", [1, 2])
def test_opnorms_closed_form_matches_svd(size):
    rng = np.random.default_rng(size)
    for mats in _hard_stacks(size, rng):
        got, ref = _opnorms(mats), _svd_norms(mats)
        assert got.shape == ref.shape
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0.0)
    # a grid-shaped stack keeps its leading axes
    grid = rng.standard_normal((3, 4, size, size))
    np.testing.assert_allclose(_opnorms(grid), _svd_norms(grid), rtol=1e-13, atol=0.0)


def test_opnorms_of_larger_stacks_is_the_svd():
    rng = np.random.default_rng(4)
    for mats in _hard_stacks(4, rng):
        assert np.array_equal(_opnorms(mats), _svd_norms(mats))


def test_psi_gradient_flows_once_per_newton_step(monkeypatch):
    import localfloer.genfun as genfun

    phi = OdeGermMap(quartic(-1))
    pm = PsiMap(phi)
    w = np.random.default_rng(19).uniform(-0.05, 0.05, (12, 2))
    steps, flows = [], []
    flow, step = genfun.flow_jacobians, GermMap._psi_reads

    def counting_flow(germ, points):
        flows.append(len(points))
        return flow(germ, points)

    def counting_step(self, pts):
        steps.append(len(pts))
        return step(self, pts)

    monkeypatch.setattr(genfun, "flow_jacobians", counting_flow)
    monkeypatch.setattr(OdeGermMap, "_psi_reads", counting_step)
    grad = pm.gradient(w)
    # a Newton update happened, and each step was one flow of the batch
    assert len(steps) >= 2
    assert flows == steps
    gradient_flows = list(flows)
    flows.clear()
    z = pm.invert(w)
    # the gradient flowed exactly what the inversion flows: nothing after it
    assert flows == gradient_flows
    disp = phi.value_and_jac(z)[0] - z
    assert np.array_equal(grad, np.concatenate([-disp[:, 1:], disp[:, :1]], axis=1))


def test_spline_psi_gradient_equals_the_two_pass_form():
    pm = psi(SplineGermMap(quartic(-1), BOX2, resolution=33), 2, BOX2)
    w = BOX2.nodes(17)
    z = pm.invert(w)
    disp = pm.phi_k(z) - z
    two_pass = np.concatenate([-disp[:, 1:], disp[:, :1]], axis=1)
    assert np.array_equal(pm.gradient(w), two_pass)
    reads = pm.phi_k._psi_reads(z)
    assert np.array_equal(np.concatenate([reads["x"], reads["y"]], axis=1), pm.phi_k(z))
    assert np.array_equal(reads["xx"], pm.phi_k.jac(z)[:, :1, :1])


@pytest.mark.parametrize(
    "phi_k",
    [
        pytest.param(lambda: SplineGermMap(quartic(-1), BOX2, resolution=33), id="spline-1"),
        pytest.param(
            lambda: SplineGermMap(quartic(-1), BOX2, resolution=33).iterate(2), id="spline-2"
        ),
        pytest.param(lambda: OdeGermMap(quartic(-1)), id="ode-1"),
    ],
)
def test_psi_gradient_equals_full_jacobian_newton(phi_k):
    """Newton on the xx block gives the bits of Newton on all of D psi,
    and leaves z's y part as w's."""
    phi_k = phi_k()
    pm = PsiMap(phi_k)
    w = BOX2.nodes(65)
    assert np.array_equal(pm.gradient(w), full_jacobian_psi_gradient(phi_k, w))
    z = pm.invert(w)
    assert not _same_bits(z, w)
    assert _same_bits(z[:, 1:], w[:, 1:])


def test_psi_newton_reads_no_y_derivative(monkeypatch):
    """A Newton step of the psi gradient that does not converge reads the
    x-component and its x-derivative; the converged step reads the two
    value splines, and an inversion alone the x-component only.  No step
    reads a y-derivative."""
    phi_k = SplineGermMap(quartic(-1), BOX2, resolution=33).iterate(2)
    x_spline, y_spline = map(id, phi_k._phi_spl)
    w = BOX2.nodes(17)
    seen = _count_spline_lookups(monkeypatch)
    PsiMap(phi_k).gradient(w)
    steps = len(seen) // 2
    assert steps >= 2
    newton = [(x_spline, 0, 0), (x_spline, 1, 0)] * (steps - 1)
    reads = [(spline, dx, dy) for spline, dx, dy, _ in seen]
    assert reads == newton + [(x_spline, 0, 0), (y_spline, 0, 0)]
    # the first step starts at w, a node grid, and looks it up on its axes
    assert [grid for *_, grid in seen] == [True, True] + [False] * (len(seen) - 2)
    seen.clear()
    PsiMap(phi_k).invert(w)
    assert [(spline, dx, dy) for spline, dx, dy, _ in seen] == newton + [(x_spline, 0, 0)]


def _count_spline_lookups(monkeypatch, at=None) -> list:
    """Record (spline, dx, dy, grid) for every spline lookup at exactly the
    points at, or for every lookup at all if at is None.  A grid lookup
    is matched by the nodes of its two axes, x slowest."""
    from scipy.interpolate import RectBivariateSpline

    seen = []
    call = RectBivariateSpline.__call__

    def counting(self, x, y, dx=0, dy=0, grid=True):
        pts = np.stack(np.meshgrid(x, y, indexing="ij") if grid else [x, y], axis=-1)
        if at is None or _same_bits(pts.reshape(-1, 2), at):
            seen.append((id(self), dx, dy, grid))
        return call(self, x, y, dx=dx, dy=dy, grid=grid)

    monkeypatch.setattr(RectBivariateSpline, "__call__", counting)
    return seen


def test_spline_probe_reads_one_spline(monkeypatch):
    """psi's probe reads the xx entry alone: one spline, the x-derivative
    of the x-component, with the bits of the full Jacobian's entry."""
    phi = SplineGermMap(quartic(-1), BOX2, resolution=33).iterate(2)
    pts = BOX2.nodes(9)
    full = phi.jac(pts)[:, :1, :1]
    seen = _count_spline_lookups(monkeypatch, pts)
    assert _same_bits(phi._psi_reads(pts)["xx"], full)
    assert [(dx, dy) for _, dx, dy, _ in seen] == [(1, 0)]
    assert [grid for *_, grid in seen] == [True]


def test_generating_function_evaluates_phi_k_at_its_nodes_once(monkeypatch):
    """One value_and_jac at the F_k nodes feeds the C1 and det gates and
    psi's first Newton step; F_k is the assembly of a fresh psi gradient."""
    phi = SplineGermMap(quartic(-1), BOX2, resolution=33)
    res = 17
    nodes = BOX2.nodes(res)
    seen = _count_spline_lookups(monkeypatch, nodes)
    gf = generating_function(phi, 2, BOX2, res)
    # values and both partials of both components, each looked up once, on the grid's axes
    assert len(seen) == len(set(seen)) == 6
    assert all(grid for *_, grid in seen)
    monkeypatch.undo()
    grad_grid = gf.psi_k.gradient(nodes).reshape(res, res, 2)
    values = _path_integrate(grad_grid, BOX2.spacing(res))
    values[res // 2, res // 2] = 0.0
    assert _same_bits(gf.field.values, values)


def _point_by_point(evaluate, nodes):
    """evaluate at nodes, with one row appended so that the batch is not a
    node grid, and the appended row dropped again."""
    return evaluate(np.vstack([nodes, nodes[:1]]))[:-1]


@pytest.mark.parametrize("k", [1, 2])
def test_grid_lookups_give_the_bits_of_point_by_point_ones(k):
    """At a Box.nodes batch the splines are looked up on the grid's axes;
    value, Jacobian and psi's reads keep the bits of point-by-point
    lookups, on boxes inside the padded box, on its edge and on the padded
    box itself."""
    phi = SplineGermMap(quartic(-1), BOX2, resolution=33).iterate(k)
    boxes = [BOX2, Box(center=(0.02, -0.01), radius=0.05), Box(center=(0.1, 0.0), radius=0.06)]
    for box in boxes + [phi.padded]:
        for res in (3, 8, 33):
            nodes = box.nodes(res)
            for evaluate in (phi, phi.jac):
                assert _same_bits(evaluate(nodes), _point_by_point(evaluate, nodes))
            for part in ("x", "y", "xx"):
                read = lambda pts: phi._psi_reads(pts)[part]  # noqa: E731
                assert _same_bits(read(nodes), _point_by_point(read, nodes))


def test_shuffled_nodes_are_looked_up_point_by_point(monkeypatch):
    """A row-shuffled copy of a node grid is no Box.nodes layout: its
    lookups go point by point and give the grid's rows."""
    phi = SplineGermMap(quartic(-1), BOX2, resolution=33).iterate(2)
    nodes = BOX2.nodes(17)
    order = np.random.default_rng(23).permutation(len(nodes))
    grid_value, grid_jac = phi(nodes), phi.jac(nodes)
    seen = _count_spline_lookups(monkeypatch, nodes[order])
    assert _same_bits(phi(nodes[order]), grid_value[order])
    assert _same_bits(phi.jac(nodes[order]), grid_jac[order])
    assert len(seen) == 6
    assert not any(grid for *_, grid in seen)


def _same_bits(a, b) -> bool:
    """Equal values, signs of zero included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    half=st.integers(1, 128),
    log_scale=st.floats(-8.0, 2.0),
    zeros=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_plane_assembly_equals_the_any_dim_oracles_bit_for_bit(half, log_scale, zeros, seed):
    """The plane forms of the assembly helpers give the very floats of
    their m-dimensional loop forms, on random grids with a share of signed
    zeros, at odd resolutions 3 .. 257."""
    res = 2 * half + 1
    rng = np.random.default_rng(seed)
    grid = rng.standard_normal((res, res, 2)) * 10.0**log_scale
    hit = rng.uniform(size=grid.shape) < zeros
    grid[hit] = np.copysign(0.0, rng.standard_normal(np.count_nonzero(hit)))
    spacing = 2.0 * 10.0**log_scale / (res - 1)
    assert _same_bits(_path_integrate(grid, spacing), any_dim_path_integrate(grid, spacing))
    assert _same_bits(
        _plaquette_defect(grid, spacing), any_dim_plaquette_defect(grid, spacing)
    )
