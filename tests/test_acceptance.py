"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

Run with -s to see the per-criterion PASS/FAIL lines.  Each test gathers
every violation before concluding, so a failure names all broken parts.
"""

import time
from fractions import Fraction

import numpy as np

from localfloer import (
    Box,
    IterateSweep,
    OdeGermMap,
    c_constant_exact,
    conley_zehnder,
    detect_sdm,
    fixed_point_record,
    generating_function,
    gradient_degree,
    index_report,
    local_floer,
    local_morse_homology,
    mean_index,
    periodic_point_search,
    total_ranks,
    verify_persistence,
)
from localfloer.corpus import FIELDS, GERMS, resonant_rotation
from localfloer.errors import LocalFloerError
from localfloer.germs import monodromy
from localfloer.symplectic import admissible, spectrum, standard_j
from oracles import DiscreteOrbit, gf_property_report, iterate, maximizing_orbit
from pathhelpers import (
    exponential_path,
    iterated,
    maslov_loop,
    path_direct_sum,
    path_product,
)

_RECORDS = {}


def record_of(name):
    if name not in _RECORDS:
        germ = GERMS[name].factory()
        _RECORDS[name] = (germ, fixed_point_record(germ, np.zeros(2 * germ.n)))
    return _RECORDS[name]


def check(failures, cond, msg):
    if not cond:
        failures.append(msg)


def conclude(num, label, failures):
    status = "FAIL" if failures else "PASS"
    line = f"criterion {num:02d} [{status}] {label}"
    if failures:
        line += "  (" + "; ".join(failures[:4]) + ")"
    print(line)
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def test_criterion_01_degenerate_route_persistence():
    failures = []
    t0 = time.perf_counter()
    germ, rec = record_of("quartic-max")
    sweep = IterateSweep(germ, rec)
    report = verify_persistence(sweep, range(1, 7))
    elapsed = time.perf_counter() - t0
    for row in report.rows:
        check(failures, row.ranks.as_dict() == {1: 1},
              f"k={row.k} ranks {row.ranks.as_dict()} != {{1: 1}}")
        check(failures, row.s_k == 0, f"k={row.k} shift {row.s_k} != 0")
    check(failures, all(report.checks.values()),
          f"law checks {report.checks}")
    lf = local_floer(sweep, 1)
    check(failures, lf.hypothesis["gf_resolution"] <= 257,
          "generating grid above 257 per axis")
    check(failures, max(lf.hypothesis["hm_resolutions"]) <= 257,
          "homology grid above 257 per axis")
    check(failures, elapsed < 120.0, f"runtime {elapsed:.1f}s >= 120s")
    conclude(1, "degenerate-maximum ranks constant over k=1..6", failures)


def test_criterion_02_nondegenerate_route_window():
    failures = []
    for name, alpha in (("rotation-a", 0.3183), ("rotation-b", 0.4142)):
        germ, rec = record_of(name)
        n = germ.n
        ks = [k for k in range(1, 21) if admissible(rec.endpoint, k)]
        check(failures, len(ks) == 20, f"{name}: some order <= 20 inadmissible")
        report = verify_persistence(IterateSweep(germ, rec), ks)
        delta = report.delta
        for row in report.rows:
            check(failures, row.good and row.s_k % 2 == 0,
                  f"{name} k={row.k}: shift {row.s_k} not even at a good order")
        window_l = None
        for l in range(-3, 4):
            if all(abs(r.s_k + l - r.k * delta) <= n + 1e-9 for r in report.rows):
                window_l = l
                break
        check(failures, window_l is not None,
              f"{name}: no integer offset places all shifts in the index window")
        if window_l is not None:
            for row in report.rows:
                bound = (n + abs(window_l)) / row.k
                check(failures, abs(row.s_k / row.k - delta) <= bound + 1e-12,
                      f"{name} k={row.k}: |s_k/k - delta| exceeds {bound:.3f}")
        path = monodromy(germ, rec.point)
        for k in range(1, 21):
            cz = conley_zehnder(iterated(path, k))
            expect = 2 * int(np.floor(k * alpha)) + 1
            check(failures, cz == expect,
                  f"{name} k={k}: index {cz} != winding value {expect}")
    conclude(2, "rotation shifts even, in the mean-index window, indices exact",
             failures)


def test_criterion_03_bad_iteration_is_sharp():
    failures = []
    germ, rec = record_of("negative-hyperbolic-2")
    report = verify_persistence(IterateSweep(germ, rec), [2, 3, 5])
    rows = {r.k: r for r in report.rows}
    check(failures, not rows[2].good, "k=2 should be a bad order")
    check(failures, rows[2].s_k % 2 == 1, f"s_2 = {rows[2].s_k} not odd")
    for k in (3, 5):
        check(failures, rows[k].good, f"k={k} should be good")
        check(failures, rows[k].s_k % 2 == 0, f"s_{k} = {rows[k].s_k} not even")
    check(failures, report.checks["even_shift_at_good_orders"],
          "good-order evenness check failed")
    conclude(3, "negative-hyperbolic shift parity: odd at k=2, even at k=3,5",
             failures)


def test_criterion_04_isolation_of_resonant_germ():
    failures = []
    phi = OdeGermMap(resonant_rotation())
    ladder = [0.2, 0.05, 0.01, 0.001]
    # one search answers every order up to 5
    reports = periodic_point_search(phi, 5, ladder, seeds_per_axis=9)
    check(failures, [r.k for r in reports] == [1, 2, 3, 4, 5], "orders 1..5 not all reported")
    for k in (1, 2, 4, 5):
        rep = reports[k - 1]
        check(failures, rep.admissible, f"k={k} unexpectedly inadmissible")
        check(failures, rep.conclusion == "ISOLATION_HOLDS",
              f"k={k}: {rep.conclusion}")
        check(failures, rep.witnesses == (), f"k={k}: spurious witnesses")
    r3a = reports[2]
    r3b = periodic_point_search(phi, 3, ladder, seeds_per_axis=9)[-1]
    check(failures, not r3a.admissible, "k=3 should be inadmissible")
    check(failures, len(r3a.witnesses) > 0, "k=3 found no periodic witnesses")
    phi3 = phi.iterate(3)
    for w in r3a.witnesses:
        p = np.asarray(w["point"])[None, :]
        check(failures, np.linalg.norm(phi3(p) - p) <= 1e-8,
              "witness is not 3-periodic")
        check(failures, np.linalg.norm(phi(p) - p) > 1e-3,
              "witness is a plain fixed point")
    check(failures, r3a == r3b,
          "search is not deterministic, or order 3 depends on the largest order")
    conclude(4, "resonant germ isolated at k=1,2,4,5; 3-periodic ring found",
             failures)


def test_criterion_05_discrete_constant():
    failures = []
    check(failures, c_constant_exact(2) == Fraction(1, 2), "c(2) != 1/2")
    for k in range(2, 13):
        c = float(c_constant_exact(k))
        rng = np.random.default_rng(k)
        pts = rng.standard_normal((10_000, k, 2))
        pts -= pts.mean(axis=1, keepdims=True)
        l1 = np.abs(pts).sum(axis=(1, 2))
        dl1 = np.abs(np.roll(pts, -1, axis=1) - pts).sum(axis=(1, 2))
        bad = int(np.sum(l1 > c * dl1 + 1e-12))
        check(failures, bad == 0, f"k={k}: {bad} random sequences violate the bound")
        xi = DiscreteOrbit(maximizing_orbit(k).reshape(k, 1))
        gap = abs(xi.l1_norm() - c * xi.difference_l1_norm())
        check(failures, gap <= 1e-12, f"k={k}: optimizer misses equality by {gap:.2e}")
    conclude(5, "c(2)=1/2 exact; 10^4 samples per k<=12 obey the bound; "
                "optimizer attains it", failures)


def test_criterion_06_mean_index_suite():
    failures = []
    paths = {}
    for name, entry in GERMS.items():
        germ = entry.factory()
        paths[name] = (germ.n, monodromy(germ))

    for name, (n, p) in paths.items():
        d0 = mean_index(p)
        for k in (2, 3, 5):
            drift = abs(mean_index(iterated(p, k)) - k * d0)
            check(failures, drift <= 1e-6,
                  f"{name}: iteration formula off by {drift:.2e} at k={k}")

    nondeg = []
    for name, (n, p) in paths.items():
        rep = index_report(p)
        if rep.degenerate:
            if spectrum(p.endpoint()).all_eigenvalues_one():
                off = abs(rep.mean_index - 2.0 * round(rep.mean_index / 2.0))
                check(failures, off <= 1e-6,
                      f"{name}: unipotent mean index {rep.mean_index} not near even")
            continue
        nondeg.append((name, n, p, rep))
        gap = abs(rep.conley_zehnder - rep.mean_index)
        check(failures, gap < n,
              f"{name}: |index - mean| = {gap:.3f} not strictly below {n}")

    plane = [(name, p, rep) for name, n, p, rep in nondeg if n == 1]
    for (na, pa, ra), (nb, pb, rb) in zip(plane, plane[1:]):
        summed = path_direct_sum(pa, pb)
        drift = abs(mean_index(summed) - ra.mean_index - rb.mean_index)
        check(failures, drift <= 1e-6,
              f"{na}+{nb}: additivity off by {drift:.2e}")
        rep = index_report(summed)
        if not rep.degenerate:
            check(failures,
                  rep.conley_zehnder == ra.conley_zehnder + rb.conley_zehnder,
                  f"{na}+{nb}: index not additive")

    for m in (1, 2):
        for name, n, p, rep in nondeg:
            loop = exponential_path(2.0 * np.pi * m * standard_j(n))
            shift = maslov_loop(loop)
            cz = conley_zehnder(path_product(loop, p))
            check(failures, cz == rep.conley_zehnder + 2 * shift,
                  f"{name}: loop of winding {shift} shifted index by "
                  f"{cz - rep.conley_zehnder}, expected {2 * shift}")
    conclude(6, "mean-index identities hold across the corpus", failures)


def _perturbed_morse_counts(entry, eps=0.05):
    """Newton on grad f + eps e1 from a seed grid; indices via symmetrized
    difference Jacobian.  Degenerate zeros are discarded, so the counts
    are exactly the Morse data of the perturbation."""
    m = entry.m

    def pgrad(p):
        g = np.asarray(entry.grad(p), dtype=float).copy()
        g[:, 0] += eps
        return g

    def jac_at(z, h=1e-6):
        out = np.zeros((m, m))
        for i in range(m):
            dz = np.zeros(m)
            dz[i] = h
            out[:, i] = (pgrad((z + dz)[None])[0] - pgrad((z - dz)[None])[0]) / (2 * h)
        return (out + out.T) / 2.0

    axes = [np.linspace(-0.8, 0.8, 9)] * m
    seeds = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, m)
    found = []
    for z in seeds:
        z = z.copy()
        ok = False
        for _ in range(60):
            g = pgrad(z[None])[0]
            if np.linalg.norm(g) < 1e-12:
                ok = True
                break
            try:
                z = z - np.linalg.solve(jac_at(z), g)
            except np.linalg.LinAlgError:
                break
            if np.linalg.norm(z) > 2.0:
                break
        if not ok or np.linalg.norm(z, ord=np.inf) > 1.0:
            continue
        if any(np.linalg.norm(z - w) < 1e-6 for w, _ in found):
            continue
        evs = np.linalg.eigvalsh(jac_at(z))
        if np.min(np.abs(evs)) < 1e-8:
            continue
        found.append((z, int(np.sum(evs < 0.0))))
    counts = {}
    for _, idx in found:
        counts[idx] = counts.get(idx, 0) + 1
    return counts


def test_criterion_07_local_morse_homology():
    failures = []
    expected = {"neg-r2": {2: 1}, "cubic-1d": {}, "monkey": {1: 2}}
    for name, want in expected.items():
        entry = FIELDS[name]
        box = Box((0.0,) * entry.m, 1.0)
        report = local_morse_homology(entry.value, box, grad=entry.grad)
        got = report.ranks.as_dict()
        check(failures, got == want, f"{name}: ranks {got} != {want}")
        check(failures, report.per_resolution[-1] == report.per_resolution[-2],
              f"{name}: ranks not stabilized across refinements")
        oracle = _perturbed_morse_counts(entry)
        check(failures, got == oracle,
              f"{name}: perturbation oracle {oracle} disagrees with {got}")
        if entry.m == 2:
            deg = gradient_degree(entry.grad, 0.5)
            check(failures, report.ranks.euler() == deg,
                  f"{name}: euler {report.ranks.euler()} != degree {deg}")
    conclude(7, "local Morse homology matches perturbation and degree oracles",
             failures)


def test_criterion_08_degenerate_maximum_detection():
    failures = []
    verdicts = {"quartic-max": True, "rotation-a": False, "quartic-min": False}
    for name, want in verdicts.items():
        germ, rec = record_of(name)
        out = detect_sdm(IterateSweep(germ, rec))
        check(failures, out["is_sdm"] is want,
              f"{name}: detected {out['is_sdm']}, expected {want}")
        if name == "quartic-max":
            ev = out["evidence"]
            check(failures, ev["strongly_degenerate"], "monodromy not unipotent")
            cross = ev.get("crosscheck", {})
            check(failures, cross.get("consistent") is True,
                  f"higher-iterate cross-check failed: {cross}")
        for k in range(2, 6):
            gk = iterate(germ, k)
            rk = fixed_point_record(gk, np.zeros(2 * germ.n))
            out_k = detect_sdm(IterateSweep(gk, rk), crosscheck=False)
            check(failures, out_k["is_sdm"] is want,
                  f"{name}: verdict flips at iterate k={k}")
    conclude(8, "degenerate-maximum verdicts correct and closed under iteration",
             failures)


def test_criterion_09_generating_functions():
    failures = []
    shear_map = OdeGermMap(GERMS["shear"].factory())
    gf = generating_function(shear_map, 1, Box((0.0, 0.0), 0.5), 257, c1_gate=1.5)
    nodes = gf.field.box.nodes(257)
    err = float(np.max(np.abs(gf.field.values.ravel() - nodes[:, 1] ** 2 / 2.0)))
    check(failures, err <= 1e-6, f"shear field differs from y^2/2 by {err:.2e}")
    check(failures, gf.closedness_defect < 1e-8,
          f"shear closedness defect {gf.closedness_defect:.2e}")

    quartic_map = OdeGermMap(GERMS["quartic-max"].factory())
    coarse = generating_function(quartic_map, 1, Box((0.0, 0.0), 0.1), 33)
    fine = generating_function(quartic_map, 1, Box((0.0, 0.0), 0.1), 129)
    check(failures, fine.closedness_defect < 1e-8,
          f"refined defect {fine.closedness_defect:.2e} not below 1e-8")
    check(failures, fine.closedness_defect <= coarse.closedness_defect,
          "refinement does not reduce the closedness defect")

    # critical/fixed matching over the corpus: germs close enough to the
    # identity must match; the rest must be refused, never mismatched
    matchable = {
        "zero": (0.1, 33, 0.2),
        "shear": (0.5, 65, 1.5),
        "quartic-max": (0.1, 33, 0.2),
        "quartic-min": (0.1, 33, 0.2),
        "monkey-saddle": (0.1, 33, 0.2),
        "morse-triple": (0.2, 33, 3.0),
    }
    for name, entry in GERMS.items():
        germ = entry.factory()
        if germ.n != 1:
            try:
                generating_function(OdeGermMap(germ), 1, Box((0.0,) * 4, 0.05), 9)
                failures.append(f"{name}: higher-dimensional assembly not refused")
            except ValueError:
                pass
            continue
        phi = OdeGermMap(germ)
        if name in matchable:
            r, res, gate = matchable[name]
            g = generating_function(phi, 1, Box((0.0, 0.0), r), res, c1_gate=gate)
            rep = gf_property_report(phi, g)
            check(failures, rep["matched"],
                  f"{name}: critical and fixed sets differ by {rep['hausdorff']:.2e}")
        else:
            try:
                generating_function(phi, 1, Box((0.0, 0.0), 0.1), 33, c1_gate=4.5)
                failures.append(f"{name}: far-from-identity map not refused")
            except LocalFloerError:
                pass
    conclude(9, "shear field exact, defects refine away, critical sets match fixed sets",
             failures)


def test_criterion_10_rank_boundedness():
    failures = []
    settings = {
        "quartic-max": {"gf_radius": 0.06},
        "quartic-min": {"gf_radius": 0.06},
        "monkey-saddle": {"gf_radius": 0.003},
        "product-rot-quartic": {"gf_radius": 0.06},
    }
    no_route = set()
    for name, entry in GERMS.items():
        germ = entry.factory()
        rec = fixed_point_record(germ, np.zeros(2 * germ.n))
        ks = [k for k in range(1, 11) if admissible(rec.endpoint, k)]
        try:
            totals = total_ranks(IterateSweep(germ, rec, **settings.get(name, {})), ks)
        except LocalFloerError:
            no_route.add(name)
            continue
        check(failures, len(totals) == len(ks), f"{name}: some order skipped")
        vals = set(totals.values())
        check(failures, len(vals) == 1,
              f"{name}: total rank varies over iterates: {sorted(vals)}")
    check(failures, no_route == {"zero", "shear"},
          f"route availability changed: no route for {sorted(no_route)}")
    conclude(10, "total rank constant over admissible k<=10 wherever a route exists",
             failures)
