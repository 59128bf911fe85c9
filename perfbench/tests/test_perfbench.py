"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import answers  # noqa: E402
import refclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_arithmetic_on_synthetic_tree():
    tree = [
        ("root", 0.0, 10.0, -1, "r"),
        ("a", 1.0, 4.0, 0, "r"),
        ("b", 3.0, 6.0, 0, "r"),  # overlaps a: the root loses 1..6 once
        ("leaf", 2.0, 3.0, 1, "r"),
        ("leaf", 7.0, 7.5, 0, "r"),
        ("late", 9.5, 11.0, 0, "r"),  # runs past its parent: clipped at 10
    ]
    got = spans.self_times(tree)
    assert got["root"] == pytest.approx(10.0 - 5.0 - 0.5 - 0.5)
    assert got["a"] == pytest.approx(2.0)
    assert got["b"] == pytest.approx(3.0)
    assert got["leaf"] == pytest.approx(1.5)
    assert got["late"] == pytest.approx(1.5)


def test_reference_loops_do_not_depend_on_host_speed():
    def run_at(loop_s, interrupted_loop_s=None):
        # ten stretches of program work, each worth 10 reference loops,
        # and a last one after the last sample
        samples, t = [], 0.0
        for i in range(10):
            t += 10 * loop_s
            dur = interrupted_loop_s if i == 4 and interrupted_loop_s else loop_s
            samples.append((t, dur))
            t += dur
        return refclock.ref_units(0.0, t + 10 * loop_s, samples)

    assert run_at(1e-4) == pytest.approx(110.0)
    assert run_at(2e-4) == pytest.approx(110.0)  # the host at half speed
    # an interrupt inside one loop is not taken for a slow host
    assert run_at(1e-4, interrupted_loop_s=5e-3) == pytest.approx(110.0)


def test_ref_clock_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    clock.start()
    end = time.perf_counter() + 0.05
    while time.perf_counter() < end:
        pass
    clock.stop()
    assert len(clock.samples) >= 2
    assert 0 < clock.spent < 0.05
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _namespace_snapshot():
    import localfloer  # noqa: F401

    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "localfloer" or name.startswith("localfloer."):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                for key, member in vars(val).items() if isinstance(val, type) else ():
                    snap[(name, attr, key)] = member
    return snap


def test_wrappers_restore_the_originals():
    from localfloer.corpus import GERMS

    germ = GERMS["quartic-max"].factory()
    callbacks = (germ.value, germ.grad, germ.hess)
    before = _namespace_snapshot()
    tracer = spans.Tracer("test")
    tracer.install(germ=germ)
    during = _namespace_snapshot()
    patched = [k for k in before if during[k] is not before[k]]
    # every spanned function is patched in its own module and where imported
    assert ("localfloer.germs", "flow_jacobians") in patched
    assert ("localfloer.genfun", "flow_jacobians") in patched
    assert ("localfloer.scenarios", "spectrum") in patched
    assert ("localfloer.paths", "SymplecticPath", "rho") in patched
    tracer.uninstall()
    after = _namespace_snapshot()
    assert all(after[k] is before[k] for k in before)
    assert (germ.value, germ.grad, germ.hess) == callbacks


def test_traced_and_untraced_runs_give_the_same_checked_answers(tmp_path):
    sc = workloads.scenario("index-iterates", 0)
    expected = answers.load_expected("index-iterates")
    plain = run._run_child(sc, tmp_path, "plain", False, 120)
    traced = run._run_child(sc, tmp_path, "traced", True, 120)
    assert plain["answers"] == traced["answers"]
    assert not any(answers.check(traced["answers"], expected).values())
    layers = traced["layers"]
    assert layers["paths.winding.calls"] > 0
    assert layers["paths.SymplecticPath.rho.calls"] > 0
    assert plain["layers"] is None


def test_checker_counts_every_mismatch():
    expected = answers.load_expected("morse-fine")
    got = {k: {"error": None, **copy.deepcopy(v)} for k, v in expected.items()}
    assert not any(answers.check(got, expected).values())

    got["morse:saddle"]["data"]["ranks"] = {"1": 2}  # integers: exact
    got["morse:r2"]["gates"][1][1] = False  # a failed gate
    got["morse:monkey"]["data"]["deltas"][0] *= 1 + 1e-3  # float beyond tolerance
    got["morse:neg-r2"]["data"]["deltas"][0] *= 1 + 1e-9  # float within tolerance
    got["morse:cubic-1d"]["error"] = "NotStabilized"
    del got["morse:quartic-neg"]
    bad = {k for k, v in answers.check(got, expected).items() if v}
    assert bad == {
        "morse:saddle",
        "morse:r2",
        "morse:monkey",
        "morse:cubic-1d",
        "morse:quartic-neg",
    }


def test_expected_answers_agree_with_known_values():
    exp = json.loads(answers.EXPECTED_FILE.read_text())
    rows = exp["degenerate-persistence"]["persistence"]["data"]["rows"]
    assert [(r["k"], r["ranks"], r["s_k"]) for r in rows] == [
        (1, {"1": 1}, 0),
        (2, {"1": 1}, 0),
    ]
    reports = exp["isolation-search"]["isolation"]["data"]["reports"]
    by_k = {r["k"]: r for r in reports}
    for k in (1, 2):
        assert by_k[k]["admissible"] and by_k[k]["conclusion"] == "ISOLATION_HOLDS"
        assert not by_k[k]["witnesses_present"]
    assert not by_k[3]["admissible"] and by_k[3]["witnesses_present"]
    # tests/test_cubhom.py: field ranks and gradient degrees
    ranks = {"neg-r2": {"2": 1}, "r2": {"0": 1}, "saddle": {"1": 1},
             "cubic-1d": {}, "monkey": {"1": 2}, "quartic-neg": {"2": 1}}
    degrees = {"neg-r2": 1, "r2": 1, "saddle": -1, "monkey": -2, "quartic-neg": 1}
    for field, want in ranks.items():
        data = exp["morse-fine"][f"morse:{field}"]["data"]
        assert data["ranks"] == want
        assert data.get("degree") == degrees.get(field)
    spectrum = exp["index-iterates"]["spectrum"]["data"]
    assert spectrum["conley_zehnder"] == 1 and spectrum["mean_index"] == 1.0
    every_gate = [g for w in exp.values() for t in w.values() for g in t["gates"]]
    assert every_gate and all(ok for _, ok in every_gate)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeds_only_reorder_tasks(name):
    base = workloads.scenario(name, 0)
    assert base == workloads.WORKLOADS[name]
    keys = sorted(workloads.task_key(t) for t in base["tasks"])
    assert keys == sorted(answers.load_expected(name))
    for seed in (1, 2, 17):
        sc = workloads.scenario(name, seed)
        assert sc == workloads.scenario(name, seed)
        assert sorted(workloads.task_key(t) for t in sc["tasks"]) == keys
        assert {k: v for k, v in sc.items() if k != "tasks"} == {
            k: v for k, v in base.items() if k != "tasks"
        }


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in spans.METRICS
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_digest_tells_arrays_apart():
    a = np.arange(6.0).reshape(3, 2)
    assert spans._digest(a) == spans._digest(a.copy())
    assert spans._digest(a) != spans._digest(a.reshape(2, 3))
    assert spans._digest(a) != spans._digest(a + 1e-15 * np.eye(3, 2))
