"""Command line interface: scenario parsing, exit codes, artifacts."""

import ast
import dataclasses
import functools
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import numpy as np
import pytest

import localfloer
from localfloer import corpus, scenarios
from localfloer.cli import main
from localfloer.corpus import FIELDS
from localfloer.errors import LocalFloerError, ScenarioError
from localfloer.invariants import IterateSweep
from localfloer.scenarios import _TASK_KEYS, parse_scenario


def write_scenario(tmp_path, obj, name="scenario.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj) if not isinstance(obj, str) else obj)
    return str(p)


def spectrum_scenario(formula="quartic-max", **extra):
    sc = {
        "schema": 1,
        "name": "cli test",
        "germ": {"formula": formula},
        "tasks": ["spectrum"],
        "k_range": [1, 3],
    }
    sc.update(extra)
    return sc


# ------------------------------------------------------------ usage errors


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "localfloer" in capsys.readouterr().out


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


# ------------------------------------------------------------ parse errors


def run_expecting_parse_error(tmp_path, capsys, obj):
    path = write_scenario(tmp_path, obj)
    code = main(["run", "--scenario", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:")
    return err


def test_malformed_json_reports_line(tmp_path, capsys):
    err = run_expecting_parse_error(tmp_path, capsys, '{"schema": 1,\n  bad\n}')
    assert ":2:" in err


def test_unknown_top_level_key(tmp_path, capsys):
    err = run_expecting_parse_error(
        tmp_path, capsys, dict(spectrum_scenario(), surprise=1)
    )
    assert "surprise" in err


def test_unknown_germ_key(tmp_path, capsys):
    sc = spectrum_scenario()
    sc["germ"] = {"formula": "quartic-max", "flavor": "strange"}
    err = run_expecting_parse_error(tmp_path, capsys, sc)
    assert "flavor" in err


def test_unknown_task_kind(tmp_path, capsys):
    sc = spectrum_scenario()
    sc["tasks"] = ["frobnicate"]
    run_expecting_parse_error(tmp_path, capsys, sc)


def test_unknown_formula(tmp_path, capsys):
    err = run_expecting_parse_error(
        tmp_path, capsys, spectrum_scenario(formula="definitely-not-a-germ")
    )
    assert "definitely-not-a-germ" in err


def test_missing_formula(tmp_path, capsys):
    sc = spectrum_scenario()
    sc["germ"] = {}
    run_expecting_parse_error(tmp_path, capsys, sc)


@pytest.mark.parametrize("bad", [[0, 2], [4, 2], [1], "1-6"])
def test_bad_k_range(tmp_path, capsys, bad):
    run_expecting_parse_error(tmp_path, capsys, spectrum_scenario(k_range=bad))


def test_bad_parameter_name(tmp_path, capsys):
    sc = spectrum_scenario(formula="linear-rotation")
    sc["germ"]["parameters"] = {"beta": 1.0}
    run_expecting_parse_error(tmp_path, capsys, sc)


@pytest.mark.parametrize("formula", ["hyperbolic", "negative-hyperbolic"])
@pytest.mark.parametrize("lam", [-1, 0])
def test_hyperbolic_needs_positive_lam(formula, lam):
    # log(lam) is not a number for lam <= 0, and the monodromy flow of such
    # a germ never ends; the constructor refuses it, the parser reports it
    sc = spectrum_scenario(formula=formula)
    sc["germ"]["parameters"] = {"lam": lam}
    with pytest.raises(ScenarioError, match="lam > 0"):
        parse_scenario(sc)


def test_quartic_takes_a_fractional_sign(tmp_path, capsys):
    sc = spectrum_scenario(formula="quartic")
    sc["germ"]["parameters"] = {"sign": 0.5}
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True
    names = [corpus.quartic(s).name for s in (-1, +1, 0.5)]
    assert names == ["quartic(-1)", "quartic(+1)", "quartic(+0.5)"]


def test_empty_tasks_rejected(tmp_path, capsys):
    sc = spectrum_scenario()
    sc["tasks"] = []
    run_expecting_parse_error(tmp_path, capsys, sc)


def test_missing_out_directory(tmp_path, capsys):
    path = write_scenario(tmp_path, spectrum_scenario())
    code = main(["run", "--scenario", path])
    assert code == 2
    assert "output directory" in capsys.readouterr().err


@pytest.mark.parametrize(
    "task",
    [
        {"kind": "persistence", "gf_resolution": 64},
        {"kind": "isolation", "seeds_per_axis": "x"},
        {"kind": "gaps", "radius": "x"},
        {"kind": "morse", "field": "neg-r2", "resolutions": [17]},
        {"kind": "persistence", "gf_radius": -1},
        {"kind": "isolation", "radii": [0.05, -0.01]},
        {"kind": "morse", "field": "no-such-field"},
        {"kind": "gaps", "radius": 10**400},
        {"kind": "morse", "field": "neg-r2", "resolutions": [16, 21]},
    ],
)
def test_bad_task_setting(tmp_path, capsys, task):
    sc = spectrum_scenario()
    sc["tasks"] = [task]
    err = run_expecting_parse_error(tmp_path, capsys, sc)
    key = list(task)[-1]
    assert f"{task['kind']}.{key} must be" in err


# the library call each task kind's runner makes
LIBRARY_CALLS = {
    "persistence": "verify_persistence",
    "sdm": "detect_sdm",
    "isolation": "periodic_point_search",
    "gaps": "find_fixed_points",
    "morse": "local_morse_homology",
}


class Recorded(LocalFloerError):
    """Raised by a stubbed library call once it has recorded its arguments."""


def library_call(monkeypatch, tmp_path, task, tolerances=None, germ=None):
    """(args, kwargs) the runner of task hands its library call, which is
    stubbed to record them and raise, so nothing is computed."""
    seen = []

    def stub(*args, **kwargs):
        seen.append((args, kwargs))
        raise Recorded("recorded")

    monkeypatch.setattr(scenarios, LIBRARY_CALLS[task["kind"]], stub)
    raw = spectrum_scenario(tasks=[task], tolerances=tolerances or {}, k_range=[1, 1])
    raw["germ"].update(germ or {})
    scenarios.run_scenario(parse_scenario(raw), str(tmp_path))
    assert len(seen) == 1
    return seen[0]


MORSE_GRAD = {"grad": FIELDS["neg-r2"].grad}


@pytest.mark.parametrize(
    "task, tolerances, expected",
    [
        # a task's own setting beats the scenario tolerance
        ({"kind": "isolation", "newton_tol": 1e-10}, {"newton_tol": 1e-9}, {"newton_tol": 1e-10}),
        ({"kind": "isolation"}, {"newton_tol": 1e-9}, {"newton_tol": 1e-9}),
        # neither set: nothing passed, so the library default holds
        ({"kind": "isolation", "seeds_per_axis": 5}, {}, {"seeds_per_axis": 5}),
        ({"kind": "gaps"}, {"newton_tol": 1e-9}, {"newton_tol": 1e-9}),
        ({"kind": "gaps", "seeds_per_axis": 5}, {"sdm_delta_tol": 1e-4}, {"seeds_per_axis": 5}),
        ({"kind": "sdm"}, {"sdm_delta_tol": 1e-4, "newton_tol": 1e-9}, {"delta_tol": 1e-4}),
        ({"kind": "sdm", "crosscheck": False}, {}, {"crosscheck": False}),
        (
            {"kind": "persistence", "gf_resolution": 17},
            {"sdm_delta_tol": 1e-4, "newton_tol": 1e-9},
            {"gf_resolution": 17},
        ),
        ({"kind": "morse", "field": "neg-r2"}, {"newton_tol": 1e-9}, MORSE_GRAD),
        (
            {"kind": "morse", "field": "neg-r2", "resolutions": [9, 11], "exclude_fraction": 0.25},
            {},
            {"resolutions": [9, 11], "exclude_fraction": 0.25, **MORSE_GRAD},
        ),
        (
            {"kind": "sdm", "gf_radius": 0.05, "crosscheck": False},
            {"sdm_delta_tol": 1e-4},
            {"gf_radius": 0.05, "crosscheck": False, "delta_tol": 1e-4},
        ),
    ],
)
def test_runners_pass_task_settings_over_tolerances_and_nothing_unset(
    tmp_path, monkeypatch, task, tolerances, expected
):
    args, kwargs = library_call(monkeypatch, tmp_path, task, tolerances)
    kwargs.pop("first", None)  # the isolation search's first order, from k_range
    if task["kind"] in ("persistence", "sdm"):
        # grid settings set the sweep the call is given; what the task does
        # not set keeps the sweep's default
        grid = {key: getattr(args[0], key) for key in scenarios._SWEEP_KEYS}
        defaults = {f.name: f.default for f in dataclasses.fields(IterateSweep) if f.name in grid}
        assert grid == {**defaults, **{k: v for k, v in expected.items() if k in grid}}
        expected = {k: v for k, v in expected.items() if k not in grid}
    assert kwargs == expected


def test_readme_scenarios_and_settings_table_match_the_parser(tmp_path, monkeypatch):
    """The README's settings table against the code: the value column
    against the parser, the default column against each default's one
    home, read by introspection (library signatures, the fields of
    IterateSweep) or from what a runner hands a stubbed library call."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) >= 2
    for block in blocks:
        parse_scenario(json.loads(block), source="README.md")
    rows = re.findall(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+?) \| ([^|]+?) \|$", readme, re.M)
    table = {(kind, key): what for kind, key, what, _ in rows}
    assert len(table) == len(rows)
    assert table == {
        (kind, key): what
        for kind, checks in _TASK_KEYS.items()
        for key, (_, what) in checks.items()
    }

    defaults = {(kind, key): default for kind, key, _, default in rows}
    sweep = {f.name: f.default for f in dataclasses.fields(IterateSweep)}
    signatures = {
        kind: inspect.signature(getattr(scenarios, name)).parameters
        for kind, name in LIBRARY_CALLS.items()
    }

    def library_default(kind, name):
        params = signatures[kind]
        if name in params:
            return params[name].default
        assert "sweep" in params, (kind, name)
        return sweep[name]

    # the scenario tolerances: the README's prose states their defaults
    for tol, param in scenarios._TOL_PARAMS.items():
        stated = re.search(rf"`{tol}` \(default ([^)]+)\)", readme).group(1)
        readers = [kind for kind in ("sdm", "isolation", "gaps") if param in signatures[kind]]
        assert readers, tol
        for kind in readers:
            assert library_default(kind, param) == json.loads(stated), (tol, kind)
    assert defaults.pop(("isolation", "newton_tol")) == "`tolerances.newton_tol`"

    # runner-level defaults, which depend on the scenario
    assert defaults.pop(("morse", "field")) == "none: required"
    assert defaults.pop(("gaps", "radius")) == "`germ.box`"
    args, _ = library_call(monkeypatch, tmp_path, {"kind": "gaps"}, germ={"box": 0.3})
    assert args[1] == 0.3
    args, _ = library_call(monkeypatch, tmp_path, {"kind": "morse", "field": "neg-r2"})
    assert repr(args[1].radius) == defaults.pop(("morse", "radius"))
    assert defaults.pop(("isolation", "radii")) == (
        "min(0.2, 0.8 × `germ.box`), 0.05, 0.01, 0.001, less those above 0.8 × `germ.box`"
    )
    for box, radii in [(1.4, [0.2, 0.05, 0.01, 0.001]), (0.05, [0.04, 0.01, 0.001])]:
        args, _ = library_call(monkeypatch, tmp_path, {"kind": "isolation"}, germ={"box": box})
        assert args[2] == pytest.approx(radii)

    # every other default is the library's, passed by no runner
    code = {}
    for kind, key in defaults:
        value = library_default(kind, key)
        code[kind, key] = json.dumps(list(value) if isinstance(value, tuple) else value)
    assert defaults == code


# ------------------------------------------------------------- happy path


def test_spectrum_and_morse_run(tmp_path, capsys):
    sc = spectrum_scenario()
    sc["tasks"] = ["spectrum", {"kind": "morse", "field": "neg-r2"}]
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    code = main(["run", "--scenario", path, "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert "(pass)" in printed
    assert "PASS morse.stabilized" in printed
    assert "PASS morse.euler-matches-degree" in printed

    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["errors"] == []
    assert summary["germ"] == "quartic-max"
    assert summary["seed"] == 0
    assert summary["artifacts"] == ["00-spectrum.json", "01-morse.json"]
    spec = json.loads((out / "00-spectrum.json").read_text())
    assert {"admissible", "good"} <= set(spec["orders"][0])


def test_seed_override_recorded(tmp_path, capsys):
    path = write_scenario(tmp_path, spectrum_scenario())
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out), "--seed", "7"]) == 0
    assert json.loads((out / "summary.json").read_text())["seed"] == 7


def test_rerun_is_byte_identical(tmp_path, capsys):
    path = write_scenario(tmp_path, spectrum_scenario())
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--scenario", path, "--out", str(out)]) == 0
        outs.append(out)
    files_a = sorted(p.name for p in outs[0].iterdir())
    files_b = sorted(p.name for p in outs[1].iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_every_written_result_serializes_by_its_fields_or_its_to_json():
    """_jsonable writes a dataclass by its fields, unless it has a to_json
    (the three results whose JSON is not their fields)."""
    import numpy as np

    from localfloer import (
        Box,
        IterateSweep,
        OdeGermMap,
        fixed_point_record,
        local_morse_homology,
        periodic_point_search,
        spectrum,
        verify_persistence,
    )
    from localfloer.corpus import linear_rotation
    from localfloer.cubical import GradedRanks
    from localfloer.germs import FixedPointRecord, GapTable, gap_table

    germ = linear_rotation(0.05)
    record = fixed_point_record(germ, np.zeros(2))
    eigen = spectrum(record.endpoint)
    persistence = verify_persistence(IterateSweep(germ, record), [1, 2])
    box = Box(center=(0.0, 0.0), radius=1.0)
    results = [
        record,
        record.endpoint,
        eigen,
        eigen.clusters[0],
        persistence,
        persistence.rows[0],
        persistence.rows[0].ranks,
        periodic_point_search(OdeGermMap(germ), 1, [0.05], seeds_per_axis=2)[0],
        gap_table([record, record], 1),
        box,
        local_morse_homology(FIELDS["neg-r2"].value, box, grad=FIELDS["neg-r2"].grad),
    ]
    own = (GradedRanks, FixedPointRecord, GapTable)
    for result in results:
        assert hasattr(result, "to_json") == isinstance(result, own), type(result)
        if isinstance(result, own):
            keys = set(result.to_json())
        else:
            keys = {f.name for f in dataclasses.fields(result)}
        data = scenarios._jsonable(result)
        assert set(data) == keys, type(result)
        json.dumps(data)

    # a cached property is not a field: the computed spectrum stays out
    assert record.endpoint.eigen is not None
    assert set(scenarios._jsonable(record.endpoint)) == {"n", "entries", "tol_symp"}
    assert set(scenarios._jsonable(record)["monodromy"]) == {"n", "entries", "tol_symp"}
    cluster = eigen.clusters[0]
    assert cluster.value.imag != 0.0
    assert scenarios._jsonable(cluster)["value"] == [cluster.value.real, cluster.value.imag]


def test_parametrized_formula(tmp_path, capsys):
    sc = spectrum_scenario(formula="linear-rotation")
    sc["germ"]["parameters"] = {"alpha": 0.05}
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["pass"] is True


def test_isolation_task_writes_constant_table(tmp_path, capsys):
    sc = {
        "schema": 1,
        "name": "isolation",
        "germ": {"formula": "resonant-rotation"},
        "tasks": [{"kind": "isolation", "radii": [0.05, 0.01], "seeds_per_axis": 7}],
        "k_range": [2, 2],
    }
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    # only the orders of k_range are searched and reported
    reports = json.loads((out / "00-isolation.json").read_text())["reports"]
    assert [r["k"] for r in reports] == [2]
    table = (out / "00-isolation-c-constant.csv").read_text().splitlines()
    assert table[0] == "k,c_exact,c_float"
    assert table[1] == "2,1/2,0.5"
    assert len(table) == 12


def test_origin_record_is_built_once_per_scenario(tmp_path, capsys, monkeypatch):
    import localfloer.scenarios as scenarios

    calls = []
    real = scenarios.fixed_point_record
    monkeypatch.setattr(
        scenarios, "fixed_point_record", lambda *a: calls.append(a) or real(*a)
    )
    sc = spectrum_scenario(formula="negative-hyperbolic-2", k_range=[1, 2])
    sc["tasks"] = ["spectrum", "persistence", "spectrum"]
    path = write_scenario(tmp_path, sc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def run_counting_towers(monkeypatch, tmp_path, tasks):
    """Run a quartic-max scenario of the given tasks at k 1..3; return the
    number of iterate towers built and the sizes of the value-only grid flows."""
    from localfloer import genfun

    towers, sizes = [], []
    tower_init, flow = genfun._IterateTower.__init__, genfun.flow_points
    monkeypatch.setattr(
        genfun._IterateTower, "__init__", lambda self, *a: towers.append(1) or tower_init(self, *a)
    )
    monkeypatch.setattr(genfun, "flow_points", lambda g, p: sizes.append(len(p)) or flow(g, p))
    raw = spectrum_scenario(tasks=tasks, k_range=[1, 3])
    code, _ = scenarios.run_scenario(parse_scenario(raw), str(tmp_path))
    assert code == 0
    return len(towers), sizes


def test_persistence_and_sdm_share_one_sweep_per_grid_setting(tmp_path, monkeypatch):
    # sdm reads orders 1 and 2, which persistence already flowed
    got = run_counting_towers(monkeypatch, tmp_path / "a", ["persistence", "sdm"])
    assert got == (1, [97**2] * 3)
    # a default set explicitly is the default
    tasks = [{"kind": "persistence", "gf_radius": 0.1, "gf_resolution": 65}, "sdm"]
    assert run_counting_towers(monkeypatch, tmp_path / "b", tasks) == (1, [97**2] * 3)
    # delta_tol and crosscheck are no grid settings
    tasks = ["persistence", {"kind": "sdm", "crosscheck": False}]
    assert run_counting_towers(monkeypatch, tmp_path / "c", tasks) == (1, [97**2] * 3)
    # other grid settings, another sweep with its own tower
    tasks = ["persistence", {"kind": "sdm", "gf_radius": 0.06}]
    assert run_counting_towers(monkeypatch, tmp_path / "d", tasks) == (2, [97**2] * 5)
    tasks = ["persistence", {"kind": "persistence", "exclude_fraction": 0.25}]
    assert run_counting_towers(monkeypatch, tmp_path / "e", tasks) == (2, [97**2] * 6)


def test_a_shared_sweep_writes_the_sdm_artifact_of_an_sdm_only_scenario(tmp_path):
    shared, alone = tmp_path / "shared", tmp_path / "alone"
    for out, tasks in ((shared, ["persistence", "sdm"]), (alone, ["sdm"])):
        raw = spectrum_scenario(tasks=tasks, k_range=[1, 3])
        assert scenarios.run_scenario(parse_scenario(raw), str(out))[0] == 0
    assert (shared / "01-sdm.json").read_bytes() == (alone / "00-sdm.json").read_bytes()


def test_persistence_task_calls_local_floer_once_per_order(tmp_path, monkeypatch):
    from localfloer import invariants

    orders = []
    real = invariants.local_floer
    monkeypatch.setattr(
        invariants, "local_floer", lambda sweep, k=1: orders.append(k) or real(sweep, k)
    )
    for formula in ("quartic-max", "negative-hyperbolic-2"):
        orders.clear()
        raw = spectrum_scenario(formula, tasks=["persistence"], k_range=[1, 4])
        assert scenarios.run_scenario(parse_scenario(raw), str(tmp_path / formula))[0] == 0
        assert orders == [1, 2, 3, 4]


def test_gaps_task_reads_the_newton_tolerance(tmp_path, capsys, monkeypatch):
    import localfloer.scenarios as scenarios

    seen = []
    real = scenarios.find_fixed_points

    def spy(*args, **kwargs):
        seen.append(kwargs.get("newton_tol"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "find_fixed_points", spy)
    sc = spectrum_scenario(formula="morse-triple", k_range=[1, 1])
    sc["tasks"] = [{"kind": "gaps", "seeds_per_axis": 5}]
    sc["tolerances"] = {"newton_tol": 1e-9}
    path = write_scenario(tmp_path, sc)
    assert main(["run", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
    assert seen == [1e-9]


# ---------------------------------------------------------- failure paths


def test_degenerate_identity_germ_fails_honestly(tmp_path, capsys):
    sc = {
        "schema": 1,
        "germ": {"formula": "zero"},
        "tasks": ["persistence"],
        "k_range": [1, 2],
    }
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    code = main(["run", "--scenario", path, "--out", str(out)])
    printed = capsys.readouterr().out
    assert code == 1
    assert "ERROR 00-persistence" in printed
    assert "(fail)" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert summary["errors"][0]["error"] == "HypothesisFailed"
    assert summary["errors"][0]["task"] == "00-persistence"


def test_refused_persistence_run_names_the_order_and_the_box(tmp_path, capsys):
    # a C1 gate that phi passes and phi^2 does not
    task = {"kind": "persistence", "c1_gate": 0.0457, "gf_radius": 0.1}
    sc = spectrum_scenario(tasks=[task], k_range=[1, 2])
    out = tmp_path / "out"
    code = main(["run", "--scenario", write_scenario(tmp_path, sc), "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    [error] = json.loads((out / "summary.json").read_text())["errors"]
    assert error["error"] == "NotC1Small"
    assert error["message"].startswith("order 2, box radius 0.1: ||Dphi^k - id|| = ")


def test_refused_morse_task_records_its_error_and_fails_its_gate(tmp_path, capsys):
    """Grids of 3 and 5 nodes are too coarse to clear neg-r2's collar: the
    task writes the refusal into its payload and fails morse.stabilized."""
    sc = spectrum_scenario(tasks=[{"kind": "morse", "field": "neg-r2", "resolutions": [3, 5]}])
    out = tmp_path / "out"
    code = main(["run", "--scenario", write_scenario(tmp_path, sc), "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    payload = json.loads((out / "00-morse.json").read_text())
    assert payload["error"]["type"] == "CriticalValueInWindow"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is False
    assert summary["errors"] == []
    [gate] = summary["gates"]
    assert (gate["id"], gate["passed"]) == ("morse.stabilized", False)
    assert gate["detail"].startswith("CriticalValueInWindow: ")


def test_refused_sdm_crosscheck_passes_as_uncomputable(tmp_path, capsys):
    """On quartic-max ||Dphi^k - id|| is 0.030 at k = 1 and 0.061 at k = 2,
    so this c1_gate admits the sdm test and refuses its k = 2 cross-check.
    The refused cross-check passes its gate as "uncomputable" and the run
    exits 0.  This pins a gate that cannot fail: ROADMAP item 4 turns the
    verdict into `uncertified`, and this test changes with it."""
    sc = spectrum_scenario(tasks=[{"kind": "sdm", "c1_gate": 0.0457}], k_range=[1, 2])
    out = tmp_path / "out"
    code = main(["run", "--scenario", write_scenario(tmp_path, sc), "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads((out / "00-sdm.json").read_text())
    assert payload["is_sdm"] is True
    assert payload["evidence"]["crosscheck"]["k"] == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    [gate] = summary["gates"]
    assert (gate["id"], gate["passed"]) == ("sdm.crosscheck-consistent", True)
    assert gate["detail"].startswith("uncomputable: NotC1Small: ")


# ------------------------------------------------------- corpus and plots


def test_corpus_listing(capsys):
    assert main(["corpus"]) == 0
    listing = json.loads(capsys.readouterr().out)
    names = [g["name"] for g in listing["germs"]]
    assert "quartic-max" in names
    assert "shear" in names
    assert "neg-r2" in listing["fields"] or any(
        f == "neg-r2" or (isinstance(f, dict) and f.get("name") == "neg-r2")
        for f in listing["fields"]
    )
    assert "linear-rotation" in listing["parametrized_formulas"]


def test_plots_roundtrip(tmp_path, capsys):
    sc = {
        "schema": 1,
        "name": "plots",
        "germ": {"formula": "quartic-max"},
        "tasks": ["persistence"],
        "k_range": [1, 2],
    }
    path = write_scenario(tmp_path, sc)
    out = tmp_path / "out"
    assert main(["run", "--scenario", path, "--out", str(out)]) == 0
    capsys.readouterr()

    assert main(["plots", "--out", str(out)]) == 0
    written = capsys.readouterr().out.split()
    assert any(name.endswith("-shift.dat") for name in written)
    for name in written:
        lines = (out / name).read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 1


def test_plots_without_reports(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["plots", "--out", str(empty)]) == 2
    assert "error:" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "localfloer", "corpus"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "quartic-max" in proc.stdout


def test_non_finite_right_hand_side_fails_the_task_instead_of_hanging(tmp_path):
    """6 eps overflows to inf in monkey-saddle's jet, and inf * 0 at the
    origin is NaN; the integrator refuses it.  A fresh process with a
    timeout, so that a regression fails here instead of hanging."""
    sc = spectrum_scenario("monkey-saddle")
    sc["germ"]["parameters"] = {"eps": 1e308}
    path, out = write_scenario(tmp_path, sc), tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "localfloer", "run", "--scenario", path, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    [error] = json.loads((out / "summary.json").read_text())["errors"]
    assert error["error"] == "StepFailure"
    assert error["message"].startswith("non-finite right-hand side")


def test_unfinished_flow_fails_the_task_instead_of_hanging(tmp_path):
    """Far out, the quartic's orbits turn so fast that a unit-time flow
    takes ever more steps; past its right-hand-side budget the integrator
    refuses.  A fresh process with a timeout, as above."""
    sc = spectrum_scenario(k_range=[1, 1])
    sc["tasks"] = [{"kind": "gaps", "radius": 1e6, "seeds_per_axis": 2}]
    path, out = write_scenario(tmp_path, sc), tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "localfloer", "run", "--scenario", path, "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1
    [error] = json.loads((out / "summary.json").read_text())["errors"]
    assert error["error"] == "StepFailure"
    assert error["message"].startswith("flow unfinished after")


def test_only_the_degenerate_route_loads_scipy_interpolate(tmp_path):
    """Each scenario runs through cli.main in a fresh process, which then
    says whether scipy.interpolate is loaded: the spline tower and the
    sampled-field interpolator of the degenerate route import it, and no
    other route does."""
    probe = textwrap.dedent(
        """
        import sys
        from localfloer.cli import main
        code = main(["run", "--scenario", sys.argv[1], "--out", sys.argv[2]])
        print(code, "scipy.interpolate" in sys.modules)
        """
    )
    spectrum_morse = spectrum_scenario()
    spectrum_morse["tasks"] = ["spectrum", {"kind": "morse", "field": "neg-r2"}]
    persistence = spectrum_scenario()
    persistence.update(tasks=["persistence"], k_range=[1, 2])
    loaded = []
    for name, sc in (("spectrum-morse", spectrum_morse), ("persistence", persistence)):
        path = write_scenario(tmp_path, sc, f"{name}.json")
        proc = subprocess.run(
            [sys.executable, "-c", probe, path, str(tmp_path / name)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        loaded.append(proc.stdout.split()[-2:])
    assert loaded == [["0", "False"], ["0", "True"]]


def test_every_export_resolves():
    import localfloer

    missing = [name for name in localfloer.__all__ if not hasattr(localfloer, name)]
    assert missing == []
    assert len(set(localfloer.__all__)) == len(localfloer.__all__)
    # each export is the same object in a submodule that exports it; a
    # module without __all__ (errors) exports its public names
    modules = [
        m for m in vars(localfloer).values()
        if isinstance(m, types.ModuleType) and m.__name__.startswith("localfloer.")
    ]
    for name in localfloer.__all__:
        if name == "__version__":
            continue
        homes = [
            m.__name__ for m in modules
            if name in getattr(m, "__all__", [n for n in vars(m) if not n.startswith("_")])
            and getattr(m, name) is getattr(localfloer, name)
        ]
        assert homes, f"{name} is in no submodule's __all__"


# ------------------------------------------------------- benchmark tracing


def load_benchmark_tracer():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_reaches_every_wrapped_layer(tmp_path):
    """perfbench/spans.py wraps functions and methods of the package by
    name and binds their parameters; renaming one must fail here.  The
    scenario's answers are not checked."""
    from localfloer import germs, scenarios
    from localfloer.corpus import linear_rotation

    spans = load_benchmark_tracer()
    sc = parse_scenario(
        {
            "schema": 1,
            "name": "every traced layer",
            "germ": {"formula": "quartic-max"},
            "tasks": [
                "spectrum",
                {"kind": "persistence", "gf_resolution": 17},
                {"kind": "isolation", "radii": [0.05], "seeds_per_axis": 2},
                {"kind": "gaps", "radius": 0.05, "seeds_per_axis": 2},
            ],
            "k_range": [1, 1],
        }
    )
    original = germs.flow_jacobians
    tracer = spans.Tracer("guard")
    tracer.install(germ=sc.germ)
    try:
        scenarios.run_scenario(sc, str(tmp_path / "out"))
        # no task kind calls this one; call it through the patched name
        localfloer.conley_zehnder(germs.monodromy(linear_rotation(0.3183)))
    finally:
        tracer.uninstall()
    assert germs.flow_jacobians is original
    assert {span[0] for span in tracer.spans} == spans.span_names()
    metrics = tracer.metrics()
    counted = [
        "germs.flow_jacobians.points",
        "germs.flow_jacobians.rhs_evals",
        "genfun.SplineGermMap.grid_flows",
        "genfun.OdeGermMap.evals",
        "genfun.PsiMap.invert.points",
        "cubical.relative_homology_z2.cells",
        "paths.SymplecticPath.rho.calls",
        "invariants.local_floer.orders",
        "corpus.callbacks.calls",
    ]
    assert [name for name in counted if not metrics[name]] == []


def test_every_artifact_sweep_scenario_parses():
    """tools/artifact_sweep.py runs a fixed list of scenarios to compare
    two checkouts by their artifacts; each must parse, under its own name."""
    path = Path(__file__).resolve().parent.parent / "tools" / "artifact_sweep.py"
    spec = importlib.util.spec_from_file_location("artifact_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    names = [parse_scenario(raw, source=raw["name"]).name for raw in module.SCENARIOS]
    assert names and len(set(names)) == len(names)


BENCHMARK_WORKLOADS = ["degenerate-persistence", "index-iterates", "isolation-search", "morse-fine"]


@pytest.mark.parametrize("workload", BENCHMARK_WORKLOADS)
def test_benchmark_workload_gives_the_expected_answers(workload, tmp_path, monkeypatch):
    """Each benchmark workload (seed 0), run in process through
    run_scenario and checked by perfbench/answers.py against
    perfbench/expected.json: a wrong answer fails here before the
    benchmark runs."""
    from localfloer import scenarios

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        answers = importlib.import_module("answers")
        workloads = importlib.import_module("workloads")
    finally:
        # answers.py imports workloads by its bare name; leave neither behind
        for name in ("answers", "workloads"):
            sys.modules.pop(name, None)
    assert sorted(workloads.WORKLOADS) == BENCHMARK_WORKLOADS
    raw = workloads.scenario(workload, 0)
    code, summary = scenarios.run_scenario(parse_scenario(raw), str(tmp_path))
    got = answers.extract(raw, summary, tmp_path)
    assert code == 0
    assert {key: entry["error"] for key, entry in got.items()} == dict.fromkeys(got)
    expected = answers.load_expected(workload)
    assert answers.check(got, expected) == {key: [] for key in expected}


# ------------------------------------------------------ reach of the exports

# Public functions and classes that no command-line run reaches, none
# imported by the README quick start or wrapped by the benchmark, each with
# the reason it stays in src.  An entry that a run does reach fails the
# test, so the dict shrinks as these come to gate runs.
UNREACHED = {
    "translate": "fixed points off the origin, which no corpus run records",
    "rho": "a path-index law that tests/test_pathindex.py pins",
    "mean_index": "a path-index law that tests/test_pathindex.py pins",
}

REACH_SCENARIOS = [
    {
        "schema": 1,
        "name": "reach: degenerate route, isolation and morse",
        "germ": {"formula": "quartic-max"},
        "tasks": [
            "spectrum",
            {"kind": "persistence", "gf_resolution": 17},
            {"kind": "sdm", "gf_resolution": 17},
            {"kind": "isolation", "radii": [0.05], "seeds_per_axis": 2},
            {"kind": "morse", "field": "neg-r2", "resolutions": [9, 11]},
        ],
        "k_range": [1, 2],
    },
    {
        "schema": 1,
        "name": "reach: nondegenerate route and gaps",
        "germ": {"formula": "negative-hyperbolic-2"},
        "tasks": [
            "spectrum",
            "persistence",
            {"kind": "gaps", "radius": 0.5, "seeds_per_axis": 2},
        ],
        "k_range": [1, 2],
    },
    {
        "schema": 1,
        "name": "reach: split route",
        "germ": {"formula": "product-rot-quartic"},
        "tasks": [{"kind": "persistence", "gf_radius": 0.06, "gf_resolution": 17}],
        "k_range": [1, 1],
    },
]


def readme_quick_start_imports():
    """Names the README's library quick start imports from localfloer."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python", 1)[1].split("```", 1)[0]
    return {
        alias.name
        for node in ast.walk(ast.parse(code))
        if isinstance(node, ast.ImportFrom) and node.module == "localfloer"
        for alias in node.names
    }


def class_codes(cls):
    """Code of the functions defined in a class body: its methods, the
    getters of its properties and cached properties, and what dataclass
    generates (__init__, __eq__, ...)."""
    codes = set()
    for member in vars(cls).values():
        if isinstance(member, property):
            member = member.fget
        elif isinstance(member, functools.cached_property):
            member = member.func
        elif isinstance(member, (staticmethod, classmethod)):
            member = member.__func__
        if inspect.isfunction(member):
            codes.add(inspect.unwrap(member).__code__)
    return codes


def test_every_public_function_is_reached_or_listed(tmp_path, capsys):
    """Every function and class in localfloer.__all__ is called by a
    command-line run (every task kind on all three routes, then plots and
    corpus), imported by the README quick start, wrapped by the benchmark,
    or listed with its reason in UNREACHED.  A class counts as called when
    any function of its body is; one with no Python-level function (an
    exception that only names a failure) is exempt."""
    public = {}
    for name in localfloer.__all__:
        obj = getattr(localfloer, name)
        if inspect.isfunction(obj):
            public[name] = {inspect.unwrap(obj).__code__}
        elif inspect.isclass(obj) and (codes := class_codes(obj)):
            public[name] = codes
    by_code = {code: name for name, codes in public.items() for code in codes}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in by_code:
            reached.add(by_code[frame.f_code])

    out = tmp_path / "out"
    codes = []
    sys.setprofile(profile)
    try:
        for i, sc in enumerate(REACH_SCENARIOS):
            path = write_scenario(tmp_path, sc, name=f"reach-{i}.json")
            codes.append(main(["run", "--scenario", path, "--out", str(out / str(i))]))
        codes.append(main(["plots", "--out", str(out / "0")]))
        codes.append(main(["plots", "--out", str(out / "1")]))
        codes.append(main(["corpus"]))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    # answers are not checked (with one radius the first run's isolation
    # search is inconclusive, a failed gate), but no run is a usage error
    assert 2 not in codes

    spans = load_benchmark_tracer()
    wrapped = {
        name for name in public
        for mod, attr in spans.SPANNED
        if getattr(sys.modules[f"localfloer.{mod}"], attr) is getattr(localfloer, name)
    }
    unreached = set(public) - reached - readme_quick_start_imports() - wrapped
    assert {
        "unreached, not listed": sorted(unreached - set(UNREACHED)),
        "listed, but reached": sorted(set(UNREACHED) - unreached),
    } == {"unreached, not listed": [], "listed, but reached": []}


# --------------------------------------------------------- unused imports


def unused_imports(source: str):
    """Names a module imports and never reads.  A name counts as read when
    it is loaded anywhere, or listed in the module's __all__.  A star
    import binds no name of its own, so it is never reported."""
    imported, read = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_uses():
    src = Path(localfloer.__file__).resolve().parent
    found = {
        path.name: unused_imports(path.read_text())
        for path in sorted(src.glob("*.py"))
    }
    assert {name: names for name, names in found.items() if names} == {}


def test_unused_import_check_finds_an_unused_name():
    source = "import numpy as np\nfrom typing import List, Tuple\n\nx: List[int] = np.zeros(1)\n"
    assert unused_imports(source) == ["Tuple"]


def test_unused_import_check_skips_a_star_import():
    source = "from .x import *\nfrom .y import used, idle\n\nprint(used)\n"
    assert unused_imports(source) == ["idle"]


# ------------------------------------------------------ unraised error classes


def unraised_errors(errors_source: str, sources):
    """Classes of an errors module that no ``raise`` in sources names, and
    that are no base, direct or not, of a class one does name."""
    bases = {
        node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
        for node in ast.walk(ast.parse(errors_source))
        if isinstance(node, ast.ClassDef)
    }
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    defined = set(bases)
    kept, todo = set(), raised & defined
    while todo:
        name = todo.pop()
        kept.add(name)
        todo |= (bases[name] & defined) - kept
    return sorted(defined - kept)


def test_errors_module_holds_only_what_src_raises():
    src = Path(localfloer.__file__).resolve().parent
    sources = [path.read_text() for path in sorted(src.glob("*.py"))]
    assert unraised_errors((src / "errors.py").read_text(), sources) == []


def test_unraised_error_check_finds_an_unraised_class():
    errors = "class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\nclass Idle(Base):\n    pass\n"
    assert unraised_errors(errors, ["raise Raised('x')\n", "raise ValueError\n"]) == ["Idle"]


# ------------------------------------------------------ pow-free corpus fields


def high_integer_powers(source: str):
    """Line numbers of ``**`` with an integer literal exponent of 3 or more,
    which numpy evaluates through libm pow."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(textwrap.dedent(source)))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and type(node.right.value) is int
        and node.right.value >= 3
    ]


def test_corpus_fields_multiply_instead_of_calling_pow():
    callbacks = [corpus._monkey_parts]
    callbacks += [fn for e in FIELDS.values() for fn in (e.value, e.grad)]
    found = {
        fn.__qualname__: high_integer_powers(inspect.getsource(fn)) for fn in callbacks
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_power_check_finds_cubes_and_fourth_powers():
    source = "a = x ** 3\nb = x**2 + x ** 2.5\nc = -(y**4)\nd = x ** True\n"
    assert high_integer_powers(source) == [1, 3]


# the multiplied fields, their power forms, and the size of their terms
POWER_FORMS = [
    ("cubic-1d", "value", lambda x, y: x**3, lambda x, y: np.abs(x) ** 3),
    (
        "quartic-neg",
        "value",
        lambda x, y: -(x**4 + y**4) / 4.0,
        lambda x, y: (x**4 + y**4) / 4.0,
    ),
    (
        "quartic-neg",
        "grad",
        lambda x, y: -np.stack([x**3, y**3], axis=1),
        lambda x, y: np.abs(np.stack([x**3, y**3], axis=1)),
    ),
    (
        "monkey",
        "value",
        lambda x, y: x**3 - 3.0 * x * y**2,
        lambda x, y: np.abs(x) ** 3 + 3.0 * np.abs(x) * y**2,
    ),
]


@pytest.mark.parametrize("name, part, power, size", POWER_FORMS)
def test_multiplied_fields_stay_within_four_ulp_of_their_power_forms(name, part, power, size):
    """Measured in ulp of the size of the terms, so that the cancellation
    in the monkey saddle's x^3 - 3 x y^2 does not count."""
    rng = np.random.default_rng(25)
    p = rng.uniform(-1.0, 1.0, (20000, 2)) * 10.0 ** rng.uniform(-3.0, 3.0, (20000, 1))
    entry = FIELDS[name]
    got = getattr(entry, part)(p[:, : entry.m])
    x, y = p[:, 0], p[:, 1]
    want = power(x, y)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(size(x, y)))
