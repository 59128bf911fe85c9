"""Command line interface: scenario parsing, exit codes, artifacts."""

import dataclasses
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import localfloer
from localfloer import scenarios
from localfloer.cli import main
from localfloer.corpus import FIELDS
from localfloer.errors import LocalFloerError
from localfloer.invariants import _IterateSweep
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
    ],
)
def test_runners_pass_task_settings_over_tolerances_and_nothing_unset(
    tmp_path, monkeypatch, task, tolerances, expected
):
    _, kwargs = library_call(monkeypatch, tmp_path, task, tolerances)
    kwargs.pop("first", None)  # the isolation search's first order, from k_range
    assert kwargs == expected


def test_readme_scenarios_and_settings_table_match_the_parser(tmp_path, monkeypatch):
    """The README's settings table against the code: the value column
    against the parser, the default column against each default's one
    home, read by introspection (library signatures, the fields of
    _IterateSweep) or from what a runner hands a stubbed library call."""
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
    sweep = {f.name: f.default for f in dataclasses.fields(_IterateSweep)}
    signatures = {
        kind: inspect.signature(getattr(scenarios, name)).parameters
        for kind, name in LIBRARY_CALLS.items()
    }

    def library_default(kind, name):
        params = signatures[kind]
        if name in params:
            return params[name].default
        assert "lf_kwargs" in params, (kind, name)
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
    persistence = verify_persistence(germ, record, [1, 2])
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
    import numpy as np

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
        # no task kind calls these two; call them through the patched names
        rotation = linear_rotation(0.3183)
        localfloer.local_floer(rotation, localfloer.fixed_point_record(rotation, np.zeros(2)), 2)
        localfloer.conley_zehnder(germs.monodromy(rotation))
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
