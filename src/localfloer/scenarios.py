"""Scenario files: parsing, task execution, report emission.

A scenario is a JSON object with a versioned schema.  Unknown keys are
rejected at every level, and task settings are checked for type and range
as the file is read, so that files stay reproducible as the tool evolves.
Example:

    {
      "schema": 1,
      "name": "quartic persistence",
      "germ": {"formula": "quartic-max"},
      "tasks": ["persistence"],
      "k_range": [1, 6]
    }

The germ formula is resolved against the named corpus first
(``corpus.GERMS``); a formula with parameters is resolved against the
constructor registry (``FORMULAS``), e.g.

    "germ": {"formula": "linear-rotation", "parameters": {"alpha": 0.25}}

Six task kinds are available: ``spectrum`` (eigenvalue clusters,
forbidden divisors, indices), ``persistence`` (graded ranks and shifts
across iterates), ``sdm`` (degenerate-maximum detection), ``isolation``
(periodic-point search in shrinking balls), ``gaps`` (pairwise
action/index gaps of the fixed points in the box), ``morse`` (local
Morse homology of a named scalar field).  Each task's JSON (and CSV
where tabular) is written into the output directory; ``persistence``,
``sdm``, ``isolation`` and ``morse`` also contribute pass/fail gates to
``summary.json``.  Outputs carry no timestamps and use sorted keys:
identical scenarios give byte-identical files.  ``seed`` is only echoed
into ``summary.json``; nothing in the package draws random numbers.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, is_dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import corpus
from .corpus import FIELDS, GERMS
from .cubical import HM_RESOLUTIONS, gradient_degree, local_morse_homology
from .errors import (
    LocalFloerError,
    MissingReport,
    ParseError,
    ScenarioError,
    UnknownFormula,
)
from .fields import Box
from .genfun import OdeGermMap
from .germs import HamiltonianGerm, find_fixed_points, fixed_point_record, gap_table
from .invariants import IterateSweep, detect_sdm, verify_persistence
from .isolation import c_constant_exact, periodic_point_search
from .symplectic import admissible, good, spectrum

__all__ = ["Scenario", "load_scenario", "run_scenario", "emit_plots"]


# Parametrized constructors reachable from scenario files.  Named corpus
# entries (GERMS) take no parameters; these do.
FORMULAS: Dict[str, Callable[..., HamiltonianGerm]] = {
    "zero": corpus.zero_germ,
    "linear-rotation": corpus.linear_rotation,
    "hyperbolic": corpus.hyperbolic,
    "negative-hyperbolic": corpus.negative_hyperbolic,
    "shear": corpus.shear,
    "quartic": corpus.quartic,
    "monkey-saddle": corpus.monkey_saddle,
    "resonant-rotation": corpus.resonant_rotation,
    "twisted-rotation": corpus.twisted_rotation,
    "morse-triple": corpus.morse_triple,
}

_TOP_KEYS = {"schema", "name", "germ", "tasks", "k_range", "tolerances", "seed", "out"}
_GERM_KEYS = {"formula", "parameters", "box"}
# scenario tolerances and the library parameters they set
_TOL_PARAMS = {"sdm_delta_tol": "delta_tol", "newton_tol": "newton_tol"}
_FLOAT_MAX = float(np.finfo(float).max)
# task settings that set a task's IterateSweep rather than its library call
_SWEEP_KEYS = tuple(f.name for f in fields(IterateSweep) if f.name not in ("germ", "record"))


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    # also false for nan, inf and integers too large for a float
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def _is_positive(v) -> bool:
    return _is_num(v) and v > 0


# (test, what a value must be) per task setting; README.md tabulates them
_POSITIVE = (_is_positive, "a positive number")
_FRACTION = (lambda v: _is_num(v) and 0 <= v < 1, "a number in [0, 1)")
_SEEDS = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_GF = {
    "gf_radius": _POSITIVE,
    "gf_resolution": (lambda v: _is_int(v) and v >= 3 and v % 2 == 1, "an odd integer >= 3"),
    "c1_gate": _POSITIVE,
}
_TASK_KEYS: Dict[str, Dict[str, tuple]] = {
    "spectrum": {},
    "persistence": {**_GF, "exclude_fraction": _FRACTION},
    "sdm": {"crosscheck": (lambda v: isinstance(v, bool), "true or false"), **_GF},
    "isolation": {
        "radii": (
            lambda v: isinstance(v, list) and v and all(map(_is_positive, v)),
            "a list of positive numbers",
        ),
        "seeds_per_axis": _SEEDS,
        "newton_tol": _POSITIVE,
    },
    "gaps": {"radius": _POSITIVE, "seeds_per_axis": _SEEDS},
    "morse": {
        "field": (
            lambda v: isinstance(v, str) and v in FIELDS,
            f"one of {', '.join(sorted(FIELDS))}",
        ),
        "resolutions": (
            lambda v: isinstance(v, list)
            and all(_is_int(r) and r >= 3 and r % 2 == 1 for r in v)
            and len(set(v)) == len(v) >= 2,
            "a list of at least two distinct odd integers >= 3",
        ),
        "radius": _POSITIVE,
        "exclude_fraction": _FRACTION,
    },
}


@dataclass(frozen=True)
class Scenario:
    name: str
    germ_name: str
    germ: HamiltonianGerm
    box_radius: float
    tasks: Tuple[dict, ...]
    ks: Tuple[int, ...]
    tolerances: Dict[str, float]
    seed: int
    out: Optional[str]
    raw: dict

    @cached_property
    def record(self):
        """The origin's FixedPointRecord, built once for all tasks that read it."""
        return fixed_point_record(self.germ, np.zeros(2 * self.germ.n))

    @cached_property
    def _sweeps(self) -> Dict[tuple, IterateSweep]:
        return {}

    def sweep(self, settings: dict) -> IterateSweep:
        """The origin's IterateSweep at the grid settings popped from a
        task's settings, built once per setting: tasks whose settings agree
        once defaults apply share one sweep, and with it every iterate."""
        grid = {key: settings.pop(key) for key in _SWEEP_KEYS if key in settings}
        sweep = IterateSweep(self.germ, self.record, **grid)
        return self._sweeps.setdefault(tuple(getattr(sweep, k) for k in _SWEEP_KEYS), sweep)


def _reject_unknown(obj: dict, allowed: set, where: str):
    extra = sorted(set(obj) - allowed)
    if extra:
        raise ScenarioError(f"unknown {where} keys: {', '.join(extra)}")


def _require(cond: bool, msg: str):
    if not cond:
        raise ScenarioError(msg)


def resolve_germ(spec: dict) -> Tuple[HamiltonianGerm, float, str]:
    """Build the germ named by a scenario germ block; returns (germ, box, id)."""
    _require(isinstance(spec, dict), "germ block must be an object")
    _reject_unknown(spec, _GERM_KEYS, "germ")
    formula = spec.get("formula")
    _require(isinstance(formula, str) and formula, "germ.formula must be a name")
    params = spec.get("parameters", {})
    _require(isinstance(params, dict), "germ.parameters must be an object")
    for key, val in params.items():
        _require(_is_num(val), f"germ parameter {key!r} must be a finite number")

    if not params and formula in GERMS:
        entry = GERMS[formula]
        germ = entry.factory()
        default_box = entry.box_radius
    elif formula in FORMULAS:
        try:
            germ = FORMULAS[formula](**params)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"bad parameters for {formula!r}: {exc}") from None
        default_box = GERMS[formula].box_radius if formula in GERMS else 0.5
    else:
        raise UnknownFormula(f"no germ formula named {formula!r}")

    box = spec.get("box", default_box)
    _require(_is_positive(box), "germ.box must be a positive number")
    return germ, float(box), formula


def parse_scenario(obj: dict, source: str = "<memory>") -> Scenario:
    _require(isinstance(obj, dict), f"{source}: scenario must be a JSON object")
    _reject_unknown(obj, _TOP_KEYS, "scenario")
    _require(obj.get("schema") == 1, f"{source}: schema must be 1")

    name = obj.get("name", "")
    _require(isinstance(name, str), "name must be a string")

    _require("germ" in obj, "scenario needs a germ block")
    germ, box_radius, germ_name = resolve_germ(obj["germ"])

    raw_tasks = obj.get("tasks")
    _require(isinstance(raw_tasks, list) and raw_tasks, "tasks must be a nonempty list")
    tasks = []
    for t in raw_tasks:
        if isinstance(t, str):
            t = {"kind": t}
        _require(isinstance(t, dict), "each task must be a name or an object")
        kind = t.get("kind")
        _require(kind in _TASK_KEYS, f"unknown task kind {kind!r}")
        _reject_unknown(t, set(_TASK_KEYS[kind]) | {"kind"}, f"task {kind!r}")
        _require(kind != "morse" or "field" in t, "morse task needs a field name")
        for key, (ok, what) in _TASK_KEYS[kind].items():
            _require(key not in t or ok(t[key]), f"{kind}.{key} must be {what}")
        tasks.append(dict(t))

    k_range = obj.get("k_range", [1, 6])
    _require(
        isinstance(k_range, list)
        and len(k_range) == 2
        and all(_is_int(v) for v in k_range),
        "k_range must be [first, last] with integer entries",
    )
    lo, hi = k_range
    _require(1 <= lo <= hi, "k_range must satisfy 1 <= first <= last")
    ks = tuple(range(lo, hi + 1))

    tolerances = obj.get("tolerances", {})
    _require(isinstance(tolerances, dict), "tolerances must be an object")
    _reject_unknown(tolerances, set(_TOL_PARAMS), "tolerances")
    for key, val in tolerances.items():
        _require(_is_positive(val), f"tolerance {key!r} must be positive")

    seed = obj.get("seed", 0)
    _require(_is_int(seed) and seed >= 0, "seed must be a nonnegative integer")

    out = obj.get("out")
    _require(out is None or (isinstance(out, str) and out), "out must be a path")

    return Scenario(
        name=name,
        germ_name=germ_name,
        germ=germ,
        box_radius=box_radius,
        tasks=tuple(tasks),
        ks=ks,
        tolerances={k: float(v) for k, v in tolerances.items()},
        seed=int(seed),
        out=out,
        raw=obj,
    )


def load_scenario(path) -> Scenario:
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {p}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}:{exc.lineno}: {exc.msg}") from None
    return parse_scenario(obj, source=str(p))


# ---------------------------------------------------------------- emission


def _jsonable(obj):
    """Recursively convert a result into what json can serialize.

    Containers, arrays and numbers come first, since most values are
    plain numbers.  A complex number becomes [re, im]; an object with a
    ``to_json`` is converted from what it returns, and any other
    dataclass from its fields (cached properties are not fields).
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    if hasattr(obj, "to_json"):
        return _jsonable(obj.to_json())
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, rows: List[List[str]]) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _gate(gid: str, passed: bool, detail: str = "") -> dict:
    return {"id": gid, "passed": bool(passed), "detail": detail}


# ---------------------------------------------------------------- task runners


def _settings(sc: Scenario, task: dict, *tolerances: str) -> dict:
    """Keyword arguments for a task's library call: the named scenario
    tolerances under their parameter names, then every setting the task
    set, which wins.  What neither sets is not passed, so its default is
    the library's."""
    kwargs = {_TOL_PARAMS[t]: sc.tolerances[t] for t in tolerances if t in sc.tolerances}
    kwargs.update((key, val) for key, val in task.items() if key != "kind")
    return kwargs


def _run_spectrum(sc: Scenario, task: dict):
    record = sc.record
    eigen = spectrum(record.endpoint)
    orders = []
    for k in sc.ks:
        adm = admissible(record.endpoint, k)
        good_k = good(record.endpoint, k) if adm else None
        orders.append({"k": k, "admissible": adm, "good": good_k})
    payload = {
        "germ": sc.germ_name,
        "eigenvalues": eigen,
        "forbidden_divisors": eigen.unit_root_orders(),
        "mean_index": record.mean_index,
        "conley_zehnder": record.conley_zehnder,
        "degenerate": record.degenerate,
        "orders": orders,
    }
    return payload, [], {}


def _run_persistence(sc: Scenario, task: dict):
    record = sc.record
    ks = [k for k in sc.ks if admissible(record.endpoint, k)]
    skipped = [k for k in sc.ks if k not in ks]
    report = verify_persistence(sc.sweep(_settings(sc, task)), ks)
    payload = {
        "germ": sc.germ_name,
        "skipped_inadmissible": skipped,
        "report": report,
    }
    gates = [
        _gate(f"persistence.{check.replace('_', '-')}", ok, f"orders {ks}")
        for check, ok in sorted(report.checks.items())
    ]
    return payload, gates, {".csv": report.csv_rows()}


def _run_sdm(sc: Scenario, task: dict):
    settings = _settings(sc, task, "sdm_delta_tol")
    sweep = sc.sweep(settings)  # takes the grid settings; delta_tol and crosscheck stay
    result = detect_sdm(sweep, **settings)
    payload = {"germ": sc.germ_name, **result}
    cross = result["evidence"].get("crosscheck")
    if cross is None:
        gates = [_gate("sdm.crosscheck-consistent", True, "not requested or not an sdm")]
    elif "consistent" in cross:
        gates = [
            _gate(
                "sdm.crosscheck-consistent",
                cross["consistent"],
                f"order {cross['k']} rank {cross['hf_n_rank']}",
            )
        ]
    else:
        gates = [_gate("sdm.crosscheck-consistent", True, f"uncomputable: {cross['error']}")]
    return payload, gates, {}


def _default_radii(box_radius: float) -> List[float]:
    radii = [min(0.8 * box_radius, 0.2), 0.05, 0.01, 0.001]
    radii = sorted({r for r in radii if r <= 0.8 * box_radius + 1e-15}, reverse=True)
    return radii


def _run_isolation(sc: Scenario, task: dict):
    settings = _settings(sc, task, "newton_tol")
    radii = settings.pop("radii", _default_radii(sc.box_radius))
    # one search serves every order of the range
    reports = periodic_point_search(
        OdeGermMap(sc.germ), sc.ks[-1], radii, first=sc.ks[0], **settings
    )
    payload = {
        "germ": sc.germ_name,
        "radii": [float(r) for r in radii],
        "reports": reports,
    }
    bad = [r.k for r in reports if r.admissible and r.conclusion != "ISOLATION_HOLDS"]
    gates = [
        _gate(
            "isolation.admissible-orders-isolated",
            not bad,
            f"failing orders {bad}" if bad else f"orders {list(sc.ks)}",
        )
    ]
    rows = [["k", "c_exact", "c_float"]]
    for k in range(2, 13):
        c = c_constant_exact(k)
        rows.append([str(k), str(c), repr(float(c))])
    return payload, gates, {"-c-constant.csv": rows}


def _run_gaps(sc: Scenario, task: dict):
    settings = _settings(sc, task, "newton_tol")
    radius = float(settings.pop("radius", sc.box_radius))
    records = find_fixed_points(sc.germ, radius, **settings)
    tables = []
    skipped = []
    for k in sc.ks:
        if all(admissible(r.endpoint, k) for r in records):
            tables.append(gap_table(records, k))
        else:
            skipped.append(k)
    payload = {
        "germ": sc.germ_name,
        "points": records,
        "skipped_inadmissible": skipped,
        "tables": tables,
    }
    return payload, [], {}


def _run_morse(sc: Scenario, task: dict):
    settings = _settings(sc, task)
    fname = settings.pop("field")
    entry = FIELDS[fname]
    radius = float(settings.pop("radius", 1.0))
    box = Box(center=(0.0,) * entry.m, radius=radius)
    resolutions = settings.get("resolutions", HM_RESOLUTIONS)
    gates = []
    try:
        report = local_morse_homology(entry.value, box, grad=entry.grad, **settings)
        ranks = report.ranks
        payload = {"field": fname, "box": box, **_jsonable(report)}
        gates.append(_gate("morse.stabilized", True, f"resolutions {list(resolutions)}"))
        if entry.m == 2:
            deg = gradient_degree(entry.grad, 0.5 * radius)
            payload["degree"] = deg
            gates.append(
                _gate(
                    "morse.euler-matches-degree",
                    ranks.euler() == deg,
                    f"euler {ranks.euler()} degree {deg}",
                )
            )
    except LocalFloerError as exc:
        payload = {
            "field": fname,
            "box": box,
            "resolutions": list(resolutions),
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }
        gates.append(_gate("morse.stabilized", False, f"{type(exc).__name__}: {exc}"))
    return payload, gates, {}


_RUNNERS = {
    "spectrum": _run_spectrum,
    "persistence": _run_persistence,
    "sdm": _run_sdm,
    "isolation": _run_isolation,
    "gaps": _run_gaps,
    "morse": _run_morse,
}


def run_scenario(
    scenario: Scenario,
    out_dir,
    seed: Optional[int] = None,
) -> Tuple[int, dict]:
    """Execute all tasks; write artifacts and summary.json into out_dir.

    Each task runner returns its JSON payload, its gates and its CSV
    tables by file suffix; files are named after the task's position and
    kind, and all are written here once every task has run.  Returns
    (exit_code, summary): 0 when every gate passed and no task raised,
    1 otherwise.  Module errors are serialized with context, not
    re-raised.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    seed = scenario.seed if seed is None else int(seed)
    gates: List[dict] = []
    errors: List[dict] = []
    payloads: Dict[str, object] = {}
    tables: Dict[str, List[List[str]]] = {}
    for idx, task in enumerate(scenario.tasks):
        kind = task["kind"]
        prefix = f"{idx:02d}-{kind}"
        try:
            payload, task_gates, task_tables = _RUNNERS[kind](scenario, task)
        except LocalFloerError as exc:
            errors.append(
                {"task": prefix, "error": type(exc).__name__, "message": str(exc)}
            )
            continue
        payloads[f"{prefix}.json"] = payload
        tables.update((prefix + suffix, rows) for suffix, rows in task_tables.items())
        gates.extend(task_gates)
    ok = not errors and all(g["passed"] for g in gates)
    summary = {
        "schema": 1,
        "name": scenario.name,
        "germ": scenario.germ_name,
        "seed": seed,
        "scenario": scenario.raw,
        "artifacts": sorted([*payloads, *tables]),
        "gates": gates,
        "errors": errors,
        "pass": ok,
    }
    payloads["summary.json"] = summary
    for name, obj in payloads.items():
        _write_json(out / name, obj)
    for name, rows in tables.items():
        _write_csv(out / name, rows)
    return (0 if ok else 1), summary


# ---------------------------------------------------------------- plots


def _write_columns(path: Path, header: str, rows: List[List[float]]) -> None:
    lines = [f"# {header}"]
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return f"{v:.12g}"


def emit_plots(out_dir) -> List[str]:
    """Write plain columnar plot data next to the reports in out_dir.

    Persistence reports yield (k, s_k) and (k, s_k/k, delta) tables; gap
    reports yield (k, gamma) per fixed-point pair.  No rendering.
    """
    out = Path(out_dir)
    pers = sorted(out.glob("*-persistence.json"))
    gaps = sorted(out.glob("*-gaps.json"))
    if not pers and not gaps:
        raise MissingReport(f"no persistence or gaps reports under {out}")
    written: List[str] = []

    for p in pers:
        data = json.loads(p.read_text())
        rows = data["report"]["rows"]
        delta = data["report"]["delta"]
        shift_rows = [[r["k"], r["s_k"]] for r in rows if r["s_k"] is not None]
        rate_rows = [
            [r["k"], r["s_k"] / r["k"], delta] for r in rows if r["s_k"] is not None
        ]
        f1 = p.with_name(p.stem + "-shift.dat")
        f2 = p.with_name(p.stem + "-rate.dat")
        _write_columns(f1, "k s_k", shift_rows)
        _write_columns(f2, "k s_k/k delta", rate_rows)
        written += [f1.name, f2.name]

    for p in gaps:
        data = json.loads(p.read_text())
        per_pair: Dict[tuple, List[List[float]]] = {}
        for tab in data["tables"]:
            for row in tab["rows"]:
                per_pair.setdefault(tuple(row["pair"]), []).append(
                    [tab["order"], row["gamma"]]
                )
        for (i, j), rows in sorted(per_pair.items()):
            f = p.with_name(p.stem + f"-pair-{i}-{j}.dat")
            _write_columns(f, "k gamma", sorted(rows))
            written.append(f.name)

    return written


def corpus_listing() -> dict:
    """Stable listing of the named germ corpus and scalar fields."""
    germs = [
        {
            "name": e.name,
            "dim": 2 * e.factory().n,
            "box_radius": e.box_radius,
            "summary": e.summary,
        }
        for e in GERMS.values()
    ]
    fields = [
        {"name": e.name, "dim": e.m, "summary": e.summary} for e in FIELDS.values()
    ]
    return {"germs": germs, "fields": fields, "parametrized_formulas": sorted(FORMULAS)}
