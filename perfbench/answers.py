"""What a workload run answered, and the check against expected.json.

One operation is one scenario task in one child run.  A task fails when
it raised, when one of its gates failed, or when its answers differ from
the expected ones: integers, booleans, strings and gate ids exactly,
floats within ``FLOAT_RTOL`` relative plus ``FLOAT_ATOL`` absolute.
"""
from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

from workloads import task_key

FLOAT_RTOL = 1e-6
FLOAT_ATOL = 1e-9

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"


def _spectrum(p: dict) -> dict:
    return {
        "conley_zehnder": p["conley_zehnder"],
        "degenerate": p["degenerate"],
        "forbidden_divisors": p["forbidden_divisors"],
        "mean_index": p["mean_index"],
        "orders": p["orders"],
    }


def _persistence(p: dict) -> dict:
    rep = p["report"]
    return {
        "skipped_inadmissible": p["skipped_inadmissible"],
        "rows": rep["rows"],
        "delta": rep["delta"],
        "limit_check": rep["limit_check"],
        "checks": rep["checks"],
    }


def _isolation(p: dict) -> dict:
    return {
        "reports": [
            {
                "k": r["k"],
                "admissible": r["admissible"],
                "conclusion": r["conclusion"],
                "witnesses_present": bool(r["witnesses"]),
            }
            for r in p["reports"]
        ]
    }


def _morse(p: dict) -> dict:
    keys = ("ranks", "resolutions", "per_resolution", "deltas", "degree", "error")
    return {k: p[k] for k in keys if k in p}


# task kind -> (answers taken from its JSON artifact, number of gates it emits)
_KINDS = {
    "spectrum": (_spectrum, lambda p: 0),
    "persistence": (_persistence, lambda p: len(p["report"]["checks"])),
    "isolation": (_isolation, lambda p: 1),
    "morse": (_morse, lambda p: 2 if "degree" in p else 1),
}


def extract(scenario: dict, summary: dict, out_dir) -> Dict[str, dict]:
    """Per task key: its error (or None), its gates and its answers.

    Gates carry no task index in summary.json; they are emitted task by
    task in scenario order, so each task takes as many as its kind emits.
    """
    out = Path(out_dir)
    errors = {e["task"]: e["error"] for e in summary["errors"]}
    gates = [[g["id"], g["passed"]] for g in summary["gates"]]
    pos = 0
    result = {}
    for idx, task in enumerate(scenario["tasks"]):
        kind = task if isinstance(task, str) else task["kind"]
        prefix = f"{idx:02d}-{kind}"
        entry = {"error": errors.get(prefix), "gates": [], "data": None}
        if entry["error"] is None:
            payload = json.loads((out / f"{prefix}.json").read_text())
            answers, ngates = _KINDS[kind]
            entry["data"] = answers(payload)
            entry["gates"] = gates[pos : pos + ngates(payload)]
            pos += ngates(payload)
        result[task_key(task)] = entry
    if pos != len(gates):
        for entry in result.values():
            entry["error"] = entry["error"] or f"gate count {len(gates)} != {pos}"
    return result


def _diff(got, want, where: str, out: List[str]) -> None:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) > FLOAT_ATOL + FLOAT_RTOL * abs(want):
            out.append(f"{where}: {got!r} != {want!r}")
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(got) != sorted(want):
            out.append(f"{where}: keys {sorted(got)} != {sorted(want)}")
            return
        for k in want:
            _diff(got[k], want[k], f"{where}.{k}", out)
    elif isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            out.append(f"{where}: length {len(got)} != {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _diff(g, w, f"{where}[{i}]", out)
    elif type(got) is not type(want) or got != want:
        out.append(f"{where}: {got!r} != {want!r}")


def check(answers: Dict[str, dict], expected: Dict[str, dict]) -> Dict[str, List[str]]:
    """Problems per task key; a task with no problems passed."""
    problems = {}
    for key, want in expected.items():
        got = answers.get(key)
        found: List[str] = []
        if got is None:
            found.append("task missing")
        elif got["error"] is not None:
            found.append(f"raised {got['error']}")
        else:
            found += [f"gate {gid} failed" for gid, ok in got["gates"] if not ok]
            _diff(got["gates"], want["gates"], "gates", found)
            _diff(got["data"], want["data"], "data", found)
        problems[key] = found
    for key in answers.keys() - expected.keys():
        problems[key] = ["task not in expected answers"]
    return problems


def load_expected(workload: str) -> Dict[str, dict]:
    return json.loads(EXPECTED_FILE.read_text())[workload]
