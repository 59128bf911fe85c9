"""The benchmark's workloads: each is one scenario for ``run_scenario``.

Each scenario is sized so that ``run_scenario`` takes 4 to 8 s on a
2-core Xeon, so a run of ``run_seconds`` holds several children and
reports their median.  NOTES.md says why each workload exists and how
it was cut down from the full-size scenario it stands for.
"""
from __future__ import annotations

import copy
import random

ISOLATION_RADII = [0.2, 0.05, 0.01, 0.001]
MORSE_FIELDS = ["quartic-neg", "monkey", "saddle", "neg-r2", "r2", "cubic-1d"]
MORSE_RESOLUTIONS = [129, 193, 257]

WORKLOADS = {
    # degenerate route: spline iterate tower, psi, generating function, cubical
    "degenerate-persistence": {
        "schema": 1,
        "name": "degenerate-persistence",
        "germ": {"formula": "quartic-max"},
        "tasks": ["persistence"],
        "k_range": [1, 2],
    },
    # many small flow batches through OdeGermMap; no spline, psi or cubical
    "isolation-search": {
        "schema": 1,
        "name": "isolation-search",
        "germ": {"formula": "resonant-rotation"},
        "tasks": [
            {"kind": "isolation", "radii": ISOLATION_RADII, "seeds_per_axis": 9}
        ],
        "k_range": [1, 3],
    },
    # nondegenerate route: winding of rho along iterated paths, no grids
    "index-iterates": {
        "schema": 1,
        "name": "index-iterates",
        "germ": {"formula": "negative-hyperbolic-2"},
        "tasks": ["spectrum", "persistence"],
        "k_range": [1, 9],
    },
    # GF(2) elimination on fine grids with cheap analytic gradients
    "morse-fine": {
        "schema": 1,
        "name": "morse-fine",
        "germ": {"formula": "zero"},
        "tasks": [
            {"kind": "morse", "field": f, "resolutions": MORSE_RESOLUTIONS}
            for f in MORSE_FIELDS
        ],
        "k_range": [1, 1],
    },
}


def task_key(task) -> str:
    """Name of a task that does not depend on its position in the scenario."""
    if isinstance(task, str):
        return task
    if task["kind"] == "morse":
        return f"morse:{task['field']}"
    return task["kind"]


def scenario(name: str, seed: int) -> dict:
    """Scenario object of a workload for a seed.

    Seed 0 gives the tasks in the order listed above.  Any other seed
    shuffles them; every task keeps its inputs and its expected answers,
    so every seed does the same work.
    """
    sc = copy.deepcopy(WORKLOADS[name])
    if seed:
        random.Random(seed).shuffle(sc["tasks"])
    return sc
