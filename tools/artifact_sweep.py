"""Run a fixed list of scenarios and write every artifact they produce.

    python3 tools/artifact_sweep.py OUT_DIR

Each scenario of ``SCENARIOS`` runs through ``run_scenario`` with the
package under ``src/`` of the checkout this file sits in, into
``OUT_DIR/<scenario name>/``; ``OUT_DIR/codes.json`` maps each name to
its exit code.  Artifacts carry no timestamps, so two checkouts that
compute the same answers give trees that ``diff -r`` finds equal: copy
this file into the other checkout's ``tools/``, run both, and compare.

The list covers the benchmark's workloads at seed 0; spectrum,
persistence and sdm at orders 1..3 on every named germ; persistence and
sdm at orders 1..10 on the degenerate germs at three generating-function
radii; one scenario whose tasks mix shared and separate grid settings;
isolation and gaps; and morse on every named field.
"""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GERM_NAMES = [
    "zero",
    "rotation-a",
    "rotation-b",
    "hyperbolic-2",
    "negative-hyperbolic-2",
    "shear",
    "quartic-max",
    "quartic-min",
    "monkey-saddle",
    "resonant-rotation",
    "twisted-rotation",
    "morse-triple",
    "product-rot-rot",
    "product-rot-quartic",
]
DEGENERATE_GERMS = ["quartic-max", "quartic-min", "monkey-saddle", "product-rot-quartic"]
GF_RADII = [0.1, 0.06, 0.003]
FIELD_NAMES = ["quartic-neg", "monkey", "saddle", "neg-r2", "r2", "cubic-1d"]


def _scenario(name, formula, tasks, k_range):
    return {
        "schema": 1,
        "name": name,
        "germ": {"formula": formula},
        "tasks": tasks,
        "k_range": k_range,
    }


def _benchmark_workloads():
    """The benchmark's workloads at seed 0, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [module.scenario(name, 0) for name in module.WORKLOADS]


SCENARIOS = [
    *_benchmark_workloads(),
    *(
        _scenario(f"orders-1-3-{germ}", germ, ["spectrum", "persistence", "sdm"], [1, 3])
        for germ in GERM_NAMES
    ),
    *(
        _scenario(
            f"orders-1-10-{germ}-r{radius:g}",
            germ,
            [
                {"kind": "persistence", "gf_radius": radius},
                {"kind": "sdm", "gf_radius": radius},
            ],
            [1, 10],
        )
        for germ in DEGENERATE_GERMS
        for radius in GF_RADII
    ),
    # explicit defaults, a grid setting of its own, and an sdm-only setting
    _scenario(
        "mixed-settings",
        "quartic-max",
        [
            "persistence",
            {"kind": "sdm", "gf_radius": 0.1, "gf_resolution": 65},
            {"kind": "persistence", "gf_resolution": 33},
            {"kind": "sdm", "crosscheck": False},
            {"kind": "persistence", "exclude_fraction": 0.25},
        ],
        [1, 4],
    ),
    _scenario("isolation-twisted-rotation", "twisted-rotation", ["isolation"], [1, 3]),
    _scenario("gaps-morse-triple", "morse-triple", ["gaps"], [1, 3]),
    *(
        _scenario(f"morse-{field}", "zero", [{"kind": "morse", "field": field}], [1, 1])
        for field in FIELD_NAMES
    ),
]


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python3 tools/artifact_sweep.py OUT_DIR", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from localfloer.scenarios import parse_scenario, run_scenario

    out = Path(args[0])
    codes = {}
    for raw in SCENARIOS:
        code, _ = run_scenario(parse_scenario(raw), out / raw["name"])
        codes[raw["name"]] = code
        print(f"{code} {raw['name']}", flush=True)
    (out / "codes.json").write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
