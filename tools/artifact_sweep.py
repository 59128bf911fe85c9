"""Run a fixed list of scenarios and write every artifact they produce.

    python3 tools/artifact_sweep.py OUT_DIR
    python3 tools/artifact_sweep.py OUT_DIR --against REV

Each scenario of ``SCENARIOS`` runs through ``run_scenario`` with the
package under ``src/`` of the checkout this file sits in, into
``OUT_DIR/<scenario name>/``; ``OUT_DIR/codes.json`` maps each name to
its exit code.  Every scenario folder that holds persistence or gaps
reports also gets the ``.dat`` tables of ``emit_plots``, and
``OUT_DIR/corpus.json`` is the ``localfloer corpus`` listing.  Artifacts
carry no timestamps, so two checkouts that compute the same answers give
equal trees.

With ``--against REV`` the script compares this checkout with the
revision REV of its git repository: it extracts ``git archive REV`` into
a temporary folder, copies itself into that copy's ``tools/``, sweeps the
copy into ``OUT_DIR/against`` and this checkout into ``OUT_DIR/this``,
prints every file that differs or is missing from one tree, and exits 1
if there is any.

The list covers the benchmark's workloads at seed 0; spectrum,
persistence and sdm at orders 1..3 on every named germ; spectrum and
persistence at orders 1..140 on negative-hyperbolic-2, whose powers of
the monodromy reach 2^140; persistence and sdm at orders 1..10 on the
degenerate germs at three generating-function radii; one scenario whose
tasks mix shared and separate grid settings; isolation and gaps, also on
a direct sum and on a concatenation, whose batch flows run their factors
and pieces; and morse on every named field.
"""
from __future__ import annotations

import importlib.util
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
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
    _scenario(
        "orders-1-140-negative-hyperbolic-2",
        "negative-hyperbolic-2",
        ["spectrum", "persistence"],
        [1, 140],
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
    # batch flows of composite germs: a direct sum and a concatenation
    _scenario(
        "isolation-product-rot-rot",
        "product-rot-rot",
        [{"kind": "isolation", "radii": [0.05], "seeds_per_axis": 3}],
        [1, 2],
    ),
    _scenario(
        "gaps-product-rot-rot",
        "product-rot-rot",
        [{"kind": "gaps", "radius": 0.3, "seeds_per_axis": 3}],
        [1, 2],
    ),
    _scenario(
        "isolation-negative-hyperbolic-2",
        "negative-hyperbolic-2",
        [{"kind": "isolation", "seeds_per_axis": 5}],
        [1, 2],
    ),
    _scenario(
        "gaps-negative-hyperbolic-2",
        "negative-hyperbolic-2",
        [{"kind": "gaps", "radius": 0.5, "seeds_per_axis": 3}],
        [1, 2],
    ),
    *(
        _scenario(f"morse-{field}", "zero", [{"kind": "morse", "field": field}], [1, 1])
        for field in FIELD_NAMES
    ),
]


def sweep(out: Path) -> None:
    """Run every scenario of SCENARIOS into out and write its listings."""
    sys.path.insert(0, str(ROOT / "src"))
    from localfloer.errors import MissingReport
    from localfloer.scenarios import corpus_listing, emit_plots, parse_scenario, run_scenario

    codes = {}
    for raw in SCENARIOS:
        code, _ = run_scenario(parse_scenario(raw), out / raw["name"])
        codes[raw["name"]] = code
        try:
            emit_plots(out / raw["name"])
        except MissingReport:
            pass
        print(f"{code} {raw['name']}", flush=True)
    (out / "codes.json").write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")
    (out / "corpus.json").write_text(json.dumps(corpus_listing(), sort_keys=True, indent=2) + "\n")


def diff_trees(left: Path, right: Path) -> list:
    """One line per file, by its path relative to the trees, that differs
    between the trees or is missing from one of them; sorted."""

    def files(root: Path) -> set:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    ours, theirs = files(left), files(right)
    return sorted(
        [f"only in {left.name}: {name}" for name in ours - theirs]
        + [f"only in {right.name}: {name}" for name in theirs - ours]
        + [
            f"differs: {name}"
            for name in ours & theirs
            if (left / name).read_bytes() != (right / name).read_bytes()
        ]
    )


def sweep_against(out: Path, rev: str) -> int:
    """Sweep revision rev (with this script) and this checkout, and list
    their differences; 1 if there are any."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(copy, filter="data")
        (copy / "tools").mkdir(exist_ok=True)
        shutil.copy(Path(__file__), copy / "tools" / "artifact_sweep.py")
        subprocess.run(
            [sys.executable, str(copy / "tools" / "artifact_sweep.py"), str(out / "against")],
            check=True,
        )
    sweep(out / "this")
    diffs = diff_trees(out / "this", out / "against")
    print("\n".join(diffs) if diffs else f"no differences against {rev}")
    return 1 if diffs else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[1] == "--against":
        return sweep_against(Path(args[0]), args[2])
    if len(args) != 1:
        print("usage: python3 tools/artifact_sweep.py OUT_DIR [--against REV]", file=sys.stderr)
        return 2
    sweep(Path(args[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
