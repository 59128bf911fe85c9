"""Benchmark of localfloer: scenario workloads through ``run_scenario``.

Run from the repository root:

    python3 perfbench/run.py --workload morse-fine --seed 1 --seconds 30 --trace 0

Load shape: closed loop, one client.  This process starts one child
process at a time (``child.py``); each child does one workload run from a
fresh interpreter and exits, and the next starts when it has ended.
Children run with BLAS/OpenMP capped at ``BLAS_THREADS`` threads.  New
children are started while the one after them is expected to end within
``--seconds``; at least one child runs.

``--trace 0`` reports the end-to-end metrics, each the median over the
children.  Run time is counted in reference loops timed during the run
(``refclock.py``); the seconds are printed beside it.  ``--trace 1`` alternates untraced and traced children and
reports the per-layer metrics of ``spans.py``.  Every child's answers are
checked against expected.json.  The last line of standard output is one
JSON object; the lines before it give quartiles, sample counts, the
failure ratio with its base and the environment.  A full record goes to
``.perfbench_out/`` under the repository root.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from answers import check, load_expected
from spans import METRICS
from workloads import WORKLOADS, scenario

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
# every run, with its last child, must end well inside 180 s
DEADLINE_S = 170.0

# end-to-end metrics: (name, unit)
E2E = [
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed and recorded, but not metrics: they follow the host's speed
# (NOTES.md, "Steadiness")
RAW = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("ref_loop_us", "us"),
]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # a random hash seed makes peak RSS bimodal (153 or 183 MB on
    # degenerate-persistence); fix it so every child allocates alike
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(sc: dict, workdir: Path, run_id: str, traced: bool, timeout: float):
    """One child run; returns its result dict, or None if it crashed."""
    out_dir = workdir / run_id
    spans = OUT / f"spans-{run_id}.json" if traced else None
    cmd = [
        sys.executable,
        str(ROOT / "perfbench" / "child.py"),
        "--scenario", json.dumps(sc),
        "--out", str(out_dir),
        "--run-id", run_id,
        "--spans", str(spans or ""),
    ]
    # taken last, so that setup_s starts as close to the spawn as it can
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(
            cmd, env=_child_env(), capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"child {run_id}: killed after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"child {run_id}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _stats(values):
    qs = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": qs[0], "q3": qs[2], "n": len(values)}


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "localfloer" / "__init__.py").is_file():
        print(f"no localfloer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    sc = scenario(args.workload, args.seed)
    expected = load_expected(args.workload)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    results = []  # (traced, child result or None)
    attempted = failed = 0
    problems = {}
    start = time.monotonic()
    last = 0.0
    # untraced and traced children alternate in a traced run
    kinds = (False, True) if traced else (False,)
    try:
        while True:
            t0 = time.monotonic()
            for kind in kinds:
                run_id = f"{tag}-{len(results)}"
                timeout = DEADLINE_S - (time.monotonic() - start)
                res = _run_child(sc, workdir, run_id, kind, max(timeout, 1.0))
                results.append((kind, res))
                attempted += len(expected)
                if res is None:
                    failed += len(expected)
                    problems[run_id] = {"child": ["crashed or timed out"]}
                    continue
                bad = {k: v for k, v in check(res["answers"], expected).items() if v}
                failed += len(bad)
                if bad:
                    problems[run_id] = bad
            last = time.monotonic() - t0
            elapsed = time.monotonic() - start
            if elapsed + last > min(args.seconds, DEADLINE_S):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for kind, r in results if r is not None and not kind]
    traced_runs = [r for kind, r in results if r is not None and kind]
    if not plain or (traced and not traced_runs):
        print("no child run finished; no metrics", file=sys.stderr)
        return 1

    env = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **plain[0]["versions"],
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "load": "closed loop, 1 client, 1 child process at a time",
    }
    stats = {name: _stats([r[name] for r in plain]) for name, _ in E2E + RAW}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scenario": sc,
        "env": env,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": stats,
        "samples": [r and {k: v for k, v in r.items() if k != "answers"} for _, r in results],
    }

    if traced:
        layers = {}
        repeat = True
        for name, unit, _ in METRICS:
            if name == "trace.overhead":
                continue
            vals = [r["layers"][name] for r in traced_runs]
            if unit != "s" and len(set(vals)) > 1:
                repeat = False
            layers[name] = statistics.median(vals)
        layers["trace.overhead"] = (
            statistics.median(r["wall_ref"] for r in traced_runs)
            / stats["wall_ref"]["median"]
            - 1.0
        )
        record["per_layer"] = layers
        record["counts_repeat"] = repeat
        units = {name: unit for name, unit, _ in METRICS}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
        selfs = {n: v for n, v in layers.items() if n.endswith(".self_s")}
        top = max(selfs, key=selfs.get)
        print(f"largest self time: {top} {selfs[top]:.3f} s of wall "
              f"{statistics.median(r['wall_s'] for r in traced_runs):.3f} s")
        print(f"counts repeat across {len(traced_runs)} traced children: {repeat}")
        print("waits: none reported; the program is single-threaded with no queues")
    else:
        units = dict(E2E + RAW)
        metrics = {n: {"value": stats[n]["median"], "unit": u} for n, u in E2E}
        for n, s in stats.items():
            print(f"{n} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"n {s['n']} {units[n]}")

    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print("env " + json.dumps(env, sort_keys=True))
    for run_id, bad in problems.items():
        print(f"FAILED {run_id}: {json.dumps(bad)}")
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.6g} "
          "(failed over attempted; one operation is one scenario task in one child run)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
