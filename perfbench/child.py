"""One workload run in a fresh process; started by run.py, not by hand.

Prints one JSON line: set-up time (process start to scenario parsed),
wall and CPU time of ``run_scenario`` in seconds and in reference loops
(``refclock.py``), peak RSS, the answers of every task and, when traced,
the per-layer metrics.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scenario", required=True, help="scenario JSON text")
    ap.add_argument("--out", required=True, help="artifact directory")
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before the spawn")
    ap.add_argument("--spans", default="", help="trace into this spans file")
    ap.add_argument("--run-id", default="")
    args = ap.parse_args()

    from localfloer import scenarios
    from refclock import RefClock, ref_units

    raw = json.loads(args.scenario)
    sc = scenarios.parse_scenario(raw)
    setup_s = time.monotonic() - args.spawned

    tracer = None
    if args.spans:
        from spans import Tracer

        tracer = Tracer(args.run_id)
        tracer.install(germ=sc.germ)
    clock = RefClock()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    clock.start()
    try:
        code, summary = scenarios.run_scenario(sc, args.out)
    finally:
        clock.stop()
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    # the reference loops are the clock's time, not the program's
    wall_s = t1 - t0 - clock.spent
    cpu_s = (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime) - clock.spent
    wall_ref = ref_units(t0, t1, clock.samples)
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(args.spans)

    import numpy
    import scipy
    from answers import extract

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "wall_ref": wall_ref,
        "cpu_ref": cpu_s * wall_ref / wall_s,
        "ref_loop_us": clock.median_loop * 1e6,
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "exit_code": code,
        "answers": extract(raw, summary, args.out),
        "layers": tracer.metrics() if tracer is not None else None,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "localfloer": scenarios.__file__,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
