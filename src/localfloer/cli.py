"""Command line entry point.

Subcommands:
    run    --scenario PATH --out DIR [--seed N]
    corpus
    plots  --out DIR

Exit codes: 0 all gates passed, 1 a gate failed or a task raised,
2 usage or scenario-parse error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import ScenarioError
from .scenarios import corpus_listing, emit_plots, load_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localfloer",
        description="Iteration invariants of Hamiltonian fixed-point germs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="path to a scenario JSON file")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override scenario seed")

    sub.add_parser("corpus", help="list the named germ corpus")

    p_plots = sub.add_parser("plots", help="emit columnar plot data from reports")
    p_plots.add_argument("--out", required=True, help="directory holding the reports")
    return parser


def _cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    out = args.out or scenario.out
    if out is None:
        raise ScenarioError("no output directory: pass --out or set 'out' in the file")
    code, summary = run_scenario(scenario, out, seed=args.seed)
    for gate in summary["gates"]:
        status = "PASS" if gate["passed"] else "FAIL"
        print(f"{status} {gate['id']}  {gate['detail']}")
    for err in summary["errors"]:
        print(f"ERROR {err['task']}  {err['error']}: {err['message']}")
    print(f"summary: {out}/summary.json  ({'pass' if code == 0 else 'fail'})")
    return code


def _cmd_corpus(args) -> int:
    listing = corpus_listing()
    print(json.dumps(listing, sort_keys=True, indent=2))
    return 0


def _cmd_plots(args) -> int:
    written = emit_plots(args.out)
    for name in written:
        print(name)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_plots(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
