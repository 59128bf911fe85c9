"""Per-layer tracing of localfloer from outside the package.

``Tracer.install`` replaces the public functions listed below, in every
``localfloer`` module namespace that holds them (a name imported into
another module is patched there too), with wrappers that record spans and
counts; ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory as (name, start, end, parent, run id) and written out at the end.
Hot callbacks (``SymplecticPath.rho``, ``OdeGermMap`` evaluations, the
germ's value/grad/hess) are counted but not spanned.

The program is single-threaded with no queues, so no layer waits on
another and no wait time is reported.
"""
from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

import numpy as np

# (module, function) pairs wrapped with a span named "module.function"
SPANNED = [
    ("germs", "flow_jacobians"),
    ("germs", "monodromy"),
    ("germs", "fixed_point_record"),
    ("germs", "find_fixed_points"),
    ("genfun", "psi"),
    ("genfun", "generating_function"),
    ("cubical", "relative_homology_z2"),
    ("cubical", "sublevel_pair"),
    ("cubical", "local_morse_homology"),
    ("paths", "winding"),
    ("paths", "conley_zehnder"),
    ("symplectic", "spectrum"),
    ("invariants", "local_floer"),
    ("isolation", "periodic_point_search"),
    ("scenarios", "run_scenario"),
]
# (module, class, method, span name)
SPANNED_METHODS = [
    ("genfun", "SplineGermMap", "__init__", "genfun.SplineGermMap"),
    ("genfun", "PsiMap", "invert", "genfun.PsiMap.invert"),
]
# (module, class, method, counter name)
COUNTED_METHODS = [
    ("genfun", "OdeGermMap", "__call__", "genfun.OdeGermMap.evals"),
    ("genfun", "OdeGermMap", "jac", "genfun.OdeGermMap.evals"),
    ("paths", "SymplecticPath", "rho", "paths.SymplecticPath.rho.calls"),
]

# per-layer metrics: (name, unit, better)
METRICS: List[Tuple[str, str, str]] = [
    ("germs.flow_jacobians.calls", "count", "lower"),
    ("germs.flow_jacobians.points", "count", "lower"),
    ("germs.flow_jacobians.rhs_evals", "count", "lower"),
    ("germs.flow_jacobians.self_s", "s", "lower"),
    ("germs.flow_jacobians.distinct_ratio", "ratio", "higher"),
    ("germs.flow_jacobians.points_per_order", "count", "lower"),
    ("germs.monodromy.self_s", "s", "lower"),
    ("germs.fixed_point_record.self_s", "s", "lower"),
    ("germs.find_fixed_points.self_s", "s", "lower"),
    ("genfun.SplineGermMap.builds", "count", "lower"),
    ("genfun.SplineGermMap.grid_flows", "count", "lower"),
    ("genfun.SplineGermMap.distinct_ratio", "ratio", "higher"),
    ("genfun.SplineGermMap.self_s", "s", "lower"),
    ("genfun.OdeGermMap.evals", "count", "lower"),
    ("genfun.psi.calls", "count", "lower"),
    ("genfun.psi.self_s", "s", "lower"),
    ("genfun.PsiMap.invert.calls", "count", "lower"),
    ("genfun.PsiMap.invert.points", "count", "lower"),
    ("genfun.PsiMap.invert.self_s", "s", "lower"),
    ("genfun.generating_function.calls", "count", "lower"),
    ("genfun.generating_function.self_s", "s", "lower"),
    ("cubical.relative_homology_z2.calls", "count", "lower"),
    ("cubical.relative_homology_z2.cells", "count", "lower"),
    ("cubical.relative_homology_z2.self_s", "s", "lower"),
    ("cubical.sublevel_pair.calls", "count", "lower"),
    ("cubical.sublevel_pair.self_s", "s", "lower"),
    ("cubical.local_morse_homology.calls", "count", "lower"),
    ("cubical.local_morse_homology.self_s", "s", "lower"),
    ("paths.winding.calls", "count", "lower"),
    ("paths.winding.self_s", "s", "lower"),
    ("paths.SymplecticPath.rho.calls", "count", "lower"),
    ("paths.conley_zehnder.self_s", "s", "lower"),
    ("symplectic.spectrum.calls", "count", "lower"),
    ("symplectic.spectrum.self_s", "s", "lower"),
    ("invariants.local_floer.calls", "count", "lower"),
    ("invariants.local_floer.orders", "count", "lower"),
    ("invariants.local_floer.self_s", "s", "lower"),
    ("isolation.periodic_point_search.calls", "count", "lower"),
    ("isolation.periodic_point_search.self_s", "s", "lower"),
    ("scenarios.run_scenario.self_s", "s", "lower"),
    ("corpus.callbacks.calls", "count", "lower"),
    ("corpus.callbacks.points", "count", "lower"),
    ("trace.overhead", "ratio", "lower"),
]


def _digest(arr) -> bytes:
    a = np.ascontiguousarray(arr, dtype=float)
    return hashlib.blake2b(a.tobytes() + repr(a.shape).encode(), digest_size=16).digest()


def _rows(pts) -> int:
    return len(np.atleast_2d(np.asarray(pts)))


def self_times(spans: Sequence[tuple]) -> Dict[str, float]:
    """Total self time per span name.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; overlapping children are counted once.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out: Dict[str, float] = defaultdict(float)
    for i, (name, start, end, *_) in enumerate(spans):
        covered = 0.0
        lo_run = hi_run = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if hi_run is None or lo > hi_run:
                if hi_run is not None:
                    covered += hi_run - lo_run
                lo_run, hi_run = lo, hi
            else:
                hi_run = max(hi_run, hi)
        if hi_run is not None:
            covered += hi_run - lo_run
        out[name] += (end - start) - covered
    return dict(out)


class Tracer:
    """Records spans and counts of one traced run; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.distinct: Dict[str, set] = defaultdict(set)
        self._stack: List[Tuple[int, str]] = []  # open spans: (index, name)
        self._patches: List[tuple] = []

    # ------------------------------------------------------------ wrappers

    def _spanned(self, name: str, fn, before=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            parent = stack[-1][0] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append((idx, name))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _solve_ivp(self, fn):
        counts, stack = self.counts, self._stack

        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if stack and stack[-1][1] == "germs.flow_jacobians":
                counts["germs.flow_jacobians.rhs_evals"] += int(sol.nfev)
            return sol

        wrapper.__wrapped__ = fn
        return wrapper

    def _germ_callback(self, fn):
        counts = self.counts

        def wrapper(t, z):
            counts["corpus.callbacks.calls"] += 1
            counts["corpus.callbacks.points"] += z.shape[0] if np.ndim(z) == 2 else 1
            return fn(t, z)

        wrapper.__wrapped__ = fn
        return wrapper

    def _hooks(self, originals: dict) -> dict:
        """Argument counters run before the span of the named function opens."""
        counts, distinct = self.counts, self.distinct
        sigs = {name: inspect.signature(fn) for name, fn in originals.items()}

        def bound(name, args, kwargs):
            b = sigs[name].bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        def flow(args, kwargs):
            a = bound("germs.flow_jacobians", args, kwargs)
            counts["germs.flow_jacobians.points"] += _rows(a["points"])
            rest = tuple((k, v) for k, v in a.items() if k not in ("germ", "points"))
            distinct["germs.flow_jacobians"].add(
                (a["germ"].name, a["germ"].n, _digest(a["points"]), rest)
            )

        def spline(args, kwargs):
            a = bound("genfun.SplineGermMap", args, kwargs)
            if a["_data"] is None:
                counts["genfun.SplineGermMap.grid_flows"] += int(a["k"])
            box = a["box"]
            distinct["genfun.SplineGermMap"].add(
                (a["germ"].name, int(a["k"]), tuple(box.center), box.radius,
                 int(a["resolution"]), float(a["padding"]))
            )

        def invert(args, kwargs):
            a = bound("genfun.PsiMap.invert", args, kwargs)
            counts["genfun.PsiMap.invert.points"] += _rows(a["w"])

        def homology(args, kwargs):
            pair = bound("cubical.relative_homology_z2", args, kwargs)["pair"]
            counts["cubical.relative_homology_z2.cells"] += sum(
                int(np.count_nonzero(mask))
                for d in range(pair.m + 1)
                for mask in pair.relative_cell_masks(d).values()
            )

        def floer(args, kwargs):
            k = bound("invariants.local_floer", args, kwargs)["k"]
            distinct["orders"].add(int(k))
            distinct["invariants.local_floer.orders"].add(int(k))

        def search(args, kwargs):
            k = bound("isolation.periodic_point_search", args, kwargs)["k"]
            distinct["orders"].add(int(k))

        return {
            "germs.flow_jacobians": flow,
            "genfun.SplineGermMap": spline,
            "genfun.PsiMap.invert": invert,
            "cubical.relative_homology_z2": homology,
            "invariants.local_floer": floer,
            "isolation.periodic_point_search": search,
        }

    # -------------------------------------------------------- install/undo

    def _set(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, germ=None) -> None:
        """Wrap the listed functions; with ``germ``, count its callbacks."""
        import localfloer  # noqa: F401  (imports every submodule)

        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "localfloer" or name.startswith("localfloer.")
        }
        functions = {
            f"{mod}.{fn}": getattr(mods[f"localfloer.{mod}"], fn) for mod, fn in SPANNED
        }
        methods = {
            name: (getattr(mods[f"localfloer.{mod}"], cls), meth)
            for mod, cls, meth, name in SPANNED_METHODS
        }
        originals = dict(functions)
        originals.update({name: getattr(o, m) for name, (o, m) in methods.items()})
        hooks = self._hooks(originals)

        for name, fn in functions.items():
            wrapper = self._spanned(name, fn, hooks.get(name))
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._set(mod, attr, wrapper)
        for name, (owner, meth) in methods.items():
            self._set(owner, meth, self._spanned(name, originals[name], hooks.get(name)))
        for mod, cls, meth, name in COUNTED_METHODS:
            owner = getattr(mods[f"localfloer.{mod}"], cls)
            self._set(owner, meth, self._counted(name, getattr(owner, meth)))
        germs = mods["localfloer.germs"]
        self._set(germs, "solve_ivp", self._solve_ivp(germs.solve_ivp))
        if germ is not None:
            for attr in ("value", "grad", "hess"):
                self._set(germ, attr, self._germ_callback(getattr(germ, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # ------------------------------------------------------------- results

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric but ``trace.overhead``, which needs an
        untraced run to compare with."""
        selfs = self_times(self.spans)
        spans = defaultdict(int)
        for s in self.spans:
            spans[s[0]] += 1
        c, d = self.counts, self.distinct
        names = span_names()
        out: Dict[str, float] = {}
        for name, _, _ in METRICS:
            layer, _, what = name.rpartition(".")
            if what == "self_s":
                out[name] = selfs.get(layer, 0.0)
            elif what in ("calls", "builds") and layer in names:
                out[name] = spans[layer]
            else:
                out[name] = c.get(name, 0)
        out["invariants.local_floer.orders"] = len(d["invariants.local_floer.orders"])
        out["germs.flow_jacobians.distinct_ratio"] = _ratio(
            len(d["germs.flow_jacobians"]), spans["germs.flow_jacobians"]
        )
        out["genfun.SplineGermMap.distinct_ratio"] = _ratio(
            len(d["genfun.SplineGermMap"]), spans["genfun.SplineGermMap"]
        )
        # base: orders k given to local_floer or periodic_point_search
        out["germs.flow_jacobians.points_per_order"] = _ratio(
            c.get("germs.flow_jacobians.points", 0), len(d["orders"])
        )
        del out["trace.overhead"]
        return out

    def write_spans(self, path) -> None:
        keys = ("name", "start", "end", "parent", "run")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def span_names() -> set:
    """Names of all spans the tracer records."""
    return {f"{mod}.{fn}" for mod, fn in SPANNED} | {s[3] for s in SPANNED_METHODS}


def _ratio(num: float, base: float) -> float:
    """num / base, and 0 when the layer did no work (base 0)."""
    return num / base if base else 0.0
