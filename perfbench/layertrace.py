"""Outside-in layer tracing for the traced benchmark run.

The tracer replaces public functions of sbgam's layers with wrappers
that record one span (name, start, end, parent) per call.  Nothing in
sbgam changes; the wrappers are installed on the imported modules and
classes, and `uninstall` puts the originals back.  Spans are kept in
memory and written out once, at the end of the run.

A layer's self time is the time its spans cover minus the time covered
by their child spans.  Family methods call one another (for example
`qll_offset` calls `qll_pieces`), so family spans carry a reentrancy
guard: a family call made inside another family call is not recorded,
and its time counts once, in the outer call.

A target that no longer exists is reported on stderr and every metric
of its layer is left out of the result, never reported as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

FAMILY_CLASSES = ("GaussianIdentity", "BernoulliLogit", "PoissonLog")
FAMILY_METHODS = ("q1", "q2", "qll", "score_weight_pieces", "qll_pieces")

# (layers that lose their metrics if the target is gone, module,
#  attribute path, span name)
TARGETS = (
    [(("kernels",), "sbgam.kernels", "kernel_rows", "kernels.rows")]
    + [(("family",), "sbgam.family", f"{cls}.{meth}", f"family.{meth}")
       for cls in FAMILY_CLASSES for meth in FAMILY_METHODS]
    + [(("grid",), "sbgam.grid", "MarginalAccumulator.add", "grid.add")]
    + [((fit,), f"sbgam.{fit}", f"{fit[:2]}_{part}", f"{fit}.{part}")
       for fit in ("nw_fit", "ll_fit")
       for part in ("prepare", "marginals", "inner_solve", "outer_update")]
    + [(("sim",), "sbgam.sim", "make_dataset", "sim.make_dataset"),
       (("sim",), "sbgam.sim", "true_components", "sim.true_components"),
       (("sim",), "sbgam.sim", "fit_nw", "nw_fit.fit"),
       (("sim",), "sbgam.sim", "fit_ll", "ll_fit.fit"),
       (("sim", "cli"), "sbgam.cli", "run_study", "sim.run_study")]
)

_FIT_PARTS = ("prepare_s", "marginals_s", "inner_s", "outer_s", "fit_self_s",
              "newton_steps", "inner_sweeps", "marginals_calls",
              "marginals_per_step")

# metric -> (layer whose targets it needs, unit, better)
LAYER_METRICS = {
    "family.s": ("family", "s", "lower"),
    "family.calls": ("family", "count", "lower"),
    "family.cells": ("family", "count", "lower"),
    "grid.accumulate_s": ("grid", "s", "lower"),
    "grid.accumulate_calls": ("grid", "count", "lower"),
    "grid.window_cells": ("grid", "count", "lower"),
    **{f"{fit}.{part}": (fit, "ratio" if part == "marginals_per_step"
                         else "count" if not part.endswith("_s") else "s",
                         "lower")
       for fit in ("ll_fit", "nw_fit") for part in _FIT_PARTS},
    "kernels.rows_s": ("kernels", "s", "lower"),
    "kernels.rows_calls": ("kernels", "count", "lower"),
    "sim.make_dataset_s": ("sim", "s", "lower"),
    "sim.truth_s": ("sim", "s", "lower"),
    "sim.study_self_s": ("sim", "s", "lower"),
    "sim.rep_s_p50": ("sim", "s", "lower"),
    "sim.bad_reps": ("sim", "count", "lower"),
    "cli.self_s": ("cli", "s", "lower"),
    "trace.fits_per_s": (None, "1/s", "higher"),
    "trace.overhead_frac": (None, "ratio", "lower"),
    "trace.other_s": (None, "s", "lower"),
    "trace.spans": (None, "count", "lower"),
}


def _resolve(module: str, path: str):
    """(owner, attribute name) for a dotted attribute path in a module."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.span_names = []
        self._name_ids = {}
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self._stack = [-1]
        self.counts = Counter()
        self.missing_layers = set()
        self._patches = None

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, guard=None, count=None, after=None):
        """Return fn wrapped so that each call records a span.

        guard : one-element list shared by a group of wrappers; calls
            made while another call of the group is open are not recorded.
        count : (counter name, f(args) -> int) added per recorded call.
        after : f(result) run after each recorded call returns.
        """
        nid = self._id(name)
        names, starts, ends, parents = (self.name, self.start, self.end,
                                        self.parent)
        stack, counts = self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if guard is not None:
                if guard[0]:
                    return fn(*args, **kwargs)
                guard[0] += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            if count is not None:
                counts[count[0]] += count[1](args)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                if guard is not None:
                    guard[0] -= 1
            if after is not None:
                after(result)
            return result

        return traced

    def install(self) -> None:
        """Put the wrappers in place.

        The first call resolves every target, reports those that do not
        exist and builds the wrappers; later calls reuse them.
        """
        if self._patches is None:
            self._patches = list(self._build())
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def _build(self):
        options = {
            "family": dict(guard=[0],
                           count=("family.cells", lambda a: np.size(a[1]))),
            "grid": dict(count=("grid.window_cells",
                                lambda a: np.size(a[3]))),
        }
        for layers, module, path, name in TARGETS:
            try:
                owner, attr = _resolve(module, path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                for layer in layers:
                    self._missing(layer, f"{module}.{path}")
                continue
            wrapped = self.wrap(original, name, after=self._fit_counts(name),
                                **options.get(layers[0], {}))
            # None marks an inherited method, removed again on uninstall
            yield (owner, attr, original if attr in vars(owner) else None,
                   wrapped)

    def _missing(self, layer: str, what: str) -> None:
        self.missing_layers.add(layer)
        print(f"perfbench: trace target {what} no longer exists; "
              f"{layer}.* metrics are reported absent", file=sys.stderr)

    def _fit_counts(self, name: str):
        """Hook that reads Newton steps and sweeps off a fit's diagnostics."""
        if not name.endswith(".fit"):
            return None
        layer = name.split(".")[0]

        def after(fit):
            try:
                diag = fit.diagnostics
                steps = int(diag.outer_iterations)
                sweeps = int(sum(diag.inner_sweep_counts))
            except (AttributeError, TypeError):
                if layer not in self.missing_layers:
                    self._missing(layer, "FitDiagnostics.outer_iterations"
                                  "/inner_sweep_counts")
                return
            self.counts[f"{layer}.newton_steps"] += steps
            self.counts[f"{layer}.inner_sweeps"] += sweeps

        return after

    def entry(self, fn, name: str):
        """Wrap a benchmark entry point (a fitter or cli.main)."""
        return self.wrap(fn, name, after=self._fit_counts(name))

    def uninstall(self) -> None:
        """Put the original functions back."""
        for owner, attr, original, _ in reversed(self._patches or []):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ---- results ------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
        }

    def save(self, path: str, provenance: str) -> None:
        np.savez_compressed(path, names=np.asarray(self.span_names),
                            provenance=np.asarray(provenance),
                            **self.arrays())


def self_times(name, start, end, parent, n_names: int):
    """Per-name (self time, call count) from span arrays."""
    dur = end - start
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    own = dur - child
    return (np.bincount(name, weights=own, minlength=n_names),
            np.bincount(name, minlength=n_names))


def layer_metrics(tracer: Tracer, units: int, wall: float,
                  ok_weight: float, bad_reps: float | None = None,
                  overhead: float = 0.0) -> dict:
    """Per-layer metrics, per traced unit of work (one fit or one cell).

    units, wall and ok_weight describe the traced units only: how many
    ran, the wall time they took with their checks, and the fits or
    replications among them that passed.  overhead is the measured
    slow-down of traced units against untraced ones.

    Returns {metric: value} in LAYER_METRICS order; metrics of layers
    with a missing target are left out.
    """
    arr = tracer.arrays()
    names = tracer.span_names
    own, calls = self_times(arr["name"], arr["start"], arr["end"],
                            arr["parent"], len(names))
    idx = {n: i for i, n in enumerate(names)}

    def s(name):
        return float(own[idx[name]]) if name in idx else 0.0

    def c(name):
        return int(calls[idx[name]]) if name in idx else 0

    family = [n for n in names if n.startswith("family.")]
    out = {
        "family.s": sum(s(n) for n in family),
        "family.calls": sum(c(n) for n in family),
        "family.cells": tracer.counts["family.cells"],
        "grid.accumulate_s": s("grid.add"),
        "grid.accumulate_calls": c("grid.add"),
        "grid.window_cells": tracer.counts["grid.window_cells"],
        "kernels.rows_s": s("kernels.rows"),
        "kernels.rows_calls": c("kernels.rows"),
        "sim.make_dataset_s": s("sim.make_dataset"),
        "sim.truth_s": s("sim.true_components"),
        "sim.study_self_s": s("sim.run_study"),
        "cli.self_s": s("cli.main"),
    }
    for fit in ("ll_fit", "nw_fit"):
        steps = tracer.counts[f"{fit}.newton_steps"]
        out.update({
            f"{fit}.prepare_s": s(f"{fit}.prepare"),
            f"{fit}.marginals_s": s(f"{fit}.marginals"),
            f"{fit}.inner_s": s(f"{fit}.inner_solve"),
            f"{fit}.outer_s": s(f"{fit}.outer_update"),
            f"{fit}.fit_self_s": s(f"{fit}.fit"),
            f"{fit}.newton_steps": steps,
            f"{fit}.inner_sweeps": tracer.counts[f"{fit}.inner_sweeps"],
            f"{fit}.marginals_calls": c(f"{fit}.marginals"),
        })
    roots = arr["parent"] < 0
    root_time = float(np.sum(arr["end"][roots] - arr["start"][roots]))
    out["trace.other_s"] = wall - root_time
    out["trace.spans"] = len(arr["name"])
    out = {k: v / units for k, v in out.items()}

    for fit in ("ll_fit", "nw_fit"):
        steps = tracer.counts[f"{fit}.newton_steps"]
        out[f"{fit}.marginals_per_step"] = (
            c(f"{fit}.marginals") / steps if steps else 0.0)
    out["sim.rep_s_p50"] = _rep_p50(arr, idx)
    out["sim.bad_reps"] = bad_reps if bad_reps is not None else 0.0
    out["trace.fits_per_s"] = ok_weight / wall
    out["trace.overhead_frac"] = overhead

    return {k: float(out[k]) for k, (layer, _, _) in LAYER_METRICS.items()
            if layer not in tracer.missing_layers}


def _rep_p50(arr, idx) -> float:
    """Median replication time: gaps between successive make_dataset
    starts under the same run_study call."""
    if "sim.make_dataset" not in idx:
        return 0.0
    mask = arr["name"] == idx["sim.make_dataset"]
    starts, parents = arr["start"][mask], arr["parent"][mask]
    gaps = [b - a for a, b, pa, pb in zip(starts, starts[1:], parents,
                                          parents[1:]) if pa == pb]
    return float(statistics.median(gaps)) if gaps else 0.0


def shares(tracer: Tracer) -> dict:
    """Share of traced time (all root spans) by layer self time."""
    arr = tracer.arrays()
    own, _ = self_times(arr["name"], arr["start"], arr["end"], arr["parent"],
                        len(tracer.span_names))
    total = float(own.sum())
    by_layer = Counter()
    for i, name in enumerate(tracer.span_names):
        head = name.split(".", 1)[0]
        key = head if head in ("family", "grid", "kernels") else name
        by_layer[key] += float(own[i])
    return {k: v / total for k, v in sorted(by_layer.items())} if total \
        else {}
