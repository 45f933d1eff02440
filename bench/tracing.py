"""Spans around calls into fpkproj's public functions, kept in memory.

The wrappers live here, not in the package: ``install`` replaces each
traced function wherever callers look it up (every ``fpkproj`` module
namespace that binds it, and the class for methods, so calls through
``self`` are caught) and ``uninstall`` puts the originals back.

A span records its name, start, end and the index of the enclosing span.
Self time is a span's duration minus the durations of its direct children;
children never overlap because the package is single-threaded.
"""

import contextlib
import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

# (module, attribute) of every traced callable; "Class.method" attributes
# are patched on the class.  The span name is "<module>.<attribute>".
TARGETS = (
    ("expfamily", "ExpFamily.expectation_to_canonical"),
    ("expfamily", "ExpFamily.fisher_matrix"),
    ("expfamily", "ExpFamily.expectation_params"),
    ("expfamily", "ExpFamily.density_values"),
    ("expfamily", "ExpFamily.density"),
    ("projection", "ProjectedOde.rhs"),
    ("projection", "galerkin_rhs"),
    ("projection", "integrate_ode"),
    ("projection", "residual"),
    ("mixture", "MixtureFamily.expectations_to_weights"),
    ("mixture", "MixtureFamily.clamp_weights"),
    ("mixture", "MixtureFamily.density_values"),
    ("reference", "solve_fpk"),
    ("reference", "metric_project_ef"),
    ("reference", "metric_project_mix"),
    ("reference", "divergence_kl"),
    ("reference", "divergence_hellinger"),
    ("reference", "divergence_l2"),
    ("reference", "decay_experiment"),
    ("runner", "run_scenario"),
    ("runner", "write_csv"),
    ("runner", "write_density_csv"),
    ("runner", "write_decay_json"),
    ("scenario", "validate_scenario"),
    ("scenario", "build_family"),
    ("quadrature", "simpson_rule"),
)

# Spans opened by the benchmark itself rather than around a package call.
BENCH_SPANS = ("scenario.load",)

SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS) + BENCH_SPANS

MOMENT_KERNELS = ("expectation_params", "fisher_matrix", "density_values", "density")
WRITERS = ("write_csv", "write_density_csv", "write_decay_json")


class Tracer:
    """Append-only span store with a stack of open spans and a few counters."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = dict.fromkeys(
            ("rk4_steps", "cn_steps", "nodes_touched", "write_bytes"), 0)

    def __len__(self):
        return len(self.start)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self.close(idx)

    def aggregate(self, lo: int = 0) -> dict:
        """Per-name calls, total and self seconds over the spans from lo on.

        Called with no span open, so no span in the range has its parent
        before lo.
        """
        name = np.frombuffer(self.name_id, dtype=np.intc)[lo:]
        parent = np.frombuffer(self.parent, dtype=np.intc)[lo:] - lo
        dur = (np.frombuffer(self.end, dtype=float)[lo:]
               - np.frombuffer(self.start, dtype=float)[lo:])
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        selft = np.bincount(name, weights=self_time, minlength=k)
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        ids = self._ids
        inversion = ids["expfamily.ExpFamily.expectation_to_canonical"]
        fisher_in_newton = int(np.count_nonzero(
            (name == ids["expfamily.ExpFamily.fisher_matrix"]) & (parent_name == inversion)))
        reinversions = int(np.count_nonzero(
            (name == inversion) & (parent_name == ids["runner.run_scenario"])))
        spans = {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                     "self_s": float(selft[i])} for i, n in enumerate(self.names)}
        return {"spans": spans, "fisher_in_newton": fisher_in_newton,
                "reinversions": reinversions, "self_times": self_time, "durations": dur}


def _counting_hook(tracer, short, fn):
    """Counter update run after a traced call, or None."""
    counts = tracer.counts
    if short == "integrate_ode":
        def hook(args, kwargs, out):
            counts["rk4_steps"] += out.times.size - 1
        return hook
    if short == "solve_fpk":
        sig = inspect.signature(fn)

        def hook(args, kwargs, out):
            bound = sig.bind(*args, **kwargs).arguments
            counts["cn_steps"] += int(round(bound["t_end"] / bound["dt"]))
        return hook
    if short in WRITERS:
        def hook(args, kwargs, out):
            counts["write_bytes"] += os.path.getsize(args[0])
        return hook
    return None


def _wrap(tracer, span_name, fn, hook, kernel):
    nid = tracer._ids[span_name]
    counts = tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer._open(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if kernel:
            counts["nodes_touched"] += args[0].rule.npoints
        if hook is not None:
            hook(args, kwargs, out)
        return out

    return traced


def install(tracer) -> list:
    """Wrap every target; returns the (owner, attribute, original) patch list."""
    modules = [m for n, m in sorted(sys.modules.items())
               if (n == "fpkproj" or n.startswith("fpkproj.")) and m is not None]
    patches = []
    for (mod_name, attr), span_name in zip(TARGETS, SPAN_NAMES):
        module = sys.modules[f"fpkproj.{mod_name}"]
        short = attr.split(".")[-1]
        if "." in attr:
            owner = getattr(module, attr.split(".")[0])
            original = owner.__dict__[short]
            kernel = mod_name == "expfamily" and short in MOMENT_KERNELS
            patches.append((owner, short, original))
            setattr(owner, short, _wrap(tracer, span_name, original, None, kernel))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, span_name, original,
                        _counting_hook(tracer, short, original), False)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
