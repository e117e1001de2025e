"""Per-layer self time and work counts, recorded from the benchmark's side.

``install`` wraps public canonflow functions by rebinding each name in every
loaded canonflow module that holds it (and in the verify suite table), so the
program's own calls go through the wrappers.  Only a traced process installs
them, and ``uninstall`` puts the originals back.  A span's self time is its
duration minus the durations of the wrapped spans it called.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """Self time, inclusive time and counts per span name."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child_s = []          # inclusive time of finished children, per open span

    def timed(self, name, fn, args, kwargs):
        self._child_s.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._child_s.pop()
            self.total_s[name] += elapsed
            if self._child_s:
                self._child_s[-1] += elapsed

    def value(self, metric, operations):
        """A per-layer metric per operation, by the suffix convention of its name."""
        if metric.endswith(".steps_per_s"):
            span = metric[:-len(".steps_per_s")]
            busy = self.total_s.get(span, 0.0)
            return self.counts.get(span + ".steps", 0) / busy if busy else 0.0
        if metric.endswith(".s"):
            return self.self_s.get(metric[:-2], 0.0) / operations
        return self.counts.get(metric, 0) / operations


def _span(rec, name, fn, counter=None):
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            bound = signature.bind(*args, **kwargs).arguments
            for key, amount in counter(bound).items():
                rec.counts[f"{name}.{key}"] += int(amount)
        return rec.timed(name, fn, args, kwargs)
    return wrapper


def _flow_span(rec, fn):
    """flow_evaluate split by route: closed form or adaptive ODE."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        method = bound.get("method", "auto")
        if method == "auto":
            method = "ode" if bound["gen"].kind == "custom" else "closed"
        name = f"flowcore.flow_evaluate.{method}"
        rec.counts[name + ".points"] += int(np.broadcast(np.asarray(bound["x"]),
                                                         np.asarray(bound["eps"])).size)
        return rec.timed(name, fn, args, kwargs)
    return wrapper


# counters take the call's arguments by parameter name
def _steps(a):
    return {"steps": len(a["t_grid"]) - 1}


def _calls(a):
    return {"calls": 1}


def _resample(a):
    m = int(np.asarray(a["points"]).size)
    # the dense n x m complex128 phase matrix the resampler builds
    return {"points": m, "bytes_computed": 16 * a["psi"].grid.n * m}


def _point_unitary(a):
    return {"calls": 1, "points": a["psi"].grid.n}


def _spectrum(a):
    # the dense n x n matrix handed to the eigensolver (complex when c != 0)
    return {"calls": 1, "bytes_computed": a["grid"].n ** 2 * (16 if a["ham"].c else 8)}


# (module, attribute, span name, counter); flow_evaluate is handled apart
FUNCTIONS = [
    ("canonflow.gridspace", "band_limited_values", "gridspace.band_limited_values", _resample),
    ("canonflow.gridspace", "apply_point_unitary", "gridspace.apply_point_unitary", _point_unitary),
    ("canonflow.gridspace", "expectation", "gridspace.expectation", _calls),
    ("canonflow.hamiltonians", "omega_from_mass", "hamiltonians.omega_from_mass", _calls),
    ("canonflow.propagators", "split_step_propagate", "propagators.split_step_propagate", _steps),
    ("canonflow.propagators", "crank_nicolson_curved", "propagators.crank_nicolson_curved", _steps),
    ("canonflow.propagators", "oscillator_spectrum", "propagators.oscillator_spectrum", _spectrum),
    ("canonflow.metricmap", "generator_from_metric", "metricmap.generator_from_metric", None),
    ("canonflow.metricmap", "verify_metric_equivalence", "metricmap.verify_metric_equivalence", None),
    ("canonflow.cli", "run_scenario", "cli.run_scenario", _calls),
]

# (module, class, method, span name, counter)
METHODS = [
    ("canonflow.propagators", "ExactSolvablePropagator", "__init__",
     "propagators.ExactSolvablePropagator.init", None),
    ("canonflow.propagators", "ExactSolvablePropagator", "__call__",
     "propagators.ExactSolvablePropagator.eval", _calls),
    ("canonflow.propagators", "HermiteBasis", "expand", "propagators.HermiteBasis.expand", None),
    ("canonflow.propagators", "HermiteBasis", "synthesize",
     "propagators.HermiteBasis.synthesize", None),
]


def install(rec):
    """Route canonflow's calls through ``rec``; returns the function that undoes it."""
    import canonflow.cli  # noqa: F401  (loads every module that holds a wrapped name)
    import canonflow.verify as verify

    modules = [m for name, m in sys.modules.items()
               if name == "canonflow" or name.startswith("canonflow.")]
    undo = []

    def rebind(fn, wrapper):
        for module in modules:
            for attr, val in list(vars(module).items()):
                if val is fn:
                    setattr(module, attr, wrapper)
                    undo.append(functools.partial(setattr, module, attr, fn))

    flow = sys.modules["canonflow.flowcore"].flow_evaluate
    rebind(flow, _flow_span(rec, flow))
    for module, attr, name, counter in FUNCTIONS:
        fn = getattr(sys.modules[module], attr)
        rebind(fn, _span(rec, name, fn, counter))
    for module, cls_name, attr, name, counter in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        fn = cls.__dict__[attr]
        setattr(cls, attr, _span(rec, name, fn, counter))
        undo.append(functools.partial(setattr, cls, attr, fn))
    for suite, fn in list(verify.SUITES.items()):
        verify.SUITES[suite] = _span(rec, f"verify.{suite}", fn)
        undo.append(functools.partial(verify.SUITES.__setitem__, suite, fn))

    def uninstall():
        for step in reversed(undo):
            step()
    return uninstall
