"""The names and parameters the benchmark's per-layer tracer binds.

``perfbench/layers.py`` wraps these functions and methods by name and reads
their arguments by parameter name, so a rename here silently breaks
``perfbench/run.py --trace 1``.  These tests pin them, and run the tracer.
"""

import dataclasses
import importlib
import inspect
import os

import numpy as np
import pytest

from canonflow import cli, flowcore, gridspace, hamiltonians, metricmap, propagators, verify

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# (module, function, parameters the tracer reads)
FUNCTIONS = [
    (gridspace, "band_limited_values", ["psi", "points"]),
    (gridspace, "apply_point_unitary", ["gen", "eps", "psi"]),
    (gridspace, "expectation", []),
    (hamiltonians, "omega_from_mass", []),
    (propagators, "split_step_propagate", ["t_grid"]),
    (propagators, "crank_nicolson_curved", ["t_grid"]),
    (propagators, "oscillator_spectrum", ["ham", "grid"]),
    (metricmap, "generator_from_metric", []),
    (metricmap, "verify_metric_equivalence", []),
    (cli, "run_scenario", []),
    (flowcore, "flow_evaluate", ["gen", "eps", "x"]),
]

# (class, methods that must be defined on the class itself)
METHODS = [
    (propagators.ExactSolvablePropagator, ["__init__", "__call__"]),
    (propagators.HermiteBasis, ["expand", "synthesize"]),
]


@pytest.mark.parametrize("module,name,params", FUNCTIONS,
                         ids=[f"{m.__name__}.{n}" for m, n, _ in FUNCTIONS])
def test_traced_function_signature(module, name, params):
    signature = inspect.signature(getattr(module, name))
    for param in params:
        assert param in signature.parameters, f"{name} lost parameter {param!r}"


def test_tracer_counts_a_custom_flow(monkeypatch):
    # install the benchmark's own wrappers, as ``--trace 1`` does
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    original = flowcore.flow_evaluate
    rec = layers.Recorder()
    uninstall = layers.install(rec)
    try:
        gen = flowcore.GeneratorSpec.custom(np.ones_like, np.zeros_like)
        flowcore.flow_evaluate(gen, 0.3, np.linspace(-1.0, 1.0, 7))
    finally:
        uninstall()
    assert rec.counts["flowcore.flow_evaluate.ode.points"] == 7
    assert flowcore.flow_evaluate is original


@pytest.mark.parametrize("cls,methods", METHODS, ids=[c.__name__ for c, _ in METHODS])
def test_traced_methods_defined_on_class(cls, methods):
    for name in methods:
        assert name in cls.__dict__, f"{cls.__name__}.{name} must be defined on the class"
        inspect.signature(cls.__dict__[name])


def test_flow_evaluation_keeps_f2():
    assert "f2" in {f.name for f in dataclasses.fields(flowcore.FlowEvaluation)}


def test_verify_suite_table():
    # the per-layer metrics are named verify.<suite>.s
    assert set(verify.SUITES) == {
        "canonicality", "closed_forms", "brackets", "reduction", "solvability",
        "propagation", "spectrum", "metric_equivalence", "metric_inverse",
        "gauge_affine"}
