"""The four workloads: seeded inputs, one operation each, and output checks.

Each workload draws its inputs from the seed in ``build``, runs one
operation through canonflow's public entry points in ``operate`` (the only
part that is timed), and checks the outputs in ``check`` against references
computed apart from the program (``reference.py``) or against properties the
method must have.  ``check`` returns the errors the workload defines, by
name, and a list of failed checks.  An operation whose command exits with an
error raises ``OperationFailed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

from reference import (DampedOscillator, expdecay_flow, expdecay_metric,
                       gaussian_moments)

CSV_HEADER = "t,norm,fidelity_vs_exact,x_mean,p_mean,energy"

# The README's Caldirola-Kanai scenario: m = m0 e^(gamma t), gamma = 2 alpha,
# omega^2 = Omega0^2 + alpha^2.
M0, ALPHA, OMEGA0 = 1.0, 0.1, 1.0
GAMMA, OMEGA = 2.0 * ALPHA, math.sqrt(OMEGA0 ** 2 + ALPHA ** 2)
T_FINAL, DT, STRIDE = 5.0, 1e-3, 250
OSC_GRID = {"xmin": -12.0, "xmax": 12.0, "n": 2048}

# f = e^(-x) at eps 0.4 on the grid of verify's metric-equivalence suite.
EPS = 0.4
CURVED_GRID = (-4.0, 20.0, 2048)
CURVED_T, CURVED_DT, CURVED_STRIDE = 1.0, 1e-3, 50
INVERSE_INTERVAL = (-4.0, 4.0)

# Pass/fail tolerances, set from each method's order with margin.
EXACT_TOL = 1e-9            # spectral chain: rounding-level moments
SPLIT_STEP_TOL = 1e-5       # Strang splitting, O(dt^2) at dt = 1e-3
CURVED_NORM_TOL = 1e-10     # Cayley step is unitary up to the LU solve
CURVED_ENERGY_TOL = 1e-9    # and commutes with the discrete H
CURVED_START_TOL = 1e-8     # row 0 moments against the drawn Gaussian
EQUIVALENCE_TOL = 1e-4      # 1 - fidelity, the suite's acceptance level
INVERSE_TOL = 1e-6          # flow map and round-tripped metric

# verify checks whose residual is not an error bounded by the tolerance
VERIFY_PROPERTY_CHECKS = {"cayley_step_order_ratio", "dilation_affine_when_moving"}


class OperationFailed(RuntimeError):
    """The program exited with an error instead of producing outputs."""


def call_cli(argv, accepted=(0,)):
    """canonflow.cli.main in-process; returns (exit code, captured stdout)."""
    from canonflow.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code not in accepted:
        raise OperationFailed(f"canonflow {' '.join(argv)} exited {code}: "
                              f"{out.getvalue().strip()}")
    return code, out.getvalue()


def read_trajectory(path):
    with open(path) as fh:
        header = fh.readline().strip()
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, rows


def _draw_gaussian(rng, center, momentum, width_re, width_im):
    return {"center": float(rng.uniform(*center)),
            "momentum": float(rng.uniform(*momentum)),
            "width_re": float(rng.uniform(*width_re)),
            "width_im": float(rng.uniform(*width_im))}


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
    return path


class Workload:
    name = ""

    def __init__(self, seed, workdir):
        self.seed = int(seed)
        self.workdir = workdir
        self.build(np.random.default_rng(self.seed))

    def build(self, rng):
        raise NotImplementedError

    def operate(self):
        raise NotImplementedError

    def check(self, outputs):
        raise NotImplementedError


class _Oscillator(Workload):
    """A propagate scenario of the Caldirola-Kanai oscillator, checked row by row."""

    method = ""
    tolerance = 0.0
    # centre, momentum and width ranges where the [-12, 12) grid and the
    # 40-function Hermite basis hold the state for all t in [0, 5]
    RANGES = {"center": (-1.5, 1.5), "momentum": (-1.0, 1.0),
              "width_re": (0.7, 1.4), "width_im": (-0.2, 0.2)}

    def system(self):
        raise NotImplementedError

    def build(self, rng):
        self.state = _draw_gaussian(rng, **self.RANGES)
        self.outdir = os.path.join(self.workdir, self.name)
        scenario = {
            "system": self.system(),
            "initial_state": {"kind": "gaussian", **self.state},
            "grid": OSC_GRID,
            "propagator": {"method": self.method, "dt": DT, "t_final": T_FINAL,
                           "output_stride": STRIDE},
            "outputs": {"directory": self.outdir, "formats": ["csv", "json"]},
        }
        path = _write_json(os.path.join(self.workdir, self.name + ".json"), scenario)
        self.argv = ["propagate", path, "--out", self.outdir]
        osc = DampedOscillator(M0, GAMMA, OMEGA)
        mean0, cov0 = gaussian_moments(complex(self.state["width_re"],
                                               self.state["width_im"]),
                                       self.state["center"], self.state["momentum"])
        self.times = np.linspace(0.0, T_FINAL, int(round(T_FINAL / DT)) // STRIDE + 1)
        self.mass = np.array([osc.mass(t) for t in self.times])
        self.expected = np.array([osc.moments(mean0, cov0, t) for t in self.times])

    def operate(self):
        return call_cli(self.argv)

    def check(self, outputs):
        header, rows = read_trajectory(os.path.join(self.outdir, "trajectory.csv"))
        if header != CSV_HEADER or rows.shape != (self.times.size, 6):
            return {"layout": math.inf}, ["trajectory.csv has the wrong layout"]
        x_ref, p_ref, e_ref = self.expected.T
        # <x>, <p> as one phase-space point, measured in the energy norm
        # relative to the reference orbit: the splitting error of a linear
        # flow is proportional to the orbit, so this reads the same for
        # every drawn Gaussian where the absolute errors do not
        stiffness = self.mass * OMEGA ** 2
        orbit = np.sqrt(stiffness * x_ref ** 2 + p_ref ** 2 / self.mass)
        miss = np.sqrt(stiffness * (rows[:, 3] - x_ref) ** 2
                       + (rows[:, 4] - p_ref) ** 2 / self.mass)
        errors = {"norm": float(np.max(np.abs(rows[:, 1] - 1.0))),
                  "mean orbit": float(np.max(miss / orbit)),
                  "energy": float(np.max(np.abs(rows[:, 5] - e_ref) / np.abs(e_ref)))}
        problems = [f"{key} off the reference by {err:.3e} (tolerance {self.tolerance:g})"
                    for key, err in errors.items() if not err <= self.tolerance]
        if np.max(np.abs(rows[:, 0] - self.times)) > 1e-12:
            problems.append("output times differ from the scenario's rows")
        problems += self.check_fidelity(rows[:, 2])
        return errors, problems

    def check_fidelity(self, column):
        return []


class ExactChain(_Oscillator):
    name = "exact_chain"
    method = "exact"
    tolerance = EXACT_TOL

    def system(self):
        return {"kind": "oscillator",
                "family": {"m0": M0, "mu": 1.0, "nu": 0.0, "alpha": ALPHA,
                           "Omega0": OMEGA0}}

    def check_fidelity(self, column):
        # the exact state is compared with itself: 1, or nan if not reported
        if np.any(np.abs(column[~np.isnan(column)] - 1.0) > 1e-12):
            return ["fidelity_vs_exact column is not 1"]
        return []


class SplitStep(_Oscillator):
    name = "split_step"
    method = "split_step"
    tolerance = SPLIT_STEP_TOL

    def system(self):
        return {"kind": "oscillator",
                "mass": {"type": "exponential", "m0": M0, "rate": GAMMA},
                "frequency": {"type": "matched", "Omega0": OMEGA0}}

    def check_fidelity(self, column):
        if not np.all(np.isnan(column)):
            return ["fidelity_vs_exact column should be nan without a family"]
        return []


class CurvedMetric(Workload):
    """Crank-Nicolson propagate, the equivalence check and the inverse problem."""

    name = "curved_metric"
    # ranges where the state decays at both grid edges before and after the
    # point transforms (the left edge is the incomplete flow's boundary)
    RANGES = {"center": (4.5, 5.5), "momentum": (0.25, 1.0),
              "width_re": (0.9, 1.25), "width_im": (0.0, 0.0)}

    def build(self, rng):
        from canonflow import GaussianState, GeneratorSpec, Grid, MetricProfile

        self.state = _draw_gaussian(rng, **self.RANGES)
        self.outdir = os.path.join(self.workdir, self.name)
        xmin, xmax, n = CURVED_GRID
        scenario = {
            "system": {"kind": "curved", "mass": 1.0,
                       "metric": {"type": "from_generator", "eps": EPS,
                                  "generator": {"type": "exp_decay", "rate": 1.0}}},
            "initial_state": {"kind": "gaussian", **self.state},
            "grid": {"xmin": xmin, "xmax": xmax, "n": n},
            "propagator": {"method": "crank_nicolson", "dt": CURVED_DT,
                           "t_final": CURVED_T, "output_stride": CURVED_STRIDE},
            "outputs": {"directory": self.outdir, "formats": ["csv", "json"]},
        }
        path = _write_json(os.path.join(self.workdir, self.name + ".json"), scenario)
        self.argv = ["propagate", path, "--out", self.outdir]
        self.generator = GeneratorSpec.exp_decay(1.0)
        self.psi0 = GaussianState(a=complex(self.state["width_re"], self.state["width_im"]),
                                  center=self.state["center"],
                                  momentum=self.state["momentum"]
                                  ).to_wavefunction(Grid.from_interval(xmin, xmax, n))
        # the inverse problem gets the benchmark's closed-form metric
        self.metric = MetricProfile.from_callable(lambda x: expdecay_metric(x, EPS),
                                                  name="(1 + 0.4 e^-x)^-2")
        self.flow_points = np.linspace(*INVERSE_INTERVAL, 81)
        self.metric_points = np.linspace(*INVERSE_INTERVAL, 17)

    def operate(self):
        from canonflow import (flow_evaluate, generator_from_metric,
                               verify_metric_equivalence)

        call_cli(self.argv)
        equivalence = verify_metric_equivalence(self.generator, EPS, self.psi0,
                                                CURVED_T, dt=CURVED_DT)
        rec = generator_from_metric(self.metric, EPS, anchor=0.0,
                                    working_interval=INVERSE_INTERVAL)
        flow = rec.flow(self.flow_points)
        back = flow_evaluate(rec.generator, EPS, self.metric_points,
                             with_jacobian=False, rtol=1e-12, atol=1e-14)
        return equivalence, flow, np.asarray(back.f2) ** -2.0

    def check(self, outputs):
        equivalence, flow, g_round_trip = outputs
        header, rows = read_trajectory(os.path.join(self.outdir, "trajectory.csv"))
        if header != CSV_HEADER or rows.shape != (int(round(CURVED_T / CURVED_DT))
                                                  // CURVED_STRIDE + 1, 6):
            return {"layout": math.inf}, ["trajectory.csv has the wrong layout"]
        energy = rows[:, 5]
        errors = {
            "norm drift": float(np.max(np.abs(rows[:, 1] - 1.0))),
            "energy drift": float(np.max(np.abs(energy - energy[0])) / abs(energy[0])),
            "start moments": max(abs(rows[0, 3] - self.state["center"]),
                                 abs(rows[0, 4] - self.state["momentum"])),
            "equivalence infidelity": 1.0 - equivalence.fidelity,
            "flow map": float(np.max(np.abs(flow - expdecay_flow(self.flow_points, EPS)))),
            "round-trip metric": float(np.max(
                np.abs(g_round_trip / expdecay_metric(self.metric_points, EPS) - 1.0))),
        }
        limits = {"norm drift": CURVED_NORM_TOL, "energy drift": CURVED_ENERGY_TOL,
                  "start moments": CURVED_START_TOL,
                  "equivalence infidelity": EQUIVALENCE_TOL,
                  "flow map": INVERSE_TOL, "round-trip metric": INVERSE_TOL}
        problems = [f"{key} {errors[key]:.3e} above {limits[key]:g}"
                    for key in errors if not errors[key] <= limits[key]]
        return errors, problems


class VerifyAll(Workload):
    """``canonflow verify --suite all``; the suites take no input, so the seed is unused."""

    name = "verify_all"

    def build(self, rng):
        self.argv = ["verify", "--suite", "all"]

    def operate(self):
        # exit 1 reports failed checks, which ``check`` lists one by one
        return call_cli(self.argv, accepted=(0, 1))

    def check(self, outputs):
        """Every assert check passes; the errors are residual/tolerance of residual checks."""
        code, text = outputs
        payload = json.loads(text)
        problems = [] if code == 0 and payload["all_passed"] else [f"verify exited {code}"]
        errors = {}
        for suite, checks in payload["suites"].items():
            for c in checks:
                if c["kind"] != "assert":
                    continue
                if not c["passed"]:
                    problems.append(f"{suite}.{c['name']} failed")
                residual_check = (c["tolerance"] > 0 and c["name"] not in VERIFY_PROPERTY_CHECKS
                                  and not c["name"].endswith("_runtime_s"))
                if residual_check:
                    if c["residual"] > c["tolerance"]:
                        problems.append(f"{suite}.{c['name']} above its tolerance")
                    errors[f"{suite}.{c['name']}"] = c["residual"] / c["tolerance"]
        return errors, problems


WORKLOADS = {cls.name: cls for cls in (ExactChain, SplitStep, CurvedMetric, VerifyAll)}
