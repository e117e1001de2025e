"""Tests for the command line front end: formats, exit codes, reproducibility."""

import contextlib
import copy
import dataclasses
import glob
import importlib.util
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import canonflow
from canonflow import cli, verify
from canonflow.cli import (SUITE_NAMES, TRAJECTORY_HEADER, _row, build_parser, main,
                           run_scenario)
from canonflow.errors import NotNormalized, ScenarioError
from canonflow.flowcore import CLOSED_FORMS, GeneratorSpec
from canonflow.gridspace import (GaussianState, Grid, WaveFunction, expectation,
                                 wavefunction_to_csv)
from canonflow.hamiltonians import QuadraticHamiltonian, SolvableFamily
from canonflow.propagators import BASIS_SIZE, ExactSolvablePropagator, HermiteBasis


def invoke(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def ck_scenario(tmp_path, outdir, method="split_step", t_final=0.5, n=512):
    scenario = {
        "system": {"kind": "oscillator",
                   "family": {"m0": 1.0, "mu": 1.0, "nu": 0.0,
                              "alpha": 0.1, "Omega0": 1.0}},
        "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 1.0},
        "grid": {"xmin": -12.0, "xmax": 12.0, "n": n},
        "propagator": {"method": method, "dt": 0.001, "t_final": t_final,
                       "output_stride": 125},
        "outputs": {"directory": str(outdir)},
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return path


def curved_scenario(tmp_path, outdir):
    scenario = {
        "system": {"kind": "curved", "mass": 1.0,
                   "metric": {"type": "from_generator", "eps": 0.4,
                              "generator": {"type": "exp_decay", "rate": 1.0}}},
        "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 4.0},
        "grid": {"xmin": -4.0, "xmax": 20.0, "n": 512},
        "propagator": {"method": "crank_nicolson", "dt": 0.002,
                       "t_final": 0.2, "output_stride": 50},
        "outputs": {"directory": str(outdir)},
    }
    path = tmp_path / "curved.json"
    path.write_text(json.dumps(scenario))
    return path


def csv_metric_scenario(tmp_path, x, g):
    """A short curved run on [-8, 8) over the csv metric table (x, g)."""
    np.savetxt(tmp_path / "g.csv", np.column_stack([x, g]), delimiter=",",
               header="x,g", comments="")
    scenario = {
        "system": {"kind": "curved", "mass": 1.0,
                   "metric": {"type": "csv", "path": str(tmp_path / "g.csv")}},
        "initial_state": {"kind": "gaussian", "width_re": 1.0},
        "grid": {"xmin": -8.0, "xmax": 8.0, "n": 128},
        "propagator": {"method": "crank_nicolson", "dt": 0.01, "t_final": 0.1},
        "outputs": {"directory": str(tmp_path / "out"), "formats": ["csv"]},
    }
    path = tmp_path / "csv_metric.json"
    path.write_text(json.dumps(scenario))
    return path


class TestSubcommands:
    def test_flow_quadratic_example(self, capsys):
        code, out = invoke(capsys, "flow", "--f", "quadratic",
                           "--eps", "0.25", "--x", "2.0")
        assert code == 0
        assert out.strip() == "4.0"

    def test_flow_all_fields(self, capsys):
        code, out = invoke(capsys, "flow", "--f", "exp-decay", "--rate", "1.0",
                           "--eps", "0.5", "--x", "0.0", "--all")
        assert code == 0
        rec = json.loads(out)[0]
        assert rec["x_out"] == pytest.approx(np.log(1.5), abs=1e-12)
        assert rec["weight"] == pytest.approx(1.5, abs=1e-12)
        assert rec["weight"] * rec["jacobian"] == pytest.approx(1.0, abs=1e-12)

    def test_transform_dilation(self, capsys):
        code, out = invoke(capsys, "transform", "--a", "0.5", "--b", "0.5",
                           "--c", "0", "--op", "dilation",
                           "--eps", "0.1", "--deps", "0.2")
        assert code == 0
        rec = json.loads(out)
        assert rec["a"] == pytest.approx(0.4093653765389909)
        assert rec["b"] == pytest.approx(0.6107013790800849)
        assert rec["c"] == pytest.approx(-0.2)

    def test_solvable_constant_frequency_column(self, capsys):
        code, out = invoke(capsys, "solvable", "--m0", "1", "--mu", "1",
                           "--nu", "0", "--alpha", "0.1", "--Omega0", "1",
                           "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,m,dm,ddm,omega,Omega"
        omegas = [float(line.split(",")[4]) for line in lines[1:]]
        assert np.allclose(omegas, np.sqrt(1.01), atol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_solvable_huge_mass_keeps_reduced_frequency(self, capsys):
        # m'^2 overflowed at m0 = 1e300, and every Omega printed nan
        code = main(["solvable", "--m0", "1e300", "--mu", "1", "--nu", "0",
                     "--alpha", "0.1", "--Omega0", "1"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        rows = captured.out.strip().splitlines()[1:]
        big = np.array([float(line.split(",")[5]) for line in rows])
        assert big.size == 11 and np.all(np.abs(big - 1.0) <= 1e-12)

    def test_solvable_domain_error_prints_only_the_error(self, capsys):
        # the mass overflows from the third row on; no partial table is printed
        code, out = invoke(capsys, "solvable", "--m0", "1e300", "--mu", "1",
                           "--nu", "0", "--alpha", "10", "--Omega0", "1")
        assert code == 2
        assert list(json.loads(out)) == ["error"]
        assert json.loads(out)["error"]["kind"] == "MassZeroCrossing"

    @pytest.mark.parametrize("argv,names", [
        (["transform", "--a", "1", "--b", "1", "--op", "phase", "--chi", "1e300"], "b"),
        (["solvable", "--m0", "1", "--mu", "1", "--nu", "0", "--alpha", "1e300",
          "--Omega0", "1"], "ddm and omega"),
    ], ids=["transform-phase-b", "solvable-alpha-squared"])
    def test_overflow_names_the_output(self, argv, names, capsys):
        # Python's "(34, 'Numerical result out of range')" named neither
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "OverflowError"
        assert names in error["message"] and "34" not in error["message"]

    def test_solvable_evaluates_the_family_once_per_column(self, capsys,
                                                         monkeypatch):

        calls, original = [], SolvableFamily.mass_with_derivatives
        monkeypatch.setattr(SolvableFamily, "mass_with_derivatives",
                            lambda self, t: calls.append(t) or original(self, t))
        code, out = invoke(capsys, "solvable", "--m0", "1", "--mu", "1",
                           "--nu", "0", "--alpha", "0.1", "--Omega0", "1")
        assert (code, len(out.splitlines())) == (0, 12)
        # one evaluation each for the table's m, dm, ddm, for omega and for Omega
        assert len(calls) == 3

    def test_metric_table(self, capsys):
        code, out = invoke(capsys, "metric", "--f", "quadratic", "--eps", "0.2",
                           "--xmin", "-2", "--xmax", "2", "--samples", "3")
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        for x_str, g_str in rows:
            assert float(g_str) == pytest.approx(
                (1.0 - 0.2 * float(x_str)) ** -4, rel=1e-12)

    def test_metric_invert(self, capsys):
        code, out = invoke(capsys, "metric", "--f", "exp-decay", "--eps", "0.4",
                           "--invert", "--xmin", "-2", "--xmax", "2",
                           "--samples", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,phi,f"
        for line in lines[1:]:
            x, phi, f = (float(v) for v in line.split(","))
            # recovery precision is set by the extension reach (~0.4 e^-8)
            assert phi == pytest.approx(np.log(np.exp(x) + 0.4), abs=1e-3)
            assert f > 0

    def test_verify_single_suite(self, capsys):
        code, out = invoke(capsys, "verify", "--suite", "closed_forms")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        names = [c["name"] for c in payload["suites"]["closed_forms"]]
        assert "expdecay_momentum_weight_variant_documented" in names


class TestScenarios:
    def test_trajectory_format(self, tmp_path, capsys):
        outdir = tmp_path / "run"
        path = ck_scenario(tmp_path, outdir)
        code, out = invoke(capsys, "propagate", str(path))
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(1.0, abs=1e-12)
        report = json.loads((outdir / "report.json").read_text())
        assert report["library_version"]
        assert report["report"]["max_norm_drift"] < 1e-8
        assert (outdir / "plot.gp").exists()

    def test_byte_stable(self, tmp_path):
        for kind in ("split_step", "exact", "curved"):
            outputs = []
            for run in ("a", "b"):
                outdir = tmp_path / kind / run
                if kind == "curved":
                    path = curved_scenario(tmp_path, outdir)
                else:
                    path = ck_scenario(tmp_path, outdir, method=kind)
                run_scenario(path)
                outputs.append((outdir / "trajectory.csv").read_bytes())
            assert outputs[0] == outputs[1], kind

    def test_csv_state_written_by_the_library(self, tmp_path, capsys):
        # [-10, 10) with n = 1000 reads back with a spacing a few ulps off
        grid = Grid.from_interval(-10.0, 10.0, 1000)
        state = tmp_path / "state.csv"
        wavefunction_to_csv(GaussianState(a=1.0, center=0.5).to_wavefunction(grid),
                            state)
        scenario = {
            "system": {"kind": "oscillator",
                       "mass": {"type": "constant", "value": 1.0},
                       "frequency": {"type": "constant", "value": 1.0}},
            "initial_state": {"kind": "csv", "path": str(state)},
            "grid": {"xmin": -10.0, "xmax": 10.0, "n": 1000},
            "propagator": {"method": "split_step", "dt": 0.01, "t_final": 0.1},
            "outputs": {"directory": str(tmp_path / "run"), "formats": ["csv"]},
        }
        path = tmp_path / "from_csv.json"
        path.write_text(json.dumps(scenario))
        code, out = invoke(capsys, "propagate", str(path))
        assert code == 0, out
        first = (tmp_path / "run" / "trajectory.csv").read_text().splitlines()[1]
        assert float(first.split(",")[3]) == pytest.approx(0.5, abs=1e-12)

    def test_exact_method_fidelity_column(self, tmp_path, capsys):
        # each state is its own reference: 1 by definition, where an overlap
        # of the t = 0.25 state with itself reads 0.99999999999999978
        outdir = tmp_path / "run"
        path = ck_scenario(tmp_path, outdir, method="exact", n=2048)
        code, _ = invoke(capsys, "propagate", str(path))
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()[1:]
        assert [line.split(",")[2] for line in lines] == ["1"] * 5

    def test_env_var_overrides_directory(self, tmp_path, capsys, monkeypatch):
        ignored = tmp_path / "ignored"
        forced = tmp_path / "forced"
        path = ck_scenario(tmp_path, ignored)
        monkeypatch.setenv("CANONFLOW_OUT", str(forced))
        code, _ = invoke(capsys, "propagate", str(path))
        assert code == 0
        assert (forced / "trajectory.csv").exists()
        assert not ignored.exists()

    def test_default_stride_keeps_the_stored_rows(self, tmp_path):
        # 500 steps, which 16 does not divide: every 31st state and the last
        kept = list(range(0, 501, 31)) + [500]
        expected = np.linspace(0.0, 0.5, 501)[kept]
        for method in ("exact", "split_step"):
            outdir = tmp_path / method
            path = ck_scenario(tmp_path, outdir, method=method)
            scenario = json.loads(path.read_text())
            del scenario["propagator"]["output_stride"]
            path.write_text(json.dumps(scenario))
            run_scenario(path)
            lines = (outdir / "trajectory.csv").read_text().splitlines()[1:]
            times = [float(line.split(",")[0]) for line in lines]
            assert times == expected.tolist(), method

    def test_report_block_keys(self, tmp_path):
        for kind in ("split_step", "exact", "curved"):
            outdir = tmp_path / kind
            if kind == "curved":
                path = curved_scenario(tmp_path, outdir)
            else:
                path = ck_scenario(tmp_path, outdir, method=kind)
            run_scenario(path)
            report = json.loads((outdir / "report.json").read_text())["report"]
            assert set(report) == {"steps", "max_norm_drift",
                                   "max_schrodinger_residual", "wall_time_s"}, kind

    def test_exact_report_is_measured(self, tmp_path, monkeypatch):
        # the chain's report counts the time grid's steps, as a stepper's
        # does, and measures its norm drift over the states it returns
        reports = {}
        for method in ("exact", "split_step"):
            run_scenario(ck_scenario(tmp_path, tmp_path / method, method=method))
            reports[method] = json.loads(
                (tmp_path / method / "report.json").read_text())["report"]
        exact = reports["exact"]
        assert exact["steps"] == reports["split_step"]["steps"] == 500
        assert 0.0 <= exact["max_norm_drift"] <= 1e-12
        assert exact["max_schrodinger_residual"] is None

        # states of norm 1.001, which the rows would refuse: the trajectory's
        # own report is read
        family = SolvableFamily(m0=1.0, mu=1.0, nu=0.0, alpha=0.1, Omega0=1.0)
        psi0 = GaussianState(a=1.0, center=1.0).to_wavefunction(
            Grid.from_interval(-12.0, 12.0, 512))
        chain = ExactSolvablePropagator.__call__
        monkeypatch.setattr(ExactSolvablePropagator, "__call__", lambda self, t: [
            WaveFunction(state.grid, 1.001 * state.values) for state in chain(self, t)])
        traj = ExactSolvablePropagator(family, psi0).trajectory(
            np.linspace(0.0, 0.5, 501), 125)
        assert traj.report.max_norm_drift == pytest.approx(1e-3, rel=1e-6)

    def test_curved_scenario(self, tmp_path, capsys):
        outdir = tmp_path / "curved"
        path = curved_scenario(tmp_path, outdir)
        code, _ = invoke(capsys, "propagate", str(path))
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        # curved runs have no exact reference: fidelity column is nan
        assert "nan" in lines[1].split(",")[2]

    # the energy column reuses the stencil the run stepped with
    def test_curved_run_evaluates_the_metric_once(self, tmp_path, monkeypatch):
        calls, build = [], cli._build_metric

        def counted(spec, where):
            metric = build(spec, where)
            return dataclasses.replace(
                metric, g=lambda x: calls.append(np.size(x)) or metric.g(x))

        monkeypatch.setattr(cli, "_build_metric", counted)
        run_scenario(curved_scenario(tmp_path, tmp_path / "curved"))
        assert calls == [512]


class TestErrorPaths:
    def test_domain_violation_exits_2(self, tmp_path, capsys):
        scenario = {
            "system": {"kind": "curved", "mass": 1.0,
                       "metric": {"type": "from_generator", "eps": 0.25,
                                  "generator": {"type": "quadratic"}}},
            "initial_state": {"kind": "gaussian", "width_re": 4.0, "center": 2.0},
            "grid": {"xmin": -2.0, "xmax": 6.0, "n": 256},
            "propagator": {"method": "crank_nicolson", "dt": 0.001,
                           "t_final": 0.1},
            "outputs": {"directory": str(tmp_path / "x")},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(scenario))
        code, out = invoke(capsys, "propagate", str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "DomainBlowup"
        # the offending grid points x > 1/eps = 4, summarized, not listed
        x = np.linspace(-2.0, 6.0, 256, endpoint=False)
        bad = np.flatnonzero(x > 4.0)
        assert error["detail"] == {"count": bad.size, "first": int(bad[0]),
                                   "last": int(bad[-1])}

    # a csv metric is a table on [x_0, x_last]: a grid past it was run on the
    # spline's cubic extrapolation, and where that went negative the error
    # named the metric's sign rather than its domain
    @pytest.mark.parametrize("table_end,g,outcome", [
        (8.0, lambda x: 1.0 + 0.1 * x * x, (0, None)),
        (2.0, lambda x: 1.0 + 0.1 * x * x, (2, "DomainBlowup")),
        (2.0, lambda x: 1.0 + 0.5 * np.exp(-x * x), (2, "DomainBlowup"))],
        ids=["covers-grid", "quadratic-past-table", "gaussian-past-table"])
    def test_csv_metric_is_read_inside_its_table(self, table_end, g, outcome,
                                                  tmp_path, capsys):
        xs = np.linspace(-table_end, table_end, 81)
        code, out = invoke(capsys, "propagate", str(csv_metric_scenario(tmp_path, xs, g(xs))))
        kind = json.loads(out)["error"]["kind"] if code else None
        assert (code, kind) == outcome

    # a csv metric that cannot be splined is a ValueError (exit 64); one that
    # is not positive is a SingularMetric (exit 2)
    @pytest.mark.parametrize("x,g,outcome", [
        ([-8.0, 0.0, 0.0, 8.0], [1.0, 1.0, 1.0, 1.0], (64, "ValueError")),
        ([0.0], [1.0], (64, "ValueError")),
        ([-8.0, np.nan, 8.0], [1.0, 1.0, 1.0], (64, "ValueError")),
        ([-np.inf, 0.0, 8.0], [1.0, 1.0, 1.0], (64, "ValueError")),
        ([-8.0, 0.0, 8.0], [1.0, np.nan, 1.0], (64, "ValueError")),
        ([-8.0, 0.0, 8.0], [1.0, np.inf, 1.0], (64, "ValueError")),
        ([-8.0, 0.0, 8.0], [1.0, 0.0, 1.0], (2, "SingularMetric"))],
        ids=["x-not-increasing", "one-row", "x-nan", "x-inf", "g-nan", "g-inf", "g-zero"])
    def test_csv_metric_refusal(self, x, g, outcome, tmp_path, capsys):
        code, out = invoke(capsys, "propagate", str(csv_metric_scenario(tmp_path, x, g)))
        assert (code, json.loads(out)["error"]["kind"]) == outcome

    # a csv initial state too short for a grid (refused by Grid, or before
    # it for one row, which has no spacing), or with uneven x, is a
    # ValueError (exit 64)
    @pytest.mark.parametrize("x,message", [
        (np.array([1.0]), "CSV state needs at least two rows"),
        (np.linspace(-12.0, 12.0, 3), "grid needs at least 8 points"),
        (np.linspace(-12.0, 12.0, 7), "grid needs at least 8 points"),
        (np.linspace(-12.0, 12.0, 512, endpoint=False) + 0.01 * (np.arange(512) == 100),
         "CSV grid is not strictly uniform")],
        ids=["one-row", "three-rows", "seven-rows", "uneven-x"])
    def test_csv_state_refusal(self, x, message, tmp_path, capsys):
        np.savetxt(tmp_path / "state.csv", np.column_stack([x, np.exp(-x * x), 0.0 * x]),
                   delimiter=",", header="x,re,im", comments="")
        path = ck_scenario(tmp_path, tmp_path / "out")
        scenario = json.loads(path.read_text())
        scenario["initial_state"] = {"kind": "csv", "path": str(tmp_path / "state.csv")}
        path.write_text(json.dumps(scenario))
        code, out = invoke(capsys, "propagate", str(path))
        error = json.loads(out)["error"]
        assert (code, error["kind"], error["message"]) == (64, "ValueError", message)

    def test_negative_constant_metric_exits_2(self, tmp_path, capsys):
        path = curved_scenario(tmp_path, tmp_path / "out")
        scenario = json.loads(path.read_text())
        scenario["system"]["metric"] = {"type": "constant", "value": -1.0}
        path.write_text(json.dumps(scenario))
        code, out = invoke(capsys, "propagate", str(path))
        error = json.loads(out)["error"]
        assert (code, error["kind"], error["message"]) == (
            2, "SingularMetric", "constant metric must be positive")

    def test_failed_cayley_factorization_exits_2(self, tmp_path, capsys, monkeypatch):
        # zgttrf reports an exactly singular factor through info > 0, which
        # 1/2 + i H dt/4 with H real symmetric never is; a stand-in reports it
        from scipy.linalg import lapack
        zgttrf = lapack.zgttrf
        monkeypatch.setattr(lapack, "zgttrf", lambda *args: (*zgttrf(*args)[:-1], 1))
        code, out = invoke(capsys, "propagate",
                           str(curved_scenario(tmp_path, tmp_path / "out")))
        error = json.loads(out)["error"]
        assert (code, error["kind"], error["message"]) == (
            2, "LinearSolveFailure", "Cayley factorization failed (info 1)")

    def test_schema_error_exits_64(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"system": {}}))
        code, out = invoke(capsys, "propagate", str(path))
        assert code == 64
        assert json.loads(out)["error"]["kind"] == "ScenarioError"

    @pytest.mark.parametrize("argv", [
        ["metric", "--f", "linear", "--eps", "0.3", "--xmin", "1", "--xmax", "3",
         "--invert"],
        ["metric", "--f", "linear", "--eps", "0", "--invert"],
        ["metric", "--f", "linear", "--eps", "0.3", "--xmin", "3", "--xmax", "1",
         "--invert"],
        ["solvable", "--m0", "1", "--mu", "0", "--nu", "0", "--alpha", "0.1",
         "--Omega0", "1"],
        ["propagate", "SCENARIO_N4"],
        ["propagate", "SCENARIO_N0"],
    ], ids=["anchor-outside", "zero-eps", "empty-interval", "mu-nu-zero",
            "grid-n4", "grid-n0"])
    def test_invalid_argument_value_exits_64(self, argv, tmp_path, capsys):
        # "SCENARIO_N<n>" stands for ck_scenario on an n-point grid
        argv = [str(ck_scenario(tmp_path, tmp_path / "out",
                                n=int(a.removeprefix("SCENARIO_N"))))
                if a.startswith("SCENARIO_N") else a for a in argv]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 64
        error = json.loads(captured.out)["error"]
        assert error["kind"] == "ValueError" and error["message"]
        assert "Traceback" not in captured.err

    @staticmethod
    def propagate_edited(tmp_path, capsys, method, keys, value, **ck_args):
        """Run ck_scenario with scenario[keys[0]]...[keys[-1]] set to value."""
        path = ck_scenario(tmp_path, tmp_path / "out", method=method, **ck_args)
        scenario = json.loads(path.read_text())
        parent = scenario
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path.write_text(json.dumps(scenario))
        code = main(["propagate", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert not (tmp_path / "out").exists()
        return code, json.loads(captured.out)["error"]["kind"]

    @pytest.mark.parametrize("method,field,value", [
        ("split_step", "dt", 0),
        ("split_step", "output_stride", 0),
        ("exact", "output_stride", -3),
        ("split_step", "output_stride", -3),
        ("split_step", "output_stride", 2.5),
    ], ids=["dt-zero", "stride-zero", "stride-negative-exact",
            "stride-negative-split-step", "stride-fractional"])
    def test_bad_step_or_stride_exits_64(self, method, field, value, tmp_path, capsys):
        assert self.propagate_edited(tmp_path, capsys, method, ("propagator", field),
                                     value) == (64, "ScenarioError")

    @pytest.mark.parametrize("keys,value", [
        (("initial_state", "center"), [1.0]),
        (("initial_state", "center"), "x"),
        (("initial_state", "center"), True),
        (("initial_state", "momentum"), None),
        (("initial_state", "width_im"), "0.5"),
        (("outputs",), ["csv"]),
        (("outputs", "formats"), ["CSV"]),
        (("outputs", "formats"), "json"),
        (("outputs", "directory"), 3),
        (("outputs", "directory"), ""),
        (("propagator", "t_final"), 10 ** 20),
        (("propagator", "dt"), -10 ** 20),
        (("propagator", "output_stride"), 10 ** 20),
    ], ids=["center-list", "center-string", "center-bool", "momentum-null",
            "width-im-string", "outputs-list", "formats-unknown-name",
            "formats-string", "directory-number", "directory-empty",
            "t-final-integer-past-int64", "dt-integer-past-int64",
            "stride-integer-past-int64"])
    def test_bad_scenario_field_exits_64(self, keys, value, tmp_path, capsys):
        assert self.propagate_edited(tmp_path, capsys, "split_step", keys,
                                     value) == (64, "ScenarioError")

    @pytest.mark.parametrize("mass", [
        {"type": "constant", "value": 0.0},
        {"type": "constant", "value": -1.0},
        {"type": "exponential", "m0": -1.0, "rate": 0.2},
    ], ids=["constant-zero", "constant-negative", "exponential-negative"])
    def test_nonpositive_split_step_mass_exits_2(self, mass, tmp_path, capsys):
        system = {"kind": "oscillator", "mass": mass,
                  "frequency": {"type": "constant", "value": 1.0}}
        assert self.propagate_edited(tmp_path, capsys, "split_step", ("system",),
                                     system) == (2, "MassZeroCrossing")

    def test_wrapped_split_step_exits_2(self, tmp_path, capsys):
        # anti-damped m = 1.3 e^(-0.3 t): the state spreads to the edge of
        # [-12, 12) near t = 2.8 and the FFT wraps it through the boundary
        system = {"kind": "oscillator",
                  "mass": {"type": "exponential", "m0": 1.3, "rate": -0.3},
                  "frequency": {"type": "constant", "value": 1.0}}
        assert self.propagate_edited(tmp_path, capsys, "split_step", ("system",),
                                     system, t_final=5.0,
                                     n=2048) == (2, "SupportLeakage")

    def test_overflowing_matched_frequency_exits_2(self, tmp_path, capsys):
        # Omega0^2 overflows: no finite frequency pairs with the mass
        system = {"kind": "oscillator",
                  "mass": {"type": "exponential", "m0": 1.0, "rate": 0.2},
                  "frequency": {"type": "matched", "Omega0": -1e300}}
        assert self.propagate_edited(tmp_path, capsys, "split_step", ("system",),
                                     system) == (2, "NegativeRadicand")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("method,keys,value,outcome", [
        ("split_step", ("system", "family", "Omega0"), 1e300, (2, "NegativeRadicand")),
        ("split_step", ("system", "family", "mu"), 1e300, (2, "MassZeroCrossing")),
        ("split_step", ("system",),
         {"kind": "oscillator", "mass": {"type": "exponential", "m0": 1.0, "rate": 1e300},
          "frequency": {"type": "constant", "value": 1.0}}, (2, "MassZeroCrossing")),
        ("split_step", ("system",),
         {"kind": "oscillator", "mass": {"type": "exponential", "m0": 0, "rate": 1e300},
          "frequency": {"type": "constant", "value": 1.0}}, (2, "MassZeroCrossing")),
        ("crank_nicolson", ("system",),
         {"kind": "curved", "mass": 0, "metric": {"type": "constant", "value": 1.0}},
         (2, "MassZeroCrossing")),
        ("crank_nicolson", ("system",),
         {"kind": "curved", "mass": 1.0,
          "metric": {"type": "from_generator", "eps": 0.4,
                     "generator": {"type": "exp_decay", "rate": 1e300}}},
         (2, "SingularMetric")),
        ("split_step", ("initial_state", "center"), 1e300, (64, "ValueError")),
    ], ids=["family-frequency-overflows", "family-mass-overflows",
            "mass-rate-overflows", "zero-mass-rate-overflows", "curved-mass-zero", "metric-rate-overflows",
            "center-far-off-grid"])
    def test_extreme_field_is_typed(self, method, keys, value, outcome, tmp_path,
                                    capsys):
        # each case was a traceback or a numpy warning on stderr
        assert self.propagate_edited(tmp_path, capsys, method, keys, value) == outcome

    def test_grid_with_coincident_points_names_the_grid(self, tmp_path, capsys):
        # every point of x0 = 1e300, dx = 0.1 rounds to 1e300
        path = ck_scenario(tmp_path, tmp_path / "out")
        scenario = json.loads(path.read_text())
        scenario["grid"] = {"x0": 1e300, "dx": 0.1, "n": 128}
        path.write_text(json.dumps(scenario))
        code, out = invoke(capsys, "propagate", str(path))
        error = json.loads(out)["error"]
        assert (code, error["kind"]) == (64, "ValueError")
        assert "grid x0=1e+300, dx=0.1, n=128" in error["message"]

    @pytest.mark.filterwarnings("error")
    def test_huge_mass_reports_finite_residual(self, tmp_path, capsys):
        # the squared Schrodinger residual of m = 1e300 used to overflow
        path = ck_scenario(tmp_path, tmp_path / "out", t_final=0.1)
        scenario = json.loads(path.read_text())
        scenario["system"] = {"kind": "oscillator",
                              "mass": {"type": "exponential", "m0": 1e300, "rate": 0.2},
                              "frequency": {"type": "constant", "value": 1.0}}
        path.write_text(json.dumps(scenario))
        code = main(["propagate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        assert np.isfinite(json.loads(captured.out)["report"]["max_schrodinger_residual"])

    @pytest.mark.parametrize("method,keys,value", [
        ("split_step", ("initial_state",), {"kind": "csv", "path": "missing.csv"}),
        ("crank_nicolson", ("system",),
         {"kind": "curved", "mass": 1.0,
          "metric": {"type": "csv", "path": "missing.csv"}}),
        ("split_step", ("outputs", "directory"), "a-file"),
        ("split_step", ("outputs", "directory"), "a-file/sub"),
    ], ids=["state-csv-missing", "metric-csv-missing", "directory-is-a-file",
            "directory-under-a-file"])
    def test_bad_scenario_path_exits_64(self, method, keys, value, tmp_path,
                                        capsys, monkeypatch):
        (tmp_path / "a-file").write_text("")
        monkeypatch.chdir(tmp_path)
        assert self.propagate_edited(tmp_path, capsys, method, keys,
                                     value) == (64, "ScenarioError")

    @pytest.mark.parametrize("method,keys,value", [
        ("split_step", ("grid", "xmin"), float("nan")),
        ("split_step", ("system",), {"kind": "oscillator",
                                     "mass": {"type": "constant", "value": 1.0},
                                     "frequency": {"type": "chirped"}}),
        ("split_step", ("initial_state",), {"kind": "csv", "path": "state.csv"}),
        ("split_step", (), None),
        ("split_step", (), "{"),
        ("split_step", (), "3"),
        ("exact", ("system",), {"kind": "oscillator",
                                "mass": {"type": "constant", "value": 1.0},
                                "frequency": {"type": "constant", "value": 1.0}}),
        ("split_step", ("propagator", "method"), "crank_nicolson"),
        ("split_step", ("system",), {"kind": "curved", "mass": 1.0,
                                     "metric": {"type": "constant", "value": 1.0}}),
    ], ids=["number-not-finite", "unknown-frequency", "csv-grid-mismatch",
            "file-missing", "file-not-json", "root-not-object", "exact-needs-family",
            "oscillator-crank-nicolson", "curved-split-step"])
    def test_scenario_refusal_exits_64(self, method, keys, value, tmp_path, capsys,
                                       monkeypatch):
        # keys () stands for the scenario file itself: missing (None) or this
        # text; a root that is a number has no fields to report missing
        monkeypatch.chdir(tmp_path)
        wavefunction_to_csv(GaussianState(a=1.0).to_wavefunction(
            Grid.from_interval(-10.0, 10.0, 512)), tmp_path / "state.csv")
        if keys:
            outcome = self.propagate_edited(tmp_path, capsys, method, keys, value)
        else:
            path = tmp_path / "scenario.json"
            if value is not None:
                path.write_text(value)
            code = main(["propagate", str(path)])
            outcome = code, json.loads(capsys.readouterr().out)["error"]["kind"]
        assert outcome == (64, "ScenarioError")

    def test_error_kind_is_class_name(self):
        exported = [obj for obj in vars(canonflow).values()
                    if isinstance(obj, type) and issubclass(obj, canonflow.CanonflowError)]
        assert len(exported) == 15
        for cls in exported:
            assert cls("message").kind == cls.__name__

    def test_usage_error_exits_64(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["flow", "--f", "nonsense", "--eps", "0.1", "--x", "1.0"])
        assert err.value.code == 64

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify", "--suite", "bogus"])
        assert err.value.code == 64


# Seeded scenario fuzz: one or two fields of a small base scenario take a
# value from a fixed pool.  Sizes that would really allocate (a grid.n or a
# step count of 1e8) stay out of the pool; 10**20 fails before allocating.
FUZZ_BASES = (
    {"system": {"kind": "oscillator",
                "family": {"m0": 1.0, "mu": 1.0, "nu": 0.0, "alpha": 0.1, "Omega0": 1.0}},
     "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 1.0},
     "grid": {"x0": -10.0, "dx": 0.15625, "n": 128},
     "propagator": {"method": "exact", "dt": 0.01, "t_final": 0.1, "output_stride": 5},
     "outputs": {"directory": "out", "formats": ["csv", "json"]}},
    {"system": {"kind": "oscillator",
                "mass": {"type": "exponential", "m0": 1.0, "rate": 0.2},
                "frequency": {"type": "matched", "Omega0": 1.0}},
     "initial_state": {"kind": "gaussian", "width_re": 1.0, "width_im": 0.0,
                       "momentum": 0.5},
     "grid": {"xmin": -12.0, "xmax": 12.0, "n": 256},
     "propagator": {"method": "split_step", "dt": 0.01, "t_final": 0.1},
     "outputs": {"directory": "out"}},
    {"system": {"kind": "curved", "mass": 1.0,
                "metric": {"type": "from_generator", "eps": 0.4,
                           "generator": {"type": "exp_decay", "rate": 1.0}}},
     "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 4.0},
     "grid": {"xmin": -4.0, "xmax": 16.0, "n": 128},
     "propagator": {"method": "crank_nicolson", "dt": 0.01, "t_final": 0.1,
                    "output_stride": 2},
     "outputs": {"directory": "out", "formats": ["csv"]}},
)
FUZZ_POOL = (None, True, False, "", "x", [], [1.0], {}, 0, -1, -2.5, 1e300, -1e300,
             10 ** 20)


def field_paths(node, prefix=()):
    for key, val in node.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from field_paths(val, prefix + (key,))


@st.composite
def fuzzed_scenarios(draw):
    scenario = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for path in draw(st.lists(st.sampled_from(list(field_paths(scenario))),
                              min_size=1, max_size=2)):
        parent = scenario
        for key in path[:-1]:       # an earlier mutation may have replaced it
            parent = parent.get(key) if isinstance(parent, dict) else None
        if isinstance(parent, dict):
            parent[path[-1]] = copy.deepcopy(draw(st.sampled_from(FUZZ_POOL)))
    return scenario


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(scenario=fuzzed_scenarios())
def test_scenario_fuzz_exits_cleanly(scenario):
    # warnings raise, so a numpy warning that would reach stderr fails here
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp),
          warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        with open("scenario.json", "w") as fh:
            json.dump(scenario, fh)
        code = main(["propagate", "scenario.json"])
    assert err.getvalue() == ""
    assert code in (0, 2, 64)
    report = json.loads(out.getvalue())
    assert ("error" in report) == (code != 0)


# The argument-level subcommands, each with its float options; every option
# takes a value from one pool of extreme values, a negative one written as
# --eps=-1e300 so that argparse does not read it as an option.
ARG_POOL = ("0", "1", "-2.5", "1e-300", "800", "-800", "1e300", "-1e300",
            "nan", "inf", "-inf")
ARG_COMMANDS = {
    "flow": (["--f", "linear"], ["--f", "quadratic"], ["--f", "exp-decay"],
             ["--f", "linear", "--all"], ["--f", "exp-decay", "--all"]),
    "transform": (["--op", "dilation"], ["--op", "phase"]),
    "solvable": ([],),
    "metric": (["--f", "linear"], ["--f", "quadratic"], ["--f", "exp-decay"]),
}
ARG_OPTIONS = {"flow": ("--rate", "--eps", "--x"),
               "transform": ("--a", "--b", "--c", "--eps", "--deps", "--chi", "--dchi"),
               "solvable": ("--m0", "--mu", "--nu", "--alpha", "--Omega0", "--t-max"),
               "metric": ("--rate", "--eps", "--xmin", "--xmax")}
ARG_DEFAULTS = {"--eps": "0.3", "--x": "1", "--a": "1", "--b": "1", "--m0": "1",
                "--mu": "1", "--nu": "0", "--alpha": "0.1", "--Omega0": "1"}


@st.composite
def fuzzed_arguments(draw):
    command = draw(st.sampled_from(sorted(ARG_COMMANDS)))
    argv = [command] + list(draw(st.sampled_from(ARG_COMMANDS[command])))
    values = dict.fromkeys(ARG_OPTIONS[command])
    for option in draw(st.lists(st.sampled_from(ARG_OPTIONS[command]),
                                min_size=1, max_size=3)):
        values[option] = draw(st.sampled_from(ARG_POOL))
    for option, value in values.items():
        value = value if value is not None else ARG_DEFAULTS.get(option)
        if value is not None:
            argv.append(f"{option}={value}")
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(argv=fuzzed_arguments())
def test_argument_fuzz_exits_cleanly(argv):
    # a non-finite argument is exit 64 and an overflowing result exit 2, each
    # with an error JSON; a numpy warning raises, so it cannot reach stderr
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = main(argv)
    assert err.getvalue() == ""
    assert code in (0, 2, 64)
    if code:
        assert "error" in json.loads(out.getvalue())
    else:
        assert not any(word in out.getvalue().lower() for word in ("nan", "inf"))


# The stored row written from its definition, as the oracle of the row
# below.  The position density re^2 + im^2 and the momentum density
# (dx/n) |fft(v)|^2 of the stored state itself (no normalized copy) are
# weighted and summed with np.sum, and each moment is divided by the mass
# dx sum(density); H sums a <p^2> + b <x^2> of those.  <p> and <p^2> are
# written from Parseval's identity: with V = fft(v), dx sum_j conj(v_j)
# ifft(k^s V)_j equals (dx/n) sum_j k_j^s |V_j|^2.
def oracle_row(t, state, ham):
    """The values of one row; fidelity is the state's with itself."""
    grid, v, x, k = state.grid, state.values, state.grid.x, state.grid.k
    density = v.real ** 2 + v.imag ** 2
    spec = np.fft.fft(v)
    momentum = (grid.dx / grid.n) * (spec.real ** 2 + spec.imag ** 2)
    mass = grid.dx * np.sum(density)
    nrm = float(np.sqrt(mass))
    ratio = float(abs(complex(grid.dx * np.sum(np.conj(v) * v))) / (nrm * nrm))
    fid = 1.0 if ratio > 1.0 else ratio
    x2 = float(grid.dx * np.sum(x * x * density) / mass)
    p2 = float(np.sum(k * k * momentum) / mass)
    assert ham.c == 0
    return (t, nrm, fid, float(grid.dx * np.sum(x * density) / mass),
            float(np.sum(k * momentum) / mass), float(ham.a * p2 + ham.b * x2))


def oracle_monic_hermite(size, m0, omega0, points):
    """The basis from the monic recurrence g_(n+1) = xi g_n - (n/2) g_(n-1),
    one new array per row, with g_n divided by sqrt(n!/2^n) at the end."""
    xi = np.asarray(points, dtype=float) / (1.0 / np.sqrt(m0 * omega0))
    monic = np.empty((size, xi.size))
    monic[0] = (m0 * omega0 / np.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
    monic[1] = xi * monic[0]
    for n in range(1, size - 1):
        monic[n + 1] = xi * monic[n] - (n / 2) * monic[n - 1]
    scales = [math.sqrt(math.factorial(n) / 2 ** n) for n in range(size)]
    return monic / np.array(scales)[:, None]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(n=st.integers(64, 2048), shift=st.one_of(st.just(0.0), st.floats(-5.0, 5.0)),
       half_length=st.floats(6.0, 20.0), width_re=st.floats(0.3, 3.0),
       width_im=st.floats(-1.0, 1.0), center=st.floats(-2.0, 2.0),
       momentum=st.floats(-2.0, 2.0), scale=st.floats(1.0 - 5e-7, 1.0 + 5e-7),
       m=st.floats(0.1, 10.0), w=st.floats(0.1, 10.0), t=st.floats(0.0, 5.0),
       eps=st.floats(-1.0, 1.0))
@example(n=2048, shift=0.0, half_length=12.0, width_re=1.0, width_im=0.0,
         center=1.0, momentum=0.0, scale=1.0, m=1.0, w=1.0, t=0.0, eps=0.0)
def test_stored_row_is_bit_identical_to_the_expectation_row(
        n, shift, half_length, width_re, width_im, center, momentum, scale, m, w,
        t, eps):
    grid = Grid.from_interval(shift - half_length, shift + half_length, n)
    gauss = GaussianState(complex(width_re, width_im), center + shift, momentum)
    # a stored state: unit norm to within NORM_TOL, not exactly
    state = WaveFunction(grid, scale * gauss.to_wavefunction(grid).normalized().values)
    ham = QuadraticHamiltonian.oscillator(m, w)
    want = ",".join(format(v, ".17g") for v in oracle_row(t, state, ham))
    assert _row(t, state, state.fidelity(state),
                lambda stored: expectation(ham, stored)) == want
    # a state off unit norm is refused, not read through a normalized copy
    doubled = WaveFunction(grid, 2.0 * state.values)
    with pytest.raises(NotNormalized):
        _row(t, doubled, 1.0, lambda stored: expectation(ham, stored))

    # the chain's frames: the basis at dilated points, and on the grid
    basis = HermiteBasis(BASIS_SIZE, m, w, grid)
    points = np.exp(-eps) * grid.x
    assert np.array_equal(basis.monic(points) / basis.scales[:, None], oracle_monic_hermite(BASIS_SIZE, m, w, points))
    assert np.array_equal(basis.functions, oracle_monic_hermite(BASIS_SIZE, m, w, grid.x))


# the README's Caldirola-Kanai scenario, run by the transform chain
README_SCENARIO = {
    "system": {"kind": "oscillator",
               "family": {"m0": 1.0, "mu": 1.0, "nu": 0.0, "alpha": 0.1, "Omega0": 1.0}},
    "initial_state": {"kind": "gaussian", "width_re": 1.0, "center": 1.0, "momentum": 0.0},
    "grid": {"xmin": -12.0, "xmax": 12.0, "n": 2048},
    "propagator": {"method": "exact", "dt": 0.001, "t_final": 5.0, "output_stride": 250},
    "outputs": {"directory": "runs/damped", "formats": ["csv", "json", "gnuplot"]},
}


def scipy_modules_after(code, cwd):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(canonflow.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    script = (code + "\nimport json, sys\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# scipy subpackages no command loads: the library's splines are numpy, and
# scipy.linalg does not import these
HEAVY_SCIPY = tuple(f"scipy.{name}" for name in ("interpolate", "integrate", "sparse",
                                                 "special", "spatial", "optimize"))


class TestColdStart:
    """Commands that never call scipy do not import it; the others load
    ``scipy.linalg`` only."""

    @pytest.mark.parametrize("code", [
        "from canonflow.cli import build_parser\nbuild_parser()",
        "from canonflow.cli import main\n"
        "assert main(['flow', '--f', 'quadratic', '--eps', '0.25', '--x', '2.0']) == 0",
        "from canonflow.cli import main\n"
        "assert main(['propagate', 'scenario.json', '--out', 'run']) == 0",
        "from canonflow.cli import main\n"
        "assert main(['propagate', 'split_step.json', '--out', 'run']) == 0",
        "import numpy as np\n"
        "from canonflow import GeneratorSpec, Grid, general_f_transform\n"
        "grid = Grid.from_interval(-4.0, 4.0, 32)\n"
        "h = general_f_transform(1.0, np.cos, GeneratorSpec.linear(), 0.3, grid, 0.1)\n"
        "assert np.all(np.isfinite(h(np.exp(-grid.x ** 2))))",
        # a custom flow is solved through its Abel relation, with no integrator
        "import numpy as np\n"
        "from canonflow import GaussianState, GeneratorSpec, Grid, apply_point_unitary\n"
        "gen = GeneratorSpec.custom(lambda t: np.sqrt(1.0 + t * t))\n"
        "psi = GaussianState(a=1.0).to_wavefunction(Grid.from_interval(-12.0, 12.0, 256))\n"
        "assert apply_point_unitary(gen, 0.3, psi).norm() > 0.99",
        "import numpy as np\n"
        "from canonflow import GeneratorSpec, Grid, general_f_transform\n"
        "grid = Grid.from_interval(-4.0, 4.0, 32)\n"
        "gen = GeneratorSpec.custom(lambda t: np.sqrt(1.0 + t * t))\n"
        "h = general_f_transform(1.0, np.cos, gen, 0.3, grid, 0.1)\n"
        "assert np.all(np.isfinite(h(np.exp(-grid.x ** 2))))",
        "from canonflow import Grid, QuadraticHamiltonian, oscillator_spectrum\n"
        "ham = QuadraticHamiltonian(0.5, 0.7, 0.3)\n"
        "assert oscillator_spectrum(ham, Grid.from_interval(-10.0, 10.0, 64), k=2)[0] > 0",
    ], ids=["parser", "flow-quadratic", "propagate-exact", "propagate-split_step",
            "general-f-transform-linear", "point-unitary-custom",
            "general-f-transform-custom", "oscillator-spectrum"])
    def test_no_scipy_loaded(self, code, tmp_path):
        (tmp_path / "scenario.json").write_text(json.dumps(README_SCENARIO))
        split_step = dict(README_SCENARIO, propagator=dict(
            README_SCENARIO["propagator"], method="split_step"))
        (tmp_path / "split_step.json").write_text(json.dumps(split_step))
        assert scipy_modules_after(code, tmp_path) == []

    def test_metric_invert_loads_no_integrator(self, tmp_path):
        code = ("from canonflow.cli import main\n"
                "assert main(['metric', '--f', 'exp-decay', '--eps', '0.4', '--invert']) == 0")
        loaded = scipy_modules_after(code, tmp_path)
        assert "scipy.linalg" in loaded
        assert [m for m in loaded if m.startswith(HEAVY_SCIPY)] == []

    def test_verify_loads_scipy_up_front(self, tmp_path):
        # so that no timed suite pays for the import; no suite integrates an ODE
        loaded = scipy_modules_after("import canonflow.verify", tmp_path)
        assert "scipy.linalg" in loaded
        assert [m for m in loaded if m.startswith(HEAVY_SCIPY)] == []

    def test_csv_metric_propagate_loads_linalg_only(self, tmp_path):
        xs = np.linspace(-8.0, 8.0, 81)
        csv_metric_scenario(tmp_path, xs, 1.0 + 0.1 * xs * xs)
        loaded = scipy_modules_after("from canonflow.cli import main\n"
                                     "assert main(['propagate', 'csv_metric.json']) == 0",
                                     tmp_path)
        assert "scipy.linalg" in loaded
        assert [m for m in loaded if m.startswith(HEAVY_SCIPY)] == []

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        build_parser.cache_clear()
        for _ in range(2):
            assert invoke(capsys, "flow", "--f", "linear", "--eps", "0.1",
                          "--x", "1.0")[0] == 0
        assert built.count("canonflow") == 1

    def test_parser_suite_names_match_verify(self):
        assert SUITE_NAMES == tuple(verify.SUITES)
        args = build_parser().parse_args(["verify", "--suite", *verify.SUITES])
        assert args.suite == list(verify.SUITES)

    def test_unknown_suite_is_value_error(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify.run_suites(["nope"])

    def test_all_runs_every_suite_in_order(self, monkeypatch):
        ran = []
        monkeypatch.setattr(verify, "SUITES", {
            name: (lambda name=name: ran.append(name) or [name]) for name in verify.SUITES})
        results = verify.run_suites(["all"])
        assert ran == list(results) == list(SUITE_NAMES)
        assert all(results[name] == [name] for name in SUITE_NAMES)

    @pytest.mark.parametrize("command,rest", [("flow", ["--x", "1.0"]), ("metric", [])])
    def test_generator_choices_are_the_closed_forms(self, command, rest):
        for kind in CLOSED_FORMS:
            args = build_parser().parse_args([command, "--f", kind.replace("_", "-"),
                                              "--eps", "0.1", *rest])
            assert cli._generator_arg(args) == CLOSED_FORMS[kind](lambda key: 1.0)

    def test_only_exp_decay_requires_a_rate(self):
        assert cli._build_generator({"type": "quadratic"}, "g") == GeneratorSpec.quadratic()
        with pytest.raises(ScenarioError, match="'rate'"):
            cli._build_generator({"type": "exp_decay"}, "g")


CSV_HASHES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "csv_hashes.py")


def test_pinned_output_hashes(capsys):
    # scripts/csv_hashes.py: four trajectory CSVs and two solvable tables,
    # each against its pinned sha256
    spec = importlib.util.spec_from_file_location("csv_hashes", CSV_HASHES)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.check_hashes() == 0, capsys.readouterr().out


def _numpy_blas_is_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in str(blas.get("name", "")).lower()


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64")
                    or not _numpy_blas_is_openblas(),
                    reason="the pins' kernel domain is stated for x86-64 OpenBLAS")
@pytest.mark.parametrize("kernel", ["Haswell", "Prescott"])
def test_pins_hold_under_other_blas_kernels(kernel):
    # every grid norm, moment, overlap and the chain's projection is a numpy
    # sum, so four pins do not depend on the OpenBLAS kernel.  The family_*
    # pins still read the chain's per-row synthesis, a BLAS product that an
    # FMA kernel (SkylakeX, Haswell) and a non-FMA one (Sandybridge,
    # Prescott) round differently: under Prescott they change, which makes
    # the script exit 1, so its lines are read instead of its exit code
    from numpy._core._multiarray_umath import __cpu_features__
    if kernel == "Haswell" and not __cpu_features__["AVX2"]:
        pytest.skip("the Haswell kernel needs AVX2")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OPENBLAS_CORETYPE=kernel)
    done = subprocess.run([sys.executable, CSV_HASHES], env=env,
                          capture_output=True, text=True, timeout=600)
    status = {line.split()[0]: line.split()[2] for line in done.stdout.splitlines()}
    names = ("profiles_split_step", "curved_exp_decay", "solvable_readme",
             "solvable_family_21")
    if kernel == "Haswell":
        names = ("family_exact", "family_split_step") + names
    assert [status.get(name) for name in names] == ["ok"] * len(names), \
        done.stdout + done.stderr


def test_csv_diff_against_an_identical_save_is_zero(tmp_path):
    # the outputs are byte-stable, so every column's largest change is 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")

    def script(*args):
        done = subprocess.run([sys.executable, CSV_HASHES, *args], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout

    assert script("--save", str(tmp_path)) == ""
    assert sorted(os.listdir(tmp_path)) == sorted(
        name + ".csv" for name in ("family_exact", "family_split_step",
                                   "profiles_split_step", "curved_exp_decay",
                                   "solvable_readme", "solvable_family_21"))
    lines = script("--diff", str(tmp_path)).splitlines()
    assert len(lines) == 6
    for line in lines:
        name, *cells = line.split()
        columns, changes = cells[::2], cells[1::2]
        assert columns[0] == "t" and len(columns) == 6, line
        assert changes == ["0"] * 6, line


def _line_counts():
    spec = importlib.util.spec_from_file_location(
        "line_counts", os.path.join(os.path.dirname(CSV_HASHES), "line_counts.py"))
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# the package's code lines, as scripts/line_counts.py counts them, under the
# 2000 cap; a change may lower this, and none raises it
CODE_LINE_CAP = 1997


def test_code_lines_within_cap():
    script = _line_counts()
    code = sum(script.count(path)["code"]
               for path in glob.glob(os.path.join(script.SRC, "*.py")))
    assert code <= CODE_LINE_CAP, f"{code} code lines in src/canonflow, cap {CODE_LINE_CAP}"


def test_line_counts_add_up(tmp_path, capsys):
    # scripts/line_counts.py: per module, lines as wc -l counts them, split
    # into docstring, blank, comment and code lines that add up to it
    script = _line_counts()
    source = os.path.dirname(canonflow.__file__)
    total = script.main(source)
    newlines = 0
    for name in os.listdir(source):
        if name.endswith(".py"):
            with open(os.path.join(source, name), encoding="utf-8") as fh:
                newlines += fh.read().count("\n")
            counts = script.count(os.path.join(source, name))
            assert sum(counts[kind] for kind in script.KINDS) == counts["lines"]
    assert total["lines"] == newlines
    assert sum(total[kind] for kind in script.KINDS) == newlines
    assert capsys.readouterr().out.splitlines()[-1].split() == [
        "total", str(newlines), *(str(total[kind]) for kind in script.KINDS)]

    sample = tmp_path / "sample.py"
    sample.write_text('"""Module.\n\nMore."""\n\n# note\n\n\ndef f():\n'
                      '    """One line."""\n    return 1  # trailing\n')
    assert script.count(str(sample)) == {"docstring": 4, "blank": 3,
                                         "comment": 1, "code": 2, "lines": 10}
