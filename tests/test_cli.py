"""Tests for the command line front end: formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import canonflow
from canonflow import verify
from canonflow.cli import SUITE_NAMES, TRAJECTORY_HEADER, build_parser, main, run_scenario
from canonflow.gridspace import GaussianState, Grid, wavefunction_to_csv


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
        outdir = tmp_path / "run"
        path = ck_scenario(tmp_path, outdir, method="exact", n=1024)
        code, _ = invoke(capsys, "propagate", str(path))
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()[1:]
        fidelities = [float(line.split(",")[2]) for line in lines]
        assert np.all(np.asarray(fidelities) > 1.0 - 1e-9)

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

    def test_curved_scenario(self, tmp_path, capsys):
        outdir = tmp_path / "curved"
        path = curved_scenario(tmp_path, outdir)
        code, _ = invoke(capsys, "propagate", str(path))
        assert code == 0
        lines = (outdir / "trajectory.csv").read_text().splitlines()
        assert lines[0] == TRAJECTORY_HEADER
        # curved runs have no exact reference: fidelity column is nan
        assert "nan" in lines[1].split(",")[2]


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
        indices = error["detail"]["indices"]
        assert isinstance(indices, list) and indices

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


class TestColdStart:
    """Commands that never call scipy do not import it."""

    @pytest.mark.parametrize("code", [
        "from canonflow.cli import build_parser\nbuild_parser()",
        "from canonflow.cli import main\n"
        "assert main(['flow', '--f', 'quadratic', '--eps', '0.25', '--x', '2.0']) == 0",
        "from canonflow.cli import main\n"
        "assert main(['propagate', 'scenario.json', '--out', 'run']) == 0",
    ], ids=["parser", "flow-quadratic", "propagate-exact"])
    def test_no_scipy_loaded(self, code, tmp_path):
        (tmp_path / "scenario.json").write_text(json.dumps(README_SCENARIO))
        assert scipy_modules_after(code, tmp_path) == []

    def test_metric_invert_loads_no_integrator(self, tmp_path):
        code = ("from canonflow.cli import main\n"
                "assert main(['metric', '--f', 'exp-decay', '--eps', '0.4', '--invert']) == 0")
        loaded = scipy_modules_after(code, tmp_path)
        assert "scipy.interpolate" in loaded
        assert [m for m in loaded if m.startswith("scipy.integrate")] == []

    def test_verify_loads_scipy_up_front(self, tmp_path):
        # so that no timed suite pays for the import
        loaded = scipy_modules_after("import canonflow.verify", tmp_path)
        assert {"scipy.integrate", "scipy.interpolate", "scipy.linalg"} <= set(loaded)

    def test_parser_suite_names_match_verify(self):
        assert SUITE_NAMES == tuple(verify.SUITES)
        args = build_parser().parse_args(["verify", "--suite", *verify.SUITES])
        assert args.suite == list(verify.SUITES)
