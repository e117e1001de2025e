"""Scenario-driven command line front end.

Subcommands
-----------
flow        evaluate the point map, Jacobian and momentum weight of a generator
transform   coefficient algebra of the dilation / quadratic-phase transforms
solvable    tabulate m(t), its derivatives, and the matched frequencies
propagate   run a scenario file (split-step, exact chain, or Crank-Nicolson)
metric      metric from a generator, or generator recovered from a metric
verify      run the bundled verification suites

Exit codes: 0 success, 1 failed verification checks, 2 domain errors, 64
usage, scenario-schema or invalid-argument errors (such as a number that is not
finite); all but usage errors print a machine-readable error JSON on stdout.
A result of ``flow``, ``transform``, ``solvable`` or ``metric`` that overflows
is a domain error (``OverflowError``).
The environment variable CANONFLOW_OUT overrides the output directory of
``propagate``.  Trajectory CSVs are byte-stable for identical inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import CanonflowError, ScenarioError
from .flowcore import CLOSED_FORMS, flow_evaluate
from .gridspace import (GaussianState, Grid, WaveFunction, _braket, expectation,
                        wavefunction_from_csv)
from .hamiltonians import (QuadraticHamiltonian, SolvableFamily, TimeProfile,
                           dilation_transform, effective_frequency,
                           omega_from_mass, quadratic_phase_transform)
from .metricmap import (MetricProfile, generator_from_metric,
                        metric_from_generator)
from .propagators import (ExactSolvablePropagator, apply_curved_kinetic,
                          crank_nicolson_curved, split_step_propagate,
                          uniform_time_grid)

TRAJECTORY_HEADER = "t,norm,fidelity_vs_exact,x_mean,p_mean,energy"
OUTPUT_FORMATS = ("csv", "json", "gnuplot")
# ``verify.SUITES`` in order; spelled out so that the parser need not import
# ``verify``, which loads scipy (tests pin the two to each other).
SUITE_NAMES = ("canonicality", "closed_forms", "brackets", "reduction",
               "solvability", "propagation", "spectrum", "metric_equivalence",
               "metric_inverse", "gauge_affine")
F_CHOICES = [kind.replace("_", "-") for kind in CLOSED_FORMS]


class _Parser(argparse.ArgumentParser):
    """argparse that exits 64 on usage errors (sysexits EX_USAGE)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _fmt(x):
    """Full-precision, locale-free decimal text (byte-stable)."""
    return format(float(x), ".17g")


def _finite(names, *values):
    """Refuse an argument-level result that is not finite: it overflowed.  The
    argument-level subcommands run with numpy's warnings off and check this;
    the error names each output (one per value, in ``names``) that overflowed."""
    bad = [name for name, v in zip(names, values) if not np.all(np.isfinite(v))]
    if bad:
        raise OverflowError(f"{', '.join(bad)} overflowed (not finite)")


def _print_csv(header, *columns):
    """Print the columns of an argument-level result as CSV, once all are finite."""
    _finite(header.split(","), *columns)
    print(header)
    for row in zip(*columns):
        print(",".join(map(_fmt, row)))
    return 0


# -- scenario ingestion ---------------------------------------------------------

_MISSING = object()


def _require(mapping, key, kind, where, default=_MISSING):
    """mapping[key] checked against ``kind``; ``default`` if it is absent."""
    if key not in mapping:
        if default is not _MISSING:
            return default
        raise ScenarioError(f"{where}: missing required field {key!r}")
    val = mapping[key]
    if (kind in (int, float) and isinstance(val, int)
            and not -2 ** 63 <= val < 2 ** 63):
        raise ScenarioError(f"{where}.{key}: integer does not fit in 64 bits")
    if kind is float:
        if not isinstance(val, (int, float)) or isinstance(val, bool):
            raise ScenarioError(f"{where}.{key}: expected a number")
        if not np.isfinite(val):
            raise ScenarioError(f"{where}.{key}: must be finite")
        return float(val)
    if kind is int:
        if not isinstance(val, int) or isinstance(val, bool):
            raise ScenarioError(f"{where}.{key}: expected an integer")
        return val
    names = {str: "a string", dict: "an object", list: "a list"}
    if not isinstance(val, kind):
        raise ScenarioError(f"{where}.{key}: expected {names[kind]}")
    return val


def _read_path(spec, where, read):
    """read(path) of the file ``spec["path"]`` names; OS errors are schema errors."""
    path = _require(spec, "path", str, where)
    try:
        return read(path)
    except OSError as exc:
        raise ScenarioError(f"{where}.path: {exc}")


def _build_generator(spec, where):
    kind = _require(spec, "type", str, where)
    if kind not in CLOSED_FORMS:
        raise ScenarioError(f"{where}.type: unknown generator {kind!r}")
    return CLOSED_FORMS[kind](lambda key: _require(spec, key, float, where))


def _build_mass(spec, where):
    kind = _require(spec, "type", str, where)
    if kind == "constant":
        return TimeProfile.constant(_require(spec, "value", float, where))
    if kind == "exponential":
        return TimeProfile.exponential(_require(spec, "m0", float, where),
                                       _require(spec, "rate", float, where))
    raise ScenarioError(f"{where}.type: unknown mass profile {kind!r}")


def _build_frequency(spec, mass, where):
    kind = _require(spec, "type", str, where)
    if kind == "constant":
        return TimeProfile.constant(_require(spec, "value", float, where))
    if kind == "matched":
        omega0 = _require(spec, "Omega0", float, where)
        return TimeProfile.from_callable(lambda t: omega_from_mass(mass, omega0, t))
    raise ScenarioError(f"{where}.type: unknown frequency profile {kind!r}")


def _build_family(spec, where):
    return SolvableFamily(m0=_require(spec, "m0", float, where),
                          mu=_require(spec, "mu", float, where),
                          nu=_require(spec, "nu", float, where),
                          alpha=_require(spec, "alpha", float, where),
                          Omega0=_require(spec, "Omega0", float, where))


def _build_metric(spec, where):
    kind = _require(spec, "type", str, where)
    if kind == "constant":
        return MetricProfile.constant(_require(spec, "value", float, where))
    if kind == "from_generator":
        gen = _build_generator(_require(spec, "generator", dict, where), where + ".generator")
        return metric_from_generator(gen, _require(spec, "eps", float, where))
    if kind == "csv":
        data = _read_path(spec, where, lambda path: np.genfromtxt(
            path, delimiter=",", names=True))
        return MetricProfile.from_samples(data["x"], data["g"])
    raise ScenarioError(f"{where}.type: unknown metric {kind!r}")


def _build_grid(spec):
    where = "grid"
    n = _require(spec, "n", int, where)
    if "dx" in spec:
        return Grid(_require(spec, "x0", float, where),
                    _require(spec, "dx", float, where), n)
    return Grid.from_interval(_require(spec, "xmin", float, where),
                              _require(spec, "xmax", float, where), n)


def _build_state(spec, grid):
    where = "initial_state"
    kind = _require(spec, "kind", str, where)
    if kind == "gaussian":
        width = complex(_require(spec, "width_re", float, where),
                        _require(spec, "width_im", float, where, 0.0))
        state = GaussianState(a=width,
                              center=_require(spec, "center", float, where, 0.0),
                              momentum=_require(spec, "momentum", float, where, 0.0))
        psi = state.to_wavefunction(grid)
    elif kind == "csv":
        psi = _read_path(spec, where, wavefunction_from_csv)
        # the written grid is rebuilt to within a few ulps of its extent
        ulp = np.spacing(max(abs(grid.x0), abs(grid.xmax)))
        if psi.grid.n != grid.n or np.max(np.abs(psi.grid.x - grid.x)) > 4 * ulp:
            raise ScenarioError(f"{where}: CSV grid does not match the scenario grid")
        psi = WaveFunction(grid, psi.values)
    else:
        raise ScenarioError(f"{where}.kind: unknown state kind {kind!r}")
    if not psi.edge_decay_ok():
        raise ScenarioError(f"{where}: state does not decay at the grid edge")
    return psi.normalized()


def load_scenario(path):
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a JSON object")
    for key in ("system", "initial_state", "grid", "propagator"):
        _require(raw, key, dict, "scenario")
    return raw


# -- scenario execution ----------------------------------------------------------

def _outputs(scenario, outdir):
    """The output directory and formats, checked before anything runs."""
    outputs = _require(scenario, "outputs", dict, "scenario", {})
    directory = _require(outputs, "directory", str, "outputs", ".")
    if not directory:
        raise ScenarioError("outputs.directory: must not be empty")
    formats = _require(outputs, "formats", list, "outputs", list(OUTPUT_FORMATS))
    unknown = [f for f in formats if f not in OUTPUT_FORMATS]
    if unknown:
        raise ScenarioError(f"outputs.formats: unknown {unknown!r}; expected "
                            f"names from {', '.join(OUTPUT_FORMATS)}")
    directory = outdir or os.environ.get("CANONFLOW_OUT") or directory
    # makedirs runs after propagation: its nearest existing ancestor must be
    # a directory
    probe = os.path.abspath(directory)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ScenarioError(f"output directory {directory!r}: {probe!r} "
                            "exists and is not a directory")
    return directory, formats


def _row(t, state, fid, energy):
    """The CSV line of one stored state, read as it is: t, norm, fidelity, <x>,
    <p> and ``energy``'s value, each moment divided by its mass (``expectation``)."""
    return ",".join(_fmt(v) for v in (t, state.norm(), fid, expectation("x", state),
                                      expectation("p", state), energy(state)))


def run_scenario(path, outdir=None):
    """Execute a scenario file; returns (report dict, output paths)."""
    scenario = load_scenario(path)
    directory, formats = _outputs(scenario, outdir)
    grid = _build_grid(scenario["grid"])
    psi0 = _build_state(scenario["initial_state"], grid)
    prop = scenario["propagator"]
    method = _require(prop, "method", str, "propagator")
    dt = _require(prop, "dt", float, "propagator")
    t_final = _require(prop, "t_final", float, "propagator")
    if dt <= 0 or t_final <= 0:
        raise ScenarioError("propagator: dt and t_final must be positive")
    stride = _require(prop, "output_stride", int, "propagator", None)
    if stride is not None and stride < 1:
        raise ScenarioError("propagator.output_stride: must be at least 1")
    t_grid = uniform_time_grid(t_final, dt)

    system = scenario["system"]
    sys_kind = _require(system, "kind", str, "system")
    # each branch picks the trajectory and, per stored state, the reference
    # fidelity and the energy of the normalized state
    if sys_kind == "oscillator":
        exact = None
        if "family" in system:
            family = _build_family(_require(system, "family", dict, "system"),
                                   "system.family")
            mass = family.mass_profile()
            freq = family.frequency_profile()
            exact = ExactSolvablePropagator(family, psi0)
        else:
            mass = _build_mass(_require(system, "mass", dict, "system"),
                               "system.mass")
            freq = _build_frequency(_require(system, "frequency", dict, "system"),
                                    mass, "system.frequency")
        if method == "exact":
            if exact is None:
                raise ScenarioError(
                    "propagator.method 'exact' needs system.family")
            traj = exact.trajectory(t_grid, stride)
            fids = [1.0] * len(traj.states)     # each state is its own reference
        elif method == "split_step":
            traj = split_step_propagate(mass, freq, psi0, t_grid, stride=stride)
            fids = (None if exact is None else
                    [ref.fidelity(state)
                     for ref, state in zip(exact(traj.times), traj.states)])
        else:
            raise ScenarioError(f"propagator.method {method!r} not valid "
                                "for an oscillator system")
        # m and w at every stored time, from one call each
        hams = map(QuadraticHamiltonian.oscillator, mass.value(traj.times).tolist(),
                   freq.value(traj.times).tolist())
        energies = [functools.partial(expectation, ham) for ham in hams]
    elif sys_kind == "curved":
        if method != "crank_nicolson":
            raise ScenarioError("curved systems propagate with method "
                                "'crank_nicolson'")
        metric = _build_metric(_require(system, "metric", dict, "system"),
                               "system.metric")
        m = _require(system, "mass", float, "system")
        traj = crank_nicolson_curved(metric, m, psi0, t_grid, stride=stride)
        fids = None

        def energy(state):
            hv = apply_curved_kinetic(traj.bands, state.values)
            return float(_braket(state.values, hv, grid.dx).real / state.mass)
        energies = [energy] * len(traj.states)
    else:
        raise ScenarioError(f"system.kind: unknown system {sys_kind!r}")

    fids = fids or [float("nan")] * len(traj.states)
    lines = [TRAJECTORY_HEADER] + [_row(*row) for row in zip(traj.times, traj.states,
                                                             fids, energies)]

    report_dict = {"library_version": __version__, "scenario": scenario,
                   "report": dataclasses.asdict(traj.report)}
    texts = {"csv": ("trajectory.csv", "\n".join(lines) + "\n"),
             "json": ("report.json", json.dumps(report_dict, indent=2, sort_keys=True) + "\n"),
             "gnuplot": ("plot.gp", 'set datafile separator ","\n'
                                    'set key autotitle columnhead\n'
                                    'set xlabel "t"\n'
                                    'plot "trajectory.csv" using 1:4 with lines, \\\n'
                                    '     "trajectory.csv" using 1:5 with lines, \\\n'
                                    '     "trajectory.csv" using 1:6 with lines\n')}
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for fmt in OUTPUT_FORMATS:
        if fmt in formats:
            name, text = texts[fmt]
            paths[fmt] = os.path.join(directory, name)
            with open(paths[fmt], "w", newline="") as fh:
                fh.write(text)
    return report_dict, paths


# -- subcommand handlers -----------------------------------------------------------

def _generator_arg(args):
    """The generator named by ``--f`` (and ``--rate`` for exp-decay)."""
    return _build_generator({"type": args.f.replace("-", "_"),
                             "rate": args.rate}, "--f")


@np.errstate(all="ignore")
def _cmd_flow(args):
    xs = np.asarray(args.x, dtype=float)
    ev = flow_evaluate(_generator_arg(args), args.eps, xs)
    _finite(("x_out", "jacobian", "weight"), ev.x_out, *(ev.jacobian, ev.f2) if args.all else ())
    if args.all:
        out = [{"x": float(xi), "x_out": float(o), "jacobian": float(j),
                "weight": float(w)}
               for xi, o, j, w in zip(xs, ev.x_out, ev.jacobian, ev.f2)]
        print(json.dumps(out, indent=2))
    else:
        for val in ev.x_out:
            print(repr(float(val)))
    return 0


@np.errstate(all="ignore")
def _cmd_transform(args):
    ham = QuadraticHamiltonian(args.a, args.b, args.c)
    if args.op == "dilation":
        out = dilation_transform(ham, args.eps, args.deps)
    else:
        out = quadratic_phase_transform(ham, args.chi, args.dchi)
    _finite(("a", "b", "c"), out.a, out.b, out.c)
    print(json.dumps({"a": float(out.a), "b": float(out.b), "c": float(out.c)}))
    return 0


@np.errstate(all="ignore")
def _cmd_solvable(args):
    family = _build_family(vars(args), "solvable")
    ts = np.linspace(0.0, args.t_max, args.samples)
    mass = family.mass_profile()
    columns = (ts, *family.mass_with_derivatives(ts),
               omega_from_mass(mass, family.Omega0, ts),
               effective_frequency(mass, family.frequency_profile(), ts))
    return _print_csv("t,m,dm,ddm,omega,Omega", *columns)


@np.errstate(all="ignore")
def _cmd_metric(args):
    metric = metric_from_generator(_generator_arg(args), args.eps)
    xs = np.linspace(args.xmin, args.xmax, args.samples)
    if not args.invert:
        return _print_csv("x,g", xs, metric.check_positive(xs))
    rec = generator_from_metric(metric, args.eps, anchor=args.anchor,
                                working_interval=(args.xmin, args.xmax))
    return _print_csv("x,phi,f", xs, rec.flow(xs), rec.generator.f(xs))


def _cmd_propagate(args):
    report, paths = run_scenario(args.scenario, outdir=args.out)
    summary = {"outputs": paths, "report": report["report"]}
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args):
    from .verify import all_passed, run_suites

    results = run_suites(args.suite)
    payload = {name: [dataclasses.asdict(c) for c in checks]
               for name, checks in results.items()}
    ok = all_passed(results)
    print(json.dumps({"suites": payload, "all_passed": ok}, indent=2,
                     sort_keys=True))
    return 0 if ok else 1


@functools.cache
def build_parser():
    parser = _Parser(prog="canonflow",
                     description="Scaling-flow canonical transformations, "
                                 "solvable time-dependent oscillators, and "
                                 "metric equivalence tools.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", help="evaluate a generator's point map")
    p.add_argument("--f", required=True, choices=F_CHOICES)
    p.add_argument("--rate", type=float, default=1.0,
                   help="decay rate for exp-decay")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.add_argument("--all", action="store_true",
                   help="print map, Jacobian and weight as JSON")
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("transform", help="quadratic-Hamiltonian coefficient maps")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--op", choices=["dilation", "phase"], required=True)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--deps", type=float, default=0.0)
    p.add_argument("--chi", type=float, default=0.0)
    p.add_argument("--dchi", type=float, default=0.0)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("solvable", help="tabulate a solvable mass family")
    p.add_argument("--m0", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--Omega0", type=float, required=True)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--samples", type=int, default=11)
    p.set_defaults(func=_cmd_solvable)

    p = sub.add_parser("metric", help="metric <-> generator tools")
    p.add_argument("--f", required=True, choices=F_CHOICES)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--xmin", type=float, default=-4.0)
    p.add_argument("--xmax", type=float, default=4.0)
    p.add_argument("--samples", type=int, default=17)
    p.add_argument("--anchor", type=float, default=0.0)
    p.add_argument("--invert", action="store_true",
                   help="recover a generator from the metric instead")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("propagate", help="run a scenario file")
    p.add_argument("scenario", help="path to a JSON scenario")
    p.add_argument("--out", default=None, help="output directory override")
    p.set_defaults(func=_cmd_propagate)

    p = sub.add_parser("verify", help="run the bundled verification suites")
    p.add_argument("--suite", nargs="+", default=["all"],
                   choices=("all",) + SUITE_NAMES)
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, val in vars(args).items():
            if not all(np.isfinite(v) for v in np.ravel(val) if isinstance(v, float)):
                raise ValueError(f"--{key.replace('_', '-')}: must be finite")
        return args.func(args)
    except CanonflowError as exc:
        code = 64 if isinstance(exc, ScenarioError) else 2
        error = {"kind": exc.kind, "message": str(exc)}
        if exc.detail is not None:
            error["detail"] = exc.detail
    except ValueError as exc:
        # an argument value the library rejects, e.g. an empty interval
        code, error = 64, {"kind": "ValueError", "message": str(exc)}
    except OverflowError as exc:
        code, error = 2, {"kind": "OverflowError", "message": str(exc)}
    print(json.dumps({"error": error}))
    return code
