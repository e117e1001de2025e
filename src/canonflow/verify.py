"""Bundled verification suites.

Every operator identity and equivalence the package relies on has a check
here that recomputes it numerically against an independent route (closed
form vs adaptive flow, transform chain vs split-step, curved evolution vs
conjugated free evolution, ...).  Each check records its residual and
tolerance; ``kind="documented"`` entries record known formula discrepancies
rather than pass/fail conditions.  The CLI exposes these as
``canonflow verify --suite <name>`` and the acceptance tests drive the same
functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List

import numpy as np
# Loaded here, not first inside a suite's timed region (the library defers them).
import scipy.integrate  # noqa: F401
import scipy.interpolate  # noqa: F401
import scipy.linalg  # noqa: F401

from . import flowcore, gridspace, hamiltonians, metricmap, propagators
from .flowcore import GeneratorSpec, flow_evaluate
from .gridspace import GaussianState, Grid, verify_bracket_identities
from .hamiltonians import (QuadraticHamiltonian, SolvableFamily, TimeProfile,
                           dilation_transform, effective_frequency,
                           omega_from_mass, reduce_oscillator)
from .metricmap import (generator_from_metric, metric_from_generator,
                        verify_metric_equivalence)
from .propagators import (ExactSolvablePropagator, oscillator_spectrum,
                          split_step_propagate)


@dataclass
class Check:
    """One verification record."""

    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str = ""
    kind: str = "assert"       # "assert" or "documented"

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                "residual": float(self.residual),
                "tolerance": float(self.tolerance),
                "detail": self.detail, "kind": self.kind}


def _check(name, residual, tolerance, detail=""):
    return Check(name=name, passed=bool(residual <= tolerance),
                 residual=float(residual), tolerance=float(tolerance),
                 detail=detail)


def _sampled_pairs(kind, rng, count=100):
    """Exactly ``count`` in-domain (eps, x) samples per generator family."""
    draw = 4 * count
    if kind == "linear":
        eps = rng.uniform(-1.0, 1.0, draw)
        x = rng.uniform(-5.0, 5.0, draw)
        keep = np.ones(draw, dtype=bool)
    elif kind == "quadratic":
        eps = rng.uniform(0.02, 0.35, draw)
        x = rng.uniform(-2.0, 2.0, draw)
        keep = eps * x < 0.75
    else:  # exp_decay, rate 1
        eps = rng.uniform(-0.1, 1.0, draw)
        x = rng.uniform(-2.0, 2.0, draw)
        keep = np.exp(x) + eps > 0.05
    return eps[keep][:count], x[keep][:count]


_CUSTOM_TWINS = {
    "linear": lambda: GeneratorSpec.custom(lambda t: t, name="x (custom)"),
    "quadratic": lambda: GeneratorSpec.custom(lambda t: t * t,
                                              name="x^2 (custom)"),
    "exp_decay": lambda: GeneratorSpec.custom(lambda t: np.exp(-t),
                                              name="exp(-x) (custom)"),
}

_CLOSED = {
    "linear": GeneratorSpec.linear,
    "quadratic": GeneratorSpec.quadratic,
    "exp_decay": lambda: GeneratorSpec.exp_decay(1.0),
}


def suite_canonicality(rng=None):
    """|w * phi' - 1| for closed forms and for the same f via the adaptive flow."""
    rng = rng or np.random.default_rng(20240901)
    checks = []
    start = time.perf_counter()
    for kind in ("linear", "quadratic", "exp_decay"):
        eps, x = _sampled_pairs(kind, rng)
        ev = flow_evaluate(_CLOSED[kind](), eps, x)
        checks.append(_check(f"canonicality_closed_{kind}",
                             np.max(np.abs(ev.f2 * ev.jacobian - 1.0)), 1e-12,
                             f"{x.size} sampled (eps, x) pairs"))
        ev2 = flow_evaluate(_CUSTOM_TWINS[kind](), eps, x)
        checks.append(_check(f"canonicality_adaptive_{kind}",
                             np.max(np.abs(ev2.f2 * ev2.jacobian - 1.0)), 1e-8,
                             "same pairs through the adaptive flow"))
        checks.append(_check(f"flow_agreement_{kind}",
                             np.max(np.abs(ev.x_out - ev2.x_out)), 1e-8,
                             "closed-form map vs adaptive map"))
    checks.append(_check("canonicality_runtime_s",
                         time.perf_counter() - start, 1.0))
    return checks


def suite_closed_forms():
    """The closed-form transformation rules, pinned value by value."""
    checks = []
    lin = GeneratorSpec.linear()
    quad = GeneratorSpec.quadratic()
    exp1 = GeneratorSpec.exp_decay(1.0)

    checks.append(_check("linear_position_rule",
                         abs(flowcore.flow_map(lin, 0.5, 2.0) - 2.0 * np.exp(0.5)),
                         1e-12, "x' = e^eps x"))
    checks.append(_check("linear_momentum_weight",
                         abs(flowcore.conjugation_factor(lin, 0.5, 1.3)
                             - np.exp(-0.5)), 1e-12, "w = e^-eps"))
    checks.append(_check("quadratic_position_rule",
                         abs(flowcore.flow_map(quad, 0.25, 2.0) - 4.0), 1e-12,
                         "x' = x / (1 - eps x)"))
    checks.append(_check("quadratic_momentum_weight",
                         abs(flowcore.conjugation_factor(quad, 0.25, 2.0) - 0.25),
                         1e-12, "w = (1 - eps x)^2"))
    checks.append(_check("expdecay_position_rule",
                         abs(flowcore.flow_map(exp1, 0.5, 0.0) - np.log(1.5)),
                         1e-12, "x' = ln(e^x + eps)"))

    # flow-derived momentum weight, cross-checked against the adaptive flow
    xs = np.linspace(-1.5, 2.5, 9)
    w_closed = flowcore.conjugation_factor(exp1, 0.4, xs)
    w_flow = flow_evaluate(_CUSTOM_TWINS["exp_decay"](), 0.4, xs).f2
    checks.append(_check("expdecay_momentum_weight_flow_derived",
                         np.max(np.abs(w_closed - w_flow)), 1e-8,
                         "w = 1 + eps lam e^(-lam x), against the adaptive flow"))

    # The e^(+lam x) variant of that weight does not satisfy w * phi' = 1;
    # the discrepancy is documented, not resolved.
    w_variant = 1.0 + 0.4 * np.exp(xs)
    jac = flow_evaluate(exp1, 0.4, xs).jacobian
    dev_variant = float(np.max(np.abs(w_variant * jac - 1.0)))
    dev_flow = float(np.max(np.abs(w_closed * jac - 1.0)))
    checks.append(Check(
        name="expdecay_momentum_weight_variant_documented",
        passed=True, residual=dev_variant, tolerance=float("nan"),
        kind="documented",
        detail=("the variant weight 1 + eps e^(lam x)/lam deviates from the "
                f"canonical product by up to {dev_variant:.3g}, while the "
                f"flow-derived weight deviates by {dev_flow:.3g}; the "
                "flow-derived form is implemented")))

    # domain conditions are enforced, not clamped
    try:
        flowcore.flow_map(quad, 0.5, 3.0)
        checks.append(Check("quadratic_domain_enforced", False, 1.0, 0.0,
                            detail="finite-parameter escape not detected"))
    except flowcore.DomainBlowup:
        checks.append(Check("quadratic_domain_enforced", True, 0.0, 0.0,
                            detail="eps*x >= 1 raises DomainBlowup"))
    return checks


def suite_brackets():
    """Spectral-grid residuals of the two commutator identities."""
    checks = []
    start = time.perf_counter()
    one = GeneratorSpec.custom(
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        dfunc=lambda x: np.zeros_like(np.asarray(x, dtype=float)), name="1")

    sym_grid = Grid.from_interval(-10.0, 10.0, 256)
    sym_probes = [GaussianState(a=1.0).to_wavefunction(sym_grid),
                  GaussianState(a=0.9, center=0.5, momentum=1.0).to_wavefunction(sym_grid),
                  GaussianState(a=1.4, center=-0.4, momentum=-0.7).to_wavefunction(sym_grid)]
    # the e^(-x) pair needs left-edge margin: {e^(-x), p} psi has a fatter
    # left tail than psi and must still decay at the boundary
    right_grid = Grid.from_interval(-5.5, 9.0, 256)
    right_probes = [GaussianState(a=16.0 / 9.0, center=1.5).to_wavefunction(right_grid),
                    GaussianState(a=16.0 / 9.0, center=2.0, momentum=1.2).to_wavefunction(right_grid),
                    GaussianState(a=2.2, center=1.0, momentum=-0.8).to_wavefunction(right_grid)]

    cases = [("x_x2", GeneratorSpec.linear(), GeneratorSpec.quadratic(),
              sym_grid, sym_probes),
             ("x2_expdecay", GeneratorSpec.quadratic(), GeneratorSpec.exp_decay(1.0),
              right_grid, right_probes),
             ("x_const", GeneratorSpec.linear(), one, sym_grid, sym_probes)]
    for label, f1, f2, grid, probes in cases:
        rep = verify_bracket_identities(f1, f2, grid, probes)
        checks.append(_check(f"bracket_multiplication_{label}",
                             rep.multiplication_identity, 1e-8))
        checks.append(_check(f"bracket_generator_{label}",
                             rep.generator_identity, 1e-8))
    checks.append(_check("bracket_runtime_s", time.perf_counter() - start, 5.0))
    return checks


def suite_reduction():
    """Composed coefficient transforms send the family to a static oscillator."""
    checks = []
    fam = SolvableFamily(m0=1.0, mu=0.5, nu=0.5, alpha=0.3, Omega0=2.0)
    mass = fam.mass_profile()
    omega = fam.frequency_profile()
    m0 = fam.static_mass()
    ts = np.linspace(0.0, 5.0, 41)
    worst = 0.0
    for t in ts:
        red, _, _ = reduce_oscillator(mass, omega, float(t), m0=m0)
        worst = max(worst,
                    abs(red.a - 1.0 / (2.0 * m0)),
                    abs(red.b - 0.5 * m0 * fam.Omega0 ** 2),
                    abs(red.c))
    checks.append(_check("reduction_constant_coefficients", worst, 1e-10,
                         "mu=nu=0.5, alpha=0.3, Omega0=2 over t in [0, 5]"))
    checks.append(_check("family_frequency",
                         abs(fam.omega - np.sqrt(4.09)), 1e-12))
    return checks


def suite_solvability(rng=None):
    """Constancy condition residuals for random families, both derivative routes."""
    rng = rng or np.random.default_rng(7)
    checks = []
    ts = np.linspace(0.0, 3.0, 13)
    worst_closed = worst_fd = worst_omega = 0.0
    for _ in range(20):
        fam = SolvableFamily(m0=1.0, mu=rng.uniform(0.2, 1.0),
                             nu=rng.uniform(0.2, 1.0),
                             alpha=rng.uniform(0.1, 0.5), Omega0=1.0)
        worst_closed = max(worst_closed, float(np.max(fam.constancy_residual(ts))))

        mass_fd = TimeProfile.from_callable(
            lambda t, f=fam: f.mass_with_derivatives(t)[0])
        _, de, dde = hamiltonians.mass_epsilon(mass_fd.value(ts), mass_fd.d1(ts),
                                               mass_fd.d2(ts), fam.static_mass())
        resid_fd = np.abs(dde - de ** 2 + fam.alpha ** 2)
        worst_fd = max(worst_fd, float(np.max(resid_fd)))

        om = omega_from_mass(fam.mass_profile(), fam.Omega0, ts)
        worst_omega = max(worst_omega, float(np.max(np.abs(om - fam.omega))))
    checks.append(_check("constancy_residual_closed", worst_closed, 1e-8,
                         "20 random families, closed-form derivatives"))
    checks.append(_check("constancy_residual_finite_difference", worst_fd, 1e-6))
    checks.append(_check("matched_frequency_constant", worst_omega, 1e-8,
                         "omega from the mass profile stays constant in t"))
    return checks


def suite_propagation():
    """Exponential-mass (Caldirola-Kanai) scenario: exact chain vs split-step."""
    checks = []
    fam = SolvableFamily.caldirola_kanai(gamma=0.2, omega0=np.sqrt(1.01))
    grid = Grid.from_interval(-12.0, 12.0, 2048)
    psi0 = GaussianState(a=1.0, center=1.0).to_wavefunction(grid)

    start = time.perf_counter()
    exact = ExactSolvablePropagator(fam, psi0)
    final_exact = exact(5.0)
    traj = split_step_propagate(fam.mass_profile(), fam.frequency_profile(),
                                psi0, np.linspace(0.0, 5.0, 5001))
    wall = time.perf_counter() - start

    fid = final_exact.fidelity(traj.final)
    checks.append(_check("ck_exact_vs_split_step_infidelity", 1.0 - fid, 1e-6,
                         f"fidelity {fid:.12f} at T=5"))
    checks.append(_check("ck_norm_drift", traj.report.max_norm_drift, 1e-8))
    checks.append(_check("ck_runtime_s", wall, 10.0))
    checks.append(_check("ck_exact_unitarity",
                         abs(final_exact.norm() - 1.0), 1e-8))
    return checks


def suite_spectrum():
    """Finite-difference spectrum of the reduced oscillator and phase cross-check."""
    checks = []
    grid = Grid.from_interval(-10.0, 10.0, 1024)
    ham = QuadraticHamiltonian.oscillator(1.0, 1.0)
    vals = oscillator_spectrum(ham, grid, k=8)
    target = np.arange(8) + 0.5
    checks.append(_check("oscillator_spectrum_relative",
                         float(np.max(np.abs(vals - target) / target)), 1e-4,
                         "first 8 levels of the n=1024 grid assembly"))

    # the top basis function's turning point needs clearance from the edge,
    # so the eigenbasis checks run on a wider grid than the eigensolve
    wide = Grid.from_interval(-12.0, 12.0, 1024)
    basis = propagators.HermiteBasis(40, 1.0, 1.0, wide)
    checks.append(_check("hermite_gram_residual", basis.gram_residual(), 1e-8))
    psi0 = GaussianState(a=1.3 - 0.2j, center=0.6, momentum=0.5).to_wavefunction(wide)
    evolved = propagators.hermite_propagate(psi0, basis, 1.0)
    traj = split_step_propagate(TimeProfile.constant(1.0),
                                TimeProfile.constant(1.0), psi0,
                                np.linspace(0.0, 1.0, 2001))
    fid = evolved.fidelity(traj.final)
    checks.append(_check("hermite_vs_split_step_infidelity", 1.0 - fid, 1e-7))
    return checks


def suite_metric_equivalence():
    """Curved Crank-Nicolson vs conjugated free evolution, plus step-order check."""
    checks = []
    start = time.perf_counter()
    gen = GeneratorSpec.exp_decay(1.0)
    grid = Grid.from_interval(-4.0, 20.0, 2048)
    psi0 = GaussianState(a=1.0, center=4.0, momentum=0.5).to_wavefunction(grid)
    rep = verify_metric_equivalence(gen, 0.4, psi0, 1.0, dt=1e-3)
    checks.append(_check("equivalence_infidelity", 1.0 - rep.fidelity, 1e-4,
                         f"fidelity {rep.fidelity:.10f}"))
    checks.append(_check("curved_norm_drift", rep.curved_norm_drift, 1e-10))

    # the equivalence run above is the dt = 1e-3 leg
    metric = metric_from_generator(gen, 0.4)
    finals = [rep.curved_final.values]
    for dt in (5e-4, 2.5e-4):
        steps = int(round(1.0 / dt))
        tr = propagators.crank_nicolson_curved(metric, 1.0, psi0,
                                               np.linspace(0.0, 1.0, steps + 1))
        finals.append(tr.final.values)
    d1 = np.sqrt(grid.dx * np.sum(np.abs(finals[0] - finals[1]) ** 2))
    d2 = np.sqrt(grid.dx * np.sum(np.abs(finals[1] - finals[2]) ** 2))
    ratio = d1 / d2
    checks.append(Check("cayley_step_order_ratio", bool(3.0 <= ratio <= 5.0),
                        float(ratio), 4.0,
                        detail="dt-halving error ratio, expect about 4"))
    checks.append(_check("metric_equivalence_runtime_s",
                         time.perf_counter() - start, 30.0))
    return checks


def suite_metric_inverse():
    """Round trip metric -> generator -> metric and flow-map recovery."""
    checks = []
    gen = GeneratorSpec.exp_decay(1.0)
    metric = metric_from_generator(gen, 0.4)
    rec = generator_from_metric(metric, 0.4, anchor=0.0,
                                working_interval=(-4.0, 4.0))
    xs = np.linspace(-4.0, 4.0, 81)
    true_phi = np.log(np.exp(xs) + 0.4)
    checks.append(_check("flow_map_recovery_sup",
                         float(np.max(np.abs(rec.flow(xs) - true_phi))), 1e-6,
                         "against the known flow of e^(-x) at eps=0.4"))

    sample = np.linspace(-4.0, 4.0, 17)
    ev = flow_evaluate(rec.generator, 0.4, sample, with_jacobian=False,
                       rtol=1e-12, atol=1e-14)
    g_rt = np.asarray(ev.f2) ** -2.0
    g_ref = metric.g(sample)
    checks.append(_check("metric_round_trip_sup",
                         float(np.max(np.abs(g_rt - g_ref) / g_ref)), 1e-6,
                         "adaptive flow of the reconstructed generator"))
    checks.append(_check("reconstructed_flow_reproduced",
                         float(np.max(np.abs(ev.x_out - rec.flow(sample)))), 1e-6))
    return checks


def suite_gauge_affine():
    """Mass-scale invariance of the effective frequency; affine law of the
    transform."""
    checks = []
    fam = SolvableFamily(m0=1.0, mu=0.7, nu=0.4, alpha=0.25, Omega0=1.5)
    ts = np.linspace(0.0, 4.0, 17)
    om1, om2 = (effective_frequency(f.mass_profile(), f.frequency_profile(), ts)
                for f in (fam, replace(fam, m0=2.0)))
    checks.append(_check("effective_frequency_gauge", float(np.max(np.abs(om1 - om2))),
                         1e-12, "m -> 2 m leaves Omega(t) unchanged"))

    h1 = QuadraticHamiltonian(0.3, 0.7, 0.1)
    h2 = QuadraticHamiltonian(0.5, 0.2, -0.4)
    hsum = QuadraticHamiltonian(h1.a + h2.a, h1.b + h2.b, h1.c + h2.c)

    def gap(deps):
        left = dilation_transform(hsum, 0.3, deps)
        r1 = dilation_transform(h1, 0.3, deps)
        r2 = dilation_transform(h2, 0.3, deps)
        return max(abs(left.a - r1.a - r2.a), abs(left.b - r1.b - r2.b),
                   abs(left.c - r1.c - r2.c))

    checks.append(_check("dilation_additive_when_static", gap(0.0), 1e-14,
                         "deps = 0: the transform is linear"))
    gap_moving = gap(0.2)
    checks.append(Check("dilation_affine_when_moving",
                        bool(abs(gap_moving - 0.2) < 1e-14), gap_moving, 0.2,
                        detail="deps = 0.2: additivity fails by exactly deps "
                               "(the inhomogeneous shift)"))
    return checks


SUITES: Dict[str, Callable[[], List[Check]]] = {
    "canonicality": suite_canonicality,
    "closed_forms": suite_closed_forms,
    "brackets": suite_brackets,
    "reduction": suite_reduction,
    "solvability": suite_solvability,
    "propagation": suite_propagation,
    "spectrum": suite_spectrum,
    "metric_equivalence": suite_metric_equivalence,
    "metric_inverse": suite_metric_inverse,
    "gauge_affine": suite_gauge_affine,
}


def run_suites(names=None):
    """Run the requested suites (all by default); returns {name: [Check, ...]}."""
    if names is None or names == ["all"]:
        names = list(SUITES)
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    return {name: SUITES[name]() for name in names}


def all_passed(results):
    return all(c.passed for checks in results.values() for c in checks)
