"""Tests for the free-particle <-> curved-metric correspondence."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from canonflow import metricmap
from canonflow.errors import FixedPointInInterval, NonMonotoneFlow, SingularMetric
from canonflow.flowcore import GeneratorSpec, conjugation_factor, flow_evaluate
from canonflow.gridspace import (GaussianState, Grid, WaveFunction,
                                 apply_point_unitary)
from canonflow.metricmap import (FlowTable, MetricProfile, curved_hamiltonian,
                                 generator_from_metric, metric_from_generator,
                                 verify_metric_equivalence)
from canonflow.propagators import apply_curved_kinetic, curved_kinetic_diagonals

EXP1 = GeneratorSpec.exp_decay(1.0)
QUAD = GeneratorSpec.quadratic()
LIN = GeneratorSpec.linear()


class TestMetricFromGenerator:
    def test_quadratic_closed_form(self):
        metric = metric_from_generator(QUAD, 0.2)
        xs = np.array([-2.0, 0.0, 1.0, 3.0])
        assert np.allclose(metric.g(xs), (1.0 - 0.2 * xs) ** -4, rtol=1e-13)

    def test_zero_parameter_flat(self):
        metric = metric_from_generator(EXP1, 0.0)
        assert np.allclose(metric.g(np.linspace(-3, 3, 7)), 1.0, atol=1e-14)

    def test_expdecay_flow_derived(self):
        # oracle: g = (f / f(phi))^-2 with phi integrated independently
        from scipy.integrate import solve_ivp
        xs = np.array([-1.0, 0.0, 2.0])
        metric = metric_from_generator(EXP1, 0.4)
        for x in xs:
            sol = solve_ivp(lambda s, y: np.exp(-y), (0.0, 0.4), [x],
                            rtol=1e-12, atol=1e-14)
            w = np.exp(-x) / np.exp(-sol.y[0, -1])
            assert metric.g(x) == pytest.approx(w ** -2, rel=1e-9)
        assert np.allclose(metric.g(xs), (1.0 + 0.4 * np.exp(-xs)) ** -2,
                           rtol=1e-13)

    def test_linear_constant_metric(self):
        metric = metric_from_generator(LIN, 0.3)
        assert np.allclose(metric.g(np.linspace(-2, 2, 5)), np.exp(0.6), rtol=1e-13)


def gaussian_probes(grid, specs):
    return [GaussianState(a=a, center=c, momentum=p).to_wavefunction(grid).values
            for a, c, p in specs]


class TestCurvedMatrix:
    """The curved operator in its spectral (FFT-applied) and banded fd forms."""

    GRID = Grid.from_interval(-5.0, 5.0, 64)
    PROBES = gaussian_probes(GRID, [(1.0, 0.0, 0.0), (1.5, 0.8, 0.7), (2.0, -0.5, -1.0)])

    def test_flat_equals_flat(self):
        h1 = curved_hamiltonian(MetricProfile.constant(1.0), 1.0, self.GRID)
        h2 = curved_hamiltonian(MetricProfile.from_callable(lambda x: 1.0 + 0.0 * x),
                                1.0, self.GRID)
        for v in self.PROBES:
            assert np.max(np.abs(h1(v) - h2(v))) == 0.0

    def test_constant_metric_scaling(self):
        # classical kinetic term p^2/(2 m g): g = 4 scales it by 1/4
        h4 = curved_hamiltonian(MetricProfile.constant(4.0), 1.0, self.GRID)
        h1 = curved_hamiltonian(MetricProfile.constant(1.0), 1.0, self.GRID)
        for v in self.PROBES:
            assert np.max(np.abs(h4(v) - 0.25 * h1(v))) < 1e-14

    def test_hermitian_by_construction(self):
        metric = metric_from_generator(EXP1, 0.4)
        grid = Grid.from_interval(-3.0, 8.0, 80)
        # banded fd: unit-vector probes read single entries, which pair exactly
        kinetic = curved_kinetic_diagonals(metric.check_positive(grid.x), 1.0, grid.dx)
        entries = np.array([apply_curved_kinetic(kinetic, e) for e in np.eye(grid.n)])
        assert np.max(np.abs(entries - entries.T)) == 0.0
        # spectral: <u|H v> = conj <v|H u> on Gaussian probes
        h_sp = curved_hamiltonian(metric, 1.0, grid)
        probes = gaussian_probes(grid, [(1.0, 2.0, 0.0), (1.5, 3.0, 0.8), (2.0, 2.5, -0.6)])
        for u in probes:
            for v in probes:
                gap = np.vdot(u, h_sp(v)) - np.conj(np.vdot(v, h_sp(u)))
                assert abs(grid.dx * gap) < 1e-14

    def test_positive_required(self):
        with pytest.raises(SingularMetric):
            curved_hamiltonian(
                MetricProfile.from_callable(lambda x: np.asarray(x)), 1.0, self.GRID)

    @pytest.mark.parametrize("gen,eps", [(LIN, 0.3), (EXP1, 0.4)])
    def test_conjugation_identity(self, gen, eps):
        # H_g psi = U H_free U^dag psi on smooth probes, spectral form
        grid = Grid.from_interval(-6.0, 14.0, 320)
        hg = curved_hamiltonian(metric_from_generator(gen, eps), 1.0, grid)
        hfree = curved_hamiltonian(MetricProfile.constant(1.0), 1.0, grid)
        probes = [GaussianState(a=2.0, center=c, momentum=p).to_wavefunction(grid)
                  for c, p in [(3.5, 0.0), (4.5, 1.0), (4.0, -0.8)]]
        for probe in probes:
            lhs = hg(probe.values)
            staged = apply_point_unitary(gen, -eps, probe, leak_tol=1e-8)
            rhs = apply_point_unitary(gen, eps,
                                      WaveFunction(grid, hfree(staged.values)),
                                      leak_tol=1e-4)
            num = np.sqrt(grid.dx * np.sum(np.abs(lhs - rhs.values) ** 2))
            den = np.sqrt(grid.dx * np.sum(np.abs(lhs) ** 2))
            assert num / den < 1e-6


class TestGeneratorFromMetric:
    def test_flat_gives_shift_flow(self):
        rec = generator_from_metric(MetricProfile.constant(1.0), 0.5,
                                    anchor=0.0, working_interval=(-3.0, 3.0))
        xs = np.linspace(-3.0, 3.0, 13)
        shift = rec.seed_value
        assert shift > 0
        assert np.max(np.abs(rec.flow(xs) - xs - shift)) < 1e-12
        fvals = rec.generator.f(np.linspace(-3.0, 3.0, 11))
        assert np.max(np.abs(fvals - shift / 0.5)) < 1e-10   # constant generator
        w = conjugation_factor(rec.generator, 0.5, xs)
        assert np.max(np.abs(np.asarray(w) ** -2.0 - 1.0)) < 1e-9

    @pytest.mark.parametrize("value", [0.25, 1.0, 2.0, 4.0])
    def test_flat_sweep_no_zero_width_piece(self, value):
        # with g = 1 a junction of the anchor orbit can land within rounding
        # of the generator's domain end; that must not leave an empty piece
        for (lo, hi), eps in itertools.product([(-3.0, 3.0), (-4.0, 1.0)], [0.5, -0.5]):
            for anchor in (lo, 0.5 * (lo + hi), hi):
                rec = generator_from_metric(MetricProfile.constant(value), eps,
                                            anchor=anchor, working_interval=(lo, hi))
                xs = np.linspace(lo, hi, 9)
                drift = rec.flow(xs) - np.sqrt(value) * xs - rec.flow(0.0)
                assert np.max(np.abs(drift)) <= 1e-11

    def test_expdecay_recovers_true_flow(self):
        metric = metric_from_generator(EXP1, 0.4)
        rec = generator_from_metric(metric, 0.4, anchor=0.0,
                                    working_interval=(-4.0, 4.0))
        xs = np.linspace(-4.0, 4.0, 81)
        assert np.max(np.abs(rec.flow(xs) - np.log(np.exp(xs) + 0.4))) < 1e-6

    def test_expdecay_round_trip(self):
        metric = metric_from_generator(EXP1, 0.4)
        rec = generator_from_metric(metric, 0.4, anchor=0.0,
                                    working_interval=(-4.0, 4.0))
        calls = []

        def counted(x):
            calls.append(1)
            return rec.generator.func(x)

        xs = np.linspace(-4.0, 4.0, 17)
        ev = flow_evaluate(dataclasses.replace(rec.generator, func=counted), 0.4, xs,
                           with_jacobian=False, rtol=1e-12, atol=1e-14)
        g_rt = np.asarray(ev.f2) ** -2.0
        assert np.max(np.abs(g_rt - metric.g(xs)) / metric.g(xs)) < 1e-6
        assert np.max(np.abs(ev.x_out - rec.flow(xs))) < 1e-6
        # cost guard: a smooth generator needs no rejected steps at the
        # ~300 anchor-orbit junctions the adaptive flow crosses
        assert len(calls) <= 1000

    def test_expdecay_node_cost(self, monkeypatch):
        # cost guard: each spline node costs one map call, so the ~300
        # pieces where the exp-decay orbit piles up cost no inverse calls
        inverse = FlowTable.inverse
        points = []

        def counted(self, y):
            points.append(np.size(y))
            return inverse(self, y)

        monkeypatch.setattr(FlowTable, "inverse", counted)
        generator_from_metric(metric_from_generator(EXP1, 0.4), 0.4, anchor=0.0,
                              working_interval=(-4.0, 4.0))
        assert 0 < sum(points) <= 2000

    def test_orbit_sweep_limit_raises(self, monkeypatch):
        monkeypatch.setattr(metricmap, "MAX_JUNCTIONS", 3)
        with pytest.raises(FixedPointInInterval):
            generator_from_metric(metric_from_generator(EXP1, 0.4), 0.4, anchor=0.0,
                                  working_interval=(-4.0, 4.0))

    def test_unordered_nodes_raise_typed_error(self, monkeypatch):
        # an inverse that does not keep the order of its arguments leaves
        # nodes that CubicSpline would reject with a bare ValueError
        inverse = FlowTable.inverse
        monkeypatch.setattr(FlowTable, "inverse",
                            lambda self, y: np.flip(inverse(self, y)))
        with pytest.raises(NonMonotoneFlow):
            generator_from_metric(metric_from_generator(EXP1, 0.4), 0.4, anchor=0.0,
                                  working_interval=(-4.0, 4.0))

    @pytest.mark.xfail(strict=True, reason="borderline displacement: phi(anchor) "
                       "is read at the extension's outer edge, 2.2e-5 off here")
    def test_borderline_displacement_recovers_true_flow(self):
        metric = metric_from_generator(EXP1, 0.8)
        rec = generator_from_metric(metric, 0.8, anchor=0.0,
                                    working_interval=(-2.0, 3.0))
        xs = np.linspace(-2.0, 3.0, 51)
        assert np.max(np.abs(rec.flow(xs) - np.log(np.exp(xs) + 0.8))) < 1e-6

    @pytest.mark.parametrize("eps", [0.4, 0.8])
    def test_expdecay_recovers_generator(self, eps):
        # an exp-decay metric seeds a linear log|f|: f = e^(-x) itself
        metric = metric_from_generator(EXP1, eps)
        rec = generator_from_metric(metric, eps, anchor=0.0,
                                    working_interval=(-4.0, 4.0))
        xs = np.linspace(-4.0, 4.0, 161)
        assert np.max(np.abs(rec.generator.f(xs) * np.exp(xs) - 1.0)) < 1e-4

    def test_variational_jacobian_meaningful(self):
        # jacobian (variational equation, reads f') times w = f(x)/f(phi) is 1
        for gen, metric_eps, eps, interval in [(EXP1, 0.4, 0.4, (-4.0, 4.0)),
                                               (QUAD, 0.2, 0.2, (-3.0, 3.0)),
                                               (EXP1, 0.4, -0.3, (-2.0, 2.0))]:
            rec = generator_from_metric(metric_from_generator(gen, metric_eps), eps,
                                        anchor=0.0, working_interval=interval)
            ev = flow_evaluate(rec.generator, eps, np.linspace(*interval, 13),
                               with_jacobian=True, rtol=1e-12, atol=1e-14)
            assert np.max(np.abs(ev.jacobian * ev.f2 - 1.0)) <= 1e-6

    def test_quadratic_round_trip(self):
        metric = metric_from_generator(QUAD, 0.2)
        rec = generator_from_metric(metric, 0.2, anchor=0.0,
                                    working_interval=(-3.0, 3.0))
        xs = np.linspace(-3.0, 3.0, 13)
        w = conjugation_factor(rec.generator, 0.2, xs, rtol=1e-12, atol=1e-14)
        g_rt = np.asarray(w) ** -2.0
        assert np.max(np.abs(g_rt - metric.g(xs)) / metric.g(xs)) < 1e-6

    def test_downward_flow_round_trip(self):
        metric = metric_from_generator(EXP1, 0.4)
        rec = generator_from_metric(metric, -0.3, anchor=0.0,
                                    working_interval=(-2.0, 2.0))
        xs = np.linspace(-2.0, 2.0, 9)
        w = conjugation_factor(rec.generator, -0.3, xs, rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(np.asarray(w) ** -2.0 - metric.g(xs))
                      / metric.g(xs)) < 1e-6

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            generator_from_metric(MetricProfile.constant(1.0), 0.0,
                                  anchor=0.0, working_interval=(-1.0, 1.0))

    def test_metric_csv_round_trip(self, tmp_path):
        xs = np.linspace(-5.0, 5.0, 201)
        gs = (1.0 + 0.4 * np.exp(-xs)) ** -2
        metric = MetricProfile.from_samples(xs, gs)
        probe = np.linspace(-3.0, 3.0, 11)
        assert np.max(np.abs(metric.g(probe) - (1.0 + 0.4 * np.exp(-probe)) ** -2)) < 1e-8


@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(eps=st.floats(0.25, 0.8), interval=st.sampled_from([(-4.0, 4.0), (-2.0, 3.0)]))
def test_expdecay_inverse_property(eps, interval):
    metric = metric_from_generator(EXP1, eps)
    rec = generator_from_metric(metric, eps, anchor=0.0, working_interval=interval)
    xs = np.linspace(*interval, 17)
    ev = flow_evaluate(rec.generator, eps, xs, with_jacobian=True,
                       rtol=1e-12, atol=1e-14)
    g_ref = metric.g(xs)
    assert np.max(np.abs(ev.f2 ** -2.0 - g_ref) / g_ref) <= 1e-6
    assert np.max(np.abs(ev.jacobian * ev.f2 - 1.0)) <= 1e-6
    # the Abel relation f(phi(x)) = f(x) phi'(x), densely on the interval
    dense = np.linspace(*interval, 401)
    f = rec.generator.f
    assert np.max(np.abs(f(rec.flow(dense)) / (f(dense) * rec.flow.derivative(dense))
                         - 1.0)) <= 1e-6


class TestEquivalence:
    def test_zero_parameter_paths_identical(self):
        grid = Grid.from_interval(-10.0, 10.0, 2048)
        psi = GaussianState(a=0.5, momentum=0.25).to_wavefunction(grid)
        rep = verify_metric_equivalence(LIN, 0.0, psi, 0.5, dt=2e-4)
        assert rep.fidelity > 1.0 - 1e-10

    def test_expdecay_equivalence(self):
        grid = Grid.from_interval(-4.0, 20.0, 2048)
        psi = GaussianState(a=1.0, center=4.0, momentum=0.5).to_wavefunction(grid)
        rep = verify_metric_equivalence(EXP1, 0.4, psi, 1.0, dt=1e-3)
        assert rep.fidelity > 1.0 - 1e-4
        assert rep.curved_norm_drift < 1e-10

    def test_linear_equivalence_rescaled_kinetic(self):
        # constant metric e^(2 eps): uniformly slower free motion
        grid = Grid.from_interval(-14.0, 14.0, 1024)
        psi = GaussianState(a=1.0, momentum=0.5).to_wavefunction(grid)
        rep = verify_metric_equivalence(LIN, 0.3, psi, 1.0, dt=1e-3)
        assert rep.fidelity > 1.0 - 1e-4

