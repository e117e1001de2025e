"""Tests for the quadratic-coefficient algebra and the solvable mass family."""

import dataclasses
import functools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from canonflow.errors import (ImaginaryFrequency, MassZeroCrossing,
                              NegativeRadicand)
from canonflow.flowcore import GeneratorSpec
from canonflow.hamiltonians import (QuadraticHamiltonian, SolvableFamily,
                                    TimeProfile, dilation_transform,
                                    effective_frequency, general_f_transform,
                                    mass_epsilon, omega_from_mass,
                                    quadratic_phase_transform,
                                    reduce_oscillator)


def nc_coefficients(expr, x, p):
    """Extract (a, b, c) from a noncommutative quadratic in x, p.

    The expression must reduce to a*p**2 + b*x**2 + (c/2)*(x*p + p*x); no
    commutator reduction is applied, so the caller's substitutions must keep
    the operator symmetrized (they do: x and p enter through x' = s*x,
    p' = p/s or p'' = p + chi*x, which preserve the anticommutator form).
    """
    expr = sp.expand(expr)
    a = expr.coeff(p ** 2)
    b = expr.coeff(x ** 2)
    cxp = expr.coeff(x * p)
    cpx = expr.coeff(p * x)
    assert sp.simplify(cxp - cpx) == 0, "operator not symmetrized"
    rest = sp.expand(expr - a * p ** 2 - b * x ** 2 - cxp * (x * p + p * x))
    assert sp.simplify(rest) == 0
    return sp.simplify(a), sp.simplify(b), sp.simplify(2 * cxp)


PARAMS = sp.symbols("a b c epsilon depsilon chi dchi", real=True)


@functools.cache
def symbolic_image(transform):
    """(a, b, c) of H = a p^2 + b x^2 + (c/2){x,p} after the transform, derived
    by substitution into the noncommutative quadratic."""
    x, p = sp.symbols("x p", commutative=False)
    a, b, c, eps, deps, chi, dchi = PARAMS
    if transform == "dilation":
        # x -> e^eps x, p -> e^-eps p and the -(deps/2){x,p} drive
        xp, pp, drive = sp.exp(eps) * x, sp.exp(-eps) * p, -(deps / 2) * (x * p + p * x)
    else:
        # p -> p + chi x and the (dchi/2) x^2 drive
        xp, pp, drive = x, p + chi * x, (dchi / 2) * x ** 2
    image = a * pp ** 2 + b * xp ** 2 + (c / 2) * (xp * pp + pp * xp) + drive
    return nc_coefficients(image, x, p)


@functools.cache
def numeric_image(transform):
    return sp.lambdify(PARAMS, symbolic_image(transform), "numpy")


coefficient = st.floats(-2.0, 2.0)


@settings(derandomize=True, database=None, deadline=2000, max_examples=60)
@given(a=coefficient, b=coefficient, c=coefficient, eps=st.floats(-1.0, 1.0),
       deps=coefficient, chi=coefficient, dchi=coefficient)
def test_affine_laws_property(a, b, c, eps, deps, chi, dchi):
    ham = QuadraticHamiltonian(a, b, c)
    for transform, out in (("dilation", dilation_transform(ham, eps, deps)),
                           ("phase", quadratic_phase_transform(ham, chi, dchi))):
        expected = numeric_image(transform)(a, b, c, eps, deps, chi, dchi)
        got = (out.a, out.b, out.c)
        assert np.max(np.abs(np.subtract(got, expected))) < 1e-13 * (1.0 + np.max(np.abs(got)))


class TestDilationTransform:
    def test_symbolic_oracle(self):
        a, b, c, eps, deps, _, _ = PARAMS
        ao, bo, co = symbolic_image("dilation")
        assert sp.simplify(ao - a * sp.exp(-2 * eps)) == 0
        assert sp.simplify(bo - b * sp.exp(2 * eps)) == 0
        assert sp.simplify(co - (c - deps)) == 0

    def test_oscillator_values(self):
        out = dilation_transform(QuadraticHamiltonian.oscillator(1.0, 1.0), 0.1, 0.2)
        assert out.a == pytest.approx(0.4093653765389909, abs=1e-12)
        assert out.b == pytest.approx(0.6107013790800849, abs=1e-12)
        assert out.c == pytest.approx(-0.2, abs=1e-15)

    def test_identity(self):
        ham = QuadraticHamiltonian(0.3, 0.7, -0.1)
        assert dilation_transform(ham, 0.0, 0.0) == ham

    def test_static_transform_preserves_ab_product(self):
        ham = QuadraticHamiltonian(0.3, 0.7, 0.0)
        out = dilation_transform(ham, 0.8, 0.0)
        assert out.a * out.b == pytest.approx(ham.a * ham.b, rel=1e-14)
        assert out.c == ham.c

    def test_affine_not_linear(self):
        h1 = QuadraticHamiltonian(0.3, 0.7, 0.1)
        h2 = QuadraticHamiltonian(0.5, 0.2, -0.4)
        hsum = QuadraticHamiltonian(h1.a + h2.a, h1.b + h2.b, h1.c + h2.c)
        lhs = dilation_transform(hsum, 0.3, 0.2)
        r1 = dilation_transform(h1, 0.3, 0.2)
        r2 = dilation_transform(h2, 0.3, 0.2)
        assert abs(lhs.c - (r1.c + r2.c)) == pytest.approx(0.2, abs=1e-14)
        lhs0 = dilation_transform(hsum, 0.3, 0.0)
        r10 = dilation_transform(h1, 0.3, 0.0)
        r20 = dilation_transform(h2, 0.3, 0.0)
        assert lhs0.c == pytest.approx(r10.c + r20.c, abs=1e-15)


class TestQuadraticPhaseTransform:
    def test_symbolic_oracle(self):
        a, b, c, _, _, chi, dchi = PARAMS
        ao, bo, co = symbolic_image("phase")
        assert sp.simplify(ao - a) == 0
        assert sp.simplify(bo - (b + a * chi ** 2 + c * chi + dchi / 2)) == 0
        assert sp.simplify(co - (c + 2 * a * chi)) == 0

    def test_oracle_values(self):
        # frozen from the symbolic oracle above with (0.5, 0.5, 0, chi=1)
        out = quadratic_phase_transform(QuadraticHamiltonian(0.5, 0.5, 0.0), 1.0, 0.0)
        assert (out.a, out.b, out.c) == (0.5, 1.0, 1.0)

    def test_identity(self):
        ham = QuadraticHamiltonian(0.4, 0.9, 0.3)
        assert quadratic_phase_transform(ham, 0.0, 0.0) == ham

    def test_reduced_quadratic_coefficient_form(self):
        # with a = 1/(2 m0), c = -deps, chi = m0*deps, dchi = m0*ddeps the
        # mixed term cancels and b picks up (m0/2)(ddeps - deps^2)
        m0, b, deps, ddeps = 2.0, 0.7, 0.3, -0.15
        ham = QuadraticHamiltonian(1.0 / (2 * m0), b, -deps)
        out = quadratic_phase_transform(ham, m0 * deps, m0 * ddeps)
        assert out.c == pytest.approx(0.0, abs=1e-15)
        assert out.b == pytest.approx(b + 0.5 * (m0 * ddeps - m0 * deps ** 2),
                                      abs=1e-14)

    def test_cancels_mixed_term(self):
        # chi = -c/(2a) removes the anticommutator coefficient
        ham = QuadraticHamiltonian(0.5, 0.7, -0.2)
        chi = -ham.c / (2 * ham.a)
        out = quadratic_phase_transform(ham, chi, 0.0)
        assert out.c == pytest.approx(0.0, abs=1e-15)


class TestEffectiveFrequency:
    def test_exponential_mass(self):
        mass = TimeProfile.exponential(1.0, 0.2)
        omega = TimeProfile.constant(np.sqrt(1.01))
        for t in (0.0, 1.1, 4.7):
            assert effective_frequency(mass, omega, t) == pytest.approx(1.0, abs=1e-12)

    def test_static_profiles(self):
        mass = TimeProfile.constant(2.0)
        omega = TimeProfile.constant(1.3)
        assert effective_frequency(mass, omega, 0.7) == pytest.approx(1.3, abs=1e-14)

    def test_family_is_constant(self):
        fam = SolvableFamily(m0=1.0, mu=0.5, nu=0.5, alpha=0.3, Omega0=2.0)
        ts = np.linspace(0, 5, 11)
        om = effective_frequency(fam.mass_profile(), fam.frequency_profile(), ts)
        assert np.max(np.abs(om - 2.0)) < 1e-12

    def test_gauge_independent(self):
        fam = SolvableFamily(m0=1.0, mu=0.7, nu=0.4, alpha=0.25, Omega0=1.5)
        o1 = effective_frequency(fam.mass_profile(), fam.frequency_profile(), 1.3, m0=1.0)
        o2 = effective_frequency(fam.mass_profile(), fam.frequency_profile(), 1.3, m0=2.0)
        assert abs(o1 - o2) < 1e-12

    def test_inverted_reported(self):
        mass = TimeProfile.exponential(1.0, 3.0)   # deps^2 dominates
        omega = TimeProfile.constant(0.2)
        with pytest.raises(ImaginaryFrequency):
            effective_frequency(mass, omega, 0.0)


class TestOmegaFromMass:
    def test_exponential(self):
        mass = TimeProfile.exponential(1.0, 0.2)
        assert omega_from_mass(mass, 1.0, 3.3) == pytest.approx(
            1.0049875621120890, abs=1e-12)

    def test_constant_mass(self):
        assert omega_from_mass(TimeProfile.constant(2.0), 1.7, 0.4) == pytest.approx(1.7)

    def test_family_constant(self):
        fam = SolvableFamily(m0=1.0, mu=0.4, nu=0.8, alpha=0.2, Omega0=1.0)
        ts = np.linspace(0, 4, 9)
        om = omega_from_mass(fam.mass_profile(), 1.0, ts)
        assert np.max(np.abs(om - fam.omega)) < 1e-12

    def test_negative_radicand(self):
        # fast oscillatory mass with tiny target frequency
        mass = TimeProfile.from_callable(lambda t: 1.0 + 0.9 * np.cos(5.0 * t))
        with pytest.raises(NegativeRadicand):
            omega_from_mass(mass, 0.01, 0.0)   # ddm < 0 dominates at t = 0


class TestSolvableFamily:
    def test_exponential_member(self):
        fam = SolvableFamily(m0=1.0, mu=1.0, nu=0.0, alpha=0.1, Omega0=1.0)
        for t in (0.0, 2.0, 5.0):
            m, dm, ddm = fam.mass_with_derivatives(t)
            assert m == pytest.approx(np.exp(0.2 * t), rel=1e-14)
            assert dm == pytest.approx(0.2 * np.exp(0.2 * t), rel=1e-13)
            assert ddm == pytest.approx(0.04 * np.exp(0.2 * t), rel=1e-13)

    def test_symmetric_member_at_zero(self):
        fam = SolvableFamily(m0=2.0, mu=0.5, nu=0.5, alpha=0.3, Omega0=1.0)
        assert fam.mass_with_derivatives(0.0)[0] == pytest.approx(2.0, rel=1e-15)

    def test_constancy_residual_random(self):
        rng = np.random.default_rng(5)
        ts = np.linspace(0.0, 3.0, 13)
        for _ in range(10):
            fam = SolvableFamily(m0=1.0, mu=rng.uniform(0.2, 1.0),
                                 nu=rng.uniform(0.2, 1.0),
                                 alpha=rng.uniform(0.1, 0.5), Omega0=1.0)
            assert np.max(fam.constancy_residual(ts)) < 1e-8

    def test_caldirola_kanai_classmethod(self):
        fam = SolvableFamily.caldirola_kanai(gamma=0.2, omega0=np.sqrt(1.01))
        assert fam.Omega0 == pytest.approx(1.0, abs=1e-12)
        assert fam.alpha == pytest.approx(0.1)
        assert fam.mass_with_derivatives(3.0)[0] == pytest.approx(np.exp(0.6), rel=1e-14)

    def test_mass_zero_crossing(self):
        fam = SolvableFamily(m0=1.0, mu=1.0, nu=-1.0, alpha=0.5, Omega0=1.0)
        with pytest.raises(MassZeroCrossing):
            fam.mass_with_derivatives(0.0)

    def test_trigonometric_extension(self):
        fam = SolvableFamily(m0=1.0, mu=1.0, nu=0.3, alpha=0.4, Omega0=1.5,
                             trigonometric=True)
        assert fam.omega == pytest.approx(np.sqrt(1.5 ** 2 - 0.16), rel=1e-14)
        ts = np.linspace(0.0, 2.0, 9)
        assert np.max(fam.constancy_residual(ts)) < 1e-12
        om = effective_frequency(fam.mass_profile(), fam.frequency_profile(), ts)
        assert np.max(np.abs(om - 1.5)) < 1e-10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SolvableFamily(m0=-1.0, mu=1.0, nu=0.0, alpha=0.1, Omega0=1.0)
        with pytest.raises(ValueError):
            SolvableFamily(m0=1.0, mu=0.0, nu=0.0, alpha=0.1, Omega0=1.0)


class TestReduction:
    def test_full_chain_static(self):
        fam = SolvableFamily(m0=1.0, mu=0.5, nu=0.5, alpha=0.3, Omega0=2.0)
        m0 = fam.static_mass()
        for t in np.linspace(0.0, 5.0, 21):
            red, _, _ = reduce_oscillator(fam.mass_profile(),
                                          fam.frequency_profile(), float(t), m0=m0)
            assert red.a == pytest.approx(1.0 / (2.0 * m0), abs=1e-10)
            assert red.b == pytest.approx(0.5 * m0 * 4.0, abs=1e-10)
            assert red.c == pytest.approx(0.0, abs=1e-10)

    def test_reduced_frequency_matches_effective(self):
        mass = TimeProfile.exponential(1.0, 0.2)
        omega = TimeProfile.constant(np.sqrt(1.01))
        red, _, _ = reduce_oscillator(mass, omega, 2.4)
        big = effective_frequency(mass, omega, 2.4)
        assert red.b == pytest.approx(0.5 * 1.0 * big ** 2, abs=1e-12)


class TestProfiles:
    def test_derivative_consistency_closed_forms(self):
        ts = np.linspace(0.0, 5.0, 7)
        assert TimeProfile.exponential(1.0, 0.2).derivative_consistency(ts) < 1e-6
        assert TimeProfile.constant(3.0).derivative_consistency(ts) < 1e-12

    def test_from_callable_matches_closed(self):
        fd = TimeProfile.from_callable(lambda t: np.exp(0.2 * t))
        exact = TimeProfile.exponential(1.0, 0.2)
        ts = np.linspace(0.0, 5.0, 9)
        assert np.max(np.abs(fd.d1(ts) - exact.d1(ts))) < 1e-7
        assert np.max(np.abs(fd.d2(ts) - exact.d2(ts))) < 1e-5

    def test_epsilon_from_mass_gauge(self):
        mass = TimeProfile.exponential(1.0, 0.2)

        def eps(t):
            return mass_epsilon(mass.value(t), mass.d1(t), mass.d2(t), 1.0)

        assert eps(0.0)[0] == pytest.approx(0.0)
        assert eps(1.0)[1] == pytest.approx(-0.1, abs=1e-14)
        assert eps(1.0)[2] == pytest.approx(0.0, abs=1e-14)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(k=st.integers(-900, 900), mu=st.floats(0.2, 1.0), nu=st.floats(0.2, 1.0),
           alpha=st.floats(0.1, 0.5), trigonometric=st.booleans())
    def test_mass_scale_leaves_reduction_bit_identical(self, k, mu, nu, alpha,
                                                       trigonometric):
        # m0 -> 2^k m0 scales m, dm and ddm exactly; the reduced frequency
        # is gauge invariant, so deps, ddeps and Omega may not move a bit
        ts = np.linspace(0.0, 3.0, 7)
        base = SolvableFamily(m0=1.0, mu=mu, nu=nu, alpha=alpha, Omega0=1.0,
                              trigonometric=trigonometric)
        scaled = dataclasses.replace(base, m0=2.0 ** k)
        derivs = [mass_epsilon(*fam.mass_with_derivatives(ts), 1.0)[1:]
                  for fam in (base, scaled)]
        assert all(np.array_equal(a, b) for a, b in zip(*derivs))
        omegas = [effective_frequency(fam.mass_profile(), fam.frequency_profile(), ts)
                  for fam in (base, scaled)]
        assert np.array_equal(*omegas)

    @pytest.mark.parametrize("trigonometric", [False, True])
    def test_mass_epsilon_matches_symbolic_derivatives(self, trigonometric):
        # independent route: sympy differentiates (1/2) ln(m0/m(t)) directly
        t = sp.symbols("t", real=True)
        fam = SolvableFamily(m0=1.7, mu=0.8, nu=0.3, alpha=0.4, Omega0=1.0,
                             trigonometric=trigonometric)
        if trigonometric:
            s = fam.mu * sp.cos(fam.alpha * t) + fam.nu * sp.sin(fam.alpha * t)
        else:
            s = fam.mu * sp.exp(fam.alpha * t) + fam.nu * sp.exp(-fam.alpha * t)
        gauge = 2.3
        eps = sp.log(gauge / (fam.m0 * s ** 2)) / 2
        ts = np.linspace(0.0, 3.0, 13)
        got = mass_epsilon(*fam.mass_with_derivatives(ts), gauge)
        for expr, value in zip((eps, eps.diff(t), eps.diff(t, 2)), got):
            want = sp.lambdify(t, expr, "numpy")(ts)
            assert np.max(np.abs(value - want)) <= 1e-12 * np.max(np.abs(want))


class TestGeneralTransform:
    def test_linear_reproduces_dilation(self):
        tr = general_f_transform(1.0, lambda x: 0.5 * x ** 2,
                                 GeneratorSpec.linear(), 0.1, 0.2)
        xs = np.array([0.3, 1.0, -0.7])
        assert np.allclose(tr.weight(xs), np.exp(-0.1), atol=1e-14)
        assert tr.potential(1.0) == pytest.approx(0.5 * np.exp(0.2), abs=1e-13)

    def test_zero_parameter_is_identity(self):
        tr = general_f_transform(1.0, lambda x: np.cos(x),
                                 GeneratorSpec.exp_decay(1.0), 0.0, 0.0)
        xs = np.linspace(-1, 1, 5)
        assert np.allclose(tr.weight(xs), 1.0, atol=1e-14)
        assert np.allclose(tr.potential(xs), np.cos(xs), atol=1e-14)

    def test_free_case_equals_curved_assembly(self):
        # with V = 0 and constant eps the transformed operator must equal the
        # curved-metric Hamiltonian with g = w^(-2), in both discretizations
        from canonflow.gridspace import Grid
        from canonflow.metricmap import curved_hamiltonian, metric_from_generator
        from canonflow.propagators import (apply_curved_kinetic,
                                           curved_kinetic_diagonals)

        gen = GeneratorSpec.exp_decay(1.0)
        grid = Grid.from_interval(-3.0, 6.0, 64)
        tr = general_f_transform(1.0, lambda x: 0.0 * np.asarray(x), gen, 0.4)
        metric = metric_from_generator(gen, 0.4)
        curved = curved_hamiltonian(metric, 1.0, grid)
        for v in probes(grid):
            assert np.max(np.abs(tr.apply(v, grid) - curved(v))) < 1e-10

        # finite differences: the banded pair is sqrt(w) p w p sqrt(w)/2
        # with the central-difference p = -i S (Dirichlet ends)
        def central(v):
            out = np.zeros_like(v)
            out[:-1] += v[1:]
            out[1:] -= v[:-1]
            return out / (2.0 * grid.dx)

        w = np.asarray(tr.weight(grid.x))
        root = np.sqrt(w)
        kinetic = curved_kinetic_diagonals(metric.g(grid.x), 1.0, grid.dx)
        for v in probes(grid):
            sandwich = -0.5 * root * central(w * central(root * v))
            assert np.max(np.abs(apply_curved_kinetic(kinetic, v) - sandwich)) < 1e-12

    def test_assembled_hermitian_with_drive(self):
        from canonflow.gridspace import Grid
        gen = GeneratorSpec.linear()
        tr = general_f_transform(1.0, lambda x: 0.5 * np.asarray(x) ** 2,
                                 gen, 0.1, 0.2)
        grid = Grid.from_interval(-5.0, 5.0, 48)
        for u in probes(grid):
            for v in probes(grid):
                gap = np.vdot(u, tr.apply(v, grid)) - np.conj(np.vdot(v, tr.apply(u, grid)))
                assert abs(grid.dx * gap) < 1e-12


def probes(grid):
    """Unit-norm Gaussian grid values for operator checks."""
    from canonflow.gridspace import GaussianState
    return [GaussianState(a=a, center=c, momentum=p).to_wavefunction(grid).values
            for a, c, p in [(1.0, 0.5, 0.0), (1.5, 1.0, 0.8), (2.0 - 0.5j, 0.2, -0.6)]]
