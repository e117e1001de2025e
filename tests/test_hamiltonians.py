"""Tests for the quadratic-coefficient algebra and the solvable mass family."""

import dataclasses
import functools

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from canonflow import hamiltonians
from canonflow.errors import (ImaginaryFrequency, MassZeroCrossing,
                              NegativeRadicand)
from canonflow.flowcore import GeneratorSpec, flow_evaluate
from canonflow.gridspace import (GaussianState, Grid, WaveFunction, apply_momentum,
                                 apply_point_unitary)
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
        # Omega = sqrt(ddeps - deps^2 + w^2) taken here at the gauges m0 = 1
        # and 2 agrees with effective_frequency, whose gauge is m(t)
        fam = SolvableFamily(m0=1.0, mu=0.7, nu=0.4, alpha=0.25, Omega0=1.5)
        got = effective_frequency(fam.mass_profile(), fam.frequency_profile(), 1.3)
        for gauge in (1.0, 2.0):
            _, de, dde = mass_epsilon(*fam.mass_with_derivatives(1.3), gauge)
            assert abs(got - np.sqrt(dde - de ** 2 + fam.omega ** 2)) < 1e-12

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

    @pytest.mark.parametrize("build,error,message", [
        (lambda: SolvableFamily(m0=1.0, mu=1.0, nu=0.3, alpha=1.5, Omega0=1.5,
                                trigonometric=True), ValueError, "alpha < Omega0"),
        (lambda: SolvableFamily.caldirola_kanai(gamma=3.0, omega0=1.0),
         ImaginaryFrequency, "overdamped"),
    ], ids=["trigonometric-alpha-at-Omega0", "ck-overdamped"])
    def test_family_refusals(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

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
            red = reduce_oscillator(fam.mass_profile(), fam.frequency_profile(),
                                    float(t))
            assert red.a == pytest.approx(1.0 / (2.0 * m0), abs=1e-10)
            assert red.b == pytest.approx(0.5 * m0 * 4.0, abs=1e-10)
            assert red.c == pytest.approx(0.0, abs=1e-10)

    def test_reduced_frequency_matches_effective(self):
        mass = TimeProfile.exponential(1.0, 0.2)
        omega = TimeProfile.constant(np.sqrt(1.01))
        red = reduce_oscillator(mass, omega, 2.4)
        big = effective_frequency(mass, omega, 2.4)
        assert red.b == pytest.approx(0.5 * 1.0 * big ** 2, abs=1e-12)


def derivative_consistency(profile, ts):
    """Max mismatch between a profile's stored and finite-difference derivatives."""
    fd = TimeProfile.from_callable(profile.value)
    _, fd1, fd2 = fd.with_derivatives(ts)
    v, d1, d2 = profile.with_derivatives(ts)
    scale = 1.0 + np.max(np.abs(v))
    return float(max(np.max(np.abs(fd1 - d1)), np.max(np.abs(fd2 - d2))) / scale)


class TestProfiles:
    def test_derivative_consistency_closed_forms(self):
        ts = np.linspace(0.0, 5.0, 7)
        assert derivative_consistency(TimeProfile.exponential(1.0, 0.2), ts) < 1e-6
        assert derivative_consistency(TimeProfile.constant(3.0), ts) < 1e-12

    def test_from_callable_matches_closed(self):
        fd = TimeProfile.from_callable(lambda t: np.exp(0.2 * t))
        exact = TimeProfile.exponential(1.0, 0.2)
        ts = np.linspace(0.0, 5.0, 9)
        _, fd1, fd2 = fd.with_derivatives(ts)
        _, d1, d2 = exact.with_derivatives(ts)
        assert np.max(np.abs(fd1 - d1)) < 1e-7
        assert np.max(np.abs(fd2 - d2)) < 1e-5

    def test_from_callable_evaluates_five_times_per_call(self):
        calls = []

        def fn(t):
            calls.append(t)
            return np.exp(0.2 * t)

        TimeProfile.from_callable(fn).with_derivatives(np.linspace(0.0, 5.0, 9))
        assert len(calls) == 5

    @pytest.mark.parametrize("t", [1.3, np.linspace(-3.0, 7.0, 11)],
                             ids=["scalar", "vector"])
    def test_value_is_the_triples_first_entry(self, t):
        # one evaluation rule per profile: value cannot disagree with the triple
        assert [f.name for f in dataclasses.fields(TimeProfile)] == ["with_derivatives"]
        profile = TimeProfile.from_callable(lambda s: 1.0 + 0.9 * np.cos(5.0 * s))
        assert np.array_equal(profile.value(t), profile.with_derivatives(t)[0])

    @pytest.mark.parametrize("t", [1.3, np.linspace(-3.0, 7.0, 11)],
                             ids=["scalar", "vector"])
    def test_closed_form_triples_match_their_formulas_bit_for_bit(self, t):
        # oracle: each derivative of the constant, exponential and family
        # profiles written out on its own, as separate closed forms
        ta = np.asarray(t, dtype=float)
        c0, rate = np.float64(1.3), np.float64(0.2)
        e = np.exp(rate * ta)
        cases = [(TimeProfile.constant(3.0), (3.0 + 0.0 * ta, 0.0 * ta, 0.0 * ta)),
                 (TimeProfile.exponential(c0, rate),
                  (c0 * e, (c0 * rate) * e, (c0 * rate ** 2) * e))]
        for trig in (False, True):
            fam = SolvableFamily(m0=1.7, mu=0.8, nu=0.3, alpha=0.4, Omega0=1.0,
                                 trigonometric=trig)
            a, mu, nu = fam.alpha, fam.mu, fam.nu
            if trig:
                s = mu * np.cos(a * ta) + nu * np.sin(a * ta)
                ds = a * (-mu * np.sin(a * ta) + nu * np.cos(a * ta))
                dds = -a ** 2 * s
            else:
                s = mu * np.exp(a * ta) + nu * np.exp(-a * ta)
                ds = a * (mu * np.exp(a * ta) - nu * np.exp(-a * ta))
                dds = a ** 2 * s
            cases.append((fam.mass_profile(),
                          (fam.m0 * s * s, 2.0 * fam.m0 * s * ds,
                           2.0 * fam.m0 * (ds * ds + s * dds))))
        for i, (profile, want) in enumerate(cases):
            got = profile.with_derivatives(t)
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), i
            assert np.array_equal(profile.value(t), want[0]), i

    def test_epsilon_from_mass_gauge(self):
        mass = TimeProfile.exponential(1.0, 0.2)

        def eps(t):
            return mass_epsilon(*mass.with_derivatives(t), 1.0)

        assert eps(0.0)[0] == pytest.approx(0.0)
        assert eps(1.0)[1] == pytest.approx(-0.1, abs=1e-14)
        assert eps(1.0)[2] == pytest.approx(0.0, abs=1e-14)

    def test_overflowing_mass_rate_is_a_typed_error(self):
        # m = 1e308 is finite at t = 0 but dm = 1e309 is not: the rates
        # m'/m and m''/m used to turn into nan Omega, b and c
        mass, omega = TimeProfile.exponential(1e308, 10.0), TimeProfile.constant(1.0)
        assert np.isfinite(mass.value(0.0)) and mass.with_derivatives(0.0)[1] == np.inf
        for call in (lambda: mass_epsilon(*mass.with_derivatives(0.0), 1.0),
                     lambda: effective_frequency(mass, omega, 0.0),
                     lambda: reduce_oscillator(mass, omega, 0.0),
                     lambda: omega_from_mass(mass, 1.0, 0.0)):
            with pytest.raises(MassZeroCrossing):
                call()

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


SQRT_1_X2 = GeneratorSpec.custom(lambda t: np.sqrt(1.0 + t * t),
                                  dfunc=lambda t: t / np.sqrt(1.0 + t * t))
SQRT_1_X2_NO_DFUNC = dataclasses.replace(SQRT_1_X2, dfunc=None)


class TestGeneralTransform:
    GRID = Grid.from_interval(-8.0, 8.0, 128)

    def test_linear_reproduces_dilation(self):
        # oracle: e^(-2 eps) p^2/(2m) + V(e^eps x) - (deps/2)(x p + p x)
        grid, m, eps, deps = self.GRID, 1.3, 0.1, 0.2
        x = grid.x
        h = general_f_transform(m, lambda y: 0.5 * y ** 2, GeneratorSpec.linear(),
                                eps, grid, deps)
        for v in probes(grid):
            want = (np.exp(-2.0 * eps) * apply_momentum(v, grid, 2) / (2.0 * m)
                    + 0.5 * (np.exp(eps) * x) ** 2 * v
                    - 0.5 * deps * (x * apply_momentum(v, grid)
                                    + apply_momentum(x * v, grid)))
            assert np.max(np.abs(h(v) - want)) < 1e-13

    def test_zero_parameter_is_identity(self):
        # oracle: p^2/(2m) + V
        grid, m = self.GRID, 1.3
        h = general_f_transform(m, np.cos, GeneratorSpec.exp_decay(1.0), 0.0, grid)
        for v in probes(grid):
            want = apply_momentum(v, grid, 2) / (2.0 * m) + np.cos(grid.x) * v
            assert np.max(np.abs(h(v) - want)) < 1e-14

    # worst residuals measured 1.1e-12, 7.2e-13, 3.1e-11, and without dfunc
    # (f' by the five-point stencil) 3.4e-11 and 8.7e-11: margins 8.8x to 14x
    @pytest.mark.parametrize("gen,eps,tol", [(GeneratorSpec.linear(), 0.3, 1e-11),
                                             (SQRT_1_X2, 0.3, 1e-11),
                                             (SQRT_1_X2, -0.5, 3e-10),
                                             (SQRT_1_X2_NO_DFUNC, 0.3, 3e-10),
                                             (SQRT_1_X2_NO_DFUNC, -0.5, 1e-9)],
                             ids=["x-0.3", "sqrt-0.3", "sqrt--0.5",
                                  "sqrt-no-dfunc-0.3", "sqrt-no-dfunc--0.5"])
    def test_conjugation_identity_with_potential(self, gen, eps, tol):
        # U (p^2/2 + V) U^dag psi = H_g psi + V(phi_eps) psi, the right side
        # staged through the point unitary; V at phi_(-eps) is the control
        grid = Grid.from_interval(-12.0, 12.0, 512)

        def potential(y):
            return 0.5 * y ** 2

        h = general_f_transform(1.0, potential, gen, eps, grid)
        kinetic = general_f_transform(1.0, lambda y: 0.0 * y, gen, eps, grid)
        wrong = potential(flow_evaluate(gen, -eps, grid.x, with_jacobian=False).x_out)
        for v in probes(grid):
            staged = apply_point_unitary(gen, -eps, WaveFunction(grid, v),
                                         leak_tol=1e-8).values
            inner = apply_momentum(staged, grid, 2) / 2.0 + potential(grid.x) * staged
            rhs = apply_point_unitary(gen, eps, WaveFunction(grid, inner),
                                      leak_tol=1e-4).values
            scale = np.linalg.norm(rhs)
            assert np.linalg.norm(h(v) - rhs) / scale < tol
            assert np.linalg.norm(kinetic(v) + wrong * v - rhs) / scale > 0.1

    def test_flow_evaluated_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return flow_evaluate(*args, **kwargs)

        monkeypatch.setattr(hamiltonians, "flow_evaluate", counting)
        grid = Grid.from_interval(-4.0, 4.0, 32)
        h = general_f_transform(1.0, np.cos, SQRT_1_X2, 0.2, grid, 0.1)
        assert len(calls) == 1
        v = probes(grid)[0]
        first = h(v)
        for _ in range(3):
            assert np.array_equal(h(v), first)
        assert len(calls) == 1

    def test_free_case_equals_curved_assembly(self):
        # with V = 0 and constant eps the transformed operator must equal the
        # curved-metric Hamiltonian with g = w^(-2), in both discretizations
        from canonflow.metricmap import curved_hamiltonian, metric_from_generator
        from canonflow.propagators import (apply_curved_kinetic,
                                           curved_kinetic_diagonals)

        gen = GeneratorSpec.exp_decay(1.0)
        grid = Grid.from_interval(-3.0, 6.0, 64)
        h = general_f_transform(1.0, lambda x: 0.0 * np.asarray(x), gen, 0.4, grid)
        metric = metric_from_generator(gen, 0.4)
        curved = curved_hamiltonian(metric, 1.0, grid)
        for v in probes(grid):
            assert np.max(np.abs(h(v) - curved(v))) < 1e-10

        # finite differences: the tridiagonal pair is (1/2) sqrt(w) D^T w_half
        # D sqrt(w), with D the forward difference between neighbours and
        # w_half the mean of neighbouring w
        n = grid.n
        fwd = (np.eye(n, k=1) - np.eye(n))[:-1] / grid.dx
        mean = 0.5 * (np.eye(n, k=1) + np.eye(n))[:-1]
        w = flow_evaluate(gen, 0.4, grid.x).f2
        root, w_half = np.sqrt(w), mean @ w
        kinetic = curved_kinetic_diagonals(metric.g(grid.x), 1.0, grid.dx)
        for v in probes(grid):
            sandwich = 0.5 * root * (fwd.T @ (w_half * (fwd @ (root * v))))
            assert np.max(np.abs(apply_curved_kinetic(kinetic, v) - sandwich)) < 1e-12

    def test_assembled_hermitian_with_drive(self):
        grid = Grid.from_interval(-5.0, 5.0, 48)
        h = general_f_transform(1.0, lambda x: 0.5 * np.asarray(x) ** 2,
                                GeneratorSpec.linear(), 0.1, grid, 0.2)
        for u in probes(grid):
            for v in probes(grid):
                gap = np.vdot(u, h(v)) - np.conj(np.vdot(v, h(u)))
                assert abs(grid.dx * gap) < 1e-12


def probes(grid):
    """Unit-norm Gaussian grid values for operator checks."""
    return [GaussianState(a=a, center=c, momentum=p).to_wavefunction(grid).values
            for a, c, p in [(1.0, 0.5, 0.0), (1.5, 1.0, 0.8), (2.0 - 0.5j, 0.2, -0.6)]]
