"""Tests for the scaling-flow core: closed forms, adaptive path, brackets."""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from canonflow.errors import DomainBlowup, StepFailure
from canonflow.flowcore import GeneratorSpec, bracket_generator, flow_evaluate
from canonflow.verify import flow_slope

LIN = GeneratorSpec.linear()
QUAD = GeneratorSpec.quadratic()
EXP1 = GeneratorSpec.exp_decay(1.0)


def custom_twin(kind):
    """The same generator routed through the adaptive (non-closed-form) path."""
    table = {
        "linear": lambda t: t,
        "quadratic": lambda t: t * t,
        "exp_decay": lambda t: np.exp(-t),
    }
    return GeneratorSpec.custom(table[kind])


class TestClosedForms:
    def test_linear_map(self):
        # x' = e^eps x
        assert flow_evaluate(LIN, 0.5, 2.0).x_out == pytest.approx(3.2974425414002564,
                                                          abs=1e-12)

    def test_quadratic_map(self):
        # x' = x / (1 - eps x)
        assert flow_evaluate(QUAD, 0.25, 2.0).x_out == pytest.approx(4.0, abs=1e-12)

    def test_expdecay_map(self):
        # x' = ln(e^x + eps) for unit rate
        assert flow_evaluate(EXP1, 0.5, 0.0).x_out == pytest.approx(0.4054651081081644,
                                                           abs=1e-12)

    @pytest.mark.parametrize("gen,x", [(LIN, 1.3), (QUAD, -0.7), (EXP1, 0.4)])
    def test_zero_parameter_is_identity(self, gen, x):
        ev = flow_evaluate(gen, 0.0, x)
        assert ev.x_out == x
        assert ev.jacobian == pytest.approx(1.0, abs=1e-15)

    def test_linear_weight(self):
        # w = e^-eps, independent of x
        for x in (-2.0, 0.0, 1.7):
            assert flow_evaluate(LIN, 0.5, x).f2 == pytest.approx(
                0.6065306597126334, abs=1e-12)

    def test_quadratic_weight(self):
        # w = (1 - eps x)^2
        assert flow_evaluate(QUAD, 0.25, 2.0).f2 == pytest.approx(0.25, abs=1e-12)

    def test_expdecay_weight_matches_flow_oracle(self):
        # oracle: w = f(x)/f(phi) with phi integrated independently
        from scipy.integrate import solve_ivp
        sol = solve_ivp(lambda s, y: np.exp(-y), (0, 0.5), [0.0],
                        rtol=1e-12, atol=1e-14)
        phi = sol.y[0, -1]
        oracle = np.exp(-0.0) / np.exp(-phi)
        assert oracle == pytest.approx(1.5, abs=1e-9)
        assert flow_evaluate(EXP1, 0.5, 0.0).f2 == pytest.approx(1.5, abs=1e-12)

    def test_linear_jacobian(self):
        assert flow_evaluate(LIN, 0.5, 1.0).jacobian == pytest.approx(
            1.6487212707001282, abs=1e-12)

    def test_quadratic_jacobian_finite_difference_oracle(self):
        h = 1e-6
        fd = (flow_evaluate(QUAD, 0.25, 2.0 + h).x_out
              - flow_evaluate(QUAD, 0.25, 2.0 - h).x_out) / (2 * h)
        assert fd == pytest.approx(4.0, abs=1e-6)
        assert flow_evaluate(QUAD, 0.25, 2.0).jacobian == pytest.approx(4.0, abs=1e-12)


class TestFlowProperties:
    @pytest.mark.parametrize("kind,gen", [("linear", LIN), ("quadratic", QUAD),
                                          ("exp_decay", EXP1)])
    def test_group_law(self, kind, gen):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.5, 1.5, 50)
        e1, e2 = 0.12, 0.08
        once = flow_evaluate(gen, e1 + e2, x).x_out
        twice = flow_evaluate(gen, e2, flow_evaluate(gen, e1, x).x_out).x_out
        assert np.max(np.abs(once - twice)) < 1e-9

    def test_group_law_custom(self):
        gen = GeneratorSpec.custom(lambda t: np.sin(t) + 1.5)
        rng = np.random.default_rng(4)
        x = rng.uniform(-2.0, 2.0, 20)
        once = flow_evaluate(gen, 0.5, x, with_jacobian=False).x_out
        half = flow_evaluate(gen, 0.2, x, with_jacobian=False).x_out
        twice = flow_evaluate(gen, 0.3, half, with_jacobian=False).x_out
        assert np.max(np.abs(once - twice)) < 1e-7

    @pytest.mark.parametrize("gen,eps,x", [(LIN, 0.4, 1.1), (QUAD, 0.2, 1.5),
                                           (EXP1, 0.6, -0.5)])
    def test_inversion(self, gen, eps, x):
        there = flow_evaluate(gen, eps, x).x_out
        assert flow_evaluate(gen, -eps, there).x_out == pytest.approx(x, abs=1e-9)

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "exp_decay"])
    def test_canonicality_closed(self, kind):
        rng = np.random.default_rng(11)
        gen = {"linear": LIN, "quadratic": QUAD, "exp_decay": EXP1}[kind]
        x = rng.uniform(-1.5, 1.5, 100)
        eps = rng.uniform(0.02, 0.3, 100)
        ev = flow_evaluate(gen, eps, x)
        assert np.max(np.abs(ev.f2 * ev.jacobian - 1.0)) < 1e-12

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "exp_decay"])
    def test_canonicality_adaptive(self, kind):
        # the weight f(x)/f(phi) against phi' differenced from the map itself
        rng = np.random.default_rng(12)
        x = rng.uniform(-1.5, 1.5, 60)
        eps = rng.uniform(0.02, 0.3, 60)
        gen = custom_twin(kind)
        ev = flow_evaluate(gen, eps, x, with_jacobian=False)
        assert np.max(np.abs(ev.f2 * flow_slope(gen, eps, x) - 1.0)) < 1e-8

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "exp_decay"])
    def test_adaptive_matches_closed(self, kind):
        gen = {"linear": LIN, "quadratic": QUAD, "exp_decay": EXP1}[kind]
        rng = np.random.default_rng(13)
        x = rng.uniform(-1.5, 1.5, 100)
        eps = rng.uniform(-0.1, 0.3, 100)
        if kind == "exp_decay":
            keep = np.exp(x) + eps > 0.1
            x, eps = x[keep], eps[keep]
        closed = flow_evaluate(gen, eps, x).x_out
        adaptive = flow_evaluate(custom_twin(kind), eps, x, with_jacobian=False).x_out
        assert np.max(np.abs(closed - adaptive)) < 1e-8

    def test_fixed_point_limits(self):
        # at a zero of f the weight tends to exp(-eps f')
        ev = flow_evaluate(GeneratorSpec.custom(lambda t: t), 0.5, 0.0)
        assert ev.f2 == pytest.approx(np.exp(-0.5), abs=1e-9)
        assert ev.jacobian == pytest.approx(np.exp(0.5), abs=1e-9)


class TestAbelSolver:
    """Custom flows against closed forms, including stiff and long ones."""

    GRID = -12.0 + 24.0 * np.arange(2048) / 2048

    @pytest.mark.parametrize("eps", [0.5, -0.5])
    def test_exp_decay_twin(self, eps):
        # eps = 0.5: 1/f = e^x spans e^-12 .. e^12, so the first panel of the
        # left points overflows and must be refused, not accepted
        x = self.GRID
        if eps < 0:
            x = x[np.exp(x) - 0.5 > 1e-3]       # the flow escapes where e^x <= 0.5
        ev = flow_evaluate(custom_twin("exp_decay"), eps, x)
        closed = flow_evaluate(EXP1, eps, x)
        # measured 2.6e-15 (eps = 0.5) and 2.1e-14 (eps = -0.5, where f(phi) nears 1e3)
        assert np.max(np.abs(ev.x_out - closed.x_out)) <= 1e-12
        assert np.max(np.abs(ev.f2 / closed.f2 - 1.0)) <= 1e-12

    def test_a_panel_is_one_call_of_f(self):
        # f receives every node of a panel, for all 2048 moving points, in one
        # call: more than 8192 samples, the most a call took in row blocks
        sizes = []

        def f(t):
            sizes.append(t.size)
            return np.sqrt(1.0 + t * t)

        flow_evaluate(GeneratorSpec.custom(f), 0.4, self.GRID)
        assert max(sizes) > 8192

    @pytest.mark.parametrize("eps", [0.5, -0.5, 5.0, -5.0])
    def test_cosine_flow(self, eps):
        # f = cos: the Abel coordinate is asinh(tan x), and the zeros of f at
        # +-pi/2 stop the flow, which a long eps runs into
        x = np.linspace(-1.5, 1.5, 301)
        ev = flow_evaluate(GeneratorSpec.custom(np.cos), eps, x)
        oracle = np.arctan(np.sinh(np.arcsinh(np.tan(x)) + eps))
        # measured 2.2e-16 (|eps| = 0.5) and 4.4e-16 (|eps| = 5)
        assert np.max(np.abs(ev.x_out - oracle)) <= 1e-12

    def test_constant_generator_translates(self):
        # f = 2 given as a callable that returns a scalar: phi = x + 2 eps
        x = np.linspace(-3.0, 3.0, 7)
        ev = flow_evaluate(GeneratorSpec.custom(lambda t: 2.0), -0.75, x)
        assert np.max(np.abs(ev.x_out - (x - 1.5))) <= 1e-14
        assert np.all(ev.f2 == 1.0)

    def test_flow_into_a_square_root_zero(self):
        # f = sqrt(1 - x) reaches its zero at x = 1 in Abel time 2 from x = 0:
        # phi = 1 - (1 - eps/2)^2 before that, and after it every panel that
        # would pass x = 1 is refused until the panel stalls
        gen = GeneratorSpec.custom(lambda t: np.sqrt(np.clip(1.0 - t, 0.0, None)))
        assert flow_evaluate(gen, 1.0, 0.0).x_out == pytest.approx(0.75, abs=1e-12)
        with pytest.raises(StepFailure):
            flow_evaluate(gen, 5.0, np.array([0.0, 0.5]))

    @pytest.mark.parametrize("gen", [custom_twin("exp_decay"), EXP1], ids=["custom", "closed"])
    def test_overflowing_f_is_a_blowup(self, gen):
        # e^x < 0.5 at x = -1: the flow of e^(-x) reaches -inf by eps = -0.5,
        # and the custom f overflows near x = -709, where the march stalls
        with pytest.raises(DomainBlowup):
            flow_evaluate(gen, -0.5, -1.0)

    @pytest.mark.parametrize("eps", [0.3, -0.3])
    def test_rounded_zero_is_a_fixed_point(self, eps):
        # sin(+-pi) is 1.2e-16, not 0: a fixed point, where w is the limit
        # e^(-eps f') = e^eps (f' a five-point difference, 1e-11 off), not
        # f(x)/f(phi) = 1
        x = np.array([-np.pi, np.pi])
        ev = flow_evaluate(GeneratorSpec.custom(np.sin), eps, x)
        assert np.all(ev.x_out == x)
        assert np.max(np.abs(ev.f2 / np.exp(eps) - 1.0)) <= 1e-10

    def test_subnormal_generator_is_fixed(self):
        # e^(-x^2) is below 5.6e-309 for |x| > 26.6, so 1/f overflows at every
        # node there; those points (like all where |f| <= 1e-13 (1 + |x|)) stay put
        x = -30.0 + 60.0 * np.arange(2048) / 2048
        ev = flow_evaluate(GeneratorSpec.custom(lambda t: np.exp(-t * t)), 0.3, x)
        assert np.all(ev.x_out[np.abs(x) > 5.3] == x[np.abs(x) > 5.3])
        assert np.all(ev.f2[np.abs(x) > 26.6] == 1.0)
        assert np.all(np.isfinite(ev.x_out)) and np.all(ev.f2 > 0.0)

    @pytest.mark.parametrize("func,eps,x", [(lambda t: t, 1e-30, 1e-300),
                                            (lambda t: 0.5 + 0.0 * t, 5e-324, 1.0)],
                             ids=["eps-f-underflows-at-a-zero", "eps-f-underflows"])
    def test_underflowing_first_panel_ends(self, func, eps, x):
        # |eps f(x)| rounds to 0: the first panel is at least the spacing of x,
        # so the march cannot stall at a zero-width panel
        ev = flow_evaluate(GeneratorSpec.custom(func), eps, x)
        assert ev.x_out == x and ev.f2 == 1.0


# x ranges on which phi_a, phi_b and phi_(a+b) stay defined for |a|, |b| <= 0.3
GROUP_LAW_CLOSED = {"linear": (LIN, (-1.5, 1.5)), "quadratic": (QUAD, (-1.5, 1.5)),
                    "exp_decay": (EXP1, (0.0, 1.5))}
unit_points = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16)


def sine_generator(c0, ratio, k):
    """The positive custom generator c0 (1 + ratio sin(k x)), |ratio| < 1."""
    return GeneratorSpec.custom(lambda t: c0 * (1.0 + ratio * np.sin(k * t)),
                                dfunc=lambda t: c0 * ratio * k * np.cos(k * t))


@pytest.mark.parametrize("kind", sorted(GROUP_LAW_CLOSED))
@settings(derandomize=True, database=None, deadline=1000, max_examples=40)
@given(a=st.floats(-0.3, 0.3), b=st.floats(-0.3, 0.3), u=unit_points)
def test_group_law_closed_property(kind, a, b, u):
    gen, (lo, hi) = GROUP_LAW_CLOSED[kind]
    x = lo + (hi - lo) * np.asarray(u)
    once = flow_evaluate(gen, a + b, x).x_out
    twice = flow_evaluate(gen, b, flow_evaluate(gen, a, x).x_out).x_out
    assert np.max(np.abs(once - twice) / (1.0 + np.abs(once))) < 1e-12


@settings(derandomize=True, database=None, deadline=2000, max_examples=30)
@given(c0=st.floats(0.5, 2.0), ratio=st.floats(-0.9, 0.9), k=st.floats(0.2, 3.0),
       a=st.floats(-0.5, 0.5), b=st.floats(-0.5, 0.5), u=unit_points)
def test_group_law_ode_property(c0, ratio, k, a, b, u):
    gen = sine_generator(c0, ratio, k)
    x = -3.0 + 6.0 * np.asarray(u)
    once = flow_evaluate(gen, a + b, x, with_jacobian=False).x_out
    half = flow_evaluate(gen, a, x, with_jacobian=False).x_out
    twice = flow_evaluate(gen, b, half, with_jacobian=False).x_out
    assert np.max(np.abs(once - twice)) < 1e-8


@settings(derandomize=True, database=None, deadline=2000, max_examples=30)
@given(c0=st.floats(0.5, 2.0), ratio=st.floats(-0.9, 0.9), k=st.floats(0.2, 3.0),
       eps=st.floats(-0.5, 0.5), u=unit_points)
def test_canonicality_ode_property(c0, ratio, k, eps, u):
    # the weight f(x)/f(phi) against phi' differenced from the map, as
    # suite_canonicality
    gen, x = sine_generator(c0, ratio, k), -3.0 + 6.0 * np.asarray(u)
    ev = flow_evaluate(gen, eps, x, with_jacobian=False)
    assert np.max(np.abs(ev.f2 * flow_slope(gen, eps, x) - 1.0)) < 1e-8


class TestDomains:
    def test_quadratic_blowup(self):
        with pytest.raises(DomainBlowup):
            flow_evaluate(QUAD, 0.5, 2.0)

    def test_quadratic_blowup_negative_side(self):
        with pytest.raises(DomainBlowup):
            flow_evaluate(QUAD, -0.5, -2.0)

    def test_expdecay_domain(self):
        with pytest.raises(DomainBlowup):
            flow_evaluate(EXP1, -0.5, -1.0)   # e^x + eps < 0

    def test_custom_escape_detected(self):
        with pytest.raises(DomainBlowup):
            flow_evaluate(GeneratorSpec.custom(lambda t: t * t), 0.5, 2.5,
                          with_jacobian=False)

    def test_custom_generator_not_finite_at_the_start(self):
        gen = GeneratorSpec.custom(lambda t: np.sqrt(1.0 - t * t))
        with pytest.raises(DomainBlowup):
            flow_evaluate(gen, 0.1, np.array([0.0, 2.0]))

    def test_custom_validity_interval(self):
        gen = GeneratorSpec.custom(lambda t: 1.0 + 0.0 * t, domain=(-1.0, 1.0))
        with pytest.raises(DomainBlowup):
            flow_evaluate(gen, 0.0, 3.0, with_jacobian=False)
        with pytest.raises(DomainBlowup):
            flow_evaluate(gen, 5.0, 0.0, with_jacobian=False)   # drifts out of the interval

    def test_exp_decay_requires_positive_rate(self):
        with pytest.raises(ValueError):
            GeneratorSpec.exp_decay(-1.0)

    @pytest.mark.parametrize("make", [lambda: GeneratorSpec(kind="cubic"),
                                      lambda: GeneratorSpec(kind="custom")],
                             ids=["unknown-kind", "custom-without-callable"])
    def test_malformed_generator_refused(self, make):
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("gen,eps,want", [
        (LIN, 0.7, (-np.inf, np.inf)), (LIN, -0.7, (-np.inf, np.inf)),
        (QUAD, 0.5, (-np.inf, 2.0)), (QUAD, -0.5, (-2.0, np.inf)),
        (QUAD, 0.0, (-np.inf, np.inf)),
        (GeneratorSpec.exp_decay(2.0), -0.25, (np.log(0.5) / 2.0, np.inf)),
        (EXP1, 0.4, (-np.inf, np.inf)), (EXP1, 0.0, (-np.inf, np.inf)),
        (GeneratorSpec.custom(np.cos, domain=(-1.0, 1.5)), 0.3, (-1.0, 1.5)),
        (GeneratorSpec.custom(np.cos, domain=(-1.0, 1.5)), -0.3, (-1.0, 1.5)),
    ], ids=["linear+", "linear-", "quadratic+", "quadratic-", "quadratic0",
            "exp_decay-", "exp_decay+", "exp_decay0", "custom+", "custom-"])
    def test_flow_domain_is_where_the_closed_flow_exists(self, gen, eps, want):
        lo, hi = gen.flow_domain(eps)
        assert (lo, hi) == pytest.approx(want, rel=1e-15)
        if gen.kind == "custom":
            return
        # just inside each finite end the closed flow is defined; just
        # outside it raises
        for end, inward in ((lo, 1.0), (hi, -1.0)):
            if np.isfinite(end):
                step = 1e-9 * inward
                assert np.isfinite(flow_evaluate(gen, eps, end + step).x_out)
                with pytest.raises(DomainBlowup):
                    flow_evaluate(gen, eps, end - step)

    def test_derivative_stencil_stays_inside_a_finite_domain(self):
        seen = []

        def f(t):
            seen.append(t)
            return np.sqrt(t)

        gen = GeneratorSpec.custom(f, domain=(1.0, 2.0))
        x = np.linspace(1.0, 2.0, 101)
        # measured 1.0e-11 and 1.5e-8, the one-sided ends the worst
        assert np.max(np.abs(gen.df(x) - 0.5 / np.sqrt(x))) < 1e-10
        assert np.max(np.abs(gen.d2f(x) + 0.25 * x ** -1.5)) < 1e-7
        points = np.concatenate([np.ravel(t) for t in seen])
        assert points.min() >= 1.0 and points.max() <= 2.0


class TestBracketGenerator:
    @staticmethod
    def _symbolic_h(f1_expr, f2_expr):
        # oracle: h = 2 f1^2 d/dx (f2 / f1), simplified symbolically
        x = sp.symbols("x")
        h = sp.simplify(2 * f1_expr ** 2 * sp.diff(f2_expr / f1_expr, x))
        return sp.lambdify(x, h, "numpy")

    def test_linear_quadratic(self):
        x = sp.symbols("x")
        oracle = self._symbolic_h(x, x ** 2)
        h = bracket_generator(LIN, QUAD)
        xs = np.linspace(-2, 2, 9)
        assert np.allclose(h(xs), oracle(xs), atol=1e-12)
        assert np.allclose(h(xs), 2.0 * xs ** 2, atol=1e-12)

    def test_equal_generators_vanish(self):
        h = bracket_generator(QUAD, QUAD)
        assert np.allclose(h(np.linspace(-3, 3, 7)), 0.0, atol=1e-14)

    def test_linear_constant(self):
        x = sp.symbols("x")
        oracle = self._symbolic_h(x, sp.Integer(1))
        one = GeneratorSpec.custom(
            lambda t: np.ones_like(np.asarray(t, dtype=float)),
            dfunc=lambda t: np.zeros_like(np.asarray(t, dtype=float)))
        h = bracket_generator(LIN, one)
        xs = np.linspace(-2, 2, 5)
        assert np.allclose(h(xs), float(oracle(1.0)) * np.ones_like(xs), atol=1e-12)
        assert np.allclose(h(xs), -2.0, atol=1e-12)

    def test_expdecay_pair_symbolic(self):
        x = sp.symbols("x")
        oracle = self._symbolic_h(x ** 2, sp.exp(-x))
        h = bracket_generator(QUAD, EXP1)
        xs = np.linspace(-1.5, 2.0, 11)
        assert np.allclose(h(xs), oracle(xs), rtol=1e-9)


def _symbolic_family():
    """f = c0 + c1 x + c2 x^2 + c3 e^(-lam x), its derivative, and the bracket h
    = 2 (f1 f2' - f2 f1') of two members, each lambdified over x and the
    coefficients."""
    x = sp.symbols("x")
    first, second = (sp.symbols(f"c0:4_{i} lam_{i}") for i in (1, 2))

    def member(c0, c1, c2, c3, lam):
        return c0 + c1 * x + c2 * x ** 2 + c3 * sp.exp(-lam * x)

    f1, f2 = member(*first), member(*second)
    h = 2 * (f1 * sp.diff(f2, x) - f2 * sp.diff(f1, x))
    return (sp.lambdify((x, *first), f1, "numpy"),
            sp.lambdify((x, *first), sp.diff(f1, x), "numpy"),
            sp.lambdify((x, *first, *second), h, "numpy"))


FAMILY_F, FAMILY_DF, FAMILY_H = _symbolic_family()
family_params = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
                          st.floats(-2.0, 2.0), st.floats(0.1, 2.0))


@settings(derandomize=True, database=None, deadline=1000, max_examples=60)
@given(p1=family_params, p2=family_params, u=unit_points)
def test_bracket_generator_symbolic_property(p1, p2, u):
    gens = [GeneratorSpec.custom(lambda t, p=p: FAMILY_F(t, *p),
                                 dfunc=lambda t, p=p: FAMILY_DF(t, *p))
            for p in (p1, p2)]
    x = -2.0 + 4.0 * np.asarray(u)
    h = bracket_generator(*gens)(x)
    oracle = FAMILY_H(x, *p1, *p2)
    scale = 1.0 + np.abs(gens[0].f(x) * gens[1].df(x)) + np.abs(gens[1].f(x) * gens[0].df(x))
    assert np.max(np.abs(h - oracle) / scale) < 1e-13
