"""Tests for grid states, the point/phase unitaries, and observables."""

import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from canonflow import gridspace
from canonflow.errors import NotNormalized, SupportLeakage
from canonflow.flowcore import GeneratorSpec
from canonflow.gridspace import (GaussianState, Grid, WaveFunction,
                                 apply_point_unitary, apply_quadratic_phase,
                                 expectation, verify_bracket_identities,
                                 wavefunction_from_csv, wavefunction_to_csv)

LIN = GeneratorSpec.linear()
EXP1 = GeneratorSpec.exp_decay(1.0)
X2_CUSTOM = GeneratorSpec.custom(lambda t: t * t)
GRID = Grid.from_interval(-10.0, 10.0, 1024)
X2_GRID = Grid.from_interval(-20.0, 20.0, 1024)
EXP_GRID = Grid.from_interval(-4.0, 20.0, 2048)
X2_STATE = GaussianState(a=4.0, center=0.3, momentum=0.4)
EXP_STATE = GaussianState(a=4.0, center=5.0, momentum=-0.7)

# Flows that escape to infinity inside the grid: x^2 at eps*x -> 1 and the
# backward e^(-x) flow below x = ln(0.4).
ESCAPING = [
    pytest.param(X2_CUSTOM, 0.2, X2_GRID, X2_STATE, id="custom-x2-forward"),
    pytest.param(X2_CUSTOM, -0.2, X2_GRID, X2_STATE, id="custom-x2-backward"),
    pytest.param(EXP1, -0.4, EXP_GRID, EXP_STATE, id="exp-decay-backward"),
]


def ground():
    return GaussianState(a=1.0).to_wavefunction(GRID)


class TestStates:
    def test_norm_and_normalize(self):
        psi = ground()
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        scaled = WaveFunction(GRID, 3.0 * psi.values)
        assert scaled.normalized().norm() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0,dx", [(1e300, 0.1), (0.0, 0.0), (0.0, -0.1),
                                       (0.0, float("nan")), (float("inf"), 1.0),
                                       (0.0, 1e308)],
                             ids=["points-coincide", "zero-spacing", "decreasing",
                                  "nan-spacing", "infinite-origin", "spacing-overflows"])
    def test_grid_points_must_be_finite_and_increasing(self, x0, dx):
        with pytest.raises(ValueError, match=re.escape(f"grid x0={x0!r}, dx={dx!r}, n=16")):
            Grid(x0, dx, 16)

    def test_values_immutable(self):
        psi = ground()
        with pytest.raises(ValueError):
            psi.values[0] = 1.0

    def test_gaussian_moments_match_grid(self):
        g = GaussianState(a=1.2 - 0.4j, center=0.7, momentum=0.9, phase=0.3)
        psi = g.to_wavefunction(GRID)
        assert expectation("x", psi) == pytest.approx(g.mean_x(), abs=1e-10)
        assert expectation("x2", psi) == pytest.approx(g.mean_x2(), abs=1e-10)
        assert expectation("p", psi) == pytest.approx(g.mean_p(), abs=1e-10)
        assert expectation("p2", psi) == pytest.approx(g.mean_p2(), abs=1e-10)
        cov = 0.5 * expectation("xp_anticomm", psi) - g.mean_x() * g.mean_p()
        assert cov == pytest.approx(g.cov_xp(), abs=1e-10)

    def test_csv_round_trip(self, tmp_path):
        psi = GaussianState(a=0.8 + 0.2j, center=0.3, momentum=-1.1).to_wavefunction(GRID)
        path = tmp_path / "state.csv"
        wavefunction_to_csv(psi, path)
        back = wavefunction_from_csv(path)
        assert back.grid == psi.grid
        assert np.max(np.abs(back.values - psi.values)) < 1e-15

    def test_fidelity_never_exceeds_one(self):
        # rounding in the overlap and the norms reads 1 + O(1e-16) unclamped
        rng = np.random.default_rng(7)
        for _ in range(200):
            psi = WaveFunction(GRID, rng.normal(size=GRID.n)
                               + 1j * rng.normal(size=GRID.n))
            assert psi.fidelity(psi) <= 1.0

    def test_edge_decay_flags_wide_states(self):
        wide = GaussianState(a=0.02).to_wavefunction(Grid.from_interval(-6, 6, 128))
        assert not wide.edge_decay_ok()


class TestPointUnitary:
    def test_identity_at_zero(self):
        psi = ground()
        out = apply_point_unitary(LIN, 0.0, psi)
        assert np.array_equal(out.values, psi.values)

    def test_norm_preserved(self):
        psi = GaussianState(a=1.3, center=0.5, momentum=0.7).to_wavefunction(GRID)
        out = apply_point_unitary(LIN, 0.5, psi)
        assert abs(out.norm() - psi.norm()) < 1e-9

    def test_dilation_second_moment(self):
        # <x^2> of the transformed ground state: 0.5 e^(-2 eps)
        psi = ground()
        out = apply_point_unitary(LIN, 0.3, psi).normalized()
        assert expectation("x2", out) == pytest.approx(0.2744058180470132, abs=1e-8)

    def test_dilation_moment_law(self):
        wide = Grid.from_interval(-14.0, 14.0, 1024)
        g = GaussianState(a=1.0, center=0.8, momentum=0.0)
        psi = g.to_wavefunction(wide)
        for eps in (-0.4, 0.25):
            out = apply_point_unitary(LIN, eps, psi).normalized()
            assert expectation("x", out) == pytest.approx(
                np.exp(-eps) * expectation("x", psi), abs=1e-8)
            assert expectation("x2", out) == pytest.approx(
                np.exp(-2 * eps) * expectation("x2", psi), abs=1e-8)

    def test_heisenberg_position_map(self):
        # U x U^dag psi = phi_eps(x) psi, exercised on the grid
        eps = 0.3
        psi = GaussianState(a=1.5, center=0.4).to_wavefunction(GRID)
        moved = apply_point_unitary(LIN, -eps, psi)
        lhs = apply_point_unitary(LIN, eps,
                                  WaveFunction(GRID, GRID.x * moved.values))
        rhs = np.exp(eps) * GRID.x * psi.values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-8

    @pytest.mark.parametrize("eps", [-0.5, -0.2, 0.2, 0.5])
    def test_matches_gaussian_rule(self, eps):
        wide = Grid.from_interval(-14.0, 14.0, 1024)
        g = GaussianState(a=1.0, center=0.5, momentum=-0.4)
        grid_out = apply_point_unitary(LIN, eps, g.to_wavefunction(wide))
        rule_out = g.dilated(eps).to_wavefunction(wide)
        assert grid_out.fidelity(rule_out) > 1.0 - 1e-9

    def test_composition(self):
        psi = ground()
        both = apply_point_unitary(LIN, 0.2, apply_point_unitary(LIN, 0.15, psi))
        once = apply_point_unitary(LIN, 0.35, psi)
        assert both.fidelity(once) > 1.0 - 1e-7

    def test_nonlinear_generator_unitarity(self):
        gen = GeneratorSpec.exp_decay(1.0)
        psi = GaussianState(a=2.0, center=4.0).to_wavefunction(
            Grid.from_interval(-6, 14, 512))
        out = apply_point_unitary(gen, 0.4, psi)
        assert abs(out.norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("gen,eps,grid,state", ESCAPING)
    def test_escaping_flow_one_vector_pass(self, monkeypatch, gen, eps, grid, state):
        # two scalar preimages of the grid's ends and one vector pass; no
        # per-point evaluation even where the flow escapes inside the grid
        calls = []
        original = gridspace.flow_evaluate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(gridspace, "flow_evaluate", counted)
        psi = state.to_wavefunction(grid)
        start = time.perf_counter()
        out = apply_point_unitary(gen, eps, psi)
        assert time.perf_counter() - start < 0.5
        assert len(calls) <= 3
        assert abs(out.norm() - 1.0) < 1e-9

    @pytest.mark.parametrize("eps", [0.2, -0.2])
    def test_escaping_custom_flow_matches_closed_form(self, eps):
        psi = X2_STATE.to_wavefunction(X2_GRID)
        custom = apply_point_unitary(X2_CUSTOM, eps, psi)
        closed = apply_point_unitary(GeneratorSpec.quadratic(), eps, psi)
        assert np.max(np.abs(custom.values - closed.values)) < 1e-10

    @pytest.mark.parametrize("eps", [0.4, -0.4])
    def test_nonlinear_pointwise_oracle(self, eps):
        # sqrt(phi'(x)) psi(phi(x)) with phi(x) = ln(e^x + eps) in closed form;
        # points whose image is undefined are zero
        x = EXP_GRID.x
        arg = np.exp(x) + eps
        ok = arg > 0
        u = np.log(arg[ok]) - EXP_STATE.center
        a = EXP_STATE.a
        oracle = np.zeros(EXP_GRID.n, dtype=complex)
        oracle[ok] = (np.sqrt(1.0 / (1.0 + eps * np.exp(-x[ok])))
                      * (a / np.pi) ** 0.25
                      * np.exp(-0.5 * a * u * u + 1j * EXP_STATE.momentum * u))
        out = apply_point_unitary(EXP1, eps, EXP_STATE.to_wavefunction(EXP_GRID))
        assert np.max(np.abs(out.values - oracle)) < 1e-13

    def test_no_image_in_grid_raises_support_leakage(self):
        # e^(-x) at eps -0.4 is undefined below x = ln(0.4): a grid there has
        # no point with an image
        grid = Grid.from_interval(-6.0, -2.0, 64)
        psi = GaussianState(a=16.0, center=-4.0).to_wavefunction(grid)
        with pytest.raises(SupportLeakage):
            apply_point_unitary(EXP1, -0.4, psi)

    def test_support_leakage_raised(self):
        # expanding transform pushes the support past the grid edge
        psi = GaussianState(a=0.6).to_wavefunction(Grid.from_interval(-8, 8, 256))
        with pytest.raises(SupportLeakage):
            apply_point_unitary(LIN, -1.2, psi)


# U(eps) U(-eps) psi = psi and norm preservation on random Gaussians; the
# ranges keep every state and its images clear of the grid edges
ROUND_TRIPS = {
    "linear": (LIN, Grid.from_interval(-14.0, 14.0, 512), (-1.0, 1.0)),
    "exp_decay": (EXP1, Grid.from_interval(-4.0, 14.0, 576), (4.5, 6.0)),
}


@settings(derandomize=True, database=None, deadline=1000, max_examples=40)
@given(kind=st.sampled_from(sorted(ROUND_TRIPS)),
       eps=st.floats(-0.4, 0.4),
       a=st.floats(2.0, 4.0),
       center=st.floats(0.0, 1.0),
       momentum=st.floats(-1.0, 1.0))
def test_point_unitary_round_trip(kind, eps, a, center, momentum):
    gen, grid, (lo, hi) = ROUND_TRIPS[kind]
    psi = GaussianState(a=a, center=lo + center * (hi - lo),
                        momentum=momentum).to_wavefunction(grid)
    there = apply_point_unitary(gen, eps, psi)
    back = apply_point_unitary(gen, -eps, there)
    assert abs(there.norm() - psi.norm()) < 1e-12
    assert np.max(np.abs(back.values - psi.values)) < 1e-11


def dense_band_limited_values(psi, points):
    """The trigonometric interpolant summed directly with an n x m phase matrix."""
    grid = psi.grid
    coeff = np.fft.fft(psi.values) / grid.n
    phases = np.exp(1j * np.outer(np.asarray(points) - grid.x0, grid.k))
    return phases @ coeff


@settings(derandomize=True, database=None, deadline=2000, max_examples=50)
@given(n=st.integers(8, 4096),
       kind=st.sampled_from(["noise", "gaussian"]),
       x0=st.floats(-10.0, 10.0),
       length=st.floats(0.5, 50.0),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=4096, kind="noise", x0=-3.0, length=24.0, seed=1)
@example(n=4095, kind="noise", x0=0.5, length=7.0, seed=2)
@example(n=9, kind="gaussian", x0=-1.0, length=2.0, seed=3)
def test_band_limited_values_match_dense_sum(n, kind, x0, length, seed):
    # the NUFFT against the direct sum, for full-band and smooth states, at
    # the grid's ends, inside it and in the wrapped cell [xmax, x0 + n dx)
    rng = np.random.default_rng(seed)
    grid = Grid.from_interval(x0, x0 + length, n)
    if kind == "noise":
        psi = WaveFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
    else:
        psi = GaussianState(a=1.0 / (rng.uniform(0.02, 0.2) * length) ** 2,
                            center=x0 + rng.uniform(0.2, 0.8) * length,
                            momentum=rng.uniform(-2.0, 2.0)).to_wavefunction(grid)
    end = grid.x0 + n * grid.dx
    points = np.concatenate([[grid.x0, grid.xmax],
                             rng.uniform(grid.x0, end, 40),
                             rng.uniform(grid.xmax, end, 8)])
    coeff_l1 = np.sum(np.abs(np.fft.fft(psi.values))) / n
    err = np.abs(gridspace.band_limited_values(psi, points)
                 - dense_band_limited_values(psi, points))
    assert np.max(err) <= 1e-12 * coeff_l1


def test_band_limited_values_peak_memory():
    # n = m = 2048; the dense phase matrix alone would take 64 MB
    psi = EXP_STATE.to_wavefunction(EXP_GRID)
    points = np.linspace(EXP_GRID.x0, EXP_GRID.xmax, EXP_GRID.n) + 0.3 * EXP_GRID.dx
    tracemalloc.start()
    try:
        gridspace.band_limited_values(psi, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


class TestQuadraticPhase:
    def test_modulus_preserved_exactly(self):
        psi = GaussianState(a=1.0, center=0.4, momentum=0.2).to_wavefunction(GRID)
        out = apply_quadratic_phase(0.8, psi)
        diff = np.abs(np.abs(out.values) - np.abs(psi.values))
        assert np.max(diff) <= 1e-15 * np.max(np.abs(psi.values))
        assert out.norm() == pytest.approx(psi.norm(), abs=1e-15)

    def test_zero_is_identity(self):
        psi = ground()
        assert np.array_equal(apply_quadratic_phase(0.0, psi).values, psi.values)

    def test_inverse_pair(self):
        psi = GaussianState(a=1.1, center=-0.3).to_wavefunction(GRID)
        back = apply_quadratic_phase(-1.0, apply_quadratic_phase(1.0, psi))
        assert np.max(np.abs(back.values - psi.values)) < 1e-15

    def test_gaussian_width_rule(self):
        # exponent algebra: a -> a + i chi (plus center shifts)
        g = GaussianState(a=1.0, center=0.6, momentum=0.1, phase=0.2)
        grid_out = apply_quadratic_phase(0.7, g.to_wavefunction(GRID))
        rule_out = g.quadratic_phased(0.7).to_wavefunction(GRID)
        overlap = grid_out.normalized().inner(rule_out.normalized())
        assert abs(overlap - 1.0) < 1e-12


class TestExpectation:
    def test_requires_normalized(self):
        psi = ground()
        with pytest.raises(NotNormalized):
            expectation("x", WaveFunction(GRID, 2.0 * psi.values))

    def test_parity(self):
        assert expectation("x", ground()) == pytest.approx(0.0, abs=1e-12)

    def test_ground_state_kinetic(self):
        assert expectation("p2", ground()) == pytest.approx(0.5, abs=1e-10)

    def test_quadratic_hamiltonian_observable(self):
        from canonflow.hamiltonians import QuadraticHamiltonian
        ham = QuadraticHamiltonian.oscillator(1.0, 1.0)
        assert expectation(ham, ground()) == pytest.approx(0.5, abs=1e-10)

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(width_re=st.floats(0.7, 2.0), width_im=st.floats(-1.0, 1.0),
           center=st.floats(-1.5, 1.5), momentum=st.floats(-2.0, 2.0),
           a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0), c=st.floats(-2.0, 2.0))
    def test_quadratic_hamiltonian_matches_gaussian_closed_form(
            self, width_re, width_im, center, momentum, a, b, c):
        from canonflow.hamiltonians import QuadraticHamiltonian
        g = GaussianState(complex(width_re, width_im), center, momentum)
        psi = g.to_wavefunction(GRID).normalized()
        # (c/2)<{x,p}> = c (<x><p> + cov_xp)
        closed = (a * g.mean_p2() + b * g.mean_x2()
                  + c * (g.mean_x() * g.mean_p() + g.cov_xp()))
        assert abs(expectation(QuadraticHamiltonian(a, b, c), psi) - closed) <= 1e-10
        assert (expectation(QuadraticHamiltonian(a, b, 0.0), psi)
                == a * expectation("p2", psi) + b * expectation("x2", psi))

    def test_zero_c_skips_the_anticommutator(self, monkeypatch):
        from canonflow.hamiltonians import QuadraticHamiltonian
        powers = []
        apply = gridspace.apply_momentum
        monkeypatch.setattr(gridspace, "apply_momentum",
                            lambda values, grid, power=1: powers.append(power)
                            or apply(values, grid, power))
        expectation(QuadraticHamiltonian.oscillator(1.0, 1.0), ground())
        assert powers == [2]
        powers.clear()
        expectation(QuadraticHamiltonian(0.5, 0.5, 0.3), ground())
        assert powers == [2, 1, 1]

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            expectation("x3", ground())


class TestBracketIdentities:
    def test_linear_quadratic_pair(self):
        grid = Grid.from_interval(-10, 10, 256)
        probes = [GaussianState(a=1.0).to_wavefunction(grid),
                  GaussianState(a=0.9, center=0.5, momentum=1.0).to_wavefunction(grid)]
        rep = verify_bracket_identities(GeneratorSpec.linear(),
                                        GeneratorSpec.quadratic(), grid, probes)
        assert rep.multiplication_identity < 1e-8
        assert rep.generator_identity < 1e-8

    def test_equal_generators(self):
        grid = Grid.from_interval(-10, 10, 256)
        probes = [GaussianState(a=1.0).to_wavefunction(grid)]
        rep = verify_bracket_identities(GeneratorSpec.quadratic(),
                                        GeneratorSpec.quadratic(), grid, probes)
        assert rep.generator_identity == 0.0

    def test_constant_reduces_to_canonical_commutator(self):
        # [2p, f2] = -2i f2'
        grid = Grid.from_interval(-10, 10, 256)
        one = GeneratorSpec.custom(
            lambda x: np.ones_like(np.asarray(x, dtype=float)),
            dfunc=lambda x: np.zeros_like(np.asarray(x, dtype=float)), name="1")
        probes = [GaussianState(a=1.0).to_wavefunction(grid)]
        rep = verify_bracket_identities(one, GeneratorSpec.quadratic(), grid, probes)
        assert rep.multiplication_identity < 1e-8
