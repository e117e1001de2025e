"""Tests for grid states, the point/phase unitaries, and observables."""

import ast
import dataclasses
import pathlib
import re
import tracemalloc
import warnings

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
from canonflow.propagators import dilation_map, phase_map, rotation_map

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

    @pytest.mark.parametrize("values", [
        np.zeros(64), np.r_[np.inf, np.ones(63)], np.r_[np.nan, np.ones(63)],
        GaussianState(a=1e308 + 1e308j).to_wavefunction(
            Grid.from_interval(-5.0, 5.0, 64)).values,
    ], ids=["zero", "inf-entry", "nan-entry", "width-overflows"])
    def test_normalize_refuses_a_norm_not_finite_and_positive(self, values):
        psi = WaveFunction(Grid.from_interval(-5.0, 5.0, 64), values)
        with pytest.raises(ValueError, match="cannot normalize"):
            psi.normalized()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x0,dx", [(1e300, 0.1), (0.0, 0.0), (0.0, -0.1),
                                       (0.0, float("nan")), (float("inf"), 1.0),
                                       (0.0, 1e308)],
                             ids=["points-coincide", "zero-spacing", "decreasing",
                                  "nan-spacing", "infinite-origin", "spacing-overflows"])
    def test_grid_points_must_be_finite_and_increasing(self, x0, dx):
        with pytest.raises(ValueError, match=re.escape(f"grid x0={x0!r}, dx={dx!r}, n=16")):
            Grid(x0, dx, 16)

    @pytest.mark.parametrize("shape", [(GRID.n + 1,), (1, GRID.n)],
                             ids=["too-long", "two-dimensional"])
    def test_values_must_match_the_grid(self, shape):
        with pytest.raises(ValueError, match="does not match the grid"):
            WaveFunction(GRID, np.zeros(shape))

    def test_inner_refuses_states_on_different_grids(self):
        # same n and spacing, so the arrays alone would pair up
        shifted = Grid(GRID.x0 + GRID.dx / 2, GRID.dx, GRID.n)
        with pytest.raises(ValueError, match="different grids"):
            ground().inner(GaussianState(a=1.0).to_wavefunction(shifted))

    def test_values_immutable(self):
        psi = ground()
        with pytest.raises(ValueError):
            psi.values[0] = 1.0

    def test_gaussian_moments_match_grid(self):
        g = GaussianState(a=1.2 - 0.4j, center=0.7, momentum=0.9, phase=0.3)
        psi = g.to_wavefunction(GRID)
        (x, p), sigma = g.moments()
        assert expectation("x", psi) == pytest.approx(x, abs=1e-10)
        assert expectation("x2", psi) == pytest.approx(x * x + sigma[0, 0], abs=1e-10)
        assert expectation("p", psi) == pytest.approx(p, abs=1e-10)
        assert expectation("p2", psi) == pytest.approx(p * p + sigma[1, 1], abs=1e-10)
        cov = 0.5 * expectation("xp_anticomm", psi) - x * p
        assert cov == pytest.approx(sigma[0, 1], abs=1e-10)

    def test_csv_round_trip(self, tmp_path):
        psi = GaussianState(a=0.8 + 0.2j, center=0.3, momentum=-1.1).to_wavefunction(GRID)
        path = tmp_path / "state.csv"
        wavefunction_to_csv(psi, path)
        back = wavefunction_from_csv(path)
        assert back.grid == psi.grid
        assert np.max(np.abs(back.values - psi.values)) < 1e-15

    def test_csv_bytes_are_lf_lines_of_17g_text(self, tmp_path):
        # the dialect of trajectory.csv: "\n" line ends and full-precision .17g text
        grid = Grid(-1.5, 0.5, 8)
        psi = WaveFunction(grid, grid.x / 3 + 0.1j * grid.x ** 2)
        path = tmp_path / "state.csv"
        wavefunction_to_csv(psi, path)
        assert path.read_bytes() == (
            b"x,re,im\n"
            b"-1.5,-0.5,0.22500000000000001\n"
            b"-1,-0.33333333333333331,0.10000000000000001\n"
            b"-0.5,-0.16666666666666666,0.025000000000000001\n"
            b"0,0,0\n"
            b"0.5,0.16666666666666666,0.025000000000000001\n"
            b"1,0.33333333333333331,0.10000000000000001\n"
            b"1.5,0.5,0.22500000000000001\n"
            b"2,0.66666666666666663,0.40000000000000002\n")
        back = wavefunction_from_csv(path)
        assert back.grid == grid
        assert np.array_equal(back.values, psi.values)

    def test_fidelity_never_exceeds_one(self):
        # rounding in the overlap and the norms reads 1 + O(1e-16) unclamped
        rng = np.random.default_rng(7)
        for _ in range(200):
            psi = WaveFunction(GRID, rng.normal(size=GRID.n)
                               + 1j * rng.normal(size=GRID.n))
            assert psi.fidelity(psi) <= 1.0

    def test_fidelity_of_a_nan_state_is_nan(self):
        # the clamp to 1 must not turn a NaN ratio into a perfect match
        grid = Grid.from_interval(-8.0, 8.0, 256)
        clean = GaussianState(a=1.0).to_wavefunction(grid)
        values = clean.values.copy()
        values[100] = np.nan
        bad = WaveFunction(grid, values)
        for fid in (bad.fidelity(clean), clean.fidelity(bad), bad.fidelity(bad)):
            assert np.isnan(fid)

    def test_edge_decay_flags_wide_states(self):
        wide = GaussianState(a=0.02).to_wavefunction(Grid.from_interval(-6, 6, 128))
        assert not wide.edge_decay_ok()

    @pytest.mark.parametrize("peak, edge", [(1.0, 1e200), (1e-160, 1e-165)],
                             ids=["edge-overflows-squared", "edge-underflows-squared"])
    def test_edge_decay_reads_amplitudes_not_densities(self, peak, edge):
        # |psi|^2 of these edges is inf and 0, so a check on the density
        # would pass both states
        values = np.zeros(128, dtype=complex)
        values[64], values[0] = peak, edge
        assert not WaveFunction(Grid.from_interval(-6, 6, 128), values).edge_decay_ok()


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

    # the last input doubles x (eps = ln 2): the window's last point, 6, maps
    # onto the grid's last point, 12, and is read like every point inside
    @pytest.mark.parametrize("eps,grid", [
        *((eps, Grid.from_interval(-14.0, 14.0, 1024)) for eps in (-0.5, -0.2, 0.2, 0.5)),
        (np.log(2.0), Grid(-12.0, 1 / 16, 385))], ids=["-0.5", "-0.2", "0.2", "0.5", "ln2"])
    def test_matches_gaussian_rule(self, eps, grid):
        g = GaussianState(a=1.0, center=0.5, momentum=-0.4)
        grid_out = apply_point_unitary(LIN, eps, g.to_wavefunction(grid))
        rule_out = g.transported(dilation_map(eps), 0.0).to_wavefunction(grid)
        assert grid_out.fidelity(rule_out) > 1.0 - 1e-9
        # measured at most 1.9e-15
        assert np.max(np.abs(grid_out.values - rule_out.values)) <= 1e-13

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

        f_calls = []
        if gen.kind == "custom":
            def f(t, func=gen.func):
                f_calls.append(np.size(t))
                return func(t)
            gen = dataclasses.replace(gen, func=f)
        monkeypatch.setattr(gridspace, "flow_evaluate", counted)
        psi = state.to_wavefunction(grid)
        out = apply_point_unitary(gen, eps, psi)
        assert len(calls) <= 3
        # the adaptive vector pass calls f 4305 times at eps = +-0.2; the
        # bound leaves 40% for other integrator paths, while integrating
        # the 1024 points one by one calls it far more often
        assert len(f_calls) <= 6000
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

    def test_mass_outside_the_read_window_raises_support_leakage(self):
        # e^(-ln 4) x reads only |x| <= 2.5 of a state that decays at the
        # edge but holds about 4e-4 of its mass beyond
        psi = GaussianState(a=1.0).to_wavefunction(Grid.from_interval(-10.0, 10.0, 256))
        with pytest.raises(SupportLeakage, match="outside the window"):
            apply_point_unitary(LIN, -np.log(4.0), psi)

    def test_transformed_support_at_the_edge_raises_support_leakage(self):
        # e^(-ln 2) x loses only the mass beyond |x| = 5 (about 1e-12), but
        # carries the amplitude at |x| = 5 (about 4e-6) to the grid edge
        psi = GaussianState(a=1.0).to_wavefunction(Grid.from_interval(-10.0, 10.0, 256))
        with pytest.raises(SupportLeakage, match="reaches the grid edge"):
            apply_point_unitary(LIN, -np.log(2.0), psi, leak_tol=1e-6)

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
        rule_out = g.transported(phase_map(0.7), 0.0).to_wavefunction(GRID)
        overlap = grid_out.normalized().inner(rule_out.normalized())
        assert abs(overlap - 1.0) < 1e-12


# one leg of a linear canonical map: (constructor, its parameters)
MAP_LEGS = st.one_of(
    st.tuples(st.just(dilation_map), st.tuples(st.floats(-1.0, 1.0))),
    st.tuples(st.just(phase_map), st.tuples(st.floats(-2.0, 2.0))),
    st.tuples(st.just(rotation_map), st.tuples(st.floats(0.2, 3.0), st.floats(0.2, 3.0),
                                                st.floats(0.0, 10.0))))


def product_of(legs, chi_sign=1.0):
    """The map of the legs applied in order (the first leg acts first), with
    every phase_map's chi multiplied by chi_sign."""
    total = np.eye(2)
    for make, args in legs:
        total = make(*((chi_sign * args[0],) if make is phase_map else args)) @ total
    return total


def moment_gap(g, legs, chi_sign=1.0):
    """Largest gap between the transported Gaussian's (mu, Sigma) and the
    conjugated (M mu, M Sigma M^T), relative to the conjugated entries
    (at least 1); chi_sign flips chi on the conjugation side only."""
    mu, sigma = g.moments()
    mu_t, sigma_t = g.transported(product_of(legs), 0.0).moments()
    M = product_of(legs, chi_sign)
    gaps = [(mu_t, M @ mu), (sigma_t, M @ sigma @ M.T)]
    return max(np.max(np.abs(got - want)) / max(1.0, np.max(np.abs(want)))
               for got, want in gaps)


class TestCanonicalMaps:
    # Moment conjugation never reads a <- -iP/Q, so it is a second route to
    # transported's width, centre and momentum rule.  Worst relative gap
    # over these 200 examples 2.6e-13, over 20000 uniform draws from the same
    # boxes 1.04e-13; bound 1e-12, a margin of about 4x.
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(width_re=st.floats(0.2, 3.0), width_im=st.floats(-2.0, 2.0),
           center=st.floats(-2.0, 2.0), momentum=st.floats(-2.0, 2.0),
           legs=st.lists(MAP_LEGS, min_size=1, max_size=5))
    def test_transport_conjugates_the_moments(self, width_re, width_im, center,
                                              momentum, legs):
        g = GaussianState(complex(width_re, width_im), center, momentum)
        assert moment_gap(g, legs) <= 1e-12

    def test_flipped_phase_misses_the_moments(self):
        # negative control: 5.6e-17 as built, 0.64 with chi flipped
        g = GaussianState(1.2 - 0.3j, 0.5, -0.4)
        legs = [(dilation_map, (0.3,)), (phase_map, (0.8,)),
                (rotation_map, (1.0, 1.3, 2.0)), (phase_map, (-0.5,))]
        assert moment_gap(g, legs) <= 1e-12
        assert moment_gap(g, legs, chi_sign=-1.0) > 1e-2


class TestExpectation:
    def test_requires_normalized(self):
        psi = ground()
        with pytest.raises(NotNormalized):
            expectation("x", WaveFunction(GRID, 2.0 * psi.values))

    def test_nan_norm_is_not_normalized(self):
        values = ground().values.copy()
        values[GRID.n // 2] = np.nan
        with pytest.raises(NotNormalized):
            expectation("x", WaveFunction(GRID, values))

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
        (x, p), sigma = g.moments()
        closed = (a * (p * p + sigma[1, 1]) + b * (x * x + sigma[0, 0])
                  + c * (x * p + sigma[0, 1]))
        assert abs(expectation(QuadraticHamiltonian(a, b, c), psi) - closed) <= 1e-10
        assert (expectation(QuadraticHamiltonian(a, b, 0.0), psi)
                == a * expectation("p2", psi) + b * expectation("x2", psi))

    def test_zero_c_skips_the_anticommutator(self, monkeypatch):
        # p^2 comes from the momentum density, so only {x,p} applies p: not
        # at all when c = 0, twice (p psi and p x psi) otherwise
        from canonflow.hamiltonians import QuadraticHamiltonian
        powers = []
        apply = gridspace.apply_momentum
        monkeypatch.setattr(gridspace, "apply_momentum",
                            lambda values, grid, power=1: powers.append(power)
                            or apply(values, grid, power))
        expectation(QuadraticHamiltonian.oscillator(1.0, 1.0), ground())
        assert powers == []
        expectation(QuadraticHamiltonian(0.5, 0.5, 0.3), ground())
        assert powers == [1, 1]

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(n=st.integers(8, 2049), shift=st.floats(-5.0, 5.0),
           half_length=st.floats(6.0, 20.0), width_re=st.floats(0.3, 3.0),
           width_im=st.floats(-1.0, 1.0), center=st.floats(-2.0, 2.0),
           momentum=st.floats(-3.0, 3.0))
    @example(n=2048, shift=0.0, half_length=12.0, width_re=1.0, width_im=0.0,
             center=1.0, momentum=0.0)
    @example(n=9, shift=0.0, half_length=6.0, width_re=0.3, width_im=1.0,
             center=0.0, momentum=3.0)
    def test_momentum_moments_match_the_applied_operator(
            self, n, shift, half_length, width_re, width_im, center, momentum):
        # Parseval: sum_j k_j^s P_j is <psi|p^s psi> with p^s applied by FFT,
        # on numpy's k layout with the Nyquist mode, for odd and even n
        grid = Grid.from_interval(shift - half_length, shift + half_length, n)
        gauss = GaussianState(complex(width_re, width_im), center + shift, momentum)
        psi = gauss.to_wavefunction(grid).normalized()
        applied = [complex(grid.dx * np.vdot(psi.values, gridspace.apply_momentum(
            psi.values, grid, power))).real for power in (1, 2)]
        scale = applied[1]
        assert abs(expectation("p", psi) - applied[0]) <= 1e-13 * np.sqrt(scale)
        assert abs(expectation("p2", psi) - applied[1]) <= 1e-13 * scale

    def test_momentum_moments_share_one_fft(self, monkeypatch):
        calls = []
        fft = np.fft.fft
        monkeypatch.setattr(np.fft, "fft",
                            lambda *args, **kwargs: calls.append(1) or fft(*args, **kwargs))
        psi = ground()
        expectation("p", psi)
        expectation("p2", psi)
        assert len(calls) == 1

    def test_unknown_observable(self):
        with pytest.raises(ValueError):
            expectation("x3", ground())

    def test_far_state_warns_of_an_imaginary_anticommutator_residue(self):
        # <{x,p}> about the origin loses digits in proportion to |x| |p|: a
        # real Gaussian at 1e7 reads an imaginary residue of about 3.5e-10
        def far(x0):
            grid = Grid.from_interval(x0, x0 + 24.0, 2048)
            return GaussianState(a=1.0, center=x0 + 12.0).to_wavefunction(grid)

        with pytest.warns(UserWarning, match="imaginary residue .* in <xp_anticomm>"):
            expectation("xp_anticomm", far(1e7))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expectation("xp_anticomm", far(1e5))


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
            dfunc=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        probes = [GaussianState(a=1.0).to_wavefunction(grid)]
        rep = verify_bracket_identities(one, GeneratorSpec.quadratic(), grid, probes)
        assert rep.multiplication_identity < 1e-8


class _GridReductions(ast.NodeVisitor):
    """Records, with its enclosing function, each np.vdot call and each
    product of something named dx with an expression that calls np.sum."""

    def __init__(self):
        self.where, self.found = [], []

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    def _record(self, node):
        self.found.append(self.where[-1] if self.where else f"line {node.lineno}")

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "vdot":
            self._record(node)
        self.generic_visit(node)

    def visit_BinOp(self, node):
        sides = (node.left, node.right)
        if isinstance(node.op, ast.Mult) and any(
                _names(side, "dx") for side in sides) and any(
                _names(side, "sum") for side in sides):
            self._record(node)
        self.generic_visit(node)


def _names(node, name):
    return any(isinstance(n, ast.Name) and n.id == name
               or isinstance(n, ast.Attribute) and n.attr == name
               for n in ast.walk(node))


def test_grid_norms_and_overlaps_are_taken_in_one_place():
    # every dx-weighted norm and overlap goes through _mass and _braket, so
    # their summation order (and so every pinned output's bits) is set there
    src = pathlib.Path(gridspace.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        finder = _GridReductions()
        finder.visit(ast.parse(path.read_text()))
        found += [f"{path.stem}.{fn}" for fn in finder.found]
    assert sorted(found) == ["gridspace._braket", "gridspace._mass"]


def test_every_imported_name_is_used():
    # __init__ imports the public names it re-exports, and an import marked
    # "# noqa: F401" is kept for its side effect
    src = pathlib.Path(gridspace.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    and "# noqa: F401" not in lines[node.lineno - 1]):
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.stem}.{name}" for name in names if name not in used]
    assert unused == []
