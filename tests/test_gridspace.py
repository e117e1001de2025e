"""Tests for grid states, the point/phase unitaries, and observables."""

import numpy as np
import pytest

from canonflow.errors import NotNormalized, SupportLeakage
from canonflow.flowcore import GeneratorSpec
from canonflow.gridspace import (GaussianState, Grid, WaveFunction,
                                 apply_point_unitary, apply_quadratic_phase,
                                 expectation, verify_bracket_identities,
                                 wavefunction_from_csv, wavefunction_to_csv)

LIN = GeneratorSpec.linear()
GRID = Grid.from_interval(-10.0, 10.0, 1024)


def ground():
    return GaussianState(a=1.0).to_wavefunction(GRID)


class TestStates:
    def test_norm_and_normalize(self):
        psi = ground()
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        scaled = WaveFunction(GRID, 3.0 * psi.values)
        assert scaled.normalized().norm() == pytest.approx(1.0, abs=1e-13)

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

    def test_support_leakage_raised(self):
        # expanding transform pushes the support past the grid edge
        psi = GaussianState(a=0.6).to_wavefunction(Grid.from_interval(-8, 8, 256))
        with pytest.raises(SupportLeakage):
            apply_point_unitary(LIN, -1.2, psi)


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
