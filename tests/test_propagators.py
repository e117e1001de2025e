"""Tests for the propagators: exact chain, split-step, Gaussian transport, CN."""

import tracemalloc
from functools import partial
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from canonflow import gridspace, propagators
from canonflow.errors import (LinearSolveFailure, ResolutionError, StepFailure,
                              SupportLeakage, TruncationError)
from canonflow.flowcore import GeneratorSpec
from canonflow.gridspace import (GaussianState, Grid, WaveFunction,
                                 apply_point_unitary, apply_quadratic_phase,
                                 expectation)
from canonflow.hamiltonians import (QuadraticHamiltonian, SolvableFamily,
                                    TimeProfile, mass_epsilon,
                                    omega_from_mass)
from canonflow.metricmap import MetricProfile, metric_from_generator
from canonflow.propagators import (ExactSolvablePropagator, HermiteBasis,
                                   apply_curved_kinetic, crank_nicolson_curved,
                                   curved_kinetic_diagonals, free_propagate,
                                   gaussian_exact_propagate,
                                   oscillator_spectrum, split_step_propagate,
                                   uniform_time_grid)

GRID = Grid.from_interval(-12.0, 12.0, 2048)
CK = SolvableFamily.caldirola_kanai(gamma=0.2, omega0=np.sqrt(1.01))


def static(m, w):
    """alpha = 0: the static oscillator p^2/(2m) + (1/2) m w^2 x^2, which the
    exact chain evolves in its Hermite eigenbasis with no dilation or phase."""
    return SolvableFamily(m0=m, mu=1.0, nu=0.0, alpha=0.0, Omega0=w)


STATIC = static(1.0, 1.0)


def l2diff(a, b):
    return float(np.sqrt(a.grid.dx * np.sum(np.abs(a.values - b.values) ** 2)))


def sympy_hermite_functions(size, points):
    """phi_n(x) for m0 Omega0 = 1 from sympy's Hermite polynomials, evaluated
    at 50 digits (Horner on the exact integer coefficients) and rounded once."""
    x = sympy.Symbol("x")
    out = np.empty((size, len(points)))
    with mpmath.workdps(50):
        pref = 1 / mpmath.sqrt(mpmath.sqrt(mpmath.pi))
        for n in range(size):
            coeffs = [int(c) for c in sympy.Poly(sympy.hermite(n, x), x).all_coeffs()]
            norm = pref / mpmath.sqrt(mpmath.mpf(2) ** n * mpmath.factorial(n))
            for j, point in enumerate(points):
                xi, h = mpmath.mpf(float(point)), mpmath.mpf(0)
                for c in coeffs:
                    h = h * xi + c
                out[n, j] = float(norm * h * mpmath.exp(-xi * xi / 2))
    return out


# 246 points on [-12, 12], 68 of them past the last turning point of size 40
# (|xi| = sqrt(79) = 8.9); m0 Omega0 = 1, so xi is the point itself.  Measured
# largest errors, normalized recurrence / monic recurrence: absolute 2.2e-16 /
# 2.2e-16 at sizes 1-3 and 2.39e-15 / 2.28e-15 at size 40; relative, past each
# row's turning point, 6.3e-15 / 6.6e-15.  The bounds leave a margin of 1.7x
# or more over the worse of the two.
HERMITE_POINTS = np.concatenate([np.linspace(-12.0, 12.0, 241),
                                 [0.1, 8.9, 9.5, 10.7, -11.3]])


@pytest.mark.parametrize("size,bound", [(1, 4.4e-16), (2, 4.4e-16), (3, 4.4e-16),
                                        (40, 4e-15)])
def test_basis_against_sympy_hermite(size, bound):
    basis = HermiteBasis(size, 2.0, 0.5, GRID)
    got = basis.monic(HERMITE_POINTS) / basis.scales[:, None]
    want = sympy_hermite_functions(size, HERMITE_POINTS)
    assert np.max(np.abs(got - want)) <= bound
    past = np.abs(HERMITE_POINTS) > np.sqrt(2.0 * np.arange(size)[:, None] + 1.0)
    assert np.max(np.abs(got - want)[past] / np.abs(want[past])) <= 1.2e-14


def test_monic_rows_have_the_parity_of_their_degree():
    # the exact chain's mirror fold reads row n at -|x| as (-1)^n times row n
    # at |x|: negation is exact and every recurrence step is sign-symmetric
    basis = HermiteBasis(propagators.BASIS_SIZE, 2.0, 0.5, GRID)
    signs = (-1.0) ** np.arange(propagators.BASIS_SIZE)[:, None]
    assert np.array_equal(basis.monic(-HERMITE_POINTS),
                          signs * basis.monic(HERMITE_POINTS))


class TestHermiteBasis:
    def test_orthonormal(self):
        basis = HermiteBasis(propagators.BASIS_SIZE, 1.0, 1.0, GRID)
        assert basis.gram_residual() < 1e-8

    def test_energies(self):
        basis = HermiteBasis(5, 2.0, 1.5, GRID)
        assert np.allclose(basis.energies(), (np.arange(5) + 0.5) * 1.5)

    def test_ground_state_phase(self):
        psi = GaussianState(a=1.0).to_wavefunction(GRID)
        out = ExactSolvablePropagator(STATIC, psi)(1.7)
        assert np.max(np.abs(out.values - psi.values * np.exp(-0.5j * 1.7))) < 1e-12

    def test_coherent_period(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        out = ExactSolvablePropagator(STATIC, psi)(2.0 * np.pi)
        assert out.fidelity(psi) > 1.0 - 1e-9

    def test_zero_time_identity(self):
        psi = GaussianState(a=1.2, center=0.4).to_wavefunction(GRID)
        out = ExactSolvablePropagator(STATIC, psi)(0.0)
        assert l2diff(out, psi) < 1e-10

    def test_norm_preserved(self):
        psi = GaussianState(a=0.9, center=0.7, momentum=0.5).to_wavefunction(GRID)
        out = ExactSolvablePropagator(STATIC, psi)(3.3)
        assert abs(out.norm() - 1.0) < 1e-10


class TestSplitStep:
    def test_static_eigenstate(self):
        mass = TimeProfile.constant(1.0)
        omega = TimeProfile.constant(1.0)
        psi = GaussianState(a=1.0).to_wavefunction(GRID)
        traj = split_step_propagate(mass, omega, psi, np.linspace(0, 1, 1001))
        assert traj.final.fidelity(psi) > 1.0 - 1e-8

    def test_richardson_order(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        mass, omega = CK.mass_profile(), CK.frequency_profile()
        finals = []
        for steps in (50, 100, 200):
            traj = split_step_propagate(mass, omega, psi,
                                        np.linspace(0.0, 1.0, steps + 1))
            finals.append(traj.final)
        ratio = l2diff(finals[0], finals[1]) / l2diff(finals[1], finals[2])
        assert 3.2 <= ratio <= 4.8

    def test_norm_drift_and_residual(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        traj = split_step_propagate(CK.mass_profile(), CK.frequency_profile(),
                                    psi, np.linspace(0.0, 2.0, 2001))
        assert traj.report.max_norm_drift < 1e-10
        assert traj.report.max_schrodinger_residual < 1e-4

    def test_damped_center_matches_classical(self):
        # <x>(t) for the exponential-mass oscillator: e^(-gamma t/2) orbit
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        traj = split_step_propagate(CK.mass_profile(), CK.frequency_profile(),
                                    psi, np.linspace(0.0, 5.0, 2501))
        gamma = 0.2
        classical = np.exp(-0.5 * gamma * 5.0) * (np.cos(5.0)
                                                  + 0.5 * gamma * np.sin(5.0))
        assert expectation("x", traj.final.normalized()) == pytest.approx(
            classical, abs=1e-5)

    def test_resolution_guard(self):
        coarse = Grid.from_interval(-10, 10, 64)
        psi = GaussianState(a=8.0, momentum=6.0).to_wavefunction(coarse)
        with pytest.raises(ResolutionError):
            split_step_propagate(TimeProfile.constant(1.0),
                                 TimeProfile.constant(1.0), psi,
                                 np.linspace(0, 0.1, 11))

    # a NaN entry or an infinite frequency sample is refused before any
    # step (a NaN state would pass the resolution check: every comparison
    # with NaN is false), with no numpy warning
    @pytest.mark.parametrize("entry,omega", [(np.nan, 1.0), (np.inf, 1.0),
                                             (0.0, np.inf), (0.0, np.nan)],
                             ids=["nan-entry", "inf-entry", "infinite-frequency",
                                  "nan-frequency"])
    def test_non_finite_state_raises(self, entry, omega, monkeypatch):
        drive, runs = propagators._drive, []
        monkeypatch.setattr(propagators, "_drive",
                            lambda *args: runs.append(args) or drive(*args))
        grid = Grid.from_interval(-8.0, 8.0, 256)
        values = GaussianState(a=1.0).to_wavefunction(grid).values.copy()
        values[100] += entry
        with pytest.raises(StepFailure, match="non-finite"):
            split_step_propagate(TimeProfile.constant(1.0),
                                 TimeProfile.constant(omega),
                                 WaveFunction(grid, values), np.linspace(0, 0.1, 101))
        assert runs == []

    EXP_MASS = TimeProfile.exponential(1.0, 0.2)

    @pytest.mark.parametrize("profile", [
        SolvableFamily(1.0, 1.0, 0.0, 0.1, 1.0).mass_profile(),
        SolvableFamily(1.0, 1.0, 0.0, 0.1, 1.0).frequency_profile(),
        EXP_MASS,
        TimeProfile.from_callable(lambda t: omega_from_mass(
            TestSplitStep.EXP_MASS, 1.0, t)),
    ], ids=["family-mass", "family-frequency", "exponential", "matched"])
    def test_vector_coefficients_equal_scalar_calls(self, profile):
        # split-step samples each profile once, on the vector of midpoints
        t = np.linspace(0.0, 5.0, 5001)
        mid = 0.5 * (t[:-1] + t[1:])
        assert np.array_equal(profile.value(mid),
                              [float(profile.value(tm)) for tm in mid])

    @pytest.mark.parametrize("stride", [0, -2])
    def test_stride_below_one_is_value_error(self, stride):
        psi = GaussianState(a=1.0).to_wavefunction(GRID)
        t = np.linspace(0.0, 0.1, 11)
        with pytest.raises(ValueError):
            split_step_propagate(TimeProfile.constant(1.0),
                                 TimeProfile.constant(1.0), psi, t, stride=stride)
        with pytest.raises(ValueError):
            ExactSolvablePropagator(CK, psi).trajectory(t, stride)

    @pytest.mark.parametrize("t_grid", [[0.0], [[0.0, 0.1]], [0.0, 0.1, 0.3],
                                        [0.0, 0.0], [0.0, np.inf], [0.0, np.nan]],
                             ids=["one-point", "two-dimensional", "non-uniform",
                                  "zero-step", "infinite", "nan"])
    def test_time_grid_a_stepped_run_refuses_is_value_error(self, t_grid):
        # the chain keeps the times a stepped run over t_grid would keep, so
        # it refuses the grids a stepped run refuses
        psi = GaussianState(a=1.0).to_wavefunction(GRID)
        with pytest.raises(ValueError):
            split_step_propagate(TimeProfile.constant(1.0),
                                 TimeProfile.constant(1.0), psi, t_grid)
        with pytest.raises(ValueError):
            crank_nicolson_curved(MetricProfile.constant(1.0), 1.0, psi, t_grid)
        with pytest.raises(ValueError):
            ExactSolvablePropagator(CK, psi).trajectory(t_grid)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, np.inf, np.nan])
    def test_uniform_time_grid_refuses_a_step_not_positive_and_finite(self, dt):
        with pytest.raises(ValueError):
            uniform_time_grid(1.0, dt)

    def test_uniform_time_grid_rounds_the_step_count(self):
        assert np.array_equal(uniform_time_grid(1.0, 0.3), np.linspace(0.0, 1.0, 4))
        assert np.array_equal(uniform_time_grid(0.1, 1.0), [0.0, 0.1])
        assert np.array_equal(uniform_time_grid(-1.0, 0.25), np.linspace(0.0, -1.0, 5))

    def test_stride_past_the_last_step_keeps_both_ends(self):
        # a stride past the int64 range still indexes the time grid
        psi = GaussianState(a=1.0).to_wavefunction(GRID)
        t = np.linspace(0.0, 0.1, 11)
        for traj in (split_step_propagate(TimeProfile.constant(1.0),
                                          TimeProfile.constant(1.0), psi, t,
                                          stride=10 ** 20),
                     ExactSolvablePropagator(CK, psi).trajectory(t, 10 ** 20)):
            assert np.array_equal(traj.times, [0.0, 0.1])
            assert len(traj.states) == 2

    def test_time_reversal(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        mass, omega = CK.mass_profile(), CK.frequency_profile()
        fwd = split_step_propagate(mass, omega, psi, np.linspace(0.0, 2.0, 2001))
        back = split_step_propagate(mass, omega, fwd.final,
                                    np.linspace(2.0, 0.0, 2001))
        assert back.final.fidelity(psi) > 1.0 - 1e-6


def half_angle_cis(theta):
    """e^(i theta) for real theta: cos = r - 1, sin = t r with t = tan(theta/2)
    and r = 2/(1 + t^2)."""
    t = np.tan(0.5 * theta)
    r = 2.0 / (1.0 + t * t)
    out = np.empty(t.shape, complex)
    out.real, out.imag = r - 1.0, t * r
    return out


def full_array_step(grid, dt, m, w, values):
    """The Strang step with both half-angle phases evaluated at every grid point."""
    x2, k2 = grid.x ** 2, grid.k ** 2
    half_v = half_angle_cis(-0.25 * dt * m * w * w * x2)
    kin = half_angle_cis(-0.5 * dt * k2 * (1.0 / m))
    return half_v * np.fft.ifft(kin * np.fft.fft(half_v * values))


def exp_step(grid, dt, m, w, values):
    """The Strang step with both phases from ``np.exp`` of imaginary arguments."""
    x2, k2 = grid.x ** 2, grid.k ** 2
    half_v = np.exp(-0.25j * dt * m * w * w * x2)
    kin = np.exp(-0.5j * dt * k2 / m)
    return half_v * np.fft.ifft(kin * np.fft.fft(half_v * values))


# the phase against numpy's complex exponential, at zero, negative angles,
# half angles at and next to the double nearest pi/2 (where tan is largest)
# and |theta| up to 1e4
def test_half_angle_phase_matches_exp():
    near = [np.nextafter(np.pi / 2, 0.0), np.pi / 2, np.nextafter(np.pi / 2, 4.0)]
    theta = np.concatenate([[0.0, -0.0, -1e-300, -1.0, -np.pi, 1e4, -1e4],
                            2.0 * np.array(near), -2.0 * np.array(near),
                            np.linspace(-40.0, 40.0, 100001),
                            np.random.default_rng(5).uniform(-1e4, 1e4, 100000)])
    half = 0.5 * theta
    t, r = np.empty_like(half), np.empty_like(half)
    got = propagators._half_angle_cis(half, t, r, np.empty(half.size, complex))
    assert np.all(np.isfinite(got))
    assert np.max(np.abs(got - np.exp(1j * theta))) <= 1e-15
    assert np.max(np.abs(np.abs(got) - 1.0)) <= 1e-15
    assert got[0] == 1.0


# grids symmetric or shifted, n odd or even, and the step's coefficients
STEP_CASES = given(
    n=st.integers(8, 4097), shift=st.one_of(st.just(0.0), st.floats(-20.0, 20.0)),
    half_length=st.floats(1.0, 40.0), m=st.floats(0.01, 100.0),
    w=st.floats(-10.0, 10.0), dt=st.floats(1e-5, 0.1),
    seed=st.integers(0, 2 ** 32 - 1))


def twenty_steps(oracle, n, shift, half_length, m, w, dt, seed):
    """(step's state, oracle's state) after 20 steps from one random state."""
    grid = Grid.from_interval(shift - half_length, shift + half_length, n)
    rng = np.random.default_rng(seed)
    want = got = rng.normal(size=n) + 1j * rng.normal(size=n)
    step = propagators._strang_step(grid, dt)
    for _ in range(20):
        want = oracle(grid, dt, m, w, want)
        got = step(m, w, got)
    return got, want


# the step split_step_propagate drives evaluates the kinetic phase once per
# distinct k^2 (the potential phase at every point); on any grid it must be
# bit-identical to the full-array step
@settings(derandomize=True, database=None, deadline=2000, max_examples=60)
@STEP_CASES
@example(n=2048, shift=0.0, half_length=12.0, m=1.3, w=1.0, dt=1e-3, seed=1)
@example(n=1024, shift=0.0, half_length=10.0, m=0.7, w=2.0, dt=1e-3, seed=2)
@example(n=2048, shift=8.0, half_length=12.0, m=1.0, w=1.0, dt=1e-3, seed=3)
@example(n=4097, shift=0.0, half_length=12.0, m=2.0, w=0.5, dt=1e-2, seed=4)
def test_strang_step_is_bit_identical_to_full_array_step(n, shift, half_length,
                                                         m, w, dt, seed):
    got, want = twenty_steps(full_array_step, n, shift, half_length, m, w, dt, seed)
    assert np.array_equal(got, want)


# the half-angle step agrees with the complex-exponential step to rounding
@settings(derandomize=True, database=None, deadline=2000, max_examples=30)
@STEP_CASES
@example(n=2048, shift=0.0, half_length=12.0, m=1.3, w=1.0, dt=1e-3, seed=1)
def test_strang_step_matches_exp_step(n, shift, half_length, m, w, dt, seed):
    got, want = twenty_steps(exp_step, n, shift, half_length, m, w, dt, seed)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class CountingNumpy:
    """numpy, with its calls of ``tan`` counted (one per phase evaluation)."""

    def __init__(self):
        self.tan_calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def tan(self, *args, **kwargs):
        self.tan_calls += 1
        return np.tan(*args, **kwargs)


# a run evaluates its two phases, in one buffer, again only when (m, w)
# changes from the previous step, and every stored state still equals the
# full-array step
@pytest.mark.parametrize("mass,tan_calls", [(TimeProfile.constant(1.3), 1),
                                            (TimeProfile.exponential(1.0, 0.2), 20)],
                         ids=["constant", "time-dependent"])
def test_split_step_phases_once_per_coefficient_pair(monkeypatch, mass, tan_calls):
    grid = Grid.from_interval(-10.0, 10.0, 256)
    psi = GaussianState(a=1.0, center=0.5).to_wavefunction(grid)
    t = np.linspace(0.0, 0.2, 21)
    omega = TimeProfile.constant(1.0)
    numpy = CountingNumpy()
    monkeypatch.setattr(propagators, "np", numpy)
    traj = split_step_propagate(mass, omega, psi, t, stride=1)
    monkeypatch.undo()
    assert numpy.tan_calls == tan_calls
    mid = 0.5 * (t[:-1] + t[1:])
    want = psi.values
    for state, m, w in zip(traj.states[1:], mass.value(mid).tolist(),
                           omega.value(mid).tolist()):
        want = full_array_step(grid, float(t[1] - t[0]), m, w, want)
        assert np.array_equal(state.values, want)


# both fixed-step integrators, keeping every state
EVERY_STATE_RUNS = pytest.mark.parametrize("run", [
    lambda psi, t: split_step_propagate(TimeProfile.exponential(1.0, 0.2),
                                        TimeProfile.constant(1.0), psi, t, stride=1),
    lambda psi, t: crank_nicolson_curved(MetricProfile.constant(1.0), 1.0, psi, t,
                                         stride=1)],
    ids=["split_step", "crank_nicolson"])


# with at most 16 steps every step is sampled, so the reported norm drift is
# the largest drift of the stored states
@EVERY_STATE_RUNS
def test_norm_drift_is_the_largest_stored_drift(run):
    grid = Grid.from_interval(-8.0, 8.0, 256)
    psi = GaussianState(a=1.0, center=0.5).to_wavefunction(grid)
    traj = run(psi, np.linspace(0.0, 0.16, 17))
    drifts = [abs(state.norm() - psi.norm()) for state in traj.states]
    assert traj.report.max_norm_drift == max(drifts) > 0.0


# every array a step hands the driver is its own: a step that returned a
# reused work buffer would make the driver's previous state its current one
@EVERY_STATE_RUNS
def test_stepped_states_never_share_memory(monkeypatch, run):
    handed = []
    drive = propagators._drive

    def recording_drive(psi0, t, dt, stride, update, *rest):
        def recorded(i, values):
            handed.append(update(i, values))
            return handed[-1]
        return drive(psi0, t, dt, stride, recorded, *rest)

    monkeypatch.setattr(propagators, "_drive", recording_drive)
    grid = Grid.from_interval(-8.0, 8.0, 256)
    psi = GaussianState(a=1.0, center=0.5).to_wavefunction(grid)
    before = psi.values.copy()
    traj = run(psi, np.linspace(0.0, 0.01, 11))
    assert len(handed) == 10 and len(traj.states) == 11
    arrays = [psi.values, *handed, *(state.values for state in traj.states)]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)
    assert np.array_equal(psi.values, before)


FALLING = SolvableFamily(m0=1.0, mu=0.0, nu=1.0, alpha=0.2, Omega0=1.0)


def complex_frame_chain(family, psi0, times, static_mass=None):
    """The exact chain with the envelope inside the sum: at each t an M x n
    complex frame e^(-e/2) e^(i chi e^(-2e) x^2/2) phi_n(e^(-e) x) on psi0's
    grid, with no mirror fold, which projects psi0 at t = 0 and is summed
    with c_n e^(-i E_n t) in complex."""
    m0 = family.static_mass() if static_mass is None else float(static_mass)
    grid = psi0.grid
    basis = HermiteBasis(propagators.BASIS_SIZE, m0, family.Omega0, grid)
    x = grid.x

    def frame(t):
        e, de, _ = (float(v) for v in mass_epsilon(*family.mass_with_derivatives(t), m0))
        envelope = np.exp(-0.5 * e + 0.5j * m0 * de * np.exp(-2.0 * e) * x * x)
        rows = basis.monic(np.exp(-e) * x) / basis.scales[:, None]
        return envelope * rows.astype(complex)

    coeffs = grid.dx * (frame(0.0).conj() @ psi0.values)
    energies = (np.arange(propagators.BASIS_SIZE) + 0.5) * family.Omega0
    return [(coeffs * np.exp(-1j * energies * t)) @ frame(t) for t in times]


def assert_matches_complex_frame_chain(family, static_mass, grid, times):
    # the library's gauge is m(0); a reference in another gauge checks that
    # the states do not depend on it
    psi = GaussianState(a=1.1 - 0.2j, center=0.7, momentum=-0.4).to_wavefunction(grid)
    prop = ExactSolvablePropagator(family, psi)
    for t, want in zip(times, complex_frame_chain(family, psi, times, static_mass)):
        assert np.max(np.abs(prop(t).values - want)) <= 1e-13


class TestExactChain:
    def test_one_mass_evaluation_per_frame(self, monkeypatch):
        # eps and its rate at every requested time come from one call of the
        # family's mass
        calls = []
        original = SolvableFamily.mass_with_derivatives

        def counted(family, t):
            calls.append(t)
            return original(family, t)

        monkeypatch.setattr(SolvableFamily, "mass_with_derivatives", counted)
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        prop = ExactSolvablePropagator(CK, psi)
        assert len(calls) == 1          # m(0) and the frame at t = 0 together
        traj = prop.trajectory(np.linspace(0.0, 5.0, 5001), 250)
        assert len(traj.states) == 21
        assert len(calls) == 1 + 1
        # the Gaussian oracle: one evaluation at t = 0 and one at t
        gaussian_exact_propagate(CK, GaussianState(a=1.0, center=1.0), 3.0)
        assert len(calls) == 2 + 2

    def test_times_array_equals_scalar_calls(self):
        psi = GaussianState(a=1.1 - 0.2j, center=0.7, momentum=-0.4).to_wavefunction(GRID)
        prop = ExactSolvablePropagator(CK, psi)
        times = np.linspace(0.0, 5.0, 21)
        states = prop(times)
        assert len(states) == 21
        for t, state in zip(times, states):
            assert np.array_equal(state.values, prop(t).values)
        assert isinstance(prop(np.float64(1.0)), WaveFunction)

    def test_two_dimensional_times_are_refused(self):
        prop = ExactSolvablePropagator(
            CK, GaussianState(a=1.0, center=1.0).to_wavefunction(GRID))
        with pytest.raises(ValueError, match=r"shape \(3, 7\)"):
            prop(np.zeros((3, 7)))

    def test_zero_time_identity(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        out = ExactSolvablePropagator(CK, psi)(0.0)
        assert out.fidelity(psi) > 1.0 - 1e-12

    def test_ck_against_split_step(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        exact = ExactSolvablePropagator(CK, psi)(5.0)
        traj = split_step_propagate(CK.mass_profile(), CK.frequency_profile(),
                                    psi, np.linspace(0.0, 5.0, 5001))
        assert exact.fidelity(traj.final) > 1.0 - 1e-6
        assert abs(exact.norm() - 1.0) < 1e-8

    def test_gauge_independence(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        one = ExactSolvablePropagator(CK, psi)(3.0)
        two = WaveFunction(GRID, complex_frame_chain(CK, psi, [3.0], static_mass=2.0)[0])
        overlap = one.normalized().inner(two.normalized())
        assert abs(overlap - 1.0) < 1e-8

    def test_conjugation_consistency(self):
        # the staged state W(t) U(t) psi must equal the static evolution of
        # W(0) psi for every probe, with U(t) the independent split-step run
        t = 1.5
        lin = GeneratorSpec.linear()
        static = SolvableFamily(m0=CK.static_mass(), mu=1.0, nu=0.0, alpha=0.0,
                                Omega0=CK.Omega0)

        def stage(state, when):
            e, de, _ = mass_epsilon(*CK.mass_with_derivatives(when), CK.static_mass())
            e, chi = float(e), CK.static_mass() * float(de)
            return apply_quadratic_phase(chi, apply_point_unitary(lin, e, state))

        probes = [GaussianState(a=1.0, center=1.0),
                  GaussianState(a=1.4, center=-0.6, momentum=0.8),
                  GaussianState(a=0.8 - 0.2j, center=0.3, momentum=-0.5),
                  GaussianState(a=1.0, center=0.0, momentum=1.2),
                  GaussianState(a=1.8 + 0.4j, center=0.9, momentum=0.0)]
        for probe in probes:
            psi = probe.to_wavefunction(GRID)
            traj = split_step_propagate(CK.mass_profile(), CK.frequency_profile(),
                                        psi, np.linspace(0.0, t, 1501))
            left = stage(traj.final, t)
            right = ExactSolvablePropagator(static, stage(psi, 0.0))(t)
            assert left.fidelity(right) > 1.0 - 1e-5

    def test_reuse_propagator(self):
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        prop = ExactSolvablePropagator(CK, psi)
        a = prop(1.0)
        b = ExactSolvablePropagator(CK, psi)(1.0)
        assert a.fidelity(b) > 1.0 - 1e-12

    def test_never_resamples(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the exact chain resampled a grid state")

        for module in (propagators, gridspace):
            for name in ("apply_point_unitary", "band_limited_values",
                         "flow_evaluate"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        psi = GaussianState(a=1.0, center=1.0).to_wavefunction(GRID)
        prop = ExactSolvablePropagator(CK, psi)
        for t in (0.0, 0.7, 2.5, 5.0):
            assert abs(prop(t).norm() - 1.0) < 1e-12

    def test_pointwise_against_gaussian_oracle(self):
        g = GaussianState(a=1.0, center=1.0)
        prop = ExactSolvablePropagator(CK, g.to_wavefunction(GRID))
        for t in np.linspace(0.0, 5.0, 11):
            oracle = gaussian_exact_propagate(CK, g, float(t))
            gap = np.abs(prop(t).values - oracle.to_wavefunction(GRID).values)
            assert np.max(gap) < 2.2e-15

    @pytest.mark.parametrize("static_mass", [None, 2.0])
    @pytest.mark.parametrize("family", [CK, FALLING], ids=["rising", "falling"])
    def test_matches_the_complex_frame_chain(self, family, static_mass):
        # the falling mass reaches the edge by 2.25
        assert_matches_complex_frame_chain(family, static_mass, GRID,
                                           (0.0, 0.7, 1.3, 2.0))

    # the README grid has 1025 distinct |x|; [-10, 14) has no exact mirror
    # pair (u = n), and the odd grid has 1520 and no point at 0
    @pytest.mark.parametrize("static_mass", [None, 2.0])
    @pytest.mark.parametrize("family", [CK, FALLING], ids=["rising", "falling"])
    @pytest.mark.parametrize("grid", [Grid.from_interval(-10.0, 14.0, 2048),
                                      Grid.from_interval(-12.0, 12.0, 2047)],
                             ids=["unmirrored", "odd"])
    def test_matches_the_complex_frame_chain_off_the_mirror(self, family,
                                                            static_mass, grid):
        # the falling mass reaches the left edge of [-10, 14) by 1.45
        assert_matches_complex_frame_chain(family, static_mass, grid,
                                           (0.0, 0.7, 1.3))

    @pytest.mark.parametrize("grid", [GRID, Grid.from_interval(-10.0, 14.0, 2048),
                                      Grid.from_interval(-12.0, 12.0, 2047)],
                             ids=["mirrored", "unmirrored", "odd"])
    def test_fold_equals_the_unindexed_unique(self, grid):
        # return_index only changes numpy's sort to a stable one
        prop = ExactSolvablePropagator(
            CK, GaussianState(a=1.0).to_wavefunction(grid))
        abs_x, at = np.unique(np.abs(grid.x), return_inverse=True)
        assert np.array_equal(prop._abs_x, abs_x)
        assert np.array_equal(prop._fold, 2 * at + (grid.x > 0))

    def test_one_evaluation_peaks_below_a_megabyte(self):
        # the M x n real basis (655 kB at M = 40, n = 2048) and a few grid
        # vectors; an M x n complex frame alone is 1.3 MB
        prop = ExactSolvablePropagator(
            CK, GaussianState(a=1.0, center=1.0).to_wavefunction(GRID))
        prop(0.5)
        tracemalloc.start()
        try:
            prop(1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.0e6

    @pytest.mark.parametrize("grid", [GRID, Grid.from_interval(-10.0, 14.0, 2048),
                                      Grid.from_interval(-12.0, 12.0, 2047)],
                             ids=["mirrored", "unmirrored", "odd"])
    def test_stored_times_peak_below_a_megabyte_beside_their_states(self, grid):
        # a recurrence spans about n points whatever the grid's mirror pairs,
        # and its rows are freed before the next one's: all 21 stored times
        # in one recurrence would take about 7 MB
        prop = ExactSolvablePropagator(
            CK, GaussianState(a=1.0, center=1.0).to_wavefunction(grid))
        times = np.linspace(0.0, 5.0, 21)
        prop(times)
        tracemalloc.start()
        try:
            states = prop(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(state.values.nbytes for state in states) < 1.0e6

    def test_narrow_grid_raises_support_leakage(self):
        # a falling mass spreads the state until it reaches the grid edge
        narrow = Grid.from_interval(-8.0, 8.0, 512)
        prop = ExactSolvablePropagator(
            FALLING, GaussianState(a=1.0).to_wavefunction(narrow))
        assert prop(1.0).edge_decay_ok(tol=1e-9)
        with pytest.raises(SupportLeakage):
            prop(5.0)

    def test_far_off_centre_truncates(self):
        psi = GaussianState(a=1.0, center=6.0).to_wavefunction(GRID)
        with pytest.raises(TruncationError):
            ExactSolvablePropagator(CK, psi)


class TestGaussianTransport:
    def test_zero_time(self):
        g = GaussianState(a=1.0 - 0.2j, center=0.7, momentum=0.4, phase=0.1)
        out = gaussian_exact_propagate(CK, g, 0.0)
        assert abs(complex(out.a) - complex(g.a)) < 1e-12
        assert out.center == pytest.approx(g.center, abs=1e-12)
        assert out.momentum == pytest.approx(g.momentum, abs=1e-12)

    def test_oscillator_evolution_phase_exact(self):
        # complex overlap with the static chain's eigenbasis evolution
        # includes the phase
        for t in (0.37, 2.3, 11.0):
            g = GaussianState(a=1.3 - 0.25j, center=0.8, momentum=-0.6, phase=0.2)
            wf = ExactSolvablePropagator(STATIC, g.to_wavefunction(GRID))(t)
            gt = gaussian_exact_propagate(STATIC, g, t)
            overlap = wf.normalized().inner(gt.to_wavefunction(GRID).normalized())
            assert abs(overlap - 1.0) < 1e-9

    def test_ground_width_fixed_center_orbits(self):
        g = GaussianState(a=1.0, center=1.0)       # ground width m0*Omega0
        t = 1.1
        out = gaussian_exact_propagate(STATIC, g, t)
        assert abs(complex(out.a) - 1.0) < 1e-12
        assert out.center == pytest.approx(np.cos(t), abs=1e-12)
        assert out.momentum == pytest.approx(-np.sin(t), abs=1e-12)

    def test_ck_matches_grid_chain(self):
        g = GaussianState(a=1.0, center=1.0)
        psi = g.to_wavefunction(GRID)
        grid_out = ExactSolvablePropagator(CK, psi)(5.0)
        gauss_out = gaussian_exact_propagate(CK, g, 5.0).to_wavefunction(GRID)
        assert grid_out.fidelity(gauss_out) > 1.0 - 1e-8
        overlap = grid_out.normalized().inner(gauss_out.normalized())
        assert abs(overlap - 1.0) < 1e-8   # phases agree too

    def test_width_stays_physical(self):
        g = GaussianState(a=0.8 + 0.3j, center=0.5, momentum=1.0)
        for t in np.linspace(0.2, 6.0, 7):
            out = gaussian_exact_propagate(CK, g, float(t))
            assert complex(out.a).real > 0

    @pytest.mark.parametrize("evolve, w, rotation_only", [
        *(pytest.param(partial(gaussian_exact_propagate, static(m, w), GaussianState(a=a0)),
                       w, True, id=f"{m}-{w}-{a0}")
          for m, w, a0 in [(1.0, 1.0, 1.3 - 0.25j), (0.4, 2.7, 0.2 + 3.0j),
                           (2.5, 0.3, 4.0 - 1.0j)]),
        # the chain past Omega0 t = 2 pi, beyond the t <= 5 the other tests reach
        pytest.param(partial(gaussian_exact_propagate, CK,
                             GaussianState(a=1.1 - 0.2j, center=0.7, momentum=-0.4)),
                     CK.Omega0, False, id="chain")])
    def test_width_phase_continuous_at_half_periods(self, evolve, w, rotation_only):
        # at w t = k pi, sin(w t) rounds to either sign: the phase of the
        # float below, at and above k pi/w must still agree
        for k in range(1, 8):
            t0 = k * np.pi / w
            phases = [evolve(t).phase
                      for t in (np.nextafter(t0, 0.0), t0, np.nextafter(t0, np.inf))]
            assert max(phases) - min(phases) < 1e-12
            # a centred Gaussian's rotation reads -k pi/2 there (arg z has
            # turned by k half turns); on the chain the action terms add to it
            if rotation_only:
                assert abs(phases[1] + 0.5 * k * np.pi) < 1e-12

    def test_never_reads_the_chain(self, monkeypatch):
        # the oracle is built from closed-form maps only, so it stays
        # independent of the grid chain it checks
        g = GaussianState(a=1.1 - 0.2j, center=0.7, momentum=-0.4, phase=0.1)

        def routes():
            return [gaussian_exact_propagate(CK, g, 3.0),
                    gaussian_exact_propagate(STATIC, g, 3.0)]

        def refuse(*args, **kwargs):
            raise AssertionError("the Gaussian oracle read the grid chain")

        expected = routes()
        for module in (propagators, gridspace):
            for name in ("ExactSolvablePropagator", "HermiteBasis",
                         "apply_point_unitary"):
                monkeypatch.setattr(module, name, refuse, raising=False)
        assert routes() == expected


def dense_unwrapped_arg(m, w, a0, t):
    """arg(m w cos(w t) + i a0 sin(w t)) on its continuous branch from 0, by
    np.unwrap of the path sampled finely enough that no step turns it by
    1/2 radian: d arg/d(w t) = m w Re(a0)/|z|^2, and |z|^2 is at least the
    smaller eigenvalue of its quadratic form in (cos, sin)."""
    mw, r = m * w, a0.real
    rate = (mw ** 2 + abs(a0) ** 2) / (mw * r)       # >= m w r / min |z|^2
    ts = np.linspace(0.0, t, int(np.ceil(abs(w * t) * rate / 0.5)) + 2)
    path = mw * np.cos(w * ts) + 1j * a0 * np.sin(w * ts)
    unwrapped = np.unwrap(np.angle(path))[-1]
    # the branch the samples reached, read at the last point without the
    # rounding that unwrap's running sum of 2 pi corrections accumulates
    turns = round((unwrapped - np.angle(path[-1])) / (2.0 * np.pi))
    return float(np.angle(path[-1]) + 2.0 * np.pi * turns)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(m=st.floats(0.2, 3.0), w=st.floats(0.2, 3.0), re=st.floats(0.1, 3.0),
       im=st.floats(-6.0, 6.0), t=st.floats(0.0, 10.0))
@example(m=1.0, w=1.0, re=1.3, im=-0.25, t=7.0)     # 4 m w Re(a0) > Im(a0)^2
@example(m=0.2, w=0.5, re=0.1, im=6.0, t=10.0)      # Im(a0)^2 >= 4 m w Re(a0)
@example(m=0.4, w=2.7, re=0.2, im=3.0, t=3.0 * np.pi / 2.7)
def test_width_phase_against_dense_unwrap(m, w, re, im, t):
    # Gaussian transport's width phase is -arg(z)/2 on z's continuous branch,
    # in every width regime; a centred Gaussian has no center phase
    a0 = complex(re, im)
    out = gaussian_exact_propagate(static(m, w), GaussianState(a=a0), t)
    assert abs(out.phase + 0.5 * dense_unwrapped_arg(m, w, a0, t)) < 1e-11


class TestCrankNicolson:
    def test_flat_matches_free(self):
        grid = Grid.from_interval(-8.0, 8.0, 1024)
        psi = GaussianState(a=0.8, momentum=0.4).to_wavefunction(grid)
        traj = crank_nicolson_curved(MetricProfile.constant(1.0), 1.0, psi,
                                     np.linspace(0.0, 1.0, 2001))
        assert traj.final.fidelity(free_propagate(psi, 1.0)) > 1.0 - 1e-7

    def test_unconditionally_norm_preserving(self):
        gen = GeneratorSpec.exp_decay(1.0)
        grid = Grid.from_interval(-4.0, 20.0, 1024)
        psi = GaussianState(a=1.0, center=4.0).to_wavefunction(grid)
        traj = crank_nicolson_curved(metric_from_generator(gen, 0.4), 1.0, psi,
                                     np.linspace(0.0, 1.0, 501))
        assert traj.report.max_norm_drift < 1e-10

    # on g = v the curved Hamiltonian is p^2/(2 m v), so free evolution at
    # mass v is exact; the error is spatial, and each bound is at most a
    # third of what a central-difference stencil (decoupled sublattices)
    # leaves here, 1.73e-4 and 4.90e-5
    @pytest.mark.parametrize("v,bound", [(0.64, 5.5e-5), (2.25, 1.6e-5)])
    def test_constant_metric_matches_free_evolution(self, v, bound):
        grid = Grid.from_interval(-4.0, 20.0, 2048)
        psi = GaussianState(a=1.0, center=4.0, momentum=0.5).to_wavefunction(grid)
        traj = crank_nicolson_curved(MetricProfile.constant(v), 1.0, psi,
                                     np.linspace(0.0, 1.0, 1001))
        assert l2diff(traj.final, free_propagate(psi, 1.0, m=v)) <= bound

    # a stencil that couples only j and j +- 2 gives (-1)^j no kinetic energy
    def test_checkerboard_mode_has_kinetic_energy(self):
        grid, m = Grid.from_interval(-8.0, 8.0, 256), 1.3
        kinetic = curved_kinetic_diagonals(np.ones(grid.n), m, grid.dx)
        mode = (-1.0) ** np.arange(grid.n)
        rayleigh = mode @ apply_curved_kinetic(kinetic, mode) / (mode @ mode)
        assert rayleigh >= 0.9 * 2.0 / (m * grid.dx ** 2)

    def test_richardson_order(self):
        gen = GeneratorSpec.exp_decay(1.0)
        grid = Grid.from_interval(-4.0, 20.0, 1024)
        psi = GaussianState(a=1.0, center=4.0, momentum=0.5).to_wavefunction(grid)
        metric = metric_from_generator(gen, 0.4)
        finals = []
        for steps in (250, 500, 1000):
            traj = crank_nicolson_curved(metric, 1.0, psi,
                                         np.linspace(0.0, 1.0, steps + 1))
            finals.append(traj.final)
        ratio = l2diff(finals[0], finals[1]) / l2diff(finals[1], finals[2])
        assert 3.0 <= ratio <= 5.0

    def test_singular_metric_rejected(self):
        from canonflow.errors import SingularMetric
        grid = Grid.from_interval(-2.0, 2.0, 64)
        psi = GaussianState(a=4.0).to_wavefunction(grid)
        bad = MetricProfile.from_callable(lambda x: np.asarray(x))  # negative left half
        with pytest.raises(SingularMetric):
            crank_nicolson_curved(bad, 1.0, psi, np.linspace(0, 0.1, 11))

    # Crank-Nicolson samples g through ``check_positive``; the raw-array
    # assembly keeps its own check
    @pytest.mark.parametrize("entry", [-1.0, 0.0, np.inf, np.nan])
    def test_kinetic_diagonals_refuse_raw_values(self, entry):
        from canonflow.errors import SingularMetric
        gvals = np.ones(16)
        gvals[5] = entry
        with pytest.raises(SingularMetric):
            curved_kinetic_diagonals(gvals, 1.0, 0.1)

    # a non-finite initial state is refused before any step; one that
    # overflows during the run is caught at the next sampled step, before
    # numpy can warn on it, even when only the first and last states are kept
    @pytest.mark.parametrize("entry,stride", [
        (np.nan, None), (np.inf, None), (-np.inf, None), (np.nan, 10 ** 6),
        # finite at the start: the first solve overflows
        (1.5e308, 10 ** 6)],
        ids=["nan", "+inf", "-inf", "nan-first-and-last", "overflow-first-and-last"])
    def test_non_finite_state_raises(self, entry, stride, monkeypatch):
        drive, runs = propagators._drive, []
        monkeypatch.setattr(propagators, "_drive",
                            lambda *args: runs.append(args) or drive(*args))
        grid = Grid.from_interval(-8.0, 8.0, 256)
        values = GaussianState(a=1.0).to_wavefunction(grid).values.copy()
        values[100] = entry
        with pytest.raises(LinearSolveFailure):
            crank_nicolson_curved(MetricProfile.constant(1.0), 1.0,
                                  WaveFunction(grid, values),
                                  np.linspace(0.0, 0.01, 3), stride=stride)
        assert len(runs) == (1 if np.isfinite(entry) else 0)


def test_library_has_no_sparse_matrices():
    # nor scipy's splines and integrators: the library's are numpy
    for path in sorted(Path(propagators.__file__).parent.glob("*.py")):
        for name in ("scipy.sparse", "scipy.interpolate", "scipy.integrate"):
            assert name not in path.read_text(), (path.name, name)


# Random smooth positive metrics g = exp(c1 sin(k x + phase) + c2 tanh(x - x0))
# on [-10, 10); the dense operator is built here from its definition, not
# from ``curved_kinetic_diagonals``.
CN_CASES = dict(n=st.integers(64, 256),
                c1=st.floats(-1.0, 1.0), k=st.floats(0.1, 1.0),
                phase=st.floats(0.0, 2.0 * np.pi),
                c2=st.floats(-1.0, 1.0), x0=st.floats(-5.0, 5.0),
                m=st.floats(0.5, 2.0), dt=st.floats(1e-4, 0.05),
                seed=st.integers(0, 2 ** 32 - 1))


def random_cn_case(n, c1, k, phase, c2, x0, seed):
    grid = Grid.from_interval(-10.0, 10.0, n)
    metric = MetricProfile.from_callable(
        lambda x: np.exp(c1 * np.sin(k * x + phase) + c2 * np.tanh(x - x0)))
    rng = np.random.default_rng(seed)
    psi = WaveFunction(grid, rng.normal(size=n) + 1j * rng.normal(size=n))
    return grid, metric, psi


def dense_curved_kinetic(gvals, m, dx):
    """(1/2m) A D^T M D A with D the (n-1) x n forward difference between
    neighbours and M the neighbours' mean of g^(-1/2)."""
    n = gvals.size
    d = (np.eye(n, k=1) - np.eye(n))[:-1] / dx
    mean = 0.5 * (np.eye(n, k=1) + np.eye(n))[:-1]
    a = np.diag(gvals ** -0.25)
    return a @ d.T @ np.diag(mean @ gvals ** -0.5) @ d @ a / (2.0 * m)


@settings(derandomize=True, database=None, deadline=1000, max_examples=40)
@given(**CN_CASES)
def test_cn_step_matches_dense_solve(n, c1, k, phase, c2, x0, m, dt, seed):
    grid, metric, psi = random_cn_case(n, c1, k, phase, c2, x0, seed)
    ham = dense_curved_kinetic(metric.g(grid.x), m, grid.dx)
    eye = np.eye(n)
    want = np.linalg.solve(eye + 0.5j * dt * ham,
                           (eye - 0.5j * dt * ham) @ psi.values)
    got = crank_nicolson_curved(metric, m, psi, np.linspace(0.0, dt, 2)).final
    assert np.linalg.norm(got.values - want) <= 1e-12 * np.linalg.norm(want)


@settings(derandomize=True, database=None, deadline=1000, max_examples=40)
@given(**CN_CASES)
def test_cn_norm_over_fifty_steps(n, c1, k, phase, c2, x0, m, dt, seed):
    grid, metric, psi = random_cn_case(n, c1, k, phase, c2, x0, seed)
    traj = crank_nicolson_curved(metric, m, psi, np.linspace(0.0, 50 * dt, 51),
                                 stride=1)
    norms = np.array([state.norm() for state in traj.states])
    assert np.max(np.abs(norms - psi.norm())) <= 1e-12 * psi.norm()


# every stored state against dense Cayley solves, at an odd and an even n
@pytest.mark.parametrize("n", [127, 128])
def test_cn_steps_match_dense_cayley_solves(n):
    grid, metric, psi = random_cn_case(n, 0.6, 0.4, 1.0, -0.5, 1.5, seed=n)
    m, dt, k = 1.3, 0.02, 12
    ham = dense_curved_kinetic(metric.g(grid.x), m, grid.dx)
    eye = np.eye(n)
    traj = crank_nicolson_curved(metric, m, psi, np.linspace(0.0, k * dt, k + 1),
                                 stride=1)
    assert len(traj.states) == k + 1
    assert np.array_equal(traj.states[0].values, psi.values)
    want = psi.values
    for state in traj.states[1:]:
        want = np.linalg.solve(eye + 0.5j * dt * ham, (eye - 0.5j * dt * ham) @ want)
        assert np.linalg.norm(state.values - want) <= 1e-12 * np.linalg.norm(want)


def test_cn_one_factorization_and_one_solve_per_step(monkeypatch):
    from scipy.linalg import lapack

    counts = {"zgttrf": 0, "zgttrs": 0}
    for name in counts:
        def counted(*args, name=name, original=getattr(lapack, name), **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counted)
    grid, metric, psi = random_cn_case(96, 0.3, 0.5, 0.0, 0.2, 0.0, seed=3)
    crank_nicolson_curved(metric, 1.0, psi, np.linspace(0.0, 0.1, 11))
    assert counts == {"zgttrf": 1, "zgttrs": 10}


class TestSpectrum:
    def test_oscillator_levels(self):
        grid = Grid.from_interval(-10.0, 10.0, 128)
        vals = oscillator_spectrum(QuadraticHamiltonian.oscillator(1.0, 1.0),
                                   grid, k=8)
        target = np.arange(8) + 0.5
        assert np.max(np.abs(vals - target) / target) < 1e-4

    @pytest.mark.parametrize("c", [0.0, 0.3, -0.5])
    def test_levels_match_the_analytic_oscillator(self, c):
        # a p^2 + b x^2 + (c/2){x, p} is an oscillator of frequency
        # sqrt(4ab - c^2): the mixed term only shears phase space
        grid = Grid.from_interval(-10.0, 10.0, 128)
        ham = QuadraticHamiltonian(0.5, 0.7, c)
        want = (np.arange(8) + 0.5) * np.sqrt(4.0 * ham.a * ham.b - c * c)
        assert np.max(np.abs(oscillator_spectrum(ham, grid, k=8) - want)) < 1e-10

    @pytest.mark.parametrize("k", [0, -1, 33])
    def test_level_count_outside_the_grid_is_refused(self, k):
        grid = Grid.from_interval(-10.0, 10.0, 32)
        with pytest.raises(ValueError, match="k must be"):
            oscillator_spectrum(QuadraticHamiltonian.oscillator(1.0, 1.0), grid, k=k)
