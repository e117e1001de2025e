"""Propagators: exact transform-chain evolution and independent integrators.

Three routes to psi(t) are built here and cross-validated against each other:

* ``exact_solvable_propagate`` - for the solvable mass family the
  time-dependent oscillator is conjugated to a static one:

      U(t) = D(eps(t))^dag Q(chi(t))^dag e^(-i H'' t) Q(chi(0)) D(eps(0)),

  with D the dilation point unitary, Q the quadratic phase, eps =
  (1/2) ln(m0/m(t)), chi = m0 * deps, and H'' the constant-mass oscillator
  of frequency Omega0 evolved by phases e^(-i (n+1/2) Omega0 t) in its
  Hermite eigenbasis, on which D and Q act in closed form (no resampling).

* ``split_step_propagate`` - a second-order Strang splitting of
  H(t) = p^2/(2 m(t)) + (1/2) m(t) w(t)^2 x^2 with midpoint coefficient
  sampling; the independent reference for the chain above.  Its phases
  come from one ``np.tan`` of their half angles (cos = r - 1, sin = t r
  with t = tan(theta/2), r = 2/(1 + t^2); no complex exponential), and its
  FFT pair runs in place in one work buffer.

* ``crank_nicolson_curved`` - Cayley-form Crank-Nicolson for the
  position-dependent-mass (curved-metric) Hamiltonian
  (1/2m) g^(-1/4) p g^(-1/2) p g^(-1/4), discretized as a manifestly
  Hermitian three-point product with forward differences between
  neighbours (splitting methods do not factor once the mass depends on
  position).  1 + i H dt/2 is tridiagonal in grid order; half of it is
  factored once, so that each step is one solve returning 2 chi and
  psi' = 2 chi - psi, with no right-hand-side apply.

Both fixed-step integrators are thin callers of one driver, ``_drive``: it
takes the step's update and its H psi apply, and owns the 16 sampled steps
(where norm drift and the Schrodinger residual are recorded, and a state
whose norm is not finite stops the run) and the resulting ``StepperReport``
and ``Trajectory``.  ``_stored_steps`` alone decides which states a run
keeps, for both and for the exact chain.

``gaussian_exact_propagate`` pushes a closed-form Gaussian through the same
transform chain (dilation: a -> e^(2 eps) a; quadratic phase: a -> a + i chi;
static-oscillator evolution by a Moebius map of a and classical motion of the
center, with the exact accumulated phase), giving an integrator-free oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List

import numpy as np

# scipy.linalg is imported inside the two functions that call it, so the
# oscillator propagators load numpy only.

from .errors import (LinearSolveFailure, MassZeroCrossing, ResolutionError,
                     SingularMetric, StepFailure, SupportLeakage,
                     TruncationError)
from .gridspace import GaussianState, WaveFunction, apply_momentum
from .hamiltonians import _positive_mass, mass_epsilon

BASIS_SIZE = 40              # Hermite functions in the exact chain's frame
MIN_CAPTURE = 1.0 - 1e-10    # least probability a basis expansion must hold


@dataclass
class StepperReport:
    """Bookkeeping for a propagation run; norm drift <= 1e-8 for accepted runs."""

    steps: int = 0
    max_norm_drift: float = 0.0
    max_schrodinger_residual: float = 0.0
    wall_time_s: float = 0.0


@dataclass
class Trajectory:
    """States stored every ``stride`` steps (first and last always included).

    ``bands`` is the (main, off) pair of the time-independent Hamiltonian a
    Crank-Nicolson run stepped with (``curved_kinetic_diagonals``), so that
    observables of its states need not assemble it again; None otherwise.
    """

    times: np.ndarray
    states: List[WaveFunction]
    report: StepperReport
    bands: tuple = field(default=None, init=False)

    @property
    def final(self):
        return self.states[-1]


def _validate_time_grid(t_grid):
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise ValueError("time grid needs at least two points")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * max(abs(dt[0]), 1e-300):
        raise ValueError("time grid must be uniform (fixed-step integrators)")
    return t, float(dt[0])


def _check_resolution(psi):
    """Reject states with spectral weight above 1e-10 of the peak in the outer
    tenth of the wavenumbers, next to the grid's Nyquist frequency."""
    spec = np.abs(np.fft.fft(psi.values))
    n = psi.grid.n
    m = max(1, int(round(0.1 * n / 2)))
    half = n // 2
    tail = max(np.max(spec[half - m:half + 1]), np.max(spec[half:half + m]))
    if tail > 1e-10 * np.max(spec):
        raise ResolutionError("spectral tail above threshold; refine dx")


def _stored_steps(nsteps, stride=None):
    """Indices of the nsteps + 1 states a run keeps: every ``stride``-th, the
    first and the last (default stride: a sixteenth of the steps; any stride
    of nsteps or more keeps just those two)."""
    if stride is None:
        stride = max(1, nsteps // 16)
    if stride < 1:
        raise ValueError("stride must be at least 1")
    keep = np.arange(0, nsteps + 1, min(stride, nsteps))
    return keep if keep[-1] == nsteps else np.append(keep, nsteps)


def _drive(psi0, t, dt, stride, update, apply_h, failure):
    """Step psi0 across the uniform time grid t; the loop every integrator shares.

    ``update(i, values)`` returns the values after step i in a new array
    (the previous one is still read at a sampled step) and
    ``apply_h(i, values)`` applies step i's Hamiltonian.  The states
    ``_stored_steps`` picks are kept.  At 16 evenly spaced steps the norm
    drift and the residual of i dpsi/dt = H psi at the step midpoint,
    relative to the initial norm, go into the report.

    A sampled state whose norm is not finite raises ``failure``, the
    integrator's error class.  Neither integrator can make a non-finite
    value finite again, and the last step is always sampled, so checking
    the sampled steps alone stops every such run; numpy's overflow and
    invalid warnings are off inside the loop, since that check handles
    what they report.
    """
    grid = psi0.grid
    nsteps = t.size - 1
    keep = _stored_steps(nsteps, stride)
    kept = set(keep.tolist())
    sample_every = max(1, nsteps // 16)
    report = StepperReport(steps=nsteps)
    wall0 = time.perf_counter()
    values = psi0.values.copy()
    states = [WaveFunction(grid, values)]

    with np.errstate(over="ignore", invalid="ignore"):
        norm0 = psi0.norm()
        for i in range(nsteps):
            prev = values
            values = update(i, prev)
            if (i + 1) % sample_every == 0 or i == nsteps - 1:
                nrm = np.sqrt(grid.dx * np.sum(np.abs(values) ** 2))
                if not np.isfinite(nrm):
                    raise failure(f"the state's norm is not finite after step "
                                  f"{i + 1} of {nsteps}")
                report.max_norm_drift = max(report.max_norm_drift, abs(nrm - norm0))
                mid = 0.5 * (prev + values)
                resid = np.abs(1j * (values - prev) / dt - apply_h(i, mid))
                # scaled by its peak: the square of a huge residual must not overflow
                peak = max(float(np.max(resid)), np.finfo(float).tiny)
                report.max_schrodinger_residual = max(
                    report.max_schrodinger_residual,
                    peak * float(np.sqrt(grid.dx * np.sum((resid / peak) ** 2))) / norm0)
            if i + 1 in kept:
                states.append(WaveFunction(grid, values))

    report.wall_time_s = time.perf_counter() - wall0
    return Trajectory(t[keep], states, report)


# -- Hermite eigenbasis of the static oscillator --------------------------------

class HermiteBasis:
    """First M eigenfunctions of p^2/(2 m0) + (1/2) m0 Omega0^2 x^2 on a grid.

    Built by the stable normalized recurrence (on the grid, on first use);
    eigenvalues (n + 1/2) Omega0.  Orthonormality degrades unless the grid
    extends past the highest function's turning point (``gram_residual``).
    """

    def __init__(self, size, m0, omega0, grid):
        self.size = int(size)
        self.m0 = float(m0)
        self.omega0 = float(omega0)
        self.grid = grid
        self.length_scale = 1.0 / np.sqrt(self.m0 * self.omega0)

    functions = cached_property(lambda self: self.at(self.grid.x))

    def at(self, points):
        """The basis at arbitrary points, shape (size, len(points)), rows in place."""
        xi = np.asarray(points, dtype=float) / self.length_scale
        funcs = np.empty((self.size, xi.size))
        funcs[0] = (self.m0 * self.omega0 / np.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
        if self.size > 1:
            funcs[1] = np.sqrt(2.0) * xi * funcs[0]
        for n in range(1, self.size - 1):
            row = np.multiply(np.sqrt(2.0 / (n + 1)), xi, out=funcs[n + 1])
            row *= funcs[n]
            row -= np.sqrt(n / (n + 1.0)) * funcs[n - 1]
        return funcs

    def energies(self):
        return (np.arange(self.size) + 0.5) * self.omega0

    def gram_residual(self):
        gram = self.grid.dx * (self.functions @ self.functions.T)
        return float(np.max(np.abs(gram - np.eye(self.size))))

    def expand(self, psi):
        """Coefficients c_n = <phi_n|psi> and the captured probability fraction."""
        c = self.grid.dx * (self.functions @ psi.values)
        captured = float(np.sum(np.abs(c) ** 2)) / psi.norm() ** 2
        return c, captured

    def synthesize(self, coeffs):
        return WaveFunction(self.grid, coeffs @ self.functions)


def hermite_propagate(psi, basis, t):
    """Evolve under the static oscillator by exact spectral phases.

    Raises ``TruncationError`` when the basis captures less than
    ``MIN_CAPTURE`` of the state's probability.
    """
    c, captured = basis.expand(psi)
    if captured < MIN_CAPTURE:
        raise TruncationError(
            f"basis of size {basis.size} captures only {captured:.12f}")
    phases = np.exp(-1j * basis.energies() * t)
    return basis.synthesize(c * phases)


# -- split-step reference integrator -------------------------------------------

def _half_angle_cis(half, t, r, out):
    """e^(2i half) for real half, written into out by the half-angle form.

    With t = tan(half) and r = 2/(1 + t^2), cos = r - 1 and sin = t r: one
    ``np.tan`` (vectorised, where numpy's float64 cos and sin are not) and
    cheap ufuncs.  |r - 1 + i t r| = 1 for every real t, so tan's rounding
    moves only the angle.  t and r are contiguous scratch arrays of half's
    size.
    """
    np.tan(half, out=t)
    np.multiply(t, t, out=r)
    r += 1.0
    np.divide(2.0, r, out=r)
    np.subtract(r, 1.0, out=out.real)
    np.multiply(t, r, out=out.imag)
    return out


def _strang_step(grid, dt):
    """step(m, w, values): e^(-i V dt/2) e^(-i T dt) e^(-i V dt/2) values.

    Each phase is a function of x^2 or k^2 alone, so it is evaluated once
    per distinct value and spread back over the grid: bit-identical to
    evaluating it at every point.  x^2 goes through ``np.unique`` and
    ``take``, because a shifted grid is not symmetric.  k^2 from
    ``fftfreq`` is mirror-symmetric for n odd or even, so the kinetic phase
    is evaluated on k[:n//2 + 1]^2 and spread by two slice copies.  The
    phases are ``_half_angle_cis`` of the half angles (-dt m w^2/8) x^2 and
    (-dt k^2/4) (1/m), with the 1/2 folded into the rate constants (exact:
    a power of two); both live in one buffer, so a (m, w) change costs one
    ``np.tan``.  The phase arrays of the last (m, w) are kept, so a step
    with the previous step's coefficients evaluates none.  Every array but
    the returned state is allocated once, and each multiply keeps the
    full-array step's operand order (numpy's complex product is not
    bitwise commutative under FMA).
    """
    n, nk = grid.n, grid.n // 2 + 1
    x2, x2_at = np.unique(grid.x ** 2, return_inverse=True)
    kin_rate = -0.25 * dt * grid.k[:nk] ** 2
    nx = x2.size
    angle, t, r = (np.empty(nx + nk) for _ in range(3))
    phase = np.empty(nx + nk, complex)
    half_v, kin, work = (np.empty(n, complex) for _ in range(3))
    last = [None]                      # the (m, w) the phase arrays hold

    def step(m, w, values):
        if last[0] != (m, w):
            last[0] = (m, w)
            np.multiply(-0.125 * dt * m * w * w, x2, out=angle[:nx])
            np.multiply(kin_rate, 1.0 / m, out=angle[nx:])
            _half_angle_cis(angle, t, r, phase)
            phase[:nx].take(x2_at, out=half_v)
            kin[:nk] = phase[nx:]
            kin[nk:] = phase[nx + n - nk:nx:-1]
        y = np.multiply(half_v, values, out=work)
        np.fft.fft(y, out=y)
        np.multiply(kin, y, out=y)
        np.fft.ifft(y, out=y)
        return half_v * y

    return step


def split_step_propagate(mass, omega, psi0, t_grid, *, stride=None):
    """Strang-split evolution of p^2/(2 m(t)) + (1/2) m(t) w(t)^2 x^2.

    Coefficients are sampled at the step midpoints (one vector call each;
    a mass that is not positive and finite there raises
    ``MassZeroCrossing``), giving global second order in dt (verified by
    the Richardson self-test in the suite).  The step itself is exactly
    unitary, so norm drift is at rounding level.
    Its potential and kinetic phases are evaluated once per distinct x^2
    and k^2, by the half-angle form with one ``np.tan`` for both, and again
    only when (m, w) changes from the previous step; each step allocates
    only the state it returns (``_strang_step``).  The FFT wraps through
    the periodic boundary, so a stored state that fails
    ``edge_decay_ok(tol=1e-9)`` raises ``SupportLeakage``; a state whose
    norm is not finite raises ``StepFailure``.
    """
    t, dt = _validate_time_grid(t_grid)
    _check_resolution(psi0)
    grid = psi0.grid
    x2 = grid.x ** 2

    mid = 0.5 * (t[:-1] + t[1:])
    masses = _positive_mass(mass.value(mid))
    coeffs = list(zip(masses.tolist(), omega.value(mid).tolist()))
    step = _strang_step(grid, dt)

    def apply_h(i, values):
        m, w = coeffs[i]
        return (apply_momentum(values, grid, 2) / (2.0 * m)
                + 0.5 * m * w * w * x2 * values)

    traj = _drive(psi0, t, dt, stride,
                  lambda i, values: step(*coeffs[i], values), apply_h, StepFailure)
    if not all(state.edge_decay_ok(tol=1e-9) for state in traj.states):
        raise SupportLeakage("split-step support reaches the grid edge, where "
                             "the FFT wraps it through the periodic boundary")
    return traj


def free_propagate(psi, t, m=1.0):
    """Exact free evolution exp(-i p^2 t / (2m)) (single spectral step)."""
    kin = np.exp(-0.5j * psi.grid.k ** 2 * t / m)
    return WaveFunction(psi.grid, np.fft.ifft(kin * np.fft.fft(psi.values)))


# -- exact chain propagation for the solvable family ----------------------------

class ExactSolvablePropagator:
    """Precomputed transform-chain propagator for a solvable mass family.

    psi(t) = sum_n c_n e^(-i E_n t) h_n(t), with h_n(t) the Hermite functions
    carried back through the phase and the dilation in closed form
    (``_frame``); evaluation at any t costs one Hermite recurrence.
    """

    def __init__(self, family, psi0, *, static_mass=None):
        self.grid = psi0.grid
        self.family = family
        self.m0_static = (family.static_mass() if static_mass is None
                          else float(static_mass))
        self.basis = HermiteBasis(BASIS_SIZE, self.m0_static, family.Omega0,
                                  psi0.grid)
        e0, frame0 = self._frame(0.0)
        if e0 != 0.0 and not psi0.edge_decay_ok():
            raise SupportLeakage("initial state does not decay at the grid edge")
        self.coeffs = self.grid.dx * (frame0.conj() @ psi0.values)
        captured = float(np.sum(np.abs(self.coeffs) ** 2)) / psi0.norm() ** 2
        if captured < MIN_CAPTURE:
            raise TruncationError(
                f"basis of size {BASIS_SIZE} captures only {captured:.12f}")

    def _frame(self, t):
        """e = eps(t) and the rows e^(-e/2) e^(i chi e^(-2e) x^2/2) phi_n(e^(-e) x).

        eps and chi = m0 eps' come from ``mass_epsilon`` at one evaluation
        of the family's mass and its derivatives.
        """
        e, de, _ = map(float, mass_epsilon(
            *self.family.mass_with_derivatives(float(t)), self.m0_static))
        x, chi = self.grid.x, self.m0_static * de
        envelope = np.exp(-0.5 * e + 0.5j * chi * np.exp(-2.0 * e) * x * x)
        return e, envelope * self.basis.at(np.exp(-e) * x)

    def __call__(self, t):
        phases = np.exp(-1j * self.basis.energies() * float(t))
        out = WaveFunction(self.grid, (self.coeffs * phases) @ self._frame(t)[1])
        if not out.edge_decay_ok(tol=1e-9):
            raise SupportLeakage("evolved support reaches the grid edge")
        return out

    def trajectory(self, t_grid, stride=None):
        """The exact states at the times a stepped run over t_grid would keep."""
        wall0 = time.perf_counter()
        t = np.asarray(t_grid, dtype=float)
        times = t[_stored_steps(t.size - 1, stride)]
        states = [self(float(t)) for t in times]
        report = StepperReport(steps=len(times) - 1,
                               wall_time_s=time.perf_counter() - wall0)
        return Trajectory(times, states, report)


def exact_solvable_propagate(family, psi0, t, *, static_mass=None):
    """psi(t) for the time-dependent oscillator (m(t), w) of a solvable family.

    Results are independent of the ``static_mass`` gauge choice (tested);
    the default m0 = m(0) makes the t = 0 dilation the identity.
    """
    return ExactSolvablePropagator(family, psi0, static_mass=static_mass)(t)


# -- closed-form Gaussian transport ---------------------------------------------

def _continuous_arg(m, omega, a0, t):
    """Continuous branch of arg(m w cos(w t) + i a0 sin(w t)), starting at 0.

    When 4 m w Re(a0) > Im(a0)^2 the rotated value e^(-i w t) D(t) stays in
    the right half plane and the branch is t*w + principal argument; outside
    that regime the path is unwrapped numerically.
    """
    mw = m * omega
    a0 = complex(a0)
    if 4.0 * mw * a0.real > a0.imag ** 2:
        rotated = (np.exp(-1j * omega * t)
                   * (mw * np.cos(omega * t) + 1j * a0 * np.sin(omega * t)))
        return omega * t + np.angle(rotated)
    samples = max(16, int(np.ceil(abs(omega * t) / 0.3)) + 1)
    ts = np.linspace(0.0, t, samples)
    path = mw * np.cos(omega * ts) + 1j * a0 * np.sin(omega * ts)
    return float(np.unwrap(np.angle(path))[-1])


def gaussian_oscillator_evolve(state, m, omega, t):
    """Exact evolution of a Gaussian under p^2/(2m) + (1/2) m w^2 x^2.

    Width:  a(t) = m w (a0 cos + i m w sin) / (m w cos + i a0 sin)
    Center: classical motion of (center, momentum)
    Phase:  action integral of the center plus -arg(D)/2 from the width;
            the ground width a0 = m w reproduces e^(-i w t / 2).
    """
    a0 = complex(state.a)
    q0, p0, th0 = state.center, state.momentum, state.phase
    mw = m * omega
    c, s = np.cos(omega * t), np.sin(omega * t)

    a_t = mw * (a0 * c + 1j * mw * s) / (mw * c + 1j * a0 * s)
    q_t = q0 * c + (p0 / mw) * s
    p_t = p0 * c - mw * q0 * s

    # center phase: the classical action integral of the Lagrangian
    # p^2/(2m) - (m w^2/2) q^2 along the orbit, in closed form
    sig, kap = np.sin(2.0 * omega * t), np.cos(2.0 * omega * t)
    theta_center = ((p0 ** 2 / (2.0 * m) - 0.5 * m * omega ** 2 * q0 ** 2)
                    * sig / (2.0 * omega)
                    + 0.5 * q0 * p0 * (kap - 1.0))
    theta_width = -0.5 * _continuous_arg(m, omega, a0, t)
    return GaussianState(a_t, float(q_t), float(p_t),
                         float(th0 + theta_center + theta_width))


def gaussian_exact_propagate(family, state, t, *, static_mass=None):
    """Closed-form Gaussian transport through the solvable-family chain."""
    m0s = (family.static_mass() if static_mass is None else float(static_mass))
    e0, de0, _ = map(float, mass_epsilon(*family.mass_with_derivatives(0.0), m0s))
    et, det, _ = map(float, mass_epsilon(*family.mass_with_derivatives(t), m0s))

    staged = state.dilated(e0).quadratic_phased(m0s * de0)
    evolved = gaussian_oscillator_evolve(staged, m0s, family.Omega0, t)
    return evolved.quadratic_phased(-m0s * det).dilated(-et)


# -- Crank-Nicolson for the curved (position-dependent-mass) Hamiltonian --------

def curved_kinetic_diagonals(gvals, m, dx):
    """Tridiagonal kinetic operator (1/2m) A D^T M D A (offsets 0 and 1).

    A = diag(g^(-1/4)), D the forward difference (v_{j+1} - v_j)/dx between
    neighbours and M = diag(g^(-1/2) at x_{j+1/2}), taken as the mean of the
    two neighbours' g^(-1/2): second order like the midpoint value, and it
    needs the metric on the grid only.  This is the conservative three-point
    ordering of position-dependent-mass Hamiltonians (BenDaniel & Duke,
    Phys. Rev. 152:683, 1966).  Every grid point couples to both neighbours,
    so the checkerboard mode (-1)^j carries the largest kinetic energy,
    about 2/(m dx^2) on a flat metric.  D has no row past either end, so no
    flux crosses them.  The product is real symmetric positive semidefinite
    by construction.  Returns (main, off) with off[j] the (j, j+1) entry.
    """
    gvals = np.asarray(gvals, dtype=float)
    if np.any(gvals <= 0) or np.any(~np.isfinite(gvals)):
        raise SingularMetric("metric must be positive and finite on the grid")
    if not m > 0:
        raise MassZeroCrossing("the curved mass must be positive")
    a = gvals ** -0.25
    mm = a * a
    mid = 0.5 * (mm[:-1] + mm[1:])
    pref = 1.0 / (2.0 * m * dx * dx)
    main = np.zeros(gvals.size)
    main[:-1] += mid
    main[1:] += mid
    return pref * mm * main, -pref * a[:-1] * mid * a[1:]


def apply_curved_kinetic(diagonals, values):
    """A psi for a symmetric band pair (main, off) with offsets 0 and +-1,
    such as H from ``curved_kinetic_diagonals``."""
    main, off = diagonals
    hv = main * values
    hv[:-1] += off * values[1:]
    hv[1:] += off * values[:-1]
    return hv


def crank_nicolson_curved(metric, m, psi0, t_grid, *, stride=None):
    """Cayley-form Crank-Nicolson evolution under the curved Hamiltonian.

    (1 + i H dt/2) psi_{n+1} = (1 - i H dt/2) psi_n with H Hermitian and
    tridiagonal (``curved_kinetic_diagonals``), hence exactly
    norm-preserving up to the linear-solve tolerance.  The metric is
    sampled once (time-independent evolution).

    Half of 1 + i H dt/2 is LU-factored once by LAPACK (zgttrf), in grid
    order, and each step is one solve (zgttrs) through
    psi_{n+1} = 2 chi - psi_n with (1 + i H dt/2) chi = psi_n, which equals
    the Cayley step because 1 - i H dt/2 = 2 - (1 + i H dt/2): no
    right-hand-side band apply.  Halving is exact in the factorization and
    in both substitutions, so the solve returns 2 chi bit for bit, with no
    doubling pass.  A non-finite initial state raises ``LinearSolveFailure``
    before any step, and a state that overflows during the run raises it at
    the next of ``_drive``'s sampled steps: a solve against the finite
    factor cannot make it finite again.  The returned trajectory carries
    the stepped Hamiltonian's bands.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    t, dt = _validate_time_grid(t_grid)
    if not np.all(np.isfinite(psi0.values)):
        raise LinearSolveFailure("Crank-Nicolson initial state has non-finite values")
    grid = psi0.grid
    diagonals = curved_kinetic_diagonals(metric.g(grid.x), float(m), grid.dx)
    main, off = diagonals
    quarter = 0.25j * dt
    # (1 + i H dt/2)/2, so that a solve returns 2 chi itself
    *lu, info = zgttrf(quarter * off, 0.5 + quarter * main, quarter * off)
    if info != 0:
        raise LinearSolveFailure(f"Cayley factorization failed (info {info})")

    def update(i, values):
        out = zgttrs(*lu, values)[0]
        out -= values
        return out

    traj = _drive(psi0, t, dt, stride, update,
                  lambda i, values: apply_curved_kinetic(diagonals, values),
                  LinearSolveFailure)
    traj.bands = diagonals
    return traj


# -- banded assembly of quadratic Hamiltonians (spectrum checks) -----------------

def quadratic_hamiltonian_matrix(ham, grid):
    """Finite-difference a p^2 + b x^2 + (c/2){x,p} in upper-form band storage.

    The Laplacian is the 4th-order five-point stencil and p in the mixed term
    the central difference, both with Dirichlet ends.  Row 2 holds the
    diagonal, row 1 the first superdiagonal (from column 1) and row 0 the
    second (from column 2), the layout ``scipy.linalg.eig_banded`` reads;
    the matrix is Hermitian by construction.
    """
    x, h2 = grid.x, 12.0 * grid.dx ** 2
    bands = np.zeros((3, grid.n), dtype=complex if ham.c else float)
    bands[2] = 30.0 * ham.a / h2 + ham.b * x * x
    bands[1, 1:] = -16.0 * ham.a / h2
    bands[0, 2:] = ham.a / h2
    if ham.c != 0.0:
        # (c/2)(x p + p x) at (j, j+1), with p there equal to -i/(2 dx)
        bands[1, 1:] += -0.25j * ham.c * (x[:-1] + x[1:]) / grid.dx
    return bands


def oscillator_spectrum(ham, grid, k=8):
    """Lowest k eigenvalues of the finite-difference assembly."""
    from scipy.linalg import eig_banded

    return eig_banded(quadratic_hamiltonian_matrix(ham, grid),
                      eigvals_only=True, select="i", select_range=(0, k - 1))
