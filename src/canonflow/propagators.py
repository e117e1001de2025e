"""Propagators: exact transform-chain evolution and independent integrators.

Three routes to psi(t), cross-validated against each other:

* ``ExactSolvablePropagator`` - for the solvable mass family the
  time-dependent oscillator is conjugated to a static one,

      U(t) = D(eps(t))^dag Q(chi(t))^dag e^(-i H'' t) Q(chi(0)),

  with D the dilation point unitary, Q the quadratic phase, eps =
  (1/2) ln(m0/m(t)) in the gauge m0 = m(0), so that eps(0) = 0, chi =
  m0 eps', and H'' the static oscillator of frequency Omega0, evolved by
  exact phases in its Hermite eigenbasis, on which D and Q act in closed
  form (no resampling).
* ``split_step_propagate`` - Strang splitting of the same oscillator, the
  chain's independent reference.
* ``crank_nicolson_curved`` - Crank-Nicolson for the position-dependent-mass
  (curved-metric) Hamiltonian, where splitting does not factor.

``gaussian_exact_propagate`` pushes a closed-form Gaussian through the
chain's 2x2 canonical maps (``dilation_map``, ``phase_map``,
``rotation_map``), each by the one rule of ``GaussianState.transported``:
an integrator-free oracle.  On the alpha = 0 family (constant mass) the
dilation and phase maps are identities, so it evolves a Gaussian under the
static oscillator p^2/(2m) + (1/2) m w^2 x^2.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional

import numpy as np

# scipy.linalg is imported inside the one function that calls it, so the
# oscillator propagators and the grid spectrum load numpy only.

from .errors import (LinearSolveFailure, MassZeroCrossing, ResolutionError,
                     SingularMetric, StepFailure, SupportLeakage,
                     TruncationError)
from .gridspace import STORED_EDGE_TOL, WaveFunction, _density, _mass, apply_momentum
from .hamiltonians import _positive_mass, mass_epsilon

BASIS_SIZE = 40              # Hermite functions in the exact chain's frame
MIN_CAPTURE = 1.0 - 1e-10    # least probability a basis expansion must hold


@dataclass
class StepperReport:
    """Bookkeeping for a propagation run; norm drift <= 1e-8 for accepted runs.

    The exact chain steps nowhere, so its ``max_schrodinger_residual`` is None.
    """

    steps: int = 0
    max_norm_drift: float = 0.0
    max_schrodinger_residual: Optional[float] = 0.0
    wall_time_s: float = 0.0


@dataclass
class Trajectory:
    """States stored every ``stride`` steps (first and last always included).

    ``bands`` is the (main, off) Hamiltonian a Crank-Nicolson run stepped
    with, which the observables of its states reuse; None otherwise.
    """

    times: np.ndarray
    states: List[WaveFunction]
    report: StepperReport
    bands: tuple = field(default=None, init=False)

    @property
    def final(self):
        return self.states[-1]


def uniform_time_grid(t_final, dt):
    """The times 0 .. t_final (either sign) in max(1, round(|t_final| / dt)) steps."""
    if not (dt > 0 and np.isfinite(dt) and np.isfinite(t_final)):
        raise ValueError("dt must be positive and finite, and t_final finite")
    return np.linspace(0.0, t_final, max(1, int(round(abs(t_final) / dt))) + 1)


def _validate_time_grid(t_grid):
    """(t, dt) of a uniform time grid; it may decrease, but not stand still."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2 or not np.all(np.isfinite(t)):
        raise ValueError("time grid needs at least two points, all finite")
    dt = np.diff(t)
    if dt[0] == 0.0 or np.max(np.abs(dt - dt[0])) > 1e-9 * abs(dt[0]):
        raise ValueError("time grid must be uniform with a nonzero step")
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

    ``update(i, values)`` returns the values after step i in a new array (a
    sampled step still reads the previous one); ``apply_h(i, values)``
    applies step i's Hamiltonian.  The states ``_stored_steps`` picks are
    kept.  At 16 evenly spaced steps the norm drift and the residual of
    i dpsi/dt = H psi at the step midpoint, relative to the initial norm, go
    into the report, and a norm that is not finite raises ``failure``, the
    integrator's error class.  Neither integrator can make a non-finite
    value finite again and the last step is always sampled, so this stops
    every such run; numpy's overflow and invalid warnings are off inside
    the loop, since this check handles what they report.
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
                nrm = np.sqrt(_mass(_density(values), grid.dx))
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
                    peak * float(np.sqrt(_mass((resid / peak) ** 2, grid.dx))) / norm0)
            if i + 1 in kept:
                states.append(WaveFunction(grid, values))

    report.wall_time_s = time.perf_counter() - wall0
    return Trajectory(t[keep], states, report)


# -- Hermite eigenbasis of the static oscillator --------------------------------

class HermiteBasis:
    """First M eigenfunctions of p^2/(2 m0) + (1/2) m0 Omega0^2 x^2 on a grid.

    Built by the monic recurrence g_(n+1) = xi g_n - (n/2) g_(n-1) for
    g_n = s_n phi_n, s_n = sqrt(n!/2^n) (``monic``), on the grid on first
    use; eigenvalues (n + 1/2) Omega0.  Orthonormality degrades unless the
    grid extends past the highest function's turning point (``gram_residual``).
    """

    def __init__(self, size, m0, omega0, grid):
        self.size = int(size)
        self.m0 = float(m0)
        self.omega0 = float(omega0)
        self.grid = grid
        self.length_scale = 1.0 / np.sqrt(self.m0 * self.omega0)
        self.scales = np.sqrt([math.factorial(n) / 2.0 ** n for n in range(self.size)])

    functions = cached_property(lambda self: self.monic(self.grid.x) / self.scales[:, None])

    def monic(self, points):
        """The rows g_n = s_n phi_n at arbitrary points, shape (size, len(points))."""
        xi = np.asarray(points, dtype=float) / self.length_scale
        g = np.empty((self.size, xi.size))
        g[0] = (self.m0 * self.omega0 / np.pi) ** 0.25 * np.exp(-0.5 * xi * xi)
        if self.size > 1:
            np.multiply(xi, g[0], out=g[1])
        scratch = np.empty(xi.size)
        rows = list(g)      # the row views, made once rather than three per degree
        for n in range(1, self.size - 1):
            row = np.multiply(xi, rows[n], out=rows[n + 1])
            row -= np.multiply(0.5 * n, rows[n - 1], out=scratch)
        return g

    def energies(self):
        return (np.arange(self.size) + 0.5) * self.omega0

    def gram_residual(self):
        gram = self.grid.dx * (self.functions @ self.functions.T)
        return float(np.max(np.abs(gram - np.eye(self.size))))

    def expand(self, psi):
        """Coefficients c_n = <phi_n|psi> and the captured probability fraction."""
        c = self.grid.dx * _real_dot(self.functions, psi.values)
        captured = float(np.sum(np.abs(c) ** 2)) / psi.norm() ** 2
        return c, captured

    def synthesize(self, coeffs):
        return WaveFunction(self.grid, _real_dot(self.functions.T, coeffs))


def _real_dot(real, z):
    """real @ z for a real matrix and a complex vector or matrix, as one real
    product.

    z's rows of (re, im) pairs are read in place as the rows of an (n, 2k)
    real matrix, and the (m, 2k) product is read back as m rows of k complex
    values, so the real matrix is never upcast to complex.
    """
    pairs = np.ascontiguousarray(z, dtype=complex).view(float).reshape(len(z), -1)
    return (real @ pairs).view(complex).reshape(real.shape[:1] + np.shape(z)[1:])


# -- split-step reference integrator -------------------------------------------

def _half_angle_cis(half, t, r, out):
    """e^(2i half) for real half, written into out by the half-angle form.

    With t = tan(half) and r = 2/(1 + t^2), cos = r - 1 and sin = t r: one
    ``np.tan`` (vectorised, where numpy's float64 cos and sin are not) and
    cheap ufuncs.  |r - 1 + i t r| = 1 for every real t, so tan's rounding
    moves only the angle.  t and r are contiguous scratch arrays of half's
    size; t may be half itself, which is then overwritten.
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

    The kinetic phase depends on k^2 alone, so it is evaluated on
    k[:n//2 + 1] (``fftfreq`` is mirror-symmetric) and spread back,
    bit-identical to evaluating it at every point.  Both phases are one
    ``_half_angle_cis`` call on one buffer, with the 1/2 folded into the
    rate constants (exact: a power of two), made only when (m, w) differs
    from the previous step's.  Every array but the returned state is
    allocated once, and each multiply keeps the full-array step's operand
    order (numpy's complex product is not bitwise commutative under FMA).
    """
    n, nk = grid.n, grid.n // 2 + 1
    x2 = grid.x ** 2
    kin_rate = -0.25 * dt * grid.k[:nk] ** 2
    angle, t, r = (np.empty(n + nk) for _ in range(3))
    phase = np.empty(n + nk, complex)
    half_v = phase[:n]
    kin, work = np.empty(n, complex), np.empty(n, complex)
    last = [None]                      # the (m, w) the phase arrays hold

    def step(m, w, values):
        if last[0] != (m, w):
            last[0] = (m, w)
            np.multiply(-0.125 * dt * m * w * w, x2, out=angle[:n])
            np.multiply(kin_rate, 1.0 / m, out=angle[n:])
            _half_angle_cis(angle, t, r, phase)
            kin[:nk] = phase[n:]
            kin[nk:] = phase[2 * n - nk:n:-1]
        y = np.multiply(half_v, values, out=work)
        np.fft.fft(y, out=y)
        np.multiply(kin, y, out=y)
        np.fft.ifft(y, out=y)
        return half_v * y

    return step


def split_step_propagate(mass, omega, psi0, t_grid, *, stride=None):
    """Strang-split evolution of p^2/(2 m(t)) + (1/2) m(t) w(t)^2 x^2.

    Coefficients are sampled at the step midpoints (a mass that is not
    positive and finite there raises ``MassZeroCrossing``): global second
    order in dt, which ``verify``'s ``split_step_order_ratio`` checks.  The step is
    exactly unitary, so norm drift is at rounding level.  The FFT wraps
    through the periodic boundary, so a stored state that fails
    ``edge_decay_ok(tol=STORED_EDGE_TOL)`` raises ``SupportLeakage``.  A
    non-finite initial state or frequency sample raises ``StepFailure``
    before any step, and so does a non-finite norm at the next sampled step.
    """
    t, dt = _validate_time_grid(t_grid)
    grid = psi0.grid
    x2 = grid.x ** 2

    mid = 0.5 * (t[:-1] + t[1:])
    masses = _positive_mass(mass.value(mid))
    omegas = np.asarray(omega.value(mid), dtype=float)
    # every comparison with NaN is false, so _check_resolution would pass it
    if not (np.all(np.isfinite(psi0.values)) and np.all(np.isfinite(omegas))):
        raise StepFailure("split-step initial state or frequency samples "
                          "have non-finite values")
    _check_resolution(psi0)
    coeffs = list(zip(masses.tolist(), omegas.tolist()))
    step = _strang_step(grid, dt)

    def apply_h(i, values):
        m, w = coeffs[i]
        return (apply_momentum(values, grid, 2) / (2.0 * m)
                + 0.5 * m * w * w * x2 * values)

    traj = _drive(psi0, t, dt, stride,
                  lambda i, values: step(*coeffs[i], values), apply_h, StepFailure)
    if not all(state.edge_decay_ok(tol=STORED_EDGE_TOL) for state in traj.states):
        raise SupportLeakage("split-step support reaches the grid edge, where "
                             "the FFT wraps it through the periodic boundary")
    return traj


def free_propagate(psi, t, m=1.0):
    """Exact free evolution exp(-i p^2 t / (2m)) (single spectral step)."""
    kin = np.exp(-0.5j * psi.grid.k ** 2 * t / m)
    return WaveFunction(psi.grid, np.fft.ifft(kin * np.fft.fft(psi.values)))


# -- exact chain propagation for the solvable family ----------------------------

# the sign of monic row n at -|x| (column 0) and at +|x| (column 1)
_MIRROR_SIGNS = np.array([((-1.0) ** n, 1.0) for n in range(BASIS_SIZE)])


class ExactSolvablePropagator:
    """Precomputed transform-chain propagator for a solvable mass family.

    psi(t, x) = e^(-e/2) e^(i chi e^(-2e) x^2/2) sum_n c_n e^(-i E_n t)
    phi_n(e^(-e) x), with e = eps(t): the Hermite functions carried back
    through the dilation and the phase in closed form.  The sum runs over
    the monic rows g_n = s_n phi_n with weights w_n = c_n/s_n, and the phase
    multiplies the summed state once.

    The dilation maps x and -x to mirror images, and g_n(-xi) = (-1)^n
    g_n(xi) exactly, so the rows are evaluated only at the grid's distinct
    |x| (the mirror fold).  One real product with the weight columns
    (-1)^n w_n and w_n gives the sums at -|x| and at +|x|, from which the
    grid's values are gathered.  One recurrence covers round(n/u) stored
    times for u distinct |x|, so it spans about n points: 2 times on a
    mirrored grid, 1 on a grid without mirror points.  The projection of
    psi0 reads the same folded rows.  The gauge is fixed at m0 = m(0)
    (``SolvableFamily.static_mass``), so eps(0) = 0 and the projection reads
    psi0 undilated; the states do not depend on that choice.
    """

    def __init__(self, family, psi0):
        self.grid = psi0.grid
        self.family = family
        self.m0_static, dm0, ddm0 = map(float, family.mass_with_derivatives(0.0))
        self.basis = HermiteBasis(BASIS_SIZE, self.m0_static, family.Omega0,
                                  psi0.grid)
        x = self.grid.x
        self._x2 = x * x
        # return_index makes numpy's argsort a stable one: it merges |x|'s two runs
        self._abs_x, _, at = np.unique(np.abs(x), return_index=True, return_inverse=True)
        # grid point j is entry _fold[j] of a (u, 2) array of (|x|, x > 0)
        self._fold = 2 * at + (x > 0)
        _, de0, _ = mass_epsilon(self.m0_static, dm0, ddm0, self.m0_static)
        rows0, phase0 = self._frames(0.0, de0)
        sides = np.zeros((self._abs_x.size, 2), complex)
        sides.reshape(-1)[self._fold] = phase0.conj() * psi0.values
        # c_n = dx <phi_n|psi0> as numpy pairwise sums: even rows read the
        # sum of the two sides, odd rows their difference
        parts = np.array([sides[:, 1] + sides[:, 0], sides[:, 1] - sides[:, 0]])
        scale = self.grid.dx / self.basis.scales
        self.coeffs = scale * np.sum(rows0 * parts[np.arange(BASIS_SIZE) % 2], axis=1)
        self._weights = (self.coeffs / self.basis.scales)[:, None] * _MIRROR_SIGNS
        self._rates = -1j * self.basis.energies()
        self._norm0 = psi0.norm()
        captured = float(np.sum(np.abs(self.coeffs) ** 2)) / self._norm0 ** 2
        if captured < MIN_CAPTURE:
            raise TruncationError(
                f"basis of size {BASIS_SIZE} captures only {captured:.12f}")

    def _frames(self, e, de):
        """The monic rows g_n(e^(-e) |x|) at k times side by side, (M, k u),
        and the phases e^(i chi e^(-2e) x^2/2) on the grid, (k, n)."""
        shrink = np.exp(-e)
        rows = self.basis.monic(np.multiply.outer(shrink, self._abs_x).ravel())
        half = np.multiply.outer(0.25 * self.m0_static * de * shrink ** 2, self._x2)
        return rows, _half_angle_cis(half, half, np.empty_like(half),
                                     np.empty(half.shape, complex))

    def __call__(self, t):
        """The state at time t, or the list of states at a 1-D array of times;
        eps and its rate at all of them come from one evaluation of the mass."""
        times = np.asarray(t, dtype=float)
        if times.ndim > 1:
            raise ValueError(f"times must be at most 1-D, got shape {times.shape}")
        times = np.atleast_1d(times)
        e, de, _ = mass_epsilon(*self.family.mass_with_derivatives(times),
                                self.m0_static)
        # weights (-1)^n w_n and w_n for the sums at -|x| and +|x|, (k, M, 2)
        weights = self._weights * np.exp(
            np.multiply.outer(times, self._rates) - 0.5 * e[:, None])[..., None]
        per = round(self.grid.n / self._abs_x.size)    # times per recurrence
        states = []
        for i in range(0, times.size, per):
            states += self._block(weights[i:i + per], e[i:i + per], de[i:i + per])
        if not all(state.edge_decay_ok(tol=STORED_EDGE_TOL) for state in states):
            raise SupportLeakage("evolved support reaches the grid edge")
        return states if np.ndim(t) else states[0]

    def _block(self, weights, e, de):
        # a call of its own, so that one block's rows are freed before the
        # next block's are allocated: the heap reuses them
        u = self._abs_x.size
        rows, phases = self._frames(e, de)
        states = []
        for j, (w, phase) in enumerate(zip(weights, phases)):
            sides = _real_dot(rows[:, j * u:(j + 1) * u].T, w)
            values = sides.reshape(-1).take(self._fold)
            values *= phase
            states.append(WaveFunction(self.grid, values))
        return states

    def trajectory(self, t_grid, stride=None):
        """The exact states at the times a stepped run over t_grid would keep.

        The report counts t_grid's steps, and its norm drift is the largest
        | |psi(t)| - |psi0| | over the returned states; the chain takes no
        steps, so it has no Schrodinger residual (None).
        """
        wall0 = time.perf_counter()
        t, _ = _validate_time_grid(t_grid)
        times = t[_stored_steps(t.size - 1, stride)]
        states = self(times)
        drift = max(abs(state.norm() - self._norm0) for state in states)
        return Trajectory(times, states, StepperReport(
            t.size - 1, drift, None, time.perf_counter() - wall0))


# -- closed-form Gaussian transport ---------------------------------------------

def _continuous_arg(m, omega, a0, t):
    """Continuous branch of arg z, z = m w cos(w t) + i a0 sin(w t), from 0.

    z(t + pi/w) = -z(t), and Im((-1)^k z) = Re(a0) |sin(w t)| >= 0 with
    k = floor(w t/pi), so for every Re(a0) > 0 the branch is k pi + pi/2
    plus the principal argument of -i (-1)^k z.  That argument is centred on
    0: where sin(w t) rounds to the wrong sign next to w t = k pi it stays
    near -pi/2 or pi/2, where an argument taken in [0, 2 pi) jumps by 2 pi.
    """
    k = math.floor(omega * t / math.pi)
    z = m * omega * np.cos(omega * t) + 1j * a0 * np.sin(omega * t)
    return k * math.pi + 0.5 * math.pi + float(np.angle(-1j * (-1) ** k * z))


def dilation_map(eps):
    """The f(x) = x point transform's linear canonical map, diag(e^(-eps), e^eps)."""
    return np.diag([math.exp(-eps), math.exp(eps)])


def phase_map(chi):
    """Multiplication by exp(-i chi x^2/2): p -> p - chi x."""
    return np.array([[1.0, 0.0], [-chi, 1.0]])


def rotation_map(m, omega, t):
    """Evolution for time t under p^2/(2m) + (1/2) m w^2 x^2."""
    c, s, mw = np.cos(omega * t), np.sin(omega * t), m * omega
    return np.array([[c, s / mw], [-mw * s, c]])


def gaussian_exact_propagate(family, state, t):
    """Closed-form Gaussian transport through the solvable-family chain's
    maps, in the order of its U(t); the dilation and phase legs keep Q > 0,
    and the rotation leg's arg Q is ``_continuous_arg`` (m w Q is its z).
    The gauge is the chain's, m0 = m(0), so eps(0) = 0 and the first leg is
    the phase alone.  On the alpha = 0 family (constant mass) the phase and
    dilation legs are exact identities, so this is the static oscillator's
    evolution."""
    m0s, dm0, ddm0 = map(float, family.mass_with_derivatives(0.0))
    _, de0, _ = map(float, mass_epsilon(m0s, dm0, ddm0, m0s))
    et, det, _ = map(float, mass_epsilon(*family.mass_with_derivatives(t), m0s))
    staged = state.transported(phase_map(m0s * de0), 0.0)
    evolved = staged.transported(rotation_map(m0s, family.Omega0, t),
                                 _continuous_arg(m0s, family.Omega0, complex(staged.a), t))
    return evolved.transported(dilation_map(-et) @ phase_map(-m0s * det), 0.0)


# -- Crank-Nicolson for the curved (position-dependent-mass) Hamiltonian --------

def curved_kinetic_diagonals(gvals, m, dx):
    """Tridiagonal kinetic operator (1/2m) A D^T M D A (offsets 0 and 1).

    A = diag(g^(-1/4)), D the forward difference (v_{j+1} - v_j)/dx and
    M = diag(g^(-1/2) at x_{j+1/2}), the mean of the two neighbours'
    g^(-1/2): second order like the midpoint value, from the metric on the
    grid only.  This is the conservative three-point ordering of
    position-dependent-mass Hamiltonians (BenDaniel & Duke, Phys. Rev.
    152:683, 1966).  Every point couples to both neighbours, so the
    checkerboard mode (-1)^j carries the largest kinetic energy, about
    2/(m dx^2) on a flat metric.  D has no row past either end, so no flux
    crosses them.  Real symmetric positive semidefinite by construction;
    returns (main, off) with off[j] the (j, j+1) entry.
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
    tridiagonal (``curved_kinetic_diagonals``, the metric sampled once), so
    norm is kept up to the solve's rounding.  As 1 - i H dt/2 =
    2 - (1 + i H dt/2), psi_{n+1} = 2 chi - psi_n with
    (1 + i H dt/2) chi = psi_n: half of 1 + i H dt/2 is factored once
    (zgttrf, in grid order), so each step is one solve (zgttrs) that returns
    2 chi bit for bit, halving being exact.  A non-finite initial state
    raises ``LinearSolveFailure`` before any step, and an overflowing state
    at the next of ``_drive``'s sampled steps.  The returned trajectory
    carries the stepped Hamiltonian's bands.
    """
    from scipy.linalg.lapack import zgttrf, zgttrs

    t, dt = _validate_time_grid(t_grid)
    if not np.all(np.isfinite(psi0.values)):
        raise LinearSolveFailure("Crank-Nicolson initial state has non-finite values")
    grid = psi0.grid
    diagonals = curved_kinetic_diagonals(metric.check_positive(grid.x), float(m), grid.dx)
    main, off = diagonals
    quarter = 0.25j * dt
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


# -- grid spectra of quadratic Hamiltonians -------------------------------------

def oscillator_spectrum(ham, grid, k=8):
    """Lowest k eigenvalues of a p^2 + b x^2 + (c/2){x, p} on the grid.

    p is the spectral ``apply_momentum`` of every other oscillator route.
    Row j of the dense n x n matrix handed to ``numpy.linalg.eigvalsh`` is
    the operator applied to the j-th unit vector, so the rows form the
    complex conjugate of the Hermitian operator, which has the same
    spectrum; for c = 0 the matrix is real symmetric and its real part is
    solved.  The dense solve costs O(n^3), about 0.15 s for the real matrix
    at n = 1024 on one BLAS thread of a Xeon core, while the low levels'
    spectral accuracy saturates by n of about 128, so a larger grid buys
    nothing.  k outside 1 .. n raises ``ValueError``.
    """
    if not 1 <= k <= grid.n:
        raise ValueError(f"k must be from 1 to the grid's {grid.n} points, got {k}")
    eye, x = np.eye(grid.n), grid.x
    rows = (ham.a * apply_momentum(eye, grid, 2) + ham.b * x * x * eye + 0.5 * ham.c
            * (x * apply_momentum(eye, grid) + apply_momentum(x * eye, grid)))
    return np.linalg.eigvalsh(rows if ham.c else rows.real)[:k]
