"""Quadratic-Hamiltonian algebra under scaling and quadratic-phase transforms.

With H = a p^2 + b x^2 + (c/2){x,p} (hbar = 1), the two time-dependent
unitaries used throughout the package act affinely on the coefficients:

* dilation, parameter eps(t):
      (a, b, c) -> (a e^(-2 eps), b e^(2 eps), c - deps)
  The -deps shift comes from the -i U d(U^dag)/dt term; it vanishes for a
  time-independent transform, which is why the map is affine rather than
  linear whenever deps != 0 (and is *not* spectrum-preserving then).

* quadratic phase exp(-i chi x^2 / 2):
      (a, b, c) -> (a, b + a chi^2 + c chi + dchi/2, c + 2 a chi)

Chaining the two with eps = (1/2) ln(m0/m(t)) and chi = m0 * deps turns the
standard oscillator a = 1/(2m), b = m w^2/2 into a constant-mass oscillator
with effective frequency

      Omega = sqrt(ddeps - deps^2 + w^2),

independent of the gauge constant m0.  Requiring Omega to be a constant
Omega0 picks out the exactly solvable mass family

      m(t) = m0 (mu e^(alpha t) + nu e^(-alpha t))^2,  w^2 = Omega0^2 + alpha^2,

whose best-known member is the exponential-mass (Caldirola-Kanai) damped
oscillator, mu = 1, nu = 0, alpha = gamma/2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import ImaginaryFrequency, MassZeroCrossing, NegativeRadicand
from .flowcore import GeneratorSpec, flow_evaluate
from .gridspace import apply_momentum, apply_weighted_kinetic


# -- time profiles ------------------------------------------------------------

@dataclass(frozen=True)
class TimeProfile:
    """A scalar function of time with its first two derivatives.

    Closed-form constructors keep the derivatives exact; ``from_callable``
    fills them in with 4th-order central differences of step
    h = 1e-4 * timescale.  ``joint``, when given, returns all three from one
    evaluation (``with_derivatives`` uses it).
    """

    value: Callable
    d1: Callable
    d2: Callable
    name: str = ""
    joint: Optional[Callable] = None

    @classmethod
    def constant(cls, v):
        v = float(v)
        return cls(lambda t: v + 0.0 * np.asarray(t, dtype=float),
                   lambda t: 0.0 * np.asarray(t, dtype=float),
                   lambda t: 0.0 * np.asarray(t, dtype=float),
                   name=f"const {v}")

    @classmethod
    def exponential(cls, c0, rate):
        """c0 * exp(rate * t); a steep rate overflows to inf, which mass checks reject."""
        name = f"{float(c0)}*exp({float(rate)}t)"
        c0, rate = np.float64(c0), np.float64(rate)

        def term(scale):
            def fn(t):
                with np.errstate(over="ignore", invalid="ignore"):
                    return scale * np.exp(rate * np.asarray(t, dtype=float))
            return fn

        with np.errstate(over="ignore", invalid="ignore"):
            return cls(term(c0), term(c0 * rate), term(c0 * rate ** 2), name=name)

    @classmethod
    def from_callable(cls, fn, timescale=1.0, name="numeric"):
        h = 1e-4 * float(timescale)

        def d1(t):
            t = np.asarray(t, dtype=float)
            return (fn(t - 2 * h) - 8 * fn(t - h) + 8 * fn(t + h)
                    - fn(t + 2 * h)) / (12 * h)

        def d2(t):
            t = np.asarray(t, dtype=float)
            return (-fn(t - 2 * h) + 16 * fn(t - h) - 30 * fn(t)
                    + 16 * fn(t + h) - fn(t + 2 * h)) / (12 * h * h)

        return cls(lambda t: np.asarray(fn(np.asarray(t, dtype=float)), dtype=float),
                   d1, d2, name=name)

    def with_derivatives(self, t):
        """(value, d1, d2) at t, from one ``joint`` call when there is one."""
        if self.joint is not None:
            return self.joint(t)
        return self.value(t), self.d1(t), self.d2(t)

    def derivative_consistency(self, ts):
        """Max mismatch between stored and finite-difference derivatives."""
        ts = np.asarray(ts, dtype=float)
        fd = TimeProfile.from_callable(self.value, timescale=max(np.ptp(ts), 1.0))
        scale = 1.0 + np.max(np.abs(self.value(ts)))
        return float(max(np.max(np.abs(fd.d1(ts) - self.d1(ts))),
                         np.max(np.abs(fd.d2(ts) - self.d2(ts)))) / scale)


def mass_epsilon(m, dm, ddm, m0):
    """(eps, deps, ddeps) of eps = (1/2) ln(m0 / m), so that m e^(2 eps) = m0.

    deps = -r/2 and ddeps = (r^2 - ddm/m)/2 with the rate r = dm/m: finite
    for a mass near overflow, and independent of m0 and of the mass scale.
    A mass that is not positive and finite raises ``MassZeroCrossing``.
    """
    m = _positive_mass(m)
    r = dm / m
    return 0.5 * np.log(m0 / m), -0.5 * r, 0.5 * (r * r - ddm / m)


def _positive_mass(m):
    m = np.asarray(m, dtype=float)
    if not np.all((m > 0) & (m < np.inf)):
        raise MassZeroCrossing("mass profile is not positive and finite at the "
                               "requested time")
    return m


# -- quadratic Hamiltonians ---------------------------------------------------

@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = a p^2 + b x^2 + (c/2){x,p}; Hermitian by construction."""

    a: float
    b: float
    c: float = 0.0

    @classmethod
    def oscillator(cls, m, omega):
        """Standard form p^2/(2m) + (1/2) m omega^2 x^2."""
        return cls(a=1.0 / (2.0 * m), b=0.5 * m * omega ** 2, c=0.0)


def dilation_transform(ham, eps, deps):
    """Coefficient map of the dilation with parameter eps and rate deps."""
    s = np.exp(2.0 * float(eps))
    return replace(ham, a=ham.a / s, b=ham.b * s, c=ham.c - float(deps))


def quadratic_phase_transform(ham, chi, dchi):
    """Coefficient map of exp(-i chi x^2/2); p -> p + chi x plus the dchi/2 x^2 drive."""
    chi, dchi = float(chi), float(dchi)
    return replace(ham,
                   b=ham.b + ham.a * chi ** 2 + ham.c * chi + 0.5 * dchi,
                   c=ham.c + 2.0 * ham.a * chi)


def reduce_oscillator(mass, omega, t, m0=None):
    """Apply both transforms to p^2/(2m) + (1/2) m w^2 x^2 at time t.

    Returns (QuadraticHamiltonian, eps(t), chi(t)).  With the canonical
    choices eps = (1/2)ln(m0/m), chi = m0*deps the result is
    (1/(2 m0), (1/2) m0 Omega(t)^2, 0).
    """
    if m0 is None:
        m0 = float(mass.value(0.0))
    m, dm, ddm = mass.with_derivatives(t)
    e, de, dde = map(float, mass_epsilon(m, dm, ddm, m0))
    h0 = QuadraticHamiltonian.oscillator(float(m), float(omega.value(t)))
    h1 = dilation_transform(h0, e, de)
    h2 = quadratic_phase_transform(h1, m0 * de, m0 * dde)
    return h2, e, m0 * de


def effective_frequency(mass, omega, t, m0=None):
    """Omega(t) = sqrt(ddeps - deps^2 + w^2) with eps = (1/2)ln(m0/m).

    Independent of m0 (eps shifts by a constant).  Raises
    ``ImaginaryFrequency`` when the radicand is negative (inverted
    effective oscillator: reported, not computed).
    """
    t = np.asarray(t, dtype=float)
    m, dm, ddm = mass.with_derivatives(t)
    _, de, dde = mass_epsilon(m, dm, ddm, m if m0 is None else m0)
    rad = dde - de ** 2 + np.asarray(omega.value(t)) ** 2
    if np.any(rad < 0):
        raise ImaginaryFrequency("ddeps - deps^2 + w^2 < 0")
    out = np.sqrt(rad)
    return float(out) if out.ndim == 0 else out


def omega_from_mass(mass, omega0, t):
    """The unique w(t) pairing with m(t) to an Omega0 static oscillator.

    w = sqrt(Omega0^2 - ddeps + deps^2), eps from ``mass_epsilon``.  A
    radicand that is negative or not finite (say Omega0 = 1e300) raises
    ``NegativeRadicand``.
    """
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        _, de, dde = mass_epsilon(*mass.with_derivatives(t), 1.0)
        rad = np.float64(omega0) ** 2 - dde + de ** 2
    if not np.all((rad >= 0) & (rad < np.inf)):
        raise NegativeRadicand("no finite real frequency pairs with this mass profile")
    out = np.sqrt(rad)
    return float(out) if out.ndim == 0 else out


# -- the exactly solvable family ----------------------------------------------

@dataclass(frozen=True)
class SolvableFamily:
    """Masses m(t) = m0 (mu e^(alpha t) + nu e^(-alpha t))^2 with constant w.

    The oscillator (m(t), w) with w^2 = Omega0^2 + alpha^2 reduces exactly to
    a static oscillator of frequency Omega0.  ``trigonometric=True`` selects
    the oscillatory-mass extension m = m0 (mu cos(alpha t) + nu sin(alpha t))^2
    with w^2 = Omega0^2 - alpha^2 (the analytic continuation alpha -> i alpha;
    offered as a clearly labeled extension of the exponential family).
    """

    m0: float
    mu: float
    nu: float
    alpha: float
    Omega0: float
    trigonometric: bool = False

    def __post_init__(self):
        if not self.m0 > 0:
            raise ValueError("m0 must be positive")
        if self.mu == 0.0 and self.nu == 0.0:
            raise ValueError("mu and nu cannot both vanish")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not self.Omega0 > 0:
            raise ValueError("Omega0 must be positive")
        if self.trigonometric and self.alpha >= self.Omega0:
            raise ValueError("trigonometric family needs alpha < Omega0")

    @classmethod
    def caldirola_kanai(cls, gamma, omega0=None, m0=1.0, Omega0=None):
        """Exponential mass m = m0 e^(gamma t): mu = 1, nu = 0, alpha = gamma/2.

        Provide either the lab frequency omega0 (w^2 must exceed gamma^2/4)
        or the reduced frequency Omega0 directly.
        """
        alpha = 0.5 * float(gamma)
        if Omega0 is None:
            if omega0 is None:
                raise ValueError("provide omega0 or Omega0")
            rad = float(omega0) ** 2 - alpha ** 2
            if rad <= 0:
                raise ImaginaryFrequency("overdamped: omega0^2 <= (gamma/2)^2")
            Omega0 = np.sqrt(rad)
        return cls(m0=float(m0), mu=1.0, nu=0.0, alpha=alpha, Omega0=float(Omega0))

    @property
    def omega(self):
        """The constant lab frequency solving the constancy condition.

        A square that overflows (say Omega0 = 1e300) raises
        ``NegativeRadicand``, as in ``omega_from_mass``.
        """
        sign = -1.0 if self.trigonometric else 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            rad = np.float64(self.Omega0) ** 2 + sign * np.float64(self.alpha) ** 2
        if not rad < np.inf:
            raise NegativeRadicand("no finite frequency pairs with this family")
        return float(np.sqrt(rad))

    def _s(self, t):
        t = np.asarray(t, dtype=float)
        if self.trigonometric:
            s = self.mu * np.cos(self.alpha * t) + self.nu * np.sin(self.alpha * t)
            ds = self.alpha * (-self.mu * np.sin(self.alpha * t)
                               + self.nu * np.cos(self.alpha * t))
            dds = -self.alpha ** 2 * s
        else:
            ep, em = np.exp(self.alpha * t), np.exp(-self.alpha * t)
            s = self.mu * ep + self.nu * em
            ds = self.alpha * (self.mu * ep - self.nu * em)
            dds = self.alpha ** 2 * s
        return s, ds, dds

    def mass_with_derivatives(self, t):
        """(m, dm, ddm) at t, closed form; raises on a zero crossing or overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            s, ds, dds = self._s(t)
            m = self.m0 * s * s
            dm = 2.0 * self.m0 * s * ds
            ddm = 2.0 * self.m0 * (ds * ds + s * dds)
        if not np.all((m > 0) & np.isfinite(m) & np.isfinite(dm) & np.isfinite(ddm)):
            raise MassZeroCrossing("mu e^(at) + nu e^(-at) vanishes, or the mass "
                                   "overflows, at the requested time")
        return m, dm, ddm

    def mass_profile(self):
        return TimeProfile(lambda t: self.mass_with_derivatives(t)[0],
                           lambda t: self.mass_with_derivatives(t)[1],
                           lambda t: self.mass_with_derivatives(t)[2],
                           name="solvable-family mass",
                           joint=self.mass_with_derivatives)

    def frequency_profile(self):
        return TimeProfile.constant(self.omega)

    def static_mass(self):
        """Default gauge constant m0_static = m(0), making eps(0) = 0."""
        return float(self.mass_with_derivatives(0.0)[0])

    def constancy_residual(self, t):
        """|ddeps - deps^2 + alpha^2| with eps from the closed-form mass.

        Vanishes identically for the exponential family (the defining
        property); computed here from ``mass_epsilon`` as a self-check.
        """
        _, de, dde = mass_epsilon(*self.mass_with_derivatives(t), self.m0)
        sign = -1.0 if self.trigonometric else 1.0
        return np.abs(dde - de ** 2 + sign * self.alpha ** 2)


# -- general-generator transform of a standard Hamiltonian ---------------------

@dataclass(frozen=True)
class TransformedStandardHamiltonian:
    """Image of p^2/(2m) + V(x) under the (f, eps) point transform.

    kinetic:   (1/(2m)) sqrt(w) p w p sqrt(w),  w(x) the conjugation factor
    potential: V(phi_eps(x))
    drive:     -(deps/2) {f(x), p}   (only for time-dependent eps)

    ``apply`` acts with it on grid values, p applied spectrally; with V = 0
    and constant eps it is the curved-space Hamiltonian for the metric
    g = w^(-2) (``metricmap.curved_hamiltonian``).
    """

    mass: float
    generator: GeneratorSpec
    eps: float
    deps: float
    weight: Callable          # w(x)
    potential: Callable       # V(phi_eps(x))

    def apply(self, values, grid):
        """H psi for grid values psi."""
        x = grid.x
        w = np.asarray(self.weight(x), dtype=float)
        out = (apply_weighted_kinetic(values, grid, w, self.mass)
               + self.potential(x) * values)
        if self.deps != 0.0:
            fv = np.asarray(self.generator.f(x), dtype=float)
            anti = fv * apply_momentum(values, grid) + apply_momentum(fv * values, grid)
            out = out - 0.5 * self.deps * anti
        return out


def general_f_transform(mass, potential, gen, eps, deps=0.0):
    """Transform H = p^2/(2m) + V(x) by the (f, eps) point transform.

    For f(x) = x this reproduces the dilation coefficients
    (p^2 e^(-2 eps)/(2m), V(e^eps x), -(deps/2){x,p}).
    """
    def weight(x):
        return flow_evaluate(gen, eps, x).f2

    def moved_potential(x):
        return potential(flow_evaluate(gen, eps, x).x_out)

    return TransformedStandardHamiltonian(
        mass=float(mass), generator=gen, eps=float(eps), deps=float(deps),
        weight=weight, potential=moved_potential)
