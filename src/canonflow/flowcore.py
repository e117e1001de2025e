"""One-parameter scaling flows and the point maps they induce.

A smooth generator f(x) defines the flow phi_eps(x), the solution of

    d(phi)/d(eps) = f(phi),    phi_0(x) = x.

The unitary exp[i eps sqrt(f(x)) p sqrt(f(x))] built from f acts on the
canonical pair by

    x  ->  phi_eps(x),
    p  ->  sqrt(w) p sqrt(w),   w(x) = f(x) / f(phi_eps(x)),

and the weight w (the "conjugation factor") is exactly the reciprocal of the
flow Jacobian d(phi_eps)/dx, which is how [x, p] = i survives the transform.

Closed forms are used for three generator families:

    f(x) = x          phi = e^eps x,                 w = e^-eps
    f(x) = x^2        phi = x / (1 - eps x),         w = (1 - eps x)^2
    f(x) = e^(-L x)   phi = ln(e^(L x) + eps L) / L, w = 1 + eps L e^(-L x)

Arbitrary smooth generators integrate the flow (jointly with its Jacobian)
using an adaptive Runge-Kutta method in the flow parameter.  Domain limits
(``GeneratorSpec.flow_domain``) are enforced eagerly: the quadratic
generator escapes to infinity when eps*x -> 1 and the exponential one when
e^(L x) + eps L -> 0, and such points raise ``DomainBlowup`` rather than
returning clamped values.  This module alone branches on the generator kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

# solve_ivp is imported inside _ode_flow: only custom generators integrate
# their flow, so closed-form flows load numpy only.

from .errors import DomainBlowup, StepFailure

LINEAR = "linear"
QUADRATIC = "quadratic"
EXP_DECAY = "exp_decay"
CUSTOM = "custom"

_KINDS = (LINEAR, QUADRATIC, EXP_DECAY, CUSTOM)

# Tolerances for the adaptive flow integration (custom generators).
FLOW_RTOL = 1e-10
FLOW_ATOL = 1e-12
BLOWUP_BOUND = 1e8


@dataclass(frozen=True)
class GeneratorSpec:
    """A scaling-flow generator f(x).

    Use the classmethod constructors; ``kind`` selects a closed-form family
    or a user-supplied callable.  Custom generators must be continuously
    differentiable on their validity interval (the Jacobian integration
    needs f'); if ``dfunc`` is omitted f' is a five-point difference of
    ``func``, and f'' is always one of f' (``_five_point``).
    """

    kind: str
    lam: float = 1.0
    func: Optional[Callable] = None
    dfunc: Optional[Callable] = None
    domain: Tuple[float, float] = (-np.inf, np.inf)
    name: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.kind == EXP_DECAY and not self.lam > 0:
            raise ValueError("exp_decay generator requires a positive rate")
        if self.kind == CUSTOM and self.func is None:
            raise ValueError("custom generator requires a callable")

    @classmethod
    def linear(cls):
        """f(x) = x (dilation generator)."""
        return cls(kind=LINEAR, name="x")

    @classmethod
    def quadratic(cls):
        """f(x) = x^2."""
        return cls(kind=QUADRATIC, name="x^2")

    @classmethod
    def exp_decay(cls, lam):
        """f(x) = exp(-lam*x) with lam > 0."""
        return cls(kind=EXP_DECAY, lam=float(lam), name=f"exp(-{lam}*x)")

    @classmethod
    def custom(cls, func, dfunc=None, domain=(-np.inf, np.inf), name="custom"):
        """Wrap a smooth callable f(x) valid on ``domain``."""
        return cls(kind=CUSTOM, func=func, dfunc=dfunc,
                   domain=(float(domain[0]), float(domain[1])), name=name)

    # -- pointwise evaluation -------------------------------------------------

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == LINEAR:
            return x
        if self.kind == QUADRATIC:
            return x * x
        if self.kind == EXP_DECAY:
            return np.exp(-self.lam * x)
        return np.asarray(self.func(x), dtype=float)

    def df(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == LINEAR:
            return np.ones_like(x)
        if self.kind == QUADRATIC:
            return 2.0 * x
        if self.kind == EXP_DECAY:
            return -self.lam * np.exp(-self.lam * x)
        if self.dfunc is not None:
            return np.asarray(self.dfunc(x), dtype=float)
        return _five_point(self.f, x, self.domain)

    def d2f(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == LINEAR:
            return np.zeros_like(x)
        if self.kind == QUADRATIC:
            return 2.0 * np.ones_like(x)
        if self.kind == EXP_DECAY:
            return self.lam ** 2 * np.exp(-self.lam * x)
        return _five_point(self.df, x, self.domain)

    def in_domain(self, x):
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        return (x >= lo) & (x <= hi)

    def _closed_flow(self, eps, x):
        """Closed-form (phi, jacobian, w) for the three analytic families."""
        if self.kind == LINEAR:
            s = np.exp(eps)
            phi = s * x
            jac = s * np.ones_like(x)
            w = np.exp(-eps) * np.ones_like(x)
            return phi, jac, w
        if self.kind == QUADRATIC:
            q = 1.0 - eps * x
            _check(q > 0.0, "quadratic generator requires eps*x < 1")
            phi = x / q
            jac = 1.0 / (q * q)
            w = q * q
            return phi, jac, w
        # exp decay
        lam = self.lam
        with np.errstate(over="ignore"):      # a steep rate: infinite phi or w
            arg = np.exp(lam * x) + eps * lam
            _check(arg > 0.0, "exp-decay generator requires exp(lam*x) + eps*lam > 0")
            phi = np.log(arg) / lam
            w = 1.0 + eps * lam * np.exp(-lam * x)
        jac = 1.0 / w
        return phi, jac, w

    def flow_domain(self, eps):
        """The open interval (lo, hi) of the x at which phi_eps exists: those
        ``_closed_flow`` accepts, or a custom generator's ``domain``."""
        if self.kind == CUSTOM:
            return self.domain
        if self.kind == QUADRATIC and eps != 0:
            return (-np.inf, 1.0 / eps) if eps > 0 else (1.0 / eps, np.inf)
        if self.kind == EXP_DECAY and eps < 0:
            return np.log(-eps * self.lam) / self.lam, np.inf
        return -np.inf, np.inf


# The closed-form kinds by name, each a constructor that reads its parameters
# through ``param(key)``: only exp_decay reads one, its rate lam as "rate".
CLOSED_FORMS = {LINEAR: lambda param: GeneratorSpec.linear(),
                QUADRATIC: lambda param: GeneratorSpec.quadratic(),
                EXP_DECAY: lambda param: GeneratorSpec.exp_decay(param("rate"))}

# 12 h times the fourth-order weights of f' at x + (k + j) h, j = -2 .. 2, one
# row per shift k = -2 .. 2 (k = 0 is the centred stencil).
_FIVE_POINT = np.array([[3, -16, 36, -48, 25], [-1, 6, -18, 10, 3],
                        [1, -8, 0, 8, -1], [-3, -10, 18, -6, 1],
                        [-25, 48, -36, 16, -3]], dtype=float)


def _five_point(fn, x, domain):
    """fn'(x) from five points at step h = 1e-3 (1 + |x|), the stencil shifted
    towards the inside where a centred one would leave a finite ``domain``."""
    lo, hi = domain
    h = 1e-3 * (1.0 + np.abs(x))
    k = ((x - h < lo).astype(int) + (x - 2.0 * h < lo)
         - (x + h > hi) - (x + 2.0 * h > hi))
    points = x[..., None] + (np.arange(-2, 3) + k[..., None]) * h[..., None]
    vals = fn(np.clip(points, lo, hi))
    return np.sum(_FIVE_POINT[k + 2] * vals, axis=-1) / (12.0 * h)


@dataclass(frozen=True)
class FlowEvaluation:
    """Result of evaluating the flow at (eps, x).

    ``f2 * jacobian = 1`` exactly for closed forms and to integration
    tolerance for custom generators; ``jacobian > 0`` on the validity domain
    (one-dimensional flows preserve orientation).
    """

    x_out: np.ndarray
    jacobian: np.ndarray
    f2: np.ndarray


def _check(cond, message):
    bad = ~np.asarray(cond)
    if np.any(bad):
        idx = np.flatnonzero(np.atleast_1d(bad))
        raise DomainBlowup(message, detail={"indices": idx.tolist()})


def _ode_flow(gen, eps, x, rtol, atol, with_jacobian):
    """Adaptive flow integration, optionally with the variational equation.

    The flow parameter is rescaled to s in [0, 1] so that entries with
    different eps values integrate in a single vector solve:

        d(phi_i)/ds = eps_i * f(phi_i)
        d(J_i)/ds   = eps_i * f'(phi_i) * J_i      (if requested)
    """
    from scipy.integrate import solve_ivp

    n = x.size
    e = np.broadcast_to(eps, x.shape).astype(float).ravel()
    x0 = x.ravel()
    lo, hi = gen.domain
    if not np.all(gen.in_domain(x0)):
        raise DomainBlowup("initial point outside the generator's validity interval")
    y0 = np.concatenate([x0, np.ones(n)]) if with_jacobian else x0

    def rhs(_, y):
        if with_jacobian:
            phi = y[:n]
            return np.concatenate([e * gen.f(phi), e * gen.df(phi) * y[n:]])
        return e * gen.f(y)

    def escape(_, y):
        phi = y[:n]     # an infinite end leaves the margin infinite
        return min(BLOWUP_BOUND - np.max(np.abs(phi)),
                   np.min(np.minimum(phi - lo, hi - phi)))

    escape.terminal = True

    sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                    rtol=rtol, atol=atol, events=escape, dense_output=False)
    if sol.status == 1:
        raise DomainBlowup("flow escaped its validity domain before reaching eps")
    if sol.status != 0:
        raise StepFailure(f"flow integration failed: {sol.message}")
    phi = sol.y[:n, -1].reshape(x.shape)
    jac = sol.y[n:, -1].reshape(x.shape) if with_jacobian else None

    # w = f(x)/f(phi), with the limit exp(-eps f'(x0)) at fixed points of f.
    fx = gen.f(x)
    fphi = gen.f(phi)
    near_zero = np.abs(fx) <= 1e-13 * (1.0 + np.abs(x))
    safe = np.where(near_zero, 1.0, fphi)
    w = np.where(near_zero,
                 np.exp(-np.broadcast_to(eps, x.shape) * gen.df(x)),
                 fx / safe)
    return phi, jac, w


def flow_evaluate(gen, eps, x, *, method="auto", rtol=FLOW_RTOL,
                  atol=FLOW_ATOL, with_jacobian=True):
    """Evaluate phi_eps(x), its x-derivative, and the conjugation factor.

    ``eps`` and ``x`` may be scalars or broadcastable arrays.  With
    ``method="ode"`` the adaptive integrator is used even for closed-form
    generator kinds (useful as an independent cross-check).  The jacobian
    of a custom generator comes from the variational equation (independent
    of the f(x)/f(phi) route, so their product is a real consistency check).
    ``with_jacobian=False`` skips it, leaving the jacobian None and f'
    unsampled, which suits merely piecewise-smooth generators.
    """
    scalar = np.isscalar(x) and np.isscalar(eps)
    xa, ea = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(eps, dtype=float))
    xa = np.array(xa, dtype=float)
    ea = np.array(ea, dtype=float)

    if method == "auto":
        method = "ode" if gen.kind == CUSTOM else "closed"
    if method == "closed":
        if gen.kind == CUSTOM:
            raise ValueError("no closed form for a custom generator")
        phi, jac, w = gen._closed_flow(ea, xa)
    elif method == "ode":
        phi, jac, w = _ode_flow(gen, ea, xa, rtol, atol, with_jacobian)
    else:
        raise ValueError(f"unknown flow method {method!r}")

    if scalar:
        return FlowEvaluation(float(phi),
                              None if jac is None else float(jac), float(w))
    return FlowEvaluation(phi, jac, w)


def bracket_generator(f1, f2):
    """Generator h of the anticommutator form produced by a commutator.

    For first-order forms A_g = (1/2){g(x), p} one has [A_f1, A_f2] = -i A_h
    with h = 2 (f1 f2' - f2 f1') (a Wronskian, finite even where f1
    vanishes).  Returns h as a vectorized callable.
    """
    def h(x):
        x = np.asarray(x, dtype=float)
        return 2.0 * (f1.f(x) * f2.df(x) - f2.f(x) * f1.df(x))

    return h
