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
are enforced eagerly: the quadratic generator escapes to infinity when
eps*x -> 1 and the exponential one when e^(L x) + eps L -> 0, and such
points raise ``DomainBlowup`` rather than returning clamped values.
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
    needs f'); if ``dfunc`` is omitted a central difference of ``func`` is
    used.
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
        h = 1e-6 * (1.0 + np.abs(x))
        return (self.f(x + h) - self.f(x - h)) / (2.0 * h)

    def d2f(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == LINEAR:
            return np.zeros_like(x)
        if self.kind == QUADRATIC:
            return 2.0 * np.ones_like(x)
        if self.kind == EXP_DECAY:
            return self.lam ** 2 * np.exp(-self.lam * x)
        h = 1e-5 * (1.0 + np.abs(x))
        return (self.df(x + h) - self.df(x - h)) / (2.0 * h)

    def in_domain(self, x):
        lo, hi = self.domain
        x = np.asarray(x, dtype=float)
        return (x >= lo) & (x <= hi)


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


def _closed_flow(gen, eps, x):
    """Closed-form (phi, jacobian, w) for the three analytic families."""
    if gen.kind == LINEAR:
        s = np.exp(eps)
        phi = s * x
        jac = s * np.ones_like(x)
        w = np.exp(-eps) * np.ones_like(x)
        return phi, jac, w
    if gen.kind == QUADRATIC:
        q = 1.0 - eps * x
        _check(q > 0.0, "quadratic generator requires eps*x < 1")
        phi = x / q
        jac = 1.0 / (q * q)
        w = q * q
        return phi, jac, w
    # exp decay
    lam = gen.lam
    with np.errstate(over="ignore"):      # a steep rate: infinite phi or w
        arg = np.exp(lam * x) + eps * lam
        _check(arg > 0.0, "exp-decay generator requires exp(lam*x) + eps*lam > 0")
        phi = np.log(arg) / lam
        w = 1.0 + eps * lam * np.exp(-lam * x)
    jac = 1.0 / w
    return phi, jac, w


def _ode_flow(gen, eps, x, rtol, atol, with_jacobian):
    """Adaptive flow integration, optionally with the variational equation.

    The flow parameter is rescaled to s in [0, 1] so that entries with
    different eps values integrate in a single vector solve:

        d(phi_i)/ds = eps_i * f(phi_i)
        d(J_i)/ds   = eps_i * f'(phi_i) * J_i      (if requested)

    ``with_jacobian=False`` skips the second block (cheaper, and avoids
    sampling f' for merely piecewise-smooth generators); the jacobian slot
    of the result is then None.
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
        phi = y[:n]
        m = np.max(np.abs(phi))
        if np.isfinite(lo) or np.isfinite(hi):
            margin = np.min(np.minimum(phi - lo, hi - phi))
            return min(BLOWUP_BOUND - m, margin)
        return BLOWUP_BOUND - m

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
    of the f(x)/f(phi) route, so their product is a real consistency check);
    pass ``with_jacobian=False`` to skip it when only the map or the
    conjugation factor is needed.
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
        phi, jac, w = _closed_flow(gen, ea, xa)
    elif method == "ode":
        phi, jac, w = _ode_flow(gen, ea, xa, rtol, atol, with_jacobian)
    else:
        raise ValueError(f"unknown flow method {method!r}")

    if scalar:
        return FlowEvaluation(float(phi),
                              None if jac is None else float(jac), float(w))
    return FlowEvaluation(phi, jac, w)


def flow_map(gen, eps, x, **kw):
    """phi_eps(x): the transformed position."""
    kw.setdefault("with_jacobian", False)
    return flow_evaluate(gen, eps, x, **kw).x_out


def flow_jacobian(gen, eps, x, **kw):
    """d(phi_eps)/dx > 0: the half-density weight of the point unitary is its square root."""
    return flow_evaluate(gen, eps, x, **kw).jacobian


def conjugation_factor(gen, eps, x, **kw):
    """w(x) = f(x)/f(phi_eps(x)): the weight in the transformed momentum sqrt(w) p sqrt(w)."""
    kw.setdefault("with_jacobian", False)
    return flow_evaluate(gen, eps, x, **kw).f2


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
