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

Any other generator is solved through its Abel coordinate A, A' = 1/f:
the flow is the shift A(phi_eps(x)) = A(x) + eps (for f = x, A = ln x and
the shift is the dilation), so phi is the root of int_x^phi dy/f = eps and
phi' = f(phi)/f(x) = 1/w (``_abel_flow``; no ODE is integrated).  Domain
limits (``GeneratorSpec.flow_domain``) are enforced eagerly: the quadratic
generator escapes to infinity when eps*x -> 1 and the exponential one when
e^(L x) + eps L -> 0, and such points raise ``DomainBlowup`` rather than
returning clamped values.  This module alone branches on the generator kind.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import DomainBlowup, StepFailure

LINEAR = "linear"
QUADRATIC = "quadratic"
EXP_DECAY = "exp_decay"
CUSTOM = "custom"

_KINDS = (LINEAR, QUADRATIC, EXP_DECAY, CUSTOM)

# Panel tolerance of the Abel solver (custom generators), and the |phi| at
# which a flow counts as escaped to infinity.
FLOW_RTOL = 1e-12
FLOW_ATOL = 1e-14
BLOWUP_BOUND = 1e8


@dataclass(frozen=True)
class GeneratorSpec:
    """A scaling-flow generator f(x).

    Use the classmethod constructors; ``kind`` selects a closed-form family
    or a user-supplied callable.  A custom flow samples only f, and f' only
    at a fixed point (|f(x)| <= 1e-13 (1 + |x|)); the brackets read f' and
    f''.  If ``dfunc`` is omitted f' is a five-point difference of ``func``,
    and f'' is always one of f' (``_five_point``).
    """

    kind: str
    lam: float = 1.0
    func: Optional[Callable] = None
    dfunc: Optional[Callable] = None
    domain: Tuple[float, float] = (-np.inf, np.inf)

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
        return cls(kind=LINEAR)

    @classmethod
    def quadratic(cls):
        """f(x) = x^2."""
        return cls(kind=QUADRATIC)

    @classmethod
    def exp_decay(cls, lam):
        """f(x) = exp(-lam*x) with lam > 0."""
        return cls(kind=EXP_DECAY, lam=float(lam))

    @classmethod
    def custom(cls, func, dfunc=None, domain=(-np.inf, np.inf)):
        """Wrap a smooth callable f(x) valid on ``domain``."""
        return cls(kind=CUSTOM, func=func, dfunc=dfunc,
                   domain=(float(domain[0]), float(domain[1])))

    # -- pointwise evaluation -------------------------------------------------

    def f(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == LINEAR:
            return x
        if self.kind == QUADRATIC:
            return x * x
        if self.kind == EXP_DECAY:
            return np.exp(-self.lam * x)
        return np.broadcast_to(np.asarray(self.func(x), dtype=float), x.shape)

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

    The jacobian is the closed form's phi', or 1/w = f(phi)/f(x) for a custom
    generator (``verify.flow_slope`` gives an independent phi'), which is
    None when not requested; ``jacobian > 0`` on the validity domain
    (one-dimensional flows preserve orientation).
    """

    x_out: np.ndarray
    jacobian: np.ndarray
    f2: np.ndarray


def _check(cond, message):
    """Raise ``DomainBlowup`` where ``cond`` fails, with the count and the first
    and last index of the failing points as its detail."""
    idx = np.flatnonzero(~np.atleast_1d(cond))
    if idx.size:
        raise DomainBlowup(message, detail={"count": int(idx.size), "first": int(idx[0]),
                                            "last": int(idx[-1])})


@functools.cache
def _gauss(n):
    """The n-node Gauss-Legendre rule on [0, 1], as (nodes, weights).  Built on
    first use, so that importing the package does not load ``numpy.polynomial``."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (1.0 + x), 0.5 * w


_BLOCK = 8192      # samples of f per call in _inverse_f


def _inverse_f(gen, sign, start, length, nodes):
    """sign / f at start + nodes * length: one row per node, one column per
    point.  f is called on whole rows of at most ``_BLOCK`` samples at a time,
    so that its temporaries stay small; at 2048 points that measured faster
    than one call on every sample (CHANGES.md)."""
    out = np.empty((nodes.size, start.size))
    rows = max(1, _BLOCK // start.size)
    for i in range(0, nodes.size, rows):
        out[i:i + rows] = sign / gen.f(start + nodes[i:i + rows, None] * length)
    return out


def _abel_flow(gen, eps, x, rtol, atol, with_jacobian):
    """(phi, jacobian, w) at (eps, x) from the Abel relation: phi is the root of

        G(phi) = int_x^phi dy / f(y) - eps,

    and the jacobian is 1/w (None unless ``with_jacobian``).

    Each moving point marches in the direction sign(eps f(x)) over 8-node
    Gauss-Legendre panels of 1/f, taking the Abel time |int dy/f| of each
    off |eps|; the first panel is |eps| times the larger |f| at x and at its
    Euler step, and at least the spacing of x.  A panel is accepted when its
    rule and the rule on its two halves agree to atol + rtol |eps|, and then
    doubles; it is halved when they do not, or when f at a node is zero, has
    the other sign or is not finite.  The panel that would pass |eps| is
    closed from a guess interpolated through the Abel times of its ends and
    middle.  Each closing step integrates 1/f only from the last iterate or,
    the first, from the nearest of those three knots: with the panel's rule
    on a step longer than 1/64 of the panel, 3 nodes on a shorter one, then
    f at its end.  The steps are Halley's, Newton's phi <- phi - f(phi) G(phi)
    corrected by the curvature of the Abel coordinate read from the step's
    last node and its end, where that stays inside the bracket of the root,
    else bisection, until a step is below 1e-8 of the panel (the steps
    converge at least quadratically, so it lands within rounding of the
    root) or phi stops moving.  A march that reaches the end of the
    generator's domain or +-BLOWUP_BOUND raises ``DomainBlowup``, and so does
    one whose panel shrinks below the spacing of phi with f infinite at a
    node of its last panel; any other such panel raises ``StepFailure``.  Only f
    is sampled, and f' only at fixed points (|f(x)| <= 1e-13 (1 + |x|)),
    where phi = x and w is the limit exp(-eps f'(x)).
    """
    e, x0 = eps.ravel(), x.ravel()
    nodes, gl_w = _gauss(8)
    m, panel = nodes.size, np.concatenate([nodes, 0.5 * nodes, 0.5 + 0.5 * nodes])
    _check(gen.in_domain(x0), "initial point outside the generator's validity interval")
    with np.errstate(all="ignore"):     # a node where f overflows is refused
        fx = gen.f(x0)
        _check(np.isfinite(fx), "f is not finite at the initial point")
        fixed = np.abs(fx) <= 1e-13 * (1.0 + np.abs(x0))
        move = np.flatnonzero(~fixed & (e != 0.0))
        sign = np.sign(fx[move])
        way = sign * np.sign(e[move])      # the product f(x) eps may underflow
        stop = np.where(way > 0, *np.clip(gen.domain[::-1], -BLOWUP_BOUND, BLOWUP_BOUND))
        a, rest = x0[move], np.abs(e[move])    # panel start, Abel time left from it
        tol = atol + rtol * rest
        span = np.fmax(np.spacing(np.abs(a)), rest * np.fmax(np.abs(fx[move]), np.abs(
            gen.f(np.clip(a + e[move] * fx[move], *gen.domain)))))
        # u: the guessed root's distance from a; at, g: the closing's iterate and
        # G there, first the knot nearest u
        (u, at, g), live = np.empty((3, move.size)), np.arange(move.size)
        while live.size:
            d, room = way[live], way[live] * (stop[live] - a[live])
            if np.any(room <= 0.0):
                raise DomainBlowup("flow escaped its validity domain before reaching eps")
            h = np.minimum(span[live], room)
            inv = _inverse_f(gen, sign[live], a[live], d * h, panel)
            first = 0.5 * h * (gl_w @ inv[m:2 * m])
            halves = first + 0.5 * h * (gl_w @ inv[2 * m:])
            err = np.abs(h * (gl_w @ inv[:m]) - halves)     # NaN where f is not finite
            ok = (inv > 0.0).all(axis=0) & (err <= tol[live])
            on, past = ok & (halves < rest[live]), ok & (halves >= rest[live])
            i, j = live[on], live[past]
            a[i] = np.where(h[on] < room[on], a[i] + d[on] * h[on], stop[i])
            rest[i] -= halves[on]
            # u through the Abel times (0, first, halves) at u = (0, h/2, h)
            r, s, t, hp = rest[j], first[past], halves[past], h[past]
            q = hp * r * (0.5 * (r - t) / (s * (s - t)) + (r - s) / (t * (t - s)))
            u[j] = np.where((q > 0.0) & (q < hp), q, hp * r / t)
            near = np.rint(2.0 * u[j] / hp)
            at[j], g[j] = 0.5 * hp * near, np.choose(near.astype(int), [-r, s - r, t - r])
            span[live] = h * np.where(ok, 1.0 + on, 0.5)   # past: the closing panel
            live, stalled = live[~past], (a[live] + d * span[live] == a[live])[~past]
            if np.any(stalled):     # a blowup if 1/f = 0 at a node: f overflows ahead
                raise (DomainBlowup if np.any(inv[:, ~past][:, stalled] == 0.0) else StepFailure)(
                    "flow panel shrank below the spacing of phi")
        # close each last panel.  The points still open keep compact copies of
        # their start a, direction, sign and panel width, the iterate `at` and G
        # there, the bracket [lo, hi] of the root in u, and the next iterate
        phi = x0.copy()
        state = [np.arange(move.size), a, way, sign, span, at, g, np.zeros(move.size), span, u]
        while state[0].size:
            pts, a_, d, sg, width, at_, g_, lo, hi, new = state
            step = new - at_
            nodes, weights = _gauss(m if np.any(np.abs(step) > width / 64.0) else 3)
            inv = _inverse_f(gen, sg, a_ + d * at_, d * step, np.append(nodes, 1.0))
            g_ = g_ + step * (weights @ inv[:-1])
            below = g_ < 0.0
            lo, hi = np.where(below, new, lo), np.where(below, hi, new)
            # Halley's step: Newton's, corrected by A'' = d(1/|f|)/du read from the
            # step's last node and its end
            curv = np.where(step != 0.0, (inv[-1] - inv[-2]) / ((1.0 - nodes[-1]) * step), 0.0)
            at_, cand = new, new - g_ / inv[-1] / (1.0 - 0.5 * g_ * curv / inv[-1] ** 2)
            # a step below 1e-8 of the panel is the last; a longer one is taken
            # inside the bracket, else bisection
            small = np.abs(cand - at_) <= 1e-8 * width
            new = np.where(small | (cand > lo) & (cand < hi), np.clip(cand, lo, hi),
                           0.5 * (lo + hi))
            done = small | (new == at_)
            phi[move[pts[done]]] = (a_ + d * new)[done]
            state = [v[~done] for v in (pts, a_, d, sg, width, at_, g_, lo, hi, new)]
        w = fx / gen.f(phi)
        if np.any(fixed):
            w[fixed] = np.exp(-e[fixed] * gen.df(x0[fixed]))
        phi, w = phi.reshape(x.shape), w.reshape(x.shape)
        return phi, 1.0 / w if with_jacobian else None, w


def flow_evaluate(gen, eps, x, *, rtol=FLOW_RTOL, atol=FLOW_ATOL,
                  with_jacobian=True):
    """Evaluate phi_eps(x), its x-derivative, and the conjugation factor.

    ``eps`` and ``x`` may be scalars or broadcastable arrays.  The generator's
    kind picks the route: the closed form, or for a custom generator the
    Abel solver (``_abel_flow``, whose panel tolerance is ``rtol``, ``atol``).
    A closed form is cross-checked through its custom twin
    ``GeneratorSpec.custom(gen.f)``, which takes the Abel route.  The Abel
    jacobian is 1/w, so ``verify`` checks w against an independent difference
    of phi in x (``verify.flow_slope``).  ``with_jacobian=False`` leaves a
    custom generator's jacobian None; the closed forms ignore it.
    """
    scalar = np.isscalar(x) and np.isscalar(eps)
    xa, ea = (np.array(v, dtype=float) for v in np.broadcast_arrays(x, eps))
    if gen.kind == CUSTOM:
        phi, jac, w = _abel_flow(gen, ea, xa, rtol, atol, with_jacobian)
    else:
        phi, jac, w = gen._closed_flow(ea, xa)

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
