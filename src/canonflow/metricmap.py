"""Free particle <-> nontrivial metric correspondence.

Conjugating the free Hamiltonian p^2/(2m) by the point unitary of a
generator f at parameter eps produces the curved-space operator

    H_g = (1/2m) g^(-1/4) p g^(-1/2) p g^(-1/4),   g(x) = w(x)^(-2),

with w the conjugation factor of the flow (so g = (d phi_eps/dx)^2); H_g is
the unique Hermitian operator for the classical p^2/(2 m g) that is
self-adjoint for the measure sqrt(g) dx.  For a constant eps the evolutions
are unitarily equivalent: exp(-i H_g t) = U exp(-i H_free t) U^dag.

The inverse problem - given the metric, find a generator whose flow
produces it - has two stages (``generator_from_metric``):

1. the flow map: g = (phi')^2 forces phi(x) = phi(anchor) + integral of
   sqrt(g) (``FlowTable``).  The free phi(anchor) is the minimal
   fixed-point-free displacement, which recovers the original map of a
   flow whose generator decays somewhere.
2. a generator with that time-eps map: f = 1/u' for an Abel function with
   u(phi(x)) = u(x) + eps (``_abel_generator``).  f is not unique given
   phi, so acceptance is on phi and on the round-tripped metric, not on f
   pointwise (though an exp-decay metric gives back f = e^(-x)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Tuple

import numpy as np

# scipy.linalg is imported inside the spline builder, so that importing this
# module (and with it the CLI) loads numpy only.

from .errors import (FixedPointInInterval, NonMonotoneFlow, SingularMetric)
from .flowcore import GeneratorSpec, _check, _gauss, flow_evaluate
from .gridspace import WaveFunction, apply_point_unitary, apply_weighted_kinetic
from .propagators import crank_nicolson_curved, free_propagate, uniform_time_grid

TABLE_SAMPLES = 4097         # flow-table points on the extended interval
MIN_DISPLACEMENT = 0.02      # displacement bump, as a fraction of the working span
NODE_SPACING = 0.02          # spacing of the Abel generator's spline nodes
MAX_JUNCTIONS = 200000       # anchor-orbit length before the seed is rejected
# Relative amplitude the equivalence check lets the point unitaries truncate
# (see ``verify_metric_equivalence``).
EQUIVALENCE_LEAK_TOL = 1e-3


class _Piecewise:
    """A piecewise polynomial laid out as scipy's ``PPoly``: breakpoints ``x``
    and one column of coefficients ``c`` per piece, highest power first.  A
    point left of x[1] is on the first piece and one right of x[-2] on the
    last, so the end pieces extrapolate.  Values and the antiderivative's
    constants are summed term by term from the lowest power, in ``PPoly``'s
    order, so they round as it does."""

    def __init__(self, c, x):
        self.c, self.x = c, x

    def locate(self, x):
        """The piece of every point, and the powers 1 .. degree of the point's
        offset s from the piece's left breakpoint, as s, s * s, (s * s) * s, ..."""
        i = self.x[1:-1].searchsorted(x, "right")
        return i, list(accumulate([x - self.x[i]] * (len(self.c) - 1), np.multiply))

    def at(self, located, nu=0):
        """The nu-th derivative at points given by ``locate`` (on this or on a
        polynomial of higher degree with the same breakpoints)."""
        i, powers = located
        c = self.c.take(i, axis=1)[len(self.c) - 1 - nu::-1]    # powers nu, nu + 1, ...
        val = c[0] * np.prod(np.arange(1, nu + 1)) if nu else c[0]
        for p in range(1, len(c)):
            term = c[p] * powers[p - 1]
            val = val + (term * np.prod(np.arange(p + 1, p + nu + 1)) if nu else term)
        return val

    def __call__(self, x, nu=0):
        return self.at(self.locate(x), nu)

    def antiderivative(self):
        """The antiderivative that is 0 at x[0].  Each piece starts at the value
        of the one before at their breakpoint, so the pieces' constants are one
        running sum over their non-constant terms there."""
        k = len(self.c)
        c = np.vstack([self.c / np.arange(k, 0, -1)[:, None], np.zeros(self.c.shape[1])])
        powers = list(accumulate([np.diff(self.x)[:-1]] * k, np.multiply))
        terms = np.stack([c[-2 - p, :-1] * powers[p] for p in range(k)], axis=1)
        c[-1, 1:] = np.cumsum(terms)[k - 1::k]
        return _Piecewise(c, self.x)


def _spline(x, y):
    """The not-a-knot cubic spline through (x, y) (de Boor 1978), built as
    scipy's ``CubicSpline`` builds it: the slopes at the knots from one
    tridiagonal solve, or the line through 2 points, the parabola through 3."""
    from scipy.linalg.lapack import dgtsv

    dx = np.diff(x)
    slope = np.diff(y) / dx
    if x.size < 4:
        bend = (slope[-1] - slope[0]) / (x[-1] - x[0])      # 0 for a line
        s = np.concatenate([slope - bend * dx, slope[-1:] + bend * dx[-1:]])
    else:
        d0, d1 = x[2] - x[0], x[-1] - x[-3]
        rhs = np.r_[((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0,
                    3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:]),
                    (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1]
        diag = np.r_[dx[1], 2 * (dx[:-1] + dx[1:]), dx[-2]]
        s = dgtsv(np.r_[dx[1:], d1], diag, np.r_[d0, dx[:-1]], rhs)[3]
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    return _Piecewise(np.array([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]]), x)


@dataclass(frozen=True)
class MetricProfile:
    """A positive, time-independent metric g(x) on an interval."""

    g: Callable
    domain: Tuple[float, float] = (-np.inf, np.inf)
    name: str = ""

    @classmethod
    def from_callable(cls, fn, domain=(-np.inf, np.inf), name="metric"):
        return cls(g=lambda x: np.asarray(fn(np.asarray(x, dtype=float)),
                                          dtype=float),
                   domain=(float(domain[0]), float(domain[1])), name=name)

    @classmethod
    def constant(cls, value):
        value = float(value)
        if value <= 0:
            raise SingularMetric("constant metric must be positive")
        return cls(g=lambda x: np.full_like(np.asarray(x, dtype=float), value))

    @classmethod
    def from_samples(cls, x, g):
        """The not-a-knot cubic spline through monotone samples (the CSV
        interchange format): a line through 2 rows, a parabola through 3."""
        x = np.asarray(x, dtype=float)
        g = np.asarray(g, dtype=float)
        if np.any(g <= 0):
            raise SingularMetric("metric samples must be positive")
        if x.size < 2 or not (np.all(np.diff(x) > 0) and np.all(np.isfinite(np.append(x, g)))):
            raise ValueError("metric samples need two or more finite rows, x increasing")
        return cls(g=_spline(x, g), domain=(float(x[0]), float(x[-1])))

    def check_positive(self, x):
        """g(x), the one way a metric is sampled: DomainBlowup at a point outside
        ``domain`` (no extrapolation), SingularMetric where g is not positive and finite."""
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        _check((x >= lo) & (x <= hi), f"metric sampled outside its domain [{lo:g}, {hi:g}]")
        vals = np.asarray(self.g(x), dtype=float)
        if np.any(vals <= 0) or np.any(~np.isfinite(vals)):
            raise SingularMetric("metric must be positive and finite")
        return vals


def metric_from_generator(gen, eps):
    """Metric produced by the (f, eps) point transform: g = w^(-2) = (phi')^2."""
    def g(x):
        ev = flow_evaluate(gen, eps, x, with_jacobian=False)
        return np.asarray(ev.f2, dtype=float) ** -2.0

    return MetricProfile(g=g, domain=gen.flow_domain(eps))


def curved_hamiltonian(metric, m, grid):
    """The operator (1/2m) g^(-1/4) p g^(-1/2) p g^(-1/4) on the grid, as an apply.

    Returns a function taking grid values to H_g psi, with p applied
    spectrally (``apply_weighted_kinetic`` with w = g^(-1/2)); it reduces to
    the flat kinetic term when g = 1.  Crank-Nicolson integrates its
    three-point form, ``propagators.curved_kinetic_diagonals``.
    """
    w = metric.check_positive(grid.x) ** -0.5
    return lambda values: apply_weighted_kinetic(values, grid, w, float(m))


# -- inverse problem -----------------------------------------------------------

class FlowTable:
    """Monotone flow map phi = C + int sqrt(g) on one cubic spline of sqrt(g).

    phi is ``proper``, the exact antiderivative of the spline ``sqrt_g`` (a
    ``_Piecewise`` quartic on the same breakpoints, ``at_knots`` its values
    there), shifted by ``offset``, so ``derivative`` is the spline itself and
    ``with_slope`` reads phi and phi' from one lookup of the piece.  The
    inverse refines a spline guess with Newton steps on the forward map
    through that same spline, so forward and inverse agree to rounding: the
    Abel construction maps its nodes with both hundreds of times, and a
    mismatch would shift the reconstructed generator's junction structure.
    """

    def __init__(self, sqrt_g, proper, at_knots, offset):
        self._sqrt_g = sqrt_g
        self._phi = proper
        self._offset = float(offset)
        xs = sqrt_g.x
        phis = at_knots + self._offset
        if np.any(np.diff(phis) <= 0):
            raise NonMonotoneFlow("tabulated flow map is not strictly increasing")
        self._inv = _spline(phis, xs)
        self.x_range = (float(xs[0]), float(xs[-1]))
        self.phi_range = (float(phis[0]), float(phis[-1]))

    def __call__(self, x):
        return self._phi(x) + self._offset

    def with_slope(self, x):
        """(phi(x), phi'(x)), through one search for the pieces of x."""
        located = self._phi.locate(x)
        return self._phi.at(located) + self._offset, self._sqrt_g.at(located)

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        x = np.clip(self._inv(y), self.x_range[0], self.x_range[1])
        for _ in range(3):
            phi, slope = self.with_slope(x)
            x = x - (phi - y) / slope
        return x

    def derivative(self, x, order=1):
        """phi^(order)(x); order 1 is sqrt(g(x)), the tabulating spline."""
        return self._sqrt_g(x, order - 1)


@dataclass
class ReconstructedGenerator:
    """Output of ``generator_from_metric``: the flow map and one generator for it.

    The generator is a C^2 cubic spline of one sign, so its flow map and
    its conjugation factor are meaningful, and the flow map's slope is the
    reciprocal of the conjugation factor.
    """

    generator: GeneratorSpec
    flow: FlowTable


def _extend_domain(working, metric_domain):
    lo, hi = working
    span = hi - lo
    margin = 0.02 * span        # keep clear of metric singularities
    elo = max(metric_domain[0] + margin, lo - 1.5 * span)
    ehi = min(metric_domain[1] - margin, hi + 1.5 * span)
    return min(elo, lo), max(ehi, hi)


def generator_from_metric(metric, eps, anchor, working_interval):
    """Find a generator whose eps-flow reproduces the metric g = (phi')^2.

    phi(x) = phi(anchor) + int_anchor^x sqrt(g), with phi(anchor) the
    minimal fixed-point-free displacement on the working interval stretched
    1.5x on both sides (clipped to the metric's domain).  Where that would
    put a fixed point strictly inside the extension, or the metric is flat,
    the displacement is bumped by ``MIN_DISPLACEMENT`` of the working span;
    the round-tripped metric does not depend on this choice.  Returns a
    :class:`ReconstructedGenerator` whose Custom ``generator``, tabulated by
    the Abel construction, reproduces ``flow`` (and hence g) to the flow
    solver's tolerance.  An eps or interval end that is not finite, eps = 0,
    an empty interval or an anchor outside it raise ``ValueError``.
    """
    eps = float(eps)
    lo, hi = float(working_interval[0]), float(working_interval[1])
    if not np.all(np.isfinite([eps, lo, hi])):
        raise ValueError("eps and the working interval must be finite")
    if eps == 0.0:
        raise ValueError("eps must be nonzero to embed a map into a flow")
    if not lo < hi:
        raise ValueError("working interval must be nonempty")
    anchor = float(anchor)
    if not lo <= anchor <= hi:
        raise ValueError("anchor must lie in the working interval")
    elo, ehi = _extend_domain((lo, hi), metric.domain)

    # cumulative proper length P(x) = int_anchor^x sqrt(g), exact on the spline
    xs = np.linspace(elo, ehi, TABLE_SAMPLES)
    sqrt_g = _spline(xs, np.sqrt(metric.check_positive(xs)))
    proper = sqrt_g.antiderivative()
    at_knots = proper(xs)
    p_anchor = float(proper(anchor))
    pvals = at_knots - p_anchor

    # choose phi(anchor): smallest displacement without an interior fixed point
    disp_fn = xs - pvals        # phi_C(x) - x = C - (x - P(x))
    if eps > 0:
        c_border = float(np.max(disp_fn))
        extremum = xs[np.argmax(disp_fn)]
    else:
        c_border = float(np.min(disp_fn))
        extremum = xs[np.argmin(disp_fn)]
    degenerate = np.ptp(disp_fn) <= 1e-10 * (1.0 + np.max(np.abs(disp_fn)))
    at_outer_edge = ((np.isclose(extremum, elo) or np.isclose(extremum, ehi))
                     and not lo <= extremum <= hi)
    if at_outer_edge and not degenerate:
        bump = 0.0               # borderline member: fixed point beyond the extension
    else:
        bump = np.copysign(MIN_DISPLACEMENT * (hi - lo), eps)
    c_val = c_border + bump     # = phi(anchor), since P(anchor) = 0

    phis = c_val + pvals
    gap = (phis - xs) if eps > 0 else (xs - phis)
    if np.any(gap[(xs >= lo) & (xs <= hi)] <= 0):
        raise FixedPointInInterval(
            "flow map has a fixed point inside the working interval")

    flow = FlowTable(sqrt_g, proper, at_knots, c_val - p_anchor)
    gen = _abel_generator(flow, eps, anchor, (lo, hi), (elo, ehi))
    return ReconstructedGenerator(generator=gen, flow=flow)


def _log_seed(flow, anchor, eps):
    """The Abel seed: l = log|f| on the fundamental domain, and sign(f).

    f(phi(x)) = f(x) phi'(x) reads l(phi(x)) = l(x) + psi(x) with
    psi = log phi'.  l is the quintic Hermite polynomial between a = anchor
    and b = phi(a) whose value, slope and curvature at b continue those of
    l + psi at a, so the recursion extends it to a C^2 function:

        l(b) = l(a) + psi(a)
        l'(b) phi' = l'(a) + psi'(a)
        l''(b) phi'^2 + l'(b) phi'' = l''(a) + psi''(a)

    with phi' and phi'' taken at a.  The free end data l'(a) and l''(a)
    minimise the integral of (l''')^2 (least squares on Gauss-Legendre
    points, exact for a quintic), and the additive constant makes the
    integral of 1/f from a to b equal eps, so that u = int 1/f satisfies
    the Abel equation u(phi(x)) = u(x) + eps.  A flat metric gives a
    constant f; an exp-decay metric gives a linear l, so f = e^(-x) is
    recovered.
    """
    a = float(anchor)
    b = float(flow(a))
    d1, d2, d3 = (float(flow.derivative(a, k)) for k in (1, 2, 3))
    psi = (np.log(d1), d2 / d1, d3 / d1 - (d2 / d1) ** 2)
    # end data (value, slope, curvature), affine in (1, l'(a), l''(a))
    at_a = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    slope_b = np.array([psi[1], 1.0, 0.0]) / d1
    curve_b = (np.array([psi[2], 0.0, 1.0]) - d2 * slope_b) / d1 ** 2
    at_b = np.array([[psi[0], 0.0, 0.0], slope_b, curve_b])
    lo, hi = min(a, b), max(a, b)
    ends = (at_a, at_b) if b > a else (at_b, at_a)

    def hermite(coef):
        """The quintic on [lo, hi] with these end data (Hermite, in powers of x - lo)."""
        (v0, s0, k0), (v1, s1, k1), h = ends[0] @ coef, ends[1] @ coef, hi - lo
        # the (x - lo)^3 .. ^5 terms make up what the quadratic at lo misses at hi
        gaps = [v1 - v0 - h * (s0 + 0.5 * h * k0), h * (s1 - s0 - h * k0), h * h * (k1 - k0)]
        top = np.array([[6, -3, 0.5], [-15, 7, -1], [10, -4, 0.5]]) @ gaps / h ** np.arange(5, 2, -1)
        return _Piecewise(np.append(top, [0.5 * k0, s0, v0])[:, None], np.array([lo, hi]))

    nodes, weights = _gauss(16)
    xq = lo + (hi - lo) * nodes
    wq = (hi - lo) * weights
    third = np.array([hermite(col)(xq, 3) for col in np.eye(3)]) * np.sqrt(wq)
    free = np.linalg.lstsq(third[1:].T, -third[0], rcond=None)[0]
    ell = hermite(np.concatenate([[1.0], free]))
    ell.c[-1] += np.log(np.dot(wq, np.exp(-ell(xq))) / abs(eps))
    return ell, np.sign((b - a) / eps)


def _spread(x):
    """Indices of the increasing points x that a walk from the first keeps when
    it steps to the farthest point within NODE_SPACING, or to the next one
    where none is: the last point is kept, and neighbours end up at most
    NODE_SPACING apart where the points allow."""
    far = x.searchsorted(x + NODE_SPACING, "right").tolist()
    kept = [0]
    while kept[-1] < x.size - 1:
        kept.append(max(far[kept[-1]] - 1, kept[-1] + 1))
    return kept


def _abel_generator(flow, eps, anchor, working, extended):
    """Generator construction through the Abel recursion.

    log|f| is the C^2 seed of ``_log_seed`` on the fundamental domain
    between anchor and phi(anchor); f o phi = f * phi' carries it to the
    rest of the line, and f is compiled into one cubic spline.  Its nodes
    are orbit images of one seed set strictly inside the fundamental
    domain: each sweep maps the set one piece further with phi or its
    inverse, one map call, and adds log phi' (a sqrt(g) value) to each
    image's log|f|; where the pieces shrink, ``_spread`` keeps the images
    moved on and the nodes about NODE_SPACING apart.  Every gap wider than
    ``NODE_SPACING`` (where the pieces stretch, and to the domain ends) is
    filled with evenly spaced nodes moved into the fundamental domain one
    piece per step.
    """
    a = float(anchor)
    fa = float(flow(a))
    lo_dom, hi_dom = min(a, fa), max(a, fa)
    upward = fa > a
    elo, ehi = extended
    lo, hi = working

    # Evaluation domain of the returned generator: must cover the working
    # interval, its flow image, and the flow solver's panels past it.  Ahead
    # of the flow the domain may exceed the metric table by one displacement
    # (a single pullback re-enters the table) but never past the table's
    # image under the flow; when that cap binds, the borderline seed has an
    # attracting fixed point at the table's edge where the pieces shrink
    # geometrically, so stop halfway between the deepest trajectory and the
    # fixed point.
    span = hi - lo
    pad = 0.1 * span
    if upward:
        dlo = max(elo, min(lo, lo_dom) - pad)
        top = max(hi, float(flow(hi)), hi_dom)
        cap = float(flow(ehi))
        dhi = top + pad if top + pad <= cap else 0.5 * (top + cap)
    else:
        dhi = min(ehi, max(hi, hi_dom) + pad)
        bottom = min(lo, float(flow(lo)), lo_dom)
        cap = float(flow(elo))
        dlo = bottom - pad if bottom - pad >= cap else 0.5 * (bottom + cap)

    ell, sign = _log_seed(flow, a, eps)
    count = max(7, int(np.ceil((hi_dom - lo_dom) / NODE_SPACING)) + 1)
    seeds = np.linspace(lo_dom, hi_dom, count + 2)[1:-1]

    def push(x, logf):
        phi, slope = flow.with_slope(x)
        return phi, logf + np.log(slope)

    def pull(x, logf):
        prev = flow.inverse(x)
        return prev, logf - np.log(flow.derivative(prev))

    # A step applies on its table only.  The images move monotonically away
    # from the seeds, so an image past dlo or dhi is not moved on.  Of more
    # than two images, only those ``_spread`` keeps are moved on: the first
    # and last stay, so the sweeps end where they would with every image,
    # and where the pieces shrink the next images stay at most NODE_SPACING
    # apart.  The nodes are the images ``_spread`` keeps of the whole orbit.
    sweeps, sides = 0, []
    for step, (t_lo, t_hi) in ((push, flow.x_range), (pull, flow.phi_range)):
        side = [np.array([seeds, ell(seeds)])]
        orbit = side[0]
        while True:
            live = (orbit[0] > max(dlo, t_lo)) & (orbit[0] < min(dhi, t_hi))
            if not live.any():
                break
            sweeps += 1
            if sweeps > MAX_JUNCTIONS:
                raise FixedPointInInterval(
                    "anchor orbit does not traverse the domain (displacement too small)")
            orbit = np.array(step(*orbit.compress(live, axis=1)))
            side.append(orbit.compress((orbit[0] > dlo) & (orbit[0] < dhi), axis=1))
            orbit = side[-1]
            orbit = orbit.take(_spread(orbit[0]), axis=1) if orbit.shape[1] > 2 else orbit
        sides.append(side)
    down, up = sides[::-1] if upward else sides
    orbits = np.concatenate(down[::-1] + up[1:], axis=1)
    images, logs = orbits[:, _spread(orbits[0])]

    def transport_log(x):
        """(y, L): y in the fundamental domain with log|f(x)| = log|f(y)| - L.

        A point moves toward the domain only and stops once it crosses the
        near end, so a point on a junction cannot bounce between phi and its
        inverse.
        """
        cur, logmul = np.array(x, dtype=float), np.zeros(np.shape(x))
        above, below = cur >= hi_dom, cur < lo_dom
        for _ in range(sweeps + 4):
            above &= cur >= hi_dom
            below &= cur < lo_dom
            if not np.any(above | below):
                return cur, logmul
            for move, step in ((above, pull if upward else push),
                               (below, push if upward else pull)):
                if np.any(move):
                    cur[move], logmul[move] = step(cur[move], logmul[move])
        raise FixedPointInInterval(
            "Abel recursion did not reach the fundamental domain")

    edges = np.concatenate([[dlo], images, [dhi]])
    gaps = np.diff(edges)
    wide = np.flatnonzero(gaps > NODE_SPACING)
    per_gap = np.ceil(gaps[wide] / NODE_SPACING).astype(int) - 1
    at = np.repeat(wide, per_gap)          # the gap of each fill node
    rank = np.arange(at.size) + 1 - np.repeat(np.cumsum(per_gap) - per_gap, per_gap)
    fill = edges[at] + gaps[at] * rank / np.repeat(per_gap + 1, per_gap)
    nodes = np.insert(images, at, fill)
    if np.any(np.diff(nodes) <= 0):
        raise NonMonotoneFlow("Abel spline nodes are not strictly increasing")
    y, logmul = transport_log(fill)
    spline = _spline(nodes, sign * np.exp(np.insert(logs, at, ell(y) - logmul)))
    return GeneratorSpec.custom(spline, domain=(float(dlo), float(dhi)))


# -- dynamic equivalence check ---------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    """Curved vs conjugated free evolution, with the curved final state."""

    fidelity: float
    curved_norm_drift: float
    curved_final: WaveFunction


def verify_metric_equivalence(gen, eps, psi0, t_final, *, m=1.0, dt=1e-3):
    """Check exp(-i H_g t) psi0 = U exp(-i H_free t) U^dag psi0 numerically.

    Valid for constant eps only (a time-dependent eps adds a -(deps/2){f,p}
    drive, checked through the Hamiltonian transforms instead).  The curved
    side runs Crank-Nicolson with g = w^(-2) in steps of about ``dt``, which
    must be positive and finite (``uniform_time_grid``); the flat side the
    exact spectral free step between the two point unitaries.

    An incomplete flow (e.g. f = e^(-x)) ends the curved line at a finite
    proper distance, which both pictures resolve as a low-amplitude pile-up
    (relative amplitude about 1e-3 in the shipped scenarios, mass about
    1e-7).  So the point unitaries run at ``EQUIVALENCE_LEAK_TOL`` = 1e-3
    and transport or truncate those matched tails rather than reject them;
    the truncated mass, not the amplitude, bounds the fidelity impact, orders
    of magnitude below the 1e-4 scale the equivalence is checked at.
    """
    metric = metric_from_generator(gen, eps)
    curved = crank_nicolson_curved(metric, m, psi0, uniform_time_grid(t_final, dt))

    staged = apply_point_unitary(gen, -eps, psi0, leak_tol=EQUIVALENCE_LEAK_TOL)
    flown = free_propagate(staged, t_final, m=m)
    flat_side = apply_point_unitary(gen, eps, flown, leak_tol=EQUIVALENCE_LEAK_TOL)

    fid = curved.final.fidelity(flat_side)
    return EquivalenceReport(fidelity=float(fid),
                             curved_norm_drift=curved.report.max_norm_drift,
                             curved_final=curved.final)
