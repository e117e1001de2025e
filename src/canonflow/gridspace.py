"""Uniform-grid wavefunctions and the unitary action of scaling transforms.

States live on a strictly uniform grid x_k = x0 + k*dx and momentum acts
spectrally (FFT with periodic wrap), so grids must be chosen large enough
that the support never reaches the boundary.  The two unitaries built here:

* point transform   (U psi)(x) = sqrt(phi'(x)) psi(phi(x)),  phi the eps-flow
  of the generator f.  This is the position representation of
  exp[i eps sqrt(f(x)) p sqrt(f(x))]; the half-density factor keeps it
  norm-preserving.
* quadratic phase   (U' psi)(x) = exp(-i chi x^2 / 2) psi(x).

Sign conventions: the maps above conjugate operators as U x U^dag = phi(x)
and U p U^dag = sqrt(w) p sqrt(w) with w = 1/phi'.  Expectation values of a
*transformed state* therefore move with the inverse map, e.g. for f(x) = x,
<x> of U psi equals e^(-eps) <x> of psi while U x U^dag = e^(+eps) x.

A point transform evaluates the flow once, as a vector, on the window of
grid points between the preimages of the grid's two ends: by monotonicity
those are exactly the points whose image lies in the grid, so none of them
escapes.  It then resamples with band-limited (trigonometric)
interpolation, evaluated at the m image points by a Gaussian-gridding
type-2 NUFFT in O(n log n + m) time and memory (``band_limited_values``);
values outside the window are only zeroed after checking
that the state carries no weight where they would read (never silent
clamping).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainBlowup, NotNormalized, SupportLeakage
from .flowcore import GeneratorSpec, bracket_generator, flow_evaluate

EDGE_FRACTION = 0.02     # outer fraction of points used by the edge-decay check
LEAK_TOL = 1e-10         # default relative amplitude threshold
NORM_TOL = 1e-6          # norm deviation ``expectation`` accepts as normalized
_OVERSAMPLE = 2          # R: band_limited_values grids on M = R*n nodes
_HALF_WIDTH = 14         # W: each point sums the Gaussian over 2W nodes


def _check_points(n):
    if n < 8:
        raise ValueError("grid needs at least 8 points")


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid x_k = x0 + k*dx, k = 0..n-1."""

    x0: float
    dx: float
    n: int

    def __post_init__(self):
        _check_points(self.n)
        if not (np.isfinite(self.xmax) and np.all(np.diff(self.x) > 0)):
            raise ValueError(f"grid x0={self.x0!r}, dx={self.dx!r}, n={self.n}: "
                             "points must be finite and strictly increasing")

    @classmethod
    def from_interval(cls, xmin, xmax, n):
        """Grid covering [xmin, xmax) with n points (endpoint excluded)."""
        _check_points(n)
        return cls(float(xmin), (float(xmax) - float(xmin)) / n, int(n))

    @cached_property
    def x(self):
        return self.x0 + self.dx * np.arange(self.n)

    @cached_property
    def k(self):
        """Angular wavenumbers matching numpy's FFT layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @property
    def xmax(self):
        return self.x0 + self.dx * (self.n - 1)


class WaveFunction:
    """Complex state on a :class:`Grid`; values immutable, norm kept once reduced."""

    def __init__(self, grid, values):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n,):
            raise ValueError("value array does not match the grid")
        values = values.copy()
        values.setflags(write=False)
        self.grid = grid
        self.values = values

    def norm(self):
        return self._norm

    @cached_property
    def _norm(self):
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))

    def normalized(self):
        nrm = self.norm()
        if nrm == 0:
            raise ValueError("cannot normalize the zero state")
        return WaveFunction(self.grid, self.values / nrm)

    def inner(self, other):
        """<self|other> with the dx measure."""
        _require_same_grid(self, other)
        return complex(self.grid.dx * np.vdot(self.values, other.values))

    def fidelity(self, other):
        """|<self|other>| with the norms divided out, clamped to at most 1."""
        ov = abs(self.inner(other))
        return min(1.0, float(ov / (self.norm() * other.norm())))

    def edge_decay_ok(self, tol=LEAK_TOL):
        m = max(1, int(round(EDGE_FRACTION * self.grid.n)))
        peak = np.max(np.abs(self.values))
        if peak == 0:
            return True
        edge = max(np.max(np.abs(self.values[:m])),
                   np.max(np.abs(self.values[-m:])))
        return bool(edge <= tol * peak)


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise ValueError("states live on different grids")


@dataclass(frozen=True)
class GaussianState:
    """Closed-form Gaussian psi(x) = N exp[-a(x-c)^2/2 + i p (x-c) + i theta].

    ``a`` is the complex width parameter (Re a > 0), N = (Re a / pi)^(1/4).
    Gaussians are closed under the dilation and quadratic-phase unitaries and
    under quadratic Hamiltonians, which makes them the analytic cross-check
    vehicle for the whole grid pipeline.
    """

    a: complex
    center: float = 0.0
    momentum: float = 0.0
    phase: float = 0.0

    def __post_init__(self):
        if not complex(self.a).real > 0:
            raise ValueError("Gaussian width parameter needs Re a > 0")

    def to_wavefunction(self, grid):
        u = grid.x - self.center
        amp = (complex(self.a).real / np.pi) ** 0.25
        # a center or momentum far beyond the grid overflows the exponent;
        # the state is then zero or NaN, which normalization rejects
        with np.errstate(over="ignore", invalid="ignore"):
            vals = amp * np.exp(-0.5 * self.a * u * u
                                + 1j * self.momentum * u + 1j * self.phase)
        return WaveFunction(grid, vals)

    # closed-form moments (|psi|^2 is a real Gaussian of variance 1/(2 Re a))
    def mean_x(self):
        return self.center

    def var_x(self):
        return 1.0 / (2.0 * complex(self.a).real)

    def mean_x2(self):
        return self.center ** 2 + self.var_x()

    def mean_p(self):
        return self.momentum

    def mean_p2(self):
        a = complex(self.a)
        return self.momentum ** 2 + abs(a) ** 2 / (2.0 * a.real)

    def cov_xp(self):
        """(1/2)<{x - <x>, p - <p>}> = -Im(a) / (2 Re a)."""
        a = complex(self.a)
        return -a.imag / (2.0 * a.real)

    # closed-form transformation rules
    def dilated(self, eps):
        """Image under the f(x)=x point transform with parameter eps.

        (U psi)(x) = e^(eps/2) psi(e^eps x):  a -> e^(2 eps) a,
        center -> e^(-eps) center, momentum -> e^(eps) momentum.
        """
        s = float(eps)
        return GaussianState(self.a * np.exp(2.0 * s),
                             self.center * np.exp(-s),
                             self.momentum * np.exp(s),
                             self.phase)

    def quadratic_phased(self, chi):
        """Image under multiplication by exp(-i chi x^2 / 2)."""
        c = float(chi)
        return GaussianState(self.a + 1j * c,
                             self.center,
                             self.momentum - c * self.center,
                             self.phase - 0.5 * c * self.center ** 2)


# -- spectral helpers ---------------------------------------------------------

def apply_momentum(values, grid, power=1):
    """(p^power psi) with p = -i d/dx, spectrally."""
    return np.fft.ifft(grid.k ** power * np.fft.fft(values))


def apply_weighted_kinetic(values, grid, w, m):
    """(1/2m) sqrt(w) p w p sqrt(w) psi, with p applied spectrally.

    This is the kinetic term of p^2/(2m) after a point transform with
    conjugation factor w, and equally the curved-metric operator
    (1/2m) g^(-1/4) p g^(-1/2) p g^(-1/4) for g = w^(-2).
    """
    root = np.sqrt(w)
    inner = w * apply_momentum(root * values, grid)
    return root * apply_momentum(inner, grid) / (2.0 * m)


def band_limited_values(psi, points):
    """Evaluate the trigonometric interpolant of psi at arbitrary points.

    The interpolant is sum_j c_j exp(i k_j (x - x0)) over numpy's FFT modes
    (the even-n Nyquist mode at -n/2).  It is evaluated as a type-2 NUFFT by
    Gaussian gridding (Dutt & Rokhlin 1993, Greengard & Lee 2004): the c_j
    are deconvolved by exp(tau j^2), zero-padded to M = R n modes and sent
    through one inverse FFT, and each point sums the periodized Gaussian
    exp(-(t - 2 pi m / M)^2 / (4 tau)), t = 2 pi (x - x0) / (n dx), over its
    2W nearest of the M nodes, with tau = pi W / (n^2 R (R - 1/2)), R = 2
    and W = 14.  Cost is O(n log n + W len(points)); the error is about
    1e-14 of sum_j |c_j|.  Points outside the grid interval are wrapped by
    the Fourier series; callers are expected to mask them beforehand.
    """
    grid = psi.grid
    n, nodes = grid.n, _OVERSAMPLE * grid.n
    tau = np.pi * _HALF_WIDTH / (n * n * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    j = np.fft.fftfreq(n, 1.0 / n)
    padded = np.zeros(nodes, dtype=complex)
    padded[j.astype(int)] = (np.fft.fft(psi.values)
                             * (np.sqrt(np.pi / tau) / n * np.exp(tau * j * j)))
    fine = np.fft.ifft(padded)
    # position in units of the node spacing, and its 2W nearest nodes
    u = (np.ravel(points) - grid.x0) * (_OVERSAMPLE / grid.dx)
    near = np.floor(u)[:, None] + np.arange(1 - _HALF_WIDTH, _HALF_WIDTH + 1)
    gauss = np.exp(-(2.0 * np.pi / nodes) ** 2 / (4.0 * tau) * (u[:, None] - near) ** 2)
    return np.sum(fine[near.astype(np.intp) % nodes] * gauss, axis=1)


# -- unitaries ----------------------------------------------------------------

def apply_point_unitary(gen, eps, psi, *, leak_tol=LEAK_TOL):
    """Apply (U psi)(x) = sqrt(phi'(x)) psi(phi(x)) on the grid.

    One-dimensional flows preserve order, so the grid points whose image
    lands in the grid are exactly those between the preimages
    phi_(-eps)(x0) and phi_(-eps)(xmax) of the grid's ends (clipped into the
    generator's domain); an end without a preimage leaves that side open.
    The map is evaluated in one vector pass over that window, so no point
    it evaluates escapes.

    Raises ``SupportLeakage`` when the input's relative edge amplitude or
    the fraction of its probability outside the image of the window (that
    mass would be lost, never silently clamped) exceeds ``leak_tol``, when
    no grid point has an image in the grid, or when the transformed support
    touches the grid edge.  Grid points outside the window are zero-filled
    only after those checks pass.
    """
    if eps == 0.0:
        return WaveFunction(psi.grid, psi.values)
    if not psi.edge_decay_ok(tol=leak_tol):
        raise SupportLeakage("input state does not satisfy edge decay; "
                             "enlarge the grid before resampling")
    grid = psi.grid
    x = grid.x

    # preimages of the grid's ends bound the points mapped into the grid
    pre = [-np.inf, np.inf]
    for side, end in enumerate(np.clip([grid.x0, grid.xmax], *gen.domain)):
        try:
            pre[side] = flow_evaluate(gen, -eps, float(end),
                                      with_jacobian=False).x_out
        except DomainBlowup:
            pass                # no preimage: that side stays open
    read = gen.in_domain(x) & (x >= pre[0]) & (x <= pre[1])
    y = np.full(grid.n, np.nan)
    jac = np.zeros(grid.n)
    if np.any(read):
        ev = flow_evaluate(gen, eps, x[read])
        y[read] = ev.x_out
        jac[read] = ev.jacobian

    in_grid = (y >= grid.x0) & (y <= grid.xmax)
    if not np.any(in_grid):
        raise SupportLeakage("flow maps the whole grid outside itself")

    # Probability mass outside the window actually read by the flow is lost;
    # refuse if the fraction is above threshold.
    ylo, yhi = np.min(y[in_grid]), np.max(y[in_grid])
    unread = (x < ylo - grid.dx) | (x > yhi + grid.dx)
    if np.any(unread):
        lost = grid.dx * float(np.sum(np.abs(psi.values[unread]) ** 2))
        if lost > leak_tol * psi.norm() ** 2:
            raise SupportLeakage(
                f"probability mass {lost:.3e} lies outside the window "
                "reachable by the flow")

    out = np.zeros(grid.n, dtype=complex)
    out[in_grid] = np.sqrt(jac[in_grid]) * band_limited_values(psi, y[in_grid])
    result = WaveFunction(grid, out)
    if not result.edge_decay_ok(tol=max(leak_tol, 1e-9)):
        raise SupportLeakage("transformed support reaches the grid edge")
    return result


def apply_quadratic_phase(chi, psi):
    """Multiply by exp(-i chi x^2 / 2); exactly norm-preserving."""
    x = psi.grid.x
    return WaveFunction(psi.grid, np.exp(-0.5j * chi * x * x) * psi.values)


# -- observables --------------------------------------------------------------

def expectation(observable, psi):
    """<psi|O|psi> for O in {x, x2, p, p2, xp_anticomm, H(a,b,c)}.

    ``observable`` is one of the strings above or an object with fields
    a, b, c meaning H = a p^2 + b x^2 + (c/2){x,p}, whose {x,p} term is
    evaluated only when c != 0.  Requires a normalized state, checked once
    per call; the (tiny) imaginary residue of each Hermitian expectation is
    checked and a warning is emitted above 1e-10.
    """
    if abs(psi.norm() - 1.0) > NORM_TOL:
        raise NotNormalized(f"state norm is {psi.norm():.6g}, expected 1")
    if isinstance(observable, str):
        return _moment(observable, psi)
    val = observable.a * _moment("p2", psi) + observable.b * _moment("x2", psi)
    if observable.c != 0:
        val += 0.5 * observable.c * _moment("xp_anticomm", psi)
    return float(val)


def _moment(name, psi):
    """Re <psi|O|psi> for the O named x, x2, p, p2 or xp_anticomm."""
    grid, v, x = psi.grid, psi.values, psi.grid.x

    def mean_of(wvals):
        return complex(grid.dx * np.vdot(v, wvals))

    if name == "x":
        val = mean_of(x * v)
    elif name == "x2":
        val = mean_of(x * x * v)
    elif name == "p":
        val = mean_of(apply_momentum(v, grid, 1))
    elif name == "p2":
        val = mean_of(apply_momentum(v, grid, 2))
    elif name == "xp_anticomm":  # (1/2)<{x,p}> + (1/2)<{p,x}> = 2 Re <x p>
        pv = apply_momentum(v, grid, 1)
        val = mean_of(x * pv) + mean_of(apply_momentum(x * v, grid, 1))
    else:
        raise ValueError(f"unknown observable {name!r}")
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        warnings.warn(f"imaginary residue {val.imag:.3e} in <{name}>",
                      stacklevel=3)
    return float(val.real)


# -- operator-identity verification -------------------------------------------

@dataclass(frozen=True)
class BracketReport:
    """Max relative residuals of the two commutator identities.

    ``multiplication_identity``:  [{f1,p}, f2]    vs  -2i f1 f2'
    ``generator_identity``:       [{f1,p},{f2,p}] vs  -i {h,p} with
    h = 2 (f1 f2' - f2 f1'), each applied to every probe state.
    """

    multiplication_identity: float
    generator_identity: float


def _anticomm_apply(fvals, dfvals, values, grid):
    """{g(x), p} psi = -i (2 g psi' + g' psi), spectrally."""
    dpsi = 1j * apply_momentum(values, grid)
    return -1j * (2.0 * fvals * dpsi + dfvals * values)


def verify_bracket_identities(f1, f2, grid, probes):
    """Numerically check both commutator identities on a set of probe states.

    Returns the maximum over probes of ||LHS psi - RHS psi|| / ||psi||,
    computed with spectral derivatives, for each identity.
    """
    x = grid.x
    f1v, df1v = f1.f(x), f1.df(x)
    f2v, df2v = f2.f(x), f2.df(x)
    hv = bracket_generator(f1, f2)(x)
    dhv = _h_derivative(f1, f2, x)

    res1 = res2 = 0.0
    for psi in probes:
        v = psi.values
        nrm = psi.norm()

        # identity 1: [{f1,p}, f2] psi = -2i f1 f2' psi
        lhs1 = (_anticomm_apply(f1v, df1v, f2v * v, grid)
                - f2v * _anticomm_apply(f1v, df1v, v, grid))
        rhs1 = -2j * f1v * df2v * v
        res1 = max(res1, _l2(lhs1 - rhs1, grid) / nrm)

        # identity 2: [{f1,p}, {f2,p}] psi = -(2 h psi' + h' psi)
        lhs2 = (_anticomm_apply(f1v, df1v,
                                _anticomm_apply(f2v, df2v, v, grid), grid)
                - _anticomm_apply(f2v, df2v,
                                  _anticomm_apply(f1v, df1v, v, grid), grid))
        rhs2 = -(2j * hv * apply_momentum(v, grid) + dhv * v)
        res2 = max(res2, _l2(lhs2 - rhs2, grid) / nrm)

    return BracketReport(float(res1), float(res2))


def _h_derivative(f1, f2, x):
    # h' = 2 (f1 f2'' - f2 f1''); second derivatives are analytic for the
    # closed-form generator kinds and finite differences otherwise.
    return 2.0 * (f1.f(x) * f2.d2f(x) - f2.f(x) * f1.d2f(x))


def _l2(values, grid):
    return float(np.sqrt(grid.dx * np.sum(np.abs(values) ** 2)))


# -- CSV interchange ----------------------------------------------------------

def wavefunction_to_csv(psi, path):
    """Write columns x,re,im in full double precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "re", "im"])
        for xi, vi in zip(psi.grid.x, psi.values):
            writer.writerow([f"{xi:.17g}", f"{vi.real:.17g}", f"{vi.imag:.17g}"])


def wavefunction_from_csv(path):
    data = np.genfromtxt(path, delimiter=",", names=True)
    x = np.atleast_1d(data["x"])
    vals = np.atleast_1d(data["re"]) + 1j * np.atleast_1d(data["im"])
    if x.size < 8:
        raise ValueError("CSV grid needs at least 8 points")
    # the spacing from the endpoints keeps the rebuilt points within a few
    # ulps of the written ones; neighbour differences drift by up to n ulps
    dx = (x[-1] - x[0]) / (x.size - 1)
    if np.max(np.abs(np.diff(x) - dx)) > 1e-9 * abs(dx):
        raise ValueError("CSV grid is not strictly uniform")
    grid = Grid(float(x[0]), float(dx), int(x.size))
    return WaveFunction(grid, vals)
