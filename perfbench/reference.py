"""References the benchmark computes apart from canonflow.

Nothing here imports canonflow.  The oscillator reference is the classical
phase-space propagator of x'' + gamma x' + omega^2 x = 0, which is exact for
the first and second moments of any state under a quadratic Hamiltonian
(Ehrenfest's equations close).  The curved-metric references are the closed
forms of the f = e^(-x) flow at a fixed eps.
"""

from __future__ import annotations

import math

import numpy as np


def gaussian_moments(width, center, momentum):
    """Means and symmetrized covariance of exp(-a (x-c)^2/2 + i p (x-c)).

    |psi|^2 is a real Gaussian of variance 1/(2 Re a); psi' = (-a u + i p) psi
    gives Var p = |a|^2 / (2 Re a) and (1/2)<{x - c, p - p}> = -Im a / (2 Re a).
    """
    a = complex(width)
    mean = np.array([float(center), float(momentum)])
    cov = np.array([[1.0, -a.imag], [-a.imag, abs(a) ** 2]]) / (2.0 * a.real)
    return mean, cov


class DampedOscillator:
    """H = p^2/(2 m(t)) + m(t) omega^2 x^2 / 2 with m(t) = m0 e^(gamma t).

    Hamilton's equations give x'' + gamma x' + omega^2 x = 0.  Underdamped
    only (omega > gamma/2); the damped frequency is W = sqrt(omega^2 - gamma^2/4).
    """

    def __init__(self, m0, gamma, omega):
        self.m0 = float(m0)
        self.gamma = float(gamma)
        self.omega = float(omega)
        rad = self.omega ** 2 - 0.25 * self.gamma ** 2
        if rad <= 0:
            raise ValueError("reference covers the underdamped case only")
        self.w = math.sqrt(rad)

    def mass(self, t):
        return self.m0 * math.exp(self.gamma * t)

    def propagator(self, t):
        """S(t) with (x(t), p(t)) = S(t) (x(0), p(0)), p = m(t) x'."""
        decay = math.exp(-0.5 * self.gamma * t)
        c, s = math.cos(self.w * t), math.sin(self.w * t)
        h = 0.5 * self.gamma / self.w
        return np.array([
            [decay * (c + h * s), decay * s / (self.m0 * self.w)],
            [-self.m0 * self.omega ** 2 * s / (self.w * decay), (c - h * s) / decay],
        ])

    def moments(self, mean0, cov0, t):
        """<x>, <p> and the energy <p^2>/(2m) + m omega^2 <x^2>/2 at time t."""
        s = self.propagator(t)
        mean = s @ mean0
        cov = s @ cov0 @ s.T
        m = self.mass(t)
        x2 = cov[0, 0] + mean[0] ** 2
        p2 = cov[1, 1] + mean[1] ** 2
        return float(mean[0]), float(mean[1]), p2 / (2.0 * m) + 0.5 * m * self.omega ** 2 * x2


# -- the metric of f = e^(-x) at parameter eps -----------------------------------

def expdecay_flow(x, eps):
    """phi_eps(x) = ln(e^x + eps) for the generator f = e^(-x)."""
    return np.log(np.exp(x) + eps)


def expdecay_metric(x, eps):
    """g = (phi')^2 = (1 + eps e^(-x))^(-2)."""
    return (1.0 + eps * np.exp(-x)) ** -2.0
