"""The oscillator reference against a direct integration of the moment equations.

Run with ``python3 -m pytest perfbench/test_reference.py``.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from reference import DampedOscillator, gaussian_moments


def moment_ode(osc):
    """d<z>/dt = A <z>, dC/dt = A C + C A^T with A = [[0, 1/m], [-m w^2, 0]]."""
    def rhs(t, y):
        m = osc.mass(t)
        a = np.array([[0.0, 1.0 / m], [-m * osc.omega ** 2, 0.0]])
        mean, cov = y[:2], y[2:].reshape(2, 2)
        return np.concatenate([a @ mean, (a @ cov + cov @ a.T).ravel()])
    return rhs


@pytest.mark.parametrize("m0, gamma, omega", [(1.0, 0.2, np.sqrt(1.01)),
                                              (2.5, 0.7, 1.3),
                                              (0.6, 0.0, 0.8)])
@pytest.mark.parametrize("width, center, momentum", [(1.0, 1.0, 0.0),
                                                     (0.8 - 0.25j, -1.2, 0.7)])
def test_moments_match_integrated_moment_equations(m0, gamma, omega, width,
                                                   center, momentum):
    osc = DampedOscillator(m0, gamma, omega)
    mean0, cov0 = gaussian_moments(width, center, momentum)
    times = np.linspace(0.0, 5.0, 21)
    sol = solve_ivp(moment_ode(osc), (0.0, 5.0),
                    np.concatenate([mean0, cov0.ravel()]), method="DOP853",
                    t_eval=times, rtol=1e-12, atol=1e-14)
    assert sol.status == 0
    for k, t in enumerate(times):
        mean, cov = sol.y[:2, k], sol.y[2:, k].reshape(2, 2)
        m = osc.mass(t)
        energy = ((cov[1, 1] + mean[1] ** 2) / (2.0 * m)
                  + 0.5 * m * omega ** 2 * (cov[0, 0] + mean[0] ** 2))
        x_ref, p_ref, e_ref = osc.moments(mean0, cov0, t)
        assert x_ref == pytest.approx(mean[0], abs=1e-10)
        assert p_ref == pytest.approx(mean[1], abs=1e-10)
        assert e_ref == pytest.approx(energy, rel=1e-10)


def test_propagator_is_symplectic():
    osc = DampedOscillator(1.0, 0.2, np.sqrt(1.01))
    for t in (0.0, 0.7, 3.1, 5.0):
        assert np.linalg.det(osc.propagator(t)) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(osc.propagator(0.0), np.eye(2), atol=1e-15)


def test_gaussian_moments_match_quadrature():
    width, center, momentum = 0.9 - 0.3j, 0.4, -0.6
    x = np.linspace(-15.0, 15.0, 4096, endpoint=False)
    dx = x[1] - x[0]
    u = x - center
    psi = np.exp(-0.5 * width * u * u + 1j * momentum * u)
    psi /= np.sqrt(dx * np.sum(np.abs(psi) ** 2))
    k = 2.0 * np.pi * np.fft.fftfreq(x.size, d=dx)
    ppsi = np.fft.ifft(k * np.fft.fft(psi))
    mean_x = dx * np.sum(x * np.abs(psi) ** 2)
    mean_p = (dx * np.vdot(psi, ppsi)).real
    var_x = dx * np.sum((x - mean_x) ** 2 * np.abs(psi) ** 2)
    var_p = (dx * np.vdot(ppsi, ppsi)).real - mean_p ** 2
    cov = (dx * np.vdot(psi, (x - mean_x) * ppsi)).real
    mean, sigma = gaussian_moments(width, center, momentum)
    assert np.allclose(mean, [mean_x, mean_p], atol=1e-10)
    assert np.allclose(sigma, [[var_x, cov], [cov, var_p]], atol=1e-10)
