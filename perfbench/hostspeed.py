"""Host speed sampled while a span runs, to scale the span to a reference speed.

The reference machine's CPUs alternate between a fast phase and phases
1.5–1.9× slower that last from a fraction of a second to tens of seconds,
and the same instructions take that much longer in them (see README.md,
"Host noise").  Sampling the host only between operations does not follow
phases shorter than an operation, so ``HostSpeed`` samples it during one:
a SIGALRM handler runs a fixed kernel every ``INTERVAL_S`` and records how
long it took.  The kernel is about 1.5 ms of the work canonflow's hot loops
do: a small resampler (complex exponential of an outer product and a
mat-vec) and four split steps on a 2048-point grid (FFTs and kinetic phases,
as numpy calls on short arrays).  ``scale`` turns a span's wall time into
the time it would have taken where the kernel takes ``REF_KERNEL_S``: the
handler's own time is taken off first, and the rest is multiplied by
``REF_KERNEL_S`` over the mean kernel time during the span.

Python runs the handler between bytecodes, so a long C call (a large
mat-vec, an eigensolve) delays the next sample until it returns; the
samples still cover the span, at a coarser spacing there.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.025
REF_KERNEL_S = 1e-3     # near the kernel's fast-phase time on the reference machine

_N, _ROWS = 2048, 8


class HostSpeed:
    """Context manager: samples the kernel on a timer while its block runs."""

    def __init__(self):
        k = np.fft.fftfreq(_N, d=24.0 / _N) * 2.0 * np.pi
        self._k = k
        self._points = np.linspace(-3.0, 3.0, _ROWS)
        self._coeff = np.exp(-0.5 * (k / 4.0) ** 2).astype(complex)
        self._kick = np.exp(-0.5j * 1e-3 * k ** 2)
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def kernel(self):
        phases = np.exp(1j * np.outer(self._points, self._k))
        values = phases @ self._coeff
        psi = self._coeff
        for _ in range(4):
            half = np.exp(-0.25j * 1e-3 * self._k ** 2)
            psi = np.fft.ifft(half * np.fft.fft(psi * self._kick) * half)
        return values, psi

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.handler_s += time.perf_counter() - start

    def __enter__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:        # a span shorter than one interval
            self._sample()
            self.handler_s = 0.0
        return False

    def mean_kernel_s(self):
        return float(np.mean(self.samples))

    def scale(self, wall):
        """``wall`` seconds of the sampled span, at reference host speed."""
        return (wall - self.handler_s) * REF_KERNEL_S / self.mean_kernel_s()
