"""A fixed reference computation that measures how fast the machine runs
right now, independent of qlma.

On a shared machine the speed of the same code drifts by tens of percent
over tens of seconds.  Timing this kernel next to each batch gives a speed
factor that the end-to-end times are scaled by, so that the drift cancels
while any change to qlma's own speed shows in full.  The kernel mixes the
two kinds of work qlma does: scalar Python arithmetic on small objects
(like the jets) and small dense numpy operations (like the HHL solver and
the statevector simulator).  Never change it: that would change every
scaled metric.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.030  # the kernel's time on an idle 2-CPU Xeon VM, numpy 2.4, 1 BLAS thread


class _Dual:
    __slots__ = ("value", "partials")

    def __init__(self, value, partials):
        self.value = value
        self.partials = partials

    def __add__(self, other):
        return _Dual(self.value + other.value, [a + b for a, b in zip(self.partials, other.partials)])

    def __mul__(self, other):
        return _Dual(
            self.value * other.value,
            [a * other.value + b * self.value for a, b in zip(self.partials, other.partials)],
        )


def reference_seconds() -> float:
    """Wall time of one pass of the reference kernel."""
    rng = np.random.default_rng(0)
    matrix = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
    amps = rng.normal(size=8192) + 0j
    index = np.arange(8192)
    started = time.perf_counter()
    x = _Dual(1.0001, [1.0] * 9)
    for _ in range(3000):
        x = x * x + x
        scale = abs(x.value) + 1.0
        x = _Dual(x.value / scale, [p / scale for p in x.partials])
    for _ in range(150):
        product = matrix @ matrix
        product /= np.linalg.norm(product)
        low = index[((index >> 3) & 1) == 0]
        out = amps.copy()
        out[low] = 0.6 * amps[low] + 0.8 * amps[low | 8]
    return time.perf_counter() - started


def sample() -> list[float]:
    return [reference_seconds() for _ in range(3)]


def speed_factor(samples: list[float]) -> float:
    """Measured over nominal kernel time (median of the samples): above 1
    when the machine runs slow."""
    return (sorted(samples)[len(samples) // 2]) / NOMINAL_S
