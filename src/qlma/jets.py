"""First-order jets: a value plus its partials over a parameter block.

Arithmetic propagates derivatives by the chain rule, so any function built
from these operations yields exact analytic partials.  Plain floats mix in
as constants.  A value is a float, with partials of shape (n, 1), or an
array of shape (B,), with partials (n, B): B jets evaluated elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Jet:
    value: float | np.ndarray
    partials: np.ndarray

    def _coerce(self, other) -> "Jet":
        if isinstance(other, Jet):
            return other
        return Jet(float(other), np.zeros_like(self.partials))

    def __add__(self, other):
        o = self._coerce(other)
        return Jet(self.value + o.value, self.partials + o.partials)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.partials)

    def __sub__(self, other):
        o = self._coerce(other)
        return Jet(self.value - o.value, self.partials - o.partials)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        return Jet(self.value * o.value, self.value * o.partials + o.value * self.partials)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if np.any(o.value == 0.0):
            raise ZeroDivisionError("jet division by zero value")
        inv = 1.0 / o.value
        return Jet(self.value * inv, (self.partials - self.value * inv * o.partials) * inv)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    # comparisons act on values only, so branch conditions work transparently
    def __lt__(self, other):
        return self.value < _value(other)

    def __le__(self, other):
        return self.value <= _value(other)

    def __gt__(self, other):
        return self.value > _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)


def _value(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def variables(values) -> list[Jet]:
    """Seed one jet per entry with identity partials; an array entry seeds an array jet."""
    eye = np.eye(len(values))
    return [Jet(float(v) if np.ndim(v) == 0 else v, eye[:, [i]] * np.ones(np.size(v))) for i, v in enumerate(values)]


def sqrt(x):
    if isinstance(x, Jet):
        root = np.sqrt(x.value)
        if np.any(root == 0.0):
            raise ZeroDivisionError("jet sqrt at zero has no derivative")
        return Jet(root, x.partials / (2.0 * root))
    return math.sqrt(x)


def sin(x):
    if isinstance(x, Jet):
        return Jet(math.sin(x.value), math.cos(x.value) * x.partials)
    return math.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return Jet(math.cos(x.value), -math.sin(x.value) * x.partials)
    return math.cos(x)
