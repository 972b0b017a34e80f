"""First-order jets: a value plus its partials over a parameter block.

Arithmetic propagates derivatives by the chain rule, so any function built
from these operations yields exact analytic partials.  Floats and arrays mix
in as constants.  Partials are laid out (n,) + value.shape, or (n, 1) for a
float value.  A leading component axis stacks a vector: the quaternions of B
observations are one jet with value (4, B) and partials (n, 4, B), and
indexing acts on both alike.  A jet times -1.0 is not an exact negation (its
partials get value * 0 added); `signed` negates value and partials alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class Jet:
    value: float | np.ndarray
    partials: np.ndarray

    __array_ufunc__ = None  # numpy operators defer to the reflected Jet operators

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.value[index], self.partials[(slice(None), *index)])

    def take(self, indices, axis=0):  # ndarray.take, for a permutation of components in generic code
        return Jet(self.value.take(indices, axis), self.partials.take(indices, axis + 1))

    def __add__(self, other):
        v, p = _split(other)
        return Jet(self.value + v, self.partials + p)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.value, -self.partials)

    def __sub__(self, other):
        v, p = _split(other)
        return Jet(self.value - v, self.partials - p)

    def __rsub__(self, other):
        v, p = _split(other)
        return Jet(v - self.value, p - self.partials)

    def __mul__(self, other):
        v, p = _split(other)
        return Jet(self.value * v, self.value * p + v * self.partials)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _divide(self.value, self.partials, *_split(other))

    def __rtruediv__(self, other):
        return _divide(*_split(other), self.value, self.partials)

    # comparisons act on values only, so branch conditions work transparently
    def __lt__(self, other):
        return self.value < _value(other)

    def __le__(self, other):
        return self.value <= _value(other)

    def __gt__(self, other):
        return self.value > _value(other)

    def __ge__(self, other):
        return self.value >= _value(other)


def _split(x):
    """Value and partials of a jet.  A constant's partials are zero: the scalar 0.0
    for a number, so no array is made; for an array, zeros of its shape, so
    that a float jet's (n, 1) partials broadcast to the (n, B) of an array jet."""
    if isinstance(x, Jet):
        return x.value, x.partials
    return x, np.zeros(x.shape) if isinstance(x, np.ndarray) else 0.0


def _divide(a, da, b, db) -> Jet:
    if np.count_nonzero(b == 0.0):  # np.any costs ~5x more on a float
        raise ZeroDivisionError("jet division by zero value")
    inv = 1.0 / b
    quotient = a * inv
    return Jet(quotient, (da - quotient * db) * inv)


def _value(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def variables(values: np.ndarray) -> Jet:
    """One stacked jet of n components, `values` of shape (n,) or (n, B), seeded with identity partials."""
    return Jet(values, np.multiply.outer(np.eye(len(values)), np.ones(values.shape[1:])))


def concatenate(parts):
    """Jets, or constants, joined along the component axis."""
    if isinstance(parts[0], Jet):
        return Jet(np.concatenate([x.value for x in parts]), np.concatenate([x.partials for x in parts], axis=1))
    return np.concatenate(parts)


def signed(x, signs):
    """x times +-1 per leading component (`signs` spans x's leading axes), value and partials alike."""
    value = x.value if isinstance(x, Jet) else x
    signs = signs.reshape(signs.shape + (1,) * (value.ndim - signs.ndim))
    return Jet(value * signs, x.partials * signs) if isinstance(x, Jet) else value * signs


def sqrt(x):
    if isinstance(x, Jet):
        root = np.sqrt(x.value)
        if np.count_nonzero(root == 0.0):
            raise ZeroDivisionError("jet sqrt at zero has no derivative")
        return Jet(root, x.partials / (2.0 * root))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _libm(f, x):  # per element for an array: numpy's vectorized sin and cos may round differently
    return np.array([f(v) for v in x.ravel().tolist()]).reshape(x.shape) if isinstance(x, np.ndarray) else f(x)


def sin(x):
    if isinstance(x, Jet):
        return Jet(_libm(math.sin, x.value), _libm(math.cos, x.value) * x.partials)
    return _libm(math.sin, x)


def cos(x):
    if isinstance(x, Jet):
        return Jet(_libm(math.cos, x.value), -_libm(math.sin, x.value) * x.partials)
    return _libm(math.cos, x)


def where(cond, a, b):
    """a where cond holds and b elsewhere: per element for an array cond, whole for a scalar one."""
    if np.ndim(cond) == 0:
        return a if cond else b
    if isinstance(a, Jet) or isinstance(b, Jet):
        return Jet(*(np.where(cond, x, y) for x, y in zip(_split(a), _split(b))))  # value, then partials
    return np.where(cond, a, b)
