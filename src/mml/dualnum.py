"""Dual-number scalars a + b*eps with eps**2 = 0.

The value part carries the ordinary number, the eps part its first-order
deformation; products obey the Leibniz rule by construction.  Both parts
are double-precision floats.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True, slots=True)
class DualScalar:
    """One element a + b*eps of R[eps]/(eps^2)."""

    re: float
    inf: float = 0.0

    def __add__(self, other):
        other = _coerce(other)
        return DualScalar(self.re + other.re, self.inf + other.inf)

    __radd__ = __add__

    def __neg__(self):
        return DualScalar(-self.re, -self.inf)

    def __sub__(self, other):
        other = _coerce(other)
        return DualScalar(self.re - other.re, self.inf - other.inf)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return DualScalar(self.re * other.re,
                          self.re * other.inf + self.inf * other.re)

    __rmul__ = __mul__

    def __repr__(self):
        return f"({self.re} + {self.inf}e)"


def _coerce(x) -> DualScalar:
    if isinstance(x, DualScalar):
        return x
    return DualScalar(float(x), 0.0)


def dual_mul(x: DualScalar, y: DualScalar) -> DualScalar:
    """(a+be)(c+de) = ac + (ad+bc)e."""
    return _coerce(x) * _coerce(y)

