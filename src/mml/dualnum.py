"""Dual-number scalars a + b*eps with eps**2 = 0.

The value part carries the ordinary number, the eps part its first-order
deformation; products obey the Leibniz rule by construction.  Both parts
are double-precision floats.
"""

from __future__ import annotations

from dataclasses import dataclass

@dataclass(frozen=True, slots=True)
class DualScalar:
    """One element a + b*eps of R[eps]/(eps^2); only * and -, the trace
    recursion's operations, are defined."""

    re: float
    inf: float = 0.0

    def __sub__(self, other):  # * and - write the slots, not object.__setattr__ per field
        r = _new(DualScalar)
        _set_re(r, self.re - other.re)
        _set_inf(r, self.inf - other.inf)
        return r

    def __mul__(self, other):
        r = _new(DualScalar)
        _set_re(r, self.re * other.re)
        _set_inf(r, self.re * other.inf + self.inf * other.re)
        return r


_new = object.__new__
_set_re, _set_inf = DualScalar.re.__set__, DualScalar.inf.__set__
