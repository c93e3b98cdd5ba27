"""2x2 matrices over the dual numbers with unit determinant.

A matrix M = M0 + eps*M1 packages an SL(2,R) element M0 together with a
tangent vector M1 to SL(2,R) at M0; products of such matrices propagate
the deformation by the Leibniz rule.  Hyperbolic elements carry a
translation length, and the eps part of the trace gives the derivative
of that length along the deformation (the Margulis invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .dualnum import DualScalar
from .errors import NotHyperbolic

#: |trace| <= 2 + this is treated as non-hyperbolic, and a boundary trace
#: within this of -2 as parabolic (the cusp; see TraceCoords.kind).
PARABOLIC_TOL = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves


@dataclass(frozen=True)
class DualMatrix2:
    """Element of SL(2, R[eps]): value and eps parts as row-major 4-tuples of floats."""

    val: tuple[float, ...]
    eps: tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        val, eps = tuple(map(float, self.val)), tuple(map(float, self.eps))
        if len(val) != 4 or len(eps) != 4:
            raise ValueError("DualMatrix2 parts must be 4 floats (a, b, c, d), row-major")
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "eps", eps)


def two_product(a: float, b: float) -> tuple[float, float]:
    """(p, e), p = a*b rounded and p + e = a*b exactly (Dekker, Numer. Math. 18, 1971);
    e is inexact for |a*b| < 2**-969, and not finite if the product or the split overflows."""
    p = a * b
    ah = (t := _SPLIT * a) - (t - a)
    bh = (t := _SPLIT * b) - (t - b)
    al, bl = a - ah, b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _fma(a: float, b: float, c: float) -> float:
    """a*b + c rounded once, as an FMA does: math.fsum rounds two_product's p + e + c;
    a*b + c, rounded twice, when e is not finite or the sum overflows."""
    p, e = two_product(a, b)
    try:
        return math.fsum((p, e, c)) if math.isfinite(e) else p + c
    except OverflowError:  # p + e + c beyond the largest float
        return p + c


def _mul(x: tuple[float, ...], y: tuple[float, ...]) -> tuple[float, ...]:
    """x*y, each entry rounded as fma(x_i1, y_1j, x_i0*y_0j), as FMA matmul kernels do."""
    a, b, c, d = x
    e, f, g, h = y
    return (_fma(b, g, a * e), _fma(b, h, a * f), _fma(d, g, c * e), _fma(d, h, c * f))


def adjugate(m: tuple[float, ...]) -> tuple[float, ...]:
    """adj(m) = det(m) m^-1 of a 2x2 matrix; entrywise linear."""
    return (m[3], -m[1], -m[2], m[0])


def tangency_defect(m0: tuple[float, ...], m1: tuple[float, ...]) -> float:
    """tr(adj(m0) m1), the eps part of det(m0 + eps*m1); zero iff m1 is tangent."""
    p = _mul(adjugate(m0), m1)
    return p[0] + p[3]


def project_tangent(m0: tuple[float, ...], m1: tuple[float, ...]) -> tuple[float, ...]:
    """m1 with the component violating d(det)/deps = 0 at det(m0) = 1 removed."""
    k = 0.5 * tangency_defect(m0, m1)
    return tuple(x - k * y for x, y in zip(m1, m0))


def _product(m: DualMatrix2, n: DualMatrix2) -> DualMatrix2:
    """m*n: value M0*N0, eps M0*N1 + M1*N0."""
    return DualMatrix2(_mul(m.val, n.val),
                       [u + v for u, v in zip(_mul(m.val, n.eps), _mul(m.eps, n.val))])


def flat_product(m: tuple[float, ...], n: tuple[float, ...]) -> tuple[float, ...]:
    """m*n of 8-float matrices val + eps in plain sums, so its bits can differ from
    _product's: it may feed only checks with a tolerance, never a report value."""
    a, b, c, d, ea, eb, ec, ed = m
    e, f, g, h, ee, ef, eg, eh = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
            a * ee + b * eg + ea * e + eb * g, a * ef + b * eh + ea * f + eb * h,
            c * ee + d * eg + ec * e + ed * g, c * ef + d * eh + ec * f + ed * h)


def compose(*ms: DualMatrix2) -> DualMatrix2:
    """Product of one or more group elements; value M0*N0, eps M0*N1 + M1*N0."""
    return reduce(_product, ms)


def inverse(m: DualMatrix2) -> DualMatrix2:
    """Inverse via the adjugate; exact at unit determinant, and the
    adjugate is entrywise linear for 2x2 so it passes to the eps part."""
    return DualMatrix2(adjugate(m.val), adjugate(m.eps))


def dual_trace(m: DualMatrix2) -> DualScalar:
    return DualScalar(m.val[0] + m.val[3], m.eps[0] + m.eps[3])


def commutator(a: DualMatrix2, b: DualMatrix2) -> DualMatrix2:
    """a b a^-1 b^-1."""
    return compose(a, b, inverse(a), inverse(b))


def translation_length(t: float) -> float:
    """Geodesic length 2*arccosh(|t|/2) of a hyperbolic element of trace t."""
    if abs(t) <= 2.0 + PARABOLIC_TOL:
        raise NotHyperbolic(f"trace {t} is not hyperbolic (|t| <= 2 + PARABOLIC_TOL)")
    return 2.0 * math.acosh(abs(t) / 2.0)


def margulis_from_trace(t: DualScalar) -> float:
    """d/deps of the translation length of an element with dual trace t.

    Differentiating 2*arccosh(|t|/2) gives 2*t_eps*sign(t)/sqrt(t^2-4).
    """
    if abs(t.re) <= 2.0 + PARABOLIC_TOL:
        raise NotHyperbolic(f"trace {t.re} is not hyperbolic (|t| <= 2 + PARABOLIC_TOL)")
    return 2.0 * t.inf * math.copysign(1.0, t.re) / math.sqrt(t.re * t.re - 4.0)
