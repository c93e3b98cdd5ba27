"""2x2 matrices over the dual numbers with unit determinant.

A matrix M = M0 + eps*M1 packages an SL(2,R) element M0 together with a
tangent vector M1 to SL(2,R) at M0; products of such matrices propagate
the deformation by the Leibniz rule.  Hyperbolic elements carry a
translation length, and the eps part of the trace gives the derivative
of that length along the deformation (the Margulis invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dualnum import DualScalar
from .errors import NotHyperbolic

#: |trace| <= 2 + this is treated as non-hyperbolic, and a boundary trace
#: within this of +-2 as parabolic (the cusp).
PARABOLIC_TOL = 1e-9


@dataclass(frozen=True)
class DualMatrix2:
    """Element of SL(2, R[eps]) stored as value and eps matrix parts."""

    val: np.ndarray
    eps: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        val = np.asarray(self.val, dtype=float)
        eps = np.zeros((2, 2)) if self.eps is None else np.asarray(self.eps, dtype=float)
        if val.shape != (2, 2) or eps.shape != (2, 2):
            raise ValueError("DualMatrix2 parts must be 2x2")
        val.setflags(write=False)
        eps.setflags(write=False)
        object.__setattr__(self, "val", val)
        object.__setattr__(self, "eps", eps)


def adjugate(m: np.ndarray) -> np.ndarray:
    """adj(m) = det(m) m^-1 of a 2x2 array; entrywise linear."""
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])


def tangency_defect(m0: np.ndarray, m1: np.ndarray) -> float:
    """tr(adj(m0) m1), the eps part of det(m0 + eps*m1); zero iff m1 is tangent."""
    return float(np.trace(adjugate(m0) @ m1))


def project_tangent(m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """m1 with the component violating d(det)/deps = 0 at det(m0) = 1 removed."""
    return m1 - 0.5 * tangency_defect(m0, m1) * m0


def _product(m: DualMatrix2, n: DualMatrix2) -> DualMatrix2:
    """m*n without re-validation: products of validated 2x2 float parts
    are 2x2 float arrays, so only freezing them is left to do."""
    val = m.val @ n.val
    eps = m.val @ n.eps + m.eps @ n.val
    val.setflags(write=False)
    eps.setflags(write=False)
    out = object.__new__(DualMatrix2)
    object.__setattr__(out, "val", val)
    object.__setattr__(out, "eps", eps)
    return out


def flatten(m: DualMatrix2) -> tuple[float, ...]:
    """m as 8 Python floats: the value part, then the eps part, row-major."""
    return tuple(np.stack((m.val, m.eps)).ravel().tolist())


def flat_product(m: tuple[float, ...], n: tuple[float, ...]) -> tuple[float, ...]:
    """m*n of flattened matrices in Python floats: value M0*N0, eps M0*N1 + M1*N0.

    Its last bits can differ from _product's numpy matmul, so it may feed
    only checks with a tolerance, never a value that reaches a report.
    """
    a, b, c, d, ea, eb, ec, ed = m
    e, f, g, h, ee, ef, eg, eh = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
            a * ee + b * eg + ea * e + eb * g, a * ef + b * eh + ea * f + eb * h,
            c * ee + d * eg + ec * e + ed * g, c * ef + d * eh + ec * f + ed * h)


def compose(*ms: DualMatrix2) -> DualMatrix2:
    """Product of one or more group elements; value M0*N0, eps M0*N1 + M1*N0."""
    out = ms[0]
    for n in ms[1:]:
        out = _product(out, n)
    return out


def inverse(m: DualMatrix2) -> DualMatrix2:
    """Inverse via the adjugate; exact at unit determinant, and the
    adjugate is entrywise linear for 2x2 so it passes to the eps part."""
    return DualMatrix2(adjugate(m.val), adjugate(m.eps))


def dual_trace(m: DualMatrix2) -> DualScalar:
    # Same bits as np.trace: a sum of two floats is one rounding either way.
    return DualScalar(m.val.item(0) + m.val.item(3), m.eps.item(0) + m.eps.item(3))


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


def margulis_invariant_dual(m: DualMatrix2) -> float:
    """Margulis invariant of a dual group element, via its dual trace."""
    return margulis_from_trace(dual_trace(m))
