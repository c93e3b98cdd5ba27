"""Marked one-holed-torus representations from trace coordinates.

The generators are normalized so A is diagonal; B's diagonal is solved
linearly from the remaining two trace coordinates and its off-diagonal
entries force unit determinant.  An affine deformation is the pair of
eps parts of the generators; linear_path computes one by differentiating
the construction along a line of coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

from . import torus_curves
from .errors import InvalidCoords
from .sl2grp import (PARABOLIC_TOL, DualMatrix2, commutator, compose, dual_trace,
                     project_tangent, tangency_defect, two_product)

TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class TraceCoords:
    """Traces (x, y, z) of A, B, AB."""

    x: float
    y: float
    z: float

    def boundary_trace(self) -> float:
        """Trace of [A, B], x^2 + y^2 + z^2 - xyz - 2, rounded once from its exact value
        (two_product's error-free terms, math.fsum); near overflow, in float arithmetic."""
        x, y, z = self.x, self.y, self.z
        xy, e = two_product(x, y)
        terms = (*two_product(x, x), *two_product(y, y), *two_product(z, z), -2.0,
                 *two_product(-xy, z), *two_product(-e, z))
        if sum(map(abs, terms)) < 1e307:  # all finite, and no partial sum can overflow
            return math.fsum(terms)
        return x * x + y * y + z * z - x * y * z - 2.0

    def kind(self) -> str:
        """The domain's one decision: "inside" (x, y, z > 2 and boundary trace below
        -2 - PARABOLIC_TOL), its limit "cusp" (within PARABOLIC_TOL of -2) or "outside"."""
        d = self.boundary_trace() + 2.0
        if min(self.x, self.y, self.z) > 2.0 and -math.inf < d <= PARABOLIC_TOL:
            return "inside" if d < -PARABOLIC_TOL else "cusp"
        return "outside"

    def in_domain(self) -> bool:
        return self.kind() == "inside"


@dataclass(frozen=True)
class DeformationSpec:
    """An infinitesimal deformation: the eps parts of the two generators,
    each tangent to SL(2) at its generator; None is the zero part."""

    a_eps: tuple[float, ...] | None = None
    b_eps: tuple[float, ...] | None = None

    @staticmethod
    def linear_path(rep: HoledTorusRep, direction: tuple[float, float, float]) -> DeformationSpec:
        """The tangent of build_rep along rep.coords + t * direction at t = 0, in closed form."""
        dx, dy, dz = direction
        x, y, lam, p = rep.coords.x, rep.coords.y, rep.A.val[0], rep.B.val[0]
        s = lam - 1.0 / lam  # sqrt(x^2 - 4)
        dlam = dx * lam / s
        dp = (dz - dy / lam + y * dlam / (lam * lam) - p * x * dx / s) / s
        return DeformationSpec((dlam, 0.0, 0.0, -dlam / (lam * lam)),
                               (dp, 0.0, dp * (y - p) + p * (dy - dp), dy - dp))


@dataclass(frozen=True)
class HoledTorusRep:
    """Generator pair with their trace coordinates."""

    A: DualMatrix2
    B: DualMatrix2
    coords: TraceCoords

    @cached_property
    def boundary(self) -> DualMatrix2:
        """The boundary word [A, B], computed on first use; like table, it is
        not carried over by dataclasses.replace."""
        return commutator(self.A, self.B)

    @cached_property
    def table(self) -> torus_curves.TraceTable:
        """The rep's one trace table, built on first use and shared by every
        reader; dataclasses.replace gives the copy a table of its own."""
        return torus_curves.make_tables(self)


def build_rep(c: TraceCoords) -> HoledTorusRep:
    """Realize trace coordinates by explicit matrices (A diagonal).

    Accepts any coordinates it can construct, x > 2 with a finite boundary trace, and
    rejects the others with the domain's error.  Elliptic and non-Fuchsian reps are
    built too; validate_fuchsian is the domain's gate.
    """
    x, y, z, kappa = c.x, c.y, c.z, c.boundary_trace()
    if x <= 2.0 or not math.isfinite(kappa):
        raise _outside_domain(c, kappa)
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    denom = lam - 1.0 / lam
    p = (z - y / lam) / denom
    d = y - p
    rep = HoledTorusRep(DualMatrix2((lam, 0.0, 0.0, 1.0 / lam)),
                        DualMatrix2((p, 1.0, p * d - 1.0, d)), coords=c)
    got = (dual_trace(rep.A).re, dual_trace(rep.B).re,
           dual_trace(compose(rep.A, rep.B)).re)
    if not all(math.isclose(g, w, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(w)))
               for g, w in zip(got, (x, y, z))):
        raise InvalidCoords(f"trace round-trip failed: wanted {(x, y, z)}, got {got}")
    return rep


def attach_deformation(rep: HoledTorusRep, d: DeformationSpec) -> HoledTorusRep:
    """A copy of rep whose generators carry the eps parts of d; InvalidCoords unless
    each is a finite 2x2 matrix (4 numbers, row-major) tangent to SL(2) at its generator."""
    eps = []
    for m0, m1, name in ((rep.A.val, d.a_eps, "A"), (rep.B.val, d.b_eps, "B")):
        try:
            m1 = (0.0,) * 4 if m1 is None else tuple(map(float, m1))
        except (TypeError, ValueError) as e:
            raise InvalidCoords(f"eps part of {name} is not a matrix of numbers ({e})") from e
        if len(m1) != 4 or not all(map(math.isfinite, m1)):
            raise InvalidCoords(f"eps part of {name} is not a finite 2x2 matrix")
        if abs(tangency_defect(m0, m1)) > TANGENT_TOL * max(1.0, *map(abs, m1)):
            raise InvalidCoords(f"eps part of {name} is not tangent to SL(2)")
        eps.append(m1)
    return replace(rep, A=DualMatrix2(rep.A.val, eps[0]), B=DualMatrix2(rep.B.val, eps[1]))


def random_tangent(rep: HoledTorusRep, rng) -> DeformationSpec:
    """A random tangent deformation of both generators, drawn from a numpy Generator."""
    return DeformationSpec(*(project_tangent(g.val, rng.standard_normal(4).tolist())
                             for g in (rep.A, rep.B)))


def _outside_domain(c: TraceCoords, kappa: float) -> InvalidCoords:
    """The error for coordinates c, with boundary trace kappa, outside the domain."""
    return InvalidCoords(f"coordinates ({c.x}, {c.y}, {c.z}) need x, y, z > 2 and "
                         f"a finite boundary trace {kappa} <= -2")


def validate_fuchsian(rep: HoledTorusRep) -> None:
    """Admit rep to the identities' domain, or raise InvalidCoords.

    rep.coords.kind() decides the domain; "inside" and "cusp" pass.  Every simple
    curve of such a rep is hyperbolic (Goldman, "The modular group action on real
    SL(2)-characters of a one-holed torus", Geom. Topol. 2003).  As a guard on the
    rep's own matrices, its boundary trace must be finite, and the four root slopes,
    from which the trace recursion derives every other, must have |trace| >
    2 + PARABOLIC_TOL, as translation_length asks; enumerate_up_to checks the rest.
    """
    c, t = rep.coords, dual_trace(rep.boundary).re
    if not math.isfinite(t) or c.kind() == "outside":
        raise _outside_domain(c, c.boundary_trace() if math.isfinite(t) else t)
    for p, q in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        if abs(rep.table.trace(p, q).re) <= 2.0 + PARABOLIC_TOL:
            raise InvalidCoords(f"non-hyperbolic simple curve of slope {p}/{q}")
