"""Marked one-holed-torus representations from trace coordinates.

The generators are normalized so A is diagonal; B's diagonal is solved
linearly from the remaining two trace coordinates and its off-diagonal
entries force unit determinant.  Affine deformations attach eps parts to
the generators, either explicitly (tangent kind) or by differencing the
construction along a path of coordinates (path kind).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidCoords
from .sl2grp import (DualMatrix2, commutator, compose, dual_trace, project_tangent,
                     tangency_defect)

TANGENT_TOL = 1e-10
DEFAULT_PATH_STEP = 1e-4


@dataclass(frozen=True)
class TraceCoords:
    """Traces (x, y, z) of A, B, AB."""

    x: float
    y: float
    z: float

    def boundary_trace(self) -> float:
        """Trace of the commutator [A, B]: x^2 + y^2 + z^2 - xyz - 2."""
        x, y, z = self.x, self.y, self.z
        return x * x + y * y + z * z - x * y * z - 2.0

    def in_domain(self) -> bool:
        return (self.x > 2.0 and self.y > 2.0 and self.z > 2.0
                and self.boundary_trace() < -2.0)


@dataclass(frozen=True)
class DeformationSpec:
    """An infinitesimal deformation: explicit eps parts, or a coordinate path.

    path: a map t -> TraceCoords with c(0) equal to the rep's coords,
    differenced centrally with step h.  tangent: eps-part matrices for
    the two generators, each satisfying tr(A0^-1 A1) = 0.
    """

    kind: str  # "path" | "tangent"
    path: Callable[[float], "TraceCoords"] | None = None
    h: float = DEFAULT_PATH_STEP
    a_eps: np.ndarray | None = None
    b_eps: np.ndarray | None = None

    @staticmethod
    def zero() -> "DeformationSpec":
        return DeformationSpec(kind="tangent",
                               a_eps=np.zeros((2, 2)), b_eps=np.zeros((2, 2)))

    @staticmethod
    def linear_path(base: TraceCoords, direction: tuple[float, float, float],
                    h: float = DEFAULT_PATH_STEP) -> "DeformationSpec":
        dx, dy, dz = direction
        return DeformationSpec(
            kind="path", h=h,
            path=lambda t: TraceCoords(base.x + t * dx, base.y + t * dy, base.z + t * dz))


@dataclass(frozen=True)
class HoledTorusRep:
    """Generator pair with boundary word [A, B] and cached coordinates."""

    A: DualMatrix2
    B: DualMatrix2
    coords: TraceCoords
    deformation_label: str = "none"
    boundary: DualMatrix2 = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "boundary", commutator(self.A, self.B))

    @property
    def is_deformed(self) -> bool:
        return bool(np.any(self.A.eps) or np.any(self.B.eps))


def build_rep(c: TraceCoords) -> HoledTorusRep:
    """Realize trace coordinates by explicit matrices (A diagonal).

    Accepts any coordinates with x, y, z > 2; the full Fuchsian domain
    (boundary trace < -2) is checked separately by validate_fuchsian, so
    cusp-limit coordinates like (3,3,3) still build.
    """
    x, y, z = c.x, c.y, c.z
    if x <= 2.0:
        raise InvalidCoords(f"x = {x} must exceed 2 for a hyperbolic generator")
    lam = (x + math.sqrt(x * x - 4.0)) / 2.0
    denom = lam - 1.0 / lam
    p = (z - y / lam) / denom
    d = y - p
    a0 = np.array([[lam, 0.0], [0.0, 1.0 / lam]])
    b0 = np.array([[p, 1.0], [p * d - 1.0, d]])
    rep = HoledTorusRep(DualMatrix2(a0), DualMatrix2(b0), coords=c)
    got = (dual_trace(rep.A).re, dual_trace(rep.B).re,
           dual_trace(compose(rep.A, rep.B)).re)
    if not all(math.isclose(g, w, rel_tol=0, abs_tol=1e-9 * max(1.0, abs(w)))
               for g, w in zip(got, (x, y, z))):
        raise InvalidCoords(f"trace round-trip failed: wanted {(x, y, z)}, got {got}")
    return rep


def attach_deformation(rep: HoledTorusRep, d: DeformationSpec) -> HoledTorusRep:
    """Return a copy of rep with eps parts set from the deformation spec."""
    a0, b0 = rep.A.val, rep.B.val
    if d.kind == "tangent":
        a1 = np.zeros((2, 2)) if d.a_eps is None else np.asarray(d.a_eps, dtype=float)
        b1 = np.zeros((2, 2)) if d.b_eps is None else np.asarray(d.b_eps, dtype=float)
        for m0, m1, name in ((a0, a1, "A"), (b0, b1, "B")):
            if abs(tangency_defect(m0, m1)) > TANGENT_TOL * max(1.0, float(np.abs(m1).max())):
                raise InvalidCoords(f"eps part of {name} is not tangent to SL(2)")
        label = "tangent"
    elif d.kind == "path":
        if d.path is None:
            raise InvalidCoords("path deformation needs a coordinate path")
        plus = build_rep(d.path(d.h))
        minus = build_rep(d.path(-d.h))
        a1 = project_tangent(a0, (plus.A.val - minus.A.val) / (2.0 * d.h))
        b1 = project_tangent(b0, (plus.B.val - minus.B.val) / (2.0 * d.h))
        label = "path"
    else:
        raise InvalidCoords(f"unknown deformation kind {d.kind!r}")
    return replace(rep, A=DualMatrix2(a0, a1), B=DualMatrix2(b0, b1),
                   deformation_label=label)


def random_tangent(rep: HoledTorusRep, rng: np.random.Generator,
                   scale: float = 1.0) -> DeformationSpec:
    """A seeded random tangent-kind deformation of both generators."""
    a1 = project_tangent(rep.A.val, rng.standard_normal((2, 2)) * scale)
    b1 = project_tangent(rep.B.val, rng.standard_normal((2, 2)) * scale)
    return DeformationSpec(kind="tangent", a_eps=a1, b_eps=b1)


@dataclass(frozen=True)
class FuchsianReport:
    """Verdict of validate_fuchsian; a passed one carries the rep's
    make_tables pair, filled to the sampled depth, for reuse."""

    passed: bool
    reason: str = ""
    first_offender: str = ""
    tables: tuple | None = field(default=None, repr=False, compare=False)


def validate_fuchsian(rep: HoledTorusRep, sample_depth: int = 6) -> FuchsianReport:
    """Check the acceptance domain and sample curve traces up to a depth.

    Not a discreteness certificate: it verifies x, y, z > 2, boundary
    trace < -2, and |trace| > 2 for every slope with |p| + q <= depth.
    """
    from .torus_curves import farey_enumerate, make_tables

    c = rep.coords
    if not (c.x > 2.0 and c.y > 2.0 and c.z > 2.0):
        return FuchsianReport(False, "generator trace not > 2")
    kappa = dual_trace(rep.boundary).re
    if abs(kappa + 2.0) <= 1e-9:
        return FuchsianReport(False, "boundary-parabolic")
    if kappa >= -2.0:
        return FuchsianReport(False, f"boundary trace {kappa} not < -2")
    pos, neg = make_tables(rep)
    for s in farey_enumerate(sample_depth):
        t = (pos if s.p >= 0 else neg).trace(abs(s.p), s.q).re
        if abs(t) <= 2.0:
            return FuchsianReport(False, "non-hyperbolic simple curve", str(s))
    return FuchsianReport(True, tables=(pos, neg))
