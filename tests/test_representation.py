import math

import numpy as np
import pytest

from mml.dualnum import DualScalar
from mml.errors import InvalidCoords
from mml.representation import (DeformationSpec, HoledTorusRep, TraceCoords,
                                attach_deformation, build_rep, random_tangent,
                                validate_fuchsian)
from mml.sl2grp import (DualMatrix2, compose, dual_trace, inverse,
                        margulis_invariant_dual, translation_length)


def test_build_rep_roundtrip():
    for coords in [(4, 4, 4), (3, 3, 3), (3.7, 5.1, 4.4), (5.5, 3.1, 6.2)]:
        rep = build_rep(TraceCoords(*coords))
        got = (dual_trace(rep.A).re, dual_trace(rep.B).re,
               dual_trace(compose(rep.A, rep.B)).re)
        for g, w in zip(got, coords):
            assert math.isclose(g, w, rel_tol=1e-12)


def test_boundary_traces():
    assert math.isclose(dual_trace(build_rep(TraceCoords(3, 3, 3)).boundary).re,
                        -2.0, abs_tol=1e-9)
    assert math.isclose(dual_trace(build_rep(TraceCoords(4, 4, 4)).boundary).re,
                        -18.0, abs_tol=1e-9)


def test_fricke_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        c = TraceCoords(*rng.uniform(3.0, 6.0, 3))
        rep = build_rep(c)
        assert math.isclose(dual_trace(rep.boundary).re, c.boundary_trace(),
                            rel_tol=1e-9, abs_tol=1e-9)


def test_build_rep_rejects_small_x():
    with pytest.raises(InvalidCoords):
        build_rep(TraceCoords(1.5, 4, 4))


def test_validate_fuchsian():
    assert validate_fuchsian(build_rep(TraceCoords(4, 4, 4)), 6).passed
    r = validate_fuchsian(build_rep(TraceCoords(3, 3, 3)))
    assert not r.passed and r.reason == "boundary-parabolic"
    assert TraceCoords(2.1, 2.1, 2.1).boundary_trace() > -2
    assert not validate_fuchsian(build_rep(TraceCoords(2.1, 2.1, 2.1))).passed


def test_validate_fuchsian_names_the_offending_slope():
    rep = build_rep(TraceCoords(4, 5, 6))
    rep.tables[0]._memo[(2, 1)] = DualScalar(1.0, 0.0)
    r = validate_fuchsian(rep)
    assert not r.passed and "2/1" in r.reason


def test_zero_deformation():
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec.zero())
    assert margulis_invariant_dual(rep.A) == 0.0
    assert margulis_invariant_dual(rep.boundary) == 0.0
    assert not rep.is_deformed


def test_path_deformation_boundary_invariant():
    rep = build_rep(TraceCoords(4, 4, 4))
    d = DeformationSpec.linear_path(rep.coords, (1, 1, 1))
    repd = attach_deformation(rep, d)
    # closed form: 2 * 24 / sqrt(18^2 - 4)
    assert math.isclose(margulis_invariant_dual(repd.boundary),
                        48 / math.sqrt(320), abs_tol=1e-6)
    assert repd.A.in_group() and repd.B.in_group() and repd.boundary.in_group(1e-8)


def test_path_vs_one_sided_difference():
    coords = TraceCoords(4, 4, 4)
    rep = build_rep(coords)
    h = 1e-4
    repd = attach_deformation(rep, DeformationSpec.linear_path(coords, (1, 1, 1), h=h))
    # independently coded one-sided difference with step h/2
    plus = build_rep(TraceCoords(4 + h / 2, 4 + h / 2, 4 + h / 2))
    a1 = (plus.A.val - rep.A.val) / (h / 2)
    b1 = (plus.B.val - rep.B.val) / (h / 2)
    one_sided = HoledTorusRep(DualMatrix2(rep.A.val, a1), DualMatrix2(rep.B.val, b1),
                              coords=coords)
    a_c = margulis_invariant_dual(repd.boundary)
    a_o = margulis_invariant_dual(one_sided.boundary)
    assert abs(a_c - a_o) <= 10 * h


def test_tangent_calibration_diagonal_rate():
    rep = build_rep(TraceCoords(4, 4, 4))
    s = 0.37
    a1 = 0.5 * s * rep.A.val @ np.diag([1.0, -1.0])
    repd = attach_deformation(rep, DeformationSpec(kind="tangent", a_eps=a1))
    assert math.isclose(margulis_invariant_dual(repd.A), s, rel_tol=1e-12)
    assert margulis_invariant_dual(repd.boundary) is not None


def test_tangent_rejects_nontangent_eps():
    rep = build_rep(TraceCoords(4, 4, 4))
    with pytest.raises(InvalidCoords):
        attach_deformation(rep, DeformationSpec(kind="tangent", a_eps=np.eye(2)))


def test_conjugation_leaves_invariants(rng):
    rep = build_rep(TraceCoords(4.2, 4.8, 5.1))
    repd = attach_deformation(rep, random_tangent(rep, rng))
    p = DualMatrix2(np.array([[1.3, 0.4], [0.7, (1 + 0.4 * 0.7) / 1.3]]),
                    np.array([[0.1, 0.0], [0.2, 0.0]]))
    p = p.renormalized()
    conj = HoledTorusRep(compose(p, repd.A, inverse(p)),
                         compose(p, repd.B, inverse(p)), coords=rep.coords)
    for w1, w2 in [(repd.A, conj.A), (repd.B, conj.B), (repd.boundary, conj.boundary)]:
        a1, a2 = margulis_invariant_dual(w1), margulis_invariant_dual(w2)
        assert abs(a1 - a2) <= 1e-9 * max(1.0, abs(a1))


def test_boundary_length():
    rep = build_rep(TraceCoords(4, 4, 4))
    assert math.isclose(translation_length(dual_trace(rep.boundary).re),
                        2 * math.acosh(9.0), rel_tol=1e-12)
