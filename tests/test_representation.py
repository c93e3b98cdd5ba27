import math

import numpy as np
import pytest

from mml.dualnum import DualScalar
from mml.errors import InvalidCoords
from mml.representation import (DeformationSpec, HoledTorusRep, TraceCoords,
                                attach_deformation, build_rep, random_tangent,
                                validate_fuchsian)
from mml.sl2grp import (DualMatrix2, commutator, compose, dual_trace, inverse,
                        margulis_from_trace, project_tangent, translation_length)
from conftest import as_array
from oracles import in_group


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
    assert validate_fuchsian(build_rep(TraceCoords(4, 4, 4))) is None
    # the cusp is in the domain of the length series; the differentiated
    # series rejects it (see test_verify_margulis_rejects_parabolic_boundary)
    assert validate_fuchsian(build_rep(TraceCoords(3, 3, 3))) is None
    assert TraceCoords(2.1, 2.1, 2.1).boundary_trace() > -2
    with pytest.raises(InvalidCoords, match="boundary trace"):
        validate_fuchsian(build_rep(TraceCoords(2.1, 2.1, 2.1)))
    # xyz overflows past ~6e102: a boundary trace of -inf is not in the domain,
    # and build_rep rejects it with validate_fuchsian's line
    assert TraceCoords(1e120, 1e120, 1e120).boundary_trace() == -math.inf
    with pytest.raises(InvalidCoords, match="finite boundary trace -inf"):
        build_rep(TraceCoords(1e120, 1e120, 1e120))
    # a rep whose boundary matrix overflows reaches validate_fuchsian's own check
    b = build_rep(TraceCoords(4, 4, 4)).B
    rep = HoledTorusRep(DualMatrix2((1e160, 0.0, 0.0, 1e-160)), b, TraceCoords(4, 4, 4))
    assert dual_trace(rep.boundary).re == -math.inf
    with pytest.raises(InvalidCoords, match="finite boundary trace -inf"):
        validate_fuchsian(rep)


def test_validate_fuchsian_names_the_offending_slope():
    rep = build_rep(TraceCoords(4, 5, 6))
    rep.table._memo[(2, 1)] = DualScalar(1.0, 0.0)
    with pytest.raises(InvalidCoords, match="2/1"):
        validate_fuchsian(rep)


def test_zero_deformation():
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec())
    assert margulis_from_trace(dual_trace(rep.A)) == 0.0
    assert margulis_from_trace(dual_trace(rep.boundary)) == 0.0
    assert not (any(rep.A.eps) or any(rep.B.eps))


def test_path_deformation_boundary_invariant():
    rep = build_rep(TraceCoords(4, 4, 4))
    d = DeformationSpec.linear_path(rep, (1, 1, 1))
    repd = attach_deformation(rep, d)
    # closed form: 2 * 24 / sqrt(18^2 - 4)
    assert math.isclose(margulis_from_trace(dual_trace(repd.boundary)),
                        48 / math.sqrt(320), abs_tol=1e-6)
    assert in_group(repd.A) and in_group(repd.B) and in_group(repd.boundary, 1e-8)


def test_deformed_boundary_is_the_commutator_of_the_deformed_generators(rng):
    rep = build_rep(TraceCoords(4.2, 4.8, 5.1))
    assert not any(rep.boundary.eps)  # read before deforming: not carried over
    repd = attach_deformation(rep, random_tangent(rep, rng))
    want = commutator(repd.A, repd.B)
    assert repd.boundary.val == want.val
    assert repd.boundary.eps == want.eps and any(repd.boundary.eps)


def test_path_vs_one_sided_difference():
    coords = TraceCoords(4, 4, 4)
    rep = build_rep(coords)
    repd = attach_deformation(rep, DeformationSpec.linear_path(rep, (1, 1, 1)))
    # independently coded one-sided difference of build_rep with step h
    h = 5e-5
    plus = build_rep(TraceCoords(4 + h, 4 + h, 4 + h))
    a1 = (np.array(plus.A.val) - rep.A.val) / h
    b1 = (np.array(plus.B.val) - rep.B.val) / h
    one_sided = HoledTorusRep(DualMatrix2(rep.A.val, a1), DualMatrix2(rep.B.val, b1),
                              coords=coords)
    assert np.abs(repd.A.eps - a1).max() <= 10 * h and np.abs(repd.B.eps - b1).max() <= 10 * h
    a_c = margulis_from_trace(dual_trace(repd.boundary))
    a_o = margulis_from_trace(dual_trace(one_sided.boundary))
    assert abs(a_c - a_o) <= 10 * h


def test_tangent_calibration_diagonal_rate():
    rep = build_rep(TraceCoords(4, 4, 4))
    s = 0.37
    a1 = 0.5 * s * as_array(rep.A.val) @ np.diag([1.0, -1.0])
    repd = attach_deformation(rep, DeformationSpec(a_eps=a1.ravel()))
    assert math.isclose(margulis_from_trace(dual_trace(repd.A)), s, rel_tol=1e-12)
    assert margulis_from_trace(dual_trace(repd.boundary)) is not None


def test_tangent_rejects_nontangent_eps():
    rep = build_rep(TraceCoords(4, 4, 4))
    with pytest.raises(InvalidCoords):
        attach_deformation(rep, DeformationSpec(a_eps=np.eye(2).ravel()))


def test_conjugation_leaves_invariants(rng):
    rep = build_rep(TraceCoords(4.2, 4.8, 5.1))
    repd = attach_deformation(rep, random_tangent(rep, rng))
    val = (1.3, 0.4, 0.7, (1 + 0.4 * 0.7) / 1.3)
    p = DualMatrix2(val, project_tangent(val, (0.1, 0.0, 0.2, 0.0)))
    conj = HoledTorusRep(compose(p, repd.A, inverse(p)),
                         compose(p, repd.B, inverse(p)), coords=rep.coords)
    for w1, w2 in [(repd.A, conj.A), (repd.B, conj.B), (repd.boundary, conj.boundary)]:
        a1, a2 = margulis_from_trace(dual_trace(w1)), margulis_from_trace(dual_trace(w2))
        assert abs(a1 - a2) <= 1e-9 * max(1.0, abs(a1))


def test_boundary_length():
    rep = build_rep(TraceCoords(4, 4, 4))
    assert math.isclose(translation_length(dual_trace(rep.boundary).re),
                        2 * math.acosh(9.0), rel_tol=1e-12)
