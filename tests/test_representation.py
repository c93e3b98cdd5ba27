import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mml.dualnum import DualScalar
from mml.errors import InvalidCoords, RecursionMismatch
from mml.representation import (DeformationSpec, HoledTorusRep, TraceCoords,
                                attach_deformation, build_rep, random_tangent,
                                validate_fuchsian)
from mml.sl2grp import (PARABOLIC_TOL, DualMatrix2, commutator, compose, dual_trace, inverse,
                        margulis_from_trace, project_tangent, translation_length)
from conftest import as_array
from oracles import boundary_trace, domain_kind, farey_enumerate, in_group


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
    rep.table._memo[(-1, 1)] = DualScalar(1.0, 0.0)
    with pytest.raises(InvalidCoords, match="slope -1/1$"):
        validate_fuchsian(rep)


def _log_uniform(lo: float, hi: float):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def domain_probes(draw):
    """Coordinates around the domain's edge, in any order: log-uniform magnitudes from 2
    to 1e8; the cusp locus, boundary trace -2 (larger or smaller root z); and a
    near-parabolic generator x = 2 + delta, with z anywhere across the domain's width."""
    source = draw(st.sampled_from(["log-uniform", "cusp", "near-parabolic"]))
    if source == "log-uniform":
        c = [draw(_log_uniform(2.0, 1e8)) for _ in range(3)]
    else:
        if source == "cusp":
            x, y = draw(_log_uniform(2.0, 1e4)), draw(_log_uniform(2.0, 1e4))
        else:  # y past 2x / sqrt(x^2 - 4), where the domain's z-interval opens
            x = 2.0 + draw(_log_uniform(1e-12, 1e-2))
            y = 2.0 * x / math.sqrt(x * x - 4.0) * draw(_log_uniform(1.001, 100.0))
        disc = x * x * y * y - 4.0 * (x * x + y * y)  # z^2 - xyz + x^2 + y^2 = 0 at the cusp
        assume(disc > 0.0)
        s = draw(st.sampled_from([-1.0, 1.0])) if source == "cusp" else draw(st.floats(-1.2, 1.2))
        c = [x, y, (x * y + s * math.sqrt(disc)) / 2.0]
    return tuple(draw(st.permutations(c)))


_ROUNDED_IN = [(2027396.488049708, 26191146.853534587, 53099839148837.19),  # kappa +2.8e10
               (7220.101826171673, 5755.62103777745, 41556167.9139992)]    # kappa -1.99714


@pytest.mark.parametrize("c", _ROUNDED_IN)
def test_coordinates_whose_float_commutator_reads_inside_are_outside(c):
    # the trace of the float commutator reads -3.0e11 and -2.05 here, and the
    # polynomial in floats +5.5e11 and -2.0; exactly, the trace is above -2
    coords, rep = TraceCoords(*c), build_rep(TraceCoords(*c))
    assert dual_trace(rep.boundary).re < -2.0
    assert coords.boundary_trace() == float(boundary_trace(*c)) > -1.998
    assert coords.kind() == "outside" and not coords.in_domain()
    with pytest.raises(InvalidCoords, match=f"boundary trace {coords.boundary_trace()} <= -2"):
        validate_fuchsian(rep)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(c=domain_probes())
@example(c=(3.0, 3.0, 3.0))
def test_boundary_trace_is_the_exact_trace_rounded_once_and_kind_decides_from_it(c):
    coords = TraceCoords(*c)
    assert coords.boundary_trace() == float(boundary_trace(*c))
    assert coords.kind() == domain_kind(*c, PARABOLIC_TOL)
    assert coords.in_domain() == (coords.kind() == "inside")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(c=domain_probes())
@example(c=(49.82985893051866, 68555654.53713776, 1376349.2033772469))  # 4/1 refused
def test_every_short_slope_past_the_gate_is_hyperbolic_or_refused(c):
    """validate_fuchsian checks the four root slopes only; past it, every slope with
    |p| + q <= 6 is hyperbolic, or the trace recursion refuses it."""
    try:
        rep = build_rep(TraceCoords(*c))
        validate_fuchsian(rep)
    except InvalidCoords:
        return
    try:
        for p, q in farey_enumerate(6):
            assert abs(rep.table.trace(p, q).re) > 2.0 + PARABOLIC_TOL
    except RecursionMismatch:
        pass


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
