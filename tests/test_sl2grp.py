import ast
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mml import representation, sl2grp, torus_curves
from mml.dualnum import DualScalar
from mml.errors import NotHyperbolic
from mml.sl2grp import (DualMatrix2, adjugate, commutator, compose, dual_trace, flat_product,
                        inverse, margulis_from_trace, tangency_defect, translation_length,
                        two_product)
from conftest import (as_array, random_hyperbolic_dual, random_sl2, random_traceless,
                      sl2_exp)
from oracles import det, in_group

IDENTITY = DualMatrix2((1.0, 0.0, 0.0, 1.0))


def diag_deformed(ell, s):
    """diag(e^{(l+s*eps)/2}, e^{-(l+s*eps)/2})."""
    val = np.diag([math.exp(ell / 2), math.exp(-ell / 2)])
    eps = 0.5 * s * np.diag([math.exp(ell / 2), -math.exp(-ell / 2)])
    return DualMatrix2(val.ravel(), eps.ravel())


def _signed(magnitudes):
    """Floats of either sign, zeros included, with |x| drawn from magnitudes."""
    return st.tuples(st.booleans(), st.just(0.0) | magnitudes).map(
        lambda t: -t[1] if t[0] else t[1])


@settings(max_examples=500, derandomize=True, deadline=None)
@given(a=_signed(st.floats(2.0**-480, 2.0**480)), b=_signed(st.floats(2.0**-480, 2.0**480)))
def test_two_product_is_exact(a, b):
    p, e = two_product(a, b)
    assert p == a * b and Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_two_product_at_the_overflow_edge():
    # 2**996 is the largest power of two whose split (2**27 + 1) * a is finite
    p, e = two_product(2.0**996, 3.0)
    assert Fraction(p) + Fraction(e) == Fraction(2**996 * 3)
    for a, b in [(2.0**997, 1.0),   # the split overflows, the product does not
                 (2.0**600, 2.0**500), (1.5e154, 1.5e154)]:  # the product overflows
        assert not math.isfinite(two_product(a, b)[1])


def test_algebra_modules_do_not_import_numpy():
    for module in (sl2grp, representation, torus_curves):
        tree = ast.parse(Path(module.__file__).read_text())
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {(node.module or "").split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)}
        assert "numpy" not in imported, module.__name__


def test_compose_identity():
    m = diag_deformed(1.3, 0.7)
    c = compose(IDENTITY, m)
    assert np.allclose(c.val, m.val) and np.allclose(c.eps, m.eps)


def test_compose_results_are_frozen_float_2x2(rng):
    m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
    for c in (compose(m, n), compose(m, n, inverse(m)), compose(m)):
        for part in (c.val, c.eps):
            assert type(part) is tuple and len(part) == 4
            assert all(type(x) is float for x in part)
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.val = (1.0, 0.0, 0.0, 1.0)


def test_compose_block_rule(rng):
    m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
    c = compose(m, n)
    assert np.allclose(as_array(c.val), as_array(m.val) @ as_array(n.val))
    assert np.allclose(as_array(c.eps), as_array(m.val) @ as_array(n.eps)
                       + as_array(m.eps) @ as_array(n.val))


def _gamma(n):
    """gamma_n = n*u / (1 - n*u), u = 2**-53: the error factor of an n-term dot product."""
    return Fraction(n, 2**53 - n)


def _exact_product(x, y):
    """Entries of the 2x2 product x*y as (exact value, sum of |products|) pairs."""
    terms = [[Fraction(x[2 * i + k]) * Fraction(y[2 * k + j]) for k in (0, 1)]
             for i in (0, 1) for j in (0, 1)]
    return [(sum(t), sum(map(abs, t))) for t in terms]


_ENTRIES = st.tuples(*[_signed(st.floats(2.0**-400, 2.0**400))] * 8)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=_ENTRIES, y=_ENTRIES)
def test_compose_is_within_a_dot_product_error_of_the_exact_product(x, y):
    m, n = DualMatrix2(x[:4], x[4:]), DualMatrix2(y[:4], y[4:])
    c = compose(m, n)
    for got, (exact, size) in zip(c.val, _exact_product(m.val, n.val)):
        assert abs(Fraction(got) - exact) <= _gamma(2) * size
    eps = [(e1 + e2, s1 + s2) for (e1, s1), (e2, s2)
           in zip(_exact_product(m.val, n.eps), _exact_product(m.eps, n.val))]
    for got, (exact, size) in zip(c.eps, eps):
        assert abs(Fraction(got) - exact) <= _gamma(4) * size


def test_compose_is_bitwise_flat_product(rng):
    # the trace table's seeds come from compose and its word matrices from
    # flat_product: one kernel, so the two agree to the bit
    for _ in range(200):
        m, n, p = (random_hyperbolic_dual(rng) for _ in range(3))
        c = compose(m, n)
        assert c.val + c.eps == flat_product(m.val + m.eps, n.val + n.eps)
        c = compose(m, n, p)
        assert c.val + c.eps == flat_product(flat_product(m.val + m.eps, n.val + n.eps),
                                             p.val + p.eps)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=_ENTRIES)
def test_tangency_defect_is_the_trace_of_adj_m0_m1(x):
    m0, m1 = x[:4], x[4:]
    (e00, s00), _, _, (e11, s11) = _exact_product(adjugate(m0), m1)
    assert abs(Fraction(tangency_defect(m0, m1)) - (e00 + e11)) <= _gamma(4) * (s00 + s11)


def test_dual_matrix_parts_are_four_floats():
    m = DualMatrix2(np.arange(4.0))
    assert m.val == (0.0, 1.0, 2.0, 3.0) and type(m.val[0]) is float
    assert m.eps == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="4 floats"):
        DualMatrix2((1.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        DualMatrix2(np.eye(2))  # a 2x2 array's rows are not floats


def test_compose_closure(rng):
    for _ in range(20):
        m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
        d0, d1 = det(compose(m, n))
        assert abs(d0 - 1.0) <= 1e-10 and abs(d1) <= 1e-9
    # a matrix drifted off det = 1 + 0*eps, in either part, is out of the group
    m = random_hyperbolic_dual(rng)
    val, eps = np.array(m.val), np.array(m.eps)
    for drift in (DualMatrix2(val * 1.000001, eps + 1e-6 * val),
                  DualMatrix2(val * 1.000001, eps), DualMatrix2(val, eps + 1e-6 * val)):
        assert not in_group(drift)


def test_inverse_identity_and_adjugate():
    assert np.allclose(as_array(inverse(IDENTITY).val), np.eye(2))
    m = diag_deformed(0.8, 0.3)
    inv = inverse(m)
    assert inv.val[0] == m.val[3] and inv.val[1] == -m.val[1]


def test_inverse_roundtrip(rng):
    for _ in range(20):
        m = random_hyperbolic_dual(rng)
        c = compose(m, inverse(m))
        assert np.allclose(as_array(c.val), np.eye(2), atol=1e-12)
        assert np.allclose(c.eps, 0.0, atol=1e-12)


def test_trace_symmetries(rng):
    assert dual_trace(IDENTITY) == DualScalar(2.0, 0.0)
    m = random_hyperbolic_dual(rng)
    t, ti = dual_trace(m), dual_trace(inverse(m))
    assert math.isclose(t.re, ti.re, rel_tol=1e-12)
    assert math.isclose(t.inf, ti.inf, rel_tol=1e-10, abs_tol=1e-12)
    p = random_hyperbolic_dual(rng)
    conj = compose(p, m, inverse(p))
    tc = dual_trace(conj)
    assert math.isclose(t.re, tc.re, rel_tol=1e-9)


def test_dual_trace_is_bitwise_np_trace(rng):
    for _ in range(1000):
        val, eps = rng.standard_normal((2, 2, 2)) * 10.0 ** rng.uniform(-8, 8, (2, 2, 2))
        t = dual_trace(DualMatrix2(val.ravel(), eps.ravel()))
        assert t.re.hex() == float(np.trace(val)).hex()
        assert t.inf.hex() == float(np.trace(eps)).hex()


def test_commutator_degenerate(rng):
    m = random_hyperbolic_dual(rng)
    assert np.allclose(as_array(commutator(m, m).val), np.eye(2), atol=1e-12)
    assert np.allclose(as_array(commutator(IDENTITY, m).val), np.eye(2), atol=1e-12)


def test_commutator_fricke_333():
    # oracle: direct matrix computation at trace coordinates (3,3,3)
    lam = (3 + math.sqrt(5)) / 2
    a0 = np.diag([lam, 1 / lam])
    denom = lam - 1 / lam
    p = (3 - 3 / lam) / denom
    d = 3 - p
    b0 = np.array([[p, 1.0], [p * d - 1.0, d]])
    k = commutator(DualMatrix2(a0.ravel()), DualMatrix2(b0.ravel()))
    assert math.isclose(float(np.trace(as_array(k.val))), -2.0, abs_tol=1e-9)


def test_translation_length_examples():
    assert math.isclose(translation_length(2 * math.cosh(1.0)), 2.0, rel_tol=1e-14)
    assert math.isclose(translation_length(3.0), 2 * math.acosh(1.5), rel_tol=1e-14)
    with pytest.raises(NotHyperbolic):
        translation_length(2.0)


def test_margulis_diagonal_calibration():
    m = diag_deformed(1.7, 0.9)
    assert math.isclose(margulis_from_trace(dual_trace(m)), 0.9, rel_tol=1e-12)
    assert margulis_from_trace(dual_trace(diag_deformed(1.7, 0.0))) == 0.0


def test_margulis_homogeneity(rng):
    for _ in range(10):
        m = random_hyperbolic_dual(rng)
        a = margulis_from_trace(dual_trace(m))
        mk = m
        for n in range(2, 6):
            mk = compose(mk, m)
            assert math.isclose(margulis_from_trace(dual_trace(mk)), n * a,
                                rel_tol=1e-9, abs_tol=1e-9)


def test_margulis_conjugation_and_inverse_invariance(rng):
    for _ in range(20):
        m = random_hyperbolic_dual(rng)
        a = margulis_from_trace(dual_trace(m))
        p = random_hyperbolic_dual(rng)
        conj = compose(p, m, inverse(p))
        assert abs(margulis_from_trace(dual_trace(conj)) - a) <= 1e-10 * max(1, abs(a))
        assert abs(margulis_from_trace(dual_trace(inverse(m))) - a) <= 1e-10 * max(1, abs(a))


def test_margulis_matches_finite_difference(rng):
    h = 1e-4
    for _ in range(30):
        a0 = random_sl2(rng)
        if abs(np.trace(a0)) <= 2.5:  # keep clear of the parabolic locus

            continue
        w = random_traceless(rng)
        m = DualMatrix2(a0.ravel(), (a0 @ w).ravel())  # path M(s) = a0 exp(s w)
        ell = lambda s: translation_length(float(np.trace(a0 @ sl2_exp(w, s))))
        fd = (ell(h) - ell(-h)) / (2 * h)
        assert abs(margulis_from_trace(dual_trace(m)) - fd) <= 1e-6
