import math

import numpy as np
import pytest

from mml.dualnum import DualScalar
from mml.errors import NotHyperbolic
from mml.sl2grp import (DualMatrix2, commutator, compose, dual_trace,
                        inverse, margulis_invariant_dual, translation_length)
from conftest import random_hyperbolic_dual, random_sl2, random_traceless, sl2_exp
from oracles import det, in_group

IDENTITY = DualMatrix2(np.eye(2))


def diag_deformed(ell, s):
    """diag(e^{(l+s*eps)/2}, e^{-(l+s*eps)/2})."""
    val = np.diag([math.exp(ell / 2), math.exp(-ell / 2)])
    eps = 0.5 * s * np.diag([math.exp(ell / 2), -math.exp(-ell / 2)])
    return DualMatrix2(val, eps)


def test_compose_identity():
    m = diag_deformed(1.3, 0.7)
    c = compose(IDENTITY, m)
    assert np.allclose(c.val, m.val) and np.allclose(c.eps, m.eps)


def test_compose_results_are_frozen_float_2x2(rng):
    m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
    for c in (compose(m, n), compose(m, n, inverse(m)), compose(m)):
        for part in (c.val, c.eps):
            assert part.shape == (2, 2) and part.dtype == np.float64
            assert not part.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0


def test_compose_block_rule(rng):
    m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
    c = compose(m, n)
    assert np.allclose(c.val, m.val @ n.val)
    assert np.allclose(c.eps, m.val @ n.eps + m.eps @ n.val)


def test_compose_closure(rng):
    for _ in range(20):
        m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
        d0, d1 = det(compose(m, n))
        assert abs(d0 - 1.0) <= 1e-10 and abs(d1) <= 1e-9
    # a matrix drifted off det = 1 + 0*eps, in either part, is out of the group
    m = random_hyperbolic_dual(rng)
    for drift in (DualMatrix2(m.val * 1.000001, m.eps + 1e-6 * m.val),
                  DualMatrix2(m.val * 1.000001, m.eps), DualMatrix2(m.val, m.eps + 1e-6 * m.val)):
        assert not in_group(drift)


def test_inverse_identity_and_adjugate():
    assert np.allclose(inverse(IDENTITY).val, np.eye(2))
    m = diag_deformed(0.8, 0.3)
    inv = inverse(m)
    assert inv.val[0, 0] == m.val[1, 1] and inv.val[0, 1] == -m.val[0, 1]


def test_inverse_roundtrip(rng):
    for _ in range(20):
        m = random_hyperbolic_dual(rng)
        c = compose(m, inverse(m))
        assert np.allclose(c.val, np.eye(2), atol=1e-12)
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
        t = dual_trace(DualMatrix2(val, eps))
        assert t.re.hex() == float(np.trace(val)).hex()
        assert t.inf.hex() == float(np.trace(eps)).hex()


def test_commutator_degenerate(rng):
    m = random_hyperbolic_dual(rng)
    assert np.allclose(commutator(m, m).val, np.eye(2), atol=1e-12)
    assert np.allclose(commutator(IDENTITY, m).val, np.eye(2), atol=1e-12)


def test_commutator_fricke_333():
    # oracle: direct matrix computation at trace coordinates (3,3,3)
    lam = (3 + math.sqrt(5)) / 2
    a0 = np.diag([lam, 1 / lam])
    denom = lam - 1 / lam
    p = (3 - 3 / lam) / denom
    d = 3 - p
    b0 = np.array([[p, 1.0], [p * d - 1.0, d]])
    k = commutator(DualMatrix2(a0), DualMatrix2(b0))
    assert math.isclose(float(np.trace(k.val)), -2.0, abs_tol=1e-9)


def test_translation_length_examples():
    assert math.isclose(translation_length(2 * math.cosh(1.0)), 2.0, rel_tol=1e-14)
    assert math.isclose(translation_length(3.0), 2 * math.acosh(1.5), rel_tol=1e-14)
    with pytest.raises(NotHyperbolic):
        translation_length(2.0)


def test_margulis_diagonal_calibration():
    m = diag_deformed(1.7, 0.9)
    assert math.isclose(margulis_invariant_dual(m), 0.9, rel_tol=1e-12)
    assert margulis_invariant_dual(diag_deformed(1.7, 0.0)) == 0.0


def test_margulis_homogeneity(rng):
    for _ in range(10):
        m = random_hyperbolic_dual(rng)
        a = margulis_invariant_dual(m)
        mk = m
        for n in range(2, 6):
            mk = compose(mk, m)
            assert math.isclose(margulis_invariant_dual(mk), n * a,
                                rel_tol=1e-9, abs_tol=1e-9)


def test_margulis_conjugation_and_inverse_invariance(rng):
    for _ in range(20):
        m = random_hyperbolic_dual(rng)
        a = margulis_invariant_dual(m)
        p = random_hyperbolic_dual(rng)
        assert abs(margulis_invariant_dual(compose(p, m, inverse(p))) - a) <= 1e-10 * max(1, abs(a))
        assert abs(margulis_invariant_dual(inverse(m)) - a) <= 1e-10 * max(1, abs(a))


def test_margulis_matches_finite_difference(rng):
    h = 1e-4
    for _ in range(30):
        a0 = random_sl2(rng)
        if abs(np.trace(a0)) <= 2.5:  # keep clear of the parabolic locus

            continue
        w = random_traceless(rng)
        m = DualMatrix2(a0, a0 @ w)  # path M(s) = a0 exp(s w)
        ell = lambda s: translation_length(float(np.trace(a0 @ sl2_exp(w, s))))
        fd = (ell(h) - ell(-h)) / (2 * h)
        assert abs(margulis_invariant_dual(m) - fd) <= 1e-6
