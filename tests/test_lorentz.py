import ast
import math
from pathlib import Path

import numpy as np
import pytest

from mml.errors import NotHyperbolic
from mml.sl2grp import DualMatrix2, compose, dual_trace, margulis_from_trace
from conftest import as_array, random_hyperbolic_dual, random_traceless
from oracles import (J, LorentzIsometry, adjoint_of, margulis_invariant_lorentz, minkowski,
                     neutral_vector, sl2_to_vec, vec_to_sl2)

from test_sl2grp import IDENTITY, diag_deformed


def test_basis_roundtrip(rng):
    v = rng.standard_normal(3)
    assert np.allclose(sl2_to_vec(vec_to_sl2(v)), v)


def test_adjoint_of_identity():
    g = adjoint_of(IDENTITY)
    assert np.allclose(g.linear, np.eye(3)) and np.allclose(g.translation, 0.0)


def test_adjoint_of_rotation_is_isometry():
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    g = adjoint_of(DualMatrix2(rot.ravel()))
    assert g.is_isometry()
    # rotation by 2*theta around the timelike axis
    assert math.isclose(g.linear[0, 0], math.cos(2 * th), abs_tol=1e-12)


def test_adjoint_of_diagonal_eigenvalues():
    ell = 1.9
    g = adjoint_of(diag_deformed(ell, 0.0))
    ev = np.sort(np.linalg.eigvals(g.linear).real)
    assert np.allclose(ev, [math.exp(-ell), 1.0, math.exp(ell)], rtol=1e-10)


def test_adjoint_is_homomorphism(rng):
    m, n = random_hyperbolic_dual(rng), random_hyperbolic_dual(rng)
    gm, gn, gmn = adjoint_of(m), adjoint_of(n), adjoint_of(compose(m, n))
    both = gm.compose(gn)
    assert np.allclose(gmn.linear, both.linear, atol=1e-10)
    assert np.allclose(gmn.translation, both.translation, atol=1e-10)


def test_neutral_vector_diagonal():
    g = adjoint_of(diag_deformed(1.3, 0.0))
    x0 = neutral_vector(g.linear)
    assert np.allclose(np.abs(x0), [1.0, 0.0, 0.0], atol=1e-10)
    assert math.isclose(minkowski(x0, x0), 1.0, rel_tol=1e-12)


def test_neutral_vector_identity_fails():
    with pytest.raises(NotHyperbolic):
        neutral_vector(np.eye(3))


def test_neutral_vector_unit_spacelike(rng):
    for _ in range(20):
        g = adjoint_of(random_hyperbolic_dual(rng))
        x0 = neutral_vector(g.linear)
        assert math.isclose(minkowski(x0, x0), 1.0, rel_tol=1e-9)


def test_invariant_zero_translation(rng):
    g = adjoint_of(random_hyperbolic_dual(rng))
    assert margulis_invariant_lorentz(LorentzIsometry(g.linear, np.zeros(3))) == 0.0


def test_invariant_diagonal_calibration():
    g = adjoint_of(diag_deformed(2.1, 0.65))
    assert math.isclose(margulis_invariant_lorentz(g), 0.65, rel_tol=1e-10)


def test_invariant_coboundary_shift(rng):
    for _ in range(10):
        g = adjoint_of(random_hyperbolic_dual(rng))
        a = margulis_invariant_lorentz(g)
        w = rng.standard_normal(3)
        shifted = LorentzIsometry(g.linear, g.translation + (g.linear - np.eye(3)) @ w)
        assert abs(margulis_invariant_lorentz(shifted) - a) <= 1e-9 * max(1, abs(a))


def test_invariant_coboundary_on_eps_part(rng):
    # conjugating the affine deformation: M1 -> M1 + W M0 - M0 W
    for _ in range(10):
        m = random_hyperbolic_dual(rng)
        w = random_traceless(rng)
        m0 = as_array(m.val)
        shifted = DualMatrix2(m.val, (as_array(m.eps) + w @ m0 - m0 @ w).ravel())
        a, b = margulis_from_trace(dual_trace(m)), margulis_from_trace(dual_trace(shifted))
        assert abs(a - b) <= 1e-9 * max(1, abs(a))
        bl = margulis_invariant_lorentz(adjoint_of(shifted))
        assert abs(a - bl) <= 1e-8 * max(1, abs(a))


def test_oracle_agreement(rng):
    for _ in range(200):
        m = random_hyperbolic_dual(rng)
        a = margulis_from_trace(dual_trace(m))
        b = margulis_invariant_lorentz(adjoint_of(m))
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a))


def test_gram_condition(rng):
    g = adjoint_of(random_hyperbolic_dual(rng))
    assert np.allclose(g.linear.T @ J @ g.linear, J, atol=1e-10)
    assert math.isclose(np.linalg.det(g.linear), 1.0, abs_tol=1e-10)


def test_oracles_import_nothing_from_mml_but_its_errors():
    # an oracle that shared code with mml would check mml against itself
    imported = set()
    for node in ast.walk(ast.parse(Path(__file__).with_name("oracles.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    from_mml = {m for m in imported if m.startswith(".") or m.split(".")[0] == "mml"}
    assert from_mml == {"mml.errors"}
