import math

from hypothesis import example, given, strategies as st

from mml.dualnum import DualScalar

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def duals():
    return st.builds(DualScalar, finite, finite)


def test_product_ring_law():
    assert DualScalar(1, 2) * DualScalar(3, 4) == DualScalar(3, 10)


def test_product_identity():
    x = DualScalar(1.5, -2.5)
    assert x * DualScalar(1, 0) == x


def test_eps_squared_is_zero():
    eps = DualScalar(0, 1)
    assert eps * eps == DualScalar(0, 0)


@given(duals(), duals())
def test_commutative(x, y):
    a, b = x * y, y * x
    assert math.isclose(a.re, b.re, rel_tol=1e-14, abs_tol=1e-300)
    assert math.isclose(a.inf, b.inf, rel_tol=1e-14, abs_tol=1e-300)


def _associativity_bounds(x, y, z):
    """1e-14 times the magnitude of the summands of each part of x*y*z.

    Either grouping rounds each summand and each partial sum, so the two
    differ by a few ulps of the largest summand, which the result itself
    can be far below after cancellation; the 1e-300 floor covers products
    that underflow to subnormals.
    """
    value = abs(x.re * y.re * z.re)
    eps = abs(x.re * y.re * z.inf) + abs(x.re * y.inf * z.re) + abs(x.inf * y.re * z.re)
    return 1e-14 * value + 1e-300, 1e-14 * eps + 1e-300


@given(duals(), duals(), duals())
@example(DualScalar(364660.498046875, 1.5390625), DualScalar(0.001953125, 376896.4921875),
         DualScalar(0.001953125, -368528.0))
def test_associative(x, y, z):
    a = (x * y) * z
    b = x * (y * z)
    bound_re, bound_inf = _associativity_bounds(x, y, z)
    assert abs(a.re - b.re) <= bound_re
    assert abs(a.inf - b.inf) <= bound_inf


def test_associativity_bound_catches_a_dropped_eps_term():
    x, y, z = DualScalar(1.5, 0.25), DualScalar(-2.0, 0.75), DualScalar(3.0, -0.5)
    good = (x * y) * z
    # x*y*z without the x.re*y.re*z.inf summand of the eps part
    dropped = DualScalar(good.re, x.re * y.inf * z.re + x.inf * y.re * z.re)
    bound_re, bound_inf = _associativity_bounds(x, y, z)
    assert abs(good.re - dropped.re) <= bound_re
    assert abs(good.inf - dropped.inf) > bound_inf


@given(duals(), duals())
def test_leibniz_rule(x, y):
    p = x * y
    assert p.inf == x.re * y.inf + x.inf * y.re
