"""Hypothesis properties of both series over in-domain trace coordinates."""

import math

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from mml.identity_engine import (_boundary_values, _curve_bins, _grow, _report, _series,
                                 margulis_residual, mcshane_sum)
from mml.representation import TraceCoords, attach_deformation, build_rep, random_tangent

TOL = 1e-6


@st.composite
def in_domain_coords(draw):
    """x, y in [2.05, 8]; z strictly inside the interval where the boundary
    trace x^2 + y^2 + z^2 - xyz - 2 is below -2 (its ends are the cusp locus)."""
    x = draw(st.floats(2.05, 8.0))
    y = draw(st.floats(2.05, 8.0))
    disc = x * x * y * y - 4.0 * (x * x + y * y)
    assume(disc > 0.0)
    lo, hi = (x * y - math.sqrt(disc)) / 2.0, (x * y + math.sqrt(disc)) / 2.0
    z = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    c = TraceCoords(x, y, z)
    assume(c.in_domain() and c.boundary_trace() < -2.0 - 1e-6)
    return c


def _check(series, rep):
    report = series(rep, TOL)
    assert report.passed
    assert abs(report.residual) <= max(report.tail_bound, TOL)
    assert series(rep, TOL) == report


@settings(max_examples=30, derandomize=True, deadline=None)
@given(coords=in_domain_coords(), seed=st.integers(0, 2**32 - 1))
def test_both_series_certify_in_domain(coords, seed):
    rep = build_rep(coords)
    _check(mcshane_sum, rep)
    _check(margulis_residual,
           attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed))))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(coords=in_domain_coords())
@example(coords=TraceCoords(3.0, 3.0, 3.0))  # the cusp: target 1, cusp summand
def test_mcshane_partial_sum_is_monotone_in_depth(coords):
    rep = build_rep(coords)
    ell_bdry, alpha_bdry, cusp = _boundary_values(rep)
    sums = []
    for _, bins, m_hat in _grow(rep, 64):
        series = _series(_curve_bins(bins), ell_bdry, alpha_bdry, cusp)
        sums.append(_report(1.0 if cusp else ell_bdry, series, "sum_d",
                            0.0, m_hat, 0.0, TOL).partial_sum)
    assert len(sums) == 7 and sums[-1] > 0.0
    assert all(a <= b for a, b in zip(sums, sums[1:])), sums
