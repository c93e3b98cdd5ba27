import dataclasses
import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mml import identity_engine
from mml.errors import NonConvergence, NotHyperbolic
from mml.identity_engine import (BinStat, _boundary_values, choose_truncation,
                                 coeff_H, coeff_K, gap_D, kappa_from_bins,
                                 margulis_residual, mcshane_sum, tail_bound_derivative,
                                 tail_bound_identity)
from mml.representation import DeformationSpec, TraceCoords, attach_deformation, build_rep, random_tangent
from mml.sl2grp import dual_trace, translation_length
from mml.torus_curves import bin_curves, enumerate_up_to, fit_bin_constant
from oracles import bound_D, bound_HK, cusp_gap, term_derivative


def _tangent_rep(coords, seed):
    rep = build_rep(TraceCoords(*coords))
    return attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))


def _grown_to(rep, n_max):
    """choose_truncation's (bins, m_hat, kappa) at depth n_max, through a tail that
    accepts that depth only."""
    ell_bdry, alpha_bdry = _boundary_values(rep)
    return choose_truncation(rep, ell_bdry, alpha_bdry, 1.0, n_max,
                             lambda n, m, k, stop: 0.0 if n == n_max else math.inf)[:3]


def test_gap_values():
    assert gap_D(0.0, 1.0, 2.0) == 0.0
    expected = 2 * math.log(2 * math.e / (math.e + 1 / math.e))
    assert math.isclose(gap_D(2.0, 1.0, 1.0), expected, rel_tol=1e-14)
    # naive form agrees where it is stable
    x, y, z = 1.7, 2.3, 0.9
    naive = 2 * math.log((math.exp(x / 2) + math.exp((y + z) / 2))
                         / (math.exp(-x / 2) + math.exp((y + z) / 2)))
    assert math.isclose(gap_D(x, y, z), naive, rel_tol=1e-13)


def test_coeff_values_and_symmetries():
    assert math.isclose(coeff_H(0.0, 5.0), 1.0, abs_tol=1e-14)
    assert math.isclose(coeff_H(2.0, 0.0), 2 / (1 + math.e), rel_tol=1e-14)
    assert coeff_H(1.2, 3.4) == coeff_H(1.2, -3.4)
    assert coeff_K(4.0, 0.0) == 0.0
    assert coeff_K(1.2, 3.4) == coeff_K(-1.2, 3.4)
    assert coeff_K(1.2, -3.4) == -coeff_K(1.2, 3.4)


def test_coeff_K_two_forms(rng):
    for _ in range(200):
        u, v = rng.uniform(-10, 10, 2)
        diff_form = (1 / (1 + math.exp((u + v) / 2))
                     - 1 / (1 + math.exp((u - v) / 2)))
        assert abs(coeff_K(u, v) - diff_form) <= 1e-12


def test_partial_derivatives_match_coeffs(rng):
    h = 1e-5
    for _ in range(200):
        x, y, z = rng.uniform(0.1, 10, 3)
        ddx = (gap_D(x + h, y, z) - gap_D(x - h, y, z)) / (2 * h)
        ddy = (gap_D(x, y + h, z) - gap_D(x, y - h, z)) / (2 * h)
        ddz = (gap_D(x, y, z + h) - gap_D(x, y, z - h)) / (2 * h)
        assert abs(ddx - coeff_H(y + z, x)) <= 1e-8
        assert abs(ddy - coeff_K(y + z, x)) <= 1e-8
        assert abs(ddz - coeff_K(y + z, x)) <= 1e-8


def test_bounds_on_random_grid(rng):
    for _ in range(2000):
        x, y, z = rng.uniform(0.0, 12, 3)
        assert abs(gap_D(x, y, z)) <= bound_D(x, y, z) + 1e-15
        b = bound_HK(y + z, x)
        assert abs(coeff_H(y + z, x)) < b
        assert abs(coeff_K(y + z, x)) < b


def test_term_derivative_cases():
    assert term_derivative(1.0, 2.0, 3.0, 0.0, 0.0, 0.0) == 0.0
    t = term_derivative(1.0, 2.0, 3.0, 0.0, 0.0, 1.5)
    assert math.isclose(t, coeff_H(3.0, 3.0) * 1.5, rel_tol=1e-14)


def test_term_derivative_matches_finite_difference():
    # lengths moving at given rates; differentiate the gap directly
    l1, l2, lb = 2.2, 3.1, 4.0
    a1, a2, ab = 0.3, -0.7, 1.1
    h = 1e-4
    f = lambda t: gap_D(lb + t * ab, l1 + t * a1, l2 + t * a2)
    fd = (f(h) - f(-h)) / (2 * h)
    assert abs(term_derivative(l1, l2, lb, a1, a2, ab) - fd) <= 1e-6


def test_cusp_gap_is_limit():
    ell = 2.7
    x = 1e-7
    assert math.isclose(gap_D(x, ell, ell) / x, cusp_gap(ell), rel_tol=1e-6)
    assert math.isclose(gap_D(x, ell, ell) / x, coeff_H(ell + ell, 0.0), rel_tol=1e-6)


@given(st.floats(0.0, 760.0) | st.floats(690.0, 760.0))
@example(0.0)
@example(700.0)
@example(math.nextafter(700.0, 701.0))
@example(709.79)
@example(745.2)
@example(760.0)
@settings(max_examples=2000, derandomize=True, deadline=None)
def test_the_cusp_summand_is_H_at_2l_0(ell):
    # with v = 0 both halves of H are 1/(1+e^l): doubling one rounds like 2/(1+e^l)
    assert coeff_H(ell + ell, 0.0).hex() == cusp_gap(ell).hex()


@pytest.mark.parametrize("w", [699.5, 700.5, 709.5, 709.79, 710.5, 712.0])
def test_summands_past_the_exp_range(w):
    """e^w overflows past w = 709.78 and cosh(w) past 710.48; each summand divides
    through by it past 700.  At a boundary length 1400 and curves of length w (coordinates
    near 1e152), every reference is a plain expression in e^{w - 700}."""
    r = 1.0 / (1.0 + math.exp(w - 700.0))
    assert math.isclose(gap_D(1400.0, w, w), 2.0 * math.log1p(math.exp(700.0 - w)),
                        rel_tol=1e-12)
    # a = (u + v)/2 = w + 700 is past the range; b = w - 700 is not
    assert math.isclose(coeff_H(2.0 * w, 1400.0), r, rel_tol=1e-12)
    assert math.isclose(coeff_K(2.0 * w, 1400.0), -r, rel_tol=1e-12)
    # each 1/(1 + e^w) alone, on either side of the switch at 700
    assert math.isclose(coeff_H(2.0 * w, 0.0), 2.0 * math.exp(-w), rel_tol=1e-12)
    assert math.isclose(cusp_gap(w), 2.0 * math.exp(-w), rel_tol=1e-12)


def test_mcshane_sum_444():
    rep = build_rep(TraceCoords(4, 4, 4))
    r = mcshane_sum(rep, tail_tolerance=1e-6)
    assert math.isclose(r.target, 2 * math.acosh(9.0), rel_tol=1e-12)
    assert abs(r.residual) <= 1e-6
    assert r.passed
    assert abs(r.residual) <= r.tail_bound


def test_mcshane_sum_cusp_limit():
    rep = build_rep(TraceCoords(3, 3, 3))
    r = mcshane_sum(rep, tail_tolerance=1e-6)
    assert r.target == 1.0
    assert abs(r.residual) <= 1e-6


def test_partial_sums_monotone_in_depth():
    rep = build_rep(TraceCoords(4, 4, 4))
    sums = [mcshane_sum(rep, tail_tolerance=tol).partial_sum
            for tol in (1e-2, 1e-4, 1e-6)]
    assert sums[0] <= sums[1] <= sums[2]


def test_margulis_residual_zero_deformation():
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec())
    r = margulis_residual(rep, tail_tolerance=1e-6)
    assert r.target == 0.0 and r.partial_sum == 0.0 and r.residual == 0.0
    assert r.passed


def test_margulis_residual_uniform_path():
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, DeformationSpec.linear_path(rep, (1, 1, 1)))
    r = margulis_residual(repd, tail_tolerance=1e-6)
    assert abs(r.residual) <= 1e-5
    assert r.passed


def test_margulis_residual_random_tangent(rng):
    rep = build_rep(TraceCoords(4.5, 5.0, 5.5))
    repd = attach_deformation(rep, random_tangent(rep, rng))
    r = margulis_residual(repd, tail_tolerance=1e-6)
    assert abs(r.residual) <= max(r.tail_bound, 1e-6)


def test_margulis_residual_rejects_cusp():
    rep = build_rep(TraceCoords(3, 3, 3))
    with pytest.raises(NotHyperbolic):
        margulis_residual(rep)


@pytest.mark.parametrize("series", [mcshane_sum, margulis_residual])
def test_series_reject_an_elliptic_boundary(series):
    # x = y = z = 2.1: boundary trace 1.969, which validate_fuchsian would reject first
    rep = build_rep(TraceCoords(2.1, 2.1, 2.1))
    trace = dual_trace(rep.boundary).re
    assert abs(trace) < 2.0
    with pytest.raises(NotHyperbolic) as err:
        series(rep)
    assert str(err.value) == f"trace {trace} is not hyperbolic (|t| <= 2 + PARABOLIC_TOL)"


@pytest.mark.parametrize("series, rep", [(mcshane_sum, build_rep(TraceCoords(4, 4, 4))),
                                         (mcshane_sum, build_rep(TraceCoords(3, 3, 3))),
                                         (margulis_residual, _tangent_rep((4, 4, 4), 7))],
                         ids=["mcshane", "cusp", "margulis"])
def test_each_series_reads_the_boundary_once(monkeypatch, series, rep):
    calls = []
    read = identity_engine._boundary_values
    monkeypatch.setattr(identity_engine, "_boundary_values",
                        lambda r: calls.append(r) or read(r))
    series(rep, 1e-6)
    assert calls == [rep]


@pytest.mark.parametrize("coords, tol, n_ceiling", [((4, 4, 4), 1e-4, 200), ((4, 4, 4), 100.0, 8),
                                                    ((200, 200, 200), 1e-6, 200)],
                         ids=["generic", "low-ceiling", "far"])
def test_reports_carry_the_first_bin_where_the_h_sum_passes_1(coords, tol, n_ceiling):
    rep = build_rep(TraceCoords(*coords))
    r = mcshane_sum(rep, tail_tolerance=tol, n_ceiling=n_ceiling)
    ell_bdry, alpha_bdry = _boundary_values(rep)
    # the running H sum over the report's bins, binned afresh on a second rep
    bins = bin_curves(enumerate_up_to(build_rep(TraceCoords(*coords)), r.n_max + 1), r.n_max)
    hs, h_running = [], []
    for b in bins:
        hs += [coeff_H(c.length + c.length, ell_bdry) for c in b.members]
        h_running.append(math.fsum(hs))
    assert r.n_max <= n_ceiling and len(h_running) == r.n_max + 1
    assert h_running == sorted(h_running) and r.h_partial_sum == h_running[-1]
    first = next((n for n, h in enumerate(h_running) if h > 1.0), None)
    assert r.h_threshold_n == first
    assert first is None or first == 0 or h_running[first - 1] <= 1.0
    # term inequality D/l < H for each enumerated curve
    lb = translation_length(dual_trace(rep.boundary).re)
    for c in enumerate_up_to(rep, 25.0):
        assert gap_D(lb, c.length, c.length) / lb < coeff_H(2 * c.length, lb)


def _kappa(rep, max_total_length=40.0):
    """kappa over the curves with 2 * length < max_total_length and the boundary."""
    ell_bdry, alpha_bdry = _boundary_values(rep)
    bins = bin_curves(enumerate_up_to(rep, max_total_length), int(max_total_length))
    return kappa_from_bins(bins, ell_bdry, alpha_bdry)


def test_kappa_from_bins():
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec())
    assert _kappa(rep) == 0.0
    s = 0.8
    a1 = 0.5 * s * np.reshape(rep.A.val, (2, 2)) @ np.diag([1.0, -1.0])
    repd = attach_deformation(rep, DeformationSpec(a_eps=a1.ravel()))
    ell_a = translation_length(dual_trace(rep.A).re)
    assert _kappa(repd) >= s / ell_a - 1e-12


def test_kappa_stabilizes_with_depth(rng):
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, random_tangent(rep, rng))
    k1 = _kappa(repd, max_total_length=25.0)
    k2 = _kappa(repd, max_total_length=40.0)
    assert k2 >= k1 - 1e-12
    assert k2 <= 1.5 * k1 + 1e-12


def test_rearrangement_invariance():
    # an exact sum rounded once: Farey order and bin order agree bit for bit
    rep = build_rep(TraceCoords(4, 4, 4))
    lb = translation_length(dual_trace(rep.boundary).re)
    curves = enumerate_up_to(rep, 40.0)
    farey_order = math.fsum(gap_D(lb, c.length, c.length) for c in curves)
    bin_order = math.fsum(gap_D(lb, c.length, c.length)
                          for c in sorted(curves, key=lambda c: (c.bin_index, c.length, c.p, c.q)))
    assert farey_order == bin_order


@pytest.mark.parametrize("rep, cusp", [(_tangent_rep((4.5, 5.0, 5.5), 3), False),
                                       (build_rep(TraceCoords(3, 3, 3)), True)],
                         ids=["tangent", "cusp"])
def test_series_bins_are_exact_sums_of_the_public_terms(monkeypatch, rep, cusp):
    # each curve is the pair (l, l, alpha, alpha); the sums must match bit for bit
    ell_bdry, alpha_bdry = _boundary_values(rep)
    assert (ell_bdry == 0.0) == cusp
    bins, _, _ = _grown_to(rep, 40)
    # reports at depth 40: a tail that accepts that depth only
    at_40 = lambda n_max, *_: 0.0 if n_max == 40 else math.inf
    monkeypatch.setattr(identity_engine, "tail_bound_identity", at_40)
    monkeypatch.setattr(identity_engine, "tail_bound_derivative", at_40)
    reports = [mcshane_sum(rep, 1.0)] + ([] if cusp else [margulis_residual(rep, 1.0)])
    stats = reports[0].bins
    assert [s.n for s in stats] == [b.index for b in bins] == list(range(41))
    # bin sums, partial sums and prefix H sums are math.fsum of the terms themselves
    hs, all_d, all_deriv, h_running = [], [], [], []
    for s, b in zip(stats, bins):
        sd, sv = [], []
        for c in b.members:
            l, a = c.length, c.alpha
            sd.append(cusp_gap(l) if cusp else gap_D(ell_bdry, l, l))
            if not cusp:
                sv.append(term_derivative(l, l, ell_bdry, a, a, alpha_bdry))
            hs.append(coeff_H(l + l, ell_bdry))
        assert (s.count, s.sum_d, s.sum_deriv) == (len(b.members), math.fsum(sd), math.fsum(sv))
        all_d += sd
        all_deriv += sv
        h_running.append(math.fsum(hs))
    first = next((n for n, h_total in enumerate(h_running) if h_total > 1.0), None)
    for r, partial_sum in zip(reports, (math.fsum(all_d), math.fsum(all_deriv))):
        assert r.bins == stats and r.n_max == 40 and r.partial_sum == partial_sum
        assert r.h_partial_sum == h_running[-1] and r.h_threshold_n == first
        assert not cusp or r.partial_sum == r.h_partial_sum  # one exact sum of the same terms
    assert sum(s.count for s in stats) > 0 and h_running[-1] > 0.0
    assert cusp or any(s.sum_deriv != 0.0 for s in stats)


@pytest.mark.parametrize("coords", [(4.5, 5, 5.5), (4, 4, 4), (5, 6, 25), (3.2, 7, 9), (2.5, 6, 6)],
                         ids=lambda c: ",".join(map(str, c)))
def test_reports_do_not_depend_on_the_order_of_a_bins_members(monkeypatch, coords):
    rep = _tangent_rep(coords, 3)
    forward = [series(rep, 1e-8).to_json() for series in (mcshane_sum, margulis_residual)]
    binned = identity_engine.bin_curves
    monkeypatch.setattr(identity_engine, "bin_curves", lambda *args: [
        dataclasses.replace(b, members=b.members[::-1]) for b in binned(*args)])
    reverse = _tangent_rep(coords, 3)
    assert [series(reverse, 1e-8).to_json()
            for series in (mcshane_sum, margulis_residual)] == forward


def test_nonconvergence_at_low_ceiling():
    rep = build_rep(TraceCoords(4, 4, 4))
    with pytest.raises(NonConvergence):
        mcshane_sum(rep, tail_tolerance=1e-12, n_ceiling=10)


def test_nonconvergence_reports_the_full_ceiling_tail():
    rep = _tangent_rep((4, 4, 4), 11)
    ell_bdry, alpha_bdry = _boundary_values(rep)
    _, m_hat, kappa = _grown_to(_tangent_rep((4, 4, 4), 11), 24)
    tails = {mcshane_sum: lambda b: tail_bound_identity(24, m_hat, ell_bdry, b),
             margulis_residual: lambda b: tail_bound_derivative(24, m_hat, ell_bdry, kappa,
                                                                alpha_bdry, b)}
    for series, tail in tails.items():
        full = tail(math.inf)
        assert 1e-12 < tail(1e-12) < full  # so a tail stopped at the tolerance would show
        with pytest.raises(NonConvergence) as err:
            series(rep, 1e-12, 24)
        assert str(err.value) == f"tail {full} > 1e-12 at bin ceiling 24"


@settings(max_examples=200, derandomize=True, deadline=None)
@given(n_max=st.integers(0, 200), m_hat=st.floats(1e-6, 10.0), ell_bdry=st.floats(0.0, 40.0),
       kappa=st.floats(0.0, 5.0), alpha=st.floats(-50.0, 50.0), frac=st.floats(0.0, 2.0))
@example(n_max=16, m_hat=0.1, ell_bdry=5.0, kappa=1.0, alpha=1.0, frac=1.0)
def test_a_bounded_tail_is_the_full_tail_or_past_the_bound(n_max, m_hat, ell_bdry, kappa,
                                                           alpha, frac):
    for tail in (lambda b: tail_bound_identity(n_max, m_hat, ell_bdry, b),
                 lambda b: tail_bound_derivative(n_max, m_hat, ell_bdry, kappa, alpha, b)):
        full = tail(math.inf)
        bound = frac * full
        stopped = tail(bound)
        if full <= bound:
            assert stopped.hex() == full.hex()
        else:
            assert stopped > bound


def _reference_tail(n_max, term, bound):
    """Reference tail: term(N) summed for N > n_max, one closure per series, under
    _tail_sum's stopping rule."""
    acc = 0.0
    for n in range(n_max + 1, n_max + 4001):
        acc += (t := term(n))
        if acc > bound or t <= 1e-22 * max(acc, 1e-300):
            break
    return acc


@pytest.mark.parametrize("n_max", [0, 16, 88, 200])
def test_tails_equal_their_term_by_term_reference(n_max):
    s = identity_engine.SAFETY_FACTOR
    for ell, m_hat, bound in itertools.product((0.0, 0.7, 3.2), (0.013, 0.9), (math.inf, 1e-6)):
        m = s * m_hat
        coef = 4.0 * math.sinh(ell / 2.0) if ell > 0 else 2.0
        want = _reference_tail(n_max, lambda n: m * coef * (n + 1) ** 2 * math.exp(-n / 2.0),
                               bound)
        assert tail_bound_identity(n_max, m_hat, ell, bound).hex() == want.hex()
        c = 4.0 * math.cosh(ell / 2.0)
        for kappa, alpha in itertools.product((0.05, 2.5), (-3.7, 0.4)):
            k = s * kappa
            want = _reference_tail(n_max, lambda n: m * c * (2.0 * k * n + abs(alpha))
                                   * (n + 1) ** 2 * math.exp(-n / 2.0), bound)
            got = tail_bound_derivative(n_max, m_hat, ell, kappa, alpha, bound)
            assert got.hex() == want.hex()


def test_report_json_schema():
    rep = build_rep(TraceCoords(4, 4, 4))
    d = dataclasses.asdict(mcshane_sum(rep, tail_tolerance=1e-4))
    for key in ("target", "partial_sum", "residual", "n_max", "tail_bound",
                "m_hat", "kappa_hat", "h_partial_sum", "h_threshold_n", "bins"):
        assert key in d
    assert all(set(b) == {"n", "count", "sum_d", "sum_deriv"} for b in d["bins"])


@pytest.mark.parametrize("coords, n_ceiling", [((4, 4, 4), 64), ((3, 3, 3), 64),
                                               ((200, 200, 200), 96)])
def test_grown_bins_equal_binning_from_scratch(coords, n_ceiling, monkeypatch):
    rep = build_rep(TraceCoords(*coords))
    ell_bdry, alpha_bdry = _boundary_values(rep)
    steps = {}  # (m_hat, kappa) of each step, as its tail sees them
    cutoffs = []  # every step's enumeration cutoff, curve-less steps included

    def tail(n_max, m_hat, kappa, stop):
        steps[n_max] = (m_hat, kappa)
        return 0.0 if n_max == n_ceiling else math.inf

    monkeypatch.setattr(identity_engine, "enumerate_up_to",
                        lambda r, c: cutoffs.append(c) or enumerate_up_to(r, c))
    grown, *_ = choose_truncation(rep, ell_bdry, alpha_bdry, 1.0, n_ceiling, tail)
    monkeypatch.undo()
    assert cutoffs == [n + 1 for n in range(16, n_ceiling + 1, 8)]
    fitted = {}
    for n_max in range(16, n_ceiling + 1, 8):
        # a fresh rep has a fresh trace table, so nothing filled by the growth is reused
        bins = bin_curves(enumerate_up_to(build_rep(TraceCoords(*coords)), n_max + 1), n_max)
        # a step appends bins and never edits earlier ones: its bins are a prefix
        assert grown[:n_max + 1] == bins
        if (m_hat := fit_bin_constant(bins)) > 0:  # no tail is asked before the first curve
            fitted[n_max] = (m_hat, kappa_from_bins(bins, ell_bdry, alpha_bdry))
    assert steps == fitted and list(steps) == list(fitted)
    assert sum(len(b.members) for b in grown) > 0


@functools.cache
def _reports():
    """Reports of a generic cell, the cusp and a deformed cell."""
    return (mcshane_sum(build_rep(TraceCoords(4, 4, 4)), tail_tolerance=1e-4),
            mcshane_sum(build_rep(TraceCoords(3, 3, 3)), tail_tolerance=1e-4),
            margulis_residual(_tangent_rep((4, 4, 4), 7), tail_tolerance=1e-10))


_REPORT_FIELDS = {k: st.floats() for k in ("target", "partial_sum", "residual", "tail_bound",
                                           "m_hat", "kappa_hat", "h_partial_sum")}
_REPORT_FIELDS.update(
    n_max=st.integers(), h_threshold_n=st.none() | st.integers(), passed=st.booleans(),
    bins=st.lists(st.builds(BinStat, st.integers(), st.integers(), st.floats(), st.floats()),
                  max_size=4).map(tuple))


@pytest.mark.parametrize("which", range(3))
@settings(max_examples=40, derandomize=True, deadline=None)
@given(changes=st.fixed_dictionaries({}, optional=_REPORT_FIELDS))
@example(changes={})
@example(changes={"bins": (), "h_threshold_n": None})
@example(changes={"tail_bound": math.inf, "residual": math.nan, "target": -0.0})
@example(changes={"n_max": 10**40, "h_threshold_n": -10**40, "m_hat": -math.inf})
@example(changes={"bins": (BinStat(2**70, 0, math.nan, -0.0), BinStat(-1, 3, math.inf, 1e308))})
def test_to_json_is_json_dumps_indent_2(which, changes):
    report = dataclasses.replace(_reports()[which], **changes)
    assert report.to_json() == json.dumps(dataclasses.asdict(report), indent=2)


@pytest.mark.parametrize("coords, tol", [((4, 4, 4), 1e-6), ((4.5, 5.0, 5.5), 1e-10),
                                         ((200, 200, 200), 1e-6)])
def test_margulis_tail_and_kappa_equal_a_recount_from_the_final_bins(coords, tol):
    rep = _tangent_rep(coords, 11)
    r = margulis_residual(rep, tail_tolerance=tol)
    ell_bdry, alpha_bdry = _boundary_values(rep)
    # recounted on a second rep, whose trace table margulis_residual never filled
    bins = bin_curves(enumerate_up_to(_tangent_rep(coords, 11), r.n_max + 1), r.n_max)
    m_hat = fit_bin_constant(bins)
    kappa = kappa_from_bins(bins, ell_bdry, alpha_bdry)
    assert r.m_hat == m_hat
    assert r.kappa_hat == kappa
    assert r.tail_bound == tail_bound_derivative(r.n_max, m_hat, ell_bdry, kappa, alpha_bdry)


@pytest.mark.parametrize("coords", [(4, 4, 4), (3, 3, 3), (200, 200, 200)])
def test_mcshane_tail_and_kappa_equal_a_recount_from_the_final_bins(coords):
    rep = _tangent_rep(coords, 11)
    r = mcshane_sum(rep, tail_tolerance=1e-6)
    ell_bdry, alpha_bdry = _boundary_values(rep)
    # recounted on a copy, whose trace table mcshane_sum never filled
    bins = bin_curves(enumerate_up_to(dataclasses.replace(rep), r.n_max + 1), r.n_max)
    assert r.m_hat == fit_bin_constant(bins)
    assert r.kappa_hat == kappa_from_bins(bins, ell_bdry, alpha_bdry)
    assert r.tail_bound == tail_bound_identity(r.n_max, r.m_hat, ell_bdry)


_TAIL_CASES = [(series, coords) for series in (mcshane_sum, margulis_residual)
               for coords in ((4, 4, 4), (2.5, 6, 6), (5, 6, 25), (3.2, 7, 9))]


@pytest.mark.parametrize("tol", [1e-6, 1e-10])
@pytest.mark.parametrize("series, coords", _TAIL_CASES + [(mcshane_sum, (3, 3, 3))],
                         ids=lambda v: v.__name__ if callable(v) else ",".join(map(str, v)))
def test_certified_tail_covers_the_next_24_bins(series, coords, tol):
    # passed reads |residual| <= tol, which would hide a collapsed tail; this checks the tail
    # against the series' own terms in bins n_max+1 .. n_max+24 of a fresh enumeration
    rep = _tangent_rep(coords, 11)
    r = series(rep, tol)
    ell_bdry, alpha_bdry = _boundary_values(rep)
    deeper = bin_curves(enumerate_up_to(_tangent_rep(coords, 11), r.n_max + 25),
                        r.n_max + 24, r.n_max + 1)
    rest = math.fsum(term_derivative(c.length, c.length, ell_bdry, c.alpha, c.alpha, alpha_bdry)
                     if series is margulis_residual
                     else gap_D(ell_bdry, c.length, c.length) if ell_bdry > 0
                     else cusp_gap(c.length) for b in deeper for c in b.members)
    assert rest != 0.0
    assert r.tail_bound >= abs(rest)


def test_margulis_residual_after_validation_equals_it_alone():
    from mml.representation import validate_fuchsian

    validated, alone = _tangent_rep((4.0, 5.0, 6.0), 3), _tangent_rep((4.0, 5.0, 6.0), 3)
    assert validate_fuchsian(validated) is None
    assert margulis_residual(validated, 1e-8) == margulis_residual(alone, 1e-8)
