import dataclasses
import math

import numpy as np
import pytest

from mml.errors import NonConvergence, NotHyperbolic
from mml.identity_engine import (KahanSum, _boundary_values, _grow, bound_D, bound_HK,
                                 coeff_H, coeff_K, cusp_gap, gap_D,
                                 kappa_estimate, kappa_from_bins,
                                 margulis_residual, margulis_residual_imported,
                                 mcshane_sum, mcshane_sum_imported,
                                 mirzakhani_threshold, tail_bound_derivative,
                                 term_derivative)
from mml.representation import DeformationSpec, TraceCoords, attach_deformation, build_rep, random_tangent
from mml.sl2grp import dual_trace, margulis_invariant_dual, translation_length
from mml.torus_curves import (ImportedTerm, bin_curves, enumerate_up_to,
                              fit_bin_constant)


def _tangent_rep(coords, seed):
    rep = build_rep(TraceCoords(*coords))
    return attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))


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
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec.zero())
    r = margulis_residual(rep, tail_tolerance=1e-6)
    assert r.target == 0.0 and r.partial_sum == 0.0 and r.residual == 0.0
    assert r.passed


def test_margulis_residual_uniform_path():
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, DeformationSpec.linear_path(rep.coords, (1, 1, 1)))
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


def test_mirzakhani_threshold():
    rep = build_rep(TraceCoords(4, 4, 4))
    running, threshold = mirzakhani_threshold(rep)
    assert threshold is not None
    assert running[threshold] > 1.0
    if threshold > 0:
        assert running[threshold - 1] <= 1.0
    # term inequality D/l < H for each enumerated curve
    lb = translation_length(dual_trace(rep.boundary).re)
    for c in enumerate_up_to(rep, 25.0):
        assert gap_D(lb, c.length, c.length) / lb < coeff_H(2 * c.length, lb)


def test_mirzakhani_threshold_respects_low_ceiling():
    rep = build_rep(TraceCoords(4, 4, 4))
    running, threshold = mirzakhani_threshold(rep, n_ceiling=8)
    assert len(running) == 9
    assert running == sorted(running)
    assert threshold is None or running[threshold] > 1.0


def test_kappa_estimate():
    rep = attach_deformation(build_rep(TraceCoords(4, 4, 4)), DeformationSpec.zero())
    assert kappa_estimate(rep) == 0.0
    s = 0.8
    a1 = 0.5 * s * rep.A.val @ np.diag([1.0, -1.0])
    repd = attach_deformation(rep, DeformationSpec(kind="tangent", a_eps=a1))
    ell_a = translation_length(dual_trace(rep.A).re)
    assert kappa_estimate(repd) >= s / ell_a - 1e-12


def test_kappa_stabilizes_with_depth(rng):
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, random_tangent(rep, rng))
    k1 = kappa_estimate(repd, max_total_length=25.0)
    k2 = kappa_estimate(repd, max_total_length=40.0)
    assert k2 >= k1 - 1e-12
    assert k2 <= 1.5 * k1 + 1e-12


def test_rearrangement_invariance():
    # Farey order vs bin order differ by less than 1e-10 at equal coverage
    rep = build_rep(TraceCoords(4, 4, 4))
    lb = translation_length(dual_trace(rep.boundary).re)
    curves = enumerate_up_to(rep, 40.0)
    farey_order = KahanSum()
    for c in curves:
        farey_order.add(gap_D(lb, c.length, c.length))
    bin_order = KahanSum()
    for c in sorted(curves, key=lambda c: (c.bin_index, c.length, c.slope.p, c.slope.q)):
        bin_order.add(gap_D(lb, c.length, c.length))
    assert abs(farey_order.total - bin_order.total) < 1e-10


def test_nonconvergence_at_low_ceiling():
    rep = build_rep(TraceCoords(4, 4, 4))
    with pytest.raises(NonConvergence):
        mcshane_sum(rep, tail_tolerance=1e-12, n_ceiling=10)


def test_imported_terms_match_builtin_enumeration():
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, DeformationSpec.linear_path(rep.coords, (1, 1, 1)))
    r = margulis_residual(repd, tail_tolerance=1e-6)
    lb = translation_length(dual_trace(repd.boundary).re)
    ab = margulis_invariant_dual(repd.boundary)
    terms = [ImportedTerm(c.length, c.length, c.alpha, c.alpha)
             for c in enumerate_up_to(repd, r.n_max + 1)]
    ri = margulis_residual_imported(lb, ab, terms, tolerance=1e-5)
    assert math.isclose(ri.partial_sum, r.partial_sum, rel_tol=1e-10)
    assert ri.tail_bound == 0.0
    rm = mcshane_sum_imported(lb, terms, tolerance=1e-5)
    assert abs(rm.residual) <= 1e-5
    # the H sum runs over the same bins, so the threshold carries over too
    for imported in (ri, rm):
        assert imported.h_threshold_n == r.h_threshold_n is not None
        assert abs(imported.h_partial_sum - r.h_partial_sum) <= 1e-12


def test_report_json_schema():
    rep = build_rep(TraceCoords(4, 4, 4))
    d = mcshane_sum(rep, tail_tolerance=1e-4).to_dict()
    for key in ("target", "partial_sum", "residual", "n_max", "tail_bound",
                "m_hat", "kappa_hat", "h_partial_sum", "h_threshold_n", "bins"):
        assert key in d
    assert all(set(b) == {"n", "count", "sum_d", "sum_deriv"} for b in d["bins"])


@pytest.mark.parametrize("coords, n_ceiling", [((4, 4, 4), 64), ((3, 3, 3), 64),
                                               ((200, 200, 200), 96)])
def test_grown_bins_equal_binning_from_scratch(coords, n_ceiling):
    rep = build_rep(TraceCoords(*coords))
    steps = [(n_max, bins) for n_max, bins, _ in _grow(rep, n_ceiling)]
    assert [n for n, _ in steps] == list(range(16, n_ceiling + 1, 8))
    for n_max, bins in steps:
        # a fresh rep has fresh trace tables, so nothing filled by _grow is reused
        fresh = build_rep(TraceCoords(*coords))
        assert bins == bin_curves(enumerate_up_to(fresh, n_max + 1), n_max)
    assert sum(len(b.members) for b in steps[-1][1]) > 0


def test_to_dict_equals_asdict():
    rep = build_rep(TraceCoords(4, 4, 4))
    repd = attach_deformation(rep, random_tangent(rep, np.random.default_rng(7)))
    terms = [ImportedTerm(1.5, 2.5, 0.1, -0.2), ImportedTerm(3.0, 3.0), ImportedTerm(6.2, 0.4)]
    lb = translation_length(dual_trace(rep.boundary).re)
    for report in (mcshane_sum(rep, tail_tolerance=1e-4),
                   mcshane_sum(build_rep(TraceCoords(3, 3, 3)), tail_tolerance=1e-4),
                   margulis_residual(repd, tail_tolerance=1e-4),
                   mcshane_sum_imported(lb, terms), margulis_residual_imported(lb, 0.3, terms)):
        d, ref = report.to_dict(), dataclasses.asdict(report)
        assert d == ref and list(d) == list(ref)
        assert type(d["bins"]) is tuple
        assert [list(b) for b in d["bins"]] == [list(b) for b in ref["bins"]]


@pytest.mark.parametrize("coords, tol", [((4, 4, 4), 1e-6), ((4.5, 5.0, 5.5), 1e-10),
                                         ((200, 200, 200), 1e-6)])
def test_margulis_tail_and_kappa_equal_a_recount_from_the_final_bins(coords, tol):
    rep = _tangent_rep(coords, 11)
    r = margulis_residual(rep, tail_tolerance=tol)
    ell_bdry, alpha_bdry, _ = _boundary_values(rep)
    # recounted on a second rep, whose trace tables margulis_residual never filled
    bins = bin_curves(enumerate_up_to(_tangent_rep(coords, 11), r.n_max + 1), r.n_max)
    m_hat = fit_bin_constant(bins)
    kappa = kappa_from_bins(bins, ell_bdry, alpha_bdry)
    assert r.m_hat == m_hat
    assert r.kappa_hat == kappa
    assert r.tail_bound == tail_bound_derivative(r.n_max, m_hat, ell_bdry, kappa, alpha_bdry)


def test_margulis_residual_after_validation_equals_it_alone():
    from mml.representation import validate_fuchsian

    validated, alone = _tangent_rep((4.0, 5.0, 6.0), 3), _tangent_rep((4.0, 5.0, 6.0), 3)
    assert validate_fuchsian(validated).passed
    assert margulis_residual(validated, 1e-8) == margulis_residual(alone, 1e-8)
