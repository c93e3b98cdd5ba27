"""Acceptance suite: one test per criterion, each printing a verdict line."""

import math
import time

import numpy as np
import pytest

from mml.identity_engine import coeff_H, coeff_K, gap_D, margulis_residual, mcshane_sum
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation,
                                build_rep, random_tangent)
from mml.sl2grp import DualMatrix2, dual_trace, margulis_from_trace, translation_length
from mml.torus_curves import bin_curves, enumerate_up_to, fit_bin_constant
from conftest import random_hyperbolic_dual, random_sl2, random_traceless, sl2_exp
from oracles import adjoint_of, bound_D, bound_HK, margulis_invariant_lorentz

SEED = 20150831


def _verdict(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def sweep_grid():
    """Criterion 3 grid: the uniform path cell plus 5 triples x 20 random tangents."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    cells = []

    def run_cell(label, repd):
        r = margulis_residual(repd, tail_tolerance=1e-6)
        curves = enumerate_up_to(repd, r.n_max + 1)
        cells.append({
            "label": label,
            "report": r,
            "alphas": [c.alpha for c in curves],
            "lengths": [c.length for c in curves],
            "alpha_bdry": margulis_from_trace(dual_trace(repd.boundary)),
            "ell_bdry": translation_length(dual_trace(repd.boundary).re),
        })

    rep = build_rep(TraceCoords(4, 4, 4))
    run_cell("path(4,4,4)",
             attach_deformation(rep, DeformationSpec.linear_path(rep, (1, 1, 1))))

    triples = []
    while len(triples) < 5:
        c = TraceCoords(*rng.uniform(3.5, 6.0, 3))
        if c.in_domain():
            triples.append(c)
    for i, coords in enumerate(triples):
        base = build_rep(coords)
        for j in range(20):
            cell_rng = np.random.default_rng(SEED + 1000 * i + j)
            run_cell(f"tangent[{i},{j}]",
                     attach_deformation(base, random_tangent(base, cell_rng)))
    return cells, time.perf_counter() - t0


def test_criterion_1_mcshane_identity():
    t0 = time.perf_counter()
    r = mcshane_sum(build_rep(TraceCoords(4, 4, 4)), tail_tolerance=1e-6)
    dt = time.perf_counter() - t0
    ok = (abs(r.residual) <= 1e-6 and r.n_max <= 60 and dt < 5.0
          and math.isclose(r.target, 2 * math.acosh(9.0), rel_tol=1e-12))
    _verdict("1 mcshane(4,4,4)",
             ok, f"residual={r.residual:.3e} n_max={r.n_max} time={dt:.2f}s")


def test_criterion_2_cusp_limit():
    t0 = time.perf_counter()
    r = mcshane_sum(build_rep(TraceCoords(3, 3, 3)), tail_tolerance=1e-6)
    dt = time.perf_counter() - t0
    half_sum = 0.5 * r.partial_sum  # sum of 1/(1+e^l)
    ok = abs(r.partial_sum - 1.0) <= 1e-6 and abs(half_sum - 0.5) <= 5e-7 and dt < 5.0
    _verdict("2 cusp(3,3,3)", ok, f"sum={r.partial_sum:.9f} time={dt:.2f}s")


def test_criterion_3_theorem1_residuals(sweep_grid):
    cells, elapsed = sweep_grid
    worst = max(abs(c["report"].residual)
                / max(1e-5, c["report"].tail_bound) for c in cells)
    ok = all(abs(c["report"].residual) <= max(1e-5, c["report"].tail_bound)
             for c in cells) and elapsed < 60.0
    _verdict("3 theorem1 grid", ok,
             f"cells={len(cells)} worst_ratio={worst:.3e} time={elapsed:.1f}s")


def test_criterion_4_oracle_agreement():
    rng = np.random.default_rng(SEED)
    worst_pair = 0.0
    for _ in range(1000):
        m = random_hyperbolic_dual(rng)
        a = margulis_from_trace(dual_trace(m))
        b = margulis_invariant_lorentz(adjoint_of(m))
        worst_pair = max(worst_pair, abs(a - b))
    worst_fd = 0.0
    n_paths = 0
    h = 1e-4
    while n_paths < 100:
        a0 = random_sl2(rng)
        if abs(np.trace(a0)) <= 2.5:
            continue
        n_paths += 1
        w = random_traceless(rng)
        m = DualMatrix2(a0.ravel(), (a0 @ w).ravel())
        ell = lambda s: translation_length(float(np.trace(a0 @ sl2_exp(w, s))))
        fd = (ell(h) - ell(-h)) / (2 * h)
        worst_fd = max(worst_fd, abs(margulis_from_trace(dual_trace(m)) - fd))
    ok = worst_pair <= 1e-8 and worst_fd <= 1e-6
    _verdict("4 oracle agreement", ok,
             f"lorentz={worst_pair:.3e} finite-diff={worst_fd:.3e}")


def test_criterion_5_calculus_checks():
    rng = np.random.default_rng(SEED)
    h = 1e-5
    worst_d = 0.0
    for _ in range(1000):
        x, y, z = rng.uniform(0.1, 10.0, 3)
        ddx = (gap_D(x + h, y, z) - gap_D(x - h, y, z)) / (2 * h)
        ddy = (gap_D(x, y + h, z) - gap_D(x, y - h, z)) / (2 * h)
        worst_d = max(worst_d, abs(ddx - coeff_H(y + z, x)),
                      abs(ddy - coeff_K(y + z, x)))
    worst_k = max(abs(coeff_K(u, v)
                      - (1 / (1 + math.exp((u + v) / 2))
                         - 1 / (1 + math.exp((u - v) / 2))))
                  for u, v in rng.uniform(-10, 10, (1000, 2)))
    worst_h0 = max(abs(coeff_H(0.0, v) - 1.0) for v in rng.uniform(-20, 20, 1000))
    ok = worst_d <= 1e-8 and worst_k <= 1e-12 and worst_h0 <= 1e-14
    _verdict("5 calculus", ok,
             f"deriv={worst_d:.3e} K-forms={worst_k:.3e} H(0,v)={worst_h0:.3e}")


def test_criterion_6_bound_suite():
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(100_000):
        x, y, z = rng.uniform(0.0, 12.0, 3)
        if abs(gap_D(x, y, z)) > bound_D(x, y, z) + 1e-15:
            violations += 1
        b = bound_HK(y + z, x)
        if abs(coeff_H(y + z, x)) >= b or abs(coeff_K(y + z, x)) >= b:
            violations += 1
    _verdict("6 bound suite", violations == 0, f"violations={violations}/100000")


def test_criterion_7_mirzakhani_lemma(sweep_grid):
    cells, _ = sweep_grid
    ok = True
    for c in cells:
        r = c["report"]
        if r.h_threshold_n is None or r.h_partial_sum <= 1.0:
            ok = False
        lb = c["ell_bdry"]
        for length in c["lengths"]:
            if not gap_D(lb, length, length) / lb < coeff_H(2 * length, lb):
                ok = False
    _verdict("7 mirzakhani lemma", ok,
             f"thresholds={[c['report'].h_threshold_n for c in cells[:6]]}...")


def test_criterion_8_corollary_consistency(sweep_grid):
    cells, _ = sweep_grid
    applicable = 0
    ok = True
    for c in cells:
        margin = c["report"].tail_bound
        if c["alphas"] and min(c["alphas"]) > margin:
            applicable += 1
            if not c["alpha_bdry"] > 0.0:
                ok = False
    _verdict("8 corollary", ok, f"applicable_cells={applicable}/{len(cells)}")


def test_criterion_9_count_bound():
    rep = build_rep(TraceCoords(4, 4, 4))
    m_hats = {}
    for n_max in (40, 60):
        bins = bin_curves(enumerate_up_to(rep, n_max + 1), n_max)
        m_hats[n_max] = fit_bin_constant(bins)
        for b in bins:
            assert len(b.members) <= m_hats[n_max] * (b.index + 1) ** 2 + 1e-9
    drift = abs(m_hats[60] - m_hats[40]) / m_hats[40]
    ok = drift <= 0.10
    _verdict("9 count bound", ok,
             f"m_hat(40)={m_hats[40]:.4f} m_hat(60)={m_hats[60]:.4f} drift={drift:.1%}")
