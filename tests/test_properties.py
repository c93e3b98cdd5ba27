"""Hypothesis properties of both series over in-domain trace coordinates."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from mml import cli, identity_engine
from mml.identity_engine import (_boundary_values, _grow, _report, _series, margulis_residual,
                                 mcshane_sum)
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent)
from mml.sl2grp import compose, dual_trace, margulis_from_trace

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


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(coords=in_domain_coords(), d=st.tuples(_UNIT, _UNIT, _UNIT))
@example(coords=TraceCoords(2.00005, 300.0, 300.0), d=(1.0, 1.0, 1.0))
def test_path_alpha_equals_the_trace_gradient_closed_form(coords, d):
    """A path's alpha is 2 grad(t).d / sqrt(t^2 - 4) for the traces x, y, z of A, B,
    AB, and -2 grad(kappa).d / sqrt(kappa^2 - 4) for the boundary trace kappa."""
    assume(max(map(abs, d)) > 1e-3)
    x, y, z = coords.x, coords.y, coords.z
    rep = build_rep(coords)
    repd = attach_deformation(rep, DeformationSpec.linear_path(rep, d))
    kappa = coords.boundary_trace()
    cases = [(repd.A, x, np.eye(3)[0]), (repd.B, y, np.eye(3)[1]),
             (compose(repd.A, repd.B), z, np.eye(3)[2]),
             (repd.boundary, kappa, -np.array([2 * x - y * z, 2 * y - x * z, 2 * z - x * y]))]
    for m, t, grad in cases:
        root = math.sqrt(t * t - 4.0)
        scale = 2.0 * np.linalg.norm(grad) * np.linalg.norm(d) / root
        assert abs(margulis_from_trace(dual_trace(m)) - 2.0 * (grad @ d) / root) <= 1e-10 * scale


@settings(max_examples=20, derandomize=True, deadline=None)
@given(coords=in_domain_coords())
@example(coords=TraceCoords(3.0, 3.0, 3.0))  # the cusp: target 1, cusp summand
def test_mcshane_partial_sum_is_monotone_in_depth(coords):
    rep = build_rep(coords)
    ell_bdry, alpha_bdry, cusp = _boundary_values(rep)
    sums = []
    for _, bins, m_hat, _ in _grow(rep, 64):
        series = _series(bins, ell_bdry, alpha_bdry, cusp)
        sums.append(_report(1.0 if cusp else ell_bdry, series, "sum_d",
                            0.0, m_hat, 0.0, TOL).partial_sum)
    assert len(sums) == 7 and sums[-1] > 0.0
    assert all(a <= b for a, b in zip(sums, sums[1:])), sums


def _unbounded_tails():
    """Patch _tail_sum to ignore its bound: every tail, rejected ones too, is summed in full."""
    full = identity_engine._tail_sum
    return mock.patch.object(identity_engine, "_tail_sum",
                             lambda n_max, term, bound=math.inf: full(n_max, term))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(coords=in_domain_coords())
@example(coords=TraceCoords(3.0, 3.0, 3.0))
@example(coords=TraceCoords(200.0, 200.0, 200.0))
def test_reports_equal_a_run_whose_tails_are_unbounded(coords):
    rep = build_rep(coords)
    runs = [(mcshane_sum, rep)]
    if not _boundary_values(rep)[2]:  # the cusp has no differentiated series
        runs.append((margulis_residual,
                     attach_deformation(rep, random_tangent(rep, np.random.default_rng(5)))))
    for series, r in runs:
        for tol in (1e-6, 1e-10):
            report = series(r, tol).to_dict()
            with _unbounded_tails():
                assert series(r, tol).to_dict() == report


def _cli(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process mml command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=24, derandomize=True, deadline=None)
@given(x=st.floats(3.0, 5.0), y=st.floats(3.0, 5.0), k=st.sampled_from([-3.0, -0.5, 0.5, 3.0]))
@example(x=3.0, y=3.0, k=-3.0)
@example(x=3.3, y=4.1, k=-0.5)
@example(x=4.7, y=3.2, k=0.5)
@example(x=3.0, y=3.0, k=3.0)
def test_reports_agree_across_the_cusp_switch(x, y, k):
    """Boundary trace -2 + k PARABOLIC_TOL: k = 3 is outside the domain, |k| = 0.5
    runs the cusp form (target 1), k = -3 the hyperbolic form (target the tiny
    boundary length); both partial sums meet their targets."""
    # larger root of z^2 - xyz + x^2 + y^2 - k PARABOLIC_TOL = 0
    c = x * x + y * y - k * identity_engine.PARABOLIC_TOL
    z = (x * y + math.sqrt(x * x * y * y - 4.0 * c)) / 2.0
    coords = f"{x!r},{y!r},{z!r}"
    if k > 1.0:
        for argv in (["verify-mcshane", "--coords", coords],
                     ["census", "--coords", coords, "--out", os.devnull]):
            rc, _, err = _cli(argv)
            assert rc == 1 and err.startswith("error: coordinates") and "<= -2" in err
            assert err.count("\n") == 1
        return
    rc, out, _ = _cli(["verify-mcshane", "--coords", coords, "--tol", "1e-10"])
    report = json.loads(out)
    assert rc == 0 and report["passed"]
    assert (report["target"] == 1.0) == (abs(k) < 1.0)
    assert abs(report["partial_sum"] / report["target"] - 1.0) <= 1e-6


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # conftest.py imports Hypothesis's patch writer with its DeprecationWarning
    # ignored; otherwise filterwarnings = error ends the run at the first failure
    tests = Path(__file__).resolve().parent
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-p", "conftest", "-c", str(tests.parent / "pyproject.toml"),
                          "--rootdir", str(tmp_path), "test_probe.py"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.stdout.splitlines()[-1].startswith("1 failed, 1 passed")
