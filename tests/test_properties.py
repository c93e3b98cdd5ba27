"""Hypothesis properties of both series over in-domain trace coordinates."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mml import cli, identity_engine
from mml.errors import RecursionMismatch
from mml.identity_engine import _boundary_values, margulis_residual, mcshane_sum
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent)
from mml.sl2grp import compose, dual_trace, margulis_from_trace, translation_length
from mml.torus_curves import enumerate_up_to, make_tables
from conftest import curve_bits, judged

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
    sums = []
    for depth in range(16, 65, 8):
        # a tail that accepts this depth only: the report's partial sum at it
        with mock.patch.object(identity_engine, "tail_bound_identity",
                               lambda n_max, m_hat, ell_bdry, stop: 0.0 if n_max == depth
                               else math.inf):
            report = mcshane_sum(rep, TOL, 64)
        assert report.n_max == depth
        sums.append(report.partial_sum)
    assert len(sums) == 7 and sums[-1] > 0.0
    assert all(a <= b for a, b in zip(sums, sums[1:])), sums


@settings(max_examples=25, derandomize=True, deadline=None)
@given(coords=in_domain_coords(), seed=st.integers(0, 2**32 - 1))
@example(coords=TraceCoords(4.0, 4.0, 4.0), seed=cli.DEFAULT_SEED)
def test_a_slope_judged_by_value_has_the_length_of_its_full_trace(coords, seed):
    rep = build_rep(coords)
    rep = attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))
    for n_max in range(16, 57, 8):  # grown as choose_truncation grows it: 17, 25, ..., 57
        enumerate_up_to(rep, n_max + 1)
    lengths = judged(rep.table)  # carried in the stored walk across the resumed steps
    by_value = lengths.keys() - rep.table._memo.keys()
    assert by_value
    fresh = make_tables(rep)  # traces every slope in full, value and eps part checked
    for (p, q), length in lengths.items():
        assert length.hex() == translation_length(fresh.trace(p, q).re).hex(), (p, q)


# max_total_length of successive calls: integers, as the growth loop and census ask, and not
_CUTOFFS = st.lists(st.one_of(st.integers(0, 40).map(float), st.floats(0.0, 40.0)),
                    min_size=2, max_size=6)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(coords=in_domain_coords(), seed=st.integers(0, 2**32 - 1), cutoffs=_CUTOFFS)
@example(coords=TraceCoords(4.0, 4.0, 4.0), seed=cli.DEFAULT_SEED,
         cutoffs=[17.0, 25.0, 25.0, 20.5, 33.25, 9.0, 41.0])
def test_each_call_on_a_resumed_walk_equals_a_fresh_walk(coords, seed, cutoffs):
    rep = build_rep(coords)
    rep = attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))
    deepest, top = [], -math.inf
    for m in cutoffs:
        curves = enumerate_up_to(rep, m)
        fresh = enumerate_up_to(dataclasses.replace(rep), m)  # a table of its own
        assert len(curves) == len(fresh) and curve_bits(curves) == curve_bits(fresh)
        if m > top:  # a deeper call resumes the walk: the shallower list is its prefix
            assert curves[:len(deepest)] == deepest
            deepest, top = curves, m
        else:  # read from the stored classes, in their order
            assert curves == [c for c in deepest if c.length < m / 2.0]


@settings(max_examples=25, derandomize=True, deadline=None)
@given(coords=in_domain_coords(), seed=st.integers(0, 2**32 - 1),
       first=st.floats(4.0, 30.0), more=st.floats(0.5, 16.0))
@example(coords=TraceCoords(4.0, 4.0, 4.0), seed=7, first=4.0, more=4.0)
def test_a_refused_resumed_step_is_refused_again_and_keeps_the_walk(coords, seed, first,
                                                                    more):
    rep = build_rep(coords)
    rep = attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))
    table = rep.table
    enumerate_up_to(rep, first)
    walk = table._walk
    pending = list(walk[2])
    deeper = first + more
    pruned = [e for e in pending if len(e) == 7 and e[0] < deeper / 2.0]
    assume(pruned)
    # Negate the value half of the word of a Farey parent of the first pruned slope
    # the deeper step walks from: the next new product with it fails the value check.
    parent = pruned[0][3:5]
    word = table._words[parent]
    table._words[parent] = tuple(-v for v in word[:4]) + word[4:]
    messages = []
    for _ in range(2):
        with pytest.raises(RecursionMismatch) as refused:
            enumerate_up_to(rep, deeper)
        messages.append(str(refused.value))
        assert table._walk is walk and walk[2] == pending
        # the two memos stay in step, and the refused slope is in neither
        assert set(table._memo) == set(table._words)
        p, q = map(int, re.match(r"slope (-?\d+)/(\d+):", messages[-1]).groups())
        assert (p, q) not in table._memo and (p, q) not in table._words
    assert messages[0] == messages[1]
    table._words[parent] = word
    curves = enumerate_up_to(rep, deeper)
    assert curve_bits(curves) == curve_bits(enumerate_up_to(dataclasses.replace(rep), deeper))


def _unbounded_tails():
    """Patch _tail_sum to ignore its bound: every tail, rejected ones too, is summed in full."""
    full = identity_engine._tail_sum
    return mock.patch.object(identity_engine, "_tail_sum",
                             lambda n_max, m_hat, c, kappa_hat, a, bound=math.inf:
                             full(n_max, m_hat, c, kappa_hat, a))


@settings(max_examples=20, derandomize=True, deadline=None)
@given(coords=in_domain_coords())
@example(coords=TraceCoords(3.0, 3.0, 3.0))
@example(coords=TraceCoords(200.0, 200.0, 200.0))
def test_reports_equal_a_run_whose_tails_are_unbounded(coords):
    rep = build_rep(coords)
    runs = [(mcshane_sum, rep)]
    if _boundary_values(rep)[0] > 0:  # the cusp (length 0) has no differentiated series
        runs.append((margulis_residual,
                     attach_deformation(rep, random_tangent(rep, np.random.default_rng(5)))))
    for series, r in runs:
        for tol in (1e-6, 1e-10):
            report = series(r, tol)
            with _unbounded_tails():
                assert series(r, tol) == report


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
