import collections
import copy
import dataclasses
import inspect
import math
import pickle
import sys
import tracemalloc

import numpy as np
import pytest

from mml.cli import DEFAULT_SEED
from mml.dualnum import DualScalar
from mml import identity_engine
from mml.errors import MMLError, NonConvergence, NotHyperbolic, RecursionMismatch
from mml.identity_engine import (BinStat, _boundary_values, choose_truncation,
                                 margulis_residual, mcshane_sum, tail_bound_identity)
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent, validate_fuchsian)
from mml.sl2grp import compose, flat_product, inverse, translation_length
from mml.torus_curves import (CurveBin, CurveClass, TraceTable, _farey_triangle, bin_curves,
                              christoffel_word, enumerate_up_to, export_census,
                              fit_bin_constant, make_tables)
from conftest import curve_bits, judged
from oracles import exact_traces, farey_enumerate


def _deformed_444(seed=7):
    rep = build_rep(TraceCoords(4, 4, 4))
    return attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed)))


def _trace(rep, s):
    return rep.table.trace(*s).re


def test_enumerated_and_curve_slopes_are_canonical():
    rep = build_rep(TraceCoords(4, 4, 4))
    slopes = farey_enumerate(30)
    deepest = max(2 * translation_length(make_tables(rep).trace(*s).re) for s in slopes)
    curves = enumerate_up_to(rep, deepest + 1)  # a walk past every slope with |p| + q <= 30
    assert set(slopes) <= {(c.p, c.q) for c in curves}
    for c in curves:
        assert type(c.p) is int and type(c.q) is int
        assert math.gcd(abs(c.p), c.q) == 1 and (c.q > 0 or (c.p, c.q) == (1, 0))


_CLASS = CurveClass(1, 2, 3.5, 1.9248473002384139, 0.25)
_CLASS_TEXT = "CurveClass(p=1, q=2, trace=3.5, length=1.9248473002384139, alpha=0.25)"


@pytest.mark.parametrize("value, field, other", [
    (DualScalar(1.5, -2.0), "inf", 2.0),
    (_CLASS, "alpha", 0.5),
    (CurveBin(3, (_CLASS,)), "index", 4),
    (BinStat(3, 1, 0.125, -0.25), "sum_deriv", 0.5),
], ids=["DualScalar", "CurveClass", "CurveBin", "BinStat"])
def test_value_types_are_slotted_frozen_and_hash_by_fields(value, field, other):
    # built per traced slope, per emitted slope or per bin: no per-instance dict
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, other)
    fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    twin = type(value)(*fields)
    assert twin == value and hash(twin) == hash(value) == hash(fields)
    assert dataclasses.replace(value, **{field: other}) != value


@pytest.mark.parametrize("cls, args, text", [
    (DualScalar, (1.5, -2.0), "DualScalar(re=1.5, inf=-2.0)"),
    (CurveClass, (1, 2, 3.5, 1.9248473002384139, 0.25), _CLASS_TEXT),
    (CurveBin, (3, (_CLASS,)), f"CurveBin(index=3, members=({_CLASS_TEXT},))"),
    (BinStat, (3, 1, 0.125, -0.25), "BinStat(n=3, count=1, sum_d=0.125, sum_deriv=-0.25)"),
], ids=["DualScalar", "CurveClass", "CurveBin", "BinStat"])
def test_value_types_build_copy_and_pickle_through_their_own_init(cls, args, text):
    # __init__ writes the slots itself; the dataclass's other methods must still see them
    names = [f.name for f in dataclasses.fields(cls)]
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    assert tuple(getattr(value, n) for n in names) == args
    assert repr(value) == text
    if dataclasses.fields(cls)[-1].default is not dataclasses.MISSING:
        short = cls(*args[:-1])  # the last field defaults to 0.0 (inf, alpha)
        assert getattr(short, names[-1]) == 0.0 and short == cls(*args[:-1], 0.0)
    else:
        with pytest.raises(TypeError):
            cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args[:-2])  # a field without a default is missing
    with pytest.raises(TypeError):
        cls(**dict(zip(names[1:], args[1:])))
    copies = [dataclasses.replace(value), copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == value and repr(twin) == text
        assert hash(twin) == hash(value) and not hasattr(twin, "__dict__")
    moved = dataclasses.replace(value, **{names[0]: args[0] + 1})
    assert getattr(moved, names[0]) == args[0] + 1
    assert tuple(getattr(moved, n) for n in names[1:]) == args[1:]


def test_farey_enumerate_small():
    assert farey_enumerate(1) == [(1, 0), (0, 1)]
    assert set(farey_enumerate(2)) == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    got3 = set(farey_enumerate(3))
    assert got3 == {(1, 0), (0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1)}


@pytest.mark.parametrize("n", range(1, 41))
def test_farey_enumerate_is_the_coprime_filter(n):
    slopes = farey_enumerate(n)
    brute = {(1, 0), (0, 1)} | {(s * p, q) for q in range(1, n) for p in range(1, n - q + 1)
                                for s in (1, -1) if math.gcd(p, q) == 1}
    assert set(slopes) == brute and len(slopes) == len(brute)
    assert slopes[:4] == [(1, 0), (0, 1), (1, 1), (-1, 1)][:len(slopes)]


def test_farey_enumerate_orders_by_denominator_then_numerator():
    slopes = farey_enumerate(6)
    assert slopes[2:14] == [(p * s, 1) for p in range(1, 6) for s in (1, -1)] + [(1, 2), (-1, 2)]
    assert slopes[-2:] == [(1, 5), (-1, 5)]


def test_farey_triangle_matches_its_definition():
    for q in range(1, 80):
        for p in range(1, 81 - q):
            if math.gcd(p, q) != 1 or (p, q) == (1, 1):
                continue
            for sp in (p, -p):
                lower, upper, third = _farey_triangle(sp, q)
                assert (lower[0] + upper[0], lower[1] + upper[1]) == (sp, q)
                assert abs(lower[0] * upper[1] - lower[1] * upper[0]) == 1
                diff = (upper[0] - lower[0], upper[1] - lower[1])
                assert third[1] >= 0 and third in (diff, (-diff[0], -diff[1]))
                assert third[0] * sp >= 0


def test_farey_triangle_of_the_seeds_is_mixed_sign():
    # 1/1 and -1/1 are seeded, so trace() never asks for these triangles;
    # christoffel_word still spells the seeds from their parents
    assert _farey_triangle(1, 1) == ((0, 1), (1, 0), (-1, 1))
    assert _farey_triangle(-1, 1) == ((0, 1), (-1, 0), (1, 1))
    assert christoffel_word(1, 1) == "ab" and christoffel_word(-1, 1) == "Ab"


def test_farey_enumerate_coprime_census():
    slopes = farey_enumerate(12)
    assert len(slopes) == len(set(slopes))
    for p, q in slopes:
        assert math.gcd(abs(p), q) == 1
        assert abs(p) + q <= 12


def test_words():
    assert christoffel_word(1, 0) == "a"
    assert christoffel_word(-1, 0) == "A"
    assert christoffel_word(0, 1) == "b"
    assert christoffel_word(1, 1) == "ab"
    assert christoffel_word(2, 1) == "aab"
    assert christoffel_word(1, 2) == "abb"
    assert christoffel_word(-2, 1) == "AAb"
    w = christoffel_word(3, 5)
    assert w.count("a") == 3 and w.count("b") == 5
    assert christoffel_word(-3, 5) == w.replace("a", "A")


def test_traces_333():
    rep = build_rep(TraceCoords(3, 3, 3))
    assert math.isclose(_trace(rep, (1, 1)), 3.0, abs_tol=1e-12)
    # tr(A*AB) = x*z - y = 6
    assert math.isclose(_trace(rep, (2, 1)), 6.0, abs_tol=1e-9)
    assert math.isclose(_trace(rep, (1, 2)), 6.0, abs_tol=1e-9)


def test_traces_444_generator():
    rep = build_rep(TraceCoords(4, 4, 4))
    assert math.isclose(_trace(rep, (1, 0)), 4.0, abs_tol=1e-12)


def test_recursion_matches_direct_everywhere():
    table = make_tables(_deformed_444())
    for s in farey_enumerate(12):
        rec = table.trace(*s)
        m = table.word_matrix(s)
        re, eps = m[0] + m[3], m[4] + m[7]
        assert abs(rec.re - re) <= 1e-9 * max(1.0, abs(re))
        assert abs(rec.inf - eps) <= 1e-9 * max(1.0, abs(re), abs(eps))


@pytest.mark.parametrize("coords, seed", [((4, 4, 4), 1), ((2.5, 6, 6), 2), ((5, 6, 25), 3),
                                         ((3.2, 7, 9), 4), ((2.1, 40, 40.5), 5)])
def test_traces_of_the_short_slopes_equal_the_exact_recursion(coords, seed):
    # the float recursion against the same recursion in 80 digits, from the same seeds
    rep = build_rep(TraceCoords(*coords))
    table = attach_deformation(rep, random_tangent(rep, np.random.default_rng(seed))).table
    seeds = {s: table.trace(*s) for s in ((1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1))}
    exact = exact_traces(seeds, 12)
    assert set(exact) == set(farey_enumerate(12)) | {(-1, 0)}
    for s, (re, eps) in exact.items():
        t = table.trace(*s)
        assert abs(t.re - float(re)) <= 1e-13 * abs(float(re)), s
        assert abs(t.inf - float(eps)) <= 1e-13 * abs(float(eps)), s
        assert eps != 0


def test_slope_symmetry_equal_coords():
    rep = build_rep(TraceCoords(4, 4, 4))
    for p, q in [(2, 1), (3, 2), (5, 3), (4, 7)]:
        t1 = _trace(rep, (p, q))
        t2 = _trace(rep, (q, p))
        assert abs(t1 - t2) <= 1e-9 * max(1.0, abs(t1))


def test_enumeration_shortest_curve():
    rep = build_rep(TraceCoords(4, 4, 4))
    curves = enumerate_up_to(rep, 20.0)
    assert math.isclose(min(c.length for c in curves), 2 * math.acosh(2.0), rel_tol=1e-12)
    for c in curves:
        assert abs(c.trace) > 2.0


def test_enumeration_completeness_against_brute_force():
    # oracle: every slope with |p|+q small, kept iff 2*length below cutoff
    rep = build_rep(TraceCoords(4, 4, 4))
    cutoff = 24.0
    curves = {(c.p, c.q) for c in enumerate_up_to(rep, cutoff)}
    for s in farey_enumerate(10):
        length = 2 * math.acosh(abs(_trace(rep, s)) / 2)
        assert (s in curves) == (2 * length < cutoff)


@pytest.mark.parametrize("coords", [(4, 4, 4), (2.2, 150, 100),
                                    (2.6943989121171104, 7.2604181522038616, 4.259065393690246)])
def test_enumerated_slopes_equal_brute_force_filter(coords):
    # near the root a mediant can be shorter than a parent (slope 2/1 at the
    # last two triples), so pruning must not assume length grows down the tree
    rep = build_rep(TraceCoords(*coords))
    table = make_tables(rep)
    cutoff = 30.0
    got = {(c.p, c.q) for c in enumerate_up_to(rep, cutoff)}
    want = {s for s in farey_enumerate(40) if 2 * translation_length(table.trace(*s).re) < cutoff}
    assert got == want and len(got) >= 20


NEGATIVE_TRACE_COORDS = (2.1474282940828657, 7.798248901525441, 2.130131862561962)


def test_negative_trace_stops_enumeration():
    for coords, message in [
        # out of domain (boundary trace 32.3): slopes 2/1 (trace -3.22) to 16/1
        # are negative, and 2/1 is the first of them the walk visits
        (NEGATIVE_TRACE_COORDS, "^slope 2/1 has negative trace -3.22"),
        # a negative seed: tr(b) = -3 raises before the walk visits a mediant
        ((3, -3, 4), r"^slope 0/1 has negative trace -3.0;"),
    ]:
        rep = build_rep(TraceCoords(*coords))
        with pytest.raises(MMLError, match=message):
            enumerate_up_to(rep, 30.0)


def test_negative_trace_in_the_mirrored_table_names_the_signed_slope():
    # z -> xy - z swaps tr(ab) and tr(a^-1 b), so the offender moves to the negative slopes
    x, y, z = NEGATIVE_TRACE_COORDS
    rep = build_rep(TraceCoords(x, y, x * y - z))
    with pytest.raises(MMLError, match="^slope -2/1 has negative trace -3.22"):
        enumerate_up_to(rep, 30.0)


def test_bins_and_constant():
    rep = build_rep(TraceCoords(4, 4, 4))
    curves = enumerate_up_to(rep, 41.0)
    bins = bin_curves(curves, 40)
    assert sum(len(b.members) for b in bins) == len(curves)
    m_hat = fit_bin_constant(bins)
    for b in bins:
        assert len(b.members) <= m_hat * (b.index + 1) ** 2 + 1e-9
    for b in bins:
        for c in b.members:
            assert b.index <= 2 * c.length < b.index + 1


def test_a_bin_range_equals_those_bins_of_a_full_binning():
    # lengths on and just below each bin edge N/2, where the length test must agree with floor
    lengths = [x for k in range(1, 12) for x in (k / 2, math.nextafter(k / 2, 0.0), k / 2 + 0.25)]
    curves = [CurveClass(i, 1, 2.0, length) for i, length in enumerate(lengths)]
    full = bin_curves(curves, 10)
    for n_min in range(12):
        assert bin_curves(curves, 10, n_min) == full[n_min:]


def test_choose_truncation_tail_policy():
    tol = 1e-4
    for coords in ((4, 4, 4), (3, 3, 3)):
        rep = build_rep(TraceCoords(*coords))
        ell_bdry, alpha_bdry = _boundary_values(rep)
        depths = []

        def tail(n, m, k, stop):
            depths.append(n)
            return tail_bound_identity(n, m, ell_bdry, stop)

        bins, m_hat, kappa, bound = choose_truncation(rep, ell_bdry, alpha_bdry, tol, 200, tail)
        n_max = depths[-1]
        assert bound <= tol
        assert [b.index for b in bins] == list(range(n_max + 1))
        assert n_max >= 16 and (n_max - 16) % 8 == 0
        # the grid step before it, grown on a fresh rep, is the one the tail rejected
        steps = {}

        def record(n, m, k, stop):
            steps[n] = (m, k)
            return 0.0 if n == n_max else math.inf

        choose_truncation(build_rep(TraceCoords(*coords)), ell_bdry, alpha_bdry, tol, n_max,
                          record)
        assert steps[n_max] == (m_hat, kappa)
        if n_max > 16:
            assert tail_bound_identity(n_max - 8, steps[n_max - 8][0], ell_bdry) > tol


def test_choose_truncation_steps_8_deeper_to_the_ceiling(monkeypatch):
    # the depths are min(16, c), 8 deeper per step, then the ceiling c itself
    cutoffs = []
    monkeypatch.setattr(identity_engine, "enumerate_up_to", lambda r, c: cutoffs.append(c) or [])
    for c in [*range(1, 300), 1000, 4999, 5000]:
        cutoffs.clear()
        with pytest.raises(NonConvergence, match="no curve enumerated"):
            choose_truncation(None, 1.0, 0.0, 1.0, c, lambda *a: 0.0)
        assert [n - 1 for n in cutoffs] == [*range(min(16, c), c, 8), c]


def test_choose_truncation_memory_does_not_grow_with_the_ceiling():
    # both runs accept at the same shallow depth; a far ceiling must not be paid for up front
    peaks, depths = [], []
    for n_ceiling in (200, 10**7):
        rep = build_rep(TraceCoords(4, 4, 4))
        ell_bdry, alpha_bdry = _boundary_values(rep)
        tail = lambda n, m, k, stop: tail_bound_identity(n, m, ell_bdry, stop)
        tracemalloc.start()
        try:
            bins, *_ = choose_truncation(rep, ell_bdry, alpha_bdry, 1e-6, n_ceiling, tail)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        depths.append(bins[-1].index)
    assert depths[0] == depths[1] < 200
    assert abs(peaks[1] - peaks[0]) <= 2**20, peaks


def test_each_growth_step_bins_only_its_new_classes(monkeypatch):
    handed = []
    binned = identity_engine.bin_curves
    monkeypatch.setattr(identity_engine, "bin_curves",
                        lambda curves, *args: binned(handed.extend(curves) or curves, *args))
    report = margulis_residual(_deformed_444(), 1e-10)
    slopes = [(c.p, c.q) for c in handed]
    assert len(slopes) == len(set(slopes)) == sum(b.count for b in report.bins) > 0
    fresh = enumerate_up_to(_deformed_444(), report.n_max + 1)
    assert set(slopes) == {(c.p, c.q) for c in fresh}


def test_a_walk_left_deeper_off_the_growth_grid_gives_the_same_report():
    # 30 is not on choose_truncation's grid of cutoffs 17, 25, ...: the steps below it
    # read the stored walk's classes in its own order, and must still bin each once
    rep = _deformed_444()
    enumerate_up_to(rep, 30.0)
    assert margulis_residual(rep, 1e-10).to_json() == \
        margulis_residual(_deformed_444(), 1e-10).to_json()


def test_nonhyperbolic_rep_raises():
    # kappa > -2 and tr(a^-1 b) = xy - z = 0.21: an elliptic simple curve
    rep = build_rep(TraceCoords(2.1, 2.1, 4.2))
    with pytest.raises(NotHyperbolic):
        enumerate_up_to(rep, 30.0)


def test_census_roundtrip(tmp_path):
    rep = build_rep(TraceCoords(4, 4, 4))
    bins = bin_curves(enumerate_up_to(rep, 15.0), 14)
    p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    export_census(bins, p1)
    export_census(bins, p2)
    assert p1.read_bytes() == p2.read_bytes()
    rows = p1.read_text().splitlines()
    assert rows[0] == "slope_p,slope_q,word,trace,length,bin"
    assert rows[-1] == f"m_hat,{fit_bin_constant(bins):.12g},,,,"


def _assert_same_matrix(m, ref):
    for got, want in ((m[:4], ref[:4]), (m[4:], ref[4:])):  # value part, eps part
        scale = max(1.0, max(map(abs, want)))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_word_matrix_matches_letter_by_letter_product():
    rep = _deformed_444()
    table = make_tables(rep)
    letters = {"a": rep.A, "A": inverse(rep.A), "b": rep.B}
    slopes = [(sign * p, q) for p in range(41) for q in range(41 - p)
              for sign in (1, -1) if p + q >= 1 and math.gcd(p, q) == 1]
    for s in slopes:
        table.trace(*s)
        w = christoffel_word(*s)
        m = compose(*(letters[c] for c in w))
        _assert_same_matrix(table.word_matrix(s), m.val + m.eps)


def test_word_matrix_costs_one_product_per_new_slope(monkeypatch):
    import mml.torus_curves as tc

    factors, composed = [], []
    monkeypatch.setattr(tc, "flat_product",
                        lambda *ms: factors.append(len(ms)) or flat_product(*ms))
    monkeypatch.setattr(tc, "compose", lambda *ms: composed.append(len(ms)) or compose(*ms))
    table = make_tables(_deformed_444())
    seeds = len(composed)
    for p, q in [(2, 1), (3, 1), (3, 2), (5, 3), (8, 5), (-2, 1), (-3, 2), (-5, 8)]:
        before = len(factors)
        table.trace(p, q)
        assert len(factors) > before
        assert factors[before:] == [2] * (len(factors) - before)
    assert len(composed) == seeds


def test_word_matrix_returns_read_only_float64_parts():
    # a tuple of 8 floats: callers cannot write the memo through it
    rep = _deformed_444()
    table = make_tables(rep)
    for s in [(1, 0), (-1, 0), (0, 1), (2, 1), (-1, 1), (-1, 2)]:
        table.trace(*s)
        m = table.word_matrix(s)
        assert type(m) is tuple and len(m) == 8 and all(type(x) is float for x in m)
    # a generator's word matrix is its own parts, value then eps
    assert table.word_matrix((1, 0)) == rep.A.val + rep.A.eps
    assert table.word_matrix((0, 1)) == rep.B.val + rep.B.eps


def test_tracing_a_long_spine_holds_no_word_strings():
    # a near-parabolic generator keeps the spine p/1 short far down the tree; the
    # word of p/1 has p + 1 letters, so a memo keyed by words would hold ~50 MB here
    table = make_tables(build_rep(TraceCoords(2.000000002, 1e5, 1e5)))
    tracemalloc.start()
    try:
        for p in range(2, 10_001):
            table.trace(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_the_series_never_spell_a_word(monkeypatch):
    import mml.torus_curves as tc

    def spelled(p, q):
        raise AssertionError(f"the word of {p}/{q} was spelled")

    monkeypatch.setattr(tc, "christoffel_word", spelled)
    rep = _deformed_444()
    assert mcshane_sum(rep, 1e-10).passed and margulis_residual(rep, 1e-10).passed


@pytest.mark.parametrize("part", ["re", "inf", "word-re", "word-inf",
                                  "mirror-re", "mirror-inf", "mirror-word-re", "mirror-word-inf"])
def test_corrupted_recursion_is_caught(part):
    # 2/1 is traced from 1/1 and its word matrix from that of 1/1 ("ab"):
    # corrupt 1/1's trace, or the value (index 0) or eps (index 4) part of
    # its word matrix; likewise -2/1 from -1/1 ("Ab")
    sign = -1 if part.startswith("mirror") else 1
    key = (sign, 1)
    table = make_tables(_deformed_444())
    t = table._memo[key]
    if "word" in part:
        m = list(table._words[key])
        m[0 if part.endswith("word-re") else 4] += 1.0
        table._words[key] = tuple(m)
    else:
        bumped = {"re": DualScalar(t.re + 1.0, t.inf), "inf": DualScalar(t.re, t.inf + 1.0)}
        table._memo[key] = bumped[part.rsplit("-", 1)[-1]]
    check = "eps part" if part.endswith("inf") else r"-?\d"
    with pytest.raises(RecursionMismatch, match=f"^slope {2 * sign}/1: recursion {check}"):
        table.trace(2 * sign, 1)
    # the refused slope keeps no word matrix and no trace
    with pytest.raises(KeyError):
        table.word_matrix((2 * sign, 1))
    assert (2 * sign, 1) not in table._memo


@pytest.mark.parametrize("key, part, walk", [((1, 1), "value", False), ((1, 1), "eps", False),
                                             ((1, 0), "value", True)],
                         ids=["value", "eps", "value-judged"])
def test_a_check_past_the_float_range_is_a_float_overflow(key, part, walk):
    # an inf in a parent's trace makes 2/1's recursion inf against a finite word matrix:
    # refused as a float overflow that names the slope and the part, not as a recursion
    # mismatch, by trace, and by the walk's check of 2/1, pruned at max_total_length 8
    rep = _deformed_444()
    t = rep.table._memo[key]
    rep.table._memo[key] = DualScalar(math.inf, t.inf) if part == "value" else \
        DualScalar(t.re, math.inf)
    with pytest.raises(OverflowError, match=f"^slope 2/1: {part} part of the trace, "
                                            r"recursion inf vs direct -?\d"):
        enumerate_up_to(rep, 8.0) if walk else rep.table.trace(2, 1)


@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry, check", [(0, "trace"), (4, "trace"), (0, "check_value")],
                         ids=["value", "eps", "check_value"])
def test_a_non_finite_word_matrix_is_a_float_overflow(bad, entry, check):
    # W(2/1) = W(1/0) W(1/1): an inf or NaN in the value (index 0) or eps (index 4) part
    # of W(1/1) makes that side of 2/1's direct trace inf or NaN, which no recursion
    # value may pass against, in trace and in check_value alike
    table = _deformed_444().table
    t = table._memo[(1, 0)].re * table._memo[(1, 1)].re - table._memo[(0, 1)].re
    m = list(table._words[(1, 1)])
    m[entry] = bad
    table._words[(1, 1)] = tuple(m)
    part = "eps" if entry == 4 else "value"
    with pytest.raises(OverflowError, match=rf"^slope 2/1: {part} part of the trace, "
                                            rf"recursion -?\d\S* vs direct {bad}$"):
        if check == "trace":
            table.trace(2, 1)
        else:
            table.check_value(2, 1, t, *_farey_triangle(2, 1)[:2])
    assert (2, 1) not in table._memo and (2, 1) not in table._words


def _frontier(rep, max_total_length):
    """The slopes a walk to max_total_length judges and does not emit."""
    emitted = {(c.p, c.q) for c in enumerate_up_to(rep, max_total_length)}
    return judged(rep.table).keys() - emitted


@pytest.mark.parametrize("part", ["word-re", "re", "mirror-word-re", "mirror-re"])
def test_a_slope_judged_by_value_is_checked_against_its_word(part):
    # At (4, 4, 4) and max_total_length 8 the walk emits the root 1/1 (trace 4, length
    # 2.63) and prunes 2/1 (trace 12, length 4.96), judged by its value alone from the
    # traces of 1/1, 1/0 and 0/1: corrupt 1/1's trace value or the value (index 0) of
    # its word matrix, and the value check against W(1/0)*W(1/1) refuses 2/1; likewise
    # -2/1 (trace 44) from -1/1 (trace 12) at max_total_length 12
    sign, cutoff = (-1, 12.0) if part.startswith("mirror") else (1, 8.0)
    key, child = (sign, 1), (2 * sign, 1)
    clean = _deformed_444()
    assert child in _frontier(clean, cutoff) and child not in clean.table._memo
    rep = _deformed_444()
    table = rep.table
    if "word" in part:
        m = list(table._words[key])
        m[0] += 1.0
        table._words[key] = tuple(m)
    else:  # the root stays below the cutoff, and its child on the frontier
        t = table._memo[key]
        table._memo[key] = DualScalar(t.re + 1.0, t.inf)
    with pytest.raises(RecursionMismatch, match=rf"^slope {2 * sign}/1: recursion -?\d"):
        enumerate_up_to(rep, cutoff)
    assert child not in table._memo and child not in table._words


def test_an_eps_part_is_checked_where_it_is_computed():
    # a slope judged by value has no eps part to check; its full trace, taken when
    # a deeper walk emits it, checks it
    rep, clean = _deformed_444(), _deformed_444()
    table = rep.table
    m = list(table._words[(1, 1)])
    m[4] += 1.0
    table._words[(1, 1)] = tuple(m)
    assert (2, 1) in _frontier(rep, 8.0) == _frontier(clean, 8.0)
    assert curve_bits(table._walk[1]) == curve_bits(clean.table._walk[1])
    assert judged(table) == judged(clean.table)
    assert (2, 1) not in table._memo and (2, 1) not in table._words
    with pytest.raises(RecursionMismatch, match="^slope 2/1: recursion eps part"):
        enumerate_up_to(rep, 12.0)  # 2/1 is emitted now


@pytest.mark.parametrize("t01", [15.0, 20.0], ids=["short", "negative"])
def test_a_corrupted_parent_is_refused_as_a_mismatch_before_its_length(t01):
    # 2/1's recursion value 4 * 4 - t(0/1) is 1 (not hyperbolic) or -4 (a negative
    # trace) once 0/1's seed trace is corrupted: the value check against W(1/0)*W(1/1)
    # refuses it before translation_length or the sign test does
    rep = _deformed_444()
    t = rep.table._memo[(0, 1)]
    rep.table._memo[(0, 1)] = DualScalar(t01, t.inf)
    with pytest.raises(RecursionMismatch,
                       match=rf"^slope 2/1: recursion {16.0 - t01} vs direct 12\.0"):
        enumerate_up_to(rep, 8.0)


def test_each_judged_slope_has_its_value_checked_once():
    # The value checks are the lines that compare |re - t| with RECURSION_TOL: count
    # each one run, by the slope (p, q) of its frame
    import mml.torus_curves as tc
    lines, _ = inspect.getsourcelines(tc)
    value_checks = {n for n, line in enumerate(lines, 1)
                    if "abs(re - " in line and "RECURSION_TOL" in line}
    checked = collections.Counter()

    def on_line(frame, event, arg):
        if event == "line" and frame.f_lineno in value_checks:
            checked[frame.f_locals["p"], frame.f_locals["q"]] += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename == tc.__file__ else None

    rep = _deformed_444()
    seeds = {(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)}
    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        enumerate_up_to(rep, 57)
    finally:
        sys.settrace(before)
    lengths = judged(rep.table)
    frontier = lengths.keys() - rep.table._memo.keys()
    assert value_checks and frontier
    assert checked == collections.Counter(lengths.keys() - seeds)


@pytest.mark.parametrize("coords", [(4, 4, 4), (3, 3, 3), (2.2, 150, 100),
                                    (2.6943989121171104, 7.2604181522038616, 4.259065393690246)])
def test_only_the_seeds_emitted_slopes_and_vertices_of_judged_ones_are_traced(coords):
    rep = build_rep(TraceCoords(*coords))
    rep = attach_deformation(rep, random_tangent(rep, np.random.default_rng(7)))
    for n_max in range(16, 57, 8):
        curves = enumerate_up_to(rep, n_max + 1)
    table = rep.table
    seeds = {(1, 0), (-1, 0), (0, 1), (1, 1), (-1, 1)}
    lengths = judged(table)
    vertices = {v for k in lengths.keys() - seeds for v in _farey_triangle(*k)}
    emitted = {(c.p, c.q) for c in curves}
    assert emitted <= lengths.keys()
    assert set(table._memo) == seeds | emitted | vertices == set(table._words)
    assert len(lengths) > len(table._memo) - len(seeds)  # a frontier judged by value


def test_the_deep_444_residual_traces_half_the_slopes_it_judges():
    rep = build_rep(TraceCoords(4, 4, 4))
    rep = attach_deformation(rep, random_tangent(rep, np.random.default_rng(DEFAULT_SEED)))
    report = margulis_residual(rep, 1e-10)
    assert report.n_max == 88 and sum(b.count for b in report.bins) == 288
    # every slope is judged as before (the full trace memo held 577 slopes)
    assert len(judged(rep.table)) == 576 and len(rep.table._memo) <= 300


def test_curve_memo_reuses_classes_across_growth():
    rep = _deformed_444()
    short = enumerate_up_to(rep, 20.0)
    deep = enumerate_up_to(rep, 30.0)
    # the deeper call resumes the walk: the earlier classes themselves, then the new ones
    assert all(deep[i] is c for i, c in enumerate(short))
    assert all(c.length >= 10.0 for c in deep[len(short):])
    assert all(rep.table.curve(c.p, c.q, c.length) == c for c in deep)  # a new class, equal
    # from scratch: a second rep with the same seeded tangent has a table of its own
    fresh = enumerate_up_to(_deformed_444(), 30.0)
    assert len(fresh) == len(deep) and curve_bits(fresh) == curve_bits(deep)


def test_classes_are_built_only_for_emitted_slopes():
    rep = _deformed_444()
    table = rep.table
    built = []

    def curve(p, q, length):  # counts the classes the walk builds, each with its judged length
        built.append((p, q))
        return TraceTable.curve(table, p, q, length)

    table.curve = curve
    short = enumerate_up_to(rep, 20.0)
    assert built == [(c.p, c.q) for c in short]
    # the pruned frontier is judged by its checked value alone: no trace, no
    # word matrix and no class, and a length bit-equal to a full trace's
    lengths = judged(table)
    frontier = lengths.keys() - set(built)
    assert frontier and all(2 * lengths[k] >= 20.0 for k in frontier)
    assert frontier.isdisjoint(table._memo) and frontier.isdisjoint(table._words)
    assert any(p < 0 for p, _ in frontier) and any(p > 0 for p, _ in frontier)
    assert all(type(v) is float for v in lengths.values())
    assert all(v == translation_length(table._memo[k].re)
               for k, v in lengths.items() if k not in frontier)
    fresh = make_tables(rep)
    assert all(lengths[k].hex() == translation_length(fresh.trace(*k).re).hex()
               for k in frontier)
    built.clear()
    deep = enumerate_up_to(rep, 30.0)
    assert built == [(c.p, c.q) for c in deep[len(short):]]
    assert all(deep[i] is c for i, c in enumerate(short))


def test_each_judged_slope_takes_one_length(monkeypatch):
    import mml.torus_curves as tc

    rep = _deformed_444()
    calls = []

    def counting(t):  # counts the acosh the walk runs
        calls.append(t)
        return translation_length(t)

    monkeypatch.setattr(tc, "translation_length", counting)
    curves = enumerate_up_to(rep, 57)
    # an emitted slope takes the length it was judged by: it is not computed again
    assert 0 < len(calls) <= len(judged(rep.table))
    assert all(c.length.hex() == translation_length(c.trace).hex() for c in curves)


def test_each_traced_slope_takes_one_word_product():
    rep = _deformed_444()
    table = rep.table
    asked, unknown = [], []

    def word_matrix(slope):  # counts the word products the walk takes
        asked.append(slope)
        if slope not in table._words:
            unknown.append(slope)
        return TraceTable.word_matrix(table, slope)

    table.word_matrix = word_matrix
    enumerate_up_to(rep, 57)
    assert len(asked) == len(table._memo) - 5 > 0  # the traced slopes beyond the seeds
    assert unknown == []


@pytest.mark.parametrize("coords", [(4, 4, 4), (3, 3, 3),
                                    (2.6943989121171104, 7.2604181522038616, 4.259065393690246)])
def test_grown_walk_equals_a_fresh_walk(coords):
    def rep():
        r = build_rep(TraceCoords(*coords))
        return attach_deformation(r, random_tangent(r, np.random.default_rng(7)))

    grown = rep()
    steps = [enumerate_up_to(grown, n_max + 1) for n_max in range(16, 57, 8)]
    assert all(deep[:len(short)] == short for short, deep in zip(steps, steps[1:]))
    fresh = enumerate_up_to(rep(), 57)
    assert len(steps[-1]) == len(fresh) and curve_bits(steps[-1]) == curve_bits(fresh)


def test_an_adopted_walk_judges_no_slope_up_to_the_siblings_cutoff(monkeypatch):
    import mml.torus_curves as tc

    sibling, rep = _deformed_444(), _deformed_444(8)
    enumerate_up_to(sibling, 57)
    rep.table.adopt(sibling.table)
    lengths, checks = [], []
    monkeypatch.setattr(tc, "translation_length",
                        lambda t: lengths.append(t) or translation_length(t))
    check = rep.table.check_value
    rep.table.check_value = lambda *args: checks.append(args) or check(*args)
    steps = [enumerate_up_to(rep, n_max + 1) for n_max in range(16, 57, 8)]
    assert lengths == [] and checks == []
    assert all(deep[:len(short)] == short for short, deep in zip(steps, steps[1:]))
    assert curve_bits(steps[-1]) == curve_bits(enumerate_up_to(_deformed_444(8), 57))
    enumerate_up_to(rep, 65)  # past the sibling's cutoff the walk judges again
    assert lengths and checks


def test_adopt_refuses_other_value_parts_and_a_table_that_has_walked():
    sibling = _deformed_444()
    enumerate_up_to(sibling, 20.0)
    other = build_rep(TraceCoords(4, 5, 6))
    with pytest.raises(ValueError, match="other value parts"):
        other.table.adopt(sibling.table)
    walked = _deformed_444(8)
    enumerate_up_to(walked, 8.0)
    kept = walked.table._walk
    with pytest.raises(ValueError, match="not walked"):
        walked.table.adopt(sibling.table)
    assert walked.table._walk is kept and other.table._walk is None
    with pytest.raises(ValueError, match="not walked"):  # nor a sibling that has not
        _deformed_444(8).table.adopt(_deformed_444().table)
    undeformed = build_rep(TraceCoords(4, 4, 4))  # the eps parts may differ
    undeformed.table.adopt(sibling.table)
    assert curve_bits(enumerate_up_to(undeformed, 20.0)) == \
        curve_bits(enumerate_up_to(build_rep(TraceCoords(4, 4, 4)), 20.0))


def test_an_adopted_walk_checks_its_own_eps_parts():
    # the sibling emitted 2/1; the adopting table traces it in full again, against its
    # own word matrices
    sibling, rep = _deformed_444(), _deformed_444(8)
    enumerate_up_to(sibling, 12.0)
    rep.table.adopt(sibling.table)
    m = list(rep.table._words[(1, 1)])
    m[4] += 1.0
    rep.table._words[(1, 1)] = tuple(m)
    with pytest.raises(RecursionMismatch, match="^slope 2/1: recursion eps part"):
        enumerate_up_to(rep, 12.0)


def test_validate_fuchsian_builds_one_table(monkeypatch):
    import mml.torus_curves as tc

    built = []
    init = tc.TraceTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tc.TraceTable, "__init__", counting_init)
    assert validate_fuchsian(build_rep(TraceCoords(4, 5, 6))) is None
    assert len(built) == 1


def test_every_reader_shares_the_reps_one_table(monkeypatch):
    import mml.torus_curves as tc

    built = []
    init = tc.TraceTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tc.TraceTable, "__init__", counting_init)
    rep = _deformed_444()
    assert validate_fuchsian(rep) is None
    table = rep.table
    enumerate_up_to(rep, 20.0)
    table.trace(-3, 5)
    margulis_residual(rep, 1e-6)
    assert rep.table is table and built == [table]
    moved = attach_deformation(rep, DeformationSpec())
    assert moved.table is not table and built == [table, moved.table]
