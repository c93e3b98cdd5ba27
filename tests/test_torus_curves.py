import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from mml.dualnum import DualScalar
from mml.errors import MMLError, NotHyperbolic, RecursionMismatch
from mml.identity_engine import (_boundary_values, choose_truncation, margulis_residual,
                                 mcshane_sum, tail_bound_identity)
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent, validate_fuchsian)
from mml.sl2grp import compose, flat_product, inverse, translation_length
from mml.torus_curves import (CurveClass, _farey_triangle, bin_curves, christoffel_word,
                              enumerate_up_to, export_census, fit_bin_constant, make_tables)
from oracles import farey_enumerate


def _deformed_444():
    rep = build_rep(TraceCoords(4, 4, 4))
    return attach_deformation(rep, random_tangent(rep, np.random.default_rng(7)))


def _trace(rep, s):
    return rep.table.trace(*s).re


def test_enumerated_and_curve_slopes_are_canonical():
    table = make_tables(build_rep(TraceCoords(4, 4, 4)))
    for p, q in farey_enumerate(30):
        c = table.curve(p, q)
        assert (c.p, c.q) == (p, q) and type(p) is int and type(q) is int
        assert math.gcd(abs(p), q) == 1 and (q > 0 or (p, q) == (1, 0))


@pytest.mark.parametrize("value, field, other", [
    (DualScalar(1.5, -2.0), "inf", 2.0),
    (CurveClass(1, 2, 3.5, 1.9248473002384139, 0.25), "alpha", 0.5),
], ids=["DualScalar", "CurveClass"])
def test_value_types_are_slotted_frozen_and_hash_by_fields(value, field, other):
    # at least four are built per newly traced slope: no per-instance dict
    assert not hasattr(value, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, other)
    fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    twin = type(value)(*fields)
    assert twin == value and hash(twin) == hash(value) == hash(fields)
    assert dataclasses.replace(value, **{field: other}) != value


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
    want = {s for s in farey_enumerate(40) if 2 * table.curve(*s).length < cutoff}
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


def test_curve_memo_reuses_classes_across_growth():
    rep = _deformed_444()
    short = enumerate_up_to(rep, 20.0)
    deep = enumerate_up_to(rep, 30.0)
    assert all(c is rep.table.curve(c.p, c.q) for c in short)
    assert [c for c in deep if c.length < 10.0] == short
    # from scratch: a second rep with the same seeded tangent has a table of its own
    assert enumerate_up_to(_deformed_444(), 30.0) == deep


def test_classes_are_built_only_for_emitted_slopes():
    rep = _deformed_444()
    table = rep.table

    def emitted(curves):
        return {(c.p, c.q) for c in curves}

    short = enumerate_up_to(rep, 20.0)
    assert set(table._curves) == emitted(short)
    # the pruned frontier is traced and judged by its length, but has no class
    frontier = set(table._lengths) - set(table._curves)
    assert frontier and all(2 * table.length(*k) >= 20.0 for k in frontier)
    assert frontier <= set(table._memo)
    assert any(p < 0 for p, _ in frontier) and any(p > 0 for p, _ in frontier)
    assert all(type(v) is float and v == translation_length(table._memo[k].re)
               for k, v in table._lengths.items())
    before = dict(table._curves)
    deep = enumerate_up_to(rep, 30.0)
    assert set(table._curves) == emitted(deep)
    assert all(table._curves[k] is c for k, c in before.items())


@pytest.mark.parametrize("coords", [(4, 4, 4), (3, 3, 3),
                                    (2.6943989121171104, 7.2604181522038616, 4.259065393690246)])
def test_grown_walk_equals_a_fresh_walk(coords):
    def rep():
        r = build_rep(TraceCoords(*coords))
        return attach_deformation(r, random_tangent(r, np.random.default_rng(7)))

    grown = rep()
    for n_max in range(16, 57, 8):
        curves = enumerate_up_to(grown, n_max + 1)
    assert curves == enumerate_up_to(rep(), 57)


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
