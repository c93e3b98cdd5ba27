import math

import numpy as np
import pytest

from mml.dualnum import DualScalar
from mml.errors import MMLError, NotHyperbolic, RecursionMismatch
from mml.identity_engine import margulis_residual
from mml.representation import (DeformationSpec, TraceCoords, attach_deformation, build_rep,
                                random_tangent, validate_fuchsian)
from mml.sl2grp import compose, dual_trace, flat_product, identity
from mml.torus_curves import (ImportedTerm, Slope, bin_curves, christoffel_word,
                              enumerate_family, enumerate_up_to, export_census,
                              farey_enumerate, fit_bin_constant, import_curve_list,
                              make_tables, slope_trace, slope_word)


def _deformed_444():
    rep = build_rep(TraceCoords(4, 4, 4))
    return attach_deformation(rep, random_tangent(rep, np.random.default_rng(7)))


def test_slope_canonicalization():
    assert Slope(1, -1) == Slope(-1, 1)
    assert Slope(-1, 0) == Slope(1, 0)
    with pytest.raises(ValueError):
        Slope(2, 4)


def test_farey_enumerate_small():
    assert [(s.p, s.q) for s in farey_enumerate(1)] == [(1, 0), (0, 1)]
    assert {(s.p, s.q) for s in farey_enumerate(2)} == {(1, 0), (0, 1), (1, 1), (-1, 1)}
    got3 = {(s.p, s.q) for s in farey_enumerate(3)}
    assert got3 == {(1, 0), (0, 1), (1, 1), (-1, 1), (1, 2), (-1, 2), (2, 1), (-2, 1)}


def test_farey_enumerate_coprime_census():
    slopes = farey_enumerate(12)
    assert len(slopes) == len(set(slopes))
    for s in slopes:
        assert math.gcd(abs(s.p), s.q) == 1
        assert abs(s.p) + s.q <= 12


def test_words():
    assert slope_word(Slope(1, 0)) == "a"
    assert slope_word(Slope(0, 1)) == "b"
    assert slope_word(Slope(1, 1)) == "ab"
    assert slope_word(Slope(2, 1)) == "aab"
    assert slope_word(Slope(1, 2)) == "abb"
    assert slope_word(Slope(-2, 1)) == "AAb"
    w = slope_word(Slope(3, 5))
    assert w.count("a") == 3 and w.count("b") == 5


def test_traces_333():
    rep = build_rep(TraceCoords(3, 3, 3))
    assert math.isclose(slope_trace(rep, Slope(1, 1)), 3.0, abs_tol=1e-12)
    # tr(A*AB) = x*z - y = 6
    assert math.isclose(slope_trace(rep, Slope(2, 1)), 6.0, abs_tol=1e-9)
    assert math.isclose(slope_trace(rep, Slope(1, 2)), 6.0, abs_tol=1e-9)


def test_traces_444_generator():
    rep = build_rep(TraceCoords(4, 4, 4))
    assert math.isclose(slope_trace(rep, Slope(1, 0)), 4.0, abs_tol=1e-12)


def test_recursion_matches_direct_everywhere():
    pos, neg = make_tables(_deformed_444())
    for s in farey_enumerate(12):
        table = pos if s.p >= 0 else neg
        rec = table.trace(abs(s.p), s.q)
        direct = dual_trace(table.word_matrix(slope_word(Slope(abs(s.p), s.q))))
        assert abs(rec.re - direct.re) <= 1e-9 * max(1.0, abs(direct.re))
        assert abs(rec.inf - direct.inf) <= 1e-9 * max(1.0, abs(direct.re), abs(direct.inf))


def test_slope_symmetry_equal_coords():
    rep = build_rep(TraceCoords(4, 4, 4))
    for p, q in [(2, 1), (3, 2), (5, 3), (4, 7)]:
        t1 = slope_trace(rep, Slope(p, q))
        t2 = slope_trace(rep, Slope(q, p))
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
    curves = {(c.slope.p, c.slope.q) for c in enumerate_up_to(rep, cutoff)}
    for s in farey_enumerate(10):
        length = 2 * math.acosh(abs(slope_trace(rep, s)) / 2)
        assert ((s.p, s.q) in curves) == (2 * length < cutoff)


@pytest.mark.parametrize("coords", [(4, 4, 4), (2.2, 150, 100),
                                    (2.6943989121171104, 7.2604181522038616, 4.259065393690246)])
def test_enumerated_slopes_equal_brute_force_filter(coords):
    # near the root a mediant can be shorter than a parent (slope 2/1 at the
    # last two triples), so pruning must not assume length grows down the tree
    rep = build_rep(TraceCoords(*coords))
    pos, neg = make_tables(rep)
    cutoff = 30.0
    got = {(c.slope.p, c.slope.q) for c in enumerate_up_to(rep, cutoff)}
    want = {(s.p, s.q) for s in farey_enumerate(40)
            if 2 * (neg if s.p < 0 else pos).curve(abs(s.p), s.q).length < cutoff}
    assert got == want and len(got) >= 20


def test_negative_trace_stops_enumeration():
    # out of domain (boundary trace 32.3): slope 2/1 has trace -3.22
    rep = build_rep(TraceCoords(2.1474282940828657, 7.798248901525441, 2.130131862561962))
    with pytest.raises(MMLError, match="negative trace"):
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


def test_enumerate_family_tail_policy():
    rep = build_rep(TraceCoords(4, 4, 4))
    bins = enumerate_family(rep, tail_tolerance=1e-4)
    assert bins and all(len(b.members) >= 0 for b in bins)


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
    header = p1.read_text().splitlines()[0]
    assert header == "slope_p,slope_q,word,trace,length,bin"


def test_import_curve_list(tmp_path):
    path = tmp_path / "terms.csv"
    path.write_text("ell_gamma1,ell_gamma2,alpha_gamma1,alpha_gamma2\n"
                    "1.5,2.5,0.1,-0.2\n"
                    "3.0,3.0,0.0,0.0\n")
    terms = import_curve_list(path)
    assert terms == [ImportedTerm(1.5, 2.5, 0.1, -0.2), ImportedTerm(3.0, 3.0, 0.0, 0.0)]


def _assert_same_matrix(m, ref):
    for got, want in ((m.val, ref.val), (m.eps, ref.eps)):
        scale = max(1.0, float(np.abs(want).max()))
        assert np.allclose(got, want, rtol=0.0, atol=1e-12 * scale)


def test_word_matrix_matches_letter_by_letter_product():
    for table in make_tables(_deformed_444()):
        letters = {"a": table.gen_a, "b": table.gen_b}
        words = [christoffel_word(p, q) for p in range(41) for q in range(41 - p)
                 if p + q >= 1 and math.gcd(p, q) == 1]
        for w in words + ["ba", "aab", "bab", "bbaab"]:
            _assert_same_matrix(table.word_matrix(w), compose(*(letters[c] for c in w)))
        _assert_same_matrix(table.word_matrix(""), identity())
        with pytest.raises(KeyError):
            table.word_matrix("abc")


def test_word_matrix_costs_one_product_per_new_slope(monkeypatch):
    import mml.torus_curves as tc

    factors, composed = [], []
    monkeypatch.setattr(tc, "flat_product",
                        lambda *ms: factors.append(len(ms)) or flat_product(*ms))
    monkeypatch.setattr(tc, "compose", lambda *ms: composed.append(len(ms)) or compose(*ms))
    pos, _ = make_tables(_deformed_444())
    seeds = len(composed)
    for p, q in [(2, 1), (3, 1), (3, 2), (5, 3), (8, 5)]:
        before = len(factors)
        pos.trace(p, q)
        assert len(factors) > before
        assert factors[before:] == [2] * (len(factors) - before)
    assert len(composed) == seeds


def test_word_matrix_returns_read_only_float64_parts():
    pos, neg = make_tables(_deformed_444())
    for table, word in [(pos, ""), (pos, "a"), (pos, "aab"), (neg, "ab"), (neg, "bab")]:
        m = table.word_matrix(word)
        for part in (m.val, m.eps):
            assert part.shape == (2, 2) and part.dtype == np.float64
            assert not part.flags.writeable
            assert part.base is None or not part.base.flags.writeable
            with pytest.raises(ValueError):
                part[0, 0] = 1.0


@pytest.mark.parametrize("part", ["re", "inf"])
def test_corrupted_recursion_is_caught(part):
    pos, _ = make_tables(_deformed_444())
    t = pos._memo[(1, 1)]
    bumped = {"re": DualScalar(t.re + 1.0, t.inf), "inf": DualScalar(t.re, t.inf + 1.0)}
    pos._memo[(1, 1)] = bumped[part]
    with pytest.raises(RecursionMismatch):
        pos.trace(2, 1)


def test_curve_memo_reuses_classes_across_growth():
    rep = _deformed_444()
    short = enumerate_up_to(rep, 20.0)
    deep = enumerate_up_to(rep, 30.0)
    assert all(c is rep.tables[0].curve(c.slope.p, c.slope.q) for c in short if c.slope.p >= 0)
    assert [c for c in deep if c.length < 10.0] == short
    # from scratch: a second rep with the same seeded tangent has tables of its own
    assert enumerate_up_to(_deformed_444(), 30.0) == deep


def test_validate_fuchsian_builds_one_table_pair(monkeypatch):
    import mml.torus_curves as tc

    built = []
    init = tc.TraceTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tc.TraceTable, "__init__", counting_init)
    assert validate_fuchsian(build_rep(TraceCoords(4, 5, 6))).passed
    assert len(built) == 2


def test_every_reader_shares_the_reps_one_table_pair(monkeypatch):
    import mml.torus_curves as tc

    built = []
    init = tc.TraceTable.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tc.TraceTable, "__init__", counting_init)
    rep = _deformed_444()
    assert validate_fuchsian(rep).passed
    pair = rep.tables
    enumerate_up_to(rep, 20.0)
    slope_trace(rep, Slope(-3, 5))
    margulis_residual(rep, 1e-6)
    assert rep.tables is pair and built == list(pair)
    moved = attach_deformation(rep, DeformationSpec.zero())
    assert moved.tables is not pair and built[2:] == list(moved.tables)
