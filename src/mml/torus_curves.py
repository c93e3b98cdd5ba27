"""Simple closed curves on the one-holed torus, indexed by Farey slopes.

Isotopy classes of essential simple closed curves correspond to slopes
p/q (coprime, q > 0, plus 1/0); each slope carries a Christoffel word in
the positive generators, and traces are computed both by direct matrix
evaluation of the word and by the trace recursion
tr(UV) = tr(U) tr(V) - tr(UV^-1) along the Stern-Brocot tree.  Negative
slopes are evaluated with the inverse first generator instead of a
larger alphabet.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .dualnum import DualScalar
from .errors import MMLError, RecursionMismatch
from .sl2grp import (FLAT_IDENTITY, DualMatrix2, compose, dual_trace, flat_product, flatten,
                     inverse, margulis_from_trace, translation_length, unflatten)

#: Direct evaluation vs recursion disagreement beyond this raises.
RECURSION_TOL = 1e-6


@dataclass(frozen=True)
class Slope:
    """Coprime slope p/q, canonical with q > 0, or (1, 0)."""

    p: int
    q: int

    def __post_init__(self):
        if math.gcd(abs(self.p), abs(self.q)) != 1:
            raise ValueError(f"slope {self.p}/{self.q} is not coprime")
        if self.q < 0 or (self.q == 0 and self.p < 0):
            object.__setattr__(self, "p", -self.p)
            object.__setattr__(self, "q", -self.q)

    def __str__(self):
        return f"{self.p}/{self.q}"


@dataclass(frozen=True)
class CurveClass:
    """One isotopy class: slope, word, and values under the active representation."""

    slope: Slope
    word: str
    trace: float
    length: float
    alpha: float = 0.0

    @property
    def bin_index(self) -> int:
        """N with 2*length in [N, N+1)."""
        return int(math.floor(2.0 * self.length))


@dataclass(frozen=True)
class CurveBin:
    index: int
    members: tuple[CurveClass, ...]


@dataclass(frozen=True)
class ImportedTerm:
    """One externally supplied curve pair for the genus >= 2 interface."""

    ell_gamma1: float
    ell_gamma2: float
    alpha_gamma1: float = 0.0
    alpha_gamma2: float = 0.0


@lru_cache(maxsize=None)
def _farey_parents(p: int, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Stern-Brocot parents (lower, upper) of an interior slope p/q >= 1/1."""
    if q == 1:
        return (p - 1, 1), (1, 0)
    if p == 1:
        return (0, 1), (1, q - 1)
    b = pow(p, -1, q)
    a = (p * b - 1) // q
    return (a, b), (p - a, q - b)


@lru_cache(maxsize=None)
def christoffel_word(p: int, q: int) -> str:
    """Christoffel word of slope p/q over {a, b}; abelianization (p, q)."""
    if (p, q) == (1, 0):
        return "a"
    if (p, q) == (0, 1):
        return "b"
    lower, upper = _farey_parents(p, q)
    return christoffel_word(*upper) + christoffel_word(*lower)


def slope_word(s: Slope) -> str:
    """Word of a canonical slope; negative p is rendered with 'A' = a^-1."""
    w = christoffel_word(abs(s.p), s.q)
    return w.replace("a", "A") if s.p < 0 else w


class TraceTable:
    """Memoized dual traces of slope words for one pair of generator matrices.

    One table covers nonnegative slopes for its generators; the mirrored
    family (negative slopes) uses a second table built on the inverse of
    the first generator.  Build once, then treat as read-only.  Besides
    the traces, a table memoizes the matrix of each traced slope's
    Christoffel word, as 8 floats (see sl2grp.flatten), filled from its
    Farey parents' words, and the curve class of each slope it has met.
    Word matrices only cross-check the trace recursion, so they are
    multiplied in plain floats; the seed traces come from numpy products.
    """

    def __init__(self, gen_a: DualMatrix2, gen_b: DualMatrix2, mirror: bool = False):
        self.gen_a = gen_a
        self.gen_b = gen_b
        self.mirror = mirror
        ab = compose(gen_a, gen_b)
        self._memo: dict[tuple[int, int], DualScalar] = {
            (1, 0): dual_trace(gen_a),
            (0, 1): dual_trace(gen_b),
            (1, 1): dual_trace(ab),
        }
        self._words: dict[str, tuple[float, ...]] = {
            "": FLAT_IDENTITY, "a": flatten(gen_a), "b": flatten(gen_b), "ab": flatten(ab)}
        self._curves: dict[tuple[int, int], CurveClass] = {}

    def trace(self, p: int, q: int) -> DualScalar:
        memo = self._memo
        t = memo.get((p, q))
        if t is not None:
            return t
        lower, upper = _farey_parents(p, q)
        dp, dq = upper[0] - lower[0], upper[1] - lower[1]
        if dq < 0 or (dq == 0 and dp < 0):
            dp, dq = -dp, -dq
        if dp < 0:
            raise MMLError(f"unexpected mixed-sign third neighbor for {p}/{q}")
        # A neighbour not traced yet goes through self.trace, so a wrapper
        # around it (perfbench's tracer) still sees every new slope.
        lo = memo.get(lower)
        if lo is None:
            lo = self.trace(*lower)
        up = memo.get(upper)
        if up is None:
            up = self.trace(*upper)
        th = memo.get((dp, dq))
        if th is None:
            th = self.trace(dp, dq)
        t = lo * up - th
        # word(p/q) = word(upper) + word(lower), and both parents are traced,
        # so their word matrices are in the memo: one product per new slope.
        word = christoffel_word(p, q)
        words = self._words
        words[word] = flat_product(words[christoffel_word(*upper)],
                                   words[christoffel_word(*lower)])
        self._check_against_word(p, q, word, t)
        memo[(p, q)] = t
        return t

    def _check_against_word(self, p: int, q: int, word: str, t: DualScalar) -> None:
        direct = dual_trace(self.word_matrix(word))
        if abs(direct.re - t.re) > RECURSION_TOL * max(1.0, abs(direct.re)):
            raise RecursionMismatch(
                f"slope {p}/{q}: recursion {t.re} vs direct {direct.re}")
        if abs(direct.inf - t.inf) > RECURSION_TOL * max(1.0, abs(direct.re), abs(direct.inf)):
            raise RecursionMismatch(
                f"slope {p}/{q}: recursion eps part {t.inf} vs direct {direct.inf}")

    def word_matrix(self, word: str) -> DualMatrix2:
        """Product of the generators spelled by word over {a, b}.

        The recursion runs in _word_product, so a wrapper around this
        method (perfbench's tracer) sees one call per requested word.
        """
        return unflatten(self._word_product(word))

    def _word_product(self, word: str) -> tuple[float, ...]:
        # trace() memoizes the word of every slope it meets; any other
        # word is split in half and not memoized.
        m = self._words.get(word)
        if m is not None:
            return m
        if word.count("a") + word.count("b") != len(word):
            raise KeyError(f"word {word!r} has a letter outside {{a, b}}")
        cut = len(word) // 2
        return flat_product(self._word_product(word[:cut]), self._word_product(word[cut:]))

    def curve(self, p: int, q: int) -> CurveClass:
        c = self._curves.get((p, q))
        if c is not None:
            return c
        t = self.trace(p, q)
        slope = Slope(-p, q) if self.mirror else Slope(p, q)
        c = CurveClass(slope=slope,
                       word=slope_word(slope),
                       trace=t.re,
                       length=translation_length(t.re),
                       alpha=margulis_from_trace(t))
        self._curves[(p, q)] = c
        return c


def make_tables(rep) -> tuple[TraceTable, TraceTable]:
    """Trace tables for the positive and mirrored slope families of a rep."""
    return (TraceTable(rep.A, rep.B),
            TraceTable(inverse(rep.A), rep.B, mirror=True))


def slope_trace(rep, s: Slope) -> float:
    """Value-part trace of the slope word, with the recursion/word cross-check."""
    return rep.tables[s.p < 0].trace(abs(s.p), s.q).re


def farey_enumerate(max_denominator_sum: int) -> list[Slope]:
    """All canonical slopes with |p| + q <= bound, in Stern-Brocot order.

    Each positive interior slope is followed by its mirror; 1/0 and 0/1
    open the list.
    """
    if max_denominator_sum < 1:
        raise ValueError("max_denominator_sum must be >= 1")
    out = [Slope(1, 0), Slope(0, 1)]
    stack = [((0, 1), (1, 0))]
    while stack:
        (pl, ql), (pr, qr) = stack.pop()
        p, q = pl + pr, ql + qr
        if p + q > max_denominator_sum:
            continue
        out.append(Slope(p, q))
        out.append(Slope(-p, q))
        # push right child last so it is visited first (preorder, a-side first)
        stack.append(((pl, ql), (p, q)))
        stack.append(((p, q), (pr, qr)))
    return out


def enumerate_up_to(rep, max_total_length: float) -> list[CurveClass]:
    """Every curve class with 2*length < max_total_length, in Farey order.

    Prunes the Stern-Brocot subtree of a node past the cutoff that is at
    least as long as both Farey parents: for positive traces u, v <= c at
    the parents and the node, a child has trace u*c - v > c, so the whole
    subtree is longer still.  Nearer the root a node may be shorter than a
    parent, and its subtree is searched.  Every visited node is the node or
    a parent at some prune, so a check of the three traces there sees them
    all; a negative one raises MMLError.
    """
    cutoff = max_total_length / 2.0
    pos, neg = rep.tables
    a, b = pos.curve(1, 0), pos.curve(0, 1)
    curves = [c for c in (a, b) if c.length < cutoff]
    for table in (pos, neg):
        stack = [((0, 1), (1, 0), b, a)]
        while stack:
            (pl, ql), (pr, qr), left, right = stack.pop()
            p, q = pl + pr, ql + qr
            c = table.curve(p, q)
            if c.length < cutoff:
                curves.append(c)
            elif c.length >= left.length and c.length >= right.length:
                if c.trace < 0 or left.trace < 0 or right.trace < 0:
                    bad = min((c, left, right), key=lambda k: k.trace)
                    raise MMLError(f"slope {bad.slope} has negative trace {bad.trace}; "
                                   "length pruning needs positive traces")
                continue
            stack.append(((pl, ql), (p, q), left, c))
            stack.append(((p, q), (pr, qr), c, right))
    return curves


def bin_curves(curves: Iterable[CurveClass], n_max: int) -> list[CurveBin]:
    """Bins C_0 .. C_{n_max} by total pair length 2*length in [N, N+1)."""
    buckets: dict[int, list[CurveClass]] = {}
    for c in curves:
        n = c.bin_index
        if n <= n_max:
            buckets.setdefault(n, []).append(c)
    return [CurveBin(n, tuple(sorted(buckets.get(n, []),
                                     key=lambda c: (c.length, c.slope.p, c.slope.q))))
            for n in range(n_max + 1)]


def fit_bin_constant(bins: Iterable[CurveBin]) -> float:
    """m_hat = max over observed bins of |C_N| / (N+1)^2."""
    return max((len(b.members) / (b.index + 1) ** 2 for b in bins), default=0.0)


def enumerate_family(rep, tail_tolerance: float, n_ceiling: int = 200) -> list[CurveBin]:
    """Bins deep enough that the certified identity tail is below tolerance."""
    from .identity_engine import choose_truncation

    n_max, bins, _ = choose_truncation(rep, tail_tolerance, n_ceiling)
    return bins


def export_census(bins: Iterable[CurveBin], path) -> None:
    """CSV census: slope_p, slope_q, word, trace, length, bin."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slope_p", "slope_q", "word", "trace", "length", "bin"])
        for b in bins:
            for c in b.members:
                w.writerow([c.slope.p, c.slope.q, c.word,
                            f"{c.trace:.12g}", f"{c.length:.12g}", b.index])


def import_curve_list(path) -> list[ImportedTerm]:
    """Read an external pair list (genus >= 2 interface).

    Columns: ell_gamma1, ell_gamma2, alpha_gamma1, alpha_gamma2.  Whether
    the list is complete, and whether symmetric pairs are listed once, is
    the caller's contract.
    """
    terms = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            terms.append(ImportedTerm(
                ell_gamma1=float(row["ell_gamma1"]),
                ell_gamma2=float(row["ell_gamma2"]),
                alpha_gamma1=float(row.get("alpha_gamma1", 0.0) or 0.0),
                alpha_gamma2=float(row.get("alpha_gamma2", 0.0) or 0.0)))
    return terms
