"""Simple closed curves on the one-holed torus, indexed by Farey slopes.

Isotopy classes of essential simple closed curves correspond to slopes
p/q (coprime, q > 0, plus 1/0), written as the tuple (p, q).  Traces
are computed both by the trace recursion tr(UV) = tr(U) tr(V) - tr(UV^-1)
along the Farey tree of both signs and by direct matrix evaluation of
each slope's Christoffel word (spelled with A = a^-1 for a negative p),
built as the product of its Farey parents' word matrices; the word itself
is spelled out only for the census.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .dualnum import DualScalar
from .errors import MMLError, RecursionMismatch
from .sl2grp import (DualMatrix2, compose, dual_trace, flat_product, inverse,
                     margulis_from_trace, translation_length)

#: Direct evaluation vs recursion disagreement beyond this raises.
RECURSION_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class CurveClass:
    """One isotopy class: slope p/q and values under the active representation."""

    p: int
    q: int
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


@lru_cache(maxsize=None)
def _farey_triangle(p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Farey triangle (lower, upper, third) of an interior slope p/q, p != 0, q >= 1
    coprime: its Stern-Brocot parents, lower + upper = (p, q), and the far vertex
    third = upper - lower, signed so q >= 0, of the other triangle on their edge.
    A negative slope has the triangle of -p/q with p negated, 1/0 written as -1/0."""
    if p < 0:
        return tuple((-a, b) for a, b in _farey_triangle(-p, q))
    b = pow(p, -1, q) or 1  # mod 1 the inverse is 0; b = 1 gives (p-1)/1 and 1/0
    a = (p * b - 1) // q
    dp, dq = p - 2 * a, q - 2 * b  # upper - lower
    return (a, b), (p - a, q - b), (dp, dq) if dq >= 0 else (-dp, -dq)


@lru_cache(maxsize=None)
def christoffel_word(p: int, q: int) -> str:
    """Christoffel word of slope p/q over {a, b}, or over {A, b} with A = a^-1
    for a negative p (and -1/0); abelianization (p, q)."""
    if q == 0:
        return "a" if p > 0 else "A"
    if p == 0:
        return "b"
    lower, upper, _ = _farey_triangle(p, q)
    return christoffel_word(*upper) + christoffel_word(*lower)


class TraceTable:
    """Memoized dual traces of slope words for one pair of generator matrices.

    Keys are the signed slopes (p, q), q >= 0, and 1/0 is also stored as -1/0,
    the parent of the negative slopes next to it.  The seeds 1/0, -1/0, 0/1, 1/1
    and -1/1 are traced from compose's fma-rounded products; trace takes any other
    slope from the other three vertices of its _farey_triangle.  Four memos share
    the keys: the traces; the word matrix of each traced slope as the 8 floats
    val + eps, its Farey parents' product by flat_product; the length of each
    slope asked for by length; the curve class of each slope asked for by curve.
    Every new trace is checked, value and eps part, against the trace of its word
    matrix and raises RecursionMismatch past RECURSION_TOL.  Build once, then
    treat as read-only.
    """

    def __init__(self, gen_a: DualMatrix2, gen_b: DualMatrix2):
        inv_a = inverse(gen_a)
        seeds = {(1, 0): gen_a, (-1, 0): inv_a, (0, 1): gen_b,
                 (1, 1): compose(gen_a, gen_b), (-1, 1): compose(inv_a, gen_b)}
        self._memo: dict[tuple[int, int], DualScalar] = {
            s: dual_trace(m) for s, m in seeds.items()}
        self._words: dict[tuple[int, int], tuple[float, ...]] = {
            s: m.val + m.eps for s, m in seeds.items()}
        self._lengths: dict[tuple[int, int], float] = {}
        self._curves: dict[tuple[int, int], CurveClass] = {}

    def trace(self, p: int, q: int) -> DualScalar:
        memo = self._memo
        t = memo.get((p, q))
        if t is not None:
            return t
        lower, upper, third = _farey_triangle(p, q)
        # A neighbour not traced yet goes through self.trace, so a wrapper
        # around it (perfbench's tracer) still sees every new slope; a
        # DualScalar is never falsy.
        lo = memo.get(lower) or self.trace(*lower)
        up = memo.get(upper) or self.trace(*upper)
        th = memo.get(third) or self.trace(*third)
        t = lo * up - th
        # word(p/q) = word(upper) + word(lower), and both parents are traced,
        # so their word matrices are in the memo: one product per new slope.
        words = self._words
        words[(p, q)] = flat_product(words[upper], words[lower])
        m = self.word_matrix((p, q))
        re, eps = m[0] + m[3], m[4] + m[7]
        if abs(re - t.re) > RECURSION_TOL * max(1.0, abs(re)):
            raise RecursionMismatch(f"slope {p}/{q}: recursion {t.re} vs direct {re}")
        if abs(eps - t.inf) > RECURSION_TOL * max(1.0, abs(re), abs(eps)):
            raise RecursionMismatch(f"slope {p}/{q}: recursion eps part {t.inf} vs direct {eps}")
        memo[(p, q)] = t
        return t

    def word_matrix(self, slope: tuple[int, int]) -> tuple[float, ...]:
        """Matrix of the Christoffel word of a traced slope (p, q), as the 8
        floats val + eps; KeyError for a slope not traced yet."""
        return self._words[slope]

    def length(self, p: int, q: int) -> float:
        """translation_length of slope p/q's trace value part.

        Raises MMLError on a negative trace, which length pruning cannot
        handle; nothing is stored then, so every visit raises.
        """
        n = self._lengths.get((p, q))
        if n is None:
            t = self.trace(p, q).re
            n = translation_length(t)
            if t < 0:
                raise MMLError(f"slope {p}/{q} has negative trace {t}; "
                               "length pruning needs positive traces")
            self._lengths[(p, q)] = n
        return n

    def curve(self, p: int, q: int) -> CurveClass:
        c = self._curves.get((p, q))
        if c is not None:
            return c
        length = self.length(p, q)
        t = self._memo[(p, q)]
        c = CurveClass(p, q, t.re, length, margulis_from_trace(t))
        self._curves[(p, q)] = c
        return c


def make_tables(rep) -> TraceTable:
    """The trace table of a rep, over the slopes of both signs."""
    return TraceTable(rep.A, rep.B)


def enumerate_up_to(rep, max_total_length: float) -> list[CurveClass]:
    """Every curve class with 2*length < max_total_length, in Farey order.

    Prunes the Stern-Brocot subtree of a node past the cutoff that is at
    least as long as both Farey parents: for positive traces u, v <= c at
    the parents and the node, a child has trace u*c - v > c, so the whole
    subtree is longer still.  Nearer the root a node may be shorter than a
    parent, and its subtree is searched.  Nodes are judged by their
    memoized TraceTable.length, so each is traced and cross-checked, and the
    first visited slope with a negative trace raises MMLError there; a curve
    class is built only for a slope that is emitted.
    """
    cutoff = max_total_length / 2.0
    table = rep.table
    lengths = table._lengths
    a, b = table.length(1, 0), table.length(0, 1)
    curves = [table.curve(*s) for s, n in (((1, 0), a), ((0, 1), b)) if n < cutoff]
    # the positive root is on top, so its whole subtree is walked first
    stack = [(0, 1, -1, 0, b, a), (0, 1, 1, 0, b, a)]
    while stack:
        pl, ql, pr, qr, left, right = stack.pop()
        p, q = pl + pr, ql + qr
        length = lengths.get((p, q)) or table.length(p, q)
        if length < cutoff:
            curves.append(table.curve(p, q))
        elif length >= left and length >= right:
            continue
        stack.append((pl, ql, p, q, left, length))
        stack.append((p, q, pr, qr, length, right))
    return curves


def bin_curves(curves: Iterable[CurveClass], n_max: int, n_min: int = 0) -> list[CurveBin]:
    """Bins C_{n_min} .. C_{n_max} by total pair length 2*length in [N, N+1)."""
    buckets: dict[int, list[CurveClass]] = {}
    shortest = n_min / 2.0  # bin_index >= n_min exactly when length >= n_min / 2
    for c in curves:
        if c.length >= shortest and (n := c.bin_index) <= n_max:
            buckets.setdefault(n, []).append(c)
    return [CurveBin(n, tuple(sorted(buckets.get(n, []),
                                     key=lambda c: (c.length, c.p, c.q))))
            for n in range(n_min, n_max + 1)]


def fit_bin_constant(bins: Iterable[CurveBin]) -> float:
    """m_hat = max over observed bins of |C_N| / (N+1)^2."""
    return max((len(b.members) / (b.index + 1) ** 2 for b in bins), default=0.0)


def export_census(bins: list[CurveBin], path) -> None:
    """CSV census: slope_p, slope_q, word, trace, length, bin; then the row m_hat,
    fit_bin_constant(bins)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slope_p", "slope_q", "word", "trace", "length", "bin"])
        for b in bins:
            for c in b.members:
                w.writerow([c.p, c.q, christoffel_word(c.p, c.q),
                            f"{c.trace:.12g}", f"{c.length:.12g}", b.index])
        w.writerow(["m_hat", f"{fit_bin_constant(bins):.12g}", "", "", "", ""])
