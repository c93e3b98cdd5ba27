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
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Iterable

from .dualnum import DualScalar
from .errors import MMLError, RecursionMismatch
from .sl2grp import (DualMatrix2, compose, dual_trace, flat_product, inverse,
                     margulis_from_trace, translation_length)

#: Direct evaluation vs recursion disagreement beyond this raises.
RECURSION_TOL = 1e-6


@dataclass(frozen=True, slots=True, init=False)
class CurveClass:
    """One isotopy class: slope p/q and values under the active representation."""

    p: int
    q: int
    trace: float
    length: float
    alpha: float = 0.0

    def __init__(self, p: int, q: int, trace: float, length: float, alpha: float = 0.0):
        _set_p(self, p)
        _set_q(self, q)
        _set_trace(self, trace)
        _set_length(self, length)
        _set_alpha(self, alpha)

    @property
    def bin_index(self) -> int:
        """N with 2*length in [N, N+1)."""
        return int(math.floor(2.0 * self.length))


_set_p, _set_q, _set_trace, _set_length, _set_alpha = (  # slot writes, as in DualScalar
    getattr(CurveClass, f.name).__set__ for f in fields(CurveClass))


@dataclass(frozen=True, slots=True, init=False)
class CurveBin:
    index: int
    members: tuple[CurveClass, ...]

    def __init__(self, index: int, members: tuple[CurveClass, ...]):
        _set_index(self, index)
        _set_members(self, members)


_set_index, _set_members = (getattr(CurveBin, f.name).__set__ for f in fields(CurveBin))


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
    and -1/1 are traced from compose's products; trace takes any other
    slope from the other three vertices of its _farey_triangle.  Two memos share
    the keys: the traces, and the word matrix of each traced slope as the 8
    floats val + eps, its Farey parents' product by flat_product.  A slope is
    traced in full only for trace or curve, or as a triangle vertex of a slope
    being judged; every new trace is checked, value and eps part, against the
    trace of its word matrix and raises RecursionMismatch past RECURSION_TOL.
    length gives any other slope a checked value, no eps part, and stores nothing;
    curve takes the length it gave.  A slope is stored in both memos at once, only
    after both checks pass, so a refused slope is stored in neither.  _walk is
    enumerate_up_to's last walk, the only record of the lengths it judged and
    the classes it emitted, which the next deeper call resumes.
    """

    def __init__(self, gen_a: DualMatrix2, gen_b: DualMatrix2):
        inv_a = inverse(gen_a)
        seeds = {(1, 0): gen_a, (-1, 0): inv_a, (0, 1): gen_b,
                 (1, 1): compose(gen_a, gen_b), (-1, 1): compose(inv_a, gen_b)}
        self._memo: dict[tuple[int, int], DualScalar] = {
            s: dual_trace(m) for s, m in seeds.items()}
        self._words: dict[tuple[int, int], tuple[float, ...]] = {
            s: m.val + m.eps for s, m in seeds.items()}
        self._walk: tuple[float, tuple[CurveClass, ...], list] | None = None

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
        # word(p/q) = word(upper) + word(lower), and both parents are traced, so their
        # word matrices are in the memo: one product and one word_matrix call per new slope.
        m = flat_product(self.word_matrix(upper), self._words[lower])
        re, eps = m[0] + m[3], m[4] + m[7]
        scale = abs(re)
        scale = scale if scale > 1.0 else 1.0  # max(1.0, |re|), which also reads NaN as 1.0
        if abs(re - t.re) > RECURSION_TOL * scale:
            raise RecursionMismatch(f"slope {p}/{q}: recursion {t.re} vs direct {re}")
        a = abs(eps)
        if abs(eps - t.inf) > RECURSION_TOL * (a if a > scale else scale):
            raise RecursionMismatch(f"slope {p}/{q}: recursion eps part {t.inf} vs direct {eps}")
        self._words[(p, q)] = m  # stored only once both checks pass
        memo[(p, q)] = t
        return t

    def word_matrix(self, slope: tuple[int, int]) -> tuple[float, ...]:
        """Matrix of the Christoffel word of a traced slope (p, q), as the 8
        floats val + eps; KeyError for a slope not traced yet."""
        return self._words[slope]

    def length(self, p: int, q: int) -> float:
        """translation_length of slope p/q's trace value part.

        A slope not traced yet is judged by its value alone: lo.re * up.re -
        th.re from its traced triangle, checked as trace checks it against the
        value part of W(upper)*W(lower).  Raises MMLError on a negative trace,
        which length pruning cannot handle.  Nothing is stored.
        """
        memo = self._memo
        t = memo.get((p, q))
        if t is not None:
            t = t.re
        else:
            lower, upper, third = _farey_triangle(p, q)
            lo = memo.get(lower) or self.trace(*lower)
            up = memo.get(upper) or self.trace(*upper)
            th = memo.get(third) or self.trace(*third)
            t = lo.re * up.re - th.re
            a, b, c, d, _, _, _, _ = self._words[upper]
            e, f, g, h, _, _, _, _ = self._words[lower]
            re = (a * e + b * g) + (c * f + d * h)  # flat_product's entries 0 and 3
            scale = abs(re)
            if abs(re - t) > RECURSION_TOL * (scale if scale > 1.0 else 1.0):
                raise RecursionMismatch(f"slope {p}/{q}: recursion {t} vs direct {re}")
        n = translation_length(t)
        if t < 0:
            raise MMLError(f"slope {p}/{q} has negative trace {t}; "
                           "length pruning needs positive traces")
        return n

    def curve(self, p: int, q: int, length: float) -> CurveClass:
        """A new class of slope p/q with its judged length self.length(p, q), from its full
        trace (taken now for a slope judged by value only); nothing is stored."""
        t = self.trace(p, q)
        return CurveClass(p, q, t.re, length, margulis_from_trace(t))


def make_tables(rep) -> TraceTable:
    """The trace table of a rep, over the slopes of both signs."""
    return TraceTable(rep.A, rep.B)


def enumerate_up_to(rep, max_total_length: float) -> list[CurveClass]:
    """Every curve class with 2*length < max_total_length.

    Prunes the Stern-Brocot subtree of a node past the cutoff that is at
    least as long as both Farey parents: for positive traces u, v <= c at
    the parents and the node, a child has trace u*c - v > c, so the whole
    subtree is longer still.  Nearer the root a node may be shorter than a
    parent, and its subtree is searched.  Each node is judged once per table,
    by TraceTable.length: an emitted slope and each triangle vertex of a
    visited one get a full trace, value and eps part cross-checked; the rest, the
    pruned frontier, get only their checked value.  The first visited slope with
    a negative trace raises MMLError there; a curve class is built once, on a
    slope's emit, with the length it was judged by, so no length is computed twice.

    The table keeps the last walk: its cutoff, the classes emitted and the
    pending list of every visited slope not emitted, in depth-first order, as
    (length, p, q), or for a pruned slope, its subtree still to walk, as
    (length, pl, ql, pr, qr, left, right), with its Farey parents and their
    lengths; it starts as the seeds and the two roots, unjudged at length -inf.
    A deeper call scans that list: it emits each entry now below the cutoff and
    walks a pruned one's subtree in its place, so new slopes are judged in a
    fresh walk's order and a pruned one is not judged again.  It returns the
    earlier classes, then the new ones; a call no deeper returns the stored
    classes below its cutoff.  An error leaves the stored walk as it was.
    """
    cutoff = max_total_length / 2.0
    table = rep.table
    if table._walk is None:  # the positive root comes first, so its subtree is walked first
        a, b = table.length(1, 0), table.length(0, 1)
        roots = [(-math.inf, 0, 1, 1, 0, b, a), (-math.inf, 0, 1, -1, 0, b, a)]
        table._walk = (-math.inf, (), [(a, 1, 0), (b, 0, 1)] + roots)
    last, done, pending = table._walk
    if not cutoff > last:
        return [c for c in done if c.length < cutoff]
    curves, kept, stack, unjudged = list(done), [], [], -math.inf
    emit, keep, pop, push = curves.append, kept.append, stack.pop, stack.append
    for entry in pending:
        if not entry[0] < cutoff:
            keep(entry)
        elif len(entry) == 3:  # a seed, or a searched slope
            emit(table.curve(entry[1], entry[2], entry[0]))
        else:  # a pruned slope, or a root not judged yet: walk from it
            push(entry)
            while stack:
                length, pl, ql, pr, qr, left, right = pop()
                p, q = pl + pr, ql + qr
                if length == unjudged:
                    length = table.length(p, q)
                if length < cutoff:
                    emit(table.curve(p, q, length))
                elif length >= left and length >= right:
                    keep((length, pl, ql, pr, qr, left, right))
                    continue
                else:
                    keep((length, p, q))
                push((unjudged, pl, ql, p, q, left, length))
                push((unjudged, p, q, pr, qr, length, right))
    table._walk = (cutoff, tuple(curves), kept)
    return curves


def bin_curves(curves: Iterable[CurveClass], n_max: int, n_min: int = 0) -> list[CurveBin]:
    """Bins C_{n_min} .. C_{n_max} by total pair length 2*length in [N, N+1)."""
    buckets: dict[int, list[CurveClass]] = {}
    shortest = n_min / 2.0  # bin_index >= n_min exactly when length >= n_min / 2
    for c in curves:
        if c.length >= shortest and (n := c.bin_index) <= n_max:
            buckets.setdefault(n, []).append(c)
    return [CurveBin(n, tuple(buckets.get(n, ()))) for n in range(n_min, n_max + 1)]


def fit_bin_constant(bins: Iterable[CurveBin]) -> float:
    """m_hat = max over observed bins of |C_N| / (N+1)^2."""
    return max((len(b.members) / (b.index + 1) ** 2 for b in bins), default=0.0)


def export_census(bins: list[CurveBin], path) -> None:
    """CSV census: slope_p, slope_q, word, trace, length, bin, each bin's rows by
    (length, p, q); then the row m_hat, fit_bin_constant(bins)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slope_p", "slope_q", "word", "trace", "length", "bin"])
        for b in bins:
            for c in sorted(b.members, key=lambda c: (c.length, c.p, c.q)):
                w.writerow([c.p, c.q, christoffel_word(c.p, c.q),
                            f"{c.trace:.12g}", f"{c.length:.12g}", b.index])
        w.writerow(["m_hat", f"{fit_bin_constant(bins):.12g}", "", "", "", ""])
