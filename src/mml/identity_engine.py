"""Gap functions, the boundary-length series, and its differentiated form.

The boundary length of a one-holed hyperbolic torus equals the sum over
simple closed curves gamma of D(l_bdry, l_gamma, l_gamma); differentiating
term by term turns the identity into a linear relation between the length
derivatives (Margulis invariants) with coefficients H and K.  Truncation
tails are certified from the exponential summand bounds together with an
empirically fitted bin-count constant, inflated by a safety factor and
labeled as such in reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import NonConvergence, NotHyperbolic
from .sl2grp import dual_trace, margulis_from_trace, translation_length
# make_tables is unused here, but perfbench's tracer wraps identity_engine.make_tables.
from .torus_curves import (CurveBin, ImportedTerm, bin_curves, enumerate_up_to,
                           fit_bin_constant, make_tables)

#: Safety inflation applied to the fitted bin constant and kappa estimate.
SAFETY_FACTOR = 2.0

#: Boundary traces within this of +-2 run the cusp-limit form of the sum.
PARABOLIC_TOL = 1e-9

_GROW_START = 16
_GROW_STEP = 8


class KahanSum:
    """Compensated accumulator; add order is the determinism contract."""

    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        y = x - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


def gap_D(x: float, y: float, z: float) -> float:
    """2 log((e^{x/2} + e^{(y+z)/2}) / (e^{-x/2} + e^{(y+z)/2})).

    Evaluated as 2 log1p(2 sinh(x/2) / (e^{-x/2} + e^{(y+z)/2})) so that
    large y + z does not cancel.
    """
    u = 2.0 * math.sinh(x / 2.0) / (math.exp(-x / 2.0) + math.exp((y + z) / 2.0))
    return 2.0 * math.log1p(u)


def cusp_gap(ell: float) -> float:
    """Limit of gap_D(x, ell, ell)/x as x -> 0: the cusped summand 2/(1+e^ell)."""
    return 2.0 / (1.0 + math.exp(ell))


def coeff_H(u: float, v: float) -> float:
    return 1.0 / (1.0 + math.exp((u + v) / 2.0)) + 1.0 / (1.0 + math.exp((u - v) / 2.0))


def coeff_K(u: float, v: float) -> float:
    """-sinh(v/2) / (cosh(u/2) + cosh(v/2)); equals the difference form of H."""
    return -math.sinh(v / 2.0) / (math.cosh(u / 2.0) + math.cosh(v / 2.0))


def term_derivative(ell1: float, ell2: float, ell_bdry: float,
                    alpha1: float, alpha2: float, alpha_bdry: float) -> float:
    """d/dt of one gap term, by the chain rule on (H, K)."""
    u = ell1 + ell2
    return _term_derivative_from(coeff_H(u, ell_bdry), u, ell_bdry, alpha1 + alpha2, alpha_bdry)


def _term_derivative_from(h_u: float, u: float, ell_bdry: float,
                          alpha_sum: float, alpha_bdry: float) -> float:
    """term_derivative given h_u = coeff_H(u, ell_bdry) and alpha_sum = alpha1 + alpha2."""
    return h_u * alpha_bdry + coeff_K(u, ell_bdry) * alpha_sum


def bound_D(x: float, y: float, z: float) -> float:
    """Exponential summand bound 4 sinh(x/2) e^{-(y+z)/2}."""
    return 4.0 * math.sinh(x / 2.0) * math.exp(-(y + z) / 2.0)


def bound_HK(u: float, v: float) -> float:
    """Shared exponential bound 2 cosh(|v|/2) e^{-u/2} for |H| and |K| at (u, v)."""
    return 2.0 * math.cosh(abs(v) / 2.0) * math.exp(-u / 2.0)


@dataclass(frozen=True)
class BinStat:
    n: int
    count: int
    sum_d: float
    sum_deriv: float


@dataclass(frozen=True)
class SeriesReport:
    """Verification verdict for one truncated series."""

    target: float
    partial_sum: float
    residual: float
    n_max: int
    tail_bound: float
    m_hat: float
    kappa_hat: float
    h_partial_sum: float
    h_threshold_n: int | None
    bins: tuple[BinStat, ...]
    passed: bool

    def to_dict(self) -> dict:
        """dataclasses.asdict(self), without its recursive deep copy."""
        d = dict(vars(self))
        d["bins"] = tuple(dict(vars(b)) for b in self.bins)
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _tail_sum(n_max: int, term) -> float:
    """Sum term(N) for N > n_max until increments vanish."""
    acc = 0.0
    n = n_max + 1
    while True:
        t = term(n)
        acc += t
        n += 1
        if t <= 1e-22 * max(acc, 1e-300) or n > n_max + 4000:
            return acc


def tail_bound_identity(n_max: int, m_hat: float, ell_bdry: float) -> float:
    """Certified remainder of the length sum beyond bin n_max.

    Uses the fitted (and inflated) bin constant; 2/(1+e^l) <= 2 e^{-N/2}
    replaces the sinh factor in the cusp limit.
    """
    m = SAFETY_FACTOR * m_hat
    coef = 4.0 * math.sinh(ell_bdry / 2.0) if ell_bdry > 0 else 2.0
    return _tail_sum(n_max, lambda n: m * coef * (n + 1) ** 2 * math.exp(-n / 2.0))


def tail_bound_derivative(n_max: int, m_hat: float, ell_bdry: float,
                          kappa_hat: float, alpha_bdry: float) -> float:
    """Certified remainder of the differentiated sum beyond bin n_max."""
    m = SAFETY_FACTOR * m_hat
    k = SAFETY_FACTOR * kappa_hat
    c = 4.0 * math.cosh(ell_bdry / 2.0)
    return _tail_sum(
        n_max,
        lambda n: m * c * (2.0 * k * n + abs(alpha_bdry)) * (n + 1) ** 2 * math.exp(-n / 2.0))


def _boundary_values(rep) -> tuple[float, float, bool]:
    """(length, margulis invariant, is_cusp) of the boundary element."""
    t = dual_trace(rep.boundary)
    if abs(abs(t.re) - 2.0) <= PARABOLIC_TOL:
        return 0.0, 0.0, True
    if abs(t.re) < 2.0:
        raise NotHyperbolic(f"boundary trace {t.re} is elliptic")
    return translation_length(t.re), margulis_from_trace(t), False


def _grow(rep, n_ceiling: int) -> Iterator[tuple[int, list[CurveBin], float]]:
    """Yield (n_max, bins, m_hat) at n_max = min(16, n_ceiling), then 8 deeper
    per step, up to the ceiling."""
    n_max = min(_GROW_START, n_ceiling)
    bins: list[CurveBin] = []
    while True:
        # Every step enumerates all curves below its cutoff, so the bins of
        # earlier steps are complete: only the new ones need binning.
        new = [c for c in enumerate_up_to(rep, n_max + 1) if c.bin_index >= len(bins)]
        bins = bins + bin_curves(new, n_max)[len(bins):]
        yield n_max, bins, fit_bin_constant(bins)
        if n_max >= n_ceiling:
            return
        n_max = min(n_max + _GROW_STEP, n_ceiling)


def choose_truncation(rep, tail_tolerance: float, n_ceiling: int = 200,
                      tail=None) -> tuple[int, list[CurveBin], float]:
    """Smallest enumerated depth whose certified tail is below tolerance.

    tail(n_max, bins, m_hat) defaults to the identity tail; a depth with
    no enumerated curve is never accepted.  Raises NonConvergence at the
    bin ceiling.
    """
    if tail_tolerance <= 0:
        raise ValueError("tail_tolerance must be positive")
    if tail is None:
        ell_bdry, _, _ = _boundary_values(rep)
        tail = lambda n_max, bins, m_hat: tail_bound_identity(n_max, m_hat, ell_bdry)
    for n_max, bins, m_hat in _grow(rep, n_ceiling):
        # m_hat == 0: no curve enumerated yet, so the fitted tail reads 0
        # without certifying anything.
        if m_hat > 0 and tail(n_max, bins, m_hat) <= tail_tolerance:
            return n_max, bins, m_hat
    if m_hat == 0:
        raise NonConvergence(f"no curve enumerated up to bin ceiling {n_ceiling}")
    raise NonConvergence(
        f"tail {tail(n_max, bins, m_hat)} > {tail_tolerance} at bin ceiling {n_ceiling}")


def _curve_bins(bins: list[CurveBin]) -> list[tuple[int, list[tuple]]]:
    """Enumerated bins as (index, members), each curve as the pair (l, l, alpha, alpha)."""
    return [(b.index, [(c.length, c.length, c.alpha, c.alpha) for c in b.members])
            for b in bins]


def _imported_bins(terms: list[ImportedTerm]) -> list[tuple[int, list[tuple]]]:
    """Imported pairs binned by int(l1 + l2), bins 0 .. the top one, input order within."""
    by_bin: dict[int, list[tuple]] = {}
    for t in terms:
        by_bin.setdefault(int(t.ell_gamma1 + t.ell_gamma2), []).append(
            (t.ell_gamma1, t.ell_gamma2, t.alpha_gamma1, t.alpha_gamma2))
    return [(n, by_bin.get(n, [])) for n in range(max(by_bin, default=0) + 1)]


def _series(bins, ell_bdry: float, alpha_bdry: float,
            cusp: bool) -> tuple[list[BinStat], list[float]]:
    """One pass over (index, members) bins of (l1, l2, alpha1, alpha2) pairs.

    Returns the per-bin Kahan sums of the gap terms D (the cusp summand
    when cusp) and of their derivatives, and the running sum of the H
    coefficients after each bin.
    """
    stats, h_running = [], []
    h = KahanSum()
    for n, members in bins:
        sd, sv = KahanSum(), KahanSum()
        for l1, l2, a1, a2 in members:
            u = l1 + l2
            hu = coeff_H(u, ell_bdry)
            if cusp:
                sd.add(cusp_gap(l1))
            else:
                sd.add(gap_D(ell_bdry, l1, l2))
                sv.add(_term_derivative_from(hu, u, ell_bdry, a1 + a2, alpha_bdry))
            h.add(hu)
        stats.append(BinStat(n, len(members), sd.total, sv.total))
        h_running.append(h.total)
    return stats, h_running


def _first_over_one(h_running: list[float]) -> int | None:
    """First bin (bins run 0, 1, ...) whose running H sum exceeds 1."""
    return next((n for n, h in enumerate(h_running) if h > 1.0), None)


def _report(target: float, series: tuple[list[BinStat], list[float]], attr: str,
            tail_bound: float, m_hat: float, kappa_hat: float,
            tolerance: float) -> SeriesReport:
    """Combine the bins of a series in index order and judge the residual."""
    stats, h_running = series
    acc = KahanSum()
    for s in stats:  # fixed index order: the deterministic combine contract
        acc.add(getattr(s, attr))
    residual = target - acc.total
    return SeriesReport(
        target=target, partial_sum=acc.total, residual=residual,
        n_max=stats[-1].n if stats else 0, tail_bound=tail_bound, m_hat=m_hat,
        kappa_hat=kappa_hat, h_partial_sum=h_running[-1] if h_running else 0.0,
        h_threshold_n=_first_over_one(h_running), bins=tuple(stats),
        passed=abs(residual) <= max(tail_bound, tolerance))


def kappa_from_bins(bins: list[CurveBin], ell_bdry: float, alpha_bdry: float) -> float:
    """max |alpha| / length over enumerated curves and the boundary."""
    k = abs(alpha_bdry) / ell_bdry if ell_bdry > 0 else 0.0
    for b in bins:
        for c in b.members:
            k = max(k, abs(c.alpha) / c.length)
    return k


def mcshane_sum(rep, tail_tolerance: float = 1e-6, n_ceiling: int = 200) -> SeriesReport:
    """Verify that the gap terms sum to the boundary length.

    A parabolic boundary (trace +-2) switches to the cusp-limit summand
    2/(1+e^l) with target 1.
    """
    ell_bdry, alpha_bdry, cusp = _boundary_values(rep)
    n_max, bins, m_hat = choose_truncation(rep, tail_tolerance, n_ceiling)
    return _report(1.0 if cusp else ell_bdry,
                   _series(_curve_bins(bins), ell_bdry, alpha_bdry, cusp), "sum_d",
                   tail_bound_identity(n_max, m_hat, ell_bdry), m_hat,
                   kappa_from_bins(bins, ell_bdry, alpha_bdry), tail_tolerance)


def margulis_residual(rep, tail_tolerance: float = 1e-6,
                      n_ceiling: int = 200) -> SeriesReport:
    """Verify the differentiated identity for a deformed representation.

    The summed series of per-term derivatives converges to alpha(bdry);
    the residual target - partial_sum equals the difference between
    (1 - sum H) alpha(bdry) and sum K (alpha1 + alpha2).
    """
    ell_bdry, alpha_bdry, cusp = _boundary_values(rep)
    if cusp:
        raise NotHyperbolic("differentiated identity needs a hyperbolic boundary")
    # Bins only grow by appending, so kappa is a running max over the new
    # ones; the last call is on the accepted step's bins.
    scanned, kappa, tail_bound = 0, 0.0, 0.0

    def tail(n_max, bins, m_hat):
        nonlocal scanned, kappa, tail_bound
        kappa = max(kappa, kappa_from_bins(bins[scanned:], ell_bdry, alpha_bdry))
        scanned = len(bins)
        tail_bound = tail_bound_derivative(n_max, m_hat, ell_bdry, kappa, alpha_bdry)
        return tail_bound

    n_max, bins, m_hat = choose_truncation(rep, tail_tolerance, n_ceiling, tail)
    return _report(alpha_bdry,
                   _series(_curve_bins(bins), ell_bdry, alpha_bdry, cusp=False), "sum_deriv",
                   tail_bound, m_hat, kappa, tail_tolerance)


def mirzakhani_threshold(rep, n_ceiling: int = 200) -> tuple[list[float], int | None]:
    """Running bin sums of the H coefficients and the first bin where they exceed 1."""
    ell_bdry, _, cusp = _boundary_values(rep)
    if cusp:
        raise NotHyperbolic("threshold needs a hyperbolic boundary")
    for _, bins, _ in _grow(rep, n_ceiling):
        h_running = _series(_curve_bins(bins), ell_bdry, 0.0, cusp=False)[1]
        if _first_over_one(h_running) is not None:
            break
    return h_running, _first_over_one(h_running)


def kappa_estimate(rep, max_total_length: float = 40.0) -> float:
    """Empirical bound max |alpha(gamma)| / l(gamma) over enumerated curves."""
    ell_bdry, alpha_bdry, cusp = _boundary_values(rep)
    curves = enumerate_up_to(rep, max_total_length)
    bins = bin_curves(curves, int(max_total_length))
    return kappa_from_bins(bins, 0.0 if cusp else ell_bdry, alpha_bdry)


def mcshane_sum_imported(ell_bdry: float, terms: list[ImportedTerm],
                         tolerance: float = 1e-6) -> SeriesReport:
    """Length identity over an externally supplied pair list (genus >= 2).

    No tail certification: coverage is the caller's contract, so the
    report passes purely on the tolerance.
    """
    return _report(ell_bdry, _series(_imported_bins(terms), ell_bdry, 0.0, cusp=False),
                   "sum_d", 0.0, 0.0, 0.0, tolerance)


def margulis_residual_imported(ell_bdry: float, alpha_bdry: float,
                               terms: list[ImportedTerm],
                               tolerance: float = 1e-6) -> SeriesReport:
    """Differentiated identity over an externally supplied pair list."""
    return _report(alpha_bdry,
                   _series(_imported_bins(terms), ell_bdry, alpha_bdry, cusp=False),
                   "sum_deriv", 0.0, 0.0, 0.0, tolerance)
