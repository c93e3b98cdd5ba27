"""Gap functions, the boundary-length series, and its differentiated form.

The boundary length of a one-holed hyperbolic torus equals the sum over
simple closed curves gamma of D(l_bdry, l_gamma, l_gamma); differentiating
term by term turns the identity into a linear relation between the length
derivatives (Margulis invariants) with coefficients H and K.  Truncation
tails are certified from the exponential summand bounds together with an
empirically fitted bin-count constant, inflated by a safety factor.  Reports
carry the fitted constant m_hat and the slope bound kappa_hat as empirical
figures; no report field marks them as such.  At a cusp (l_bdry -> 0) the identity
over l_bdry is McShane's: its summand lim D(x, l, l)/x is H(2l, 0) = 2/(1+e^l), so
partial_sum and h_partial_sum are the same exact sum of the same terms, and the tail's
c = 4 sinh(l_bdry/2) becomes its limit over l_bdry, 2.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields

from .errors import NonConvergence, NotHyperbolic
# Unused here: perfbench reads identity_engine.PARABOLIC_TOL and wraps its make_tables.
from .sl2grp import PARABOLIC_TOL, dual_trace, margulis_from_trace, translation_length
from .torus_curves import CurveBin, bin_curves, enumerate_up_to, fit_bin_constant, make_tables

#: Safety inflation applied to the fitted bin constant and kappa estimate.
SAFETY_FACTOR = 2.0

_GROW_START = 16
_GROW_STEP = 8
_BIN_JSON = ('    {\n      "n": %s,\n      "count": %s,\n      "sum_d": %s,\n'
             '      "sum_deriv": %s\n    }')  # one BinStat in SeriesReport.to_json


def gap_D(x: float, y: float, z: float) -> float:
    """2 log((e^{x/2} + e^{(y+z)/2}) / (e^{-x/2} + e^{(y+z)/2}))."""
    return _gap_term(x / 2.0, 2.0 * math.sinh(x / 2.0), math.exp(-x / 2.0), (y + z) / 2.0)


def _gap_term(h: float, s: float, e: float, w: float) -> float:
    """gap_D at x = 2h, y + z = 2w, from x's factors s = 2 sinh(h) and e = e^-h, as
    2 log1p(s / (e + e^w)), so that large y + z does not cancel."""
    if w > 700.0:  # divide through by e^w, which would overflow
        return 2.0 * math.log1p(s * math.exp(-w) / (math.exp(-h - w) + 1.0))
    return 2.0 * math.log1p(s / (e + math.exp(w)))


def coeff_H(u: float, v: float) -> float:
    a, b = (u + v) / 2.0, (u - v) / 2.0  # past 700, 1/(1+e^w) as e^-w/(1+e^-w): e^w overflows
    return ((1.0 / (1.0 + math.exp(a)) if a <= 700.0 else math.exp(-a) / (1.0 + math.exp(-a)))
            + (1.0 / (1.0 + math.exp(b)) if b <= 700.0 else math.exp(-b) / (1.0 + math.exp(-b))))


def coeff_K(u: float, v: float) -> float:
    """-sinh(v/2) / (cosh(u/2) + cosh(v/2)); equals the difference form of H."""
    return _k_term(u, math.sinh(v / 2.0), math.cosh(v / 2.0))


def _k_term(u: float, sh: float, ch: float) -> float:
    """coeff_K(u, v) from v's factors sh = sinh(v/2) and ch = cosh(v/2)."""
    if u > 1400.0:  # cosh(u/2) would overflow: divide through by it, up to e^-u
        s = 2.0 * math.exp(-u / 2.0)
        return -sh * s / (1.0 + ch * s)
    return -sh / (math.cosh(u / 2.0) + ch)


@dataclass(frozen=True, slots=True, init=False)
class BinStat:
    n: int
    count: int
    sum_d: float
    sum_deriv: float

    def __init__(self, n: int, count: int, sum_d: float, sum_deriv: float):
        _set_n(self, n)
        _set_count(self, count)
        _set_sum_d(self, sum_d)
        _set_sum_deriv(self, sum_deriv)


_set_n, _set_count, _set_sum_d, _set_sum_deriv = (  # slot writes, as in CurveClass
    getattr(BinStat, f.name).__set__ for f in fields(BinStat))


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

    def to_json(self) -> str:
        """json.dumps(dataclasses.asdict(self), indent=2), byte for byte: indent selects
        json's Python encoder, so its C one writes the values (repr, null, true, NaN...)
        in one flat list."""
        keys = [k for k in vars(self) if k != "bins"]
        flat = [getattr(self, k) for k in keys]
        for b in self.bins:
            flat += (b.n, b.count, b.sum_d, b.sum_deriv)
        vals = json.dumps(flat)[1:-1].split(", ")  # numbers, null, true, false: no ", "
        lines = [f'  "{k}": {v}' for k, v in zip(keys, vals)]
        bins = ",\n".join(_BIN_JSON % tuple(vals[i:i + 4]) for i in range(len(keys), len(vals), 4))
        lines.insert(list(vars(self)).index("bins"),
                     f'  "bins": [\n{bins}\n  ]' if bins else '  "bins": []')
        return "{\n" + ",\n".join(lines) + "\n}"


def _tail_sum(n_max: int, m_hat: float, c: float, kappa_hat: float, a: float,
              bound: float = math.inf) -> float:
    """Certified remainder beyond bin n_max: the sum over N > n_max of S m_hat c
    (2 S kappa_hat N + a) (N+1)^2 e^{-N/2}, S = SAFETY_FACTOR, until the increments
    vanish or the sum passes bound.  Adding terms >= 0 never lowers a float sum, so one
    that ends <= bound keeps its bits; one that is not finite raises OverflowError."""
    m, k = SAFETY_FACTOR * m_hat, SAFETY_FACTOR * kappa_hat
    acc = 0.0
    for n in range(n_max + 1, n_max + 4001):
        acc += (t := m * c * (2.0 * k * n + a) * (n + 1) ** 2 * math.exp(-n / 2.0))
        if acc > bound or t <= 1e-22 * max(acc, 1e-300):
            break
    if not math.isfinite(acc):
        raise OverflowError(f"tail {acc} at n_max {n_max}")
    return acc


def tail_bound_identity(n_max: int, m_hat: float, ell_bdry: float,
                        bound: float = math.inf) -> float:
    """Certified remainder of the length sum beyond bin n_max: c = 4 sinh(l/2),
    kappa_hat = 0, a = 1; 2/(1+e^l) <= 2 e^{-N/2} gives c = 2 in the cusp limit."""
    coef = 4.0 * math.sinh(ell_bdry / 2.0) if ell_bdry > 0 else 2.0
    return _tail_sum(n_max, m_hat, coef, 0.0, 1.0, bound)


def tail_bound_derivative(n_max: int, m_hat: float, ell_bdry: float, kappa_hat: float,
                          alpha_bdry: float, bound: float = math.inf) -> float:
    """Certified remainder of the differentiated sum beyond bin n_max: c = 4 cosh(l/2),
    a = |alpha(bdry)|."""
    return _tail_sum(n_max, m_hat, 4.0 * math.cosh(ell_bdry / 2.0), kappa_hat,
                     abs(alpha_bdry), bound)


def _boundary_values(rep) -> tuple[float, float]:
    """(length, margulis invariant) of the boundary element; (0.0, 0.0) at a cusp."""
    if rep.coords.kind() == "cusp":
        return 0.0, 0.0
    t = dual_trace(rep.boundary)  # translation_length refuses a non-hyperbolic trace
    return translation_length(t.re), margulis_from_trace(t)


def kappa_from_bins(bins: list[CurveBin], ell_bdry: float, alpha_bdry: float) -> float:
    """max |alpha| / length over enumerated curves and the boundary."""
    k = abs(alpha_bdry) / ell_bdry if ell_bdry > 0 else 0.0
    for b in bins:
        for c in b.members:
            k = r if (r := abs(c.alpha) / c.length) > k else k  # max(k, r), NaN k kept too
    return k


def choose_truncation(rep, ell_bdry: float, alpha_bdry: float, tail_tolerance: float,
                      n_ceiling: int, tail) -> tuple[list[CurveBin], float, float, float]:
    """(bins, m_hat, kappa, tail) at the least depth n_max = min(16, n_ceiling), then 8
    deeper per step up to the ceiling, whose certified tail is at most the tolerance.

    tail(n_max, m_hat, kappa, stop) may stop once past stop (inf at the ceiling, so
    NonConvergence gives the full tail); a depth with no enumerated curve is never
    accepted.
    """
    if tail_tolerance <= 0:
        raise ValueError("tail_tolerance must be positive")
    bins, m_hat, kappa, seen = [], 0.0, 0.0, 0
    depths = range(min(_GROW_START, n_ceiling), n_ceiling + _GROW_STEP, _GROW_STEP)
    for n_max in (min(n, n_ceiling) for n in depths):  # lazy: a far ceiling costs nothing
        # Every step enumerates all curves below its cutoff, so the bins of earlier
        # steps are complete: m_hat and kappa are running maxima over the new ones.
        curves = enumerate_up_to(rep, n_max + 1)  # on this grid, the last step's classes first
        new = bin_curves(curves[seen:], n_max, len(bins))
        if sum(len(b.members) for b in new) != len(curves) - seen:  # not so: a walk left deeper
            new = bin_curves(curves, n_max, len(bins))
        seen = len(curves)
        bins, m_hat = bins + new, max(m_hat, fit_bin_constant(new))
        kappa = max(kappa, kappa_from_bins(new, ell_bdry, alpha_bdry))
        stop = tail_tolerance if n_max < n_ceiling else math.inf
        # m_hat == 0: no curve enumerated yet, so the fitted tail reads 0
        # without certifying anything.
        if m_hat > 0 and (bound := tail(n_max, m_hat, kappa, stop)) <= tail_tolerance:
            return bins, m_hat, kappa, bound
    if m_hat == 0:
        raise NonConvergence(f"no curve enumerated up to bin ceiling {n_ceiling}")
    raise NonConvergence(f"tail {bound} > {tail_tolerance} at bin ceiling {n_ceiling}")


def _verify_series(rep, tail_tolerance: float, n_ceiling: int,
                   derivative: bool) -> SeriesReport:
    """Truncate one series and judge its residual: the length identity, or with
    derivative its first variation.  Each curve enters as the pair (l, l, alpha, alpha).
    Each bin's gap terms D (the cusp summand H(2l, 0) when ell_bdry == 0) and derivatives,
    the whole series and the H coefficients are math.fsum'd: every sum is its terms' exact
    sum rounded once, so no report depends on the order of the curves."""
    ell_bdry, alpha_bdry = _boundary_values(rep)
    if not derivative:
        target = ell_bdry if ell_bdry > 0 else 1.0  # the cusp summands sum to 1
        tail = lambda n, m, k, stop: tail_bound_identity(n, m, ell_bdry, stop)
    elif ell_bdry == 0:
        raise NotHyperbolic("boundary-parabolic: no differentiated identity at a cusp")
    elif not math.isfinite(alpha_bdry):  # the boundary commutator's eps part overflowed
        raise OverflowError(f"boundary Margulis invariant {alpha_bdry}")
    else:
        target = alpha_bdry
        tail = lambda n, m, k, stop: tail_bound_derivative(n, m, ell_bdry, k, alpha_bdry, stop)
    bins, m_hat, kappa, tail_bound = choose_truncation(rep, ell_bdry, alpha_bdry,
                                                       tail_tolerance, n_ceiling, tail)
    h = ell_bdry / 2.0  # the boundary's factors of gap_D and coeff_K, once per report
    sh, ch, e, s = math.sinh(h), math.cosh(h), math.exp(-h), 2.0 * math.sinh(h)
    stats, terms, hs = [], [], []
    for b in bins:
        sd, sv = [], []
        for c in b.members:
            l, a = c.length, c.alpha
            u = l + l
            hu = coeff_H(u, ell_bdry)
            if ell_bdry == 0:
                sd.append(hu)  # H(2l, 0) = lim D(x, l, l)/x, the cusp summand 2/(1+e^l)
            else:
                sd.append(_gap_term(h, s, e, l))  # gap_D(ell_bdry, l, l)
                sv.append(hu * alpha_bdry + _k_term(u, sh, ch) * (a + a))
            hs.append(hu)
        # fsum would raise on an inf term or overflow: such alphas fail choose_truncation first
        stats.append(BinStat(b.index, len(b.members), math.fsum(sd), math.fsum(sv)))
        terms += sv if derivative else sd
    partial_sum, h_partial_sum, h_threshold_n = math.fsum(terms), math.fsum(hs), None
    if h_partial_sum > 1.0:  # the first bin whose prefix sum of H exceeds 1
        ends = itertools.accumulate(s.count for s in stats)
        h_threshold_n = next(s.n for s, end in zip(stats, ends) if math.fsum(hs[:end]) > 1.0)
    residual = target - partial_sum
    return SeriesReport(
        target=target, partial_sum=partial_sum, residual=residual, n_max=bins[-1].index,
        tail_bound=tail_bound, m_hat=m_hat, kappa_hat=kappa, h_partial_sum=h_partial_sum,
        h_threshold_n=h_threshold_n, bins=tuple(stats),
        passed=abs(residual) <= tail_tolerance)  # choose_truncation's tail is <= it


def mcshane_sum(rep, tail_tolerance: float = 1e-6, n_ceiling: int = 200) -> SeriesReport:
    """Verify that the gap terms sum to the boundary length.

    A parabolic boundary (trace -2) switches to the cusp-limit summand
    H(2l, 0) = 2/(1+e^l) with target 1.
    """
    return _verify_series(rep, tail_tolerance, n_ceiling, derivative=False)


def margulis_residual(rep, tail_tolerance: float = 1e-6,
                      n_ceiling: int = 200) -> SeriesReport:
    """Verify the differentiated identity for a deformed representation.

    The summed series of per-term derivatives converges to alpha(bdry);
    the residual target - partial_sum equals the difference between
    (1 - sum H) alpha(bdry) and sum K (alpha1 + alpha2).
    """
    return _verify_series(rep, tail_tolerance, n_ceiling, derivative=True)
