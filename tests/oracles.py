"""Reference computations the tests hold mml against.

Nothing here is imported from mml but its errors, so an oracle shares no
code with what it checks.  It holds:

* the Lorentzian Margulis invariant, an independent route to the length
  derivative that mml computes from dual traces;
* the exponential bounds on the gap summand and on the coefficients H and K,
  and the closed form 2/(1+e^l) of the cusp summand;
* the derivative of one gap term by the chain rule, with H and K in their
  closed forms;
* the trace recursion over the Farey tree in 80-digit decimal arithmetic,
  value and eps part, from a table's five seed traces;
* the determinant of a dual 2x2 matrix and the unit-determinant group test;
* the boundary trace of three floats as an exact Fraction, and the domain
  decision read from it;
* the canonical slopes with |p| + q up to a bound;
* the census CSV as csv.writer writes it.

A dual matrix is anything with value and eps parts ``m.val`` and ``m.eps``, each
the 4 entries of a 2x2 matrix, row-major.
"""

from __future__ import annotations

import csv
import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

import numpy as np

from mml.errors import NotHyperbolic

#: Tolerance of in_group on det = 1 + 0*eps.
GROUP_TOL = 1e-10


def det(m) -> tuple[float, float]:
    """det(m.val + eps*m.eps) as its (value, eps) parts."""
    v, e = np.reshape(m.val, (2, 2)), np.reshape(m.eps, (2, 2))
    d0 = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
    d1 = (v[0, 0] * e[1, 1] + e[0, 0] * v[1, 1]
          - v[0, 1] * e[1, 0] - e[0, 1] * v[1, 0])
    return d0, d1


def in_group(m, tol: float = GROUP_TOL) -> bool:
    """Whether det(m) is 1 + 0*eps within tol in each part."""
    d0, d1 = det(m)
    return abs(d0 - 1.0) <= tol and abs(d1) <= tol


def boundary_trace(x: float, y: float, z: float) -> Fraction:
    """x^2 + y^2 + z^2 - xyz - 2 of three floats, exactly."""
    x, y, z = map(Fraction, (x, y, z))
    return x * x + y * y + z * z - x * y * z - 2


def domain_kind(x: float, y: float, z: float, tol: float) -> str:
    """"inside" (x, y, z > 2, exact boundary trace below -2 - tol), "cusp" (x, y, z > 2,
    within tol of -2) or "outside", decided in exact arithmetic."""
    if not min(x, y, z) > 2.0:
        return "outside"
    d = boundary_trace(x, y, z) + 2
    return "inside" if d < -Fraction(tol) else "cusp" if abs(d) <= Fraction(tol) else "outside"


def farey_enumerate(n: int) -> list[tuple[int, int]]:
    """All canonical slopes with |p| + q <= n, n >= 1: 1/0 and 0/1, then every
    coprime p/q with p, q >= 1 and p + q <= n, ordered by q and then by p,
    each followed by -p/q."""
    return [(1, 0), (0, 1)] + [(s * p, q) for q in range(1, n) for p in range(1, n - q + 1)
                               if math.gcd(p, q) == 1 for s in (1, -1)]


def census_csv(rows, m_hat: float, path) -> None:
    """The census file through csv.writer: the header, each row (p, q, word, trace,
    length, bin) in the order given, floats as .12g, then the row m_hat."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["slope_p", "slope_q", "word", "trace", "length", "bin"])
        for p, q, word, trace, length, n in rows:
            w.writerow([p, q, word, f"{trace:.12g}", f"{length:.12g}", n])
        w.writerow(["m_hat", f"{m_hat:.12g}", "", "", "", ""])


def cusp_gap(ell: float) -> float:
    """Limit of D(x, ell, ell)/x as x -> 0, the cusp summand 2/(1+e^ell); past 700,
    where e^ell nears overflow, as 2 e^-ell/(1+e^-ell)."""
    if ell <= 700.0:
        return 2.0 / (1.0 + math.exp(ell))
    return 2.0 * math.exp(-ell) / (1.0 + math.exp(-ell))


def exact_traces(seeds: dict, n: int) -> dict[tuple[int, int], tuple[Decimal, Decimal]]:
    """(value, eps) traces of every slope with |p| + q <= n, each an 80-digit Decimal,
    from seeds: the dual traces (with .re and .inf) of 1/0, -1/0, 0/1, 1/1 and -1/1,
    converted exactly.  A slope is the mediant of its Farey neighbours lower and
    upper, and tr(upper lower) = tr(upper) tr(lower) - tr(upper lower^-1), where
    upper lower^-1 is the slope upper - lower, signed so q >= 0."""
    tr = {s: (Decimal(t.re), Decimal(t.inf)) for s, t in seeds.items()}
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        for sign in (1, -1):  # the Stern-Brocot tree between 0/1 and sign/0
            stack = [((0, 1), (sign, 0))]
            while stack:
                lo, up = stack.pop()
                p, q = lo[0] + up[0], lo[1] + up[1]
                if abs(p) + q > n:
                    continue
                dp, dq = up[0] - lo[0], up[1] - lo[1]
                if (p, q) not in tr:
                    (a, da), (b, db) = tr[lo], tr[up]
                    c, dc = tr[(dp, dq) if dq >= 0 else (-dp, -dq)]
                    tr[(p, q)] = (a * b - c, a * db + da * b - dc)
                stack += [(lo, (p, q)), ((p, q), up)]
    return tr


def term_derivative(ell1: float, ell2: float, ell_bdry: float,
                    alpha1: float, alpha2: float, alpha_bdry: float) -> float:
    """d/dt of one gap term D(l_bdry, l1, l2) by the chain rule, H(u, v) alpha_bdry +
    K(u, v) (alpha1 + alpha2) at u = l1 + l2, v = l_bdry, with H = 1/(1+e^{(u+v)/2})
    + 1/(1+e^{(u-v)/2}) and K = -sinh(v/2)/(cosh(u/2) + cosh(v/2)) written out; no
    overflow guard, so for u + |v| up to ~1400."""
    u, v = ell1 + ell2, ell_bdry
    h = 1.0 / (1.0 + math.exp((u + v) / 2.0)) + 1.0 / (1.0 + math.exp((u - v) / 2.0))
    k = -math.sinh(v / 2.0) / (math.cosh(u / 2.0) + math.cosh(v / 2.0))
    return h * alpha_bdry + k * (alpha1 + alpha2)


def bound_D(x: float, y: float, z: float) -> float:
    """Exponential summand bound 4 sinh(x/2) e^{-(y+z)/2}."""
    return 4.0 * math.sinh(x / 2.0) * math.exp(-(y + z) / 2.0)


def bound_HK(u: float, v: float) -> float:
    """Shared exponential bound 2 cosh(|v|/2) e^{-u/2} for |H| and |K| at (u, v)."""
    return 2.0 * math.cosh(abs(v) / 2.0) * math.exp(-u / 2.0)


# The Lorentzian oracle.  The traceless 2x2 matrices carry the quadratic form
# <X,Y> = tr(XY)/2 of signature (+,+,-); conjugation by SL(2,R) acts as SO(2,1).
# An affine isometry of Minkowski space is a linear part in SO(2,1) plus a
# translation vector; pairing the translation against the unit spacelike fixed
# vector of a hyperbolic linear part yields the Lorentzian displacement along
# the invariant axis (Goldman-Margulis, "Flat Lorentz 3-manifolds and cocompact
# Fuchsian groups", Contemp. Math. 262, 2000).  This route never differentiates
# anything, so it is independent of the dual-trace computation.

# Orthonormal basis of sl(2,R) for <X,Y> = tr(XY)/2: two spacelike, one timelike.
E1 = np.array([[1.0, 0.0], [0.0, -1.0]])
E2 = np.array([[0.0, 1.0], [1.0, 0.0]])
E3 = np.array([[0.0, 1.0], [-1.0, 0.0]])

J = np.diag([1.0, 1.0, -1.0])

ISOMETRY_TOL = 1e-10


def minkowski(u: np.ndarray, v: np.ndarray) -> float:
    """Signature (+,+,-) inner product."""
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


def sl2_to_vec(x: np.ndarray) -> np.ndarray:
    """Coordinates of a traceless 2x2 matrix in the basis (E1, E2, E3)."""
    return np.array([x[0, 0],
                     0.5 * (x[0, 1] + x[1, 0]),
                     0.5 * (x[0, 1] - x[1, 0])])


def vec_to_sl2(v: np.ndarray) -> np.ndarray:
    return v[0] * E1 + v[1] * E2 + v[2] * E3


@dataclass(frozen=True)
class LorentzIsometry:
    """Affine isometry x -> linear @ x + translation of R^{2,1}."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        lin = np.asarray(self.linear, dtype=float)
        tra = np.asarray(self.translation, dtype=float)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tra)

    def is_isometry(self, tol: float = ISOMETRY_TOL) -> bool:
        gram_ok = np.allclose(self.linear.T @ J @ self.linear, J, atol=tol)
        return gram_ok and abs(np.linalg.det(self.linear) - 1.0) <= tol

    def compose(self, other: "LorentzIsometry") -> "LorentzIsometry":
        return LorentzIsometry(self.linear @ other.linear,
                               self.linear @ other.translation + self.translation)


def adjoint_of(m) -> LorentzIsometry:
    """Linearize a dual group element as an affine Lorentz isometry.

    The linear part is conjugation by the value part on sl(2,R); the
    translation is the left-logarithmic derivative eps_part @ val^{-1},
    which is traceless when the group invariant holds.
    """
    m0 = np.reshape(m.val, (2, 2))
    m0_inv = np.array([[m0[1, 1], -m0[0, 1]], [-m0[1, 0], m0[0, 0]]])  # adjugate: det 1
    cols = [sl2_to_vec(m0 @ e @ m0_inv) for e in (E1, E2, E3)]
    u = np.reshape(m.eps, (2, 2)) @ m0_inv
    u = u - 0.5 * np.trace(u) * np.eye(2)  # project out rounding in the trace
    return LorentzIsometry(np.column_stack(cols), sl2_to_vec(u))


def neutral_vector(a: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Unit spacelike fixed vector of a hyperbolic element of SO(2,1).

    The direction comes from the cross product of two rows of A - I
    (the most robust pair), the orientation from the future-pointing
    null eigenvectors: x0 is aligned with J (v_plus x v_minus), which
    matches the sign of the length derivative on the calibration case.
    """
    a = np.asarray(a, dtype=float)
    evals, evecs = np.linalg.eig(a)
    if np.max(np.abs(evals.imag)) > 1e-6:
        raise NotHyperbolic("complex eigenvalues: elliptic linear part")
    evals = evals.real
    order = np.argsort(evals)
    lam_min, lam_mid, lam_max = evals[order]
    if lam_max <= 1.0 + tol or lam_min >= 1.0 - tol:
        raise NotHyperbolic(
            f"eigenvalues {sorted(evals)} lack lambda > 1 > 1/lambda")

    # Axis direction: best-conditioned cross product of rows of A - I.
    r = a - np.eye(3)
    pairs = [(0, 1), (0, 2), (1, 2)]
    crosses = [np.cross(r[i], r[j]) for i, j in pairs]
    d = max(crosses, key=np.linalg.norm)
    if np.linalg.norm(d) < 1e-12 * max(1.0, np.linalg.norm(r)):
        d = evecs[:, order[1]].real  # near-parallel rows: fall back to eig
    norm2 = minkowski(d, d)
    if norm2 <= tol * float(d @ d):
        raise NotHyperbolic("fixed vector is not spacelike")

    v_plus = evecs[:, order[2]].real
    v_minus = evecs[:, order[0]].real
    if v_plus[2] < 0:
        v_plus = -v_plus
    if v_minus[2] < 0:
        v_minus = -v_minus
    oriented = J @ np.cross(v_plus, v_minus)
    if float(oriented @ d) < 0:
        d = -d
    return d / np.sqrt(norm2)


def margulis_invariant_lorentz(g: LorentzIsometry) -> float:
    """Displacement of g along its invariant spacelike axis.

    The factor 2 folds the scale of the identification of sl(2,R) with
    R^{2,1} into the pairing, so the result equals the length derivative
    computed from dual traces.
    """
    x0 = neutral_vector(g.linear)
    return 2.0 * minkowski(g.translation, x0)
