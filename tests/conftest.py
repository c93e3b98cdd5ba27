import math
import warnings

import numpy as np
import pytest

from mml.sl2grp import DualMatrix2

# On a failing property Hypothesis imports its patch writer, which imports libcst,
# whose dependencies warn DeprecationWarning; under filterwarnings = error that
# ends the run with INTERNALERROR.  Importing it here once, with the warning
# ignored, leaves the failure to be reported like any other.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def curve_bits(curves) -> set:
    """Curve classes as a set of (p, q, trace, length, alpha), floats as float.hex."""
    return {(c.p, c.q, c.trace.hex(), c.length.hex(), c.alpha.hex()) for c in curves}


def judged(table) -> dict:
    """Each slope a table's stored walk has judged, mapped to its length: the
    classes emitted, then each pending entry's slope, (p, q) or, for a pruned
    entry, (pl + pr, ql + qr); a root not judged yet (length -inf) is skipped."""
    _, done, pending = table._walk
    lengths = {(c.p, c.q): c.length for c in done}
    for e in pending:
        if e[0] != -math.inf:
            lengths[(e[1], e[2]) if len(e) == 3 else (e[1] + e[3], e[2] + e[4])] = e[0]
    return lengths


def random_sl2(rng: np.random.Generator) -> np.ndarray:
    """Random element of SL(2,R) with moderate conditioning."""
    m = rng.standard_normal((2, 2))
    d = np.linalg.det(m)
    while abs(d) < 0.1:
        m = rng.standard_normal((2, 2))
        d = np.linalg.det(m)
    m = m / math.sqrt(abs(d))
    if np.linalg.det(m) < 0:
        m = m @ np.diag([1.0, -1.0])
    return m


def random_traceless(rng: np.random.Generator) -> np.ndarray:
    w = rng.standard_normal((2, 2))
    return w - 0.5 * np.trace(w) * np.eye(2)


def random_hyperbolic_dual(rng: np.random.Generator,
                           ell_range=(0.5, 4.0)) -> DualMatrix2:
    """Random dual group element whose value part is hyperbolic."""
    ell = rng.uniform(*ell_range)
    p = random_sl2(rng)
    m0 = p @ np.diag([math.exp(ell / 2), math.exp(-ell / 2)]) @ np.linalg.inv(p)
    u = random_traceless(rng)
    return DualMatrix2(m0.ravel(), (u @ m0).ravel())


def as_array(part) -> np.ndarray:
    """A DualMatrix2 part, 4 floats row-major, as a 2x2 array."""
    return np.reshape(part, (2, 2))


def sl2_exp(w: np.ndarray, s: float = 1.0) -> np.ndarray:
    """exp(s*w) for traceless 2x2 w, in closed form."""
    w = np.asarray(w, dtype=float)
    mu2 = -np.linalg.det(w)
    if mu2 > 1e-300:
        mu = math.sqrt(mu2)
        return math.cosh(s * mu) * np.eye(2) + (math.sinh(s * mu) / mu) * w
    if mu2 < -1e-300:
        om = math.sqrt(-mu2)
        return math.cos(s * om) * np.eye(2) + (math.sin(s * om) / om) * w
    return np.eye(2) + s * w


@pytest.fixture
def rng():
    return np.random.default_rng(20150831)
