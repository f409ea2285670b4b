"""Potential function q, its relatives (p, q-tilde, Q, h), landmark
constants and the roots of the polynomials p and Q.

The roots t1 < t2 of p are found by a fixed count of Newton steps from
starts that are already close: the roots of a quadratic that models p
about its double root at C = C0 and is exact at C0, at C = 0 and at
n = 2.  The plain steps run p from its factors; the last step is
Halley's, with p by compensated Horner over the exact-input coefficients
(1 - H^2 and, at n = 2, C - 2H carried as hi + lo), so that each root
comes out correctly rounded, next to the double root too, where the
plain steps stall in p's rounding noise.  One test at the end, that the
last plain iterate is a root to within rounding and that
a0 < t1 < v0 < t2 < b0, accepts the pair.  The same arithmetic runs on
a float C and on lanes, one per root of a grid of C.  Q's upper root
t2~ = 1 + x, xi's upper end, is found in the shifted variable, where
v^(2n-2) Q(1 + x) = x R(x): a fixed count of Newton steps on R from a
closed-form bound, on one H and on a column of them.

All formulas are closed-form in the shape parameters (n, H, C).  The
convention throughout the package: n >= 2 is an integer, H < -1 is the
mean curvature, and C is the (negative) first-integral constant, only
meaningful inside (C0, 0).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOscillationError,
    DomainError,
    LandmarkError,
    NonConvergenceError,
    ParameterRangeError,
)

# C closer to C0 than this (relative) is reported as degenerate rather
# than producing roots t1 ~ t2 of unreliable accuracy.
DEGENERATE_REL_GAP = 1e-12


def _check_n(n):
    """DomainError unless n is an integer >= 2."""
    if int(n) != n or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")


def _finite_C0(n, H):
    """C0(n, H), after a DomainError unless n is an integer >= 2, H < -1
    and C0 is finite (n^2 H^2 overflows from |H| of about 1e153 on)."""
    _check_n(n)
    if not H < -1:
        raise DomainError(f"H must be < -1, got {H}")
    c0 = C0(n, H)
    if not math.isfinite(c0):
        raise DomainError(f"H={H} is too large: C0={c0}")
    return c0


def _check_shape(n, H):
    """_finite_C0(n, H), after a DomainError unless it is negative: a float
    C0 of 0.0 or above has lost its sign to rounding."""
    c0 = _finite_C0(n, H)
    if not c0 < 0:
        raise DomainError(f"the float C0={c0!r} at n={n}, H={H!r} has lost "
                          "its sign to rounding: the true C0 is negative")
    return c0


@dataclass(frozen=True)
class ShapeParams:
    """The triple (n, H, C) parametrizing one candidate hypersurface,
    checked once, here (n >= 2 an integer, H < -1, C0 < C < 0), and by
    no function that takes one."""

    n: int
    H: float
    C: float

    def __post_init__(self):
        c0 = _check_shape(self.n, self.H)
        if self.C is None:
            raise DomainError("C is required, got None")
        if math.isnan(self.C):
            raise ParameterRangeError(f"C={self.C} is not a number")
        if not (c0 < self.C < 0):
            raise ParameterRangeError(
                f"C={self.C} outside (C0, 0) with C0={c0}: "
                + ("violates C > C0" if self.C <= c0 else "violates C < 0")
            )


@dataclass(frozen=True)
class PotentialLandmarks:
    """Derived constants of the potential for fixed (n, H) and optional C."""

    v0: float
    C0: float
    Ctilde: float
    C1: Optional[float]  # n=2 alias of C0
    t1: Optional[float] = None
    t2: Optional[float] = None
    t1_scaled: Optional[float] = None
    t2_scaled: Optional[float] = None


def _check_positive(v):
    arr = np.asarray(v, dtype=float)
    if np.any(arr <= 0):
        raise DomainError("q and its relatives are only defined for v > 0")
    return arr


def eval_q(params: ShapeParams, v):
    """q(v) = C - v^(2-2n) + (1-H^2) v^2 - 2 H v^(2-n)."""
    n, H, C = params.n, params.H, params.C
    v = _check_positive(v)
    out = C - v ** (2 - 2 * n) + (1 - H * H) * v * v - 2 * H * v ** (2 - n)
    return float(out) if out.ndim == 0 else out


def eval_q_prime(params: ShapeParams, v):
    """Derivative q'(v)."""
    n, H = params.n, params.H
    v = _check_positive(v)
    out = (
        (2 * n - 2) * v ** (1 - 2 * n)
        + 2 * (1 - H * H) * v
        + 2 * H * (n - 2) * v ** (1 - n)
    )
    return float(out) if out.ndim == 0 else out


def p_coefficients(n: int, H: float, C) -> tuple:
    """Coefficients (highest degree first) of p(v) = v^(2n-2) q(v).

    p is a degree-2n polynomial: (1-H^2) v^(2n) + C v^(2n-2) - 2H v^n - 1.
    For n = 2 the C and -2H terms share the v^2 slot.  The coefficients
    are floats; for an array of C the C slot is that array, a column of
    lanes that horner broadcasts against.
    """
    coeffs = [0.0] * (2 * n + 1)
    coeffs[0] = 1 - H * H
    coeffs[2] = coeffs[2] + C
    coeffs[n] = coeffs[n] + -2 * H
    coeffs[2 * n] = -1.0
    return tuple(coeffs)


def horner(coeffs, v):
    """Polynomial with highest-first coefficients at v, as np.polyval does it.

    Runs polyval's steps y = y * v + c from y = c0 rather than y = 0: its
    first step 0 * v + c0 is c0 for finite v (up to the sign of a zero,
    which the first nonzero coefficient absorbs), so for finite v and a
    nonzero coefficient the result is polyval's bit for bit (at v = +-inf
    polyval gives NaN; no caller passes inf).  On a float v with float
    coefficients it is plain float arithmetic, and coefficient columns of
    shape (rows, 1) broadcast against v of shape (rows, nodes).  It takes
    two coefficients or more.
    """
    y, *rest = coeffs
    for c in rest:
        y = y * v + c
    return y


def _derivative(coeffs) -> tuple:
    """Highest-first coefficients of the derivative, as np.polyder gives them."""
    deg = len(coeffs) - 1
    return tuple(c * (deg - i) for i, c in enumerate(coeffs[:-1]))


def eval_p(params: ShapeParams, v):
    """p(v) = v^(2n-2) q(v), a polynomial for integer n."""
    v = _check_positive(v)
    out = horner(p_coefficients(params.n, params.H, params.C), v)
    return float(out) if np.ndim(out) == 0 else out


def v0(n: int, H: float) -> float:
    """Unique positive critical point of q."""
    s = math.sqrt(n * n * H * H - 4 * n + 4)
    return ((H * (n - 2) + s) / (2 * H * H - 2)) ** (1.0 / n)


def C0(n: int, H: float) -> float:
    """Lower bound for C: q has two positive roots iff C0 < C < 0."""
    s = math.sqrt(n * n * H * H - 4 * n + 4)
    num = H * H * n - 2 + H * s
    den = (H * (n - 2) + s) ** ((2 * n - 2) / n)
    return n * (num / den) * (2 * H * H - 2) ** ((n - 2) / n)


def C1(H: float) -> float:
    """n = 2 closed form of the lower bound, 2 (H + sqrt(H^2 - 1)), written
    as 2 / (H - sqrt((H - 1)(H + 1))) so that no close numbers cancel."""
    return 2 / (H - math.sqrt((H - 1) * (H + 1)))


def Ctilde(n: int, H: float) -> float:
    """Sign threshold for lambda: -(-H)^(-2/n)."""
    return -((-H) ** (-2.0 / n))


def landmarks(n: int, H: float, C: Optional[float] = None) -> PotentialLandmarks:
    """Compute v0, C0, Ctilde (and C1 at n=2); with C also t1, t2.

    n and H are checked by _check_shape, and C by ShapeParams, which
    names the violated bound when C is outside (C0, 0).
    """
    c0, roots = _check_shape(n, H), {}
    if C is not None:
        t1, t2 = oscillation_roots(ShapeParams(n=n, H=H, C=C))
        s = math.sqrt(-C)
        roots = dict(t1=t1, t2=t2, t1_scaled=t1 / s, t2_scaled=t2 / s)
    return PotentialLandmarks(v0=v0(n, H), C0=c0, Ctilde=Ctilde(n, H),
                              C1=C1(H) if n == 2 else None, **roots)


# Newton steps per root of p, the last compensated: on tests/root_sweep.py's
# grid and a denser one, 5 plain steps settle every pair that has roots
# (the float C0 can lie below the true one); 4 miss one at (3, -1.01).
_P_NEWTON_STEPS = 6
_EPS = 2.0 ** -52  # the spacing of the floats at 1


def _select(cond, a, b):
    """a where cond holds, else b, on floats or on lanes."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    """The correctly rounded square root of a float or of lanes."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _pow(x, e):
    """x ** e on floats or lanes, by libm's pow as ** on a float (not
    np.power's SIMD path); for a fractional e NaN where x <= 0."""
    if e != int(e):
        x = _select(x > 0, x, math.nan)
    return np.float_power(x, e) if isinstance(x, np.ndarray) else x ** e


def _p_lows(n: int, H: float, C):
    """The low parts of p's coefficients, highest first: coefficient i is
    exactly p_coefficients' float plus lows[i] for the float inputs H and
    C.  Only 1 - H^2 (Dekker's product, then Knuth's sum) and, at n = 2,
    C - 2H are not floats already; their floats are the rounded values
    p_coefficients holds."""
    hh, hh_lo = _two_product(H, H)
    lows = [0.0] * (2 * n + 1)
    lows[0] = _two_sum(1.0, -hh)[1] - hh_lo
    if n == 2:
        lows[2] = _two_sum(C, -2 * H)[1]
    return tuple(lows)


def _p_double_root(n: int, H: float):
    """(z0 = v0^(-n), C0) free of the cancellation of v0 and C0 as H -> -1
    and at large |H|: with s = sqrt(n^2 (H^2 - 1) + (n - 2)^2), z0 = (s +
    (n - 2)|H|) / (2n - 2), C0 = -(1 - y0^2) z0^(-2/n), y0 = -2 / (s + n|H|)."""
    h1, h2 = -1 - H, 1 - H
    s = math.sqrt(n * n * (h1 * h2) + (n - 2) ** 2)
    z0 = (s + (n - 2) * -H) / (2 * (n - 1))
    sn = s + n * -H
    return z0, -(1 + 2 / sn) * ((s + (n - 2) + n * h1) / sn) * z0 ** (-2 / n)


def _p_starts(n: int, H: float, C, z0: float, c0: float):
    """Newton's starts for t1 and t2, on a float C or on lanes.  With
    z = v^(-n), p = 0 reads (z - h1)(h2 - z) = -C z^a, a = 2/n, h1 = -1 - H,
    h2 = 1 - H; with z^a to second order about z0, m u^2 - dC f1 u - dC f0
    = 0 in u = z - z0 (dC = C - C0, f0 = z0^a, f1 = a f0 / z0, m = 1 +
    C a (1 - a) f0 / (2 z0^2)): exact at C0, at C = 0 and at n = 2, and the
    inverse series in +-sqrt(C - C0) to second order next to C0.  For n > 2
    t2 starts from the larger of that and the root with z^a to first order
    at zl <= z(t2) (from z >= h1 and z^(1 - a) (h2 - z) >= -C): both lie
    below t2, and the second follows t2 out to b0 as H -> -1."""
    h1, h2, a = -1 - H, 1 - H, 2 / n
    f0 = z0 ** a
    dC = C - c0
    m, b = 1 + C * (a * (1 - a) / 2 * f0 / (z0 * z0)), dC * (a * f0 / z0)
    disc = b * b + m * dC * (4 * f0)
    z1 = z0 + (b + _sqrt(_select(disc > 0, disc, 0.0))) / (2 * m)
    # z2 = z1 z2 / z1, the product from the coefficients in z, all positive
    t1, t2 = _pow(z1, -1 / n), _pow(
        z1 * m / (h1 * h2 - C * ((1 - a) * (1 - a / 2) * f0)), 1 / n)
    if n > 2:
        zl = _pow(-C / (h2 - _pow(-C / h2, 1 / (1 - a))), 1 / (1 - a))
        zl = _select(zl > h1 - C * (h1 ** a / h2), zl, h1 - C * (h1 ** a / h2))
        # (z - h1)(h2 - z) = -C zl^a ((1 - a) + a z / zl): its smaller root
        fl = _pow(zl, a)
        q, qc = h1 + h2 + C * a * fl / zl, h1 * h2 - C * (1 - a) * fl
        disc = q * q - 4 * qc
        tangent = _pow(
            2 * qc / _nonzero(q + _sqrt(_select(disc > 0, disc, 0.0))), -1 / n)
        t2 = _select(tangent <= t2, t2,
                     _select((disc >= 0) & (q > 0), tangent, t2))
    return t1, t2


def _nonzero(d):
    """d where it is not 0, else inf: a Newton step divided by it is 0."""
    return (np.where(d == 0, math.inf, d) if isinstance(d, np.ndarray)
            else d or math.inf)


def _p_factors(n: int, H: float, C, x, curvature=False):
    """p and p' at x, on floats or lanes, from p = C v^(2n-2) - (h1 v^n - 1)
    (h2 v^n - 1): next to a0 and b0 a small factor keeps digits at large
    |H|.  With ``curvature`` also p''/2, to the few digits Halley's step
    needs, as vn2 ((n - 1)(2n - 3) C vn2 - n ((2n - 1)(H^2 - 1) w +
    (n - 1) H)), vn2 = v^(n-2), w = v^n."""
    vn2 = _pow(x, n - 2) if n > 2 else 1.0
    vn1 = vn2 * x
    w = vn1 * x
    lo = (-1 - H) * w - 1
    hi = lo + 2 * w  # (h1 + 2) w - 1: h1 + 2 is h2 without its rounding
    if n == 2 and H >= -1.25:  # C0 <= -1: C + 2 is exact by the double root
        out = (w * ((C + 2) - 2 * (-1 - H) * w) - lo * lo,
               2 * x * ((C + 2) - 2 * (-1 - H) * hi))
    else:
        out = (C * vn1 * vn1 - lo * hi, vn1 * (
            (2 * n - 2) * C * vn2 - n * ((-1 - H) * (hi + lo) + 2 * lo)))
    if not curvature:
        return out
    return (*out, vn2 * ((n - 1) * (2 * n - 3) * C * vn2 - n * (
        (2 * n - 1) * ((H - 1) * (H + 1)) * w + (n - 1) * H)))


def _p_newton(n: int, H: float, C, coeffs, lows, x):
    """A root of p from x, on floats or lanes, and whether _p_settled holds
    at the last plain iterate: _P_NEWTON_STEPS - 1 plain Newton steps, then
    Halley's step, p by compensated Horner over the exact-input
    coefficients (coeffs plus lows).  Next to a double root the plain
    steps stall in p's rounding noise up to 1e5 ulps off, and a Newton
    step's error e^2 p'' / (2 p') would leave the root an ulp or more
    off; Halley's is of order e^3."""
    for _ in range(_P_NEWTON_STEPS - 1):
        px, dp = _p_factors(n, H, C, x)
        x = x - px / _nonzero(dp)
    px, dp, bend = _p_factors(n, H, C, x, curvature=True)
    pc, dp = _compensated_horner(coeffs, x, lows), _nonzero(dp)
    # p' half the Newton step on: dp - (pc / dp) p''/2
    return x - pc / _nonzero(dp - pc / dp * bend), _p_settled(n, H, C, x, px)


def _p_settled(n: int, H: float, C, x, px):
    """Whether p(x) = px is rounding noise: within Horner's running error
    bound 2 (2n + 1) eps sum |c_i| x^i (Higham 2002, sec. 5.1), the sum
    as |C| x^(2n-2) + (h1 x^n + 1)(h2 x^n + 1) (at n = 2 a bound on it)."""
    w = _pow(x, n)
    size = abs(C) * _pow(x, 2 * n - 2) + ((-1 - H) * w + 1) * ((1 - H) * w + 1)
    return abs(px) <= 2 * (2 * n + 1) * _EPS * size


def _p_pair(n: int, H: float, C, z0: float, c0: float):
    """(t1, t2, ok): _p_newton from _p_starts, on a float C or on lanes (both
    roots as one set), z0 and c0 from _p_double_root; ok where both settled
    and a0 < t1 < v0 < t2 < b0, the ends widened by 4 ulps for their
    rounding and roots next to them."""
    starts = _p_starts(n, H, C, z0, c0)
    if isinstance(C, np.ndarray):
        k, C = len(C), np.concatenate([C, C])
        x, ok = _p_newton(n, H, C, p_coefficients(n, H, C), _p_lows(n, H, C),
                          np.concatenate(starts))
        t1, t2, ok1, ok2 = x[:k], x[k:], ok[:k], ok[k:]
    else:
        coeffs, lows = p_coefficients(n, H, C), _p_lows(n, H, C)
        (t1, ok1), (t2, ok2) = (_p_newton(n, H, C, coeffs, lows, x)
                                for x in starts)
    v0_, edge = z0 ** (-1 / n), 4 * _EPS
    ok = (ok1 & ok2 & ((1 - H) ** (-1 / n) * (1 - edge) <= t1) & (t1 < v0_)
          & (v0_ < t2) & (t2 <= (-1 - H) ** (-1 / n) * (1 + edge)))
    return t1, t2, ok


def oscillation_roots(params: ShapeParams) -> tuple[float, float]:
    """The two positive roots t1 < t2 of q, via the polynomial p.

    Root finding runs on p(v) = v^(2n-2) q(v) to avoid the negative-power
    cancellation of q near v -> 0: _P_NEWTON_STEPS Newton steps per root
    from starts close enough for a fixed count (_p_pair), and no search.
    NonConvergenceError where the pair does not pass _p_pair's test.
    C0 and v0 are taken here from _p_double_root, not from C0() and v0(),
    which lose digits to cancellation at large |H| and next to H = -1:
    a C that ShapeParams admits may lie at or below the true C0.
    """
    n, H, C = params.n, params.H, params.C
    z0, c0 = _p_double_root(n, H)
    if C - c0 < DEGENERATE_REL_GAP * abs(c0):
        raise DegenerateOscillationError(
            f"C - C0 = {C - c0:.3e} is below {DEGENERATE_REL_GAP}*|C0|; "
            "the oscillation interval is numerically degenerate"
        )
    at_v0 = horner(p_coefficients(n, H, C), z0 ** (-1 / n))
    if not at_v0 > 0:
        raise DegenerateOscillationError(
            f"p(v0) = {at_v0!r} <= 0 at C={C!r}: in floats the oscillation "
            "interval is degenerate")
    t1, t2, ok = _p_pair(n, H, C, z0, c0)
    if not ok:
        raise NonConvergenceError(
            f"a root of p did not settle in {_P_NEWTON_STEPS} Newton steps "
            f"at n={n}, H={H!r}, C={C!r}")
    return t1, t2


def oscillation_roots_grid(n: int, H: float, Cs):
    """oscillation_roots at every C of ``Cs``, all root solves run as lanes.

    Returns arrays (t1, t2, settled), one entry per C.  Settled roots are
    what oscillation_roots returns, bit for bit (_p_pair on lanes).
    Where the scalar routine raises, the entry is not settled, with NaN
    roots, for the caller to run it, so errors come as from a loop.
    """
    _c0 = _check_shape(n, H)
    z0, c0 = _p_double_root(n, H)
    Cs = np.asarray(Cs, dtype=float)
    # ShapeParams' C0 < C < 0, then oscillation_roots' checks
    lanes = np.flatnonzero(
        (Cs > _c0) & (Cs - c0 >= DEGENERATE_REL_GAP * abs(c0)) & (Cs < 0)
        & (horner(p_coefficients(n, H, Cs), z0 ** (-1 / n)) > 0))
    # large n overflows the powers of v; those lanes end unsettled
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        t1, t2, ok = _p_pair(n, H, Cs[lanes], z0, c0)
    found = np.zeros(len(Cs), dtype=bool)
    found[lanes[ok]] = True
    roots = np.full((2, len(Cs)), math.nan)
    roots[:, found] = t1[ok], t2[ok]
    return roots[0], roots[1], found


def eval_Q(n: int, H: float, v):
    """Q(v) = -1 + v^2 - H^2 v^2 - H^2 v^(2-2n) + 2 H^2 v^(2-n).

    The H <= -1 boundary is allowed here: xi_n is tabulated at H = -1.
    """
    v = _check_positive(v)
    H2 = H * H
    out = -1 + v * v - H2 * v * v - H2 * v ** (2 - 2 * n) + 2 * H2 * v ** (2 - n)
    return float(out) if out.ndim == 0 else out


def _Q_shifted(n: int, H) -> tuple:
    """Coefficients (highest first, a column each for an array of H) of R,
    v^(2n-2) Q(v) = x R(x) at v = 1 + x; R(0) = 2.  R's x^(k-1) coefficient
    is (H^2 - 1)(2 C(n,k) - C(2n,k)) + 2 C(n,k) - C(2n-2,k), with H^2 - 1
    formed as (H - 1)(H + 1), which keeps its digits as H -> -1."""
    h = (H - 1) * (H + 1)
    return tuple(h * a + b for a, b in _R_binomials(n))


@functools.cache
def _R_binomials(n: int) -> tuple:
    """The pairs (2 C(n,k) - C(2n,k), 2 C(n,k) - C(2n-2,k)), k = 2n..1, of
    R's coefficients as floats: +-inf from n = 515 on, past the float
    range, so that the coefficients overflow as float arithmetic does."""
    return tuple((_float(2 * math.comb(n, k) - math.comb(2 * n, k)),
                  _float(2 * math.comb(n, k) - math.comb(2 * n - 2, k)))
                 for k in range(2 * n, 0, -1))


def _float(i: int) -> float:
    """float(i), or +-inf where float(i) raises OverflowError."""
    try:
        return float(i)
    except OverflowError:
        return math.inf if i > 0 else -math.inf


# Newton steps on R from _Q_start, the last compensated.  R is concave on
# x > 0, so the steps fall monotonically onto its root from above.  For
# n = 2..12 at 2000 H in [-1e6, -1.0000001] and three next to -1 a further
# step moves no root; 3 plain steps leave n = 3 up to 29 ulps off.
_Q_NEWTON_STEPS = 5


def _Q_newton(coeffs, x):
    """_Q_NEWTON_STEPS Newton steps on R from x, on floats or columns."""
    dcoeffs = _derivative(coeffs)
    for _ in range(_Q_NEWTON_STEPS - 1):
        x = x - horner(coeffs, x) / horner(dcoeffs, x)
    return x - _compensated_horner(coeffs, x) / horner(dcoeffs, x)


def _scaled(coeffs) -> tuple:
    """coeffs times 2^-e, floats or a column each, the least e >= 0 that
    brings the largest to 2^500 or below: exact, so every rounding of
    Horner's rule is the same, but up to n = 514 neither it, nor c_k k,
    nor c1^2 overflows, and c0 = 2 keeps clear of the subnormals."""
    if isinstance(coeffs[0], np.ndarray):
        e = np.maximum(np.frexp(np.max(np.abs(coeffs), axis=0))[1] - 500, 0)
        return tuple(np.ldexp(c, -e) for c in coeffs) if e.any() else coeffs
    e = math.frexp(max(map(abs, coeffs)))[1] - 500
    return tuple(math.ldexp(c, -e) for c in coeffs) if e > 0 else coeffs


def _split(a):
    """Dekker's split of a into halves of 26 bits, a = hi + lo."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b, b_split=None):
    """a * b as its float and the exact rounding error (Dekker); b_split
    is _split(b), given where b recurs."""
    p = a * b
    ah, al = _split(a)
    bh, bl = b_split or _split(b)
    return p, al * bl - (((p - ah * bh) - al * bh) - ah * bl)


def _two_sum(a, b):
    """a + b as its float and the exact rounding error (Knuth)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _compensated_horner(coeffs, v, lows=None):
    """horner(coeffs, v) as if run in twice the working precision, then
    rounded (Graillat, Langlois & Louvet 2005): each step's product and
    sum errors, exact by Dekker's and Knuth's error-free transformations,
    are run through a second Horner loop and added at the end.  With
    ``lows``, coefficient i is coeffs[i] + lows[i], and the low parts
    join the error loop."""
    lows = lows or (0.0,) * len(coeffs)
    v_split = _split(v)
    y, err = coeffs[0], lows[0]
    for c, low in zip(coeffs[1:], lows[1:]):
        p, perr = _two_product(y, v, v_split)
        if type(c) is type(low) is float and c == low == 0:
            y, err = p, err * v + perr  # p + 0 is exact: the same bits
            continue
        y, serr = _two_sum(p, c)
        err = err * v + (perr + serr + low)
    return y + err


def _Q_upper_end(coeffs):
    """A float hi >= x* for R's root x*, on floats or columns: the root
    2 c0 / (sqrt(c1^2 - 4 c0 c2) - c1) of c0 + c1 x + c2 x^2 >= R (x^3 and
    up have coefficients <= 0), at or below the tangent's root as c2 <= 0,
    raised by 4 ulps: at n >= 3, where _Q_start takes it, c0 > 0 and c1,
    c2 <= 0, so no operation cancels and its roundings take it less than
    3 ulps low."""
    c2, c1, c0 = coeffs[-3:]
    root = 2 * c0 / _nonzero(_sqrt(c1 * c1 - 4 * c0 * c2) - c1)
    return root * (1 + 4 * _EPS)


def _Q_start(n: int, H, coeffs):
    """Newton's start for R's root, on floats or columns: at n = 2 the root,
    1 / (r (|H| + r)), r = sqrt((H - 1)(H + 1)); else _Q_upper_end."""
    if n == 2:
        r = _sqrt((H - 1) * (H + 1))
        return 1 / (r * (r - H))
    return _Q_upper_end(coeffs)


def _Q_upper_root(n: int, H: float) -> float:
    """The root t2~ = 1 + x of Q above 1 (the scaled upper turning point
    at C = Ctilde), as its offset x > 0, the one positive root of R, after
    xi's checks of n and H: _Q_newton on the _scaled coefficients from
    _Q_start.  Where no coefficient is negative (n = 2 at H = -1) R has
    no positive root."""
    _check_n(n)
    if H > -1:
        raise DomainError(f"xi requires H <= -1, got {H}")
    coeffs = _Q_shifted(n, H)
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"Q(n={n}, H={H!r}) has non-finite coefficients")
    if min(coeffs) >= 0:
        raise LandmarkError(
            f"Q(n={n}, H={H}) has no root above 1; xi is not defined here")
    coeffs = _scaled(coeffs)
    x = _Q_newton(coeffs, _Q_start(n, H, coeffs))
    if not 1 + x > 1:
        raise DegenerateOscillationError(
            f"t2~ = 1 + x rounds to 1 at n={n}, H={H!r}: in floats the "
            "interval (1, t2~) is degenerate")
    return x


def _Q_upper_root_grid(n: int, Hs):
    """_Q_upper_root at every H of ``Hs``, its steps run on columns.

    Returns the columns (x, settled): a settled x is what _Q_upper_root
    returns, bit for bit; where it raises, x is NaN and not settled.
    """
    Hs = np.asarray(Hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = _Q_shifted(n, Hs)
        ok = (~(Hs > -1) & np.isfinite(coeffs).all(axis=0)
              & (np.array(coeffs) < 0).any(axis=0))
        coeffs = _scaled(coeffs)
        x = _Q_newton(coeffs, _Q_start(n, Hs, coeffs))
    ok &= 1 + x > 1
    x[~ok] = math.nan
    return x, ok


def eval_h(n: int, H: float, v):
    """h(v) = 2 H v^(1-n) (1 + v + ... + v^(n-1)) / (1 + v).

    Uses the factored polynomial-quotient form (Horner on the geometric
    sum) so the removable point v = 1 is regular: h(1) = n H exactly.
    """
    v = _check_positive(v)
    geom = horner((1.0,) * n, v)
    out = 2 * H * v ** (1 - n) * geom / (1 + v)
    return float(out) if np.ndim(out) == 0 else out


def eval_q_tilde(params: ShapeParams, v):
    """q-tilde(v) = -(1/C) q(sqrt(-C) v), the unit-normalized potential."""
    v = _check_positive(v)
    s = math.sqrt(-params.C)
    return eval_q(params, s * v) / (-params.C)
