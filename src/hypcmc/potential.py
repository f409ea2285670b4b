"""Potential function q, its relatives (p, q-tilde, Q, h), landmark
constants and the roots of the polynomials p and Q.

The roots t1 < t2 of p are found by safeguarded Newton steps, stopped
by Horner's running error bound, then polished by one step with p by
compensated Horner over the exact-input coefficients (1 - H^2 and, at
n = 2, C - 2H carried as hi + lo), so each comes out correctly rounded
unless p is close to a double root.  The same arithmetic runs on a float
C and on coefficient columns, one lane per root of a grid of C.  Q's
upper root t2~ = 1 + x, xi's upper end, is found in the shifted
variable, where v^(2n-2) Q(1 + x) = x R(x): a closed-form bracket end and
a fixed count of Newton steps on R, on one H and on a column of them.

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


# Safeguarded Newton steps allowed per root of p.  On 4096-point scan
# grids (C from C0 + 1e-6 |C0| to -1e-9) at nine (n, H) from (2, -1.02)
# to (8, -100), the median root settled in 1-2 steps and the slowest in 10.
_P_ROOT_STEPS = 100
_EPS = 2.0 ** -52  # the spacing of the floats at 1


def _select(cond, a, b):
    """a where cond holds, else b, on floats or on lanes."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, a, b)
    return a if cond else b


def _sqrt(x):
    """The correctly rounded square root of a float or of lanes."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


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


def _p_starts(n: int, H: float, C, v0: float, c0: float):
    """Newton's starts for t1 and t2: v0 + (r - v0) sqrt((C - C0)/(-C0)),
    with r the root (1 - H)^(-1/n) or (-1 - H)^(-1/n) of p at C = 0.  They
    are exact at C = C0, where v0 is p's double root, and at C = 0, and
    have the square-root shape of the roots next to C0."""
    shape = _sqrt((C - c0) / -c0)
    return tuple(v0 + (r - v0) * shape
                 for r in ((1 - H) ** (-1.0 / n), (-1 - H) ** (-1.0 / n)))


def _nonzero(d):
    """d where it is not 0, else inf: a Newton step divided by it is 0."""
    return _select(d == 0, math.inf, d)


def _inside(x, lo, hi):
    """x if it lies inside the bracket (lo, hi), else its midpoint."""
    return _select((lo < x) & (x < hi), x, (lo + hi) / 2)


def _p_settled(abs_coeffs, x, px):
    """Whether p(x) = px is rounding noise: within Horner's running error
    bound 2 (2n + 1) eps sum |c_i| x^i (Higham 2002, sec. 5.1), where
    abs_coeffs are the |c_i|."""
    return abs(px) <= 2 * len(abs_coeffs) * _EPS * horner(abs_coeffs, x)


def _p_step(dcoeffs, x, px, lo, hi, rising):
    """One safeguarded Newton step from x, p(x) = px, in the bracket
    (lo, hi) of a root where p rises (t1) or falls (t2): the bracket
    shrinks to the root's side of x, and a step that leaves it (also one
    on p'(x) = 0, which stays at x) is a bisection.  Returns the new
    (lo, hi, x)."""
    left = (px < 0) == rising
    lo, hi = _select(left, x, lo), _select(left, hi, x)
    x = x - px / _nonzero(horner(dcoeffs, x))
    return lo, hi, _inside(x, lo, hi)


def _p_root(coeffs, x, lo, hi, rising):
    """The root of p in (lo, hi) by safeguarded Newton steps from x, at
    the first iterate that _p_settled accepts; None after _P_ROOT_STEPS
    steps."""
    dcoeffs, abs_coeffs = _derivative(coeffs), tuple(map(abs, coeffs))
    x = _inside(x, lo, hi)
    for _ in range(_P_ROOT_STEPS):
        px = horner(coeffs, x)
        if _p_settled(abs_coeffs, x, px):
            return x
        lo, hi, x = _p_step(dcoeffs, x, px, lo, hi, rising)
    return None


def _lanes(coeffs, index) -> tuple:
    """The lanes ``index`` of coefficients that are floats or columns."""
    return tuple(c[index] if isinstance(c, np.ndarray) else c for c in coeffs)


def _p_root_lanes(coeffs, x, lo, hi, rising):
    """_p_root on lanes, the coefficients floats or a column each: every
    lane takes the float steps bit for bit and retires at its own stop
    test.  Returns (roots, settled), NaN where a lane did not settle."""
    roots = np.full(len(x), math.nan)
    ids = np.arange(len(x))
    dcoeffs, abs_coeffs = _derivative(coeffs), tuple(map(abs, coeffs))
    x = _inside(x, lo, hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for _ in range(_P_ROOT_STEPS):
            px = horner(coeffs, x)
            done = _p_settled(abs_coeffs, x, px)
            if done.any():
                roots[ids[done]] = x[done]
                live = ~done
                ids, x, px, lo, hi, rising = (
                    a[live] for a in (ids, x, px, lo, hi, rising))
                coeffs, dcoeffs, abs_coeffs = (
                    _lanes(c, live) for c in (coeffs, dcoeffs, abs_coeffs))
                if not len(ids):
                    break
            lo, hi, x = _p_step(dcoeffs, x, px, lo, hi, rising)
    return roots, ~np.isnan(roots)


def _p_polish(coeffs, lows, x):
    """A settled root of p after one plain Newton step and one with p(x)
    by compensated Horner over the exact-input coefficients (coeffs plus
    lows), on floats or lanes: the root of p at the float inputs,
    correctly rounded wherever p is not close to a double root (at
    |H| <= 100 and C - C0 >= 1e-6 |C0| in tests/root_sweep.py).  Where
    p'(x) = 0 a step leaves x as it is."""
    dcoeffs = _derivative(coeffs)
    x = x - horner(coeffs, x) / _nonzero(horner(dcoeffs, x))
    return x - (_compensated_horner(coeffs, x, lows)
                / _nonzero(horner(dcoeffs, x)))


def oscillation_roots(params: ShapeParams) -> tuple[float, float]:
    """The two positive roots t1 < t2 of q, via the polynomial p.

    Root finding runs on p(v) = v^(2n-2) q(v) to avoid the negative-power
    cancellation of q near v -> 0: p(0) = -1 and the leading coefficient
    1 - H^2 is negative, so brackets (1e-9 v0, v0) and (v0, V) with V
    doubled from 2 v0 until p(V) < 0 (below 4 (-1 - H)^(-1/n) <= 2^28,
    as t2 < (-1 - H)^(-1/n)) straddle the roots; V = 2 (-1 - H)^(-1/n)
    would do, but the doubled V also clamps t2's start as H -> -1 (32 515
    lane steps, not 66 174, on solve_C's 4096-point scan at (8, -1 -
    1e-8)).  Each root takes safeguarded Newton steps (_p_root) from
    _p_starts, then _p_polish.
    NonConvergenceError if a root does not settle in _P_ROOT_STEPS steps.
    """
    n, H, C = params.n, params.H, params.C
    _v0 = v0(n, H)
    _c0 = C0(n, H)
    if C - _c0 < DEGENERATE_REL_GAP * abs(_c0):
        raise DegenerateOscillationError(
            f"C - C0 = {C - _c0:.3e} is below {DEGENERATE_REL_GAP}*|C0|; "
            "the oscillation interval is numerically degenerate"
        )
    coeffs = p_coefficients(n, H, C)
    at_v0 = horner(coeffs, _v0)
    if not at_v0 > 0:
        raise DegenerateOscillationError(
            f"p(v0) = {at_v0!r} <= 0 at C={C!r}: in floats the oscillation "
            "interval is degenerate")
    hi = 2 * _v0
    while horner(coeffs, hi) >= 0:
        hi *= 2
    lows, roots = _p_lows(n, H, C), []
    for x, lo, up, rising in zip(_p_starts(n, H, C, _v0, _c0),
                                 (1e-9 * _v0, _v0), (_v0, hi), (True, False)):
        x = _p_root(coeffs, x, lo, up, rising)
        if x is None:
            raise NonConvergenceError(
                f"a root of p did not settle in {_P_ROOT_STEPS} Newton steps "
                f"at n={n}, H={H!r}, C={C!r}")
        roots.append(_p_polish(coeffs, lows, x))
    return roots[0], roots[1]


def oscillation_roots_grid(n: int, H: float, Cs):
    """oscillation_roots at every C of ``Cs``, all root solves run as lanes.

    Returns arrays (t1, t2, settled), one entry per C.  Settled roots are
    what oscillation_roots returns, bit for bit: its brackets, starts,
    Newton steps (_p_root_lanes) and polish on columns.  Where the scalar
    routine raises (C outside (C0, 0) or degenerate, p(v0) <= 0, a root
    not settled), the entry is not settled, with NaN roots, for the
    caller to run it, so errors come as from a loop.
    """
    _c0 = _check_shape(n, H)
    Cs = np.asarray(Cs, dtype=float)
    _v0 = v0(n, H)
    lanes = np.flatnonzero((Cs - _c0 >= DEGENERATE_REL_GAP * abs(_c0)) & (Cs < 0)
                           & (horner(p_coefficients(n, H, Cs), _v0) > 0))
    coeffs = p_coefficients(n, H, Cs[lanes])
    count = len(lanes)
    C = np.tile(Cs[lanes], 2)
    # p(V) can overflow at large n; its -inf ends the doubling
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        hi = np.full(count, 2 * _v0)
        grow = horner(coeffs, hi) >= 0
        while grow.any():
            hi = np.where(grow, hi * 2, hi)
            grow &= horner(coeffs, hi) >= 0

        # the lower and the upper root of every C as one set of lanes
        coeffs = p_coefficients(n, H, C)
        roots, settled = _p_root_lanes(
            coeffs, np.concatenate(_p_starts(n, H, Cs[lanes], _v0, _c0)),
            np.repeat([1e-9 * _v0, _v0], count),
            np.concatenate([np.full(count, _v0), hi]),
            np.repeat([True, False], count))
        roots = _p_polish(coeffs, _p_lows(n, H, C), roots)
    settled = settled[:count] & settled[count:]
    found = np.zeros(len(Cs), dtype=bool)
    found[lanes[settled]] = True
    t1, t2 = np.full((2, len(Cs)), math.nan)
    t1[found], t2[found] = roots[:count][settled], roots[count:][settled]
    return t1, t2, found


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


# Newton steps on R from hi in [x*, 2 x*), the last with R(x) by
# compensated Horner.  R is concave on x > 0 (by Vandermonde's identity
# each coefficient of x^2 and above is <= 0 for H^2 >= 1), so the steps
# fall monotonically onto its one positive root x*.  For n = 2..8 at 2000
# geometric H in [-1e6, -1.0000001], 6 plain steps and the compensated one
# settle every root, and a further step moves none; plain steps alone
# leave x cycling by up to 3 ulps in the rounding noise of R.
_Q_NEWTON_STEPS = 8


def _Q_newton(coeffs, x):
    """_Q_NEWTON_STEPS Newton steps on R from x, on floats or columns."""
    dcoeffs = _derivative(coeffs)
    for _ in range(_Q_NEWTON_STEPS - 1):
        x = x - horner(coeffs, x) / horner(dcoeffs, x)
    return x - _compensated_horner(coeffs, x) / horner(dcoeffs, x)


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
        y, serr = _two_sum(p, c)
        err = err * v + (perr + serr + low)
    return y + err


def _Q_upper_end(coeffs):
    """A bracket end hi >= x* for R's positive root x*, on floats or
    columns.  R's coefficients of x^2 and above are <= 0, so R lies below
    its tangent 2 + c1 x and below 2 + c1 x + c2 x^2.  hi is the tangent's
    root where c1 < 0 (c1^2 overflows from |H| of about 1e77 on), else the
    quadratic's.  From |H| of about 1e7 on hi may round to half an ulp
    below x*."""
    c2, c1, c0 = coeffs[-3:]
    return _select(c1 < 0, -c0 / _nonzero(c1),
                   (c1 + _sqrt(c1 * c1 - 4 * c0 * c2)) / _nonzero(-2 * c2))


def _Q_upper_root(n: int, H: float) -> float:
    """The root t2~ = 1 + x of Q above 1 (the scaled upper turning point
    at C = Ctilde), as its offset x > 0, the one positive root of R, after
    xi's checks of n and H.  Where no coefficient is negative (n = 2 at
    H = -1) R has no positive root; elsewhere its top nonzero coefficient
    is negative, and hi from _Q_upper_end is halved while R(hi/2) < 0,
    into [x*, 2 x*), before _Q_newton."""
    _check_n(n)
    if H > -1:
        raise DomainError(f"xi requires H <= -1, got {H}")
    coeffs = _Q_shifted(n, H)
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"Q(n={n}, H={H!r}) has non-finite coefficients")
    if min(coeffs) >= 0:
        raise LandmarkError(
            f"Q(n={n}, H={H}) has no root above 1; xi is not defined here")
    hi = _Q_upper_end(coeffs)
    while horner(coeffs, hi / 2) < 0:
        hi /= 2
    x = _Q_newton(coeffs, hi)
    if not 1 + x > 1:
        raise DegenerateOscillationError(
            f"t2~ = 1 + x rounds to 1 at n={n}, H={H!r}: in floats the "
            "interval (1, t2~) is degenerate")
    return x


def _Q_upper_root_grid(n: int, Hs):
    """_Q_upper_root at every H of ``Hs``, its steps run on columns.

    Returns the columns (x, settled): a settled x is what _Q_upper_root
    returns, bit for bit; where it raises, x is NaN and not settled.  A
    lane with no negative coefficient of R is not settled and not halved.
    """
    Hs = np.asarray(Hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = _Q_shifted(n, Hs)
        ok = (~(Hs > -1) & np.isfinite(coeffs).all(axis=0)
              & (np.array(coeffs) < 0).any(axis=0))
        hi = _Q_upper_end(coeffs)
        shrink = ok & (horner(coeffs, hi / 2) < 0)
        while shrink.any():
            hi = np.where(shrink, hi / 2, hi)
            shrink &= horner(coeffs, hi / 2) < 0
        x = _Q_newton(coeffs, hi)
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
