"""Potential function q, its relatives (p, q-tilde, Q, h), landmark
constants and the roots of the polynomials p and Q.

The roots t1 < t2 of p are found by Brent's method on the Horner loop,
then two Newton steps; a grid of C runs as lanes (_brentq_lanes) that
hand their last few stragglers to brentq's scalar loop.  Q's upper root
t2~ = 1 + x, xi's upper end, is found in the shifted variable, where
v^(2n-2) Q(1 + x) = x R(x): a fixed count of Newton steps on R, the same
steps on one H and on a column of them.

All formulas are closed-form in the shape parameters (n, H, C).  The
convention throughout the package: n >= 2 is an integer, H < -1 is the
mean curvature, and C is the (negative) first-integral constant, only
meaningful inside (C0, 0).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateOscillationError,
    DomainError,
    LandmarkError,
    ParameterRangeError,
)

# C closer to C0 than this (relative) is reported as degenerate rather
# than producing roots t1 ~ t2 of unreliable accuracy.
DEGENERATE_REL_GAP = 1e-12


def _check_n(n):
    """DomainError unless n is an integer >= 2."""
    if int(n) != n or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")


@dataclass(frozen=True)
class ShapeParams:
    """The triple (n, H, C) parametrizing one candidate hypersurface.

    C may be omitted (None) while only H-level quantities are needed.
    """

    n: int
    H: float
    C: Optional[float] = None

    def __post_init__(self):
        _check_n(self.n)
        if not self.H < -1:
            raise DomainError(f"H must be < -1, got {self.H}")
        if self.C is not None:
            c0 = C0(self.n, self.H)
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
    if params.C is None:
        raise DomainError("eval_q requires C to be present")
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


def p_coefficients(n: int, H: float, C) -> np.ndarray:
    """Coefficients (highest degree first) of p(v) = v^(2n-2) q(v).

    p is a degree-2n polynomial: (1-H^2) v^(2n) + C v^(2n-2) - 2H v^n - 1.
    For n = 2 the C and -2H terms share the v^2 slot.  For an array of C
    the result has one column per C.
    """
    coeffs = np.zeros((2 * n + 1,) + np.shape(C))
    coeffs[0] = 1 - H * H
    coeffs[2] += C
    coeffs[n] += -2 * H
    coeffs[2 * n] += -1.0
    return coeffs


def horner(coeffs, v):
    """Polynomial with highest-first coefficients at v, as np.polyval does it.

    Runs the same operation sequence (y = y * v + c from y = 0), so the
    result is bit-identical, without polyval's array conversions: on a
    float v with float coefficients it is plain float arithmetic, and
    coefficient columns of shape (rows, 1) broadcast against v of shape
    (rows, nodes).
    """
    y = 0.0
    for c in coeffs:
        y = y * v + c
    return y


def _derivative(coeffs) -> tuple:
    """Highest-first coefficients of the derivative, as np.polyder gives them."""
    deg = len(coeffs) - 1
    return tuple(c * (deg - i) for i, c in enumerate(coeffs[:-1]))


def eval_p(params: ShapeParams, v):
    """p(v) = v^(2n-2) q(v), a polynomial for integer n."""
    if params.C is None:
        raise DomainError("eval_p requires C to be present")
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
    """n = 2 closed form of the lower bound: 2 (H + sqrt(H^2 - 1))."""
    return 2 * (H + math.sqrt(H * H - 1))


def Ctilde(n: int, H: float) -> float:
    """Sign threshold for lambda: -(-H)^(-2/n)."""
    return -((-H) ** (-2.0 / n))


def landmarks(n: int, H: float, C: Optional[float] = None) -> PotentialLandmarks:
    """Compute v0, C0, Ctilde (and C1 at n=2); with C also t1, t2.

    Raises a range error naming the violated bound when C is outside
    (C0, 0).
    """
    _check_n(n)
    if not H < -1:
        raise DomainError(f"H must be < -1, got {H}")
    _v0 = v0(n, H)
    _c0 = C0(n, H)
    _ct = Ctilde(n, H)
    _c1 = C1(H) if n == 2 else None
    if C is None:
        return PotentialLandmarks(v0=_v0, C0=_c0, Ctilde=_ct, C1=_c1)
    if not _c0 < C:
        raise ParameterRangeError(f"C={C} violates the bound C > C0 = {_c0}")
    if not C < 0:
        raise ParameterRangeError(f"C={C} violates the bound C < 0")
    params = ShapeParams(n=n, H=H, C=C)
    t1, t2 = oscillation_roots(params)
    s = math.sqrt(-C)
    return PotentialLandmarks(
        v0=_v0, C0=_c0, Ctilde=_ct, C1=_c1,
        t1=t1, t2=t2, t1_scaled=t1 / s, t2_scaled=t2 / s,
    )


# Brent's xtol and rtol for every root of p
_BRENT_TOL = (1e-15, 8.9e-16)


def _newton(coeffs, dcoeffs, x, steps):
    """``steps`` Newton steps from x: a float, or lanes with a coefficient
    column each, every lane taking the float steps bit for bit."""
    for _ in range(steps):
        x = x - horner(coeffs, x) / horner(dcoeffs, x)
    return x


def _brent_root(coeffs: tuple, dcoeffs: tuple, lo: float, hi: float) -> float:
    """The root in (lo, hi) of the polynomial ``coeffs`` (floats, highest
    first) with derivative ``dcoeffs``: brentq, then two Newton steps, so
    the relative residual reaches machine level even where Brent stopped
    on its xtol test."""
    root = brentq(functools.partial(horner, coeffs), lo, hi, *_BRENT_TOL).root
    return float(_newton(coeffs, dcoeffs, root, 2))


def oscillation_roots(params: ShapeParams) -> tuple[float, float]:
    """The two positive roots t1 < t2 of q, via the polynomial p.

    Root finding runs on p(v) = v^(2n-2) q(v) to avoid the negative-power
    cancellation of q near v -> 0: p(0) = -1 and the leading coefficient
    1 - H^2 is negative, so brackets (eps*v0, v0) and (v0, V) with V
    doubled until p(V) < 0 are guaranteed to straddle sign changes.
    """
    if params.C is None:
        raise ParameterRangeError("oscillation_roots requires C")
    n, H, C = params.n, params.H, params.C
    _v0 = v0(n, H)
    _c0 = C0(n, H)
    if C - _c0 < DEGENERATE_REL_GAP * abs(_c0):
        raise DegenerateOscillationError(
            f"C - C0 = {C - _c0:.3e} is below {DEGENERATE_REL_GAP}*|C0|; "
            "the oscillation interval is numerically degenerate"
        )
    coeffs = tuple(p_coefficients(n, H, C).tolist())
    at_v0 = horner(coeffs, _v0)
    if not at_v0 > 0:
        raise DegenerateOscillationError(
            f"p(v0) = {at_v0!r} <= 0 at C={C!r}: in floats the oscillation "
            "interval is degenerate")
    hi = 2 * _v0
    while horner(coeffs, hi) >= 0:
        hi *= 2
        if hi > 1e12:
            raise ParameterRangeError("upper root bracket expansion failed")
    dcoeffs = _derivative(coeffs)
    return (_brent_root(coeffs, dcoeffs, 1e-9 * _v0, _v0),
            _brent_root(coeffs, dcoeffs, _v0, hi))


def oscillation_roots_grid(n: int, H: float, Cs):
    """oscillation_roots at every C of ``Cs``, all root solves run as lanes.

    Returns arrays (t1, t2, settled), one entry per C.  Settled roots are
    what oscillation_roots returns, bit for bit: its brackets on columns,
    _brentq_lanes, then the same Newton steps.  Where the scalar routine
    raises (C outside (C0, 0) or degenerate, p(v0) <= 0, bracket
    expansion failed, a Brent error), the entry is not settled, with NaN
    roots, for the caller to run it, so errors come as from a loop.
    """
    ShapeParams(n=n, H=H)  # raises for an invalid n or H
    Cs = np.asarray(Cs, dtype=float)
    _v0 = v0(n, H)
    _c0 = C0(n, H)
    coeffs = p_coefficients(n, H, Cs)
    lanes = np.flatnonzero((Cs - _c0 >= DEGENERATE_REL_GAP * abs(_c0)) & (Cs < 0)
                           & (horner(coeffs, _v0) > 0))
    coeffs = coeffs[:, lanes]

    hi = np.full(len(lanes), 2 * _v0)
    grow = horner(coeffs, hi) >= 0
    while grow.any():
        hi = np.where(grow, hi * 2, hi)
        grow &= hi <= 1e12
        grow &= horner(coeffs, hi) >= 0
    expanded = hi <= 1e12
    lanes, coeffs, hi = lanes[expanded], coeffs[:, expanded], hi[expanded]

    # the lower and the upper root of every C as one set of lanes
    count = len(lanes)
    coeffs = np.concatenate([coeffs, coeffs], axis=1)
    lo = np.concatenate([np.full(count, 1e-9 * _v0), np.full(count, _v0)])
    roots, _, settled = _brentq_lanes(
        coeffs, lo, np.concatenate([np.full(count, _v0), hi]), *_BRENT_TOL)
    # an unsettled lane holds 0, where the derivative may vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _newton(coeffs, _derivative(coeffs), roots, 2)
    settled = settled[:count] & settled[count:]
    found = np.zeros(len(Cs), dtype=bool)
    found[lanes[settled]] = True
    t1, t2 = np.full((2, len(Cs)), math.nan)
    t1[found], t2[found] = roots[:count][settled], roots[count:][settled]
    return t1, t2, found


BrentResult = namedtuple("BrentResult", "root iterations function_calls")


def brentq(f, xa, xb, xtol, rtol, maxiter=100):
    """A root of f in the bracket (xa, xb) by Brent's method (Brent 1973).

    A port of SciPy's brentq.c: the same steps, float operations and f
    calls, so the same root, counts (a BrentResult) and errors: ValueError
    for f(xa), f(xb) of one sign or a NaN value, RuntimeError after
    maxiter iterations.  A bracket end that is a root takes 0 iterations
    (SciPy leaves that count unset).  As in SciPy, xtol > 0, rtol >= 4 eps.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = _brent_value(f, xpre), _brent_value(f, xcur)
    if fpre == 0 or fcur == 0:
        return BrentResult(xpre if fpre == 0 else xcur, 0, 2)
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    return _brent_steps(f, (xpre, xcur, 0.0, fpre, fcur, 0.0, 0.0, 0.0), 0,
                        xtol, rtol, maxiter)


def _brent_value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brent_steps(f, state, i, xtol, rtol, maxiter):
    """brentq's iterations i, i + 1, ... up to maxiter, from ``state``, the
    floats (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur) at the top of
    iteration i; the counts of the BrentResult run from brentq's start."""
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    for i in range(i, maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return BrentResult(xcur, i + 1, i + 2)

        stry = math.inf  # bisect unless an interpolated step is short
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:  # C's step is then inf or NaN
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


# Fewer live lanes than this leave _brentq_lanes for _brent_steps: a lane
# step costs about as much NumPy overhead for 2 lanes as for 128, and on a
# scan grid 1-3 lanes run 20-37 iterations where the rest stop by 16.
# oscillation_roots_grid on 64 C at (2, -1.1), (3, -1.5), (5, -2.9) took
# 1.8-2.7 ms for any count from 4 to 64, 2.9-4.3 ms with no handoff; on
# 4096 C, 11.5-16.6 ms against 12.7-17.2 ms (2 vCPU, NumPy 2.4).
_SCALAR_LANES = 8


def _brentq_lanes(coeffs, xa, xb, xtol, rtol, maxiter=100):
    """brentq on each lane's polynomial in its bracket, all lanes at once.

    Lane i is the polynomial with highest-first coefficients coeffs[:, i]
    on the bracket (xa[i], xb[i]).  Every lane takes the steps of the
    scalar brentq above: the same bracket swap, inverse quadratic
    extrapolation, secant interpolation or bisection, the same tolerance
    delta = (xtol + rtol |x|) / 2 and the same float operations, so it
    ends where brentq(p_i, xa[i], xb[i], xtol, rtol, maxiter) ends and
    after as many iterations.  A lane retires at the step where its own
    test passes.  Only + - * /, abs and comparisons run on the lanes.
    Once fewer than _SCALAR_LANES are live, each of them finishes in
    _brent_steps, from its own state and iteration number.

    The polynomial values must not be NaN (brentq raises on NaN).
    Returns (roots, iterations, settled).  A lane is not settled where
    brentq raises: f(a) and f(b) of one sign, or no convergence within
    maxiter iterations.
    """
    lanes = len(xa)
    roots = np.zeros(lanes)
    iterations = np.zeros(lanes, dtype=np.int64)
    xpre = np.asarray(xa, dtype=float)
    xcur = np.asarray(xb, dtype=float)
    fpre = horner(coeffs, xpre)
    fcur = horner(coeffs, xcur)
    at_a = fpre == 0
    at_b = ~at_a & (fcur == 0)
    roots[at_a] = xpre[at_a]
    roots[at_b] = xcur[at_b]
    settled = at_a | at_b
    ids = np.flatnonzero(~settled & (np.signbit(fpre) != np.signbit(fcur)))
    xpre, xcur, fpre, fcur, coeffs = (xpre[ids], xcur[ids], fpre[ids],
                                      fcur[ids], coeffs[:, ids])
    xblk = fblk = spre = scur = np.zeros(len(ids))
    for i in range(maxiter):
        if len(ids) < _SCALAR_LANES:
            state = zip(*(a.tolist() for a in (xpre, xcur, xblk, fpre, fcur,
                                                fblk, spre, scur)))
            for j, (lane, lane_state) in enumerate(zip(ids.tolist(), state)):
                f = functools.partial(horner, tuple(coeffs[:, j].tolist()))
                try:
                    roots[lane], iterations[lane], _ = _brent_steps(
                        f, lane_state, i, xtol, rtol, maxiter)
                except RuntimeError:
                    continue
                settled[lane] = True
            break
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk = np.where(flip, xpre, xblk)
        fblk = np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre = np.where(flip, step, spre)
        scur = np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        if done.any():
            roots[ids[done]] = xcur[done]
            iterations[ids[done]] = i + 1
            settled[ids[done]] = True
            live = ~done
            (ids, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta,
             sbis) = (a[live] for a in (ids, xpre, xcur, xblk, fpre, fcur,
                                        fblk, spre, scur, delta, sbis))
            coeffs = coeffs[:, live]

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = (-fcur * (fblk * dblk - fpre * dpre)
                           / (dblk * dpre * (fblk - fpre)))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry)
                    < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
        spre = np.where(short, scur, sbis)
        scur = np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = np.where(np.abs(scur) > delta, xcur + scur,
                        xcur + np.where(sbis > 0, delta, -delta))
        fcur = horner(coeffs, xcur)
    return roots, iterations, settled


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
    return tuple(h * (2 * math.comb(n, k) - math.comb(2 * n, k))
                 + (2 * math.comb(n, k) - math.comb(2 * n - 2, k))
                 for k in range(2 * n, 0, -1))


# Newton steps on R from hi in [x*, 2 x*], the last with R(x) by
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
    x = _newton(coeffs, dcoeffs, x, _Q_NEWTON_STEPS - 1)
    return x - _compensated_horner(coeffs, x) / horner(dcoeffs, x)


def _split(a):
    """Dekker's split of a into halves of 26 bits, a = hi + lo."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _compensated_horner(coeffs, v):
    """horner(coeffs, v) as if run in twice the working precision, then
    rounded (Graillat, Langlois & Louvet 2005): each step's product and
    sum errors, exact by Dekker's and Knuth's error-free transformations,
    are run through a second Horner loop and added at the end."""
    vh, vl = _split(v)
    y, err = coeffs[0], 0.0
    for c in coeffs[1:]:
        p = y * v
        yh, yl = _split(y)
        perr = yl * vl - (((p - yh * vh) - yl * vh) - yh * vl)
        y = p + c
        z = y - p
        err = err * v + (perr + ((p - (y - z)) + (c - z)))
    return y + err


def _Q_upper_root(n: int, H: float) -> float:
    """The root t2~ = 1 + x of Q above 1 (the scaled upper turning point
    at C = Ctilde), as its offset x > 0, the one positive root of R, after
    xi's checks of n and H.  From R's tangent root at 0 (1 where R'(0) >=
    0), hi is doubled until R(hi) < 0 and halved while R(hi/2) < 0."""
    _check_n(n)
    if H > -1:
        raise DomainError(f"xi requires H <= -1, got {H}")
    coeffs = _Q_shifted(n, H)
    if not all(map(math.isfinite, coeffs)):
        raise DomainError(f"Q(n={n}, H={H!r}) has non-finite coefficients")
    hi = -coeffs[-1] / coeffs[-2] if coeffs[-2] < 0 else 1.0
    while horner(coeffs, hi) >= 0:
        if hi > 1e13:  # R has no sign change on (0, 1e13]
            raise LandmarkError(
                f"Q(n={n}, H={H}) has no root above 1; xi is not defined here")
        hi *= 2
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
    returns, bit for bit; where it raises, x is NaN and not settled.
    """
    Hs = np.asarray(Hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = _Q_shifted(n, Hs)
        ok = ~(Hs > -1) & np.isfinite(coeffs).all(axis=0)
        hi = np.where(coeffs[-2] < 0, -coeffs[-1] / coeffs[-2], 1.0)
        grow = ok & (horner(coeffs, hi) >= 0)
        while (grow := grow & (hi <= 1e13)).any():
            hi = np.where(grow, 2 * hi, hi)
            grow &= horner(coeffs, hi) >= 0
        ok &= horner(coeffs, hi) < 0
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
    if params.C is None:
        raise DomainError("eval_q_tilde requires C to be present")
    v = _check_positive(v)
    s = math.sqrt(-params.C)
    return eval_q(params, s * v) / (-params.C)
