"""Potential function q, its relatives (p, q-tilde, Q, h), landmark
constants and the roots of the polynomials p and Q.

Every root of p (t1 < t2) and of Q (t2~, xi's upper end) is found by one
rule, Brent's method on the Horner loop and then two Newton steps:
_brent_root on one bracket, _brent_root_lanes on a batch of them.

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


# Brent's xtol and rtol for every root of p and of Q
_BRENT_TOL = (1e-15, 8.9e-16)


def _polish(coeffs, dcoeffs, x):
    """Two Newton steps from x (a float, or lanes with a coefficient column
    each): the relative residual reaches machine level even where Brent
    stopped on its xtol test."""
    for _ in range(2):
        x = x - horner(coeffs, x) / horner(dcoeffs, x)
    return x


def _brent_root(coeffs: tuple, dcoeffs: tuple, lo: float, hi: float) -> float:
    """The root in (lo, hi) of the polynomial ``coeffs`` (floats, highest
    first) with derivative ``dcoeffs``: brentq, then _polish."""
    root = brentq(functools.partial(horner, coeffs), lo, hi, *_BRENT_TOL).root
    return float(_polish(coeffs, dcoeffs, root))


def _brent_root_lanes(coeffs, lo, hi):
    """_brent_root on each lane i, the polynomial coeffs[:, i] in
    (lo[i], hi[i]), as the columns (roots, settled).

    The lane contract of every batched root solve: a settled root is what
    _brent_root returns, bit for bit (_brentq_lanes, then _polish on
    columns).  Where brentq would raise, Brent leaves the lane: it is not
    settled, with a NaN root, for the caller to run the scalar routine, so
    errors come as from a loop.  The values at the bracket ends must be
    finite.
    """
    roots, _, settled = _brentq_lanes(coeffs, lo, hi, *_BRENT_TOL)
    # an unsettled lane holds 0, where the derivative may vanish
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = _polish(coeffs, _derivative(coeffs), roots)
    roots[~settled] = math.nan
    return roots, settled


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

    Returns arrays (t1, t2, settled), one entry per C, under the lane
    contract of _brent_root_lanes, from oscillation_roots' brackets on
    columns.  An entry is also not settled, with NaN roots, where the
    scalar routine raises before its solves (C outside (C0, 0) or
    degenerate, p(v0) <= 0, bracket expansion failed).
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
    roots, settled = _brent_root_lanes(
        np.concatenate([coeffs, coeffs], axis=1),
        np.concatenate([np.full(count, 1e-9 * _v0), np.full(count, _v0)]),
        np.concatenate([np.full(count, _v0), hi]))
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
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(
                f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0 or fcur == 0:
        return BrentResult(xpre if fpre == 0 else xcur, 0, 2)
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for i in range(maxiter):
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
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


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

    The polynomial values must not be NaN (brentq raises on NaN).
    Returns (roots, iterations, settled).  A lane is not settled where
    brentq raises: f(a) and f(b) of one sign, or no convergence within
    maxiter iterations.  _brent_root_lanes states what its callers rely on.
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
        if not len(ids):
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


def Q_coefficients(n: int, H) -> np.ndarray:
    """Coefficients (highest first) of v^(2n-2) Q(v), a degree-2n polynomial.

    For an array of H the result has one column per H.
    """
    H2 = H * H
    coeffs = np.zeros((2 * n + 1,) + np.shape(H))
    coeffs[0] = 1 - H2
    coeffs[2] += -1.0
    coeffs[n] += 2 * H2
    coeffs[2 * n] += -H2
    return coeffs


# 1 + delta for delta = 1e-9 * 2^k, k = -1..73: every delta that
# _Q_bracket's doubling from 1e-9 reaches, and half the first.  Each delta
# is exact in binary, so each point is the one the doubling forms.
_Q_POINTS = 1.0 + 1e-9 * 2.0 ** np.arange(-1, 74)


def _Q_bracket(coeffs):
    """Brent's bracket (lo, hi) on the root of Q above 1, for each column
    of Q's coefficients ``coeffs``, as columns (lo, hi, found, finite).

    The rule doubles delta from 1e-9 until Q(1 + delta) >= 0 fails, and
    finds no root (found is False) past delta = 1e13; then hi = 1 + delta,
    and lo = 1 + delta/2 where Q is positive there, else 1 + 1e-9 (so
    lo == hi where Q(1 + 1e-9) is not positive).  Every delta it reaches
    is in _Q_POINTS, so Q runs at all of them in one Horner pass and each
    column reads its first stop.  ``finite`` is whether Q is finite at
    1 + delta/2 and at hi.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        table = horner(coeffs, _Q_POINTS[:, None])
    stop = ~(table[1:] >= 0)
    k = stop.argmax(axis=0)
    cols = np.arange(table.shape[1])
    half, end = table[k, cols], table[k + 1, cols]
    lo = np.where(half > 0, _Q_POINTS[k], _Q_POINTS[1])
    return (lo, _Q_POINTS[k + 1], stop[k, cols],
            np.isfinite(half) & np.isfinite(end))


def _Q_upper_root(n: int, H: float) -> float:
    """The root t2~ of Q above 1 (the scaled upper turning point at
    C = Ctilde), after xi's checks of n and H."""
    _check_n(n)
    if H > -1:
        raise DomainError(f"xi requires H <= -1, got {H}")
    coeffs = Q_coefficients(n, H)
    (lo,), (hi,), (found,), _ = (column.tolist()
                                 for column in _Q_bracket(coeffs[:, None]))
    if not found:
        raise LandmarkError(
            f"Q(n={n}, H={H}) has no root above 1; xi is not defined here"
        )
    coeffs = tuple(coeffs.tolist())
    if lo == hi:  # Q(1 + 1e-9) is not positive: no bracket
        if not all(map(math.isfinite, coeffs)):
            raise DomainError(f"Q(n={n}, H={H!r}) has non-finite coefficients")
        raise DegenerateOscillationError(
            f"Q(1 + 1e-9) = {horner(coeffs, lo)!r} is not positive at n={n}, "
            f"H={H!r}: in floats the interval (1, t2~) is degenerate")
    return _brent_root(coeffs, _derivative(coeffs), lo, hi)


def _Q_upper_root_grid(n: int, Hs):
    """_Q_upper_root at every H of ``Hs``, the Brent solves run as lanes.

    Returns the columns (t2, settled), under the lane contract of
    _brent_root_lanes, from _Q_bracket's brackets.  An H is also not
    settled, with a NaN root, where _Q_upper_root raises before its solve
    (H > -1, no root, lo == hi) or where Q is not finite at the bracket
    ends (as where its coefficients are not).
    """
    Hs = np.asarray(Hs, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = Q_coefficients(n, Hs)
    lo, hi, found, finite = _Q_bracket(coeffs)
    lanes = np.flatnonzero(~(Hs > -1) & found & finite & (lo < hi))
    t2 = np.full(len(Hs), math.nan)
    t2[lanes] = _brent_root_lanes(coeffs[:, lanes], lo[lanes], hi[lanes])[0]
    return t2, np.isfinite(t2)


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
