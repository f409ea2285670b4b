"""The integrals of this problem: the period T, the flux K(C, H), the
threshold value xi_n(H), and the analytic limits at C0.

The flux and xi are taken in a phase variable.  Over an oscillation
interval (lo, hi), v = lo + 2a sin^2(phi/2) with a = (hi - lo)/2 gives
dv / sqrt((v - lo)(hi - v)) = dphi: both inverse-square-root endpoint
singularities cancel, and the integrands are smooth, even and
2 pi-periodic in phi.  Their trapezoid means converge geometrically
(Trefethen & Weideman, SIAM Rev. 56, 2014).  The pole of the flux
integrand at v = sqrt(-C), just below t1, is integrated in closed form.

The period T (period_T) and the flux over v (_flux_over_v) are check's
references for the period and the angle per period of the profile's
phase series, by an independent rule: tanh-sinh quadrature, whose
integrands receive the *offsets* da = x - lower, db = upper - x from
the endpoints.  Near an endpoint x rounds onto it long before da
underflows, so offset-aware integrands keep full relative accuracy
right into the singularity.

Both rules take the roots from potential, correctly rounded roots of p
at the float inputs, and evaluate the potential in deflated form
q = (v - t1)(t2 - v) s(v), with s from synthetically dividing
p(v) = v^(2n-2) q(v) by them.  The division runs on p's exact-input
coefficients in double-double and rounds once (_deflated_coefficients),
so s belongs to the polynomial whose roots t1 and t2 are.  xi deflates
Q in plain floats, in the offset from its fixed root 1 (potential's
shifted polynomial R).  One C or one H runs on floats from end to end,
its phase loop one row (_phase_row); a grid runs the same operations,
the flux's powers too (np.float_power, libm pow per entry), on columns,
its rows in one phase rule (_phase_mean), with the same bits.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import astuple, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    EvaluationError,
    LandmarkError,
    NonConvergenceError,
)
from .potential import (
    ShapeParams,
    _Q_shifted,
    _Q_upper_root,
    _Q_upper_root_grid,
    _check_n,
    _finite_C0,
    _p_lows,
    _select,
    _split,
    _sqrt,
    _two_product,
    _two_sum,
    horner,
    oscillation_roots,
    oscillation_roots_grid,
    p_coefficients,
)

DEFAULT_TOL = 1e-11
MAX_LEVEL = 12  # the last level of the tanh-sinh rule
# the phase rule doubles its nodes per half-period up to MAX_NODES
MAX_NODES = 1 << 13
# and runs at most PHASE_BLOCK rows at a time: a (rows, 17) temporary of
# a 4096-row scan is 557 KB, which the allocator hands back to the system
# when it is freed, so every call faults its pages in afresh; one of 256
# rows (35 KB) is reused from the heap and stays in cache
PHASE_BLOCK = 256

# abscissa cutoff: beyond this |t| the transformed node offsets underflow
_T_CUTOFF = 6.1


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


def _check_tol(tol, name="tol"):
    """DomainError unless tol is positive and finite (at inf every rule
    would report its first level converged); the message calls it name."""
    if not 0 < tol < math.inf:
        need = "finite" if tol > 0 else "positive"
        raise DomainError(f"{name} must be {need}, got {tol}")


@functools.cache
def _level_nodes(level: int):
    """The interval-independent node data of one level (read-only).

    Returns (h, lower_half, em, 1 + em, pi cosh t) for the nodes t = k h
    of the level in ascending order (odd k only above level 0), with
    u = pi/2 sinh t, em = exp(-2|u|) and lower_half = u < 0.
    """
    h = 2.0 ** (-level)
    kmax = int(_T_CUTOFF / h)
    ks = np.arange(-kmax, kmax + 1)
    if level > 0:
        ks = ks[ks % 2 != 0]
    t = ks * h
    u = 0.5 * np.pi * np.sinh(t)
    em = np.exp(-2.0 * np.abs(u))
    tables = (u < 0, em, 1.0 + em, np.pi * np.cosh(t))
    for arr in tables:
        arr.setflags(write=False)
    return (h,) + tables


def de_integrate(f, lower: float, upper: float,
                 tol: float = DEFAULT_TOL) -> QuadResult:
    """Tanh-sinh quadrature of ``f`` over (lower, upper) with level
    doubling, open rule: check's references period_T and _flux_over_v.

    ``f(x, da, db)`` is vectorised over the nodes x and their offsets
    da = x - lower, db = upper - x (see the module docstring).  Levels
    are doubled until two successive values agree within ``tol`` at two
    consecutive levels from level 3 on (a narrow interior spike is
    invisible to coarse levels, and one small difference can be a false
    plateau), or MAX_LEVEL is reached; the reported error estimate is the
    last inter-level difference.  Endpoints are never evaluated, and
    nodes whose offsets underflow are dropped.  A non-finite value raises
    EvaluationError.
    """
    _check_tol(tol)
    a, b = float(lower), float(upper)
    if not a < b:
        raise DomainError(f"need lower < upper, got [{a}, {b}]")
    width = b - a
    total = 0.0  # running sum of F * weight (without h)
    value, err, evaluations = 0.0, math.inf, 0
    for level in range(MAX_LEVEL + 1):
        h, lower_half, em, onep, pct = _level_nodes(level)
        near = width * em / onep   # offset from the nearer endpoint
        far = width / onep         # offset from the farther endpoint
        da = np.where(lower_half, near, far)
        db = np.where(lower_half, far, near)
        x = np.where(lower_half, a + da, b - db)
        weight = pct * da * db / width
        keep = (da > 0) & (db > 0) & np.isfinite(weight)
        x, da, db, weight = x[keep], da[keep], db[keep], weight[keep]
        vals = np.asarray(f(x, da, db), dtype=float)
        bad = ~np.isfinite(vals)
        if bad.any():
            where = float(x[bad][0])
            raise EvaluationError(
                f"integrand returned a non-finite value at v={where!r}",
                abscissa=where,
            )
        # fixed ascending-t summation order keeps repeated runs identical
        total += np.sum(vals * weight)
        evaluations += len(vals)
        new_value = h * total
        if level > 0:
            diff = abs(new_value - value)
            if level >= 3 and diff <= tol and err <= tol:
                return QuadResult(float(new_value), float(diff), evaluations,
                                  True)
            err = diff
        value = new_value
    return QuadResult(float(value), float(err), evaluations, False)


@functools.cache
def _phase_nodes(N: int):
    """The phases at which the phase rule's step to N nodes evaluates
    (read-only): the midpoints (2j + 1) pi / N, j < N/2, and at N = 16,
    the first step, after the nodes j pi / 8, j <= 8, of N = 8."""
    phi = (2 * np.arange(N // 2) + 1) * (math.pi / N)
    if N == 16:
        phi = np.concatenate([np.arange(9) * (math.pi / 8), phi])
    phi.setflags(write=False)
    return phi


_ENDS = np.r_[0.5, np.ones(7), 0.5]  # the trapezoid weights of N = 8


def _finite(vals, phi):
    """``vals``, the integrand at the nodes ``phi`` (one row or a row
    each), after EvaluationError at the first phi where one is not finite."""
    finite = np.isfinite(vals)
    if not finite.all():
        where = float(phi[~finite.all(axis=tuple(range(vals.ndim - 1)))][0])
        raise EvaluationError(
            f"integrand returned a non-finite value at phi={where!r}",
            abscissa=where,
        )
    return vals


def _phase_mean(integrand, columns, tol: float):
    """Trapezoid means over phi in [0, pi] of smooth, even, 2 pi-periodic
    integrands, one per row of ``columns`` (arrays with the row on the last
    axis), as columns (value, error, evaluations, converged).

    ``integrand(cols, phi)`` gives the live rows at the nodes ``phi``, a
    (rows, len(phi)) array, from their columns, each cut as
    ``c[..., rows, None]``.  The rows run in blocks of at most PHASE_BLOCK
    consecutive rows, and are cut anew when a row retires: as views where
    the rows left are one run, gathered where they have gaps.  The nodes
    are j pi / N, N doubled from 8 up to MAX_NODES, evaluating only the new
    midpoints; no row can retire before N = 16, so the first call takes
    the 17 nodes of N = 16, those of N = 8 first, and the N = 8 sum is
    formed from them before the midpoints are added.  A row retires,
    converged, at the first N where its mean moves by at most ``tol``, the
    move being its error estimate; each row takes the operations it
    would take alone.  A non-finite value raises EvaluationError at the
    first such phi in that node order, in the first block that has one.
    """
    _check_tol(tol)
    rows = np.shape(columns[0])[-1]
    value, error = np.empty(rows), np.empty(rows)
    evaluations = np.empty(rows, dtype=np.int64)

    def cut(live):
        lo, hi = live[0].item(), live[-1].item() + 1
        if hi - lo == len(live):
            return tuple(c[..., lo:hi, None] for c in columns)
        return tuple(c[..., live[:, None]] for c in columns)

    def evaluate(cols, phi):
        return _finite(integrand(cols, phi), phi)

    for start in range(0, rows, PHASE_BLOCK):
        live = np.arange(start, min(start + PHASE_BLOCK, rows))
        cols = cut(live)
        vals = evaluate(cols, _phase_nodes(16))
        N, total, mids = 8, np.sum(vals[:, :9] * _ENDS, axis=1), vals[:, 9:]
        mean = total / N
        while N < MAX_NODES:
            if N > 8:
                mids = evaluate(cols, _phase_nodes(2 * N))
            total = total + np.sum(mids, axis=1)
            N *= 2
            move = np.abs(total / N - mean)
            mean = total / N
            # every live row is written; a retiring row keeps what it has
            value[live], error[live], evaluations[live] = mean, move, N + 1
            keep = move > tol
            if not keep.all():
                live, total, mean = live[keep], total[keep], mean[keep]
                if not len(live):
                    break
                cols = cut(live)
    return value, error, evaluations, error <= tol


def _phase_row(integrand, tol: float):
    """_phase_mean's (value, error, evaluations, converged) for one row,
    on floats, ``integrand(phi)`` a 1-D array: the same nodes, sums (as
    np.sum, without its wrapper) and stop test give the same bits."""
    _check_tol(tol)
    phi = _phase_nodes(16)
    vals = _finite(integrand(phi), phi)
    N, total, mids = 8, np.add.reduce(vals[:9] * _ENDS), vals[9:]
    mean = total / N
    while N < MAX_NODES:
        if N > 8:
            phi = _phase_nodes(2 * N)
            mids = _finite(integrand(phi), phi)
        total = total + np.add.reduce(mids)
        N *= 2
        move = abs(total / N - mean)
        mean = total / N
        if not move > tol:
            break
    return mean.item(), move.item(), N + 1, bool(move <= tol)


def _result(columns, i: int) -> QuadResult:
    """Row ``i`` of (value, error, evaluations, converged) columns."""
    return QuadResult(*(c[i].item() for c in columns))


def _grid_columns(rows, parts, scalar):
    """The (value, error, evaluations, converged) columns of a grid: the
    phase rule's columns ``parts`` at the rows of the mask ``rows``, and
    at every other row i the QuadResult ``scalar(i)``, run in grid order,
    so errors come as from a loop over the scalar integral."""
    columns = tuple(np.empty(len(rows), dtype=dtype)
                    for dtype in (float, float, np.int64, bool))
    for column, part in zip(columns, parts):
        column[rows] = part
    for i in np.flatnonzero(~rows).tolist():
        for column, field in zip(columns, astuple(scalar(i))):
            column[i] = field
    return columns


def _synthetic_deflate(coeffs: Sequence[float], root: float) -> tuple:
    """Divide a polynomial (highest-first coefficients) by (v - root)."""
    out = []
    acc = coeffs[0]
    for c in coeffs[1:]:
        out.append(acc)
        acc = c + root * acc
    return tuple(out)


def _deflated_coefficients(n: int, H: float, C, t1, t2) -> tuple:
    """Coefficients (highest first) of p / ((v - t1)(v - t2)), floats for
    a float C, else a column each.

    p's exact-input coefficients (p_coefficients plus _p_lows) are divided
    by t1 and then t2 with a double-double accumulator (Dekker's product,
    Knuth's sum), and rounded once: the deflation of the polynomial whose
    correctly rounded roots t1 and t2 are, not of its rounded copy.
    """
    his, los = p_coefficients(n, H, C), _p_lows(n, H, C)
    for root in (t1, t2):
        root_split = _split(root)
        acc, acc_lo = his[0], los[0]
        out = [(acc, acc_lo)]
        for c, c_lo in zip(his[1:-1], los[1:-1]):
            p, p_lo = _two_product(acc, root, root_split)
            s, s_lo = _two_sum(p, c)
            s_lo = s_lo + (p_lo + root * acc_lo + c_lo)
            acc = s + s_lo
            acc_lo = s_lo - (acc - s)
            out.append((acc, acc_lo))
        his, los = zip(*out)
    return tuple(hi + lo for hi, lo in zip(his, los))


def _s(n, rem, v):
    """s(v) with q(v) = (v - t1)(t2 - v) s(v) > 0 on (t1, t2).

    ``rem`` holds the coefficients of p(v) = v^(2n-2) q(v) deflated by
    both roots (floats, or (rows, 1) columns for a batch of C).
    """
    return -horner(rem, v) * v ** (2 - 2 * n)


def period_T(params: ShapeParams, tol: float = DEFAULT_TOL) -> QuadResult:
    """Period of g: T = 2 * integral over (t1, t2) of dv / sqrt(q(v)).

    Taken by tanh-sinh quadrature over v, a rule independent of the
    profile's phase series, for check's period residual and the tests.
    """
    n = params.n
    t1, t2 = oscillation_roots(params)
    rem = _deflated_coefficients(n, params.H, params.C, t1, t2)

    def fo(v, da, db):
        return 1.0 / np.sqrt(da * db * _s(n, rem, v))

    res = de_integrate(fo, t1, t2, tol=tol)
    return QuadResult(2 * res.value, 2 * res.abs_error_estimate,
                      res.evaluations, res.converged)


# what _angle_rate computes: floats for one C (rem a tuple, quotient and
# powers 1-D), or a grid's columns (those three with a row per coefficient)
_AngleRate = namedtuple("_AngleRate",
                        "t1 a d pole rem quotient vc root_vc U_vc N_vc powers")


def _angle_rate(n: int, H: float, C, t1, t2, rem) -> _AngleRate:
    """The profile's angle rate dtheta/dphi = F(g) / (g - vc) over its
    phase phi (see the profile module), split at the pole vc = sqrt(-C).

    With d = t1 - vc > 0 and g = t1 + 2a sin^2(phi/2), a = (t2 - t1)/2,
    the pole part F(vc) / (d + 2a sin^2(phi/2)) integrates over [0, phi]
    to pole * atan2(sqrt(d + 2a) sin(phi/2), sqrt(d) cos(phi/2)), so over
    a period to pi * pole; it carries the angle spike of a profile that
    grazes the rotation axis (d -> 0).  _angle_remainder is the smooth
    rest.  C, t1, t2 and rem, p deflated by the roots
    (_deflated_coefficients), are floats or columns as in _AngleRate.
    Powers are np.float_power, libm pow on each entry as ** on one float
    (np.power's SIMD path may differ in the last bit), so each entry is
    the arithmetic of its C alone.  Next to C = 0 the powers of -C in d
    overflow (where ** would raise, float_power gives inf): at H = -1.1
    from |C| < 9.3e-45 at n = 8 and 8.1e-309 at n = 2.  d is then inf or
    NaN, which _flux_setup refuses.  d <= 0 gives a NaN pole.
    """
    vc = _sqrt(-C)
    # Direct subtraction t1 - vc cancels catastrophically when C is near
    # Ctilde (t1 -> vc there), so use the identity
    # q(vc) = -(-C) (H + (-C)^(-n/2))^2 with the deflated form of q,
    # which gives d in terms of relatively accurate quantities.
    with np.errstate(over="ignore", invalid="ignore"):
        delta = H + np.float_power(-C, -n / 2)
        P_vc = -horner(rem, vc)   # P(vc) = vc^(2n-2) s(vc)
        den = (t2 - vc) * (P_vc * np.float_power(vc, 2 - 2 * n))
        # an overflowed power leaves d inf or NaN, never a finite / inf = 0
        d = _select(den < math.inf, (-C) * delta * delta / den, math.nan)
        a = (t2 - t1) / 2
        root_vc = np.sqrt(P_vc)
        # F(vc) = vc^n delta / (2 sqrt(P(vc))), delta = H + vc^(-n) as in d
        F_vc = np.float_power(-C, n / 2) * delta / (2 * root_vc)
        pole = 2 * F_vc / np.sqrt(d * (d + 2 * a))
    U_vc = 2 * vc * root_vc
    return _AngleRate(t1, a, d, pole, rem, np.array(_synthetic_deflate(rem, vc)),
                      vc, root_vc, U_vc, F_vc * U_vc, np.float_power(
                          vc, np.arange(n).reshape((n,) + (1,) * np.ndim(vc))))


def _angle_remainder(n: int, H: float, rate: _AngleRate, phi):
    """(F(g) - F(vc)) / (g - vc) at the phases ``phi``, by divided differences.

    ``rate`` holds floats for one C, or (rows, 1) columns for a batch of
    C; the arithmetic is the same either way.  With F = N W,
    N(g) = vc (1 + H g^n) and W = 1 / U, U = (g + vc) sqrt(P):
    F[g, vc] = N[g, vc] W(g) - N(vc) U[g, vc] / (U(g) U(vc)), where
    N[g, vc] is vc H times the power sum of g^i vc^(n-1-i),
    U[g, vc] = sqrt(P(g)) + 2 vc P[g, vc] / (sqrt(P(g)) + sqrt(P(vc))) and
    -P[g, vc] is the quotient of rem by (v - vc).  No two close numbers
    are subtracted, so the remainder keeps its accuracy next to the pole.
    """
    t1, a, _, _, rem, quotient, vc, root_vc, U_vc, N_vc, powers = rate
    g = t1 + 2 * a * np.sin(phi / 2) ** 2
    root = np.sqrt(-horner(rem, g))
    U = (g + vc) * root
    dU = root - 2 * vc * horner(quotient, g) / (root + root_vc)
    return vc * H * horner(powers, g) / U - N_vc * dU / (U * U_vc)


def _flux_setup(params: ShapeParams):
    """The roots t1, t2 of one C and its angle rate, on floats.

    Raises DomainError where d = t1 - sqrt(-C) is not finite (the powers
    of -C overflow next to C = 0, and at large n far from it) or is 0.
    d = (-C) delta^2 / den with delta = H + (-C)^(-n/2) is never negative,
    and is 0 exactly where delta rounds to 0: at C = Ctilde to rounding,
    where the profile meets the rotation axis.
    """
    n, H, C = params.n, params.H, params.C
    t1, t2 = oscillation_roots(params)
    rate = _angle_rate(n, H, C, t1, t2,
                       _deflated_coefficients(n, H, C, t1, t2))
    if not math.isfinite(rate.d):
        raise DomainError(f"the angle rate's powers of -C overflow at "
                          f"n={n}, C={C!r}")
    if not rate.d > 0:
        raise DomainError(
            f"C={C!r} is Ctilde to rounding at n={n}, H={H!r}: d = t1 - "
            "sqrt(-C) is 0, the profile meets the rotation axis, and the "
            f"flux there is xi({n}, {H!r})"
        )
    return t1, t2, rate


def flux_K(params: ShapeParams, tol: float = DEFAULT_TOL) -> QuadResult:
    """Flux K(C, H): total turning of theta over one period of g.

    K = integral over (t1, t2) of
        2 sqrt(-C) (1 + H v^n) v^(1-n) / ((C + v^2) sqrt(q(v))) dv,
    taken over the phase phi as pi times the pole weight of _angle_rate
    plus 2 pi times the mean of its remainder (_phase_row, on floats:
    the row flux_K_grid takes for this C, bit for bit).  The pole
    offset d = t1 - sqrt(-C) keeps its relative accuracy when d is tiny
    (C near Ctilde, where the profile passes close to the rotation
    axis), so K runs at every C in (C0, 0) with d > 0, on both sides of
    the jump at Ctilde: K tends to xi - pi from below and to xi + pi from
    above.  Where d is 0 (C = Ctilde to rounding) it raises DomainError;
    the flux there is xi(n, H).
    """
    n, H = params.n, params.H
    rate = _flux_setup(params)[2]
    value, *rest = _phase_row(
        lambda phi: 2 * math.pi * _angle_remainder(n, H, rate, phi), tol)
    return QuadResult(float(value + math.pi * rate.pole), *rest)


def _flux_over_v(params: ShapeParams, tol: float = DEFAULT_TOL) -> QuadResult:
    """The flux by tanh-sinh quadrature over v, a rule independent of
    flux_K's phase rule, for check's closure residual and the tests.

    The pole factor C + v^2 is written as (da + d)(v + sqrt(-C)).
    """
    n, H = params.n, params.H
    t1, t2, rate = _flux_setup(params)
    d, rem, vc = rate.d, rate.rem, rate.vc

    def fo(v, da, db):
        return (2 * vc * (1 + H * v ** n) * v ** (1 - n)
                / ((da + d) * (v + vc) * np.sqrt(da * db * _s(n, rem, v))))

    return de_integrate(fo, t1, t2, tol=tol)


def flux_K_grid(n: int, H: float, Cs: Sequence[float],
                tol: float = DEFAULT_TOL):
    """The flux at every C of ``Cs`` as columns (value, error, evaluations,
    converged): a loop over flux_K, its rows run as one phase rule.

    Entry i equals ``flux_K(ShapeParams(n, H, Cs[i]), tol)`` in all four
    fields, errors included.  The range test C0 < C < 0 of the lane-wise
    roots is a mask.  A C out of range, whose roots the lanes leave
    unsettled or whose d is not positive runs through flux_K itself
    (_grid_columns), so it raises flux_K's error; n, H and tol are checked
    before any row.
    """
    Cs = np.asarray(Cs, dtype=float)
    t1, t2, rows = oscillation_roots_grid(n, H, Cs)
    _check_tol(tol)
    C, t1, t2 = Cs[rows], t1[rows], t2[rows]
    rem = np.array(np.broadcast_arrays(
        *_deflated_coefficients(n, H, C, t1, t2)))
    rate = _angle_rate(n, H, C, t1, t2, rem)
    ok = rate.d > 0
    rows[rows] = ok  # the C that the phase rule takes
    if not ok.all():  # copied only if some d <= 0
        rate = _AngleRate(*(f[..., ok] for f in rate))
    value, *rest = _phase_mean(
        lambda cols, phi: 2 * math.pi * _angle_remainder(n, H, cols, phi),
        rate, tol)  # K = 2 pi mean(remainder) + pi pole, as in flux_K
    return _grid_columns(
        rows, (value + math.pi * rate.pole, *rest),
        lambda i: flux_K(ShapeParams(n=n, H=H, C=Cs[i].item()), tol=tol))


def _xi_integrand(n: int, H, a, rem, phi):
    """pi h(v) / sqrt(s(v)) at v = 1 + 2a sin^2(phi/2), rem the coefficients
    of s in the offset u = v - 1: floats for one H, or (rows, 1) columns.
    h(v) = 2 H v^(1-n) (1 + v + ... + v^(n-1)) / (1 + v), so h(1) = n H."""
    u = 2 * a * np.sin(phi / 2) ** 2
    v = 1 + u
    h = 2 * H * v ** (1 - n) * horner((1.0,) * n, v) / (1 + v)
    return math.pi * h / np.sqrt(-horner(rem, u) * v ** (2 - 2 * n))


def xi(n: int, H: float, tol: float = DEFAULT_TOL) -> QuadResult:
    """xi_n(H): the flux at the threshold constant C = Ctilde.

    The integral over (1, t2~) of h(v) / sqrt(Q(v)) dv, where Q has a
    simple zero at both ends and h(1) = n H is finite: with
    v = 1 + 2a sin^2(phi/2), a = (t2~ - 1)/2 and Q = (v - 1)(t2~ - v) s(v),
    pi times the mean over phi of h(v) / sqrt(s(v)).  Both a = x/2 and s
    come from the offset u = v - 1: potential's x = t2~ - 1 and R, with
    v^(2n-2) Q(1 + u) = u R(u), deflated by x.  They keep their digits
    where t2~ is close to 1 (large |H|).  It runs on floats (_phase_row),
    the row xi_grid takes for this H, bit for bit.
    """
    x = _Q_upper_root(n, H)
    H = float(H)
    # v^(2n-2) Q(v) = u R(u) at v = 1 + u, and R = (u - x) S(u)
    rem = _synthetic_deflate(_Q_shifted(n, H), x)
    return QuadResult(*_phase_row(
        lambda phi: _xi_integrand(n, H, x / 2, rem, phi), tol))


def xi_grid(n: int, Hs: Sequence[float], tol: float = DEFAULT_TOL,
            missing_as_none: bool = False):
    """xi_n(H) at every H of ``Hs`` as columns (value, error, evaluations,
    converged), and the mask of the H where Q has no upper root: a loop
    over xi, its rows run as one phase rule.

    Entry i equals ``xi(n, Hs[i], tol)`` in all four fields, errors
    included, after the checks of n and tol.  The upper roots of Q are
    found on columns (_Q_upper_root_grid, which does not settle a lane
    whose R has no negative coefficient), and R is deflated on columns.
    An H that the lanes leave runs through xi itself (_grid_columns);
    with ``missing_as_none`` its LandmarkError is only masked, and its
    row holds NaN, NaN, 0, False.
    """
    _check_n(n)
    _check_tol(tol)
    Hs = np.array(Hs, dtype=float)
    x, rows = _Q_upper_root_grid(n, Hs)
    missing = np.zeros(len(Hs), dtype=bool)

    def scalar(i):
        try:
            return xi(n, Hs[i].item(), tol)
        except LandmarkError:
            if not missing_as_none:
                raise
            missing[i] = True
            return QuadResult(math.nan, math.nan, 0, False)

    H, x = Hs[rows], x[rows]
    rem = np.array(_synthetic_deflate(_Q_shifted(n, H), x))  # as in xi
    return _grid_columns(rows, _phase_mean(
        lambda cols, phi: _xi_integrand(n, *cols, phi), (H, x / 2, rem), tol),
        scalar), missing


def require_converged(res: QuadResult, what: str, tol: float) -> QuadResult:
    """``res`` if its quadrature converged, else NonConvergenceError."""
    if not res.converged:
        raise NonConvergenceError(
            f"{what} did not reach tol={tol}: "
            f"error estimate {res.abs_error_estimate!r}"
        )
    return res


def K_limit_at_C0(n: int, H: float) -> float:
    """Closed-form limit of K(C, H) as C -> C0 (degenerate oscillation)."""
    _finite_C0(n, H)
    root = math.sqrt(n * n * H * H - 4 * (n - 1))
    return -math.sqrt(2.0) * math.sqrt(1.0 - n * H / root) * math.pi
