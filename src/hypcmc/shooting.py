"""Root-finding layers for the closure conditions: H0 with
xi_n(H0) = -2*pi, C* with K(C*, H) = -2*pi*k/m, and the
embedded / immersed classification.

Both solvers run one scan-bracket-verify routine, _scan_solve.  It does
not assume monotonicity: it scans a geometric grid of SCAN_POINTS, then
one of a maximum, for sign changes of the value minus its target (the
first grid catches a root cheaply; a NoRootReport reads the final grid
alone), and refines each sign change in order with Brent's method (Brent
1973), which starts from the scan's values at the bracket ends.  A root
is accepted when its value, Brent's own value at the point it returns,
is within a residual bound, so no value is computed twice.

- find_H0 scans one grid as the columns of one xi_grid call.  xi is
  continuous in H, so Brent's first root is accepted as it is (the
  bound is infinite).
- solve_C scans grids of SCAN_POINTS and SCAN_POINTS_MAX points, each as
  the columns of one flux_K_grid call, equal to scalar flux_K exactly.
  The flux has a jump across C = Ctilde (the profile grazes the rotation
  axis there and the angle picks up an extra half-turn): it tends to
  xi - pi from below and to xi + pi from above, and is xi at Ctilde.
  flux_K runs on both sides up to Ctilde; the solvers alone take the
  flux to be xi in a guard band of relative half-width CTILDE_GUARD_REL
  around it.  A root must be within max(RESIDUAL_TOL, 10 * tol) of the
  target, because a sign change produced by the jump is not a root.  A
  bracket whose sign change is only the jump is not refined at all.

No solver uses a flux or xi whose quadrature did not converge: it raises
NonConvergenceError naming C or H.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .errors import (
    ClassificationRefusedError,
    DomainError,
    EmbeddingPreconditionError,
)
from .potential import Ctilde, ShapeParams, _check_shape
from .quadrature import (
    _check_tol,
    _result,
    flux_K,
    flux_K_grid,
    require_converged,
    xi,
    xi_grid,
)

TWO_PI = 2 * math.pi

SCAN_POINTS = 64         # the first grid, which catches a root cheaply
SCAN_POINTS_MAX = 4096   # solve_C's final grid, which alone decides no-root
C_GAP_LOWER_REL = 1e-6   # gamma: offset from C0 as a fraction of |C0|
C_GAP_UPPER = 1e-9       # gamma': offset from 0
BRENT_TOL = 1e-13
RESIDUAL_TOL = 1e-9
# relative half-width of the band around Ctilde in which the solvers take
# the flux to be xi, its value at Ctilde, and the embedded scan ends below
CTILDE_GUARD_REL = 1e-9

EMBEDDED = "Embedded"
IMMERSED_CLOSED = "ImmersedClosed"


@dataclass(frozen=True)
class WindingTarget:
    """Closure target K = -2*pi*k/m for coprime positive integers k, m."""

    k: int
    m: int

    def __post_init__(self):
        if self.k < 1 or self.m < 1:
            raise DomainError("k and m must be positive integers")
        if math.gcd(self.k, self.m) != 1:
            raise DomainError(f"k={self.k}, m={self.m} must be coprime")

    @property
    def target(self) -> float:
        return -TWO_PI * self.k / self.m


@dataclass(frozen=True)
class SolveOutcome:
    """A root from scan, bracket and Brent: ``iterations`` counts Brent's
    function evaluations for find_H0 and its iterations for solve_C, and
    is 0 where a scan point is itself a root."""

    parameter_value: float
    residual: float
    classification: str
    bracket_used: Tuple[float, float]
    iterations: int


@dataclass(frozen=True)
class NoRootReport:
    """Outcome of a scan that found no verified sign change."""

    search_interval: Tuple[float, float]
    points_scanned: int
    value_min: float
    value_max: float
    target: float
    message: str


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
        fcur = _brent_value(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _brent_value(f, x):
    fx = float(f(x))
    if math.isnan(fx):
        raise ValueError(
            f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _scan_solve(lo, hi, max_points, target, scan, f, tol, restol, message,
                jump_only=None):
    """The first root of a value minus ``target`` on (lo, hi).

    Scans the geometric grid of SCAN_POINTS points, then that of
    ``max_points`` unless equal (the final grid alone gives a NoRootReport,
    so no grid between is scanned): ``scan(grid)`` gives the value minus
    target on a grid and ``f(x)`` at one point, -inf where the value does
    not exist (Brent sees -1e12 there, to keep its arithmetic finite).
    Each sign change of a grid is refined in order by Brent to ``tol``,
    from the scan's values at its ends, unless ``jump_only(a, b, fa, fb)``
    says it holds no root.  Returns (root, value, bracket, Brent's
    BrentResult or None for a scan point that is a root) for the first
    root whose |value| <= ``restol``, else a NoRootReport over the finite
    values of the final grid.
    """
    _check_tol(tol)
    for points in sorted({SCAN_POINTS, max_points}):
        grid = -np.geomspace(-lo, -hi, points)
        vals = scan(grid)
        with np.errstate(invalid="ignore"):  # -inf * 0 is NaN: no change
            changes = (vals[:-1] == 0) | (vals[:-1] * vals[1:] < 0)
        for i in np.flatnonzero(changes).tolist():
            (a, b), (fa, fb) = grid[i:i + 2].tolist(), vals[i:i + 2].tolist()
            if fa != 0.0 and jump_only and jump_only(a, b, fa, fb):
                continue
            known = {a: fa, b: fb}

            def value(x):
                if x not in known:
                    known[x] = f(x)
                return known[x] if math.isfinite(known[x]) else -1e12

            brent = brentq(value, a, b, tol, 8.9e-16) if fa != 0.0 else None
            root = brent.root if brent else a
            if abs(known[root]) <= restol:
                return root, known[root], (a, b), brent
    finite = vals[np.isfinite(vals)] + target
    return NoRootReport(
        search_interval=(lo, hi), points_scanned=points,
        value_min=float(finite.min()), value_max=float(finite.max()),
        target=target, message=message)


def _xi_offset(n: int, H: float, res, tol: float) -> float:
    """xi_n(H) + 2*pi, or NonConvergenceError naming H."""
    return require_converged(res, f"xi_{n}({H!r})", tol).value + TWO_PI


def find_H0(n: int, search: Tuple[float, float] = (-10.0, -1.0),
            tol: float = 1e-12,
            quad_tol: float = 1e-11) -> Union[SolveOutcome, NoRootReport]:
    """Solve xi_n(H) = -2*pi for H in the search interval.

    Scans one geometric grid for a sign change of xi_n + 2*pi, read from
    the columns of one xi_grid call as one array, -inf where the
    landmark is missing (n = 2, H = -1: R has no negative coefficient,
    settled without a search); the grid's first error is raised, then a
    NonConvergenceError at its first non-converged H.  Brent refines to
    |dH| <= tol, unverified: xi is continuous in H, and its residual
    (about |xi_n'| * tol) may exceed a value bound at a loose tol.  If no
    sign change exists the scan statistics are returned as a NoRootReport
    (the expected outcome for n = 3, 4, 5, where xi_n stays above -2*pi).
    """
    H_lo, H_hi = search
    if not (-math.inf < H_lo < H_hi <= -1):
        raise DomainError(f"invalid search interval ({H_lo}, {H_hi})")

    def scan(grid):
        columns, missing = xi_grid(n, grid, quad_tol, missing_as_none=True)
        for i in np.flatnonzero(~(columns[3] | missing)).tolist():
            _xi_offset(n, grid[i], _result(columns, i), quad_tol)  # raises
        return np.where(missing, -math.inf, columns[0] + TWO_PI)

    # Brent evaluates no bracket end, and the one H whose landmark is
    # missing (n = 2, H = -1) can only be the grid's last point
    out = _scan_solve(H_lo, H_hi, SCAN_POINTS, -TWO_PI, scan,
                      lambda H: _xi_offset(n, H, xi(n, H, tol=quad_tol),
                                           quad_tol), tol, math.inf,
                      "xi_n + 2*pi has no sign change on the scanned grid")
    if isinstance(out, NoRootReport):
        return out
    root, residual, bracket, brent = out
    # At H0 the solution sits exactly on C = Ctilde with K = -2*pi; theta
    # is still injective there (its derivative vanishes only at isolated
    # points), so the threshold solution is classified as embedded.
    return SolveOutcome(root, residual, EMBEDDED, bracket,
                        brent.function_calls if brent else 0)


def _flux_value(n: int, H: float, C: float, res, tol: float) -> float:
    """The value of a flux result, or NonConvergenceError naming C."""
    return require_converged(res, f"K(C={C!r}) at n={n}, H={H!r}", tol).value


def _in_guard_band(n: int, H: float, C):
    """Whether C, or each C of an array (a mask), is in the Ctilde band."""
    ct = Ctilde(n, H)
    return abs(C - ct) < CTILDE_GUARD_REL * abs(ct)


def _flux_at(n: int, H: float, C: float, tol: float) -> float:
    """Converged flux, xi in the Ctilde guard band."""
    params = ShapeParams(n=n, H=H, C=C)
    res = (xi(n, H, tol=tol) if _in_guard_band(n, H, C)
           else flux_K(params, tol=tol))
    return _flux_value(n, H, C, res, tol)


def solve_C(n: int, H: float, winding: WindingTarget, mode: str = "any",
            tol: float = BRENT_TOL,
            quad_tol: float = 1e-11) -> Union[SolveOutcome, NoRootReport]:
    """Solve K(C, H) = winding.target for C.

    mode "embedded" restricts the search to (C0, Ctilde), requires the
    (1, 1) winding and the criterion xi_n(H) > -2*pi; mode "any" searches
    all of (C0, 0) by scan-then-bracket.  The first verified crossing
    from the C0 side is returned; multiple solutions may exist.  Raises
    DomainError when the gaps at the ends leave no interval to scan, as
    in embedded mode at large |H|, where (C0, Ctilde) is narrower than
    the gap above C0.
    """
    if mode not in ("embedded", "any"):
        raise DomainError(f"unknown mode {mode!r}")
    c0 = _check_shape(n, H)
    target = winding.target
    lo, hi = c0 + C_GAP_LOWER_REL * abs(c0), -C_GAP_UPPER
    # the flux in the guard band, computed at most once
    xi_res = functools.cache(lambda: require_converged(
        xi(n, H, tol=quad_tol), f"xi_{n}({H!r})", quad_tol))

    if mode == "embedded":
        if (winding.k, winding.m) != (1, 1):
            raise DomainError("embedded mode requires the (k, m) = (1, 1) winding")
        xi_val = xi_res().value
        if not xi_val > -TWO_PI:
            raise EmbeddingPreconditionError(
                f"embedding requires xi_n(H) > -2*pi, but xi_{n}({H}) = "
                f"{xi_val!r} <= {-TWO_PI!r}",
                xi_value=xi_val,
            )
        ct = Ctilde(n, H)
        hi = ct - CTILDE_GUARD_REL * abs(ct)
    if not lo < hi:
        raise DomainError(
            f"empty search interval ({lo!r}, {hi!r}) at n={n}, H={H!r}: "
            f"C0 = {c0!r}, Ctilde = {Ctilde(n, H)!r}")

    def flux_scan(Cs):
        columns = flux_K_grid(n, H, Cs, tol=quad_tol)
        for i in np.flatnonzero(~columns[3]).tolist():  # raises at the first
            _flux_value(n, H, Cs[i].item(), _result(columns, i), quad_tol)
        return columns[0] - target

    def scan(grid):
        band = _in_guard_band(n, H, grid)
        if not band.any():
            return flux_scan(grid)
        vals = np.full(len(grid), xi_res().value - target)  # as in _flux_at
        vals[~band] = flux_scan(grid[~band])
        return vals

    restol = max(RESIDUAL_TOL, 10 * tol)
    out = _scan_solve(lo, hi, SCAN_POINTS_MAX, target, scan,
                      lambda C: _flux_at(n, H, C, quad_tol) - target, tol,
                      restol, "no verified sign change of K - target in the scan",
                      functools.partial(_jump_only, n, H, xi_res, target, restol))
    if isinstance(out, NoRootReport):
        return out
    root, residual, bracket, brent = out
    return SolveOutcome(root, residual, _closure_kind(n, H, root, winding),
                        bracket, brent.iterations if brent else 0)


def _jump_only(n, H, xi_res, target, restol, a, b, fa, fb) -> bool:
    """Whether the sign change of K - target from fa (at a) to fb (at b)
    is only the jump at Ctilde: the bracket meets the guard band (value
    xi - target, no root), and each end has the sign of its side's limit,
    xi - pi - target below Ctilde or xi + pi - target above.  As in the
    scan, a side without a sign change is taken to hold no root;
    ``xi_res()`` gives xi.
    """
    ct = Ctilde(n, H)
    in_a, in_b = _in_guard_band(n, H, a), _in_guard_band(n, H, b)
    if not (in_a or in_b or a < ct < b):
        return False  # both ends on one side, outside the band
    below = a < ct and not in_a
    above = b > ct and not in_b
    mid = xi_res().value - target
    return (abs(mid) > restol
            and (not below or fa * (mid - math.pi) > 0)
            and (not above or fb * (mid + math.pi) > 0))


def _closure_kind(n: int, H: float, C: float, winding: WindingTarget) -> str:
    """Embedded iff the winding is (1, 1) and C lies below Ctilde or in
    its guard band (where the flux is xi), else immersed."""
    if (winding.k, winding.m) == (1, 1) and (C < Ctilde(n, H)
                                             or _in_guard_band(n, H, C)):
        return EMBEDDED
    return IMMERSED_CLOSED


def classify(n: int, H: float, C: float, winding: WindingTarget,
             check_tol: float = 1e-7, quad_tol: float = 1e-11) -> str:
    """Embedded iff C < Ctilde and the winding is (1, 1).

    At C = Ctilde exactly the result is ImmersedClosed unless the flux
    equals -2*pi there (the threshold case, which is still injective).
    Refuses to classify when the flux does not match the target.
    """
    K = _flux_at(n, H, C, quad_tol)
    target = winding.target
    if abs(K - target) > check_tol:
        raise ClassificationRefusedError(
            f"K(C={C}, H={H}) = {K!r} does not match the target {target!r}"
        )
    return _closure_kind(n, H, C, winding)
