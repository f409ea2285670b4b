"""Root-finding layers for the closure conditions: H0 with
xi_n(H0) = -2*pi, C* with K(C*, H) = -2*pi*k/m, and the
embedded / immersed classification.

None of the solvers assume monotonicity of the flux in C: every search
scans a geometric grid for sign changes first and only then refines a
bracket.  Each candidate root is re-checked against the target with the
flux evaluated at that root before it is accepted, because the flux has
a jump across C = Ctilde (the profile grazes the rotation axis there and the
angle picks up an extra half-turn); a sign change produced by that jump
is not a root and is discarded by the residual check.

Each scan grid of solve_C is evaluated in one batched call
(quadrature.flux_K_grid: the oscillation roots of all its C as lanes of
one Brent iteration, then every flux as a row of one phase rule), and
every per-C value equals the scalar flux_K path exactly, so the grids,
brackets and outcomes are those of a point-by-point scan; find_H0's scan
is one xi_grid call in the same way.  Brent refinement and verification
stay scalar; Brent starts from the scan's values at the bracket ends,
and the verification reads Brent's own value at the root it returns, so
no value is computed twice.  A bracket whose sign change is only the
jump is not refined.  No solver uses a flux or xi whose quadrature did
not converge: it raises NonConvergenceError naming C or H.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np
from scipy.optimize import brentq

from .errors import (
    ClassificationRefusedError,
    DomainError,
    EmbeddingPreconditionError,
    GuardBandError,
    LandmarkError,
)
from .potential import C0, Ctilde, ShapeParams
from .quadrature import (
    CTILDE_GUARD_REL,
    flux_K,
    flux_K_grid,
    require_converged,
    xi,
    xi_grid,
)

TWO_PI = 2 * math.pi

SCAN_POINTS = 64
SCAN_POINTS_MAX = 4096
C_GAP_LOWER_REL = 1e-6   # gamma: offset from C0 as a fraction of |C0|
C_GAP_UPPER = 1e-9       # gamma': offset from 0
BRENT_TOL = 1e-13
RESIDUAL_TOL = 1e-9

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


def _xi_offset(n: int, H: float, res, tol: float) -> float:
    """xi_n(H) + 2*pi, or -inf where the landmark is missing (res None)."""
    if res is None:
        return -math.inf
    return require_converged(res, f"xi_{n}({H!r})", tol).value + TWO_PI


def find_H0(n: int, search: Tuple[float, float] = (-10.0, -1.0),
            tol: float = 1e-12,
            quad_tol: float = 1e-11) -> Union[SolveOutcome, NoRootReport]:
    """Solve xi_n(H) = -2*pi for H in the search interval.

    Scans a geometric grid (one xi_grid batch) for a sign change of
    xi_n + 2*pi, then refines with Brent bracketing to |dH| <= tol.  A
    missing landmark counts as xi = -inf; a non-converged xi raises
    NonConvergenceError.  If no sign change exists the scan statistics
    are returned as a NoRootReport (the expected outcome for n = 3, 4, 5,
    where xi_n stays above -2*pi).
    """
    H_lo, H_hi = search
    if not (H_lo < H_hi and H_hi <= -1):
        raise DomainError(f"invalid search interval ({H_lo}, {H_hi})")
    if tol <= 0:
        raise DomainError("tol must be positive")

    grid = -np.geomspace(-H_lo, -H_hi, SCAN_POINTS)
    vals = np.array([
        _xi_offset(n, H, res, quad_tol) for H, res in
        zip(grid, xi_grid(n, grid, tol=quad_tol, missing_as_none=True))])
    finite = np.isfinite(vals)

    bracket = None
    for i in range(len(grid) - 1):
        if not (finite[i] and finite[i + 1]):
            # treat a missing landmark (xi -> -inf) as a negative value
            a, b = vals[i], vals[i + 1]
            a = a if finite[i] else -1.0
            b = b if finite[i + 1] else -1.0
            if a * b < 0:
                bracket = i, i + 1
                break
            continue
        if vals[i] == 0.0:
            bracket = i, i
            break
        if vals[i] * vals[i + 1] < 0:
            bracket = i, i + 1
            break

    if bracket is None:
        fv = vals[finite] - TWO_PI
        return NoRootReport(
            search_interval=(H_lo, H_hi), points_scanned=len(grid),
            value_min=float(fv.min()), value_max=float(fv.max()),
            target=-TWO_PI,
            message="xi_n + 2*pi has no sign change on the scanned grid",
        )

    # scan values at the bracket ends, then Brent's (its root is one of them)
    known = {float(grid[j]): vals[j] for j in bracket}
    iters = [0]

    def f(H):
        iters[0] += 1
        if H not in known:
            try:
                res = xi(n, H, tol=quad_tol)
            except LandmarkError:
                res = None
            known[H] = _xi_offset(n, H, res, quad_tol)
        # keep brentq's arithmetic finite where the landmark vanishes
        return known[H] if math.isfinite(known[H]) else -1e12

    lo, hi = (float(grid[j]) for j in bracket)
    if lo == hi:
        root = lo
    else:
        root = brentq(f, lo, hi, xtol=tol, rtol=8.9e-16)
    # At H0 the solution sits exactly on C = Ctilde with K = -2*pi; theta
    # is still injective there (its derivative vanishes only at isolated
    # points), so the threshold solution is classified as embedded.
    return SolveOutcome(
        parameter_value=float(root), residual=float(known[root]),
        classification=EMBEDDED, bracket_used=(lo, hi),
        iterations=iters[0],
    )


def _flux_value(n: int, H: float, C: float, res, tol: float) -> float:
    """The value of a flux result, or NonConvergenceError naming C."""
    return require_converged(res, f"K(C={C!r}) at n={n}, H={H!r}", tol).value


def _flux_at(n: int, H: float, C: float, tol: float) -> float:
    """Converged flux, the Ctilde guard band resolved to the exact xi."""
    try:
        res = flux_K(ShapeParams(n=n, H=H, C=C), tol=tol)
    except GuardBandError:
        res = xi(n, H, tol=tol)
    return _flux_value(n, H, C, res, tol)


def solve_C(n: int, H: float, winding: WindingTarget, mode: str = "any",
            tol: float = BRENT_TOL,
            quad_tol: float = 1e-11) -> Union[SolveOutcome, NoRootReport]:
    """Solve K(C, H) = winding.target for C.

    mode "embedded" restricts the search to (C0, Ctilde), requires the
    (1, 1) winding and the criterion xi_n(H) > -2*pi; mode "any" searches
    all of (C0, 0) by scan-then-bracket.  The first verified crossing
    from the C0 side is returned; multiple solutions may exist.
    """
    if mode not in ("embedded", "any"):
        raise DomainError(f"unknown mode {mode!r}")
    if not H < -1:
        raise DomainError(f"H must be < -1, got {H}")
    target = winding.target
    c0 = C0(n, H)
    ct = Ctilde(n, H)
    guard = CTILDE_GUARD_REL * abs(ct)
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
        lo = c0 + C_GAP_LOWER_REL * abs(c0)
        hi = ct - guard
    else:
        lo = c0 + C_GAP_LOWER_REL * abs(c0)
        hi = -C_GAP_UPPER

    points = SCAN_POINTS
    while True:
        grid = -np.geomspace(-lo, -hi, points)
        in_band = np.any(np.abs(grid - ct) < guard)
        vals = np.array([_flux_value(n, H, C, res, quad_tol) - target
                         for C, res in zip(grid.tolist(), flux_K_grid(
                             n, H, grid, tol=quad_tol,
                             xi_result=xi_res() if in_band else None))])
        outcome = _refine_first_crossing(n, H, grid, vals, target, tol,
                                         quad_tol, ct, xi_res)
        if outcome is not None:
            return outcome
        if points >= SCAN_POINTS_MAX:
            return NoRootReport(
                search_interval=(lo, hi), points_scanned=points,
                value_min=float(vals.min() + target),
                value_max=float(vals.max() + target), target=target,
                message="no verified sign change of K - target in the scan",
            )
        points *= 2


def _refine_first_crossing(n, H, grid, vals, target, tol, quad_tol, ct,
                           xi_res):
    """Brent-refine each scan bracket in order; return the first verified root.

    The flux minus target is known at the scan points (``vals``, equal to
    _flux_at there bit for bit), and Brent evaluates it at the point it
    returns, so those values are reused instead of recomputed.  A bracket
    that is only the jump at Ctilde is skipped; ``xi_res()`` gives xi.
    """
    restol = max(RESIDUAL_TOL, 10 * tol)
    for i in range(len(grid) - 1):
        if vals[i] != 0.0 and not vals[i] * vals[i + 1] < 0:
            continue
        if vals[i] != 0.0 and _jump_only(grid[i], grid[i + 1], vals[i],
                                         vals[i + 1], ct, xi_res, target,
                                         restol):
            continue
        known = {float(grid[i]): vals[i], float(grid[i + 1]): vals[i + 1]}

        def f(c):
            if c not in known:
                known[c] = _flux_at(n, H, c, quad_tol) - target
            return known[c]

        if vals[i] == 0.0:
            cand, iters = float(grid[i]), 0
        else:
            cand, res = brentq(f, grid[i], grid[i + 1], xtol=tol,
                               rtol=8.9e-16, full_output=True)
            iters = res.iterations
        residual = f(cand)
        if abs(residual) <= restol:
            cls = _classification(n, H, cand, ct, target)
            return SolveOutcome(
                parameter_value=float(cand), residual=float(residual),
                classification=cls,
                bracket_used=(float(grid[i]), float(grid[i + 1])),
                iterations=int(iters),
            )
        # sign change caused by the flux jump across Ctilde, not a root
    return None


def _jump_only(a, b, fa, fb, ct, xi_res, target, restol) -> bool:
    """Whether the sign change of K - target from fa (at a) to fb (at b)
    is only the jump at Ctilde: the bracket meets the guard band (value
    xi - target, no root), and each end has the sign of its side's limit,
    xi - pi - target below Ctilde or xi + pi - target above.  As in the
    scan, a side without a sign change is taken to hold no root.
    """
    guard = CTILDE_GUARD_REL * abs(ct)
    in_a, in_b = abs(a - ct) < guard, abs(b - ct) < guard
    if not (in_a or in_b or a < ct < b):
        return False  # both ends on one side, outside the band
    below = a < ct and not in_a
    above = b > ct and not in_b
    mid = xi_res().value - target
    return (abs(mid) > restol
            and (not below or fa * (mid - math.pi) > 0)
            and (not above or fb * (mid + math.pi) > 0))


def _classification(n, H, C, ct, target) -> str:
    if abs(target + TWO_PI) < 1e-12 and C < ct + CTILDE_GUARD_REL * abs(ct):
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
    ct = Ctilde(n, H)
    guard = CTILDE_GUARD_REL * abs(ct)
    if (winding.k, winding.m) == (1, 1) and C < ct + guard:
        return EMBEDDED
    return IMMERSED_CLOSED
