"""Lorentzian (Minkowski) linear algebra for ambient R^(n+2), the
immersion map phi, the Gauss map nu, and finite-difference certification
of constant mean curvature.

Vectors live in R^(n+2) with signature (+, ..., +, -): the last
coordinate is timelike.  Hypersurface points are
phi = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta), r * y), where y
is a point of the fiber H^(n-1) embedded in Lorentzian R^n.

Each formula is written once, over rows (``inner_rows``, ``immerse_rows``,
``gauss_rows``, ``curvature_rows``); the scalar functions validate their
input and call them, so a row has the bits of the scalar computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InconsistentStateError,
    ParameterRangeError,
)
from .potential import ShapeParams

FIBER_TOL = 1e-12
FIRST_INTEGRAL_TOL = 1e-6
NEAR_AXIS_EPS = 1e-8


def inner_rows(v, w):
    """<v, w> over the last axis.  The stacked matmul sums each row as
    np.dot sums a vector; einsum or an elementwise sum would not."""
    return ((v[..., None, :-1] @ w[..., :-1, None])[..., 0, 0]
            - v[..., -1] * w[..., -1])


def minkowski_inner(v, w) -> float:
    """<v, w> = v1 w1 + ... + v_{k-1} w_{k-1} - v_k w_k."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise DimensionError(f"shape mismatch: {v.shape} vs {w.shape}")
    if len(v) < 3:
        raise DimensionError(f"vectors must have length >= 3, got {len(v)}")
    return float(inner_rows(v, w))


@dataclass(frozen=True)
class FiberPoint:
    """A point of H^(n-1) in ambient Lorentzian R^n (last coord timelike)."""

    y: tuple

    def __init__(self, y: Sequence[float]):
        arr = np.asarray(y, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise DimensionError("fiber point needs at least 2 coordinates")
        # an overflowed square, or inf - inf (NaN), is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            self_inner = float(inner_rows(arr, arr))
        # written so that a NaN or infinite coordinate fails each check
        if not abs(self_inner + 1.0) <= FIBER_TOL:
            raise DomainError(
                f"fiber point has self-inner {self_inner!r}, expected -1"
            )
        if not arr[-1] >= 1.0:
            raise DomainError("fiber point must have last coordinate >= 1")
        object.__setattr__(self, "y", tuple(float(c) for c in arr))

    @classmethod
    def from_rapidity(cls, v: float) -> "FiberPoint":
        """The n = 2 fiber point (sinh v, cosh v)."""
        return cls((math.sinh(v), math.cosh(v)))

    @classmethod
    def axis(cls, n: int) -> "FiberPoint":
        """The base point (0, ..., 0, 1) of H^(n-1) in R^n."""
        return cls((0.0,) * (n - 1) + (1.0,))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.y, dtype=float)


def _fiber_array(y, n: int) -> np.ndarray:
    """The coordinates of a fiber point of H^(n-1), validated."""
    ya = y.as_array() if isinstance(y, FiberPoint) else FiberPoint(y).as_array()
    if len(ya) != n:
        raise DimensionError(
            f"fiber point has {len(ya)} coordinates, expected n={n}"
        )
    return ya


def _cos_sin(theta):
    """cos and sin of each entry by math's calls, as the scalar formulas
    take them (an array call may take a SIMD path whose last bit differs)."""
    flat = theta.ravel().tolist()
    return [np.reshape([f(x) for x in flat], theta.shape)
            for f in (math.cos, math.sin)]


def _ambient(x1, x2, fiber):
    """Vectors (x1, x2, fiber) of R^(n+2), x1 and x2 broadcast to fiber's rows."""
    head = np.stack(np.broadcast_arrays(x1, x2, fiber[..., 0])[:2], axis=-1)
    return np.concatenate((head, fiber), axis=-1)


def immerse_rows(r, theta, y) -> np.ndarray:
    """phi(r, theta, y) over rows: r and theta share a shape, and y holds
    fiber points along its last axis, broadcast against them."""
    below = np.flatnonzero(r < 1.0)
    if below.size:
        raise DomainError(
            f"r={float(r.flat[below[0]])} < 1 leaves the hyperboloid chart")
    rad = np.sqrt(r * r - 1.0)
    cos, sin = _cos_sin(theta)
    return _ambient(rad * cos, rad * sin, r[..., None] * y)


def immerse_point(params: ShapeParams, state: Mapping[str, float], y) -> np.ndarray:
    """phi(r, theta, y) = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta), r y)."""
    r, theta = (np.array([float(state[k])]) for k in ("r", "theta"))
    return immerse_rows(r, theta, _fiber_array(y, params.n))[0]


def gauss_rows(r, rp, lam, theta, y, tol: float = FIRST_INTEGRAL_TOL):
    """gauss_map's unit normal nu over rows, with y as in immerse_rows;
    raises gauss_map's error at the first row that has one."""
    resid = np.abs(rp * rp + lam * lam * r * r - (r * r - 1.0))
    bad = np.flatnonzero((r <= 1.0) | (resid > tol))
    if bad.size and r.flat[bad[0]] <= 1.0:
        raise DomainError(f"gauss_map requires r > 1, got r={float(r.flat[bad[0]])}")
    if bad.size:
        raise InconsistentStateError(
            f"state violates (r')^2 + lam^2 r^2 = r^2 - 1 by {resid.flat[bad[0]]:.3e}"
        )
    rad = np.sqrt(r * r - 1.0)
    cos, sin = _cos_sin(theta)
    a, b = r * r * lam / rad, rp / rad
    # 0.0 + x, as the scalar formula adds onto a zero entry (-0.0 -> 0.0)
    nu = _ambient(0.0 + (-a * cos - b * sin), 0.0 + (-a * sin + b * cos),
                  (-r * lam)[..., None] * y)
    # on the constraint manifold the formula is exactly unit; normalizing
    # removes the first-order effect of the state's residual
    return nu / np.sqrt(inner_rows(nu, nu))[..., None]


def gauss_map(params: ShapeParams, state: Mapping[str, float], y,
              tol: float = FIRST_INTEGRAL_TOL) -> np.ndarray:
    """Unit normal nu of the immersion at the given profile state.

    nu = -r lam (0, 0, y) - (r^2 lam / sqrt(r^2-1)) B2 + (r' / sqrt(r^2-1)) B3
    with B2 = (cos th, sin th, 0...), B3 = (-sin th, cos th, 0...).
    The state must satisfy the first integral (r')^2 + lam^2 r^2 = r^2 - 1.
    """
    r, rp, lam, theta = (np.array([float(state[k])])
                         for k in ("r", "r_prime", "lam", "theta"))
    return gauss_rows(r, rp, lam, theta, _fiber_array(y, params.n), tol)[0]


@dataclass(frozen=True)
class CurvatureCheck:
    """Result of the finite-difference principal-curvature estimate."""

    evaluated: bool
    lambda_est: float = float("nan")
    mu_est: float = float("nan")
    H_est: float = float("nan")
    reason: str = ""


def _curvature(r, rp, lam, theta, y, steps):
    """-<dnu, dphi> / <dphi, dphi> at the states and fiber points of axis
    1, the point pairs (+h, -h) for h in steps, by centered differences,
    Richardson-extrapolated to h -> 0."""
    phi = immerse_rows(r, theta, y)
    nu = gauss_rows(r, rp, lam, theta, y)
    h2 = 2 * np.array(steps)[:, None]
    dphi = (phi[:, 0::2] - phi[:, 1::2]) / h2
    dnu = (nu[:, 0::2] - nu[:, 1::2]) / h2
    kappa = -inner_rows(dnu, dphi) / inner_rows(dphi, dphi)
    return (4 * kappa[:, 0] - kappa[:, 1]) / 3


def curvature_rows(params: ShapeParams, curve, ts, fd_step: float = 1e-5,
                   fiber_direction: int = 0):
    """verify_cmc at each of the times ``ts``, as arrays
    (evaluated, lambda_est, mu_est, H_est), NaN where not evaluated.  The
    states at t, t +- fd_step/2 and t +- fd_step come from one
    ``curve.state_arrays`` call with one row per t; each state has the
    bits of a lone ``state`` call, so each row has those of a lone
    verify_cmc call.
    """
    if fd_step <= 0:
        raise DomainError("fd_step must be positive")
    if not 0 <= fiber_direction < params.n - 1:
        raise DomainError(
            f"fiber_direction must be in [0, {params.n - 2}]"
        )
    ts = np.asarray(ts, dtype=float)
    outside = np.flatnonzero(~((curve.t[0] + fd_step <= ts)
                               & (ts <= curve.t[-1] - fd_step)))
    if outside.size:
        raise ParameterRangeError(
            f"t={float(ts[outside[0]])} (with fd margin) outside sampled range "
            f"[{curve.t[0]}, {curve.t[-1]}]"
        )
    n, half = params.n, fd_step / 2
    g, gp, theta = curve.state_arrays(np.column_stack(
        (ts, ts + half, ts - half, ts + fd_step, ts - fd_step)))
    sq = math.sqrt(-params.C)
    r = g / sq
    evaluated = ~(r[:, 0] - 1.0 < NEAR_AXIS_EPS)
    est = np.full((3, len(ts)), np.nan)
    if evaluated.any():
        state = [x[evaluated] for x in (r, gp / sq, params.H + g ** (-n), theta)]

        def fiber_point(s):
            # on the geodesic through the axis point in the fiber direction
            coords = [0.0] * n
            coords[fiber_direction], coords[-1] = math.sinh(s), math.cosh(s)
            return FiberPoint(coords).y

        steps = (half, fd_step)
        mu_est = _curvature(*(x[:, 1:] for x in state),
                            FiberPoint.axis(n).as_array(), steps)
        ys = np.array([fiber_point(s) for s in (half, -half, fd_step, -fd_step)])
        lam_est = _curvature(*(x[:, :1] for x in state), ys, steps)
        est[:, evaluated] = (lam_est, mu_est, ((n - 1) * lam_est + mu_est) / n)
    return (evaluated, *est)


def verify_cmc(params: ShapeParams, curve, t: float,
               fd_step: float = 1e-5, fiber_direction: int = 0) -> CurvatureCheck:
    """Estimate both principal curvatures by centered finite differences.

    Differentiates phi and nu along the arc direction (for mu) and along
    a fiber geodesic through the axis point (for lambda), with Richardson
    extrapolation over step sizes fd_step and fd_step/2.  Near the axis
    (r - 1 < 1e-8) the B2 coefficient of nu degenerates and the check is
    reported as not evaluated.
    """
    evaluated, lam_est, mu_est, H_est = curvature_rows(
        params, curve, [t], fd_step, fiber_direction)
    if not evaluated[0]:
        return CurvatureCheck(evaluated=False,
                              reason="profile point too close to the axis")
    return CurvatureCheck(evaluated=True, lambda_est=float(lam_est[0]),
                          mu_est=float(mu_est[0]), H_est=float(H_est[0]))
