"""Lorentzian (Minkowski) linear algebra for ambient R^(n+2), the
immersion map phi, the Gauss map nu, and finite-difference certification
of constant mean curvature.

Vectors live in R^(n+2) with signature (+, ..., +, -): the last
coordinate is timelike.  Hypersurface points are
phi = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta), r * y), where y
is a point of the fiber H^(n-1) embedded in Lorentzian R^n.
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


def minkowski_inner(v, w) -> float:
    """<v, w> = v1 w1 + ... + v_{k-1} w_{k-1} - v_k w_k."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1:
        raise DimensionError(f"shape mismatch: {v.shape} vs {w.shape}")
    if len(v) < 3:
        raise DimensionError(f"vectors must have length >= 3, got {len(v)}")
    return float(np.dot(v[:-1], w[:-1]) - v[-1] * w[-1])


def _fiber_inner(y: np.ndarray) -> float:
    return float(np.dot(y[:-1], y[:-1]) - y[-1] * y[-1])


@dataclass(frozen=True)
class FiberPoint:
    """A point of H^(n-1) in ambient Lorentzian R^n (last coord timelike)."""

    y: tuple

    def __init__(self, y: Sequence[float]):
        arr = np.asarray(y, dtype=float)
        if arr.ndim != 1 or len(arr) < 2:
            raise DimensionError("fiber point needs at least 2 coordinates")
        if abs(_fiber_inner(arr) + 1.0) > FIBER_TOL:
            raise DomainError(
                f"fiber point has self-inner {_fiber_inner(arr)!r}, expected -1"
            )
        if arr[-1] < 1.0:
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


def _fiber_array(y) -> np.ndarray:
    if isinstance(y, FiberPoint):
        return y.as_array()
    return FiberPoint(y).as_array()


def immerse_point(params: ShapeParams, state: Mapping[str, float], y) -> np.ndarray:
    """phi(r, theta, y) = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta), r y)."""
    r = float(state["r"])
    theta = float(state["theta"])
    if r < 1.0:
        raise DomainError(f"r={r} < 1 leaves the hyperboloid chart")
    ya = _fiber_array(y)
    if len(ya) != params.n:
        raise DimensionError(
            f"fiber point has {len(ya)} coordinates, expected n={params.n}"
        )
    rad = math.sqrt(r * r - 1.0)
    return np.concatenate(([rad * math.cos(theta), rad * math.sin(theta)], r * ya))


def gauss_map(params: ShapeParams, state: Mapping[str, float], y,
              tol: float = FIRST_INTEGRAL_TOL) -> np.ndarray:
    """Unit normal nu of the immersion at the given profile state.

    nu = -r lam (0, 0, y) - (r^2 lam / sqrt(r^2-1)) B2 + (r' / sqrt(r^2-1)) B3
    with B2 = (cos th, sin th, 0...), B3 = (-sin th, cos th, 0...).
    The state must satisfy the first integral (r')^2 + lam^2 r^2 = r^2 - 1.
    """
    r = float(state["r"])
    rp = float(state["r_prime"])
    lam = float(state["lam"])
    theta = float(state["theta"])
    if r <= 1.0:
        raise DomainError(f"gauss_map requires r > 1, got r={r}")
    resid = abs(rp * rp + lam * lam * r * r - (r * r - 1.0))
    if resid > tol:
        raise InconsistentStateError(
            f"state violates (r')^2 + lam^2 r^2 = r^2 - 1 by {resid:.3e}"
        )
    ya = _fiber_array(y)
    if len(ya) != params.n:
        raise DimensionError(
            f"fiber point has {len(ya)} coordinates, expected n={params.n}"
        )
    rad = math.sqrt(r * r - 1.0)
    nu = np.concatenate(([0.0, 0.0], -r * lam * ya))
    nu[0] += -(r * r * lam / rad) * math.cos(theta) - (rp / rad) * math.sin(theta)
    nu[1] += -(r * r * lam / rad) * math.sin(theta) + (rp / rad) * math.cos(theta)
    # on the constraint manifold the formula is exactly unit; normalizing
    # removes the first-order effect of the state's residual
    return nu / math.sqrt(minkowski_inner(nu, nu))


@dataclass(frozen=True)
class CurvatureCheck:
    """Result of the finite-difference principal-curvature estimate."""

    evaluated: bool
    lambda_est: float = float("nan")
    mu_est: float = float("nan")
    H_est: float = float("nan")
    reason: str = ""


def _phi_nu_at(params: ShapeParams, s, y: FiberPoint):
    """phi and nu at the profile sample ``s`` and fiber point ``y``."""
    sq = math.sqrt(-params.C)
    state = {"r": s.r, "r_prime": s.g_prime / sq, "lam": s.lam, "theta": s.theta}
    phi = immerse_point(params, {"r": s.r, "theta": s.theta}, y)
    nu = gauss_map(params, state, y)
    return phi, nu


def _projected_curvature(dphi: np.ndarray, dnu: np.ndarray) -> float:
    # d(nu)/ds = -kappa d(phi)/ds along a principal direction
    return -minkowski_inner(dnu, dphi) / minkowski_inner(dphi, dphi)


def verify_cmc(params: ShapeParams, curve, t: float,
               fd_step: float = 1e-5, fiber_direction: int = 0) -> CurvatureCheck:
    """Estimate both principal curvatures by centered finite differences.

    Differentiates phi and nu along the arc direction (for mu) and along
    a fiber geodesic through the axis point (for lambda), with Richardson
    extrapolation over step sizes fd_step and fd_step/2.  Near the axis
    (r - 1 < 1e-8) the B2 coefficient of nu degenerates and the check is
    reported as not evaluated.
    """
    if fd_step <= 0:
        raise DomainError("fd_step must be positive")
    if not 0 <= fiber_direction < params.n - 1:
        raise DomainError(
            f"fiber_direction must be in [0, {params.n - 2}]"
        )
    if not (curve.t[0] + fd_step <= t <= curve.t[-1] - fd_step):
        raise ParameterRangeError(
            f"t={t} (with fd margin) outside sampled range "
            f"[{curve.t[0]}, {curve.t[-1]}]"
        )
    n, H = params.n, params.H
    half = fd_step / 2
    # the base state and both step pairs, from one states call
    base, *shifted = curve.states([t, t + half, t - half,
                                   t + fd_step, t - fd_step])
    if base.r - 1.0 < NEAR_AXIS_EPS:
        return CurvatureCheck(evaluated=False,
                              reason="profile point too close to the axis")

    y0 = FiberPoint.axis(n)

    def mu_at(plus, minus, h):
        phi_p, nu_p = _phi_nu_at(params, plus, y0)
        phi_m, nu_m = _phi_nu_at(params, minus, y0)
        return _projected_curvature((phi_p - phi_m) / (2 * h),
                                    (nu_p - nu_m) / (2 * h))

    sq = math.sqrt(-params.C)
    base_state = {"r": base.r, "r_prime": base.g_prime / sq,
                  "lam": base.lam, "theta": base.theta}

    def fiber_point(s, direction=0):
        # geodesic through the axis point in one of the fiber directions
        coords = [0.0] * n
        coords[direction] = math.sinh(s)
        coords[-1] = math.cosh(s)
        return FiberPoint(coords)

    def lam_at(h, direction=0):
        yp, ym = fiber_point(h, direction), fiber_point(-h, direction)
        phi_p = immerse_point(params, base_state, yp)
        phi_m = immerse_point(params, base_state, ym)
        nu_p = gauss_map(params, base_state, yp)
        nu_m = gauss_map(params, base_state, ym)
        return _projected_curvature((phi_p - phi_m) / (2 * h),
                                    (nu_p - nu_m) / (2 * h))

    mu_est = (4 * mu_at(*shifted[:2], half) - mu_at(*shifted[2:], fd_step)) / 3
    lam_est = (4 * lam_at(half, fiber_direction)
               - lam_at(fd_step, fiber_direction)) / 3
    H_est = ((n - 1) * lam_est + mu_est) / n
    return CurvatureCheck(evaluated=True, lambda_est=lam_est,
                          mu_est=mu_est, H_est=H_est)
