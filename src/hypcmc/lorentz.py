"""Lorentzian (Minkowski) linear algebra for ambient R^(n+2), the
immersion map phi, the Gauss map nu, and finite-difference certification
of constant mean curvature.

Vectors live in R^(n+2) with signature (+, ..., +, -): the last
coordinate is timelike.  Hypersurface points are
phi = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta), r * y), where y
is a point of the fiber H^(n-1) embedded in Lorentzian R^n.

Each formula is written once, as array code over rows (``inner_rows``,
``immerse_rows``, ``gauss_rows``, ``curvature_rows``), not as bit copies
of per-point formulas; ``curvature_rows`` reads its shape from the curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    InconsistentStateError,
    ParameterRangeError,
)

FIBER_TOL = 1e-12
FIRST_INTEGRAL_TOL = 1e-6
NEAR_AXIS_EPS = 1e-8
FD_STEP = 1e-5


def inner_rows(v, w):
    """<v, w> over the last axis.  The stacked matmul sums each row as
    np.dot sums a vector; einsum or an elementwise sum would not."""
    return ((v[..., None, :-1] @ w[..., :-1, None])[..., 0, 0]
            - v[..., -1] * w[..., -1])


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
            size = float(arr @ arr)
        # relative to |y|^2, the scale of the rounding of <y, y>; written
        # so that a NaN or infinite coordinate fails each check
        if not abs(self_inner + 1.0) <= FIBER_TOL * size:
            raise DomainError(
                f"fiber point has self-inner {self_inner!r}, expected -1"
            )
        if not arr[-1] >= 1.0:
            raise DomainError("fiber point must have last coordinate >= 1")
        object.__setattr__(self, "y", tuple(float(c) for c in arr))

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
    return _ambient(rad * np.cos(theta), rad * np.sin(theta), r[..., None] * y)


def gauss_rows(r, rp, lam, theta, y):
    """Unit normal nu of the immersion over rows, with y as in immerse_rows:

    nu = -r lam (0, 0, y) - (r^2 lam / sqrt(r^2-1)) B2 + (r' / sqrt(r^2-1)) B3
    with B2 = (cos th, sin th, 0...), B3 = (-sin th, cos th, 0...).  Each
    state must have r > 1 and satisfy the first integral
    (r')^2 + lam^2 r^2 = r^2 - 1 to within FIRST_INTEGRAL_TOL; the first
    row that does not raises."""
    resid = np.abs(rp * rp + lam * lam * r * r - (r * r - 1.0))
    bad = np.flatnonzero((r <= 1.0) | (resid > FIRST_INTEGRAL_TOL))
    if bad.size and r.flat[bad[0]] <= 1.0:
        raise DomainError("the Gauss map requires r > 1, "
                          f"got r={float(r.flat[bad[0]])}")
    if bad.size:
        raise InconsistentStateError(
            f"state violates (r')^2 + lam^2 r^2 = r^2 - 1 by {resid.flat[bad[0]]:.3e}"
        )
    rad = np.sqrt(r * r - 1.0)
    cos, sin = np.cos(theta), np.sin(theta)
    a, b = r * r * lam / rad, rp / rad
    nu = _ambient(-a * cos - b * sin, -a * sin + b * cos,
                  (-r * lam)[..., None] * y)
    # on the constraint manifold the formula is exactly unit; normalizing
    # removes the first-order effect of the state's residual
    return nu / np.sqrt(inner_rows(nu, nu))[..., None]


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


def curvature_rows(curve, ts):
    """Both principal curvatures and H by centered finite differences at
    each of the times ``ts``, as arrays (evaluated, lambda_est, mu_est,
    H_est), NaN where not evaluated; n, H and C are ``curve.params``'.

    Differentiates phi and nu along the arc direction (for mu) and along
    the fiber geodesic through the axis point in the first fiber
    direction (for lambda), with Richardson extrapolation over step sizes
    FD_STEP and FD_STEP/2.  Near the axis (r - 1 < NEAR_AXIS_EPS) the B2
    coefficient of nu degenerates and the time is not evaluated.  The
    states at t, t +- FD_STEP/2 and t +- FD_STEP come from one
    ``curve.state_arrays`` call with one row per t; each state has the
    bits of a lone ``state`` call, so each row has those of the same
    estimate at one time alone.
    """
    ts = np.asarray(ts, dtype=float)
    outside = np.flatnonzero(~((curve.t[0] + FD_STEP <= ts)
                               & (ts <= curve.t[-1] - FD_STEP)))
    if outside.size:
        raise ParameterRangeError(
            f"t={float(ts[outside[0]])} (with fd margin) outside sampled range "
            f"[{curve.t[0]}, {curve.t[-1]}]"
        )
    params = curve.params
    n, half = params.n, FD_STEP / 2
    g, gp, theta = curve.state_arrays(np.column_stack(
        (ts, ts + half, ts - half, ts + FD_STEP, ts - FD_STEP)))
    sq = math.sqrt(-params.C)
    r = g / sq
    evaluated = ~(r[:, 0] - 1.0 < NEAR_AXIS_EPS)
    est = np.full((3, len(ts)), np.nan)
    if evaluated.any():
        state = [x[evaluated] for x in (r, gp / sq, params.H + g ** (-n), theta)]
        steps = (half, FD_STEP)
        mu_est = _curvature(*(x[:, 1:] for x in state),
                            FiberPoint.axis(n).as_array(), steps)
        # the fiber points at offsets s along the first fiber direction
        s = np.array([[half], [-half], [FD_STEP], [-FD_STEP]])
        ys = np.hstack((np.sinh(s), np.zeros((4, n - 2)), np.cosh(s)))
        lam_est = _curvature(*(x[:, :1] for x in state), ys, steps)
        est[:, evaluated] = (lam_est, mu_est, ((n - 1) * lam_est + mu_est) / n)
    return (evaluated, *est)
