"""Time-domain integration of the profile system (g, g', theta) and the
derived curves: the planar profile alpha(t), theta' traces, and full
immersion sample grids.

The profile satisfies the first integral

    (g')^2 + g^(2-2n) + (H^2 - 1) g^2 + 2 H g^(2-n) = C,

which is singular at the turning points, so we integrate the regular
second-order form g'' = q'(g) / 2 instead, starting from the minimum
g(0) = t1, g'(0) = 0.  The angle is carried along as
theta' = sqrt(-C) g lambda / (g^2 + C) with lambda = H + g^(-n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .errors import (
    DomainError,
    GuardBandError,
    IntegrationFailureError,
    ParameterRangeError,
)
from .potential import Ctilde, ShapeParams, eval_q_prime, oscillation_roots
from .quadrature import (
    CTILDE_GUARD_REL,
    SingularIntegrand,
    _flux_ingredients,
    _s,
    de_integrate,
    flux_K,
    period_T,
)

# When the ODE's accumulated angle disagrees with the flux integral by
# more than this, theta samples are rebuilt by partial quadrature (the
# near-axis angle spike is stiffer than the g dynamics can certify).
THETA_REBUILD_TOL = 1e-9

ENERGY_TOL = 1e-8
RK_RTOL = 1e-10
RK_ATOL = 1e-12


@dataclass(frozen=True)
class ProfileSample:
    """One state of the profile at arc parameter t."""

    t: float
    g: float
    g_prime: float
    r: float
    lam: float
    mu: float
    theta: float
    theta_prime: float


@dataclass
class ProfileCurve:
    """A sampled profile trajectory over an integer number of periods.

    Arrays are aligned: entry i of each array is the state at t[i].  The
    dense interpolant of the integrator is retained so intermediate
    states can be queried through ``state``.
    """

    params: ShapeParams
    t: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    theta: np.ndarray
    period_T: float
    period_ode: float
    K_value: float
    periods_covered: int
    t1: float
    t2: float
    _sol: object = field(repr=False, default=None)
    _theta_map: object = field(repr=False, default=None)

    @property
    def r(self) -> np.ndarray:
        return self.g / math.sqrt(-self.params.C)

    @property
    def lam(self) -> np.ndarray:
        return self.params.H + self.g ** (-self.params.n)

    @property
    def mu(self) -> np.ndarray:
        n = self.params.n
        return n * self.params.H - (n - 1) * self.lam

    @property
    def theta_prime(self) -> np.ndarray:
        C = self.params.C
        return math.sqrt(-C) * self.g * self.lam / (self.g * self.g + C)

    @property
    def samples(self) -> list[ProfileSample]:
        r, lam, mu, tp = self.r, self.lam, self.mu, self.theta_prime
        return [
            ProfileSample(t=float(self.t[i]), g=float(self.g[i]),
                          g_prime=float(self.g_prime[i]), r=float(r[i]),
                          lam=float(lam[i]), mu=float(mu[i]),
                          theta=float(self.theta[i]), theta_prime=float(tp[i]))
            for i in range(len(self.t))
        ]

    def state(self, t: float) -> ProfileSample:
        """Interpolated state at an arbitrary t inside the sampled range."""
        if not (self.t[0] <= t <= self.t[-1]):
            raise ParameterRangeError(
                f"t={t} outside the sampled range [{self.t[0]}, {self.t[-1]}]"
            )
        g, gp, theta = self._sol(t)
        if self._theta_map is not None:
            theta = self._theta_map.theta(t)
        n, H, C = self.params.n, self.params.H, self.params.C
        r = g / math.sqrt(-C)
        lam = H + g ** (-n)
        return ProfileSample(
            t=float(t), g=float(g), g_prime=float(gp), r=float(r),
            lam=float(lam), mu=float(n * H - (n - 1) * lam),
            theta=float(theta),
            theta_prime=float(math.sqrt(-C) * g * lam / (g * g + C)),
        )


class _ThetaMap:
    """Angle as a function of t, rebuilt from partial flux quadrature.

    The accumulated angle over [0, tau] inside the first half-period
    equals the v-substituted flux integral from t1 to g(tau).  Anchoring
    each partial integral at the exact turning point (with the pole
    offset d computed analytically) keeps theta accurate through the
    near-axis spike, where pointwise ODE integration of theta' cannot:
    the period-mark values theta(jT) come out exactly j * K.
    """

    def __init__(self, params: ShapeParams, T: float, K: float, g_of_t,
                 tol: float = 1e-11):
        self.params = params
        self.T = T
        self.K = K
        self.g_of_t = g_of_t
        self.tol = tol
        self.t1, self.t2, self._rem, self._vc, self._d = _flux_ingredients(params)

    def _partial_low(self, x: float) -> float:
        """Half-flux integral from t1 to x (x in the lower half)."""
        n, H = self.params.n, self.params.H
        t1, t2, rem, vc, d = self.t1, self.t2, self._rem, self._vc, self._d
        if x <= t1:
            return 0.0

        def fo(v, da, db):
            return (vc * (1 + H * v ** n) * v ** (1 - n)
                    / ((da + d) * (v + vc) * np.sqrt(da * (t2 - v) * _s(n, rem, v))))

        spec = SingularIntegrand(lower=t1, upper=x, offset_integrand=fo)
        return de_integrate(spec, tol=self.tol).value

    def _partial_high(self, x: float) -> float:
        """Half-flux integral from x to t2 (x in the upper half)."""
        n, H, C = self.params.n, self.params.H, self.params.C
        t1, t2, rem, vc = self.t1, self.t2, self._rem, self._vc
        if x >= t2:
            return 0.0

        def fo(v, da, db):
            return (vc * (1 + H * v ** n) * v ** (1 - n)
                    / ((C + v * v) * np.sqrt((v - t1) * db * _s(n, rem, v))))

        spec = SingularIntegrand(lower=x, upper=t2, offset_integrand=fo)
        return de_integrate(spec, tol=self.tol).value

    def _theta0(self, tau: float) -> float:
        """Angle over [0, tau] for tau inside one period."""
        if tau <= 0:
            return 0.0
        if tau >= self.T:
            return self.K
        if tau > self.T / 2:
            return self.K - self._theta0(self.T - tau)
        x = min(max(float(self.g_of_t(tau)), self.t1), self.t2)
        if x - self.t1 <= self.t2 - x:
            return self._partial_low(x)
        return self.K / 2 - self._partial_high(x)

    def theta(self, t: float) -> float:
        j = math.floor(t / self.T)
        tau = t - j * self.T
        if tau >= self.T:  # rounding at a period mark
            j += 1
            tau -= self.T
        return j * self.K + self._theta0(tau)


def _energy_residual(params: ShapeParams, g, gp):
    n, H, C = params.n, params.H, params.C
    return np.abs(gp * gp + g ** (2 - 2 * n) + (H * H - 1) * g * g
                  + 2 * H * g ** (2 - n) - C)


def integrate_profile(params: ShapeParams, m_periods: int = 1,
                      samples_per_period: int = 1024) -> ProfileCurve:
    """Integrate (g, g', theta) over m periods from the g-minimum.

    Uses an adaptive embedded Runge-Kutta 5(4) pair with dense output.
    The phase convention puts t = 0 at the r-minimum, so g oscillates
    t1 -> t2 -> t1 over one period.
    """
    if params.C is None:
        raise DomainError("integrate_profile requires C")
    if m_periods < 1:
        raise DomainError("m_periods must be >= 1")
    n, H, C = params.n, params.H, params.C
    ct = Ctilde(n, H)
    if abs(C - ct) < CTILDE_GUARD_REL * abs(ct):
        raise GuardBandError(
            f"C={C} is inside the guard band around Ctilde={ct}; profile "
            "integration is refused there (the angle rate degenerates); "
            "the flux at Ctilde itself is xi(n, H)"
        )
    t1, t2 = oscillation_roots(params)
    Tq = period_T(params)
    if not Tq.converged:
        raise IntegrationFailureError("period quadrature did not converge")
    T = Tq.value
    sqc = math.sqrt(-C)

    def rhs(t, yv):
        g, gp, _ = yv
        lam = H + g ** (-n)
        return [gp, 0.5 * eval_q_prime(params, g), sqc * g * lam / (g * g + C)]

    t_end = m_periods * T
    sol = solve_ivp(rhs, (0.0, t_end), [t1, 0.0, 0.0], method="RK45",
                    rtol=RK_RTOL, atol=RK_ATOL, dense_output=True)
    if not sol.success:
        raise IntegrationFailureError(f"ODE integration failed: {sol.message}")

    ts = np.linspace(0.0, t_end, m_periods * samples_per_period + 1)
    g, gp, theta = sol.sol(ts)

    res = _energy_residual(params, g, gp)
    bound = ENERGY_TOL * max(1.0, abs(C))
    if res.max() > bound:
        worst = float(ts[int(np.argmax(res))])
        raise IntegrationFailureError(
            f"energy drift {res.max():.3e} exceeds {bound:.3e} at t={worst}",
            worst_t=worst,
        )

    # ODE-side period: the return of g' to zero (from below) near T.
    def gprime_at(t):
        return sol.sol(t)[1]

    lo, hi = 0.75 * T, min(1.25 * T, t_end)
    if gprime_at(lo) < 0 < gprime_at(hi):
        period_ode = brentq(gprime_at, lo, hi, xtol=1e-14, rtol=8.9e-16)
    elif abs(gprime_at(hi)) < 1e-9:
        # g' did not change sign before the end of the span (m = 1 and a
        # slightly early return); the endpoint itself is the period.
        period_ode = hi
    else:
        period_ode = float("nan")

    # The angle carried by the ODE is only trustworthy when it agrees
    # with the singular quadrature over one period; the near-axis spike
    # in theta' (C close to Ctilde) defeats pointwise ODE accuracy, in
    # which case theta is rebuilt from partial flux integrals anchored
    # at the exact turning points.
    K_quad = flux_K(params).value
    K_ode = float(sol.sol(T)[2])
    theta_map = None
    if abs(K_ode - K_quad) <= THETA_REBUILD_TOL:
        K_value = K_ode
    else:
        # sample g with the ODE's own phase so turning points land where
        # the trajectory actually turns (the two periods differ by ~1e-11)
        scale = period_ode / T if math.isfinite(period_ode) else 1.0
        theta_map = _ThetaMap(params, T, K_quad,
                              lambda tt: sol.sol(tt * scale)[0])
        theta = np.array([theta_map.theta(tt) for tt in ts])
        K_value = K_quad
    return ProfileCurve(
        params=params, t=ts, g=g, g_prime=gp, theta=theta,
        period_T=T, period_ode=float(period_ode), K_value=K_value,
        periods_covered=m_periods, t1=t1, t2=t2, _sol=sol.sol,
        _theta_map=theta_map,
    )


def profile_alpha(curve: ProfileCurve) -> np.ndarray:
    """Planar profile alpha(t) = (sqrt(r^2-1) cos(theta), sqrt(r^2-1) sin(theta)).

    Returned as an (N, 2) array aligned with curve.t.
    """
    r = curve.r
    rad = np.sqrt(np.maximum(r * r - 1.0, 0.0))
    return np.column_stack((rad * np.cos(curve.theta), rad * np.sin(curve.theta)))


def theta_prime_trace(curve: ProfileCurve,
                      clip: Optional[float] = None) -> np.ndarray:
    """(t, theta') pairs, optionally clipped to |theta'| <= clip."""
    tp = curve.theta_prime
    if clip is not None:
        if clip <= 0:
            raise DomainError("clip must be positive")
        tp = np.clip(tp, -clip, clip)
    return np.column_stack((curve.t, tp))


def surface_grid(curve: ProfileCurve, fiber_samples: Sequence) -> np.ndarray:
    """Full immersion grid phi(y, u) as an (F, N, n+2) array.

    Every output point lies on the hyperboloid <phi, phi> = -1.
    """
    from .lorentz import immerse_point

    r, theta = curve.r, curve.theta
    out = np.empty((len(fiber_samples), len(r), curve.params.n + 2))
    for i, y in enumerate(fiber_samples):
        for j in range(len(r)):
            out[i, j] = immerse_point(
                curve.params, {"r": float(r[j]), "theta": float(theta[j])}, y
            )
    return out
