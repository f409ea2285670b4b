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
    DimensionError,
    DomainError,
    GuardBandError,
    IntegrationFailureError,
    ParameterRangeError,
)
from .potential import Ctilde, ShapeParams, eval_q_prime, oscillation_roots
from .quadrature import (
    CTILDE_GUARD_REL,
    DEFAULT_MAX_LEVEL,
    SingularIntegrand,
    _flux_ingredients,
    _integrate_rows,
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
        return self.states([t])[0]

    def states(self, ts: Sequence[float]) -> list[ProfileSample]:
        """Interpolated states at times inside the sampled range.

        A rebuilt angle is computed for all of ``ts`` in one batch.
        """
        for t in ts:
            if not (self.t[0] <= t <= self.t[-1]):
                raise ParameterRangeError(
                    f"t={t} outside the sampled range [{self.t[0]}, {self.t[-1]}]"
                )
        thetas = None if self._theta_map is None else self._theta_map.theta(ts)
        n, H, C = self.params.n, self.params.H, self.params.C
        out = []
        for i, t in enumerate(ts):
            g, gp, theta = self._sol(t)
            if thetas is not None:
                theta = thetas[i]
            r = g / math.sqrt(-C)
            lam = H + g ** (-n)
            out.append(ProfileSample(
                t=float(t), g=float(g), g_prime=float(gp), r=float(r),
                lam=float(lam), mu=float(n * H - (n - 1) * lam),
                theta=float(theta),
                theta_prime=float(math.sqrt(-C) * g * lam / (g * g + C)),
            ))
        return out


def _half_flux_low(n, H, t2, rem, vc, d):
    """Offset integrand of the half flux over (t1, x), x in the lower half.

    The pole factor is written as (da + d)(v + vc) as in the full flux,
    so it keeps relative accuracy next to t1 when d is tiny.
    """

    def fo(v, da, db):
        return (vc * (1 + H * v ** n) * v ** (1 - n)
                / ((da + d) * (v + vc) * np.sqrt(da * (t2 - v) * _s(n, rem, v))))

    return fo


def _half_flux_high(n, H, C, t1, rem, vc):
    """Offset integrand of the half flux over (x, t2), x in the upper half."""

    def fo(v, da, db):
        return (vc * (1 + H * v ** n) * v ** (1 - n)
                / ((C + v * v) * np.sqrt((v - t1) * db * _s(n, rem, v))))

    return fo


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
        self.T = T
        self.K = K
        self.g_of_t = g_of_t
        self.tol = tol
        n, H, C = params.n, params.H, params.C
        self.t1, self.t2, rem, vc, d = _flux_ingredients(params)
        self._low = _half_flux_low(n, H, self.t2, rem, vc, d)
        self._high = _half_flux_high(n, H, C, self.t1, rem, vc)

    def _partials(self, fo, lower, upper) -> list:
        """The integrals of ``fo`` over (lower[i], upper[i]), as one batch."""
        if not lower:
            return []
        batch = _integrate_rows(np.array(lower), np.array(upper),
                                lambda rows, x, da, db: fo(x, da, db),
                                self.tol, DEFAULT_MAX_LEVEL)
        out = []
        for a, b, res in zip(lower, upper, batch):
            if res is None:
                # a row the block left out runs the one-row path, which
                # drops the nodes outside the keep mask or raises the
                # EvaluationError of a non-finite value
                res = de_integrate(SingularIntegrand(lower=a, upper=b,
                                                     offset_integrand=fo),
                                   tol=self.tol)
            out.append(res.value)
        return out

    def theta(self, ts: Sequence[float]) -> np.ndarray:
        """The angle at each time of ``ts``.

        Each sample is planned first: its period count j, its time tau
        inside the period, whether tau is reflected into the first
        half-period (theta0(tau) = K - theta0(T - tau)) and the half
        that g(tau) falls in.  The partial integrals of all samples then
        run as two batches, one per half.
        """
        T, K, t1, t2 = self.T, self.K, self.t1, self.t2
        low, high = [], []  # x of the samples needing a partial integral
        # per sample: (j, reflected, half, angle), where the angle over
        # [0, tau] is an index into the half's integrals when half is set
        plan = []
        for t in ts:
            j = math.floor(t / T)
            tau = t - j * T
            if tau >= T:  # rounding at a period mark
                j += 1
                tau -= T
            if tau <= 0:
                plan.append((j, False, None, 0.0))
                continue
            if tau >= T:
                plan.append((j, False, None, K))
                continue
            # tau in (T/2, T) reflects exactly (Sterbenz) into (0, T/2)
            reflected = tau > T / 2
            if reflected:
                tau = T - tau
            x = min(max(float(self.g_of_t(tau)), t1), t2)
            if x - t1 <= t2 - x:
                if x <= t1:
                    plan.append((j, reflected, None, 0.0))
                else:
                    plan.append((j, reflected, low, len(low)))
                    low.append(x)
            elif x >= t2:
                plan.append((j, reflected, None, K / 2))
            else:
                plan.append((j, reflected, high, len(high)))
                high.append(x)

        low_vals = self._partials(self._low, [t1] * len(low), low)
        high_vals = self._partials(self._high, high, [t2] * len(high))
        out = np.empty(len(plan))
        for i, (j, reflected, half, v0) in enumerate(plan):
            if half is low:
                v0 = low_vals[v0]
            elif half is high:
                v0 = K / 2 - high_vals[v0]
            out[i] = j * K + (K - v0 if reflected else v0)
        return out


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
        theta = theta_map.theta(ts)
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

    Every output point lies on the hyperboloid <phi, phi> = -1.  Point
    (i, j) is immerse_point at sample j and fiber i, bit for bit.
    """
    from .lorentz import _fiber_array

    n = curve.params.n
    r = curve.r
    below = np.flatnonzero(r < 1.0)
    if below.size:
        raise DomainError(f"r={float(r[below[0]])} < 1 leaves the hyperboloid chart")
    ys = [_fiber_array(y) for y in fiber_samples]
    for ya in ys:
        if len(ya) != n:
            raise DimensionError(
                f"fiber point has {len(ya)} coordinates, expected n={n}"
            )
    # the circle part with math, as immerse_point computes it
    rad = [math.sqrt(x * x - 1.0) for x in r.tolist()]
    thetas = curve.theta.tolist()
    out = np.empty((len(ys), len(r), n + 2))
    out[:, :, 0] = [a * math.cos(th) for a, th in zip(rad, thetas)]
    out[:, :, 1] = [a * math.sin(th) for a, th in zip(rad, thetas)]
    out[:, :, 2:] = r[None, :, None] * np.reshape(ys, (len(ys), 1, n))
    return out
