"""The profile curve, described by one phase variable, and the curves
derived from it: the planar profile alpha(t), theta' traces, and full
immersion sample grids.

The profile satisfies the first integral (g')^2 = q(g), with

    q(g) = C - g^(2-2n) - (H^2 - 1) g^2 - 2 H g^(2-n)
         = (g - t1)(t2 - g) s(g),

and turns by theta' = sqrt(-C) g lambda / (g^2 + C), lambda = H + g^(-n).
The substitution

    g = t1 + 2 a sin^2(phi / 2),   a = (t2 - t1) / 2,

gives g' = a sin(phi) sqrt(s(g)) and phi' = sqrt(s(g)) > 0: the phase
phi runs through 2 pi per period with no turning point left.  Time and
angle are integrals over phi of smooth, even, 2 pi-periodic functions,

    dt/dphi = 1 / sqrt(s(g)),
    dtheta/dphi = F(g) / (g - vc),
    F(g) = vc (1 + H g^n) / ((g + vc) sqrt(P(g))),

with vc = sqrt(-C) < t1 the pole of the angle rate and P = g^(2n-2) s.
The pole part F(vc) / (g - vc), with g - vc = d + 2 a sin^2(phi / 2)
and d = t1 - vc, is integrated in closed form; it carries the sharp
angle spike of a profile that grazes the rotation axis (d -> 0).  The
time rate and the smooth remainder of the angle rate are integrated
term by term from their cosine series, whose trapezoid coefficients
converge geometrically (Trefethen & Weideman, SIAM Rev. 56, 2014).  A
sample at time t takes its phase from Newton's method on t(phi).  So the
energy identity holds to rounding, g(jT) = t1, g(jT + T/2) = t2 and
theta(jT/2) = jK/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    GuardBandError,
    IntegrationFailureError,
    ParameterRangeError,
)
from .potential import Ctilde, ShapeParams, horner
from .quadrature import (
    CTILDE_GUARD_REL,
    _flux_ingredients,
    _s,
    _synthetic_deflate,
    period_T,
)

# the bound `hypcmc check` holds the first-integral residual to
ENERGY_TOL = 1e-8
# a cosine series has converged when the upper half of its coefficients
# is below SERIES_TOL times the largest node value; the nodes per
# half-period are doubled up to MAX_NODES
SERIES_TOL = 4 * np.finfo(float).eps
MAX_NODES = 1 << 13
# Newton's method on t(phi) stops at a step below PHASE_TOL
PHASE_TOL = 1e-14
NEWTON_MAX_STEPS = 30


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
    phase series are retained, so ``state`` evaluates the curve at any t
    inside the sampled range by the same rule as the samples.
    ``period_T`` is the tanh-sinh period and the time axis; ``period_ode``
    and ``K_value`` are the period and the angle per period of the phase
    series, computed independently of ``period_T`` and ``flux_K``.
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
    _phase: object = field(repr=False, default=None)

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
        return _samples(self.params, self.t, self.g, self.g_prime, self.theta)

    def state(self, t: float) -> ProfileSample:
        """The state at an arbitrary t inside the sampled range."""
        return self.states([t])[0]

    def states(self, ts: Sequence[float]) -> list[ProfileSample]:
        """The states at times inside the sampled range."""
        for t in ts:
            if not (self.t[0] <= t <= self.t[-1]):
                raise ParameterRangeError(
                    f"t={t} outside the sampled range [{self.t[0]}, {self.t[-1]}]"
                )
        ts = np.array(ts, dtype=float)
        return _samples(self.params, ts, *self._phase.at(ts))


def _samples(params: ShapeParams, t, g, gp, theta) -> list[ProfileSample]:
    """One ProfileSample per entry of the aligned arrays, with the derived
    fields computed as the ProfileCurve properties compute them."""
    n, H, C = params.n, params.H, params.C
    lam = H + g ** (-n)
    fields = zip(t, g, gp, g / math.sqrt(-C), lam, n * H - (n - 1) * lam,
                 theta, math.sqrt(-C) * g * lam / (g * g + C))
    return [ProfileSample(*map(float, row)) for row in fields]


def _cosine_series(f, what: str) -> np.ndarray:
    """Cosine coefficients c of an even 2 pi-periodic function f(phi).

    f = c[0] + sum over k >= 1 of c[k] cos(k phi), from the trapezoid
    values at phi_j = j pi / N (a type-I DCT), with N doubled until the
    upper half of the coefficients is at the rounding level of the
    values, SERIES_TOL of their size.  Trailing coefficients at that
    level are dropped.
    """
    N = 8
    while N <= MAX_NODES:
        vals = f(np.arange(N + 1) * (math.pi / N))
        if not np.all(np.isfinite(vals)):
            raise IntegrationFailureError(f"the {what} integrand is not finite")
        c = np.fft.rfft(np.concatenate((vals, vals[-2:0:-1]))).real / N
        c[0] /= 2
        c[N] /= 2
        floor = SERIES_TOL * np.max(np.abs(vals))
        if np.max(np.abs(c[N // 2:])) <= floor:
            return c[:1 + np.flatnonzero(np.abs(c) > floor).max(initial=0)]
        N *= 2
    raise IntegrationFailureError(
        f"the {what} series did not converge with {MAX_NODES} nodes")


def _sine_sum(b, phi):
    """sum over k >= 1 of b[k - 1] sin(k phi), by Horner's rule in e^(i phi)."""
    z = np.exp(1j * phi)
    acc = np.zeros_like(z)
    for bk in b[::-1]:
        acc = (acc + bk) * z
    return acc.imag


class _Phase:
    """One period of the profile as series in the phase phi.

    Times are mapped onto the curve's time axis of period T, the
    tanh-sinh period: a time tau has the phase phi with
    t(phi) / t(2 pi) = tau / T, so every period mark falls on phi = 0
    mod 2 pi, and the series period is reported apart, as ``period``.
    """

    def __init__(self, params: ShapeParams, T: float):
        n, H, C = params.n, params.H, params.C
        t1, t2, rem, vc, d = _flux_ingredients(params)
        a = (t2 - t1) / 2
        self.n, self.T, self.t1, self.t2, self.a, self.rem = n, T, t1, t2, a, rem

        dt = _cosine_series(lambda phi: 1 / np.sqrt(_s(n, rem, self.g_of(phi))),
                            "time")
        self.rate = dt[0]
        self.period = 2 * math.pi * dt[0]
        self.b_time = dt[1:] / (np.arange(1, len(dt)) * dt[0])

        # F(vc) = vc^n delta / (2 sqrt(P(vc))), delta = H + vc^(-n) as in d
        root_vc = math.sqrt(-horner(rem, vc))
        F_vc = (-C) ** (n / 2) * (H + (-C) ** (-n / 2)) / (2 * root_vc)
        # the integral of F(vc) / (d + 2a sin^2(phi/2)) over [0, phi] is
        # pole * atan2(sqrt(d + 2a) sin(phi/2), sqrt(d) cos(phi/2))
        self.pole = 2 * F_vc / math.sqrt(d * (d + 2 * a))
        self.pole_axes = (math.sqrt(d + 2 * a), math.sqrt(d))
        integrand = _angle_remainder(n, H, rem, vc, root_vc, F_vc, self.g_of)
        dtheta = _cosine_series(integrand, "angle")
        self.slope = dtheta[0]
        self.b_angle = dtheta[1:] / np.arange(1, len(dtheta))
        self.K = 2 * math.pi * self.slope + math.pi * self.pole

    def g_of(self, phi):
        return self.t1 + 2 * self.a * np.sin(phi / 2) ** 2

    def _angle(self, phi):
        """theta over [0, phi]."""
        y, x = self.pole_axes
        return (self.slope * phi + _sine_sum(self.b_angle, phi)
                + self.pole * np.arctan2(y * np.sin(phi / 2), x * np.cos(phi / 2)))

    def _phase_of(self, target):
        """phi with t(phi) / rate = target, by Newton's method from phi = target."""
        phi = target
        for _ in range(NEWTON_MAX_STEPS):
            miss = phi + _sine_sum(self.b_time, phi) - target
            # dt/dphi = 1 / sqrt(s(g)) > 0
            step = miss * self.rate * np.sqrt(_s(self.n, self.rem, self.g_of(phi)))
            phi = phi - step
            if np.max(np.abs(step), initial=0.0) <= PHASE_TOL:
                return phi
        raise IntegrationFailureError("Newton's method on t(phi) did not converge")

    def at(self, ts):
        """(g, g', theta) at the times ``ts`` of the curve's time axis.

        Each time is taken from its nearest period mark j T, so its phase
        lies in [-pi, pi] (g is even in phi, t and theta odd) and is
        small next to t1, where the angle turns fastest.
        """
        j = np.round(ts / self.T)
        phi = self._phase_of(2 * math.pi * (ts - j * self.T) / self.T)
        g = self.g_of(phi)
        gp = self.a * np.sin(phi) * np.sqrt(_s(self.n, self.rem, g))
        return g, gp, j * self.K + self._angle(phi)


def _angle_remainder(n, H, rem, vc, root_vc, F_vc, g_of):
    """(F(g) - F(vc)) / (g - vc) as a function of phi, by divided differences.

    With F = N W, N(g) = vc (1 + H g^n) and W = 1 / U, U = (g + vc) sqrt(P):
    F[g, vc] = N[g, vc] W(g) - N(vc) U[g, vc] / (U(g) U(vc)), where
    N[g, vc] is vc H times the power sum of g^i vc^(n-1-i),
    U[g, vc] = sqrt(P(g)) + 2 vc P[g, vc] / (sqrt(P(g)) + sqrt(P(vc))) and
    -P[g, vc] is the quotient of rem by (v - vc).  No two close numbers
    are subtracted, so the remainder keeps its accuracy next to the pole.
    """
    quotient = _synthetic_deflate(rem, vc)
    powers = [vc ** k for k in range(n)]
    U_vc = 2 * vc * root_vc
    N_vc = F_vc * U_vc

    def remainder(phi):
        g = g_of(phi)
        root = np.sqrt(-horner(rem, g))
        U = (g + vc) * root
        dU = root - 2 * vc * horner(quotient, g) / (root + root_vc)
        return vc * H * horner(powers, g) / U - N_vc * dU / (U * U_vc)

    return remainder


def _energy_residual(params: ShapeParams, g, gp):
    n, H, C = params.n, params.H, params.C
    return np.abs(gp * gp + g ** (2 - 2 * n) + (H * H - 1) * g * g
                  + 2 * H * g ** (2 - n) - C)


def integrate_profile(params: ShapeParams, m_periods: int = 1,
                      samples_per_period: int = 1024) -> ProfileCurve:
    """The profile (g, g', theta) over m periods from the g-minimum.

    Samples are uniform in t on the tanh-sinh period ``period_T``; each
    takes its phase from Newton's method on the series t(phi).  The phase
    convention puts t = 0 at the r-minimum, so g oscillates
    t1 -> t2 -> t1 over one period.  A series that does not converge by
    its node cap raises IntegrationFailureError.
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
    Tq = period_T(params)
    if not Tq.converged:
        raise IntegrationFailureError("period quadrature did not converge")
    T = Tq.value
    phase = _Phase(params, T)
    ts = np.linspace(0.0, m_periods * T, m_periods * samples_per_period + 1)
    g, gp, theta = phase.at(ts)
    return ProfileCurve(
        params=params, t=ts, g=g, g_prime=gp, theta=theta,
        period_T=T, period_ode=phase.period, K_value=phase.K,
        periods_covered=m_periods, t1=phase.t1, t2=phase.t2,
        _phase=phase,
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
