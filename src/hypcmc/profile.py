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
The angle rate is quadrature._angle_rate, the integrand flux_K
integrates: its pole part F(vc) / (g - vc), with
g - vc = d + 2 a sin^2(phi / 2) and d = t1 - vc, is integrated in
closed form; it carries the sharp angle spike of a profile that grazes
the rotation axis (d -> 0).  The time rate and the smooth remainder of
the angle rate are integrated term by term from their cosine series,
whose trapezoid coefficients converge geometrically (Trefethen &
Weideman, SIAM Rev. 56, 2014).  The constant term c0 of the time series
gives the period T = 2 pi c0, which is also the time axis.  A sample at
time t takes its phase from Newton's method on t(phi), on its own: its
bits do not depend on the other times of the call.  So the energy
identity holds to rounding, g(jT) = t1, g(jT + T/2) = t2 and
theta(jT/2) = jK/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationFailureError, ParameterRangeError
from .lorentz import _fiber_array, immerse_rows
from .potential import ShapeParams, _two_product, _two_sum, horner
from .quadrature import (
    MAX_NODES,
    _angle_remainder,
    _flux_setup,
    _rows,
    _s,
)

# the bound `hypcmc check` holds the first-integral residual to
ENERGY_TOL = 1e-8
# a cosine series has converged when the upper half of its coefficients
# is below SERIES_TOL times the largest node value; the nodes per
# half-period are doubled up to MAX_NODES (the phase rule's cap)
SERIES_TOL = 4 * np.finfo(float).eps
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
    inside the sampled range by Newton's method on t(phi), as the samples
    are taken, and ``state(t[k])`` is sample k bit for bit.
    ``period_T`` and ``K_value`` are the period and the angle per period
    of the phase series, and ``period_T`` is the time axis.  ``check``
    compares both with tanh-sinh quadrature over v (quadrature.period_T
    and quadrature._flux_over_v), an independent rule.
    """

    params: ShapeParams
    t: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    theta: np.ndarray
    period_T: float
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
        """theta' = vc g lambda / ((g - vc)(g + vc)), vc = sqrt(-C).

        Next to Ctilde, lambda and g - vc both vanish at g = t1.  So
        g - vc is taken as g - t1 plus d = t1 - vc = (-C) delta^2 / den,
        as in quadrature._angle_rate, with delta = H + (-C)^(-n/2) from
        _axis_lambda; and lambda = H + g^(-n) is also
        delta - (g - vc) S / (g vc)^n, with S = (g^n - vc^n) / (g - vc)
        the power sum.  Each sample adds the pair of smaller terms, whose
        rounding error is the smaller.  At the period marks, where g is
        t1, this is the rate at the root.
        """
        n, H, C = self.params.n, self.params.H, self.params.C
        g, vc = self.g, math.sqrt(-C)
        delta = _axis_lambda(n, H, C)
        den = (self.t2 - vc) * (-horner(self._phase.rem, vc) * vc ** (2 - 2 * n))
        gap = (g - self.t1) + (-C) * delta * delta / den
        g_n = g ** (-n)
        tail = gap * horner(vc ** np.arange(n), g) * g_n / vc ** n
        lam = np.where(abs(H) + g_n <= abs(delta) + tail, H + g_n, delta - tail)
        return vc * g * lam / (gap * (g + vc))

    @property
    def samples(self) -> list[ProfileSample]:
        fields = zip(self.t, self.g, self.g_prime, self.r, self.lam, self.mu,
                     self.theta, self.theta_prime)
        return [ProfileSample(*map(float, row)) for row in fields]

    def state(self, t: float) -> ProfileSample:
        """The state at an arbitrary t inside the sampled range."""
        return self.states([t])[0]

    def states(self, ts: Sequence[float]) -> list[ProfileSample]:
        """The states at times inside the sampled range."""
        ts = np.array(ts, dtype=float)
        g, gp, theta = self.state_arrays(ts)
        return replace(self, t=ts, g=g, g_prime=gp, theta=theta).samples

    def state_arrays(self, ts):
        """(g, g', theta) at times inside the sampled range, as arrays of
        the shape of ``ts``; each entry has the bits of a lone ``state`` call.
        """
        ts = np.asarray(ts, dtype=float)
        outside = np.flatnonzero(~((self.t[0] <= ts) & (ts <= self.t[-1])))
        if outside.size:
            raise ParameterRangeError(
                f"t={float(ts.flat[outside[0]])} outside the sampled range "
                f"[{self.t[0]}, {self.t[-1]}]"
            )
        return self._phase.at(ts)


def _axis_lambda(n: int, H: float, C: float) -> float:
    """delta = H + (-C)^(-n/2), lambda at g = sqrt(-C), rounded once.

    (-C)^(n/2) and its reciprocal are carried as unevaluated sums
    hi + lo (Dekker's products), so delta keeps its relative accuracy
    where H and (-C)^(-n/2) cancel, next to Ctilde.
    """
    x = -C
    hi, lo = 1.0, 0.0
    if n % 2:
        hi = math.sqrt(x)
        p, e = _two_product(hi, hi)
        lo = ((x - p) - e) / (2 * hi)
    for _ in range(n // 2):
        p, e = _two_product(hi, x)
        hi, lo = _two_sum(p, e + lo * x)
    q = 1 / hi
    p, e = _two_product(q, hi)
    return (H + q) + q * (((1 - p) - e) - q * lo)


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

    The time t(phi) = rate (phi + sum of b_time[k - 1] sin(k phi)) sets
    the period T = t(2 pi) = 2 pi rate, so every period mark j T falls
    on phi = 0 mod 2 pi.
    """

    def __init__(self, params: ShapeParams):
        n = params.n
        t1, t2, rate = _flux_setup(params)
        rate = _rows(rate, 0)
        a, rem = rate.a, rate.rem
        self.n, self.t1, self.t2, self.a, self.rem = n, t1, t2, a, rem

        dt = _cosine_series(lambda phi: 1 / np.sqrt(_s(n, rem, self.g_of(phi))),
                            "time")
        self.rate = dt[0]
        self.T = 2 * math.pi * dt[0]
        self.b_time = dt[1:] / (np.arange(1, len(dt)) * dt[0])

        # the angle's pole part, in closed form (see _angle_rate)
        self.pole = rate.pole
        self.pole_axes = (math.sqrt(rate.d + 2 * a), math.sqrt(rate.d))
        dtheta = _cosine_series(
            lambda phi: _angle_remainder(n, params.H, rate, phi), "angle")
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
        """phi with t(phi) / rate = target, by Newton's method from phi = target.

        Each phase stops at its own PHASE_TOL test on its step, so it has
        the bits of a lone call.
        """
        goal = np.array(target, dtype=float).ravel()
        phi = goal.copy()
        live = np.arange(phi.size)
        for _ in range(NEWTON_MAX_STEPS):
            at = phi[live]
            miss = at + _sine_sum(self.b_time, at) - goal[live]
            # dt/dphi = 1 / sqrt(s(g)) > 0
            step = miss * self.rate * np.sqrt(_s(self.n, self.rem, self.g_of(at)))
            phi[live] = at - step
            live = live[~(np.abs(step) <= PHASE_TOL)]
            if not live.size:
                return phi.reshape(np.shape(target))
        raise IntegrationFailureError("Newton's method on t(phi) did not converge")

    def at(self, ts):
        """(g, g', theta) at the times ``ts``.

        Each time is taken from its nearest period mark j T, so its phase
        lies in [-pi, pi] (g is even in phi, t and theta odd) and is
        small next to t1, where the angle turns fastest.
        """
        j = np.round(ts / self.T)
        phi = self._phase_of((ts - j * self.T) / self.rate)
        g = self.g_of(phi)
        gp = self.a * np.sin(phi) * np.sqrt(_s(self.n, self.rem, g))
        return g, gp, j * self.K + self._angle(phi)


def _energy_residual(params: ShapeParams, g, gp):
    n, H, C = params.n, params.H, params.C
    return np.abs(gp * gp + g ** (2 - 2 * n) + (H * H - 1) * g * g
                  + 2 * H * g ** (2 - n) - C)


def integrate_profile(params: ShapeParams, m_periods: int = 1,
                      samples_per_period: int = 1024) -> ProfileCurve:
    """The profile (g, g', theta) over m periods from the g-minimum.

    Samples are uniform in t on the period ``period_T`` of the phase
    series; each takes its phase from Newton's method on the series
    t(phi).  No tanh-sinh rule is run.  The phase convention puts t = 0
    at the r-minimum, so g oscillates t1 -> t2 -> t1 over one period.  It
    runs at every C where flux_K does, next to Ctilde too, and refuses
    where flux_K refuses.  A series that does not converge by its node cap
    raises IntegrationFailureError.
    """
    if m_periods < 1:
        raise DomainError("m_periods must be >= 1")
    phase = _Phase(params)
    ts = np.linspace(0.0, m_periods * phase.T,
                     m_periods * samples_per_period + 1)
    g, gp, theta = phase.at(ts)
    return ProfileCurve(
        params=params, t=ts, g=g, g_prime=gp, theta=theta,
        period_T=phase.T, K_value=phase.K,
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
        if not clip > 0:
            raise DomainError("clip must be positive")
        tp = np.clip(tp, -clip, clip)
    return np.column_stack((curve.t, tp))


def surface_grid(curve: ProfileCurve, fiber_samples: Sequence) -> np.ndarray:
    """Full immersion grid phi(y, u) as an (F, N, n+2) array.

    Every output point lies on the hyperboloid <phi, phi> = -1.  Point
    (i, j) is immerse_point at sample j and fiber i, bit for bit.
    """
    n = curve.params.n
    ys = np.reshape([_fiber_array(y, n) for y in fiber_samples], (-1, 1, n))
    return immerse_rows(curve.r, curve.theta, ys)
