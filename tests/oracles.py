"""Independent numerical oracles used only by the test suite.

These deliberately share no code with the package's quadrature: an
adaptive Simpson rule with endpoint-offset extrapolation, a deflated
Gauss-Chebyshev rule for n = 2 (where the quartic roots are in closed
form), the n = 2 closed-form profile g(t), the flux from the
profile's curvature equation in the orbit plane, and the polynomial
root finders written with np.polyval.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq


def adaptive_simpson(f, a, b, tol=1e-12, max_depth=40):
    """Plain recursive adaptive Simpson on a finite interval."""

    def simpson(fa, fm, fb, h):
        return h * (fa + 4 * fm + fb) / 6.0

    def recurse(x0, f0, x2, f2, whole, fm, depth):
        x1 = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(f0, flm, fm, x1 - x0)
        right = simpson(fm, frm, f2, x2 - x1)
        if depth <= 0 or abs(left + right - whole) <= 15 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(x0, f0, x1, fm, left, flm, depth - 1)
                + recurse(x1, fm, x2, f2, right, frm, depth - 1))

    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = simpson(fa, fm, fb, b - a)
    return recurse(a, fa, b, fb, whole, fm, max_depth)


def singular_integral_extrapolated(f, a, b, deltas=(1e-4, 1e-5, 1e-6, 1e-7, 1e-8),
                                   tol=1e-12):
    """Integral with inverse-square-root endpoint singularities.

    Integrates on [a + delta, b - delta] and extrapolates to delta -> 0
    with Neville's scheme in the variable sqrt(delta) (the truncated
    tails expand in half-integer powers of delta).
    """
    xs = [math.sqrt(d) for d in deltas]
    vals = [adaptive_simpson(f, a + d, b - d, tol=tol) for d in deltas]
    # Neville tableau evaluated at x = 0
    for level in range(1, len(xs)):
        for i in range(len(xs) - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x0 * vals[i + 1] - x1 * vals[i]) / (x0 - x1)
    return vals[0]


def roots_closed_form_n2(H, C):
    """The two positive roots of q for n = 2, from the quartic formula."""
    disc = math.sqrt(4 + C * C - 4 * C * H)
    den = 2 * H * H - 2
    t1 = math.sqrt((C - 2 * H - disc) / den)
    t2 = math.sqrt((C - 2 * H + disc) / den)
    return t1, t2


def _smooth_factor_n2(H, C, t1, t2):
    """S(v) with q(v) = (v - t1)(t2 - v) S(v) for n = 2."""

    def S(v):
        return (H * H - 1) * (v + t1) * (v + t2) / (v * v)

    return S


def gauss_chebyshev_period_n2(H, C, nodes=4000):
    """Period oracle: Gauss-Chebyshev after explicit deflation (n = 2)."""
    t1, t2 = roots_closed_form_n2(H, C)
    S = _smooth_factor_n2(H, C, t1, t2)
    mid, half = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
    j = np.arange(1, nodes + 1)
    x = mid + half * np.cos((2 * j - 1) * np.pi / (2 * nodes))
    return 2 * (np.pi / nodes) * np.sum(1.0 / np.sqrt(S(x)))


def gauss_chebyshev_flux_n2(H, C, nodes=4000):
    """Flux oracle for n = 2; accurate when C is not too close to 1/H."""
    t1, t2 = roots_closed_form_n2(H, C)
    S = _smooth_factor_n2(H, C, t1, t2)
    mid, half = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
    j = np.arange(1, nodes + 1)
    x = mid + half * np.cos((2 * j - 1) * np.pi / (2 * nodes))
    F = (2 * math.sqrt(-C) * (1 + H * x * x)
         / (x * (C + x * x) * np.sqrt(S(x))))
    return (np.pi / nodes) * np.sum(F)


def closed_form_g_n2(H, C, t):
    """The n = 2 profile in closed form, phased so the minimum is at t = 0."""
    T = math.pi / math.sqrt(H * H - 1)
    A = C - 2 * H
    B = math.sqrt(4 + C * C - 4 * C * H)
    den = 2 * H * H - 2
    return math.sqrt((A + B * math.sin(2 * math.sqrt(H * H - 1) * (t - T / 4)))
                     / den)


def xi2_direct(H, tol=1e-13):
    """The n = 2 threshold flux by the direct trigonometric formula."""
    return adaptive_simpson(
        lambda t: math.sqrt(2) * H / math.sqrt(2 * H * H + math.sin(2 * t) - 1),
        0.0, math.pi, tol=tol,
    )


def geometric_flux(n, H, C):
    """Angle swept about the axis over one radial period of the profile.

    Integrates the profile's curvature equation in the orbit plane H^2,
    in geodesic polar coordinates (s, theta) about the axis H^(n-1), for
    a unit-speed curve at angle psi to d/ds:

        s' = cos psi,   theta' = sin psi / sinh s,
        psi' = n H - sin psi (coth s + (n-1) tanh s),

    i.e. n H is the curve's geodesic curvature plus n-1 times tanh(s)
    sin(psi), the principal curvature of the equidistant fibre.  Its first
    integral sinh s cosh^(n-1) s sin psi - H cosh^n s = E fixes the
    package's constant as C = -E^(-2/n).  Runs from the s-minimum to the
    next one; shares nothing with the package's potential or quadrature.
    """
    E = (-C) ** (-n / 2)

    def room(s):  # >= 0 exactly on the band of s the profile sweeps
        ch = math.cosh(s)
        return math.sinh(s) * ch ** (n - 1) - abs(E + H * ch ** n)

    grid = np.linspace(0.0, 8.0, 8001)
    inside = grid[int(np.argmax([room(s) for s in grid]))]
    s_min = brentq(room, 0.0, inside, xtol=1e-300)
    psi0 = math.copysign(math.pi / 2, E + H * math.cosh(s_min) ** n)

    def rhs(_, y):
        s, psi = y[0], y[2]
        return [math.cos(psi), math.sin(psi) / math.sinh(s),
                n * H - math.sin(psi) * (1 / math.tanh(s)
                                         + (n - 1) * math.tanh(s))]

    def back_at_minimum(_, y):  # s' turns from negative to positive
        return math.cos(y[2])

    back_at_minimum.terminal = True
    back_at_minimum.direction = 1
    sol = solve_ivp(rhs, (0.0, 100.0), [s_min, 0.0, psi0], method="DOP853",
                    rtol=1e-12, atol=1e-14, events=back_at_minimum)
    return float(sol.y_events[0][0][1])



def polyval_oscillation_roots(n, H, C):
    """The roots t1 < t2 of q found on p(v) = v^(2n-2) q(v) with np.polyval.

    The reference for the package's root finder: the same brackets,
    brentq settings and two Newton steps, with p evaluated by np.polyval
    on NumPy scalars, so the two must agree bit for bit.
    """
    s = math.sqrt(n * n * H * H - 4 * n + 4)
    v0 = ((H * (n - 2) + s) / (2 * H * H - 2)) ** (1.0 / n)
    coeffs = np.zeros(2 * n + 1)
    coeffs[0] = 1 - H * H
    coeffs[2] += C
    coeffs[n] += -2 * H
    coeffs[2 * n] += -1.0

    def p(v):
        return np.polyval(coeffs, v)

    t1 = brentq(p, 1e-9 * v0, v0, xtol=1e-15, rtol=8.9e-16)
    hi = 2 * v0
    while p(hi) >= 0:
        hi *= 2
    t2 = brentq(p, v0, hi, xtol=1e-15, rtol=8.9e-16)
    return _two_newton_steps(coeffs, t1), _two_newton_steps(coeffs, t2)


def polyval_Q_upper_root(n, H):
    """The root above 1 of v^(2n-2) Q(v), found as above with np.polyval."""
    H2 = H * H
    coeffs = np.zeros(2 * n + 1)
    coeffs[0] = 1 - H2
    coeffs[2] += -1.0
    coeffs[n] += 2 * H2
    coeffs[2 * n] += -H2

    def p(v):
        return np.polyval(coeffs, v)

    delta = 1e-9
    while p(1.0 + delta) >= 0:
        delta *= 2
    lo = 1.0 + delta / 2 if p(1.0 + delta / 2) > 0 else 1.0 + 1e-9
    t2 = brentq(p, lo, 1.0 + delta, xtol=1e-15, rtol=8.9e-16)
    return _two_newton_steps(coeffs, t2)


def _two_newton_steps(coeffs, root):
    dcoeffs = np.polyder(coeffs)
    for _ in range(2):
        root -= np.polyval(coeffs, root) / np.polyval(dcoeffs, root)
    return float(root)


def unmemoised_refine_first_crossing(n, H, grid, vals, target, tol, quad_tol, ct,
                                     xi_res=None):
    """The shooting refine step with a fresh flux evaluation everywhere.

    Brent evaluates the flux at both scan points of a bracket again, and
    the verify residual is one more evaluation at the returned point.
    Every bracket with a sign change is refined, the jump at Ctilde too
    (``xi_res`` is not used).  The refine step that reuses those values
    and skips the jump must give the same outcome.
    """
    from hypcmc import shooting

    def f(c):
        return shooting._flux_at(n, H, c, quad_tol) - target

    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            cand, iters = float(grid[i]), 0
        elif vals[i] * vals[i + 1] < 0:
            cand, res = brentq(f, grid[i], grid[i + 1], xtol=tol,
                               rtol=8.9e-16, full_output=True)
            iters = res.iterations
        else:
            continue
        residual = f(cand)
        if abs(residual) <= max(shooting.RESIDUAL_TOL, 10 * tol):
            return shooting.SolveOutcome(
                parameter_value=float(cand), residual=float(residual),
                classification=shooting._classification(n, H, cand, ct,
                                                         target),
                bracket_used=(float(grid[i]), float(grid[i + 1])),
                iterations=int(iters))
    return None

