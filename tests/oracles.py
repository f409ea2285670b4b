"""Independent numerical oracles used only by the test suite.

These deliberately share no code with the package's quadrature: the
potential q and the n = 2 limit of the flux at C0 from their formulas, an
adaptive Simpson rule with endpoint-offset extrapolation, a deflated
Gauss-Chebyshev rule for n = 2 (where the quartic roots are in closed
form), the n = 2 closed-form profile g(t), the n = 2 threshold flux
xi_2 by the arithmetic-geometric mean, the n = 2 flux in closed form by
Carlson's symmetric integrals, the flux from the profile's
curvature equation in the orbit plane, the immersion, Gauss map and
finite-difference curvature written one point at a time with math, the
flux's angle rate with one Python power per entry, the phase rule with
one integrand call per level, and the planar self-intersection sweep as
a loop over segment pairs.
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


def q(n, H, C, v):
    """q(v) = C - v^(2-2n) + (1-H^2) v^2 - 2 H v^(2-n), on floats or arrays."""
    return C - v ** (2 - 2 * n) + (1 - H * H) * v * v - 2 * H * v ** (2 - n)


def b2(H):
    """The n = 2 limit of the flux as C -> C0: -pi sqrt(2 - 2H/sqrt(H^2-1))."""
    return -math.pi * math.sqrt(2.0 - 2.0 * H / math.sqrt(H * H - 1))


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


def agm_xi2(H):
    """xi_2(H) = -2 ellipk(m) = -pi / AGM(1, sqrt(1 - m)), m = 1/H^2, and
    its excess xi_2 + pi, in floats.

    The AGM iteration a' = (a + b)/2, b' = sqrt(a b) from (1, sqrt(1 - m))
    carries the differences d_j = a_j - b_j, d_0 = m / (1 + sqrt(1 - m))
    and d_{j+1} = d_j^2 / (2 (sqrt(a_j) + sqrt(b_j))^2), so no close
    numbers are subtracted: AGM = 1 - (1/2) sum d_j and
    xi_2 + pi = -pi ((1/2) sum d_j) / AGM keep their relative precision
    as m -> 0 (Abramowitz & Stegun 17.6).  sqrt(1 - m) is formed as
    sqrt((H - 1)(H + 1)) / |H|, which keeps its digits as H -> -1.
    """
    m = 1.0 / (H * H)
    a, b = 1.0, math.sqrt((H - 1) * (H + 1)) / -H  # sqrt(1 - m)
    d = m / (1.0 + b)
    half_sum = 0.0
    while half_sum + d / 2 != half_sum:
        half_sum += d / 2
        d = d * d / (2 * (math.sqrt(a) + math.sqrt(b)) ** 2)
        a, b = (a + b) / 2, math.sqrt(a * b)
    agm = 1.0 - half_sum
    return -math.pi / agm, -math.pi * half_sum / agm


# Carlson's duplication algorithm stops once 4^-m Q < |A_m|, with Q the
# spread of the arguments scaled by r^(-1/6) for relative error r
_CARLSON_R = 2.0 ** -53


def carlson_rf(x, y, z):
    """Carlson's R_F(x, y, z) by duplication (Carlson, Numer. Algorithms
    10, 1995, section 2; DLMF 19.36.1), in floats, for x, y, z >= 0 with
    at most one zero."""
    A = A0 = (x + y + z) / 3
    x0, y0 = x, y
    Q = (3 * _CARLSON_R) ** (-1 / 6) * max(abs(A - x), abs(A - y),
                                           abs(A - z))
    scale = 1.0  # 4^-m
    while scale * Q >= abs(A):
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        x, y, z, A = (x + lam) / 4, (y + lam) / 4, (z + lam) / 4, (A + lam) / 4
        scale /= 4
    X, Y = scale * (A0 - x0) / A, scale * (A0 - y0) / A
    Z = -X - Y
    E2, E3 = X * Y - Z * Z, X * Y * Z
    return (1 - E2 / 10 + E3 / 14 + E2 * E2 / 24 - 3 * E2 * E3 / 44) / math.sqrt(A)


def _carlson_rc1(t):
    """R_C(1, 1 + t) for t >= 0: atan(sqrt t) / sqrt t."""
    s = math.sqrt(t)
    return math.atan(s) / s if s else 1.0


def carlson_rj(x, y, z, p):
    """Carlson's R_J(x, y, z, p) by duplication (Carlson 1995, section 2;
    DLMF 19.36.1), in floats, for x, y, z >= 0 with at most one zero and
    p > 0 below y and z, so that (p - x)(p - y)(p - z) >= 0 and every
    R_C term takes the atan form."""
    A = A0 = (x + y + z + 2 * p) / 5
    x0, y0, z0 = x, y, z
    delta = (p - x) * (p - y) * (p - z)
    Q = (_CARLSON_R / 4) ** (-1 / 6) * max(abs(A - x), abs(A - y),
                                           abs(A - z), abs(A - p))
    scale, total = 1.0, 0.0
    while scale * Q >= abs(A):
        sx, sy, sz, sp = math.sqrt(x), math.sqrt(y), math.sqrt(z), math.sqrt(p)
        lam = sx * sy + sx * sz + sy * sz
        d = (sp + sx) * (sp + sy) * (sp + sz)
        total += scale / d * _carlson_rc1(scale ** 3 * delta / (d * d))
        x, y, z, p, A = ((u + lam) / 4 for u in (x, y, z, p, A))
        scale /= 4
    X, Y, Z = (scale * (A0 - u) / A for u in (x0, y0, z0))
    P = -(X + Y + Z) / 2
    E2 = X * Y + X * Z + Y * Z - 3 * P * P
    E3 = X * Y * Z + 2 * E2 * P + 4 * P ** 3
    E4 = (2 * X * Y * Z + E2 * P + 3 * P ** 3) * P
    E5 = X * Y * Z * P * P
    series = (1 - 3 * E2 / 14 + E3 / 6 + 9 * E2 * E2 / 88 - 3 * E4 / 22
              - 9 * E2 * E3 / 52 + 3 * E5 / 26)
    return scale * series / (A * math.sqrt(A)) + 6 * total


def _two_product(a, b):
    """(p, e) with p = fl(a b) and a b = p + e exactly (Dekker)."""
    split = 134217729.0  # 2^27 + 1
    ah, bh = split * a, split * b
    ah, bh = ah - (ah - a), bh - (bh - b)
    al, bl = a - ah, b - bh
    p = a * b
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def carlson_flux2(H, C):
    """The n = 2 flux K(C, H) in closed form, in floats.

    At n = 2, v^2 q(v) = -(H^2 - 1)(w - w1)(w - w2) in w = v^2, and
    w = w1 cos^2 phi + w2 sin^2 phi with (1 + H w)/(w + C) =
    H + (1 - H C)/(w + C) turn the flux integral into
        K = 2 sqrt(-C) / sqrt(H^2 - 1)
            * [H R_F(0, w1, w2) + (1 - H C) Pi(nu, k) / ((w2 + C) sqrt(w2))]
    with k^2 = (w2 - w1)/w2, nu = (w2 - w1)/(w2 + C) and
    Pi(nu, k) = R_F(0, 1 - k^2, 1) + (nu/3) R_J(0, 1 - k^2, 1, 1 - nu).

    No close numbers are subtracted.  1 - H C is formed in double-word
    arithmetic (Dekker's product, and 1 - fl(H C) is exact wherever it
    is small), and so is the discriminant C^2 + 4 (1 - H C), which
    vanishes at C0; it sets the gap w2 - w1 = sqrt(disc)/(H^2 - 1).
    Since v^2 q(v) = -(1 - H C)^2 at w = -C, the shifted roots u = w + C
    have the product (1 - H C)^2/(H^2 - 1), so they follow from the gap
    and that product as sums of positive terms; w2 = u2 - C and
    w1 = 1/((H^2 - 1) w2).  So u1 = w1 + C keeps its digits next to
    Ctilde = 1/H, where it vanishes with 1 - H C, and u2 = w2 + C next
    to a small C.
    """
    A = (H - 1) * (H + 1)
    hc, hc_lo = _two_product(H, C)
    one_minus_hc = (1 - hc) - hc_lo
    cc, cc_lo = _two_product(C, C)
    disc = (cc + 4 * (1 - hc)) + (cc_lo - 4 * hc_lo)
    gap = math.sqrt(disc) / A  # w2 - w1 = u2 - u1
    product = one_minus_hc * one_minus_hc / A  # u1 u2
    u2 = (gap + math.sqrt(gap * gap + 4 * product)) / 2
    u1 = product / u2
    w2 = u2 - C
    w1 = 1 / (A * w2)
    y = w1 / w2  # 1 - k^2
    # nu = gap / u2 and 1 - nu = u1 / u2
    pi_nu = carlson_rf(0.0, y, 1.0) + gap / u2 / 3 * carlson_rj(
        0.0, y, 1.0, u1 / u2)
    return (2 * math.sqrt(-C) / math.sqrt(A)
            * (H * carlson_rf(0.0, w1, w2)
               + one_minus_hc * pi_nu / (u2 * math.sqrt(w2))))


FLUX2_H = (-1.0001, -1.01, -1.1, -1.5, -3.0, -10.0, -30.0, -100.0)


def flux2_grid(H):
    """C on both n = 2 branches at H: above C0 by 1e-9 and 1e-7 of |C0|,
    fractions of the lower branch, both sides of Ctilde = 1/H at relative
    distances 1e-8 to 1e-2, and fractions of the upper branch (Ctilde, 0);
    C0 = 2 (H + sqrt(H^2 - 1)) written as 2/(H - sqrt(H^2 - 1))."""
    c0, ct = 2 / (H - math.sqrt((H - 1) * (H + 1))), 1 / H
    Cs = [c0 * (1 - gap) for gap in (1e-9, 1e-7)]
    Cs += [c0 + f * (ct - c0) for f in (1e-3, 0.1, 0.5, 0.9, 0.999)]
    Cs += [ct * (1 + side * e) for e in (1e-8, 1e-5, 1e-2) for side in (1, -1)]
    Cs += [ct * (1 - f) for f in (0.1, 0.5, 0.9, 0.999)]
    return [C for C in Cs if c0 < C < 0]


def loop_angle_rate(n, H, C, t1, t2, rem):
    """quadrature._angle_rate's fields (t1, a, d, pole, rem, quotient, vc,
    root_vc, U_vc, N_vc, powers) with each power taken by one Python **
    per entry and p evaluated in np.polyval's sequence from y = 0: the
    per-C arithmetic the array form must reproduce bit for bit."""

    def power(x, y):
        return np.array([v ** y for v in x.tolist()])

    def polyval(coeffs, v):
        y = 0.0
        for c in coeffs:
            y = y * v + c
        return y

    vc = np.sqrt(-C)
    delta = H + power(-C, -n / 2)
    P_vc = -polyval(rem, vc)
    d = (-C) * delta * delta / ((t2 - vc) * (P_vc * power(vc, 2 - 2 * n)))
    a = (t2 - t1) / 2
    with np.errstate(invalid="ignore"):
        root_vc = np.sqrt(P_vc)
        F_vc = power(-C, n / 2) * delta / (2 * root_vc)
        pole = 2 * F_vc / np.sqrt(d * (d + 2 * a))
    U_vc = 2 * vc * root_vc
    quotient, acc = [], rem[0]
    for c in rem[1:]:
        quotient.append(acc)
        acc = c + vc * acc
    return (t1, a, d, pole, rem, np.array(quotient), vc, root_vc, U_vc,
            F_vc * U_vc, np.array([power(vc, k) for k in range(n)]))


def two_call_phase_mean(integrand, columns, tol, max_nodes):
    """quadrature._phase_mean as the rule with one integrand call per
    level, on all rows at once, the live rows' columns gathered at every
    call: the 9 nodes of N = 8, then the midpoints of each doubling up to
    max_nodes.  The one-call-per-N = 16 form must give its four columns
    bit for bit and raise its EvaluationError at the same phi."""
    from hypcmc.errors import EvaluationError

    rows = np.shape(columns[0])[-1]
    value, error = np.empty(rows), np.empty(rows)
    evaluations = np.empty(rows, dtype=np.int64)
    live = np.arange(rows)

    def evaluate(phi):
        cols = tuple(c[..., live[:, None]] for c in columns)
        vals = np.broadcast_to(integrand(cols, phi), (len(live), len(phi)))
        if not np.isfinite(vals).all():
            where = float(phi[~np.isfinite(vals).all(axis=0)][0])
            raise EvaluationError(
                f"integrand returned a non-finite value at phi={where!r}",
                abscissa=where)
        return vals

    N = 8
    ends = np.ones(N + 1)
    ends[0] = ends[N] = 0.5
    total = np.sum(evaluate(np.arange(N + 1) * (math.pi / N)) * ends, axis=1)
    mean = total / N
    while len(live) and N < max_nodes:
        total = total + np.sum(
            evaluate((2 * np.arange(N) + 1) * (math.pi / (2 * N))), axis=1)
        N *= 2
        move = np.abs(total / N - mean)
        mean = total / N
        value[live], error[live], evaluations[live] = mean, move, N + 1
        live, total, mean = (x[move > tol] for x in (live, total, mean))
    return value, error, evaluations, error <= tol


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



def unmemoised_scan_solve(lo, hi, max_points, target, scan, f, tol, restol,
                          message, jump_only=None):
    """shooting._scan_solve with a fresh evaluation everywhere, on the
    doubling grids of SCAN_POINTS, 2 * SCAN_POINTS, ... up to max_points.

    Brent evaluates f at both scan points of a bracket again, and the
    verify residual is one more evaluation at the returned point.  Every
    bracket with a sign change is refined, the jump at Ctilde too
    (``jump_only`` is not used).  The routine that reuses those values and
    skips the jump must give the same outcome.  So must its grid policy,
    which scans only the first and the final of these grids, wherever no
    grid between them holds the first root: a first-grid hit and a
    NoRootReport, which reads the final grid alone.
    """
    from hypcmc import shooting

    points = shooting.SCAN_POINTS
    while True:
        grid = -np.geomspace(-lo, -hi, points)
        vals = scan(grid)
        for i in range(points - 1):
            a, b = float(grid[i]), float(grid[i + 1])
            if vals[i] == 0.0:
                root, brent = a, None
            elif vals[i] * vals[i + 1] < 0:
                brent = shooting.brentq(f, a, b, tol, 8.9e-16)
                root = brent.root
            else:
                continue
            residual = f(root)
            if abs(residual) <= restol:
                return root, residual, (a, b), brent
        if points >= max_points:
            return shooting.NoRootReport(
                search_interval=(lo, hi), points_scanned=points,
                value_min=float(vals.min() + target),
                value_max=float(vals.max() + target), target=target,
                message=message)
        points *= 2


def scalar_minkowski(v, w):
    """<v, w> of two vectors with np.dot, one pair at a time."""
    return float(np.dot(v[:-1], w[:-1]) - v[-1] * w[-1])


def scalar_immerse(r, theta, y):
    """phi(r, theta, y) at one point, in float arithmetic with math."""
    rad = math.sqrt(r * r - 1.0)
    return np.concatenate(([rad * math.cos(theta), rad * math.sin(theta)],
                           r * np.asarray(y, dtype=float)))


def scalar_gauss(r, rp, lam, theta, y):
    """The unit normal nu at one state and fiber point, with math."""
    rad = math.sqrt(r * r - 1.0)
    nu = np.concatenate(([0.0, 0.0], -r * lam * np.asarray(y, dtype=float)))
    nu[0] += -(r * r * lam / rad) * math.cos(theta) - (rp / rad) * math.sin(theta)
    nu[1] += -(r * r * lam / rad) * math.sin(theta) + (rp / rad) * math.cos(theta)
    return nu / math.sqrt(scalar_minkowski(nu, nu))


def scalar_verify_cmc(params, curve, t, fd_step=1e-5, fiber_direction=0):
    """verify_cmc at one time, point by point: the states of its five
    times from one ``curve.states`` call, then one immersion and one
    Gauss map per point and one curvature per step.  Returns None near
    the axis, else (lambda_est, mu_est, H_est)."""
    n = params.n
    sq = math.sqrt(-params.C)
    half = fd_step / 2
    base, *shifted = curve.states([t, t + half, t - half,
                                   t + fd_step, t - fd_step])
    if base.r - 1.0 < 1e-8:
        return None

    def phi_nu(s, y):
        return (scalar_immerse(s.r, s.theta, y),
                scalar_gauss(s.r, s.g_prime / sq, s.lam, s.theta, y))

    def curvature(plus, minus, h):
        (phi_p, nu_p), (phi_m, nu_m) = phi_nu(*plus), phi_nu(*minus)
        dphi = (phi_p - phi_m) / (2 * h)
        dnu = (nu_p - nu_m) / (2 * h)
        return -scalar_minkowski(dnu, dphi) / scalar_minkowski(dphi, dphi)

    axis = [0.0] * (n - 1) + [1.0]

    def fiber(s):
        y = [0.0] * n
        y[fiber_direction] = math.sinh(s)
        y[-1] = math.cosh(s)
        return y

    mu = [curvature((p, axis), (m, axis), h)
          for p, m, h in ((shifted[0], shifted[1], half),
                          (shifted[2], shifted[3], fd_step))]
    lam = [curvature((base, fiber(h)), (base, fiber(-h)), h)
           for h in (half, fd_step)]
    mu_est = (4 * mu[0] - mu[1]) / 3
    lam_est = (4 * lam[0] - lam[1]) / 3
    return lam_est, mu_est, ((n - 1) * lam_est + mu_est) / n


def _loop_orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _loop_segments_cross(p, q, r, s, tol):
    """Proper crossing test of one pair of segments with an area
    tolerance: touches within tol of a shared point do not count."""
    d1 = _loop_orient(r[0], r[1], s[0], s[1], p[0], p[1])
    d2 = _loop_orient(r[0], r[1], s[0], s[1], q[0], q[1])
    d3 = _loop_orient(p[0], p[1], q[0], q[1], r[0], r[1])
    d4 = _loop_orient(p[0], p[1], q[0], q[1], s[0], s[1])
    if ((d1 > tol and d2 < -tol) or (d1 < -tol and d2 > tol)) and \
       ((d3 > tol and d4 < -tol) or (d3 < -tol and d4 > tol)):
        return True
    # collinear overlap: all orientations vanish and projections overlap
    if max(abs(d1), abs(d2), abs(d3), abs(d4)) <= tol:
        lo1, hi1 = sorted((p[0], q[0]))
        lo2, hi2 = sorted((r[0], s[0]))
        if hi1 - lo2 > tol and hi2 - lo1 > tol:
            return True
        lo1, hi1 = sorted((p[1], q[1]))
        lo2, hi2 = sorted((r[1], s[1]))
        if hi1 - lo2 > tol and hi2 - lo1 > tol:
            return True
    return False


def loop_has_self_intersection(points, closed=True, tol=1e-9):
    """planar.has_self_intersection as a loop over the sorted segments:
    each one against the following ones until one starts more than tol
    beyond its maximum x, skipping consecutive segments and, when closed,
    the wrap-around pair."""
    pts = np.asarray(points, dtype=float)
    if closed and np.hypot(*(pts[0] - pts[-1])) <= tol:
        pts = pts[:-1]
    nseg = len(pts) if closed else len(pts) - 1
    a = pts
    b = np.roll(pts, -1, axis=0) if closed else pts[1:]
    segs = [(min(a[i][0], b[i][0]), max(a[i][0], b[i][0]), i)
            for i in range(nseg)]
    segs.sort()

    def adjacent(i, j):
        if abs(i - j) == 1:
            return True
        return closed and {i, j} == {0, nseg - 1}

    for si in range(nseg):
        xmin_i, xmax_i, i = segs[si]
        for sj in range(si + 1, nseg):
            xmin_j, _, j = segs[sj]
            if xmin_j > xmax_i + tol:
                break
            if adjacent(i, j):
                continue
            if _loop_segments_cross(a[i], b[i], a[j], b[j], tol):
                return True
    return False
