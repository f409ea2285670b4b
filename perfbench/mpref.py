"""Arbitrary-precision references for the benchmark, built on mpmath.

Every integral is taken in the angle variable v = m - a cos(phi), with
m and a the midpoint and half-width of the oscillation interval.  The
inverse-square-root endpoint singularities cancel against dv, so the
integrands are smooth on [0, pi]; the only difficulty left is the
near-pole of the flux integrand at v = sqrt(-C) when C is close to
Ctilde, which sits at phi = i*acosh(1 + d/a) and is handled by splitting
[0, pi] geometrically around that distance.  The potential is deflated
by its two roots at working precision, so no digits are lost at the
endpoints.  Nothing here calls the hypcmc package.
"""

from __future__ import annotations

import mpmath as mp

DPS = 50


def _poly_p(n, H, C):
    """Coefficients (highest first) of v^(2n-2) q(v)."""
    c = [mp.mpf(0)] * (2 * n + 1)
    c[0] = 1 - H * H
    c[2] += C
    c[n] += -2 * H
    c[2 * n] += -1
    return c


def _poly_Q(n, H):
    """Coefficients (highest first) of v^(2n-2) Q(v)."""
    c = [mp.mpf(0)] * (2 * n + 1)
    c[0] = 1 - H * H
    c[2] += -1
    c[n] += 2 * H * H
    c[2 * n] += -H * H
    return c


def _deflate(coeffs, root):
    out, acc = [], coeffs[0]
    for k in range(len(coeffs) - 1):
        out.append(acc)
        acc = coeffs[k + 1] + root * acc
    return out


def _strip(coeffs):
    # H = -1 cancels the leading coefficient 1 - H^2
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    return coeffs


def _positive_roots(coeffs):
    roots = mp.polyroots(coeffs, maxsteps=500, extraprec=4 * DPS)
    real = sorted(mp.re(r) for r in roots
                  if abs(mp.im(r)) < mp.mpf(10) ** (-DPS // 2) and mp.re(r) > 0)
    return real


def _setup(coeffs, lo, hi, n):
    rem = _deflate(_deflate(coeffs, lo), hi)
    m, a = (lo + hi) / 2, (hi - lo) / 2

    def v_of(phi):
        return m - a * mp.cos(phi)

    def s_of(v):
        # q(v) = (v - lo)(hi - v) s(v)
        return -mp.polyval(rem, v) * v ** (2 - 2 * n)

    return m, a, v_of, s_of


def _roots_C(n, H, C):
    roots = _positive_roots(_poly_p(n, H, C))
    if len(roots) != 2:
        raise ValueError(f"expected two positive roots, got {roots}")
    return roots


def period_T(n, H, C):
    with mp.workdps(DPS):
        n, H, C = int(n), mp.mpf(H), mp.mpf(C)
        t1, t2 = _roots_C(n, H, C)
        _, _, v_of, s_of = _setup(_poly_p(n, H, C), t1, t2, n)
        return 2 * mp.quad(lambda p: 1 / mp.sqrt(s_of(v_of(p))), [0, mp.pi])


def _split(delta):
    """Geometric break points in [0, pi] around a near-pole distance."""
    pts = [mp.mpf(0)]
    x = delta / 16
    while x < mp.pi / 2:
        pts.append(x)
        x *= 2
    pts.append(mp.pi)
    return pts


def flux_K(n, H, C):
    with mp.workdps(DPS):
        n, H, C = int(n), mp.mpf(H), mp.mpf(C)
        t1, t2 = _roots_C(n, H, C)
        _, a, v_of, s_of = _setup(_poly_p(n, H, C), t1, t2, n)
        vc = mp.sqrt(-C)
        d = t1 - vc

        def f(p):
            v = v_of(p)
            return (2 * vc * (1 + H * v ** n) * v ** (1 - n)
                    / ((C + v * v) * mp.sqrt(s_of(v))))

        return mp.quad(f, _split(mp.acosh(1 + d / a)))


def xi(n, H):
    with mp.workdps(DPS):
        n, H = int(n), mp.mpf(H)
        coeffs = _strip(_poly_Q(n, H))
        t2 = max(_positive_roots(coeffs))
        _, _, v_of, s_of = _setup(coeffs, mp.mpf(1), t2, n)

        def f(p):
            v = v_of(p)
            geom = mp.fsum(v ** k for k in range(n))
            h = 2 * H * v ** (1 - n) * geom / (1 + v)
            return h / mp.sqrt(s_of(v))

        return mp.quad(f, [0, mp.pi])


def _bracket(guess, rel=1e-8):
    g = mp.mpf(guess)
    return (g * (1 - rel), g * (1 + rel))


def H0(n, guess):
    """Root of xi_n(H) = -2*pi near a starting guess."""
    with mp.workdps(DPS):
        return mp.findroot(lambda h: xi(n, h) + 2 * mp.pi,
                           _bracket(guess), solver="anderson",
                           tol=mp.mpf(10) ** (-2 * DPS // 3))


def C_star(n, H, target, guess):
    """Root of K(C, H) = target near a starting guess, and dK/dC there."""
    with mp.workdps(DPS):
        root = mp.findroot(lambda c: flux_K(n, H, c) - target,
                           _bracket(guess), solver="anderson",
                           tol=mp.mpf(10) ** (-2 * DPS // 3))
        h = abs(root) * mp.mpf(10) ** (-DPS // 3)
        slope = (flux_K(n, H, root + h) - flux_K(n, H, root - h)) / (2 * h)
        return root, slope
