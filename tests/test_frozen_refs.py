"""The frozen reference values against the benchmark's mpmath references.

``perfbench/mpref.py`` integrates in the angle variable at 50 digits and
never imports hypcmc, and the roots of p come from ``mpmath.polyroots``,
so agreement here shows the values the suite checks against did not
come from the package itself.
"""

import importlib.util
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

import frozen  # noqa: E402
from oracles import FLUX2_H, agm_xi2, carlson_flux2, flux2_grid  # noqa: E402

MPREF = Path(__file__).resolve().parents[1] / "perfbench" / "mpref.py"


def _mpref():
    spec = importlib.util.spec_from_file_location("mpref", MPREF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_values_match_mpmath_references():
    mpref = _mpref()
    # the exact float inputs, the question the package answers
    for (n, H), stored in {**frozen.XI, **frozen.XI_LARGE_H}.items():
        assert float(mpref.xi(n, H)) == pytest.approx(stored, rel=1e-15)
    K = mpref.flux_K(2, -1.1, -0.9091743461769703)
    assert float(K) == pytest.approx(frozen.K_NEAR_AXIS_N2, rel=1e-15)


@pytest.mark.parametrize("table", ["K_GRID", "K_GUARD_EDGE"])
def test_flux_values_match_mpmath(table):
    # one mpref.flux_K per entry: about 9 s for K_GRID, 3 s for the edge
    mpref = _mpref()
    for (n, H, C), stored in getattr(frozen, table).items():
        K = mpref.flux_K(n, H, C)
        assert float(K) == pytest.approx(stored, rel=1e-15), (n, H, C)


def test_periods_match_mpmath():
    # one mpref.period_T per entry, about 1 s for the table
    mpref = _mpref()
    for (n, H, C), stored in frozen.T_GRID.items():
        T = mpref.period_T(n, H, C)
        assert float(T) == pytest.approx(stored, rel=1e-15), (n, H, C)


def _half_way(mpref, n, H, C):
    """(g_mid, t_mid, theta_mid) at 50 digits, from mpref's roots.

    In mpref's angle variable v = m - a cos(phi), g = (t1 + t2) / 2 is
    phi = pi / 2; the near-pole break points of mpref's flux are kept.
    """
    with mp.workdps(mpref.DPS):
        n, H, C = int(n), mp.mpf(H), mp.mpf(C)
        t1, t2 = mpref._roots_C(n, H, C)
        _, a, v_of, s_of = mpref._setup(mpref._poly_p(n, H, C), t1, t2, n)
        vc = mp.sqrt(-C)
        pts = [p for p in mpref._split(mp.acosh(1 + (t1 - vc) / a))
               if p < mp.pi / 2] + [mp.pi / 2]

        def rate(p):
            v = v_of(p)
            return (vc * (1 + H * v ** n) * v ** (1 - n)
                    / ((C + v * v) * mp.sqrt(s_of(v))))

        t_mid = mp.quad(lambda p: 1 / mp.sqrt(s_of(v_of(p))), pts)
        return (t1 + t2) / 2, t_mid, mp.quad(rate, pts)


def test_half_way_values_match_mpmath():
    mpref = _mpref()
    for (n, H, C), stored in frozen.HALF_WAY.items():
        got = _half_way(mpref, n, H, C)
        for value, want in zip(got, stored):
            assert float(value) == pytest.approx(want, rel=1e-15)


def test_roots_match_mpmath_polyroots():
    # the two positive roots of p at the exact float inputs, by polyroots
    # at 60 digits, about 10 s for the table; each stored 50-digit string
    # is within 1e-48 relative of them
    mpref = _mpref()
    with mp.workdps(60):
        for (n, H, C), stored in frozen.ROOTS.items():
            coeffs = mpref._poly_p(n, mp.mpf(H), mp.mpf(C))
            roots = mp.polyroots(coeffs, maxsteps=100, extraprec=60)
            real = sorted(mp.re(r) for r in roots
                          if abs(mp.im(r)) < mp.mpf(10) ** -30 and mp.re(r) > 0)
            assert len(real) == 2, (n, H, C)
            for got, want in zip(real, stored):
                assert abs(got - mp.mpf(want)) <= mp.mpf(10) ** -48 * got, (
                    n, H, C)


def test_agm_oracle_matches_mpmath_ellipk():
    # xi_2 = -2 ellipk(1/H^2) and its excess xi_2 + pi, at enough digits
    # for the excess (about 2 log10|H| more); measured worst 8.1e-16 and
    # 1.1e-15, both at -1.0001
    Hs = [-1.0001 * (1e6 / 1.0001) ** (k / 39) for k in range(40)]
    for H in Hs + [-1e10, -1e50, -1e150]:
        xi, excess = agm_xi2(H)
        with mp.workdps(40 + 2 * int(mp.log10(-H))):
            ref = -2 * mp.ellipk(1 / mp.mpf(H) ** 2)
            assert abs(xi - ref) <= 2e-15 * abs(ref), H
            assert abs(excess - (ref + mp.pi)) <= 4e-15 * abs(ref + mp.pi), H


def _mp_flux2(H, C):
    """carlson_flux2's closed form at 40 digits with mpmath's elliprf and
    elliprj, the roots w1 < w2 of the quadratic in w = v^2 taken as they
    stand."""
    with mp.workdps(40):
        H, C = mp.mpf(H), mp.mpf(C)
        A = H * H - 1
        w2 = (C - 2 * H + mp.sqrt(C * C - 4 * H * C + 4)) / (2 * A)
        w1 = 1 / (A * w2)
        nu = (w2 - w1) / (w2 + C)
        Pi = (mp.elliprf(0, w1 / w2, 1)
              + nu / 3 * mp.elliprj(0, w1 / w2, 1, 1 - nu))
        return 2 * mp.sqrt(-C) / mp.sqrt(A) * (
            H * mp.elliprf(0, w1, w2) + (1 - H * C) * Pi / ((w2 + C) * mp.sqrt(w2)))


def test_carlson_flux2_matches_mpmath():
    # the error is absolute on the scale of the two terms (about pi each),
    # which cancel where K is small on the upper branch: measured worst
    # 2.3e-15 max(|K|, 1) at (-100, Ctilde (1 - 1e-8)), K = -7.9e-5
    for H in FLUX2_H:
        for C in flux2_grid(H):
            K = _mp_flux2(H, C)
            assert abs(carlson_flux2(H, C) - K) <= 4e-15 * max(abs(K), 1), (
                H, C)
    # and the 50-digit frozen fluxes at n = 2 (measured worst 8.3e-16, at
    # C = Ctilde / 1000 where K = -0.042)
    for (n, H, C), stored in frozen.K_GRID.items():
        if n == 2:
            assert carlson_flux2(H, C) == pytest.approx(stored, rel=2e-15)


def test_h0_n2_is_the_root_of_ellipk():
    # at n = 2 the closure xi_2(H0) = -2 pi is ellipk(1/H0^2) = pi: H0 is
    # -1/sqrt(m*), and frozen.H0_N2 is its float
    with mp.workdps(40):
        m = mp.re(mp.findroot(lambda m: mp.ellipk(m) - mp.pi, 0.97))
        assert abs(m - mp.mpf("0.96910737326711927754")) < mp.mpf(10) ** -20
        assert float(-1 / mp.sqrt(m)) == frozen.H0_N2
