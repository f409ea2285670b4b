"""Acceptance suite: one test per stated criterion, each printing a
single PASS/FAIL line at the stated tolerance.

Where the targets come from.  Expected values are closed forms, in-repo
oracles (``oracles.py``), stated literals, or 50-digit values in
``frozen.py`` that ``test_frozen_refs.py`` recomputes with mpmath.  The
stated literals of criteria 1 and 3 (H0, and C* for m = 5, 10) agree
with frozen.H0_N2 and frozen.CSTAR_N2_M5/M10 to 1e-13.

* Criterion 2 reads frozen.XI.  The stated xi_n(-1) table is kept as a
  documented value only: its xi_3, xi_4 and xi_5 entries are off by
  5.4e-9, 6.1e-9 and 1.46e-7, the last beyond the 1e-8 tolerance.
* Criteria 3 (m = 1) and 8b fail, and are left failing: they state an
  embedded profile (K = -2*pi, closed and simple) at n = 2, H = -1.1,
  C = -0.9091743461769703, as the paper's abstract implies there
  (xi_2(-1.1) = -4.644 > -2*pi).  The flux at that constant is -7.78553
  (frozen.K_NEAR_AXIS_N2), and the curvature ODE integrated in the orbit
  plane (``oracles.geometric_flux``) agrees with flux_K on both sides of
  Ctilde.  On (C0, Ctilde) the flux runs from -8.19 up to
  xi_2(-1.1) - pi = -7.78544, below -2*pi.  Which of the two is wrong
  cannot be settled without the paper's derivation of the flux limit at
  the axis.
"""

import math
import time

import numpy as np
import pytest

import hypcmc as h

import frozen
from oracles import closed_form_g_n2


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


# 1 ----------------------------------------------------------------------


def test_criterion_1_h0_reproduction():
    start = time.perf_counter()
    out = h.find_H0(2)
    elapsed = time.perf_counter() - start
    err = abs(out.parameter_value - (-1.0158136657178574))
    ok = err <= 1e-9 and elapsed < 5.0
    _report("criterion 1 (H0, n=2)", ok,
            f"H0={out.parameter_value!r} err={err:.3e} time={elapsed:.2f}s")
    assert err <= 1e-9
    assert elapsed < 5.0


# 2 ----------------------------------------------------------------------

# The stated table of xi_n(-1), documented and not asserted on: it is off
# the 50-digit values in frozen.XI by 5.4e-9 (xi_3), 6.1e-9 (xi_4) and
# 1.46e-7 (xi_5).
XI_TABLE = {
    3: -5.97106763713693,
    4: -4.599155062889069,
    5: -4.13016242612799,
}


@pytest.mark.parametrize("n", sorted(XI_TABLE), ids=["xi3", "xi4", "xi5"])
def test_criterion_2_xi_table(n):
    target = frozen.XI[(n, -1.0)]
    start = time.perf_counter()
    res = h.xi(n, -1.0, tol=1e-12)
    elapsed = time.perf_counter() - start
    err = abs(res.value - target)
    ok = err <= 1e-8 and elapsed < 1.0
    _report(f"criterion 2 (xi_{n}(-1))", ok,
            f"value={res.value!r} target={target!r} err={err:.3e} "
            f"time={elapsed:.2f}s")
    assert err <= 1e-8
    assert elapsed < 1.0


# 3 ----------------------------------------------------------------------

FIGURE_CONSTANTS = [
    (1, 1, -0.9091743461769703, "Embedded"),
    (1, 5, -0.6835660909345689, "ImmersedClosed"),
    (1, 10, -0.19607165524075582, "ImmersedClosed"),
]


@pytest.mark.parametrize("k,m,target_C,classification", FIGURE_CONSTANTS,
                         ids=["m1-embedded", "m5", "m10"])
def test_criterion_3_figure_constants(k, m, target_C, classification):
    mode = "embedded" if classification == "Embedded" else "any"
    out = h.solve_C(2, -1.1, h.WindingTarget(k, m), mode=mode)
    if isinstance(out, h.NoRootReport):
        _report(f"criterion 3 (C*, k={k}, m={m})", False,
                f"no root: K in [{out.value_min!r}, {out.value_max!r}], "
                f"target {out.target!r}")
        pytest.fail(
            f"solve_C found no K = -2*pi*{k}/{m} root; scanned "
            f"{out.points_scanned} points, K range "
            f"[{out.value_min!r}, {out.value_max!r}]")
    err = abs(out.parameter_value - target_C)
    ok = err <= 1e-9 and out.classification == classification
    _report(f"criterion 3 (C*, k={k}, m={m})", ok,
            f"C*={out.parameter_value!r} err={err:.3e} "
            f"class={out.classification}")
    assert err <= 1e-9
    assert out.classification == classification


# 4 ----------------------------------------------------------------------


def test_criterion_4_closed_form_period():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        H = -1.05 - 2.0 * rng.random()
        c0 = h.C0(2, H)
        C = c0 + (abs(c0) - 1e-4) * rng.random() * 0.999 + 1e-6 * abs(c0)
        C = min(C, -1e-6)
        res = h.period_T(h.ShapeParams(2, H, C), tol=1e-12)
        worst = max(worst, abs(res.value - math.pi / math.sqrt(H * H - 1)))
    ok = worst <= 1e-10
    _report("criterion 4 (n=2 period closed form)", ok,
            f"max err={worst:.3e} over 10 draws")
    assert worst <= 1e-10


# 5 ----------------------------------------------------------------------


def test_criterion_5_limit_identities():
    # lb(2, H) = b2(H) to 1e-13 at 5 values of H
    worst = max(abs(h.K_limit_at_C0(2, H) - h.b2(H))
                for H in (-1.05, -1.2, -1.5, -3.0, -10.0))
    # flux -> b2 monotonically along C0 + 10^-k
    H = -1.1
    c0 = h.C0(2, H)
    b = h.b2(H)
    gaps = [abs(h.flux_K(h.ShapeParams(2, H, c0 + 10.0 ** -k)).value - b)
            for k in (4, 6, 8)]
    monotone = gaps[0] > gaps[1] > gaps[2]
    # |K| -> 0 as C -> 0-
    small = [abs(h.flux_K(h.ShapeParams(2, H, C)).value)
             for C in (-1e-2, -1e-4, -1e-6)]
    vanishing = small[0] > small[1] > small[2] and small[2] < 1e-2
    ok = worst <= 1e-13 and monotone and vanishing
    _report("criterion 5 (limit identities)", ok,
            f"lb vs b2 max err={worst:.3e}, gaps to b2={gaps}, "
            f"|K| tail={small}")
    assert worst <= 1e-13
    assert monotone
    assert vanishing


# 6 ----------------------------------------------------------------------


def test_criterion_6_consistency_suite():
    H, C = -1.1, -0.5
    params = h.ShapeParams(2, H, C)
    curve = h.integrate_profile(params, samples_per_period=512)
    K = h.flux_K(params, tol=1e-12).value
    closure = abs(curve.state(curve.period_T).theta - K)
    T = h.period_T(params, tol=1e-12).value
    period_diff = abs(curve.period_T - T)
    g_err = max(abs(curve.g[i] - closed_form_g_n2(H, C, float(curve.t[i])))
                for i in range(len(curve.t)))
    ok = (closure <= 1e-7 and period_diff <= 1e-8 * T
          and g_err <= 1e-8)
    _report("criterion 6 (consistency suite)", ok,
            f"closure={closure:.3e} period diff={period_diff:.3e} "
            f"g vs closed form={g_err:.3e}")
    assert closure <= 1e-7
    assert period_diff <= 1e-8 * T
    assert g_err <= 1e-8


# 7 ----------------------------------------------------------------------


def test_criterion_7_geometry_suite():
    solved = [
        (2, -1.1, frozen.CSTAR_N2_M5, 5),
        (2, -1.1, frozen.CSTAR_N2_M10, 10),
    ]
    from hypcmc import lorentz

    all_ok = True
    details = []
    for n, H, C, m in solved:
        params = h.ShapeParams(n, H, C)
        curve = h.integrate_profile(params, m_periods=m,
                                    samples_per_period=128)
        y0 = lorentz.FiberPoint.axis(n)
        sq = math.sqrt(-C)
        dev = 0.0
        for s in curve.samples:
            phi = lorentz.immerse_point(params, {"r": s.r, "theta": s.theta},
                                        y0)
            dev = max(dev, abs(lorentz.minkowski_inner(phi, phi) + 1.0))
            if s.r > 1.0 + 1e-10:
                state = {"r": s.r, "r_prime": s.g_prime / sq, "lam": s.lam,
                         "theta": s.theta}
                nu = lorentz.gauss_map(params, state, y0)
                dev = max(dev, abs(lorentz.minkowski_inner(nu, nu) - 1.0))
                dev = max(dev, abs(lorentz.minkowski_inner(nu, phi)))
        energy = np.max(np.abs(
            curve.g_prime ** 2 + curve.g ** (2 - 2 * n)
            + (H * H - 1) * curve.g ** 2 + 2 * H * curve.g ** (2 - n) - C))
        rng = np.random.default_rng(20240817)
        fd_worst, evaluated = 0.0, 0
        for t in rng.uniform(curve.t[0] + 2e-5, curve.t[-1] - 2e-5, 400):
            chk = lorentz.verify_cmc(params, curve, float(t))
            if chk.evaluated:
                fd_worst = max(fd_worst, abs(chk.H_est - H))
                evaluated += 1
            if evaluated >= 100:
                break
        this_ok = (dev <= 1e-10 and energy <= 1e-8
                   and evaluated >= 100 and fd_worst <= 1e-5)
        all_ok = all_ok and this_ok
        details.append(f"m={m}: inner dev={dev:.2e} energy={energy:.2e} "
                       f"fd err={fd_worst:.2e} ({evaluated} pts)")
        assert dev <= 1e-10
        assert energy <= 1e-8
        assert evaluated >= 100
        assert fd_worst <= 1e-5
    _report("criterion 7 (geometry property suite)", all_ok,
            "; ".join(details))


# 8 ----------------------------------------------------------------------


def test_criterion_8a_theta_prime_negative():
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, samples_per_period=512)
    ok = bool(np.all(curve.theta_prime < 0))
    _report("criterion 8a (theta' < 0 everywhere)", ok,
            f"max theta'={float(curve.theta_prime.max())!r}")
    assert ok


def test_criterion_8b_closed_simple_profile_polygon():
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, samples_per_period=512)
    alpha = h.profile_alpha(curve)
    closed = h.polygon_is_closed(alpha)
    simple = not h.has_self_intersection(alpha, tol=1e-9)
    ok = closed and simple
    gap = float(np.hypot(*(alpha[0] - alpha[-1])))
    _report("criterion 8b (closed simple profile polygon)", ok,
            f"closed={closed} (endpoint gap {gap:.3e}) simple={simple}")
    assert closed, f"profile polygon endpoint gap {gap!r}"
    assert simple


def test_criterion_8c_embedded_precondition_failure():
    with pytest.raises(h.EmbeddingPreconditionError) as exc:
        h.solve_C(2, -1.005, h.WindingTarget(1, 1), mode="embedded")
    ok = exc.value.xi_value < -2 * math.pi
    _report("criterion 8c (xi < -2*pi precondition failure)", ok,
            f"xi_2(-1.005)={exc.value.xi_value!r}")
    assert ok


# 9 ----------------------------------------------------------------------


def test_criterion_9_trend_properties():
    grid = (-1.02, -1.1, -1.5, -3.0, -10.0, -100.0)
    xi2 = [h.xi(2, H).value for H in grid]
    decreasing_toward_minus1 = all(a < b for a, b in zip(xi2, xi2[1:]))
    window_ok = True
    closer_ok = True
    for n in (2, 3, 4, 5):
        x100 = h.xi(n, -100.0).value
        x10 = h.xi(n, -10.0).value
        window_ok &= -2 * math.pi < x100 < -math.pi
        closer_ok &= abs(x100 + math.pi) < abs(x10 + math.pi)
    ok = decreasing_toward_minus1 and window_ok and closer_ok
    _report("criterion 9 (trend properties)", ok,
            f"xi_2 grid={xi2}; window/limit checks "
            f"{window_ok}/{closer_ok}")
    assert decreasing_toward_minus1
    assert window_ok
    assert closer_ok
