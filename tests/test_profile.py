import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcmc as h
from hypcmc import profile

import frozen
from oracles import closed_form_g_n2

NEAR_AXIS = h.ShapeParams(2, -1.1, -0.9091743461769703)


def test_profile_starts_at_minimum():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params)
    assert curve.g[0] == pytest.approx(curve.t1, abs=1e-12)
    assert curve.g_prime[0] == pytest.approx(0.0, abs=1e-12)
    assert curve.theta[0] == 0.0


def test_profile_matches_closed_form_n2():
    H, C = -1.1, -0.5
    curve = h.integrate_profile(h.ShapeParams(2, H, C),
                                samples_per_period=512)
    ref = np.array([closed_form_g_n2(H, C, t) for t in curve.t])
    assert np.max(np.abs(curve.g - ref)) < 1e-8


def test_profile_oscillation_bounds_and_period():
    params = h.ShapeParams(3, -1.4, -0.4)
    curve = h.integrate_profile(params, m_periods=2)
    assert np.all(curve.g >= curve.t1 - 1e-10)
    assert np.all(curve.g <= curve.t2 + 1e-10)
    # min -> max half a period later, back to min after a full period
    assert curve.state(curve.period_T / 2).g == pytest.approx(
        curve.t2, abs=1e-9)
    assert curve.state(curve.period_T).g == pytest.approx(
        curve.t1, abs=1e-9)
    assert curve.period_T == pytest.approx(h.period_T(params).value, rel=1e-9)


def test_profile_energy_conservation():
    params = h.ShapeParams(2, -1.2, -0.6)
    curve = h.integrate_profile(params, m_periods=3)
    n, H, C = params.n, params.H, params.C
    res = np.abs(curve.g_prime ** 2 + curve.g ** (2 - 2 * n)
                 + (H * H - 1) * curve.g ** 2
                 + 2 * H * curve.g ** (2 - n) - C)
    assert res.max() < 1e-8


def test_theta_accumulates_K_per_period():
    params = h.ShapeParams(2, -1.1, -0.5)
    m = 3
    curve = h.integrate_profile(params, m_periods=m)
    K = h.flux_K(params).value
    assert curve.K_value == pytest.approx(K, abs=1e-9)
    for j in range(1, m + 1):
        assert curve.state(j * curve.period_T).theta == pytest.approx(
            j * K, abs=1e-8)


def test_theta_rebuild_near_axis():
    # C 9.2e-5 (relative) below Ctilde, so r_min - 1 = rho_min^2 / 2 =
    # 5.1e-9 (rho_min = 1.0e-4 from the axis): the angle rate spikes to
    # ~1e4 there; the angle must still hit K at the period marks
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, samples_per_period=256)
    assert curve.K_value == pytest.approx(frozen.K_NEAR_AXIS_N2, abs=1e-9)
    assert curve.state(curve.period_T).theta == pytest.approx(
        curve.K_value, abs=1e-12)
    # the angle is monotone decreasing (theta' < 0 throughout here)
    assert np.all(np.diff(curve.theta) < 0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), H=st.floats(-3.0, -1.02),
       side=st.sampled_from([-1, 1]), e=st.floats(-6.0, -3.0),
       periods=st.integers(1, 3))
def test_turning_points_near_axis(n, H, side, e, periods):
    # C next to Ctilde on both sides: at every half-period mark the angle
    # is exactly j K / 2 and g sits on its turning point, however sharp
    # the angle spike at t1
    params = h.ShapeParams(n, H, h.Ctilde(n, H) * (1 + side * 10.0 ** e))
    curve = h.integrate_profile(params, m_periods=periods,
                                samples_per_period=16)
    T, K = curve.period_T, curve.K_value
    marks = curve.states([j * T / 2 for j in range(2 * periods + 1)])
    for j, s in enumerate(marks):
        assert abs(s.theta - j * K / 2) <= 1e-13
        turn = curve.t2 if j % 2 else curve.t1
        assert abs(s.g - turn) <= 1e-15 * turn


def test_times_next_to_period_marks():
    # one ulp from a period mark j T, next to the axis: g is back on t1
    # and the angle is j K plus the angle rate (~1e4 here) times the
    # distance to the mark
    curve = h.integrate_profile(NEAR_AXIS, m_periods=64, samples_per_period=16)
    T, K, t1 = curve.period_T, curve.K_value, curve.t1
    rate = curve.theta_prime[0]
    ts = [float(np.nextafter(j * T, side)) for j in range(1, 64)
          for side in (0.0, np.inf)]
    for t, s in zip(ts, curve.states(ts)):
        j = round(t / T)
        assert abs(s.g - t1) <= 1e-15 * t1
        step = rate * (t - j * T)
        assert abs(s.theta - j * K - step) <= 1e-3 * abs(step) + 4e-15 * j


def test_state_half_way_matches_mpmath():
    # where g = (t1 + t2) / 2, time and angle are the 50-digit partial
    # integrals from t1, near the axis (fig1) and away from it
    for (n, H, C), (g_mid, t_mid, theta_mid) in frozen.HALF_WAY.items():
        s = h.integrate_profile(h.ShapeParams(n, H, C)).state(t_mid)
        assert s.g == pytest.approx(g_mid, abs=1e-11)
        assert s.theta == pytest.approx(theta_mid, abs=1e-11)


def test_profile_sample_fields_consistent():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=64)
    n, H, C = params.n, params.H, params.C
    s = curve.samples[17]
    assert s.r == pytest.approx(s.g / math.sqrt(-C), rel=1e-15)
    assert s.lam == pytest.approx(H + s.g ** (-n), rel=1e-12)
    assert s.mu == pytest.approx(n * H - (n - 1) * s.lam, rel=1e-12)
    assert s.theta_prime == pytest.approx(
        math.sqrt(-C) * s.g * s.lam / (s.g ** 2 + C), rel=1e-12)
    assert np.all(curve.r >= 1.0 - 1e-12)


def test_samples_read_the_curve_properties():
    # every field of every sample, from samples and from states, is the
    # ProfileCurve property at its index, bit for bit
    curve = h.integrate_profile(h.ShapeParams(3, -1.5, -0.7),
                                samples_per_period=64)
    fields = ("t", "g", "g_prime", "r", "lam", "mu", "theta", "theta_prime")
    for k, s in enumerate(curve.samples):
        for name in fields:
            assert _bits(getattr(s, name)) == _bits(getattr(curve, name)[k])
    ts = curve.t[[3, 40, 64]]
    g, gp, theta = curve.state_arrays(ts)
    lam = -1.5 + g ** -3
    for k, s in enumerate(curve.states(ts.tolist())):
        assert (s.t, s.g, s.g_prime, s.theta) == (ts[k], g[k], gp[k], theta[k])
        assert (s.r, s.lam, s.mu) == (g[k] / math.sqrt(0.7), lam[k],
                                      3 * -1.5 - 2 * lam[k])


def test_state_interpolation_and_range():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=128)
    i = 37
    s = curve.state(float(curve.t[i]))
    assert s.g == pytest.approx(curve.g[i], abs=1e-12)
    assert s.theta == pytest.approx(curve.theta[i], abs=1e-10)
    with pytest.raises(h.ParameterRangeError):
        curve.state(curve.t[-1] + 1.0)


@pytest.mark.parametrize("n, H, C", [(2, -1.1, -0.9091743461769703),
                                     (3, -1.5, -0.7), (5, -2.9, -0.6)])
def test_state_rows_equal_separate_states_calls(n, H, C):
    # each time retires on its own Newton step test, so a state has the
    # bits of a lone state() call whatever shares its call, however many
    # steps its neighbours need (a time next to the r-minimum needs the
    # most): a row of a 2-D call, an entry of a row, a stored sample
    curve = h.integrate_profile(h.ShapeParams(n, H, C))
    fields = ("g", "g_prime", "theta")
    rng = np.random.default_rng(5)
    base = np.concatenate(([2e-5, curve.t[-1] / 2], rng.uniform(
        2e-5, curve.t[-1] - 2e-5, 60)))
    ts = np.column_stack((base, base + 5e-6, base - 5e-6, base + 1e-5,
                          base - 1e-5))
    rows = curve.state_arrays(ts)
    for k, row in enumerate(ts):
        alone = curve.states(row.tolist())
        for got, field in zip(rows, fields):
            ref = [getattr(s, field) for s in alone]
            assert np.array_equal(_bits(got[k]), _bits(ref)), (k, field)
        for j, t in enumerate(row.tolist()):
            lone = curve.state(t)
            for got, field in zip(rows, fields):
                assert _bits(got[k, j]) == _bits(getattr(lone, field)), (k, j)
    stored = (curve.g, curve.g_prime, curve.theta)
    for got, want in zip(curve.state_arrays(curve.t), stored):
        assert np.array_equal(_bits(got), _bits(want))
    for k in range(200):
        lone = curve.state(float(curve.t[k]))
        for want, field in zip(stored, fields):
            assert _bits(getattr(lone, field)) == _bits(want[k]), (k, field)
    with pytest.raises(h.ParameterRangeError):
        curve.state_arrays([[0.0, 1.0], [curve.t[-1] + 1.0, 0.5]])


@pytest.mark.parametrize("params", [
    NEAR_AXIS, h.ShapeParams(3, -1.5, h.Ctilde(3, -1.5) * (1 + 1e-6))],
    ids=["fig1", "near-ctilde"])
def test_profile_runs_no_tanh_sinh_rule(monkeypatch, params):
    # the phase series alone sets the period and the time axis
    def refuse(*args, **kwargs):
        raise AssertionError("tanh-sinh quadrature called")

    monkeypatch.setattr(h.quadrature, "de_integrate", refuse)
    curve = h.integrate_profile(params, m_periods=2)
    with pytest.raises(AssertionError):
        h.period_T(params)
    monkeypatch.undo()
    assert curve.period_T == pytest.approx(h.period_T(params).value,
                                           rel=1e-13)
    assert curve.t[-1] == 2 * curve.period_T


def test_period_against_frozen_references():
    # the series period is no farther from the 50-digit period than the
    # tanh-sinh period_T, give or take 2 ulps: near C0 and on both sides
    # of Ctilde, for n up to 8
    for (n, H, C), ref in frozen.T_GRID.items():
        params = h.ShapeParams(n, H, C)
        series = h.integrate_profile(params, samples_per_period=16).period_T
        rule = h.period_T(params).value
        assert (abs(series - ref)
                <= abs(rule - ref) + 2 * np.spacing(ref)), (n, H, C)


def test_integrate_profile_validation():
    with pytest.raises(h.DomainError):
        h.integrate_profile(h.ShapeParams(2, -1.1, None))
    with pytest.raises(h.DomainError):
        h.integrate_profile(h.ShapeParams(2, -1.1, -0.5), m_periods=0)


def _mp_theta_prime_at_t1(n, H, C, t1):
    """theta' at the lower root of p, from mpmath at 50 digits, with the
    root polished by findroot from the float t1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        H, C = mp.mpf(H), mp.mpf(C)
        t1 = mp.findroot(lambda v: (1 - H * H) * v ** (2 * n)
                         + C * v ** (2 * n - 2) - 2 * H * v ** n - 1,
                         mp.mpf(t1))
        return mp.sqrt(-C) * t1 * (H + t1 ** -n) / (t1 * t1 + C)


@pytest.mark.parametrize("n, H", [(2, -1.1), (3, -1.5), (8, -100.0)])
def test_profile_next_to_ctilde(n, H):
    # C = Ctilde (1 +- eps) on both sides of the jump, down to eps = 1e-15:
    # the energy identity holds to 2e-12 (measured 1.7e-12), theta(T) is
    # K exactly, and K is within 8.9e-16 of flux_K (one ulp at |K| = 6).
    # theta' is finite at every sample, and at the period marks (g = t1,
    # where it is about 1 / eps) within 1e-14 H^2 (relative) of mpmath
    # (measured 4.9e-16, 7.2e-16 and 3.1e-11 at H = -100)
    ct = h.Ctilde(n, H)
    for eps in (1e-9, 1e-12, 1e-15):
        for side in (1, -1):
            params = h.ShapeParams(n, H, ct * (1 + side * eps))
            curve = h.integrate_profile(params)
            energy = profile._energy_residual(params, curve.g, curve.g_prime)
            assert energy.max() <= 2e-12, (n, H, eps, side)
            assert curve.theta[-1] == curve.K_value
            K = h.flux_K(params).value
            assert abs(curve.K_value - K) <= 8.9e-16, (n, H, eps, side)
            rate = curve.theta_prime
            assert np.all(np.isfinite(rate)), (n, H, eps, side)
            ref = _mp_theta_prime_at_t1(n, H, params.C, curve.t1)
            for mark in (rate[0], rate[-1]):
                assert abs(mark / ref - 1) <= 1e-14 * H * H, (n, H, eps, side)


def test_profile_alpha_geometry():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=128)
    alpha = h.profile_alpha(curve)
    assert alpha.shape == (len(curve.t), 2)
    rad2 = alpha[:, 0] ** 2 + alpha[:, 1] ** 2
    assert np.allclose(rad2, curve.r ** 2 - 1.0, atol=1e-10)


def test_theta_prime_trace_clipping():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=64)
    trace = h.theta_prime_trace(curve)
    assert trace.shape == (len(curve.t), 2)
    assert np.array_equal(trace[:, 0], curve.t)
    clipped = h.theta_prime_trace(curve, clip=0.5)
    assert np.max(np.abs(clipped[:, 1])) <= 0.5
    with pytest.raises(h.DomainError):
        h.theta_prime_trace(curve, clip=-1.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_surface_grid_points_on_hyperboloid():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=32)
    fibers = [h.FiberPoint.from_rapidity(v) for v in (-0.5, 0.0, 0.5)]
    grid = h.surface_grid(curve, fibers)
    assert grid.shape == (3, len(curve.t), params.n + 2)
    inners = (np.sum(grid[..., :-1] ** 2, axis=-1) - grid[..., -1] ** 2)
    assert np.allclose(inners, -1.0, atol=1e-10)
    # every point is immerse_point's, bit for bit
    loop = np.array([[h.immerse_point(params, {"r": r, "theta": th}, y)
                      for r, th in zip(curve.r, curve.theta)] for y in fibers])
    assert np.array_equal(_bits(grid), _bits(loop))
    with pytest.raises(h.DimensionError):
        h.surface_grid(curve, [h.FiberPoint.axis(3)])
    with pytest.raises(h.DomainError):
        h.surface_grid(curve, [(1.0, 1.0)])  # not on H^1
    curve.g = curve.g.copy()
    curve.g[5] = 0.5 * math.sqrt(-params.C)  # r = 0.5
    with pytest.raises(h.DomainError, match="r=0.5 < 1"):
        h.surface_grid(curve, fibers)


def test_theta_prime_spike_near_axis():
    # when the profile grazes the axis the angle rate at the r-minimum is
    # enormous while half a period later (at the r-maximum) it is O(1)
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, samples_per_period=512)
    assert np.max(np.abs(curve.theta_prime)) > 1e2
    mid = curve.state(curve.period_T / 2)
    assert abs(mid.theta_prime) < 10.0
