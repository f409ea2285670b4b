import math

import numpy as np
import pytest

import hypcmc as h
from hypcmc import lorentz

from oracles import (
    scalar_gauss,
    scalar_immerse,
    scalar_minkowski,
    scalar_verify_cmc,
)


def test_minkowski_inner_basic():
    assert h.minkowski_inner([1, 2, 3], [4, 5, 6]) == 1 * 4 + 2 * 5 - 3 * 6
    assert h.minkowski_inner([0, 0, 1], [0, 0, 1]) == -1.0


def test_minkowski_inner_validation():
    with pytest.raises(h.DimensionError):
        h.minkowski_inner([1, 2], [1, 2])
    with pytest.raises(h.DimensionError):
        h.minkowski_inner([1, 2, 3], [1, 2])
    with pytest.raises(h.DimensionError):
        h.minkowski_inner(np.eye(3), np.eye(3))


def test_fiber_point_invariants():
    p = h.FiberPoint.from_rapidity(0.7)
    assert p.y == (math.sinh(0.7), math.cosh(0.7))
    a = h.FiberPoint.axis(4)
    assert a.y == (0.0, 0.0, 0.0, 1.0)
    with pytest.raises(h.DomainError):
        h.FiberPoint((1.0, 1.0))  # self-inner 0, not -1
    with pytest.raises(h.DomainError):
        h.FiberPoint((0.0, -1.0))  # wrong sheet
    # every comparison with NaN is False, so no check may pass on one
    for y in ((math.nan, math.nan), (math.inf, math.inf), (0.0, math.nan),
              (math.nan, 1.0)):
        with pytest.raises(h.DomainError):
            h.FiberPoint(y)
    with pytest.raises(h.DimensionError):
        h.FiberPoint((1.0,))


def test_immerse_point_on_hyperboloid():
    params = h.ShapeParams(2, -1.1, -0.5)
    rng = np.random.default_rng(3)
    for _ in range(20):
        r = 1.0 + rng.uniform(0, 3)
        theta = rng.uniform(-10, 10)
        y = h.FiberPoint.from_rapidity(rng.uniform(-2, 2))
        phi = h.immerse_point(params, {"r": r, "theta": theta}, y)
        assert len(phi) == params.n + 2
        assert h.minkowski_inner(phi, phi) == pytest.approx(-1.0, abs=1e-12)


def test_immerse_point_validation():
    params = h.ShapeParams(2, -1.1, -0.5)
    y = h.FiberPoint.axis(2)
    with pytest.raises(h.DomainError):
        h.immerse_point(params, {"r": 0.5, "theta": 0.0}, y)
    with pytest.raises(h.DimensionError):
        h.immerse_point(params, {"r": 2.0, "theta": 0.0}, h.FiberPoint.axis(3))


def _consistent_state(params, t_frac=0.2):
    """A profile state satisfying the first integral exactly enough."""
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    t = t_frac * curve.period_T
    s = curve.state(t)
    sq = math.sqrt(-params.C)
    return curve, {"r": s.r, "r_prime": s.g_prime / sq,
                   "lam": s.lam, "theta": s.theta}


def test_gauss_map_unit_and_tangent():
    params = h.ShapeParams(2, -1.1, -0.5)
    _, state = _consistent_state(params)
    y = h.FiberPoint.from_rapidity(0.4)
    nu = h.gauss_map(params, state, y)
    phi = h.immerse_point(params, state, y)
    assert h.minkowski_inner(nu, nu) == pytest.approx(1.0, abs=1e-9)
    assert h.minkowski_inner(nu, phi) == pytest.approx(0.0, abs=1e-9)


def test_gauss_map_rejects_inconsistent_state():
    params = h.ShapeParams(2, -1.1, -0.5)
    _, state = _consistent_state(params)
    bad = dict(state, r_prime=state["r_prime"] + 0.1)
    with pytest.raises(h.InconsistentStateError):
        h.gauss_map(params, bad, h.FiberPoint.axis(2))


def test_verify_cmc_recovers_H():
    for n, H, C in [(2, -1.1, -0.5), (3, -1.5, -0.3)]:
        params = h.ShapeParams(n, H, C)
        curve = h.integrate_profile(params, m_periods=1,
                                    samples_per_period=256)
        t = 0.31 * curve.period_T
        chk = h.verify_cmc(params, curve, t)
        assert chk.evaluated
        assert chk.H_est == pytest.approx(H, abs=1e-6)
        s = curve.state(t)
        assert chk.lambda_est == pytest.approx(s.lam, abs=1e-6)
        assert chk.mu_est == pytest.approx(s.mu, abs=1e-6)


def test_verify_cmc_all_fiber_directions_agree():
    params = h.ShapeParams(4, -1.3, -0.25)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    t = 0.4 * curve.period_T
    ests = [h.verify_cmc(params, curve, t, fiber_direction=d).lambda_est
            for d in range(3)]
    assert max(ests) - min(ests) < 1e-9


def test_verify_cmc_near_axis_refusal():
    # this constant puts the r-minimum within 1e-8 of the axis
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    chk = h.verify_cmc(params, curve, 2e-5, fd_step=1e-5)
    assert not chk.evaluated
    assert "axis" in chk.reason


def test_verify_cmc_validation():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=64)
    with pytest.raises(h.ParameterRangeError):
        h.verify_cmc(params, curve, -1.0)
    with pytest.raises(h.DomainError):
        h.verify_cmc(params, curve, 0.1, fd_step=0.0)
    with pytest.raises(h.DomainError):
        h.verify_cmc(params, curve, 0.1, fiber_direction=1)  # n=2 has only 0


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _curve_rows(params, samples=64):
    """The states of a sampled profile as the arrays (r, r', lam, theta)."""
    curve = h.integrate_profile(params, samples_per_period=samples)
    sq = math.sqrt(-params.C)
    return curve, (curve.r, curve.g_prime / sq, curve.lam, curve.theta)


def test_row_code_equals_scalar_formulas():
    # every row of immerse_rows, gauss_rows and inner_rows, and every
    # scalar wrapper, has the bits of the one-point formulas
    params = h.ShapeParams(3, -1.5, -0.7)
    _, (r, rp, lam, theta) = _curve_rows(params)
    ys = np.array([[math.sinh(a) * math.cos(b), math.sinh(a) * math.sin(b),
                    math.cosh(a)] for a, b in ((0.0, 0.0), (0.7, 2.0),
                                               (-1.3, 0.4))])
    phi = lorentz.immerse_rows(r, theta, ys[:, None])
    nu = lorentz.gauss_rows(r, rp, lam, theta, ys[:, None])
    assert phi.shape == nu.shape == (3, len(r), 5)
    inner = lorentz.inner_rows(phi, nu)
    for i, y in enumerate(ys):
        for j in range(len(r)):
            ref_phi = scalar_immerse(r[j], theta[j], y)
            ref_nu = scalar_gauss(r[j], rp[j], lam[j], theta[j], y)
            assert np.array_equal(_bits(phi[i, j]), _bits(ref_phi))
            assert np.array_equal(_bits(nu[i, j]), _bits(ref_nu))
            assert _bits(inner[i, j]) == _bits(scalar_minkowski(ref_phi, ref_nu))
            state = {"r": r[j], "r_prime": rp[j], "lam": lam[j],
                     "theta": theta[j]}
            assert np.array_equal(_bits(h.immerse_point(params, state, y)),
                                  _bits(ref_phi))
            assert np.array_equal(_bits(h.gauss_map(params, state, y)),
                                  _bits(ref_nu))
            assert (_bits(h.minkowski_inner(ref_phi, ref_nu))
                    == _bits(scalar_minkowski(ref_phi, ref_nu)))


def test_gauss_errors_come_from_the_row_code():
    params = h.ShapeParams(2, -1.1, -0.5)
    _, (r, rp, lam, theta) = _curve_rows(params)
    y = h.FiberPoint.axis(2).as_array()
    off = rp.copy()
    off[7] += 0.1
    resid = abs(off[7] ** 2 + lam[7] ** 2 * r[7] ** 2 - (r[7] ** 2 - 1.0))
    low = r.copy()
    low[9] = 1.0
    # the error of the first bad row, whichever kind it is
    with pytest.raises(h.InconsistentStateError, match=f"by {resid:.3e}"):
        lorentz.gauss_rows(low, off, lam, theta, y)
    with pytest.raises(h.DomainError, match="requires r > 1, got r=1.0"):
        lorentz.gauss_rows(low, rp, lam, theta, y)
    state = {"r": r[7], "r_prime": off[7], "lam": lam[7], "theta": theta[7]}
    with pytest.raises(h.InconsistentStateError, match=f"by {resid:.3e}"):
        h.gauss_map(params, state, y)
    with pytest.raises(h.DomainError, match="requires r > 1, got r=1.0"):
        h.gauss_map(params, dict(state, r=1.0), y)


@pytest.mark.parametrize("n, H, C", [(2, -1.1, -0.9091743461769703),
                                     (3, -1.5, -0.7), (5, -2.9, -0.6)])
def test_curvature_rows_equal_scalar_verify_cmc(n, H, C):
    # the draws of `hypcmc check`, and near-axis times at the fig1 constant
    params = h.ShapeParams(n, H, C)
    curve = h.integrate_profile(params, samples_per_period=256)
    rng = np.random.default_rng(20240817)
    ts = np.concatenate((rng.uniform(curve.t[0] + 2e-5, curve.t[-1] - 2e-5,
                                     200), [2e-5, curve.t[-1] - 2e-5]))
    evaluated, lam_est, mu_est, H_est = lorentz.curvature_rows(params, curve, ts)
    for i, t in enumerate(ts.tolist()):
        ref = scalar_verify_cmc(params, curve, t)
        chk = h.verify_cmc(params, curve, t)
        assert evaluated[i] == chk.evaluated == (ref is not None)
        if ref is None:
            assert np.isnan([lam_est[i], mu_est[i], H_est[i]]).all()
            assert "axis" in chk.reason
        else:
            row = [lam_est[i], mu_est[i], H_est[i]]
            assert np.array_equal(_bits(row), _bits(ref))
            assert np.array_equal(
                _bits([chk.lambda_est, chk.mu_est, chk.H_est]), _bits(ref))
    assert evaluated.sum() == 200 + (n != 2) * 2
