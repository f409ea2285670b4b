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


def _rapidity(v):
    """The n = 2 fiber point (sinh v, cosh v)."""
    return h.FiberPoint((math.sinh(v), math.cosh(v)))


def test_minkowski_inner_basic():
    # inner_rows is <v, w> = v1 w1 + ... - v_k w_k, of vectors or rows
    v, w, e = np.array([[1.0, 2, 3], [4, 5, 6], [0, 0, 1]])
    assert lorentz.inner_rows(v, w) == 1 * 4 + 2 * 5 - 3 * 6
    assert lorentz.inner_rows(e, e) == -1.0
    rows = lorentz.inner_rows(np.stack((v, e)), np.stack((w, e)))
    assert rows.tolist() == [-4.0, -1.0]


def test_fiber_point_invariants():
    p = _rapidity(0.7)
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


@pytest.mark.parametrize("n", [2, 3])
def test_fiber_point_far_out_on_the_fiber(n):
    # sinh^2 v - cosh^2 v rounds to -1 within about eps cosh^2 v, so the
    # check is relative to |y|^2: far points pass until their squares
    # overflow, and points off the hyperboloid still fail
    pad = [0.0] * (n - 2)
    for v in (5.0, 10.0, 20.0, 300.0):
        y = [math.sinh(v)] + pad + [math.cosh(v)]
        assert h.FiberPoint(y).y == tuple(y)
    with pytest.raises(h.DomainError, match="self-inner nan"):
        h.FiberPoint([math.sinh(400.0)] + pad + [math.cosh(400.0)])
    for y in ([1.0] + pad + [1.0], [0.0] + pad + [1.0 + 1e-9]):
        with pytest.raises(h.DomainError, match="expected -1"):
            h.FiberPoint(y)


def test_immerse_point_on_hyperboloid():
    rng = np.random.default_rng(3)
    r = 1.0 + rng.uniform(0, 3, 20)
    theta = rng.uniform(-10, 10, 20)
    ys = np.array([_rapidity(v).y for v in rng.uniform(-2, 2, 20)])
    phi = lorentz.immerse_rows(r, theta, ys)
    assert phi.shape == (20, 4)
    assert np.abs(lorentz.inner_rows(phi, phi) + 1.0).max() <= 1e-12


def test_immerse_point_validation():
    y = h.FiberPoint.axis(2).as_array()
    with pytest.raises(h.DomainError, match="r=0.5 < 1"):
        lorentz.immerse_rows(np.array([2.0, 0.5]), np.zeros(2), y)
    # a fiber point of another dimension, as surface_grid takes it
    curve = h.integrate_profile(h.ShapeParams(2, -1.1, -0.5),
                                samples_per_period=32)
    with pytest.raises(h.DimensionError, match="3 coordinates, expected n=2"):
        h.surface_grid(curve, [h.FiberPoint.axis(3)])


def _consistent_state(params, t_frac=0.2):
    """A profile state satisfying the first integral exactly enough, as
    one-row arrays (r, r', lam, theta)."""
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    s = curve.state(t_frac * curve.period_T)
    sq = math.sqrt(-params.C)
    return [np.array([x]) for x in (s.r, s.g_prime / sq, s.lam, s.theta)]


def test_gauss_map_unit_and_tangent():
    r, rp, lam, theta = _consistent_state(h.ShapeParams(2, -1.1, -0.5))
    y = _rapidity(0.4).as_array()
    nu = lorentz.gauss_rows(r, rp, lam, theta, y)
    phi = lorentz.immerse_rows(r, theta, y)
    assert lorentz.inner_rows(nu, nu)[0] == pytest.approx(1.0, abs=1e-9)
    assert lorentz.inner_rows(nu, phi)[0] == pytest.approx(0.0, abs=1e-9)


def test_gauss_map_rejects_inconsistent_state():
    r, rp, lam, theta = _consistent_state(h.ShapeParams(2, -1.1, -0.5))
    with pytest.raises(h.InconsistentStateError):
        lorentz.gauss_rows(r, rp + 0.1, lam, theta,
                           h.FiberPoint.axis(2).as_array())


def test_verify_cmc_recovers_H():
    for n, H, C in [(2, -1.1, -0.5), (3, -1.5, -0.3)]:
        params = h.ShapeParams(n, H, C)
        curve = h.integrate_profile(params, m_periods=1,
                                    samples_per_period=256)
        t = 0.31 * curve.period_T
        done, lam_est, mu_est, H_est = lorentz.curvature_rows(curve, [t])
        assert done.tolist() == [True]
        assert H_est[0] == pytest.approx(H, abs=1e-6)
        s = curve.state(t)
        assert lam_est[0] == pytest.approx(s.lam, abs=1e-6)
        assert mu_est[0] == pytest.approx(s.mu, abs=1e-6)


def test_verify_cmc_all_fiber_directions_agree():
    # the fiber is isotropic: the one-point estimate of lambda along each
    # fiber direction agrees with curvature_rows' along the first
    params = h.ShapeParams(4, -1.3, -0.25)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    t = 0.4 * curve.period_T
    ests = [scalar_verify_cmc(params, curve, t, fiber_direction=d)[0]
            for d in range(3)]
    ests.append(lorentz.curvature_rows(curve, [t])[1][0])
    assert max(ests) - min(ests) < 1e-9


def test_verify_cmc_near_axis_refusal():
    # this constant puts the r-minimum within 1e-8 of the axis
    params = h.ShapeParams(2, -1.1, -0.9091743461769703)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=256)
    done, *est = lorentz.curvature_rows(curve, [2e-5])
    assert done.tolist() == [False]
    assert np.isnan(est).all()


def test_verify_cmc_validation():
    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, m_periods=1, samples_per_period=64)
    with pytest.raises(h.ParameterRangeError):
        lorentz.curvature_rows(curve, [0.1, -1.0])


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _curve_rows(params, samples=64):
    """The states of a sampled profile as the arrays (r, r', lam, theta)."""
    curve = h.integrate_profile(params, samples_per_period=samples)
    sq = math.sqrt(-params.C)
    return curve, (curve.r, curve.g_prime / sq, curve.lam, curve.theta)


def test_row_code_equals_scalar_formulas():
    # every row of immerse_rows, gauss_rows and inner_rows has the bits
    # of the one-point formulas; the rows take NumPy's cos and sin and the
    # oracles math's, so this also pins NumPy's trig to math's bits
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


@pytest.mark.parametrize("n, H, C", [(2, -1.1, -0.9091743461769703),
                                     (3, -1.5, -0.7), (5, -2.9, -0.6)])
def test_curvature_rows_equal_scalar_verify_cmc(n, H, C):
    # the draws of `hypcmc check`, and near-axis times at the fig1 constant;
    # the oracle takes its fiber offsets from math's sinh and cosh, the
    # rows from NumPy's
    params = h.ShapeParams(n, H, C)
    curve = h.integrate_profile(params, samples_per_period=256)
    rng = np.random.default_rng(20240817)
    ts = np.concatenate((rng.uniform(curve.t[0] + 2e-5, curve.t[-1] - 2e-5,
                                     200), [2e-5, curve.t[-1] - 2e-5]))
    evaluated, lam_est, mu_est, H_est = lorentz.curvature_rows(curve, ts)
    for i, t in enumerate(ts.tolist()):
        ref = scalar_verify_cmc(params, curve, t)
        assert evaluated[i] == (ref is not None)
        row = [lam_est[i], mu_est[i], H_est[i]]
        if ref is None:
            assert np.isnan(row).all()
        else:
            assert np.array_equal(_bits(row), _bits(ref))
    assert evaluated.sum() == 200 + (n != 2) * 2
