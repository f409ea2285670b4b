import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

import hypcmc as h
from hypcmc import potential
from hypcmc.potential import (
    DEGENERATE_REL_GAP,
    _Q_upper_root,
    _brentq_lanes,
    horner,
    oscillation_roots_grid,
    p_coefficients,
)

from oracles import polyval_oscillation_roots, roots_closed_form_n2


def test_q_direct_substitution():
    p = h.ShapeParams(2, -1.1, -0.5)
    assert h.eval_q(p, 1.0) == pytest.approx(0.49, abs=1e-15)


def test_q_vanishes_at_roots():
    p = h.ShapeParams(2, -1.1, -0.5)
    t1, t2 = h.oscillation_roots(p)
    scale = abs(p.C) + abs(t2) ** 2
    assert abs(h.eval_q(p, t1)) <= 1e-13 * scale
    assert abs(h.eval_q(p, t2)) <= 1e-13 * scale


def test_q_at_critical_point_equals_C_minus_C0():
    for n, H, C in [(2, -1.1, -0.5), (3, -1.5, -0.3), (5, -2.0, -0.1)]:
        p = h.ShapeParams(n, H, C)
        v0 = h.v0(n, H)
        assert h.eval_q(p, v0) == pytest.approx(C - h.C0(n, H), abs=1e-10)


def test_q_rejects_nonpositive_v():
    p = h.ShapeParams(2, -1.1, -0.5)
    with pytest.raises(h.DomainError):
        h.eval_q(p, 0.0)
    with pytest.raises(h.DomainError):
        h.eval_q(p, -1.0)


def test_v0_unit_at_special_H():
    assert h.v0(2, -math.sqrt(2)) == pytest.approx(1.0, abs=1e-15)


def test_Ctilde_reduces_to_reciprocal_at_n2():
    assert h.Ctilde(2, -1.1) == pytest.approx(1 / -1.1, abs=1e-15)


def test_C0_equals_C1_at_n2():
    for H in (-1.1, -1.5, -2.0, -5.0, -10.0):
        assert h.C0(2, H) == pytest.approx(h.C1(H), abs=1e-12)


def test_landmarks_validation():
    with pytest.raises(h.DomainError):
        h.landmarks(1, -1.1)
    with pytest.raises(h.DomainError):
        h.landmarks(2, -0.5)
    with pytest.raises(h.ParameterRangeError, match="C > C0"):
        h.landmarks(2, -1.1, C=-5.0)
    with pytest.raises(h.ParameterRangeError, match="C < 0"):
        h.landmarks(2, -1.1, C=0.5)


def test_landmark_ordering():
    lm = h.landmarks(3, -1.4, C=-0.35)
    assert 0 < lm.t1 <= lm.v0 <= lm.t2
    assert lm.C0 < lm.Ctilde < 0
    assert lm.t1_scaled == lm.t1 / math.sqrt(0.35)


def test_roots_match_closed_form_n2():
    for H, C in [(-1.1, -0.5), (-1.1, -0.9), (-2.0, -0.4), (-1.05, -0.1)]:
        p = h.ShapeParams(2, H, C)
        t1, t2 = h.oscillation_roots(p)
        e1, e2 = roots_closed_form_n2(H, C)
        assert t1 == pytest.approx(e1, rel=1e-12)
        assert t2 == pytest.approx(e2, rel=1e-12)


def test_roots_limits_as_C_to_zero():
    n, H = 2, -1.1
    p = h.ShapeParams(n, H, -1e-7)
    t1, t2 = h.oscillation_roots(p)
    v1 = (1 - H) ** (-1.0 / n)
    v2 = (-1 - H) ** (-1.0 / n)
    assert t1 == pytest.approx(v1, abs=1e-6)
    assert t2 == pytest.approx(v2, abs=1e-3)


def test_lower_root_at_threshold_constant():
    for n, H in [(2, -1.1), (3, -1.5), (4, -2.0)]:
        p = h.ShapeParams(n, H, h.Ctilde(n, H))
        t1, _ = h.oscillation_roots(p)
        assert t1 == pytest.approx((-H) ** (-1.0 / n), rel=1e-12)


def test_root_monotonicity_in_C():
    n, H = 3, -1.3
    c0 = h.C0(n, H)
    cs = np.linspace(c0 * 0.95, -1e-3, 12)
    t1s, t2s = zip(*(h.oscillation_roots(h.ShapeParams(n, H, c)) for c in cs))
    assert all(a > b for a, b in zip(t1s, t1s[1:]))  # t1 decreasing
    assert all(a < b for a, b in zip(t2s, t2s[1:]))  # t2 increasing


def test_roots_bit_identical_to_polyval_reference():
    # the float-Horner root finder of p takes brentq through the same
    # steps as np.polyval would: every root equals the reference exactly
    for n in range(2, 9):
        for H in (-1.02, -1.1, -1.5, -3.0, -10.0):
            c0, ct = h.C0(n, H), h.Ctilde(n, H)
            cs = [c0 + f * abs(c0) for f in (1e-11, 1e-6, 1e-3, 0.3, 0.7)]
            cs += [ct * (1 + rel) for rel in (1e-3, 1e-8, -1e-8, -1e-3)
                   if ct * (1 + rel) > c0]
            cs += [0.5 * ct, -1e-3, -1e-9]
            for C in cs:
                assert (h.oscillation_roots(h.ShapeParams(n, H, C))
                        == polyval_oscillation_roots(n, H, C))


def test_Q_upper_root_against_mpmath():
    # x = t2~ - 1 against the root above 1 of Q written directly (not
    # through R) at 60 digits, at the exact float H: relative error at
    # most 4 eps, out to H = -1e6 where x is about 5e-13 / n^2
    mp = pytest.importorskip("mpmath")
    for n in range(2, 9):
        for H in (-np.geomspace(1.0000001, 1e6, 40)).tolist():
            x = _Q_upper_root(n, H)
            with mp.workdps(60):
                Hm = mp.mpf(H)

                def Q(v):
                    return (-1 + v * v - Hm * Hm * v * v
                            - Hm * Hm * v ** (2 - 2 * n)
                            + 2 * Hm * Hm * v ** (2 - n))

                lo, hi = 1 + mp.mpf(x) * (1 - 1e-9), 1 + mp.mpf(x) * (1 + 1e-9)
                assert Q(lo) > 0 > Q(hi), (n, H)
                ref = mp.findroot(Q, (lo, hi), solver="anderson") - 1
                assert abs(x - ref) <= 4 * np.finfo(float).eps * ref, (n, H)


def test_Q_newton_steps_settle_every_root():
    # _Q_NEWTON_STEPS is enough: on a dense grid of H a further step (the
    # compensated one that ends the rule) moves no root by more than 1 ulp
    Hs = -np.geomspace(1.0000001, 1e6, 4000)
    for n in range(2, 9):
        x, settled = potential._Q_upper_root_grid(n, Hs)
        assert settled.all()
        coeffs = potential._Q_shifted(n, Hs)
        step = (potential._compensated_horner(coeffs, x)
                / horner(potential._derivative(coeffs), x))
        assert (np.abs(step) <= np.spacing(x)).all(), n


def _scalar_roots(n, H, C):
    """oscillation_roots, or None where it raises for this C."""
    try:
        return h.oscillation_roots(h.ShapeParams(n, H, C))
    except (h.ParameterRangeError, h.DegenerateOscillationError):
        return None


def _bits(roots):
    return None if roots is None else np.array(roots).view(np.int64).tolist()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), H=st.floats(-30.0, -1.02),
       edge=st.lists(st.floats(0.5, 1e6), max_size=3),
       near=st.lists(st.tuples(st.sampled_from([-1, 1]), st.floats(-12.0, -1.0)),
                     max_size=4),
       spread=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_roots_grid_equals_scalar_roots(n, H, edge, near, spread):
    # the lane-wise roots of a whole grid equal the scalar brentq roots and
    # the np.polyval reference bit for bit: next to the degenerate edge at
    # C0 (inside it the lane is not settled and its roots are NaN, where
    # the scalar call raises), on both sides of Ctilde, and spread
    # geometrically from C0 to -1e-9
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    Cs = [c0 + f * DEGENERATE_REL_GAP * abs(c0) for f in edge]
    Cs += [ct * (1 + side * 10.0 ** e) for side, e in near]
    Cs += [-((-c0) ** (1 - f)) * 1e-9 ** f for f in spread]
    Cs += [ct, -1e-9]
    t1, t2, settled = oscillation_roots_grid(n, H, Cs)
    assert np.isnan(t1[~settled]).all() and np.isnan(t2[~settled]).all()
    grid = [(a, b) if ok else None
            for a, b, ok in zip(t1.tolist(), t2.tolist(), settled.tolist())]
    scalar = [_scalar_roots(n, H, C) for C in Cs]
    assert [_bits(r) for r in grid] == [_bits(r) for r in scalar]
    valid = [C for C, r in zip(Cs, scalar) if r is not None]
    assert [_bits(r) for r in scalar if r is not None] == [
        _bits(polyval_oscillation_roots(n, H, C)) for C in valid]

    # every lane takes as many Brent iterations as brentq, to the same root
    v0 = h.v0(n, H)
    brackets, expected = [], []
    for C in valid:
        coeffs = p_coefficients(n, H, C).tolist()
        hi = 2 * v0
        while horner(coeffs, hi) >= 0:
            hi *= 2
        for a, b in ((1e-9 * v0, v0), (v0, hi)):
            brackets.append((C, a, b))
            expected.append(brentq(lambda v: horner(coeffs, v), a, b,
                                   xtol=1e-15, rtol=8.9e-16, full_output=True))
    C, a, b = (np.array(col) for col in zip(*brackets))
    roots, iterations, settled = _brentq_lanes(p_coefficients(n, H, C), a, b,
                                               1e-15, 8.9e-16)
    assert settled.all()
    assert _bits(roots) == _bits([root for root, _ in expected])
    assert iterations.tolist() == [res.iterations for _, res in expected]


def test_brent_lanes_unsettled_where_brentq_raises():
    # lanes whose bracket has no sign change, or that do not converge
    # within maxiter, are left unsettled; SciPy's brentq raises for exactly
    # those, and the scalar port raises the same error.  Elsewhere the
    # port gives SciPy's root and counts, and the lanes its root and
    # iterations
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(6, 200))
    a, b = rng.uniform(-3.0, 0.0, 200), rng.uniform(0.0, 3.0, 200)
    for maxiter in (10, 100):
        roots, iterations, settled = _brentq_lanes(coeffs, a, b, 1e-12,
                                                   8.9e-16, maxiter)
        for i in range(200):
            column = coeffs[:, i].tolist()
            args = (lambda v: horner(column, v), a[i], b[i])
            try:
                root, res = brentq(*args, xtol=1e-12, rtol=8.9e-16,
                                   maxiter=maxiter, full_output=True)
            except (ValueError, RuntimeError) as exc:
                assert not settled[i]
                with pytest.raises((ValueError, RuntimeError)) as port:
                    potential.brentq(*args, 1e-12, 8.9e-16, maxiter)
                assert port.type is type(exc)
                continue
            assert settled[i]
            assert roots[i] == root and iterations[i] == res.iterations
            assert potential.brentq(*args, 1e-12, 8.9e-16, maxiter) == (
                root, res.iterations, res.function_calls)

    # a NaN value met inside the bracket, at its third evaluation
    def nan_inside(v):
        return math.nan if 0 < v < 0.5 else v - 0.3

    with pytest.raises(ValueError) as ref:
        brentq(nan_inside, -1.0, 1.0, xtol=1e-12, rtol=8.9e-16)
    with pytest.raises(ValueError) as port:
        potential.brentq(nan_inside, -1.0, 1.0, 1e-12, 8.9e-16)
    assert str(port.value) == str(ref.value)


def test_brent_lanes_hand_stragglers_to_the_scalar_loop(monkeypatch):
    # on a 64-point scan grid of C at (2, -1.1), two of the 128 root lanes
    # run 21 and 24 iterations where the rest stop by 13: once fewer than
    # _SCALAR_LANES are live, each of them finishes in _brent_steps from
    # its own state and iteration number.  Roots and iteration counts equal
    # scalar brentq's, and with maxiter = 20 the stragglers reach it after
    # the handoff and come back unsettled, where brentq raises
    n, H = 2, -1.1
    c0, v0 = h.C0(n, H), h.v0(n, H)
    Cs = -np.geomspace(-c0 * (1 - 1e-6), 1e-9, 64)
    columns, brackets = [], []
    for C in Cs.tolist():
        coeffs = tuple(p_coefficients(n, H, C).tolist())
        hi = 2 * v0
        while horner(coeffs, hi) >= 0:
            hi *= 2
        columns += [coeffs, coeffs]
        brackets += [(1e-9 * v0, v0), (v0, hi)]
    coeffs = np.array(columns).T
    a, b = (np.array(ends) for ends in zip(*brackets))
    steps = potential._brent_steps
    for maxiter in (100, 20):
        expected = []
        for column, (lo, hi) in zip(columns, brackets):
            try:
                expected.append(potential.brentq(
                    lambda v: horner(column, v), lo, hi, 1e-15, 8.9e-16,
                    maxiter))
            except RuntimeError:
                expected.append(None)
        handed = []  # the iteration each handed-off lane starts at
        monkeypatch.setattr(potential, "_brent_steps",
                            lambda f, state, i, *rest: handed.append(i)
                            or steps(f, state, i, *rest))
        roots, iterations, settled = _brentq_lanes(coeffs, a, b, 1e-15,
                                                   8.9e-16, maxiter)
        monkeypatch.undo()
        assert 0 < len(handed) < potential._SCALAR_LANES
        assert 0 < handed[0] < 20 and len(set(handed)) == 1
        unsettled = [j for j, res in enumerate(expected) if res is None]
        assert len(unsettled) == (2 if maxiter == 20 else 0)
        for j, res in enumerate(expected):
            if res is None:
                assert not settled[j]
            else:
                assert settled[j] and roots[j] == res.root, (maxiter, j)
                assert iterations[j] == res.iterations, (maxiter, j)


def test_degenerate_oscillation_reported():
    n, H = 2, -1.1
    c0 = h.C0(n, H)
    with pytest.raises(h.DegenerateOscillationError):
        h.oscillation_roots(
            h.ShapeParams(n, H, c0 + 0.5 * DEGENERATE_REL_GAP * abs(c0)))


def test_degenerate_in_floats_reported():
    # C is rel 1e-9 above C0, outside the relative gap, but in floats
    # p(v0) <= 0: no bracket holds the roots, so the scalar routine
    # raises DegenerateOscillationError and the grid leaves the lane unsettled
    n, H, C = 8, -1000.0, -0.17782794394972942
    assert C - h.C0(n, H) >= DEGENERATE_REL_GAP * abs(h.C0(n, H))
    with pytest.raises(h.DegenerateOscillationError):
        h.oscillation_roots(h.ShapeParams(n, H, C))
    t1, t2, settled = oscillation_roots_grid(n, H, [C, 0.5 * h.Ctilde(n, H)])
    assert settled.tolist() == [False, True]
    assert np.isnan([t1[0], t2[0]]).all()
    assert (t1[1], t2[1]) == h.oscillation_roots(
        h.ShapeParams(n, H, 0.5 * h.Ctilde(n, H)))


def test_q_prime_sign_pattern():
    for n, H in [(2, -1.1), (4, -1.7)]:
        p = h.ShapeParams(n, H, -0.2)
        v0 = h.v0(n, H)
        below = np.geomspace(1e-3 * v0, 0.999 * v0, 40)
        above = np.geomspace(1.001 * v0, 1e3 * v0, 40)
        assert np.all(h.eval_q_prime(p, below) > 0)
        assert np.all(h.eval_q_prime(p, above) < 0)


def test_q_tilde_identity():
    rng = np.random.default_rng(7)
    for n, H, C in [(2, -1.1, -0.5), (3, -1.6, -0.2)]:
        p = h.ShapeParams(n, H, C)
        for v in rng.uniform(0.3, 3.0, 8):
            lhs = h.eval_q_tilde(p, v) * (-C)
            rhs = h.eval_q(p, math.sqrt(-C) * v)
            assert lhs == pytest.approx(rhs, abs=1e-12 * max(1, abs(rhs)))


def test_lambda_sign_criterion():
    n, H = 2, -1.3
    ct = h.Ctilde(n, H)
    for c, expect_neg in [(ct * 1.05, True), (ct * 0.95, False)]:
        t1, _ = h.oscillation_roots(h.ShapeParams(n, H, c))
        lam_max = H + t1 ** (-n)
        assert (lam_max < 0) == expect_neg
    t1, _ = h.oscillation_roots(h.ShapeParams(n, H, ct))
    assert H + t1 ** (-n) == pytest.approx(0.0, abs=1e-12)


def test_Q_and_h_special_values():
    for n, H in [(2, -1.0), (3, -1.5), (5, -7.0)]:
        assert h.eval_Q(n, H, 1.0) == pytest.approx(0.0, abs=1e-12 * H * H)
        assert h.eval_h(n, H, 1.0) == pytest.approx(n * H, rel=1e-14)


def test_Q_second_derivative_identity():
    # -Q''(1)/2 = n^2 H^2 - 1, checked by central differences
    for n, H in [(2, -1.2), (4, -3.0)]:
        d = 1e-5
        second = (h.eval_Q(n, H, 1 + d) - 2 * h.eval_Q(n, H, 1.0)
                  + h.eval_Q(n, H, 1 - d)) / (d * d)
        assert -0.5 * second == pytest.approx(n * n * H * H - 1, rel=1e-5)


def test_h_regular_through_one():
    # the factored form must be smooth across the removable point v = 1
    n, H = 4, -1.3
    vals = [h.eval_h(n, H, v) for v in (1 - 1e-9, 1.0, 1 + 1e-9)]
    assert max(vals) - min(vals) < 1e-7


def test_shape_params_validation():
    with pytest.raises(h.DomainError):
        h.ShapeParams(2, -0.9, -0.5)
    with pytest.raises(h.DomainError):
        h.ShapeParams(0, -1.1, -0.5)
    with pytest.raises(h.ParameterRangeError):
        h.ShapeParams(2, -1.1, -10.0)
