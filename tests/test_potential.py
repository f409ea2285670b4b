import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import frozen
import hypcmc as h
from hypcmc import potential
from hypcmc.cli import main
from hypcmc.potential import (
    DEGENERATE_REL_GAP,
    _Q_upper_root,
    horner,
    oscillation_roots_grid,
)

from oracles import roots_closed_form_n2


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


def test_eval_p_is_v_power_times_q():
    # p is Horner on p_coefficients, bit for bit, on floats and arrays;
    # it equals v^(2n-2) q(v) to 1e-14 relative (measured 4.4e-15, at
    # (5, -2, -0.1), v = 1), and needs C and v > 0 as eval_q does
    vs = np.array([0.25, 0.5, 1.0, 2.0, 4.0])
    for n, H, C in [(2, -1.1, -0.5), (3, -1.5, -0.3), (5, -2.0, -0.1),
                    (8, -1.0001, -0.2)]:
        params = h.ShapeParams(n, H, C)
        coeffs = potential.p_coefficients(n, H, C)
        p = h.eval_p(params, vs)
        assert p.tobytes() == horner(coeffs, vs).tobytes()
        assert h.eval_p(params, 2.0) == horner(coeffs, 2.0)
        assert isinstance(h.eval_p(params, 2.0), float)
        q = vs ** (2 * n - 2) * h.eval_q(params, vs)
        assert np.all(np.abs(p - q) <= 1e-14 * np.abs(p))
        for v in (0.0, -1.0, np.array([1.0, 0.0])):
            with pytest.raises(h.DomainError):
                h.eval_p(params, v)
    with pytest.raises(h.DomainError):
        h.eval_p(h.ShapeParams(2, -1.1, None), 1.0)


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


def test_shape_params_name_the_bound_a_nan_breaks():
    # a NaN C compares false with both bounds, so it is not said to
    # violate one; a C0 that overflows to NaN is H's fault, not C's
    with pytest.raises(h.ParameterRangeError) as exc:
        h.ShapeParams(2, -1.1, math.nan)
    assert str(exc.value) == "C=nan is not a number"
    with pytest.raises(h.DomainError) as exc:
        h.ShapeParams(2, -1e200, -1e-300)
    assert str(exc.value) == "H=-1e+200 is too large: C0=nan"
    with pytest.raises(h.ParameterRangeError) as exc:
        h.ShapeParams(2, -1.1, 0.5)
    assert str(exc.value) == (
        f"C=0.5 outside (C0, 0) with C0={h.C0(2, -1.1)}: violates C < 0")


def test_landmarks_take_the_C_check_of_ShapeParams():
    # with C, landmarks builds the ShapeParams first, so a NaN C and an H
    # whose C0 overflows are named as ShapeParams names them
    with pytest.raises(h.ParameterRangeError) as exc:
        h.landmarks(2, -1.1, C=math.nan)
    assert str(exc.value) == "C=nan is not a number"
    with pytest.raises(h.DomainError) as exc:
        h.landmarks(2, -1e200, C=-1e-300)
    assert str(exc.value) == "H=-1e+200 is too large: C0=nan"
    lm = h.landmarks(2, -1.1)
    assert (lm.t1, lm.C0, lm.C1) == (None, h.C0(2, -1.1), h.C1(-1.1))


SHAPE_REFUSALS = {
    "ShapeParams_C_None": (lambda: h.ShapeParams(2, -1.1, None),
                           "C is required, got None"),
    "landmarks": (lambda: h.landmarks(2, -0.5), "H must be < -1, got -0.5"),
    "roots_grid": (lambda: oscillation_roots_grid(0, -1.1, [-0.5]),
                   "n must be an integer >= 2, got 0"),
    "K_limit_at_C0_n=2.5": (lambda: h.K_limit_at_C0(2.5, -2.0),
                            "n must be an integer >= 2, got 2.5"),
    "K_limit_at_C0_n=1": (lambda: h.K_limit_at_C0(1, -2.0),
                          "n must be an integer >= 2, got 1"),
    "K_limit_at_C0_H=-1": (lambda: h.K_limit_at_C0(3, -1.0),
                           "H must be < -1, got -1.0"),
    "b2": (lambda: h.b2(math.nan), "H must be < -1, got nan"),
    "solve_C_n=-2": (lambda: h.solve_C(-2, -1.1, h.WindingTarget(1, 1)),
                     "n must be an integer >= 2, got -2"),
    "solve_C_n=0": (lambda: h.solve_C(0, -1.1, h.WindingTarget(1, 1)),
                    "n must be an integer >= 2, got 0"),
    "solve_C_H=inf": (lambda: h.solve_C(2, math.inf, h.WindingTarget(1, 1)),
                      "H must be < -1, got inf"),
    # n^2 H^2 overflows, and C0 with it
    "landmarks_H=-1e200": (lambda: h.landmarks(2, -1e200),
                           "H=-1e+200 is too large: C0=nan"),
    "K_limit_at_C0_H=-1e200": (lambda: h.K_limit_at_C0(2, -1e200),
                               "H=-1e+200 is too large: C0=nan"),
    "b2_H=-1e200": (lambda: h.b2(-1e200), "H=-1e+200 is too large: C0=nan"),
    "roots_grid_H=-1e200": (lambda: oscillation_roots_grid(3, -1e200, [-0.5]),
                            "H=-1e+200 is too large: C0=nan"),
    "solve_C_H=-inf": (lambda: h.solve_C(2, -math.inf, h.WindingTarget(1, 1)),
                       "H=-inf is too large: C0=nan"),
}


@pytest.mark.parametrize("call, message", SHAPE_REFUSALS.values(),
                         ids=SHAPE_REFUSALS.keys())
def test_every_entry_point_refuses_a_bad_shape_alike(call, message):
    # one (n, H) rule, potential._finite_C0, behind every entry point
    with pytest.raises(h.DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", range(2, 9))
def test_upper_bracket_stays_below_four_r2(n):
    # every root pair, from next to C0 to C = -5e-324, lies in
    # a0 <= t1 < v0 < t2 <= b0 (r2 = b0 = (-1 - H)^(-1/n), the root of p
    # at C = 0, a0 = (1 - H)^(-1/n)), with a0, v0 and b0 at 40 digits and
    # the ends widened by 4 ulps for the roots that round onto them: the
    # upper root stays below r2, let alone 4 r2, with no bracket searched
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    for H in (math.nextafter(-1, -math.inf), -1.02, -1e6):
        c0 = h.C0(n, H)
        if not c0 < 0:
            # next to H = -1 the float C0 can lose every digit (0 at
            # n = 6, 7), and then no C makes a shape
            continue
        with mp.workdps(40):
            Hm = mp.mpf(H)
            s = mp.sqrt(n * n * Hm * Hm - 4 * n + 4)
            a0, v0, b0 = (float(v) for v in (
                (1 - Hm) ** (mp.mpf(-1) / n),
                ((Hm * (n - 2) + s) / (2 * Hm * Hm - 2)) ** (mp.mpf(1) / n),
                (-1 - Hm) ** (mp.mpf(-1) / n)))
        Cs = -np.geomspace(-c0 * (1 - 1e-11), 5e-324, 64)
        t1, t2, found = oscillation_roots_grid(n, H, Cs)
        assert found[-1] and found.sum() >= 63
        t1, t2 = t1[found], t2[found]
        assert (a0 * (1 - 4 * eps) <= t1).all() and (t1 < v0).all(), (n, H)
        assert (v0 < t2).all() and (t2 <= b0 * (1 + 4 * eps)).all(), (n, H)
        for C, pair in zip(Cs[found][[0, -1]].tolist(),
                           zip(t1[[0, -1]].tolist(), t2[[0, -1]].tolist())):
            assert h.oscillation_roots(h.ShapeParams(n, H, C)) == pair


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


def test_roots_are_correctly_rounded():
    # each root is the double nearest its 50-digit value at the exact float
    # inputs (float() of a decimal string rounds correctly): next to C0,
    # mid-branch, on both sides of Ctilde and next to C = 0, for n = 2..8
    # and H from -1.0001 to -100.  The grid gives the same doubles
    by_nH = {}
    for (n, H, C), refs in frozen.ROOTS.items():
        roots = h.oscillation_roots(h.ShapeParams(n, H, C))
        assert roots == tuple(map(float, refs)), (n, H, C)
        by_nH.setdefault((n, H), []).append((C, roots))
    for (n, H), entries in by_nH.items():
        t1, t2, settled = oscillation_roots_grid(n, H, [C for C, _ in entries])
        assert settled.all()
        assert list(zip(t1.tolist(), t2.tolist())) == [r for _, r in entries]


def test_C1_keeps_its_digits_at_large_H():
    # C1 = 2 / (H - sqrt((H - 1)(H + 1))) subtracts no close numbers:
    # within 1 eps of 2 (H + sqrt(H^2 - 1)) at 50 digits, at the float H
    mp = pytest.importorskip("mpmath")
    worst = 0.0
    for H in (-np.geomspace(1.0001, 1e6, 400)).tolist():
        with mp.workdps(50):
            ref = 2 * (mp.mpf(H) + mp.sqrt(mp.mpf(H) ** 2 - 1))
            worst = max(worst, float(abs((h.C1(H) - ref) / ref)))
    assert worst <= np.finfo(float).eps, worst


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


def test_rootless_R_is_settled_without_doubling(monkeypatch):
    # at n = 2, H = -1 no coefficient of R is negative (R = x + 2), so Q
    # has no root above 1: the scalar set-up raises LandmarkError with no
    # Horner call, and the lane of H = -1 adds no Horner call to a grid
    calls = []
    monkeypatch.setattr(potential, "horner",
                        lambda c, v: calls.append(v) or horner(c, v))
    text = "Q(n=2, H=-1.0) has no root above 1; xi is not defined here"
    with pytest.raises(h.LandmarkError) as exc:
        _Q_upper_root(2, -1.0)
    assert (str(exc.value), len(calls)) == (text, 0)
    grid = -np.geomspace(10.0, 1.0, 64)  # find_H0's scan, ending at -1
    counts = []
    for Hs in (grid, grid[:-1], [-1.5, -1.0], [-1.5]):
        calls.clear()
        x, settled = potential._Q_upper_root_grid(2, Hs)
        assert settled.tolist() == [H != -1.0 for H in Hs]
        counts.append(len(calls))
    assert counts[0] == counts[1] and counts[2] == counts[3]
    with pytest.raises(h.LandmarkError) as exc:
        h.xi_grid(2, [-1.5, -1.0])
    assert str(exc.value) == text
    assert h.xi_grid(2, [-1.5, -1.0], missing_as_none=True)[1].tolist() == [
        False, True]


def _R_sign(coeffs, x):
    """The sign of R at the float x with its float coefficients, exactly:
    with x = p/q and the coefficients c_k = a_k / d over one power of two
    d, integer Horner steps y = y p + a_k q^k give R(x) q^deg d."""
    p, q = x.as_integer_ratio()
    ratios = [c.as_integer_ratio() for c in coeffs]
    d = max(den for _, den in ratios)
    y, qk = 0, 1
    for num, den in ratios:
        y = y * p + num * (d // den) * qk
        qk *= q
    return (y > 0) - (y < 0)


@pytest.mark.parametrize("n", [*range(2, 13), 20, 100, 514])
def test_Q_upper_end_bounds_the_root(n):
    # where R's coefficients are finite, the closed-form bound on their
    # _scaled copy (as _Q_upper_root takes it) is finite and lies at or
    # above R's root x*: R <= 0 at hi, exactly, at every H; the grid
    # equals the scalar bit for bit, and refuses where it refuses (at
    # n = 514 the coefficients are non-finite past H = -2)
    Hs = ([-1.0] if n >= 3 else []) + [math.nextafter(-1.0, -math.inf)]
    Hs += (-1 - np.geomspace(1e-15, 1e150, 60)).tolist()
    x, settled = potential._Q_upper_root_grid(n, Hs)
    with np.errstate(over="ignore", invalid="ignore"):
        columns = potential._Q_shifted(n, np.array(Hs))
    finite = np.isfinite(columns).all(axis=0)
    assert finite.sum() >= 8
    for H, root, ok, is_finite in zip(Hs, x.tolist(), settled.tolist(),
                                      finite):
        if not is_finite:  # refused by _Q_upper_root's first check
            assert not ok, (n, H)
            continue
        coeffs = potential._Q_shifted(n, H)
        hi = potential._Q_upper_end(potential._scaled(coeffs))
        assert math.isfinite(hi), (n, H)
        assert _R_sign(coeffs, hi) <= 0, (n, H)
        try:
            expected = _Q_upper_root(n, H)
        except h.HypcmcError:
            assert not ok, (n, H)
        else:
            assert ok and root == expected, (n, H)


def test_Q_newton_steps_settle_every_root():
    # _Q_NEWTON_STEPS is enough: on a dense grid of H, and next to H = -1,
    # a further step (the compensated one that ends the rule) moves no
    # root by more than 1 ulp
    Hs = np.concatenate([-np.geomspace(1.0000001, 1e6, 4000),
                         [-1 - 1e-8, -1 - 1e-12, math.nextafter(-1, -math.inf)]])
    for n in range(2, 13):
        x, settled = potential._Q_upper_root_grid(n, Hs)
        assert settled.all()
        coeffs = potential._Q_shifted(n, Hs)
        step = (potential._compensated_horner(coeffs, x)
                / horner(potential._derivative(coeffs), x))
        assert (np.abs(step) <= np.spacing(x)).all(), n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=st.integers(2, 12),
       Hs=st.lists(st.one_of(st.floats(-1e6, -1.0),
                             st.floats(1.0, 16.0).map(lambda e: -1 - 10 ** -e),
                             st.just(math.nextafter(-1.0, -math.inf))),
                   min_size=1, max_size=8))
def test_Q_upper_root_grid_equals_scalar_roots(n, Hs):
    # the lanes of _Q_upper_root_grid equal _Q_upper_root bit for bit,
    # next to H = -1 too, and are unsettled exactly where it raises
    x, settled = potential._Q_upper_root_grid(n, Hs)
    for H, root, ok in zip(Hs, x.tolist(), settled.tolist()):
        try:
            expected = _Q_upper_root(n, H)
        except h.HypcmcError:
            assert not ok, (n, H)
        else:
            assert ok and root == expected, (n, H)


@pytest.mark.parametrize("n", [500, 514])
def test_Q_upper_root_keeps_its_bits_up_to_n_514(n):
    # on R's scaled coefficients Horner's rule and the derivative do not
    # overflow: x* ~ 3e-6 is found, R changes sign between x's float
    # neighbours (exactly, in integer arithmetic), and xi converges or
    # refuses for an overflow it names
    for H in (-1.0000001, -1.5):
        x = _Q_upper_root(n, H)
        coeffs = potential._Q_shifted(n, H)
        below, above = (math.nextafter(x, t) for t in (0.0, math.inf))
        assert _R_sign(coeffs, below) > 0 > _R_sign(coeffs, above), (n, H)
        try:
            res = h.xi(n, H)
        except h.HypcmcError as exc:
            assert "overflow" in str(exc), (n, H)
        else:
            assert res.converged and -2 * math.pi < res.value < 0, (n, H)


def test_p_newton_steps_settle_every_root():
    # _P_NEWTON_STEPS is enough: on tests/root_sweep.py's grid with the H
    # next to -1 it adds, a further compensated step moves no root by more
    # than 1 ulp, next to the double root at C0 too
    Hs = (-np.geomspace(1.0001, 1e6, 13)).tolist() + [
        -1 - 1e-8, math.nextafter(-1, -math.inf)]
    gaps = (1e-11, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2)
    for n in range(2, 9):
        for H in Hs:
            c0 = h.C0(n, H)
            if not c0 < 0:
                continue
            Cs = np.array([c0 + g * abs(c0) for g in gaps]
                          + [-((-c0) ** (1 - f)) * 1e-9 ** f
                             for f in (0.25, 0.5, 0.75, 1.0)])
            t1, t2, settled = oscillation_roots_grid(n, H, Cs)
            for C in Cs[~settled].tolist():  # refused, as a loop would
                with pytest.raises(h.HypcmcError):
                    h.oscillation_roots(h.ShapeParams(n, H, C))
            Cs = Cs[settled]
            coeffs = potential.p_coefficients(n, H, Cs)
            lows = potential._p_lows(n, H, Cs)
            for x in (t1[settled], t2[settled]):
                dp = potential._p_factors(n, H, Cs, x)[1]
                step = potential._compensated_horner(coeffs, x, lows) / dp
                assert (np.abs(step) <= np.spacing(x)).all(), (n, H)


def _scalar_roots(n, H, C):
    """oscillation_roots, or None where it raises for this C."""
    try:
        return h.oscillation_roots(h.ShapeParams(n, H, C))
    except (h.ParameterRangeError, h.DegenerateOscillationError):
        return None


def _bits(roots):
    return None if roots is None else np.array(roots).view(np.int64).tolist()


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 8),
       H=st.one_of(st.floats(-30.0, -1.02),
                   st.floats(1.0, 12.0).map(lambda e: -1 - 10 ** -e)),
       edge=st.lists(st.floats(0.5, 1e6), max_size=3),
       near=st.lists(st.tuples(st.sampled_from([-1, 1]), st.floats(-12.0, -1.0)),
                     max_size=4),
       spread=st.lists(st.floats(0.0, 1.0), max_size=4))
def test_roots_grid_equals_scalar_roots(n, H, edge, near, spread):
    # the lane-wise roots of a whole grid equal the scalar roots bit for
    # bit: next to the degenerate edge at C0 (inside it the lane is not
    # settled and its roots are NaN, where the scalar call raises), on
    # both sides of Ctilde, and spread geometrically from C0 to -1e-9, at
    # H down to -30 and at H = -1 - 10^-e next to -1, where the starts
    # change regime
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


def test_polish_keeps_x_where_the_derivative_vanishes():
    # a Newton step at p'(x) = 0 (here x = 0) leaves x as it is, on a
    # float and on lanes alike, instead of dividing by zero
    for n in (2, 3):
        args = (n, -1.1, -0.5, potential.p_coefficients(n, -1.1, -0.5),
                potential._p_lows(n, -1.1, -0.5))
        assert potential._p_newton(*args, 0.0)[0] == 0.0
        lanes = potential._p_newton(*args, np.array([0.0, 2.0]))[0]
        assert lanes.tolist() == [0.0, potential._p_newton(*args, 2.0)[0]]


def test_root_that_does_not_settle_raises(monkeypatch, capsys):
    # with one Newton step, the compensated one, a root of p does not
    # settle (at n = 2 the start is p's root in closed form and settles
    # at once, so n = 3): the scalar call raises NonConvergenceError
    # naming n, H and C, the grid leaves the lane unsettled, and solve-c
    # exits 3 with a JSON error
    n, H, C = 3, -1.5, -0.5
    monkeypatch.setattr(potential, "_P_NEWTON_STEPS", 1)
    with pytest.raises(h.NonConvergenceError,
                       match=r"n=3, H=-1\.5, C=-0\.5"):
        h.oscillation_roots(h.ShapeParams(n, H, C))
    t1, t2, settled = oscillation_roots_grid(n, H, [C])
    assert settled.tolist() == [False] and np.isnan([t1[0], t2[0]]).all()
    rc = main(["solve-c", "--n", "3", "--H", "-1.5", "--k", "1", "--m", "5"])
    assert rc == 3
    assert "NonConvergenceError" in capsys.readouterr().err


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


def test_C_below_the_true_C0_is_degenerate():
    # at (5, -1e6) the float C0 lies about 1e-3 |C0| below the true one;
    # a C between them passes ShapeParams, but p has no positive roots:
    # the range check, on C0 formed without cancellation, refuses it
    # before any Newton step, and the grid leaves the lane unsettled
    n, H = 5, -1e6
    c0 = potential._p_double_root(n, H)[1]
    C = 0.5 * (h.C0(n, H) + c0)
    assert h.C0(n, H) < C < c0
    with pytest.raises(h.DegenerateOscillationError):
        h.oscillation_roots(h.ShapeParams(n, H, C))
    assert oscillation_roots_grid(n, H, [C])[2].tolist() == [False]


@pytest.mark.parametrize("n, H, C", [
    (5, -1.0001, -1.0517768578843776), (6, -1.0001, -1.0340855669109452),
    (5, -1.0001, -1.051776857890049), (6, -1.001, -1.0336982035024185),
    (8, -1.001, -1.0177831893786762), (3, -1.001, -1.1889683864013183)])
def test_roots_next_to_C0_are_correctly_rounded(n, H, C):
    # 1e-12 to 1e-11 |C0| above C0 the plain steps stall in p's rounding
    # noise some 1e4 to 1e5 ulps off; the last (Halley) step still gives
    # each root within half an ulp of p's exact root at the float inputs
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(0)] * (2 * n + 1)
        coeffs[0] = 1 - mpmath.mpf(H) ** 2
        coeffs[2] += C
        coeffs[n] += -2 * mpmath.mpf(H)
        coeffs[2 * n] += -1
        exact = sorted(mpmath.re(r) for r in mpmath.polyroots(
            coeffs, maxsteps=200, extraprec=120)
            if abs(mpmath.im(r)) < 1e-30 and mpmath.re(r) > 0)
        roots = h.oscillation_roots(h.ShapeParams(n, H, C))
        for x, ref in zip(roots, exact, strict=True):
            assert abs(x - ref) <= np.spacing(x) / 2, (x, ref)


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


# --- horner against polyval's sequence -----------------------------------


def _polyval_from_zero(coeffs, v):
    """np.polyval's operation sequence: y = y * v + c from y = 0."""
    y = 0.0
    for c in coeffs:
        y = y * v + c
    return y


def _same_bits(a, b):
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_horner_equals_polyval_sequence_for_degrees_1_to_16():
    # horner starts from the leading coefficient; polyval's first step
    # 0 * v + c0 gives the same bits for finite v, on floats and on
    # (rows, 1) coefficient columns against (rows, nodes) v
    rng = np.random.default_rng(24)
    for degree in range(1, 17):
        coeffs = rng.normal(size=degree + 1) * 10.0 ** rng.integers(
            -3, 4, degree + 1)
        coeffs[rng.random(degree + 1) < 0.2] = 0.0
        coeffs[0] = rng.choice([-1, 1]) * rng.uniform(0.5, 2.0)
        for v in rng.uniform(-3.0, 3.0, 50).tolist() + [0.0, -0.0, 1.0]:
            got = horner(tuple(coeffs.tolist()), v)
            assert type(got) is float
            assert _same_bits(got, _polyval_from_zero(coeffs.tolist(), v))
            assert _same_bits(got, np.polyval(coeffs, v))
        rows, nodes = 37, 9
        columns = rng.normal(size=(degree + 1, rows, 1))
        v = rng.uniform(-2.0, 2.0, size=(rows, nodes))
        got = horner(columns, v)
        assert got.shape == (rows, nodes)
        assert _same_bits(got, _polyval_from_zero(columns, v))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=17),
       v=st.floats(-10.0, 10.0),
       rows=st.integers(1, 5))
def test_horner_equals_polyval_sequence_property(coeffs, v, rows):
    # wherever some coefficient is nonzero and v is finite; the columns
    # scale the coefficients per row and v per node
    assume(any(c != 0 for c in coeffs))
    assert _same_bits(horner(coeffs, v), _polyval_from_zero(coeffs, v))
    scale = np.arange(1, rows + 1, dtype=float)[:, None]
    columns = [c * scale for c in coeffs]
    nodes = v * np.array([1.0, -0.5, 0.25, 0.0])
    assert _same_bits(horner(columns, nodes),
                      _polyval_from_zero(columns, nodes))
