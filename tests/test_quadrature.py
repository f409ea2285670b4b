import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hypcmc as h
from hypcmc import potential, quadrature
from hypcmc.potential import DEGENERATE_REL_GAP
from hypcmc.quadrature import DEFAULT_TOL
from hypcmc.shooting import (
    C_GAP_LOWER_REL,
    C_GAP_UPPER,
    CTILDE_GUARD_REL,
    SCAN_POINTS_MAX,
)

import frozen
from oracles import (
    FLUX2_H,
    adaptive_simpson,
    agm_xi2,
    b2,
    carlson_flux2,
    flux2_grid,
    gauss_chebyshev_flux_n2,
    gauss_chebyshev_period_n2,
    geometric_flux,
    loop_angle_rate,
    q,
    singular_integral_extrapolated,
    two_call_phase_mean,
    xi2_direct,
)


# --- the tanh-sinh engine on analytically known integrals ---------------


def test_de_smooth_integral():
    res = h.de_integrate(lambda x, da, db: np.sin(x), 0.0, math.pi,
                         tol=1e-13)
    assert res.converged
    assert res.value == pytest.approx(2.0, abs=1e-13)


def test_de_both_endpoint_singularities():
    # int_0^1 dx / sqrt(x(1-x)) = pi
    res = h.de_integrate(lambda x, da, db: 1.0 / np.sqrt(da * db), 0.0, 1.0,
                         tol=1e-13)
    assert res.converged
    assert res.value == pytest.approx(math.pi, abs=1e-13)


def test_de_shifted_interval_offsets():
    # same integral moved to [5, 7]: x - 5 and 7 - x would lose half the
    # digits to rounding x onto the endpoints, the offsets do not
    res = h.de_integrate(lambda x, da, db: 1.0 / np.sqrt(da * db), 5.0, 7.0,
                         tol=1e-13)
    assert res.converged
    assert res.value == pytest.approx(math.pi, abs=1e-12)


def test_de_log_singularity():
    res = h.de_integrate(lambda x, da, db: np.log(da), 0.0, 1.0, tol=1e-13)
    assert res.value == pytest.approx(-1.0, abs=1e-12)


def test_de_error_estimate_is_honest():
    res = h.de_integrate(lambda x, da, db: 1.0 / np.sqrt(da * db), 0.0, 1.0,
                         tol=1e-11)
    assert abs(res.value - math.pi) <= max(res.abs_error_estimate, 1e-13)


def test_de_reports_nonconvergence_without_raising():
    # a hard interior spike stays unresolved through the last level
    res = h.de_integrate(lambda x, da, db: 1.0 / ((x - 0.3) ** 2 + 1e-14),
                         0.0, 1.0, tol=1e-13)
    assert not res.converged
    assert res.abs_error_estimate > 1e4
    # every node of every level was evaluated
    assert res.evaluations == sum(
        len(quadrature._level_nodes(level)[1])
        for level in range(quadrature.MAX_LEVEL + 1))


def test_de_input_validation():
    with pytest.raises(h.DomainError):
        h.de_integrate(lambda x, da, db: x, 1.0, 0.0)
    with pytest.raises(h.DomainError):
        h.de_integrate(lambda x, da, db: x, 0.0, 1.0, tol=0.0)


def test_de_nonfinite_integrand_reported_with_abscissa():
    with pytest.raises(h.EvaluationError) as exc:
        h.de_integrate(lambda x, da, db: np.where(x > 0.9, np.inf, x),
                       0.0, 1.0)
    assert exc.value.abscissa > 0.9


def test_de_integrand_error_propagates():
    # a failing vectorised integrand is a bug: it is not retried point by
    # point
    calls = []

    def f(x, da, db):
        calls.append(len(x))
        raise TypeError("not vectorised")

    with pytest.raises(TypeError, match="not vectorised"):
        h.de_integrate(f, 0.0, 1.0)
    assert len(calls) == 1 and calls[0] > 1


def test_de_deterministic():
    def f(x, da, db):
        return np.cos(3 * x) / np.sqrt(da * db)

    r1 = h.de_integrate(f, 0.0, 1.0, tol=1e-12)
    r2 = h.de_integrate(f, 0.0, 1.0, tol=1e-12)
    assert r1.value == r2.value
    assert r1.evaluations == r2.evaluations


def test_de_narrow_interval_drops_underflowing_nodes():
    # on an interval 1e-300 wide the outer node offsets underflow; those
    # nodes are dropped and the rest of the rule still converges
    res = h.de_integrate(lambda x, da, db: np.cos(x), 0.0, 1e-300)
    assert res.converged
    assert res.value == pytest.approx(1e-300, rel=1e-12)


# --- the phase rule -------------------------------------------------------


def _first_settled_mean(f, tol):
    """The first trapezoid mean on the nodes j pi / N, N = 16, 32, ...,
    that differs from the one at N / 2 by at most tol, and its N + 1."""
    N, previous = 8, None
    while True:
        vals = f(np.arange(N + 1) * (math.pi / N))
        mean = (np.sum(vals) - (vals[0] + vals[-1]) / 2) / N
        if previous is not None and abs(mean - previous) <= tol:
            return mean, N + 1
        N, previous = 2 * N, mean


def _as_results(columns):
    """(value, error, evaluations, converged) columns as a QuadResult list."""
    return [h.QuadResult(*row) for row in zip(*(c.tolist() for c in columns))]


def _xi_results(n, Hs, **kw):
    """The rows of xi_grid as QuadResult, None where the landmark is
    missing (with missing_as_none)."""
    columns, missing = h.xi_grid(n, Hs, **kw)
    return [None if gone else res
            for res, gone in zip(_as_results(columns), missing.tolist())]


def test_phase_mean_rows_retire_on_their_own():
    # the mean over [0, pi] of 1 / (b - cos phi) is 1 / sqrt(b^2 - 1); a
    # row closer to the pole at b = 1 needs more nodes, each row stops at
    # the first N where its mean moves by at most tol and equals the row
    # run alone, and a row that needs more than MAX_NODES is reported as
    # not converged
    b = np.array([10.0, 1.5, 1.01, 1 + 1e-12])

    def f(cols, phi):
        return 1 / (cols[0] - np.cos(phi))

    for tol in (1e-6, 1e-13):
        rows = _as_results(quadrature._phase_mean(f, (b,), tol))
        for i in range(3):
            mean, nodes = _first_settled_mean(lambda phi: f((b[i],), phi), tol)
            assert rows[i].converged and rows[i].abs_error_estimate <= tol
            assert rows[i].evaluations == nodes
            assert rows[i].value == pytest.approx(mean, rel=1e-14)
            assert rows[i] == _as_results(quadrature._phase_mean(
                f, (b[i:i + 1],), tol))[0]
    for i in range(3):
        assert rows[i].value == pytest.approx(1 / math.sqrt(b[i] ** 2 - 1),
                                              rel=1e-13)
    assert rows[0].evaluations < rows[1].evaluations < rows[2].evaluations
    assert not rows[3].converged
    assert rows[3].evaluations == quadrature.MAX_NODES + 1
    with pytest.raises(h.EvaluationError), np.errstate(divide="ignore"):
        quadrature._phase_mean(lambda cols, phi: cols[0] + 1 / np.sin(phi),
                               (np.zeros(1),), 1e-12)
    with pytest.raises(h.DomainError):
        quadrature._phase_mean(f, (b,), 0.0)


def test_phase_row_is_its_phase_mean_row():
    # the one-row loop on floats stops each b where _phase_mean's row does,
    # with its four fields bit for bit: rows converged at different N, the
    # row unconverged at MAX_NODES, and a row whose sum overflows (its
    # move is NaN); a non-finite value raises at the same phi
    b = np.array([10.0, 1.5, 1.01, 1 + 1e-12])

    def f(cols, phi):
        return 1 / (cols[0] - np.cos(phi))

    for tol in (1e-6, 1e-13):
        rows = _as_results(quadrature._phase_mean(f, (b,), tol))
        for i, B in enumerate(b.tolist()):
            row = quadrature._phase_row(lambda phi: f((B,), phi), tol)
            assert h.QuadResult(*row) == rows[i]
            assert list(map(type, row)) == [float, float, int, bool]
    assert not rows[3].converged
    assert rows[3].evaluations == quadrature.MAX_NODES + 1
    huge = np.array([1e308])
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [_as_results(quadrature._phase_mean(
            lambda cols, phi: cols[0] + 0 * phi, (huge,), 1e-12))[0],
            h.QuadResult(*quadrature._phase_row(
                lambda phi: huge[0] + 0 * phi, 1e-12))]
    # NaN != NaN, so the two rows are compared by repr
    assert repr(rows[0]) == repr(rows[1])
    assert rows[1].evaluations == 17 and not rows[1].converged
    # a non-finite value in the first call (at an N = 16 midpoint) and in
    # a later one (an N = 64 midpoint)
    for where in (math.pi / 16, quadrature._phase_nodes(64)[1].item()):

        def g(phi, where=where):
            return np.where(phi == where, np.inf, 1 / (1.01 - np.cos(phi)))

        raised = []
        for call in (lambda: quadrature._phase_mean(
                         lambda cols, phi: cols[0] + g(phi), (np.zeros(1),),
                         1e-13),
                     lambda: quadrature._phase_row(g, 1e-13)):
            with pytest.raises(h.EvaluationError) as exc:
                call()
            raised.append((str(exc.value), exc.value.abscissa))
        assert raised[0] == raised[1]
        assert raised[0][1] == where
    with pytest.raises(h.DomainError):
        quadrature._phase_row(lambda phi: f((2.0,), phi), 0.0)


def test_phase_rule_equals_the_two_call_rule(monkeypatch):
    # the first call takes the 17 nodes of N = 16, and the four columns
    # stay those of the rule with one call per level, bit for bit: the
    # flux on the noroot benchmark anchor's scan grids (n = 2, H = -1.1,
    # embedded; 64 and 4096 points), and xi on find_H0's grid (n = 2..5)
    # and the fig6-fig8 sweep grids
    phase_mean, rows = quadrature._phase_mean, []

    def both(integrand, columns, tol):
        new = phase_mean(integrand, columns, tol)
        old = two_call_phase_mean(integrand, columns, tol,
                                  quadrature.MAX_NODES)
        for a, b in zip(new, old):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        rows.append(len(new[0]))
        return new

    monkeypatch.setattr(quadrature, "_phase_mean", both)
    n, H = 2, -1.1
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    lo, hi = c0 + C_GAP_LOWER_REL * abs(c0), ct - CTILDE_GUARD_REL * abs(ct)
    for points in (64, SCAN_POINTS_MAX):
        h.flux_K_grid(n, H, -np.geomspace(-lo, -hi, points))
    for n in (2, 3, 4, 5):
        h.xi_grid(n, -np.geomspace(10.0, 1.0, 64), missing_as_none=True)
    for n in (3, 4, 5):
        h.xi_grid(n, np.linspace(-10.0, -1.0, 128))
    # every grid is one phase rule; find_H0's n = 2 grid ends at H = -1
    assert rows == [64, SCAN_POINTS_MAX, 63, 64, 64, 64, 128, 128, 128]


def test_phase_rule_calls_per_flux(monkeypatch):
    # a C that converges at N = 32 takes two integrand calls of the
    # one-row loop (17 nodes, then 16 midpoints), where one call per level
    # made three; one that converges at N = 16 takes one call.  Scalar
    # flux_K and xi run no _phase_mean
    phase_row, calls = quadrature._phase_row, []

    def counted(integrand, tol):
        return phase_row(lambda phi: calls.append(len(phi))
                         or integrand(phi), tol)

    def refused(*args):
        raise AssertionError("a scalar integral ran the grid's phase rule")

    monkeypatch.setattr(quadrature, "_phase_row", counted)
    monkeypatch.setattr(quadrature, "_phase_mean", refused)
    for C, evaluations, nodes in ((-0.5, 33, [17, 16]), (-1.0, 17, [17])):
        calls.clear()
        res = h.flux_K(h.ShapeParams(2, -1.1, C))
        assert (res.evaluations, calls) == (evaluations, nodes)
    calls.clear()
    res = h.xi(2, -1.1)
    assert res.evaluations == sum(calls) and calls[0] == 17


def test_phase_rule_non_finite_at_the_n8_node_first():
    # non-finite values at the N = 8 node pi/4 (row 1) and at the earlier
    # N = 16 midpoint pi/16 (row 0) are reported at pi/4, as by the rule
    # with one call per level, which evaluated N = 8 first; a midpoint
    # alone is reported at its own phi
    for bad, expected in (({1: math.pi / 4, 0: math.pi / 16}, math.pi / 4),
                          ({0: math.pi / 16}, math.pi / 16)):

        def f(cols, phi):
            live = cols[0][:, 0]  # the rows' own numbers
            vals = np.ones((len(live), len(phi)))
            for row, where in bad.items():
                vals[live == row, phi == where] = np.inf
            return vals

        raised = []
        for rule in (quadrature._phase_mean,
                     lambda *a: two_call_phase_mean(*a, quadrature.MAX_NODES)):
            with pytest.raises(h.EvaluationError) as exc:
                rule(f, (np.arange(2),), 1e-12)
            raised.append((str(exc.value), exc.value.abscissa))
        assert raised[0] == raised[1]
        assert raised[0][1] == expected


def test_phase_rule_columns_do_not_depend_on_the_block(monkeypatch):
    # the rows run in blocks of at most PHASE_BLOCK; a flux grid whose C
    # converge at different N and an xi grid give the same four columns,
    # bit for bit, in blocks of 3 rows as in one block.  The first three
    # C of the any-mode scan at (2, -1.1) converge at N = 16 and the rest
    # at N = 32; interleaved, they leave gaps in a block's live rows, whose
    # columns are then gathered rather than viewed
    n, H = 2, -1.1
    c0 = h.C0(n, H)
    scan = -np.geomspace(-(c0 + C_GAP_LOWER_REL * abs(c0)), C_GAP_UPPER, 64)
    Cs = scan[np.r_[3, 0, 4, 1, 5, 2, 6:64]]
    Hs = np.linspace(-10.0, -1.0, 128)
    phase_mean, cuts = quadrature._phase_mean, []

    def recorded(integrand, columns, tol):
        # each call's live rows, and whether their columns are a view
        return phase_mean(lambda cols, phi: cuts.append(
            (len(cols[0]), np.shares_memory(cols[0], columns[0])))
            or integrand(cols, phi), columns, tol)

    monkeypatch.setattr(quadrature, "_phase_mean", recorded)
    columns = {}
    for block in (3, len(Hs)):
        monkeypatch.setattr(quadrature, "PHASE_BLOCK", block)
        cuts.clear()
        columns[block] = (*h.flux_K_grid(n, H, Cs),
                          *h.xi_grid(3, Hs, 1e-11)[0])
        assert max(rows for rows, _ in cuts) == block
        # both a viewed run and a gathered run with gaps occur
        assert {viewed for _, viewed in cuts} == {True, False}
    assert columns[3][2].tolist() == [33, 17] * 3 + [33] * 58
    for a, b in zip(columns[3], columns[len(Hs)]):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# --- period T -----------------------------------------------------------


def test_period_against_gauss_chebyshev_n2():
    for H, C in [(-1.1, -0.5), (-1.3, -0.9), (-2.0, -0.4)]:
        res = h.period_T(h.ShapeParams(2, H, C), tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(
            gauss_chebyshev_period_n2(H, C), abs=1e-11)


def test_period_closed_form_n2():
    # for n = 2 the period is pi / sqrt(H^2 - 1) independent of C
    for H in (-1.1, -1.5, -3.0):
        T = math.pi / math.sqrt(H * H - 1)
        for C in (-0.9 * abs(h.C0(2, H)), -0.2, -1e-4):
            if not h.C0(2, H) < C < 0:
                continue
            res = h.period_T(h.ShapeParams(2, H, C), tol=1e-12)
            assert res.value == pytest.approx(T, rel=1e-12)


def test_period_higher_n_against_extrapolated_simpson():
    p = h.ShapeParams(3, -1.4, -0.4)
    t1, t2 = h.oscillation_roots(p)
    ref = 2 * singular_integral_extrapolated(
        lambda v: 1.0 / math.sqrt(q(3, -1.4, -0.4, v)), t1, t2)
    res = h.period_T(p, tol=1e-12)
    assert res.converged
    assert res.value == pytest.approx(ref, abs=1e-8)


# --- flux K -------------------------------------------------------------


def test_flux_against_gauss_chebyshev_n2():
    for H, C in [(-1.1, -0.5), (-1.3, -0.8), (-2.0, -0.3)]:
        res = h.flux_K(h.ShapeParams(2, H, C), tol=1e-12)
        assert res.converged
        assert res.value == pytest.approx(
            gauss_chebyshev_flux_n2(H, C), abs=1e-10)


def test_flux_near_axis_spike():
    # C is 9.2e-5 (relative) below Ctilde = 1/H, so r_min - 1 = 5.1e-9
    # (the r-minimum is 1.0e-4 from the axis); the integrand has a huge
    # interior-adjacent spike and a naive evaluation loses everything
    res = h.flux_K(h.ShapeParams(2, -1.1, -0.9091743461769703), tol=1e-11)
    assert res.converged
    assert res.value == pytest.approx(frozen.K_NEAR_AXIS_N2, abs=1e-9)


def test_flux_matches_geometric_ode():
    # the flux against the curvature equation integrated in the orbit
    # plane, on both sides of Ctilde (-0.90909 at n=2, H=-1.1; -0.76314 at
    # n=3, H=-1.5) and at the near-axis constant, where it is not -2*pi
    cases = [(2, -1.1, -0.95), (2, -1.1, -0.9091743461769703),
             (2, -1.1, -0.85), (2, -1.1, -0.5),
             (3, -1.5, -0.79), (3, -1.5, -0.6)]
    for n, H, C in cases:
        K = h.flux_K(h.ShapeParams(n, H, C), tol=1e-12).value
        assert K == pytest.approx(geometric_flux(n, H, C), abs=1e-9)


def test_deflation_rounds_once():
    # p's exact-input coefficients divided by the float roots in
    # double-double: every coefficient of the quotient is the exact one
    # (mpmath, 80 digits) correctly rounded, at each C of frozen.ROOTS;
    # on a grid the columns hold the same bits
    mp = pytest.importorskip("mpmath")
    by_nH = {}
    for n, H, C in frozen.ROOTS:
        t1, t2 = h.oscillation_roots(h.ShapeParams(n, H, C))
        rem = quadrature._deflated_coefficients(n, H, C, t1, t2)
        with mp.workdps(80):
            Hm = mp.mpf(H)
            exact = [1 - Hm * Hm] + [mp.mpf(0)] * (2 * n)
            exact[2] += mp.mpf(C)
            exact[n] += -2 * Hm
            exact[2 * n] += -1
            for root in (mp.mpf(t1), mp.mpf(t2)):
                quotient = [exact[0]]
                for c in exact[1:-1]:
                    quotient.append(c + root * quotient[-1])
                exact = quotient
            assert rem == tuple(float(c) for c in exact), (n, H, C)
        by_nH.setdefault((n, H), []).append((C, t1, t2, rem))
    for (n, H), entries in by_nH.items():
        C, t1, t2, rem = (np.array(col) for col in zip(*entries))
        columns = quadrature._deflated_coefficients(n, H, C, t1, t2)
        assert np.array(np.broadcast_arrays(*columns)).T.tolist() == rem.tolist()


def test_flux_against_frozen_grid():
    # flux_K and flux_K_grid against 50-digit mpmath values: to 1e-12
    # where C - C0 >= 1e-2 |C0| (worst 1.1e-14 here, 9.2e-13 over 188
    # such points at n = 2..8, H = -1.1..-10), and to 1e-10 closer to C0,
    # down to 1e-6 |C0| from C0 at H = -100 (1.5e-12, 1.4e-11 and 5.7e-12
    # for n = 2, 5, 8 there)
    by_nH = {}
    for (n, H, C), ref in frozen.K_GRID.items():
        res = h.flux_K(h.ShapeParams(n, H, C))
        assert res.converged, (n, H, C)
        c0 = h.C0(n, H)
        bound = 1e-12 if C - c0 >= 1e-2 * abs(c0) else 1e-10
        assert abs(res.value - ref) <= bound, (n, H, C, res.value - ref)
        by_nH.setdefault((n, H), []).append((C, res))
    for (n, H), entries in by_nH.items():
        assert _as_results(h.flux_K_grid(n, H, [C for C, _ in entries])) == [
            res for _, res in entries]


def test_flux_at_guard_edge_against_mpmath():
    # the last C of the embedded scan at H = -100, 1.6e-6 to 1.1e-5 |C0|
    # from C0, where the flux is 3.0e-12, 3.9e-12 and 6.6e-11 off for
    # n = 3, 5, 8
    for (n, H, C), ref in frozen.K_GUARD_EDGE.items():
        res = h.flux_K(h.ShapeParams(n, H, C))
        assert res.converged, (n, H, C)
        assert abs(res.value - ref) <= 1e-9, (n, H, C, res.value - ref)


def test_flux_runs_up_to_ctilde():
    # K(Ctilde (1 + eps)) converges on both sides down to eps = 1e-15 and
    # tends to xi - pi from below, xi + pi from above, within 2 eps + 1e-14
    # (measured: 0.98 eps + 3e-15); at n = 2 it is also the Carlson closed
    # form (measured: 4.7e-14 at |H| <= 10, 3.1e-12 at H = -100)
    for n in range(2, 9):
        for H in (-1.1, -1.5, -3.0, -10.0, -100.0):
            ct, x = h.Ctilde(n, H), h.xi(n, H).value
            for eps in 10.0 ** -np.arange(6, 16):
                for side in (1, -1):   # side 1: C below Ctilde
                    C = ct * (1 + side * eps)
                    K = h.flux_K(h.ShapeParams(n, H, C))
                    assert K.converged, (n, H, eps, side)
                    gap = abs(K.value - (x - side * math.pi))
                    assert gap <= 2 * eps + 1e-14, (n, H, eps, side, gap)
                    if n == 2:
                        bound = 1e-13 if H >= -10 else 1e-11
                        assert abs(K.value - carlson_flux2(H, C)) <= bound, (
                            H, eps, side)


@pytest.mark.parametrize("n, H", [(2, -1.1), (3, -1.5), (8, -10.0)])
def test_flux_at_ctilde_is_refused_naming_xi(n, H):
    # at the float Ctilde of these shapes H + (-C)^(-n/2) rounds to 0, so
    # d = t1 - sqrt(-C) is 0: each route refuses with a DomainError that
    # names xi as the flux there
    ct = h.Ctilde(n, H)
    assert H + (-ct) ** (-n / 2) == 0
    message = (f"C={ct!r} is Ctilde to rounding at n={n}, H={H!r}: d = t1 - "
               "sqrt(-C) is 0, the profile meets the rotation axis, and the "
               f"flux there is xi({n}, {H!r})")
    params = h.ShapeParams(n, H, ct)
    for call in (lambda: h.flux_K(params),
                 lambda: h.flux_K_grid(n, H, [0.5 * ct, ct]),
                 lambda: quadrature._flux_over_v(params),
                 lambda: h.integrate_profile(params)):
        assert _first_error(call) == (h.DomainError, message)


@pytest.mark.parametrize("n, C", [(8, -1e-300), (2, -1e-310), (2, None)])
def test_one_C_refusals_on_floats(n, C):
    # one C runs its angle rate on floats, where ** raises OverflowError
    # and math.sqrt ValueError where numpy gives inf and NaN: next to
    # C = 0, where the powers of -C overflow (d not finite), and at the
    # float Ctilde of (2, -1.1) (d = 0), every route raises the DomainError
    # that names the cause, as a grid does, with no warning on the way
    H = -1.1
    C = h.Ctilde(n, H) if C is None else C
    message = (f"the angle rate's powers of -C overflow at n={n}, "
               f"C={C!r}") if C > -1e-200 else (
        f"C={C!r} is Ctilde to rounding at n={n}, H={H!r}: d = t1 - "
        "sqrt(-C) is 0, the profile meets the rotation axis, and the "
        f"flux there is xi({n}, {H!r})")
    params = h.ShapeParams(n, H, C)
    for call in (lambda: h.flux_K(params),
                 lambda: h.flux_K_grid(n, H, [C]),
                 lambda: quadrature._flux_over_v(params),
                 lambda: h.integrate_profile(params)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _first_error(call) == (h.DomainError, message)


def test_flux_jump_across_threshold():
    # K jumps by -pi approaching Ctilde from below and by +pi from above;
    # xi sits at the midpoint of the two one-sided limits
    n, H = 2, -1.1
    ct = h.Ctilde(n, H)
    x = h.xi(n, H).value
    below = h.flux_K(h.ShapeParams(n, H, ct * (1 + 1e-7))).value
    above = h.flux_K(h.ShapeParams(n, H, ct * (1 - 1e-7))).value
    assert below == pytest.approx(x - math.pi, abs=1e-3)
    assert above == pytest.approx(x + math.pi, abs=1e-3)


@settings(max_examples=25, deadline=None, derandomize=True)
@example(n=2, H=-1.0001, rels=[(1, -3.0), (-1, -3.0)], lows=[-9.0, -6.0])
@example(n=3, H=-1.0001, rels=[(1, -8.0)], lows=[-7.0])
@example(n=7, H=-1001.0, rels=[(1, -3.0)], lows=[-9.0])
@given(n=st.integers(2, 8), H=st.floats(-4.0, 3.0).map(lambda e: -1 - 10 ** e),
       rels=st.lists(st.tuples(st.sampled_from([-1, 1]), st.floats(-8.0, -3.0)),
                     min_size=1, max_size=3),
       lows=st.lists(st.floats(-9.0, -6.0), min_size=1, max_size=2))
def test_flux_grid_equals_scalar_flux(n, H, rels, lows):
    # every field of every batched result equals the one-row path, which
    # runs on floats where the grid runs on columns: next to Ctilde on
    # both sides, at the solvers' guard-band edge and inside the band, at
    # the C0 end (1e-9 to 1e-6 of |C0| above it, 17 nodes) and in the
    # middle, for H from -1.0001, where rows take up to 129 nodes, to
    # -1001.  An offset from Ctilde is at most half the lower branch,
    # which is 2.5e-7 of |Ctilde| wide at (2, -1001)
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    Cs = [c0 + C_GAP_LOWER_REL * abs(c0), 0.5 * (c0 + ct),
          ct - CTILDE_GUARD_REL * abs(ct), ct * (1 + 0.5e-9),
          ct * (1 - 0.5e-9), 0.5 * ct]
    Cs += [ct * (1 + side * min(10.0 ** e, (ct - c0) / (2 * -ct)))
           for side, e in rels]
    scalar = [h.flux_K(h.ShapeParams(n, H, C)) for C in Cs]
    # only a C next to C0 may raise: the float C0 lets it in, but it may
    # still be degenerate in floats (C0 is 1.9e-9 off at H = -1000).  The
    # grid then raises the loop's first error, and equals the loop
    # without the C that raise
    lows = [c0 + 10.0 ** e * abs(c0) for e in lows]
    near_c0 = [_flux_or_error(n, H, C) for C in lows]
    errors = [r for r in near_c0 if not isinstance(r, h.QuadResult)]
    if errors:
        assert (_first_error(lambda: h.flux_K_grid(n, H, Cs + lows))
                == errors[0])
    for C, r in zip(lows, near_c0):
        if isinstance(r, h.QuadResult):
            Cs.append(C)
            scalar.append(r)
    assert _as_results(h.flux_K_grid(n, H, Cs)) == scalar


def _flux_or_error(n, H, C):
    """flux_K at (n, H, C), or the type and message of its error."""
    try:
        return h.flux_K(h.ShapeParams(n, H, C))
    except h.HypcmcError as exc:
        return type(exc), str(exc)


def test_flux_grid_embedded_scan_grids():
    # the first three grids of the (2, -1.1) embedded scan: the batch
    # does the same work (evaluations) and gives the same values
    n, H = 2, -1.1
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    lo = c0 + C_GAP_LOWER_REL * abs(c0)
    hi = ct - CTILDE_GUARD_REL * abs(ct)
    for points in (64, 128, 256):
        grid = -np.geomspace(-lo, -hi, points)
        batch = h.flux_K_grid(n, H, grid)
        scalar = [h.flux_K(h.ShapeParams(n, H, C)) for C in grid]
        assert _as_results(batch) == scalar
        assert batch[2].sum() == sum(r.evaluations for r in scalar)
    # errors come in grid order, as from a loop over flux_K
    with pytest.raises(h.ParameterRangeError):
        h.flux_K_grid(n, H, [-0.5, c0 * 1.01, -0.4])
    with pytest.raises(h.DomainError):
        h.flux_K_grid(n, H, [-0.5], tol=0.0)


def test_flux_grid_builds_no_per_C_objects(monkeypatch):
    # the work of the last grid of the (2, -1.1) embedded scan outside
    # the integrals: its range test and guard band are masks and its
    # results columns, so it builds no ShapeParams (the lane-wise roots
    # check n and H alone) and no QuadResult, where a loop over flux_K
    # builds 4096 of each and its phase rule 4096 more QuadResult
    n, H = 2, -1.1
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    grid = -np.geomspace(-(c0 + C_GAP_LOWER_REL * abs(c0)),
                         -(ct - CTILDE_GUARD_REL * abs(ct)), 4096)
    built = {"ShapeParams": 0, "QuadResult": 0}
    for module, name in ((quadrature, "ShapeParams"), (potential, "ShapeParams"),
                         (quadrature, "QuadResult")):
        cls = getattr(module, name)

        def counted(*args, cls=cls, name=name, **kw):
            built[name] += 1
            return cls(*args, **kw)

        monkeypatch.setattr(module, name, counted)
    value, _, evaluations, converged = h.flux_K_grid(n, H, grid)
    assert built == {"ShapeParams": 0, "QuadResult": 0}
    assert converged.all() and np.isfinite(value).all()
    assert evaluations.min() >= 17


# the (n, H) of the scan grids on which the powers are pinned
POWER_GRIDS = [(2, -1.02), (2, -1.1), (2, -1.658229), (3, -1.5), (5, -2.9),
               (8, -1.05), (4, -10.0), (8, -100.0)]
# every exponent _angle_rate raises -C or sqrt(-C) to, over n = 2..8
POWER_EXPONENTS = sorted({y for n in range(2, 9)
                          for y in (-n / 2, n / 2, 2 - 2 * n, *range(n))})


def _scan_grid(n, H):
    """solve_C's final grid over (C0, 0) at (n, H)."""
    c0 = h.C0(n, H)
    return -np.geomspace(-(c0 + C_GAP_LOWER_REL * abs(c0)), C_GAP_UPPER,
                         SCAN_POINTS_MAX)


def _power_per_entry(x, y):
    """x ** y by Python's float power (libm pow) on each entry."""
    x, y = np.broadcast_arrays(x, y)
    return np.array([a ** b for a, b in zip(x.ravel().tolist(),
                                            y.ravel().tolist())]
                    ).reshape(x.shape)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


def test_float_power_is_per_entry_power_on_scan_grids():
    # bit for bit, for all 23 exponents of _angle_rate on -C and sqrt(-C)
    # of eight 4096-point scan grids (1.5M entries); whether np.power
    # differs depends on the CPU, so it is not asserted
    assert len(POWER_EXPONENTS) == 23
    for n, H in POWER_GRIDS:
        C = _scan_grid(n, H)
        for base in (-C, np.sqrt(-C)):
            for y in POWER_EXPONENTS:
                assert _same_bits(np.float_power(base, y),
                                  _power_per_entry(base, y)), (n, H, y)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(1e-12, 1e3), min_size=1, max_size=64),
       y=st.sampled_from(POWER_EXPONENTS))
def test_float_power_is_per_entry_power_property(x, y):
    x = np.array(x)
    assert _same_bits(np.float_power(x, y), _power_per_entry(x, y))


def test_angle_rate_equals_its_per_entry_loop():
    # every field of the rate of a whole scan grid, powers included,
    # equals the loop that takes each power by ** on one float
    for n, H in POWER_GRIDS:
        C = _scan_grid(n, H)
        t1, t2, ok = potential.oscillation_roots_grid(n, H, C)
        C, t1, t2 = C[ok], t1[ok], t2[ok]
        assert len(C) > 4000
        rem = np.array(np.broadcast_arrays(
            *quadrature._deflated_coefficients(n, H, C, t1, t2)))
        rate = quadrature._angle_rate(n, H, C, t1, t2, rem)
        loop = loop_angle_rate(n, H, C, t1, t2, rem)
        for name, got, want in zip(rate._fields, rate, loop):
            assert _same_bits(got, want), (n, H, name)


def _first_error(call):
    try:
        call()
    except h.HypcmcError as exc:
        return type(exc), str(exc)
    return None


def test_flux_grid_errors_in_grid_order():
    # a degenerate C, the float Ctilde (d = 0) and C <= C0 mixed into one
    # grid with a C next to Ctilde, which runs: the batch raises the error
    # a loop over flux_K meets first, with its message
    n, H = 3, -1.5
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    degenerate = c0 + 0.5 * DEGENERATE_REL_GAP * abs(c0)
    near = ct * (1 + 0.5e-9)
    grids = [([-0.5, near, ct, degenerate, c0], h.DomainError),
             ([near, degenerate, -0.5, ct, c0], h.DegenerateOscillationError),
             ([-0.3, c0 * 1.01, near, degenerate, ct], h.ParameterRangeError)]
    for grid, kind in grids:
        expected = _first_error(lambda: [h.flux_K(h.ShapeParams(n, H, C))
                                         for C in grid])
        assert expected[0] is kind
        assert _first_error(lambda: h.flux_K_grid(n, H, grid)) == expected


def test_flux_grid_unsettled_roots_run_the_scalar_path(monkeypatch):
    # a C whose roots the lanes leave unsettled runs through scalar flux_K
    # once, and every result stays equal to the scalar loop
    n, H = 2, -1.1
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    grid = list(-np.geomspace(-(c0 + C_GAP_LOWER_REL * abs(c0)), 1e-3, 12))
    grid[5] = ct * (1 + 1e-6)
    roots_grid = quadrature.oscillation_roots_grid

    def leave_one_unsettled(n, H, Cs):
        t1, t2, settled = roots_grid(n, H, Cs)
        t1[5] = t2[5] = math.nan
        settled[5] = False
        return t1, t2, settled

    scalar_calls = []
    flux_K = quadrature.flux_K
    monkeypatch.setattr(quadrature, "oscillation_roots_grid", leave_one_unsettled)
    monkeypatch.setattr(quadrature, "flux_K",
                        lambda params, **kw: scalar_calls.append(params.C)
                        or flux_K(params, **kw))
    batch = h.flux_K_grid(n, H, grid)
    assert scalar_calls == [grid[5]]
    monkeypatch.undo()
    assert _as_results(batch) == [h.flux_K(h.ShapeParams(n, H, C)) for C in grid]


def test_flux_one_sided_limits_at_ctilde():
    # the flux tends to xi - pi from below Ctilde and to xi + pi from
    # above (the jump the refine step skips); the gap falls in proportion
    # to the offset (0.98 rel at worst), with every row converged
    for H in (-1.1, -1.5):
        worst = {}
        for n in range(2, 9):
            ct, x = h.Ctilde(n, H), h.xi(n, H).value
            for rel in (1e-6, 1e-7, 1e-8):
                for side in (1, -1):   # side 1: C below Ctilde
                    K = h.flux_K(h.ShapeParams(n, H, ct * (1 + side * rel)))
                    assert K.converged, (H, n, rel, side)
                    gap = abs(K.value - (x - side * math.pi))
                    assert gap <= rel, (H, n, rel, side, gap)
                    worst[rel] = max(worst.get(rel, 0.0), gap)
        assert worst[1e-7] < 0.2 * worst[1e-6], worst
        assert worst[1e-8] < 0.2 * worst[1e-7], worst


def test_flux_limit_at_C0():
    n, H = 3, -1.2
    c0 = h.C0(n, H)
    res = h.flux_K(h.ShapeParams(n, H, c0 * (1 - 1e-7)), tol=1e-12)
    assert res.value == pytest.approx(h.K_limit_at_C0(n, H), abs=1e-4)


def test_b2_matches_general_limit():
    for H in (-1.1, -1.5, -4.0):
        assert b2(H) == pytest.approx(h.K_limit_at_C0(2, H), rel=1e-14)


def test_closed_form_limits_use_no_float_C0():
    # K_limit_at_C0 needs no C0, so a float C0 that lost its sign, which
    # every shape refuses, does not refuse it: it tends to -2 pi as
    # H -> -inf, and to -sqrt(5) pi at n = 6 as H -> -1
    H1 = math.nextafter(-1, -math.inf)
    for n, H in ((2, -1e8), (5, -1e8), (6, H1)):
        assert not h.C0(n, H) < 0
        with pytest.raises(h.DomainError, match="has lost its sign"):
            h.ShapeParams(n, H, -1e-3)
    assert h.K_limit_at_C0(2, -1e8) == pytest.approx(-2 * math.pi, rel=1e-14)
    assert h.K_limit_at_C0(5, -1e8) == pytest.approx(-2 * math.pi, rel=1e-14)
    assert h.K_limit_at_C0(6, H1) == pytest.approx(-math.sqrt(5) * math.pi,
                                                   rel=1e-14)


def test_flux_small_C_tends_to_zero():
    res = h.flux_K(h.ShapeParams(2, -1.1, -1e-8), tol=1e-11)
    assert abs(res.value) < 1e-3


# --- xi -----------------------------------------------------------------


def test_xi_against_frozen_values():
    for (n, H), ref in frozen.XI.items():
        res = h.xi(n, H, tol=1e-12)
        assert res.converged, (n, H)
        assert res.value == pytest.approx(ref, abs=1e-14), (n, H)


def test_xi_at_large_H_against_frozen_values():
    # out to H = -1e6, through xi and xi_grid, within 1e-14 of mpmath
    for n in (2, 3, 5, 8):
        entries = [(H, ref) for (m, H), ref in frozen.XI_LARGE_H.items()
                   if m == n]
        batch = _xi_results(n, [H for H, _ in entries])
        for (H, ref), res in zip(entries, batch):
            assert res.converged, (n, H)
            assert abs(res.value - ref) <= 1e-14, (n, H)
            assert abs(h.xi(n, H).value - ref) <= 1e-14, (n, H)


def test_xi_answers_on_400_H_out_to_minus_1e6():
    # no H of a 400-point geometric grid in [-1e6, -1e3] raises, for
    # n = 2..8, and each grid value equals the scalar one
    Hs = (-np.geomspace(1e3, 1e6, 400)).tolist()
    for n in range(2, 9):
        batch = _xi_results(n, Hs)
        assert all(res.converged for res in batch), n
        assert batch == [h.xi(n, H) for H in Hs], n


def test_xi_against_direct_trig_form_n2():
    for H in (-1.05, -1.5, -8.0):
        assert h.xi(2, H).value == pytest.approx(xi2_direct(H), abs=1e-9)


def test_xi_n2_against_the_agm_oracle():
    # xi_2 = -pi / AGM(1, sqrt(1 - 1/H^2)); measured worst 3.1e-16 at
    # -1.0001, where the oracle itself is 8.1e-16 off mpmath's ellipk
    for H in (-np.geomspace(1.0001, 1e6, 400)).tolist():
        assert h.xi(2, H).value == pytest.approx(agm_xi2(H)[0], rel=1e-14), H


@pytest.mark.parametrize("H", FLUX2_H)
def test_flux_K_n2_against_the_carlson_oracle(H):
    # the closed form is within 2.3e-15 max(|K|, 1) of mpmath on this grid
    # (test_frozen_refs), so the bound is flux_K's own error: measured
    # worst 5.4e-14 up to |H| = 10, and 2.3e-12 beyond (relative to
    # max(|K|, 1)), inside the flux's tolerance; next to the double root,
    # at H = -100 and C = C0 (1 - 1e-9), K is 1.0e-11 off
    bound = 1e-13 if H >= -10 else DEFAULT_TOL
    off = []
    for i, C in enumerate(flux2_grid(H)):
        K = carlson_flux2(H, C)
        if abs(h.flux_K(h.ShapeParams(2, H, C)).value - K) > bound * max(
                abs(K), 1):
            off.append(i)
    assert off == []


def test_xi_limits():
    # xi_n -> -pi as H -> -inf for every n
    for n in (2, 3, 5):
        assert h.xi(n, -1e4).value == pytest.approx(-math.pi, abs=1e-3)


def test_xi_monotone_in_H_n2():
    vals = [h.xi(2, H).value for H in (-1.02, -1.1, -1.5, -3.0, -30.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_xi_undefined_at_H_minus_one_n2():
    # at n = 2, H = -1 the integrand's upper turning point escapes to
    # infinity: Q has no second root and xi must refuse cleanly
    with pytest.raises(h.LandmarkError):
        h.xi(2, -1.0)


def test_xi_validation():
    with pytest.raises(h.DomainError):
        h.xi(1, -1.1)
    with pytest.raises(h.DomainError):
        h.xi(2, -0.5)


def test_quadrature_oracle_cross_check():
    # sanity of the oracles themselves on a textbook value
    assert adaptive_simpson(math.sin, 0.0, math.pi) == pytest.approx(
        2.0, abs=1e-11)
    assert singular_integral_extrapolated(
        lambda x: 1.0 / math.sqrt(x * (1 - x)), 0.0, 1.0
    ) == pytest.approx(math.pi, abs=1e-9)


# --- xi over an H grid ----------------------------------------------------


def _xi_or_none(n, H, **kw):
    """Scalar xi, with None where the upper root of Q does not exist."""
    try:
        return h.xi(n, H, **kw)
    except h.LandmarkError:
        return None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=st.integers(2, 8), H_lo=st.floats(-1000.0, -1.0001),
       H_hi=st.sampled_from([-1.0, -1.0001, -1.02]),
       points=st.integers(1, 48), geometric=st.booleans())
def test_xi_grid_equals_scalar_xi(n, H_lo, H_hi, points, geometric):
    # every field of every batched result equals scalar xi, on linear and
    # geometric H grids; at n = 2 the grids that reach H = -1 meet a
    # missing landmark, which gives None in its slot
    if geometric:
        Hs = -np.geomspace(-H_lo, -H_hi, points)
    else:
        Hs = np.linspace(H_lo, H_hi, points)
    batch = _xi_results(n, Hs, missing_as_none=True)
    scalar = [_xi_or_none(n, float(H)) for H in Hs]
    assert batch == scalar
    assert (sum(r.evaluations for r in batch if r)
            == sum(r.evaluations for r in scalar if r))


def test_xi_grid_figure_and_h0_grids():
    # the sweep grids of fig6-fig8 and find_H0's default scan, n = 2..8
    grids = [np.linspace(-10.0, -1.0, 128), -np.geomspace(10.0, 1.0, 64)]
    for n in range(2, 9):
        for Hs in grids:
            assert (_xi_results(n, Hs, missing_as_none=True)
                    == [_xi_or_none(n, float(H)) for H in Hs])


def test_xi_grid_errors_in_grid_order():
    # without missing_as_none a grid raises the error a loop over xi meets
    # first, with its message: a missing landmark (n = 2, H = -1) before
    # or after an H > -1, a bad n, a bad tolerance
    cases = [(2, [-1.5, -1.0, -0.5], {}), (2, [-1.5, -0.5, -1.0], {}),
             (2, [-1.2, -1.0], {}), (1, [-1.5, -1.2], {}),
             (3, [-1.5, -1.2], {"tol": 0.0}),
             (3, [-1.5, -0.9, -1.2], {"tol": -1.0})]
    # an H > -1 (Q has an upper root at H = 1.5), Q's coefficients
    # overflowing (-1e300) or not (-1e150, -1e9, where t2~ = 1 + x rounds
    # to 1), all of which the lanes leave to the scalar set-up
    near_4750 = [-4750.0, *np.geomspace(-4700.0, -4800.0, 40).tolist()]
    near_23766 = [-23766.0, *np.geomspace(-23700.0, -23800.0, 40).tolist()]
    cases += [(2, [-1.5, -1e150, -0.5, -1e300], {}),
              (3, [-1.2, 1.5, -1e300, -0.5], {}),
              (2, [-1.0, -1e150, -1e300, -1.2], {}),
              (3, [near_4750[0], -1e9, *near_4750[1:]], {}),
              (2, [-1.0, *near_23766], {}),
              (2, [-23766.0, -1e300], {"tol": 0.0})]
    for n, Hs, kw in cases:
        expected = _first_error(lambda: [h.xi(n, H, **kw) for H in Hs])
        assert expected is not None
        assert _first_error(lambda: h.xi_grid(n, Hs, **kw)) == expected
        assert _first_error(
            lambda: h.xi_grid(n, Hs, missing_as_none=True, **kw)) == (
            _first_error(lambda: [_xi_or_none(n, H, **kw) for H in Hs]))
    # the tolerance is checked before any row, where a loop meets the
    # missing landmark at H = -1 first
    assert _first_error(lambda: h.xi_grid(2, [-1.0, -1.5], tol=0.0)) == (
        h.DomainError, "tol must be positive, got 0.0")
    assert _xi_results(2, [-1.5, -1.0], missing_as_none=True)[1] is None
    # where the float bracket of Q's root was degenerate (from about -4750
    # at n = 3 and -23766 at n = 2), xi answers, within 1e-14 of mpmath
    for n, Hs in ((3, near_4750), (2, near_23766)):
        batch = _xi_results(n, Hs)
        assert batch == [h.xi(n, H) for H in Hs]
        assert abs(batch[0].value - frozen.XI_LARGE_H[(n, Hs[0])]) <= 1e-14


def test_both_grids_check_their_arguments_before_any_row():
    # n (and H) and tol are refused before any row runs, on an empty grid
    # too, and a bad tol before the error of a bad first row
    for call in (lambda: h.flux_K_grid(1, -1.1, []), lambda: h.xi_grid(1, [])):
        assert _first_error(call) == (
            h.DomainError, "n must be an integer >= 2, got 1")
    bad_tol = (h.DomainError, "tol must be positive, got 0.0")
    for call in (lambda: h.flux_K_grid(3, -1.5, [h.C0(3, -1.5), -0.5], tol=0.0),
                 lambda: h.flux_K_grid(3, -1.5, [], tol=0.0),
                 lambda: h.xi_grid(3, [-0.5, -1.5], tol=0.0),
                 lambda: h.xi_grid(3, [], tol=0.0)):
        assert _first_error(call) == bad_tol
    for columns in (h.flux_K_grid(3, -1.5, []), h.xi_grid(3, [])[0]):
        assert [(c.dtype, len(c)) for c in columns] == [
            (float, 0), (float, 0), (np.int64, 0), (bool, 0)]


def test_Q_upper_root_grid_equals_scalar():
    # the lane roots equal _Q_upper_root bit for bit for n = 2..8, at H = -1,
    # on a geometric grid out to -1e6, at random H, where t2~ rounds to 1
    # and where Q's coefficients are near or past overflow; settled is
    # False exactly where the scalar routine raises
    rng = np.random.default_rng(20240817)
    Hs = np.concatenate([[-1.0, -1e9, -1e150, -1e300],
                         -np.geomspace(1.0000001, 1e6, 300),
                         -10.0 ** rng.uniform(0.0, 6.0, 300)])
    for n in range(2, 9):
        t2, settled = potential._Q_upper_root_grid(n, Hs)
        raised = 0
        for H, root, ok in zip(Hs.tolist(), t2.tolist(), settled.tolist()):
            try:
                expected = potential._Q_upper_root(n, H)
            except h.HypcmcError:
                raised += 1
                assert not ok, (n, H)
            else:
                assert ok and root == expected, (n, H)
        # -1e9 and -1e150 (degenerate), -1e300, and -1.0 at n = 2 (no root)
        assert raised == 3 + (n == 2)


def test_xi_grid_unsettled_root_runs_the_scalar_path(monkeypatch):
    # an H whose upper root of Q the lanes leave unsettled runs through
    # scalar _Q_upper_root once, and every result stays equal to scalar xi
    n = 3
    Hs = list(np.linspace(-10.0, -1.0, 12))
    roots_grid = quadrature._Q_upper_root_grid

    def leave_one_unsettled(n, Hs):
        t2, settled = roots_grid(n, Hs)
        t2[5] = math.nan
        settled[5] = False
        return t2, settled

    scalar_calls = []
    upper_root = quadrature._Q_upper_root
    monkeypatch.setattr(quadrature, "_Q_upper_root_grid", leave_one_unsettled)
    monkeypatch.setattr(quadrature, "_Q_upper_root",
                        lambda n, H: scalar_calls.append(H)
                        or upper_root(n, H))
    batch = _xi_results(n, Hs)
    assert scalar_calls == [Hs[5]]
    monkeypatch.undo()
    assert batch == [h.xi(n, H) for H in Hs]


def test_xi_grid_against_frozen_values():
    # every frozen xi (50-digit mpmath values, see test_frozen_refs.py)
    # through the batch
    by_n = {}
    for (n, H), ref in frozen.XI.items():
        by_n.setdefault(n, []).append((H, ref))
    for n, entries in by_n.items():
        Hs = [H for H, _ in entries]
        batch = _xi_results(n, Hs, tol=1e-12)
        assert batch == [h.xi(n, H, tol=1e-12) for H in Hs]
        for (H, ref), res in zip(entries, batch):
            assert res.converged, (n, H)
            assert res.value == pytest.approx(ref, abs=1e-14), (n, H)
