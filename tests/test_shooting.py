import functools
import json
import math
import re

import numpy as np
import pytest
from scipy.optimize import brentq

import hypcmc as h
from hypcmc import shooting
from hypcmc.potential import horner

import frozen
import oracles


def test_winding_target_validation():
    wt = h.WindingTarget(2, 5)
    assert wt.target == pytest.approx(-4 * math.pi / 5, rel=1e-15)
    with pytest.raises(h.DomainError):
        h.WindingTarget(2, 4)  # not coprime
    with pytest.raises(h.DomainError):
        h.WindingTarget(0, 1)
    with pytest.raises(h.DomainError):
        h.WindingTarget(1, -2)


def test_find_H0_n2():
    out = h.find_H0(2)
    assert isinstance(out, h.SolveOutcome)
    assert out.parameter_value == pytest.approx(frozen.H0_N2, abs=1e-10)
    assert abs(out.residual) < 1e-9
    assert out.classification == "Embedded"
    assert out.bracket_used[0] <= out.parameter_value <= out.bracket_used[1]


def test_find_H0_n2_within_2_ulp_of_the_closed_form():
    # frozen.H0_N2 = -1/sqrt(m*), ellipk(m*) = pi (test_frozen_refs.py)
    H0 = h.find_H0(2).parameter_value
    assert abs(H0 - frozen.H0_N2) <= 2 * np.spacing(abs(frozen.H0_N2))


def test_find_H0_tight_interval():
    out = h.find_H0(2, search=(-1.02, -1.01))
    assert isinstance(out, h.SolveOutcome)
    assert out.parameter_value == pytest.approx(frozen.H0_N2, abs=1e-10)


def test_find_H0_no_root_higher_n():
    # for n >= 3 the threshold flux never reaches -2*pi
    for n in (3, 4, 5):
        out = h.find_H0(n)
        assert isinstance(out, h.NoRootReport)
        assert out.value_min > -2 * math.pi
        assert out.points_scanned >= 64


def test_find_H0_interval_missing_root():
    out = h.find_H0(2, search=(-1.015, -1.01))
    assert isinstance(out, h.NoRootReport)


def test_find_H0_validation():
    with pytest.raises(h.DomainError):
        h.find_H0(2, search=(-1.0, -2.0))
    with pytest.raises(h.DomainError):
        h.find_H0(2, tol=0.0)
    # refused before a scan grid is built from them
    for lo in (-math.inf, math.nan):
        with pytest.raises(h.DomainError, match="invalid search interval"):
            h.find_H0(2, search=(lo, -1.0))


def test_solve_C_m5_and_m10():
    out5 = h.solve_C(2, -1.1, h.WindingTarget(1, 5))
    assert isinstance(out5, h.SolveOutcome)
    assert out5.parameter_value == pytest.approx(frozen.CSTAR_N2_M5, abs=1e-11)
    assert abs(out5.residual) < 1e-9
    assert out5.classification == "ImmersedClosed"

    out10 = h.solve_C(2, -1.1, h.WindingTarget(1, 10))
    assert isinstance(out10, h.SolveOutcome)
    assert out10.parameter_value == pytest.approx(frozen.CSTAR_N2_M10, abs=1e-11)
    assert out10.classification == "ImmersedClosed"


def test_solve_C_solution_verifies_above_branch():
    # target inside the (Ctilde, 0) branch, where K runs from xi + pi to 0
    out = h.solve_C(3, -1.2, h.WindingTarget(1, 8))
    assert isinstance(out, h.SolveOutcome)
    K = h.flux_K(h.ShapeParams(3, -1.2, out.parameter_value)).value
    assert K == pytest.approx(-2 * math.pi / 8, abs=1e-9)
    assert out.classification == "ImmersedClosed"


def test_solve_C_solution_verifies_below_branch():
    # target inside the narrow (C0, Ctilde) branch (K_C0, xi - pi):
    # here approximately (-7.1866, -7.1488), containing -2*pi*8/7
    out = h.solve_C(3, -1.2, h.WindingTarget(8, 7))
    assert isinstance(out, h.SolveOutcome)
    assert out.parameter_value < h.Ctilde(3, -1.2)
    K = h.flux_K(h.ShapeParams(3, -1.2, out.parameter_value)).value
    assert K == pytest.approx(-2 * math.pi * 8 / 7, abs=1e-9)
    assert out.classification == "ImmersedClosed"


def test_solve_C_embedded_precondition():
    # xi_2(-1.01) < -2*pi (H is between -1 and the critical value where
    # xi = -2*pi): the embedded criterion fails for this H
    with pytest.raises(h.EmbeddingPreconditionError) as exc:
        h.solve_C(2, -1.01, h.WindingTarget(1, 1), mode="embedded")
    assert exc.value.xi_value < -2 * math.pi


def test_solve_C_embedded_mode_requires_1_1():
    with pytest.raises(h.DomainError):
        h.solve_C(2, -1.1, h.WindingTarget(1, 5), mode="embedded")


def test_solve_C_no_root_reported():
    # K stays above -2*pi*2 on (C0, 0) for these parameters
    out = h.solve_C(2, -1.05, h.WindingTarget(2, 1))
    assert isinstance(out, h.NoRootReport)
    assert out.target == pytest.approx(-4 * math.pi)
    assert out.points_scanned == 4096


def test_solve_C_jump_is_not_a_root():
    # across Ctilde the flux jumps by about 2*pi without passing through
    # intermediate values; a target inside the jump gap must be reported
    # as no-root even though the scan sees a sign change there
    n, H = 2, -1.1
    ct = h.Ctilde(n, H)
    below = h.flux_K(h.ShapeParams(n, H, ct * (1 + 1e-6))).value
    above = h.flux_K(h.ShapeParams(n, H, ct * (1 - 1e-6))).value
    # pick a winding target strictly inside the gap (approximately
    # (-7.78, -3.50)): -2*pi*k/m = -2*pi*8/9 = -5.585
    target = h.WindingTarget(8, 9)
    assert below < target.target < above
    out = h.solve_C(n, H, target)
    if isinstance(out, h.SolveOutcome):
        # acceptable only if it is a genuine root elsewhere in (C0, 0)
        K = h.flux_K(h.ShapeParams(n, H, out.parameter_value)).value
        assert K == pytest.approx(target.target, abs=1e-8)
    else:
        assert isinstance(out, h.NoRootReport)


@pytest.mark.parametrize("tol", [-1e-12, 0.0, math.inf, math.nan])
def test_solver_tolerance_must_be_positive_and_finite(tol):
    # the quadrature's rule: at tol = inf the residual bound
    # max(RESIDUAL_TOL, 10 tol) was inf, and any bracket end passed
    for solve in (lambda: h.find_H0(2, tol=tol),
                  lambda: h.solve_C(2, -1.1, h.WindingTarget(1, 5), tol=tol)):
        with pytest.raises(h.DomainError, match=r"^tol must be "):
            solve()


def test_solve_C_validation():
    with pytest.raises(h.DomainError):
        h.solve_C(2, -0.5, h.WindingTarget(1, 1))
    with pytest.raises(h.DomainError):
        h.solve_C(2, -1.1, h.WindingTarget(1, 1), mode="bogus")


def test_classify():
    wt5 = h.WindingTarget(1, 5)
    assert h.classify(2, -1.1, frozen.CSTAR_N2_M5, wt5) == "ImmersedClosed"
    with pytest.raises(h.ClassificationRefusedError):
        h.classify(2, -1.1, -0.5, wt5)


def test_solve_C_embedded_mode_no_root():
    # with the precondition satisfied (H below the critical value, so
    # xi > -2*pi) the flux on (C0, Ctilde) still never reaches -2*pi:
    # its range there is (K_C0, xi - pi) and xi - pi < -2*pi would need
    # xi < -pi + ... ; the scan must come back empty rather than latch
    # onto the jump at Ctilde
    out = h.solve_C(2, -1.05, h.WindingTarget(1, 1), mode="embedded")
    assert isinstance(out, h.NoRootReport)
    assert out.target == pytest.approx(-2 * math.pi)


def test_solve_C_embedded_interval_is_inside_the_branch(monkeypatch):
    # the embedded scan runs only on an interval strictly inside
    # (C0, Ctilde); where the gaps above C0 and below Ctilde leave none,
    # solve_C raises DomainError naming n, H, C0 and Ctilde instead of
    # scanning lo >= hi.  Ctilde is a single power, taken from mpmath;
    # C0 is the float landmark the lower gap is measured from (unless
    # that lo is refused, test_solve_C_scans_from_above_the_true_C0),
    # since it loses digits at large |H| (cancellation in its numerator)
    mp = pytest.importorskip("mpmath")
    seen = []

    def no_scan(lo, hi, *args, **kwargs):
        seen.append((lo, hi))
        return h.NoRootReport((lo, hi), 0, 0.0, 0.0, -2 * math.pi, "")

    monkeypatch.setattr(shooting, "_scan_solve", no_scan)
    refused = set()
    for n in range(2, 9):
        for H in (-np.geomspace(1.02, 1e6, 40)).tolist():
            try:
                h.solve_C(n, H, h.WindingTarget(1, 1), mode="embedded")
            except h.DomainError as exc:
                message = str(exc)
                assert f"n={n}, H={H!r}" in message
                assert f"C0 = {h.C0(n, H)!r}" in message
                assert f"Ctilde = {h.Ctilde(n, H)!r}" in message
                refused.add((n, H))
                continue
            lo, hi = seen.pop()
            with mp.workdps(50):
                ct = -(mp.mpf(-H) ** (mp.mpf(-2) / n))
            assert h.C0(n, H) < lo < hi < ct, (n, H)
    assert not seen
    # the interval exists near H = -1 and is gone by |H| = 1000 for every
    # n; not at every larger |H|, where the float C0 can lie so far below
    # the true one that lo < hi again
    assert not any(H > -2 for _, H in refused)
    assert {n for n, H in refused if H <= -1000} == set(range(2, 9))


@pytest.mark.parametrize("n, H", [(5, -1e5), (3, -1e5), (3, -1e6)])
def test_solve_C_scans_from_above_the_true_C0(capsys, n, H):
    # at large |H| the float C0 lies so far below the true one that its
    # lo, C0 + 1e-6 |C0|, is refused as degenerate: the scan then starts
    # the same gap above the cancellation-free C0 and runs to an outcome
    # (here a NoRootReport), not to a DegenerateOscillationError
    from hypcmc.cli import main
    from hypcmc.potential import DEGENERATE_REL_GAP, _p_double_root

    c0, c0_true = h.C0(n, H), _p_double_root(n, H)[1]
    assert c0 + 1e-6 * abs(c0) - c0_true < DEGENERATE_REL_GAP * abs(c0_true)
    out = h.solve_C(n, H, h.WindingTarget(1, 1))
    assert isinstance(out, h.NoRootReport)
    assert out.search_interval[0] == c0_true + 1e-6 * abs(c0_true)
    code = main(["solve-c", "--n", str(n), f"--H={H!r}", "--k", "1",
                 "--m", "1"])
    assert code == 0, capsys.readouterr().err


def test_solve_C_lo_keeps_the_float_C0_where_it_is_not_refused(
        monkeypatch):
    # everywhere else lo is the float C0 + 1e-6 |C0|, bit for bit
    seen = []

    def no_scan(lo, hi, *args, **kwargs):
        seen.append(lo)
        return h.NoRootReport((lo, hi), 0, 0.0, 0.0, -2 * math.pi, "")

    monkeypatch.setattr(shooting, "_scan_solve", no_scan)
    for n in range(2, 9):
        for H in (-1.0 - 1e-8, -1.1, -2.0, -10.0, -1e3, -1e4):
            h.solve_C(n, H, h.WindingTarget(1, 1))
            c0 = h.C0(n, H)
            assert seen.pop() == c0 + 1e-6 * abs(c0), (n, H)


def test_embedded_scan_equals_a_scalar_loop(monkeypatch):
    # the columns of the last, 4096-point grid of the (2, -1.1) embedded
    # scan equal, bit for bit, a loop over scalar flux_K (scalar Brent
    # roots, not lanes), and the report's range is that loop's; this grid
    # ends outside the guard band (test_scan_takes_xi_in_the_guard_band
    # has one that ends inside)
    n, H = 2, -1.1
    grids = []
    flux_K_grid = shooting.flux_K_grid

    def recorded(n, H, Cs, **kw):
        columns = flux_K_grid(n, H, Cs, **kw)
        grids.append((Cs, columns))
        return columns

    monkeypatch.setattr(shooting, "flux_K_grid", recorded)
    out = h.solve_C(n, H, h.WindingTarget(1, 1), mode="embedded")
    monkeypatch.undo()
    assert isinstance(out, h.NoRootReport)
    Cs, columns = grids[-1]
    assert len(Cs) == out.points_scanned == shooting.SCAN_POINTS_MAX
    loop = [h.flux_K(h.ShapeParams(n, H, C)) for C in Cs.tolist()]
    for column, field in zip(columns, ("value", "abs_error_estimate",
                                       "evaluations", "converged")):
        expected = np.array([getattr(res, field) for res in loop])
        assert column.dtype == expected.dtype
        assert column.tobytes() == expected.tobytes(), field
    values = [res.value for res in loop]
    assert (out.value_min, out.value_max) == (min(values), max(values))


def test_scan_takes_xi_in_the_guard_band(monkeypatch):
    # the last point of each grid of this embedded scan (the noroot
    # benchmark's edge case) rounds into the Ctilde band, where the solver
    # takes the flux to be xi: the scan takes xi(n, H) there, and
    # flux_K_grid runs on the other points
    n, H = 2, -1.131956
    scans, fluxes = [], []
    scan_solve, flux_K_grid = shooting._scan_solve, shooting.flux_K_grid

    def recorded_solve(lo, hi, max_points, target, scan, *rest):
        def recorded(grid):
            scans.append((grid, scan(grid)))
            return scans[-1][1]
        return scan_solve(lo, hi, max_points, target, recorded, *rest)

    monkeypatch.setattr(shooting, "_scan_solve", recorded_solve)
    monkeypatch.setattr(shooting, "flux_K_grid", lambda n, H, Cs, **kw:
                        fluxes.append(Cs) or flux_K_grid(n, H, Cs, **kw))
    out = h.solve_C(n, H, h.WindingTarget(1, 1), mode="embedded")
    assert isinstance(out, h.NoRootReport)
    xi = h.xi(n, H).value + 2 * math.pi
    assert len(scans) == len(fluxes) == 2
    for (grid, vals), Cs in zip(scans, fluxes):
        band = shooting._in_guard_band(n, H, grid)
        assert np.flatnonzero(band).tolist() == [len(grid) - 1]
        assert vals[-1] == xi
        assert Cs.tolist() == grid[:-1].tolist()


def test_classify_embedded_at_threshold():
    # the one genuinely embedded closure: H at the root of xi = -2*pi,
    # C at the axis-grazing threshold Ctilde (served by xi through the
    # guard band)
    H0 = h.find_H0(2).parameter_value
    C = h.Ctilde(2, H0)
    assert h.classify(2, H0, C, h.WindingTarget(1, 1)) == "Embedded"


@pytest.mark.parametrize("n, H, winding, mode", [
    (2, -1.1, h.WindingTarget(1, 5), "any"),        # hit on the first grid
    (2, -1.822855, h.WindingTarget(1, 1), "embedded"),  # jump bracket per grid
    (2, -1.658229, h.WindingTarget(1, 1), "any"),   # the same, on both sides
])
def test_refine_reuses_known_flux_values(monkeypatch, n, H, winding, mode):
    # Brent starts from the scan's values at the bracket ends and the
    # residual is Brent's own value at the returned point: 3 fewer scalar
    # flux evaluations per refined bracket, the same outcome in every
    # field.  A bracket whose sign change is only the flux jump at Ctilde
    # is not refined at all; the oracle refines it on every grid, and it
    # fails verification each time
    def run(scan_solve):
        calls, brackets = [0], [0]
        flux_at, brentq = shooting._flux_at, shooting.brentq

        def counted_flux_at(*args):
            calls[0] += 1
            return flux_at(*args)

        def counted_brentq(*args, **kw):
            brackets[0] += 1
            return brentq(*args, **kw)

        with monkeypatch.context() as m:
            m.setattr(shooting, "_flux_at", counted_flux_at)
            m.setattr(shooting, "brentq", counted_brentq)
            m.setattr(shooting, "_scan_solve", scan_solve)
            out = h.solve_C(n, H, winding, mode=mode)
        return out, calls[0], brackets[0]

    out, calls, brackets = run(shooting._scan_solve)
    ref, ref_calls, ref_brackets = run(oracles.unmemoised_scan_solve)
    assert out == ref
    if isinstance(ref, h.SolveOutcome):
        assert brackets == ref_brackets > 0
        assert calls == ref_calls - 3 * brackets
    else:
        # the oracle refines one jump bracket per doubling grid, 64 to
        # 4096 points
        assert ref_brackets == 7
        assert brackets == calls == 0


@pytest.mark.parametrize("winding, mode, sizes", [
    (h.WindingTarget(1, 1), "embedded", [64, 4096]),  # no root
    (h.WindingTarget(1, 5), "any", [64]),             # a first-grid hit
])
def test_solve_C_scans_the_first_grid_then_the_final_one(monkeypatch, winding,
                                                          mode, sizes):
    # the scan evaluates the geometric grid of 64 C and, without a root
    # there, the one of 4096, each in one flux_K_grid call; the doubling
    # scan's 128 to 2048 point grids are not evaluated (a no-root question
    # took 7 calls over 8128 C with them)
    n, H = 2, -1.1
    grids = []
    flux_K_grid = shooting.flux_K_grid
    monkeypatch.setattr(shooting, "flux_K_grid", lambda n, H, Cs, **kw:
                        grids.append(Cs) or flux_K_grid(n, H, Cs, **kw))
    out = h.solve_C(n, H, winding, mode=mode)
    monkeypatch.undo()
    assert isinstance(out, h.NoRootReport) == (len(sizes) == 2)
    c0 = h.C0(n, H)
    lo = c0 + shooting.C_GAP_LOWER_REL * abs(c0)
    ct = h.Ctilde(n, H)
    hi = (ct - shooting.CTILDE_GUARD_REL * abs(ct) if mode == "embedded"
          else -shooting.C_GAP_UPPER)
    assert [len(Cs) for Cs in grids] == sizes
    for Cs in grids:
        assert Cs.tobytes() == (-np.geomspace(-lo, -hi, len(Cs))).tobytes()


# targets next to the ends of the flux's range (K_limit_at_C0, xi - pi,
# xi + pi and 0), as tests/scan_sweep.py picks them, with the outcome the
# two-grid scan gives
NEAR_RANGE_ENDS = [
    (2, -1.1, 11, 9, "any"),          # no root
    (2, -1.1, 2, 9, "any"),           # root
    (2, -1.1, 1, 100, "any"),         # root next to C = 0
    (2, -1.1, 1, 1, "embedded"),      # no root
    (2, -1.3, 113, 100, "any"),       # root
    (2, -2.0, 1, 1, "embedded"),      # no root
    (3, -1.1, 121, 100, "any"),       # root
    (3, -1.1, 11, 9, "any"),          # no root
    (3, -1.1, 2, 9, "any"),           # no root
    (3, -1.1, 1, 1, "embedded"),      # no root
    (3, -1.3, 1, 100, "any"),         # root
    (3, -2.0, 3, 100, "any"),         # root
    (4, -1.1, 10, 9, "any"),          # no root
    (4, -1.1, 1, 9, "any"),           # root
    (4, -1.3, 1, 1, "embedded"),      # no root
    (4, -1.3, 1, 100, "any"),         # root
    (4, -2.0, 3, 100, "any"),         # no root
    (4, -2.0, 1, 100, "any"),         # root
    (5, -1.1, 111, 100, "any"),       # no root
    (5, -1.1, 1, 100, "any"),         # root
    (5, -1.1, 1, 1, "embedded"),      # no root
    (5, -1.3, 7, 100, "any"),         # no root
    (5, -2.0, 1, 100, "any"),         # root
    (5, -2.0, 1, 1, "embedded"),      # no root
]


def test_two_grid_scan_gives_the_doubling_outcome(monkeypatch):
    # on targets next to the ends of the flux's range, where a hit on the
    # first grid or a NoRootReport decides, solve_C gives in every field
    # the outcome of the doubling grids 64, 128, ..., 4096 (the oracle)
    kinds = set()
    for n, H, k, m, mode in NEAR_RANGE_ENDS:
        winding = h.WindingTarget(k, m)
        out = h.solve_C(n, H, winding, mode=mode)
        with monkeypatch.context() as patch:
            patch.setattr(shooting, "_scan_solve",
                          oracles.unmemoised_scan_solve)
            ref = h.solve_C(n, H, winding, mode=mode)
        assert out == ref, (n, H, k, m, mode)
        kinds.add((n, mode, type(out).__name__))
    for n in (2, 3, 4, 5):
        assert {(n, "any", "SolveOutcome"), (n, "embedded", "NoRootReport")
                } <= kinds
        assert (n, "any", "NoRootReport") in kinds


def test_a_root_met_between_the_grids_comes_from_the_final_grid(monkeypatch):
    # near C0 at n = 3, H = -1.0005 the 64-point grid has no sign change
    # around this root; the doubling meets it on its 128-point grid, the
    # two-grid scan on the 4096-point one: the same root to within Brent's
    # tolerance, the same classification, a bracket inside the doubling's
    n, H, winding = 3, -1.0005, h.WindingTarget(36, 25)
    out = h.solve_C(n, H, winding)
    monkeypatch.setattr(shooting, "_scan_solve", oracles.unmemoised_scan_solve)
    ref = h.solve_C(n, H, winding)
    c0 = h.C0(n, H)
    lo, hi = c0 + shooting.C_GAP_LOWER_REL * abs(c0), -shooting.C_GAP_UPPER
    for outcome, points in ((ref, 128), (out, 4096)):
        grid = (-np.geomspace(-lo, -hi, points)).tolist()
        i = grid.index(outcome.bracket_used[0])
        assert outcome.bracket_used == tuple(grid[i:i + 2])
    (a, b), (a_ref, b_ref) = out.bracket_used, ref.bracket_used
    assert a_ref <= a < b <= b_ref
    assert abs(out.parameter_value - ref.parameter_value) <= shooting.BRENT_TOL
    assert out.classification == ref.classification


def _two_sided(ct, a, b, fa, fb, mid, bump=0.0):
    """A made-up K - target: from fa at a to mid - pi at Ctilde (linear,
    plus bump * t (1 - t) in t = (c - a) / (ct - a)), mid inside the guard
    band, linear from mid + pi at Ctilde to fb at b."""
    guard = shooting.CTILDE_GUARD_REL * abs(ct)

    def f(c):
        if abs(c - ct) < guard:
            return mid
        if c < ct:
            t = (c - a) / (ct - a)
            return fa + (mid - math.pi - fa) * t + bump * t * (1 - t)
        return mid + math.pi + (fb - mid - math.pi) * (c - ct) / (b - ct)

    return f


def _refine(monkeypatch, a, b, f, mid):
    """_scan_solve with solve_C's jump test on made-up values and target 0,
    with the one bracket (a, b) as its grid; also the brackets Brent ran."""
    brackets = []
    brentq = shooting.brentq
    monkeypatch.setattr(shooting, "SCAN_POINTS", 2)
    monkeypatch.setattr(shooting, "brentq",
                        lambda *args, **kw: brackets.append(args[1:3])
                        or brentq(*args, **kw))
    xi_res = lambda: h.QuadResult(mid, 0.0, 1, True)  # noqa: E731
    restol = shooting.RESIDUAL_TOL
    out = shooting._scan_solve(
        a, b, 2, 0.0, lambda grid: np.array([f(c) for c in grid.tolist()]),
        f, 1e-13, restol, "no root",
        functools.partial(shooting._jump_only, 2, -1.1, xi_res, 0.0, restol))
    return out, brackets


@pytest.mark.parametrize("fa, fb, mid, refined", [
    (-1.0, 5.0, 1.0, False),   # no sign change on either side: the jump
    (-1.0, None, 1.0, False),  # the same, the bracket ending in the band
    (1.0, -0.5, -4.0, True),   # the lower side changes sign
    (0.5, -1.0, 4.0, True),    # the upper side changes sign
    (-1.0, 1.0, 0.0, True),    # xi itself meets the target
])
def test_refine_skips_only_the_bare_jump(monkeypatch, fa, fb, mid, refined):
    # a bracket that meets the guard band is refined exactly when a side
    # of Ctilde, or the band, can hold a root; the target is 0 here, and
    # fb None puts the bracket's upper end inside the band
    ct = h.Ctilde(2, -1.1)
    a = ct * (1 + 1e-3)
    b = ct * (1 + 0.5e-9) if fb is None else ct * (1 - 1e-3)
    out, brackets = _refine(monkeypatch, a, b,
                            _two_sided(ct, a, b, fa, fb, mid), mid)
    assert len(brackets) == int(refined)
    if refined:
        _, residual, bracket, _ = out
        assert abs(residual) <= shooting.RESIDUAL_TOL
        assert bracket == (a, b)
    else:
        assert isinstance(out, h.NoRootReport)
        assert out.points_scanned == 2


def test_refine_keeps_root_brackets_away_from_the_band(monkeypatch):
    # both ends below Ctilde, outside the band: the sign change is a root
    # even though the lower end has the sign of the lower limit
    ct = h.Ctilde(2, -1.1)
    a = ct * (1 + 1e-3)
    b = a + 0.5 * (ct - a)
    f = _two_sided(ct, a, None, -1.0, None, 1.0, bump=8.0)
    assert f(a) * (1.0 - math.pi) > 0 > f(a) * f(b)
    out, brackets = _refine(monkeypatch, a, b, f, 1.0)
    assert brackets == [(a, b)]
    assert abs(out[1]) <= shooting.RESIDUAL_TOL


def test_scan_solve_picks_the_pairs_a_loop_picks(monkeypatch):
    # the array test selects, in grid order, exactly the pairs a loop
    # over them refines: fa * fb < 0 with -inf ends, never a NaN end,
    # not a product that underflows to -0.0, and any pair whose left end
    # is 0 (also -0.0), which ends the scan as a root at once
    vals = [math.nan, 1.0, -1.0, -math.inf, 2.0, -math.inf, -math.inf, 0.5,
            math.nan, -3.0, 1e-200, -1e-200, 4.0, -0.0, math.nan, 1.0]
    monkeypatch.setattr(shooting, "SCAN_POINTS", len(vals))
    grid = -np.geomspace(2.0, 1.0, len(vals))
    seen = []

    def jump_only(a, b, fa, fb):
        seen.append((a, b, fa, fb))
        return True

    out = shooting._scan_solve(-2.0, -1.0, len(vals), 0.0,
                               lambda g: np.array(vals), None, 1e-12, 0.0,
                               "", jump_only)
    ends = grid.tolist()
    expected = [(a, b, fa, fb) for a, b, fa, fb in
                zip(ends, ends[1:], vals, vals[1:])
                if fa != 0.0 and fa * fb < 0]
    assert seen == expected and len(seen) == 6
    assert out == (ends[13], -0.0, (ends[13], ends[14]), None)


def test_find_H0_refine_reuses_scan_values(monkeypatch):
    # Brent starts from the scan's xi values at the bracket ends and the
    # residual is its own value at the root: the scalar xi calls are
    # Brent's evaluations less those two, and the outcome is that of a
    # plain run of SciPy's brentq on scalar xi
    calls = []
    xi = shooting.xi
    monkeypatch.setattr(shooting, "xi",
                        lambda n, H, tol: calls.append(H) or xi(n, H, tol=tol))
    out = h.find_H0(2)
    monkeypatch.undo()

    def plain(H):
        try:
            return h.xi(2, H, tol=1e-11).value + 2 * math.pi
        except h.LandmarkError:   # the scan's last point, H = -1
            return -1e12

    root, res = brentq(plain, *out.bracket_used, xtol=1e-12, rtol=8.9e-16,
                       full_output=True)
    assert out.parameter_value == root
    assert out.iterations == res.function_calls
    assert len(calls) == out.iterations - 2
    assert out.residual == plain(root)


def test_find_H0_accepts_brent_root_unverified():
    # xi is continuous in H, so Brent's root is taken as it is: at a loose
    # tol its residual exceeds the bound solve_C would verify against
    out = h.find_H0(2, tol=1e-8)
    assert isinstance(out, h.SolveOutcome)
    assert abs(out.residual) > max(shooting.RESIDUAL_TOL, 10 * 1e-8)
    assert out.parameter_value == pytest.approx(frozen.H0_N2, abs=1e-8)


def _not_converged(res):
    return h.QuadResult(res.value, 1.0, res.evaluations, False)


def test_find_H0_refuses_non_converged_xi(monkeypatch):
    # a non-converged xi in the scan or in the refine step raises,
    # naming H, instead of being used
    xi_grid = shooting.xi_grid

    def scan_with_one_bad(n, Hs, tol, **kw):
        columns, missing = xi_grid(n, Hs, tol, **kw)
        columns[1][10], columns[3][10] = 1.0, False
        return columns, missing

    grid = -np.geomspace(10.0, 1.0, shooting.SCAN_POINTS)
    with monkeypatch.context() as m:
        m.setattr(shooting, "xi_grid", scan_with_one_bad)
        with pytest.raises(h.NonConvergenceError, match=re.escape(repr(float(grid[10])))):
            h.find_H0(3)
    xi = shooting.xi
    with monkeypatch.context() as m:
        m.setattr(shooting, "xi", lambda n, H, tol: _not_converged(
            xi(n, H, tol=tol)))
        with pytest.raises(h.NonConvergenceError, match="xi_2"):
            h.find_H0(2)


def test_solve_C_refuses_non_converged_flux(monkeypatch):
    # a non-converged flux in the scan or in the refine step raises,
    # naming C, instead of being used
    n, H, winding = 2, -1.1, h.WindingTarget(1, 5)
    flux_K_grid = shooting.flux_K_grid

    def scan_with_one_bad(n, H, Cs, **kw):
        value, error, evaluations, converged = flux_K_grid(n, H, Cs, **kw)
        error[10], converged[10] = 1.0, False
        return value, error, evaluations, converged

    c0 = h.C0(n, H)
    grid = -np.geomspace(-(c0 + shooting.C_GAP_LOWER_REL * abs(c0)),
                         shooting.C_GAP_UPPER, shooting.SCAN_POINTS)
    with monkeypatch.context() as m:
        m.setattr(shooting, "flux_K_grid", scan_with_one_bad)
        with pytest.raises(h.NonConvergenceError,
                           match=re.escape(f"K(C={float(grid[10])!r})")):
            h.solve_C(n, H, winding)
    flux_K = shooting.flux_K
    refined = []

    def refine_not_converged(params, tol):
        refined.append(params.C)
        return _not_converged(flux_K(params, tol=tol))

    with monkeypatch.context() as m:
        m.setattr(shooting, "flux_K", refine_not_converged)
        with pytest.raises(h.NonConvergenceError) as exc:
            h.solve_C(n, H, winding)
    assert f"K(C={refined[0]!r})" in str(exc.value)
    # classify reads the flux through the same check
    with monkeypatch.context() as m:
        m.setattr(shooting, "flux_K", refine_not_converged)
        with pytest.raises(h.NonConvergenceError):
            h.classify(n, H, frozen.CSTAR_N2_M5, winding)


def test_non_convergence_names_a_plain_float(monkeypatch, capsys):
    # every path that refuses a non-converged quadrature names its H or C
    # as the repr of a Python float, not as np.float64(...): find_H0's
    # scan and refine step, solve_C's scan and refine step, and sweep
    from hypcmc import cli

    xi, flux_K = shooting.xi, shooting.flux_K

    def one_bad_row(grid_of):
        def grid(*args, **kw):
            out = grid_of(*args, **kw)
            columns = out[0] if len(out) == 2 else out  # xi_grid: missing
            columns[1][10], columns[3][10] = 1.0, False
            return out
        return grid

    def raised(module, name, patched, call):
        with monkeypatch.context() as m:
            m.setattr(module, name, patched)
            with pytest.raises(h.NonConvergenceError) as exc:
                call()
        return str(exc.value)

    solve = functools.partial(h.solve_C, 2, -1.1, h.WindingTarget(1, 5))
    messages = [
        raised(shooting, "xi_grid", one_bad_row(shooting.xi_grid),
               lambda: h.find_H0(3)),
        raised(shooting, "xi", lambda n, H, tol: _not_converged(
            xi(n, H, tol=tol)), lambda: h.find_H0(2)),
        raised(shooting, "flux_K_grid", one_bad_row(shooting.flux_K_grid),
               solve),
        raised(shooting, "flux_K", lambda params, tol: _not_converged(
            flux_K(params, tol=tol)), solve),
    ]
    with monkeypatch.context() as m:
        m.setattr(cli, "xi_grid", one_bad_row(cli.xi_grid))
        assert cli.main(["sweep", "--n=3", "--H-from=-3", "--H-to=-2",
                         "--steps=12"]) == 3
    messages.append(json.loads(capsys.readouterr().err)["error"])
    for message in messages:
        named = re.search(r"(?:xi_\d\(|C=|H=)([^) ]+)", message).group(1)
        assert repr(float(named)) == named, message


def test_brentq_port_matches_scipy():
    # the scalar port, which solves in C and H, gives SciPy's root and
    # counts, and raises SciPy's error where SciPy raises: for brackets
    # with no sign change and for no convergence within maxiter
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(6, 200))
    a, b = rng.uniform(-3.0, 0.0, 200), rng.uniform(0.0, 3.0, 200)
    for maxiter in (10, 100):
        for i in range(200):
            column = coeffs[:, i].tolist()
            args = (lambda v: horner(column, v), a[i], b[i])
            try:
                root, res = brentq(*args, xtol=1e-12, rtol=8.9e-16,
                                   maxiter=maxiter, full_output=True)
            except (ValueError, RuntimeError) as exc:
                with pytest.raises((ValueError, RuntimeError)) as port:
                    shooting.brentq(*args, 1e-12, 8.9e-16, maxiter)
                assert port.type is type(exc)
                continue
            assert shooting.brentq(*args, 1e-12, 8.9e-16, maxiter) == (
                root, res.iterations, res.function_calls)

    # a bracket end that is a root: SciPy's root and calls, 0 iterations
    # where SciPy leaves its count unset
    for f in (lambda v: v - 1.0, lambda v: v - 2.0):
        root, res = brentq(f, 1.0, 2.0, xtol=1e-12, rtol=8.9e-16,
                           full_output=True)
        assert shooting.brentq(f, 1.0, 2.0, 1e-12, 8.9e-16) == (
            root, 0, res.function_calls)

    # a NaN value met inside the bracket, at its third evaluation
    def nan_inside(v):
        return math.nan if 0 < v < 0.5 else v - 0.3

    with pytest.raises(ValueError) as ref:
        brentq(nan_inside, -1.0, 1.0, xtol=1e-12, rtol=8.9e-16)
    with pytest.raises(ValueError) as port:
        shooting.brentq(nan_inside, -1.0, 1.0, 1e-12, 8.9e-16)
    assert str(port.value) == str(ref.value)

    # values near 1e-200, where dblk * dpre * (fblk - fpre) underflows to
    # 0: the interpolated step divides by zero (inf or NaN in C), and
    # Brent bisects as SciPy does, with SciPy's root and counts
    def tiny(v):
        return 1e-200 * (v ** 3 - 2 * v - 5)

    root, res = brentq(tiny, 0.0, 3.0, xtol=1e-12, rtol=8.9e-16,
                       full_output=True)
    assert shooting.brentq(tiny, 0.0, 3.0, 1e-12, 8.9e-16) == (
        root, res.iterations, res.function_calls)
