import math

import pytest

import hypcmc as h
from hypcmc import shooting

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
])
def test_refine_reuses_known_flux_values(monkeypatch, n, H, winding, mode):
    # Brent starts from the scan's values at the bracket ends and the
    # residual is Brent's own value at the returned point: 3 fewer scalar
    # flux evaluations per refined bracket, the same outcome in every field
    def run(refine):
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
            m.setattr(oracles, "brentq", counted_brentq)
            m.setattr(shooting, "_refine_first_crossing", refine)
            out = h.solve_C(n, H, winding, mode=mode)
        return out, calls[0], brackets[0]

    out, calls, brackets = run(shooting._refine_first_crossing)
    ref, ref_calls, ref_brackets = run(oracles.unmemoised_refine_first_crossing)
    assert out == ref
    assert brackets == ref_brackets > 0
    assert calls == ref_calls - 3 * brackets
