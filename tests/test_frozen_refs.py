"""The frozen reference values against the benchmark's mpmath references.

``perfbench/mpref.py`` integrates in the angle variable at 50 digits and
never imports hypcmc, so agreement here shows the values the suite
checks against did not come from the package itself.
"""

import importlib.util
from pathlib import Path

import pytest

mp = pytest.importorskip("mpmath")

import frozen  # noqa: E402

MPREF = Path(__file__).resolve().parents[1] / "perfbench" / "mpref.py"


def _mpref():
    spec = importlib.util.spec_from_file_location("mpref", MPREF)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_frozen_values_match_mpmath_references():
    mpref = _mpref()
    # inputs as decimal strings, the way the frozen values were computed
    for (n, H), stored in frozen.XI.items():
        assert float(mpref.xi(n, repr(H))) == pytest.approx(stored, rel=1e-15)
    K = mpref.flux_K(2, "-1.1", "-0.9091743461769703")
    assert float(K) == pytest.approx(frozen.K_NEAR_AXIS_N2, rel=1e-15)


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
        got = _half_way(mpref, n, repr(H), repr(C))
        for value, want in zip(got, stored):
            assert float(value) == pytest.approx(want, rel=1e-15)
