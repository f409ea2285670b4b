"""Write refs/<workload>.json: the parameter pools of the benchmark
workloads and their mpmath references (50 working digits, stored to 45).

    python3 perfbench/gen_refs.py

The pools are drawn from a fixed generator seed, one stream per section,
so a change to the draws of one section leaves the others' pools alone.
hypcmc is used only to sort candidates into the code path a position
asks for (a solve-c target that the first scan brackets, a scan whose
last point rounds into the Ctilde guard band, a profile that takes the
ODE or the theta-rebuild path); every reference value comes from
``mpref``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hypcmc as h  # noqa: E402
from hypcmc import cli, profile, shooting  # noqa: E402
from hypcmc.quadrature import CTILDE_GUARD_REL  # noqa: E402

import mpref  # noqa: E402
from workloads import (CYCLES, FIGURES, NEAR, NEAR_CTILDE_REL,  # noqa: E402
                       SWEEPS, pool_key)

GENERATOR_SEED = 20261017
POOL = 8
DIGITS = 45
TWO_PI = 2 * math.pi


def s(x):
    return mp.nstr(x, DIGITS, strip_zeros=False)


def draw_H(rng, lo=-3.0, hi=-1.02):
    return round(float(rng.uniform(lo, hi)), 6)


class _Budget(Exception):
    pass


def first_scan_hit(n, H, k, m):
    """solve_C result if the first 64-point scan brackets a verified root."""
    calls = [0]
    orig = shooting.flux_K

    def counted(*a, **kw):
        calls[0] += 1
        if calls[0] > shooting.SCAN_POINTS + 200:
            raise _Budget
        return orig(*a, **kw)

    shooting.flux_K = counted
    try:
        out = h.solve_C(n, H, h.WindingTarget(k, m))
    except _Budget:
        return None
    finally:
        shooting.flux_K = orig
    return out if isinstance(out, h.SolveOutcome) else None


def profile_path(n, H, C):
    """'rebuild' if integrate_profile rebuilds theta, else 'ode'."""
    built = [0]
    orig = profile._ThetaMap

    def counted(*a, **kw):
        built[0] += 1
        return orig(*a, **kw)

    profile._ThetaMap = counted
    try:
        h.integrate_profile(h.ShapeParams(n, H, C), samples_per_period=16)
    finally:
        profile._ThetaMap = orig
    return "rebuild" if built[0] else "ode"


def closure(rng):
    out = {"xi": {}, "h0": {}, "hits": {}, "sweep": {}}
    for n in (2, 3, 4, 5):
        out["xi"][str(n)] = [
            {"n": n, "H": H, "xi": s(mpref.xi(n, H))}
            for H in (draw_H(rng) for _ in range(POOL))]
        if n == 2:
            root = mpref.H0(2, h.find_H0(2).parameter_value)
            with mp.workdps(mpref.DPS):
                step = mp.mpf(10) ** -15
                slope = (mpref.xi(2, root + step)
                         - mpref.xi(2, root - step)) / (2 * step)
            out["h0"]["2"] = {"H0": s(root), "slope": s(slope)}
        else:
            # xi_n increases from H = -1 to H = -10, so the scan's
            # extremes sit at the ends of the search interval
            out["h0"][str(n)] = {"xi_lo": s(mpref.xi(n, -1.0)),
                                 "xi_hi": s(mpref.xi(n, -10.0))}
        hits = []
        while len(hits) < POOL:
            # on (Ctilde, 0) the flux runs from xi + pi up to 0, so a
            # target -2 pi k / m there needs m > 2 k / |xi / pi + 1|
            H = draw_H(rng)
            k = int(rng.integers(1, 4))
            m_min = math.ceil(2 * k / abs(h.xi(n, H).value / math.pi + 1))
            m = m_min + int(rng.integers(1, 13))
            if math.gcd(k, m) != 1:
                continue
            res = first_scan_hit(n, H, k, m)
            if res is None:
                continue
            target = -TWO_PI * k / m
            with mp.workdps(mpref.DPS):
                root, slope = mpref.C_star(n, H, -2 * mp.pi * k / m,
                                           res.parameter_value)
            if abs(float(root) - res.parameter_value) > 1e-8:
                raise RuntimeError(f"C* mismatch at {(n, H, k, m)}")
            hits.append({"n": n, "H": H, "k": k, "m": m,
                         "target": target, "C_star": s(root),
                         "slope": s(slope),
                         "classification": res.classification})
        out["hits"][str(n)] = hits
    for fig in SWEEPS:
        p = cli.FIGURE_SWEEPS[fig]
        grid = np.linspace(p["H_from"], p["H_to"], p["steps"])
        out["sweep"][fig] = {"xi": [[float(H), s(mpref.xi(p["n"], float(H)))]
                                    for H in grid]}
    return out


def _scan_entry(n, H, k, m, mode):
    c0, ct = h.C0(n, H), h.Ctilde(n, H)
    lo = c0 + shooting.C_GAP_LOWER_REL * abs(c0)
    if mode == "embedded":
        hi = ct - CTILDE_GUARD_REL * abs(ct)
    else:
        hi = -shooting.C_GAP_UPPER
    try:
        h.flux_K(h.ShapeParams(n, H, hi))
        edge_in_band = False
    except h.GuardBandError:
        edge_in_band = True
    if edge_in_band:
        # the last grid point falls back to xi, the largest value seen
        vmax, vmax_near = mpref.xi(n, H), False
    else:
        vmax = mpref.flux_K(n, H, hi)
        vmax_near = abs(hi / ct - 1) < NEAR_CTILDE_REL
    return {"n": n, "H": H, "k": k, "m": m, "mode": mode,
            "target": -TWO_PI * k / m, "lo": lo, "hi": hi,
            "edge_in_guard_band": edge_in_band,
            "value_min": s(mpref.flux_K(n, H, lo)),
            "value_min_near_ctilde": False,
            "value_max": s(vmax), "value_max_near_ctilde": vmax_near}


def noroot(rng):
    out = {"anchor": [_scan_entry(2, -1.1, 1, 1, "embedded")],
           "edge": [], "below": []}
    while len(out["edge"]) < POOL:
        e = _scan_entry(2, draw_H(rng, -2.0), 1, 1, "embedded")
        if e["edge_in_guard_band"]:
            out["edge"].append(e)
    while len(out["below"]) < POOL:
        out["below"].append(_scan_entry(2, draw_H(rng, -2.0),
                                        int(rng.integers(2, 4)), 1, "any"))
    return out


def _geometry_entry(n, H, C, periods=1):
    return {"n": n, "H": H, "C": C, "periods": periods,
            "path": profile_path(n, H, C),
            "T": s(mpref.period_T(n, H, C)), "K": s(mpref.flux_K(n, H, C))}


def geometry(rng):
    out = {"figures": {}, "pools": {}}
    for fig in FIGURES:
        p = cli.FIGURE_PROFILES[fig]
        e = _geometry_entry(p["n"], p["H"], p["C"], p["periods"])
        # fig2 and fig3 are the (1, 5) and (1, 10) closure constants
        if p["periods"] > 1:
            e["planar"] = {"closed": True, "winding": -1, "crossing": True}
        out["figures"][fig] = e
    for kind, n in CYCLES["geometry"]:
        if kind == "figure":
            continue
        pool = []
        while len(pool) < POOL:
            H = draw_H(rng)
            c0, ct = h.C0(n, H), h.Ctilde(n, H)
            if (kind, n) in NEAR:
                a, b = NEAR[(kind, n)]
                rel = 10.0 ** -rng.uniform(a, b)
                side = 1 if rng.random() < 0.5 else -1
                C, want = float(ct * (1 + side * rel)), "rebuild"
            else:
                C = round(float(c0 * (1 - rng.uniform(0.02, 0.98))), 8)
                want = "ode"
                if abs(C / ct - 1) < 0.05:
                    continue
            e = _geometry_entry(n, H, C)
            if e["path"] != want:
                print(f"skip {kind} n={n} H={H} C={C}: path {e['path']}",
                      file=sys.stderr)
                continue
            pool.append(e)
        out["pools"][pool_key(kind, n)] = pool
    return out


SECTIONS = {"closure": closure, "noroot": noroot, "geometry": geometry}


def main():
    (HERE / "refs").mkdir(exist_ok=True)
    for i, name in enumerate(SECTIONS):
        rng = np.random.default_rng([GENERATOR_SEED, i])
        refs = {"generator_seed": GENERATOR_SEED, "dps": mpref.DPS,
                "pool_size": POOL, name: SECTIONS[name](rng)}
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(refs, indent=1) + "\n")
        print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    main()
