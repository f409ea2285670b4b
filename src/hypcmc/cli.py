"""Command-line interface.

Every computation in the library is reachable here with reproducible,
machine-readable output: JSON for scalar results and solver outcomes,
CSV for sample tables.  Identical invocations produce byte-identical
output.  The default quadrature tolerance can be overridden globally
with the HYPCMC_TOL environment variable or per-call with --tol.

Exit codes: 0 success, 2 domain/precondition error, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import lorentz, profile, quadrature
from .errors import (
    EvaluationError,
    HypcmcError,
    IntegrationFailureError,
    NonConvergenceError,
)
from .potential import C0, Ctilde, ShapeParams
from .profile import integrate_profile, profile_alpha, theta_prime_trace
from .quadrature import flux_K, require_converged, xi, xi_grid
from .shooting import NoRootReport, WindingTarget, find_H0, solve_C

ENV_TOL = "HYPCMC_TOL"

FIGURE_PROFILES = {
    "fig1": dict(n=2, H=-1.1, C=-0.9091743461769703, periods=1, clip=None),
    "fig2": dict(n=2, H=-1.1, C=-0.6835660909345689, periods=5, clip=None),
    "fig3": dict(n=2, H=-1.1, C=-0.19607165524075582, periods=10, clip=None),
    "fig4": dict(n=2, H=-1.1, C=-0.9091743461769703, periods=1, clip=5.0),
    "fig5": dict(n=2, H=-1.1, C=-0.9091743461769703, periods=1, clip=None),
}
FIGURE_SWEEPS = {
    "fig6": dict(n=3, H_from=-10.0, H_to=-1.0, steps=128),
    "fig7": dict(n=4, H_from=-10.0, H_to=-1.0, steps=128),
    "fig8": dict(n=5, H_from=-10.0, H_to=-1.0, steps=128),
}
# the options a command needs unless --seed-figures fills them in
REQUIRED_WITHOUT_SEED = {
    "profile": ("n", "H", "C"),
    "sweep": ("n", "H_from", "H_to"),
}


def _default_tol() -> float:
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return quadrature.DEFAULT_TOL
    try:
        tol = float(raw)
    except ValueError as exc:
        raise NonConvergenceError(f"bad {ENV_TOL} value {raw!r}") from exc
    if tol <= 0:
        raise NonConvergenceError(f"{ENV_TOL} must be positive, got {raw!r}")
    return tol


def _fmt(x) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(x))


def _jsonable(obj):
    """Recursively make an object JSON-serializable with finite floats;
    non-finite diagnostics are encoded as strings."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if math.isfinite(x) else repr(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit(text: str, output_path):
    if output_path:
        with open(output_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, output_path):
    _emit(json.dumps(_jsonable(obj), indent=2) + "\n", output_path)


def _emit_csv(header, rows, output_path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(x) if isinstance(x, (float, np.floating))
                         else x for x in row])
    _emit(buf.getvalue(), output_path)


def _outcome_dict(out, parameter_name):
    if isinstance(out, NoRootReport):
        return {
            "no_root": True,
            "search_interval": list(out.search_interval),
            "points_scanned": out.points_scanned,
            "value_min": out.value_min,
            "value_max": out.value_max,
            "target": out.target,
            "message": out.message,
        }
    return {
        parameter_name: out.parameter_value,
        "residual": out.residual,
        "classification": out.classification,
        "bracket_used": list(out.bracket_used),
        "iterations": out.iterations,
    }


def _cmd_xi(args):
    res = require_converged(xi(args.n, args.H, tol=args.tol),
                            "xi quadrature", args.tol)
    _emit_json({
        "value": res.value,
        "error_estimate": res.abs_error_estimate,
        "evaluations": res.evaluations,
        "converged": res.converged,
    }, args.output)
    return 0


def _cmd_h0(args):
    out = find_H0(args.n, search=(args.lo, args.hi), tol=args.solver_tol,
                  quad_tol=args.tol)
    _emit_json(_outcome_dict(out, "H0"), args.output)
    return 0


def _cmd_solve_c(args):
    winding = WindingTarget(k=args.k, m=args.m)
    mode = "embedded" if args.embedded else "any"
    out = solve_C(args.n, args.H, winding, mode=mode, tol=args.solver_tol,
                  quad_tol=args.tol)
    d = _outcome_dict(out, "C_star")
    d.update({
        "target": winding.target,
        "k": args.k,
        "m": args.m,
        "C0": C0(args.n, args.H),
        "Ctilde": Ctilde(args.n, args.H),
    })
    _emit_json(d, args.output)
    return 0


def _profile_args(args):
    if args.seed_figures:
        preset = FIGURE_PROFILES[args.seed_figures]
        clip = args.clip if args.clip is not None else preset["clip"]
        return preset["n"], preset["H"], preset["C"], preset["periods"], clip
    return args.n, args.H, args.C, args.periods, args.clip


def _cmd_profile(args):
    n, H, C, periods, clip = _profile_args(args)
    params = ShapeParams(n=n, H=H, C=C)
    curve = integrate_profile(params, m_periods=periods,
                              samples_per_period=args.samples)
    alpha = profile_alpha(curve)
    trace = theta_prime_trace(curve, clip=clip)
    rows = zip(curve.t, curve.g, curve.g_prime, curve.r, curve.lam,
               curve.theta, trace[:, 1], alpha[:, 0], alpha[:, 1])
    _emit_csv(
        ["t", "g", "g_prime", "r", "lambda", "theta", "theta_prime",
         "alpha_x", "alpha_y"],
        rows, args.output,
    )
    return 0


def _cmd_surface(args):
    params = ShapeParams(n=args.n, H=args.H, C=args.C)
    curve = integrate_profile(params, m_periods=args.periods,
                              samples_per_period=args.samples)
    if args.n == 2:
        fibers = [lorentz.FiberPoint.from_rapidity(v)
                  for v in np.linspace(-args.fiber_span, args.fiber_span,
                                       args.fibers)]
    else:
        # a geodesic slice of the fiber through the axis point
        fibers = []
        for v in np.linspace(-args.fiber_span, args.fiber_span, args.fibers):
            coords = [0.0] * args.n
            coords[0] = math.sinh(v)
            coords[-1] = math.cosh(v)
            fibers.append(lorentz.FiberPoint(coords))
    grid = profile.surface_grid(curve, fibers)
    header = ["fiber", "t"] + [f"x{i + 1}" for i in range(args.n + 2)]
    rows = []
    for i in range(grid.shape[0]):
        for j in range(grid.shape[1]):
            rows.append([i, float(curve.t[j])] + [float(c) for c in grid[i, j]])
    _emit_csv(header, rows, args.output)
    return 0


def _cmd_sweep(args):
    """xi_n over an H grid in one xi_grid batch; fails with a loop's first
    error, then at the first H whose xi did not converge."""
    if args.seed_figures:
        preset = FIGURE_SWEEPS[args.seed_figures]
        n, H_from, H_to, steps = (preset["n"], preset["H_from"],
                                  preset["H_to"], preset["steps"])
    else:
        n, H_from, H_to, steps = args.n, args.H_from, args.H_to, args.steps
    Hs = np.linspace(H_from, H_to, steps).tolist()
    rows = []
    for H, res in zip(Hs, xi_grid(n, Hs, tol=args.tol)):
        require_converged(res, f"xi quadrature at H={H!r}", args.tol)
        rows.append([H, res.value])
    _emit_csv(["H", "xi"], rows, args.output)
    return 0


def _cmd_check(args):
    params = ShapeParams(n=args.n, H=args.H, C=args.C)
    curve = integrate_profile(params, m_periods=args.periods,
                              samples_per_period=args.samples)
    report = {}

    # energy conservation along the trajectory
    energy = profile._energy_residual(params, curve.g, curve.g_prime)
    bound = profile.ENERGY_TOL * max(1.0, abs(args.C))
    report["energy_residual_max"] = {
        "value": float(energy.max()), "bound": bound,
        "pass": bool(energy.max() <= bound),
    }

    # period: the phase series vs tanh-sinh quadrature
    period_diff = abs(curve.period_ode - curve.period_T)
    report["period_rel_diff"] = {
        "value": float(period_diff / curve.period_T), "bound": 1e-8,
        "pass": bool(period_diff <= 1e-8 * curve.period_T),
    }

    # closure: the phase series' angle per period vs the tanh-sinh flux
    K = flux_K(params, tol=args.tol).value
    closure = abs(curve.K_value - K)
    report["closure_residual"] = {
        "value": float(closure), "bound": 1e-7,
        "pass": bool(closure <= 1e-7),
    }

    # hyperboloid membership and Gauss-map identities over the samples
    y0 = lorentz.FiberPoint.axis(args.n)
    sq = math.sqrt(-args.C)
    dev_phi = dev_nu = dev_tan = 0.0
    for s in curve.samples:
        phi = lorentz.immerse_point(params, {"r": s.r, "theta": s.theta}, y0)
        dev_phi = max(dev_phi, abs(lorentz.minkowski_inner(phi, phi) + 1.0))
        if s.r > 1.0 + 1e-12:
            state = {"r": s.r, "r_prime": s.g_prime / sq, "lam": s.lam,
                     "theta": s.theta}
            nu = lorentz.gauss_map(params, state, y0)
            dev_nu = max(dev_nu, abs(lorentz.minkowski_inner(nu, nu) - 1.0))
            dev_tan = max(dev_tan, abs(lorentz.minkowski_inner(nu, phi)))
    report["hyperboloid_max_deviation"] = {
        "value": dev_phi, "bound": 1e-10, "pass": bool(dev_phi <= 1e-10)}
    report["gauss_norm_max_deviation"] = {
        "value": dev_nu, "bound": 1e-10, "pass": bool(dev_nu <= 1e-10)}
    report["gauss_tangency_max_deviation"] = {
        "value": dev_tan, "bound": 1e-10, "pass": bool(dev_tan <= 1e-10)}

    # finite-difference mean curvature at up to 100 interior samples
    rng = np.random.default_rng(20240817)
    lo = curve.t[0] + 2e-5
    hi = curve.t[-1] - 2e-5
    worst = 0.0
    evaluated = 0
    for t in rng.uniform(lo, hi, 200):
        chk = lorentz.verify_cmc(params, curve, float(t))
        if chk.evaluated:
            worst = max(worst, abs(chk.H_est - args.H))
            evaluated += 1
        if evaluated >= 100:
            break
    report["cmc_fd_max_error"] = {
        "value": worst, "bound": 1e-5, "samples": evaluated,
        "pass": bool(evaluated > 0 and worst <= 1e-5),
    }

    report["all_pass"] = all(v["pass"] for k, v in report.items()
                             if isinstance(v, dict))
    _emit_json(report, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypcmc",
        description="CMC hypersurfaces of hyperbolic rotational type: "
                    "potentials, singular quadrature, shooting, profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_tol=True):
        if need_tol:
            p.add_argument("--tol", type=float, default=None,
                           help="quadrature tolerance (default from "
                                f"{ENV_TOL} or {quadrature.DEFAULT_TOL})")
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")

    p = sub.add_parser("xi", help="evaluate xi_n(H)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    common(p)
    p.set_defaults(func=_cmd_xi)

    p = sub.add_parser("h0", help="solve xi_n(H0) = -2*pi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lo", type=float, default=-10.0)
    p.add_argument("--hi", type=float, default=-1.0)
    p.add_argument("--solver-tol", type=float, default=1e-12)
    common(p)
    p.set_defaults(func=_cmd_h0)

    p = sub.add_parser("solve-c", help="solve K(C, H) = -2*pi*k/m for C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--embedded", action="store_true",
                   help="restrict to (C0, Ctilde) and require the "
                        "embedding criterion")
    p.add_argument("--solver-tol", type=float, default=1e-13)
    common(p)
    p.set_defaults(func=_cmd_solve_c)

    p = sub.add_parser("profile", help="integrate a profile curve to CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--H", type=float)
    p.add_argument("--C", type=float)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=1024,
                   help="samples per period")
    p.add_argument("--clip", type=float, default=None,
                   help="clip |theta_prime| in the emitted trace")
    p.add_argument("--seed-figures", choices=sorted(FIGURE_PROFILES),
                   help="use a predefined reference figure parameter set")
    common(p, need_tol=False)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("surface", help="emit an immersion sample grid to CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=128,
                   help="samples per period")
    p.add_argument("--fibers", type=int, default=33,
                   help="number of fiber sample points")
    p.add_argument("--fiber-span", type=float, default=1.5,
                   help="rapidity half-range of the fiber samples")
    common(p, need_tol=False)
    p.set_defaults(func=_cmd_surface)

    p = sub.add_parser("sweep", help="tabulate xi_n over an H grid to CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--H-from", type=float, dest="H_from")
    p.add_argument("--H-to", type=float, dest="H_to")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--seed-figures", choices=sorted(FIGURE_SWEEPS),
                   help="use a predefined reference figure parameter set")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run the invariant report for one surface")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--C", type=float, required=True)
    p.add_argument("--periods", type=int, default=1)
    p.add_argument("--samples", type=int, default=256)
    common(p)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "tol", None) is None:
            args.tol = _default_tol()
        if getattr(args, "samples", None) is not None and args.samples < 16:
            print(json.dumps({"error": "samples must be >= 16"}),
                  file=sys.stderr)
            return 2
        for f in REQUIRED_WITHOUT_SEED.get(args.command, ()):
            if not args.seed_figures and getattr(args, f) is None:
                print(json.dumps(
                    {"error": f"--{f.replace('_', '-')} is required "
                              "without --seed-figures"}), file=sys.stderr)
                return 2
        return args.func(args)
    except (NonConvergenceError, IntegrationFailureError,
            EvaluationError) as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__}), file=sys.stderr)
        return 3
    except HypcmcError as exc:
        print(json.dumps({"error": str(exc),
                          "kind": type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
