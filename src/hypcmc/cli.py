"""Command-line interface.

Every computation in the library is reachable here with reproducible,
machine-readable output: JSON for scalar results and solver outcomes,
CSV for sample tables.  Identical invocations produce byte-identical
output.  The default quadrature tolerance can be overridden globally
with the HYPCMC_TOL environment variable or per-call with --tol.

Exit codes: 0 success, 2 usage/domain/precondition error or out of memory,
3 non-convergence; an error is one JSON line on stderr, with its kind.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

import numpy as np

from . import _shortest, lorentz, profile, quadrature
from .errors import (
    DomainError,
    EvaluationError,
    HypcmcError,
    IntegrationFailureError,
    NonConvergenceError,
)
from .potential import C0, Ctilde, ShapeParams
from .profile import integrate_profile, profile_alpha, theta_prime_trace
from .quadrature import _result, require_converged, xi, xi_grid
from .shooting import NoRootReport, WindingTarget, find_H0, solve_C

ENV_TOL = "HYPCMC_TOL"
CSV_CELLS = 16384  # floats in a CSV pass, at most (and at least one row)
# A pass with at least this many distinct floats formats them with the
# array kernel, whose fixed cost per call repr one by one beats below it
# (the two cross at about 350-380 distinct floats).
CSV_KERNEL_MIN = 384

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
    """HYPCMC_TOL as a float, else the default; the quadrature checks it
    as it checks --tol (DomainError unless positive and finite)."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return quadrature.DEFAULT_TOL
    try:
        return float(raw)
    except ValueError as exc:
        raise DomainError(f"bad {ENV_TOL} value {raw!r}") from exc


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
    return obj


def _running_max(values) -> float:
    """max(worst, x) over the values from worst = 0.0: a NaN is skipped."""
    return float(np.fmax.reduce(values, initial=0.0))


def _held(value: float, bound: float) -> dict:
    """A check report entry: the value, its bound and whether it holds."""
    return {"value": value, "bound": bound, "pass": bool(value <= bound)}


def _emit(chunks, output_path):
    """Write the strings of chunks, in order, to output_path or stdout."""
    if output_path:
        with open(output_path, "w", newline="") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _emit_json(obj, output_path):
    _emit([json.dumps(_jsonable(obj), indent=2) + "\n"], output_path)


def _csv_lines(block, index):
    """The CSV lines of a block of float rows, each float in shortest
    round-trip form (repr), after the row's ``index`` entry if given.

    Each distinct float bit pattern is formatted once: keying on bits
    keeps 0.0 apart from -0.0 and gives each NaN payload its own entry.
    From CSV_KERNEL_MIN distinct floats on they are formatted together by
    _shortest.repr_text and the lines are cut from its text as bytes
    (_csv_cells); below it, by repr one by one, joined as strings."""
    bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
    if len(bits) >= CSV_KERNEL_MIN:
        return str(_csv_cells(bits.view(float),
                              inverse.reshape(block.shape), index), "ascii")
    text = np.array(list(map(repr, bits.view(float).tolist())), dtype=object)
    lines = map(",".join, text[inverse].reshape(block.shape).tolist())
    if index is not None:
        lines = map("{},{}".format, index.tolist(), lines)
    return "\r\n".join([*lines, ""])


def _csv_cells(values, cells, index):
    """The CSV bytes of a table of cells (indices into values), each row
    after its ``index`` entry if given.

    Each distinct value and index word is laid out once, in a slot of W
    bytes (the longest text + 2): its text, ",", then NUL bytes.  One
    gather lays out every cell, each row's last "," becomes CRLF, and the
    NUL bytes, which no repr or index word holds, are dropped."""
    text, starts, lengths, _ = _shortest.repr_text(values)
    text[starts + lengths] = ord(",")
    words = np.zeros(0, "S1")
    if index is not None:
        # the index words go after the floats, each in a slot of its own
        keys, at = np.unique(index, return_inverse=True)
        words = np.array([f"{key}," for key in keys.tolist()], "S")
        cells = np.column_stack((at + len(values), cells))
    width = max(int(lengths.max()) + 2, words.itemsize)
    # a slot stays inside the ROOM bytes that belong to its value
    slots = np.ndarray((len(text) - width + 1,), f"V{width}", text, 0,
                       (1,))[starts].view(np.uint8).reshape(-1, width)
    slots *= np.tri(width, dtype=np.uint8).take(lengths, axis=0)
    slots = np.concatenate(
        (slots, words.astype(f"S{width}").view(np.uint8).reshape(-1, width)))
    out = slots.view(f"V{width}").reshape(-1)[cells].view(np.uint8).ravel()
    ends = np.arange(width * cells.shape[1] - width, len(out),
                     width * cells.shape[1]) + lengths[cells[:, -1]]
    out[ends] = ord("\r")
    out[ends + 1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _emit_csv(header, table, output_path, index=None):
    """CSV with CRLF line endings: the header, then one line per row of
    the float table, as _csv_lines writes it.  No field needs quoting, so
    the bytes equal those of csv.writer.  Rows go in the fewest passes of
    at most CSV_CELLS floats, of equal rows, so no whole table of strings
    is held."""
    table = np.ascontiguousarray(table, dtype=float)
    count = -(-table.size // CSV_CELLS) or 1
    step = max(1, -(-len(table) // count))
    passes = (_csv_lines(table[i:i + step],
                         None if index is None else index[i:i + step])
              for i in range(0, len(table), step))
    _emit(itertools.chain([",".join(header) + "\r\n"], passes), output_path)


def _fields(obj, **names):
    """A dataclass's fields in definition order, each key renamed as
    ``names`` says; vars() reads them without asdict's deep copy."""
    return {names.get(k, k): v for k, v in vars(obj).items()}


def _outcome_dict(out, parameter_name):
    if isinstance(out, NoRootReport):
        return {"no_root": True, **vars(out)}
    return _fields(out, parameter_value=parameter_name)


def _cmd_xi(args):
    res = require_converged(xi(args.n, args.H, tol=args.tol),
                            "xi quadrature", args.tol)
    _emit_json(_fields(res, abs_error_estimate="error_estimate"), args.output)
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
    # a NoRootReport's "target" keeps its place, with the same value
    _emit_json({
        **_outcome_dict(out, "C_star"),
        "target": winding.target,
        "k": args.k,
        "m": args.m,
        "C0": C0(args.n, args.H),
        "Ctilde": Ctilde(args.n, args.H),
    }, args.output)
    return 0


def _curve(args):
    """The profile curve of a shape command's options."""
    return integrate_profile(ShapeParams(n=args.n, H=args.H, C=args.C),
                             m_periods=args.periods,
                             samples_per_period=args.samples)


def _cmd_profile(args):
    curve = _curve(args)
    alpha = profile_alpha(curve)
    trace = theta_prime_trace(curve, clip=args.clip)
    table = np.column_stack((curve.t, curve.g, curve.g_prime, curve.r,
                             curve.lam, curve.theta, trace[:, 1], alpha))
    _emit_csv(
        ["t", "g", "g_prime", "r", "lambda", "theta", "theta_prime",
         "alpha_x", "alpha_y"],
        table, args.output,
    )
    return 0


def _cmd_surface(args):
    curve = _curve(args)
    # the fiber H^1 for n = 2, else a geodesic slice of it through the axis
    try:
        with np.errstate(invalid="ignore"):  # an infinite span gives NaN
            span = np.linspace(-args.fiber_span, args.fiber_span, args.fibers)
        fibers = [[math.sinh(v)] + [0.0] * (args.n - 2) + [math.cosh(v)]
                  for v in span.tolist()]
    except OverflowError:
        raise DomainError(f"--fiber-span {args.fiber_span} overflows the "
                          "fiber points") from None
    grid = profile.surface_grid(curve, fibers)
    header = ["fiber", "t"] + [f"x{i + 1}" for i in range(args.n + 2)]
    F, N = grid.shape[:2]
    ts = np.broadcast_to(curve.t[:, None], (F, N, 1))
    table = np.concatenate((ts, grid), axis=2).reshape(F * N, args.n + 3)
    _emit_csv(header, table, args.output, index=np.repeat(np.arange(F), N))
    return 0


def _cmd_sweep(args):
    """xi_n over an H grid, written from the value column of one xi_grid
    call; fails with a loop's first error, then at the first H whose xi
    did not converge."""
    for option, value in (("--H-from", args.H_from), ("--H-to", args.H_to)):
        if not math.isfinite(value):
            raise DomainError(f"{option} must be finite, got {value}")
    Hs = np.linspace(args.H_from, args.H_to, args.steps)
    columns, _ = xi_grid(args.n, Hs, args.tol)
    for i in np.flatnonzero(~columns[3]).tolist():
        require_converged(_result(columns, i),
                          f"xi quadrature at H={Hs[i].item()!r}", args.tol)
    _emit_csv(["H", "xi"], np.column_stack((Hs, columns[0])), args.output)
    return 0


def _cmd_check(args):
    curve = _curve(args)
    params = curve.params
    report = {}

    # energy conservation along the trajectory
    energy = profile._energy_residual(params, curve.g, curve.g_prime)
    bound = profile.ENERGY_TOL * max(1.0, abs(args.C))
    report["energy_residual_max"] = _held(float(energy.max()), bound)

    # period: the phase series vs tanh-sinh quadrature over v
    T = require_converged(quadrature.period_T(params, tol=args.tol),
                          "check's tanh-sinh period reference", args.tol).value
    period_diff = abs(curve.period_T - T)
    report["period_rel_diff"] = {
        "value": float(period_diff / T), "bound": 1e-8,
        "pass": bool(period_diff <= 1e-8 * T),
    }

    # closure: the phase series' angle per period vs the tanh-sinh flux
    K = require_converged(quadrature._flux_over_v(params, tol=args.tol),
                          "check's tanh-sinh flux reference", args.tol).value
    closure = abs(curve.K_value - K)
    report["closure_residual"] = _held(float(closure), 1e-7)

    # hyperboloid membership and Gauss-map identities over the samples
    y0 = lorentz.FiberPoint.axis(args.n).as_array()
    r, theta = curve.r, curve.theta
    phi = lorentz.immerse_rows(r, theta, y0)
    off = r > 1.0 + 1e-12
    nu = lorentz.gauss_rows(r[off], curve.g_prime[off] / math.sqrt(-args.C),
                            curve.lam[off], theta[off], y0)
    inner = lorentz.inner_rows
    dev_phi = _running_max(np.abs(inner(phi, phi) + 1.0))
    dev_nu = _running_max(np.abs(inner(nu, nu) - 1.0))
    dev_tan = _running_max(np.abs(inner(nu, phi[off])))
    report["hyperboloid_max_deviation"] = _held(dev_phi, 1e-10)
    report["gauss_norm_max_deviation"] = _held(dev_nu, 1e-10)
    report["gauss_tangency_max_deviation"] = _held(dev_tan, 1e-10)

    # finite-difference mean curvature at the first 100 evaluated of 200
    # interior draws; each batch holds only draws that a loop over them,
    # stopping at the 100th evaluated one, reaches
    rng = np.random.default_rng(20240817)
    margin = 2 * lorentz.FD_STEP
    draws = rng.uniform(curve.t[0] + margin, curve.t[-1] - margin, 200)
    errors = []
    used = 0
    while len(errors) < 100 and used < len(draws):
        batch = draws[used:used + 100 - len(errors)]
        used += len(batch)
        evaluated, _, _, H_est = lorentz.curvature_rows(curve, batch)
        errors += np.abs(H_est[evaluated] - args.H).tolist()
    worst = _running_max(errors)
    evaluated = len(errors)
    report["cmc_fd_max_error"] = {
        "value": worst, "bound": 1e-5, "samples": evaluated,
        "pass": bool(evaluated > 0 and worst <= 1e-5),
    }

    report["all_pass"] = all(v["pass"] for k, v in report.items()
                             if isinstance(v, dict))
    _emit_json(report, args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes a negative number with an exponent,
    such as -1e6, and -inf, -infinity and -nan as values, as argparse
    itself takes -2 and -0.5; and that reports a usage error as one JSON
    line on stderr, with exit code 2."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)([eE][-+]?\d+)?|inf|infinity|nan)$",
            re.IGNORECASE)

    def error(self, message):
        _print_error(message, "UsageError")
        sys.exit(2)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.  It holds no per-call
    state: each parse gives a fresh Namespace, and main reads HYPCMC_TOL
    on each call."""
    parser = _Parser(
        prog="hypcmc",
        description="CMC hypersurfaces of hyperbolic rotational type: "
                    "potentials, singular quadrature, shooting, profiles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, func, need_tol=True):
        """The options every command ends with, and its function."""
        p.set_defaults(func=func)
        if need_tol:
            p.add_argument("--tol", type=float, default=None,
                           help="quadrature tolerance (default from "
                                f"{ENV_TOL} or {quadrature.DEFAULT_TOL})")
        p.add_argument("--output", default=None,
                       help="write to this path instead of stdout")

    def shape(p, samples, required=True, samples_help="samples per period"):
        """The options of a command that integrates a profile curve."""
        p.add_argument("--n", type=int, required=required)
        p.add_argument("--H", type=float, required=required)
        p.add_argument("--C", type=float, required=required)
        p.add_argument("--periods", type=int, default=1)
        p.add_argument("--samples", type=int, default=samples,
                       help=samples_help)

    p = sub.add_parser("xi", help="evaluate xi_n(H)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    common(p, _cmd_xi)

    p = sub.add_parser("h0", help="solve xi_n(H0) = -2*pi")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lo", type=float, default=-10.0)
    p.add_argument("--hi", type=float, default=-1.0)
    p.add_argument("--solver-tol", type=float, default=1e-12)
    common(p, _cmd_h0)

    p = sub.add_parser("solve-c", help="solve K(C, H) = -2*pi*k/m for C")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--H", type=float, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--embedded", action="store_true",
                   help="restrict to (C0, Ctilde) and require the "
                        "embedding criterion")
    p.add_argument("--solver-tol", type=float, default=1e-13)
    common(p, _cmd_solve_c)

    p = sub.add_parser("profile", help="integrate a profile curve to CSV")
    shape(p, 1024, required=False)
    p.add_argument("--clip", type=float, default=None,
                   help="clip |theta_prime| in the emitted trace")
    p.add_argument("--seed-figures", choices=sorted(FIGURE_PROFILES),
                   help="use a predefined reference figure parameter set")
    common(p, _cmd_profile, need_tol=False)

    p = sub.add_parser("surface", help="emit an immersion sample grid to CSV")
    shape(p, 128)
    p.add_argument("--fibers", type=int, default=33,
                   help="number of fiber sample points")
    p.add_argument("--fiber-span", type=float, default=1.5,
                   help="rapidity half-range of the fiber samples")
    common(p, _cmd_surface, need_tol=False)

    p = sub.add_parser("sweep", help="tabulate xi_n over an H grid to CSV")
    p.add_argument("--n", type=int)
    p.add_argument("--H-from", type=float, dest="H_from")
    p.add_argument("--H-to", type=float, dest="H_to")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--seed-figures", choices=sorted(FIGURE_SWEEPS),
                   help="use a predefined reference figure parameter set")
    common(p, _cmd_sweep)

    p = sub.add_parser("check", help="run the invariant report for one surface")
    shape(p, 256, samples_help=None)
    common(p, _cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args) and args.tol is None:
            args.tol = _default_tol()
        if getattr(args, "samples", None) is not None and args.samples < 16:
            raise DomainError("samples must be >= 16")
        for count in ("fibers", "steps"):
            if getattr(args, count, 0) < 0:
                raise DomainError(f"--{count} must be >= 0")
        if "solver_tol" in vars(args):
            quadrature._check_tol(args.solver_tol, "--solver-tol")
        if getattr(args, "seed_figures", None):
            figures = {**FIGURE_PROFILES, **FIGURE_SWEEPS}[args.seed_figures]
            for option, value in figures.items():
                if not (option == "clip" and args.clip is not None):
                    setattr(args, option, value)
        if getattr(args, "periods", 1) < 1:
            raise DomainError("--periods must be >= 1")
        for f in REQUIRED_WITHOUT_SEED.get(args.command, ()):
            if getattr(args, f) is None:
                raise DomainError(f"--{f.replace('_', '-')} is required "
                                  "without --seed-figures")
        return args.func(args)
    except (NonConvergenceError, IntegrationFailureError,
            EvaluationError) as exc:
        error, code = exc, 3
    except (HypcmcError, OSError) as exc:  # OSError: --output unwritable
        error, code = exc, 2
    except MemoryError as exc:  # a table too large to allocate
        error, code = MemoryError(str(exc)), 2  # NumPy raises a subclass
    _print_error(str(error), type(error).__name__)
    return code


def _print_error(message, kind):
    print(json.dumps({"error": message, "kind": kind}), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
