import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hypcmc as h
from hypcmc.cli import main

import frozen


def run_cli(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_xi_json(capsys):
    code, out, err = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")
    assert code == 0
    data = json.loads(out)
    assert data["converged"] is True
    assert data["value"] == pytest.approx(frozen.XI[(2, -1.1)], abs=1e-10)
    assert isinstance(data["evaluations"], int)


def test_xi_float_roundtrip(capsys):
    # emitted floats must round-trip exactly through their decimal form
    _, out, _ = run_cli(capsys, "xi", "--n", "3", "--H", "-1.5")
    val = json.loads(out)["value"]
    assert float(repr(val)) == val


def test_xi_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "xi", "--n", "2", "--H", "-0.5")
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert "error" in msg and msg["kind"] == "DomainError"
    assert "\n" not in err.strip()


def test_xi_nonconvergence_exit_3(capsys, monkeypatch):
    # the real quadrature saturates to err = 0 at machine precision, so a
    # non-converged result is injected to test the exit-code mapping
    import hypcmc.cli as cli_mod

    monkeypatch.setattr(
        cli_mod, "xi",
        lambda n, H, tol: h.QuadResult(0.0, 1.0, 10, False))
    code, out, err = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")
    assert code == 3
    assert json.loads(err)["kind"] == "NonConvergenceError"


def test_sweep_nonconvergence_exit_3(capsys, monkeypatch):
    # a sweep row whose xi did not converge fails the command, naming H,
    # instead of being written out
    import hypcmc.cli as cli_mod

    xi_grid = cli_mod.xi_grid

    def one_row_not_converged(n, Hs, tol):
        (value, error, evaluations, converged), missing = xi_grid(n, Hs, tol)
        error[2], converged[2] = 1.0, False
        return (value, error, evaluations, converged), missing

    monkeypatch.setattr(cli_mod, "xi_grid", one_row_not_converged)
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--H-from", "-3",
                             "--H-to", "-2", "--steps", "5")
    assert code == 3
    assert out == ""
    assert json.loads(err)["kind"] == "NonConvergenceError"
    assert "H=-2.5 " in json.loads(err)["error"]


def test_sweep_fails_as_a_loop_over_xi(capsys):
    # the first error of the grid, in grid order: n = 2 has no xi at
    # H = -1 (exit 2, LandmarkError) although H = -0.5 comes later
    code, out, err = run_cli(capsys, "sweep", "--n", "2", "--H-from", "-1.5",
                             "--H-to", "-0.5", "--steps", "3")
    assert code == 2
    assert out == ""
    assert json.loads(err)["kind"] == "LandmarkError"


def test_profile_degenerate_in_floats_exit_2(capsys):
    # C is rel 1e-9 above C0, but the float p(v0) is not positive, so the
    # oscillation roots cannot be bracketed: a JSON error, not a traceback
    code, out, err = run_cli(capsys, "profile", "--n", "8", "--H", "-1000",
                             "--C", "-0.17782794394972942")
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "DegenerateOscillationError"
    assert "\n" not in err.strip()


@pytest.mark.parametrize("argv, kind", [
    (("xi", "--n", "3", "--H=-1e9"), "DegenerateOscillationError"),
    (("sweep", "--n", "3", "--H-from=-1e9", "--H-to=-1e8", "--steps", "2"),
     "DegenerateOscillationError"),
    (("h0", "--n", "2", "--lo=-1e9", "--hi=-1e8"),
     "DegenerateOscillationError"),
    (("xi", "--n", "2", "--H=-1e300"), "DomainError"),
])
def test_xi_at_large_H_exit_2(capsys, argv, kind):
    # at |H| >= 1e8 Q's upper root t2~ = 1 + x rounds to 1, and at
    # H = -1e300 Q's coefficients are not finite: a JSON error naming n
    # and H, not a traceback; h0 does not read the degenerate interval as
    # a missing landmark
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    msg = json.loads(err)
    assert msg["kind"] == kind
    assert "n=" in msg["error"] and "H=" in msg["error"]


@pytest.mark.parametrize("argv", [
    ("xi", "--n", "3", "--H", "-4750.260380087513"),
    ("sweep", "--n", "3", "--H-from=-4750.260380087513", "--H-to=-4000",
     "--steps", "2"),
])
def test_xi_at_large_H_exit_0(capsys, argv):
    # where the float bracket of Q's upper root used to be degenerate,
    # xi answers within 1e-14 of mpmath
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    value = (json.loads(out)["value"] if argv[0] == "xi"
             else float(_parse_csv(out)[1][1]))
    ref = frozen.XI_LARGE_H[(3, -4750.260380087513)]
    assert abs(value - ref) <= 1e-14


def test_sweep_out_to_minus_1e6(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "8", "--H-from=-1e6",
                           "--H-to=-1e3", "--steps", "400")
    assert code == 0
    assert len(_parse_csv(out)) == 401  # the header and 400 rows


NEGATIVE_EXPONENT_VALUES = [
    ("--H", "-1e2", ("xi", "--n", "2")),
    ("--C", "-5e-1", ("profile", "--n", "2", "--H", "-1.1", "--samples", "16")),
    ("--lo", "-1e1", ("h0", "--n", "2")),
    ("--hi", "-1.01e0", ("h0", "--n", "2")),
    ("--H-from", "-1e6", ("sweep", "--n", "3", "--H-to=-1.02", "--steps", "3")),
    ("--H-to", "-1.02e0", ("sweep", "--n", "3", "--H-from=-1e6", "--steps", "3")),
    ("--tol", "-1e-9", ("xi", "--n", "2", "--H", "-1.1")),
    ("--solver-tol", "-1e-12", ("h0", "--n", "2")),
    ("--clip", "-5e0", ("profile", "--seed-figures", "fig4", "--samples", "16")),
    ("--fiber-span", "-1.5e0", ("surface", "--n", "2", "--H", "-1.1", "--C",
                                "-0.5", "--samples", "16", "--fibers", "3")),
]


@pytest.mark.parametrize("option, value, argv", NEGATIVE_EXPONENT_VALUES,
                         ids=[case[0] for case in NEGATIVE_EXPONENT_VALUES])
def test_negative_value_with_exponent(capsys, option, value, argv):
    # a negative number with an exponent is a value after a space too, as
    # after "=": the same exit code and bytes (argparse's own test of a
    # negative number stops at the exponent, and read -1e6 as an option)
    spaced = run_cli(capsys, *argv, option, value)
    assert spaced == run_cli(capsys, *argv, f"{option}={value}")


NON_FINITE_VALUES = [
    ("--H", "-inf", ("xi", "--n", "2")),
    ("--H", "-nan", ("xi", "--n", "2")),
    ("--H", "-Infinity", ("xi", "--n", "2")),
    ("--hi", "-inf", ("h0", "--n", "2")),
    ("--lo", "-inf", ("h0", "--n", "2")),
    ("--solver-tol", "-inf", ("h0", "--n", "2")),
    ("--C", "-nan", ("profile", "--n", "2", "--H", "-1.1", "--samples", "16")),
]


@pytest.mark.parametrize("option, value, argv", NON_FINITE_VALUES,
                         ids=[f"{o}{v}" for o, v, _ in NON_FINITE_VALUES])
def test_negative_non_finite_value(capsys, option, value, argv):
    # -inf, -infinity and -nan are values after a space too, answered as
    # the "=" form is (a JSON domain error), not refused as unknown options
    spaced = run_cli(capsys, *argv, option, value)
    assert spaced == run_cli(capsys, *argv, f"{option}={value}")
    code, out, err = spaced
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] != "UsageError"


@pytest.mark.parametrize("argv, words", [
    (("xi", "--n", "2"), "required: --H"),
    (("xi", "--n", "two", "--H", "-1.1"), "invalid int value: 'two'"),
    (("xi", "--n", "2", "--H", "-1.1", "--bad"), "unrecognized"),
    (("bogus",), "invalid choice: 'bogus'"),
    (("profile", "--seed-figures", "fig9"), "invalid choice: 'fig9'"),
    ((), "required: command"),
], ids=["missing", "type", "unknown", "command", "choice", "empty"])
def test_usage_error_is_one_json_line(capsys, argv, words):
    # argparse's errors follow the README's error format: one JSON line
    # on stderr with a kind, exit code 2 through SystemExit as before
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    error = json.loads(err)
    assert error["kind"] == "UsageError"
    assert words in error["error"]


# each subcommand's options in order: (option strings, required, default,
# type, help), as usage errors and --help show them
HELP = ("-h --help", False, "==SUPPRESS==", None,
        "show this help message and exit")
TOL = ("--tol", False, None, "float",
       "quadrature tolerance (default from HYPCMC_TOL or 1e-11)")
OUTPUT = ("--output", False, None, None,
          "write to this path instead of stdout")
SEED = "use a predefined reference figure parameter set"
OPTION_TABLE = {
    "xi": [HELP, ("--n", True, None, "int", None),
           ("--H", True, None, "float", None), TOL, OUTPUT],
    "h0": [HELP, ("--n", True, None, "int", None),
           ("--lo", False, -10.0, "float", None),
           ("--hi", False, -1.0, "float", None),
           ("--solver-tol", False, 1e-12, "float", None), TOL, OUTPUT],
    "solve-c": [HELP, ("--n", True, None, "int", None),
                ("--H", True, None, "float", None),
                ("--k", True, None, "int", None),
                ("--m", True, None, "int", None),
                ("--embedded", False, False, None,
                 "restrict to (C0, Ctilde) and require the embedding "
                 "criterion"),
                ("--solver-tol", False, 1e-13, "float", None), TOL, OUTPUT],
    "profile": [HELP, ("--n", False, None, "int", None),
                ("--H", False, None, "float", None),
                ("--C", False, None, "float", None),
                ("--periods", False, 1, "int", None),
                ("--samples", False, 1024, "int", "samples per period"),
                ("--clip", False, None, "float",
                 "clip |theta_prime| in the emitted trace"),
                ("--seed-figures", False, None, None, SEED), OUTPUT],
    "surface": [HELP, ("--n", True, None, "int", None),
                ("--H", True, None, "float", None),
                ("--C", True, None, "float", None),
                ("--periods", False, 1, "int", None),
                ("--samples", False, 128, "int", "samples per period"),
                ("--fibers", False, 33, "int",
                 "number of fiber sample points"),
                ("--fiber-span", False, 1.5, "float",
                 "rapidity half-range of the fiber samples"), OUTPUT],
    "sweep": [HELP, ("--n", False, None, "int", None),
              ("--H-from", False, None, "float", None),
              ("--H-to", False, None, "float", None),
              ("--steps", False, 64, "int", None),
              ("--seed-figures", False, None, None, SEED), TOL, OUTPUT],
    "check": [HELP, ("--n", True, None, "int", None),
              ("--H", True, None, "float", None),
              ("--C", True, None, "float", None),
              ("--periods", False, 1, "int", None),
              ("--samples", False, 256, "int", None), TOL, OUTPUT],
}


def test_option_table_is_pinned():
    # the subcommands and their options, in order, with what argparse
    # reads of each: a refactor of the parser leaves this table equal
    from hypcmc.cli import build_parser

    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    table = {name: [(" ".join(a.option_strings), a.required, a.default,
                     a.type and a.type.__name__, a.help)
                    for a in parser._actions]
             for name, parser in sub.choices.items()}
    assert list(table) == list(OPTION_TABLE)
    for name, options in OPTION_TABLE.items():
        assert table[name] == options, name


@pytest.mark.parametrize("command", ["profile", "surface", "check"])
@pytest.mark.parametrize("periods", ["0", "-3"])
def test_periods_below_one_exit_2(capsys, command, periods):
    code, out, err = run_cli(capsys, command, "--n", "2", "--H", "-1.1",
                             "--C", "-0.5", "--periods", periods)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "--periods must be >= 1",
                               "kind": "DomainError"}


def test_env_tol_override(capsys, monkeypatch):
    # the environment tolerance must reach the quadrature call, and an
    # explicit --tol must win over it
    import hypcmc.cli as cli_mod

    seen = []

    def spy(n, H, tol):
        seen.append(tol)
        return h.xi(n, H, tol=tol)

    monkeypatch.setattr(cli_mod, "xi", spy)
    monkeypatch.setenv("HYPCMC_TOL", "1e-9")
    assert run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")[0] == 0
    assert run_cli(capsys, "xi", "--n", "2", "--H", "-1.1",
                   "--tol", "1e-10")[0] == 0
    assert seen == [1e-9, 1e-10]


def test_parser_reuse_keeps_no_state(capsys, monkeypatch):
    # main reuses one parser per process; a usage error, a changed
    # HYPCMC_TOL or a seeded profile leaves nothing behind for the next call
    from hypcmc.cli import build_parser

    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["xi", "--n", "2"])
    assert exc.value.code == 2
    assert "--H" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")
    assert (code, json.loads(out)["value"]) == (0, h.xi(2, -1.1).value)

    evaluations = []  # near H = -1 the node count follows the tolerance
    for tol in ("1e-6", "1e-13"):
        monkeypatch.setenv("HYPCMC_TOL", tol)
        code, out, _ = run_cli(capsys, "xi", "--n", "2", "--H", "-1.0001")
        res = h.xi(2, -1.0001, tol=float(tol))
        data = json.loads(out)
        assert (code, data["value"], data["error_estimate"]) == (
            0, res.value, res.abs_error_estimate)
        evaluations.append(data["evaluations"])
        assert evaluations[-1] == res.evaluations
    assert evaluations[0] < evaluations[1]
    monkeypatch.delenv("HYPCMC_TOL")

    missing = ('{"error": "--H is required without --seed-figures", '
               '"kind": "DomainError"}\n')
    assert run_cli(capsys, "profile", "--n", "2") == (2, "", missing)
    assert run_cli(capsys, "profile", "--seed-figures", "fig1")[0] == 0
    assert run_cli(capsys, "profile", "--n", "2") == (2, "", missing)


def test_env_tol_invalid(capsys, monkeypatch):
    monkeypatch.setenv("HYPCMC_TOL", "not-a-number")
    code, out, err = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "bad HYPCMC_TOL value 'not-a-number'",
                               "kind": "DomainError"}


@pytest.mark.parametrize("tol", ["0", "-1e-9", "inf", "nan"])
def test_bad_tol_is_the_same_domain_error_from_flag_and_env(capsys,
                                                             monkeypatch,
                                                             tol):
    # a tolerance that is not positive and finite is refused with exit 2
    # and one text, whether it comes from --tol or from HYPCMC_TOL; an
    # infinite one would report every quadrature converged at 17 nodes
    argv = ["xi", "--n", "2", "--H", "-1.1"]
    flag = run_cli(capsys, *argv, f"--tol={tol}")
    monkeypatch.setenv("HYPCMC_TOL", tol)
    env = run_cli(capsys, *argv)
    assert flag == env
    code, out, err = flag
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "DomainError"
    assert "tol must be" in json.loads(err)["error"]
    # profile and surface take no tolerance, so they do not read it
    assert run_cli(capsys, "profile", "--seed-figures", "fig1")[0] == 0


def test_h0_json(capsys):
    code, out, _ = run_cli(capsys, "h0", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["H0"] == pytest.approx(frozen.H0_N2, abs=1e-10)
    assert data["classification"] == "Embedded"


def test_h0_n2_within_2_ulp_of_the_closed_form(capsys):
    # frozen.H0_N2 = -1/sqrt(m*), ellipk(m*) = pi (test_frozen_refs.py)
    code, out, _ = run_cli(capsys, "h0", "--n", "2")
    assert code == 0
    H0 = json.loads(out)["H0"]
    assert abs(H0 - frozen.H0_N2) <= 2 * np.spacing(abs(frozen.H0_N2))


def test_h0_no_root_json(capsys):
    code, out, _ = run_cli(capsys, "h0", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert data["no_root"] is True
    assert data["points_scanned"] >= 64


def test_solve_c_json(capsys):
    code, out, _ = run_cli(capsys, "solve-c", "--n", "2", "--H", "-1.1",
                           "--k", "1", "--m", "5")
    assert code == 0
    data = json.loads(out)
    assert data["C_star"] == pytest.approx(frozen.CSTAR_N2_M5, abs=1e-11)
    assert data["classification"] == "ImmersedClosed"
    assert data["target"] == pytest.approx(-2 * math.pi / 5)
    assert data["C0"] < data["C_star"] < 0


def test_solve_c_embedded_precondition_exit_2(capsys):
    code, out, err = run_cli(capsys, "solve-c", "--n", "2", "--H", "-1.01",
                             "--k", "1", "--m", "1", "--embedded")
    assert code == 2
    assert json.loads(err)["kind"] == "EmbeddingPreconditionError"


def test_solve_c_empty_search_interval_exit_2(capsys):
    # at (8, -1000) the branch (C0, Ctilde) is narrower than the gap of
    # 1e-6 |C0| above C0, so no interval is left to scan
    code, out, err = run_cli(capsys, "solve-c", "--n", "8", "--H=-1000",
                             "--k", "1", "--m", "1", "--embedded")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["kind"] == "DomainError"
    assert "n=8, H=-1000.0" in error["error"]


def test_solve_c_noncoprime_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve-c", "--n", "2", "--H", "-1.1",
                           "--k", "2", "--m", "4")
    assert code == 2


SOLVE_C = ("solve-c", "--n", "2", "--H", "-1.1", "--k", "1", "--m", "5")
SURFACE = ("surface", "--n", "2", "--H", "-1.1", "--C", "-0.5")
SWEEP = ("sweep", "--n", "3", "--H-from", "-3", "--H-to", "-2")


@pytest.mark.parametrize("argv", [
    SOLVE_C + ("--solver-tol", "0"),
    SOLVE_C + ("--solver-tol", "-1"),
    SOLVE_C + ("--solver-tol", "nan"),
    ("h0", "--n", "2", "--solver-tol", "0"),
    ("h0", "--n", "2", "--solver-tol", "nan"),
    SURFACE + ("--fibers", "-1"),
    SWEEP + ("--steps", "-1"),
    SURFACE + ("--fiber-span", "nan", "--fibers", "3"),
    ("profile", "--n", "2", "--H", "-1.1", "--C", "-0.5", "--samples", "8"),
    SURFACE + ("--fiber-span", "800"),
    SURFACE + ("--fiber-span", "-800", "--fibers", "1"),
    ("profile", "--n", "2", "--H", "-1.1", "--C", "-0.5", "--clip", "nan"),
])
def test_bad_tolerance_count_or_span_exit_2(capsys, argv):
    # a JSON DomainError, not a traceback or rows of NaN
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["kind"] == "DomainError"


@pytest.mark.parametrize("n", ["2", "3"])
def test_surface_takes_far_fiber_spans(capsys, n):
    # the rounding of sinh^2 - cosh^2 grows like eps cosh^2, and the fiber
    # points' check is relative to |y|^2: these spans used to be refused
    for span in (5.0, 10.0, 20.0):
        code, out, err = run_cli(capsys, *_shape_argv(
            "surface", n, "-1.1", "-0.5", "--samples=16", "--fibers=3",
            f"--fiber-span={span}"))
        assert (code, err) == (0, "")
        # the last fiber's point (r sinh v, 0, ..., r cosh v) in x3 ...
        last = [float(x) for x in out.splitlines()[-1].split(",")]
        assert last[0] == 2 and last[-1] / last[4] == pytest.approx(
            math.cosh(span) / math.sinh(span), rel=1e-15)


@pytest.mark.parametrize("command", [("h0", "--n", "2"), SOLVE_C],
                         ids=["h0", "solve-c"])
@pytest.mark.parametrize("tol", ["-1e-12", "0", "inf", "nan"])
def test_bad_solver_tol_exit_2(capsys, command, tol):
    # refused before any scan, naming the option and the value; at inf
    # the residual bound max(1e-9, 10 tol) accepted any bracket's end
    code, out, err = run_cli(capsys, *command, f"--solver-tol={tol}")
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["kind"] == "DomainError"
    assert error["error"].startswith("--solver-tol must be ")
    assert error["error"].endswith(f", got {float(tol)}")


def _shape_argv(command, n="2", H="-1.1", C="-0.5", *extra):
    """argv of a command that takes a shape, with (k, m) = (1, 1) for
    solve-c, which takes no C."""
    argv = [command, f"--n={n}", f"--H={H}"]
    argv += ["--k=1", "--m=1"] if command == "solve-c" else [f"--C={C}"]
    return argv + list(extra)


SHAPE_COMMANDS = ("solve-c", "profile", "surface", "check")
PROFILE_COMMANDS = ("profile", "surface", "check")


def _refusals():
    """(argv, kind) of each CLI refusal of a bad shape, span or bound."""
    for n in ("0", "1", "-2"):
        yield ["xi", f"--n={n}", "--H=-1.5"], "DomainError"
        yield ["h0", f"--n={n}"], "DomainError"
        yield ["sweep", f"--n={n}", "--H-from=-3", "--H-to=-1.5",
               "--steps=3"], "DomainError"
        for command in SHAPE_COMMANDS:
            yield _shape_argv(command, n=n), "DomainError"
    for H in ("nan", "inf", "-inf", "0.5", "-1"):
        if H != "-1":  # xi is defined at H = -1
            yield ["xi", "--n=3", f"--H={H}"], "DomainError"
        for command in SHAPE_COMMANDS:
            yield _shape_argv(command, H=H), "DomainError"
    for C in ("nan", "inf", "0", "-100", "-1e-320"):
        # below about 8e-309 the angle rate's powers of -C overflow at n = 2
        kind = "DomainError" if C == "-1e-320" else "ParameterRangeError"
        for command in PROFILE_COMMANDS:
            yield _shape_argv(command, C=C), kind
    for span in ("400", "710", "-710", "inf", "-inf", "nan"):
        yield (_shape_argv("surface", "2", "-1.1", "-0.5",
                           f"--fiber-span={span}"), "DomainError")
    for value in ("nan", "-inf"):
        yield ["h0", "--n=2", f"--lo={value}"], "DomainError"
        yield ["h0", "--n=2", f"--hi={value}"], "DomainError"
        yield ["sweep", "--n=3", f"--H-from={value}", "--H-to=-1.5",
               "--steps=3"], "DomainError"
        yield ["sweep", "--n=3", "--H-from=-3", f"--H-to={value}",
               "--steps=3"], "DomainError"
    # an empty grid checks n too
    yield ["sweep", "--n=1", "--H-from=-3", "--H-to=-1.5",
           "--steps=0"], "DomainError"
    # from |H| of about 1e8 on the float C0 is positive (n = 5) or 0.0
    # (n = 2)
    for n, H in LOST_C0:
        for command in SHAPE_COMMANDS:
            yield _shape_argv(command, n=n, H=H, C="-0.001"), "DomainError"


# (n, H) where the float C0 has lost its sign, and that C0
LOST_C0 = {("5", "-1e8"): 0.012619146889603841, ("2", "-1e8"): 0.0}


# the exact message of the refusals that name the input at fault
REFUSAL_MESSAGES = {
    **{("sweep", "--n=3", f"--H-from={v}", "--H-to=-1.5", "--steps=3"):
       f"--H-from must be finite, got {float(v)}" for v in ("nan", "-inf")},
    **{("sweep", "--n=3", "--H-from=-3", f"--H-to={v}", "--steps=3"):
       f"--H-to must be finite, got {float(v)}" for v in ("nan", "-inf")},
    ("sweep", "--n=1", "--H-from=-3", "--H-to=-1.5", "--steps=0"):
        "n must be an integer >= 2, got 1",
    # the fiber points' squares overflow
    tuple(_shape_argv("surface", "2", "-1.1", "-0.5", "--fiber-span=400")):
        "fiber point has self-inner nan, expected -1",
    **{tuple(_shape_argv(command, H="-inf")): "H=-inf is too large: C0=nan"
       for command in SHAPE_COMMANDS},
    **{tuple(_shape_argv(command, n=n, H=H, C="-0.001")):
       f"the float C0={c0!r} at n={n}, H={float(H)!r} has lost its sign to "
       "rounding: the true C0 is negative"
       for (n, H), c0 in LOST_C0.items() for command in SHAPE_COMMANDS},
}


@pytest.mark.parametrize("argv, kind", _refusals(),
                         ids=lambda a: "_".join(a) if isinstance(a, list) else a)
def test_refusal_is_one_json_line_and_no_warning(capsys, argv, kind):
    # stderr holds the error line alone: no traceback and no numpy
    # RuntimeWarning from an overflow on the way to the refusal
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code in (2, 3) and out == ""
    assert [str(w.message) for w in caught] == []
    assert len(err.splitlines()) == 1
    assert json.loads(err)["kind"] == kind
    if tuple(argv) in REFUSAL_MESSAGES:
        assert json.loads(err)["error"] == REFUSAL_MESSAGES[tuple(argv)]


def test_solve_c_bad_n_exit_2(capsys):
    # C0(n, H) divided by n before n was checked
    code, out, err = run_cli(capsys, "solve-c", "--n", "0", "--H", "-1.1",
                             "--k", "1", "--m", "1")
    assert (code, out) == (2, "")
    assert err == ('{"error": "n must be an integer >= 2, got 0", '
                   '"kind": "DomainError"}\n')


def test_C_next_to_0_is_refused_for_its_overflow(capsys):
    # d = t1 - sqrt(-C) is not finite where the angle rate's powers of
    # -C overflow; that is named, not C = Ctilde (d = 0).  At
    # C = -7e-309 only d's denominator overflows, which alone gave d = 0
    for n, C in (("8", "-1e-50"), ("2", "-7e-309"), ("2", "-1e-320")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "profile", f"--n={n}",
                                     "--H=-1.1", f"--C={C}")
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == (
            f"the angle rate's powers of -C overflow at n={n}, "
            f"C={float(C)!r}")


# from n = 515 on, R's binomial terms pass the float range, and at n = 600
# the angle rate's powers of -C overflow far from C = 0
LARGE_N_REFUSALS = {
    ("xi", "--n=515", "--H=-1.5"):
        "Q(n=515, H=-1.5) has non-finite coefficients",
    ("h0", "--n=600"): "Q(n=600, H=-10.0) has non-finite coefficients",
    ("sweep", "--n=600", "--H-from=-2", "--H-to=-1.5", "--steps=2"):
        "Q(n=600, H=-2.0) has non-finite coefficients",
    ("solve-c", "--n=600", "--H=-1.5", "--k=1", "--m=1", "--embedded"):
        "Q(n=600, H=-1.5) has non-finite coefficients",
    ("solve-c", "--n=600", "--H=-1.5", "--k=1", "--m=2"):
        "the angle rate's powers of -C overflow at n=600, "
        "C=-0.2679302945351561",
    **{(command, "--n=600", "--H=-1.5", "--C=-0.1", "--samples=16"):
       "the angle rate's powers of -C overflow at n=600, C=-0.1"
       for command in ("profile", "surface", "check")},
}


@pytest.mark.parametrize("argv", LARGE_N_REFUSALS, ids="_".join)
def test_large_n_is_refused_in_one_json_line(capsys, argv):
    # xi, h0, sweep and solve-c --embedded raised an uncaught OverflowError
    # at n >= 515, and solve-c's scan printed numpy's overflow warning:
    # each command now exits 2 with one JSON line on stderr and no warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert [str(w.message) for w in caught] == []
    assert (code, out, len(err.splitlines())) == (2, "", 1)
    assert json.loads(err) == {"error": LARGE_N_REFUSALS[argv],
                               "kind": "DomainError"}


def test_profile_runs_next_to_ctilde_and_refuses_it(capsys):
    # a profile just below Ctilde runs, with a finite theta_prime column
    # whose first row is mpmath's -908977073206.92155508 (theta' at t1);
    # at the float Ctilde of (2, -1.1), where d = 0, each profile command
    # refuses with a DomainError that names xi as the flux there
    ct = h.Ctilde(2, -1.1)
    code, out, err = run_cli(capsys, "profile", "--n=2", "--H=-1.1",
                             f"--C={ct * (1 + 1e-12)!r}", "--samples=16")
    assert (code, err) == (0, "")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 18 and rows[0][6] == "theta_prime"
    rate = np.array([float(row[6]) for row in rows[1:]])
    assert np.all(np.isfinite(rate))
    assert rate[0] == pytest.approx(-908977073206.92155508, rel=1e-15)
    for command in PROFILE_COMMANDS:
        code, out, err = run_cli(capsys, command, "--n=2", "--H=-1.1",
                                 f"--C={ct!r}")
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["kind"] == "DomainError"
        assert error["error"].endswith("the flux there is xi(2, -1.1)")


@pytest.mark.parametrize("n, H, eps", [(2, -1.1, 1e-8), (2, -1.1, 2e-9),
                                       (3, -1.5, 1e-7), (8, -1.1, 1e-7)])
def test_check_refuses_an_unconverged_reference(capsys, n, H, eps):
    # next to Ctilde the tanh-sinh flux reference stops unconverged; check
    # exits 3 naming it rather than reading its value as a verdict
    C = h.Ctilde(n, H) * (1 + eps)
    code, out, err = run_cli(capsys, "check", f"--n={n}", f"--H={H}",
                             f"--C={C!r}", "--samples=16")
    assert (code, out) == (3, "")
    error = json.loads(err)
    assert error["kind"] == "NonConvergenceError"
    assert error["error"].startswith("check's tanh-sinh flux reference ")


def test_zero_counts_print_the_header_only(capsys):
    code, out, _ = run_cli(capsys, *SURFACE, "--fibers", "0")
    assert (code, out) == (0, "fiber,t,x1,x2,x3,x4\r\n")
    code, out, _ = run_cli(capsys, *SWEEP, "--steps", "0")
    assert (code, out) == (0, "H,xi\r\n")


def _parse_csv(text):
    assert "\r\n" in text
    return list(csv.reader(io.StringIO(text)))


def test_profile_csv(capsys):
    code, out, _ = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1",
                           "--C", "-0.5", "--samples", "32")
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0] == ["t", "g", "g_prime", "r", "lambda", "theta",
                       "theta_prime", "alpha_x", "alpha_y"]
    assert len(rows) == 1 + 32 + 1  # header + samples + closing sample
    first = [float(x) for x in rows[1]]
    assert first[0] == 0.0 and first[6] != 0.0
    # every float round-trips
    for cell in rows[1]:
        assert repr(float(cell)) == cell


def test_profile_byte_identical(capsys):
    a = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1", "--C", "-0.5",
                "--samples", "32")
    b = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1", "--C", "-0.5",
                "--samples", "32")
    assert a == b


def test_profile_seed_figures(capsys):
    code, out, _ = run_cli(capsys, "profile", "--seed-figures", "fig2",
                           "--samples", "32")
    assert code == 0
    rows = _parse_csv(out)
    assert len(rows) == 1 + 5 * 32 + 1  # fig2 runs 5 periods


def test_profile_clip(capsys):
    _, out, _ = run_cli(capsys, "profile", "--seed-figures", "fig4",
                        "--samples", "32")
    rows = _parse_csv(out)
    tp = [abs(float(r[6])) for r in rows[1:]]
    assert max(tp) <= 5.0


def test_sweep_seed_figures_equals_its_options(capsys):
    # a preset sets every option it names: the same bytes as given by hand
    seeded = run_cli(capsys, "sweep", "--seed-figures", "fig6")
    assert seeded[0] == 0
    assert seeded == run_cli(capsys, "sweep", "--n", "3", "--H-from", "-10",
                             "--H-to", "-1", "--steps", "128")


def test_profile_seed_figures_keeps_a_given_clip(capsys):
    # fig4 clips at 5 unless --clip is given
    _, out, _ = run_cli(capsys, "profile", "--seed-figures", "fig4",
                        "--clip", "2", "--samples", "32")
    assert max(abs(float(r[6])) for r in _parse_csv(out)[1:]) == 2.0


def test_profile_seed_figures_sets_periods(capsys):
    # the preset's periods win over --periods
    code, out, _ = run_cli(capsys, "profile", "--seed-figures", "fig2",
                           "--periods", "3", "--samples", "32")
    assert code == 0
    assert len(_parse_csv(out)) == 1 + 5 * 32 + 1


def test_profile_missing_args_exit_2(capsys):
    code, _, err = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1")
    assert code == 2
    assert "required" in json.loads(err)["error"]


def test_sweep_missing_args_exit_2(capsys):
    # the profile and sweep messages name the first missing option, as
    # one JSON line on stderr
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--H-from", "-3")
    assert (code, out) == (2, "")
    assert err == ('{"error": "--H-to is required without --seed-figures", '
                   '"kind": "DomainError"}\n')
    code, out, err = run_cli(capsys, "profile", "--H", "-1.1")
    assert (code, out) == (2, "")
    assert err == ('{"error": "--n is required without --seed-figures", '
                   '"kind": "DomainError"}\n')


def test_profile_output_file(tmp_path, capsys):
    dest = tmp_path / "prof.csv"
    code, out, _ = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1",
                           "--C", "-0.5", "--samples", "32",
                           "--output", str(dest))
    assert code == 0
    assert out == ""
    raw = dest.read_bytes()
    assert raw.count(b"\r\n") == 34


def test_surface_csv(capsys):
    code, out, _ = run_cli(capsys, "surface", "--n", "2", "--H", "-1.1",
                           "--C", "-0.5", "--samples", "16", "--fibers", "3")
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0] == ["fiber", "t", "x1", "x2", "x3", "x4"]
    assert len(rows) == 1 + 3 * 17
    x = [float(v) for v in rows[1][2:]]
    assert x[0] ** 2 + x[1] ** 2 + x[2] ** 2 - x[3] ** 2 == pytest.approx(
        -1.0, abs=1e-10)


def _csv_writer_bytes(header, table, index=None):
    ref = io.StringIO()
    writer = csv.writer(ref, lineterminator="\r\n")
    writer.writerow(header)
    rows = ([repr(x) for x in row] for row in table.tolist())
    if index is not None:
        rows = ([i] + row for i, row in zip(index.tolist(), rows))
    writer.writerows(rows)
    return ref.getvalue()


def test_emit_csv_matches_csv_writer(capsys):
    import hypcmc.cli as cli_mod

    table = np.array([[math.inf, -math.inf, math.nan],
                      [-0.0, 0.0, 5e-324],
                      [1e16, 1e-5, -1.0000000000000002],
                      [0.1, 123456789.0, -2.5e-300]])
    index = np.array([0, 7, 12, 3])
    cli_mod._emit_csv(["fiber", "a", "b", "c"], table, None, index=index)
    cli_mod._emit_csv(["a", "b", "c"], table, None)
    cli_mod._emit_csv(["a"], np.empty((0, 1)), None)
    assert capsys.readouterr().out == (
        _csv_writer_bytes(["fiber", "a", "b", "c"], table, index)
        + _csv_writer_bytes(["a", "b", "c"], table)
        + _csv_writer_bytes(["a"], np.empty((0, 1))))

    # more than two passes of at most CSV_CELLS floats, with 1 and 9
    # columns, with and without an index; values repeated inside passes
    # and across pass edges, and a kernel pass holding -0.0, NaNs with
    # two payloads and a 24-character repr, which takes the widest slot
    rng = np.random.default_rng(22)
    pool = np.concatenate((rng.standard_normal(500), [1e300, -5e-324, 0.5]))
    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002],
                    dtype=np.int64).view(float)
    widest = -1.2345678901234567e-100
    assert len(repr(widest)) == cli_mod._shortest.LONGEST
    for columns in (1, 9):
        full = cli_mod.CSV_CELLS // columns  # rows in a full pass
        rows = 2 * full + 37  # three passes of equal rows
        table = rng.choice(pool, size=(rows, columns))
        table[:, 0] = np.arange(rows) // 3 * 0.25  # repeats across edges
        table[full + 5:full + 9, -1] = [-0.0, nans[0], nans[1], widest]
        index = np.repeat(np.arange(rows // 5 + 1), 5)[:rows]
        header = ["fiber"] + [f"c{i}" for i in range(columns)]
        with mock.patch.object(cli_mod, "_csv_lines",
                               wraps=cli_mod._csv_lines) as passes:
            cli_mod._emit_csv(header, table, None, index=index)
            cli_mod._emit_csv(header[1:], table, None)
        assert passes.call_count == 2 * 3
        out = capsys.readouterr().out
        assert out == (_csv_writer_bytes(header, table, index)
                       + _csv_writer_bytes(header[1:], table))
        for text in ("-0.0", "nan", repr(widest)):
            assert f",{text}\r\n" in out

    # passes on both sides of the kernel's threshold of distinct floats,
    # the kernel's passes holding every kind of lane it leaves to repr
    # (zeros, non-finite values, NaN payloads, subnormals, powers of two,
    # an exact tie) and texts of every layout, with and without an index
    specials = np.concatenate((
        [0.0, -0.0, math.inf, -math.inf, 5e-324, -2.5e-310, 0.5, -1024.0,
         2816394241744067.5, 1e16, 1.5e-5, 1e-4, -9.999999999999999e22,
         1.7976931348623157e308, 123.0, -1e22],
        nans, rng.standard_normal(20) * 10.0 ** rng.integers(-30, 30, 20)))
    kernel_min = cli_mod.CSV_KERNEL_MIN
    rows = 1024  # one pass of 3 columns
    assert 3 * rows <= cli_mod.CSV_CELLS
    header = ["fiber", "a", "b", "c"]
    for distinct in (kernel_min - 1, kernel_min, 3 * kernel_min):
        values = np.concatenate(
            (specials, rng.standard_normal(distinct - len(specials))))
        assert len(np.unique(values.view(np.int64))) == distinct
        table = rng.choice(values, size=(rows, 3))
        table.ravel()[:distinct] = values  # each value at least once
        index = rng.integers(0, 40, rows)
        with mock.patch.object(cli_mod._shortest, "repr_text",
                               wraps=cli_mod._shortest.repr_text) as kernel:
            cli_mod._emit_csv(header, table, None, index=index)
            cli_mod._emit_csv(header[1:], table, None)
        assert kernel.call_count == (0 if distinct < kernel_min else 2)
        assert capsys.readouterr().out == (
            _csv_writer_bytes(header, table, index)
            + _csv_writer_bytes(header[1:], table))


class _ArrayMemoryError(MemoryError):
    """Stands for NumPy's MemoryError subclass of a refused allocation."""


@pytest.mark.parametrize("argv, allocation", [
    (["profile", "--n", "2", "--H", "-1.1", "--C", "-0.5",
      "--samples", "100000000000"], "integrate_profile"),
    (["profile", "--n", "2", "--H", "-1.1", "--C", "-0.5",
      "--periods", "100000000000"], "integrate_profile"),
    (["sweep", "--n", "3", "--H-from", "-2", "--H-to", "-1.5",
      "--steps", "100000000000"], "np.linspace"),
])
def test_table_too_large_is_one_json_line(capsys, monkeypatch, argv,
                                          allocation):
    # the allocation is patched to refuse, as NumPy's does for an array
    # larger than memory; no large array is made
    import hypcmc.cli as cli_mod

    def refuse(*args, **kwargs):
        raise _ArrayMemoryError("Unable to allocate 745. GiB for an array")

    owner, name = ((cli_mod.np, "linspace") if allocation == "np.linspace"
                   else (cli_mod, allocation))
    monkeypatch.setattr(owner, name, refuse)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "Unable to allocate 745. GiB for an array",
        "kind": "MemoryError"}
    assert err.count("\n") == 1


def _bits(x):
    return int(np.float64(x).view(np.uint64))


# float bit patterns that the array kernel leaves to repr, or that sit
# at its edges: zeros, infinities, NaNs with any payload and either
# sign, subnormals and powers of two, and any float
SPECIAL_BITS = st.one_of(
    st.floats().map(_bits),
    st.integers(0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF),
    st.integers(0xFFF0000000000001, 0xFFFFFFFFFFFFFFFF),
    st.integers(1, 2 ** 52 - 1),
    st.integers(-1074, 1023).map(lambda e: _bits(2.0 ** e)),
    st.sampled_from([_bits(0.0), _bits(-0.0), _bits(math.inf)]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(columns=st.integers(1, 9), rows=st.integers(0, 2500),
       distinct=st.integers(0, 1500), indexed=st.booleans(),
       specials=st.lists(SPECIAL_BITS, min_size=1, max_size=24),
       seed=st.integers(0, 2 ** 32 - 1),
       budget=st.one_of(st.just(None), st.integers(1, 8192)))
def test_emit_csv_is_csv_writer_on_random_tables(columns, rows, distinct,
                                                 indexed, specials, seed,
                                                 budget):
    # tables with repeats and specials, on both sides of the kernel's
    # threshold and over pass edges (at CSV_CELLS, or at a drawn budget):
    # csv.writer's bytes, byte for byte
    import hypcmc.cli as cli_mod

    rng = np.random.default_rng(seed)
    pool = np.concatenate((
        np.array(specials, dtype=np.uint64).view(np.float64),
        rng.standard_normal(distinct) * 10.0 ** rng.integers(-300, 300,
                                                              distinct)))
    table = pool[rng.integers(0, len(pool), (rows, columns))]
    index = (rng.integers(0, 10 ** rng.integers(1, 12), rows) if indexed
             else None)
    header = ["fiber"] * indexed + [f"c{i}" for i in range(columns)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(
            cli_mod, "CSV_CELLS", budget or cli_mod.CSV_CELLS):
        cli_mod._emit_csv(header, table, None, index=index)
    assert out.getvalue() == _csv_writer_bytes(header, table, index)


@pytest.mark.parametrize("argv", [
    ["profile", "--seed-figures", "fig2"],
    ["surface", "--n", "4", "--H", "-2.907464", "--C", "-0.5864626590566793"],
])
def test_output_file_bytes_equal_stdout(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    dest = tmp_path / "out.csv"
    code, to_file, _ = run_cli(capsys, *argv, "--output", str(dest))
    assert (code, to_file) == (0, "")
    assert dest.read_bytes() == out.encode()


@pytest.mark.parametrize("where, kind", [
    ("missing/x.json", "FileNotFoundError"),
    (".", "IsADirectoryError"),
], ids=["missing-dir", "a-directory"])
def test_output_path_that_cannot_be_opened_exit_2(tmp_path, capsys, where,
                                                   kind):
    # one JSON error line on stderr, no traceback
    dest = tmp_path / where
    code, out, err = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1",
                             "--output", str(dest))
    assert (code, out) == (2, "")
    msg = json.loads(err)
    assert msg["kind"] == kind and str(dest) in msg["error"]
    assert err.count("\n") == 1


def test_check_fd_draws_as_a_loop(capsys, monkeypatch):
    # with a wide near-axis band many draws are not evaluated: `check`
    # keeps the first 100 evaluated of its 200 draws, as a loop of
    # one-draw curvature_rows calls does, and asks for no draw such a loop
    # would not reach
    import hypcmc.cli as cli_mod

    params = h.ShapeParams(2, -1.1, -0.5)
    curve = h.integrate_profile(params, samples_per_period=64)
    draws = np.random.default_rng(20240817).uniform(
        curve.t[0] + 2e-5, curve.t[-1] - 2e-5, 200).tolist()
    rows = h.lorentz.curvature_rows
    asked = []

    def recording(*args):
        asked.extend(np.asarray(args[1]).tolist())
        return rows(*args)

    r_minus_1 = curve.state_arrays(draws)[0] / math.sqrt(-params.C) - 1.0
    # about 140 and 80 of the 200 draws evaluated
    for q in (0.3, 0.6):
        monkeypatch.setattr(h.lorentz, "NEAR_AXIS_EPS",
                            float(np.quantile(r_minus_1, q)))
        worst, evaluated, reached = 0.0, 0, []
        for t in draws:
            done, _, _, H_est = rows(curve, [t])
            reached.append(t)
            if done[0]:
                worst = max(worst, abs(float(H_est[0]) - params.H))
                evaluated += 1
            if evaluated >= 100:
                break
        # q = 0.3 stops at the 100th evaluated draw, q = 0.6 runs out
        assert (evaluated == 100) if q == 0.3 else (len(reached) == 200)
        asked.clear()
        monkeypatch.setattr(cli_mod.lorentz, "curvature_rows", recording)
        code, out, _ = run_cli(capsys, "check", "--n", "2", "--H", "-1.1",
                               "--C", "-0.5", "--samples", "64")
        monkeypatch.setattr(cli_mod.lorentz, "curvature_rows", rows)
        assert code == 0
        report = json.loads(out)["cmc_fd_max_error"]
        assert (report["samples"], report["value"]) == (evaluated, worst)
        assert asked == reached


def test_sweep_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--n", "2", "--H-from", "-3",
                           "--H-to", "-2", "--steps", "4")
    assert code == 0
    rows = _parse_csv(out)
    assert rows[0] == ["H", "xi"]
    assert len(rows) == 5
    assert float(rows[1][0]) == -3.0


def test_check_report(capsys):
    code, out, _ = run_cli(capsys, "check", "--n", "2", "--H", "-1.1",
                           "--C", "-0.5", "--samples", "64")
    assert code == 0
    data = json.loads(out)
    for key in ("energy_residual_max", "period_rel_diff", "closure_residual",
                "hyperboloid_max_deviation", "gauss_norm_max_deviation",
                "gauss_tangency_max_deviation", "cmc_fd_max_error"):
        assert data[key]["pass"] is True, key
    assert data["all_pass"] is True


def test_check_period_compares_two_rules(capsys, monkeypatch):
    # check's period residual sets the profile's series period against
    # the tanh-sinh period_T: a reference 1e-6 off makes it fail
    rule = h.quadrature.period_T

    def off(*args, **kwargs):
        res = rule(*args, **kwargs)
        return dataclasses.replace(res, value=res.value * (1 + 1e-6))

    monkeypatch.setattr(h.quadrature, "period_T", off)
    code, out, _ = run_cli(capsys, "check", "--n", "2", "--H", "-1.1",
                           "--C", "-0.5", "--samples", "64")
    assert code == 0
    data = json.loads(out)
    assert data["period_rel_diff"]["pass"] is False
    assert data["period_rel_diff"]["value"] == pytest.approx(1e-6, rel=1e-3)
    assert data["all_pass"] is False


def test_check_report_near_axis(capsys):
    # the fig1 constant, 9.2e-5 below Ctilde: every invariant passes its
    # usual bound, and the closure compares the phase series' angle with
    # the tanh-sinh flux, two independent values
    code, out, _ = run_cli(capsys, "check", "--n", "2", "--H", "-1.1",
                           "--C", "-0.9091743461769703")
    assert code == 0
    data = json.loads(out)
    bounds = {"energy_residual_max": 1e-8, "period_rel_diff": 1e-8,
              "closure_residual": 1e-7, "hyperboloid_max_deviation": 1e-10,
              "gauss_norm_max_deviation": 1e-10,
              "gauss_tangency_max_deviation": 1e-10,
              "cmc_fd_max_error": 1e-5}
    for key, bound in bounds.items():
        assert data[key]["bound"] == bound, key
        assert data[key]["pass"] is True, key
    assert data["cmc_fd_max_error"]["samples"] == 100
    assert data["closure_residual"]["value"] > 0
    assert data["all_pass"] is True


def _run_child(*args):
    """``python *args`` in a child that imports the hypcmc under test,
    installed or not."""
    src = str(Path(h.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env)


def test_console_script_entry_point(capsys, monkeypatch):
    # the module is runnable directly, as python -m runs it; the installed
    # `hypcmc` script wraps the same main().  It runs in process, where a
    # line tracer sees its __main__ block, from a fresh copy of the module
    monkeypatch.setattr(sys, "argv", ["hypcmc", "xi", "--n=2", "--H=-1.1"])
    monkeypatch.delitem(sys.modules, "hypcmc.cli")
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("hypcmc.cli", run_name="__main__")
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out)["converged"] is True


@pytest.mark.parametrize("argv", [
    ("xi", "--n", "2", "--H", "-1.1"),  # the upper root of Q
    ("h0", "--n", "2"),                 # the scan refine of H0
    SOLVE_C,                            # that of C*, and the turning points
])
def test_runs_without_scipy(capsys, argv):
    # the library needs NumPy only: with scipy unimportable in the child,
    # each root solve runs and the output is that of an in-process run
    proc = _run_child("-c", "import sys; sys.modules['scipy'] = None; "
                      "from hypcmc.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *argv)
    code, out, _ = run_cli(capsys, *argv)
    assert (proc.returncode, proc.stdout) == (code, out)
    assert code == 0 and out
