import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        out = xi_grid(n, Hs, tol=tol)
        out[2] = h.QuadResult(out[2].value, 1.0, out[2].evaluations, False)
        return out

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


def test_env_tol_invalid(capsys, monkeypatch):
    monkeypatch.setenv("HYPCMC_TOL", "not-a-number")
    code, _, err = run_cli(capsys, "xi", "--n", "2", "--H", "-1.1")
    assert code == 3


def test_h0_json(capsys):
    code, out, _ = run_cli(capsys, "h0", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["H0"] == pytest.approx(frozen.H0_N2, abs=1e-10)
    assert data["classification"] == "Embedded"


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


def test_solve_c_noncoprime_exit_2(capsys):
    code, _, err = run_cli(capsys, "solve-c", "--n", "2", "--H", "-1.1",
                           "--k", "2", "--m", "4")
    assert code == 2


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


def test_profile_missing_args_exit_2(capsys):
    code, _, err = run_cli(capsys, "profile", "--n", "2", "--H", "-1.1")
    assert code == 2
    assert "required" in json.loads(err)["error"]


def test_sweep_missing_args_exit_2(capsys):
    # the profile and sweep messages name the first missing option, as
    # one JSON line on stderr
    code, out, err = run_cli(capsys, "sweep", "--n", "3", "--H-from", "-3")
    assert (code, out) == (2, "")
    assert err == '{"error": "--H-to is required without --seed-figures"}\n'
    code, out, err = run_cli(capsys, "profile", "--H", "-1.1")
    assert (code, out) == (2, "")
    assert err == '{"error": "--n is required without --seed-figures"}\n'


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


def test_console_script_entry_point():
    # the child imports the hypcmc under test, installed or not
    src = str(Path(h.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    proc = subprocess.run(
        [sys.executable, "-m", "hypcmc.cli", "xi", "--n", "2", "--H", "-1.1"],
        capture_output=True, text=True, env=env)
    # the module is runnable directly; the installed `hypcmc` script wraps
    # the same main()
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["converged"] is True
