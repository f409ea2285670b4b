"""Workload plans and output checks for the hypcmc benchmark.

Each workload is a fixed cycle of positions.  A position names one kind
of CLI command and the pool of parameter sets it draws from; the pools
and their mpmath references live in ``refs/`` (written by
``gen_refs.py``).  The seed fixes, for each position, the order in which
its pool is walked, one entry per cycle; so the mix of op kinds, of code
paths and of the flags recorded in the pool (rebuild path, guard-band
edge) is the same for every seed, and a run of as many cycles as a pool
has entries uses each entry once.

Why these cycles:

* ``closure`` holds the commands that return one value or one solver
  result.  Its solve-c hits are drawn only from targets that the first
  64-point scan brackets, so every hit runs scan, Brent refine and
  verify once; the full doubling scan is left to ``noroot``.
* ``noroot`` runs solve-c calls that end in a NoRootReport after the
  whole 64 -> 4096 doubling scan: the fig1 constant question at
  (2, -1.1), a seeded embedded scan whose last grid point rounds into the
  Ctilde guard band (so it sees xi fallbacks and a jump bracket that
  fails verification), and a seeded any-mode target below the flux range.
  H is kept in (-2, -1.02) at n = 2, where one scan costs about the same
  for every H, so a run of a few ops stays steady.
* ``geometry`` runs seeded profile, surface and check ops for n = 2..5
  and one figure profile per cycle (fig1..fig5 in turn, so five cycles
  hold each figure once).  One seeded op in three (one per n) has C within
  1e-3..1e-6 of Ctilde, stratified by decade, which takes the theta
  rebuild path; the rest take the ODE path.  Each profile polygon also
  goes through the planar diagnostics.  Most ops are fast ODE-path ops,
  so the median op lands inside that cluster rather than on the edge
  between fast and slow ops, where it would jump from run to run.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Tolerances the CLI requests by default: 1e-11 for every quadrature,
# and the 1e-9 per period by which the ODE angle may differ from the
# flux before the profile rebuilds theta.
QUAD_TOL = 1e-11
THETA_TOL = 1e-9
# A checked scalar further than this many tolerances from its reference
# makes the op count as failed; closer misses only raise tol_ratio.max.
FAIL_RATIO = 100.0
# Scalars taken within this relative distance of Ctilde, where flux_K
# itself reports converged=False, count in tol_ratio.max and in
# quadrature.near_ctilde.tol_ratio but do not fail the op: the outcome
# there is a NoRootReport whose scan extremes are diagnostics.
NEAR_CTILDE_REL = 1e-8

PROFILE_HEADER = ["t", "g", "g_prime", "r", "lambda", "theta",
                  "theta_prime", "alpha_x", "alpha_y"]

FIGURES = ("fig1", "fig2", "fig3", "fig4", "fig5")
SWEEPS = ("fig6", "fig7", "fig8")

# geometry: (kind, n) positions that draw near Ctilde, with the decade
# range of |C/Ctilde - 1| they draw from
NEAR = {("profile", 2): (3, 4), ("check", 3): (4, 5),
        ("surface", 4): (5, 6), ("profile", 5): (4, 5)}

CYCLES = {
    "closure": ([("xi", n) for n in (2, 3, 4, 5)]
                + [("h0", n) for n in (2, 3, 4, 5)]
                + [("hit", n) for n in (2, 3, 4, 5)]
                + [("sweep", f) for f in SWEEPS]),
    "noroot": [("noroot", "anchor"), ("noroot", "edge"), ("noroot", "below")],
    "geometry": ([("figure", None)]
                 + [(kind, n) for n in (2, 3, 4, 5)
                    for kind in ("profile", "surface", "check")]),
}


def load_refs(directory):
    refs = {}
    for name in CYCLES:
        refs.update(json.loads((directory / f"{name}.json").read_text()))
    return refs


def pool_key(kind, n):
    path = "near" if (kind, n) in NEAR else "ode"
    return f"{kind}-{n}-{path}"


def plan(workload, refs, seed, cycle):
    """The ops of one cycle: a list of dicts with argv and expectations."""
    ops = []
    for slot, (kind, arg) in enumerate(CYCLES[workload]):

        def _pick(pool):
            order = np.random.default_rng([seed, slot]).permutation(len(pool))
            return pool[order[cycle % len(pool)]]

        if kind == "xi":
            e = _pick(refs["closure"]["xi"][str(arg)])
            ops.append(dict(kind=kind, path="xi", argv=[
                "xi", "--n", str(arg), "--H", repr(e["H"])], ref=e))
        elif kind == "h0":
            e = refs["closure"]["h0"][str(arg)]
            ops.append(dict(kind=kind, path="h0", argv=[
                "h0", "--n", str(arg)], ref=e))
        elif kind == "hit":
            e = _pick(refs["closure"]["hits"][str(arg)])
            ops.append(dict(kind=kind, path="hit", argv=[
                "solve-c", "--n", str(e["n"]), "--H", repr(e["H"]),
                "--k", str(e["k"]), "--m", str(e["m"])], ref=e))
        elif kind == "sweep":
            e = refs["closure"]["sweep"][arg]
            ops.append(dict(kind=kind, path="sweep", argv=[
                "sweep", "--seed-figures", arg], ref=e))
        elif kind == "noroot":
            entries = refs["noroot"][arg]
            e = entries[0] if arg == "anchor" else _pick(entries)
            argv = ["solve-c", "--n", str(e["n"]), "--H", repr(e["H"]),
                    "--k", str(e["k"]), "--m", str(e["m"])]
            if e["mode"] == "embedded":
                argv.append("--embedded")
            ops.append(dict(kind=kind, path=arg, argv=argv, ref=e))
        elif kind == "figure":
            fig = FIGURES[cycle % len(FIGURES)]
            e = refs["geometry"]["figures"][fig]
            ops.append(dict(kind="profile", path=e["path"], argv=[
                "profile", "--seed-figures", fig], ref=e))
        else:
            e = _pick(refs["geometry"]["pools"][pool_key(kind, arg)])
            ops.append(dict(kind=kind, path=e["path"], argv=[
                kind, "--n", str(e["n"]), "--H", repr(e["H"]),
                "--C", repr(e["C"])], ref=e))
    return ops


def composition(workload, refs, seed, cycles=1):
    """Share of ops per kind and code path over the first cycles."""
    counts = {}
    total = 0
    for c in range(cycles):
        for op in plan(workload, refs, seed, c):
            key = f"{op['kind']}/{op['path']}"
            counts[key] = counts.get(key, 0) + 1
            total += 1
    return {k: v / total for k, v in sorted(counts.items())}


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """An op's output has the wrong shape, outcome kind or value."""


class Scalars:
    """Collects |result - reference| / tolerance for the checked scalars."""

    def __init__(self):
        self.worst = 0.0
        self.near_ctilde = 0.0
        self.count = 0

    def add(self, what, value, ref, tol, near_ctilde=False):
        ratio = abs(float(value) - float(ref)) / tol
        if not math.isfinite(ratio):
            raise CheckFailed(f"{what}: non-finite result {value!r}")
        self.count += 1
        self.worst = max(self.worst, ratio)
        if near_ctilde:
            self.near_ctilde = max(self.near_ctilde, ratio)
        elif ratio > FAIL_RATIO:
            raise CheckFailed(f"{what}: {value!r} vs reference {ref} is "
                              f"{ratio:.3g} tolerances off")


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _csv_rows(text):
    rows = list(csv.reader(io.StringIO(text)))
    _require(len(rows) > 1, "empty CSV")
    return rows[0], np.array(rows[1:], dtype=float)


def profile_polygon(text):
    """The (N, 2) alpha polygon of a profile CSV."""
    header, data = _csv_rows(text)
    _require(header == PROFILE_HEADER, f"bad profile header {header}")
    return data[:, 7:9]


def check_op(op, rc, out, err, scalars):
    """Raise CheckFailed unless the op's output matches its references."""
    _require(rc == 0, f"exit code {rc}: {err.strip()}")
    kind, ref = op["kind"], op["ref"]
    if kind == "xi":
        d = json.loads(out)
        _require(d["converged"] is True, "xi not converged")
        scalars.add("xi", d["value"], ref["xi"], QUAD_TOL)
    elif kind == "h0":
        d = json.loads(out)
        if "H0" in ref:
            _require("no_root" not in d, "h0 found no root")
            # the error in H, mapped to flux units by the slope of xi
            err_flux = (abs(d["H0"] - float(ref["H0"]))
                        * abs(float(ref["slope"])))
            scalars.add("H0", err_flux, 0.0, QUAD_TOL)
        else:
            _require(d.get("no_root") is True, "h0 expected NoRootReport")
            _require(d["points_scanned"] == 64, "h0 scan size")
            scalars.add("xi", d["value_min"], ref["xi_lo"], QUAD_TOL)
            scalars.add("xi", d["value_max"], ref["xi_hi"], QUAD_TOL)
    elif kind == "hit":
        d = json.loads(out)
        _require("no_root" not in d, "solve-c hit returned NoRootReport")
        _require(d["classification"] == ref["classification"],
                 f"classification {d['classification']}")
        err_flux = (abs(d["C_star"] - float(ref["C_star"]))
                    * abs(float(ref["slope"])))
        scalars.add("C*", err_flux, 0.0, QUAD_TOL)
    elif kind == "sweep":
        header, data = _csv_rows(out)
        _require(header == ["H", "xi"], f"bad sweep header {header}")
        _require(len(data) == len(ref["xi"]), "sweep row count")
        for (H, val), (H_ref, xi_ref) in zip(data, ref["xi"]):
            _require(H == H_ref, f"sweep grid point {H!r} != {H_ref!r}")
            scalars.add("xi", val, xi_ref, QUAD_TOL)
    elif kind == "noroot":
        d = json.loads(out)
        _require(d.get("no_root") is True, "expected NoRootReport")
        _require(d["points_scanned"] == 4096, "scan did not reach 4096")
        _require(d["target"] == ref["target"], "target")
        _require(d["search_interval"] == [ref["lo"], ref["hi"]],
                 f"search interval {d['search_interval']}")
        scalars.add("K", d["value_min"], ref["value_min"], QUAD_TOL,
                    near_ctilde=ref["value_min_near_ctilde"])
        scalars.add("K", d["value_max"], ref["value_max"], QUAD_TOL,
                    near_ctilde=ref["value_max_near_ctilde"])
    elif kind == "profile":
        header, data = _csv_rows(out)
        _require(header == PROFILE_HEADER, f"bad profile header {header}")
        periods = ref["periods"]
        _require(len(data) == periods * 1024 + 1, "profile row count")
        scalars.add("T", data[-1, 0] / periods, ref["T"], QUAD_TOL)
        scalars.add("K", data[-1, 5] / periods, ref["K"], THETA_TOL)
    elif kind == "surface":
        header, data = _csv_rows(out)
        n = ref["n"]
        _require(header == ["fiber", "t"] + [f"x{i + 1}" for i in range(n + 2)],
                 f"bad surface header {header}")
        _require(len(data) == 33 * 129, "surface row count")
        scalars.add("T", data[-1, 1], ref["T"], QUAD_TOL)
        x = data[:, 2:]
        inner = np.sum(x[:, :-1] ** 2, axis=1) - x[:, -1] ** 2
        _require(np.max(np.abs(inner + 1.0)) <= 1e-10, "off the hyperboloid")
    elif kind == "check":
        d = json.loads(out)
        for key, item in d.items():
            if isinstance(item, dict) and key != "cmc_fd_max_error":
                _require(item["pass"] is True, f"check {key} failed: {item}")
        _require(d["cmc_fd_max_error"]["samples"] > 0, "no FD samples")
    else:
        raise CheckFailed(f"unknown op kind {kind}")


def planar_expectation(op, closed, winding, crossing):
    """Figures with a known closed polygon must close and wind once."""
    want = op["ref"].get("planar")
    if want is not None:
        got = {"closed": closed, "winding": winding, "crossing": crossing}
        _require(got == want, f"planar diagnostics {got} != {want}")
