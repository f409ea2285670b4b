"""Spans around the calls each hypcmc layer makes, recorded from outside.

The tracer replaces module-level names with wrappers that record a span
(name, start, end, parent, op id and a note taken from the returned
object) and restores the originals when uninstalled.  Spans stay in
memory; ``aggregate`` turns them into the per-layer metrics.  A name a
later version of hypcmc no longer has is skipped, so its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

_CLOCK = time.perf_counter


def _quad_note(res):
    return {"evals": res.evaluations, "unconverged": int(not res.converged)}


def _outcome_note(res):
    return {"no_root": int(not hasattr(res, "parameter_value"))}


def _ode_note(sol):
    return {"steps": len(sol.t) - 1, "nfev": sol.nfev}


def _cmc_note(chk):
    return {"evaluated": int(chk.evaluated)}


# (module, attribute, span name, note): every name through which one
# layer calls another; several modules import the same function
TARGETS = [
    ("hypcmc.cli", "xi", "quadrature.xi", _quad_note),
    ("hypcmc.cli", "flux_K", "quadrature.flux_K", _quad_note),
    ("hypcmc.cli", "find_H0", "shooting.find_H0", _outcome_note),
    ("hypcmc.cli", "solve_C", "shooting.solve_C", _outcome_note),
    ("hypcmc.cli", "integrate_profile", "profile.integrate_profile", None),
    ("hypcmc.cli", "profile_alpha", "profile.profile_alpha", None),
    ("hypcmc.cli", "theta_prime_trace", "profile.theta_prime_trace", None),
    ("hypcmc.shooting", "flux_K", "quadrature.flux_K", _quad_note),
    ("hypcmc.shooting", "xi", "quadrature.xi", _quad_note),
    ("hypcmc.shooting", "brentq", "shooting.brentq", None),
    ("hypcmc.shooting", "_refine_first_crossing", "shooting.bracket", None),
    ("hypcmc.quadrature", "de_integrate", "quadrature.de_integrate",
     _quad_note),
    ("hypcmc.quadrature", "oscillation_roots", "potential.oscillation_roots",
     None),
    ("hypcmc.profile", "oscillation_roots", "potential.oscillation_roots",
     None),
    ("hypcmc.profile", "period_T", "quadrature.period_T", _quad_note),
    ("hypcmc.profile", "flux_K", "quadrature.flux_K", _quad_note),
    ("hypcmc.profile", "de_integrate", "quadrature.de_integrate", _quad_note),
    ("hypcmc.profile", "solve_ivp", "profile.ode", _ode_note),
    ("hypcmc.profile", "brentq", "profile.period_root", None),
    ("hypcmc.profile", "surface_grid", "profile.surface_grid", None),
    ("hypcmc.profile._ThetaMap", "theta", "profile.theta_rebuild", None),
    ("hypcmc.profile", "_ThetaMap", "profile.theta_map", None),
    ("hypcmc.lorentz", "immerse_point", "lorentz.immerse_point", None),
    ("hypcmc.lorentz", "gauss_map", "lorentz.gauss_map", None),
    ("hypcmc.lorentz", "verify_cmc", "lorentz.verify_cmc", _cmc_note),
    ("hypcmc.planar", "polygon_is_closed", "planar.polygon_is_closed", None),
    ("hypcmc.planar", "winding_number", "planar.winding_number", None),
    ("hypcmc.planar", "has_self_intersection",
     "planar.has_self_intersection", None),
]

NAME, START, END, PARENT, OP, NOTE = range(6)


def _resolve(path):
    """Module or class named by a dotted path, or None if it is gone."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patched = []
        self.op = None

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _CLOCK(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self._stack.pop()
        self.spans[idx][END] = _CLOCK()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of the given name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrap(self, owner, attr, name, note):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                res = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.spans[idx][NOTE] = {"raised": type(exc).__name__}
                raise
            finally:
                tracer._close(idx)
            if note is not None:
                tracer.spans[idx][NOTE] = note(res)
            return res

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, orig))

    def install(self):
        for path, attr, name, note in TARGETS:
            owner = _resolve(path)
            if owner is not None:
                self._wrap(owner, attr, name, note)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _has_ancestor(spans, idx, names):
    p = spans[idx][PARENT]
    while p is not None:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def _brent_evaluations(spans, keep):
    """Function evaluations of every shooting.brentq, verified or not.

    Each is one flux_K or xi child of the brentq span.  An xi child right
    after a flux_K sibling that raised GuardBandError is that
    evaluation's fallback, not an evaluation of its own.
    """
    count, last = 0, {}
    for i in keep:
        p = spans[i][PARENT]
        if p is None or spans[p][NAME] != "shooting.brentq":
            continue
        prev = last.get(p)
        fallback = (spans[i][NAME] == "quadrature.xi" and prev is not None
                    and spans[prev][NAME] == "quadrature.flux_K"
                    and (spans[prev][NOTE] or {}).get("raised")
                    == "GuardBandError")
        count += not fallback
        last[p] = i
    return count


def aggregate(spans, ops=None):
    """Per-layer metrics from the spans of the given op ids (all if None).

    Returns (counts, times): work counts, which repeat exactly from run
    to run, and busy or self times in seconds.
    """
    keep = [i for i, s in enumerate(spans) if ops is None or s[OP] in ops]
    dur = {i: spans[i][END] - spans[i][START] for i in keep}
    child = dict.fromkeys(keep, 0.0)
    for i in keep:
        p = spans[i][PARENT]
        if p is not None and p in child:
            child[p] += dur[i]

    calls, busy, self_s = {}, {}, {}
    notes = {}
    for i in keep:
        name = spans[i][NAME]
        calls[name] = calls.get(name, 0) + 1
        if not _has_ancestor(spans, i, (name,)):
            busy[name] = busy.get(name, 0.0) + dur[i]
        self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
        for k, v in (spans[i][NOTE] or {}).items():
            key = (name, k)
            notes[key] = notes.get(key, 0) + (v if isinstance(v, int) else 1)

    def c(name):
        return calls.get(name, 0)

    def n(name, key):
        return notes.get((name, key), 0)

    rebuild_quads = [i for i in keep
                     if spans[i][NAME] == "quadrature.de_integrate"
                     and _has_ancestor(spans, i, ("profile.theta_rebuild",))]
    scan = [i for i in keep if spans[i][NAME] == "quadrature.flux_K"
            and _has_ancestor(spans, i, ("shooting.solve_C",))
            and not _has_ancestor(spans, i, ("shooting.bracket",))]
    solved = c("shooting.solve_C") + c("shooting.find_H0")
    no_root = (n("shooting.solve_C", "no_root")
               + n("shooting.find_H0", "no_root"))

    counts = {
        "potential.oscillation_roots.calls": c("potential.oscillation_roots"),
        "quadrature.de_integrate.evals": n("quadrature.de_integrate", "evals"),
        "quadrature.de_integrate.unconverged":
            n("quadrature.de_integrate", "unconverged"),
        "quadrature.guard_band.count": sum(
            1 for i in keep if spans[i][NAME] == "quadrature.flux_K"
            and (spans[i][NOTE] or {}).get("raised") == "GuardBandError"),
        "shooting.scan.flux_calls": len(scan),
        "shooting.refine.calls": c("shooting.brentq"),
        "shooting.refine.iterations": _brent_evaluations(spans, keep),
        "shooting.no_root.count": no_root,
        "profile.ode.steps": n("profile.ode", "steps"),
        "profile.ode.nfev": n("profile.ode", "nfev"),
        "profile.theta_rebuild.count": c("profile.theta_map"),
        "profile.theta_rebuild.quads": len(rebuild_quads),
        "profile.theta_rebuild.evals": sum(
            (spans[i][NOTE] or {}).get("evals", 0) for i in rebuild_quads),
    }
    for name in ("quadrature.de_integrate", "quadrature.flux_K",
                 "quadrature.period_T", "quadrature.xi", "shooting.solve_C",
                 "shooting.find_H0", "profile.integrate_profile",
                 "lorentz.immerse_point", "lorentz.gauss_map",
                 "lorentz.verify_cmc", "planar.has_self_intersection",
                 "planar.winding_number", "planar.polygon_is_closed"):
        counts[f"{name}.calls"] = c(name)

    times = {f"{name}.busy_s": busy.get(name, 0.0) for name in (
        "potential.oscillation_roots", "quadrature.de_integrate",
        "quadrature.flux_K", "quadrature.period_T", "quadrature.xi",
        "shooting.solve_C", "shooting.find_H0", "profile.integrate_profile",
        "profile.ode", "profile.period_root", "profile.theta_rebuild",
        "profile.profile_alpha", "profile.surface_grid",
        "lorentz.immerse_point", "lorentz.gauss_map", "lorentz.verify_cmc",
        "planar.has_self_intersection", "planar.winding_number",
        "planar.polygon_is_closed")}
    times["shooting.refine.busy_s"] = busy.get("shooting.brentq", 0.0)
    times["profile.integrate_profile.self_s"] = self_s.get(
        "profile.integrate_profile", 0.0)
    times["cli.self_s"] = self_s.get("cli.main", 0.0)

    ratios = {
        "quadrature.de_integrate.evals_per_call":
            counts["quadrature.de_integrate.evals"]
            / max(counts["quadrature.de_integrate.calls"], 1),
        "shooting.refine.verified_ratio":
            (solved - no_root) / max(counts["shooting.refine.calls"], 1),
        "profile.theta_rebuild.ratio":
            counts["profile.theta_rebuild.count"]
            / max(counts["profile.integrate_profile.calls"], 1),
        "lorentz.verify_cmc.evaluated_ratio":
            n("lorentz.verify_cmc", "evaluated")
            / max(counts["lorentz.verify_cmc.calls"], 1),
    }
    counts.update(ratios)
    return counts, times
