"""hypcmc benchmark: runs the CLI in-process on seeded workloads.

    python3 perfbench/run.py --workload closure --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; hypcmc is imported from ./src.
One single-threaded client runs whole cycles of ops (see workloads.py)
back to back.  The number of cycles is --seconds over the workload's
nominal cycle time, so every run of a workload does the same amount of
work and reports percentiles over the same number of ops; on the machine
the nominal times were taken on, a run lasts about --seconds.  Every op is one
``hypcmc.cli.main(argv)`` call with stdout captured; profile ops also run
the planar diagnostics on the profile polygon.  Each output is checked
against the mpmath references in refs/.

--trace 0 prints the end-to-end metrics, with every time given at the
host's nominal speed.  A shared host runs the same code up to twice as
slowly for ten seconds to minutes at a time.  So the benchmark times a
fixed block of small NumPy calls that does not touch hypcmc (the host
probe) just before and just after each op, and every HOST_TICK_S inside
it; it leaves the probes' own time out of the op's time and divides what
remains by the mean of the probe times over HOST_BLOCK_S, the probe time
at nominal speed.  Set-up is scaled in the same way by a reference
set-up that loads only hypcmc's outside imports.  The raw times and the
host factors are in the info line.  --trace 1 runs the same ops
twice, traced and untraced: the outputs of the two passes must be
byte-identical, the per-layer metrics come from the spans, and the
difference in wall time is reported as trace.overhead.  That work counts
repeat across traced runs, and match the known spot counts, is checked
by selftest.py.
The last stdout line is the result object; the line before it holds the
info fields (versions, src line count, workload composition).
"""

from __future__ import annotations

import os

# one BLAS thread, pinned before numpy is imported
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
# seconds per cycle on 2 cores at 2.1 GHz (Python 3.11, NumPy 2.4, SciPy 1.17)
NOMINAL_CYCLE_S = {"closure": 1.25, "noroot": 20.0, "geometry": 4.0}
TAIL_BEYOND = 10
WARMUP = (["xi", "--n", "2", "--H", "-1.1"],
          ["profile", "--n", "2", "--H", "-1.1", "--C", "-0.5",
           "--samples", "16"])
# the host probe: HOST_SAMPLES blocks of HOST_BLOCK_ITERS small NumPy
# calls, median block time.  HOST_BLOCK_S is that time at nominal speed,
# the faster of the two speeds the host above swings between.
HOST_SAMPLES = 5
HOST_BLOCK_ITERS = 100
HOST_BLOCK_S = 4.2e-4
HOST_TICK_S = 0.25
_HOST_X = np.linspace(0.0, 1.0, 64)
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import hypcmc.cli; hypcmc.cli.build_parser()")
# The reference set-up: a fresh interpreter that imports what hypcmc
# imports from outside itself.  Starting an interpreter and loading NumPy
# and SciPy is most of hypcmc's set-up and slows with the host in a way
# the probe above does not follow, so set-up is scaled by this instead.
# SETUP_REF_S is its time at nominal speed.
SETUP_REF_CODE = ("import argparse, json, math, sys; import numpy; "
                  "import scipy.integrate, scipy.optimize")
SETUP_REF_S = 0.55


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Host:
    """Host speed from the probe, sampled around and inside timed work.

    A probe sample is the probe's median block time over HOST_BLOCK_S.
    Samples are taken just before and just after each op and, inside
    it, from a wall-clock timer every HOST_TICK_S.
    clock() is perf_counter less the time spent in probes, so an op timed
    with it does not include them."""

    def __init__(self):
        self.probe_s = 0.0
        self.samples = []
        self.factors = []
        self.ticking = False
        signal.signal(signal.SIGALRM, self._tick)
        self._probe()

    def _tick(self, *_):
        self._probe()
        if self.ticking:  # one-shot timer, so probes never nest
            signal.setitimer(signal.ITIMER_REAL, HOST_TICK_S)

    def _probe(self):
        t0 = time.perf_counter()
        blocks = []
        for _ in range(HOST_SAMPLES):
            t = time.perf_counter()
            for i in range(HOST_BLOCK_ITERS):
                np.sum(np.exp(-_HOST_X * (1.0 + i * 1e-3)) * _HOST_X)
            blocks.append(time.perf_counter() - t)
        self.samples.append(statistics.median(blocks) / HOST_BLOCK_S)
        self.probe_s += time.perf_counter() - t0

    def clock(self):
        return time.perf_counter() - self.probe_s

    @contextlib.contextmanager
    def probing(self):
        """Probe during the block and after it; the mean of the samples
        from the one before to the one after is appended to factors."""
        first = len(self.samples) - 1
        self.ticking = True
        signal.setitimer(signal.ITIMER_REAL, HOST_TICK_S)
        try:
            yield
        finally:
            self.ticking = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        self.factors.append(statistics.fmean(self.samples[first:]))

    def nominal(self, seconds):
        """A time measured in the last probing block, at nominal speed."""
        return seconds / self.factors[-1]


def _interpreter_seconds(code, *args):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def setup_seconds():
    """Median time, at nominal host speed, of a fresh interpreter that
    imports hypcmc and builds the CLI parser; and the raw median.

    Each set-up is scaled by the mean of the reference set-ups run just
    before and just after it, over SETUP_REF_S."""
    times, raw = [], []
    ref = _interpreter_seconds(SETUP_REF_CODE)
    for _ in range(SETUP_REPEATS):
        raw.append(_interpreter_seconds(SETUP_CODE, str(SRC)))
        before, ref = ref, _interpreter_seconds(SETUP_REF_CODE)
        times.append(raw[-1] * SETUP_REF_S / ((before + ref) / 2))
    return statistics.median(times), statistics.median(raw)


def import_hypcmc():
    if not (SRC / "hypcmc" / "__init__.py").is_file():
        die(f"no hypcmc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hypcmc
    import hypcmc.cli
    import hypcmc.planar
    if Path(hypcmc.__file__).resolve().parent != (SRC / "hypcmc").resolve():
        die(f"hypcmc imported from {hypcmc.__file__}, not from {SRC}")
    return hypcmc


class Result:
    __slots__ = ("rc", "out", "err", "seconds", "planar", "error")

    def key(self):
        """Everything an op produced, for the traced/untraced identity."""
        return (self.rc, self.out, self.err, self.planar, self.error)


def run_op(hc, op, tracer=None, clock=time.perf_counter):
    res = Result()
    res.planar = res.error = None
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                res.rc = hc.cli.main(op["argv"])
            else:
                res.rc = tracer.call("cli.main", hc.cli.main, op["argv"])
    except Exception:  # an op that raises is a failed op, not a crash
        res.rc = None
        res.error = traceback.format_exc(limit=3)
    res.seconds = clock() - t0
    res.out, res.err = out.getvalue(), err.getvalue()
    if op["kind"] == "profile" and res.rc == 0:
        # the planar diagnostics a user runs on the profile polygon
        try:
            alpha = wl.profile_polygon(res.out)
        except (wl.CheckFailed, ValueError) as exc:
            res.error = f"unreadable profile CSV: {exc}"
            return res
        pl = hc.planar
        t0 = clock()
        closed = pl.polygon_is_closed(alpha)
        try:
            winding = pl.winding_number(alpha)
        except hc.DomainError:
            winding = None
        crossing = pl.has_self_intersection(alpha, closed=closed)
        res.seconds += clock() - t0
        res.planar = (closed, winding, crossing)
    return res


def check(op, res, scalars):
    """True if the op's output is right; reasons go to stderr."""
    if res.error is not None:
        print(f"op {op['argv']} raised:\n{res.error}", file=sys.stderr)
        return False
    try:
        wl.check_op(op, res.rc, res.out, res.err, scalars)
        if res.planar is not None:
            wl.planar_expectation(op, *res.planar)
    except (wl.CheckFailed, ValueError, KeyError) as exc:
        print(f"op {op['argv']} wrong: {exc}", file=sys.stderr)
        return False
    return True


def tail(durations):
    """The highest percentile with 10 ops beyond it, or the maximum when
    a run has fewer than 20 ops (that percentile would be below p50)."""
    n = len(durations)
    if n < 2 * TAIL_BEYOND:
        return max(durations), 100.0
    p = 100.0 * (1 - TAIL_BEYOND / n)
    return float(np.percentile(durations, p)), p


def run_ops(workload, refs, seed, seconds):
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[workload]))
    return [op for cycle in range(cycles)
            for op in wl.plan(workload, refs, seed, cycle)], cycles


def run_untraced(hc, ops, host):
    durations, raw, failed = [], [], 0
    scalars = wl.Scalars()
    start = time.perf_counter()
    for op in ops:
        with host.probing():
            res = run_op(hc, op, clock=host.clock)
        raw.append(res.seconds)
        durations.append(host.nominal(res.seconds))
        failed += not check(op, res, scalars)
    p_tail, pct = tail(durations)
    metrics = {
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_s.p50": (statistics.median(durations), "s"),
        "op_s.tail": (p_tail, "s"),
        "ok_frac": ((len(durations) - failed) / len(durations), "ratio"),
        "tol_ratio.max": (scalars.worst, "ratio"),
    }
    info = {"ops": len(durations),
            "tail_percentile": pct, "tail_samples": len(durations),
            "raw_ops_per_s": len(raw) / sum(raw),
            "raw_op_s.p50": statistics.median(raw),
            "raw_op_s.tail": tail(raw)[0],
            "checked_scalars": scalars.count,
            "near_ctilde_tol_ratio": scalars.near_ctilde,
            "wall_s": time.perf_counter() - start}
    return metrics, len(durations), failed, info


def _pass(hc, ops, scalars, tracer=None):
    """Run every op once; returns the results, how many were right and
    the wall time of the pass."""
    results, ok = [], 0
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            res = run_op(hc, op, tracer)
            results.append(res)
            ok += check(op, res, scalars)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return results, ok, time.perf_counter() - t0


def run_traced(hc, ops, dump_to):
    scalars = wl.Scalars()
    tracer = spans.Tracer()
    res_t, ok_t, t_t = _pass(hc, ops, scalars, tracer)
    res_u, ok_u, t_u = _pass(hc, ops, scalars)
    failed = 2 * len(ops) - ok_t - ok_u
    identical = [r.key() for r in res_t] == [r.key() for r in res_u]
    if not identical:
        print("traced outputs differ from untraced ones", file=sys.stderr)

    counts, times = spans.aggregate(tracer.spans)
    counts["lorentz.check_failed.count"] = sum(
        1 for op, r in zip(ops, res_t)
        if op["kind"] == "check" and r.rc == 0
        and json.loads(r.out)["all_pass"] is False)
    counts["cli.bytes_out"] = sum(len(r.out.encode()) for r in res_t)
    counts["quadrature.near_ctilde.tol_ratio"] = scalars.near_ctilde
    metrics = {k: (v, "ratio" if isinstance(v, float) else "count")
               for k, v in counts.items()}
    metrics.update((k, (v, "s")) for k, v in times.items())
    metrics["trace.overhead"] = (t_t / t_u - 1, "ratio")
    tracer.dump(dump_to)
    info = {"outputs_identical": identical, "spans": len(tracer.spans),
            "spans_file": str(dump_to)}
    return metrics, 2 * len(ops), failed, identical, info


def src_lines():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "hypcmc").glob("*.py")))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    refs = wl.load_refs(HERE / "refs")
    ops, cycles = run_ops(args.workload, refs, args.seed, args.seconds)
    hc = import_hypcmc()
    for argv_ in WARMUP:
        with contextlib.redirect_stdout(io.StringIO()):
            hc.cli.main(list(argv_))

    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        dump_to = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics, attempted, failed, correct, run_info = run_traced(
            hc, ops, dump_to)
    else:
        host = Host()
        metrics, attempted, failed, run_info = run_untraced(hc, ops, host)
        setup_s, run_info["raw_setup_s"] = setup_seconds()
        metrics["setup_s"] = (setup_s, "s")
        run_info["host_factor"] = {
            "median": statistics.median(host.factors),
            "min": min(host.factors), "max": max(host.factors)}
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        correct = failed == 0

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "src_lines": src_lines(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "cycles": cycles,
        "composition": wl.composition(args.workload, refs, args.seed, cycles),
        **run_info,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": bool(correct and failed == 0),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
