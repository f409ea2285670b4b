"""Self-checks of the benchmark (a few minutes; not part of the test suite).

    python3 perfbench/selftest.py

1. The seeded composition of every workload (op kinds, code paths and
   pool flags) is the same for every seed.
2. The spot counts measured before the benchmark existed reproduce:
   flux_K at (2, -1.1, -0.5) takes 391 integrand evaluations, the
   (2, -1.1) embedded (1, 1) question scans 8128 fluxes, and fig1 makes
   1023 theta-rebuild quadratures.  A change to hypcmc that is meant to
   move these counts updates them here.
3. Two traced runs of each workload with the same seed, in separate
   processes, give identical work counts; each run also checks that its
   traced outputs are byte-identical to the untraced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = range(1, 21)
# (workload, metric, count) for the first op of a workload's first cycle:
# the (2, -1.1) embedded question and fig1
SPOT = (("noroot", "shooting.scan.flux_calls", 8128),
        ("geometry", "profile.theta_rebuild.quads", 1023))


def flags(workload, refs, seed, cycles=3):
    """Per-op (kind, path, pool flags) multiset over the first cycles."""
    out = {}
    for c in range(cycles):
        for op in wl.plan(workload, refs, seed, c):
            key = (op["kind"], op["path"],
                   op["ref"].get("edge_in_guard_band"), op["ref"].get("mode"))
            out[key] = out.get(key, 0) + 1
    return out


def check_composition(refs):
    for workload in wl.CYCLES:
        first = flags(workload, refs, SEEDS[0])
        for seed in SEEDS[1:]:
            assert flags(workload, refs, seed) == first, (workload, seed)
        argvs = {tuple(op["argv"]) for seed in SEEDS
                 for op in wl.plan(workload, refs, seed, 0)}
        print(f"{workload}: composition {wl.composition(workload, refs, 1)} "
              f"is seed-independent; {len(argvs)} distinct ops over "
              f"{len(SEEDS)} seeds")


def check_spot_counts(refs):
    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc as h
    import hypcmc.cli
    res = h.flux_K(h.ShapeParams(2, -1.1, -0.5))
    assert res.evaluations == 391, res.evaluations
    print("flux_K(2, -1.1, -0.5): 391 evaluations")
    for workload, metric, want in SPOT:
        op = wl.plan(workload, refs, SEEDS[0], 0)[0]
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = tracer.call("cli.main", hypcmc.cli.main, op["argv"])
        finally:
            tracer.uninstall()
        got = spans.aggregate(tracer.spans)[0][metric]
        assert rc == 0 and got == want, (op["argv"], metric, got)
        print(f"{' '.join(op['argv'])}: {metric} = {want}")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def check_traced_runs(seed=7):
    for workload in wl.CYCLES:
        runs = [traced(workload, seed) for _ in range(2)]
        counts = []
        for info, result in runs:
            assert result["correct"], (workload, info)
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "ratio")
                           and k != "trace.overhead"})
        assert counts[0] == counts[1], workload
        print(f"{workload}: work counts repeat across processes; traced "
              f"outputs identical; overhead "
              f"{runs[0][1]['metrics']['trace.overhead']['value']:.3f}")


def main():
    refs = wl.load_refs(HERE / "refs")
    check_composition(refs)
    check_spot_counts(refs)
    check_traced_runs()
    print("selftest passed")


if __name__ == "__main__":
    main()
