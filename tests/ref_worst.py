"""Print the largest tol_ratio.max a benchmark run can read, per workload.

    python3 tests/ref_worst.py --workload closure

Runs ``hypcmc.cli.main`` in process on every entry of the workload's
pools once, with hypcmc imported from this checkout's ``src/``: the ops
of ``perfbench/workloads.py``'s ``plan(workload, refs, 1, cycle)`` for as
many cycles as the largest pool has entries (each position walks its
pool in a seeded order, one entry per cycle).  Each op's output goes to
``workloads.check_op`` with one ``workloads.Scalars``, as in a benchmark
run.  A checked scalar's ratio |value - reference| / tolerance does not
depend on the seed, and ``tol_ratio.max`` is the largest ratio of a run,
so the last line, the worst ratio and the op that sets it, bounds what
any seed can read.  The lines before it give the worst ratio per op kind
and code path.  Two checkouts are compared by running this in each:

    diff <(python3 old/tests/ref_worst.py --workload geometry) \\
         <(python3 new/tests/ref_worst.py --workload geometry)

``perfbench`` is only read.  The file name does not start with
``test_``, so pytest does not collect it.
"""

import argparse
import contextlib
import importlib.util
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    spec = importlib.util.spec_from_file_location(
        "workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def largest_pool(tree):
    """The length of the longest list of entries (dicts) in ``tree``."""
    if isinstance(tree, dict):
        return max(map(largest_pool, tree.values()), default=0)
    if isinstance(tree, list) and tree and isinstance(tree[0], dict):
        return len(tree)
    return 0


def main(argv=None):
    wl = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.CYCLES))
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc.cli

    refs = wl.load_refs(ROOT / "perfbench" / "refs")
    scalars = wl.Scalars()
    worst = {}  # (kind, path) -> (ratio, argv)
    overall = (0.0, None)
    failed = 0
    for cycle in range(largest_pool(refs[args.workload])):
        for op in wl.plan(args.workload, refs, 1, cycle):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = hypcmc.cli.main(op["argv"])
            # the op's own worst ratio, read off the one Scalars
            before = scalars.worst
            scalars.worst = 0.0
            try:
                wl.check_op(op, rc, out.getvalue(), err.getvalue(), scalars)
            except (wl.CheckFailed, ValueError, KeyError) as exc:
                failed += 1
                print(f"failed {' '.join(op['argv'])}: {exc}")
            ratio, scalars.worst = scalars.worst, max(before, scalars.worst)
            key = (op["kind"], op["path"])
            if ratio >= worst.get(key, (-1.0,))[0]:
                worst[key] = (ratio, op["argv"])
            if ratio > overall[0]:
                overall = (ratio, op["argv"])
    for (kind, path), (ratio, op_argv) in sorted(worst.items()):
        print(f"{kind}/{path}\t{ratio:.6g}\t{' '.join(op_argv)}")
    argv_text = " ".join(overall[1]) if overall[1] else "-"
    print(f"worst\t{overall[0]:.6g}\t{argv_text}\tchecked={scalars.count} "
          f"failed={failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
