"""Print one sha256 of stdout per benchmark op, to compare two checkouts.

    python3 tests/cli_digest.py --workload noroot --cycles 5 --seed 1

Runs ``hypcmc.cli.main`` in process on the ops of the first ``--cycles``
cycles of ``perfbench/workloads.py``'s ``plan(workload, refs, seed,
cycle)``, with hypcmc imported from this checkout's ``src/``, and prints
one line per op: workload, cycle, exit code, the sha256 of its stdout
and its argv.  Two checkouts give byte-identical CLI output on those ops
exactly when the outputs of this script in each are equal, e.g.

    diff <(python3 old/tests/cli_digest.py --workload closure) \\
         <(python3 new/tests/cli_digest.py --workload closure)

``perfbench`` is only read, as in test_frozen_refs.py.  The file name
does not start with ``test_``, so pytest does not collect it.
"""

import argparse
import contextlib
import hashlib
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


def main(argv=None):
    wl = _workloads()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(wl.CYCLES),
                    help="repeat for several; default: all")
    ap.add_argument("--cycles", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc.cli

    refs = wl.load_refs(ROOT / "perfbench" / "refs")
    for workload in args.workload or sorted(wl.CYCLES):
        for cycle in range(args.cycles):
            for op in wl.plan(workload, refs, args.seed, cycle):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    rc = hypcmc.cli.main(op["argv"])
                digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
                print(workload, cycle, rc, digest, " ".join(op["argv"]),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
