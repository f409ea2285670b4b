"""Print each line of ``src/hypcmc`` that no tier-1 test executes.

    python3 tests/unexecuted_lines.py

Runs the test suite in process, as ``pytest -q tests`` with this
checkout's ``src/`` first on the path, under a ``sys.settrace`` line
tracer (``coverage`` is not a dependency), and prints one line per
unexecuted line, ``path:line: source``, then their count.  A line counts
as executable where the compiled module has a line start (``dis``); the
package is imported under the tracer, so its module-level lines count
too.  Extra arguments go to pytest, e.g. ``-k potential``.  A traced run
takes two to three times as long as a plain one.

The file name does not start with ``test_``, so pytest does not collect
it.
"""

import dis
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hypcmc"


def executable_lines(path: Path) -> set:
    """The line starts of a module's code objects, nested ones included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        todo += [c for c in code.co_consts if hasattr(c, "co_code")]
    return lines


def main(argv=None):
    import pytest

    if any(name.startswith("hypcmc") for name in sys.modules):
        raise SystemExit("hypcmc is already imported; run this as a script")
    files = {str(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    hit = {path: set() for path in files}

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename in hit else None

    sys.path.insert(0, str(ROOT / "src"))
    sys.settrace(tracer)
    try:
        pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"),
                     *(argv if argv is not None else sys.argv[1:])])
    finally:
        sys.settrace(None)
    count = 0
    for path, lines in files.items():
        source = Path(path).read_text().splitlines()
        for line in sorted(lines - hit[path]):
            print(f"{Path(path).relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
            count += 1
    print(f"{count} unexecuted lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
