"""CLI output pinned byte for byte on one cycle of each benchmark workload.

``cli_digests.txt`` holds the output of

    python3 tests/cli_digest.py --cycles 1 --seed 1

one sha256 of stdout per op.  A change that moves CLI bytes on purpose
regenerates the file with that command and logs what moved.
"""

import contextlib
import io
from pathlib import Path

import cli_digest

DIGESTS = Path(__file__).resolve().parent / "cli_digests.txt"


def test_cli_output_matches_the_committed_digests():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_digest.main(["--cycles", "1", "--seed", "1"]) == 0
    now = out.getvalue().splitlines()
    stored = DIGESTS.read_text().splitlines()
    assert len(now) == len(stored), "the op list changed"
    moved = [f"{old}\n  now {new.split(' ', 4)[3]}"
             for old, new in zip(stored, now) if old != new]
    assert not moved, "ops whose output moved:\n" + "\n".join(moved)
