"""Print the outcome of a fixed sweep of solve_C calls, to compare checkouts.

    python3 tests/scan_sweep.py

Runs ``hypcmc.solve_C`` on n = 2..8 and H from -1.0005 to -100, with
hypcmc imported from this checkout's ``src/``.  For each (n, H) it takes
the ends of the flux's range, K_limit_at_C0, xi - pi, xi + pi and 0, and
for each end the windings k/m with m in WINDING_DENOMINATORS whose target
-2*pi*k/m lies just below or just above it, in mode "any", each once; then
the (1, 1) winding in mode "embedded".  Each call prints one line of three
tab-separated fields: the call, its outcome (the root, value and bracket,
the NoRootReport's points and extremes, or the error's class) and the
flux rows and ``flux_K_grid`` calls its scan made.  A last line gives the
totals.  Two checkouts give the same outcomes exactly when the first two
fields agree, e.g.

    diff <(python3 old/tests/scan_sweep.py | cut -f1,2) \\
         <(python3 new/tests/scan_sweep.py | cut -f1,2)

The file name does not start with ``test_``, so pytest does not collect
it.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NS = range(2, 9)
HS = (-1.0005, -1.01, -1.05, -1.1, -1.3, -2.0, -5.0, -20.0, -100.0)
WINDING_DENOMINATORS = (9, 100, 1001)


def windings(end):
    """The coprime (k, m) whose -2*pi*k/m lies next to ``end`` <= 0."""
    ratio = -end / (2 * math.pi)
    out = []
    for m in WINDING_DENOMINATORS:
        for k in (math.floor(ratio * m), math.ceil(ratio * m)):
            k = max(k, 1)
            g = math.gcd(k, m)
            if (k // g, m // g) not in out:
                out.append((k // g, m // g))
    return out


def outcome(h, out):
    if isinstance(out, h.SolveOutcome):
        return (f"root {out.parameter_value!r} {out.residual!r} "
                f"{out.bracket_used!r} {out.classification}")
    return (f"noroot {out.points_scanned} {out.value_min!r} "
            f"{out.value_max!r}")


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc as h
    from hypcmc import shooting

    rows, grids = [0], [0]
    flux_K_grid = shooting.flux_K_grid

    def counted(n, H, Cs, **kw):
        rows[0] += len(Cs)
        grids[0] += 1
        return flux_K_grid(n, H, Cs, **kw)

    shooting.flux_K_grid = counted
    calls, total_rows, total_grids, kinds = 0, 0, 0, {}
    for n in NS:
        for H in HS:
            ends = [h.K_limit_at_C0(n, H), 0.0]
            try:
                xi = h.xi(n, H).value
                ends[1:1] = [xi - math.pi, xi + math.pi]
            except h.HypcmcError:
                pass
            queries = dict.fromkeys(
                [(k, m, "any") for end in ends for k, m in windings(end)]
                + [(1, 1, "embedded")])
            for k, m, mode in queries:
                rows[0] = grids[0] = 0
                try:
                    text = outcome(h, h.solve_C(n, H, h.WindingTarget(k, m),
                                                mode=mode))
                except h.HypcmcError as exc:
                    text = f"error {type(exc).__name__}"
                kind = text.split()[0]
                kinds[kind] = kinds.get(kind, 0) + 1
                calls += 1
                total_rows += rows[0]
                total_grids += grids[0]
                print(f"n={n} H={H!r} k={k} m={m} {mode}\t{text}\t"
                      f"rows={rows[0]} grids={grids[0]}")
    counts = " ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
    print(f"total calls={calls} {counts}\t\trows={total_rows} "
          f"grids={total_grids}")


if __name__ == "__main__":
    main()
