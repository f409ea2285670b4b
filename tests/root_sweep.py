"""Print how far the roots t1 < t2 of p are from their exact values.

    python3 tests/root_sweep.py

Runs ``hypcmc.oscillation_roots`` on n = 2..8, on H geometric in
[-1e6, -1.0001] and at H = -1 - 1e-8 and nextafter(-1, -inf), and on C
from C0 + 1e-11 |C0| to -1e-9 (C0 the package's float landmark), with
hypcmc imported from this checkout's ``src/``.  Each root is compared
with the positive real roots of p at the exact float inputs, from
``mpmath.polyroots`` at 80 digits, in units of the root's last place
(ulp); a C for which p has no two positive roots in exact arithmetic
(the float C0 can lie above the true one at large |H|) is counted, not
compared.  The Newton steps per root are counted too: the evaluations
of p's factors (``potential._p_factors``) per root where the package
has them, else its safeguarded steps (``potential._p_step`` calls).

Each (n, H) prints one line: the worst ulp error, the largest step
count, how many roots were within 0.5 ulp (correctly rounded) and how
many C raised.  Two summary lines follow, over the whole sweep and over
|H| <= 100 with C - C0 >= 1e-6 |C0|.  It takes about a minute.  Two
checkouts compare with

    diff <(python3 old/tests/root_sweep.py) <(python3 new/tests/root_sweep.py)

The file name does not start with ``test_``, so pytest does not collect
it.
"""

import sys
from pathlib import Path

import mpmath as mp
import numpy as np

ROOT = Path(__file__).resolve().parents[1]

NS = range(2, 9)
HS = (-np.geomspace(1.0001, 1e6, 13)).tolist() + [
    -1 - 1e-8, float(np.nextafter(-1.0, -np.inf))]
# C - C0 as a fraction of |C0|, next to the double root at C0
GAPS = (1e-11, 1e-9, 1e-7, 1e-6, 1e-4, 1e-2)
# further C, as fractions s of the way from C0 to -1e-9 in log(-C)
SPREAD = (0.25, 0.5, 0.75, 1.0)
DPS = 80


def exact_roots(n, H, C):
    """The positive real roots of p at the float inputs, at DPS digits."""
    with mp.workdps(DPS):
        Hm, Cm = mp.mpf(H), mp.mpf(C)
        coeffs = [mp.mpf(0)] * (2 * n + 1)
        coeffs[0] = 1 - Hm * Hm
        coeffs[2] += Cm
        coeffs[n] += -2 * Hm
        coeffs[2 * n] += -1
        roots = mp.polyroots(coeffs, maxsteps=400, extraprec=2 * DPS)
        return sorted(mp.re(r) for r in roots
                      if abs(mp.im(r)) < mp.mpf(10) ** (-DPS // 2)
                      and mp.re(r) > 0)


def ulps(x, ref):
    with mp.workdps(DPS):
        return float(abs(mp.mpf(x) - ref) / mp.mpf(np.spacing(x)))


def step_counter(potential):
    """A function giving the Newton steps per root of the last
    oscillation_roots call, with the package's step function wrapped."""
    calls = []
    if hasattr(potential, "_p_factors"):  # one evaluation a step
        factors = potential._p_factors

        def counted(*args, **kwargs):
            calls.append(1)
            return factors(*args, **kwargs)

        potential._p_factors = counted
        return calls, lambda: len(calls) // 2  # both roots take the count
    p_step, p_root = potential._p_step, potential._p_root

    def counted_step(*args):
        calls[-1] += 1
        return p_step(*args)

    def counted_root(*args):
        calls.append(0)
        return p_root(*args)

    potential._p_step, potential._p_root = counted_step, counted_root
    return calls, lambda: max(calls, default=0)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc as h
    from hypcmc import potential

    calls, most_steps = step_counter(potential)
    # roots, within 0.5 ulp, worst ulps, most steps, raised
    totals = {"all": [0, 0, 0.0, 0, 0], "narrow": [0, 0, 0.0, 0, 0]}
    no_exact = 0
    for n in NS:
        for H in HS:
            c0 = h.C0(n, H)
            Cs = [c0 + g * abs(c0) for g in GAPS]
            Cs += [-((-c0) ** (1 - s)) * 1e-9 ** s for s in SPREAD]
            line = [0, 0, 0.0, 0, 0]
            for C in Cs:
                ref = exact_roots(n, H, C)
                if len(ref) != 2:
                    no_exact += 1
                    continue
                narrow = abs(H) <= 100 and C - c0 >= 1e-6 * abs(c0)
                tallies = [line, totals["all"]] + (
                    [totals["narrow"]] if narrow else [])
                del calls[:]
                try:
                    roots = h.oscillation_roots(h.ShapeParams(n, H, C))
                except h.HypcmcError:
                    for tally in tallies:
                        tally[4] += 1
                    continue
                errors = [ulps(x, r) for x, r in zip(roots, ref)]
                for tally in tallies:
                    tally[0] += 2
                    tally[1] += sum(e <= 0.5 for e in errors)
                    tally[2] = max(tally[2], *errors)
                    tally[3] = max(tally[3], most_steps())
            print(f"n={n} H={H!r}\tworst_ulps={line[2]:.3g}\t"
                  f"max_steps={line[3]}\twithin_half_ulp={line[1]}/{line[0]}"
                  f"\traised={line[4]}")
    for key, label in (("all", "sweep"),
                       ("narrow", "|H|<=100, gap>=1e-6")):
        roots, good, worst, most, raised = totals[key]
        print(f"total {label}\tworst_ulps={worst:.3g}\tmax_steps={most}\t"
              f"within_half_ulp={good}/{roots}\traised={raised}")
    print(f"no_exact_roots={no_exact}")


if __name__ == "__main__":
    main()
