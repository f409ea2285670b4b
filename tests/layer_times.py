"""Print where one no-root flux scan spends its time, layer by layer.

    python3 tests/layer_times.py [--repeats 15]

Runs on the ``noroot`` benchmark's anchor (n = 2, H = -1.1, embedded)
and its first ``below`` entry, read from ``perfbench/refs/noroot.json``,
with hypcmc imported from this checkout's ``src/``.  For each it builds
the grids ``solve_C`` scans (64 and 4096 points over its search
interval) and prints the median wall time of:

* one 4096-row ``flux_K_grid``, split into its layers: the roots
  (``oscillation_roots_grid``), the deflation (``_deflated_coefficients``),
  the angle rate (``_angle_rate``), the phase rule (``_phase_mean``,
  with the views and gathers of the rows it cuts) and the rest;
* one 64-row ``flux_K_grid``;
* the whole ``solve_C``.

A second table gives the per-call medians of the closure kernels, whose
cost is fixed per call rather than per row: one scalar ``flux_K`` (the
anchor at the middle of its 64-point grid), one scalar ``xi`` (at the
anchor's H), the anchor's 64-row ``flux_K_grid``, a 64-row ``xi_grid``
(``find_H0``'s scan at n = 2) and a 128-row one (the fig6 sweep, n = 3),
and a whole ``find_H0(2)``.  It then splits the scalar ``flux_K`` and
``xi`` into their roots (``oscillation_roots``, ``_Q_upper_root``), the
deflation (``_deflated_coefficients``, ``_synthetic_deflate``), the rate
(``_angle_rate``), the rule (``_phase_row``, or ``_phase_mean`` where a
checkout runs one C on it) and the rest, median ms per layer.  It
splits the scalar flux's roots into set-up and p's Newton kernel
(``_p_newton``, or ``_p_root`` and ``_p_polish`` where a checkout has
those) with the kernel's share of the call, and prints the Newton steps
per root of that call and per lane of the anchor's 4096-row grid: the
evaluations of p's factors (``_p_factors``) where the checkout has them,
else its safeguarded steps (``_p_step``), each lane counted once a step.

A third table gives ``check``'s two tanh-sinh references,
``quadrature.period_T`` and the flux over v (``_flux_over_v``), at the
fig1 constant and at (3, -1.5, -0.7): the levels each ran, its integrand
evaluations and its median ms per call.

A fourth table gives the cost of the CSV output, pass by pass, for the
tables of ``profile --seed-figures fig2`` and ``surface --n 4 --H -1.5
--C -0.5``, cut as ``cli._emit_csv`` cuts them (``cli.CSV_CELLS``
floats a pass, or ``cli.CSV_BLOCK`` rows on older checkouts): each
pass's distinct floats, the
median ms of its dedup (``np.unique`` over its bit patterns), of the
array kernel ``_shortest.repr_text`` over its distinct floats (where the
checkout has it and the pass reaches ``cli.CSV_KERNEL_MIN``), of the
rest of the pass (the assembly of its text) and of the whole pass
(``cli._csv_lines``), the minor page faults (``ru_minflt``) of one
whole pass, median over the repeats, and the lanes the kernel left to
repr.

The layers are timed by wrapping those module functions around a real
``flux_K_grid`` call, so the script runs unchanged on any checkout that
has them.  It also prints the rows the phase rule takes and their nodes
per row (minimum, mean and maximum), which do not depend on the
machine.  It takes about half a minute.  Two checkouts compare with

    diff <(python3 old/tests/layer_times.py) <(python3 new/tests/layer_times.py)

A fifth table gives the median ms per call of the lorentz maps and the
planar sweep: ``lorentz.immerse_rows``, ``gauss_rows`` and
``curvature_rows`` as the first ``check`` op of the ``geometry``
benchmark's seed-1 plan calls them (an inner call of one inside another
is not counted apart), with their calls per op, and
``planar.polygon_is_closed``, ``winding_number`` and
``has_self_intersection`` on the fig2 profile polygon, as the benchmark
runs them on each profile.

``perfbench`` is only read.  The file name does not start with
``test_``, so pytest does not collect it; ``tests/test_source.py`` runs
it once with one repeat, so it keeps up with the functions it calls.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("roots", "deflation", "angle_rate", "phase_rule", "rest")
WRAPPED = {"oscillation_roots_grid": "roots",
           "_deflated_coefficients": "deflation",
           "_angle_rate": "angle_rate", "_phase_mean": "phase_rule"}


def cases():
    """(label, entry) of the anchor and the first below entry."""
    refs = json.loads((ROOT / "perfbench" / "refs" / "noroot.json")
                      .read_text())["noroot"]
    return [("anchor", refs["anchor"][0]), ("below", refs["below"][0])]


def scan_grid(h, entry, points):
    """solve_C's grid of ``points`` over its search interval."""
    from hypcmc import shooting

    n, H = entry["n"], entry["H"]
    c0 = h.C0(n, H)
    lo, hi = c0 + shooting.C_GAP_LOWER_REL * abs(c0), -shooting.C_GAP_UPPER
    if entry["mode"] == "embedded":
        ct = h.Ctilde(n, H)
        hi = ct - shooting.CTILDE_GUARD_REL * abs(ct)
    return -np.geomspace(-lo, -hi, points)


def layer_split(quadrature, n, H, grid):
    """Seconds per layer of one flux_K_grid call, and its rows' nodes."""
    spent = dict.fromkeys(LAYERS, 0.0)
    originals = {name: getattr(quadrature, name) for name in WRAPPED}
    rows = []

    def wrap(name, fn):
        def timed(*args):
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[WRAPPED[name]] += time.perf_counter() - start
        return timed

    def phase_mean(integrand, columns, tol):
        rows.append(np.shape(columns[0])[-1])
        return originals["_phase_mean"](integrand, columns, tol)

    for name, fn in {**originals, "_phase_mean": phase_mean}.items():
        setattr(quadrature, name, wrap(name, fn))
    try:
        start = time.perf_counter()
        columns = quadrature.flux_K_grid(n, H, grid)
        total = time.perf_counter() - start
    finally:
        for name, fn in originals.items():
            setattr(quadrature, name, fn)
    spent["rest"] = total - sum(spent[k] for k in LAYERS[:-1])
    return spent, total, sum(rows), columns[2]


def median_ms(samples):
    return 1e3 * statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import hypcmc as h
    from hypcmc import quadrature, shooting

    for label, e in cases():
        n, H = e["n"], e["H"]
        winding = h.WindingTarget(e["k"], e["m"])
        big, small = scan_grid(h, e, 4096), scan_grid(h, e, 64)
        layer_split(quadrature, n, H, big)  # warm-up
        per_layer = {k: [] for k in LAYERS}
        totals, small_s, solve_s = [], [], []
        for _ in range(args.repeats):
            spent, total, rows, nodes = layer_split(quadrature, n, H, big)
            for k in LAYERS:
                per_layer[k].append(spent[k])
            totals.append(total)
            start = time.perf_counter()
            quadrature.flux_K_grid(n, H, small)
            small_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            shooting.solve_C(n, H, winding, mode=e["mode"])
            solve_s.append(time.perf_counter() - start)
        print(f"{label} n={n} H={H!r} k/m={e['k']}/{e['m']} mode={e['mode']}")
        print(f"  rows={rows}/4096  nodes_per_row min={nodes.min()} "
              f"mean={nodes.mean():.2f} max={nodes.max()}")
        print("  flux_K_grid 4096 rows: " + "  ".join(
            f"{k}={median_ms(per_layer[k]):.2f}" for k in LAYERS)
            + f"  total={median_ms(totals):.2f} ms")
        print(f"  flux_K_grid 64 rows: {median_ms(small_s):.3f} ms")
        print(f"  solve_C: {median_ms(solve_s):.2f} ms")
    kernel_table(h, args.repeats)
    reference_table(h, args.repeats)
    csv_table(args.repeats)
    geometry_table(h, args.repeats)


def kernel_table(h, repeats):
    """Print the median ms per call of each closure kernel."""
    e = cases()[0][1]
    n, H = e["n"], e["H"]
    flux_grid = scan_grid(h, e, 64)
    h0_grid = -np.geomspace(10.0, 1.0, 64)
    sweep_grid = np.linspace(-10.0, -1.0, 128)
    kernels = {
        "flux_K": lambda: h.flux_K(h.ShapeParams(n, H, flux_grid[32].item())),
        "xi": lambda: h.xi(n, H),
        "flux_K_grid 64": lambda: h.flux_K_grid(n, H, flux_grid),
        "xi_grid 64": lambda: h.xi_grid(2, h0_grid, missing_as_none=True),
        "xi_grid 128": lambda: h.xi_grid(3, sweep_grid),
        "find_H0(2)": lambda: h.find_H0(2),
    }
    samples = {name: [] for name in kernels}
    for name, call in kernels.items():  # warm-up
        call()
    for _ in range(repeats):
        for name, call in kernels.items():
            start = time.perf_counter()
            call()
            samples[name].append(time.perf_counter() - start)
    print("closure kernels, median ms per call:")
    print("  " + "  ".join(f"{name}={median_ms(s):.3f}"
                           for name, s in samples.items()))
    scalar_split(kernels["flux_K"], "flux_K", FLUX_LAYERS, repeats)
    scalar_split(kernels["xi"], "xi", XI_LAYERS, repeats)
    newton_steps(h, n, H, flux_grid[32].item(), scan_grid(h, e, 4096))


# the functions that one scalar flux_K or xi runs, by layer; p's Newton
# kernel runs inside the roots
FLUX_LAYERS = {"roots": ("quadrature", "oscillation_roots"),
               "deflation": ("quadrature", "_deflated_coefficients"),
               "rate": ("quadrature", "_angle_rate"),
               "rule": ("quadrature", "_phase_row", "_phase_mean"),
               "newton": ("potential", "_p_newton", "_p_root", "_p_polish")}


def newton_steps(h, n, H, C, grid):
    """Print p's Newton steps per root of one scalar flux_K's roots and
    per lane of one flux_K_grid's roots, counted where the checkout steps
    (_p_factors, else _p_step), a lane once per step it takes."""
    from hypcmc import potential

    name = "_p_factors" if hasattr(potential, "_p_factors") else "_p_step"
    step, lanes = getattr(potential, name), []

    def counted(*args, **kwargs):
        lanes.append(np.size(args[3] if name == "_p_factors" else args[1]))
        return step(*args, **kwargs)

    setattr(potential, name, counted)
    try:
        potential.oscillation_roots(h.ShapeParams(n, H, C))
        scalar = sum(lanes) / 2
        del lanes[:]
        potential.oscillation_roots_grid(n, H, grid)
    finally:
        setattr(potential, name, step)
    print(f"  p's Newton steps ({name}): {scalar:g} per root of one "
          f"flux_K, {sum(lanes) / (2 * len(grid)):.2f} per lane of the "
          f"{len(grid)}-row grid ({sum(lanes)} lane steps)")
XI_LAYERS = {"roots": ("quadrature", "_Q_upper_root"),
             "deflation": ("quadrature", "_synthetic_deflate"),
             "rule": ("quadrature", "_phase_row", "_phase_mean")}


def scalar_split(call, label, layers, repeats):
    """Print the median ms per layer of one scalar call, and the split of
    its roots into set-up and p's Newton kernel; a function the checkout
    lacks is not wrapped."""
    import hypcmc

    spent, originals = dict.fromkeys(layers, 0.0), []

    def wrap(module, name, layer):
        fn = getattr(module, name)

        def timed(*args, **kw):
            start = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                spent[layer] += time.perf_counter() - start

        originals.append((module, name, fn))
        setattr(module, name, timed)

    for layer, (module, *names) in layers.items():
        module = getattr(hypcmc, module)
        for name in names:
            if hasattr(module, name):
                wrap(module, name, layer)
    parts = [layer for layer in layers if layer != "newton"]
    samples = {layer: [] for layer in (*layers, "rest", "total")}
    try:
        call()  # warm-up
        for _ in range(repeats):
            spent.update(dict.fromkeys(layers, 0.0))
            start = time.perf_counter()
            call()
            spent["total"] = time.perf_counter() - start
            spent["rest"] = spent["total"] - sum(spent[k] for k in parts)
            for layer, s in spent.items():
                samples[layer].append(s)
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)
    ms = {layer: median_ms(s) for layer, s in samples.items()}
    line = "  ".join(f"{k}={ms[k]:.3f}" for k in (*parts, "rest", "total"))
    if "newton" in layers:
        line += (f"  (roots: set-up {ms['roots'] - ms['newton']:.3f}, "
                 f"Newton kernel {ms['newton']:.3f} = "
                 f"{100 * ms['newton'] / ms['total']:.0f}% of the call)")
    print(f"  {label} split, median ms: {line}")


def reference_table(h, repeats):
    """Print, per reference of check and shape, the tanh-sinh levels run,
    the evaluations and the median ms per call."""
    from hypcmc import quadrature
    # older checkouts look the per-level node tables up as
    # _cached_level_nodes
    name = ("_cached_level_nodes" if hasattr(quadrature, "_cached_level_nodes")
            else "_level_nodes")
    nodes = getattr(quadrature, name)
    print("check's references, tanh-sinh: levels, evaluations, median ms")
    for n, H, C in ((2, -1.1, -0.9091743461769703), (3, -1.5, -0.7)):
        params = h.ShapeParams(n, H, C)
        for label, call in (("period_T", quadrature.period_T),
                            ("flux over v", quadrature._flux_over_v)):
            levels = []
            setattr(quadrature, name,
                    lambda level: levels.append(level) or nodes(level))
            try:
                res = call(params)
            finally:
                setattr(quadrature, name, nodes)
            samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                call(params)
                samples.append(time.perf_counter() - start)
            print(f"  ({n}, {H!r}, {C!r}) {label}: levels={len(levels)} "
                  f"evaluations={res.evaluations} "
                  f"ms={median_ms(samples):.3f}")


def csv_table(repeats):
    """Print, per CSV pass of two geometry tables, the distinct floats,
    the median ms of the dedup, the kernel, the rest of the pass and the
    whole pass, and the page faults of one pass."""
    import hypcmc.cli as cli
    try:
        from hypcmc import _shortest as kernel
    except ImportError:  # a checkout from before the kernel
        kernel = None
    print("CSV passes, median ms: distinct floats, dedup (np.unique), "
          "kernel, assembly (the rest), whole pass (_csv_lines), minor "
          "page faults of one pass, lanes left to repr")
    for argv in (["profile", "--seed-figures", "fig2"],
                 ["surface", "--n", "4", "--H", "-1.5", "--C", "-0.5"]):
        # the passes as this checkout's _emit_csv cuts them
        passes = []
        lines = cli._csv_lines
        cli._csv_lines = lambda block, rows: passes.append((block, rows)) or ""
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        finally:
            cli._csv_lines = lines
        print("  " + " ".join(argv))
        start = 0
        for block, rows in passes:
            values = np.unique(block.view(np.int64)).view(float)
            on_kernel = (kernel is not None
                         and len(values) >= cli.CSV_KERNEL_MIN)
            calls = {"dedup": lambda: np.unique(block.view(np.int64),
                                                return_inverse=True),
                     "pass": lambda: cli._csv_lines(block, rows)}
            if on_kernel:
                calls["kernel"] = lambda: kernel.repr_text(values)
            samples = {name: [] for name in calls}
            faults = []
            for _ in range(repeats):
                for name, call in calls.items():
                    flt = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                    begin = time.perf_counter()
                    call()
                    samples[name].append(time.perf_counter() - begin)
                    if name == "pass":
                        faults.append(resource.getrusage(
                            resource.RUSAGE_SELF).ru_minflt - flt)
            ms = {name: median_ms(s) for name, s in samples.items()}
            rest = ms["pass"] - ms["dedup"] - ms.get("kernel", 0.0)
            left = (int((~kernel.repr_text(values)[3]).sum()) if on_kernel
                    else "-")
            kernel_ms = f"{ms['kernel']:.3f}" if on_kernel else "-"
            print(f"    rows {start}-{start + len(block) - 1}: "
                  f"distinct={len(values)} dedup={ms['dedup']:.3f} "
                  f"kernel={kernel_ms} assembly={rest:.3f} "
                  f"pass={ms['pass']:.3f} "
                  f"minflt={statistics.median(faults):.0f} "
                  f"left_to_repr={left}")
            start += len(block)


def geometry_table(h, repeats):
    """Print the median ms per call of the lorentz maps in one seeded
    check op, outermost calls only, and of the planar diagnostics on the
    fig2 profile polygon."""
    import hypcmc.cli as cli
    from cli_digest import _workloads
    from hypcmc import lorentz, planar

    wl = _workloads()
    refs = wl.load_refs(ROOT / "perfbench" / "refs")
    op = next(o for o in wl.plan("geometry", refs, 1, 0)
              if o["kind"] == "check")
    names = ("immerse_rows", "gauss_rows", "curvature_rows")
    originals = {name: getattr(lorentz, name) for name in names}
    samples, depth = {name: [] for name in names}, [0]

    def wrap(name, fn):
        def timed(*args, **kw):
            depth[0] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    samples[name].append(time.perf_counter() - start)
        return timed

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(op["argv"])  # warm-up
        for name, fn in originals.items():
            setattr(lorentz, name, wrap(name, fn))
        try:
            for _ in range(repeats):
                cli.main(op["argv"])
        finally:
            for name, fn in originals.items():
                setattr(lorentz, name, fn)
    print("lorentz maps and planar sweep, median ms per call")
    print(f"  {' '.join(op['argv'])}: " + "  ".join(
        f"{name}={median_ms(s):.3f} ({len(s) // repeats}/op)"
        for name, s in samples.items()))
    fig = cli.FIGURE_PROFILES["fig2"]
    curve = h.integrate_profile(h.ShapeParams(fig["n"], fig["H"], fig["C"]),
                                m_periods=fig["periods"])
    alpha = h.profile_alpha(curve)
    closed = planar.polygon_is_closed(alpha)
    calls = {"polygon_is_closed": lambda: planar.polygon_is_closed(alpha),
             "winding_number": lambda: planar.winding_number(alpha),
             "has_self_intersection":
                 lambda: planar.has_self_intersection(alpha, closed=closed)}
    times = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    print(f"  fig2 polygon ({len(alpha)} vertices): " + "  ".join(
        f"{name}={median_ms(s):.3f}" for name, s in times.items()))


if __name__ == "__main__":
    main()
