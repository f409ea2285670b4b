import math

import numpy as np
import pytest

import hypcmc as h
from hypcmc import cli

import oracles


def _circle(n=100, r=1.0, center=(0.0, 0.0), turns=1):
    t = np.linspace(0, 2 * np.pi * turns, n, endpoint=False)
    return np.column_stack((center[0] + r * np.cos(t),
                            center[1] + r * np.sin(t)))


def test_polygon_is_closed():
    sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]], dtype=float)
    assert h.polygon_is_closed(sq)
    assert not h.polygon_is_closed(sq[:-1])
    near = sq.copy()
    near[-1] += 1e-8
    assert h.polygon_is_closed(near)
    assert not h.polygon_is_closed(near, tol=1e-9)
    with pytest.raises(h.DomainError):
        h.polygon_is_closed(np.zeros((3, 3)))


def test_winding_number_basic():
    assert h.winding_number(_circle()) == 1
    assert h.winding_number(_circle()[::-1]) == -1
    assert h.winding_number(_circle(turns=3, n=300)) == 3
    assert h.winding_number(_circle(center=(5, 0)), center=(5, 0)) == 1
    # center outside the loop
    assert h.winding_number(_circle(), center=(3.0, 0.0)) == 0
    with pytest.raises(h.DomainError):
        h.winding_number(_circle(), center=(1.0, 0.0))


def test_self_intersection_simple_shapes():
    assert not h.has_self_intersection(_circle())
    bowtie = np.array([[0, 0], [1, 1], [1, 0], [0, 1]], dtype=float)
    assert h.has_self_intersection(bowtie)
    # the same four points ordered convexly do not intersect
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    assert not h.has_self_intersection(square)


def test_self_intersection_open_vs_closed():
    # a "U" shape: open it is simple; closing it adds no crossing either
    u = np.array([[0, 1], [0, 0], [1, 0], [1, 1]], dtype=float)
    assert not h.has_self_intersection(u, closed=False)
    assert not h.has_self_intersection(u, closed=True)
    # an open zigzag whose closing edge cuts through a middle segment
    z = np.array([[0, 0], [1, 2], [2, 0], [3, 2]], dtype=float)
    assert h.has_self_intersection(z, closed=True)
    assert not h.has_self_intersection(z, closed=False)


def test_self_intersection_shared_vertices_ignored():
    # consecutive segments share vertices; that is not an intersection
    pts = _circle(n=17)
    assert not h.has_self_intersection(pts)
    # duplicated closing vertex must not trip the wrap-around test
    closed_pts = np.vstack([pts, pts[:1]])
    assert not h.has_self_intersection(closed_pts)


def test_self_intersection_collinear_overlap():
    pts = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 0], [3, 0], [3, 2],
                    [0, 2]], dtype=float)
    # the segment (1,0)-(3,0) retraces part of (0,0)-(2,0)
    assert h.has_self_intersection(pts)


def test_self_intersection_touch_within_tol():
    # two lobes meeting at one point within tolerance: not a crossing
    eps = 1e-12
    pts = np.array([[0, 0], [1, 1], [2, 0], [1, -eps]], dtype=float)
    assert not h.has_self_intersection(pts, tol=1e-9)


def test_validation():
    with pytest.raises(h.DomainError):
        h.has_self_intersection(np.zeros((2, 2)))


def test_profile_curve_diagnostics_integration():
    # a rationally-closing profile: 5 periods of the m = 5 solution
    params = h.ShapeParams(2, -1.1, -0.683566090934480203502)
    curve = h.integrate_profile(params, m_periods=5, samples_per_period=512)
    alpha = h.profile_alpha(curve)
    assert h.polygon_is_closed(alpha, tol=1e-5)
    assert h.winding_number(alpha) == -1
    assert h.has_self_intersection(alpha)


def _seeded_polygons(count, seed=22):
    """Polygons of five kinds in turn: Gaussian points, Gaussian points
    on a 0.1 grid, small integer grids (collinear overlaps and touches),
    multi-turn circles, and star-shaped polygons (simple)."""
    rng = np.random.default_rng(seed)
    for c in range(count):
        m = int(rng.integers(3, 40))
        kind = c % 5
        if kind == 0:
            yield rng.standard_normal((m, 2))
        elif kind == 1:
            yield np.round(rng.standard_normal((m, 2)), 1)
        elif kind == 2:
            yield rng.integers(0, 4, (m, 2)).astype(float)
        elif kind == 3:
            yield _circle(n=3 * m, r=rng.uniform(0.5, 2.0),
                          turns=int(rng.integers(1, 4)))
        else:
            t = np.sort(rng.uniform(0, 2 * np.pi, m))
            r = rng.uniform(0.5, 1.5, m)
            yield np.column_stack((r * np.cos(t), r * np.sin(t)))


@pytest.mark.parametrize("tol", [h.planar.SWEEP_TOL, 0.0])
def test_self_intersection_matches_the_loop_on_seeded_polygons(tol):
    # tol = 0 makes the window ends and overlaps on integer grids exact
    # ties, which the default tol never meets
    answers = []
    for pts in _seeded_polygons(2000):
        for closed in (True, False):
            expected = oracles.loop_has_self_intersection(pts, closed, tol)
            assert h.has_self_intersection(pts, closed, tol) == expected
            answers.append(expected)
    assert 0.1 < np.mean(answers) < 0.9  # both answers are exercised


@pytest.mark.parametrize("params, periods", [
    *((cli.FIGURE_PROFILES[f], cli.FIGURE_PROFILES[f]["periods"])
      for f in sorted(cli.FIGURE_PROFILES)),
    # one seeded profile op of the benchmark per n
    (dict(n=2, H=-1.733154, C=-0.5769160343971688), 1),
    (dict(n=3, H=-1.959374, C=-0.48695027), 1),
    (dict(n=4, H=-2.118797, C=-0.46352155), 1),
    (dict(n=5, H=-2.931498, C=-0.6503856814449517), 1),
], ids=[*sorted(cli.FIGURE_PROFILES), "n2", "n3", "n4", "n5"])
def test_self_intersection_matches_the_loop_on_profiles(params, periods):
    curve = h.integrate_profile(
        h.ShapeParams(params["n"], params["H"], params["C"]),
        m_periods=periods, samples_per_period=1024)
    alpha = h.profile_alpha(curve)
    for closed in (True, False):
        assert h.has_self_intersection(alpha, closed=closed) == \
            oracles.loop_has_self_intersection(alpha, closed=closed)
