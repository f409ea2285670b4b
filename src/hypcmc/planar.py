"""Planar polygon diagnostics for profile curves: closure, winding
number, and self-intersection by a segment sweep whose candidate pairs
are tested as arrays.

These are diagnostics on sampled polygons, never proofs about the
underlying smooth curve.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

CLOSURE_TOL = 1e-6
SWEEP_TOL = 1e-9


def _polygon(points, least: int) -> np.ndarray:
    """The vertices as an (N, 2) float array, after a DomainError unless
    that is their shape, N >= least and every vertex is finite."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < least:
        raise DomainError(f"need an (N, 2) array of at least {least} points")
    if not np.isfinite(pts).all():
        raise DomainError("polygon has a vertex that is not finite")
    return pts


def polygon_is_closed(points, tol: float = CLOSURE_TOL) -> bool:
    """True when first and last vertices coincide within tol."""
    pts = _polygon(points, 2)
    return bool(np.hypot(*(pts[0] - pts[-1])) <= tol)


def winding_number(points, center=(0.0, 0.0)) -> int:
    """Winding of the closed polygon about a center, by angle summation."""
    pts = _polygon(points, 3) - np.asarray(center, dtype=float)
    if not np.isfinite(pts).all():  # the vertices are finite
        raise DomainError("the center is not finite, or too far from a vertex")
    if np.any(np.hypot(pts[:, 0], pts[:, 1]) == 0):
        raise DomainError("polygon passes through the center")
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = (d + np.pi) % (2 * np.pi) - np.pi
    return int(round(float(np.sum(d)) / (2 * np.pi)))


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _spans_overlap(p, q, r, s, tol):
    """Whether the intervals [p, q] and [r, s] (either order) overlap by
    more than tol, row by row."""
    return ((np.maximum(p, q) - np.minimum(r, s) > tol)
            & (np.maximum(r, s) - np.minimum(p, q) > tol))


def _segments_cross(p, q, r, s, tol):
    """Proper crossing test of segments pq and rs, row by row over (m, 2)
    arrays, with an area tolerance: touches within tol of a shared point
    do not count."""
    d1 = _orient(r[:, 0], r[:, 1], s[:, 0], s[:, 1], p[:, 0], p[:, 1])
    d2 = _orient(r[:, 0], r[:, 1], s[:, 0], s[:, 1], q[:, 0], q[:, 1])
    d3 = _orient(p[:, 0], p[:, 1], q[:, 0], q[:, 1], r[:, 0], r[:, 1])
    d4 = _orient(p[:, 0], p[:, 1], q[:, 0], q[:, 1], s[:, 0], s[:, 1])
    proper = ((((d1 > tol) & (d2 < -tol)) | ((d1 < -tol) & (d2 > tol)))
              & (((d3 > tol) & (d4 < -tol)) | ((d3 < -tol) & (d4 > tol))))
    # collinear overlap: all orientations vanish and projections overlap
    flat = np.maximum.reduce([abs(d1), abs(d2), abs(d3), abs(d4)]) <= tol
    overlap = flat & (_spans_overlap(p[:, 0], q[:, 0], r[:, 0], s[:, 0], tol)
                      | _spans_overlap(p[:, 1], q[:, 1], r[:, 1], s[:, 1], tol))
    return proper | overlap


def has_self_intersection(points, closed: bool = True,
                          tol: float = SWEEP_TOL) -> bool:
    """Segment-sweep self-intersection test on a sampled polygon.

    Consecutive segments (and the wrap-around pair when closed) are
    skipped since they legitimately share a vertex.  Segments are sorted
    by their (minimum x, maximum x), and a pair is a candidate when the
    later one starts at most tol beyond where the earlier one ends
    (Shamos & Hoey's x-sorted pruning).  Each segment's candidates are
    the next ones in that order up to its window end, so round k tests
    every pair (s, s + k) still inside its window as one array; the
    rounds stop at the widest window or at the first crossing.  Memory
    is linear in the number of segments.
    """
    pts = _polygon(points, 3)
    if closed and np.hypot(*(pts[0] - pts[-1])) <= tol:
        pts = pts[:-1]
    nseg = len(pts) if closed else len(pts) - 1
    a = pts[:nseg]
    b = np.roll(pts, -1, axis=0) if closed else pts[1:]
    xmin = np.minimum(a[:, 0], b[:, 0])
    xmax = np.maximum(a[:, 0], b[:, 0])
    order = np.lexsort((xmax, xmin))
    # segment order[s] meets the segments order[s + 1 : end[s]]
    end = np.searchsorted(xmin[order], xmax[order] + tol, side="right")
    live = np.arange(nseg)
    for k in range(1, nseg):
        live = live[end[live] - live > k]
        if not len(live):
            return False
        i, j = order[live], order[live + k]
        gap = np.abs(i - j)
        pair = (gap != 1) & ~(closed & (gap == nseg - 1))
        i, j = i[pair], j[pair]
        if _segments_cross(a[i], b[i], a[j], b[j], tol).any():
            return True
    return False
