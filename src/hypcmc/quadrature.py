"""Double-exponential (tanh-sinh) quadrature for integrals with
inverse-square-root endpoint singularities, plus the specific integrals
of this problem: the period T, the flux K(C, H), the threshold value
xi_n(H), and the analytic limits at C0.

The central numerical idea: integrands are given a chance to receive the
*offsets* from the interval endpoints (da = x - lower, db = upper - x)
instead of recomputing them from x.  Near an endpoint, x rounds to the
endpoint long before da underflows, so offset-aware integrands keep full
relative accuracy right into the singularity.  The potential q is
evaluated there in deflated form q = da * db * s(v), where s is the
polynomial left after synthetically dividing p(v) = v^(2n-2) q(v) by its
two computed roots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    DomainError,
    EvaluationError,
    GuardBandError,
    HypcmcError,
    LandmarkError,
    NonConvergenceError,
)
from .potential import (
    Ctilde,
    Q_coefficients,
    ShapeParams,
    _derivative,
    eval_h,
    horner,
    oscillation_roots,
    oscillation_roots_grid,
    p_coefficients,
)

DEFAULT_TOL = 1e-11
DEFAULT_MAX_LEVEL = 12
# Relative half-width of the band around Ctilde inside which flux_K
# refuses to run (the interior near-singularity at v = sqrt(-C) ruins
# convergence); the Ctilde value itself is served exactly by xi().
CTILDE_GUARD_REL = 1e-9

# abscissa cutoff: beyond this |t| the transformed node offsets underflow
_T_CUTOFF = 6.1
# A batch of integrals is evaluated in blocks of rows holding at most
# this many nodes per array, or one row where a row has more (about 25k
# at level 12), so a batch needs no more memory than a lone integral.
_BLOCK_NODES = 1 << 14


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class SingularIntegrand:
    """An integrand on (lower, upper), finite on the open interval.

    ``integrand`` maps a point to a value.  When ``offset_integrand`` is
    provided it is preferred: it receives (x, da, db) with da = x - lower
    and db = upper - x computed in the transformed variable, which stays
    accurate where x itself has rounded onto an endpoint.
    """

    lower: float
    upper: float
    integrand: Optional[Callable[[float], float]] = None
    offset_integrand: Optional[Callable[[float, float, float], float]] = None

    def __post_init__(self):
        if self.integrand is None and self.offset_integrand is None:
            raise DomainError("need an integrand or an offset_integrand")


def _call_integrand(f, x, da, db, offset_aware):
    if offset_aware:
        return np.asarray(f(x, da, db), dtype=float)
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == x.shape:
            return vals
    except (TypeError, ValueError):
        pass
    return np.array([f(xi) for xi in x], dtype=float)


def _level_nodes(level: int):
    """The interval-independent node data of one level (read-only).

    Returns (h, lower_half, em, 1 + em, pi cosh t) for the nodes t = k h
    of the level in ascending order (odd k only above level 0), with
    u = pi/2 sinh t, em = exp(-2|u|) and lower_half = u < 0.
    """
    h = 2.0 ** (-level)
    kmax = int(_T_CUTOFF / h)
    ks = np.arange(-kmax, kmax + 1)
    if level > 0:
        ks = ks[ks % 2 != 0]
    t = ks * h
    u = 0.5 * np.pi * np.sinh(t)
    em = np.exp(-2.0 * np.abs(u))
    tables = (u < 0, em, 1.0 + em, np.pi * np.cosh(t))
    for arr in tables:
        arr.setflags(write=False)
    return (h,) + tables


# built on first use; deeper levels than the default are rebuilt per use
# rather than held (level 20 alone would hold about 160 MB)
_cached_level_nodes = functools.lru_cache(maxsize=None)(_level_nodes)


def _integrate_rows(lower, upper, integrand, tol, max_level, one_row=False,
                    interior_only=False):
    """Tanh-sinh with level doubling for the integrals over (lower[i], upper[i]).

    ``integrand(rows, x, da, db)`` returns the values of the integrals
    ``rows`` (an index array) at nodes of shape (len(rows), nodes).  Every
    row runs the same levels in the same operation order as a lone
    integral would and is retired at the level where it converges.

    With ``one_row`` (the de_integrate path) nodes outside the keep mask
    are dropped and a non-finite value raises EvaluationError.  Otherwise
    a row that would need either is left as None, for the caller to run
    through the one-row path, so every result returned here is the
    one-row result bit for bit.
    """
    results = [None] * len(lower)
    # per-row state, compacted to the rows still running after each level
    ids = np.arange(len(lower))
    width = upper - lower
    total = np.zeros(len(lower))  # running sums of F * weight (without h)
    value = np.zeros(len(lower))
    err = np.full(len(lower), math.inf)
    evaluations = np.zeros(len(lower), dtype=np.int64)
    for level in range(max_level + 1):
        h, lower_half, em, onep, pct = (
            _cached_level_nodes(level) if level <= DEFAULT_MAX_LEVEL
            else _level_nodes(level))
        block = max(1, _BLOCK_NODES // len(em))
        dropped = []
        for start in range(0, len(ids), block):
            sel = slice(start, start + block)
            w = width[sel, None]
            near = w * em / onep   # offset from the nearer endpoint
            far = w / onep         # offset from the farther endpoint
            da = np.where(lower_half, near, far)
            db = np.where(lower_half, far, near)
            x = np.where(lower_half, lower[sel, None] + da, upper[sel, None] - db)
            weight = pct * da * db / w
            keep = (da > 0) & (db > 0) & np.isfinite(weight)
            if interior_only:
                # a plain integrand can only be evaluated at nodes that
                # are still interior after rounding; the discarded tail
                # limits attainable accuracy to ~sqrt(eps) for singular
                # endpoints away from zero (use an offset integrand to go
                # below that)
                keep &= (x > lower[sel, None]) & (x < upper[sel, None])
            if not keep.all():
                if one_row:
                    x, da, db, weight = (a[keep][None] for a in (x, da, db, weight))
                else:
                    sel, x, da, db, weight = _drop_rows(
                        keep.all(axis=1), dropped, sel, len(ids), x, da, db, weight)

            vals = integrand(ids[sel], x, da, db)
            bad = ~np.isfinite(vals)
            if bad.any():
                if one_row:
                    where = float(x[bad][0])
                    raise EvaluationError(
                        f"integrand returned a non-finite value at v={where!r}",
                        abscissa=where,
                    )
                sel, vals, weight = _drop_rows(~bad.any(axis=1), dropped, sel,
                                               len(ids), vals, weight)
            # fixed ascending-t summation order keeps repeated runs
            # bit-identical; a row sums alone exactly as a 1-D array does
            total[sel] += np.sum(vals * weight, axis=1)
        # every row still running evaluated the same nodes at this level
        evaluations += vals.shape[1]
        new_value = h * total
        retire = None
        if level > 0:
            diff = np.abs(new_value - value)
            # demand two consecutive quiet levels: a narrow interior
            # spike (C near Ctilde) is invisible to coarse levels and a
            # single small difference can be a false plateau
            if level >= 3:
                retire = (diff <= tol) & (err <= tol)
            err = diff
        value = new_value
        live = None
        if dropped:
            live = np.ones(len(ids), dtype=bool)
            live[dropped] = False
            if retire is not None:
                retire &= live
        if retire is not None and retire.any():
            for i in np.flatnonzero(retire):
                results[ids[i]] = QuadResult(float(value[i]), float(err[i]),
                                             int(evaluations[i]), True)
            live = ~retire if live is None else live & ~retire
        if live is None:
            continue
        if not live.any():
            return results
        ids, lower, upper, width, total, value, err, evaluations = (
            a[live] for a in (ids, lower, upper, width, total, value, err,
                              evaluations))
    for i, row in enumerate(ids):
        results[row] = QuadResult(float(value[i]), float(err[i]),
                                  int(evaluations[i]), False)
    return results


def _drop_rows(mask, dropped, sel, count, *arrays):
    """Keep the rows of a block where ``mask`` holds; record the others."""
    sel = np.arange(count)[sel]
    dropped.extend(sel[~mask])
    return (sel[mask],) + tuple(a[mask] for a in arrays)


def de_integrate(spec: SingularIntegrand, tol: float = DEFAULT_TOL,
                 max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """Tanh-sinh quadrature with level doubling, open rule.

    Levels are doubled until two successive values agree within ``tol``
    or ``max_level`` is reached; the reported error estimate is the last
    inter-level difference.  Endpoints are never evaluated.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    a, b = float(spec.lower), float(spec.upper)
    if not a < b:
        raise DomainError(f"need lower < upper, got [{a}, {b}]")
    offset_aware = spec.offset_integrand is not None
    f = spec.offset_integrand if offset_aware else spec.integrand

    def integrand(rows, x, da, db):
        return _call_integrand(f, x[0], da[0], db[0], offset_aware)[None]

    return _integrate_rows(np.array([a]), np.array([b]), integrand, tol,
                           max_level, one_row=True,
                           interior_only=not offset_aware)[0]


def _synthetic_deflate(coeffs: Sequence[float], root: float) -> tuple:
    """Divide a polynomial (highest-first coefficients) by (v - root)."""
    out = []
    acc = coeffs[0]
    for c in coeffs[1:]:
        out.append(acc)
        acc = c + root * acc
    return tuple(out)


def _deflated_coefficients(coeffs: np.ndarray, r1: float, r2: float) -> tuple:
    """Coefficients of coeffs / ((v - r1)(v - r2)), as floats."""
    return _synthetic_deflate(_synthetic_deflate(coeffs.tolist(), r1), r2)


def _s(n, rem, v):
    """s(v) with q(v) = (v - t1)(t2 - v) s(v) > 0 on (t1, t2).

    ``rem`` holds the coefficients of p(v) = v^(2n-2) q(v) deflated by
    both roots (floats, or (rows, 1) columns for a batch of C).
    """
    return -horner(rem, v) * v ** (2 - 2 * n)


def period_T(params: ShapeParams, tol: float = DEFAULT_TOL,
             max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """Period of g: T = 2 * integral over (t1, t2) of dv / sqrt(q(v))."""
    if params.C is None:
        raise DomainError("period_T requires C")
    n = params.n
    t1, t2 = oscillation_roots(params)
    rem = _deflated_coefficients(p_coefficients(n, params.H, params.C), t1, t2)

    def fo(v, da, db):
        return 1.0 / np.sqrt(da * db * _s(n, rem, v))

    res = de_integrate(SingularIntegrand(lower=t1, upper=t2, offset_integrand=fo),
                       tol=tol, max_level=max_level)
    return QuadResult(2 * res.value, 2 * res.abs_error_estimate,
                      res.evaluations, res.converged)


def _flux_ingredients(params: ShapeParams):
    """Roots, deflated potential factor and pole data for the flux.

    Returns (t1, t2, rem, vc, d) with q(v) = (v - t1)(t2 - v) s(v) for
    s = _s(n, rem, .), vc = sqrt(-C) the location of the pole of the
    angle rate, and d = t1 - vc its (always positive) offset from the
    lower root.
    """
    n, H, C = params.n, params.H, params.C
    t1, t2 = oscillation_roots(params)
    vc = math.sqrt(-C)
    rem = _deflated_coefficients(p_coefficients(n, H, C), t1, t2)
    # Direct subtraction t1 - vc cancels catastrophically when C is near
    # Ctilde (t1 -> vc there), so use the identity
    # q(vc) = -(-C) (H + (-C)^(-n/2))^2 with the deflated form of q,
    # which gives d in terms of relatively accurate quantities.
    delta = H + (-C) ** (-n / 2)
    d = (-C) * delta * delta / ((t2 - vc) * float(_s(n, rem, vc)))
    if d <= 0:
        raise DomainError(
            f"sqrt(-C)={vc} is not below t1={t1}; the profile would leave r >= 1"
        )
    return t1, t2, rem, vc, d


def _flux_ingredients_grid(n: int, H: float, Cs: Sequence[float]):
    """_flux_ingredients for every C of ``Cs`` at once, as columns.

    Returns (lanes, t1, t2, rem, vc, d): the indices into ``Cs`` of the C
    whose ingredients were settled, and those ingredients, each equal to
    the scalar one bit for bit (``rem`` has one row per coefficient).  A
    C is left out where oscillation_roots_grid leaves its roots unsettled
    or where d <= 0; the scalar path raises there or takes over.
    """
    roots = oscillation_roots_grid(n, H, Cs)
    lanes = np.array([i for i, r in enumerate(roots) if r is not None],
                     dtype=np.intp)
    t1, t2 = np.array([roots[i] for i in lanes], dtype=float).reshape(-1, 2).T
    C = np.asarray(Cs, dtype=float)[lanes]
    rem = np.array(_synthetic_deflate(
        _synthetic_deflate(tuple(p_coefficients(n, H, C)), t1), t2))
    # the square root and the powers stay per-C float arithmetic, as in the
    # scalar path (NumPy may take an array power through a SIMD pow whose
    # last bit differs); the rest is + - * / on the columns
    vc = np.array([math.sqrt(-c) for c in C.tolist()])
    delta = np.array([H + (-c) ** (-n / 2) for c in C.tolist()])
    power = np.array([v ** (2 - 2 * n) for v in vc.tolist()])
    d = (-C) * delta * delta / ((t2 - vc) * (-horner(rem, vc) * power))
    ok = d > 0
    return lanes[ok], t1[ok], t2[ok], rem[:, ok], vc[ok], d[ok]


def _flux_integrand(n, H, vc, d, rem):
    """The flux integrand in offset form.

    vc, d and the coefficients ``rem`` are floats for one C, or (rows, 1)
    columns for a batch of C; the arithmetic is the same either way.
    """

    def fo(v, da, db):
        return (2 * vc * (1 + H * v ** n) * v ** (1 - n)
                / ((da + d) * (v + vc) * np.sqrt(da * db * _s(n, rem, v))))

    return fo


def _in_guard_band(n: int, H: float, C: float) -> bool:
    ct = Ctilde(n, H)
    return abs(C - ct) < CTILDE_GUARD_REL * abs(ct)


def flux_K(params: ShapeParams, tol: float = DEFAULT_TOL,
           max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """Flux K(C, H): total turning of theta over one period of g.

    K = integral over (t1, t2) of
        2 sqrt(-C) (1 + H v^n) v^(1-n) / ((C + v^2) sqrt(q(v))) dv.

    The pole factor C + v^2 vanishes at v = sqrt(-C) < t1; it is written
    as (da + d)(v + sqrt(-C)) with d = t1 - sqrt(-C), so the integrand
    keeps relative accuracy when d is tiny (C near Ctilde, where the
    profile passes close to the rotation axis).  Inside the guard band
    around Ctilde the computation is refused: use xi() there.
    """
    if params.C is None:
        raise DomainError("flux_K requires C")
    n, H, C = params.n, params.H, params.C
    if _in_guard_band(n, H, C):
        raise GuardBandError(
            f"C={C} is within the guard band around Ctilde={Ctilde(n, H)}; "
            "the flux there is xi(n, H)"
        )
    t1, t2, rem, vc, d = _flux_ingredients(params)
    spec = SingularIntegrand(lower=t1, upper=t2,
                             offset_integrand=_flux_integrand(n, H, vc, d, rem))
    return de_integrate(spec, tol=tol, max_level=max_level)


def flux_K_grid(n: int, H: float, Cs: Sequence[float],
                tol: float = DEFAULT_TOL, max_level: int = DEFAULT_MAX_LEVEL,
                xi_result: Optional[QuadResult] = None) -> list[QuadResult]:
    """The flux at every C of ``Cs``, all quadratures run as one batch.

    The per-C set-up is built as columns: the oscillation roots of all C
    from one lane-wise Brent iteration (oscillation_roots_grid), the
    deflated coefficients and the pole data.  A C whose set-up the
    columns cannot settle runs through scalar flux_K, as does a row the
    batch leaves out.  Each result equals
    ``flux_K(ShapeParams(n, H, C), tol, max_level)`` in all four fields.
    Inside the guard band around Ctilde the result
    is the threshold flux xi(n, H, tol, max_level); pass it as
    ``xi_result`` when it is already known, otherwise it is computed
    here, at most once.  Errors are raised in the order of ``Cs``, as a
    loop over flux_K would raise them.
    """
    if not tol > 0:
        raise DomainError(f"tol must be positive, got {tol}")
    Cs = [float(C) for C in Cs]
    # per C: its row in the batch, None in the guard band, the error, or
    # False where the scalar flux_K takes over (it raises the error of a C
    # whose ingredients the columns could not settle)
    status = []
    for C in Cs:
        try:
            ShapeParams(n=n, H=H, C=C)
        except HypcmcError as exc:
            status.append(exc)
            continue
        status.append(None if _in_guard_band(n, H, C) else False)
    candidates = [i for i, row in enumerate(status) if row is False]
    if candidates:
        lanes, t1, t2, rem, vc, d = _flux_ingredients_grid(
            n, H, [Cs[i] for i in candidates])
        for row, lane in enumerate(lanes.tolist()):
            status[candidates[lane]] = row

        def integrand(rows, x, da, db):
            return _flux_integrand(n, H, vc[rows, None], d[rows, None],
                                   rem[:, rows, None])(x, da, db)

        if len(lanes):
            batch = _integrate_rows(t1, t2, integrand, tol, max_level)
    out = []
    for C, row in zip(Cs, status):
        if isinstance(row, HypcmcError):
            raise row
        if row is None:
            if xi_result is None:
                xi_result = xi(n, H, tol=tol, max_level=max_level)
            out.append(xi_result)
        elif row is not False and batch[row] is not None:
            out.append(batch[row])
        else:
            # a C the columns or the block left out runs the one-row path,
            # which raises the set-up error, drops the nodes outside the
            # keep mask or raises the EvaluationError of a non-finite value
            out.append(flux_K(ShapeParams(n=n, H=H, C=C), tol=tol,
                              max_level=max_level))
    return out


def _Q_upper_root(n: int, H: float) -> float:
    """The root of Q above 1 (the scaled upper turning point at C = Ctilde)."""
    coeffs = tuple(Q_coefficients(n, H).tolist())
    dcoeffs = _derivative(coeffs)
    pq = functools.partial(horner, coeffs)

    delta = 1e-9
    while pq(1.0 + delta) >= 0:
        delta *= 2
        if delta > 1e13:
            raise LandmarkError(
                f"Q(n={n}, H={H}) has no root above 1; xi is not defined here"
            )
    lo = 1.0 + delta / 2 if pq(1.0 + delta / 2) > 0 else 1.0 + 1e-9
    t2 = brentq(pq, lo, 1.0 + delta, xtol=1e-15, rtol=8.9e-16)
    for _ in range(2):
        t2 -= pq(t2) / horner(dcoeffs, t2)
    return float(t2)


def _xi_setup(n: int, H: float):
    """The upper root t2~ of Q and Q's coefficients deflated by 1 and t2~."""
    if int(n) != n or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n}")
    if H > -1:
        raise DomainError(f"xi requires H <= -1, got {H}")
    t2 = _Q_upper_root(n, H)
    return t2, _deflated_coefficients(Q_coefficients(n, H), 1.0, t2)


def _xi_integrand(n, H, rem):
    """h(v) / sqrt(Q(v)) in offset form; H and ``rem`` are floats for one
    H or (rows, 1) columns for a batch, with the same arithmetic."""

    def fo(v, da, db):
        return eval_h(n, H, v) / np.sqrt(da * db * _s(n, rem, v))

    return fo


def xi(n: int, H: float, tol: float = DEFAULT_TOL,
       max_level: int = DEFAULT_MAX_LEVEL) -> QuadResult:
    """xi_n(H): the flux at the threshold constant C = Ctilde.

    Evaluated as the integral over (1, t2~) of h(v) / sqrt(Q(v)) dv, where
    Q has a simple zero at both endpoints and h(1) = n H is finite, so
    both endpoints carry clean inverse-square-root singularities.
    """
    t2, rem = _xi_setup(n, H)
    spec = SingularIntegrand(lower=1.0, upper=t2,
                             offset_integrand=_xi_integrand(n, H, rem))
    return de_integrate(spec, tol=tol, max_level=max_level)


def xi_grid(n: int, Hs: Sequence[float], tol: float = DEFAULT_TOL,
            max_level: int = DEFAULT_MAX_LEVEL,
            missing_as_none: bool = False) -> list[Optional[QuadResult]]:
    """xi_n(H) at every H of ``Hs``, all quadratures run as one batch.

    The per-H set-up (upper root, deflated coefficients) is scalar and
    stacked as columns.  Each result equals ``xi(n, H, tol, max_level)``
    in all four fields, and errors are raised in the order of ``Hs``, as
    a loop over xi would raise them; with ``missing_as_none`` an H where
    Q has no upper root (LandmarkError) gives None instead.
    """
    Hs = [float(H) for H in Hs]
    status, cols = [], []  # per H: its batch row, None or the error
    for H in Hs:
        try:
            t2, rem = _xi_setup(n, H)
        except LandmarkError as exc:
            status.append(None if missing_as_none else exc)
        except (HypcmcError, ValueError, RuntimeError) as exc:
            status.append(exc)
        else:
            status.append(len(cols))
            cols.append((H, t2) + rem)
    batch = [None] * len(cols)
    if tol > 0 and cols:
        table = np.array(cols).T
        H_col, rem = table[0], table[2:]

        def integrand(rows, x, da, db):
            return _xi_integrand(n, H_col[rows, None],
                                 rem[:, rows, None])(x, da, db)

        batch = _integrate_rows(np.ones(len(cols)), table[1], integrand, tol,
                                max_level)
    out = []
    for H, row in zip(Hs, status):
        if isinstance(row, Exception):
            raise row
        if row is not None and batch[row] is None:
            # the one-row path drops nodes outside the keep mask, or
            # raises a loop's error (a non-finite value, or tol <= 0)
            out.append(xi(n, H, tol=tol, max_level=max_level))
        else:
            out.append(row if row is None else batch[row])
    return out


def require_converged(res: QuadResult, what: str, tol: float) -> QuadResult:
    """``res`` if its quadrature converged, else NonConvergenceError."""
    if not res.converged:
        raise NonConvergenceError(
            f"{what} did not reach tol={tol}: "
            f"error estimate {res.abs_error_estimate!r}"
        )
    return res


def K_limit_at_C0(n: int, H: float) -> float:
    """Closed-form limit of K(C, H) as C -> C0 (degenerate oscillation)."""
    if not H < -1:
        raise DomainError(f"H must be < -1, got {H}")
    root = math.sqrt(n * n * H * H - 4 * (n - 1))
    return -math.sqrt(2.0) * math.sqrt(1.0 - n * H / root) * math.pi


def b2(H: float) -> float:
    """n = 2 closed form of the same limit."""
    if not H < -1:
        raise DomainError(f"H must be < -1, got {H}")
    return -math.pi * math.sqrt(2.0 - 2.0 * H / math.sqrt(H * H - 1.0))
