"""Pathwise Ito-isometry, chain-rule, and smooth-invariance checks.

For a rough path x with critical variation index p, the scaled quadratic
variation of a C^2 image f(x) equals the Stieltjes integral of |f'(x)|^p
against the scaled quadratic variation of x — in the limit of dyadic
refinement.  The checks here compute both sides level by level and judge
success on the error trend, not per-level equality: the per-level profiles
are pre-limit objects.

A small catalog of :class:`SmoothMap` evaluators (value and first
derivative) covers the standard test maps; arbitrary maps enter via
cubic-spline tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import EvaluationError, ValidationError
from .grid import Path, _check_finite, _write_csv
from .variation import (
    _PASS_BLOCK,
    LimitReport,
    PVarSource,
    _check_levels,
    _dyadic_levels,
    _level_terminals,
    _tail_slope,
    default_levels,
    limit_diagnostics,
)

__all__ = [
    "SmoothMap",
    "IsometryReport",
    "identity_map",
    "affine_map",
    "square_plus_one_map",
    "sin_map",
    "exp_clamped_map",
    "tabulated_map",
    "builtin_map",
    "holder_proxy",
    "isometry_check",
    "chain_rule_check",
    "invariance_check",
    "write_report_csv",
]

_CONTINUITY_NOTE = ("finest-level variation proxy is a step function; "
                    "continuity of the limit variation is a modeling "
                    "assumption, not a checked hypothesis")


@dataclass(frozen=True)
class SmoothMap:
    """A C^2 map with evaluators for its value and first derivative.

    The checks evaluate only ``f`` and ``f1``; the C^2 hypothesis is assumed.
    Tabulated maps carry their grid's end points as ``table_range``; past
    them they extrapolate.
    """

    id: str
    f: Callable[[np.ndarray], np.ndarray]
    f1: Callable[[np.ndarray], np.ndarray]
    table_range: tuple | None = None


def identity_map() -> SmoothMap:
    return SmoothMap(id="identity",
                     f=lambda u: np.asarray(u, dtype=np.float64).copy(),
                     f1=lambda u: np.ones_like(np.asarray(u, dtype=np.float64)))


def affine_map(a: float, b: float) -> SmoothMap:
    a, b = float(a), float(b)
    return SmoothMap(id=f"affine({a:g},{b:g})",
                     f=lambda u: a * np.asarray(u, dtype=np.float64) + b,
                     f1=lambda u: np.full_like(np.asarray(u, dtype=np.float64), a))


def square_plus_one_map() -> SmoothMap:
    return SmoothMap(id="square_plus_one",
                     f=lambda u: np.asarray(u, dtype=np.float64) ** 2 + 1.0,
                     f1=lambda u: 2.0 * np.asarray(u, dtype=np.float64))


def sin_map() -> SmoothMap:
    return SmoothMap(id="sin", f=np.sin, f1=np.cos)


def exp_clamped_map(cap: float = 20.0) -> SmoothMap:
    """exp(u) capped at exp(cap); derivative zero past the cap."""
    cap = float(cap)

    def f(u):
        return np.exp(np.minimum(np.asarray(u, dtype=np.float64), cap))

    def f1(u):
        u = np.asarray(u, dtype=np.float64)
        return np.where(u < cap, np.exp(np.minimum(u, cap)), 0.0)

    return SmoothMap(id=f"exp_clamped({cap:g})", f=f, f1=f1)


def _not_a_knot(x: np.ndarray, y: np.ndarray) -> tuple:
    """Per-piece coefficients ``(c0, c1, c2, c3)`` of the not-a-knot cubic spline.

    Piece i is ``c0 + c1*h + c2*h**2 + c3*h**3`` with ``h = u - x[i]``.  The
    knot slopes s solve the system of scipy's ``CubicSpline`` (not-a-knot):
    interior rows ``dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1]
    = 3 (dx[i] m[i-1] + dx[i-1] m[i])`` for secant slopes m, plus one end
    row each side.  The end rows are not diagonally dominant, so each is
    eliminated into its neighbouring interior row; what remains is strictly
    diagonally dominant and is solved without pivoting.  Needs ``x.size >= 4``.
    """
    dx = np.diff(x)
    m = np.diff(y) / dx
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b0 = ((dx[0] + 2.0 * d0) * dx[1] * m[0] + dx[0] ** 2 * m[1]) / d0
    b1 = (dx[-1] ** 2 * m[-2] + (2.0 * d1 + dx[-1]) * dx[-2] * m[-1]) / d1
    sub, sup = dx[1:].tolist(), dx[:-1].tolist()
    diag = (2.0 * (dx[:-1] + dx[1:])).tolist()
    rhs = (3.0 * (dx[1:] * m[:-1] + dx[:-1] * m[1:])).tolist()
    # end rows: dx[1] s[0] + d0 s[1] = b0 and d1 s[-2] + dx[-2] s[-1] = b1
    diag[0] -= d0
    rhs[0] -= b0
    diag[-1] -= d1
    rhs[-1] -= b1
    for i in range(1, len(diag)):
        w = sub[i] / diag[i - 1]
        diag[i] -= w * sup[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = [0.0] * x.size
    s[-2] = rhs[-1] / diag[-1]
    for i in range(len(diag) - 2, -1, -1):
        s[i + 1] = (rhs[i] - sup[i] * s[i + 2]) / diag[i]
    s[0] = (b0 - d0 * s[1]) / dx[1]
    s[-1] = (b1 - d1 * s[-2]) / dx[-2]
    s = np.asarray(s)
    t = (s[:-1] + s[1:] - 2.0 * m) / dx
    return y[:-1], s[:-1], (m - s[:-1]) / dx - t, t / dx


def tabulated_map(name: str, grid: np.ndarray, values: np.ndarray) -> SmoothMap:
    """Not-a-knot cubic-spline map from (grid, values) samples.

    The grid must be strictly increasing, every entry finite, and the
    spline's coefficients must not overflow.  Outside the grid the end
    pieces extrapolate; ``table_range`` records the grid's end points so
    that the checks can warn when a path leaves them.
    """
    grid = np.asarray(grid, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if grid.ndim != 1 or grid.size < 4 or grid.shape != values.shape:
        raise ValidationError("tabulated map needs >= 4 aligned grid/value samples")
    if not (np.isfinite(grid).all() and np.isfinite(values).all()):
        raise ValidationError(f"tabulated map {name} has non-finite entries")
    bad = np.flatnonzero(np.diff(grid) <= 0.0)
    if bad.size:
        i = int(bad[0])
        raise ValidationError(f"tabulated map {name} grid is not strictly increasing: "
                              f"u[{i + 1}] = {grid[i + 1]:.17g} follows "
                              f"u[{i}] = {grid[i]:.17g}")
    with np.errstate(all="ignore"):
        c0, c1, c2, c3 = coeffs = _not_a_knot(grid, values)
    if not np.isfinite(coeffs).all():
        raise ValidationError(f"tabulated map {name} overflows: its spline "
                              "coefficients are not finite")

    def piece(u):
        u = np.asarray(u, dtype=np.float64)
        i = np.clip(np.searchsorted(grid, u, side="right") - 1, 0, grid.size - 2)
        return u - grid[i], i

    def f(u):
        h, i = piece(u)
        return ((c3[i] * h + c2[i]) * h + c1[i]) * h + c0[i]

    def f1(u):
        h, i = piece(u)
        return (3.0 * c3[i] * h + 2.0 * c2[i]) * h + c1[i]

    return SmoothMap(id=name, f=f, f1=f1, table_range=(float(grid[0]), float(grid[-1])))


_BUILTINS = {"identity": identity_map, "square_plus_one": square_plus_one_map,
             "sin": sin_map, "exp_clamped": exp_clamped_map}


def builtin_map(spec: str) -> SmoothMap:
    """Catalog lookup by id; affine as ``affine:a,b``."""
    if spec.startswith("affine:"):
        try:
            a, b = (float(s) for s in spec.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise ValidationError(f"bad affine map spec {spec!r}; "
                                  "expected affine:a,b") from exc
        return affine_map(a, b)
    try:
        return _BUILTINS[spec]()
    except KeyError:
        raise ValidationError(
            f"unknown map {spec!r}; expected one of "
            f"{sorted(_BUILTINS)} or affine:a,b"
        ) from None


def _image(f: SmoothMap, x: Path) -> Callable:
    """``values(lo, hi)``: f of samples ``lo:hi`` of ``x``, each checked finite."""
    def values(lo: int, hi: int) -> np.ndarray:
        u = x.samples[lo:hi]
        out = np.asarray(f.f(u), dtype=np.float64)
        if out.shape != u.shape:
            raise EvaluationError(f"map {f.id} changed the sample count")
        ok = np.isfinite(out)
        if not ok.all():
            t_bad = np.float64(lo + int(np.argmin(ok))) * 2.0 ** (-x.grid_level)
            raise EvaluationError(f"map {f.id} produced a non-finite value at t={t_bad}")
        return out

    return values


@dataclass(frozen=True)
class IsometryReport:
    """Per-level two-sided comparison with an error trend verdict.

    ``rel_err`` divides by ``max(|lhs|, |rhs|, 1e-12)``.  ``success`` means
    the error trend slope is negative or every relative error sits at the
    1e-12 floor (exact cases have no trend to fit).  ``alpha_proxy`` is a
    Holder-exponent estimate from max increments across levels — reported
    for context, never asserted.
    """

    kind: str
    p: float
    levels: tuple
    lhs_terminal: tuple
    rhs_terminal: tuple
    abs_err: tuple
    rel_err: tuple
    err_trend_slope: float
    success: bool
    src_mode: str | None = None
    map_id: str | None = None
    alpha_proxy: float | None = None
    warnings: tuple = ()
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "levels": list(self.levels),
                "lhs_terminal": list(self.lhs_terminal),
                "rhs_terminal": list(self.rhs_terminal),
                "abs_err": list(self.abs_err), "rel_err": list(self.rel_err),
                "err_trend_slope": self.err_trend_slope,
                "success": self.success, "src_mode": self.src_mode,
                "map_id": self.map_id, "alpha_proxy": self.alpha_proxy,
                "warnings": list(self.warnings), "notes": list(self.notes)}


def write_report_csv(report: IsometryReport, filename) -> None:
    columns = (report.levels, report.lhs_terminal, report.rhs_terminal, report.rel_err)
    _write_csv(filename, "level,lhs,rhs,rel_err", len(report.levels),
               lambda start, stop: [c[start:stop] for c in columns])


_REL_FLOOR = 1e-12


def holder_proxy(x: Path, levels) -> float:
    """Exponent estimate from the decay of max increments across levels.

    Each level's largest |increment| is the ``peak`` of its p = 1 terms
    ``|dx|`` in one pyramid pass of :func:`_dyadic_levels`.
    """
    lv = _check_levels(x, levels, 2)
    peaks = {level.n: level.peak for level in _dyadic_levels(x, lv, "pth", 1.0)}
    return -_tail_slope(np.asarray(lv, dtype=np.float64),
                        np.asarray([peaks[n] for n in lv]))


def _pth_trend(x: Path, p: float, levels) -> LimitReport | None:
    """The path's p-th variation terminals, classified over the whole window."""
    if len(levels) < 3:
        return None
    return limit_diagnostics(_level_terminals(x, levels, "pth", p),
                             window=len(levels), levels=levels)


def _map_warnings(x: Path, f: SmoothMap, p: float, levels) -> list:
    """A warning when the path's p-th variation is visibly not levelling off,
    and one when the path leaves the map's table."""
    rep, warnings = _pth_trend(x, p, levels), []
    if rep is not None and abs(rep.trend_slope) > 0.5:
        warnings.append(f"p-th variation terminals trend with log2 slope "
                        f"{rep.trend_slope:+.2f}; the path's critical index appears "
                        f"far from p={p:g}")
    if f.table_range is None:
        return warnings
    lo, hi = float(np.min(x.samples)), float(np.max(x.samples))
    if not f.table_range[0] <= lo <= hi <= f.table_range[1]:
        warnings.append(f"path samples span [{lo:.6g}, {hi:.6g}], outside map "
                        f"{f.id}'s table [{f.table_range[0]:.6g}, "
                        f"{f.table_range[1]:.6g}]; the spline extrapolates there")
    return warnings


def _integrated_sides(x: Path, f: SmoothMap, p: float, levels, kind: str,
                      src: PVarSource | None = None) -> tuple:
    """Per-level ``(sum lhs terms, sum |f1(x_left)|**p * rhs terms)``.

    The left side is the ``kind`` terminals of :func:`_level_terminals` over
    f(x), mapped a tile at a time, with its default source; the right side
    is the left-endpoint Stieltjes sum of ``|f1(x)|**p`` against the terms
    of the same pass over x (weights from ``src``), the factor applied to
    each piece of terms the pass takes and the products reduced like every
    other level terminal.
    """
    def g(n, lo, hi):
        stride = 1 << (x.grid_level - n)
        return np.abs(f.f1(x.samples[lo * stride:hi * stride:stride])) ** p

    return (_level_terminals(x, levels, kind, p, values=_image(f, x)),
            _level_terminals(x, levels, kind, p, src=src, scale=g))


def _two_sided(kind: str, x: Path, p: float, levels, sides,
               **fields) -> IsometryReport:
    """Compare two per-level sequences and judge the error trend.

    ``levels`` defaults to :func:`default_levels`; ``sides(levels)``
    returns ``(lhs, rhs, warnings)``, each side the level terminals of one
    pyramid pass (one sweep over the path's samples, a tile of 2**16 grid
    increments at a time).  ``alpha_proxy`` is :func:`holder_proxy` of
    ``x`` over the same levels.  ``fields`` fill the report's remaining
    fields (source mode, map id, notes).  A side's terminal that is not
    finite (the map, the path or a term overflowed) has no error to compare
    and raises :class:`EvaluationError`; an overflow inside the passes is
    left to that check, with no numpy warning before it.
    """
    lv = _check_levels(x, default_levels(x) if levels is None else levels, 2)
    with np.errstate(over="ignore"):
        lhs, rhs, warnings = sides(lv)
    for side, terminals in (("lhs", lhs), ("rhs", rhs)):
        for n, value in zip(lv, terminals):
            if not np.isfinite(value):
                raise EvaluationError(f"{kind} {side} terminal at level {n} is {value}, "
                                      "not finite")
    absd = np.abs(np.subtract(lhs, rhs))
    rel = absd / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), _REL_FLOOR)
    slope = _tail_slope(np.asarray(lv, dtype=np.float64), rel)
    return IsometryReport(kind=kind, p=float(p), levels=tuple(lv),
                          lhs_terminal=tuple(lhs), rhs_terminal=tuple(rhs),
                          abs_err=tuple(absd), rel_err=tuple(rel),
                          err_trend_slope=slope,
                          success=bool(np.max(rel) <= _REL_FLOOR or slope < 0.0),
                          alpha_proxy=holder_proxy(x, lv),
                          warnings=tuple(warnings), **fields)


def isometry_check(x: Path, f: SmoothMap, p: float, levels=None,
                   src: PVarSource | None = None) -> IsometryReport:
    """Compare scaled QV of f(x) against the |f'(x)|^p Stieltjes integral.

    Per level n, the left side is the scaled QV terminal of the composed
    path, weighted by the composed path's own finest-level variation proxy;
    the right side integrates |f1(x(t_i))|**p against the scaled-QV profile
    of x (built from ``src``, default its finest-level proxy).  With the
    identity map and the default source both sides run the same
    accumulation and agree bitwise.
    """
    src_x = src or PVarSource()

    def sides(lv):
        lhs, rhs = _integrated_sides(x, f, p, lv, "scaled", src_x)
        warnings = _map_warnings(x, f, p, lv)
        s = x.samples
        if np.min([np.min(np.abs(f.f1(s[lo:lo + _PASS_BLOCK])))
                   for lo in range(0, s.size, _PASS_BLOCK)]) == 0.0:
            warnings.append(f"map {f.id} has vanishing derivative on the path's "
                            "range; degenerate blocks contribute zero")
        return lhs, rhs, warnings

    return _two_sided("isometry", x, p, levels, sides, src_mode=src_x.mode,
                      map_id=f.id, notes=(_CONTINUITY_NOTE,))


def chain_rule_check(x: Path, f: SmoothMap, p: float, levels=None) -> IsometryReport:
    """Compare the p-th variation of f(x) against sum |f'(x)|^p * d[x]^(p)."""
    return _two_sided("chain_rule", x, p, levels, lambda lv: (
        *_integrated_sides(x, f, p, lv, "pth"), _map_warnings(x, f, p, lv)),
        map_id=f.id)


def invariance_check(x: Path, A: Path, p: float, levels=None,
                     src: PVarSource | None = None) -> IsometryReport:
    """Scaled QV of x + A versus x; smooth A should not move it.

    Each side uses its own finest-level proxy (or the given source for the
    base path); x + A is taken a tile at a time.  A perturbation whose p-th
    variation does not vanish across levels violates the hypothesis; that
    raises a warning, not an error.
    """
    if A.grid_level != x.grid_level:
        raise ValidationError(
            f"perturbation grid level {A.grid_level} != path level {x.grid_level}"
        )
    src_x = src or PVarSource()

    def perturbed(lo: int, hi: int) -> np.ndarray:
        out = np.add(x.samples[lo:hi], A.samples[lo:hi])
        _check_finite(out, x.grid_level, lo)
        return out

    def sides(lv):
        rep = _pth_trend(A, p, lv)
        warnings = []
        if rep is not None and rep.classification != "vanishing":
            warnings.append(f"perturbation's p-th variation classifies "
                            f"{rep.classification}, not vanishing; invariance "
                            "hypothesis violated")
        return (_level_terminals(x, lv, "scaled", p, values=perturbed),
                _level_terminals(x, lv, "scaled", p, src=src_x), warnings)

    return _two_sided("invariance", x, p, levels, sides, src_mode=src_x.mode,
                      map_id=A.label or "perturbation")
