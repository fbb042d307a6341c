"""Variation kernels and limit diagnostics.

Three accumulation kernels share one profile type:

* :func:`pth_variation` — ``sum |dx|**p`` along a partition,
* :func:`scaled_qv` — ``sum w**gamma * |dx|**2`` with ``gamma = (p-2)/p`` and
  block weights ``w`` given by the increments of a limit p-th-variation
  proxy (:class:`PVarSource`),
* :func:`classical_scaled_qv` — ``sum |dt|**gamma * |dx|**2`` with
  time-increment weights.

Each profile stores the cumulative values (the distribution function of the
level-n atomic variation measure) together with the raw per-block terms, so
downstream consumers (Stieltjes integration, diagnostics) can reuse the
exact accumulation.  Every dyadic level, a profile's or not, comes from
:func:`_dyadic_levels`, one sweep over the samples a tile of
``_BLOCK`` grid increments at a time: each level is fed its
increments, weights and terms tile by tile and reduced to its sum
(bitwise numpy's pairwise sum of the whole level), its largest term and
its divergence flag; only a profile's level gathers its terms whole.
Callers that need only per-level summaries (the critical-index search,
the identity checks, the CLI) build no profile.  All take their exponents
from :func:`_resolve` and their terms from :func:`_terms`, the one
definition of each functional.
:func:`limit_diagnostics` classifies a terminal-value sequence across
levels as vanishing / finite_positive / diverging / oscillating /
inconclusive.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (EvaluationError, FormatError, ResolutionError, SourceError,
                     ValidationError)
from .grid import _BLOCK, Partition, Path, _read_csv, _write_csv, _write_json, grid_times

__all__ = [
    "accurate_cumsum",
    "VariationProfile",
    "PVarSource",
    "pth_variation",
    "scaled_qv",
    "classical_scaled_qv",
    "LimitReport",
    "limit_diagnostics",
    "read_profile_csv",
    "write_profile_csv",
]

_SUM_BLOCK = 4096  # terms per row of accurate_cumsum's 2-D pass
_LEAF = 1 << 7  # numpy's pairwise-sum leaf: the shortest piece of a level a tile feeds


def accurate_cumsum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sum with a leading 0, accurate for millions of terms.

    Blocks of 4096 terms are cumsummed in one 2-D pass, each on top of the
    running sum of the earlier blocks' sums taken within about one ulp (plain
    ``np.cumsum`` loses ~6 digits on 2**22 same-sign terms).  ``out[-1]`` is
    :func:`_level_total` of ``terms``, bitwise the level terminal, and
    nonnegative terms give a nondecreasing ``out``.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n, blocks = terms.size, -(-terms.size // _SUM_BLOCK)
    buf = np.zeros(blocks * _SUM_BLOCK + 1)
    buf[1:n + 1] = terms
    rows = buf[1:].reshape(blocks, _SUM_BLOCK)
    sums = np.sum(rows, axis=1)
    scale, lift = float(np.sum(np.abs(sums))), np.cumsum(sums)
    if math.isfinite(scale):
        # high parts on a grid of one ulp of sum |sums| add up exactly; the
        # exact remainders are too small to lose a bit that counts
        unit = math.ldexp(1.0, max(math.frexp(scale)[1] - 52, -1074))
        high = np.round(sums / unit) * unit
        lift = np.cumsum(high) + np.cumsum(sums - high)
    np.cumsum(rows, axis=1, out=rows)
    rows[1:] += lift[:-1, None]
    out, total = buf[:n + 1], _level_total(terms)
    if n and terms.min() >= 0.0:
        # each lifted block rises, so the running minimum from the end caps
        # each entry by the later blocks' first entries and the total
        heads = np.append(rows[1:, 0], total)
        np.minimum(rows, np.minimum.accumulate(heads[::-1])[::-1, None], out=rows)
    out[-1] = total
    return out


@dataclass(frozen=True)
class VariationProfile:
    """Distribution function of a level-n atomic variation measure.

    ``values[j]`` is the measure of ``[0, t_j]``; ``terms[i]`` is the atom
    sitting at ``times[i]`` (``values == accurate_cumsum(terms)``).  ``kind``
    is one of ``pth`` / ``scaled`` / ``classical_scaled``.  ``clamped``
    counts weight increments clipped up to zero, ``divergent`` flags an
    infinite term, and ``atom_risk`` is the largest single-block share of
    the terminal value (a limit measure with atoms is outside the theory;
    this is reported, never asserted on).
    """

    level: int
    times: np.ndarray
    values: np.ndarray
    p: float
    kind: str
    gamma: float | None = None
    terms: np.ndarray = None
    src_mode: str | None = None
    clamped: int = 0
    divergent: bool = False

    def __post_init__(self):
        if self.terms is None:
            with np.errstate(invalid="ignore"):  # inf - inf: atoms past an inf value are NaN
                object.__setattr__(self, "terms", np.diff(np.asarray(self.values)))
        for name in ("times", "values", "terms"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.values.size != self.times.size:
            raise ValidationError("profile values and times must align")
        if self.terms.size != self.values.size - 1:
            raise ValidationError("profile needs one term per partition interval")

    @property
    def terminal(self) -> float:
        return float(self.values[-1])

    @property
    def atom_risk(self) -> float:
        return _atom_risk(np.max(self.terms) if self.terms.size else None,
                          self.terminal)

    def metadata(self) -> dict:
        return _metadata(self.level, self.kind, self.p, self.gamma, self.src_mode,
                         self.atom_risk, self.terminal, self.clamped, self.divergent)


def _metadata(level, kind, p, gamma, src_mode, atom_risk, terminal, clamped,
              divergent) -> dict:
    """The metadata dict of one level's variation, profile or not."""
    return {"level": level, "p": p, "gamma": gamma, "kind": kind,
            "terminal": terminal, "source_mode": src_mode, "clamped": clamped,
            "divergent": divergent, "atom_risk": atom_risk}


def _atom_risk(peak, total: float) -> float:
    """Largest term ``peak``'s share of ``total`` (0 with no terms, 1 when infinite)."""
    if peak is None or total == 0.0:
        return 0.0
    if not np.isfinite(total):
        return 1.0
    return float(peak / total)


def _pth_terms(dx: np.ndarray, p: float, out: np.ndarray) -> np.ndarray:
    """``|dx|**p`` written into ``out``, which may be ``dx`` itself."""
    if p == 2.0:
        return np.multiply(dx, dx, out=out)
    out = np.abs(dx, out=out)
    if p != 1.0:
        out **= p
    return out


def _resolve(kind: str, p: float = 2.0, gamma: float | None = None,
             src: PVarSource | None = None) -> tuple:
    """``(p, gamma, src)`` of a ``kind`` functional, checked and completed.

    ``pth`` and ``scaled`` need a finite ``p > 0``; scaled takes
    ``gamma = (p-2)/p`` and defaults ``src`` to the finest-level source.
    ``classical_scaled`` needs a finite ``gamma`` and has ``p = 2``.
    """
    if kind == "classical_scaled":
        gamma = float(gamma)
        if not math.isfinite(gamma):
            raise ValidationError(f"gamma must be finite, got {gamma}")
        return 2.0, gamma, None
    p = float(p)
    if not 0.0 < p < math.inf:
        raise ValidationError(f"p must be > 0 and finite, got {p}")
    if kind == "pth":
        return p, None, None
    return p, (p - 2.0) / p, src or PVarSource()


def _terms(kind: str, dx: np.ndarray, p: float, gamma: float | None,
           w: np.ndarray | None, dt) -> tuple:
    """``(terms, divergent)`` of ``kind`` on the increments ``dx``.

    The one definition of each functional, for ``(p, gamma)`` from
    :func:`_resolve`: ``pth`` is ``|dx|**p``, ``classical_scaled`` is
    ``dt**gamma * dx**2`` and ``scaled`` is ``w**gamma * dx**2`` (``w`` is
    read for scaled terms at gamma != 0 only).  Scaled terms follow the
    degenerate-block conventions of :func:`scaled_qv`: a zero weight with a
    zero increment (0 * inf, NaN) gives 0, and a zero weight with a nonzero
    increment at gamma < 0 gives +inf, which ``divergent`` flags (an
    infinite term with a nonzero weight overflowed; it is not flagged).  An
    infinite weight overflowed too, and its term is +inf, not the 0 that
    ``inf**gamma`` is at gamma < 0.
    They are a new array; the other terms are written over ``dx``.  Callers
    run it under ``np.errstate`` ignoring ``divide``, ``invalid`` and ``over``.
    """
    if kind == "pth":
        return _pth_terms(dx, p, dx), False
    if gamma == 0.0:
        # the weight exponent vanishes: plain quadratic variation, any source
        return np.multiply(dx, dx, out=dx), False
    if kind == "classical_scaled":
        scale = dt ** gamma
        out = np.multiply(dx, dx, out=dx)
        out *= scale
        return out, False
    t = w ** gamma
    t *= dx
    t *= dx
    t[np.isnan(t)] = 0.0
    t[np.isinf(w)] = np.inf
    inf = np.isinf(t)
    return t, bool(inf.any()) and bool((inf & (w == 0.0)).any())


def _profile(kind: str, x: Path, part: Partition, p: float = 2.0,
             gamma: float | None = None,
             src: PVarSource | None = None) -> VariationProfile:
    """The ``kind`` profile of ``x`` along ``part`` (arguments as :func:`_resolve`);
    a dyadic one is the pass's level.  An overflow gives +inf, unwarned."""
    p, gamma, src = _resolve(kind, p, gamma, src)
    times = part.times(x.grid_level)  # checks that part ends on the grid
    steps = np.diff(part.indices)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if (steps == steps[0]).all():  # tiling 2**L grid steps: level L - log2(step)
            [lv] = _dyadic_levels(x, [x.grid_level + 1 - int(steps[0]).bit_length()],
                                  kind, p, gamma, src, gather=True)
            terms, clamped, divergent = lv.terms, lv.clamped, lv.divergent
        else:
            w, clamped = (src.block_weights(x, part, p) if kind == "scaled"
                          and gamma != 0.0 else (None, 0))
            dt = np.diff(times) if kind == "classical_scaled" else None
            terms, divergent = _terms(kind, np.diff(x.samples[part.indices]), p, gamma, w, dt)
        return _from_terms(kind, p, gamma, src, part.level, times, terms, clamped,
                           divergent)


def _from_terms(kind: str, p: float, gamma, src, level: int, times: np.ndarray,
                terms: np.ndarray, clamped: int, divergent: bool) -> VariationProfile:
    """The profile of one level's :func:`_terms`, ending on their level total."""
    return VariationProfile(level=level, times=times, values=accurate_cumsum(terms),
                            p=p, kind=kind, gamma=gamma, terms=terms,
                            src_mode=src.mode if src else None,
                            clamped=clamped, divergent=divergent)


def pth_variation(x: Path, part: Partition, p: float) -> VariationProfile:
    """p-th variation profile ``values[j] = sum_{i<j} |dx_i|**p``."""
    return _profile("pth", x, part, p)


@dataclass(frozen=True)
class PVarSource:
    """Strategy supplying the limit p-th variation inside scaled-QV weights.

    The scaled-QV definition weights each squared increment by an increment
    of the *limit* p-th variation, which no finite computation knows.  Two
    approximations are supported:

    * ``finest_level`` (default): the p-th variation of each partition block
      at the deepest available level — the only model-free choice.  A
      block's weight is the sum of the grid-level ``|dx|**p`` inside it;
    * ``analytic``: a caller-supplied nondecreasing function with value 0
      at t=0 (e.g. ``t -> C*t`` when the limit is known to be linear),
      checked on t = (0, 1) when made, as p = 2 reads no weights.
    """

    mode: str = "finest_level"
    analytic_fn: Callable[[np.ndarray], np.ndarray] | None = None

    _MODES = ("analytic", "finest_level")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValidationError(
                f"unknown source mode {self.mode!r}; expected one of {self._MODES}"
            )
        if self.mode == "analytic":
            if self.analytic_fn is None:
                raise ValidationError("analytic source requires analytic_fn")
            weights = _Analytic(self.analytic_fn)
            with np.errstate(invalid="ignore"):  # the check names a NaN
                weights(np.array([0.0, 1.0]))
            weights.check()

    @classmethod
    def analytic(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "PVarSource":
        return cls(mode="analytic", analytic_fn=fn)

    @classmethod
    def linear(cls, C: float) -> "PVarSource":
        """The analytic source ``t -> C*t``."""
        return cls.analytic(lambda t: C * np.asarray(t, dtype=np.float64))

    def materialized(self, x: Path, p: float) -> "PVarSource":
        """This source itself; kept because ``perfbench/test_checks.py`` calls it."""
        return self

    def block_weights(self, x: Path, part: Partition,
                      p: float) -> tuple[np.ndarray, int]:
        """Nonnegative weight increments per partition block (+ clamp count)."""
        if self.mode == "finest_level":
            # block sums of the grid-level terms: a tiny block weight next to a
            # large running total survives, where a cumulative difference
            # would round it to zero
            part.check_grid(x.grid_level)
            fine = np.diff(x.samples)
            return np.add.reduceat(_pth_terms(fine, p, fine), part.indices[:-1]), 0
        weights = _Analytic(self.analytic_fn)
        w = weights(part.times(x.grid_level))
        return w, weights.check()


class _Analytic:
    """Weight increments of an analytic source, over a level's times in pieces.

    Each call, on the next piece's times ``t`` (pieces in order, each
    starting where the last ended), returns ``diff(analytic_fn(t))`` with
    negative increments clipped up to zero; every value must be finite.
    :meth:`check` then checks all the pieces as one: the function vanishes
    at t = 0 (within 1e-12 of its last value, at least 1) and falls by no
    more than 1e-9 of its largest increment (at least 1).  It returns the
    count of clipped increments.
    """

    def __init__(self, fn: Callable):
        self.fn, self.first, self.last = fn, None, None
        self.clamped, self.top, self.bottom = 0, 0.0, 0.0

    def __call__(self, t: np.ndarray) -> np.ndarray:
        vals = np.asarray(self.fn(t), dtype=np.float64)
        if vals.shape != t.shape:
            raise SourceError("analytic_fn must return one value per partition point")
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.argmax(bad))
            raise SourceError(f"analytic_fn must be finite, got {vals[i]} at t={t[i]}")
        if self.first is None:
            self.first = vals[0]
        self.last = vals[-1]
        w = np.diff(vals)
        self.top = max(self.top, float(w.max(initial=0.0)))
        neg = int(np.count_nonzero(w < 0.0))
        if neg:
            self.clamped += neg
            self.bottom = min(self.bottom, float(w.min()))
            w = np.maximum(w, 0.0)
        return w

    def check(self) -> int:
        if abs(float(self.first)) > 1e-12 * max(abs(float(self.last)), 1.0):
            raise SourceError(f"analytic_fn must vanish at t=0, got {self.first}")
        if self.bottom < -1e-9 * max(self.top, 1.0):
            raise SourceError("analytic_fn must be nondecreasing")
        return self.clamped


def scaled_qv(x: Path, part: Partition, p: float,
              src: PVarSource | None = None) -> VariationProfile:
    """Scaled quadratic variation ``sum w**gamma * |dx|**2``, gamma=(p-2)/p.

    Degenerate-term conventions: a block with zero weight and zero increment
    contributes 0 for any gamma; zero weight with a nonzero increment and
    gamma < 0 contributes +inf and flags the profile divergent.  A weight
    that overflowed to inf contributes +inf for any gamma, unflagged.
    Negative weight increments from a noisy source are clamped to zero and
    counted.
    """
    return _profile("scaled", x, part, p, src=src)


def classical_scaled_qv(x: Path, part: Partition, gamma: float) -> VariationProfile:
    """Time-weighted scaled QV ``sum |dt|**gamma * |dx|**2``."""
    return _profile("classical_scaled", x, part, gamma=gamma)


# ---------------------------------------------------------------------------
# Every dyadic level in one pass
# ---------------------------------------------------------------------------

def default_levels(x: Path) -> range:
    """Dyadic levels 6 .. grid_level - 2 (top two held back as the proxy)."""
    return range(6, x.grid_level - 1)


def _check_levels(x: Path, levels, at_least: int) -> list:
    """``levels`` as ints: at least ``at_least`` of them, each in [0, grid_level]."""
    lv = [int(n) for n in levels]
    if len(lv) < at_least:
        raise ValidationError(f"need at least {at_least} levels, got {len(lv)}")
    if min(lv) < 0:
        raise ValidationError(f"levels must lie in [0, {x.grid_level}], got {min(lv)}")
    if max(lv) > x.grid_level:
        raise ResolutionError(f"levels must lie in [0, {x.grid_level}], got {max(lv)}")
    return lv


class _Level:
    """One level of a pyramid pass, fed its terms in order a piece at a time.

    Each piece keeps its ``np.sum``, its max and its divergence flag.
    :meth:`done` sets ``total``, the piece sums added up by a balanced
    pairwise tree, which for aligned power-of-two pieces of at least
    ``_LEAF`` terms (or one piece) is :func:`_level_total` of the whole
    level bit for bit, and ``peak``, the largest term.  With ``gather``,
    ``terms`` holds the whole level's terms (for a profile), else None.
    """

    def __init__(self, n: int, gather: bool = False):
        self.n, self.divergent = n, False
        self.sums, self.peaks = [], []
        self.terms = np.empty(1 << n) if gather else None

    def add(self, lo: int, terms: np.ndarray, divergent: bool) -> None:
        if self.terms is not None:
            self.terms[lo:lo + terms.size] = terms
        self.sums.append(terms.sum())
        self.peaks.append(terms.max())
        self.divergent = self.divergent or divergent

    def done(self, clamped: int) -> "_Level":
        sums = self.sums
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[0::2], sums[1::2])]
        self.total, self.peak, self.clamped = float(sums[0]), np.max(self.peaks), clamped
        return self


def _dyadic_levels(x: Path, levels, kind: str, p: float = 2.0,
                   gamma: float | None = None, src: PVarSource | None = None,
                   scale: Callable | None = None, gather: bool = False,
                   values: Callable | None = None, name: str | None = None) -> list:
    """A finished :class:`_Level` per distinct level, finest first.

    The terms are :func:`_terms` of ``kind`` on the level's increments; no
    partition, time grid or cumulative array is built, and no level's terms
    are held whole.  One sweep takes the samples a tile of ``_BLOCK``
    grid increments at a time; every level with at least ``_LEAF`` terms per
    tile (every level, when one tile is the grid) takes that tile's strided
    increments, weights and terms, and feeds the terms to its
    :class:`_Level` (with ``gather`` as there).  ``scale(u)``, when given,
    multiplies a level's terms first, ``u`` the left samples of their
    increments, already strided out of the tile.  Weights:
    finest-level ones are the tile's ``|dx|**p`` halved pairwise
    (``w[0::2] + w[1::2]``) down the levels; analytic ones are
    :class:`_Analytic` on the tile's times, checked over each whole level
    before the pass returns.  The coarser levels, at most ``2**(L-9)`` terms
    each, are taken whole after the sweep, from every ``2**9``-th sample and
    the finest-level weights at level L-9, both kept from the tiles.
    ``values(lo, hi)``, when given, stands for samples ``lo:hi`` of ``x``:
    the pass then runs over that image of the path, which it asks for once
    per tile, in order, and never holds whole.  Overflows are not warned
    of: with ``name``, the lowest level whose terminal is not finite
    although the level is not ``divergent`` raises :class:`EvaluationError`
    naming it.
    """
    L = x.grid_level
    read = values or (lambda lo, hi: x.samples[lo:hi])
    p, gamma, src = _resolve(kind, p, gamma, src)
    mode = src.mode if kind == "scaled" and gamma != 0.0 else None
    finest = mode == "finest_level"
    lvs = [_Level(n, gather)
           for n in sorted(set(_check_levels(x, levels, 1)), reverse=True)]
    analytic = {lv.n: _Analytic(src.analytic_fn) for lv in lvs} if mode == "analytic" else {}
    size = min(_BLOCK, 1 << L)
    # the coarsest level with _LEAF terms a tile (L-9), or 0 when one tile is the grid
    cut = 0 if size == 1 << L else L - (size // _LEAF).bit_length() + 1
    tiled = {lv.n: lv for lv in lvs if lv.n >= cut}
    bottom = max(cut, lvs[-1].n)
    step = 1 << (L - cut)
    kept = np.empty((1 << cut) + 1) if lvs[-1].n < cut else None
    stored = np.empty(1 << cut) if finest and kept is not None else None

    def feed(lv: _Level, j: int, t: np.ndarray, r: int, w: np.ndarray | None,
             dx: np.ndarray | None = None) -> None:
        """Level ``lv``'s terms from ``j`` on, over every ``r``-th of samples ``t``."""
        n, k = lv.n, j + (t.size - 1) // r
        if mode == "analytic":
            w = analytic[n](np.arange(j, k + 1, dtype=np.float64) * 2.0 ** -n)
        if dx is None:
            dx = np.subtract(t[r::r], t[:-1:r])
        terms, divergent = _terms(kind, dx, p, gamma, w, np.float64(2.0 ** -n))
        if scale is not None:
            np.multiply(scale(t[:-1:r]), terms, out=terms)
        lv.add(j, terms, divergent)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        d = w = None
        for lo in range(0, 1 << L, size):
            t = read(lo, lo + size + 1)
            if finest:
                d = np.subtract(t[1:], t[:-1])
                w = np.abs(d)
                np.power(w, p, out=w)
            for n in range(L, bottom - 1, -1):
                if finest and n < L:
                    w = w[0::2] + w[1::2]
                if n in tiled:
                    r = 1 << (L - n)
                    feed(tiled[n], lo // r, t, r, w, d if n == L else None)
            if kept is not None:
                kept[lo // step:(lo + size) // step + 1] = t[::step]
            if stored is not None:
                stored[lo // step:(lo + size) // step] = w
        level = cut
        for lv in (lv for lv in lvs if lv.n < cut):
            while stored is not None and level > lv.n:
                stored, level = stored[0::2] + stored[1::2], level - 1
            feed(lv, 0, kept, 1 << (cut - lv.n), stored)
        lvs = [lv.done(analytic[lv.n].check() if analytic else 0) for lv in lvs]
    if name:
        for lv in reversed(lvs):  # the lowest level first
            if not (lv.divergent or math.isfinite(lv.total)):
                raise EvaluationError(f"{name} terminal at level {lv.n} is {lv.total}, "
                                      "not finite")
    return lvs


def _level_total(terms: np.ndarray) -> float:
    """The one reducer for level terminals (numpy's pairwise sum)."""
    return float(np.sum(terms))


def _level_terminals(x: Path, levels, kind: str, p: float = 2.0,
                     gamma: float | None = None, src: PVarSource | None = None,
                     scale: Callable | None = None,
                     values: Callable | None = None, name: str | None = None) -> list:
    """Terminal of each level in ``levels`` (in that order), one pyramid pass.

    ``scale(u)`` multiplies the terms by a factor of their left samples
    ``u``, ``values`` is an image of ``x`` to run the pass over, and
    ``name`` names an overflow, all as in :func:`_dyadic_levels`.
    """
    got = {lv.n: lv.total for lv in _dyadic_levels(x, levels, kind, p, gamma, src,
                                                    scale, values=values, name=name)}
    return [got[int(n)] for n in levels]


def _level_metadata(x: Path, levels, kind: str, p: float = 2.0,
                    gamma: float | None = None, src: PVarSource | None = None,
                    write: Callable | None = None, name: str | None = None) -> list:
    """:meth:`VariationProfile.metadata` of each level, from one pyramid pass.

    Profiles are built only for ``write``, which gets each distinct level's
    profile made from the terms the pass gathers for it, so it ends on the
    same terminal.  A level that overflowed raises :class:`EvaluationError`
    naming ``name`` (default ``kind``); a ``divergent`` one keeps its inf.
    """
    p, gamma, src = _resolve(kind, p, gamma, src)
    mode = src.mode if src else None
    got = {}
    for lv in _dyadic_levels(x, levels, kind, p, gamma, src, gather=write is not None,
                             name=name or kind):
        got[lv.n] = _metadata(lv.n, kind, p, gamma, mode, _atom_risk(lv.peak, lv.total),
                              lv.total, lv.clamped, lv.divergent)
        if write:
            write(_from_terms(kind, p, gamma, src, lv.n, grid_times(lv.n), lv.terms,
                              lv.clamped, lv.divergent))
    return [got[int(n)] for n in levels]


# ---------------------------------------------------------------------------
# Limit diagnostics
# ---------------------------------------------------------------------------

# Thresholds that classify a terminal-value sequence, calibrated on the
# closed-form examples.  A sequence is vanishing when its tail maximum falls
# under _VANISH_MAG or its log2 slope is under -_SLOPE; diverging when the tail
# minimum exceeds _DIVERGE_MAG or the slope exceeds +_SLOPE; oscillating when
# the tail max/min ratio exceeds _RATIO with a non-monotone tail.
_VANISH_MAG = 1e-6
_DIVERGE_MAG = 1e6
_SLOPE = 0.25
_RATIO = 100.0


@dataclass(frozen=True)
class LimitReport:
    """Classification of a level-indexed terminal-value sequence.

    ``limsup_est`` / ``liminf_est`` are the max / min over the tail window;
    ``trend_slope`` is the least-squares slope of log2(value) against level
    over the window (nonpositive values excluded from the fit).
    :meth:`to_dict` also lists the fixed thresholds that decided the class.
    """

    levels: tuple
    terminal_values: tuple
    classification: str
    limsup_est: float
    liminf_est: float
    trend_slope: float
    window: int

    def to_dict(self) -> dict:
        return {"levels": list(self.levels),
                "terminal_values": list(self.terminal_values),
                "classification": self.classification,
                "limsup_est": self.limsup_est, "liminf_est": self.liminf_est,
                "trend_slope": self.trend_slope, "window": self.window,
                "thresholds": {"vanish_mag": _VANISH_MAG, "diverge_mag": _DIVERGE_MAG,
                               "slope": _SLOPE, "ratio": _RATIO}}


def _tail_slope(levels: np.ndarray, values: np.ndarray) -> float:
    """Least-squares slope of ``log2(values)`` against ``levels``.

    Nonpositive and non-finite values are left out.  The closed form
    ``sum(dx * dy) / sum(dx * dx)`` over the levels and logs less their
    means (taken about the first, so a constant gives exact zeros), each sum
    a ``math.fsum`` of elementwise products, so no BLAS or LAPACK call: a
    flat sequence gives exactly 0.  NaN when fewer than 2 points, or fewer
    than 2 distinct levels, are left.
    """
    ok = (values > 0.0) & np.isfinite(values)
    if np.count_nonzero(ok) < 2:
        return float("nan")
    dx, dy = (v - (v[0] + math.fsum(v - v[0]) / v.size)
              for v in (levels[ok], np.log2(values[ok])))
    sxx = math.fsum(dx * dx)
    return math.fsum(dx * dy) / sxx if sxx else float("nan")


def limit_diagnostics(terminal_values, window: int, levels=None) -> LimitReport:
    """Classify the limit behaviour of per-level terminal values.

    ``window`` is the number of trailing levels used for the estimates (use
    the full length to catch oscillation between interleaved subsequences).
    ``levels`` defaults to 0, 1, 2, ... when not given.
    """
    vals = np.asarray(terminal_values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 3:
        raise ValidationError(f"need at least 3 levels to diagnose, got {vals.size}")
    if levels is None:
        lvl = np.arange(vals.size, dtype=np.float64)
    else:
        lvl = np.asarray(levels, dtype=np.float64)
        if lvl.shape != vals.shape:
            raise ValidationError("levels and terminal_values must align")
    if not 1 <= window <= vals.size:
        raise ValidationError(
            f"window must lie in [1, {vals.size}], got {window}"
        )
    tail = vals[-window:]
    tail_lvl = lvl[-window:]
    limsup = float(np.max(tail))
    liminf = float(np.min(tail))
    slope = _tail_slope(tail_lvl, tail)

    if limsup < _VANISH_MAG or slope < -_SLOPE:
        cls = "vanishing"
    elif liminf > _DIVERGE_MAG or slope > _SLOPE:
        cls = "diverging"
    else:
        if liminf <= 0.0 < limsup:
            ratio = float("inf")
        elif liminf > 0.0:
            ratio = limsup / liminf
        else:
            ratio = 1.0
        diffs = np.diff(tail)
        monotone = bool(np.all(diffs >= 0.0) or np.all(diffs <= 0.0))
        if ratio > _RATIO and not monotone:
            cls = "oscillating"
        elif np.all((tail >= _VANISH_MAG) & (tail <= _DIVERGE_MAG)):
            cls = "finite_positive"
        else:
            cls = "inconclusive"
    return LimitReport(levels=tuple(int(v) if float(v).is_integer() else float(v)
                                    for v in lvl),
                       terminal_values=tuple(float(v) for v in vals),
                       classification=cls, limsup_est=limsup, liminf_est=liminf,
                       trend_slope=slope, window=int(window))


# ---------------------------------------------------------------------------
# Profile serialization: CSV "t,value" plus a JSON sidecar with the metadata
# ---------------------------------------------------------------------------

def _sidecar_name(csv_filename) -> str:
    name = str(csv_filename)
    return (name[:-4] if name.endswith(".csv") else name) + ".meta.json"


def write_profile_csv(profile: VariationProfile, csv_filename) -> None:
    _write_csv(csv_filename, "t,value", profile.times.size,
               lambda start, stop: (profile.times[start:stop], profile.values[start:stop]))
    _write_json(profile.metadata(), _sidecar_name(csv_filename))


# Each sidecar field, what it must be, and its check (a JSON boolean is no number)
_SIDECAR = (
    ("level", "an integer >= 0", lambda v: type(v) is int and v >= 0),
    ("clamped", "an integer >= 0", lambda v: type(v) is int and v >= 0),
    ("kind", "pth, scaled or classical_scaled",
     lambda v: v in ("pth", "scaled", "classical_scaled")),
    ("p", "finite and > 0", lambda v: type(v) in (int, float) and 0 < v < math.inf),
    ("gamma", "null or finite",
     lambda v: v is None or type(v) in (int, float) and abs(v) < math.inf),
    ("divergent", "a boolean", lambda v: type(v) is bool),
    ("source_mode", "null or a source mode", lambda v: v is None or v in PVarSource._MODES),
    ("terminal", "a number", lambda v: type(v) in (int, float)))

# Fields write_profile_csv never writes together
_SIDECAR_CLASHES = (
    ("a pth profile has no gamma", lambda m: m["kind"] == "pth" and m["gamma"] is not None),
    ("a classical_scaled profile has p 2 and a gamma",
     lambda m: m["kind"] == "classical_scaled" and (m["p"] != 2 or m["gamma"] is None)),
    ("a scaled profile has gamma (p - 2)/p",
     lambda m: m["kind"] == "scaled" and m["gamma"] != (m["p"] - 2) / m["p"]),
    ("a scaled profile, and no other, has a source_mode",
     lambda m: (m["kind"] == "scaled") != (m["source_mode"] is not None)),
    ("only a scaled profile clamps or diverges",
     lambda m: m["kind"] != "scaled" and (m["clamped"] > 0 or m["divergent"])),
    ("a divergent profile has terminal inf",
     lambda m: m["divergent"] and m["terminal"] != math.inf))


def read_profile_csv(csv_filename) -> VariationProfile:
    """Read a profile CSV: times rise from 0 to 1, values end at the sidecar terminal.

    The atoms are the values' differences; past a divergent profile's first
    infinite value the CSV does not carry them, and they read as NaN.
    """
    data = _read_csv(csv_filename, "profile")
    times, values = data[:, 0], data[:, 1]
    try:
        with open(_sidecar_name(csv_filename)) as fh:
            meta = {"clamped": 0, "divergent": False, "gamma": None, "source_mode": None,
                    **json.load(fh)}
        for key, what, ok in _SIDECAR:
            if not ok(meta[key]):
                raise ValueError(f"sidecar {key} must be {what}, got {meta[key]!r}")
        for what, clash in _SIDECAR_CLASHES:
            if clash(meta):
                raise ValueError(f"sidecar fields clash: {what}")
        terminal = float(meta["terminal"])
        profile = VariationProfile(level=meta["level"], times=times, values=values,
                                   p=float(meta["p"]), kind=meta["kind"],
                                   gamma=meta["gamma"], src_mode=meta["source_mode"],
                                   clamped=meta["clamped"], divergent=meta["divergent"])
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"cannot parse profile {csv_filename}: {exc}") from exc
    if times[0] != 0.0 or times[-1] != 1.0 or np.any(np.diff(times) <= 0.0):
        raise FormatError(f"profile {csv_filename}: times must rise strictly "
                          "from 0 to 1")
    if profile.terminal != terminal:
        raise FormatError(f"profile {csv_filename}: last value {profile.terminal!r} "
                          f"is not the sidecar terminal {terminal!r}")
    return profile
