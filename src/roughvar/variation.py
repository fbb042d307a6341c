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
exact accumulation.  Callers that need only per-level terminals along the
dyadic levels (the critical-index search, the identity checks, the CLI)
use :func:`_dyadic_levels`, one pass down the dyadic pyramid that builds
no profile; passes over one path share its increments through
:class:`_Increments`.  Both take their exponents from :func:`_resolve` and
their terms from :func:`_terms`, the one definition of each functional.
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

from .errors import FormatError, ResolutionError, SourceError, ValidationError
from .grid import Partition, Path, _read_csv, _write_csv, dyadic_partition, grid_times

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

_BLOCK = 4096
_PASS_BLOCK = 1 << 16  # values per block of a pyramid pass's sweeps and scaled terms


def accurate_cumsum(terms: np.ndarray) -> np.ndarray:
    """Cumulative sum with a leading 0, accurate for millions of terms.

    Blocks of 4096 terms are cumsummed in one 2-D pass, each on top of the
    running sum of the earlier blocks' sums taken within about one ulp (plain
    ``np.cumsum`` loses ~6 digits on 2**22 same-sign terms).  ``out[-1]`` is
    :func:`_level_total` of ``terms``, bitwise the level terminal, and
    nonnegative terms give a nondecreasing ``out``.
    """
    terms = np.asarray(terms, dtype=np.float64)
    n, blocks = terms.size, -(-terms.size // _BLOCK)
    buf = np.zeros(blocks * _BLOCK + 1)
    buf[1:n + 1] = terms
    rows = buf[1:].reshape(blocks, _BLOCK)
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
        return _atom_risk(self.terms, self.terminal)

    def metadata(self) -> dict:
        return _metadata(self.level, self.kind, self.p, self.gamma, self.src_mode,
                         self.terms, self.terminal, self.clamped, self.divergent)


def _metadata(level, kind, p, gamma, src_mode, terms, terminal, clamped,
              divergent) -> dict:
    """The metadata dict of one level's variation, profile or not."""
    return {"level": level, "p": p, "gamma": gamma, "kind": kind,
            "terminal": terminal, "source_mode": src_mode, "clamped": clamped,
            "divergent": divergent, "atom_risk": _atom_risk(terms, terminal)}


def _atom_risk(terms: np.ndarray, total: float) -> float:
    """Largest single-block share of ``total`` (1 when it is infinite)."""
    if terms.size == 0 or total == 0.0:
        return 0.0
    if not np.isfinite(total):
        return 1.0
    return float(np.max(terms) / total)


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


def _terms(kind: str, dx: np.ndarray, out: np.ndarray, p: float,
           gamma: float | None, weights: Callable, dt: Callable) -> tuple:
    """``(terms, clamped, divergent)`` of ``kind`` on the increments ``dx``.

    The one definition of each functional, for ``(p, gamma)`` from
    :func:`_resolve`: ``pth`` is ``|dx|**p``, ``classical_scaled`` is
    ``dt()**gamma * dx**2`` and ``scaled`` is ``w**gamma * dx**2`` with
    ``(w, clamped) = weights()``, called for scaled terms only (before
    ``out`` is written), under the degenerate-block conventions of
    :func:`scaled_qv`.  The terms are written into ``out``, which may be
    ``dx`` itself, and returned.
    """
    if kind == "pth":
        return _pth_terms(dx, p, out), 0, False
    if gamma == 0.0:
        # the weight exponent vanishes: plain quadratic variation, any source
        return np.multiply(dx, dx, out=out), 0, False
    if kind == "classical_scaled":
        scale = dt() ** gamma
        out = np.multiply(dx, dx, out=out)
        out *= scale
        return out, 0, False
    w, clamped = weights()
    return out, clamped, _scaled_terms(w, dx, gamma, out)


def _scaled_terms(w: np.ndarray, dx: np.ndarray, gamma: float,
                  out: np.ndarray) -> bool:
    """``w**gamma * dx * dx`` into ``out`` (which may be ``dx``); whether one is inf.

    A block of ``_PASS_BLOCK`` terms at a time: a zero weight with a zero
    increment (0 * inf, NaN) gives 0, and a zero weight with a nonzero
    increment at gamma < 0 gives +inf.
    """
    divergent = False
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, dx.size, _PASS_BLOCK):
            hi = lo + _PASS_BLOCK
            t = w[lo:hi] ** gamma
            t *= dx[lo:hi]
            t *= dx[lo:hi]
            t[np.isnan(t)] = 0.0
            divergent = divergent or bool(np.isinf(t).any())
            out[lo:hi] = t
    return divergent


def _profile(kind: str, x: Path, part: Partition, p: float = 2.0,
             gamma: float | None = None,
             src: PVarSource | None = None) -> VariationProfile:
    """The ``kind`` profile of ``x`` along ``part`` (arguments as :func:`_resolve`)."""
    p, gamma, src = _resolve(kind, p, gamma, src)
    times = part.times(x.grid_level)  # checks that part ends on the grid
    dx = np.diff(x.samples[part.indices])
    return _from_terms(kind, p, gamma, src, part.level, times, *_terms(
        kind, dx, dx, p, gamma, lambda: src.block_weights(x, part, p, dx),
        lambda: np.diff(times)))


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
    of the *limit* p-th variation, which no finite computation knows.  Three
    approximations are supported:

    * ``finest_level`` (default): the p-th variation of each partition block
      at the deepest available level — the only model-free choice.  A
      block's weight is the sum of the grid-level ``|dx|**p`` inside it;
    * ``analytic``: a caller-supplied nondecreasing function with value 0
      at t=0 (e.g. ``t -> C*t`` when the limit is known to be linear);
    * ``self_level``: the evaluation partition's own ``|dx|**p`` terms,
      which turns scaled QV into the p-th variation identically.
    """

    mode: str = "finest_level"
    analytic_fn: Callable[[np.ndarray], np.ndarray] | None = None

    _MODES = ("analytic", "finest_level", "self_level")

    def __post_init__(self):
        if self.mode not in self._MODES:
            raise ValidationError(
                f"unknown source mode {self.mode!r}; expected one of {self._MODES}"
            )
        if self.mode == "analytic" and self.analytic_fn is None:
            raise ValidationError("analytic source requires analytic_fn")

    @classmethod
    def analytic(cls, fn: Callable[[np.ndarray], np.ndarray]) -> "PVarSource":
        return cls(mode="analytic", analytic_fn=fn)

    @classmethod
    def linear(cls, C: float) -> "PVarSource":
        """The analytic source ``t -> C*t`` (limit variation linear in time)."""
        return cls.analytic(lambda t: C * np.asarray(t, dtype=np.float64))

    @classmethod
    def self_level(cls) -> "PVarSource":
        return cls(mode="self_level")

    def materialized(self, x: Path, p: float) -> "PVarSource":
        """This source itself; kept because the benchmark's oracle check calls it."""
        return self

    def block_weights(self, x: Path, part: Partition, p: float,
                      dx: np.ndarray) -> tuple[np.ndarray, int]:
        """Nonnegative weight increments per partition block (+ clamp count)."""
        if self.mode == "self_level":
            return np.abs(dx) ** p, 0
        if self.mode == "finest_level":
            # block sums of the grid-level terms: a tiny block weight next to a
            # large running total survives, where a cumulative difference
            # would round it to zero
            part.check_grid(x.grid_level)
            fine = np.diff(x.samples)
            return np.add.reduceat(_pth_terms(fine, p, fine), part.indices[:-1]), 0
        t = part.times(x.grid_level)
        vals = np.asarray(self.analytic_fn(t), dtype=np.float64)
        if vals.shape != t.shape:
            raise SourceError("analytic_fn must return one value per partition point")
        scale = max(abs(float(vals[-1])), 1.0)
        if abs(float(vals[0])) > 1e-12 * scale:
            raise SourceError(f"analytic_fn must vanish at t=0, got {vals[0]}")
        w = np.diff(vals)
        neg = int(np.count_nonzero(w < 0.0))
        if neg:
            tol = 1e-9 * max(abs(float(w.max(initial=0.0))), 1.0)
            if float(w.min()) < -tol:
                raise SourceError("analytic_fn must be nondecreasing")
            w = np.maximum(w, 0.0)
        return w, neg


def scaled_qv(x: Path, part: Partition, p: float,
              src: PVarSource | None = None) -> VariationProfile:
    """Scaled quadratic variation ``sum w**gamma * |dx|**2``, gamma=(p-2)/p.

    Degenerate-term conventions: a block with zero weight and zero increment
    contributes 0 for any gamma; zero weight with a nonzero increment and
    gamma < 0 contributes +inf and flags the profile divergent.  Negative
    weight increments from a noisy source are clamped to zero and counted.
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


class _Increments:
    """The per-level increments of pyramid passes over one path.

    ``dx(n, out)`` is level n's increments, a strided difference of the
    samples.  With ``keep`` each level's array is taken once, made
    read-only and shared by every later pass (a search probing many
    exponents); without it each call writes them into the front of
    ``out``, the pass's scratch array, or into a fresh array when ``out``
    is None.
    """

    def __init__(self, x: Path, keep: bool = True):
        self.x = x
        self.keep = keep
        self._kept = {}

    def dx(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        s, stride = self.x.samples, 1 << (self.x.grid_level - n)
        if not self.keep:
            return np.subtract(s[stride::stride], s[:-1:stride],
                               out=None if out is None else out[:1 << n])
        if n not in self._kept:
            arr = np.subtract(s[stride::stride], s[:-1:stride])
            arr.setflags(write=False)
            self._kept[n] = arr
        return self._kept[n]


def _halve(w: np.ndarray, n: int) -> None:
    """Pairwise sums ``w[2k] + w[2k+1]`` of level n+1 weights into ``w[:2**n]``.

    Front to back a block at a time, so each block's pairs are read before
    any output lands on them.
    """
    for lo in range(0, 1 << n, _PASS_BLOCK):
        hi = min(lo + _PASS_BLOCK, 1 << n)
        np.add(w[2 * lo:2 * hi:2], w[2 * lo + 1:2 * hi:2], out=w[lo:hi])


def _finest_sweep(x: Path, p: float, gamma: float, top: int, inc: _Increments,
                  buf: np.ndarray) -> tuple:
    """Finest-level weights from one blocked sweep over the samples.

    Each block of ``_PASS_BLOCK`` grid increments is differenced, made
    ``|dx|**p`` and halved pairwise (``w[0::2] + w[1::2]``) as far as the
    block allows, down to level ``top - 1``, so every weight is an
    exact-order block sum.  When the sweep passes level ``top``, that
    level's scaled terms are taken on the way into ``buf``.  Returns
    ``(w, level, divergent)``: the stored weights, their level, and the top
    level's divergence flag (None when its terms were not taken).
    """
    L, s = x.grid_level, x.samples
    size = min(_PASS_BLOCK, 1 << L)
    halvings = min(L - top + 1, size.bit_length() - 1)
    w = np.empty(1 << (L - halvings))
    dx = inc.dx(top, buf) if top >= L - halvings else None
    divergent = None if dx is None else False
    for lo in range(0, 1 << L, size):
        a = np.subtract(s[lo + 1:lo + size + 1], s[lo:lo + size])
        np.abs(a, out=a)
        np.power(a, p, out=a)
        for level in range(L, L - halvings - 1, -1):
            if level == top:
                j = slice(lo >> (L - top), (lo + size) >> (L - top))
                divergent |= _scaled_terms(a, dx[j], gamma, buf[j])
            if level > L - halvings:
                a = a[0::2] + a[1::2]
        w[lo >> halvings:(lo + size) >> halvings] = a
    return w, L - halvings, divergent


def _dyadic_levels(x: Path, levels, kind: str, p: float = 2.0,
                   gamma: float | None = None, src: PVarSource | None = None,
                   inc: _Increments | None = None):
    """Yield ``(n, terms, clamped, divergent)`` per distinct level, finest first.

    The terms are :func:`_terms` of ``kind``, as in the profile of the
    level's dyadic partition, but no partition, time grid, cumulative array
    or profile is built.  One scratch array of ``2**top`` doubles (``top``
    the finest wanted level) serves the whole pass: each level's increments
    are written into its front, unless ``inc`` keeps them across passes,
    and its terms overwrite them there, so the yielded terms are valid
    until the next level is taken.  With the default finest-level source
    the weights come from :func:`_finest_sweep`, which also takes the top
    level's terms, and each coarser level's weights are pairwise sums of
    the level below, halved in place over the weights' own front half
    (:func:`_halve`), so every weight is an exact-order block sum.  Other
    sources supply weights through :meth:`PVarSource.block_weights`.
    """
    L = x.grid_level
    wanted = sorted(set(_check_levels(x, levels, 1)), reverse=True)
    p, gamma, src = _resolve(kind, p, gamma, src)
    inc = inc or _Increments(x, keep=False)
    buf = np.empty(1 << wanted[0])
    w = None
    if kind == "scaled" and gamma != 0.0 and src.mode == "finest_level":
        w, w_level, divergent = _finest_sweep(x, p, gamma, wanted[0], inc, buf)
        if divergent is not None:
            yield wanted.pop(0), buf, 0, divergent
    for n in wanted:
        dx = inc.dx(n, buf)
        while w is not None and w_level > n:
            w_level -= 1
            _halve(w, w_level)
        yield (n, *_terms(
            kind, dx, buf[:1 << n], p, gamma,
            lambda: (w[:1 << n], 0) if w is not None else src.block_weights(
                x, dyadic_partition(n, L), p, dx),
            lambda: np.float64(2.0 ** -n)))


def _level_total(terms: np.ndarray) -> float:
    """The one reducer for level terminals (numpy's pairwise sum)."""
    return float(np.sum(terms))


def _level_terminals(x: Path, levels, kind: str, p: float = 2.0,
                     gamma: float | None = None, src: PVarSource | None = None,
                     inc: _Increments | None = None) -> list:
    """Terminal of each level in ``levels`` (in that order), one pyramid pass."""
    got = {n: _level_total(terms)
           for n, terms, _, _ in _dyadic_levels(x, levels, kind, p, gamma, src, inc)}
    return [got[int(n)] for n in levels]


def _level_metadata(x: Path, levels, kind: str, p: float = 2.0,
                    gamma: float | None = None, src: PVarSource | None = None,
                    write: Callable | None = None) -> list:
    """:meth:`VariationProfile.metadata` of each level, from one pyramid pass.

    Profiles are built only for ``write``, which gets each distinct level's
    profile made from a copy of the same terms (the pass reuses its
    scratch array), so it ends on the same terminal.
    """
    p, gamma, src = _resolve(kind, p, gamma, src)
    got = {}
    for n, terms, clamped, divergent in _dyadic_levels(x, levels, kind, p, gamma, src):
        got[n] = _metadata(n, kind, p, gamma, src.mode if src else None, terms,
                           _level_total(terms), clamped, divergent)
        if write:
            write(_from_terms(kind, p, gamma, src, n, grid_times(n), terms.copy(),
                              clamped, divergent))
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
    ok = (values > 0.0) & np.isfinite(values)
    if np.count_nonzero(ok) < 2:
        return float("nan")
    return float(np.polyfit(levels[ok], np.log2(values[ok]), 1)[0])


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


def write_profile_csv(profile: VariationProfile, csv_filename,
                      sidecar_filename=None) -> None:
    _write_csv(csv_filename, "t,value", profile.times.size,
               lambda start, stop: (profile.times[start:stop], profile.values[start:stop]))
    sidecar = sidecar_filename if sidecar_filename is not None else _sidecar_name(csv_filename)
    with open(sidecar, "w") as fh:
        json.dump(profile.metadata(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_profile_csv(csv_filename, sidecar_filename=None) -> VariationProfile:
    """Read a profile CSV: times rise from 0 to 1, values end at the sidecar terminal."""
    data = _read_csv(csv_filename, "profile")
    times, values = data[:, 0], data[:, 1]
    try:
        sidecar = sidecar_filename if sidecar_filename is not None else _sidecar_name(csv_filename)
        with open(sidecar) as fh:
            meta = json.load(fh)
        terminal = float(meta["terminal"])
        profile = VariationProfile(level=int(meta["level"]), times=times,
                                   values=values, p=float(meta["p"]),
                                   kind=str(meta["kind"]),
                                   gamma=meta.get("gamma"),
                                   src_mode=meta.get("source_mode"),
                                   clamped=int(meta.get("clamped", 0)),
                                   divergent=bool(meta.get("divergent", False)))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"cannot parse profile {csv_filename}: {exc}") from exc
    if times[0] != 0.0 or times[-1] != 1.0 or np.any(np.diff(times) <= 0.0):
        raise FormatError(f"profile {csv_filename}: times must rise strictly "
                          "from 0 to 1")
    if profile.terminal != terminal:
        raise FormatError(f"profile {csv_filename}: last value {profile.terminal!r} "
                          f"is not the sidecar terminal {terminal!r}")
    return profile
