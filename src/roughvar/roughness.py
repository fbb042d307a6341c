"""Critical variation index search and switching-behaviour classification.

For a path with finite nontrivial p-th variation, scaled quadratic variation
at exponent q diverges for q below the critical index and vanishes above it.
:func:`classify_index` reads off that behaviour at a single q;
:func:`critical_index_search` bisects on it to localize the critical index
``p_bar`` (and ``hurst_est = 1/p_bar``).  Paths that break the trichotomy
(oscillating or inconclusive probes, non-monotone classifications) abort
honestly with the probe evidence attached rather than forcing an index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, InconclusiveError, ValidationError
from .grid import Path
from .variation import (
    ClassificationThresholds,
    PVarSource,
    _check_levels,
    _level_terminals,
    default_levels,
    limit_diagnostics,
)

__all__ = [
    "ProbeRecord",
    "RoughnessReport",
    "default_levels",
    "classify_index",
    "classification_sweep",
    "critical_index_search",
]

# Rank order used for the monotone-classification check: diverging below the
# critical index, finite_positive at it, vanishing above.
_RANK = {"diverging": 0, "finite_positive": 1, "vanishing": 2}


@dataclass(frozen=True)
class ProbeRecord:
    """One q-probe: classification plus its per-level terminal values."""

    q: float
    classification: str
    terminal_values: tuple
    trend_slope: float

    def to_dict(self) -> dict:
        return {"q": self.q, "classification": self.classification,
                "terminal_values": list(self.terminal_values),
                "trend_slope": self.trend_slope}


@dataclass(frozen=True)
class RoughnessReport:
    """Result of a critical-index search.

    ``p_bar_est`` is the last finite_positive probe when one was seen,
    otherwise the final bracket midpoint; it always lies inside ``bracket``.
    ``hurst_est = 1/p_bar_est`` definitionally.  ``per_q`` lists every probe
    (endpoints included) sorted by q.
    """

    p_bar_est: float
    bracket: tuple
    hurst_est: float
    per_q: tuple
    levels_used: tuple
    src_mode: str
    iters: int

    def __post_init__(self):
        lo, hi = self.bracket
        if not lo <= self.p_bar_est <= hi:
            raise ValidationError(
                f"p_bar_est {self.p_bar_est} outside bracket ({lo}, {hi})"
            )

    def to_dict(self) -> dict:
        return {"p_bar_est": self.p_bar_est, "bracket": list(self.bracket),
                "hurst_est": self.hurst_est,
                "per_q": [rec.to_dict() for rec in self.per_q],
                "levels_used": list(self.levels_used),
                "src_mode": self.src_mode, "iters": self.iters}


def _probe(x: Path, levels: list, q: float, src: PVarSource | None,
           thresholds: ClassificationThresholds | None) -> ProbeRecord:
    """Classify every level's scaled-QV terminal at q, taken in one pyramid pass."""
    if not 0.0 < q < math.inf:
        raise ValidationError(f"q must be > 0 and finite, got {q}")
    rep = limit_diagnostics(_level_terminals(x, levels, "scaled", q, src=src),
                            window=len(levels), levels=levels, thresholds=thresholds)
    return ProbeRecord(q=float(q), classification=rep.classification,
                       terminal_values=rep.terminal_values,
                       trend_slope=rep.trend_slope)


def classify_index(x: Path, levels, q: float,
                   src: PVarSource | None = None,
                   thresholds: ClassificationThresholds | None = None) -> str:
    """Classify scaled-QV terminals at exponent q across the given levels."""
    return _probe(x, _check_levels(x, levels, 3), q, src, thresholds).classification


def classification_sweep(x: Path, levels, qs,
                         src: PVarSource | None = None,
                         thresholds: ClassificationThresholds | None = None) -> list:
    """Probe several exponents; records sorted by q."""
    levels = _check_levels(x, levels, 3)
    return sorted((_probe(x, levels, q, src, thresholds) for q in qs),
                  key=lambda rec: rec.q)


def _check_monotone(records) -> None:
    ordered = sorted(records, key=lambda rec: rec.q)
    ranks = [_RANK[rec.classification] for rec in ordered]
    if any(b < a for a, b in zip(ranks, ranks[1:])):
        raise InconclusiveError(
            "probe classifications are not monotone in q; switching behaviour "
            "does not hold on this path/level set",
            evidence=[rec.to_dict() for rec in ordered],
        )


def critical_index_search(x: Path, levels=None, p_range=(1.2, 4.0),
                          iters: int = 12, src: PVarSource | None = None,
                          thresholds: ClassificationThresholds | None = None
                          ) -> RoughnessReport:
    """Bisect for the critical variation index within ``p_range``.

    Requires the low endpoint to classify diverging and the high endpoint
    vanishing (bracket error otherwise, with both endpoint records attached).
    Diverging probes move the bracket floor up and vanishing probes move the
    ceiling down; a finite_positive probe sits at the critical index up to
    window bias, so its own trend slope decides the side (positive = still
    below).  Final bracket width is (p_max - p_min) * 2**-iters.
    """
    p_min, p_max = float(p_range[0]), float(p_range[1])
    if not p_min < p_max:
        raise ValidationError(f"need p_min < p_max, got {p_range}")
    if p_min <= 0 or p_max == math.inf:
        raise ValidationError(f"p_range must be positive and finite, got {p_range}")
    if iters < 1:
        raise ValidationError(f"iters must be >= 1, got {iters}")
    levels = _check_levels(x, default_levels(x) if levels is None else levels, 3)
    src = src or PVarSource()

    seen: dict[float, ProbeRecord] = {}

    def probe(q: float) -> ProbeRecord:
        rec = _probe(x, levels, q, src, thresholds)
        seen[rec.q] = rec
        if rec.classification not in _RANK:
            raise InconclusiveError(
                f"probe at q={q:g} classified {rec.classification}; "
                "no critical index can be bracketed",
                evidence=[r.to_dict() for r in sorted(seen.values(),
                                                      key=lambda r: r.q)],
            )
        return rec

    low_rec = _probe(x, levels, p_min, src, thresholds)
    high_rec = _probe(x, levels, p_max, src, thresholds)
    seen[low_rec.q], seen[high_rec.q] = low_rec, high_rec
    if low_rec.classification != "diverging" or high_rec.classification != "vanishing":
        raise BracketError(
            f"range ({p_min:g}, {p_max:g}) does not bracket a critical index: "
            f"low endpoint is {low_rec.classification}, "
            f"high endpoint is {high_rec.classification}",
            evidence=[low_rec.to_dict(), high_rec.to_dict()],
        )

    lo, hi = p_min, p_max
    last_fp = None
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        rec = probe(mid)
        if rec.classification == "diverging":
            lo = mid
        elif rec.classification == "vanishing":
            hi = mid
        else:
            last_fp = rec.q
            if rec.trend_slope > 0.0:
                lo = mid
            else:
                hi = mid
        _check_monotone(seen.values())

    p_bar = last_fp if last_fp is not None else 0.5 * (lo + hi)
    per_q = tuple(sorted(seen.values(), key=lambda rec: rec.q))
    return RoughnessReport(p_bar_est=float(p_bar), bracket=(lo, hi),
                           hurst_est=1.0 / float(p_bar), per_q=per_q,
                           levels_used=tuple(levels),
                           src_mode=src.mode, iters=int(iters))
