"""Critical variation index search and switching-behaviour classification.

For a path with finite nontrivial p-th variation, scaled quadratic variation
at exponent q diverges for q below the critical index and vanishes above it.
:func:`classify_index` reads off that behaviour at a single q;
:func:`critical_index_search` runs a secant search in 1/q on it to localize
the critical index ``p_bar`` (and ``hurst_est = 1/p_bar``).  Paths that
break the trichotomy (oscillating or inconclusive probes, non-monotone
classifications) abort honestly with the probe evidence attached rather
than forcing an index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BracketError, InconclusiveError, ValidationError
from .grid import Path, _in_halves
from .variation import (
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

# A finite_positive endpoint moves outward by a factor 2 at most this many
# times: the default range (1.2, 4.0) reaches down to q = 0.3 and up to 16.
_EXTENSIONS = 2


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

    ``p_bar_est`` is the secant root in 1/q of the probes' trend slopes: the
    confirmed root when both confirmation probes agree, otherwise the root
    (or midpoint) of the final bracket; it always lies inside ``bracket``.
    ``hurst_est = 1/p_bar_est`` definitionally.  ``per_q`` lists every probe
    (endpoints and their extensions included) sorted by q; ``iters`` is the
    probe budget after the endpoints.
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


def _probe(x: Path, levels: list, q: float, src: PVarSource | None) -> ProbeRecord:
    """Classify every level's scaled-QV terminal at q, taken in one pyramid pass.

    A level that overflowed (an infinite terminal that is not ``divergent``)
    raises :class:`EvaluationError` naming q and the level.
    """
    if not 0.0 < q < math.inf:
        raise ValidationError(f"q must be > 0 and finite, got {q}")
    terminals = _level_terminals(x, levels, "scaled", q, src=src,
                                 name=f"probe at q={q:g}")
    rep = limit_diagnostics(terminals, window=len(levels), levels=levels)
    return ProbeRecord(q=float(q), classification=rep.classification,
                       terminal_values=rep.terminal_values,
                       trend_slope=rep.trend_slope)


def classify_index(x: Path, levels, q: float,
                   src: PVarSource | None = None) -> str:
    """Classify scaled-QV terminals at exponent q across the given levels."""
    return _probe(x, _check_levels(x, levels, 3), q, src).classification


def classification_sweep(x: Path, levels, qs,
                         src: PVarSource | None = None) -> list:
    """Probe several exponents; records sorted by q."""
    levels = _check_levels(x, levels, 3)
    return sorted((_probe(x, levels, q, src) for q in qs),
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


def _below(rec: ProbeRecord) -> bool:
    """Whether a probe lies below the critical index: it moves the bracket floor."""
    return rec.classification == "diverging" or (
        rec.classification == "finite_positive" and rec.trend_slope > 0.0)


def _secant_root(a: ProbeRecord, b: ProbeRecord, lo: float, hi: float) -> float:
    """Zero of the trend slope on the secant through probes a and b in u = 1/q.

    The slope is close to affine in 1/q (about 2/q - 2H for fBM).  A zero
    not strictly inside the bracket ``(lo, hi)``, or a NaN slope, gives the
    bracket midpoint.
    """
    u_a, u_b = 1.0 / a.q, 1.0 / b.q
    den = b.trend_slope - a.trend_slope
    if den != 0.0:
        u = u_a - a.trend_slope * (u_b - u_a) / den
        if u > 0.0 and lo < 1.0 / u < hi:
            return 1.0 / u
    return 0.5 * (lo + hi)


def critical_index_search(x: Path, levels=None, p_range=(1.2, 4.0),
                          iters: int = 12, src: PVarSource | None = None
                          ) -> RoughnessReport:
    """Locate the critical variation index by a secant search in 1/q.

    The low endpoint must classify diverging and the high endpoint
    vanishing.  An endpoint that classifies finite_positive moves outward
    (q halved at the low end, doubled at the high end, at most
    ``_EXTENSIONS`` times each); a range that still does not bracket raises
    a bracket error carrying every endpoint probe.  A probe lies below the
    critical index when it classifies diverging, or finite_positive with a
    positive trend slope; it then moves the bracket floor up, and any other
    probe moves the ceiling down.

    The first step probes the zero of the trend slope on the secant through
    the two bracketing probes in u = 1/q, or the midpoint when that zero is
    not strictly inside the bracket or a slope is NaN.  Every later step
    confirms the current root r with one probe on each side, at
    r -/+ (p_max - p_min) * 2**-(iters+1) (a side already outside the
    bracket needs none).  When both agree the bracket is those two probes,
    (p_max - p_min) * 2**-iters wide, and ``p_bar_est`` is r.  A pair that
    falls on one side moves the bracket, and the next root is the zero of
    the secant through that pair.  At most ``iters`` probes follow the
    endpoints (the last one probes r itself); when they run out
    ``p_bar_est`` is the root of the final bracket.

    The two endpoint probes, and each confirmation pair, are independent:
    on a grid of more than 2**16 increments they run at once, one on a
    second thread (:func:`~roughvar.grid._in_halves`), with the same
    report, and the lower probe's error is raised first.
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

    def evidence() -> list:
        return [r.to_dict() for r in sorted(seen.values(), key=lambda r: r.q)]

    def probes(qs: list) -> list:
        """The records of probes at each of ``qs`` (rising), entered in ``seen``."""
        recs = [None] * len(qs)

        def run(part) -> None:
            for i in part:
                recs[i] = _probe(x, levels, qs[i], src)

        _in_halves(run, range(len(qs)), 1 << x.grid_level)
        seen.update((rec.q, rec) for rec in recs)
        return recs

    ends = probes([p_min, p_max])
    for _ in range(_EXTENSIONS):
        if ends[0].classification == "finite_positive":
            ends.insert(0, probes([ends[0].q / 2.0])[0])
        if ends[-1].classification == "finite_positive":
            ends.extend(probes([ends[-1].q * 2.0]))
    if ends[0].classification != "diverging" or ends[-1].classification != "vanishing":
        raise BracketError(
            f"range ({ends[0].q:g}, {ends[-1].q:g}) does not bracket a critical "
            f"index: low endpoint is {ends[0].classification}, "
            f"high endpoint is {ends[-1].classification}",
            evidence=evidence(),
        )
    # the endpoints in between classify finite_positive: their slopes place them
    first_above = next(i for i, rec in enumerate(ends) if not _below(rec))
    lo, hi = ends[first_above - 1], ends[first_above]

    half = (p_max - p_min) * 2.0 ** -(iters + 1)
    left, stepped = iters, False
    root = _secant_root(lo, hi, lo.q, hi.q)
    while left and hi.q - lo.q > 2.0 * half:
        qs = [q for q in (root - half, root + half) if lo.q < q < hi.q]
        confirm = stepped and len(qs) <= left
        recs = probes(qs if confirm else [root])
        for rec in recs:
            if rec.classification not in _RANK:
                raise InconclusiveError(
                    f"probe at q={rec.q:g} classified {rec.classification}; "
                    "no critical index can be bracketed", evidence=evidence())
            if lo.q < rec.q < hi.q:
                if _below(rec):
                    lo = rec
                else:
                    hi = rec
        _check_monotone(seen.values())
        left -= len(recs)
        if confirm and all(_below(rec) == (rec.q < root) for rec in recs):
            break
        stepped = True
        # a confirmation pair on one side of the switch gives the local slope;
        # the secant through the far bracket end would stall (regula falsi)
        root = _secant_root(*(recs if len(recs) == 2 else (lo, hi)), lo.q, hi.q)

    per_q = tuple(sorted(seen.values(), key=lambda rec: rec.q))
    return RoughnessReport(p_bar_est=float(root), bracket=(lo.q, hi.q),
                           hurst_est=1.0 / float(root), per_q=per_q,
                           levels_used=tuple(levels),
                           src_mode=src.mode, iters=int(iters))
