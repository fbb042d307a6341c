"""Faber–Schauder expansions on dyadic grids.

Paths are built from triangular coefficient arrays ``theta[m][k]`` (level m
has 2**m entries).  The basis normalization is pinned by the level-n
quadratic-variation identity

    sum over level-n dyadic increments of |dx|**2
        == 2**-n * sum_{m<n} sum_k theta[m][k]**2,

which holds exactly when the midpoint recursion adds
``theta[m][k] * 2**(-m/2) / 2`` at each interval midpoint.  Equivalently the
basis tent is ``e_{m,k}(t) = 2**(-m/2) * max(0, min(2**m t - k, 1 - (2**m t - k)))``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ResolutionError, ValidationError
from .grid import _BLOCK, Path, _check_max_level, _check_seed, _hash, _open_text

__all__ = [
    "SchauderCoefficients",
    "schauder_eval",
    "takagi_coefficients",
    "counterexample_coefficients",
    "counterexample_burst_levels",
    "level_qv_identity",
    "read_coefficients_json",
    "write_coefficients_json",
]


@dataclass(frozen=True)
class SchauderCoefficients:
    """Triangular coefficient array: ``theta[m]`` has 2**m finite reals."""

    max_level: int
    theta: tuple
    label: str = ""

    def __post_init__(self):
        if self.max_level != len(self.theta):
            raise ValidationError(
                f"max_level {self.max_level} != number of coefficient rows {len(self.theta)}"
            )
        rows = []
        for m, row in enumerate(self.theta):
            arr = np.asarray(row, dtype=np.float64)
            if arr.shape != (1 << m,):
                raise ValidationError(
                    f"coefficient row {m} must have {1 << m} entries, got {arr.shape}"
                )
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"non-finite coefficient in row {m}")
            arr.setflags(write=False)
            rows.append(arr)
        object.__setattr__(self, "theta", tuple(rows))

    def squared_row_sums(self) -> np.ndarray:
        """``sum_k theta[m][k]**2`` for each level m."""
        return np.array([float(np.dot(row, row)) for row in self.theta])


def schauder_eval(c: SchauderCoefficients, grid_level: int) -> Path:
    """Evaluate the partial-sum path on the level-``grid_level`` grid.

    Uses the midpoint recursion
    ``x((2k+1)/2**(m+1)) = (x(k/2**m) + x((k+1)/2**m)) / 2 + theta[m][k] * 2**(-m/2) / 2``,
    which is exact at dyadic points and costs O(2**grid_level) total.  Levels
    above ``max_level`` have no coefficient term, so the recursion there is
    plain midpoint averaging: the partial sum is piecewise linear between
    level-``max_level`` dyadic points and the averaging reproduces it exactly
    on the finer grid.
    """
    return _midpoint_path(c.theta, c.max_level, grid_level, c.label)


def _midpoint_path(rows, max_level: int, grid_level: int, label: str) -> Path:
    """The midpoint recursion of :func:`schauder_eval`, one coefficient row per level.

    ``rows`` yields rows 0..max_level-1, each taken only when its level's
    midpoints are due and sliced ``_BLOCK`` entries at a time as that
    level's midpoints are written into the samples: besides the path, at
    most one row (a :class:`_SignRow` holds only its bits) and a block are
    held.
    """
    _check_max_level(grid_level)
    if grid_level < max_level:
        raise ResolutionError(
            f"grid level {grid_level} cannot resolve coefficients up to level "
            f"{max_level - 1}; need grid_level >= {max_level}"
        )
    rows = iter(rows)
    x = np.zeros((1 << grid_level) + 1)
    for m in range(grid_level):
        stride = 1 << (grid_level - m)
        row = next(rows) if m < max_level else None
        scale = 2.0 ** (-m / 2.0) * 0.5
        for lo in range(0, 1 << m, _BLOCK):
            a, b = lo * stride, min(lo + _BLOCK, 1 << m) * stride
            mid = x[a:b:stride] + x[a + stride:b + stride:stride]
            mid *= 0.5
            if row is not None:
                mid += row[lo:lo + _BLOCK] * scale
            x[a + (stride >> 1):b:stride] = mid
    return Path(grid_level=grid_level, samples=x, label=label)


_SIGNS = ("plus", "minus", "alternating", "random")


class _SignRow:
    """Takagi row m, ``factor * s_{m,k}``, made only a slice at a time.

    Random signs are the first 2**m bits of one SHAKE-128 (FIPS 202) digest
    of ``b"roughvar-takagi-signs:<seed>:<m>"``: sign k is bit ``k % 8`` of
    byte ``k // 8``, least significant first, and a 1 bit is +1.  The row
    holds those ``ceil(2**m / 8)`` bytes and no float array.  The digest
    comes from CPython's builtin ``_sha3`` where it exists, so that a job
    that makes only Takagi paths loads no OpenSSL.
    """

    def __init__(self, signs: str, m: int, seed: int, factor: float):
        self.signs, self.m, self.factor = signs, m, factor
        self.bits = None
        if signs == "random":
            xof = _hash("shake_128", "_sha3")(b"roughvar-takagi-signs:%d:%d" % (seed, m))
            self.bits = np.frombuffer(xof.digest(((1 << m) + 7) >> 3), dtype=np.uint8)

    def __getitem__(self, s: slice) -> np.ndarray:
        lo, hi, _ = s.indices(1 << self.m)
        if self.signs == "random":
            bits = np.unpackbits(self.bits[lo >> 3:(hi + 7) >> 3], bitorder="little")
            plus = bits[lo & 7:(lo & 7) + hi - lo]
        elif self.signs == "alternating":
            plus = (np.arange(lo, hi) + self.m) % 2 == 0
        else:
            plus = np.full(hi - lo, self.signs == "plus")
        return np.where(plus, self.factor, -self.factor)


def _takagi_rows(H: float, M: int, signs: str, seed: int | None) -> tuple:
    """``(rows, label)``: Takagi-class rows 0..M-1 as :class:`_SignRow`.

    The arguments are checked at once; a row's values are made when it is
    sliced, so a consumer that takes them a block at a time holds a block.
    Random signs with no seed are drawn with seed 0.
    """
    if not 0.0 < H < 1.0:
        raise ValidationError(f"H must lie in (0, 1), got {H}")
    _check_max_level(M, "max_level")
    if signs not in _SIGNS:
        raise ValidationError(
            f"unknown sign source {signs!r}; expected plus, minus, alternating, or random"
        )
    seed = _check_seed(seed)
    rows = (_SignRow(signs, m, seed, 2.0 ** (m * (0.5 - H))) for m in range(M))
    tag = signs if signs != "random" else f"random(seed={seed})"
    return rows, f"takagi(H={H}, signs={tag})"


def takagi_coefficients(H: float, M: int, signs: str = "plus",
                        seed: int | None = None) -> SchauderCoefficients:
    """Takagi-class coefficients ``theta[m][k] = 2**(m*(1/2 - H)) * s_{m,k}``.

    ``signs`` selects the sign rule: ``plus`` / ``minus`` (constant),
    ``alternating`` (``(-1)**(m+k)``), or ``random`` (seeded SHAKE-128 bits,
    as in :class:`_SignRow`).  The scale factor is folded into the stored
    coefficients.
    """
    rows, label = _takagi_rows(H, M, signs, seed)
    if M < 1:
        raise ValidationError(f"max_level must be >= 1, got {M}")
    return SchauderCoefficients(max_level=M, theta=tuple(row[:] for row in rows),
                                label=label)


def counterexample_burst_levels(n_max: int) -> list[int]:
    """Levels ``S_n - 1`` (with ``S_n = n(n+1)/2``) carrying nonzero bursts."""
    return [n * (n + 1) // 2 - 1 for n in range(1, n_max + 1)]


def counterexample_coefficients(n_max: int) -> SchauderCoefficients:
    """Coefficients whose quadratic-variation sequence oscillates.

    The rows are zero except at levels ``m = S_n - 1`` (``S_n = n(n+1)/2``),
    where every entry equals ``sqrt(2n - (n-1)/2**(n-1))``.  The level-S_n
    quadratic variation then equals n exactly while the level-(S_n - 1)
    value tends to 0, so the sequence has no limit.
    """
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    max_level = n_max * (n_max + 1) // 2
    _check_max_level(max_level, "S_n_max = n_max(n_max+1)/2")
    theta = [np.zeros(1 << m) for m in range(max_level)]
    for n in range(1, n_max + 1):
        m = n * (n + 1) // 2 - 1
        theta[m] = np.full(1 << m, math.sqrt(2.0 * n - (n - 1) / 2.0 ** (n - 1)))
    return SchauderCoefficients(max_level=max_level, theta=tuple(theta),
                                label=f"qv-oscillation(n_max={n_max})")


def level_qv_identity(c: SchauderCoefficients, n: int) -> float:
    """Closed-form level-n quadratic variation ``2**-n * sum_{m<n} sum_k theta**2``."""
    if n < 0:
        raise ValidationError(f"level must be >= 0, got {n}")
    upto = min(n, c.max_level)
    return 2.0 ** (-n) * float(np.sum(c.squared_row_sums()[:upto]))


def write_coefficients_json(c: SchauderCoefficients, filename) -> None:
    doc = {"max_level": c.max_level,
           "theta": [row.tolist() for row in c.theta],
           "label": c.label}
    with open(filename, "w") as fh:
        print(json.dumps(doc), file=fh)


def read_coefficients_json(filename, digest=None) -> SchauderCoefficients:
    """Coefficients from JSON; the bytes read update the hashlib ``digest``, if given."""
    try:
        with _open_text(filename, digest) as fh:
            doc = json.load(fh)
        return SchauderCoefficients(max_level=int(doc["max_level"]),
                                    theta=tuple(doc["theta"]),
                                    label=str(doc.get("label", "")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"cannot parse coefficients JSON {filename}: {exc}") from exc
