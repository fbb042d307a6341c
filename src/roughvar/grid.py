"""Dyadic grids, partitions, and oscillation.

A :class:`Path` is a function on [0, 1] sampled at the dyadic grid points
``t_j = j * 2**-L``.  A :class:`Partition` selects a subset of those grid
points (always containing both endpoints) along which variation functionals
are accumulated.  All objects are immutable; operations are pure functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import FormatError, ResolutionError, ValidationError

__all__ = [
    "Path",
    "Partition",
    "dyadic_partition",
    "oscillation",
    "grid_times",
    "read_path_csv",
    "read_path_json",
    "write_path_csv",
    "write_path_json",
]


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr)
    out.setflags(write=False)
    return out


# Deepest level any generator builds: a level-L grid holds 2**L + 1 floats
# (32 MiB at 22), and every generator checks this before it allocates.
_MAX_LEVEL = 22


def _check_max_level(level: int, what: str = "grid_level") -> None:
    if not 0 <= level <= _MAX_LEVEL:
        raise ValidationError(f"{what} must be in [0, {_MAX_LEVEL}] "
                              f"(memory guard), got {level}")


def grid_times(grid_level: int) -> np.ndarray:
    """Times ``j * 2**-grid_level`` for j = 0..2**grid_level (exact floats)."""
    return np.arange((1 << grid_level) + 1, dtype=np.float64) * 2.0 ** (-grid_level)


@dataclass(frozen=True)
class Path:
    """A continuous function on [0, 1] restricted to a dyadic grid.

    ``samples[j]`` is the value at ``t_j = j * 2**-grid_level``; the array
    has exactly ``2**grid_level + 1`` entries and contains no NaN/inf.
    """

    grid_level: int
    samples: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.grid_level < 0:
            raise ValidationError(f"grid_level must be >= 0, got {self.grid_level}")
        samples = np.asarray(self.samples, dtype=np.float64)
        expected = (1 << self.grid_level) + 1
        if samples.ndim != 1 or samples.size != expected:
            raise ValidationError(
                f"need {expected} samples for grid level {self.grid_level}, "
                f"got shape {samples.shape}"
            )
        if not np.all(np.isfinite(samples)):
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise ValidationError(
                f"non-finite sample at index {bad} (t = {bad * 2.0 ** (-self.grid_level)})"
            )
        object.__setattr__(self, "samples", _readonly(samples))

    @property
    def times(self) -> np.ndarray:
        return grid_times(self.grid_level)

    def relabel(self, label: str) -> "Path":
        return replace(self, label=label)


@dataclass(frozen=True)
class Partition:
    """An increasing set of grid indices from 0 up to the last grid point.

    ``level`` records the dyadic level for partitions built by
    :func:`dyadic_partition`; user-supplied index partitions may carry any
    nonnegative marker.  The right endpoint (``2**L`` for the target grid)
    is checked by the operations that receive the grid level.
    """

    level: int
    indices: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        if idx.ndim != 1 or idx.size < 2:
            raise ValidationError("partition needs at least two indices")
        if idx[0] != 0:
            raise ValidationError(f"partition must start at index 0, got {idx[0]}")
        if np.any(np.diff(idx) <= 0):
            raise ValidationError("partition indices must be strictly increasing")
        object.__setattr__(self, "indices", _readonly(idx))

    @property
    def count(self) -> int:
        """Number of partition intervals."""
        return self.indices.size - 1

    def check_grid(self, grid_level: int) -> None:
        last = int(self.indices[-1])
        if last != (1 << grid_level):
            raise ValidationError(
                f"partition ends at index {last}, expected {1 << grid_level} "
                f"for grid level {grid_level}"
            )

    def times(self, grid_level: int) -> np.ndarray:
        self.check_grid(grid_level)
        return self.indices * 2.0 ** (-grid_level)


def dyadic_partition(n: int, grid_level: int) -> Partition:
    """The level-``n`` dyadic partition on a level-``grid_level`` grid.

    Indices are ``j * 2**(grid_level - n)`` for j = 0..2**n.
    """
    if n < 0:
        raise ValidationError(f"partition level must be >= 0, got {n}")
    if n > grid_level:
        raise ResolutionError(
            f"dyadic level {n} does not refine into grid level {grid_level}"
        )
    step = 1 << (grid_level - n)
    return Partition(level=n, indices=np.arange(0, (1 << grid_level) + 1, step))


def oscillation(x: Path, part: Partition) -> float:
    """Largest within-block fluctuation of ``x`` along ``part``.

    For each partition block the fluctuation is max - min over all grid
    samples in the block, endpoints inclusive; the result is the maximum
    over blocks.  Nonnegative, and at least the largest block increment.
    """
    part.check_grid(x.grid_level)
    s = x.samples
    starts = part.indices[:-1]
    # reduceat spans [indices[j], indices[j+1]); fold the right endpoint in.
    block_max = np.maximum.reduceat(s, starts)
    block_min = np.minimum.reduceat(s, starts)
    block_max = np.maximum(block_max, s[part.indices[1:]])
    block_min = np.minimum(block_min, s[part.indices[1:]])
    return float(np.max(block_max - block_min))


# ---------------------------------------------------------------------------
# Serialization: CSV with header "t,value" (full-precision decimal), or JSON
# with fields {grid_level, samples, label}.
# ---------------------------------------------------------------------------

# Rows per ``%`` in _write_csv and samples per ``json.dumps`` in
# write_path_json: one per row is slow, a whole 2**20-row file at once would
# hold a 42 MB string and 2M float objects.
_CSV_BLOCK_ROWS = 1 << 16


def _write_csv(filename, header: str, columns) -> None:
    """Equal-length float columns as comma-separated ``%.17g`` rows under ``header``."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(filename, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, columns[0].size, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))


class _Hashing(io.BufferedReader):
    """A buffered binary file whose bytes, as they are read, also update ``digest``.

    A text wrapper reads through ``read1`` and ``read``.  Hashing here, not
    in a wrapper of the raw file, leaves the raw file a plain ``FileIO``,
    whose ``closed``, which the text wrapper checks on every line, is a C
    attribute.
    """

    def __init__(self, raw, digest):
        super().__init__(raw)
        self._digest = digest

    def read(self, size=-1) -> bytes:
        data = super().read(size)
        self._digest.update(data)
        return data

    def read1(self, size=-1) -> bytes:
        data = super().read1(size)
        self._digest.update(data)
        return data


@contextlib.contextmanager
def _open_text(filename, digest=None):
    """``filename`` opened once, as text.

    With a hashlib ``digest``, the bytes the reader consumes update it, and
    the rest of the file does too when the block exits normally: a pipe
    cannot be opened a second time to hash it.
    """
    with open(filename, "rb", buffering=0) as raw:
        binary = io.BufferedReader(raw) if digest is None else _Hashing(raw, digest)
        with io.TextIOWrapper(binary) as fh:
            yield fh
            while digest is not None and binary.read(1 << 20):
                pass


def _read_csv(filename, what: str, digest=None) -> np.ndarray:
    """The two float columns below a CSV file's header line, as an (n, 2) array."""
    try:  # loadtxt given a handle, not a name, picks no decompressor from a suffix
        with _open_text(filename, digest) as fh, warnings.catch_warnings():
            # loadtxt warns on a file without data rows; that is an error here
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot parse {what} {filename}: {exc}") from exc
    if data.shape[0] == 0:
        raise FormatError(f"{what} {filename} has no data rows")
    if data.shape[1] != 2:
        raise FormatError(f"{what} {filename} must have two columns, got {data.shape[1]}")
    return data


def _level_of(n_points: int) -> int | None:
    """The grid level L with ``2**L + 1 == n_points``, or None if there is none."""
    level = max(n_points - 1, 1).bit_length() - 1
    return level if (1 << level) + 1 == n_points else None


def write_path_csv(x: Path, filename) -> None:
    _write_csv(filename, "t,value", [x.times, x.samples])


def read_path_csv(filename, label: str | None = None, digest=None) -> Path:
    """A path CSV; the bytes read update the hashlib ``digest``, if given."""
    data = _read_csv(filename, "path CSV", digest)
    grid_level = _level_of(data.shape[0])
    if grid_level is None:
        raise FormatError(f"path CSV {filename} has {data.shape[0]} rows; "
                          "expected 2**L + 1 for integer L")
    if not np.allclose(data[:, 0], grid_times(grid_level), rtol=0.0,
                       atol=2.0 ** (-grid_level) * 1e-6):
        raise FormatError(f"path CSV {filename}: time column is not the dyadic grid")
    return Path(grid_level=grid_level, samples=data[:, 1],
                label=label if label is not None else os.path.basename(filename))


def write_path_json(x: Path, filename) -> None:
    """The bytes of ``json.dump({"grid_level", "samples", "label"})`` plus a newline.

    Samples go through ``json.dumps`` (CPython's C encoder; ``json.dump``
    runs the pure-Python one) a block at a time, so memory stays flat.
    """
    with open(filename, "w") as fh:
        fh.write(f'{{"grid_level": {json.dumps(x.grid_level)}, "samples": [')
        for start in range(0, x.samples.size, _CSV_BLOCK_ROWS):
            block = json.dumps(x.samples[start:start + _CSV_BLOCK_ROWS].tolist())
            fh.write((", " if start else "") + block[1:-1])
        fh.write(f'], "label": {json.dumps(x.label)}}}\n')


def read_path_json(filename, digest=None) -> Path:
    """A path JSON; the bytes read update the hashlib ``digest``, if given."""
    try:
        with _open_text(filename, digest) as fh:
            doc = json.load(fh)
        grid_level = doc["grid_level"]
        samples = np.asarray(doc["samples"], dtype=np.float64)
        label = str(doc.get("label", ""))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"cannot parse path JSON {filename}: {exc}") from exc
    if type(grid_level) is not int:
        raise FormatError(f"path JSON {filename}: grid level {grid_level!r} "
                          "is not an integer")
    if samples.ndim != 1 or _level_of(samples.size) != grid_level:
        raise FormatError(f"path JSON {filename}: {samples.size} samples do not fill "
                          f"grid level {grid_level} (need 2**grid_level + 1)")
    return Path(grid_level=grid_level, samples=samples, label=label)
