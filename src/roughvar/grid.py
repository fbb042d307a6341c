"""Dyadic grids, partitions, and path files.

A :class:`Path` is a function on [0, 1] sampled at the dyadic grid points
``t_j = j * 2**-L``.  A :class:`Partition` selects a subset of those grid
points (always containing both endpoints) along which variation functionals
are accumulated.  All objects are immutable; operations are pure functions.
"""

from __future__ import annotations

import contextlib
import contextvars
import importlib
import io
import json
import math
import operator
import os
import re
import threading
import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ResolutionError, ValidationError

__all__ = [
    "Path",
    "Partition",
    "dyadic_partition",
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


def _check_seed(seed, what: str = "seed") -> int:
    """``seed`` as an int >= 0, a missing one 0, so that a draw depends on it alone."""
    if seed is None:
        return 0
    try:
        value = operator.index(seed)
    except TypeError:
        value = -1
    if value < 0:
        raise ValidationError(f"{what} must be a non-negative integer, got {seed!r}")
    return value


# A grid of at most this many increments runs every work item on the caller:
# a second thread pays for itself only on the finer grids.
_SPLIT_INCREMENTS = 1 << 16
_BLOCK = 1 << 16  # grid values per block of every loop that streams over a path


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _two_threads(increments: int) -> bool:
    """Whether work on a grid of ``increments`` increments may take a second thread."""
    return increments > _SPLIT_INCREMENTS and _cpus() > 1


@contextlib.contextmanager
def _beside(target: Callable):
    """Run ``target()`` on one ``threading.Thread`` while the ``with`` body runs.

    The thread runs in a copy of the caller's context, so the caller's
    ``np.errstate`` holds in it too; numpy releases the interpreter lock
    inside its loops.  It is joined when the body ends, and the body's
    exception is raised before the thread's.
    """
    errors = []

    def run() -> None:
        try:
            target()
        except BaseException as exc:  # re-raised on the caller, after its own
            errors.append(exc)

    thread = threading.Thread(target=contextvars.copy_context().run, args=(run,))
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if errors:
        raise errors[0]


def _in_halves(run: Callable, items: Sequence, increments: int) -> None:
    """``run(items)``, or ``run`` on each half of ``items`` at once.

    With at least two independent items, where :func:`_two_threads` allows,
    a second thread runs the second half while the caller runs the first
    (:func:`_beside`).
    """
    cut = len(items) // 2 if _two_threads(increments) else 0
    if not cut:
        run(items)
        return
    with _beside(lambda: run(items[cut:])):
        run(items[:cut])


def _behind(work: Callable, items: Iterable, increments: int) -> None:
    """``work(*item)`` for each item that iterating ``items`` gives, in order.

    Where :func:`_two_threads` allows, a second thread does the work
    (:func:`_beside`) while the caller makes the next item, so an item may
    be made while the two before it are queued and worked on.
    """
    if not _two_threads(increments):
        for item in items:
            work(*item)
        return
    import queue  # loaded only by the jobs that take a second thread

    queued = queue.Queue(maxsize=1)

    def consume() -> None:
        item = None
        try:
            while (item := queued.get()) is not None:
                work(*item)
        finally:
            while item is not None:  # drained, so that the caller never blocks
                item = queued.get()

    with _beside(consume):
        try:
            for item in items:
                queued.put(item)
        finally:
            queued.put(None)


def grid_times(grid_level: int) -> np.ndarray:
    """Times ``j * 2**-grid_level`` for j = 0..2**grid_level (exact floats)."""
    return np.arange((1 << grid_level) + 1, dtype=np.float64) * 2.0 ** (-grid_level)


def _check_finite(samples: np.ndarray, grid_level: int, first: int = 0) -> None:
    """Raise on the first non-finite value of ``samples``, grid points ``first`` on.

    Checked ``_BLOCK`` values at a time, so no path-sized mask is made.
    """
    for lo in range(0, samples.size, _BLOCK):
        ok = np.isfinite(samples[lo:lo + _BLOCK])
        if not ok.all():
            j = first + lo + int(np.argmin(ok))
            raise ValidationError(f"non-finite sample at index {j} "
                                  f"(t = {j * 2.0 ** (-grid_level)})")


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
        _check_finite(samples, self.grid_level)
        object.__setattr__(self, "samples", _readonly(samples))

    @property
    def times(self) -> np.ndarray:
        return grid_times(self.grid_level)


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


# ---------------------------------------------------------------------------
# Serialization: CSV with header "t,value" (full-precision decimal), or JSON
# with fields {grid_level, samples, label}.
# ---------------------------------------------------------------------------

# Rows per ``%`` in _write_csv and samples per ``json.dumps`` in
# write_path_json: one per row is slow, and a block's floats, text and row
# tuple are held at once.  Writing a level-20 path, traced allocations peak
# at 8.6 (CSV) and 8.4 MiB (JSON) with 2**16 rows, 0.5 and 0.6 MiB with
# 2**12, and the writes take as long.
_WRITE_BLOCK = 1 << 12

# Characters of text the readers parse at a time: about 6k CSV rows or 12k
# JSON samples.  Reading a level-20 path peaks about 3 (CSV) and 2 MiB (JSON)
# above its 8 MiB of samples, against 13 and 10 MiB with blocks of 2**20
# characters, whose freed strings stay resident; the read takes as long.
_READ_BLOCK = 1 << 18


def _write_csv(filename, header: str, n_rows: int, rows) -> None:
    """``n_rows`` comma-separated ``%.17g`` rows under ``header``.

    ``rows(start, stop)`` gives rows ``start`` to ``stop - 1`` as equal-length
    float columns, so no column needs to exist whole.
    """
    with open(filename, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, n_rows, _WRITE_BLOCK):
            block = np.column_stack(rows(start, min(start + _WRITE_BLOCK, n_rows)))
            line = ",".join(["%.17g"] * block.shape[1]) + "\n"
            fh.write(line * block.shape[0] % tuple(block.ravel().tolist()))


def _write_json(obj, filename) -> None:
    """``obj`` as JSON indented by 2 with sorted keys, plus a newline."""
    with open(filename, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def _hash(name: str, *builtins: str):
    """Hash constructor ``name`` from a builtin module in ``builtins``, else from ``hashlib``.

    The first of CPython's builtin hash modules ``builtins`` that this
    interpreter has is used.  The bits are the same either way, but
    ``hashlib`` loads OpenSSL's libcrypto: 3.6 MiB resident and 5-7 ms to
    load and tear down.
    """
    for module in builtins:
        try:
            return getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError):
            pass
    import hashlib
    return getattr(hashlib, name)


class _Rows:
    """One float64 array that rows are appended to, a block at a time.

    It grows in place (``ndarray.resize``, a ``realloc`` that need not copy a
    large array) through capacities ``2**k + 1``, the row counts of dyadic
    grids, so a path's samples end up in an array of exactly their size.
    """

    def __init__(self, shape=(), capacity: int = (1 << 16) + 1):
        self.data = np.empty((capacity, *shape))
        self.size = 0

    def extend(self, rows) -> None:
        end = self.size + len(rows)
        if end > self.data.shape[0]:
            capacity = (1 << (end - 2).bit_length()) + 1
            self.data.resize((capacity, *self.data.shape[1:]), refcheck=False)
        self.data[self.size:end] = rows
        self.size = end

    def array(self) -> np.ndarray:
        self.data.resize((self.size, *self.data.shape[1:]), refcheck=False)
        return self.data


# loadtxt numbers the rows in its messages by data row: from 0 in "could not
# convert ... at row R" and from 1 in "the number of columns changed ... at row R"
_ROW_IN_MESSAGE = re.compile(r"at row (\d+)")


def _csv_blocks(fh):
    """``(first_row, block)`` for the data rows below the header line of CSV text ``fh``.

    The text is read ``_READ_BLOCK`` characters at a time, cut after its last
    newline, and each block's lines go to ``np.loadtxt``, so rows parse as
    ``np.loadtxt(fh, delimiter=",", skiprows=1)`` parses them, with the same
    messages.  Each block after the first is led by a row of zeros as wide as
    the rows before it, which ``np.loadtxt`` then checks the block's widths
    against; a message's row is moved to the file's numbering.
    """
    rows, width, rest, header = 0, None, "", True
    while True:
        chunk = fh.read(_READ_BLOCK)
        text = rest + chunk
        cut = text.rfind("\n") + 1 if chunk else len(text)
        if not cut:
            if not chunk:
                return
            rest = text
            continue
        lines, rest = text[:cut].split("\n"), text[cut:]
        if header:
            del lines[0]
            header = False
        lead = [] if width is None else [",".join(["0"] * width)]
        try:
            with warnings.catch_warnings():
                # loadtxt warns on lines without data; the caller counts rows
                warnings.simplefilter("ignore", UserWarning)
                block = np.loadtxt(lead + lines, delimiter=",", ndmin=2)
        except ValueError as exc:
            offset = rows - len(lead)
            raise ValueError(_ROW_IN_MESSAGE.sub(
                lambda m: f"at row {int(m[1]) + offset}", str(exc), count=1)) from exc
        block = block[len(lead):]
        if block.shape[0]:
            yield rows, block
            rows += block.shape[0]
            width = block.shape[1]
        if not chunk:
            return


def _read_csv(filename, what: str, digest=None, times=None) -> np.ndarray:
    """The two float columns below a CSV file's header line, as an (n, 2) array.

    With ``times``, only the second column is kept, as an (n,) array, and
    ``times(first_row, column)`` is given the first a block at a time.
    """
    width = None
    try:  # read through a handle, a .gz name is read as the text it is
        with _open_text(filename, digest) as fh:
            for first, block in _csv_blocks(fh):
                if width is None:
                    width = block.shape[1]
                    kept = _Rows(() if times is not None else (width,))
                if width != 2:
                    continue  # an error once every row has parsed
                if times is None:
                    kept.extend(block)
                else:
                    times(first, block[:, 0])
                    kept.extend(block[:, 1])
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot parse {what} {filename}: {exc}") from exc
    if width is None:
        raise FormatError(f"{what} {filename} has no data rows")
    if width != 2:
        raise FormatError(f"{what} {filename} must have two columns, got {width}")
    return kept.array()


def _level_of(n_points: int) -> int | None:
    """The grid level L with ``2**L + 1 == n_points``, or None if there is none."""
    level = max(n_points - 1, 1).bit_length() - 1
    return level if (1 << level) + 1 == n_points else None


class _GridTimes:
    """A path CSV's time column, checked a block at a time against ``j * step``.

    ``step`` is row 1's time rounded to a power of two.  Row ``j`` fits when
    it lies within ``step * 1e-6`` of ``j * step``; :meth:`of_level` then
    tells whether every row fitted the grid of the level the row count gives,
    as ``np.allclose`` of the whole column against :func:`grid_times` would.
    """

    def __init__(self):
        self.step = None
        self.fits = True
        self.t0 = 0.0   # row 0, when it comes before row 1's block

    def __call__(self, first: int, t: np.ndarray) -> None:
        if self.step is None:
            if first + t.size < 2:
                self.t0 = t[0]
                return
            t1 = t[1 - first]
            if 0.0 < t1 < 2.0:
                self.step = 2.0 ** round(math.log2(t1))
            else:
                self.step, self.fits = 1.0, False
            if first:
                self.fits &= bool(abs(self.t0) <= self.step * 1e-6)
        expect = np.arange(first, first + t.size, dtype=np.float64) * self.step
        self.fits &= bool(np.all(np.abs(t - expect) <= self.step * 1e-6))

    def of_level(self, grid_level: int) -> bool:
        return self.fits and self.step == 2.0 ** (-grid_level)


def write_path_csv(x: Path, filename) -> None:
    """Rows ``t,x(t)``; each block's times are ``np.arange(start, stop) * 2**-L``,
    the bits of :func:`grid_times`, so no whole time column is made."""
    step = 2.0 ** (-x.grid_level)
    _write_csv(filename, "t,value", x.samples.size, lambda start, stop: (
        np.arange(start, stop, dtype=np.float64) * step, x.samples[start:stop]))


def read_path_csv(filename, digest=None) -> Path:
    """A path CSV; the bytes read update the hashlib ``digest``, if given.

    The values go into one array as the file is read, and the time column is
    checked a block at a time and not kept.
    """
    times = _GridTimes()
    samples = _read_csv(filename, "path CSV", digest, times)
    grid_level = _level_of(samples.size)
    if grid_level is None:
        raise FormatError(f"path CSV {filename} has {samples.size} rows; "
                          "expected 2**L + 1 for integer L")
    if not times.of_level(grid_level):
        raise FormatError(f"path CSV {filename}: time column is not the dyadic grid")
    return Path(grid_level=grid_level, samples=samples, label=os.path.basename(filename))


def write_path_json(x: Path, filename) -> None:
    """The bytes of ``json.dump({"grid_level", "samples", "label"})`` plus a newline.

    Samples go through ``json.dumps`` (CPython's C encoder; ``json.dump``
    runs the pure-Python one) a block at a time, so memory stays flat.
    """
    with open(filename, "w") as fh:
        fh.write(f'{{"grid_level": {json.dumps(x.grid_level)}, "samples": [')
        for start in range(0, x.samples.size, _WRITE_BLOCK):
            block = json.dumps(x.samples[start:start + _WRITE_BLOCK].tolist())
            fh.write((", " if start else "") + block[1:-1])
        fh.write(f'], "label": {json.dumps(x.label)}}}\n')


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")   # JSON whitespace, as json's own scanner skips it
# No JSON number (NaN and Infinity included) holds one of these characters,
# and every string, array, object, true, false and null does.
_NOT_NUMBERS = '"[]{}ul'


def _json_kind(value) -> str:
    return {str: "a string", bool: "a boolean", list: "an array", dict: "an object",
            type(None): "null"}.get(type(value), "a number")


class _JsonText:
    """JSON text read ``_READ_BLOCK`` characters at a time into a window, ``buf``.

    ``pos`` indexes ``buf``; :meth:`more` drops the text before it and
    appends the next block.  Errors carry ``json``'s message and the line,
    column and character in the whole text, as ``json.load`` reports them.
    """

    def __init__(self, fh):
        self.fh, self.buf, self.pos = fh, "", 0
        self.start = 0        # characters before buf
        self.lines = 0        # newlines before buf
        self.line_start = 0   # the character after the last of them
        if self.more() and self.buf.startswith("\ufeff"):
            raise self.error("Unexpected UTF-8 BOM (decode using utf-8-sig)", 0)

    def more(self) -> bool:
        """Drop ``buf[:pos]`` and append the next block; false at the end of the text."""
        chunk = self.fh.read(_READ_BLOCK)
        if not chunk:
            return False
        newlines = self.buf.count("\n", 0, self.pos)
        if newlines:
            self.lines += newlines
            self.line_start = self.start + self.buf.rindex("\n", 0, self.pos) + 1
        self.start += self.pos
        self.buf, self.pos = self.buf[self.pos:] + chunk, 0
        return True

    def error(self, msg: str, pos: int) -> ValueError:
        newlines = self.buf.count("\n", 0, pos)
        line_start = (self.start + self.buf.rindex("\n", 0, pos) + 1 if newlines
                      else self.line_start)
        at = self.start + pos
        return ValueError(f"{msg}: line {self.lines + newlines + 1} "
                          f"column {at - line_start + 1} (char {at})")

    def peek(self) -> str:
        """The next character that is not whitespace, or "" at the end of the text."""
        while True:
            self.pos = _SPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf) or not self.more():
                return self.buf[self.pos:self.pos + 1]

    def expect(self, chars: str, msg: str) -> str:
        char = self.peek()
        if not char or char not in chars:
            raise self.error(msg, self.pos)
        self.pos += 1
        return char

    def value(self):
        """The value at ``pos``.

        A value that ends within two characters of the window's end waits for
        the next block: a number is taken only once a delimiter follows it,
        and ``1.5e+`` decodes as 1.5 until its digits arrive.  Text that does
        not decode is retried with more of it, up to the end of the file.
        """
        self.peek()
        while True:
            try:
                value, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.more():
                    continue
                raise self.error(exc.msg, exc.pos) from None
            if end < len(self.buf) - 2 or not self.more():
                self.pos = end
                return value

    def numbers(self, rows: _Rows):
        """The array at ``pos``, into ``rows``; its first item that is not a
        number, as ``(index, item)``, or None.

        The numbers up to the last comma before the window's end, or before a
        character no number holds, go to ``json.loads`` at once.  The item
        after that comma is decoded on its own, and so is every item once one
        is not a number or a run does not parse.  The array is read to its
        end either way, so a syntax error after it is reported as
        ``json.load`` reports it.
        """
        self.pos += 1
        if self.peek() == "]":
            self.pos += 1
            return None
        bad, runs, stop = None, True, -1   # stop: an index in the whole text
        while True:
            buf, pos = self.buf, self.pos
            if runs:
                if stop <= self.start + pos:
                    found = [i for i in (buf.find(c, pos) for c in _NOT_NUMBERS) if i >= 0]
                    stop = self.start + min(found, default=len(buf))
                cut = buf.rfind(",", pos, stop - self.start)
                if cut > _SPACE.match(buf, pos).end():
                    try:
                        items = json.loads(f"[{buf[pos:cut]}]")
                    except ValueError:
                        runs = False
                    else:
                        rows.extend(items)
                        self.pos = cut + 1
                        continue
            item = self.value()
            if bad is None:
                if type(item) in (int, float):
                    rows.extend([item])
                else:
                    bad, runs = (rows.size, item), False
            if self.expect(",]", "Expecting ',' delimiter") == "]":
                return bad

    def document(self):
        """The whole text's value; a ``samples`` array in an object is read by
        :meth:`numbers` and stands as ``(rows, first non-number)``."""
        if self.peek() != "{":
            doc = self.value()
        else:
            doc = {}
            self.pos += 1
            closed = self.peek() == "}"
            self.pos += closed
            while not closed:
                if self.peek() != '"':
                    raise self.error("Expecting property name enclosed in double quotes",
                                     self.pos)
                key = self.value()
                self.expect(":", "Expecting ':' delimiter")
                if key == "samples" and self.peek() == "[":
                    level = doc.get("grid_level")
                    sized = type(level) is int and 0 <= level <= _MAX_LEVEL
                    rows = _Rows() if not sized else _Rows(capacity=(1 << level) + 1)
                    doc[key] = (rows, self.numbers(rows))
                else:
                    doc[key] = self.value()
                closed = self.expect(",}", "Expecting ',' delimiter") == "}"
        if self.peek():
            raise self.error("Extra data", self.pos)
        return doc


def read_path_json(filename, digest=None) -> Path:
    """A path JSON; the bytes read update the hashlib ``digest``, if given.

    The text is read a block at a time and the samples go into one array as
    they are parsed; the document is otherwise read as ``json.load`` reads
    it, whatever its key order, spacing or repeated keys.
    """
    try:
        with _open_text(filename, digest) as fh:
            doc = _JsonText(fh).document()
        grid_level = doc["grid_level"]
        samples = doc["samples"]
        label = str(doc.get("label", ""))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        # OverflowError: an integer sample beyond the float range
        raise FormatError(f"cannot parse path JSON {filename}: {exc}") from exc
    if type(grid_level) is not int:
        raise FormatError(f"path JSON {filename}: grid level {grid_level!r} "
                          "is not an integer")
    if type(samples) is not tuple:
        raise FormatError(f"path JSON {filename}: samples are {_json_kind(samples)}, "
                          f"not an array of numbers filling grid level {grid_level}")
    rows, bad = samples
    if bad is not None:
        raise FormatError(f"path JSON {filename}: sample {bad[0]} is "
                          f"{_json_kind(bad[1])}, not a number (grid level {grid_level})")
    samples = rows.array()
    if _level_of(samples.size) != grid_level:
        raise FormatError(f"path JSON {filename}: {samples.size} samples do not fill "
                          f"grid level {grid_level} (need 2**grid_level + 1)")
    return Path(grid_level=grid_level, samples=samples, label=label)
