"""Grid, partition, mesh, oscillation, and path serialization tests."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from dataclasses import dataclass, replace
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvar as rv
from roughvar import grid
from roughvar.errors import FormatError, ResolutionError, ValidationError


def test_grid_times_are_exact_dyadic_floats():
    t = rv.grid_times(4)
    assert t.size == 17
    assert t[0] == 0.0 and t[-1] == 1.0
    assert t[8] == 0.5          # dyadic rationals are exact in binary
    npt.assert_array_equal(np.diff(t), np.full(16, 2.0 ** -4))


def relabel(x, label):
    """``x`` under another label."""
    return replace(x, label=label)


def interval_count(part):
    """Number of intervals of a partition."""
    return part.indices.size - 1


def oscillation(x, part):
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


class TestPath:
    def test_sample_count_must_match_level(self):
        with pytest.raises(ValidationError, match="17 samples"):
            rv.Path(grid_level=4, samples=np.zeros(16))

    def test_rejects_non_finite_samples(self):
        samples = np.zeros(5)
        samples[2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            rv.Path(grid_level=2, samples=samples)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            rv.Path(grid_level=-1, samples=np.zeros(1))

    def test_samples_are_read_only(self):
        x = rv.Path(grid_level=2, samples=np.zeros(5))
        with pytest.raises(ValueError):
            x.samples[0] = 1.0

    def test_times_match_grid(self):
        x = rv.Path(grid_level=3, samples=np.zeros(9))
        npt.assert_array_equal(x.times, rv.grid_times(3))

    def test_relabel_preserves_samples(self):
        x = rv.Path(grid_level=2, samples=np.arange(5.0), label="a")
        y = relabel(x, "b")
        assert y.label == "b"
        npt.assert_array_equal(y.samples, x.samples)


class TestPartition:
    def test_needs_two_indices(self):
        with pytest.raises(ValidationError):
            rv.Partition(level=0, indices=[0])

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError, match="start at index 0"):
            rv.Partition(level=0, indices=[1, 4])

    def test_strictly_increasing(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            rv.Partition(level=0, indices=[0, 2, 2, 4])

    def test_count_is_interval_count(self):
        part = rv.Partition(level=0, indices=[0, 1, 3, 4])
        assert interval_count(part) == 3

    def test_check_grid_requires_right_endpoint(self):
        part = rv.Partition(level=0, indices=[0, 3])
        with pytest.raises(ValidationError, match="ends at index 3"):
            part.check_grid(2)

    def test_times_projects_indices(self):
        part = rv.Partition(level=1, indices=[0, 2, 4])
        npt.assert_array_equal(part.times(2), [0.0, 0.5, 1.0])


class TestDyadicPartition:
    def test_indices_are_strided(self):
        part = rv.dyadic_partition(2, 4)
        npt.assert_array_equal(part.indices, [0, 4, 8, 12, 16])
        assert part.level == 2

    def test_full_refinement_keeps_every_sample(self):
        part = rv.dyadic_partition(3, 3)
        assert interval_count(part) == 8

    def test_finer_than_grid_is_a_resolution_error(self):
        with pytest.raises(ResolutionError):
            rv.dyadic_partition(5, 4)

    def test_negative_level_rejected(self):
        with pytest.raises(ValidationError):
            rv.dyadic_partition(-1, 4)


@dataclass(frozen=True)
class MeshStats:
    """Largest and smallest interval of a partition, and the interval count."""

    mesh: float
    min_mesh: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.min_mesh <= self.mesh <= 1.0):
            raise ValidationError(
                f"mesh statistics out of range: min_mesh={self.min_mesh}, mesh={self.mesh}"
            )


def mesh_stats(part, grid_level):
    """Mesh (largest interval), minimal mesh, and interval count of ``part``."""
    part.check_grid(grid_level)
    gaps = np.diff(part.indices) * 2.0 ** (-grid_level)
    return MeshStats(mesh=float(gaps.max()), min_mesh=float(gaps.min()),
                     count=interval_count(part))


class TestMeshStats:
    def test_uniform_dyadic_mesh(self):
        stats = mesh_stats(rv.dyadic_partition(3, 6), 6)
        assert stats.mesh == stats.min_mesh == 2.0 ** -3
        assert stats.count == 8

    def test_uneven_partition(self):
        part = rv.Partition(level=0, indices=[0, 1, 4])
        stats = mesh_stats(part, 2)
        assert stats.mesh == 0.75
        assert stats.min_mesh == 0.25

    def test_invariant_rejects_inverted_fields(self):
        with pytest.raises(ValidationError):
            MeshStats(mesh=0.1, min_mesh=0.5, count=2)


class TestOscillation:
    def test_constant_path_has_zero_oscillation(self):
        x = rv.Path(grid_level=4, samples=np.full(17, 3.0))
        assert oscillation(x, rv.dyadic_partition(2, 4)) == 0.0

    def test_single_block_is_range_of_samples(self):
        x = rv.Path(grid_level=2, samples=np.array([0.0, 2.0, -1.0, 0.5, 0.0]))
        part = rv.Partition(level=0, indices=[0, 4])
        assert oscillation(x, part) == 3.0

    def test_interior_extremum_is_seen(self):
        # the max sits strictly inside a block, not at its endpoints
        x = rv.Path(grid_level=2, samples=np.array([0.0, 5.0, 0.0, 0.0, 0.0]))
        part = rv.Partition(level=1, indices=[0, 2, 4])
        assert oscillation(x, part) == 5.0

    def test_takagi_oscillation_decreases_with_level(self):
        x = rv.takagi_path(0.5, 12)
        osc = [oscillation(x, rv.dyadic_partition(n, 12)) for n in range(2, 11, 2)]
        assert all(a > b for a, b in zip(osc, osc[1:]))

    def test_at_least_largest_partition_increment(self):
        rng = np.random.default_rng(7)
        x = rv.Path(grid_level=6, samples=rng.standard_normal(65))
        part = rv.dyadic_partition(3, 6)
        biggest_jump = np.max(np.abs(np.diff(x.samples[part.indices])))
        assert oscillation(x, part) >= biggest_jump


@settings(max_examples=50, deadline=None)
@given(level=st.integers(min_value=0, max_value=5), data=st.data())
def test_oscillation_refines_monotonically(level, data):
    """Refining a partition can only shrink within-block fluctuation."""
    grid_level = 6
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rv.Path(grid_level=grid_level, samples=rng.standard_normal(65))
    coarse = oscillation(x, rv.dyadic_partition(level, grid_level))
    fine = oscillation(x, rv.dyadic_partition(level + 1, grid_level))
    assert fine <= coarse + 1e-15


class TestPathSerialization:
    def test_csv_round_trip_is_bitwise(self, tmp_path):
        x = rv.takagi_path(0.3, 8, signs="alternating")
        name = tmp_path / "x.csv"
        rv.write_path_csv(x, name)
        back = rv.read_path_csv(name)
        assert back.grid_level == 8
        npt.assert_array_equal(back.samples, x.samples)

    def test_csv_header_and_format(self, tmp_path):
        x = rv.Path(grid_level=1, samples=np.array([0.0, 0.5, 0.0]))
        name = tmp_path / "p.csv"
        rv.write_path_csv(x, name)
        lines = name.read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 4

    def test_csv_rejects_non_dyadic_row_count(self, tmp_path):
        name = tmp_path / "bad.csv"
        name.write_text("t,value\n0,0\n0.3,1\n0.6,2\n1,3\n")  # 4 rows != 2**L+1
        with pytest.raises(FormatError, match="2\\*\\*L \\+ 1"):
            rv.read_path_csv(name)

    def test_csv_rejects_wrong_time_column(self, tmp_path):
        name = tmp_path / "bad.csv"
        name.write_text("t,value\n0,0\n0.3,1\n1,2\n")
        with pytest.raises(FormatError, match="dyadic"):
            rv.read_path_csv(name)

    def test_csv_rejects_garbage(self, tmp_path):
        name = tmp_path / "bad.csv"
        name.write_text("not,a\nnumber,file\n")
        with pytest.raises(FormatError):
            rv.read_path_csv(name)

    def test_missing_file_is_format_error(self, tmp_path):
        with pytest.raises(FormatError):
            rv.read_path_csv(tmp_path / "nope.csv")

    def test_json_round_trip(self, tmp_path):
        x = rv.fbm_path(0.5, 6, seed=3)
        name = tmp_path / "x.json"
        rv.write_path_json(x, name)
        back = rv.read_path_json(name)
        assert back.grid_level == x.grid_level
        assert back.label == x.label
        npt.assert_array_equal(back.samples, x.samples)

    @pytest.mark.parametrize("text", ["t,value\n", ""])
    def test_csv_without_data_rows_is_format_error(self, text, tmp_path):
        name = tmp_path / "empty.csv"
        name.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FormatError, match="has no data rows"):
                rv.read_path_csv(name)

    @pytest.mark.parametrize("doc", [
        {"grid_level": 1, "samples": [0, 1]},
        {"grid_level": -1, "samples": [0, 1]},
        {"grid_level": 0, "samples": [[0, 1]]},
        {"grid_level": 0, "samples": []},
        {"grid_level": 4000, "samples": [0, 1]},
        {"grid_level": 1.9, "samples": [0, 0.5, 1]},
        {"grid_level": True, "samples": [0, 0.5, 1]},
        {"grid_level": "1", "samples": [0, 0.5, 1]},
    ])
    def test_json_sample_count_mismatch_is_format_error(self, doc, tmp_path):
        name = tmp_path / "x.json"
        name.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="grid level"):
            rv.read_path_json(name)

    def test_json_non_finite_sample_stays_validation_error(self, tmp_path):
        name = tmp_path / "x.json"
        name.write_text('{"grid_level": 0, "samples": [0, NaN]}')
        with pytest.raises(ValidationError, match="non-finite"):
            rv.read_path_json(name)

    def test_json_rejects_missing_fields(self, tmp_path):
        name = tmp_path / "x.json"
        name.write_text("{\"samples\": [0, 1]}\n")
        with pytest.raises(FormatError):
            rv.read_path_json(name)

    @pytest.mark.parametrize("samples", [
        [True, "0.5", "1e0"],
        [0.0, "0.5", 1.0],
        [0.0, False, 1.0],
        [0.0, None, 1.0],
        [0.0, [0.5], 1.0],
        [0.0, {"x": 0.5}, 1.0],
    ])
    def test_json_samples_that_are_not_numbers_are_format_errors(self, samples, tmp_path):
        """``json.load`` then ``np.asarray(..., float)`` read true as 1.0 and "0.5" as 0.5."""
        name = tmp_path / "x.json"
        name.write_text(json.dumps({"grid_level": 1, "samples": samples}))
        with pytest.raises(FormatError, match="not a number .*grid level 1"):
            rv.read_path_json(name)

    @pytest.mark.parametrize("samples", ["0.5", 3, None, {"a": 1}])
    def test_json_samples_that_are_not_an_array_are_format_errors(self, samples, tmp_path):
        name = tmp_path / "x.json"
        name.write_text(json.dumps({"grid_level": 0, "samples": samples}))
        with pytest.raises(FormatError, match="not an array .*grid level 0"):
            rv.read_path_json(name)

    def test_json_integer_beyond_the_float_range_is_format_error(self, tmp_path):
        name = tmp_path / "x.json"
        name.write_text('{"grid_level": 0, "samples": [0, 1%s]}' % ("0" * 400))
        with pytest.raises(FormatError, match="too large"):
            rv.read_path_json(name)


def test_cli_rejects_json_samples_that_are_not_numbers(tmp_path, capsys):
    from roughvar.cli import main
    name = tmp_path / "x.json"
    name.write_text('{"grid_level": 1, "samples": [true, "0.5", "1e0"]}')
    assert main(["pvar", "--in", str(name), "--p", "2"]) == 3
    assert "sample 0 is a boolean" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The readers parse a block of text at a time.  json.load and
# np.loadtxt(fh, delimiter=",", skiprows=1) of the whole file are the
# oracles: the same samples, bit for bit, or the same error message.  Small
# blocks put block edges inside numbers, keys and line endings.
# ---------------------------------------------------------------------------

BLOCKS = [1, 2, 3, 7, 64, grid._READ_BLOCK]


def _json_oracle(name):
    """What ``json.load`` makes of the file: samples, or its error message."""
    try:
        with open(name) as fh:
            doc = json.load(fh)
    except ValueError as exc:
        return f"cannot parse path JSON {name}: {exc}"
    return np.asarray(doc["samples"], dtype=np.float64), str(doc.get("label", ""))


def _csv_oracle(name):
    """What ``np.loadtxt(fh)`` makes of the file: the value column, or its error message."""
    try:
        with open(name) as fh:
            return np.loadtxt(fh, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    except ValueError as exc:
        return f"cannot parse path CSV {name}: {exc}"


def _agrees(read, oracle, name, block, valid):
    want = oracle(name)
    assert isinstance(want, str) != valid, want
    with mock.patch.object(grid, "_READ_BLOCK", block):
        if not valid:
            with pytest.raises(FormatError) as info:
                read(name)
            assert str(info.value) == want
            return
        got = read(name)
    if isinstance(want, tuple):
        want, label = want
        assert got.label == label
    assert got.samples.tobytes() == want.tobytes()


def _path_json_text(x, indent=None, keys=("grid_level", "samples", "label")):
    doc = {"grid_level": x.grid_level, "samples": x.samples.tolist(), "label": x.label}
    return json.dumps({k: doc[k] for k in keys}, indent=indent)


class TestJsonReaderAgainstJsonLoad:
    x = relabel(rv.fbm_path(0.4, 6, seed=2), "fbm")

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("text", [
        _path_json_text(x, keys=("samples", "label", "grid_level")),
        _path_json_text(x, keys=("label", "grid_level", "samples")),
        _path_json_text(x, indent=2),
        _path_json_text(x, indent=0) + "\n\n",
        " \r\n\t" + _path_json_text(x).replace(", ", " ,\r\n "),
        '{"grid_level": 6, "extra": {"a": [1, "x,y", null]}, "samples": [1, 2],'
        ' "label": "a", "samples": %s, "label": "b"}' % json.dumps(x.samples.tolist()),
        '{"grid_level": 9, "samples": %s, "grid_level": 6}' % json.dumps(x.samples.tolist()),
        '{"grid_level": 6, "samples": [%s]}' % ", ".join(
            ["1e-3", "-0", "0", "12345678901234567890123", "-1.5E+300", "2e-320",
             "3.141592653589793238462643"] * 9 + ["0"] * 2),
    ], ids=["samples-first", "label-first", "indent-2", "indent-0", "whitespace",
            "extra-and-duplicate-keys", "duplicate-level", "number-forms"])
    def test_valid_documents(self, text, block, tmp_path):
        name = tmp_path / "x.json"
        name.write_text(text)
        _agrees(rv.read_path_json, _json_oracle, name, block, valid=True)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("tail", [" x", "\n{}", "]", ",", "\n\n  0"])
    def test_trailing_garbage(self, tail, block, tmp_path):
        name = tmp_path / "x.json"
        name.write_text(_path_json_text(self.x) + tail)
        _agrees(rv.read_path_json, _json_oracle, name, block, valid=False)

    @pytest.mark.parametrize("block", [3, 64, grid._READ_BLOCK])
    def test_truncated_files(self, block, tmp_path):
        text = _path_json_text(self.x, indent=1)
        name = tmp_path / "x.json"
        for end in [0, 1, 5, 14, 16, 30, 31, 40, len(text) // 2, len(text) - 40,
                    len(text) - 12, len(text) - 2, len(text) - 1]:
            name.write_text(text[:end])
            _agrees(rv.read_path_json, _json_oracle, name, block, valid=False)

    @pytest.mark.parametrize("block", [1, 5, grid._READ_BLOCK])
    @pytest.mark.parametrize("text", [
        '{"grid_level": 1, "samples": [0, 1 2]}',
        '{"grid_level": 1, "samples": [0, 1,, 2]}',
        '{"grid_level": 1, "samples": [0, 1, 2,]}',
        '{"grid_level": 1, "samples": [, 0, 1, 2]}',
        '{"grid_level": 1, "samples": [0, +1, 2]}',
        '{"grid_level": 1, "samples": [0, 01, 2]}',
        '{"grid_level": 1, "samples": [0, 1., 2]}',
        '{"grid_level": 1, "samples": [0, tru, 2]}',
        '{"grid_level": 1, "samples": [0, "x, 2]}',
        '{"grid_level": 1, "samples": [0, 1, 2], }',
        '{"grid_level" 1, "samples": [0, 1, 2]}',
        '{"grid_level": 1 "samples": [0, 1, 2]}',
        '{grid_level: 1}',
        '\ufeff{"grid_level": 0, "samples": [0, 1]}',
        "",
    ])
    def test_syntax_errors(self, text, block, tmp_path):
        name = tmp_path / "x.json"
        name.write_text(text)
        _agrees(rv.read_path_json, _json_oracle, name, block, valid=False)


class TestCsvReaderAgainstLoadtxt:
    x = rv.fbm_path(0.4, 6, seed=3)

    def _text(self, newline="\n", final=True):
        rows = [f"{t!r},{v!r}" for t, v in zip(self.x.times.tolist(), self.x.samples.tolist())]
        return newline.join(["t,value", *rows]) + (newline if final else "")

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("form", ["plain", "no-final-newline", "crlf", "cr",
                                      "comments", "blank-lines", "spaces"])
    def test_valid_files(self, form, block, tmp_path):
        text = {
            "plain": lambda: self._text(),
            "no-final-newline": lambda: self._text(final=False),
            "crlf": lambda: self._text("\r\n"),
            "cr": lambda: self._text("\r"),
            "comments": lambda: self._text().replace("\n", " # after a row\n", 3)
            .replace("\n", "\n# a comment line\n", 9) + "# the end",
            "blank-lines": lambda: self._text().replace("\n", "\n\n\n", 7) + "\n\n",
            "spaces": lambda: self._text().replace(",", " ,\t"),
        }[form]()
        name = tmp_path / "x.csv"
        name.write_bytes(text.encode())
        _agrees(rv.read_path_csv, _csv_oracle, name, block, valid=True)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("row", [1, 2, 40, 64])
    @pytest.mark.parametrize("bad", ["0.5,x", "0.5,1,2", "0.5", ",", "0.5,1e"])
    def test_parse_errors_name_the_data_row(self, bad, row, block, tmp_path):
        lines = self._text().split("\n")
        lines[row + 1] = bad
        name = tmp_path / "x.csv"
        name.write_text("\n".join(lines))
        _agrees(rv.read_path_csv, _csv_oracle, name, block, valid=False)

    @pytest.mark.parametrize("bad", ["oops", "1,2"])
    def test_parse_error_past_row_70000_names_the_file_row(self, bad, tmp_path):
        """A block holds about 6k rows; the message counts rows from the file's start."""
        name = tmp_path / "x.csv"
        rv.write_path_csv(rv.Path(grid_level=17, samples=np.zeros((1 << 17) + 1)), name)
        lines = name.read_text().split("\n")
        lines[70123 + 1] = lines[70123 + 1].split(",")[0] + "," + bad
        name.write_text("\n".join(lines))
        with pytest.raises(FormatError, match="at row 7012[34]") as info:
            rv.read_path_csv(name)
        assert str(info.value) == _csv_oracle(name)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), level=st.integers(0, 7), block=st.sampled_from([1, 2, 5, 13, 1 << 18]))
def test_round_trips_and_oracles_agree(data, level, block):
    """Written, reformatted and read back: the same bits as the oracles, in both formats."""
    n = (1 << level) + 1
    values = data.draw(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(-2**70, 2**70)), min_size=n, max_size=n))
    x = rv.Path(grid_level=level, samples=np.asarray(values, dtype=np.float64), label="h")
    keys = data.draw(st.permutations(["grid_level", "samples", "label"]))
    indent = data.draw(st.sampled_from([None, 0, 1]))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(grid, "_READ_BLOCK", block):
        for suffix, write, read in ((".csv", rv.write_path_csv, rv.read_path_csv),
                                    (".json", rv.write_path_json, rv.read_path_json)):
            name = os.path.join(tmp, "x" + suffix)
            write(x, name)
            assert read(name).samples.tobytes() == x.samples.tobytes()
        name = os.path.join(tmp, "y.json")
        doc = {"grid_level": level, "samples": values, "label": "h"}
        with open(name, "w") as fh:
            json.dump({k: doc[k] for k in keys}, fh, indent=indent)
        assert rv.read_path_json(name).samples.tobytes() == _json_oracle(name)[0].tobytes()
        name = os.path.join(tmp, "y.csv")
        with open(name, "w", newline="") as fh:
            fh.write(newline.join(["t,value", *(f"{t!r},{v!r}" for t, v in
                                                zip(x.times.tolist(), values))]))
        assert rv.read_path_csv(name).samples.tobytes() == _csv_oracle(name).tobytes()


def _vmhwm_mib(code):
    """Resident high-water mark of a fresh interpreter that imports roughvar, then runs ``code``."""
    src = str(pathlib.Path(rv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", f"import roughvar as rv\nfrom roughvar import *\n{code}\n"
         "print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=env, check=True)
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_reading_a_level_20_path_holds_its_samples_and_a_block(suffix, tmp_path):
    """The resident high-water mark of a read, above an import-only interpreter.

    The samples are 8 MiB.  3.2 (CSV) and 1.7 MiB (JSON) above them were
    measured; read whole, with ``np.loadtxt(fh)`` and ``json.load``, 33.8
    and 51.4 MiB, and in blocks of 2**20 characters 13.1 and 10.0 MiB.
    """
    name = str(tmp_path / ("x" + suffix))
    x = rv.takagi_path(0.5, 20)
    (rv.write_path_json if suffix == ".json" else rv.write_path_csv)(x, name)
    read = "read_path_json" if suffix == ".json" else "read_path_csv"
    peak = _vmhwm_mib(f"rv.{read}({name!r})")
    assert peak - _vmhwm_mib("") <= 8.0 + 6.0


class TestInHalves:
    """Independent work items, the second half on one more thread; work behind a producer."""

    @staticmethod
    def _where(items, increments):
        seen = {}
        grid._in_halves(lambda part: seen.update((i, threading.get_ident()) for i in part),
                        items, increments)
        return seen

    def test_second_half_runs_on_one_joined_thread(self, threads):
        seen = self._where(range(5), (1 << 16) + 1)
        assert sorted(seen) == list(range(5))
        caller = threading.get_ident()
        assert [seen[i] == caller for i in range(5)] == [True, True, False, False, False]
        assert len(threads) == 1 and not threads[0].is_alive()

    @pytest.mark.parametrize("items, increments, cpus", [
        (range(5), 1 << 16, 2), (range(5), 1 << 20, 1), (range(1), 1 << 20, 2)])
    def test_small_grids_one_cpu_or_one_item_run_on_the_caller(self, items, increments,
                                                               cpus, threads, monkeypatch):
        monkeypatch.setattr(grid, "_cpus", lambda: cpus)
        seen = self._where(items, increments)
        assert set(seen.values()) == {threading.get_ident()} and threads == []

    @pytest.mark.parametrize("fails, raised", [
        ({0}, "item 0"), ({3}, "item 3"), ({0, 3}, "item 0"), ({1, 2}, "item 1")])
    def test_the_first_halfs_exception_is_raised_first(self, fails, raised, threads):
        ran = []

        def run(part):
            for i in part:
                if i in fails:
                    raise ValueError(f"item {i}")
                ran.append(i)

        with pytest.raises(ValueError, match=raised):
            grid._in_halves(run, range(4), 1 << 20)
        assert len(threads) == 1 and not threads[0].is_alive()
        # each half stops at its own failure only
        assert sorted(ran) == [i for i in range(4)
                               if not any(f <= i and (f < 2) == (i < 2) for f in fails)]

    def test_the_callers_errstate_holds_on_the_thread(self, threads):
        # numpy keeps its floating-point error state in a context variable,
        # which a new thread would otherwise start without
        def run(part):
            for i in part:
                if i == 3:
                    np.divide(np.zeros(1), 0.0)

        with np.errstate(invalid="raise"):
            with pytest.raises(FloatingPointError, match="invalid value"):
                grid._in_halves(run, range(4), 1 << 20)
        assert len(threads) == 1

    @staticmethod
    def _bounded(call):
        """``call()`` on a watched thread, which must end within 30 s; its exception."""
        raised = []

        def watched():
            try:
                call()
            except Exception as exc:
                raised.append(exc)

        watcher = threading.Thread(target=watched, daemon=True)  # a blocked one is left behind
        watcher.start()
        watcher.join(timeout=30)
        assert not watcher.is_alive(), "the caller or its thread blocked"
        return raised[0] if raised else None

    def test_work_runs_behind_in_order_on_scratch_the_producer_reuses(self, threads):
        """Items share three scratch blocks, as the fBM normals do; none is overwritten early."""
        bufs = [np.empty(4) for _ in range(3)]
        done = []

        def items():
            for i in range(40):
                bufs[i % 3][:] = i
                yield i, bufs[i % 3]

        def work(i, buf):
            time.sleep(0.001 * (i % 3))  # the worker lags the producer by turns
            done.append((i, buf.tolist(), threading.get_ident()))

        assert self._bounded(lambda: grid._behind(work, items(), 1 << 20)) is None
        assert [(i, b) for i, b, _ in done] == [(i, [float(i)] * 4) for i in range(40)]
        assert len({t for _, _, t in done}) == 1 and len(threads) == 1
        assert not threads[0].is_alive()

    def test_work_runs_on_the_caller_on_small_grids(self, threads):
        done = []
        grid._behind(lambda i: done.append((i, threading.get_ident())), [(0,), (1,)], 1 << 16)
        assert done == [(0, threading.get_ident()), (1, threading.get_ident())]
        assert threads == []

    @pytest.mark.parametrize("where", ["work", "items", "both"])
    def test_a_failure_on_either_side_is_raised_and_blocks_nothing(self, where, threads):
        def items():
            for i in range(10):
                if i == 6 and where in ("items", "both"):
                    raise ValueError("items failed")
                yield (i,)

        def work(i):
            if i == 2 and where in ("work", "both"):
                raise ValueError("work failed")

        exc = self._bounded(lambda: grid._behind(work, items(), 1 << 20))
        assert isinstance(exc, ValueError)
        # the caller's failure is raised before its thread's
        assert str(exc) == ("work failed" if where == "work" else "items failed")
        assert len(threads) == 1 and not threads[0].is_alive()
