"""Grid, partition, mesh, oscillation, and path serialization tests."""

import json
import warnings
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import roughvar as rv
from roughvar.errors import FormatError, ResolutionError, ValidationError


def test_grid_times_are_exact_dyadic_floats():
    t = rv.grid_times(4)
    assert t.size == 17
    assert t[0] == 0.0 and t[-1] == 1.0
    assert t[8] == 0.5          # dyadic rationals are exact in binary
    npt.assert_array_equal(np.diff(t), np.full(16, 2.0 ** -4))


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
        y = x.relabel("b")
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
        assert part.count == 3

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
        assert part.count == 8

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
    return MeshStats(mesh=float(gaps.max()), min_mesh=float(gaps.min()), count=part.count)


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
        assert rv.oscillation(x, rv.dyadic_partition(2, 4)) == 0.0

    def test_single_block_is_range_of_samples(self):
        x = rv.Path(grid_level=2, samples=np.array([0.0, 2.0, -1.0, 0.5, 0.0]))
        part = rv.Partition(level=0, indices=[0, 4])
        assert rv.oscillation(x, part) == 3.0

    def test_interior_extremum_is_seen(self):
        # the max sits strictly inside a block, not at its endpoints
        x = rv.Path(grid_level=2, samples=np.array([0.0, 5.0, 0.0, 0.0, 0.0]))
        part = rv.Partition(level=1, indices=[0, 2, 4])
        assert rv.oscillation(x, part) == 5.0

    def test_takagi_oscillation_decreases_with_level(self):
        x = rv.takagi_path(0.5, 12)
        osc = [rv.oscillation(x, rv.dyadic_partition(n, 12)) for n in range(2, 11, 2)]
        assert all(a > b for a, b in zip(osc, osc[1:]))

    def test_at_least_largest_partition_increment(self):
        rng = np.random.default_rng(7)
        x = rv.Path(grid_level=6, samples=rng.standard_normal(65))
        part = rv.dyadic_partition(3, 6)
        biggest_jump = np.max(np.abs(np.diff(x.samples[part.indices])))
        assert rv.oscillation(x, part) >= biggest_jump


@settings(max_examples=50, deadline=None)
@given(level=st.integers(min_value=0, max_value=5), data=st.data())
def test_oscillation_refines_monotonically(level, data):
    """Refining a partition can only shrink within-block fluctuation."""
    grid_level = 6
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x = rv.Path(grid_level=grid_level, samples=rng.standard_normal(65))
    coarse = rv.oscillation(x, rv.dyadic_partition(level, grid_level))
    fine = rv.oscillation(x, rv.dyadic_partition(level + 1, grid_level))
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
