"""Path, profile, report and coefficient files are byte-identical to numpy/json.

The writers format CSV rows and encode JSON path samples in blocks; these
tests pin their bytes to what ``np.savetxt(fmt="%.17g")`` and ``json.dump``
write for the same arrays, across the block boundary and for values whose
shortest repr needs 17 significant digits.
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import roughvar as rv
from roughvar import grid

# signed zero, the smallest subnormal, the largest double, a non-dyadic
# decimal, and values that need all 17 significant digits to round-trip
SPECIAL = np.array([-0.0, 5e-324, 1.7976931348623157e308, 0.1,
                    0.30000000000000004, 1.0 / 3.0, -2.0 / 3.0, np.pi * 1e-300,
                    -1.7976931348623157e308, 2.2250738585072014e-308])
BLOCK = grid._WRITE_BLOCK
# both sides of the block size, and of the 2**16-row blocks written before it
ROW_COUNTS = [2, 3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1,
              (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (1 << 17) + 1]
# grid levels whose 2**L + 1 rows are BLOCK + 1, 2 * BLOCK + 1, 2**16 + 1, 2**17 + 1
LEVELS = [0, 1, BLOCK.bit_length() - 1, BLOCK.bit_length(), 16, 17]


def _column(n, seed):
    """``n`` values: the special ones first, then 17-digit random draws."""
    rng = np.random.default_rng(seed)
    out = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    k = min(n, SPECIAL.size)
    out[:k] = SPECIAL[:k]
    return out


def _savetxt_bytes(tmp_path, columns, header):
    ref = tmp_path / "ref.csv"
    np.savetxt(ref, np.column_stack(columns), fmt="%.17g", delimiter=",",
               header=header, comments="")
    return ref.read_bytes()


def _json_dump_bytes(tmp_path, doc):
    ref = tmp_path / "ref.json"
    with open(ref, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return ref.read_bytes()


@pytest.mark.parametrize("grid_level", LEVELS)
def test_path_csv_matches_savetxt(grid_level, tmp_path):
    x = rv.Path(grid_level=grid_level, samples=_column((1 << grid_level) + 1, grid_level))
    out = tmp_path / "x.csv"
    rv.write_path_csv(x, out)
    assert out.read_bytes() == _savetxt_bytes(tmp_path, [x.times, x.samples], "t,value")


@pytest.mark.parametrize("level", LEVELS)
def test_profile_csv_matches_savetxt(level, tmp_path):
    n = (1 << level) + 1
    prof = rv.VariationProfile(level=level, times=rv.grid_times(level),
                               values=_column(n, level), p=2.0, kind="pth",
                               terms=np.zeros(n - 1))
    out = tmp_path / "p.csv"
    rv.write_profile_csv(prof, out)
    assert out.read_bytes() == _savetxt_bytes(tmp_path, [prof.times, prof.values],
                                              "t,value")


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_report_csv_matches_savetxt(rows, tmp_path):
    levels = tuple(range(rows))
    lhs, rhs, rel = (tuple(_column(rows, seed).tolist()) for seed in (1, 2, 3))
    rep = rv.IsometryReport(kind="isometry", p=2.0, levels=levels, lhs_terminal=lhs,
                            rhs_terminal=rhs, abs_err=rel, rel_err=rel,
                            err_trend_slope=-1.0, success=True)
    out = tmp_path / "r.csv"
    rv.write_report_csv(rep, out)
    want = _savetxt_bytes(tmp_path, [np.asarray(levels, dtype=np.float64), lhs, rhs, rel],
                          "level,lhs,rhs,rel_err")
    assert out.read_bytes() == want


@pytest.mark.parametrize("grid_level", LEVELS)
def test_path_json_matches_json_dump(grid_level, tmp_path):
    x = rv.Path(grid_level=grid_level, samples=_column((1 << grid_level) + 1, grid_level),
                label="fbm(H=0.4) é\"\\")
    out = tmp_path / "x.json"
    rv.write_path_json(x, out)
    doc = {"grid_level": x.grid_level, "samples": x.samples.tolist(), "label": x.label}
    assert out.read_bytes() == _json_dump_bytes(tmp_path, doc)


# a level-4 path's 17 rows against blocks of 18, 17, 16 and 8 rows: B - 1, B,
# B + 1 and 2B + 1 rows
@pytest.mark.parametrize("block", [18, 17, 16, 8])
def test_path_writers_across_patched_block_sizes(block, tmp_path):
    x = rv.Path(grid_level=4, samples=_column(17, 4), label="x")
    with mock.patch.object(grid, "_WRITE_BLOCK", block):
        rv.write_path_csv(x, tmp_path / "x.csv")
        rv.write_path_json(x, tmp_path / "x.json")
    assert (tmp_path / "x.csv").read_bytes() == _savetxt_bytes(
        tmp_path, [x.times, x.samples], "t,value")
    doc = {"grid_level": 4, "samples": x.samples.tolist(), "label": "x"}
    assert (tmp_path / "x.json").read_bytes() == _json_dump_bytes(tmp_path, doc)


@pytest.mark.parametrize("write", [rv.write_path_csv, rv.write_path_json],
                         ids=["csv", "json"])
def test_level_20_write_holds_a_tenth_of_the_path(write, tmp_path):
    # one block's floats, text and row tuple: measured 0.068 and 0.078 of
    # the path's 8 MiB; with 2**16-row blocks 1.08 (CSV) and 1.02 (JSON)
    x = rv.takagi_path(0.5, 20)
    tracemalloc.start()
    try:
        write(x, tmp_path / "x")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * x.samples.nbytes, peak / x.samples.nbytes


def test_path_json_is_encoded_in_blocks(tmp_path):
    # the samples are encoded a block at a time; encoding all 2**18 at once
    # holds about 18 MB of float objects and strings
    x = rv.takagi_path(0.5, 18)
    tracemalloc.start()
    try:
        rv.write_path_json(x, tmp_path / "x.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6, peak


def test_coefficients_json_matches_json_dump(tmp_path):
    theta = tuple(_column(1 << m, m) for m in range(12))
    c = rv.SchauderCoefficients(max_level=12, theta=theta, label="random θ")
    out = tmp_path / "c.json"
    rv.write_coefficients_json(c, out)
    doc = {"max_level": c.max_level, "theta": [row.tolist() for row in c.theta],
           "label": c.label}
    assert out.read_bytes() == _json_dump_bytes(tmp_path, doc)
