"""End-to-end command-line tests (in-process, exit codes and artifacts)."""

import argparse
import hashlib
import json
import os
import pathlib
import platform
import re
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import roughvar as rv
from roughvar import cli, schauder
from roughvar.cli import build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(capsys, *argv):
    rc, out, err = run(capsys, "--json", *argv)
    assert rc == 0, err
    return json.loads(out)


@pytest.fixture()
def takagi_csv(tmp_path, capsys):
    name = str(tmp_path / "takagi.csv")
    rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5",
                     "--level", "12", "--out", name)
    assert rc == 0, err
    return name


class TestGen:
    def test_csv_output_with_manifest(self, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc, stdout, _ = run(capsys, "gen", "--kind", "takagi", "--H", "0.5",
                            "--level", "8", "--out", str(out))
        assert rc == 0
        assert "level 8" in stdout
        x = rv.read_path_csv(out)
        assert x.grid_level == 8
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert manifest["config"] == {"kind": "takagi", "out": str(out), "H": 0.5, "level": 8,
                                      "signs": "plus", "max_level": None}
        assert manifest["generator"]["kind"] == "takagi"
        assert manifest["versions"] == {"python": platform.python_version(),
                                        "numpy": np.__version__,
                                        "roughvar": rv.__version__}
        assert manifest["timings"]["total_s"] >= 0.0

    def test_json_output_round_trips(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc, _, _ = run(capsys, "gen", "--kind", "fbm", "--H", "0.3",
                       "--level", "9", "--seed", "5", "--out", str(out))
        assert rc == 0
        x = rv.read_path_json(out)
        direct = rv.fbm_path(0.3, 9, seed=5)
        np.testing.assert_array_equal(x.samples, direct.samples)
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["generator"]["generator_version"] == "4"

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_gen_level_17_reads_back_bitwise(self, suffix, tmp_path, capsys):
        out = tmp_path / f"p{suffix}"
        rc, _, err = run(capsys, "gen", "--kind", "fbm", "--H", "0.4",
                         "--level", "17", "--seed", "3", "--out", str(out))
        assert rc == 0, err
        x = (rv.read_path_json if suffix == ".json" else rv.read_path_csv)(out)
        np.testing.assert_array_equal(x.samples, rv.fbm_path(0.4, 17, seed=3).samples)

    def test_gz_name_round_trips_as_plain_text(self, tmp_path, capsys):
        """``gen`` writes plain text under a ``.gz`` name and ``pvar`` reads it so."""
        terminals = []
        for name in ("z.csv", "z.csv.gz"):
            out = str(tmp_path / name)
            rc, _, err = run(capsys, "gen", "--kind", "fbm", "--H", "0.4",
                             "--level", "10", "--seed", "2", "--out", out)
            assert rc == 0, err
            rc, stdout, err = run(capsys, "--json", "pvar", "--in", out, "--p", "2.5")
            assert rc == 0, err
            terminals.append([r["terminal"] for r in json.loads(stdout)["per_level"]])
        assert (tmp_path / "z.csv").read_bytes() == (tmp_path / "z.csv.gz").read_bytes()
        assert terminals[0] == terminals[1]

    def test_custom_schauder_kind(self, tmp_path, capsys):
        coeffs = schauder.takagi_coefficients(0.5, 6)
        cfile = tmp_path / "c.json"
        schauder.write_coefficients_json(coeffs, cfile)
        out = tmp_path / "p.csv"
        rc, _, err = run(capsys, "gen", "--kind", "custom_schauder",
                         "--coeffs-file", str(cfile), "--level", "8",
                         "--out", str(out))
        assert rc == 0, err
        assert rv.read_path_csv(out).grid_level == 8
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["inputs"] == {str(cfile): _sha256_of(cfile)}

    def test_missing_required_generator_flag(self, capsys, tmp_path):
        rc, _, err = run(capsys, "gen", "--kind", "fbm", "--level", "8",
                         "--out", str(tmp_path / "p.csv"))
        assert rc == 1
        assert "requires --H" in err

    @pytest.mark.parametrize("argv,message", [
        (("--kind", "counterexample"), "--kind counterexample requires --nmax"),
        (("--kind", "custom_schauder", "--level", "8"),
         "--kind custom_schauder requires --coeffs-file"),
        (("--kind", "takagi", "--H", "0.5"), "--kind takagi requires --level"),
        (("--kind", "smooth"), "--kind smooth requires --level"),
    ])
    def test_each_kind_names_its_missing_flag(self, argv, message, tmp_path, capsys):
        out = tmp_path / "p.csv"
        rc, _, err = run(capsys, "gen", *argv, "--out", str(out))
        assert rc == 1
        assert err == f"error: {message}\n"
        assert not out.exists()

    # levels past 7 see the takagi truncation at coefficient level 6
    @pytest.mark.parametrize("argv,levels,generator,path", [
        (("--kind", "takagi", "--H", "0.5", "--level", "10", "--max-level", "6"),
         (4, 10), {"grid_level": 10, "params": {"signs": "plus", "max_level": 6}},
         lambda: rv.takagi_path(0.5, 10, max_level=6)),
        (("--kind", "counterexample", "--nmax", "3"),
         (1, 6), {"grid_level": None, "params": {"n_max": 3}},
         lambda: rv.counterexample_path(3)),
    ])
    def test_inline_generator_params_reach_the_manifest(self, argv, levels, generator,
                                                        path, tmp_path, capsys):
        out = tmp_path / "pvar.json"
        rc, _, err = run(capsys, "pvar", *argv, "--p", "2",
                         "--levels", "%d:%d" % levels, "--out", str(out))
        assert rc == 0, err
        got = json.loads((tmp_path / "pvar.manifest.json").read_text())["generator"]
        assert {key: got[key] for key in generator} == generator
        expect = rv.variation._level_terminals(
            path(), list(range(levels[0], levels[1] + 1)), "pth")
        assert json.loads(out.read_text())["terminals"] == expect

    @pytest.mark.parametrize("flag", ["--amplitude", "--freq"])
    def test_explicit_zero_smooth_flag_gives_zero_path(self, flag, tmp_path, capsys):
        out = tmp_path / "zero.csv"
        rc, _, err = run(capsys, "gen", "--kind", "smooth", "--level", "4",
                         flag, "0", "--out", str(out))
        assert rc == 0, err
        x = rv.read_path_csv(out)
        assert x.samples.size == 17
        assert np.all(x.samples == 0.0)
        manifest = json.loads((tmp_path / "zero.manifest.json").read_text())
        assert manifest["generator"]["params"][flag[2:]] == 0.0

    def test_bad_coeffs_exits_one(self, tmp_path, capsys):
        rc, _, err = run(capsys, "gen", "--kind", "smooth", "--smooth-kind", "poly",
                         "--coeffs", "1,x", "--level", "4",
                         "--out", str(tmp_path / "p.csv"))
        assert rc == 1
        assert err.startswith("error: bad --coeffs '1,x'")

    @pytest.mark.parametrize("argv", [
        ("gen", "--kind", "smooth", "--level", "4", "--coeffs", "1e308,1e308",
         "--out", "p.csv"),
        ("invariance", "--kind", "takagi", "--H", "0.5", "--level", "8", "--p", "2",
         "--coeffs", "0,5", "--out", "i.json"),
        ("invariance", "--in", "missing.csv", "--p", "2", "--smooth-kind", "sine",
         "--coeffs", "0,5", "--out", "i.json"),
    ], ids=["gen", "invariance", "before_the_read"])
    def test_coeffs_without_poly_exits_one(self, argv, tmp_path, monkeypatch, capsys):
        # the sine shape ignored the coefficients: gen wrote a sine labelled
        # sine(amp=1.0, freq=1.0), and invariance perturbed by that sine
        monkeypatch.chdir(tmp_path)
        rc, out, err = run(capsys, *argv)
        assert rc == 1 and out == ""
        assert err == ("error: --coeffs is read only with --smooth-kind poly, "
                       "not --smooth-kind sine\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("gen", "--kind", "fbm", "--H", "0.5", "--level", "4", "--out", "p.csv"),
        ("pvar", "--kind", "takagi", "--signs", "random", "--H", "0.5", "--level", "6",
         "--p", "2", "--out", "p.json"),
        ("roughness", "--kind", "fbm", "--H", "0.5", "--level", "8", "--out", "p.json"),
    ])
    def test_negative_seed_exits_one_naming_the_flag(self, argv, tmp_path, monkeypatch,
                                                     capsys):
        monkeypatch.chdir(tmp_path)
        rc, _, err = run(capsys, *argv, "--seed", "-1")
        assert rc == 1
        assert err.startswith("error: --seed must be a non-negative integer")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("--kind", "takagi", "--H", "0.5", "--level", "6", "--signs", "random"),
        ("--kind", "fbm", "--H", "0.5", "--level", "6"),
    ])
    def test_seedless_draw_is_reproducible_and_recorded_as_seed_zero(
            self, argv, tmp_path, capsys):
        names = [str(tmp_path / f"{i}.csv") for i in range(3)]
        for name, seed in zip(names, ([], [], ["--seed", "0"])):
            rc, _, err = run(capsys, "gen", *argv, *seed, "--out", name)
            assert rc == 0, err
        data = [pathlib.Path(name).read_bytes() for name in names]
        assert data[0] == data[1] == data[2]
        manifest = json.loads((tmp_path / "0.manifest.json").read_text())
        assert manifest["config"]["seed"] == manifest["generator"]["seed"] == 0

    def test_manifest_records_the_peak_resident_set(self, tmp_path, capsys):
        rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5", "--level", "8",
                         "--out", str(tmp_path / "p.csv"))
        assert rc == 0, err
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert isinstance(manifest["peak_rss_mib"], float)
        assert manifest["peak_rss_mib"] > 0.0

    def test_unwritable_output_location(self, capsys):
        rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5",
                         "--level", "6", "--out", "/nonexistent/dir/p.csv")
        assert rc == 3
        assert "error:" in err


class TestProfileCommands:
    def test_pvar_human_output(self, takagi_csv, capsys):
        rc, out, _ = run(capsys, "pvar", "--in", takagi_csv, "--p", "2",
                         "--levels", "2:8")
        assert rc == 0
        assert out.count("pvar: level") == 7
        assert "classification: finite_positive" in out

    def test_sqv_json_payload_and_closed_form(self, takagi_csv, capsys):
        doc = run_json(capsys, "sqv", "--in", takagi_csv, "--p", "2",
                       "--levels", "2:10")
        assert doc["command"] == "sqv"
        assert doc["levels"] == list(range(2, 11))
        for n, v in zip(doc["levels"], doc["terminals"]):
            assert abs(v - (1.0 - 2.0 ** -n)) < 1e-12
        assert doc["limit_report"]["classification"] == "finite_positive"
        assert doc["per_level"][0]["source_mode"] == "finest_level"

    def test_sqv_at_the_grid_level_equals_pvar(self, takagi_csv, capsys):
        # a grid block's finest-level weight is its own |dx|**p
        a = run_json(capsys, "sqv", "--in", takagi_csv, "--p", "2.5",
                     "--levels", "10:12")
        b = run_json(capsys, "pvar", "--in", takagi_csv, "--p", "2.5",
                     "--levels", "10:12")
        np.testing.assert_allclose(a["terminals"][-1], b["terminals"][-1], rtol=1e-12)

    def test_classical_command(self, takagi_csv, capsys):
        doc = run_json(capsys, "classical", "--in", takagi_csv, "--gamma", "0",
                       "--levels", "2:8")
        for n, v in zip(doc["levels"], doc["terminals"]):
            assert abs(v - (1.0 - 2.0 ** -n)) < 1e-12

    def test_classical_gamma_zero_equals_pvar_two_bitwise(self, capsys):
        path = ("--kind", "takagi", "--H", "0.5", "--level", "14",
                "--signs", "random", "--seed", "11")
        a = run_json(capsys, "classical", *path, "--gamma", "0", "--levels", "4:14")
        b = run_json(capsys, "pvar", *path, "--p", "2", "--levels", "4:14")
        assert a["levels"] == b["levels"]
        assert a["terminals"] == b["terminals"]

    def test_window_full_uses_every_level(self, takagi_csv, capsys):
        doc = run_json(capsys, "pvar", "--in", takagi_csv, "--p", "2",
                       "--levels", "2:10", "--window", "full")
        assert doc["limit_report"]["window"] == 9

    def test_default_window_is_four(self, takagi_csv, capsys):
        doc = run_json(capsys, "pvar", "--in", takagi_csv, "--p", "2",
                       "--levels", "2:10")
        assert doc["limit_report"]["window"] == 4

    @pytest.mark.parametrize("window,size", [(None, 4), ("3", 3), ("full", 9)])
    def test_window_sets_the_tail_of_the_estimates(self, window, size, capsys):
        # random signs: the terminals are not monotone, so each tail has its
        # own extremes
        argv = ["pvar", "--kind", "takagi", "--H", "0.5", "--level", "12",
                "--signs", "random", "--seed", "4", "--p", "2.5", "--levels", "2:10"]
        doc = run_json(capsys, *argv, *(("--window", window) if window else ()))
        rep, tail = doc["limit_report"], doc["terminals"][-size:]
        assert rep["window"] == size
        assert (rep["limsup_est"], rep["liminf_est"]) == (max(tail), min(tail))

    def test_profiles_out_writes_per_level_files(self, takagi_csv, tmp_path,
                                                 capsys):
        prof_dir = tmp_path / "profiles"
        rc, _, err = run(capsys, "sqv", "--in", takagi_csv, "--p", "2",
                         "--levels", "4:7", "--profiles-out", str(prof_dir))
        assert rc == 0, err
        csvs = sorted(f.name for f in prof_dir.glob("*.csv"))
        assert csvs == ["sqv_level04.csv", "sqv_level05.csv",
                        "sqv_level06.csv", "sqv_level07.csv"]
        back = rv.read_profile_csv(prof_dir / "sqv_level06.csv")
        assert back.level == 6
        assert abs(back.terminal - (1.0 - 2.0 ** -6)) < 1e-12

    @pytest.mark.parametrize("argv", [
        ("pvar", "--p", "2.5"),
        ("sqv", "--p", "2.5"),
        ("sqv", "--p", "1.5"),
        ("sqv", "--p", "3", "--src", "analytic", "--analytic-c", "0.7"),
        ("classical", "--gamma", "-0.2"),
    ])
    def test_profile_sidecars_end_on_the_per_level_terminals(self, argv, tmp_path,
                                                             capsys):
        prof_dir = tmp_path / "profiles"
        doc = run_json(capsys, *argv, "--kind", "fbm", "--H", "0.4", "--level", "16",
                       "--seed", "0", "--levels", "6:16",
                       "--profiles-out", str(prof_dir))
        for meta in doc["per_level"]:
            stem = prof_dir / f"{argv[0]}_level{meta['level']:02d}"
            assert json.loads(stem.with_suffix(".meta.json").read_text()) == meta
            assert rv.read_profile_csv(stem.with_suffix(".csv")).terminal == meta["terminal"]

    def test_sqv_profiles_are_the_public_profiles_bitwise(self, tmp_path, capsys):
        # level 17 is two tiles of the pass; its coarse levels take stored weights
        prof_dir = tmp_path / "profiles"
        run_json(capsys, "sqv", "--p", "1.7", "--kind", "fbm", "--H", "0.4",
                 "--level", "17", "--seed", "0", "--levels", "0:17",
                 "--profiles-out", str(prof_dir))
        x = rv.fbm_path(0.4, 17, seed=0)
        for n in range(18):
            back = rv.read_profile_csv(prof_dir / f"sqv_level{n:02d}.csv")
            want = rv.scaled_qv(x, rv.dyadic_partition(n, 17), 1.7)
            assert back.values.tobytes() == want.values.tobytes(), n

    def test_report_json_is_byte_stable(self, takagi_csv, tmp_path, capsys):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc, _, _ = run(capsys, "sqv", "--in", takagi_csv, "--p", "2.5",
                           "--levels", "4:9", "--out", str(out))
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_inline_generation_matches_file_input(self, takagi_csv, capsys):
        a = run_json(capsys, "pvar", "--in", takagi_csv, "--p", "3",
                     "--levels", "4:8")
        b = run_json(capsys, "pvar", "--kind", "takagi", "--H", "0.5",
                     "--level", "12", "--p", "3", "--levels", "4:8")
        assert a["terminals"] == b["terminals"]

    def test_validation_failures_exit_one(self, takagi_csv, capsys):
        cases = [
            ("pvar", "--in", takagi_csv),                          # no --p
            ("pvar", "--p", "2"),                                  # no input
            ("pvar", "--in", takagi_csv, "--p", "2", "--levels", "9:2"),
            ("pvar", "--in", takagi_csv, "--p", "2", "--levels", "2:14"),
            ("pvar", "--in", takagi_csv, "--p", "2", "--window", "xyz"),
            ("sqv", "--in", takagi_csv, "--p", "2", "--src", "analytic"),
        ]
        for argv in cases:
            rc, _, err = run(capsys, *argv)
            assert rc == 1, argv
            assert err.startswith("error:")

    def test_zero_time_in_row_one_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0,0\n0,1\n1,2\n")
        rc, _, err = run(capsys, "pvar", "--in", str(bad), "--p", "2")
        assert rc == 3
        assert err == f"error: path CSV {bad}: time column is not the dyadic grid\n"

    def test_unreadable_input_exits_three(self, tmp_path, capsys):
        rc, _, err = run(capsys, "pvar", "--in", str(tmp_path / "nope.csv"),
                         "--p", "2")
        assert rc == 3
        bad = tmp_path / "bad.csv"
        bad.write_text("t,value\n0,zero\n")
        rc, _, err = run(capsys, "pvar", "--in", str(bad), "--p", "2")
        assert rc == 3
        assert "error:" in err


    def test_header_only_input_exits_three_without_warning(self, tmp_path, capsys,
                                                           recwarn):
        empty = tmp_path / "h.csv"
        empty.write_text("t,value\n")
        rc, _, err = run(capsys, "pvar", "--in", str(empty), "--p", "2")
        assert rc == 3
        assert "has no data rows" in err
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("doc", [{"grid_level": 1, "samples": [0, 1]},
                                     {"grid_level": -1, "samples": [0, 1]},
                                     {"grid_level": 1.9, "samples": [0, 0.5, 1]},
                                     {"grid_level": True, "samples": [0, 0.5, 1]}])
    def test_json_path_with_wrong_sample_count_exits_three(self, doc, tmp_path,
                                                           capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc, _, err = run(capsys, "pvar", "--in", str(bad), "--p", "2")
        assert rc == 3
        assert err.startswith("error:")


# the subcommands that take --src, with the flags each needs besides
SRC_COMMANDS = [("sqv", ["--p", "3"]), ("roughness", []), ("isometry", ["--p", "2"]),
                ("invariance", ["--p", "2"])]


class TestExponentsAndUsage:
    @pytest.mark.parametrize("argv", [("sqv", "--p", "0"), ("sqv", "--p", "nan"),
                                      ("sqv", "--p", "inf"), ("pvar", "--p", "nan"),
                                      ("classical", "--gamma", "nan")])
    def test_zero_or_non_finite_exponent_exits_one(self, argv, capsys):
        rc, out, err = run(capsys, argv[0], "--kind", "fbm", "--H", "0.4",
                           "--level", "12", "--seed", "1", *argv[1:])
        assert rc == 1
        assert err.startswith("error:") and "must be" in err
        assert out == ""

    @pytest.mark.parametrize("flag", [("--gamma", "-1e-3"), ("--gamma=-1e-3",),
                                      ("--gamma", "-1E-3"), ("--gamma", "-.001")])
    def test_negative_float_flag_values_parse(self, flag, capsys):
        doc = run_json(capsys, "classical", "--kind", "takagi", "--H", "0.5",
                       "--level", "8", "--levels", "2:6", *flag)
        assert doc["per_level"][0]["gamma"] == -1e-3

    @pytest.mark.parametrize("flag", [("--gamma", "-inf"), ("--gamma=-inf",),
                                      ("--gamma", "-Infinity")])
    def test_negative_infinite_flag_value_is_a_validation_error(self, flag, capsys):
        rc, out, err = run(capsys, "classical", "--kind", "takagi", "--H", "0.5",
                           "--level", "8", "--levels", "2:6", *flag)
        assert rc == 1
        assert err == "error: gamma must be finite, got -inf\n" and out == ""

    @pytest.mark.parametrize("command, p", [("sqv", "3"), ("sqv", "2"), ("isometry", "2"),
                                            ("invariance", "2")])
    @pytest.mark.parametrize("c", ["nan", "inf", "-inf", "-1"])
    def test_non_finite_analytic_constant_exits_one(self, command, p, c, capsys):
        # C*t is NaN at t = 0 for the non-finite C; NaN weights once gave
        # terminals of 0 and a "vanishing" verdict.  At p = 2 no weight is
        # read, and these exited 0 recording src_mode "analytic"
        rc, out, err = run(capsys, command, "--kind", "fbm", "--H", "0.4",
                           "--level", "12", "--seed", "1", "--p", p,
                           "--src", "analytic", "--analytic-c", c)
        assert rc == 1
        assert err == ("error: analytic_fn must be nondecreasing\n" if c == "-1" else
                       "error: analytic_fn must be finite, got nan at t=0.0\n")
        assert out == ""

    @pytest.mark.parametrize("command,flags", SRC_COMMANDS)
    @pytest.mark.parametrize("src", [[], ["--src", "finest"]])
    def test_analytic_constant_without_analytic_source_exits_one(
            self, command, flags, src, tmp_path, capsys):
        # a constant that the chosen source would not read is an error, not
        # ignored, and is found before the input is read (a missing file exits 3)
        rc, out, err = run(capsys, command, "--in", str(tmp_path / "missing.csv"),
                           "--levels", "4:8", *flags, *src,
                           "--analytic-c", "5", "--out", str(tmp_path / "r.json"))
        assert rc == 1 and out == ""
        mode = src[1] if src else "finest"
        assert err == ("error: --analytic-c is read only with --src analytic, "
                       f"not --src {mode}\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flags", SRC_COMMANDS)
    def test_removed_self_source_is_a_usage_error(self, command, flags, tmp_path):
        proc = _cli([command, "--kind", "takagi", "--H", "0.5", "--level", "8",
                     "--levels", "4:6", *flags, "--src", "self",
                     "--out", str(tmp_path / "r.json")])
        err = proc.stderr.decode()
        assert proc.returncode == 1 and proc.stdout == b""
        assert err.startswith("usage: ") and "Traceback" not in err
        assert err.endswith(f"{command}: error: argument --src: invalid choice: "
                            "'self' (choose from 'finest', 'analytic')\n")
        assert not list(tmp_path.iterdir())

    def test_usage_error_exits_one(self, capsys):
        # argparse takes "-1:4" for an option; 2 is the numerical-failure code
        with pytest.raises(SystemExit) as exc:
            main(["pvar", "--kind", "takagi", "--H", "0.5", "--level", "8",
                  "--p", "2", "--levels", "-1:4"])
        assert exc.value.code == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pvar", "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


class TestRoughnessCommand:
    def test_search_payload_and_per_q_csv(self, takagi_csv, tmp_path, capsys):
        per_q = tmp_path / "per_q.csv"
        out = tmp_path / "rough.json"
        rc, _, err = run(capsys, "--json", "roughness", "--in", takagi_csv,
                         "--levels", "6:10", "--iters", "6",
                         "--per-q-out", str(per_q), "--out", str(out))
        assert rc == 0, err
        doc = json.loads(out.read_text())
        assert abs(doc["p_bar_est"] - 2.0) < 0.05
        lines = per_q.read_text().strip().splitlines()
        assert lines[0] == "q,classification," + ",".join(
            f"level_{n}" for n in range(6, 11))
        assert len(lines) == 1 + len(doc["per_q"])

    def test_unbracketable_path_exits_two_with_evidence(self, capsys):
        rc, _, err = run(capsys, "roughness", "--kind", "smooth",
                         "--level", "12", "--levels", "6:10")
        assert rc == 2
        assert "error:" in err
        evidence = json.loads(err.split("\n", 1)[1])
        assert len(evidence["evidence"]) == 2


    @pytest.mark.parametrize("H, level, seed", [("0.3", "16", "0"), ("0.35", "16", "0"),
                                                ("0.4", "14", "7")])
    def test_finite_positive_high_endpoint_is_extended(self, H, level, seed, capsys):
        # these exited 2 with a bracket error while q = 4 was the high endpoint
        doc = run_json(capsys, "roughness", "--kind", "fbm", "--H", H,
                       "--level", level, "--seed", seed)
        assert abs(doc["hurst_est"] - float(H)) <= 0.04
        assert 8.0 in [rec["q"] for rec in doc["per_q"]]
        assert len(doc["per_q"]) <= doc["iters"] + 3


class TestTwoSidedCommands:
    def test_isometry_writes_json_csv_manifest(self, takagi_csv, tmp_path,
                                               capsys):
        out = tmp_path / "iso.json"
        rc, stdout, err = run(capsys, "isometry", "--in", takagi_csv,
                              "--p", "2", "--map", "square_plus_one",
                              "--levels", "6:10", "--out", str(out))
        assert rc == 0, err
        assert "success=True" in stdout
        doc = json.loads(out.read_text())
        assert doc["command"] == "isometry" and doc["success"]
        csv_lines = (tmp_path / "iso.csv").read_text().strip().splitlines()
        assert csv_lines[0] == "level,lhs,rhs,rel_err"
        assert len(csv_lines) == 1 + 5
        assert (tmp_path / "iso.manifest.json").exists()

    @pytest.mark.parametrize("command", ["isometry", "chainrule", "invariance"])
    def test_report_named_like_its_table_exits_one(self, command, takagi_csv,
                                                   tmp_path, capsys):
        # the per-level table is --out with a .csv extension: it would
        # overwrite a report JSON named r.csv
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "r.csv"
        rc, _, err = run(capsys, command, "--in", takagi_csv, "--p", "2",
                         "--levels", "6:10", "--out", str(out))
        assert rc == 1
        assert err.startswith(f"error: --out {out} is also the per-level table's name")
        assert list((tmp_path / "out").iterdir()) == []

    def test_chainrule_command(self, takagi_csv, capsys):
        doc = run_json(capsys, "chainrule", "--in", takagi_csv, "--p", "2",
                       "--map", "sin", "--levels", "6:10")
        assert doc["kind"] == "chain_rule"
        assert doc["success"]

    def test_map_file_builds_spline_map(self, takagi_csv, tmp_path, capsys):
        u = np.linspace(-2.0, 2.0, 201)
        table = tmp_path / "sin_table.csv"
        np.savetxt(table, np.column_stack([u, np.sin(u)]), delimiter=",",
                   header="u,f", comments="")
        doc = run_json(capsys, "chainrule", "--in", takagi_csv, "--p", "2",
                       "--map-file", str(table), "--levels", "6:10")
        assert doc["map_id"] == "sin_table"
        assert doc["success"]

    @pytest.mark.parametrize("text", ["u,f\n", "u\n0\n1\n"])
    def test_map_table_without_two_columns_of_data_exits_three(
            self, text, takagi_csv, tmp_path, capsys, recwarn):
        table = tmp_path / "table.csv"
        table.write_text(text)
        rc, _, err = run(capsys, "chainrule", "--in", takagi_csv, "--p", "2",
                         "--map-file", str(table), "--levels", "6:10")
        assert rc == 3
        assert err.startswith("error:")
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]

    @pytest.mark.parametrize("rows", [
        ["0,0", "1,1", "0.5,0.2", "2,4", "3,9"],
        ["0,0", "1,1", "1,1", "2,4", "3,9"],
        ["0,0", "1,1", "2,nan", "3,9", "4,16"],
    ])
    @pytest.mark.parametrize("command", ["isometry", "chainrule"])
    def test_malformed_map_table_exits_one(self, command, rows, takagi_csv,
                                           tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("u,f\n" + "\n".join(rows) + "\n")
        rc, _, err = run(capsys, command, "--in", takagi_csv, "--p", "2",
                         "--map-file", str(table), "--levels", "6:10")
        assert rc == 1
        assert err.startswith("error: tabulated map table")

    def test_path_leaving_the_map_table_is_warned(self, takagi_csv, tmp_path,
                                                  capsys):
        u = np.linspace(-0.05, 0.05, 21)
        table = tmp_path / "narrow.csv"
        np.savetxt(table, np.column_stack([u, np.sin(u)]), delimiter=",",
                   header="u,f", comments="")
        rc, out, err = run(capsys, "isometry", "--in", takagi_csv, "--p", "2",
                           "--map-file", str(table), "--levels", "6:10")
        assert rc == 0, err
        assert ("warning: path samples span [0, 1.12241], outside map narrow's "
                "table [-0.05, 0.05]") in out

    def test_invariance_with_builtin_sine(self, takagi_csv, capsys):
        doc = run_json(capsys, "invariance", "--in", takagi_csv, "--p", "2",
                       "--amplitude", "0.5", "--levels", "6:10")
        assert doc["kind"] == "invariance"
        assert doc["success"]
        assert doc["rel_err"][-1] < 0.05

    def test_invariance_with_bad_coeffs_exits_one(self, takagi_csv, capsys):
        rc, _, err = run(capsys, "invariance", "--in", takagi_csv, "--p", "2",
                         "--smooth-kind", "poly", "--coeffs", "1,x",
                         "--levels", "6:10")
        assert rc == 1
        assert err.startswith("error: bad --coeffs '1,x'")

    @pytest.mark.parametrize("argv, side", [
        (["invariance", "--kind", "takagi", "--H", "0.5", "--level", "12", "--p", "2",
          "--amplitude", "1e308"], "invariance lhs"),
        (["isometry", "--kind", "fbm", "--H", "0.4", "--level", "12", "--seed", "1",
          "--p", "2", "--map", "affine:1e308,0"], "isometry lhs"),
    ])
    def test_side_that_overflows_exits_two(self, argv, side):
        proc = _cli(argv)
        assert proc.returncode == 2, proc.stderr
        assert f"error: {side} terminal at level 6 is inf, not finite" in proc.stderr.decode()
        assert proc.stdout == b""

    @pytest.mark.parametrize("argv", [
        ["invariance", "--kind", "takagi", "--H", "0.5", "--level", "12", "--p", "2",
         "--amplitude", "1e300"],
        ["isometry", "--kind", "takagi", "--H", "0.5", "--level", "12", "--p", "2",
         "--map", "affine:1e308,0"],
    ])
    def test_side_that_overflows_prints_only_its_error(self, argv):
        # two numpy overflow warnings came before the error
        proc = _cli(argv)
        assert proc.returncode == 2
        assert proc.stderr.decode() == (f"error: {argv[0]} lhs terminal at level 6 is inf, "
                                        "not finite\n")

    @pytest.mark.parametrize("flag, value", [("--freq", "inf"), ("--amplitude", "nan"),
                                             ("--coeffs", "1,inf")])
    def test_nonfinite_perturbation_exits_one_before_evaluating(self, flag, value):
        proc = _cli(["invariance", "--kind", "takagi", "--H", "0.5", "--level", "8",
                     "--p", "2", *(["--smooth-kind", "poly"] if flag == "--coeffs" else []),
                     f"{flag}={value}"])
        assert proc.returncode == 1
        name = {"--freq": "freq", "--amplitude": "amplitude", "--coeffs": "coeffs"}[flag]
        assert proc.stderr.decode().startswith(f"error: perturbation {name} must be finite")
        assert "Warning" not in proc.stderr.decode()

    def test_verdict_without_an_error_trend_prints_as_json(self, takagi_csv, capsys):
        doc = run_json(capsys, "chainrule", "--in", takagi_csv, "--p", "2",
                       "--map", "sin", "--levels", "0:1")
        assert doc["success"] is False and np.isnan(doc["err_trend_slope"])

    def test_invariance_with_perturbation_file(self, takagi_csv, tmp_path,
                                               capsys):
        pert = tmp_path / "pert.csv"
        rc, _, _ = run(capsys, "gen", "--kind", "smooth", "--level", "12",
                       "--amplitude", "0.25", "--out", str(pert))
        assert rc == 0
        doc = run_json(capsys, "invariance", "--in", takagi_csv, "--p", "2",
                       "--perturb-in", str(pert), "--levels", "6:10")
        assert doc["success"]


    def test_perturbation_file_reads_as_csv_or_json(self, takagi_csv, tmp_path,
                                                    capsys):
        docs = []
        for suffix in (".csv", ".json"):
            pert = tmp_path / ("pert" + suffix)
            rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5",
                             "--level", "12", "--signs", "alternating",
                             "--out", str(pert))
            assert rc == 0, err
            docs.append(run_json(capsys, "invariance", "--in", takagi_csv,
                                 "--p", "2", "--perturb-in", str(pert),
                                 "--levels", "6:10"))
        # the map id is the perturbation's label: the CSV file's base name,
        # or the label stored in the JSON file
        assert docs[0].pop("map_id") == "pert.csv"
        assert docs[1].pop("map_id") == "takagi(H=0.5, signs=alternating)"
        assert docs[0] == docs[1]

    def test_perturbation_csv_map_id_is_independent_of_working_directory(
            self, takagi_csv, tmp_path, capsys, monkeypatch):
        sub = tmp_path / "sub"
        sub.mkdir()
        rc, _, err = run(capsys, "gen", "--kind", "smooth", "--level", "12",
                         "--amplitude", "0.25", "--out", str(sub / "pert.csv"))
        assert rc == 0, err
        ids = []
        for cwd, name in ((tmp_path, os.path.join("sub", "pert.csv")), (sub, "pert.csv")):
            monkeypatch.chdir(cwd)
            ids.append(run_json(capsys, "invariance", "--in", takagi_csv, "--p", "2",
                                "--perturb-in", name, "--levels", "6:10")["map_id"])
        assert ids == ["pert.csv", "pert.csv"]


class TestCounterexampleCommand:
    def test_artifacts_and_oscillation(self, tmp_path, capsys):
        out_dir = tmp_path / "cx"
        rc, stdout, err = run(capsys, "counterexample", "--nmax", "4",
                              "--out", str(out_dir))
        assert rc == 0, err
        assert "interleaved classification: oscillating" in stdout
        for name in ("path.csv", "coefficients.json", "report.json",
                     "manifest.json"):
            assert (out_dir / name).exists(), name
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["sn_levels"] == [1, 3, 6, 10]
        np.testing.assert_allclose(doc["sn_terminals"], [1.0, 2.0, 3.0, 4.0],
                                   atol=1e-9)
        np.testing.assert_allclose(doc["pre_terminals"],
                                   [0.0, 0.5, 0.5, 0.375], atol=1e-9)
        assert doc["reports"]["interleaved"]["classification"] == "oscillating"
        x = rv.read_path_csv(out_dir / "path.csv")
        assert x.grid_level == 10


    @pytest.mark.parametrize("nmax", ["-1", "0", "1", "2"])
    def test_fewer_than_three_bursts_exit_one(self, nmax, tmp_path, capsys):
        # two bursts gave "need at least 3 levels to diagnose, got 2"
        rc, _, err = run(capsys, "counterexample", "--nmax", nmax,
                         "--out", str(tmp_path / "cx"))
        assert rc == 1
        assert err == f"error: --nmax must be at least 3, got {nmax}\n"
        assert list(tmp_path.iterdir()) == []


class TestReportCommand:
    def test_bundles_and_headlines(self, takagi_csv, tmp_path, capsys):
        sqv_out = tmp_path / "sqv.json"
        rough_out = tmp_path / "rough.json"
        run(capsys, "sqv", "--in", takagi_csv, "--p", "2", "--levels", "4:9",
            "--out", str(sqv_out))
        run(capsys, "roughness", "--in", takagi_csv, "--levels", "6:10",
            "--iters", "4", "--out", str(rough_out))
        combined = tmp_path / "all.json"
        rc, stdout, err = run(capsys, "report", "--in", str(sqv_out),
                              str(rough_out), "--out", str(combined))
        assert rc == 0, err
        assert "classification=finite_positive" in stdout
        assert "p_bar_est=" in stdout
        doc = json.loads(combined.read_text())
        assert len(doc["reports"]) == 2
        assert {e["file"] for e in doc["reports"]} == {str(sqv_out),
                                                       str(rough_out)}

    def test_malformed_report_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "report", "--in", str(bad))
        assert rc == 3
        assert "error:" in err

    def test_non_object_report_exits_three(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        rc, _, err = run(capsys, "report", "--in", str(bad))
        assert rc == 3
        assert err.startswith("error:") and "not a JSON object" in err


def _tree(root):
    return {str(f.relative_to(root)): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


class TestNoFileWrittenTwice:
    """A command whose files share a name exits 1 before it writes any of them."""

    @pytest.fixture()
    def work(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        u = np.linspace(-2.0, 2.0, 41)
        np.savetxt("m.csv", np.column_stack([u, np.sin(u)]), delimiter=",",
                   header="u,f", comments="")
        schauder.write_coefficients_json(schauder.takagi_coefficients(0.5, 6), "c.json")
        os.symlink("p.csv", "q.csv")
        for argv in (["gen", "--kind", "takagi", "--H", "0.5", "--level", "12",
                      "--out", "p.csv"],
                     ["pvar", "--in", "p.csv", "--p", "2", "--out", "a.json"]):
            assert main(argv) == 0
        capsys.readouterr()
        return tmp_path

    @pytest.mark.parametrize("argv, clash", [
        (("pvar", "--in", "p.csv", "--p", "2", "--out", "p.csv"),
         "--in p.csv is also --out's name"),
        (("sqv", "--in", "q.csv", "--p", "2", "--out", "./p.csv"),
         "--in q.csv is also --out's name"),
        (("invariance", "--in", "p.csv", "--p", "2", "--out", "p.json"),
         "--in p.csv is also the per-level table's name"),
        (("chainrule", "--in", "p.csv", "--p", "2", "--map-file", "m.csv",
          "--out", "m.json"), "--map-file m.csv is also the per-level table's name"),
        (("roughness", "--in", "p.csv", "--levels", "6:10", "--out", "r.json",
          "--per-q-out", "r.manifest.json"),
         "--per-q-out r.manifest.json is also the manifest's name"),
        (("roughness", "--in", "p.csv", "--levels", "6:10", "--out", "r.json",
          "--per-q-out", "r.json"), "--out r.json is also --per-q-out's name"),
        (("report", "--in", "a.json", "--out", "a.json"),
         "--in a.json is also --out's name"),
        (("gen", "--kind", "custom_schauder", "--coeffs-file", "c.json",
          "--level", "6", "--out", "c.json"), "--coeffs-file c.json is also --out's name"),
        (("pvar", "--in", "p.csv", "--p", "2", "--levels", "2:6", "--profiles-out", "d",
          "--out", "d/pvar_level04.csv"),
         "--out d/pvar_level04.csv is also a --profiles-out file's name"),
    ])
    def test_clash_exits_one_and_writes_nothing(self, argv, clash, work, capsys):
        before = _tree(work)
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert err.startswith(f"error: {clash}; ")
        assert _tree(work) == before

    @pytest.mark.parametrize("argv, message", [
        (("pvar", "--in", "p.csv", "--p", "2", "--levels", "2:4", "--profiles-out", "out",
          "--out", "out"), "--profiles-out out is also --out's name"),
        (("pvar", "--in", "p.csv", "--p", "2", "--levels", "2:4", "--profiles-out", "D",
          "--out", "D"), "--profiles-out D is also --out's name"),
        (("pvar", "--in", "p.csv", "--p", "2", "--levels", "2:4", "--profiles-out", "d",
          "--out", "D"), "--out D is a directory"),
        (("roughness", "--in", "p.csv", "--levels", "6:10", "--per-q-out", "q2.csv",
          "--out", "D"), "--out D is a directory"),
        (("roughness", "--in", "p.csv", "--levels", "6:10", "--per-q-out", "D",
          "--out", "r.json"), "--per-q-out D is a directory"),
        (("chainrule", "--in", "p.csv", "--p", "2", "--out", "D.json"),
         "the per-level table D.csv is a directory"),
    ])
    def test_output_named_by_a_directory_exits_one_and_writes_nothing(
            self, argv, message, work, capsys):
        (work / "D").mkdir()
        (work / "D.csv").mkdir()
        before = sorted(work.rglob("*"))
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert err.startswith(f"error: {message}")
        assert sorted(work.rglob("*")) == before

    def test_distinct_names_still_write(self, work, capsys):
        rc, _, err = run(capsys, "chainrule", "--in", "q.csv", "--p", "2",
                         "--map-file", "m.csv", "--levels", "6:10", "--out", "cr.json")
        assert rc == 0, err
        assert {"cr.json", "cr.csv", "cr.manifest.json"} <= set(_tree(work))


def _subparsers() -> dict:
    """Each subcommand's parser, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# A value for each flag that some input leaves unread.  --map-file and
# --perturb-in are read whenever they are given, in place of --map and the
# smooth shape, whose defaults the contexts below take.
_UNREAD_VALUE = {"infile": "path.csv", "kind": "fbm", "H": "0.5", "level": "6", "seed": "1",
                 "signs": "random", "max_level": "4", "nmax": "3", "smooth_kind": "poly",
                 "amplitude": "2", "freq": "2", "coeffs": "0,1", "coeffs_file": "c.json",
                 "analytic_c": "1", "map": "sin"}


def _contexts() -> list:
    """Every command with every input, alone and with each flag that adds to it.

    An input is a path file, or a generator with the flags it needs; the
    flags that add are ``--signs random``, ``--smooth-kind poly``, ``--src
    analytic``, ``--map-file`` and ``--perturb-in``.  No file named exists.
    """
    inputs = [("--in", "path.csv"), ("--kind", "fbm", "--H", "0.5", "--level", "6"),
              ("--kind", "takagi", "--H", "0.5", "--level", "6"),
              ("--kind", "takagi", "--H", "0.5", "--level", "6", "--signs", "random"),
              ("--kind", "counterexample", "--nmax", "3"), ("--kind", "smooth", "--level", "6"),
              ("--kind", "smooth", "--level", "6", "--smooth-kind", "poly"),
              ("--kind", "custom_schauder", "--level", "6", "--coeffs-file", "c.json")]
    extras = [(), ("--src", "analytic", "--analytic-c", "1"), ("--map-file", "map.csv"),
              ("--perturb-in", "pert.csv")]
    needs = {"gen": ("--out", "p.csv"), "classical": ("--gamma", "0"), "roughness": ()}
    contexts = []
    for command, parser in _subparsers().items():
        options = {opt for action in parser._actions for opt in action.option_strings}
        for inp in inputs:
            for extra in extras:
                argv = (command, *needs.get(command, ("--p", "2")), *inp, *extra)
                # invariance may read the smooth shape once only: tested below
                twice = (command == "invariance" and "smooth" in inp
                         and "--perturb-in" not in extra)
                if {a for a in argv if a.startswith("--")} <= options and not twice:
                    contexts.append(argv)
    return contexts


class TestFlagContract:
    """Every flag given is read, or the run exits 1 before it reads or writes a file."""

    @pytest.mark.parametrize("argv", _contexts(), ids=" ".join)
    def test_each_flag_its_input_does_not_read_exits_one(self, argv, tmp_path, monkeypatch,
                                                         capsys):
        monkeypatch.chdir(tmp_path)
        args = build_parser().parse_args(argv)
        cli._apply_contract(args)
        unread = [action for action in _subparsers()[argv[0]]._actions
                  if action.dest in cli._FLAGS and action.dest not in args.config
                  and action.dest not in ("map_file", "perturb_in")]
        assert unread
        for action in unread:
            flag = action.option_strings[0]
            rc, out, err = run(capsys, *argv, flag, _UNREAD_VALUE[action.dest])
            assert (rc, out) == (1, ""), (flag, err)
            assert err.startswith("error: --") and err.count("\n") == 1 and flag in err, err
            assert not list(tmp_path.iterdir())

    def test_every_flag_of_every_command_is_in_the_table(self):
        # a flag that no row reads would be accepted and ignored; one that a
        # command's rows name but its parser lacks would be read as None
        for command, parser in _subparsers().items():
            rows, reach = [command], set()
            for row in rows:
                for dest in re.findall(r"\w+", cli._READS[row]):
                    reach.add(dest)
                    rows += [key for key in cli._READS
                             if key.split()[0] == cli._flag(dest) and key not in rows]
            assert {action.dest for action in parser._actions} - {"help"} == reach, command

    @pytest.mark.parametrize("argv, message", [
        (("pvar", "--in", "f.csv", "--kind", "fbm", "--H", "0.3", "--level", "8", "--p", "2"),
         "--kind is not read with --in"),
        (("pvar", "--kind", "fbm", "--H", "0.5", "--level", "8", "--p", "2",
          "--signs", "random"), "--signs is read only with --kind takagi, not --kind fbm"),
        (("pvar", "--kind", "takagi", "--H", "0.5", "--level", "8", "--p", "2", "--nmax", "3"),
         "--nmax is read only with --kind counterexample, not --kind takagi"),
        (("pvar", "--kind", "takagi", "--H", "0.5", "--level", "8", "--p", "2",
          "--coeffs", "0,5", "--amplitude", "3"), "--amplitude is read only with --smooth-kind"),
        (("pvar", "--kind", "takagi", "--H", "0.5", "--level", "8", "--p", "2", "--seed", "4"),
         "--seed is read only with --kind fbm or --signs random, not --signs plus"),
        (("pvar", "--kind", "smooth", "--H", "0.3", "--level", "8", "--p", "2"),
         "--H is read only with --kind fbm or --kind takagi, not --kind smooth"),
        (("gen", "--kind", "smooth", "--smooth-kind", "poly", "--coeffs", "0,1", "--freq", "7",
          "--level", "4", "--out", "p.csv"),
         "--freq is read only with --smooth-kind sine, not --smooth-kind poly"),
        (("invariance", "--in", "f.csv", "--p", "2", "--perturb-in", "g.csv",
          "--coeffs", "1,2"), "--coeffs is read only with --smooth-kind poly"),
        (("isometry", "--in", "f.csv", "--p", "2", "--map", "sin", "--map-file", "t.csv"),
         "--map is not read with --map-file"),
        # gen said "--kind None requires --level", or "unknown generator kind None"
        (("gen", "--H", "0.5", "--level", "4", "--out", "p.csv"), "gen requires --kind"),
        # the shape flags set both the path and its perturbation, so A = x:
        # lhs was 4 times rhs, and the run exited 0
        (("invariance", "--kind", "smooth", "--level", "10", "--p", "2", "--amplitude", "3",
          "--smooth-kind", "poly", "--coeffs", "0,1"),
         "--smooth-kind is read with --kind smooth, so invariance requires --perturb-in"),
    ])
    def test_flag_not_read_or_not_given_exits_one(self, argv, message, tmp_path, monkeypatch,
                                                  capsys):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")
        assert not list(tmp_path.iterdir())


class TestZeroLevelTakagi:
    def test_takagi_at_level_zero_writes_the_zero_path(self, tmp_path, capsys):
        # no coefficient levels: the path is 0 at both grid points
        out = tmp_path / "p.csv"
        rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5",
                         "--level", "0", "--out", str(out))
        assert rc == 0, err
        assert rv.read_path_csv(out).samples.tolist() == [0.0, 0.0]


class TestLevelCap:
    def test_deep_smooth_path_exits_one_before_allocating(self, tmp_path, capsys):
        rc, _, err = run(capsys, "gen", "--kind", "smooth", "--level", "40",
                         "--out", str(tmp_path / "p.csv"))
        assert rc == 1
        assert "memory guard" in err

    @pytest.mark.parametrize("argv", [
        ("gen", "--kind", "takagi", "--H", "0.5", "--level", "11", "--out", "p.csv"),
        ("gen", "--kind", "fbm", "--H", "0.5", "--level", "11", "--out", "p.csv"),
        ("gen", "--kind", "smooth", "--level", "11", "--out", "p.csv"),
        ("counterexample", "--nmax", "5"),
    ])
    def test_every_generator_checks_the_cap(self, argv, monkeypatch, tmp_path,
                                            capsys):
        # a lowered cap stands in for the deep grids that exhaust memory
        monkeypatch.setattr(rv.grid, "_MAX_LEVEL", 10)
        monkeypatch.chdir(tmp_path)
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert "memory guard" in err
        assert not (tmp_path / "p.csv").exists()


def _fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this checkout's roughvar."""
    src = str(pathlib.Path(rv.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


# Modules a job should load only when it needs them: numpy's random package
# (about 2 MiB of extension modules), scipy (about half a second and 40 MiB)
# and OpenSSL's libcrypto behind hashlib (3.6 MiB)
_WATCHED = ("numpy.random", "scipy", "_hashlib")


def _footprint(argvs, blocked=()) -> list:
    """Which of ``_WATCHED`` a fresh interpreter has loaded, as sets.

    The first set is taken after ``import roughvar.cli``, and one more after
    ``cli.main`` has run each argv, which must exit 0.  The ``blocked``
    modules are mapped to None in ``sys.modules`` first, so that importing
    them fails.  A fresh interpreter, because other test modules load all
    three into this one.
    """
    code = ("import contextlib, io, json, sys\n"
            f"sys.modules.update(dict.fromkeys({list(blocked)!r}))\n"
            "import roughvar.cli\n"
            f"loaded = lambda: print(json.dumps([m for m in {_WATCHED!r} if m in sys.modules]))\n"
            "loaded()\n"
            f"for argv in {argvs!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert roughvar.cli.main(argv) == 0, argv\n"
            "    loaded()\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_fresh_env())
    assert proc.returncode == 0, proc.stderr
    return [set(json.loads(line)) for line in proc.stdout.splitlines()]


def test_startup_does_not_import_scipy(tmp_path):
    # No command needs scipy, not even --map-file splines
    u = np.linspace(-2.0, 2.0, 41)
    table = tmp_path / "tanh.csv"
    np.savetxt(table, np.column_stack([u, np.tanh(u)]), delimiter=",",
               header="u,f", comments="")
    argv = ["isometry", "--kind", "takagi", "--H", "0.5", "--level", "10",
            "--p", "2", "--map-file", str(table), "--out", str(tmp_path / "i.json")]
    imported, ran = _footprint([argv])
    assert "scipy" not in imported
    assert "scipy" not in ran


def _cli(argv, stdin_bytes=None):
    """``python -m roughvar argv`` in a fresh interpreter; ``stdin_bytes`` arrive through a pipe."""
    return subprocess.run([sys.executable, "-m", "roughvar", *argv], input=stdin_bytes,
                          capture_output=True, env=_fresh_env())


def _vmhwm_mib(argv=None):
    """VmHWM of a fresh interpreter that imports the CLI, then runs ``argv``.

    Without ``argv`` it imports ``numpy.random`` instead, as every fBM job
    does, and OpenSSL's libcrypto with it (``secrets`` -> ``hmac``): the
    baseline of the fBM jobs below, whose own arrays are what they bound.
    """
    run_argv = f"assert roughvar.cli.main({argv!r}) == 0\n" if argv else "import numpy.random\n"
    proc = subprocess.run(
        [sys.executable, "-c", f"import roughvar.cli\n{run_argv}"
         "print(open('/proc/self/status').read())"],
        capture_output=True, text=True, env=_fresh_env(), check=True)
    line = next(ln for ln in proc.stdout.splitlines() if ln.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads VmHWM from /proc")
class TestResidentPeak:
    """Level-20 fBM jobs' resident high-water mark above ``_vmhwm_mib()``'s baseline.

    A pass holds the 8 MiB path, a few arrays of one tile of 2**16 grid
    increments and 16 KiB of finest-level weights; generating the path
    holds a 16 MiB buffer, which sets the peak.
    """

    FBM20 = ("--kind", "fbm", "--H", "0.4", "--level", "20", "--seed", "5")

    def test_scaled_qv_to_the_grid_level(self, tmp_path):
        # 20.9-22.2 MiB measured, the generator's; 24.2 with a scratch array of
        # the grid level and 40.5 with a fresh array for every step of the pass
        peak = _vmhwm_mib(["sqv", *self.FBM20, "--p", "2.5", "--levels", "6:20",
                           "--out", str(tmp_path / "sqv.json")])
        assert peak - _vmhwm_mib() <= 32.0

    def test_roughness_search(self, tmp_path):
        # 20.3-21.7 MiB measured, the generator's; 38.6 with the kept grid-level
        # |dx| and fresh arrays
        peak = _vmhwm_mib(["roughness", *self.FBM20,
                           "--out", str(tmp_path / "roughness.json")])
        assert peak - _vmhwm_mib() <= 30.0

    def test_profiles_out(self, tmp_path):
        # 44.0-45.5 MiB measured: every gathered level's terms (16 MiB) and the
        # path; 56.4 when each profile CSV was written 2**16 rows at a time
        peak = _vmhwm_mib(["pvar", *self.FBM20, "--p", "2.5", "--levels", "6:20",
                           "--profiles-out", str(tmp_path / "prof"),
                           "--out", str(tmp_path / "pvar.json")])
        assert peak - _vmhwm_mib() <= 50.0


class TestManifestOfAFreshJob:
    """What a ``python -m roughvar`` job's manifest records of its own process."""

    ARGV = ("pvar", "--kind", "fbm", "--H", "0.4", "--level", "10", "--seed", "1",
            "--p", "2.5")

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads VmHWM from /proc")
    def test_peak_is_the_jobs_own_not_its_parents(self, tmp_path):
        # ru_maxrss survives exec: a job that peaks at about 34 MiB recorded
        # 318 MiB when its parent held 300
        ballast = bytearray(b"\1") * (200 << 20)
        proc = _cli([*self.ARGV, "--out", str(tmp_path / "p.json")])
        assert proc.returncode == 0, proc.stderr
        with open("/proc/self/status") as fh:
            parent = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:")) / 1024
        del ballast
        assert parent >= 200.0
        assert json.loads((tmp_path / "p.manifest.json").read_text())["peak_rss_mib"] \
            <= parent / 2

    @pytest.mark.skipif(any(var in os.environ for var in (
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")),
        reason="BLAS threads chosen by the environment")
    def test_cpu_time_is_at_most_the_wall_time(self, tmp_path):
        # an idle BLAS worker spinning at import added about 0.13 s of CPU
        t0 = time.monotonic()
        proc = _cli([*self.ARGV, "--out", str(tmp_path / "p.json")])
        wall = time.monotonic() - t0
        assert proc.returncode == 0, proc.stderr
        timings = json.loads((tmp_path / "p.manifest.json").read_text())["timings"]
        assert 0.0 < timings["cpu_s"] <= wall
        assert 0.0 <= timings["total_s"] <= wall


def _sha256_of(name):
    return hashlib.sha256(pathlib.Path(name).read_bytes()).hexdigest()


class TestInputsReadOnce:
    """Each input is read once: a pipe works, and the digest is of the bytes parsed."""

    def test_map_table_from_a_pipe(self, tmp_path):
        u = np.linspace(-0.5, 1.5, 81)
        table = tmp_path / "tanh.csv"
        np.savetxt(table, np.column_stack([u, np.tanh(u)]), delimiter=",",
                   header="u,f", comments="")
        argv = ["chainrule", "--kind", "takagi", "--H", "0.5", "--level", "12", "--p", "2"]
        named = _cli(argv + ["--map-file", str(table), "--out", str(tmp_path / "a.json")])
        piped = _cli(argv + ["--map-file", "/dev/stdin", "--out", str(tmp_path / "b.json")],
                     table.read_bytes())
        assert named.returncode == 0, named.stderr
        assert piped.returncode == 0, piped.stderr
        a, b = (json.loads((tmp_path / n).read_text()) for n in ("a.json", "b.json"))
        assert (a["lhs_terminal"], a["rhs_terminal"]) == (b["lhs_terminal"], b["rhs_terminal"])
        inputs = json.loads((tmp_path / "b.manifest.json").read_text())["inputs"]
        assert inputs == {"/dev/stdin": _sha256_of(table)}

    def test_path_csv_from_a_pipe(self, takagi_csv, tmp_path):
        argv = ["--json", "pvar", "--p", "2", "--levels", "4:9"]
        named = _cli(argv + ["--in", takagi_csv])
        piped = _cli(argv + ["--in", "/dev/stdin", "--out", str(tmp_path / "p.json")],
                     pathlib.Path(takagi_csv).read_bytes())
        assert named.returncode == 0, named.stderr
        assert piped.returncode == 0, piped.stderr
        assert json.loads(piped.stdout)["terminals"] == json.loads(named.stdout)["terminals"]
        inputs = json.loads((tmp_path / "p.manifest.json").read_text())["inputs"]
        assert inputs == {"/dev/stdin": _sha256_of(takagi_csv)}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs a named pipe")
    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    def test_multi_block_path_from_a_pipe(self, suffix, tmp_path, capsys):
        """A level-14 path is several read blocks; piped, it parses and hashes as the file.

        CSV comes through ``/dev/stdin``; JSON is chosen by the name's
        suffix, so it comes through a named pipe ``fifo.json``.
        """
        path = str(tmp_path / ("x" + suffix))
        rc, _, err = run(capsys, "gen", "--kind", "fbm", "--H", "0.3", "--level", "14",
                         "--seed", "4", "--out", path)
        assert rc == 0, err
        data = pathlib.Path(path).read_bytes()
        argv = ["--json", "pvar", "--p", "2", "--levels", "4:14"]
        named = _cli(argv + ["--in", path])
        if suffix == ".csv":
            source = "/dev/stdin"
            piped = _cli(argv + ["--in", source, "--out", str(tmp_path / "p.json")], data)
        else:
            source = str(tmp_path / "fifo.json")
            os.mkfifo(source)
            feeder = threading.Thread(target=pathlib.Path(source).write_bytes, args=(data,))
            feeder.start()
            piped = _cli(argv + ["--in", source, "--out", str(tmp_path / "p.json")])
            if feeder.is_alive():   # the CLI never opened the pipe: let the writer fail
                os.close(os.open(source, os.O_RDONLY | os.O_NONBLOCK))
            feeder.join()
        assert named.returncode == 0, named.stderr
        assert piped.returncode == 0, piped.stderr
        assert json.loads(piped.stdout)["terminals"] == json.loads(named.stdout)["terminals"]
        inputs = json.loads((tmp_path / "p.manifest.json").read_text())["inputs"]
        assert inputs == {source: hashlib.sha256(data).hexdigest()}

    def test_every_input_kind_records_its_sha256(self, takagi_csv, tmp_path, capsys):
        path_json = str(tmp_path / "x.json")
        coeffs = str(tmp_path / "c.json")
        rv.write_path_json(rv.read_path_csv(takagi_csv), path_json)
        schauder.write_coefficients_json(rv.takagi_coefficients(0.5, 6), coeffs)
        runs = {
            "sqv": (["sqv", "--in", path_json, "--p", "2"], [path_json]),
            "pvar": (["pvar", "--kind", "custom_schauder", "--coeffs-file", coeffs,
                      "--level", "8", "--p", "2"], [coeffs]),
            "inv": (["invariance", "--in", takagi_csv, "--perturb-in", path_json,
                     "--p", "2"], [takagi_csv, path_json]),
        }
        for stem, (argv, names) in runs.items():
            out = str(tmp_path / f"{stem}.json")
            rc, _, err = run(capsys, *argv, "--out", out)
            assert rc == 0, err
            manifest = json.loads((tmp_path / f"{stem}.manifest.json").read_text())
            assert manifest["inputs"] == {n: _sha256_of(n) for n in names}
        bundle = str(tmp_path / "all.json")
        reports = [str(tmp_path / "sqv.json"), str(tmp_path / "inv.json")]
        rc, _, err = run(capsys, "report", "--in", *reports, "--out", bundle)
        assert rc == 0, err
        doc = json.loads(pathlib.Path(bundle).read_text())
        assert [e["sha256"] for e in doc["reports"]] == [_sha256_of(n) for n in reports]
        assert json.loads((tmp_path / "all.manifest.json").read_text())["inputs"] == \
            {n: _sha256_of(n) for n in reports}


class TestInputDigests:
    """A manifest's input SHA-256 is the same whichever implementation made it.

    A regular file of at most 1 MiB is hashed by CPython's builtin SHA-256,
    anything else by OpenSSL's through hashlib; an interpreter without the
    builtin hashes takes them all from hashlib.
    """

    MIB = 1 << 20

    @staticmethod
    def _padded_report(name, size) -> bytes:
        # a report JSON object followed by spaces, ``size`` bytes in all
        data = b'{"command": "pvar", "success": true}'
        data += b" " * (size - len(data))
        pathlib.Path(name).write_bytes(data)
        return data

    @pytest.mark.parametrize("size, builtins", [
        (MIB - 1, ("_sha2", "_sha256")), (MIB, ("_sha2", "_sha256")), (MIB + 1, ())])
    def test_report_inputs_either_side_of_one_mib(self, size, builtins, tmp_path,
                                                  monkeypatch, capsys):
        asked = []
        hash_ = rv.grid._hash
        monkeypatch.setattr(rv.grid, "_hash",
                            lambda name, *mods: asked.append((name, mods)) or hash_(name, *mods))
        name = str(tmp_path / "padded.json")
        data = self._padded_report(name, size)
        rc, _, err = run(capsys, "report", "--in", name, "--out", str(tmp_path / "r.json"))
        assert rc == 0, err
        manifest = json.loads((tmp_path / "r.manifest.json").read_text())
        assert manifest["inputs"] == {name: hashlib.sha256(data).hexdigest()}
        assert asked == [("sha256", builtins)]

    def test_piped_report(self, tmp_path):
        data = self._padded_report(tmp_path / "padded.json", 1000)
        proc = _cli(["report", "--in", "/dev/stdin", "--out", str(tmp_path / "r.json")], data)
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "r.manifest.json").read_text())
        assert manifest["inputs"] == {"/dev/stdin": hashlib.sha256(data).hexdigest()}

    def test_large_path_file_loads_openssl(self, tmp_path, capsys):
        big = str(tmp_path / "takagi.csv")
        rc, _, err = run(capsys, "gen", "--kind", "takagi", "--H", "0.5", "--level", "15",
                         "--signs", "random", "--seed", "5", "--out", big)
        assert rc == 0, err
        assert os.path.getsize(big) > self.MIB
        imported, ran = _footprint([["pvar", "--in", big, "--p", "2",
                                     "--out", str(tmp_path / "p.json")]])
        assert "_hashlib" not in imported
        assert "_hashlib" in ran
        manifest = json.loads((tmp_path / "p.manifest.json").read_text())
        assert manifest["inputs"] == {big: _sha256_of(big)}

    def test_same_bits_without_builtin_hashes(self, tmp_path, capsys):
        tak = ["--kind", "takagi", "--H", "0.5", "--level", "12", "--signs", "random",
               "--seed", "5"]
        small = str(tmp_path / "small.json")
        data = self._padded_report(small, 5000)
        rc, _, err = run(capsys, "gen", *tak, "--out", str(tmp_path / "builtin.json"))
        assert rc == 0, err
        loaded = _footprint([["gen", *tak, "--out", str(tmp_path / "hashlib.json")],
                             ["report", "--in", small, "--out", str(tmp_path / "r.json")]],
                            blocked=("_sha3", "_sha2", "_sha256"))
        assert "_hashlib" in loaded[1]   # the signs came through hashlib
        assert (tmp_path / "hashlib.json").read_bytes() == \
            (tmp_path / "builtin.json").read_bytes()
        manifest = json.loads((tmp_path / "r.manifest.json").read_text())
        assert manifest["inputs"] == {small: hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("argv, index, t", [
    (["gen", "--kind", "smooth", "--smooth-kind", "poly", "--coeffs", "1e308,1e308"],
     52, 0.8125),
    (["gen", "--kind", "smooth", "--smooth-kind", "poly", "--coeffs", "0,1e200,1e200",
      "--amplitude", "1e200"], 1, 0.015625),
    (["gen", "--kind", "smooth", "--freq", "1e308"], 0, 0.0),
    (["invariance", "--kind", "takagi", "--H", "0.5", "--p", "2", "--smooth-kind", "poly",
      "--coeffs", "1e308,1e308"], 52, 0.8125),
], ids=["poly_add", "poly_multiply", "sine", "invariance"])
def test_overflowing_smooth_perturbation_prints_only_its_error(argv, index, t, tmp_path):
    # numpy's overflow and invalid-value warnings came before the error line
    proc = _cli([*argv, "--level", "6", "--out", str(tmp_path / "out.json")])
    assert proc.returncode == 1
    assert proc.stderr.decode() == f"error: non-finite sample at index {index} (t = {t})\n"
    assert proc.stdout == b"" and not list(tmp_path.iterdir())


class TestOneSidedOverflow:
    """A one-sided command whose terms overflow exits 2 instead of reporting inf.

    They printed numpy's overflow warning, every terminal as ``inf`` and
    "classification: diverging (slope +nan)", and exited 0; ``roughness``
    exited 2 with a bracket error.  Below p = 2 the weights overflow: inf
    to the power ``(p - 2)/p < 0`` is 0, so ``sqv --p 1.5`` printed every
    terminal as 0, "classification: vanishing", and exited 0, and
    ``roughness`` probed q = 1.2 to zero terminals before q = 4 raised.
    """

    @pytest.fixture(scope="class")
    def big_csv(self, tmp_path_factory):
        name = str(tmp_path_factory.mktemp("overflow") / "big.csv")
        proc = _cli(["gen", "--kind", "smooth", "--level", "10", "--amplitude", "1e300",
                     "--out", name])
        assert proc.returncode == 0, proc.stderr
        return name

    @pytest.mark.parametrize("argv, name", [
        (["pvar", "--p", "2"], "pvar"),
        (["sqv", "--p", "2.5"], "sqv"),
        (["classical", "--gamma", "0.5"], "classical"),
        (["roughness"], "probe at q=1.2"),
        (["sqv", "--p", "1.5"], "sqv"),
        (["sqv", "--p", "1.5", "--src", "analytic", "--analytic-c", "1"], "sqv"),
    ])
    def test_exits_two_with_only_its_error(self, big_csv, argv, name):
        proc = _cli([*argv, "--in", big_csv, "--levels", "2:6"])
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode() == f"error: {name} terminal at level 2 is inf, not finite\n"

    def test_divergent_scaled_level_keeps_its_inf(self, tmp_path, capsys):
        # 1e-300 steps: |dx|**1.5 underflows to a zero weight beside a nonzero
        # increment, an infinite term that is the functional's own divergence
        s = np.zeros(65)
        s[17:33] = np.arange(1, 17) * 1e-300
        s[33:] = s[32] + rv.fbm_path(0.4, 5, seed=1).samples[1:]
        rv.write_path_csv(rv.Path(grid_level=6, samples=s), tmp_path / "edge.csv")
        doc = run_json(capsys, "sqv", "--in", str(tmp_path / "edge.csv"), "--p", "1.5",
                       "--levels", "2:6")
        assert all(np.isinf(doc["terminals"]))
        assert all(meta["divergent"] for meta in doc["per_level"])


def test_no_subcommand_calls_lapack(tmp_path, capsys, monkeypatch):
    # the trend fits are closed-form sums: no job pages in OpenBLAS's LAPACK
    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares fit called LAPACK")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    u = np.linspace(-4.0, 4.0, 161)
    table = tmp_path / "tanh.csv"
    table.write_text("u,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                       zip(u.tolist(), np.tanh(u).tolist())))
    path = ["--kind", "takagi", "--H", "0.5", "--level", "12", "--signs", "random",
            "--seed", "5"]
    for argv in (["pvar", *path, "--p", "2"], ["sqv", *path, "--p", "2.5"],
                 ["classical", *path, "--gamma", "0.5"], ["roughness", *path],
                 ["isometry", *path, "--p", "2", "--map", "sin"],
                 ["isometry", *path, "--p", "2", "--map-file", str(table)],
                 ["chainrule", *path, "--p", "2", "--map", "square_plus_one"],
                 ["invariance", *path, "--p", "2"],
                 ["counterexample", "--nmax", "4"]):
        rc, _, err = run(capsys, *argv)
        assert rc == 0, (argv, err)


def _tanh_table(tmp_path) -> str:
    """The benchmark's (u, tanh u) table on [-4, 4], about 6 KB."""
    u = np.linspace(-4.0, 4.0, 161)
    table = tmp_path / "tanh.csv"
    table.write_text("u,f\n" + "".join(f"{a!r},{b!r}\n" for a, b in
                                       zip(u.tolist(), np.tanh(u).tolist())))
    return str(table)


def test_takagi_jobs_do_not_load_numpy_random(tmp_path):
    # random Takagi signs are SHAKE-128 bits: numpy's random package is
    # loaded only by the fBM generator
    table = _tanh_table(tmp_path)
    path = ["--kind", "takagi", "--H", "0.5", "--level", "12", "--signs", "random",
            "--seed", "5"]
    assert not any("numpy.random" in loaded for loaded in _footprint([
        ["pvar", *path, "--p", "2"], ["sqv", *path, "--p", "2.5"],
        ["sqv", *path, "--p", "2", "--src", "analytic", "--analytic-c", "1"],
        ["classical", *path, "--gamma", "0.5"], ["roughness", *path],
        ["chainrule", *path, "--p", "2", "--map", "square_plus_one"],
        ["isometry", *path, "--p", "2", "--map", "sin"],
        ["isometry", *path, "--p", "2", "--map-file", table],
        ["invariance", *path, "--p", "2"]]))
    assert "numpy.random" in _footprint([["gen", "--kind", "fbm", "--H", "0.4", "--level",
                                          "8", "--seed", "1",
                                          "--out", str(tmp_path / "fbm.csv")]])[-1]


def test_short_jobs_do_not_load_openssl(tmp_path):
    # Takagi signs come from the builtin SHAKE-128 and inputs of at most
    # 1 MiB are hashed by the builtin SHA-256: OpenSSL's libcrypto added
    # 3.6 MiB to every short job's peak
    o = lambda name: str(tmp_path / name)
    tak = ["--kind", "takagi", "--H", "0.5", "--level", "12", "--signs", "random",
           "--seed", "5"]
    argvs = [  # the benchmark's nine short jobs, two levels down
        ["pvar", *tak, "--p", "2", "--levels", "4:12", "--out", o("pvar.json")],
        ["sqv", *tak, "--p", "3", "--src", "analytic", "--analytic-c", "1",
         "--levels", "4:12", "--out", o("sqv.json")],
        ["classical", *tak, "--gamma", "0", "--levels", "4:12", "--out", o("cl.json")],
        ["roughness", *tak, "--out", o("rough.json")],
        ["counterexample", "--nmax", "4", "--level", "12", "--out", o("cx")],
        ["chainrule", *tak, "--p", "2", "--map", "sin", "--out", o("chain.json")],
        ["isometry", *tak, "--p", "2", "--map", "square_plus_one", "--out", o("iso.json")],
        ["invariance", *tak, "--p", "2", "--amplitude", "0.5", "--out", o("inv.json")],
        ["isometry", *tak, "--p", "2", "--map-file", _tanh_table(tmp_path),
         "--out", o("table.json")],
        ["report", "--in", o("pvar.json"), o("rough.json"), o("table.json"),
         "--out", o("report.json")],
        ["gen", *tak, "--out", o("takagi.csv")],
        ["pvar", "--in", o("takagi.csv"), "--p", "2", "--out", o("file.json")],
    ]
    loaded = _footprint(argvs)
    assert loaded[0] == set()
    assert [(argv, after) for argv, after in zip(argvs, loaded[1:]) if after] == []


def _every_command(tmp_path, capsys, level):
    """Run each subcommand on a level-``level`` fBM path; the manifests' names."""
    path = str(tmp_path / "fbm.csv")
    gen = ["--kind", "fbm", "--H", "0.4", "--level", str(level), "--seed", "3"]
    o = lambda name: str(tmp_path / name)
    argvs = [["gen", *gen, "--out", path],
             ["pvar", "--in", path, "--p", "2.5", "--out", o("pvar.json")],
             ["sqv", *gen, "--p", "2.5", "--out", o("sqv.json")],
             ["classical", "--in", path, "--gamma", "0.5", "--out", o("classical.json")],
             ["roughness", "--in", path, "--out", o("roughness.json")],
             ["isometry", "--in", path, "--p", "2.5", "--map", "sin", "--out", o("iso.json")],
             ["chainrule", "--in", path, "--p", "2.5", "--map", "square_plus_one",
              "--out", o("chain.json")],
             ["invariance", "--in", path, "--p", "2.5", "--out", o("inv.json")],
             ["counterexample", "--nmax", "4", "--out", o("cx")],
             ["report", "--in", o("pvar.json"), o("roughness.json"), "--out", o("rep.json")]]
    for argv in argvs:
        rc, _, err = run(capsys, *argv)
        assert rc == 0, (argv, err)
    return [tmp_path / name for name in (
        "fbm.manifest.json", "pvar.manifest.json", "sqv.manifest.json",
        "classical.manifest.json", "roughness.manifest.json", "iso.manifest.json",
        "chain.manifest.json", "inv.manifest.json", "cx/manifest.json", "rep.manifest.json")]


def test_no_thread_starts_at_level_16(tmp_path, capsys, threads):
    # a second thread pays for itself only above 2**16 increments
    _every_command(tmp_path, capsys, 16)
    assert threads == []
    rc, _, err = run(capsys, "gen", "--kind", "fbm", "--H", "0.4", "--level", "17",
                     "--out", str(tmp_path / "fbm17.csv"))
    assert rc == 0, err
    assert threads and not any(t.is_alive() for t in threads)


def test_every_manifest_times_its_input_path(tmp_path, capsys):
    for name in _every_command(tmp_path, capsys, 10):
        timings = json.loads(name.read_text())["timings"]
        assert 0.0 <= timings["path_s"] <= timings["total_s"], name
