"""Tests of the benchmark itself: every oracle check rejects a corrupted output.

Run from the root of a checkout:  python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from workloads import CheckError  # noqa: E402


def _dump(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


def test_terminal_checks_reject_a_perturbed_terminal(tmp_path):
    levels = [4, 5, 6]
    good = _dump(tmp_path / "good.json", {"levels": levels,
                                          "terminals": [1 - 2.0 ** -n for n in levels]})
    wl.check_terminals(good, wl.takagi_qv(levels))
    bad = _dump(tmp_path / "bad.json", {"levels": levels, "terminals":
                                        [1 - 2.0 ** -4, 1 - 2.0 ** -5, (1 - 2.0 ** -6) * (1 + 1e-10)]})
    with pytest.raises(CheckError):
        wl.check_terminals(bad, wl.takagi_qv(levels))
    short = _dump(tmp_path / "short.json", {"levels": [4], "terminals": [1 - 2.0 ** -4]})
    with pytest.raises(CheckError):
        wl.check_terminals(short, wl.takagi_qv(levels))


def test_same_terminals_is_bitwise(tmp_path):
    ref = _dump(tmp_path / "ref.json", {"levels": [3], "terminals": [0.875]})
    wl.check_same_terminals(_dump(tmp_path / "a.json", {"levels": [3], "terminals": [0.875]}), ref)
    nudged = float(np.nextafter(0.875, 1.0))
    with pytest.raises(CheckError):
        wl.check_same_terminals(_dump(tmp_path / "b.json",
                                      {"levels": [3], "terminals": [nudged]}), ref)


@pytest.mark.parametrize("doc", [{"success": False}, {}, {"success": "true"}])
def test_success_check_rejects_anything_but_true(tmp_path, doc):
    wl.check_success(_dump(tmp_path / "ok.json", {"success": True}))
    with pytest.raises(CheckError):
        wl.check_success(_dump(tmp_path / "bad.json", doc))


def test_hurst_check_uses_the_recorded_tolerance(tmp_path):
    tol = wl.HURST_TOL["fbm-L22"]
    wl.check_hurst(_dump(tmp_path / "in.json", {"hurst_est": 0.4 + 0.9 * tol}), 0.4, tol)
    for est in (0.4 + 1.1 * tol, 0.4 - 1.1 * tol, None):
        with pytest.raises(CheckError):
            wl.check_hurst(_dump(tmp_path / "out.json", {"hurst_est": est}), 0.4, tol)


def test_counterexample_check(tmp_path):
    wl.check_counterexample(_dump(tmp_path / "ok.json", {"sn_terminals": [1.0, 2.0, 3.0]}), 3)
    for got in ([1.0, 2.0, 3.0 + 1e-9], [1.0, 2.0], None):
        with pytest.raises(CheckError):
            wl.check_counterexample(_dump(tmp_path / "bad.json", {"sn_terminals": got}), 3)


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_path_file_check_is_bitwise(tmp_path, suffix):
    from roughvar import fbm_path, write_path_csv, write_path_json

    x = fbm_path(0.4, 8, seed=3)
    name = str(tmp_path / f"path{suffix}")
    (write_path_json if suffix == ".json" else write_path_csv)(x, name)
    wl.check_path_file(name, x.samples)
    nudged = x.samples.copy()
    nudged[77] = np.nextafter(nudged[77], np.inf)
    with pytest.raises(CheckError):
        wl.check_path_file(name, nudged)
    with pytest.raises(CheckError):
        wl.check_path_file(name, x.samples[:-1])


def test_report_digest_check(tmp_path):
    inputs = [_dump(tmp_path / f"r{i}.json", {"i": i}) for i in range(2)]
    report = _dump(tmp_path / "report.json", {"reports": [
        {"file": f, "sha256": wl.sha256(f)} for f in inputs]})
    wl.check_report_digests(report, inputs)
    with pytest.raises(CheckError):
        wl.check_report_digests(report, inputs + [report])
    _dump(inputs[1], {"i": 99})
    with pytest.raises(CheckError):
        wl.check_report_digests(report, inputs)


def test_pth_variation_oracle_matches_a_plain_loop():
    rng = np.random.default_rng(0)
    x = np.concatenate([[0.0], np.cumsum(rng.standard_normal(64))])
    got = wl.pth_variation_sums(x, [2, 6], 2.5)
    for n, value in got.items():
        step = 64 >> n
        loop = sum(abs(x[i + step] - x[i]) ** 2.5 for i in range(0, 64, step))
        assert value == pytest.approx(loop, rel=1e-13)


def test_scaled_qv_oracle_matches_roughvar_on_every_level(tmp_path):
    from roughvar import PVarSource, dyadic_partition, fbm_path, scaled_qv

    x = fbm_path(0.4, 12, seed=7)
    src = PVarSource().materialized(x, 2.5)
    levels = list(range(2, 13))
    oracle = wl.finest_sqv_sums(x.samples, levels, 2.5)
    terminals = [scaled_qv(x, dyadic_partition(n, 12), 2.5, src).terminal for n in levels]
    good = _dump(tmp_path / "good.json", {"levels": levels, "terminals": terminals})
    wl.check_terminals(good, oracle)
    # a coarse level alone is wrong; the finest level still agrees
    terminals[2] *= 1 + 1e-10
    bad = _dump(tmp_path / "bad.json", {"levels": levels, "terminals": terminals})
    with pytest.raises(CheckError, match="level 4 "):
        wl.check_terminals(bad, oracle)


def _corrupt(doc):
    """Scale every float by 1.5 and turn every true into false."""
    if isinstance(doc, dict):
        return {k: _corrupt(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_corrupt(v) for v in doc]
    if doc is True:
        return False
    if isinstance(doc, float):
        return doc * 1.5
    return doc


def _output_of(job) -> str:
    out = job.argv[job.argv.index("--out") + 1]
    return os.path.join(out, "report.json") if os.path.isdir(out) else out


def test_short_jobs_pass_their_checks_and_reject_corrupted_outputs(tmp_path):
    workload = wl.WORKLOADS["short-jobs"]
    inputs = wl.Inputs(seed=5, root=str(tmp_path))
    out = str(tmp_path / "out")
    os.makedirs(out)
    jobs = workload.build(inputs, out)
    records = [run.spawn_job(job, i, out, False) for i, job in enumerate(jobs)]
    assert [r.error for r in records] == [None] * len(jobs)
    for job in jobs:
        job.check()
    for job in jobs:
        target = _output_of(job)
        saved = target + ".saved"
        shutil.copy(target, saved)
        with open(target) as fh:
            _dump(target, _corrupt(json.load(fh)))
        with pytest.raises(CheckError):
            job.check()
        os.replace(saved, target)


def test_traced_job_records_spans_under_every_binding(tmp_path):
    job = wl.Job("roughness", ("roughness", "--kind", "takagi", "--H", "0.5",
                               "--level", "10", "--out", str(tmp_path / "r.json")), None)
    rec = run.spawn_job(job, 0, str(tmp_path), True)
    assert rec.error is None
    names = {s[1] for s in rec.trace["spans"]}
    assert {"cli.main", "roughness.critical_index_search", "variation.scaled_qv",
            "variation.pth_variation", "variation.materialized"} <= names
    m = tracing.layer_metrics([rec.trace])
    assert m["roughness.probes"] == 14
    # roughness binds scaled_qv by name; those calls are seen under the search
    assert m["roughness.scaled_qv_calls_per_probe"] > 0
    assert m["roughness.peak_mb"] > 0


def test_peak_rss_is_the_job_own(tmp_path):
    ballast = np.ones(40 * 2 ** 20)  # 320 MiB resident in this process
    job = wl.Job("pvar", ("pvar", "--kind", "takagi", "--H", "0.5", "--level", "8",
                          "--p", "2", "--out", str(tmp_path / "p.json")), None)
    rec = run.spawn_job(job, 0, str(tmp_path), False)
    assert rec.error is None
    assert 10 < rec.rss_mib < ballast.nbytes / 2 ** 20 / 2


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "short-jobs",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
