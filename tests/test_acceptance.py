"""Acceptance gate: ten end-to-end capability checks.

Each test prints one ``[criterion NN] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output) and asserts the same condition, so
the suite both documents and enforces the release bar.  Configurations and
tolerances are frozen; see the per-test docstrings for what each one pins
down.
"""

import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

import roughvar as rv
from roughvar.cli import main as cli_main


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_oscillating_quadratic_variation():
    """Burst path: integer QV at burst levels, small just before, oscillating."""
    t0 = time.perf_counter()
    x = rv.counterexample_path(5)
    sn_levels = [1, 3, 6, 10, 15]
    sn = [rv.pth_variation(x, rv.dyadic_partition(n, 15), 2.0).terminal
          for n in sn_levels]
    pre = [rv.pth_variation(x, rv.dyadic_partition(n - 1, 15), 2.0).terminal
           for n in sn_levels]
    sn_err = max(abs(v - k) for v, k in zip(sn, range(1, 6)))
    pre_want = [0.0, 0.5, 0.5, 0.375, 0.25]
    pre_err = max(abs(a - b) for a, b in zip(pre, pre_want))
    inter_levels = [n for s in sn_levels for n in (s - 1, s)]
    inter_vals = [v for a, b in zip(pre, sn) for v in (a, b)]
    cls = rv.limit_diagnostics(inter_vals, window=len(inter_vals),
                               levels=inter_levels).classification
    dt = time.perf_counter() - t0
    ok = sn_err < 1e-9 and pre_err < 1e-9 and cls == "oscillating" and dt < 5.0
    _verdict(1, ok, f"burst QV err {sn_err:.1e}, pre-burst err {pre_err:.1e}, "
             f"interleaved={cls}, {dt:.2f}s")


def test_criterion_02_scaled_qv_closed_form_via_cli(capsys):
    """CLI scaled QV on the H=1/2 path matches 1 - 2^-n to 1e-12."""
    t0 = time.perf_counter()
    rc = cli_main(["--json", "sqv", "--kind", "takagi", "--H", "0.5",
                   "--level", "16", "--p", "2", "--levels", "2:14"])
    out = capsys.readouterr().out
    dt = time.perf_counter() - t0
    doc = json.loads(out)
    err = max(abs(v - (1.0 - 2.0 ** -n))
              for n, v in zip(doc["levels"], doc["terminals"]))
    rep = doc["limit_report"]
    in_band = 0.999 <= rep["liminf_est"] <= rep["limsup_est"] <= 1.0
    ok = (rc == 0 and err < 1e-12
          and rep["classification"] == "finite_positive" and in_band
          and dt < 2.0)
    _verdict(2, ok, f"max closed-form err {err:.1e}, "
             f"classification={rep['classification']}, "
             f"tail band [{rep['liminf_est']:.6f}, {rep['limsup_est']:.6f}], "
             f"{dt:.2f}s")


def test_criterion_03_analytic_source_recovers_scaling_limit():
    """Linear analytic weights reproduce C^(1-2H) / (2^(2-2H) - 1)."""
    t0 = time.perf_counter()
    rels = {}
    for H in (0.25, 0.4):
        x = rv.takagi_path(H, 16)
        p = 1.0 / H
        C = rv.pth_variation(x, rv.dyadic_partition(16, 16), p).terminal
        got = rv.scaled_qv(x, rv.dyadic_partition(14, 16), p,
                           rv.PVarSource.linear(C)).terminal
        target = C ** (1.0 - 2.0 * H) / (2.0 ** (2.0 - 2.0 * H) - 1.0)
        rels[H] = abs(got / target - 1.0)
    dt = time.perf_counter() - t0
    ok = all(r < 0.05 for r in rels.values()) and dt < 10.0
    _verdict(3, ok, "rel err " + ", ".join(
        f"H={H}: {r:.2e}" for H, r in rels.items()) + f", {dt:.2f}s")


def test_criterion_04_index_switching_and_monotone_sweep():
    """Scaled QV vanishes above, diverges below, and ranks monotonically."""
    x = rv.takagi_path(0.5, 14)
    lv = range(6, 13)
    low = rv.classify_index(x, lv, 1.5)
    high = rv.classify_index(x, lv, 3.0)
    records = rv.classification_sweep(x, lv, np.linspace(1.2, 4.0, 9))
    rank = {"diverging": 0, "finite_positive": 1, "vanishing": 2}
    ranks = [rank[rec.classification] for rec in records]
    monotone = ranks == sorted(ranks)
    ok = low == "diverging" and high == "vanishing" and monotone
    _verdict(4, ok, f"q=1.5 {low}, q=3 {high}, sweep ranks {ranks}")


def test_criterion_05_critical_index_search_accuracy():
    """Bisection lands on p=2 for the H=1/2 path and 1/H for fBM medians."""
    x = rv.takagi_path(0.5, 14)
    rep = rv.critical_index_search(x, p_range=(1.2, 4.0), iters=12)
    tk_ok = abs(rep.p_bar_est - 2.0) <= 0.01 and abs(rep.hurst_est - 0.5) <= 0.003
    details = [f"takagi p_bar {rep.p_bar_est:.5f} hurst {rep.hurst_est:.5f}"]
    fbm_ok = True
    for H in (0.3, 0.5, 0.7):
        tH = time.perf_counter()
        ests = []
        for seed in range(5):
            fx = rv.fbm_path(H, 18, seed=seed)
            ests.append(rv.critical_index_search(
                fx, levels=range(6, 17), p_range=(1.1, 8.0), iters=12).hurst_est)
        med = statistics.median(ests)
        dtH = time.perf_counter() - tH
        fbm_ok = fbm_ok and abs(med - H) <= 0.05 and dtH < 60.0
        details.append(f"fbm H={H} median {med:.4f} ({dtH:.1f}s)")
    _verdict(5, tk_ok and fbm_ok, "; ".join(details))


def test_criterion_06_scaled_vs_classical_agreement():
    """Analytic-source scaled QV and time-weighted QV classify alike."""
    lv = list(range(6, 13))
    agreements = []
    for kind, H, seed in (("takagi", 0.4, None), ("takagi", 0.5, None),
                          ("fbm", 0.35, 0), ("fbm", 0.45, 1)):
        x = rv.takagi_path(H, 14) if kind == "takagi" \
            else rv.fbm_path(H, 14, seed=seed)
        p = 1.0 / H
        C = rv.pth_variation(x, rv.dyadic_partition(14, 14), p).terminal
        s = [rv.scaled_qv(x, rv.dyadic_partition(n, 14), p,
                          rv.PVarSource.linear(C)).terminal for n in lv]
        c = [rv.classical_scaled_qv(x, rv.dyadic_partition(n, 14),
                                    1.0 - 2.0 * H).terminal for n in lv]
        cs = rv.limit_diagnostics(s, window=4, levels=lv).classification
        cc = rv.limit_diagnostics(c, window=4, levels=lv).classification
        agreements.append((f"{kind} H={H}", cs, cc))
    ok = all(a == b for _, a, b in agreements)
    _verdict(6, ok, "; ".join(f"{name}: {a}/{b}" for name, a, b in agreements))


def test_criterion_07_isometry_and_chain_rule():
    """Both identities hold exactly for linear maps and converge for smooth ones."""
    lv = range(6, 13)
    maps = [rv.identity_map(), rv.affine_map(2.0, -1.0),
            rv.square_plus_one_map(), rv.sin_map()]
    failures = []
    for kind, p in (("takagi", 2.0), ("fbm", 2.5)):
        x = rv.takagi_path(0.5, 14) if kind == "takagi" \
            else rv.fbm_path(0.4, 14, seed=0)
        for f in maps:
            for rep in (rv.isometry_check(x, f, p, lv),
                        rv.chain_rule_check(x, f, p, lv)):
                if f.id == "identity":
                    good = max(rep.rel_err) == 0.0
                elif f.id.startswith("affine"):
                    good = rep.success and rep.rel_err[-1] < 1e-12
                else:
                    good = (rep.success and rep.rel_err[-1] < 0.05
                            and rep.err_trend_slope < 0.0)
                if not good:
                    failures.append(f"{kind}/{f.id}/{rep.kind}: "
                                    f"rel@12 {rep.rel_err[-1]:.2e}")
    _verdict(7, not failures,
             "16/16 map-path-identity combinations converge" if not failures
             else "; ".join(failures))


def test_criterion_08_smooth_perturbation_invariance():
    """Adding 0.5 sin(2 pi t) moves scaled QV by <2% at level 12, shrinking."""
    A = rv.smooth_perturbation("sine", 0.5, 14, {"freq": 1.0})
    details = []
    ok = True
    for kind, p in (("takagi", 2.0), ("fbm", 2.5)):
        x = rv.takagi_path(0.5, 14) if kind == "takagi" \
            else rv.fbm_path(0.4, 14, seed=0)
        rep = rv.invariance_check(x, A, p, [6, 8, 10, 12])
        shrinking = all(b < a for a, b in zip(rep.rel_err, rep.rel_err[1:]))
        ok = ok and rep.rel_err[-1] < 0.02 and shrinking and rep.success
        details.append(f"{kind} rel@12 {rep.rel_err[-1]:.2e} "
                       f"{'decreasing' if shrinking else 'NOT decreasing'}")
    _verdict(8, ok, "; ".join(details))


def test_criterion_09_kernels_match_direct_summation():
    """Vectorized kernels equal plain-loop references on 200 random paths."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(200):
        level = int(rng.integers(3, 6))
        x = rv.Path(grid_level=level,
                    samples=rng.standard_normal((1 << level) + 1))
        n_pts = int(rng.integers(2, (1 << level) + 2))
        interior = np.sort(rng.choice(np.arange(1, 1 << level),
                                      size=max(0, n_pts - 2), replace=False))
        part = rv.Partition(level=0, indices=np.concatenate(
            [[0], interior, [1 << level]]).astype(int))
        p = float(rng.uniform(0.5, 5.0))
        gamma = (p - 2.0) / p
        dxs = np.diff(x.samples[part.indices])
        fine = np.abs(np.diff(x.samples)) ** p

        want_p, want_lin, want_fin, want_cl = 0.0, 0.0, 0.0, 0.0
        t = part.times(level)
        for j, dx in enumerate(dxs):
            want_p += abs(dx) ** p
            want_lin += (0.7 * t[j + 1] - 0.7 * t[j]) ** gamma * dx * dx
            a, b = part.indices[j], part.indices[j + 1]
            w_fin = math.fsum(fine[a:b].tolist())
            want_fin += w_fin ** gamma * dx * dx if w_fin else 0.0
            want_cl += (t[j + 1] - t[j]) ** gamma * dx * dx

        got = (rv.pth_variation(x, part, p).terminal,
               rv.scaled_qv(x, part, p, rv.PVarSource.linear(0.7)).terminal,
               rv.scaled_qv(x, part, p).terminal,
               rv.classical_scaled_qv(x, part, gamma).terminal)
        for have, want in zip(got, (want_p, want_lin, want_fin, want_cl)):
            worst = max(worst, abs(have - want) / max(abs(want), 1e-300))

    x = rv.fbm_path(0.3, 10, seed=9)
    part = rv.dyadic_partition(8, 10)
    collapse = np.array_equal(rv.scaled_qv(x, part, 2.0).terms,
                              rv.pth_variation(x, part, 2.0).terms)
    # at the grid level each block's finest-level weight is its own |dx|**p
    grid = rv.dyadic_partition(10, 10)
    a = rv.scaled_qv(x, grid, 2.7).terminal
    b = rv.pth_variation(x, grid, 2.7).terminal
    grid_rel = abs(a - b) / abs(b)
    ok = worst < 1e-14 and collapse and grid_rel < 1e-12
    _verdict(9, ok, f"worst direct-sum rel {worst:.1e}, quadratic collapse "
             f"exact={collapse}, grid-level finest-source rel {grid_rel:.1e}")


def test_criterion_10_deep_grid_performance_and_accumulation():
    """Level-22 single-level runs finish under 2s; cumsum matches 80-bit.

    Each job is ``python -m roughvar`` in a fresh interpreter, with the
    directory holding the ``roughvar`` imported here put first on its
    PYTHONPATH, so the timed CLI is this checkout's, installed or not.
    """
    src = str(pathlib.Path(rv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    timings = {}
    for sub, flags in (("pvar", ["--p", "2"]), ("sqv", ["--p", "2.5"])):
        cmd = [sys.executable, "-m", "roughvar", sub, "--kind", "takagi",
               "--H", "0.5", "--level", "22", "--levels", "22"] + flags
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        timings[sub] = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stderr
    rng = np.random.default_rng(0)
    terms = np.abs(rng.standard_normal(1 << 18)) ** 2.5
    ours = rv.accurate_cumsum(terms)[-1]
    oracle = float(np.cumsum(terms.astype(np.longdouble))[-1])
    rel = abs(ours - oracle) / oracle
    ok = all(dt < 2.0 for dt in timings.values()) and rel < 1e-12
    _verdict(10, ok, f"pvar {timings['pvar']:.2f}s, sqv {timings['sqv']:.2f}s "
             f"at level 22; accumulation rel {rel:.1e}")
