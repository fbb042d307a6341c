"""Workload job lists for the roughvar benchmark, and the oracle behind each job.

A workload is a fixed list of ``roughvar`` CLI invocations.  Every input that
varies (fBM seeds, random Takagi signs) is derived from the benchmark's
``--seed``, so the same seed always gives the same jobs.  Each job carries a
check that reads the job's output files and raises :class:`CheckError` when
they disagree with an oracle: a closed form, an exact identity, a regenerated
input compared bitwise, a digest, or a tolerance taken from the seed spread.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

# |hurst_est - H| allowed by the roughness checks: twice the largest deviation
# seen over seeds 0-19 of these exact jobs, rounded up to 0.005.  fBM H=0.4 at
# level 22 gave 0.3861-0.4106; random-sign Takagi H=0.5 at level 14 gave
# 0.49818 for every seed.
HURST_TOL = {"fbm-L22": 0.03, "takagi-L14": 0.005}

# Relative tolerance of closed-form and identity checks on accumulated sums.
RTOL = 1e-12

# the default p_range (1.2, 4.0) of the critical-index search brackets the
# index 1/H = 2.5 of fBM with H = 0.4
FBM_H = 0.4
TAKAGI_H = 0.5


class CheckError(AssertionError):
    """A job's output disagrees with its oracle."""


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple
    check: Callable[[], None]


@dataclass(frozen=True)
class Workload:
    name: str
    # which later change should move this workload, and which should leave it alone
    moves: tuple
    unchanged: tuple
    largest_level: int
    build: Callable


# ---------------------------------------------------------------------------
# Check primitives; each reads output files and raises CheckError.
# ---------------------------------------------------------------------------

def load_json(filename) -> dict:
    try:
        with open(filename) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"cannot read {filename}: {exc}") from exc


def _terminals(report: dict) -> dict:
    return dict(zip(report["levels"], report["terminals"]))


def check_terminals(filename, expected: dict) -> None:
    """Each expected level's terminal matches to ``RTOL`` relative."""
    got = _terminals(load_json(filename))
    for level, want in expected.items():
        value = got.get(level)
        if value is None or not abs(value - want) <= RTOL * abs(want):
            raise CheckError(f"{filename}: level {level} terminal {value!r}, "
                             f"oracle {want!r} (rtol {RTOL:g})")


def check_same_terminals(filename, reference) -> None:
    """Two profile reports give bitwise equal terminals on the same levels."""
    got, ref = _terminals(load_json(filename)), _terminals(load_json(reference))
    if got != ref:
        raise CheckError(f"{filename}: terminals differ from {reference}")


def check_success(filename) -> None:
    report = load_json(filename)
    if report.get("success") is not True:
        raise CheckError(f"{filename}: {report.get('command')} check reports "
                         f"success={report.get('success')!r}")


def check_hurst(filename, H: float, tol: float) -> None:
    est = load_json(filename).get("hurst_est")
    if not isinstance(est, (int, float)) or not abs(est - H) <= tol:
        raise CheckError(f"{filename}: hurst_est {est!r} not within {tol:g} of {H:g}")


def check_counterexample(filename, n_max: int) -> None:
    """The oscillating path's QV at level S_n equals n."""
    got = load_json(filename).get("sn_terminals")
    want = list(range(1, n_max + 1))
    if got is None or len(got) != n_max or any(
            not abs(a - b) <= RTOL * b for a, b in zip(got, want)):
        raise CheckError(f"{filename}: QV at levels S_n is {got!r}, expected {want}")


def read_path_samples(filename) -> np.ndarray:
    """Samples of a path file, parsed independently of roughvar's readers."""
    try:
        if filename.endswith(".json"):
            with open(filename) as fh:
                return np.asarray(json.load(fh)["samples"], dtype=np.float64)
        return np.loadtxt(filename, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise CheckError(f"cannot read path {filename}: {exc}") from exc


def check_path_file(filename, samples: np.ndarray) -> None:
    """A written path reads back bitwise equal to the regenerated one."""
    got = read_path_samples(filename)
    if got.shape != samples.shape or not np.array_equal(got, samples):
        raise CheckError(f"{filename}: samples differ from the regenerated path")


def sha256(filename) -> str:
    digest = hashlib.sha256()
    with open(filename, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def check_report_digests(filename, bundled) -> None:
    """A ``report`` bundle names each input once, with its SHA-256."""
    entries = load_json(filename).get("reports", [])
    digests = {e.get("file"): e.get("sha256") for e in entries}
    if sorted(digests) != sorted(bundled):
        raise CheckError(f"{filename}: bundles {sorted(digests)}, expected {sorted(bundled)}")
    for name in bundled:
        if digests[name] != sha256(name):
            raise CheckError(f"{filename}: SHA-256 of {name} does not match the file")


# ---------------------------------------------------------------------------
# Oracles computed from the regenerated input path.
# ---------------------------------------------------------------------------

def takagi_qv(levels) -> dict:
    """Level-n QV of a Takagi path with H = 1/2 and any signs: 1 - 2**-n."""
    return {n: 1.0 - 2.0 ** -n for n in levels}


def takagi_linear_sqv(levels, p: float, C: float) -> dict:
    """Scaled QV of the same path with weights C*dt: (C 2**-n)**gamma (1 - 2**-n)."""
    gamma = (p - 2.0) / p
    return {n: (C * 2.0 ** -n) ** gamma * (1.0 - 2.0 ** -n) for n in levels}


def pth_variation_sums(samples: np.ndarray, levels, p: float) -> dict:
    """sum |dx|**p on each dyadic level, summed exactly with math.fsum."""
    grid_level = (samples.size - 1).bit_length() - 1
    out = {}
    for n in levels:
        dx = np.diff(samples[::1 << (grid_level - n)])
        out[n] = math.fsum((np.abs(dx) ** p).tolist())
    return out


def finest_sqv_sums(samples: np.ndarray, levels, p: float) -> dict:
    """Scaled QV with finest-level weights on each dyadic level, summed with fsum.

    A level-n block's weight is the sum of the finest ``|dx|**p`` inside the
    block (a reshape and a sum, not a difference of cumulative sums), raised
    to ``gamma = (p - 2) / p`` and multiplied by the block's squared increment.
    """
    grid_level = (samples.size - 1).bit_length() - 1
    finest = np.abs(np.diff(samples)) ** p
    gamma = (p - 2.0) / p
    out = {}
    for n in levels:
        w = finest.reshape(1 << n, -1).sum(axis=1)
        dx = np.diff(samples[::1 << (grid_level - n)])
        out[n] = math.fsum((w ** gamma * dx * dx).tolist())
    return out


class Inputs:
    """Seed-derived job parameters plus the regenerated input paths.

    Paths, and the oracle values computed from them, are made at most once
    per benchmark run, and only when a check asks for them; that work is
    never inside a timed job.  Paths come from roughvar's own generators.
    """

    def __init__(self, seed: int, root: str):
        rng = random.Random(seed)
        self.fbm_seed = rng.randrange(1 << 31)
        self.sign_seed = rng.randrange(1 << 31)
        self.root = root
        self._memo = {}

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def fbm(self, level: int) -> np.ndarray:
        from roughvar import fbm_path
        return self._once(("fbm", level),
                          lambda: fbm_path(FBM_H, level, self.fbm_seed).samples)

    def takagi(self, level: int) -> np.ndarray:
        from roughvar import takagi_path
        return self._once(("takagi", level), lambda: takagi_path(
            TAKAGI_H, level, signs="random", seed=self.sign_seed).samples)

    def fbm_pvar(self, level: int, p: float) -> dict:
        return self._once(("pvar", level, p), lambda: pth_variation_sums(
            self.fbm(level), _levels(6, level), p))

    def fbm_sqv(self, level: int, p: float) -> dict:
        return self._once(("sqv", level, p), lambda: finest_sqv_sums(
            self.fbm(level), _levels(6, level), p))

    def fbm_flags(self, level: int) -> list:
        return ["--kind", "fbm", "--H", str(FBM_H), "--level", str(level),
                "--seed", str(self.fbm_seed)]

    def takagi_flags(self, level: int) -> list:
        return ["--kind", "takagi", "--H", str(TAKAGI_H), "--level", str(level),
                "--signs", "random", "--seed", str(self.sign_seed)]


def write_tanh_table(filename) -> None:
    """A (u, tanh u) table on [-4, 4] for ``isometry --map-file``."""
    u = np.linspace(-4.0, 4.0, 161)
    with open(filename, "w") as fh:
        fh.write("u,f\n")
        fh.writelines(f"{a!r},{b!r}\n" for a, b in zip(u.tolist(), np.tanh(u).tolist()))


def _levels(lo: int, hi: int) -> list:
    return list(range(lo, hi + 1))


# ---------------------------------------------------------------------------
# Workloads.  ``build(inputs, out)`` returns the jobs of one pass, writing
# every output under the directory ``out``.
# ---------------------------------------------------------------------------

def _deep_analysis(inp: Inputs, out: str) -> list:
    o = functools.partial(os.path.join, out)
    fbm22, fbm20, tak22 = inp.fbm_flags(22), inp.fbm_flags(20), inp.takagi_flags(22)
    return [
        Job("roughness-fbm-L22",
            ("roughness", *fbm22, "--out", o("roughness.json")),
            lambda: check_hurst(o("roughness.json"), FBM_H, HURST_TOL["fbm-L22"])),
        Job("sqv-fbm-L22",
            ("sqv", *fbm22, "--p", "2.5", "--levels", "6:22", "--out", o("sqv.json")),
            lambda: check_terminals(o("sqv.json"), inp.fbm_sqv(22, 2.5))),
        Job("pvar-takagi-L22",
            ("pvar", *tak22, "--p", "2", "--levels", "6:22", "--out", o("pvar.json")),
            lambda: check_terminals(o("pvar.json"), takagi_qv(_levels(6, 22)))),
        Job("isometry-fbm-L20",
            ("isometry", *fbm20, "--p", "2.5", "--map", "sin", "--out", o("isometry.json")),
            lambda: check_success(o("isometry.json"))),
        Job("invariance-fbm-L20",
            ("invariance", *fbm20, "--p", "2.5", "--amplitude", "0.5",
             "--out", o("invariance.json")),
            lambda: check_success(o("invariance.json"))),
    ]


def _file_pipeline(inp: Inputs, out: str) -> list:
    o = functools.partial(os.path.join, out)
    csv, js = o("fbm.csv"), o("takagi.json")
    bundled = [o("pvar.json"), o("sqv.json"), o("chainrule.json")]
    return [
        Job("gen-fbm-L20-csv", ("gen", *inp.fbm_flags(20), "--out", csv),
            lambda: check_path_file(csv, inp.fbm(20))),
        Job("gen-takagi-L20-json", ("gen", *inp.takagi_flags(20), "--out", js),
            lambda: check_path_file(js, inp.takagi(20))),
        Job("pvar-csv", ("pvar", "--in", csv, "--p", "2.5", "--levels", "6:20",
                         "--out", o("pvar.json")),
            lambda: check_terminals(o("pvar.json"), inp.fbm_pvar(20, 2.5))),
        Job("sqv-json", ("sqv", "--in", js, "--p", "2", "--levels", "6:20",
                         "--out", o("sqv.json")),
            lambda: check_terminals(o("sqv.json"), takagi_qv(_levels(6, 20)))),
        Job("chainrule-csv", ("chainrule", "--in", csv, "--p", "2.5",
                              "--map", "square_plus_one", "--out", o("chainrule.json")),
            lambda: check_success(o("chainrule.json"))),
        Job("report", ("report", "--in", *bundled, "--out", o("report.json")),
            lambda: check_report_digests(o("report.json"), bundled)),
    ]


def _short_jobs(inp: Inputs, out: str) -> list:
    o = functools.partial(os.path.join, out)
    tak, lv = inp.takagi_flags(14), _levels(4, 14)
    table = os.path.join(inp.root, "tanh.csv")
    if not os.path.exists(table):
        write_tanh_table(table)
    return [
        Job("pvar", ("pvar", *tak, "--p", "2", "--levels", "4:14", "--out", o("pvar.json")),
            lambda: check_terminals(o("pvar.json"), takagi_qv(lv))),
        Job("sqv-analytic",
            ("sqv", *tak, "--p", "3", "--src", "analytic", "--analytic-c", "1",
             "--levels", "4:14", "--out", o("sqv.json")),
            lambda: check_terminals(o("sqv.json"), takagi_linear_sqv(lv, 3.0, 1.0))),
        Job("classical-gamma0",
            ("classical", *tak, "--gamma", "0", "--levels", "4:14",
             "--out", o("classical.json")),
            lambda: check_same_terminals(o("classical.json"), o("pvar.json"))),
        Job("roughness-takagi-L14", ("roughness", *tak, "--out", o("roughness.json")),
            lambda: check_hurst(o("roughness.json"), TAKAGI_H, HURST_TOL["takagi-L14"])),
        Job("counterexample", ("counterexample", "--nmax", "4", "--level", "12",
                               "--out", o("cx")),
            lambda: check_counterexample(o(os.path.join("cx", "report.json")), 4)),
        Job("chainrule-sin", ("chainrule", *tak, "--p", "2", "--map", "sin",
                              "--out", o("chainrule.json")),
            lambda: check_success(o("chainrule.json"))),
        Job("isometry-square",
            ("isometry", *tak, "--p", "2", "--map", "square_plus_one",
             "--out", o("isometry.json")),
            lambda: check_success(o("isometry.json"))),
        Job("invariance", ("invariance", *tak, "--p", "2", "--amplitude", "0.5",
                           "--out", o("invariance.json")),
            lambda: check_success(o("invariance.json"))),
        Job("isometry-tanh-table",
            ("isometry", *tak, "--p", "2", "--map-file", table,
             "--out", o("isometry_table.json")),
            lambda: check_success(o("isometry_table.json"))),
    ]


WORKLOADS = {w.name: w for w in [
    Workload(
        "deep-analysis",
        moves=("dyadic-pyramid kernel: wall_s, cpu_s",
               "thread-pool removal: cpu_s, wall_s",
               "VariationProfile slimming: peak_rss_mb"),
        unchanged=("lazy scipy import beyond setup_s", ".npy / CSV path I/O"),
        largest_level=22, build=_deep_analysis),
    Workload(
        "file-pipeline",
        moves=(".npy / CSV path I/O: wall_s, job_s.p50",),
        unchanged=("dyadic-pyramid kernel", "thread-pool removal",
                   "VariationProfile slimming"),
        largest_level=20, build=_file_pipeline),
    Workload(
        "short-jobs",
        moves=("lazy scipy import: setup_s, job_s.p50, wall_s",),
        unchanged=("dyadic-pyramid kernel", "thread-pool removal", ".npy / CSV path I/O"),
        largest_level=14, build=_short_jobs),
]}
