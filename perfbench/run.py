"""roughvar benchmark: fresh-interpreter CLI jobs, checked against oracles.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload deep-analysis --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

A run repeats passes over the workload's job list until ``--seconds`` have
passed.  Each job is one ``roughvar`` CLI invocation in a fresh interpreter
(``launcher.py``), spawned only after the previous one has exited: a closed
loop with one client.  After each pass every job's output is checked against
its oracle (``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs paired passes: each job runs untraced and traced back to
back, so that host speed drift cancels out of their difference.  It reports
the per-layer metrics, computed from spans the traced jobs record around
calls into each roughvar module (``tracing.py``), plus the tracing overhead.
A traced run makes at least ``MIN_TRACE_PAIRS`` paired passes, even when that
takes longer than ``--seconds``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give each metric with its
unit and sample count, the jobs, and the machine facts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(HERE, "launcher.py")
# a job still running after this long is killed and the run reports failure;
# the slowest job takes about 6 s
JOB_TIMEOUT_S = 60.0
MIN_TRACE_PAIRS = 3

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


@dataclass
class JobRecord:
    job: workloads.Job
    wall: float
    setup: float | None  # spawn until ``import roughvar.cli`` returned
    cpu: float
    rss_mib: float | None
    trace: dict | None
    error: str | None

    @property
    def failed(self) -> bool:
        return self.error is not None


def spawn_job(job, index: int, pass_dir: str, traced: bool) -> JobRecord:
    """Run one job in a fresh interpreter; wall time is spawn to exit."""
    stem = os.path.join(pass_dir, f"{index:02d}-{job.name}")
    result_file = stem + ".result.json"
    argv = [sys.executable, LAUNCHER, result_file, SRC, "1" if traced else "0",
            "--", *job.argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stem + ".stdout", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stem + ".stderr", flags, 0o644)]
    t0 = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    try:
        signal.setitimer(signal.ITIMER_REAL, JOB_TIMEOUT_S)
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
    except BaseException:
        signal.setitimer(signal.ITIMER_REAL, 0)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    t1 = time.monotonic()
    rc = os.waitstatus_to_exitcode(status)
    error = None if rc == 0 else f"exit code {rc}: " + _tail(stem + ".stderr")
    try:
        with open(result_file) as fh:
            result = json.load(fh)
        setup = result["ready"] - t0
    except (OSError, ValueError, KeyError):
        result, setup = {}, None
        error = error or "launcher wrote no result"
    rss = result.get("peak_rss_kib")
    return JobRecord(job, t1 - t0, setup, usage.ru_utime + usage.ru_stime,
                     rss / 1024.0 if rss is not None else None, result.get("trace"), error)


def _tail(filename: str) -> str:
    try:
        with open(filename) as fh:
            return " | ".join(fh.read().strip().splitlines()[-3:])
    except OSError:
        return ""


@dataclass
class Pass:
    traced: bool
    records: list
    wall: float


def _check(records) -> None:
    """Run each job's oracle check; outside every timed region."""
    for rec in records:
        if rec.error is None:
            try:
                rec.job.check()
            except workloads.CheckError as exc:
                rec.error = f"check failed: {exc}"


def run_pass(workload, inputs, work_dir: str, number: int) -> Pass:
    pass_dir = os.path.join(work_dir, f"pass{number:03d}")
    os.makedirs(pass_dir)
    jobs = workload.build(inputs, pass_dir)
    t0 = time.monotonic()
    records = [spawn_job(job, i, pass_dir, False) for i, job in enumerate(jobs)]
    wall = time.monotonic() - t0
    _check(records)
    shutil.rmtree(pass_dir)
    return Pass(False, records, wall)


def run_paired_pass(workload, inputs, work_dir: str, number: int) -> tuple:
    """Each job untraced and traced back to back; the order flips every pass.

    Each pass's wall time is the sum of its job wall times.
    """
    pass_dir = os.path.join(work_dir, f"pass{number:03d}")
    dirs = {traced: os.path.join(pass_dir, "traced" if traced else "plain")
            for traced in (False, True)}
    jobs = {}
    for traced, out in dirs.items():
        os.makedirs(out)
        jobs[traced] = workload.build(inputs, out)
    records = {False: [], True: []}
    order = (False, True) if number % 2 == 0 else (True, False)
    for i in range(len(jobs[False])):
        for traced in order:
            records[traced].append(spawn_job(jobs[traced][i], i, dirs[traced], traced))
    for recs in records.values():
        _check(recs)
    shutil.rmtree(pass_dir)
    return tuple(Pass(traced, recs, sum(r.wall for r in recs))
                 for traced, recs in records.items())


def end_to_end(passes) -> tuple:
    """Metric values and the sample count behind each."""
    records = [r for p in passes for r in p.records]
    setups = [r.setup for r in records if r.setup is not None]
    values = {
        "wall_s": statistics.median(p.wall for p in passes),
        "job_s.p50": statistics.median(r.wall for r in records),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(sum(r.cpu for r in p.records) for p in passes),
        "peak_rss_mb": statistics.median(
            max((r.rss_mib for r in p.records if r.rss_mib is not None), default=0.0)
            for p in passes),
        "ok_frac": sum(not r.failed for r in records) / len(records),
    }
    samples = {"wall_s": f"{len(passes)} passes", "job_s.p50": f"{len(records)} jobs",
               "setup_s": f"{len(setups)} jobs", "cpu_s": f"{len(passes)} passes",
               "peak_rss_mb": f"{len(passes)} passes",
               "ok_frac": f"{len(records)} jobs"}
    return values, samples


def per_layer(pairs) -> tuple:
    """Per-layer metrics from paired passes: (untraced, traced) tuples."""
    per_pass = [tracing.layer_metrics([r.trace for r in traced.records if r.trace])
                for _, traced in pairs]
    values = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    values["trace.overhead_s"] = statistics.median(
        traced.wall - plain.wall for plain, traced in pairs)
    note = f"median of {len(pairs)} traced passes"
    samples = {k: note for k in values}
    samples["trace.overhead_s"] = f"median of {len(pairs)} paired differences"
    return values, samples


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version()}
    for pkg in ("numpy", "scipy"):
        try:
            facts[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            facts[pkg] = None
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                                 if line.startswith("model name")), None)
    except OSError:
        facts["cpu"] = None
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for entry in sorted(os.listdir(cache_dir)):
            if entry.startswith("index"):
                level, kind, size = (_read(os.path.join(cache_dir, entry, f))
                                     for f in ("level", "type", "size"))
                if kind in ("Unified", "Data"):
                    facts[f"L{level}"] = size
    except OSError:
        pass
    return facts


def _read(filename: str) -> str:
    with open(filename) as fh:
        return fh.read().strip()


def _kib(size: str | None) -> int | None:
    if not size:
        return None
    units = {"K": 1, "M": 1024, "G": 1024 * 1024}
    return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size) // 1024


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple:
    """All passes of one run; returns (result dict, report lines)."""
    workload = workloads.WORKLOADS[name]
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench_work"))
    inputs = workloads.Inputs(seed, work_dir)
    listing = workload.build(inputs, "OUT")
    start = time.monotonic()
    units, timed_out = [], None  # passes, or (untraced, traced) pairs when tracing
    try:
        while True:
            try:
                units.append(run_paired_pass(workload, inputs, work_dir, len(units))
                             if trace else run_pass(workload, inputs, work_dir, len(units)))
            except JobTimeout:
                timed_out = f"a job was still running after {JOB_TIMEOUT_S:g} s"
                break
            if time.monotonic() - start >= seconds and (
                    not trace or len(units) >= MIN_TRACE_PAIRS):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes = [p for u in units for p in (u if trace else (u,))]
    records = [r for p in passes for r in p.records]
    failed = [r for r in records if r.failed]
    lines = [f"# workload {name}, seed {seed}: {len(passes)} passes, "
             f"{len(records)} jobs, {len(failed)} failed"]
    lines += [f"#   FAILED {r.job.name}: {r.error}" for r in failed]
    lines.append("#   pass wall times (s): " + " ".join(
        f"{p.wall:.3f}{'t' if p.traced else ''}" for p in passes))
    if timed_out:
        lines.append(f"#   {timed_out}")
    metrics = {}  # only from a run in which every job passed
    if units and not timed_out and not failed:
        values, samples = per_layer(units) if trace else end_to_end(units)
        wanted = spec["per_layer" if trace else "end_to_end"]
        if set(values) != {m["name"] for m in wanted}:
            raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in wanted})} "
                               "disagree with BENCHMARK.json")
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            lines.append(f"#   {m['name']:<40} {values[m['name']]:>14.6g} {m['unit']:<6} "
                         f"({samples[m['name']]})")
    facts = machine_facts()
    l2 = _kib(facts.get("L2"))
    largest = (2 ** workload.largest_level + 1) * 8
    facts["largest_array"] = (f"{largest / 2 ** 20:.1f} MiB at level {workload.largest_level}"
                              + (f", {largest / (l2 * 1024):.2f}x L2" if l2 else ""))
    lines.append("# facts " + json.dumps(facts, sort_keys=True))
    lines.append("# why " + next(w["why"] for w in spec["workloads"] if w["name"] == name))
    lines.append("# should move: " + "; ".join(workload.moves)
                 + " | should not move: " + "; ".join(workload.unchanged))
    lines += [f"# job {j.name}: roughvar {' '.join(j.argv)}" for j in listing]
    result = {"correct": bool(passes) and not failed and not timed_out,
              "attempted": max(len(records), 1),
              "failed": len(failed) if records else 1,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "roughvar", "cli.py")):
        print(f"error: no roughvar sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    # the oracles regenerate inputs with the roughvar under test, never another copy
    sys.path.insert(0, SRC)
    import roughvar
    if os.path.dirname(os.path.dirname(os.path.realpath(roughvar.__file__))) \
            != os.path.realpath(SRC):
        print(f"error: roughvar imported from {roughvar.__file__}", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, _on_term)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        print("\n".join(lines), flush=True)
        results.append((name, result))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {"correct": all(r["correct"] for _, r in results),
                 "attempted": sum(r["attempted"] for _, r in results),
                 "failed": sum(r["failed"] for _, r in results),
                 "metrics": {f"{n}/{k}": v for n, r in results
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
