"""Command-line driver for reproducible variation experiments.

Each subcommand validates its inputs, runs the corresponding kernel or
verifier, writes CSV/JSON artifacts, and drops a manifest JSON (config,
library versions, timings, input digests) next to the primary output.
Artifacts are byte-stable across re-runs with the same config and seed;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import stat
import sys
import time

# One BLAS thread per job: numpy's OpenBLAS otherwise starts a worker per
# extra CPU at import, and they spin although no job makes a sizeable BLAS
# call.  Set only before numpy loads, and never over the user's own choice.
if "numpy" not in sys.modules and not {
        "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from . import __version__, grid, isometry, pathgen, roughness, schauder, variation  # noqa: E402
from .errors import FormatError, NumericalError, ValidationError  # noqa: E402

__all__ = ["main", "build_parser"]



# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------

# Inputs of at most this many bytes are hashed by CPython's builtin SHA-256
# and larger ones by OpenSSL's: on a 2-vCPU Xeon they ran at 240 MB/s and
# 1.16 GB/s, so a MiB costs the builtin 3.5 ms more, under the 5-7 ms that
# loading and tearing down OpenSSL's libcrypto costs a job.
_BUILTIN_SHA256_MAX = 1 << 20


def _load_json(filename: str, digest):
    with grid._open_text(filename, digest) as fh:
        return json.load(fh)


def _manifest_name(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return (stem if ext in (".csv", ".json") else out) + ".manifest.json"


def _peak_rss_mib() -> float:
    """This process's peak resident set so far, in MiB.

    Linux's ``VmHWM`` where ``/proc`` has it, since ``ru_maxrss`` survives
    exec: a job started by a larger process would report that process's peak.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return round(int(line.split()[1]) / 1024, 3)
    except OSError:
        pass
    import resource
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # bytes on macOS, else KiB
    return round(peak / (1 << 20 if sys.platform == "darwin" else 1024), 3)


def _parse_levels(text: str) -> list:
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if lo > hi:
                raise ValueError("empty range")
            return list(range(lo, hi + 1))
        return [int(text)]
    except ValueError as exc:
        raise ValidationError(
            f"bad levels {text!r}; expected N or A:B (inclusive)"
        ) from exc


def _resolve_levels(args, x: grid.Path) -> list:
    """``--levels``, else the default window, else every level of a short grid."""
    if args.levels:
        return _parse_levels(args.levels)
    lv = list(variation.default_levels(x))
    return lv if len(lv) >= 3 else list(range(0, x.grid_level + 1))


def _resolve_window(args, n_levels: int) -> int:
    raw = args.window
    if raw in (None, ""):
        return min(4, n_levels)
    if raw == "full":
        return n_levels
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"bad window {raw!r}; expected an integer or 'full'") from exc


def _resolve_source(args) -> variation.PVarSource | None:
    """The linear source of ``--src analytic``; None for ``--src finest`` or no ``--src``."""
    return variation.PVarSource.linear(args.analytic_c) if args.src == "analytic" else None


def _smooth_params(args) -> dict:
    """The sine's ``freq``, or the polynomial's ``coeffs`` parsed from ``--coeffs``."""
    if args.smooth_kind == "sine":
        return {"freq": args.freq}
    try:
        return {"coeffs": [float(c) for c in args.coeffs.split(",")]}
    except ValueError as exc:
        raise ValidationError(f"bad --coeffs {args.coeffs!r}; expected "
                              "comma-separated numbers") from exc


def _generator_spec(args) -> pathgen.GeneratorSpec:
    kind, params = args.kind, {}
    if kind == "takagi":
        params["signs"] = args.signs
        if args.max_level is not None:
            params["max_level"] = args.max_level
    elif kind == "counterexample":
        params["n_max"] = args.nmax
    elif kind == "smooth":
        params.update(shape=args.smooth_kind, amplitude=args.amplitude, **_smooth_params(args))
    elif kind == "custom_schauder":
        params["coeffs_file"] = args.coeffs_file
    return pathgen.GeneratorSpec(kind=kind, grid_level=args.level, H=args.H,
                                 seed=args.seed, params=params)


class _Run:
    """One command's run: its clock, the inputs it makes or reads, and its outputs.

    ``path_s`` is the time taken to make the path and to read, and hash,
    every input file; ``inputs`` holds each file's SHA-256 and ``extra`` the
    manifest's further fields.  The payload goes to the file ``report`` and
    the manifest to ``manifest``, by default beside ``--out``.
    """

    def __init__(self, args, report: str | None = None, manifest: str | None = None):
        self.args, self.report, self.t0 = args, report, time.perf_counter()
        self.manifest = manifest or (args.out and _manifest_name(args.out))
        self.path_s, self.inputs, self.extra = 0.0, {}, {}

    def check(self, *writes, dirs=()) -> None:
        """Exit 1, before any write, if two files the command reads or writes share a name.

        ``writes`` are ``(role, name)`` pairs, after the report and before
        the manifest; none may be an existing directory.  ``dirs`` are
        directories the command makes.  Each name is compared by
        ``os.path.realpath`` with every file an input flag names and every
        earlier write.
        """
        reads = [("--in", name) for name in self.args.infiles or ()]
        reads += [(_flag(dest), getattr(self.args, dest))
                  for dest in ("infile", "coeffs_file", "map_file", "perturb_in")]
        writes = (("--out", self.report), *writes, ("the manifest", self.manifest))
        seen = {}
        for i, (role, name) in enumerate([*reads, *dirs, *writes]):
            key = name and os.path.realpath(name)
            if key in seen and i >= len(reads):
                raise ValidationError(f"{' '.join(seen[key])} is also {role}'s name; a "
                                      "command reads and writes each file under its own name")
            if key and i >= len(reads) + len(dirs) and os.path.isdir(key):
                raise ValidationError(f"{role} {name} is a directory; it must name a file")
            if key:
                seen.setdefault(key, (role, name))

    def timed(self, make, *args):
        """``make(*args)``, its seconds added to ``path_s``."""
        t1 = time.perf_counter()
        result = make(*args)
        self.path_s += time.perf_counter() - t1
        return result

    def read(self, filename: str, read, *args):
        """``read(filename, *args, digest=...)``, timed; ``inputs[filename]`` gets the SHA-256.

        Every input is read once, so that a pipe works and the digest is of the
        bytes parsed.  A regular file of at most ``_BUILTIN_SHA256_MAX`` bytes
        is hashed without OpenSSL; a larger file, a pipe, or a name ``os.stat``
        cannot size, with it.
        """
        t1 = time.perf_counter()
        try:
            info = os.stat(filename)
            small = stat.S_ISREG(info.st_mode) and info.st_size <= _BUILTIN_SHA256_MAX
        except (OSError, ValueError):
            small = False
        digest = grid._hash("sha256", *(("_sha2", "_sha256") if small else ()))()
        result = read(filename, *args, digest=digest)
        self.inputs[filename] = digest.hexdigest()
        self.path_s += time.perf_counter() - t1
        return result

    def read_path(self, filename: str) -> grid.Path:
        """A path file, JSON by extension and CSV otherwise."""
        return self.read(filename, grid.read_path_json if filename.endswith(".json")
                         else grid.read_path_csv)

    def path(self) -> grid.Path:
        """``--in``, else the path the generator flags describe; the manifest records its spec."""
        if self.args.infile:
            return self.read_path(self.args.infile)
        spec = _generator_spec(self.args)
        self.extra["generator"] = spec.metadata()
        if spec.kind == "custom_schauder":
            return self.read(spec.params["coeffs_file"],
                             lambda name, digest: pathgen.generate(spec, digest))
        return self.timed(pathgen.generate, spec)

    def finish(self, payload: dict, lines, *files) -> int:
        """Write the payload to ``report``, then ``files``, then the manifest; print; 0.

        ``files`` are ``(name, write)`` pairs: ``write(name)`` where a name
        is given.  Stdout gets the payload as JSON under ``--json``, else
        ``lines``.
        """
        if self.report:
            grid._write_json(payload, self.report)
        for name, write in files:
            if name:
                write(name)
        if self.manifest:
            grid._write_json({
                "command": self.args.command,
                "config": self.args.config,
                "versions": {"python": platform.python_version(),
                             "numpy": np.__version__, "roughvar": __version__},
                "timings": {"total_s": round(time.perf_counter() - self.t0, 6),
                            "path_s": round(self.path_s, 6),
                            "cpu_s": round(sum(os.times()[:2]), 6)},  # user + system
                "peak_rss_mib": _peak_rss_mib(),
                "inputs": self.inputs,
                **self.extra,
            }, self.manifest)
        if self.args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return 0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    run = _Run(args)  # --out is the path file, not a report
    run.check(("--out", args.out))
    x = run.path()
    write = grid.write_path_json if args.out.endswith(".json") else grid.write_path_csv
    payload = {"command": "gen", "out": args.out, "generator": run.extra["generator"],
               "samples": int(x.samples.size)}
    return run.finish(payload, [f"wrote {args.out}: level {x.grid_level}, "
                                f"{x.samples.size} samples ({x.label})"],
                      (args.out, lambda name: write(x, name)))


def _profile_run(args) -> int:
    """pvar / sqv / classical: the p-th variation, scaled QV or classical scaled QV across levels.

    Every level's terminal and metadata come from one pass down the dyadic
    pyramid.  ``--profiles-out`` profiles are built from the terms of that
    same pass, so each sidecar ``terminal`` is its ``per_level`` terminal.
    """
    label = args.command
    kind = {"pvar": "pth", "sqv": "scaled", "classical": "classical_scaled"}[label]
    src = _resolve_source(args)
    run = _Run(args, args.out)
    x = run.path()
    levels = _resolve_levels(args, x)

    out_dir, write = args.profiles_out, None
    csv = lambda n: os.path.join(out_dir, f"{label}_level{n:02d}.csv")
    run.check(*(("a --profiles-out file", name) for n in levels if out_dir
                for name in (csv(n), variation._sidecar_name(csv(n)))),
              dirs=[("--profiles-out", out_dir)] if out_dir else ())
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write = lambda prof: variation.write_profile_csv(prof, csv(prof.level))
    per_level = variation._level_metadata(x, levels, kind, args.p, args.gamma, src, write, label)
    terminals = [meta["terminal"] for meta in per_level]
    report = None
    if len(levels) >= 3:
        window = _resolve_window(args, len(levels))
        report = variation.limit_diagnostics(terminals, window=window, levels=levels)

    flag = "gamma" if kind == "classical_scaled" else "p"
    payload = {"command": label, "levels": levels, "terminals": terminals,
               "per_level": per_level, flag: getattr(args, flag),
               "limit_report": report.to_dict() if report else None}
    lines = [f"{label}: level {n:2d} terminal {v:.12g}"
             for n, v in zip(levels, terminals)]
    if report:
        lines.append(f"classification: {report.classification} "
                     f"(slope {report.trend_slope:+.3f}, window {report.window})")
    return run.finish(payload, lines)


def _cmd_roughness(args) -> int:
    run = _Run(args, args.out)
    run.check(("--per-q-out", args.per_q_out))
    src = _resolve_source(args)
    x = run.path()
    levels = _resolve_levels(args, x)
    report = roughness.critical_index_search(
        x, levels=levels, p_range=(args.p_min, args.p_max), iters=args.iters, src=src)

    def write_probes(name):
        header = "q,classification," + ",".join(f"level_{n}" for n in levels)
        rows = [f"{rec.q:.17g},{rec.classification},"
                + ",".join(f"{v:.17g}" for v in rec.terminal_values)
                for rec in report.per_q]
        with open(name, "w") as fh:
            fh.write(header + "\n" + "\n".join(rows) + "\n")

    return run.finish({"command": "roughness", **report.to_dict()}, [
        f"p_bar_est {report.p_bar_est:.6g} in bracket "
        f"[{report.bracket[0]:.6g}, {report.bracket[1]:.6g}]",
        f"hurst_est {report.hurst_est:.6g} ({len(report.per_q)} probes, "
        f"src {report.src_mode})",
    ], (args.per_q_out, write_probes))


def _map_from_args(run) -> isometry.SmoothMap:
    name = run.args.map_file
    if name:
        data = run.read(name, grid._read_csv, "map table")
        return isometry.tabulated_map(os.path.splitext(os.path.basename(name))[0],
                                      data[:, 0], data[:, 1])
    return isometry.builtin_map(run.args.map)


def _two_sided_run(args, check) -> int:
    """Common body of isometry / chainrule / invariance.

    ``check(run, x, levels)`` returns the report; it reads any further input
    file through ``run``.  The per-level table goes next to the report JSON,
    as ``--out`` with a ``.csv`` extension.
    """
    table = args.out and os.path.splitext(args.out)[0] + ".csv"
    run = _Run(args, args.out)
    run.check(("the per-level table", table))
    x = run.path()
    report = check(run, x, _resolve_levels(args, x))
    lines = [f"level {n:2d}: lhs {a:.9g} rhs {b:.9g} rel_err {r:.3g}"
             for n, a, b, r in zip(report.levels, report.lhs_terminal,
                                   report.rhs_terminal, report.rel_err)]
    lines.append(f"err trend slope {report.err_trend_slope:+.3f}; "
                 f"success={report.success}")
    lines.extend(f"warning: {w}" for w in report.warnings)
    return run.finish({"command": args.command, **report.to_dict()}, lines,
                      (table, lambda name: isometry.write_report_csv(report, name)))


def _cmd_isometry(args) -> int:
    src = _resolve_source(args)
    return _two_sided_run(args, lambda run, x, levels: isometry.isometry_check(
        x, _map_from_args(run), args.p, levels, src=src))


def _cmd_chainrule(args) -> int:
    return _two_sided_run(args, lambda run, x, levels: isometry.chain_rule_check(
        x, _map_from_args(run), args.p, levels))


def _cmd_invariance(args) -> int:
    src = _resolve_source(args)
    shape = None if args.perturb_in else _smooth_params(args)  # checked before any read

    def check(run, x, levels):
        y = run.read_path(args.perturb_in) if args.perturb_in else pathgen.smooth_perturbation(
            args.smooth_kind, args.amplitude, x.grid_level, shape)
        return isometry.invariance_check(x, y, args.p, levels, src=src)

    return _two_sided_run(args, check)


def _cmd_counterexample(args) -> int:
    n_max = args.nmax
    if n_max < 3:
        raise ValidationError(f"--nmax must be at least 3, got {n_max}")
    names = ("path.csv", "coefficients.json", "report.json", "manifest.json")
    path_csv, coeffs_json, report_json, manifest = (
        [os.path.join(args.out, name) for name in names] if args.out else [None] * 4)
    run = _Run(args, report_json, manifest)  # --out is their directory
    run.check(("--out", path_csv), ("--out", coeffs_json))
    coeffs = run.timed(schauder.counterexample_coefficients, n_max)
    level = args.level if args.level is not None else coeffs.max_level
    x = run.timed(schauder.schauder_eval, coeffs, level)

    # coefficient bursts sit at rows S_n - 1; observation levels are S_n
    burst = [row + 1 for row in schauder.counterexample_burst_levels(n_max)]
    pre = [s - 1 for s in burst]
    inter_levels = [n for pair in zip(pre, burst) for n in pair]
    inter_vals = variation._level_terminals(x, inter_levels, "pth", 2.0)
    pre_terms, sn_terms = inter_vals[0::2], inter_vals[1::2]

    def diag(vals, levels):
        return variation.limit_diagnostics(vals, window=len(vals), levels=levels)

    payload = {
        "command": "counterexample", "n_max": n_max, "grid_level": level,
        "sn_levels": burst, "sn_terminals": sn_terms,
        "pre_levels": pre, "pre_terminals": pre_terms,
        "reports": {"sn": diag(sn_terms, burst).to_dict(),
                    "pre": diag(pre_terms, pre).to_dict(),
                    "interleaved": diag(inter_vals, inter_levels).to_dict()},
    }
    lines = [f"level {n:2d}: quadratic variation {v:.9g}"
             for n, v in zip(inter_levels, inter_vals)]
    lines.append("interleaved classification: "
                 + payload["reports"]["interleaved"]["classification"])
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return run.finish(payload, lines, (path_csv, lambda name: grid.write_path_csv(x, name)),
                      (coeffs_json, lambda name: schauder.write_coefficients_json(coeffs, name)))


def _cmd_report(args) -> int:
    run = _Run(args, args.out)
    run.check()
    entries, lines = [], []
    for name in args.infiles:
        try:
            payload = run.read(name, _load_json)
        except (OSError, ValueError) as exc:
            raise FormatError(f"cannot parse report {name}: {exc}") from exc
        if not isinstance(payload, dict):
            raise FormatError(f"report {name} is not a JSON object")
        entries.append({"file": name, "sha256": run.inputs[name], "report": payload})
        headline = payload.get("command", "?")
        for key in ("classification", "p_bar_est", "success"):
            if key in payload:
                headline += f" {key}={payload[key]}"
            elif isinstance(payload.get("limit_report"), dict) \
                    and key in payload["limit_report"]:
                headline += f" {key}={payload['limit_report'][key]}"
        lines.append(f"{name}: {headline}")
    return run.finish({"command": "report", "reports": entries}, lines)


# ---------------------------------------------------------------------------
# Flag contract and parser
# ---------------------------------------------------------------------------

# Rows: the flags (by dest) a command reads whatever its input, then those
# that "--flag value" adds, or "--flag" at any value.  "a|b" reads the first
# of a and b given, else b; "a!" must be given.  A flag not given takes its
# _DEFAULTS value, else None.  Each command's parser has the flags its rows
# reach, from _SPECS, with no argparse default and none required.
_INPUT = "infile|kind! levels out"  # a path file, or a generated path
_PROFILE = _INPUT + " window profiles_out"
_READS = {
    "gen": "kind! out!",
    "pvar": _PROFILE + " p!",
    "sqv": _PROFILE + " p! src",
    "classical": _PROFILE + " gamma!",
    "roughness": _INPUT + " src p_min p_max iters per_q_out",
    "isometry": _INPUT + " src p! map_file|map",
    "chainrule": _INPUT + " p! map_file|map",
    "invariance": _INPUT + " src p! perturb_in|smooth_kind",
    "counterexample": "nmax! level out",
    "report": "infiles! out",
    "--kind fbm": "H! level! seed",
    "--kind takagi": "H! level! signs max_level",
    "--kind counterexample": "nmax! level",
    "--kind smooth": "level! smooth_kind",
    "--kind custom_schauder": "level! coeffs_file!",
    "--signs random": "seed",
    "--smooth-kind": "amplitude",
    "--smooth-kind sine": "freq",
    "--smooth-kind poly": "coeffs",
    "--src analytic": "analytic_c!",
}
_DEFAULTS = {"seed": 0, "signs": "plus", "smooth_kind": "sine", "amplitude": 1.0,
             "freq": 1.0, "coeffs": "0,1", "src": "finest", "map": "identity",
             "p_min": 1.2, "p_max": 4.0, "iters": 12}
_FLAGS = set(re.findall(r"\w+", " ".join(_READS.values())))

# Each flag, by dest and in --help's order: its type, its choices, or "+"
# (one value or more); and its help, which gets its _DEFAULTS value
_SPECS = {
    "infile": (str, "input path CSV/JSON"),
    "infiles": ("+", "report JSONs to bundle"),
    "kind": (("takagi", "fbm", "counterexample", "smooth", "custom_schauder"), "path generator"),
    "H": (float, "roughness parameter in (0,1)"),
    "level": (int, "grid level of the path (counterexample: the finest burst's by default)"),
    "seed": (int, "RNG seed of fbm and random takagi"),
    "signs": (("plus", "minus", "alternating", "random"), "takagi's coefficient signs"),
    "max_level": (int, "truncate takagi coefficients at this level (default the grid level)"),
    "nmax": (int, "burst count of the counterexample"),
    "smooth_kind": (("sine", "poly"), "shape of --kind smooth or the perturbation"),
    "amplitude": (float, "smooth shape's factor"),
    "freq": (float, "sine shape's frequency"),
    "coeffs": (str, "poly shape's comma-separated coefficients, constant first"),
    "coeffs_file": (str, "coefficient JSON for custom_schauder"),
    "levels": (str, "dyadic levels, N or A:B inclusive"),
    "p": (float, "variation exponent (> 0)"),
    "gamma": (float, "time-weight exponent"),
    "window": (str, "diagnostic tail window (int or 'full')"),
    "profiles_out": (str, "directory for per-level profile CSVs"),
    "src": (("finest", "analytic"), "weight source for scaled QV"),
    "analytic_c": (float, "C for the linear analytic source C*t"),
    "p_min": (float, "low end of the index search"),
    "p_max": (float, "high end of the index search"),
    "iters": (int, "most probes after the endpoints"),
    "per_q_out": (str, "CSV of per-probe terminal sequences"),
    "map": (str, "catalog map id (identity, affine:a,b, square_plus_one, sin, exp_clamped)"),
    "map_file": (str, "CSV (u,f) table for a not-a-knot cubic-spline map"),
    "perturb_in": (str, "perturbation path CSV/JSON (default: the smooth shape)"),
    "out": (str, "output file (counterexample: directory); its manifest goes beside it"),
}

_COMMANDS = {  # name: help, handler
    "gen": ("generate a path and write it to CSV/JSON", _cmd_gen),
    "pvar": ("p-th variation profiles across levels", _profile_run),
    "sqv": ("scaled quadratic variation across levels", _profile_run),
    "classical": ("time-weighted scaled QV across levels", _profile_run),
    "roughness": ("secant search for the critical variation index", _cmd_roughness),
    "isometry": ("two-sided scaled-QV isometry check", _cmd_isometry),
    "chainrule": ("p-th variation chain-rule check", _cmd_chainrule),
    "invariance": ("smooth-perturbation invariance check", _cmd_invariance),
    "counterexample": ("oscillating-QV path and its level diagnostics", _cmd_counterexample),
    "report": ("bundle report JSONs into one summary", _cmd_report),
}


def _flag(dest: str) -> str:
    return "--in" if dest.startswith("infile") else "--" + dest.replace("_", "-")


def _reach(command: str) -> set:
    """The flags (by dest) of ``command``'s row and of every row those flags lead to."""
    rows, reach = [command], set()
    for row in rows:
        for dest in re.findall(r"\w+", _READS[row]):
            reach.add(dest)
            rows += [key for key in _READS if key.split()[0] == _flag(dest) and key not in rows]
    return reach


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, that of validation errors.

    Every token that reads as a negative float (``-1e-3``, ``-inf``) is a
    value, not an option: argparse alone knows only ``-1`` and ``-.5``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="roughvar",
        description="Pathwise variation toolkit: p-th variation, scaled "
                    "quadratic variation, critical-index search, and "
                    "isometry/invariance verification on dyadic grids.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, func) in _COMMANDS.items():
        p = sub.add_parser(command, help=text)
        reach = _reach(command)
        for dest, (kind, flag_help) in _SPECS.items():
            if dest not in reach:
                continue
            if dest in _DEFAULTS:
                flag_help += f" (default {_DEFAULTS[dest]})"
            p.add_argument(_flag(dest), dest=dest, help=flag_help, **(
                {"nargs": kind} if kind == "+" else
                {"choices": kind} if isinstance(kind, tuple) else {"type": kind}))
        p.set_defaults(func=func)
    return parser


def _apply_contract(args) -> None:
    """Give each flag of ``_READS`` its value by the table, None where it is not read.

    ``args.config`` gets the flags read.  A flag given but not read, one
    needed but not given, and one that two rows read are validation errors.
    """
    given = {dest: val for dest, val in vars(args).items() if dest in _FLAGS and val is not None}
    read, by, left = {}, {}, {}  # the row that read a flag; a choice's flags not taken

    def visit(key):  # depth first: an input's flags are read before a later choice's
        for item in _READS[key].split():
            alts = item.rstrip("!").split("|")
            dest = next((d for d in alts if d in given), alts[-1])
            left.update((d, dest) for d in alts if d != dest)
            if dest in read:
                raise ValidationError(f"{_flag(dest)} is read with {by[dest]}, "
                                      f"so {key} requires {_flag(alts[0])}")
            if item.endswith("!") and dest not in given:
                raise ValidationError(f"{key} requires {' or '.join(map(_flag, alts))}")
            read[dest], by[dest] = given.get(dest, _DEFAULTS.get(dest)), key
            for row in (_flag(dest), f"{_flag(dest)} {read[dest]}"):
                if row in _READS:
                    visit(row)

    visit(args.command)
    for dest in (d for d in given if d not in read):  # the first raises
        if dest in left:
            raise ValidationError(f"{_flag(dest)} is not read with {_flag(left[dest])}")
        keys = [key for key, row in _READS.items()
                if key.startswith("--") and dest in re.findall(r"\w+", row)]
        sel = next((d for key in reversed(keys) for d in read if key.split()[0] == _flag(d)), None)
        raise ValidationError(f"{_flag(dest)} is read only with {' or '.join(keys)}"
                              + (f", not {_flag(sel)} {read[sel]}" if sel else ""))
    vars(args).update(dict.fromkeys(_FLAGS), **read)
    args.config = read


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_contract(args)
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        evidence = getattr(exc, "evidence", None)
        if evidence:
            print(json.dumps({"evidence": evidence}, indent=2, sort_keys=True),
                  file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
