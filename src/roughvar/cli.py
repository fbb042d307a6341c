"""Command-line driver for reproducible variation experiments.

Each subcommand validates its inputs, runs the corresponding kernel or
verifier, writes CSV/JSON artifacts, and drops a manifest JSON (config,
library versions, timings, input digests) next to the primary output.
Artifacts are byte-stable across re-runs with the same config and seed;
wall-clock timings live only in the manifest.
"""

from __future__ import annotations

import argparse
import functools
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


def _hashed(inputs: dict, filename: str, read, *args):
    """``read(filename, *args, digest=...)``; ``inputs[filename]`` gets the SHA-256 of the bytes read.

    Every input is read once, so that a pipe works and the digest is of the
    bytes parsed.  A regular file of at most ``_BUILTIN_SHA256_MAX`` bytes
    is hashed without OpenSSL; a larger file, a pipe, or a name ``os.stat``
    cannot size, with it.
    """
    try:
        info = os.stat(filename)
        small = stat.S_ISREG(info.st_mode) and info.st_size <= _BUILTIN_SHA256_MAX
    except (OSError, ValueError):
        small = False
    digest = grid._hash("sha256", *(("_sha2", "_sha256") if small else ()))()
    result = read(filename, *args, digest=digest)
    inputs[filename] = digest.hexdigest()
    return result


def _load_json(filename: str, digest):
    with grid._open_text(filename, digest) as fh:
        return json.load(fh)


def _manifest_name(out: str) -> str:
    stem, ext = os.path.splitext(out)
    return (stem if ext in (".csv", ".json") else out) + ".manifest.json"


def _check_names(args, *writes, dirs=(), report: bool = True) -> None:
    """Exit 1, before any write, if two files a command reads or writes share a name.

    ``writes`` are ``(role, name)`` pairs, after ``--out`` and before its
    manifest when ``report``; none may be an existing directory.  ``dirs``
    are directories the command makes.  Each name is compared by
    ``os.path.realpath`` with every file an input flag names and every
    earlier write.
    """
    reads = [("--in", name) for name in args.infiles or ()]
    reads += [(_flag(dest), getattr(args, dest))
              for dest in ("infile", "coeffs_file", "map_file", "perturb_in")]
    if report and args.out:
        writes = (("--out", args.out), *writes, ("the manifest", _manifest_name(args.out)))
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


def _write_manifest(args, t0: float, path_s: float, inputs: dict, out: str,
                    extra: dict | None = None, exact_name: bool = False) -> None:
    """The run manifest of ``out``; ``path_s`` is the time the input took to make or read."""
    manifest = {
        "command": args.command,
        "config": args.config,
        "versions": {"python": platform.python_version(),
                     "numpy": np.__version__, "roughvar": __version__},
        "timings": {"total_s": round(time.perf_counter() - t0, 6),
                    "path_s": round(path_s, 6),
                    "cpu_s": round(sum(os.times()[:2]), 6)},  # user + system
        "peak_rss_mib": _peak_rss_mib(),
        "inputs": inputs,
    }
    if extra:
        manifest.update(extra)
    grid._write_json(manifest, out if exact_name else _manifest_name(out))


def _emit(args, payload: dict, lines) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


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


def _generate(spec: pathgen.GeneratorSpec, inputs: dict) -> grid.Path:
    """The path ``spec`` describes; a coefficient file it names is digested into ``inputs``."""
    if spec.kind != "custom_schauder":
        return pathgen.generate(spec)
    return _hashed(inputs, spec.params["coeffs_file"],
                   lambda name, digest: pathgen.generate(spec, digest))


def _read_path(filename: str, inputs: dict) -> grid.Path:
    """A path file, JSON by extension and CSV otherwise; digest into ``inputs``."""
    read = grid.read_path_json if filename.endswith(".json") else grid.read_path_csv
    return _hashed(inputs, filename, read)


def _load_path(args) -> tuple:
    """Resolve the input path: --in FILE or inline generator flags.

    Returns the path, the input digests, the manifest's extra fields and the
    seconds taken to generate or read, and hash, the path.
    """
    t0 = time.perf_counter()
    inputs, extra = {}, {}
    if args.infile:
        x = _read_path(args.infile, inputs)
    else:
        spec = _generator_spec(args)
        x = _generate(spec, inputs)
        extra["generator"] = spec.metadata()
    return x, inputs, extra, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    t0 = time.perf_counter()
    spec = _generator_spec(args)
    _check_names(args)
    inputs, t1 = {}, time.perf_counter()
    x = _generate(spec, inputs)
    path_s = time.perf_counter() - t1
    write = grid.write_path_json if args.out.endswith(".json") else grid.write_path_csv
    write(x, args.out)
    _write_manifest(args, t0, path_s, inputs, args.out, {"generator": spec.metadata()})
    payload = {"command": "gen", "out": args.out, "generator": spec.metadata(),
               "samples": int(x.samples.size)}
    _emit(args, payload, [f"wrote {args.out}: level {x.grid_level}, "
                          f"{x.samples.size} samples ({x.label})"])
    return 0


def _profile_run(args, kind: str) -> int:
    """pvar / sqv / classical: the ``kind`` functional across levels.

    Every level's terminal and metadata come from one pass down the dyadic
    pyramid.  ``--profiles-out`` profiles are built from the terms of that
    same pass, so each sidecar ``terminal`` is its ``per_level`` terminal.
    """
    label = args.command
    src = _resolve_source(args)
    t0 = time.perf_counter()
    x, inputs, extra, path_s = _load_path(args)
    levels = _resolve_levels(args, x)

    out_dir, write = args.profiles_out, None
    csv = lambda n: os.path.join(out_dir, f"{label}_level{n:02d}.csv")
    _check_names(args, *(("a --profiles-out file", name) for n in levels if out_dir
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

    if args.out:
        grid._write_json(payload, args.out)
        _write_manifest(args, t0, path_s, inputs, args.out, extra)

    lines = [f"{label}: level {n:2d} terminal {v:.12g}"
             for n, v in zip(levels, terminals)]
    if report:
        lines.append(f"classification: {report.classification} "
                     f"(slope {report.trend_slope:+.3f}, window {report.window})")
    _emit(args, payload, lines)
    return 0


def _cmd_roughness(args) -> int:
    t0 = time.perf_counter()
    _check_names(args, ("--per-q-out", args.per_q_out))
    src = _resolve_source(args)
    x, inputs, extra, path_s = _load_path(args)
    levels = _resolve_levels(args, x)
    report = roughness.critical_index_search(
        x, levels=levels, p_range=(args.p_min, args.p_max), iters=args.iters, src=src)
    payload = {"command": "roughness", **report.to_dict()}
    if args.per_q_out:
        header = "q,classification," + ",".join(f"level_{n}" for n in levels)
        rows = [f"{rec.q:.17g},{rec.classification},"
                + ",".join(f"{v:.17g}" for v in rec.terminal_values)
                for rec in report.per_q]
        with open(args.per_q_out, "w") as fh:
            fh.write(header + "\n" + "\n".join(rows) + "\n")
    if args.out:
        grid._write_json(payload, args.out)
        _write_manifest(args, t0, path_s, inputs, args.out, extra)
    _emit(args, payload, [
        f"p_bar_est {report.p_bar_est:.6g} in bracket "
        f"[{report.bracket[0]:.6g}, {report.bracket[1]:.6g}]",
        f"hurst_est {report.hurst_est:.6g} ({len(report.per_q)} probes, "
        f"src {report.src_mode})",
    ])
    return 0


def _map_from_args(args, inputs: dict) -> isometry.SmoothMap:
    if args.map_file:
        data = _hashed(inputs, args.map_file, grid._read_csv, "map table")
        name = os.path.splitext(os.path.basename(args.map_file))[0]
        return isometry.tabulated_map(name, data[:, 0], data[:, 1])
    return isometry.builtin_map(args.map)


def _two_sided_run(args, check) -> int:
    """Common body of isometry / chainrule / invariance.

    ``check(x, levels, inputs)`` returns the report; it records the digests
    of any further input files in ``inputs``.  The per-level table goes next
    to the report JSON, as ``--out`` with a ``.csv`` extension.
    """
    table = os.path.splitext(args.out or "")[0] + ".csv"
    _check_names(args, ("the per-level table", args.out and table))
    t0 = time.perf_counter()
    x, inputs, extra, path_s = _load_path(args)
    report = check(x, _resolve_levels(args, x), inputs)
    payload = {"command": args.command, **report.to_dict()}
    if args.out:
        grid._write_json(payload, args.out)
        isometry.write_report_csv(report, table)
        _write_manifest(args, t0, path_s, inputs, args.out, extra)
    lines = [f"level {n:2d}: lhs {a:.9g} rhs {b:.9g} rel_err {r:.3g}"
             for n, a, b, r in zip(report.levels, report.lhs_terminal,
                                   report.rhs_terminal, report.rel_err)]
    lines.append(f"err trend slope {report.err_trend_slope:+.3f}; "
                 f"success={report.success}")
    lines.extend(f"warning: {w}" for w in report.warnings)
    _emit(args, payload, lines)
    return 0


def _cmd_isometry(args) -> int:
    src = _resolve_source(args)
    return _two_sided_run(args, lambda x, levels, inputs: isometry.isometry_check(
        x, _map_from_args(args, inputs), args.p, levels, src=src))


def _cmd_chainrule(args) -> int:
    return _two_sided_run(args, lambda x, levels, inputs: isometry.chain_rule_check(
        x, _map_from_args(args, inputs), args.p, levels))


def _perturbation(args, shape: dict, x: grid.Path, inputs: dict) -> grid.Path:
    if args.perturb_in:
        return _read_path(args.perturb_in, inputs)
    return pathgen.smooth_perturbation(args.smooth_kind, args.amplitude,
                                       x.grid_level, shape)


def _cmd_invariance(args) -> int:
    src = _resolve_source(args)
    shape = None if args.perturb_in else _smooth_params(args)  # checked before any read
    return _two_sided_run(args, lambda x, levels, inputs: isometry.invariance_check(
        x, _perturbation(args, shape, x, inputs), args.p, levels, src=src))


def _cmd_counterexample(args) -> int:
    t0 = time.perf_counter()
    n_max = args.nmax
    if n_max < 3:
        raise ValidationError(f"--nmax must be at least 3, got {n_max}")
    files = ("path.csv", "coefficients.json", "report.json", "manifest.json")
    files = [os.path.join(args.out, name) for name in files] if args.out else []
    _check_names(args, *(("--out", name) for name in files), report=False)
    t1 = time.perf_counter()
    coeffs = schauder.counterexample_coefficients(n_max)
    level = args.level if args.level is not None else coeffs.max_level
    x = schauder.schauder_eval(coeffs, level)
    path_s = time.perf_counter() - t1

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
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        grid.write_path_csv(x, files[0])
        schauder.write_coefficients_json(coeffs, files[1])
        grid._write_json(payload, files[2])
        _write_manifest(args, t0, path_s, {}, files[3], exact_name=True)
    lines = [f"level {n:2d}: quadratic variation {v:.9g}"
             for n, v in zip(inter_levels, inter_vals)]
    lines.append("interleaved classification: "
                 + payload["reports"]["interleaved"]["classification"])
    _emit(args, payload, lines)
    return 0


def _cmd_report(args) -> int:
    t0 = time.perf_counter()
    _check_names(args)
    inputs = {}
    entries = []
    lines = []
    path_s = 0.0  # the time the bundled reports took to read and hash
    for name in args.infiles:
        t1 = time.perf_counter()
        try:
            payload = _hashed(inputs, name, _load_json)
        except (OSError, ValueError) as exc:
            raise FormatError(f"cannot parse report {name}: {exc}") from exc
        path_s += time.perf_counter() - t1
        if not isinstance(payload, dict):
            raise FormatError(f"report {name} is not a JSON object")
        entries.append({"file": name, "sha256": inputs[name], "report": payload})
        headline = payload.get("command", "?")
        for key in ("classification", "p_bar_est", "success"):
            if key in payload:
                headline += f" {key}={payload[key]}"
            elif isinstance(payload.get("limit_report"), dict) \
                    and key in payload["limit_report"]:
                headline += f" {key}={payload['limit_report'][key]}"
        lines.append(f"{name}: {headline}")
    combined = {"command": "report", "reports": entries}
    if args.out:
        grid._write_json(combined, args.out)
        _write_manifest(args, t0, path_s, inputs, args.out)
    _emit(args, combined, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser and flag contract
# ---------------------------------------------------------------------------

def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("inline generator")
    g.add_argument("--kind", choices=["takagi", "fbm", "counterexample",
                                      "smooth", "custom_schauder"],
                   help="generate the input path instead of reading --in")
    g.add_argument("--H", type=float, help="roughness parameter in (0,1)")
    g.add_argument("--level", type=int, help="grid level of the generated path")
    g.add_argument("--seed", type=int, help="RNG seed of fbm and random takagi (default 0)")
    g.add_argument("--signs", choices=["plus", "minus", "alternating", "random"],
                   help="coefficient sign pattern for takagi (default plus)")
    g.add_argument("--max-level", type=int, dest="max_level",
                   help="truncate takagi coefficients at this level")
    g.add_argument("--nmax", type=int, help="burst count for counterexample")
    g.add_argument("--smooth-kind", choices=["sine", "poly"], dest="smooth_kind",
                   help="shape of --kind smooth or the perturbation (default sine)")
    g.add_argument("--amplitude", type=float, help="smooth shape's factor (default 1)")
    g.add_argument("--freq", type=float, help="sine shape's frequency (default 1)")
    g.add_argument("--coeffs", help="poly shape's comma-separated coefficients, "
                                    "constant first (default 0,1)")
    g.add_argument("--coeffs-file", dest="coeffs_file",
                   help="coefficient JSON for custom_schauder")


def _add_common_analysis_flags(p: argparse.ArgumentParser, src: bool = True) -> None:
    p.add_argument("--in", dest="infile", help="input path CSV/JSON")
    p.add_argument("--levels", help="dyadic levels, N or A:B inclusive")
    p.add_argument("--out", help="write the report JSON here (plus manifest)")
    if src:
        p.add_argument("--src", choices=["finest", "analytic"],
                       help="weight source for scaled QV (default finest)")
        p.add_argument("--analytic-c", dest="analytic_c", type=float,
                       help="C for the linear analytic source C*t")
    _add_generator_flags(p)


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

    p = sub.add_parser("gen", help="generate a path and write it to CSV/JSON")
    _add_generator_flags(p)
    p.add_argument("--out", required=True, help="output path file (.csv or .json)")
    p.set_defaults(func=_cmd_gen)

    for name, helptext, kind in [
        ("pvar", "p-th variation profiles across levels", "pth"),
        ("sqv", "scaled quadratic variation across levels", "scaled"),
        ("classical", "time-weighted scaled QV across levels", "classical_scaled"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common_analysis_flags(p, src=(name == "sqv"))
        if name == "classical":
            p.add_argument("--gamma", type=float, help="time-weight exponent")
        else:
            p.add_argument("--p", type=float, help="variation exponent (> 0)")
        p.add_argument("--window", help="diagnostic tail window (int or 'full')")
        p.add_argument("--profiles-out", dest="profiles_out",
                       help="directory for per-level profile CSVs")
        p.set_defaults(func=functools.partial(_profile_run, kind=kind))

    p = sub.add_parser("roughness",
                       help="secant search for the critical variation index")
    _add_common_analysis_flags(p)
    p.add_argument("--p-min", dest="p_min", type=float, default=1.2)
    p.add_argument("--p-max", dest="p_max", type=float, default=4.0)
    p.add_argument("--iters", type=int, default=12)
    p.add_argument("--per-q-out", dest="per_q_out",
                   help="CSV of per-probe terminal sequences")
    p.set_defaults(func=_cmd_roughness)

    for name, helptext, func in [
        ("isometry", "two-sided scaled-QV isometry check", _cmd_isometry),
        ("chainrule", "p-th variation chain-rule check", _cmd_chainrule),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_common_analysis_flags(p, src=(name == "isometry"))
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--map", help="catalog map id (identity, the default, "
                                     "affine:a,b, square_plus_one, sin, exp_clamped)")
        p.add_argument("--map-file", dest="map_file",
                       help="CSV (u,f) table for a not-a-knot cubic-spline map")
        p.set_defaults(func=func)

    p = sub.add_parser("invariance", help="smooth-perturbation invariance check")
    _add_common_analysis_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--perturb-in", dest="perturb_in",
                   help="perturbation path CSV/JSON (default: the smooth shape)")
    p.set_defaults(func=_cmd_invariance)

    p = sub.add_parser("counterexample",
                       help="oscillating-QV path and its level diagnostics")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--level", type=int, help="grid level (default: finest burst)")
    p.add_argument("--out", help="output directory")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("report", help="bundle report JSONs into one summary")
    p.add_argument("--in", dest="infiles", nargs="+", required=True)
    p.add_argument("--out", help="combined JSON output")
    p.set_defaults(func=_cmd_report)

    return parser


# Rows: the flags (by dest) a command reads whatever its input, then those
# that "--flag value" adds, or "--flag" at any value.  "a|b" reads the first
# of a and b given, else b; "a!" must be given.  A flag not given takes its
# _DEFAULTS value, else None; argparse gives these flags no default.
_INPUT = "infile|kind! levels out"  # a path file, or a generated path
_PROFILE = _INPUT + " window profiles_out"
_READS = {
    "gen": "kind! out",
    "pvar": _PROFILE + " p!",
    "sqv": _PROFILE + " p! src",
    "classical": _PROFILE + " gamma!",
    "roughness": _INPUT + " src p_min p_max iters per_q_out",
    "isometry": _INPUT + " src p map_file|map",
    "chainrule": _INPUT + " p map_file|map",
    "invariance": _INPUT + " src p perturb_in|smooth_kind",
    "counterexample": "nmax level out",
    "report": "infiles out",
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
             "freq": 1.0, "coeffs": "0,1", "src": "finest", "map": "identity"}
_FLAGS = set(re.findall(r"\w+", " ".join(_READS.values())))


def _flag(dest: str) -> str:
    return "--in" if dest.startswith("infile") else "--" + dest.replace("_", "-")


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
