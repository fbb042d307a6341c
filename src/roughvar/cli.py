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
import hashlib
import json
import os
import platform
import re
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

def _hashed(inputs: dict, filename: str, read, *args):
    """``read(filename, *args, digest=...)``; ``inputs[filename]`` gets the SHA-256 of the bytes read.

    Every input is read once, so that a pipe works and the digest is of the
    bytes parsed.
    """
    digest = hashlib.sha256()
    result = read(filename, *args, digest=digest)
    inputs[filename] = digest.hexdigest()
    return result


def _load_json(filename: str, digest):
    with grid._open_text(filename, digest) as fh:
        return json.load(fh)


def _write_json(obj, filename) -> None:
    with open(filename, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    reads = [("--in", name) for name in getattr(args, "infiles", None) or ()]
    reads += [(flag, getattr(args, dest, None)) for flag, dest in (
        ("--in", "infile"), ("--coeffs-file", "coeffs_file"),
        ("--map-file", "map_file"), ("--perturb-in", "perturb_in"))]
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
    config = {key: val for key, val in vars(args).items()
              if key != "func" and not callable(val)}
    manifest = {
        "command": args.command,
        "config": config,
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
    _write_json(manifest, out if exact_name else _manifest_name(out))


def _emit(args, payload: dict, lines) -> None:
    if getattr(args, "json", False):
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
    if getattr(args, "levels", None):
        return _parse_levels(args.levels)
    lv = list(variation.default_levels(x))
    return lv if len(lv) >= 3 else list(range(0, x.grid_level + 1))


def _resolve_window(args, n_levels: int) -> int:
    raw = getattr(args, "window", None)
    if raw in (None, ""):
        return min(4, n_levels)
    if raw == "full":
        return n_levels
    try:
        return int(raw)
    except ValueError as exc:
        raise ValidationError(f"bad window {raw!r}; expected an integer or 'full'") from exc


def _resolve_source(args) -> variation.PVarSource | None:
    mode = getattr(args, "src", None)
    if mode != "analytic" and getattr(args, "analytic_c", None) is not None:
        raise ValidationError(f"--analytic-c is read only with --src analytic, "
                              f"not --src {mode or 'finest'}")
    if mode == "analytic":
        if getattr(args, "analytic_c", None) is None:
            raise ValidationError("--src analytic requires --analytic-c C "
                                  "(weights from the linear proxy C*t)")
        return variation.PVarSource.linear(args.analytic_c)
    return None  # --src finest, the default


def _smooth_params(args) -> dict:
    """Polynomial ``coeffs`` from ``--coeffs`` when given, else the sine ``freq``."""
    if not args.coeffs:
        return {"freq": args.freq}
    try:
        return {"coeffs": [float(c) for c in args.coeffs.split(",")]}
    except ValueError as exc:
        raise ValidationError(f"bad --coeffs {args.coeffs!r}; expected "
                              "comma-separated numbers") from exc


def _generator_spec(args) -> pathgen.GeneratorSpec:
    kind = args.kind
    level = getattr(args, "level", None)
    if kind in ("fbm", "takagi") and getattr(args, "H", None) is None:
        raise ValidationError(f"--kind {kind} requires --H")
    if kind == "counterexample" and getattr(args, "nmax", None) is None:
        raise ValidationError("--kind counterexample requires --nmax")
    if kind == "custom_schauder" and not getattr(args, "coeffs_file", None):
        raise ValidationError("--kind custom_schauder requires --coeffs-file")
    if kind != "counterexample" and level is None:
        raise ValidationError(f"--kind {kind} requires --level")
    params = {}
    if kind == "takagi":
        params["signs"] = getattr(args, "signs", None) or "plus"
        if getattr(args, "max_level", None) is not None:
            params["max_level"] = args.max_level
    elif kind == "counterexample":
        params["n_max"] = args.nmax
    elif kind == "smooth":
        params["shape"] = getattr(args, "smooth_kind", None) or "sine"
        params["amplitude"] = args.amplitude
        params.update(_smooth_params(args))
    elif kind == "custom_schauder":
        params["coeffs_file"] = args.coeffs_file
    spec = pathgen.GeneratorSpec(kind=kind, grid_level=level,
                                 H=getattr(args, "H", None),
                                 seed=getattr(args, "seed", None), params=params)
    args.seed = spec.seed  # the manifest's config records the seed drawn with
    return spec


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
    infile = getattr(args, "infile", None)
    if infile:
        x = _read_path(infile, inputs)
    elif getattr(args, "kind", None):
        spec = _generator_spec(args)
        x = _generate(spec, inputs)
        extra["generator"] = spec.metadata()
    else:
        raise ValidationError("provide an input path with --in FILE or "
                              "generator flags (--kind ...)")
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
    flag = "gamma" if kind == "classical_scaled" else "p"
    if getattr(args, flag) is None:
        raise ValidationError(f"{label} requires --{flag}")
    p, gamma = getattr(args, "p", 2.0), getattr(args, "gamma", None)
    src = _resolve_source(args)
    t0 = time.perf_counter()
    x, inputs, extra, path_s = _load_path(args)
    levels = _resolve_levels(args, x)

    out_dir, write = getattr(args, "profiles_out", None), None
    csv = lambda n: os.path.join(out_dir, f"{label}_level{n:02d}.csv")
    _check_names(args, *(("a --profiles-out file", name) for n in levels if out_dir
                         for name in (csv(n), variation._sidecar_name(csv(n)))),
                 dirs=[("--profiles-out", out_dir)] if out_dir else ())
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        write = lambda prof: variation.write_profile_csv(prof, csv(prof.level))
    per_level = variation._level_metadata(x, levels, kind, p, gamma, src, write, label)
    terminals = [meta["terminal"] for meta in per_level]
    report = None
    if len(levels) >= 3:
        window = _resolve_window(args, len(levels))
        report = variation.limit_diagnostics(terminals, window=window, levels=levels)

    payload = {"command": label, "levels": levels, "terminals": terminals,
               "per_level": per_level,
               "limit_report": report.to_dict() if report else None}
    for key in ("p", "gamma"):
        if getattr(args, key, None) is not None:
            payload[key] = getattr(args, key)

    if args.out:
        _write_json(payload, args.out)
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
        _write_json(payload, args.out)
        _write_manifest(args, t0, path_s, inputs, args.out, extra)
    _emit(args, payload, [
        f"p_bar_est {report.p_bar_est:.6g} in bracket "
        f"[{report.bracket[0]:.6g}, {report.bracket[1]:.6g}]",
        f"hurst_est {report.hurst_est:.6g} ({len(report.per_q)} probes, "
        f"src {report.src_mode})",
    ])
    return 0


def _map_from_args(args, inputs: dict) -> isometry.SmoothMap:
    if getattr(args, "map_file", None):
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
        _write_json(payload, args.out)
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


def _perturbation(args, x: grid.Path, inputs: dict) -> grid.Path:
    if args.perturb_in:
        return _read_path(args.perturb_in, inputs)
    return pathgen.smooth_perturbation(args.smooth_kind, args.amplitude,
                                       x.grid_level, _smooth_params(args))


def _cmd_invariance(args) -> int:
    src = _resolve_source(args)
    return _two_sided_run(args, lambda x, levels, inputs: isometry.invariance_check(
        x, _perturbation(args, x, inputs), args.p, levels, src=src))


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
        _write_json(payload, files[2])
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
        _write_json(combined, args.out)
        _write_manifest(args, t0, path_s, inputs, args.out)
    _emit(args, combined, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_generator_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("inline generator")
    g.add_argument("--kind", choices=["takagi", "fbm", "counterexample",
                                      "smooth", "custom_schauder"],
                   help="generate the input path instead of reading --in")
    g.add_argument("--H", type=float, help="roughness parameter in (0,1)")
    g.add_argument("--level", type=int, help="grid level of the generated path")
    g.add_argument("--seed", type=int, help="RNG seed (fbm, random-sign takagi)")
    g.add_argument("--signs", choices=["plus", "minus", "alternating", "random"],
                   help="coefficient sign pattern for takagi (default plus)")
    g.add_argument("--max-level", type=int, dest="max_level",
                   help="truncate takagi coefficients at this level")
    g.add_argument("--nmax", type=int, help="burst count for counterexample")
    g.add_argument("--smooth-kind", choices=["sine", "poly"], dest="smooth_kind",
                   default="sine", help="shape for --kind smooth")
    g.add_argument("--amplitude", type=float, default=1.0)
    g.add_argument("--freq", type=float, default=1.0)
    g.add_argument("--coeffs", help="comma-separated polynomial coefficients")
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
        p.add_argument("--map", default="identity",
                       help="catalog map id (identity, affine:a,b, "
                            "square_plus_one, sin, exp_clamped)")
        p.add_argument("--map-file", dest="map_file",
                       help="CSV (u,f) table for a not-a-knot cubic-spline map")
        p.set_defaults(func=func)

    p = sub.add_parser("invariance", help="smooth-perturbation invariance check")
    _add_common_analysis_flags(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--perturb-in", dest="perturb_in",
                   help="perturbation path CSV/JSON (default: built sine)")
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
