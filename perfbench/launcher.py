"""Run one roughvar CLI job in this fresh interpreter.

Usage: python3 launcher.py RESULT_JSON SRC_DIR TRACE(0|1) -- CLI_ARGS...

Times ``import roughvar.cli``, refuses a roughvar imported from anywhere but
SRC_DIR, calls ``roughvar.cli.main(CLI_ARGS)`` and writes the clock readings
(``time.monotonic``, comparable with the parent's) and its peak RSS to
RESULT_JSON.  With TRACE=1 the calls into roughvar's modules are wrapped
first and their spans are written too.  Exits with main's return code.
"""

import os
import sys
import time

t_import = time.monotonic()
import roughvar.cli  # noqa: E402

t_ready = time.monotonic()


def _peak_rss_kib():
    """This process's own RSS high-water mark.

    ``ru_maxrss`` is no substitute: a child spawned with vfork+exec starts
    from the parent's high-water mark.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return None


def _main(result_file: str, src_dir: str, trace: str, argv: list) -> int:
    import json

    pkg = os.path.realpath(os.path.dirname(roughvar.cli.__file__))
    if os.path.dirname(pkg) != os.path.realpath(src_dir):
        print(f"launcher: imported roughvar from {pkg}, not from {src_dir}",
              file=sys.stderr)
        return 97
    rec = None
    if trace == "1":
        import tracing
        rec = tracing.Recorder()
        tracing.install(rec)
        run = lambda: rec.call("cli.main", roughvar.cli.main, (argv,), {})  # noqa: E731
    else:
        run = lambda: roughvar.cli.main(argv)  # noqa: E731
    try:
        rc = run()
    except SystemExit as exc:  # argparse rejects its arguments this way
        rc = exc.code if isinstance(exc.code, int) else 1
    t_end = time.monotonic()
    result = {"import_start": t_import, "ready": t_ready, "main_end": t_end, "rc": rc,
              "peak_rss_kib": _peak_rss_kib()}
    if rec is not None:
        result["trace"] = {"spans": rec.spans, "counts": rec.counts,
                           "import_s": t_ready - t_import}
    with open(result_file, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    if len(sys.argv) < 5 or sys.argv[4] != "--":
        sys.exit(__doc__)
    sys.exit(_main(sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[5:]))
