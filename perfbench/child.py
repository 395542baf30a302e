"""Run one nil2q CLI query and report it as JSON on stdout.

    python3 perfbench/child.py [--trace] -- <nil2q arguments>

The op latency runs from just before `import nil2q` to the return of
`cli.main`, so interpreter start-up is reported apart (as `start`, a
CLOCK_MONOTONIC stamp the parent subtracts its spawn time from).  With
--trace the tracer is installed after the import and its snapshot is
included; installing it is not part of the latency.  After the op the
child times the reference loop, so that the op's cost in reference units
is measured in the process, and on the CPU, that ran it.
"""

import time

START = time.monotonic()

import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(args):
    trace = args[:1] == ["--trace"]
    if trace:
        args = args[1:]
    if args[:1] != ["--"]:
        raise SystemExit("usage: child.py [--trace] -- <nil2q arguments>")
    argv = args[1:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import nil2q
    from nil2q import cli
    imported = time.perf_counter()
    if os.path.dirname(os.path.dirname(os.path.abspath(nil2q.__file__))) != SRC:
        raise SystemExit(f"nil2q imported from {nil2q.__file__}, not from {SRC}")
    tracer = None
    if trace:
        import tracer as tr
        tracer = tr.Tracer()
        tracer.install(tr.library_modules())
    out = io.StringIO()
    t1 = time.perf_counter()
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    t2 = time.perf_counter()
    from reference import reference_loop
    report = {
        "start": START,
        "import_s": imported - t0,
        "op_s": (imported - t0) + (t2 - t1),
        "exit": code,
        "stdout": out.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ref_s": reference_loop(),
    }
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.snapshot()
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
