"""The nil2q benchmark: one command, three closed-loop workloads.

    python3 perfbench/run.py --workload {enumerate,bruteforce,decide} \
        --seed N --seconds S --trace {0,1}

One client, no threads: each op starts when the previous one has finished
and been checked against its golden.  A run executes whole passes over the
workload's pool, each pass in a seed-shuffled order, until --seconds have
passed and at least MIN_OPS ops are done, so every run measures the same
op mix.  --trace 1 instead runs one pass untraced and the same pass traced,
and reports per-layer metrics plus the tracing overhead.  The last line of
stdout is the JSON result; README.md describes every metric.
"""

import time

START = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import reference  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("enumerate", "bruteforce", "decide")
MIN_OPS = 100          # op_p90_ms needs ten samples beyond it
SETUP_TRIALS = 7

UNITS = {"setup_s": "s", "ops_per_s": "1/s", "qmaps_per_s": "1/s", "error_rate": "ratio",
         "peak_rss_mb": "MB", "trace.overhead": "ratio", "ops_per_kref": "1/kref",
         "qmaps_per_kref": "1/kref", "op_p50_ref": "ref", "op_p90_ref": "ref"}


def unit_of(name):
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def p90(samples):
    """Nearest-rank 90th percentile, or None unless at least ten samples
    lie beyond it."""
    n = len(samples)
    rank = math.ceil(0.9 * n)
    if n - rank < 10:
        return None
    return sorted(samples)[rank - 1]


# ---------------------------------------------------------------------------
# Set-up.

class Setup:
    """Everything a run needs before its first timed op."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.rng = random.Random(seed)
        t0 = time.perf_counter()
        self.lib = wl.import_library()
        self.import_s = time.perf_counter() - t0
        with open(wl.GOLDENS, encoding="utf-8") as fh:
            self.goldens = json.load(fh)
        if workload == "enumerate":
            self.pool = wl.enumerate_pool(self.goldens)
        elif workload == "bruteforce":
            self.pool = wl.bruteforce_pool()
        else:
            catalog, nil2, _ = self.lib
            wl.write_heis3_table(nil2, catalog)
            self.pool = wl.decide_pool()
        self.first_pass = self.next_pass()

    def next_pass(self, pool=None):
        order = list(self.pool if pool is None else pool)
        self.rng.shuffle(order)
        return order


def setup_trial(args):
    """Time one fresh process from spawn to the end of its set-up."""
    cmd = [sys.executable, os.path.join(wl.BENCH, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    spawned = time.monotonic()
    with subprocess.Popen(cmd, cwd=wl.ROOT, env=wl.child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        ready = time.monotonic()
        proc.stdout.read()
        if proc.wait(timeout=60) != 0 or not line:
            raise RuntimeError("set-up trial failed")
    info = json.loads(line)
    return {"setup_s": ready - spawned, "boot_s": info["start"] - spawned,
            "import_s": info["import_s"]}


# ---------------------------------------------------------------------------
# Ops.

class Runner:
    """Runs ops of one workload and keeps latency, failure and work counts."""

    def __init__(self, setup, trace=False, between=None):
        self.s = setup
        self.trace = trace
        self.between = between    # called after every op, outside its latency
        self.latencies = []
        self.ends = []            # perf_counter at the end of each op
        self.by_op = {}           # op -> latencies, for the result file
        self.failed = 0
        self.qmaps = 0
        self.child_rss_kb = 0
        self.children = []        # decide: per-op child reports
        self.snapshots = []       # decide --trace: child tracer snapshots

    def run(self, op, index):
        w, goldens = self.s.workload, self.s.goldens
        t0 = time.perf_counter()
        try:
            if w == "enumerate":
                lat, tables = wl.run_enumerate_op(op, self.s.lib)
                ok = wl.check_enumerate(op, tables, goldens)
                self.qmaps += len(tables)
            elif w == "bruteforce":
                lat, tables = wl.run_bruteforce_op(op, self.s.lib)
                ok = wl.check_bruteforce(op, tables, goldens)
            else:
                report = wl.run_decide_op(op, trace=self.trace)
                lat = report["op_s"]
                ok = wl.check_decide(op, report, goldens)
                self.child_rss_kb = max(self.child_rss_kb, report["maxrss_kb"])
                self.children.append(report)
                if "trace" in report:
                    for span in report["trace"]["spans"]:
                        span[0] = index
                    self.snapshots.append(report.pop("trace"))
            if not ok:
                print(f"op {op!r} failed its golden check", file=sys.stderr)
        except Exception as exc:  # a raising op is a failed op, not a crash
            print(f"op {op!r} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            lat, ok = time.perf_counter() - t0, False
        if not ok:
            self.failed += 1
        self.latencies.append(lat)
        self.ends.append(time.perf_counter())
        self.by_op.setdefault(" ".join(map(str, op)), []).append(lat)
        if self.between is not None:
            self.between()

    def run_pass(self, ops, tracer=None):
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            self.run(op, i)

    def peak_rss_mb(self):
        if self.s.workload == "decide":
            return self.child_rss_kb / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(args, setup):
    ref = reference.Reference()
    in_process = args.workload != "decide"     # decide's children time it themselves
    trials = []
    t0 = time.perf_counter()

    def between():
        # Set-up trials are spread over the run, like the reference, so
        # that setup_s samples the machine at more than one moment.
        if in_process:
            ref.sample()
        elif runner.children and "ref_s" in runner.children[-1]:
            ref.add(runner.children[-1].pop("ref_s"))
        elapsed = time.perf_counter() - t0
        if len(trials) < SETUP_TRIALS and elapsed >= len(trials) * args.seconds / SETUP_TRIALS:
            trials.append(setup_trial(args))

    runner = Runner(setup, between=between)
    ops = setup.first_pass
    if in_process:
        ref.sample(force=True)
    while True:
        runner.run_pass(ops)
        if time.perf_counter() - t0 >= args.seconds and len(runner.latencies) >= MIN_OPS:
            break
        ops = setup.next_pass()
    if in_process:
        ref.sample(force=True)
    lat = runner.latencies
    costs = [x / ref.around(t) for x, t in zip(lat, runner.ends)]
    n = len(lat)
    metrics = {
        "ops_per_s": n / sum(lat),
        "op_p50_ms": 1000.0 * statistics.median(lat),
        "ops_per_kref": 1000.0 * n / sum(costs),
        "op_p50_ref": statistics.median(costs),
        "ref_ms": 1000.0 * statistics.median(ref.values),
        "error_rate": runner.failed / n,
        "peak_rss_mb": runner.peak_rss_mb(),
    }
    if p90(lat) is not None:
        metrics["op_p90_ms"] = 1000.0 * p90(lat)
        metrics["op_p90_ref"] = p90(costs)
    if args.workload == "enumerate":
        metrics["qmaps_per_s"] = runner.qmaps / sum(lat)
        metrics["qmaps_per_kref"] = 1000.0 * runner.qmaps / sum(costs)
    trials += [setup_trial(args) for _ in range(SETUP_TRIALS - len(trials))]
    metrics["setup_s"] = statistics.median(t["setup_s"] for t in trials)
    extra = {"samples": n, "passes": n // len(setup.pool), "wall_s": time.perf_counter() - t0,
             "setup_trials": trials,
             "latencies_s": lat, "reference_s": ref.values,
             "op_median_ms": {k: 1000.0 * statistics.median(v)
                              for k, v in sorted(runner.by_op.items())}}
    return n, runner.failed, metrics, extra


def traced_run(args, setup):
    """One pass untraced, then the same pass traced."""
    if args.workload == "decide":
        ops = setup.next_pass(wl.DECIDE_LIGHT + wl.DECIDE_HEAVY)
    else:
        ops = setup.first_pass
    plain = Runner(setup)
    t0 = time.perf_counter()
    plain.run_pass(ops)
    untraced_s = time.perf_counter() - t0

    traced = Runner(setup, trace=True)
    tracer = tr.Tracer()
    if args.workload != "decide":      # decide's children trace themselves
        tracer.install(tr.library_modules())
    t0 = time.perf_counter()
    try:
        traced.run_pass(ops, tracer)
    finally:
        tracer.uninstall()
    traced_s = time.perf_counter() - t0

    snap = tr.merge([tracer.snapshot()] + traced.snapshots)
    metrics = tr.layer_metrics(snap)
    if args.workload == "decide":
        boot = [c["boot_s"] for c in plain.children]
        imports = [c["import_s"] for c in plain.children]
    else:
        trials = [setup_trial(args) for _ in range(3)]
        boot = [t["boot_s"] for t in trials]
        imports = [t["import_s"] for t in trials]
    metrics["cli.boot_ms"] = 1000.0 * statistics.median(boot)
    metrics["cli.import_ms"] = 1000.0 * statistics.median(imports)
    metrics["trace.overhead"] = traced_s / untraced_s
    attempted = len(plain.latencies) + len(traced.latencies)
    extra = {"untraced_s": untraced_s, "traced_s": traced_s, "spans": snap["spans"],
             "spans_dropped": snap["spans_dropped"], "calls": snap["calls"]}
    return attempted, plain.failed + traced.failed, metrics, extra


# ---------------------------------------------------------------------------
# Reporting.

def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, text=True,
                             capture_output=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(wl.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, wl.SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(args):
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": os.getloadavg(), "seed": args.seed, "workload": args.workload,
            "seconds": args.seconds, "trace": args.trace, "commit": commit_id(),
            "src_sha256": src_digest()}


def listed_metrics(trace):
    with open(os.path.join(wl.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def report(args, env, attempted, failed, metrics, extra):
    env["loadavg_end"] = os.getloadavg()
    warnings = []
    load = max(env["loadavg_start"][0], env["loadavg_end"][0])
    if load > env["nproc"]:
        warnings.append(f"load average {load:.2f} exceeds nproc {env['nproc']}: "
                        "timings are unreliable")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    os.makedirs(wl.OUT, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(os.path.join(wl.OUT, f"spans-{stem}.json"), "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "spans": extra.pop("spans"),
                       "spans_dropped": extra["spans_dropped"], "calls": extra.pop("calls")},
                      fh)
    with open(os.path.join(wl.OUT, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "warnings": warnings, "attempted": attempted,
                   "failed": failed, "metrics": metrics, "extra": extra}, fh, indent=1)
    for name in sorted(metrics):
        print(f"{name:34s} {metrics[name]:>14.6g} {unit_of(name)}")
    listed = listed_metrics(args.trace)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": unit_of(n)} for n in listed}}
    print(json.dumps(result))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, report the set-up on stdout and exit (used for setup_s)")
    args = p.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != wl.HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=wl.HASH_SEED))
    try:
        setup = Setup(args.workload, args.seed)
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"start": START, "import_s": setup.import_s}), flush=True)
        return 0
    env = environment(args)
    run = traced_run if args.trace else timed_run
    report(args, env, *run(args, setup))
    return 0


if __name__ == "__main__":
    sys.exit(main())
