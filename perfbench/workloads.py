"""Op pools, op execution and golden comparison for the nil2q benchmark.

Every op builds its own groups, so per-group caches are paid inside the op
as they are by a fresh library call.  The checks touch only plain
coordinates and integers, never the library's element methods, so a traced
run counts the library's work and nothing of the benchmark's.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
GOLDENS = os.path.join(BENCH, "goldens.json")
CHILD = os.path.join(BENCH, "child.py")

# Fixed hash seed for every benchmark process, so that set and dict orders,
# and with them the traced counts, repeat exactly from run to run.
HASH_SEED = "0"


def import_library():
    """Import nil2q from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import nil2q
    here = os.path.dirname(os.path.abspath(nil2q.__file__))
    if os.path.dirname(here) != SRC:
        raise ImportError(f"nil2q imported from {here}, not from {SRC}")
    from nil2q import catalog, nil2, qmaps, cli  # noqa: F401  (loads every layer)
    return catalog, nil2, qmaps


# ---------------------------------------------------------------------------
# Groups.

GROUP_NAMES = ["Z2", "Z4", "V4", "D4", "Q8", "Z2vZ2", "Q8xZ2", "Heis3", "G27"]


def build_group(name, catalog, nil2):
    if name == "Z2":
        return catalog.cyclic(2)
    if name == "Z4":
        return catalog.cyclic(4)
    if name == "V4":
        return catalog.abelian_group([2, 2])
    if name == "D4":
        return catalog.dihedral4()
    if name == "Q8":
        return catalog.quaternion()
    if name == "Z2vZ2":
        return nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2))
    if name == "Q8xZ2":
        return nil2.product(catalog.quaternion(), catalog.cyclic(2))
    if name == "Heis3":
        return catalog.heisenberg(3)
    if name == "G27":
        return catalog.modular_semidirect(3)
    raise KeyError(name)


def element_index(z):
    """Position of z in its group's lexicographic `elements()` order,
    computed from the canonical coordinates alone."""
    idx = 0
    for c, d in zip(z.a.coords + z.b.coords, z.group.A.orders + z.group.B.orders):
        idx = idx * d + c
    return idx


# ---------------------------------------------------------------------------
# Pools.  A pass runs every op of the pool once; see README.md for why each
# pool holds what it holds.

# Ordered pairs of GROUP_NAMES with |qw(G,H)| <= ENUM_QW_CAP.  The five pairs
# between 1024 and 8192 maps (Q8xZ2 -> D4, Q8, Z2vZ2; Heis3 -> G27;
# G27 -> G27) take 6-10 s each and would make a pass several times longer
# than a run; their goldens are still generated for the cross-check.
ENUM_QW_CAP = 1024

# Ordered pairs of BRUTE_GROUPS with |G|*|H| <= 32 (kind "qmap"), and with
# |G|*|H| <= 16 (kind "quadratic": an abelian target prunes nothing, so
# D4 -> Z4 alone takes over 200 s).  V4 -> Q8 "quadratic" makes the pool
# odd, so that the median of whole passes falls inside one op's samples
# rather than between two ops of different cost.  The acceptance pairs
# D4 -> Q8 and Q8 -> D4 take about 28 s each and are checked at golden time
# only.
BRUTE_GROUPS = ["Z2", "Z4", "V4", "D4", "Q8"]
BRUTE_ODD = ("V4", "Q8", "quadratic")
BRUTE_EXTRA = [("D4", "Q8", "qmap"), ("Q8", "D4", "qmap")]

DECIDE_LIGHT = [
    ["info", "Q8"],
    ["iso", "D4", "Q8", "--category", "niq", "--witness"],
    ["iso", "D4", "Q8", "--category", "nil"],
    ["info", "semidirect(9,3,4)"],
    ["--max-order", "200", "info", "semidirect(25,5,6)"],
    ["iso", "Heis3", "semidirect(9,3,4)"],
    ["info", "free(2)"],
    ["iso", "Heis5", "semidirect(25,5,6)"],
    ["iso", "Q8", "free(2)"],
    ["--file", "@HEIS3_TABLE", "info", "H3T"],
]
DECIDE_HEAVY = [
    ["iso", "Heis3", "Heis3", "--witness"],
    ["iso", "product(V4,Z2)", "Q8"],
    ["iso", "Heis5", "Heis5"],
    ["info", "semidirect(49,7,8)"],
    ["selftest", "--suite", "negative"],
]
# Each light query runs this many times per heavy one, so that a single pass
# holds at least 100 ops and op_p90_ms has ten samples beyond it.
DECIDE_LIGHT_REPEAT = 10
HEIS3_TABLE = os.path.join(OUT, "heis3_table.txt")
HEIS3_TABLE_ARG = os.path.relpath(HEIS3_TABLE, ROOT)


def enum_key(g, h):
    return f"{g}->{h}"


def brute_key(g, h, kind):
    return f"{g}->{h}:{kind}"


def decide_key(argv):
    return " ".join(argv)


def enumerate_pool(goldens):
    """Pairs whose golden q-map count is within the cap, in catalog order.
    Pairs too large to store have no golden and are left out."""
    table = goldens["enumerate"]
    return [(g, h) for g, h in itertools.product(GROUP_NAMES, repeat=2)
            if table.get(enum_key(g, h), {"count": ENUM_QW_CAP + 1})["count"] <= ENUM_QW_CAP]


def bruteforce_pool():
    order = {"Z2": 2, "Z4": 4, "V4": 4, "D4": 8, "Q8": 8}
    ops = []
    for g, h in itertools.product(BRUTE_GROUPS, repeat=2):
        size = order[g] * order[h]
        if size <= 32:
            ops.append((g, h, "qmap"))
        if size <= 16 or (g, h, "quadratic") == BRUTE_ODD:
            ops.append((g, h, "quadratic"))
    return ops


def decide_pool():
    return [list(q) for q in DECIDE_LIGHT for _ in range(DECIDE_LIGHT_REPEAT)] + \
        [list(q) for q in DECIDE_HEAVY]


# ---------------------------------------------------------------------------
# Op execution.  Each returns (latency_s, output); the output goes to the
# matching check below.

def run_enumerate_op(pair, lib):
    catalog, nil2, qmaps = lib
    t0 = time.perf_counter()
    g = build_group(pair[0], catalog, nil2)
    h = build_group(pair[1], catalog, nil2)
    elems = list(g.elements())
    tables = [[q.eval(z) for z in elems] for q in qmaps.enumerate_qmaps(g, h)]
    return time.perf_counter() - t0, tables


def enumerate_summary(tables):
    """(count, digest of the sorted H-index value tables)."""
    rows = sorted(tuple(element_index(w) for w in row) for row in tables)
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    return len(rows), digest, rows


def check_enumerate(pair, tables, goldens):
    count, digest, _ = enumerate_summary(tables)
    want = goldens["enumerate"][enum_key(*pair)]
    return count == want["count"] and digest == want["digest"]


def run_bruteforce_op(op, lib):
    catalog, nil2, qmaps = lib
    t0 = time.perf_counter()
    g = build_group(op[0], catalog, nil2)
    h = build_group(op[1], catalog, nil2)
    tables = qmaps.quadratic_functions_bruteforce(g, h, op[2])
    return time.perf_counter() - t0, tables


def check_bruteforce(op, tables, goldens):
    want = goldens["bruteforce"][brute_key(*op)]
    return [list(t) for t in tables] == want


def write_heis3_table(nil2, catalog, path=HEIS3_TABLE):
    """Write `group H3T = oracle { ... }` for Heis3, from nil2.table_of."""
    oracle = nil2.table_of(catalog.heisenberg(3))
    n = len(oracle.labels)
    labels = [f"e{i}" for i in range(n)]
    lines = ["group H3T = oracle {",
             "  elements = " + " ".join(labels),
             f"  id = {labels[oracle.identity]}"]
    for i in range(n):
        for j in range(n):
            lines.append(f"  {labels[i]} * {labels[j]} = {labels[oracle.table[i][j]]}")
    lines.append("}")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def child_argv(query):
    return [HEIS3_TABLE_ARG if a == "@HEIS3_TABLE" else a for a in query]


def child_env():
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    env.pop("PYTHONPATH", None)
    return env


def run_decide_op(query, trace=False):
    """One CLI query in a fresh interpreter.  Returns the child's report:
    exit code, stdout text, and its own timings (see child.py)."""
    cmd = [sys.executable, CHILD] + (["--trace"] if trace else []) + ["--"] + child_argv(query)
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()[-400:]}")
    report = json.loads(proc.stdout)
    report["boot_s"] = report["start"] - spawned
    return report


def verdict_lines(text):
    """Output lines compared against the golden.  An error line keeps only
    its `error:` tag, so a clearer message is not a failed op; the exit
    code still has to match."""
    return ["error:" if ln.startswith("error:") else ln for ln in text.splitlines()]


def check_decide(query, report, goldens):
    want = goldens["decide"][decide_key(query)]
    return (report["exit"] == want["exit"]
            and verdict_lines(report["stdout"]) == want["lines"])
