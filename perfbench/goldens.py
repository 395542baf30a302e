"""Regenerate perfbench/goldens.json from the library in this checkout.

    python3 perfbench/goldens.py

Run it only at a commit whose tests pass, and never to make a failing op
pass: a golden records what a correct library answers.  Besides each op's
expected output it records a cross-check: for every `qmap`-kind
brute-force op, the brute-force tables equal the `enumerate` tabulation of
the same pair.  The script fails if any cross-check does.
"""

import itertools
import json
import os
import subprocess
import sys

import workloads as wl

# Pairs above this many q-maps are not stored: no pool or cross-check uses
# them, and enumerating them takes minutes.
STORE_CAP = 8192


def enumerate_goldens(lib):
    catalog, nil2, qmaps = lib
    out, rows_by_pair = {}, {}
    for g_name, h_name in itertools.product(wl.GROUP_NAMES, repeat=2):
        g = wl.build_group(g_name, catalog, nil2)
        h = wl.build_group(h_name, catalog, nil2)
        maps = list(itertools.islice(qmaps.enumerate_qmaps(g, h), STORE_CAP + 1))
        if len(maps) > STORE_CAP:
            print(f"enumerate {g_name}->{h_name}: over {STORE_CAP}, not stored", flush=True)
            continue
        elems = list(g.elements())
        assert [wl.element_index(z) for z in elems] == list(range(len(elems)))
        count, digest, rows = wl.enumerate_summary([[q.eval(z) for z in elems] for q in maps])
        out[wl.enum_key(g_name, h_name)] = {"count": count, "digest": digest}
        rows_by_pair[(g_name, h_name)] = rows
        print(f"enumerate {g_name}->{h_name}: {count}", flush=True)
    return out, rows_by_pair


def bruteforce_goldens(lib, rows_by_pair):
    out, cross = {}, {}
    for op in wl.bruteforce_pool() + wl.BRUTE_EXTRA:
        _, tables = wl.run_bruteforce_op(op, lib)
        key = wl.brute_key(*op)
        out[key] = [list(t) for t in tables]
        if op[2] == "qmap":
            agree = sorted(tuple(t) for t in tables) == rows_by_pair[op[:2]]
            cross[key] = agree
            if not agree:
                raise SystemExit(f"cross-check failed: {key} brute force != enumeration")
        print(f"bruteforce {key}: {len(tables)}", flush=True)
    return out, cross


def decide_goldens(lib):
    catalog, nil2, _ = lib
    wl.write_heis3_table(nil2, catalog)
    out = {}
    for query in wl.DECIDE_LIGHT + wl.DECIDE_HEAVY:
        report = wl.run_decide_op(query)
        out[wl.decide_key(query)] = {"exit": report["exit"],
                                     "lines": wl.verdict_lines(report["stdout"])}
        print(f"decide {wl.decide_key(query)}: exit {report['exit']}", flush=True)
    return out


def main():
    if os.environ.get("PYTHONHASHSEED") != wl.HASH_SEED:
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=wl.HASH_SEED))
    lib = wl.import_library()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, text=True,
                            capture_output=True).stdout.strip() or None
    enum, rows_by_pair = enumerate_goldens(lib)
    brute, cross = bruteforce_goldens(lib, rows_by_pair)
    decide = decide_goldens(lib)
    data = {"commit": commit, "python": sys.version.split()[0],
            "cross_check": cross, "enumerate": enum, "bruteforce": brute,
            "decide": decide}
    with open(wl.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {wl.GOLDENS}: {len(enum)} enumerate, {len(brute)} bruteforce "
          f"({sum(cross.values())}/{len(cross)} cross-checked), {len(decide)} decide")


if __name__ == "__main__":
    main()
