#!/usr/bin/env python3
"""Summarise and compare runs of the repository benchmark.

Each input file holds the standard output of one run; its `record ` line
carries the host metadata and every metric the run computed.

  python3 benchmark/compare.py spread RUN.txt...
      Per workload and end-to-end metric: median, quartiles and the
      quartile spread as a share of the median, against the metric's bound.

  python3 benchmark/compare.py compare --base A.txt... --new B.txt...
      Per workload and end-to-end metric: the change of the new median
      against the base median, judged by the bound in BENCHMARK.json.
      Refuses to compare records made on hosts with different CPU counts.
"""

import json
import os
import statistics
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_record(path):
    with open(path) as f:
        for line in f:
            if line.startswith("record "):
                return json.loads(line[len("record "):])
    sys.exit(f"{path}: no record line")


def by_workload(paths):
    groups = {}
    for p in paths:
        r = load_record(p)
        if r["trace"] != 0:
            continue
        groups.setdefault(r["workload"], []).append(r)
    return groups


def values(records, name):
    return [r["metrics"][name]["value"] for r in records]


def spread(records, name):
    v = values(records, name)
    med = statistics.median(v)
    if len(v) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(v, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def cmd_spread(paths):
    spec = load_spec()
    ok = True
    for workload, recs in sorted(by_workload(paths).items()):
        bad = [r for r in recs if not r["correct"]]
        print(f"{workload}: {len(recs)} runs, {len(bad)} not correct")
        ok &= not bad
        for m in spec["end_to_end"]:
            med, q1, q3, s = spread(recs, m["name"])
            limit = m["bound"] / 3
            flag = "" if s <= limit or m["name"] == "setup_s" else "  WIDE"
            ok &= not flag
            print(f"  {m['name']:<14} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {s:7.4f} (bound/3 {limit:.4f}){flag}")
    return ok


def cmd_compare(base_paths, new_paths):
    spec = load_spec()
    base, new = by_workload(base_paths), by_workload(new_paths)
    hosts = {(r["host_cpus"], r["workers"]) for g in (base, new) for rs in g.values() for r in rs}
    if len(hosts) > 1:
        sys.exit(f"refusing to compare records from different hosts: (host_cpus, workers) {sorted(hosts)}")
    ok = True
    for workload in sorted(set(base) & set(new)):
        print(workload)
        for m in spec["end_to_end"]:
            b_med, _, _, b_spread = spread(base[workload], m["name"])
            n_med, _, _, _ = spread(new[workload], m["name"])
            change = (n_med - b_med) / b_med
            worse = change > 0 if m["better"] == "lower" else change < 0
            if b_spread > m["bound"]:
                verdict = "unresolved (base spread exceeds bound)"
            elif worse and abs(change) > m["bound"]:
                verdict = "REGRESSION"
                ok = False
            else:
                verdict = "within bound"
            print(f"  {m['name']:<14} base {b_med:12.4f}  new {n_med:12.4f}"
                  f"  change {change:+8.2%}  bound {m['bound']:.0%}  {verdict}")
    return ok


def main(argv):
    if len(argv) >= 2 and argv[0] == "spread":
        return 0 if cmd_spread(argv[1:]) else 1
    if argv[:1] == ["compare"] and "--base" in argv and "--new" in argv:
        b, n = argv.index("--base"), argv.index("--new")
        base = argv[b + 1:n] if b < n else argv[b + 1:]
        new = argv[n + 1:] if n > b else argv[n + 1:b]
        return 0 if cmd_compare(base, new) else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
