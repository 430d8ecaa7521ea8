#!/usr/bin/env python3
"""Compare two sets of perfbench results.

Usage:

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the standard output of
`perfbench/run.py` (or of the perfbench binary). A file's `config {...}` line
names its workload and its last line is the result JSON. For every workload
and metric the tool prints the median and quartiles of each side and a
verdict against the metric's bound in BENCHMARK.json:

  worse       the new median is worse than the base median by more than the
              bound, or every new run reads worse than every base run;
  better      the new median is better by more than the base side's
              quartile spread, and at least 90% of (new, base) run pairs
              favour the new side; where a side's spread exceeds the bound,
              only when every new run reads better than every base run;
  unresolved  neither.

Metrics without a bound (per-layer metrics, and the end-to-end metrics a run
prints but BENCHMARK.json does not bound, such as latency percentiles) are
better or worse only when every run of one side beats every run of the
other; a printed-only metric is better when lower. Exits 1 when any bounded
end-to-end metric is worse, else 0.
"""
import argparse
import json
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {metric: [values]}} from every result file in directory."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.strip()]
        if not lines:
            continue
        workload = None
        values = {}
        for line in lines:
            if line.startswith("config "):
                workload = json.loads(line[len("config "):]).get("workload")
            m = re.match(r"metric (\S+)\s+(\S+)", line)
            if m:
                values[m.group(1)] = float(m.group(2))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            raise SystemExit("%s: last line is not a result" % path)
        if workload is None:
            raise SystemExit("%s: no config line naming the workload" % path)
        for metric, m in result["metrics"].items():
            values[metric] = float(m["value"])
        for metric, v in values.items():
            out.setdefault(workload, {}).setdefault(metric, []).append(v)
    return out


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def rel_spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, better, bound):
    """better / worse / unresolved for one metric (see the module doc)."""
    lower = better == "lower"

    def beats(a, b):  # a reads better than b
        return a < b if lower else a > b

    all_better = all(beats(n, b) for n in new for b in base)
    all_worse = all(beats(b, n) for n in new for b in base)
    if bound is None:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    med_b = summary(base)[0]
    med_n = summary(new)[0]
    if med_b == 0:
        change = 0.0 if med_n == 0 else float("inf")
    else:
        change = (med_n - med_b) / abs(med_b)
    worse_by = change if lower else -change
    if max(rel_spread(base), rel_spread(new)) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > bound or all_worse:
        return "worse"
    pairs = sum(beats(n, b) for n in new for b in base)
    if -worse_by > rel_spread(base) and pairs >= 0.9 * len(new) * len(base):
        return "better"
    return "unresolved"


def compare(base_dir, new_dir, spec):
    """Rows (workload, metric, base summary, new summary, verdict)."""
    rules = {m["name"]: (m["better"], m.get("bound"))
             for m in spec["end_to_end"] + spec["per_layer"]}
    base = load_runs(base_dir)
    new = load_runs(new_dir)
    rows = []
    for workload in sorted(set(base) & set(new)):
        for metric in sorted(set(base[workload]) & set(new[workload])):
            better, bound = rules.get(metric, ("lower", None))
            b, n = base[workload][metric], new[workload][metric]
            rows.append((workload, metric, summary(b), summary(n),
                         verdict(b, n, better, bound), bound is not None))
    return rows


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--benchmark",
                    default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as f:
        spec = json.load(f)
    rows = compare(args.base, args.new, spec)
    print("%-16s %-34s %-30s %-30s %s" % ("workload", "metric",
                                         "base median [q1, q3]",
                                         "new median [q1, q3]", "verdict"))
    fmt = lambda s: "%.4g [%.4g, %.4g]" % s
    for workload, metric, b, n, v, _ in rows:
        print("%-16s %-34s %-30s %-30s %s" % (workload, metric, fmt(b), fmt(n), v))
    return 1 if any(v == "worse" and bounded for *_, v, bounded in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
