#!/usr/bin/env python3
"""Compare two result sets of the editing benchmark, per (workload, metric).

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a file or a directory of files holding the JSON rows
that perfbench/run.py prints ({workload, metric, unit, value, samples,
seed}; other lines are skipped), e.g. one file per run:

    python3 perfbench/run.py --workload type_128k --seed 3 --seconds 36 \\
        --trace 0 > base/type_128k-3.jsonl

Runs are paired by seed (by order when the seeds differ). For each pair of
(workload, metric) the table shows each side's median and quartiles, how
many pairs NEW wins, and a verdict:

  gain        NEW wins at least 9 of 10 pairs and the medians differ by
              more than BASE's own quartile spread;
  regression  NEW's median is worse than BASE's by more than the bound in
              BENCHMARK.json (end-to-end metrics only);
  unresolved  not a regression, but BASE's spread is wider than the bound,
              so "no worse" cannot be shown (unless every NEW run is better
              than every BASE run);
  same        none of the above.

Exit status 1 when any bounded metric regressed.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_rows(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path))
    runs = {}  # (workload, metric) -> list of (seed, value)
    units = {}
    for name in files:
        with open(name) as fh:
            for line in fh:
                try:
                    row = json.loads(line)
                except ValueError:
                    continue
                if not isinstance(row, dict) or "workload" not in row:
                    continue
                key = (row["workload"], row["metric"])
                runs.setdefault(key, []).append((row["seed"], row["value"]))
                units[key] = row["unit"]
    return runs, units


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def pairs(base, new):
    base_by_seed = dict(base)
    new_by_seed = dict(new)
    common = [s for s in new_by_seed if s in base_by_seed]
    if common:
        return [(base_by_seed[s], new_by_seed[s]) for s in common]
    return list(zip([v for _, v in base], [v for _, v in new]))


def metric_specs():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    specs = {m["name"]: m for m in bench["per_layer"]}
    specs.update({m["name"]: m for m in bench["end_to_end"]})
    return specs


def verdict(spec, base_vals, new_vals, paired):
    better = spec.get("better") if spec else None
    if better not in ("lower", "higher"):
        return "-", "report"
    sign = -1 if better == "lower" else 1
    wins = sum(1 for b, n in paired if sign * (n - b) > 0)
    b_q1, b_med, b_q3 = quartiles(base_vals)
    _, n_med, _ = quartiles(new_vals)
    diff = sign * (n_med - b_med)
    if paired and wins >= 0.9 * len(paired) and diff > (b_q3 - b_q1):
        return f"{wins}/{len(paired)}", "gain"
    bound = spec.get("bound")
    if bound is None:
        return f"{wins}/{len(paired)}", "same"
    if -diff > bound * abs(b_med):
        return f"{wins}/{len(paired)}", "regression"
    separated = (max(new_vals) < min(base_vals)) if better == "lower" else (
        min(new_vals) > max(base_vals))
    if b_med != 0 and (b_q3 - b_q1) / abs(b_med) > bound and not separated:
        return f"{wins}/{len(paired)}", "unresolved"
    return f"{wins}/{len(paired)}", "same"


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, units = load_rows(argv[0])
    new, _ = load_rows(argv[1])
    specs = metric_specs()
    regressed = False
    print(f"{'workload':20s} {'metric':38s} {'unit':6s} {'base q1/med/q3':>32s} "
          f"{'new q1/med/q3':>32s} {'wins':>6s} verdict")
    for key in sorted(set(base) & set(new)):
        b_vals = [v for _, v in base[key]]
        n_vals = [v for _, v in new[key]]
        wins, word = verdict(specs.get(key[1]), b_vals, n_vals, pairs(base[key], new[key]))
        regressed |= word == "regression"
        fmt = "{:10.4g} {:10.4g} {:10.4g}"
        print(f"{key[0]:20s} {key[1]:38s} {units[key]:6s} "
              f"{fmt.format(*quartiles(b_vals)):>32s} {fmt.format(*quartiles(n_vals)):>32s} "
              f"{wins:>6s} {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
