#!/usr/bin/env python3
"""Determinism self-check of the editing benchmark.

    python3 perfbench/test_determinism.py [--seconds N] [--seed N]

Runs every workload twice with the same seed, traced (which also runs the
untraced pass), and requires every byte metric to repeat exactly:
wire_bytes_per_op, write_bytes_per_op and each per-layer metric in bytes.
The op count is fixed by (workload, --seconds) and the mediators use
seeded nonce streams, so these are counts, not timings: a later change
may cite them as counts. Exit status 1 on any mismatch or failed run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["type_128k", "type_4k_tcp", "autosave_open_128k"]


def byte_rows(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        stdout=subprocess.PIPE, check=True, text=True).stdout
    rows = {}
    for line in out.splitlines():
        row = json.loads(line)
        if "workload" in row and row["unit"] == "B":
            rows[row["metric"]] = row["value"]
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    ok = True
    for workload in WORKLOADS:
        first = byte_rows(workload, args.seed, args.seconds)
        second = byte_rows(workload, args.seed, args.seconds)
        for metric in sorted(set(first) | set(second)):
            same = first.get(metric) == second.get(metric)
            ok &= same
            print(f"{'ok  ' if same else 'FAIL'} {workload:20s} {metric:32s} "
                  f"{first.get(metric)} {second.get(metric)}")
    print("determinism: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
