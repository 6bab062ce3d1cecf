"""Run the benchmark as two sets on the same code and compare them.

    python3 perfbench/compare.py [--runs 10] [--workload NAME ...]
                                 [--out results.json]

For each workload: two sets of --runs untraced runs, each run with its own
seed, then two traced runs with one seed.  For every end-to-end metric of
BENCHMARK.json it prints each set's median and spread (the distance
between the first and third quartile as a share of the median) and says
whether the sets agree: each spread (setup_s excepted) within the
metric's bound, the second median not worse than the first by more than
the bound, the same share of failed operations, every run correct, and
per-layer counts identical between the two traced runs.  Exits 1 when
anything disagrees.  Runs take about 35 s each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(command, workload, seed, seconds, trace):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"  {workload} seed={seed} trace={trace}: "
          + ", ".join(f"{k}={v['value']:.6g}"
                      for k, v in result["metrics"].items()
                      if trace == 0 or k == "trace.overhead_s"),
          flush=True)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def compare_sets(spec, sets):
    """Rows (metric, median per set, spread per set, bound, ok)."""
    rows, ok_all = [], True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in s] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        worse = sign * (medians[1] - medians[0]) / medians[0]
        ok = worse <= bound and (name == "setup_s"
                                 or all(s <= bound for s in spreads))
        ok_all &= ok
        rows.append((name, metric["unit"], medians, spreads, bound, ok))
    return rows, ok_all


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out", help="write every run's result as JSON")
    args = parser.parse_args(argv)
    command = [sys.executable] + spec["command"][1:]
    seconds = spec["run_seconds"]

    everything, agree = {}, True
    for workload in args.workload or names:
        print(f"{workload}:", flush=True)
        sets = [[run_once(command, workload, 1000 * k + i, seconds, 0)
                 for i in range(args.runs)] for k in (1, 2)]
        traced = [run_once(command, workload, 1, seconds, 1)
                  for _ in range(2)]
        everything[workload] = {"sets": sets, "traced": traced}

        rows, ok = compare_sets(spec, sets)
        shares = [Fraction(sum(r["failed"] for r in s),
                           sum(r["attempted"] for r in s)) for s in sets]
        correct = all(r["correct"] for s in sets for r in s + traced)
        counts = [{k: m["value"] for k, m in t["metrics"].items()
                   if m["unit"] in ("count", "bytes", "ratio")}
                  for t in traced]
        ok &= shares[0] == shares[1] and correct and counts[0] == counts[1]
        agree &= ok

        print(f"{workload}: {'AGREE' if ok else 'DISAGREE'}")
        print(f"  failed share {float(shares[0]):.4f} vs "
              f"{float(shares[1]):.4f}; all runs correct: {correct}; "
              f"traced counts identical: {counts[0] == counts[1]}; "
              f"trace overhead "
              f"{traced[0]['metrics']['trace.overhead_s']['value']:.3f} s")
        for name, unit, med, spr, bound, row_ok in rows:
            print(f"  {name:14s} median {med[0]:.5g} / {med[1]:.5g} {unit:3s}"
                  f" spread {spr[0]:.3f} / {spr[1]:.3f}  bound {bound}"
                  f"  {'ok' if row_ok else 'DISAGREE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    print("compare:", "AGREE" if agree else "DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
