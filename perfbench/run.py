"""Run one planarcp benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload hs-potential-readme --seed 1 \
        --seconds 20 --trace 0

One process, one thread, one caller in a closed loop: each operation
starts when the previous one has returned.  The run repeats whole passes
over the workload's fixed operations for about --seconds (at least two
passes), checks the outputs, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 gives the end-to-end metrics; --trace 1 runs every operation
untraced and then traced and gives the per-layer metrics.  A
readable summary goes to standard error.  Exit code 2 means the program
could not be benchmarked (no sources in this checkout, a traced name gone).
"""

from __future__ import annotations

import os

# one thread: set before numpy is imported, here and in set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 2
WORK = workloads.ROOT / ".bench_work"


def setup_probe(name, seed, workdir):
    """Seconds of one set-up in a fresh process: import, parse, warm-up."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
         str(workdir)],
        capture_output=True, text=True, timeout=170, env=os.environ)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_passes(workload, P, seconds, tracer, between):
    """Whole passes while the next one is expected to end within `seconds`
    of pass time: at least MIN_PASSES, or one when traced, since a traced
    pass runs every operation twice.  between() runs before each pass,
    untimed.  Returns the passes and, when traced, their layer metrics."""
    passes, layer_runs = [], []
    least = 1 if tracer is not None else MIN_PASSES
    spent = 0.0
    while True:
        done = len(passes)
        if done >= least and spent * (done + 1) / done > seconds:
            break
        between()
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        passes.append(workload.run_pass(P, tracer))
        spent += time.perf_counter() - t0
        if tracer is not None:
            layer_runs.append(tracing.layer_metrics(tracer.spans))
    return passes, layer_runs


def pass_wall(op_times):
    """Wall time of one pass with every operation at its median over the
    passes (op_times: one list per pass): the median pass, robust to
    which pass a slow spell of the machine hit."""
    return sum(statistics.median(times) for times in zip(*op_times))


def per_layer(passes, layer_runs):
    """Counts from the first traced pass (they must repeat exactly), times
    as medians over traced passes; the overhead compares each operation's
    traced repeat with its untraced run."""
    first = layer_runs[0]
    for other in layer_runs[1:]:
        for key, value in other.items():
            if key not in tracing.TIME_METRICS and value != first[key]:
                raise RuntimeError(f"{key} differs between traced passes: "
                                   f"{first[key]} vs {value}")
    metrics = dict(first)
    for key in tracing.TIME_METRICS:
        if key in first:
            metrics[key] = statistics.median(r[key] for r in layer_runs)
    metrics["trace.overhead_s"] = (
        pass_wall([r.traced_times for r in passes])
        - pass_wall([r.op_times for r in passes]))
    return {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]}
            for k, v in metrics.items()}


def end_to_end(passes, setup_s, peak_rss_mb):
    latencies = [x for r in passes for x in r.latencies]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": pass_wall([r.op_times for r in passes]),
                   "unit": "s"},
        "point_ms_p50": {"value": 1e3 * statistics.median(latencies),
                         "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def summarize(name, seed, passes, metrics, problems):
    latencies = [x for r in passes for x in r.latencies]
    err = sys.stderr
    print(f"{name} seed={seed}: {len(passes)} passes, "
          f"{len(latencies)} point samples", file=err)
    for key, m in metrics.items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}", file=err)
    if len(latencies) >= 100:
        # p90 has >= 10 samples beyond it only from 100 samples on
        p90 = statistics.quantiles(latencies, n=10)[-1]
        print(f"  {'point_ms_p90':32s} {1e3 * p90:.6g} ms "
              f"({len(latencies)} samples)", file=err)
    for p in problems:
        print(f"  CHECK FAILED: {p}", file=err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (workloads.SRC / "planarcp" / "__init__.py").is_file():
        print(f"error: no planarcp sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        workload.write_inputs()
        P = workloads.load_program()
        workload.setup(P)
        workload.warm_up(P)
        tracer = tracing.Tracer(P) if args.trace else None
        # set-up probes are spread between the passes, so that one slow
        # spell of the machine does not hit them all
        setups = []

        def probe():
            if not args.trace and len(setups) < SETUP_REPEATS:
                setups.append(setup_probe(args.workload, args.seed, workdir))

        passes, layer_runs = run_passes(workload, P, args.seconds, tracer,
                                        probe)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not args.trace and len(setups) < SETUP_REPEATS:
            probe()
        problems = workload.check(P, passes[0].outputs)
        problems += [f"pass {k} output differs from pass 0"
                     for k, r in enumerate(passes[1:], 1)
                     if r.outputs != passes[0].outputs]
        if args.trace:
            metrics = per_layer(passes, layer_runs)
            spans_dir = WORK / "spans"
            spans_dir.mkdir(parents=True, exist_ok=True)
            tracer.dump(spans_dir / f"{args.workload}-seed{args.seed}"
                                    ".jsonl.gz")
        else:
            metrics = end_to_end(passes, statistics.median(setups),
                                 peak_rss_mb)
    except (workloads.ProgramMissing, tracing.TracingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summarize(args.workload, args.seed, passes, metrics, problems)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
