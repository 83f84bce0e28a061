"""lingmat's benchmark: one command per workload, end-to-end or traced.

Run from the root of a checkout:

    python3 lmbench/run.py --workload pipeline-1m7 --seed 1 --seconds 45 --trace 0

Workloads (see NOTES.md for why each was chosen):

    pipeline-1m7     run_pipeline on a 1.71e6-token synthetic corpus
    mc-d30           monte_carlo_check at D = 30, 1e4 draws
    roundtrip-d100   sample -> write/read ensemble -> averages -> fit -> report
                     (run by hand; not in BENCHMARK.json, see NOTES.md)

Inputs are made from --seed and nothing else.  Each set-up and the
measurement run in their own child process with BLAS/OpenMP pinned to
one thread; the lingmat under test is the one in ``src/`` of this
checkout.  With ``--trace 0`` the command prints the end-to-end metrics,
with ``--trace 1`` the per-layer metrics from the traced run.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--recheck-seed M`` repeats the run on inputs made from M and prints its
metrics as well, so that a claim can be rechecked on a seed that was not
used while the change was written; the JSON line keeps the --seed run's
metrics and counts the iterations of both.

Runs leave ``.lmbench_work/results.jsonl`` (one record per run, with the
machine facts) and ``.lmbench_work/spans-<workload>.jsonl.gz`` (the last
traced run's spans) behind; the generated inputs are deleted.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracing import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".lmbench_work")

#: Work unit of each workload (tokens per pipeline run, draws per Monte
#: Carlo check, matrices per round trip), as the names under which the
#: report also prints units_per_s and rss_bytes_per_unit.
UNITS = {
    "pipeline-1m7": ("tokens_per_s", "rss_bytes_per_token"),
    "mc-d30": ("draws_per_s", "rss_bytes_per_draw"),
    "roundtrip-d100": ("matrices_per_s", "rss_bytes_per_matrix"),
}

SETUPS = 5            # set-ups per end-to-end run; setup_s is their median
SLACK_S = 140.0       # a run ends within --seconds plus this, set-ups included

#: Thread-count variables of the BLAS and OpenMP runtimes numpy may load.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child(role: str, workload: str, inputs: str, result: str, deadline: float,
          *extra: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, **{var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), role,
           "--workload", workload, "--dir", inputs, "--result", result, *extra]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=sys.stderr) as proc:
        # A timer kills the child at the deadline.  Popen.wait(timeout=...)
        # would poll in steps of up to 50 ms, which quantizes setup_s.
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
    if code != 0:
        if time.monotonic() >= deadline:
            raise BenchError(f"{role} child for {workload} ran past the time limit")
        raise BenchError(f"{role} child for {workload} exited with {code}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: float, trace: int,
             deadline: float) -> dict:
    """Set up, measure, and derive the metrics of one run on one seed."""
    rundir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        setup_times = []
        digests = set()
        for k in range(1 if trace else SETUPS):
            inputs = os.path.join(rundir, f"inputs{k}")
            t0 = time.perf_counter()
            out = child("setup", workload, inputs, os.path.join(rundir, f"setup{k}.json"),
                        deadline, "--seed", str(seed))
            setup_times.append(time.perf_counter() - t0)
            digests.add(out["digest"])
            if k:
                shutil.rmtree(os.path.join(rundir, f"inputs{k - 1}"))
        m = child("measure", workload, inputs, os.path.join(rundir, "measure.json"),
                  deadline, "--seconds", str(seconds), "--trace", str(trace),
                  "--spans", os.path.join(WORK, f"spans-{workload}.jsonl.gz"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    problems = list(m["problems"])
    if len(digests) != 1:
        problems.append("set-ups made different inputs from one seed")
    if not m["walls"] or (trace and not m["traced_walls"]):
        raise BenchError(f"{workload}: no iteration passed its checks: {problems[:3]}")
    # Iteration times are reported by their mean, the run's total measured
    # time over its iterations.  On a shared host iterations are either
    # fast or slowed by other tenants' bursts; when about half are slow the
    # median jumps between the two, while the mean moves with the share of
    # slow time.  The median and the maximum are printed as well.
    wall = statistics.fmean(m["walls"])
    if trace:
        traced = statistics.fmean(m["traced_walls"])
        metrics = {name: (m["layers"][name], unit)
                   for name, (unit, _how, _spans) in LAYER_METRICS.items()}
        metrics.update({"trace.wall_mean_s": (traced, "s"),
                        "trace.overhead_s": (traced - wall, "s"),
                        "trace.spans": (m["spans_per_iteration"], "count")})
        samples = {name: len(m["traced_walls"]) for name in metrics}
        samples["trace.overhead_s"] = len(m["walls"])
    else:
        units = m["units"]
        metrics = {
            "wall_mean_s": (wall, "s"),
            "setup_s": (statistics.median(setup_times), "s"),
            "units_per_s": (units / wall, "1/s"),
            "peak_rss_mb": (m["peak_rss"] / 2 ** 20, "MB"),
            "rss_bytes_per_unit": ((m["peak_rss"] - m["pre_rss"]) / units, "B"),
        }
        samples = {name: len(m["walls"]) for name in metrics}
        samples["setup_s"] = len(setup_times)
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "metrics": metrics, "samples": samples, "walls": m["walls"],
            "setup_times": setup_times, "attempted": m["attempted"],
            "failed": m["failed"], "problems": problems, "machine": m["machine"]}


def report(run: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    aliases = dict(zip(("units_per_s", "rss_bytes_per_unit"), UNITS[run["workload"]]))
    facts = run["machine"]
    print(f"{run['workload']} seed={run['seed']} trace={run['trace']} "
          f"seconds={run['seconds']:g}")
    print(f"  machine: nproc={facts['nproc']} python={facts['python']} "
          f"numpy={facts['numpy']} blas={facts['blas']} {facts['blas_version']} "
          f"(BLAS/OpenMP threads pinned to {facts['blas_threads']})")
    for name, (value, metric_unit) in run["metrics"].items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<28} {shown} {metric_unit:<6} n={run['samples'][name]}{alias}")
    walls = run["walls"]
    print(f"  {'wall median, max':<28} {statistics.median(walls):>16.6g} "
          f"{max(walls):.6g} s  n={len(walls)} (untraced iterations)")
    rate = run["failed"] / run["attempted"]
    print(f"  {'error_rate':<28} {rate:>16.6g} {'':<6} "
          f"({run['failed']} of {run['attempted']} iterations failed)")
    for problem in run["problems"][:5]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="lingmat benchmark", epilog="see lmbench/NOTES.md")
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--recheck-seed", type=int, default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lingmat", "__init__.py")):
        print(f"lmbench: no lingmat sources under {SRC}; "
              "run from the root of a lingmat checkout", file=sys.stderr)
        return 2
    seeds = [args.seed] + ([args.recheck_seed] if args.recheck_seed is not None else [])
    if not all(0 <= seed < 2 ** 64 for seed in seeds) or args.seconds <= 0:
        print("lmbench: seeds must be 64-bit unsigned integers and --seconds "
              "positive", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so the running child is killed and
    # reaped and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    deadline = time.monotonic() + (args.seconds + SLACK_S) * len(seeds)
    runs = []
    try:
        for seed in seeds:
            runs.append(run_once(args.workload, seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"lmbench: {exc}", file=sys.stderr)
        return 1

    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as fh:
        for run in runs:
            fh.write(json.dumps(run) + "\n")
    for run in runs:
        report(run)
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    print(json.dumps({
        "correct": not any(run["problems"] for run in runs),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in runs[0]["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
