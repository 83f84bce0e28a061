"""Summarize benchmark runs recorded in .lmbench_work/results.jsonl.

    python3 lmbench/summarize.py [RESULTS.jsonl]

For every workload, trace mode and metric, prints the number of runs, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

DEFAULT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       ".lmbench_work", "results.jsonl")


def summarize(records: list[dict]) -> dict:
    """{(workload, trace): {metric: {runs, median, q1, q3, spread, unit}}}"""
    values: dict = {}
    units: dict = {}
    for rec in records:
        group = values.setdefault((rec["workload"], rec["trace"]), {})
        for name, (value, unit) in rec["metrics"].items():
            group.setdefault(name, []).append(value)
            units[name] = unit
    out = {}
    for key, group in sorted(values.items()):
        out[key] = {}
        for name, vals in group.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            out[key][name] = {"runs": len(vals), "median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / abs(med) if med else 0.0,
                              "unit": units[name]}
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else DEFAULT
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    for (workload, trace), metrics in summarize(records).items():
        print(f"{workload} trace={trace}")
        for name, s in metrics.items():
            print(f"  {name:<28} runs={s['runs']:<3} median={s['median']:<14.6g} "
                  f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} spread={s['spread']:.4f} "
                  f"{s['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
