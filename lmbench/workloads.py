"""The benchmark's workloads and its child-process entry point.

``run.py`` starts this file once per set-up and once per measurement, each
time in a fresh interpreter with BLAS/OpenMP pinned to one thread:

    workloads.py setup   --workload W --seed N --dir INPUTS --result OUT.json
    workloads.py measure --workload W --dir INPUTS --seconds S --trace 0|1
                         --result OUT.json --spans SPANS.jsonl.gz

A set-up imports lingmat, writes the workload's inputs (made only from the
seed) into INPUTS and runs a small warm-up of the same calls.  A
measurement repeats the workload closed-loop, one iteration after another,
for S seconds, checks every iteration's output and records its wall time.
With ``--trace 1`` it alternates untraced and traced iterations so that
the tracing overhead can be read off the same process.

Workloads call lingmat through module attributes (``lingmat.fit``), never
through names bound at import time, so the tracer's rebinding sees them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from time import perf_counter

import numpy as np

import lingmat
from lingmat.corpus import write_pairs
from lingmat.synth import SynthConfig, generate_corpus, write_synth_corpus

from tracing import LAYER_METRICS, Tracer

#: c04's model parameters; the D = 100 round trip reuses them.
C04_PARAMS = {"lam": 1.3, "a": 0.9, "b": 1.8, "j0": 0.6, "js": -0.35}

#: The README's desk-scale pipeline settings.
DESK_CONFIG = {
    "basis_sizes": [60, 80, 100],
    "window": 5,
    "thresholds": {"min_target_freq": 100, "drop_top": 0,
                   "min_pair_count": 5, "min_args": 10},
    "regression": {"lambda": 0.001, "method": "closed_form"},
    "seed": 0,
    "threads": 1,
}

FIT_RATIO_TOL = 1e-6      # c09: fit-tag theory/experiment ratios equal 1
SWEEP_SPREAD_MAX = 0.10   # c09: normalized parameters stable across D
Z_MAX = 5.0               # c04: sample means agree with the closed forms


class CheckFailed(Exception):
    """An iteration ran but its output is wrong."""


def write_number(inputs: str, name: str, value: int) -> None:
    with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
        fh.write(f"{value}\n")


def read_number(inputs: str, name: str) -> int:
    with open(os.path.join(inputs, name), encoding="utf-8") as fh:
        return int(fh.read())


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every file under root."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def check_fit_ratios(report_dict: dict, where: str) -> None:
    rows = {r["tag"]: r for r in report_dict["rows"]}
    for tag in lingmat.FIT_TAGS:
        ratio = rows[tag]["ratio"]
        if ratio is None or abs(ratio - 1.0) > FIT_RATIO_TOL:
            raise CheckFailed(f"{where}: {tag} theory/experiment ratio {ratio}")


class Pipeline:
    """``run_pipeline`` on a 1.71e6-token synthetic corpus, desk settings."""

    name = "pipeline-1m7"
    SENTENCES = 125_000
    #: The corpus content is c09's generator seed.  Its sweep spread stays
    #: below 0.10; other generator seeds can exceed it at this size (102,
    #: 109 and 113 give 0.112, 0.115 and 0.155), which is a property of
    #: the data, not of the program.  The workload seed picks the sentence
    #: order instead, which leaves every pipeline output byte-identical.
    CORPUS_SEED = 2

    @staticmethod
    def make_inputs(seed: int, inputs: str) -> int:
        sentences, pairs = generate_corpus(Pipeline.CORPUS_SEED,
                                           SynthConfig(n_sentences=Pipeline.SENTENCES))
        order = np.random.Generator(np.random.Philox(key=seed)).permutation(len(sentences))
        with open(os.path.join(inputs, "corpus.txt"), "w", encoding="utf-8") as fh:
            for k in order:
                fh.write(" ".join(sentences[k]) + "\n")
        write_pairs(pairs, os.path.join(inputs, "pairs.tsv"))
        # warm-up: the same pipeline on c09's 12 500-sentence corpus
        small = os.path.join(inputs, "warmup")
        os.makedirs(small)
        write_synth_corpus(Pipeline.CORPUS_SEED, os.path.join(small, "corpus.txt"),
                           os.path.join(small, "pairs.tsv"))
        Pipeline(small).run()
        shutil.rmtree(small)
        return sum(len(s) for s in sentences)

    def __init__(self, inputs: str):
        self.out_dir = os.path.join(inputs, "out")
        self.config = lingmat.PipelineConfig.from_json_dict(dict(
            DESK_CONFIG, corpus=os.path.join(inputs, "corpus.txt"),
            pairs=os.path.join(inputs, "pairs.tsv"), out_dir=self.out_dir))
        self.digest = None

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self):
        return lingmat.run_pipeline(self.config)

    def check(self, summary) -> None:
        for tag, report in summary["reports"].items():
            check_fit_ratios(report, tag)
        for key, spread in summary["sweep_stability"].items():
            if not spread < SWEEP_SPREAD_MAX:
                raise CheckFailed(f"sweep spread of {key} is {spread}")
        digest = tree_digest(self.out_dir)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("out_dir differs from the first iteration's")


class MonteCarlo:
    """``monte_carlo_check`` at D = 30 with 1e4 draws; no corpus, no files."""

    name = "mc-d30"
    DRAWS = 10_000

    @staticmethod
    def make_inputs(seed: int, inputs: str) -> int:
        write_number(inputs, "seed.txt", seed)
        MonteCarlo(inputs, count=200).run()
        return MonteCarlo.DRAWS

    def __init__(self, inputs: str, count: int = DRAWS):
        params = lingmat.GaussParams(dim=30, **C04_PARAMS)
        self.spec = lingmat.SampleSpec(params=params, count=count,
                                       seed=read_number(inputs, "seed.txt"))
        self.first = None

    def prepare(self) -> None:
        pass

    def run(self):
        return lingmat.monte_carlo_check(self.spec)

    def check(self, records) -> None:
        if set(records) != set(lingmat.CATALOG):
            raise CheckFailed("records do not cover the catalog")
        for tag, rec in records.items():
            if not abs(rec.z_score) < Z_MAX:
                raise CheckFailed(f"{tag}: |z| = {abs(rec.z_score)}")
        values = {tag: rec.to_json_dict() for tag, rec in records.items()}
        if self.first is None:
            self.first = values
        elif values != self.first:
            raise CheckFailed("records differ from the first iteration's")


class RoundTrip:
    """The stage-by-stage CLI path at D = 100: sample, write, read,
    averages, fit, report.  Matrix files land in the page cache."""

    name = "roundtrip-d100"
    COUNT = 300

    @staticmethod
    def make_inputs(seed: int, inputs: str) -> int:
        write_number(inputs, "seed.txt", seed)
        warm = RoundTrip(inputs, count=5)
        warm.run()
        warm.prepare()
        return RoundTrip.COUNT

    def __init__(self, inputs: str, count: int = COUNT):
        params = lingmat.GaussParams(dim=100, **C04_PARAMS)
        self.spec = lingmat.SampleSpec(params=params, count=count,
                                       seed=read_number(inputs, "seed.txt"))
        self.ens_dir = os.path.join(inputs, "ensemble")

    def prepare(self) -> None:
        shutil.rmtree(self.ens_dir, ignore_errors=True)

    def run(self):
        sampled = lingmat.sample(self.spec)
        lingmat.write_ensemble(sampled, self.ens_dir)
        back = lingmat.read_ensemble(self.ens_dir)
        params = lingmat.fit(lingmat.ensemble_averages(back))
        return sampled, back, lingmat.moment_report(params, back)

    def check(self, result) -> None:
        sampled, back, report = result
        if back.labels() != sampled.labels():
            raise CheckFailed("read-back labels differ")
        for a, b in zip(sampled.members, back.members):
            if a.values.tobytes() != b.values.tobytes():
                raise CheckFailed(f"matrix {a.label!r} is not bit-equal after read-back")
        check_fit_ratios(report.to_json_dict(), "report")


WORKLOADS = {w.name: w for w in (Pipeline, MonteCarlo, RoundTrip)}


def vm_rss() -> int:
    """Resident set size of this process in bytes."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS not found in /proc/self/status")


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def setup(args) -> dict:
    os.makedirs(args.dir)
    units = WORKLOADS[args.workload].make_inputs(args.seed, args.dir)
    write_number(args.dir, "units.txt", units)
    return {"digest": tree_digest(args.dir)}


def measure(args) -> dict:
    pre_rss = vm_rss()
    units = read_number(args.dir, "units.txt")
    workload = WORKLOADS[args.workload](args.dir)
    tracer = Tracer(args.workload) if args.trace else None
    walls: list[float] = []
    traced_walls: list[float] = []
    traced_iterations: list[int] = []
    failures: list[str] = []
    attempted = 0
    start = perf_counter()
    while True:
        iteration = attempted
        traced = tracer is not None and iteration % 2 == 1
        attempted += 1
        workload.prepare()
        try:
            if traced:
                with tracer.installed(iteration):
                    t0 = perf_counter()
                    out = workload.run()
                    wall = perf_counter() - t0
            else:
                t0 = perf_counter()
                out = workload.run()
                wall = perf_counter() - t0
            workload.check(out)
        except Exception as exc:  # a failed iteration is counted, the run goes on
            failures.append(f"iteration {iteration}: {type(exc).__name__}: {exc}")
        else:
            if traced:
                traced_walls.append(wall)
                traced_iterations.append(iteration)
            else:
                walls.append(wall)
        enough = not args.trace or (walls and traced_walls) or failures
        if perf_counter() - start >= args.seconds and enough:
            break
    result = {
        "walls": walls, "attempted": attempted, "failed": len(failures),
        "problems": failures, "units": units, "pre_rss": pre_rss,
        "peak_rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
        "machine": machine_facts(),
    }
    if tracer is not None and traced_iterations:
        tracer.write_spans(args.spans)
        by_iteration = tracer.layer_metrics()
        layers = {}
        for metric, (unit, _how, _names) in LAYER_METRICS.items():
            values = [by_iteration[i][metric] for i in traced_iterations]
            if unit == "s":
                layers[metric] = statistics.median(values)
                continue
            layers[metric] = values[0]
            if len(set(values)) != 1:
                failures.append(f"count {metric} differs between traced iterations: {values}")
        first = traced_iterations[0]
        result.update(layers=layers,
                      spans_per_iteration=sum(1 for span in tracer.spans if span[4] == first))
    result["traced_walls"] = traced_walls
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)
    src = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                        os.pardir, "src"))
    if not os.path.realpath(lingmat.__file__).startswith(src + os.sep):
        raise SystemExit(f"lingmat was imported from {lingmat.__file__}, not from {src}")
    result = setup(args) if args.role == "setup" else measure(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
