"""Command-line interface: the full pipeline and every stage as a
subcommand.

Each subcommand accepts ``--config <file>`` (a JSON object whose keys are
the flag names with dashes as underscores) with explicit flags taking
precedence.  Success exits 0; any failure prints a machine-readable JSON
error object on stderr and exits 1.  Environment variables are never
consulted for configuration.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .counting import count_invariants, count_invariants_stable
from .corpus import Thresholds, read_corpus, read_pairs
from .gauss import GaussParams, fit as fit_params, moment_report, predict_moment
from .invariants import CATALOG, EnsembleAverages, element_histogram, validate_tag
from .matrix_core import read_ensemble, write_ensemble, WordMatrix
from .pipeline import (
    PipelineConfig,
    provenance_comment,
    run_pipeline,
    stage_build_vectors,
    stage_select_dataset,
    write_json,
)
from .regression import RegressionConfig
from .sampler import SampleSpec, iter_matrices, mc_records_csv, monte_carlo_check
from .synth import SynthConfig, write_synth_corpus


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _merge_config(args):
    """Load --config once.

    ``pipeline`` keeps the loaded object for `PipelineConfig`, which checks
    its keys.  Every other subcommand fills the flags left at None from it
    and rejects keys that match no flag.
    """
    if not getattr(args, "config", None):
        return args
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise SystemExit(f"{args.config}: the config must be a JSON object")
    if args.func is cmd_pipeline:
        args.config = cfg
        return args
    flags = set(vars(args)) - {"command", "config", "func"}
    unknown = sorted(k for k in cfg if k.replace("-", "_") not in flags)
    if unknown:
        raise SystemExit(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            setattr(args, attr, val)
    return args


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise SystemExit(f"missing required option(s): {flags}")


def _provenance(args, seed=None):
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "config") and v is not None}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return {"tool": "lingmat", "version": __version__,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16],
            "seed": seed if seed is not None else getattr(args, "seed", None)}


def _read_params(path) -> GaussParams:
    return GaussParams.from_json_dict(_load_json(path))


def _thresholds(args) -> Thresholds:
    base = Thresholds()
    return Thresholds(
        min_target_freq=base.min_target_freq if args.min_target_freq is None
        else int(args.min_target_freq),
        drop_top=base.drop_top if args.drop_top is None else int(args.drop_top),
        min_pair_count=base.min_pair_count if args.min_pair_count is None
        else int(args.min_pair_count),
        min_args=base.min_args if args.min_args is None else int(args.min_args),
    )


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_corpus(args):
    _require(args, "seed", "out_corpus", "out_pairs")
    cfg = SynthConfig() if args.sentences is None else SynthConfig(
        n_sentences=int(args.sentences))
    stats = write_synth_corpus(int(args.seed), args.out_corpus, args.out_pairs, cfg)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_build_vectors(args):
    _require(args, "corpus", "pairs", "basis_size", "out")
    window = 5 if args.window is None else int(args.window)
    stage_build_vectors(read_corpus(args.corpus), read_pairs(args.pairs),
                        int(args.basis_size), window, args.out,
                        provenance=_provenance(args))
    return 0


def cmd_select_dataset(args):
    _require(args, "corpus", "pairs", "out")
    selection = stage_select_dataset(read_corpus(args.corpus), read_pairs(args.pairs),
                                     _thresholds(args), args.out,
                                     provenance=_provenance(args))
    print(json.dumps({"selected": selection.words()}, sort_keys=True))
    return 0


def cmd_learn_matrices(args):
    from .corpus import DatasetSelection, read_vectors_dir
    from .pipeline import stage_learn_matrices

    _require(args, "vectors", "selection", "out")
    selection = DatasetSelection.from_json_dict(_load_json(args.selection))
    nouns = read_vectors_dir(os.path.join(args.vectors, "nouns"))
    compounds = read_vectors_dir(os.path.join(args.vectors, "compounds"))
    some = next(iter(nouns.values()), None)
    if some is None:
        raise SystemExit(f"no noun vectors found under {args.vectors}")
    dim = some.dim if args.dim is None else int(args.dim)
    reg = RegressionConfig(
        ridge_lambda=None if args.ridge_lambda is None else float(args.ridge_lambda),
        seed=0 if args.seed is None else int(args.seed))
    method = args.method or "closed_form"
    stage_learn_matrices(selection, list(nouns.values()), list(compounds.values()),
                         dim, reg, method, args.out, provenance=_provenance(args))
    return 0


def cmd_observables(args):
    from .pipeline import stage_observables

    _require(args, "ensemble", "out")
    ensemble = read_ensemble(args.ensemble)
    prov = _provenance(args)
    stage_observables(ensemble, args.out, provenance=prov)
    if args.hist:
        i, j, bins = (int(x) for x in args.hist)
        hist = element_histogram(ensemble, i, j, bins)
        out = args.hist_out or (os.path.splitext(args.out)[0] + f"_hist_{i}_{j}.csv")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(provenance_comment(prov))
            fh.write(hist.to_csv())
    return 0


def cmd_fit(args):
    _require(args, "averages", "out")
    avgs = EnsembleAverages.from_json_dict(_load_json(args.averages))
    params = fit_params(avgs)
    write_json(params.to_json_dict(), args.out, _provenance(args))
    return 0


def cmd_predict(args):
    _require(args, "params")
    params = _read_params(args.params)
    tags = CATALOG if args.tags is None else tuple(
        validate_tag(t) for t in args.tags.split(","))
    values = {t: predict_moment(params, t) for t in tags}
    payload = {"dim": params.dim, "values": values}
    if args.out:
        write_json(payload, args.out, _provenance(args))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_report(args):
    _require(args, "params", "ensemble", "out")
    params = _read_params(args.params)
    ensemble = read_ensemble(args.ensemble)
    report = moment_report(params, ensemble)
    write_json(report.to_json_dict(), args.out, _provenance(args))
    if args.text:
        print(report.to_text(), end="")
    return 0


def cmd_sample(args):
    _require(args, "params", "count", "seed")
    params = _read_params(args.params)
    if args.dim is not None and int(args.dim) != params.dim:
        params = GaussParams(dim=int(args.dim), lam=params.lam, a=params.a,
                             b=params.b, j0=params.j0, js=params.js)
    spec = SampleSpec(params=params, count=int(args.count), seed=int(args.seed))
    out = args.out or f"sample-D{params.dim}-N{spec.count}-seed{spec.seed}"
    matrices = (WordMatrix(f"sample{k:06d}", v)
                for k, v in enumerate(iter_matrices(spec)))
    write_ensemble(matrices, out)
    write_json({"dim": params.dim, "count": spec.count, "seed": spec.seed},
               os.path.join(out, "provenance.json"),
               _provenance(args, seed=spec.seed))
    print(json.dumps({"out": out, "count": spec.count}, sort_keys=True))
    return 0


def cmd_mc_check(args):
    _require(args, "params", "count", "seed")
    params = _read_params(args.params)
    if args.dim is not None and int(args.dim) != params.dim:
        params = GaussParams(dim=int(args.dim), lam=params.lam, a=params.a,
                             b=params.b, j0=params.j0, js=params.js)
    spec = SampleSpec(params=params, count=int(args.count), seed=int(args.seed))
    tags = CATALOG if args.tags is None else tuple(
        validate_tag(t) for t in args.tags.split(","))
    records = monte_carlo_check(spec, tags)
    payload = {"dim": params.dim, "count": spec.count, "seed": spec.seed,
               "records": {t: r.to_json_dict() for t, r in records.items()},
               "max_abs_z": max(abs(r.z_score) for r in records.values())}
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(provenance_comment(_provenance(args, seed=spec.seed)))
            fh.write(mc_records_csv(records))
    if args.out:
        write_json(payload, args.out, _provenance(args, seed=spec.seed))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_count_invariants(args):
    _require(args, "k")
    k = int(args.k)
    if args.dim is None:
        print(count_invariants_stable(k))
    else:
        print(count_invariants(int(args.dim), k))
    return 0


def cmd_pipeline(args):
    _require(args, "config")
    config = PipelineConfig.from_json_dict(
        args.config, out_dir=args.out, threads=None if args.threads is None else int(args.threads))
    config.validate_paths()
    summary = run_pipeline(config)
    print(json.dumps({"out_dir": config.out_dir,
                      "selection_size": summary["selection_size"],
                      "dims": summary["dims"],
                      "sweep_stability": summary["sweep_stability"]},
                     indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="lingmat", description=__doc__)
    top.add_argument("--version", action="version", version=f"lingmat {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON defaults for the flags")
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), dest=flag,
                           default=None, **kwargs)
        p.set_defaults(func=fn)
        return p

    add("gen-corpus", cmd_gen_corpus,
        seed={}, out_corpus={}, out_pairs={}, sentences={})
    add("build-vectors", cmd_build_vectors,
        corpus={}, pairs={}, basis_size={}, window={}, out={})
    add("select-dataset", cmd_select_dataset,
        corpus={}, pairs={}, out={}, min_target_freq={}, drop_top={},
        min_pair_count={}, min_args={})
    p = add("learn-matrices", cmd_learn_matrices,
            pairs={}, vectors={}, selection={}, out={}, dim={}, method={},
            threads={}, seed={})
    p.add_argument("--lambda", dest="ridge_lambda", default=None,
                   metavar="LAMBDA", help="ridge coefficient")
    p = add("observables", cmd_observables,
            ensemble={}, out={}, hist_out={})
    p.add_argument("--hist", nargs=3, metavar=("I", "J", "BINS"), default=None)
    add("fit", cmd_fit, averages={}, out={})
    add("predict", cmd_predict, params={}, tags={}, out={})
    p = add("report", cmd_report, params={}, ensemble={}, out={})
    p.add_argument("--text", action="store_true")
    add("sample", cmd_sample, params={}, count={}, seed={}, dim={}, out={})
    add("mc-check", cmd_mc_check,
        params={}, count={}, seed={}, dim={}, tags={}, out={}, csv={})
    add("count-invariants", cmd_count_invariants, k={}, dim={})
    add("pipeline", cmd_pipeline, out={}, threads={})
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(args)
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(json.dumps({"error": "UsageError", "message": exc.code}),
                  file=sys.stderr)
            return 2
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        payload = {"error": type(exc).__name__, "message": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage is not None:
            payload["stage"] = stage
        print(json.dumps(payload), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
