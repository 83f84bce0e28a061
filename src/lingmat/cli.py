"""Command-line interface: the full pipeline and every stage as a
subcommand.

Each subcommand accepts ``--config <file>`` (a JSON object whose keys are
the flag names with dashes as underscores) with explicit flags taking
precedence.  Success exits 0; a usage error (an unknown or malformed
flag, a flag value that does not parse, an unknown config key) prints the
JSON error object ``{"error": "UsageError", "message": ...}`` on stderr
and exits 2; any other failure prints a JSON error object naming the
exception on stderr and exits 1.  Environment variables are never
consulted for configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys

from . import __version__
from .counting import count_invariants, count_invariants_stable
from .corpus import DatasetSelection, Thresholds, read_corpus, read_pairs, read_vectors_dir
from .gauss import GaussParams, fit as fit_params, moment_report, predict_moment
from .invariants import CATALOG, EnsembleAverages, element_histogram, validate_tag
from .matrix_core import MEMBERS_NAME, check_int, check_real, read_ensemble, write_stack
from .pipeline import (PipelineConfig, run_pipeline, stage_build_vectors, stage_learn_matrices,
                       stage_observables, stage_select_dataset, write_json, write_text)
from .regression import RegressionConfig
from .sampler import (SampleSpec, iter_matrices, mc_records_csv, monte_carlo_check,
                      sample_labels)
from .synth import SynthConfig, write_synth_corpus


def _load_json(path, from_json=lambda obj: obj):
    """``from_json`` of the JSON in ``path``; bad content is a ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return from_json(json.load(fh))
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


#: The JSON type of each flag that takes no number: paths, a method and a
#: tag list are strings, ``--text`` a bool; the rest go through `_number`.
_FLAG_TYPES = dict.fromkeys(("corpus", "pairs", "vectors", "selection", "ensemble", "averages",
                             "params", "out", "out_corpus", "out_pairs", "hist_out", "csv",
                             "method", "tags"), str) | {"text": bool}


def _merge_config(args):
    """Load --config once.

    ``pipeline`` loads its config itself, into a `PipelineConfig`.  Every
    other subcommand fills the flags left at None from it, records them as
    ``from_config`` (flag dest -> key) for `_number`, and rejects keys that
    match no flag and values not of the `_FLAG_TYPES` type, so that a
    number is never opened as a file descriptor.
    """
    if not getattr(args, "config", None) or args.func is cmd_pipeline:
        return args
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: the config must be a JSON object")
    flags = set(vars(args)) - {"command", "config", "func"}
    unknown = sorted(k for k in cfg if k.replace("-", "_") not in flags)
    if unknown:
        raise SystemExit(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    args.from_config = {}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            kind = _FLAG_TYPES.get(attr, object)
            if not isinstance(val, kind):
                raise ValueError(f"{args.config}: config key {key!r} must be a "
                                 f"{'string' if kind is str else 'bool'}, got {val!r}")
            setattr(args, attr, val)
            args.from_config[attr] = key
    return args


def _number(args, name, kind=int, flag=None, nargs=None):
    """The value of flag ``name`` as an int or a float (``kind``), a list of
    ``nargs`` of them when given, or None when unset; the converted value
    is returned, never stored on ``args``.

    A command-line string that does not parse, or a float that is not
    finite, is a usage error naming the flag.  A ``--config`` value must
    be a JSON integer (see `check_int`) or finite number (`check_real`),
    and the ValueError names the config key.
    """
    value = getattr(args, name, None)
    if value is None:
        return None
    key = getattr(args, "from_config", {}).get(name)
    if key is None:
        flag = flag or "--" + name.replace("_", "-")
        try:
            out = [kind(v) for v in value] if nargs else [kind(value)]
        except ValueError:
            raise SystemExit(f"{flag}: invalid {kind.__name__} value {value!r}") from None
        if kind is float and not all(map(math.isfinite, out)):
            raise SystemExit(f"{flag}: {value!r} is not a finite number")
        return out if nargs else out[0]
    where = f"{args.config}: config key {key!r}"
    if nargs and not (isinstance(value, list) and len(value) == nargs):
        raise ValueError(f"{where} must be a list of {nargs} numbers, got {value!r}")
    check = check_int if kind is int else check_real
    out = [check(where, v) for v in (value if nargs else [value])]
    return out if nargs else out[0]


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise SystemExit(f"missing required option(s): {flags}")


def _provenance(args, seed=None):
    payload = {k: v for k, v in sorted(vars(args).items())
               if k not in ("func", "config", "from_config") and v is not None}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return {"tool": "lingmat", "version": __version__,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16],
            "seed": seed if seed is not None else getattr(args, "seed", None)}


def _read_params(args) -> GaussParams:
    """The ``--params`` file, at the ``--dim`` dimension when one is given."""
    params = _load_json(args.params, GaussParams.from_json_dict)
    dim = _number(args, "dim")
    return params if dim is None else dataclasses.replace(params, dim=dim)


def _tags(args) -> tuple[str, ...]:
    """The ``--tags`` list, comma-separated; the whole catalog by default."""
    return CATALOG if args.tags is None else tuple(
        validate_tag(t) for t in args.tags.split(","))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_corpus(args):
    _require(args, "seed", "out_corpus", "out_pairs")
    sentences = _number(args, "sentences")
    cfg = SynthConfig() if sentences is None else SynthConfig(n_sentences=sentences)
    stats = write_synth_corpus(_number(args, "seed"), args.out_corpus, args.out_pairs, cfg)
    print(json.dumps(stats, sort_keys=True))
    return 0


def cmd_build_vectors(args):
    _require(args, "corpus", "pairs", "basis_size", "out")
    basis_size, window = _number(args, "basis_size"), _number(args, "window")
    stage_build_vectors(read_corpus(args.corpus), read_pairs(args.pairs), basis_size,
                        PipelineConfig.window if window is None else window,
                        args.out, _provenance(args))
    return 0


def cmd_select_dataset(args):
    _require(args, "corpus", "pairs", "out")
    thresholds = Thresholds.from_json_dict({
        key: _number(args, key) for key in Thresholds.__dataclass_fields__
        if getattr(args, key) is not None})
    selection = stage_select_dataset(read_corpus(args.corpus, spill=False),
                                     read_pairs(args.pairs), thresholds, args.out,
                                     _provenance(args))
    print(json.dumps({"selected": selection.words()}, sort_keys=True))
    return 0


def cmd_learn_matrices(args):
    _require(args, "vectors", "selection", "out")
    dim, seed = _number(args, "dim"), _number(args, "seed")
    reg = RegressionConfig(ridge_lambda=_number(args, "ridge_lambda", float, "--lambda"),
                           seed=RegressionConfig.seed if seed is None else seed)
    _number(args, "threads")  # accepted for older configs; changes nothing
    selection = _load_json(args.selection, DatasetSelection.from_json_dict)
    nouns = read_vectors_dir(os.path.join(args.vectors, "nouns"))
    if not nouns[0]:
        raise SystemExit(f"no noun vectors found under {args.vectors}")
    compounds = read_vectors_dir(os.path.join(args.vectors, "compounds"))
    method = args.method or PipelineConfig.regression_method
    stage_learn_matrices(selection, nouns, compounds,
                         nouns[1].shape[1] if dim is None else dim, reg, method,
                         args.out, _provenance(args))
    return 0


def cmd_observables(args):
    _require(args, "ensemble", "out")
    hist = _number(args, "hist", nargs=3)
    ensemble = read_ensemble(args.ensemble)
    prov = _provenance(args)
    stage_observables(ensemble, args.out, prov)
    if hist:
        i, j, bins = hist
        out = args.hist_out or (os.path.splitext(args.out)[0] + f"_hist_{i}_{j}.csv")
        write_text(out, element_histogram(ensemble, i, j, bins).to_csv(), prov)
    return 0


def cmd_fit(args):
    _require(args, "averages", "out")
    avgs = _load_json(args.averages, EnsembleAverages.from_json_dict)
    params = fit_params(avgs)
    write_json(params.to_json_dict(), args.out, _provenance(args))
    return 0


def cmd_predict(args):
    _require(args, "params")
    params = _read_params(args)
    values = {t: predict_moment(params, t) for t in _tags(args)}
    payload = {"dim": params.dim, "values": values}
    if args.out:
        write_json(payload, args.out, _provenance(args))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_report(args):
    _require(args, "params", "ensemble", "out")
    params = _read_params(args)
    ensemble = read_ensemble(args.ensemble)
    report = moment_report(params, ensemble)
    args.text = bool(args.text)  # unset counts as False in the provenance hash
    write_json(report.to_json_dict(), args.out, _provenance(args))
    if args.text:
        print(report.to_text(), end="")
    return 0


def cmd_sample(args):
    _require(args, "params", "count", "seed")
    params = _read_params(args)
    spec = SampleSpec(params=params, count=_number(args, "count"),
                      seed=_number(args, "seed"))
    out = args.out or f"sample-D{params.dim}-N{spec.count}-seed{spec.seed}"
    write_stack(zip(sample_labels(spec.count), iter_matrices(spec)), out, MEMBERS_NAME)
    write_json({"dim": params.dim, "count": spec.count, "seed": spec.seed},
               os.path.join(out, "provenance.json"),
               _provenance(args, seed=spec.seed))
    print(json.dumps({"out": out, "count": spec.count}, sort_keys=True))
    return 0


def cmd_mc_check(args):
    _require(args, "params", "count", "seed")
    params = _read_params(args)
    spec = SampleSpec(params=params, count=_number(args, "count"),
                      seed=_number(args, "seed"))
    records = monte_carlo_check(spec, _tags(args))
    payload = {"dim": params.dim, "count": spec.count, "seed": spec.seed,
               "records": {t: r.to_json_dict() for t, r in records.items()},
               "max_abs_z": max(abs(r.z_score) for r in records.values())}
    if args.csv:
        write_text(args.csv, mc_records_csv(records), _provenance(args, seed=spec.seed))
    if args.out:
        write_json(payload, args.out, _provenance(args, seed=spec.seed))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def cmd_count_invariants(args):
    _require(args, "k")
    k, dim = _number(args, "k"), _number(args, "dim")
    print(count_invariants_stable(k) if dim is None else count_invariants(dim, k))
    return 0


def cmd_pipeline(args):
    _require(args, "config")
    threads = _number(args, "threads")
    config = _load_json(args.config, lambda obj: PipelineConfig.from_json_dict(
        obj, out_dir=args.out, threads=threads))
    summary = run_pipeline(config)
    print(json.dumps({"out_dir": config.out_dir,
                      "selection_size": summary["selection_size"],
                      "dims": summary["dims"],
                      "sweep_stability": summary["sweep_stability"]},
                     indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``SystemExit(message)``, which `main` prints
    as the JSON error object; subparsers inherit the class."""

    def error(self, message):
        raise SystemExit(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lingmat", description=__doc__)
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
    p.add_argument("--text", action="store_true", default=None)
    add("sample", cmd_sample, params={}, count={}, seed={}, dim={}, out={})
    add("mc-check", cmd_mc_check,
        params={}, count={}, seed={}, dim={}, tags={}, out={}, csv={})
    add("count-invariants", cmd_count_invariants, k={}, dim={})
    add("pipeline", cmd_pipeline, out={}, threads={})
    return top


def main(argv=None) -> int:
    try:
        args = _merge_config(build_parser().parse_args(argv))
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
