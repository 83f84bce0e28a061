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

`COMMANDS` declares each subcommand once: its handler, required flags and
each flag's kind.  `_options` checks, in this order, config keys that
match no flag, the JSON type of string and bool config values and null
config numbers, the required flags and the numbers, then gives the
handler the converted values and a provenance that hashes them as given.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

from . import __version__
from .counting import count_invariants, count_invariants_stable
from .corpus import DatasetSelection, Thresholds, read_corpus, read_pairs, read_vectors_dir
from .gauss import GaussParams, moment_report, predict_moment
from .invariants import CATALOG, EnsembleAverages, element_histogram, validate_tag
from .matrix_core import MEMBERS_NAME, check_int, check_real, read_ensemble, write_stack
from .pipeline import (PipelineConfig, provenance_of, run_pipeline, stage_build_vectors,
                       stage_fit, stage_learn_matrices, stage_observables,
                       stage_select_dataset, write_json, write_text)
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


def _merge_config(args):
    """Load --config once; ``pipeline`` loads its own, into a `PipelineConfig`.

    Other subcommands fill the flags left at None from it and record them
    in ``from_config`` (dest -> key) for `_number`.  A key that matches no
    flag, a string or bool value of another JSON type, or a null number is
    rejected, so that a number is never opened as a file descriptor and a
    null never reads as unset."""
    if not args.config or args.command == "pipeline":
        return args
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: the config must be a JSON object")
    flags = {dest: (flag, kind, extra.get("nargs"))
             for flag, dest, kind, extra in _flags(args.command)}
    unknown = sorted(k for k in cfg if k.replace("-", "_") not in flags)
    if unknown:
        raise SystemExit(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    args.from_config = {}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if getattr(args, attr) is None:
            flag, kind, nargs = flags[attr]
            if kind in (str, bool) and not isinstance(val, kind):
                raise ValueError(f"{args.config}: config key {key!r} must be a "
                                 f"{'string' if kind is str else 'bool'}, got {val!r}")
            setattr(args, attr, val)
            args.from_config[attr] = key
            if val is None:  # a null number would read as unset
                _number(args, attr, kind, flag, nargs)
    return args


def _number(args, dest, kind, flag, nargs):
    """The value of flag ``dest`` as an int or a float (``kind``), or a list
    of ``nargs`` of them.  A command-line string that does not parse, or a
    float that is not finite, is a usage error naming the flag; a config
    value that is not a JSON integer (`check_int`) or finite number
    (`check_real`) is a ValueError naming the key."""
    value, key = getattr(args, dest), getattr(args, "from_config", {}).get(dest)
    values = value if nargs else [value]
    if key is not None:
        where = f"{args.config}: config key {key!r}"
        if nargs and not (isinstance(value, list) and len(value) == nargs):
            raise ValueError(f"{where} must be a list of {nargs} numbers, got {value!r}")
        out = [(check_int if kind is int else check_real)(where, v) for v in values]
    else:
        try:
            out = [kind(v) for v in values]
        except ValueError:
            raise SystemExit(f"{flag}: invalid {kind.__name__} value {value!r}") from None
        if kind is float and not all(map(math.isfinite, out)):
            raise SystemExit(f"{flag}: {value!r} is not a finite number")
    return out if nargs else out[0]


def _options(args):
    """The handler of ``args.command`` and its options, after `_merge_config`:
    each flag converted to its kind (None when unset, a bool flag False),
    ``config``, and ``provenance``, whose hash is of the values as given.
    A missing required flag is a usage error naming each one."""
    args = _merge_config(args)
    handler, required, _ = COMMANDS[args.command]
    missing = [name for name in required if getattr(args, name) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise SystemExit(f"missing required option(s): {flags}")
    given, opts = {"command": args.command}, argparse.Namespace(config=args.config)
    for flag, dest, kind, extra in _flags(args.command):
        value = getattr(args, dest)
        if kind is bool:
            value = bool(value)  # unset counts as False in the provenance hash
        if value is not None:
            given[dest] = value
            if kind in (int, float):
                value = _number(args, dest, kind, flag, extra.get("nargs"))
        setattr(opts, dest, value)
    opts.provenance = provenance_of(given, getattr(opts, "seed", None))
    return handler, opts


def _read_params(args) -> GaussParams:
    """The ``--params`` file, at the ``--dim`` dimension when one is given."""
    params, dim = _load_json(args.params, GaussParams.from_json_dict), getattr(args, "dim", None)
    return params if dim is None else dataclasses.replace(params, dim=dim)


def _tags(args) -> tuple[str, ...]:
    """The ``--tags`` list, comma-separated; the whole catalog by default."""
    return CATALOG if args.tags is None else tuple(
        validate_tag(t) for t in args.tags.split(","))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_gen_corpus(opts):
    cfg = SynthConfig() if opts.sentences is None else SynthConfig(n_sentences=opts.sentences)
    stats = write_synth_corpus(opts.seed, opts.out_corpus, opts.out_pairs, cfg)
    print(json.dumps(stats, sort_keys=True, allow_nan=False))


def cmd_build_vectors(opts):
    stage_build_vectors(read_corpus(opts.corpus), read_pairs(opts.pairs), opts.basis_size,
                        PipelineConfig.window if opts.window is None else opts.window,
                        opts.out, opts.provenance)


def cmd_select_dataset(opts):
    thresholds = Thresholds.from_json_dict({
        key: getattr(opts, key) for key in Thresholds.__dataclass_fields__
        if getattr(opts, key) is not None})
    selection = stage_select_dataset(read_corpus(opts.corpus, spill=False),
                                     read_pairs(opts.pairs), thresholds, opts.out,
                                     opts.provenance)
    print(json.dumps({"selected": selection.words()}, sort_keys=True, allow_nan=False))


def cmd_learn_matrices(opts):
    reg = RegressionConfig(ridge_lambda=opts.ridge_lambda,
                           seed=RegressionConfig.seed if opts.seed is None else opts.seed)
    selection = _load_json(opts.selection, DatasetSelection.from_json_dict)
    nouns = read_vectors_dir(os.path.join(opts.vectors, "nouns"))
    if not nouns[0]:
        raise SystemExit(f"no noun vectors found under {opts.vectors}")
    compounds = read_vectors_dir(os.path.join(opts.vectors, "compounds"))
    method = opts.method or PipelineConfig.regression_method
    stage_learn_matrices(selection, nouns, compounds,
                         nouns[1].shape[1] if opts.dim is None else opts.dim, reg, method,
                         opts.out, opts.provenance)


def cmd_observables(opts):
    ensemble = read_ensemble(opts.ensemble)
    stage_observables(ensemble, opts.out, opts.provenance)
    if opts.hist:
        i, j, bins = opts.hist
        out = opts.hist_out or (os.path.splitext(opts.out)[0] + f"_hist_{i}_{j}.csv")
        write_text(out, element_histogram(ensemble, i, j, bins).to_csv(), opts.provenance)


def cmd_fit(opts):
    stage_fit(_load_json(opts.averages, EnsembleAverages.from_json_dict), opts.out,
              opts.provenance)


def cmd_predict(opts):
    params = _read_params(opts)
    values = {t: predict_moment(params, t) for t in _tags(opts)}
    payload = {"dim": params.dim, "values": values}
    if opts.out:
        write_json(payload, opts.out, opts.provenance)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_report(opts):
    report = moment_report(_read_params(opts), read_ensemble(opts.ensemble))
    write_json(report.to_json_dict(), opts.out, opts.provenance)
    if opts.text:
        print(report.to_text(), end="")


def cmd_sample(opts):
    spec = SampleSpec(params=_read_params(opts), count=opts.count, seed=opts.seed)
    out = opts.out or f"sample-D{spec.params.dim}-N{spec.count}-seed{spec.seed}"
    write_stack(zip(sample_labels(spec.count), iter_matrices(spec)), out, MEMBERS_NAME)
    write_json({"dim": spec.params.dim, "count": spec.count, "seed": spec.seed},
               os.path.join(out, "provenance.json"), opts.provenance)
    print(json.dumps({"out": out, "count": spec.count}, sort_keys=True, allow_nan=False))


def cmd_mc_check(opts):
    spec = SampleSpec(params=_read_params(opts), count=opts.count, seed=opts.seed)
    records = monte_carlo_check(spec, _tags(opts))
    payload = {"dim": spec.params.dim, "count": spec.count, "seed": spec.seed,
               "records": {t: r.to_json_dict() for t, r in records.items()},
               "max_abs_z": max(abs(r.z_score) for r in records.values())}
    if opts.csv:
        write_text(opts.csv, mc_records_csv(records), opts.provenance)
    if opts.out:
        write_json(payload, opts.out, opts.provenance)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def cmd_count_invariants(opts):
    print(count_invariants_stable(opts.k) if opts.dim is None
          else count_invariants(opts.dim, opts.k))


def cmd_pipeline(opts):
    config = _load_json(opts.config, lambda obj: PipelineConfig.from_json_dict(
        obj, out_dir=opts.out, threads=opts.threads))
    summary = run_pipeline(config)
    print(json.dumps({"out_dir": config.out_dir,
                      "selection_size": summary["selection_size"],
                      "dims": summary["dims"],
                      "sweep_stability": summary["sweep_stability"]},
                     indent=2, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------

#: Every subcommand, in --help order: its handler, the flags it requires
#: (named in this order when missing), and each flag's kind (``int``,
#: ``float``, ``str`` or ``bool``), or its kind and ``add_argument`` keywords.
#: Flag ``name`` is ``--name`` with dashes.  ``learn-matrices --pairs`` and
#: ``--threads`` change nothing; they are accepted for older configs.
COMMANDS = {
    "gen-corpus": (cmd_gen_corpus, ("seed", "out_corpus", "out_pairs"),
                   {"seed": int, "out_corpus": str, "out_pairs": str, "sentences": int}),
    "build-vectors": (cmd_build_vectors, ("corpus", "pairs", "basis_size", "out"),
                      {"corpus": str, "pairs": str, "basis_size": int, "window": int,
                       "out": str}),
    "select-dataset": (cmd_select_dataset, ("corpus", "pairs", "out"),
                       {"corpus": str, "pairs": str, "out": str, "min_target_freq": int,
                        "drop_top": int, "min_pair_count": int, "min_args": int}),
    "learn-matrices": (cmd_learn_matrices, ("vectors", "selection", "out"),
                       {"pairs": str, "vectors": str, "selection": str, "out": str,
                        "dim": int, "method": str, "threads": int, "seed": int,
                        "lambda": (float, {"dest": "ridge_lambda", "metavar": "LAMBDA",
                                           "help": "ridge coefficient"})}),
    "observables": (cmd_observables, ("ensemble", "out"),
                    {"ensemble": str, "out": str, "hist_out": str,
                     "hist": (int, {"nargs": 3, "metavar": ("I", "J", "BINS")})}),
    "fit": (cmd_fit, ("averages", "out"), {"averages": str, "out": str}),
    "predict": (cmd_predict, ("params",), {"params": str, "tags": str, "out": str}),
    "report": (cmd_report, ("params", "ensemble", "out"),
               {"params": str, "ensemble": str, "out": str,
                "text": (bool, {"action": "store_true"})}),
    "sample": (cmd_sample, ("params", "count", "seed"),
               {"params": str, "count": int, "seed": int, "dim": int, "out": str}),
    "mc-check": (cmd_mc_check, ("params", "count", "seed"),
                 {"params": str, "count": int, "seed": int, "dim": int, "tags": str,
                  "out": str, "csv": str}),
    "count-invariants": (cmd_count_invariants, ("k",), {"k": int, "dim": int}),
    "pipeline": (cmd_pipeline, ("config",), {"out": str, "threads": int}),
}


def _flags(command):
    """(option string, dest, kind, ``add_argument`` extras) of each flag."""
    for name, spec in COMMANDS[command][2].items():
        kind, extra = spec if isinstance(spec, tuple) else (spec, {})
        yield "--" + name.replace("_", "-"), extra.get("dest", name), kind, extra


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ``SystemExit(message)``, which `main` prints
    as the JSON error object; subparsers inherit the class."""

    def error(self, message):
        raise SystemExit(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # the help text is the docstring's first two paragraphs
    top = _Parser(prog="lingmat", description="\n\n".join(__doc__.split("\n\n")[:2]))
    top.add_argument("--version", action="version", version=f"lingmat {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="JSON defaults for the flags")
        for flag, dest, _, extra in _flags(command):
            p.add_argument(flag, **{"dest": dest, "default": None, **extra})
    return top


def main(argv=None) -> int:
    try:
        handler, opts = _options(build_parser().parse_args(argv))
        handler(opts)
        return 0
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(json.dumps({"error": "UsageError", "message": exc.code}, allow_nan=False),
                  file=sys.stderr)
            return 2
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        payload = {"error": type(exc).__name__, "message": str(exc)}
        stage = getattr(exc, "stage", None)
        if stage is not None:
            payload["stage"] = stage
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
