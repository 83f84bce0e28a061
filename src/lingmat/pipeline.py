"""End-to-end pipeline: corpus -> vectors -> dataset -> matrices ->
observables -> fit -> report, with a dimension sweep.

Every stage writes its outputs as files and can be re-run independently
through the CLI; a run with identical config and seed is byte-identical
(no artifact records timing or thread information).  A run first writes
a FAILED marker saying that it did not finish, and removes it only once
the top-level ``report.json`` is in place, so a run that is killed says
so too.  It then removes the ``D###`` and ``vectors`` trees, the
``report.json``, ``sweep.csv`` and ``selection.json`` of an earlier run
in the same out_dir and the ``.tmp`` files that a killed run left of
them and of the marker, so a rerun leaves the tree a fresh run writes
and a failed rerun no stale summary.  A failed run rewrites the marker
to name the stage, and leaves only complete files (`atomic_open`).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .corpus import (
    DEFAULT_WINDOW,
    DatasetSelection,
    Thresholds,
    build_compound_vectors,
    build_noun_vectors,
    count_cooccurrence,
    pos_class_of,
    read_corpus,
    read_pairs,
    select_basis,
    select_dataset,
    write_vectors_dir,
)
from .gauss import GaussParams, averages_report, fit
from .invariants import EnsembleAverages, ensemble_averages
from .matrix_core import Ensemble, atomic_open, check_int, check_seed, write_ensemble
from .regression import RegressionConfig, TrainingSet, fit_logged

STAGES = ("build-vectors", "select-dataset", "learn-matrices",
          "observables", "fit", "report")


def provenance_of(values, seed) -> dict:
    """The provenance of outputs made from ``values``, a JSON object: the
    tool, its version, a hash of ``values`` and the seed."""
    blob = json.dumps(values, sort_keys=True, default=str, allow_nan=False).encode()
    return {"tool": "lingmat", "version": __version__,
            "config_hash": hashlib.sha256(blob).hexdigest()[:16], "seed": seed}


class PipelineError(RuntimeError):
    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass(frozen=True)
class PipelineConfig:
    corpus: str
    pairs: str
    out_dir: str = "out"
    basis_sizes: tuple[int, ...] = (60, 80, 100)
    window: int = DEFAULT_WINDOW
    thresholds: Thresholds = field(default_factory=Thresholds)
    regression: RegressionConfig = field(default_factory=RegressionConfig)
    regression_method: str = "closed_form"   # or "gradient_descent"
    seed: int = 0   # also seeds the holdout split of `regression`'s lambda search
    threads: int = 1   # accepted for older configs; changes nothing

    def __post_init__(self):
        for name in ("corpus", "pairs", "out_dir"):
            if not isinstance(getattr(self, name), str):
                raise ValueError(f"{name} must be a path string, got {getattr(self, name)!r}")
        if not isinstance(self.basis_sizes, (list, tuple)):
            raise ValueError(f"basis_sizes must be a list, got {self.basis_sizes!r}")
        sizes = tuple(check_int("basis_sizes", d) for d in self.basis_sizes)
        for name in ("window", "threads"):
            check_int(name, getattr(self, name))
        check_seed(self.seed)
        if not sizes:
            raise ValueError("at least one basis size is required")
        if any(d < 4 for d in sizes):
            raise ValueError(
                f"basis sizes must be >= 4 so all quadratic invariants are "
                f"nontrivial, got {sizes}"
            )
        if len(set(sizes)) != len(sizes):
            raise ValueError("basis sizes must be distinct")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.regression_method not in ("closed_form", "gradient_descent"):
            raise ValueError(f"unknown regression method {self.regression_method!r}")
        object.__setattr__(self, "basis_sizes", sizes)
        object.__setattr__(self, "regression", replace(self.regression, seed=self.seed))

    def validate_paths(self):
        for label, path in (("corpus", self.corpus), ("pairs", self.pairs)):
            if not os.path.exists(path):
                raise FileNotFoundError(f"{label} file does not exist: {path}")

    def semantic_dict(self) -> dict:
        """The part of the config that determines outputs (no out_dir or
        threads, which must not change any produced bytes)."""
        reg = {"lambda": self.regression.ridge_lambda,
               "learning_rate": self.regression.learning_rate,
               "max_epochs": self.regression.max_epochs,
               "convergence_tol": self.regression.convergence_tol,
               "method": self.regression_method}
        return {"corpus": self.corpus, "pairs": self.pairs,
                "basis_sizes": list(self.basis_sizes), "window": self.window,
                "thresholds": self.thresholds.to_json_dict(),
                "regression": reg, "seed": self.seed}

    def config_hash(self) -> str:
        return self.provenance()["config_hash"]

    def provenance(self) -> dict:
        return provenance_of(self.semantic_dict(), self.seed)

    @classmethod
    def from_json_dict(cls, obj, out_dir=None, threads=None) -> "PipelineConfig":
        """Keys left out take the field defaults; ``out_dir`` and
        ``threads``, when not None, override the config's."""
        if not isinstance(obj, dict):
            raise ValueError(f"the pipeline config must be a JSON object, got {obj!r}")
        known = set(cls.__dataclass_fields__) - {"regression_method"}
        unknown = set(obj) - known
        if unknown:
            raise ValueError(f"unknown pipeline config keys: {sorted(unknown)}")
        missing = [key for key in ("corpus", "pairs") if key not in obj]
        if missing:
            raise ValueError(f"pipeline config is missing required keys: {missing}")
        reg = obj.get("regression", {})
        if not isinstance(reg, dict):
            raise ValueError(f"regression config must be a JSON object, got {reg!r}")
        unknown = set(reg) - {"method", "lambda", "learning_rate", "max_epochs",
                              "convergence_tol"}
        if unknown:
            raise ValueError(f"unknown regression config keys: {sorted(unknown)}")
        kwargs = {k: v for k, v in obj.items() if k not in ("thresholds", "regression")}
        if out_dir is not None:
            kwargs["out_dir"] = out_dir
        if threads is not None:
            kwargs["threads"] = threads
        if "method" in reg:
            kwargs["regression_method"] = reg["method"]
        reg_kwargs = {("ridge_lambda" if k == "lambda" else k): v
                      for k, v in reg.items() if k != "method"}
        return cls(thresholds=Thresholds.from_json_dict(obj.get("thresholds", {})),
                   regression=RegressionConfig(**reg_kwargs), **kwargs)


def write_json(obj, path, provenance) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(dict(obj, provenance=provenance), indent=2, sort_keys=True,
                            allow_nan=False) + "\n")


def write_text(path, text: str, provenance) -> None:
    """The ``# lingmat`` provenance comment line, then ``text``."""
    with atomic_open(path) as fh:
        fh.write(f"# lingmat {provenance['version']} config={provenance['config_hash']} "
                 f"seed={provenance['seed']}\n{text}")


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

def stage_build_vectors(corpus, pairs, basis_size, window, out_dir, provenance):
    """Basis, noun vectors, and compound vectors for every pairs entry.

    Takes the read corpus and pairs (see `read_corpus` and `read_pairs`);
    one pass counts the noun windows and every compound.  Vectors are
    built at the largest requested basis size; smaller sweep dimensions
    reuse prefixes of the same vectors because the basis is
    frequency-ordered and PPMI is pointwise.
    """
    basis = select_basis(corpus, basis_size)

    nouns = sorted({arg for args in pairs.values() for arg in args})
    heads = {head: (sorted(pairs[head]), pos)
             for head, pos in sorted(pos_class_of(corpus, pairs).items())}
    table = count_cooccurrence(corpus, nouns, basis, window, heads)
    noun_vectors = build_noun_vectors(table, basis, nouns)

    labels, rows, skipped = [], [np.zeros((0, basis.size))], {}
    for head in heads:
        (head_labels, head_rows), missing = build_compound_vectors(table, head)
        labels += head_labels
        rows.append(head_rows)
        if missing:
            skipped[head] = missing
    compound_vectors = (labels, np.concatenate(rows))

    os.makedirs(out_dir, exist_ok=True)
    write_text(os.path.join(out_dir, "basis.txt"),
               "".join(w + "\n" for w in basis.words), provenance)
    write_vectors_dir(noun_vectors, os.path.join(out_dir, "nouns"))
    write_vectors_dir(compound_vectors, os.path.join(out_dir, "compounds"))
    write_json({"skipped_compounds": skipped}, os.path.join(out_dir, "warnings.json"),
               provenance)
    write_json({}, os.path.join(out_dir, "provenance.json"), provenance)
    return basis, noun_vectors, compound_vectors


def stage_select_dataset(corpus, pairs, thresholds, out_path,
                         provenance) -> DatasetSelection:
    selection = select_dataset(corpus, pairs, thresholds)
    write_json(selection.to_json_dict(), out_path, provenance)
    return selection


def stage_learn_matrices(selection: DatasetSelection, noun_vectors, compound_vectors,
                         dim: int, reg: RegressionConfig, method: str, out_dir,
                         provenance) -> Ensemble:
    """One ridge regression per selected target at dimension 1..vector dim."""
    if not selection.entries:
        raise ValueError("dataset selection is empty; relax the thresholds")
    nouns = {label: i for i, label in enumerate(noun_vectors[0])}
    compounds = {label: i for i, label in enumerate(compound_vectors[0])}
    noun_values, compound_values = noun_vectors[1], compound_vectors[1]
    vec_dim = min((v.shape[1] for v in (noun_values, compound_values) if len(v)), default=dim)
    if not 1 <= dim <= vec_dim:
        raise ValueError(f"matrix dimension {dim} must be between 1 and the "
                         f"vector dimension {vec_dim}")
    values = np.empty((len(selection.entries), dim, dim))
    logs = {}
    for k, entry in enumerate(selection.entries):
        used = [noun for noun, _cnt in entry.args
                if noun in nouns and f"{entry.word} {noun}" in compounds]
        if not used:
            raise ValueError(f"target {entry.word!r} has no usable argument vectors")
        ts = TrainingSet(entry.word,
                         noun_values[[nouns[n] for n in used], :dim],
                         compound_values[[compounds[f"{entry.word} {n}"] for n in used], :dim])
        matrix, logs[entry.word] = fit_logged(ts, reg, method)
        logs[entry.word]["rows"] = len(used)
        values[k] = matrix.values

    ensemble = Ensemble([e.word for e in selection.entries], values)
    write_ensemble(ensemble, out_dir)
    write_json({"dim": dim, "words": logs},
               os.path.join(out_dir, "training_log.json"), provenance)
    return ensemble


def stage_observables(ensemble: Ensemble, out_path, provenance) -> EnsembleAverages:
    avgs = ensemble_averages(ensemble)
    write_json(avgs.to_json_dict(), out_path, provenance)
    return avgs


def stage_fit(avgs: EnsembleAverages, out_path, provenance) -> GaussParams:
    params = fit(avgs)
    write_json(params.to_json_dict(), out_path, provenance)
    return params


def stage_report(params: GaussParams, avgs: EnsembleAverages, out_path, provenance):
    report = averages_report(params, avgs)
    write_json(report.to_json_dict(), out_path, provenance)
    write_text(os.path.splitext(out_path)[0] + ".txt", report.to_text(), provenance)
    return report


NORMALIZED_KEYS = ("j0_over_D", "lambda_over_D2", "js_over_D",
                   "a_over_D2", "b_over_D2")


def sweep_csv(params_by_dim: dict[int, GaussParams]) -> str:
    lines = ["D," + ",".join(NORMALIZED_KEYS)]
    for d in sorted(params_by_dim):
        norm = params_by_dim[d].normalized()
        lines.append(f"{d}," + ",".join(repr(norm[k]) for k in NORMALIZED_KEYS))
    return "\n".join(lines) + "\n"


def sweep_stability(params_by_dim: dict[int, GaussParams]) -> dict[str, float]:
    """Relative spread (max-min over mean) of each normalized parameter."""
    out = {}
    for key in NORMALIZED_KEYS:
        vals = np.array([params_by_dim[d].normalized()[key]
                         for d in sorted(params_by_dim)])
        mean = vals.mean()
        out[key] = float((vals.max() - vals.min()) / abs(mean)) if mean != 0 else float("inf")
    return out


#: The top-level files of an earlier run that a run removes before its
#: first stage, beside its ``D###`` and ``vectors`` trees: the summaries,
#: and the temp files that a killed `atomic_open` leaves.
_STALE = ("report.json", "sweep.csv", "selection.json",
          "FAILED.tmp", "report.json.tmp", "sweep.csv.tmp", "selection.json.tmp")


def run_pipeline(config: PipelineConfig) -> dict:
    """Execute all stages; returns the summary report dict."""
    config.validate_paths()
    out = config.out_dir
    os.makedirs(out, exist_ok=True)
    marker = os.path.join(out, "FAILED")
    prov = config.provenance()

    stage = STAGES[0]
    try:
        with atomic_open(marker) as fh:  # removed once report.json is in place
            fh.write("error: the run did not finish\n")
        for name in os.listdir(out):
            path = os.path.join(out, name)
            if re.fullmatch(r"D\d{3,}|vectors", name) and os.path.isdir(path):
                shutil.rmtree(path)
            elif name in _STALE:
                os.remove(path)

        corpus = read_corpus(config.corpus)
        try:
            pairs = read_pairs(config.pairs)
            basis, noun_vecs, compound_vecs = stage_build_vectors(
                corpus, pairs, max(config.basis_sizes), config.window,
                os.path.join(out, "vectors"), prov)
        finally:
            corpus.close()  # select-dataset reads the counts, not the spill

        stage = "select-dataset"
        selection = stage_select_dataset(
            corpus, pairs, config.thresholds, os.path.join(out, "selection.json"), prov)
        del corpus  # nothing after the selection reads it

        params_by_dim: dict[int, GaussParams] = {}
        reports = {}
        for dim in config.basis_sizes:
            tag = f"D{dim:03d}"
            ddir = os.path.join(out, tag)
            os.makedirs(ddir, exist_ok=True)

            stage = "learn-matrices"
            ensemble = stage_learn_matrices(
                selection, noun_vecs, compound_vecs, dim, config.regression,
                config.regression_method, os.path.join(ddir, "matrices"), prov)

            stage = "observables"
            avgs = stage_observables(ensemble, os.path.join(ddir, "averages.json"), prov)

            stage = "fit"
            params = stage_fit(avgs, os.path.join(ddir, "params.json"), prov)
            params_by_dim[dim] = params

            stage = "report"
            report = stage_report(params, avgs, os.path.join(ddir, "report.json"), prov)
            reports[tag] = report.to_json_dict()

        stage = "report"
        write_text(os.path.join(out, "sweep.csv"), sweep_csv(params_by_dim), prov)
        summary = {
            "config": config.semantic_dict(),
            "selection_size": len(selection.entries),
            "dims": sorted(params_by_dim),
            "params": {f"D{d:03d}": params_by_dim[d].to_json_dict()
                       for d in params_by_dim},
            "sweep_stability": sweep_stability(params_by_dim),
            "reports": reports,
        }
        write_json(summary, os.path.join(out, "report.json"), prov)
        os.remove(marker)
        return summary
    except Exception as exc:
        with atomic_open(marker) as fh:
            fh.write(f"stage: {stage}\nerror: {exc}\n")
        raise PipelineError(stage, exc) from exc
