import json
import math
import os

import numpy as np
import pytest

from lingmat import _kernels, cli
from lingmat.gauss import GaussParams
from lingmat.invariants import eval_all
from lingmat.corpus import DatasetSelection, DistVector, read_vectors_dir
from lingmat.matrix_core import read_ensemble, write_matrix, write_vector
from lingmat.pipeline import PipelineConfig, run_pipeline, stage_learn_matrices
from lingmat.regression import DEFAULT_LAMBDA_GRID, RegressionConfig, TrainingSet, loss
from lingmat.synth import write_synth_corpus


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_params(path, dim=8):
    p = GaussParams(dim=dim, lam=1.5, a=1.0, b=2.0, j0=0.4, js=0.2)
    path.write_text(json.dumps(p.to_json_dict()))
    return p


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _to_text_layout(out_dir):
    """Rewrite the stack directories of a pipeline tree in the earlier
    per-item layout: one text file per item plus a manifest.txt of names."""
    for ens_dir in out_dir.glob("D*/matrices"):
        ensemble = read_ensemble(ens_dir)
        names = [f"{i:06d}_{m.label}.txt" for i, m in enumerate(ensemble.members)]
        for name, m in zip(names, ensemble.members):
            write_matrix(m, ens_dir / name)
        (ens_dir / "manifest.txt").write_text("".join(n + "\n" for n in names))
        os.remove(ens_dir / "members.npy")
        os.remove(ens_dir / "labels.json")
    for vec_dir in (out_dir / "vectors" / "nouns", out_dir / "vectors" / "compounds"):
        vectors = read_vectors_dir(vec_dir)
        names = [label.replace(" ", "_") + ".txt" for label in vectors]
        for name, v in zip(names, vectors.values()):
            write_vector(v.word, v.values, vec_dir / name)
        (vec_dir / "manifest.txt").write_text("".join(n + "\n" for n in names))
        os.remove(vec_dir / "vectors.npy")
        os.remove(vec_dir / "labels.json")


class TestCountInvariants:
    def test_stable_count(self, capsys):
        code, out, _ = run_cli(capsys, "count-invariants", "--k", "4")
        assert code == 0 and out.strip() == "296"

    def test_with_dim(self, capsys):
        code, out, _ = run_cli(capsys, "count-invariants", "--k", "2", "--dim", "3")
        assert code == 0 and out.strip() == "10"

    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2}))
        code, out, _ = run_cli(capsys, "count-invariants", "--config", str(cfg))
        assert code == 0 and out.strip() == "11"

    def test_missing_flag_is_json_error(self, capsys):
        code, _, err = run_cli(capsys, "count-invariants")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"


class TestSampleAndObservables:
    def test_sample_deterministic_and_observables(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=6)
        for out_dir in ("e1", "e2"):
            code, _, err = run_cli(
                capsys, "sample", "--params", str(params_path), "--count", "4",
                "--seed", "9", "--out", str(tmp_path / out_dir))
            assert code == 0, err
        e1 = read_ensemble(tmp_path / "e1")
        e2 = read_ensemble(tmp_path / "e2")
        assert e1.labels() == e2.labels()
        np.testing.assert_array_equal(e1.values, e2.values)

        avgs_path = tmp_path / "avgs.json"
        code, _, err = run_cli(capsys, "observables", "--ensemble",
                               str(tmp_path / "e1"), "--out", str(avgs_path))
        assert code == 0, err
        payload = json.loads(avgs_path.read_text())
        assert payload["count"] == 4 and payload["dim"] == 6
        assert "provenance" in payload

    def test_single_matrix_averages_equal_invariants(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=5)
        run_cli(capsys, "sample", "--params", str(params_path), "--count", "1",
                "--seed", "3", "--out", str(tmp_path / "one"))
        avgs_path = tmp_path / "avgs.json"
        run_cli(capsys, "observables", "--ensemble", str(tmp_path / "one"),
                "--out", str(avgs_path))
        ens = read_ensemble(tmp_path / "one")
        want = eval_all(ens.values[0])
        got = json.loads(avgs_path.read_text())["values"]
        for tag, val in want.items():
            assert got[tag] == pytest.approx(val)

    def test_histogram_csv(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=5)
        run_cli(capsys, "sample", "--params", str(params_path), "--count", "20",
                "--seed", "3", "--out", str(tmp_path / "e"))
        hist_path = tmp_path / "h.csv"
        code, _, err = run_cli(
            capsys, "observables", "--ensemble", str(tmp_path / "e"),
            "--out", str(tmp_path / "a.json"),
            "--hist", "0", "1", "4", "--hist-out", str(hist_path))
        assert code == 0, err
        lines = hist_path.read_text().strip().split("\n")
        assert lines[0].startswith("# lingmat")
        assert lines[1] == "bin_low,bin_high,count"
        counts = [int(line.split(",")[2]) for line in lines[2:]]
        assert sum(counts) == 20


class TestFitPredictReport:
    def test_fit_predict_report_roundtrip(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=6)
        run_cli(capsys, "sample", "--params", str(params_path), "--count", "40",
                "--seed", "21", "--out", str(tmp_path / "e"))
        run_cli(capsys, "observables", "--ensemble", str(tmp_path / "e"),
                "--out", str(tmp_path / "avgs.json"))
        code, _, err = run_cli(capsys, "fit", "--averages", str(tmp_path / "avgs.json"),
                               "--out", str(tmp_path / "fitted.json"))
        assert code == 0, err
        fitted = json.loads((tmp_path / "fitted.json").read_text())
        assert fitted["lambda"] > 0 and fitted["a"] > 0 and fitted["b"] > 0

        code, out, _ = run_cli(capsys, "predict", "--params",
                               str(tmp_path / "fitted.json"), "--tags", "Md1,Mo32")
        assert code == 0
        values = json.loads(out)["values"]
        assert set(values) == {"Md1", "Mo32"}

        code, out, err = run_cli(
            capsys, "report", "--params", str(tmp_path / "fitted.json"),
            "--ensemble", str(tmp_path / "e"),
            "--out", str(tmp_path / "report.json"), "--text")
        assert code == 0, err
        report = json.loads((tmp_path / "report.json").read_text())
        fit_rows = {r["tag"]: r for r in report["rows"]}
        for tag in ("Md1", "Mo1", "Md2", "Mo21", "Mo22"):
            assert abs(fit_rows[tag]["ratio"] - 1.0) < 1e-6
        assert "reference_full_corpus" in report
        assert "invariant" in out


class TestMcCheck:
    def test_z_table(self, capsys, tmp_path):
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=8)
        csv_path = tmp_path / "z.csv"
        code, out, err = run_cli(
            capsys, "mc-check", "--params", str(params_path), "--count", "800",
            "--seed", "7", "--csv", str(csv_path))
        assert code == 0, err
        payload = json.loads(out)
        assert payload["max_abs_z"] < 5
        assert len(payload["records"]) == 19
        assert csv_path.read_text().splitlines()[1] == \
            "tag,theory,sample_mean,sample_stderr,z_score"


class TestErrors:
    def test_bad_params_file_yields_error_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code, _, err = run_cli(capsys, "predict", "--params", str(bad))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"

    def test_pipeline_rejects_small_dimension(self, capsys, tmp_path):
        (tmp_path / "c.txt").write_text("a b\n")
        (tmp_path / "p.tsv").write_text("a\tb\t1\n")
        cfg = {"corpus": str(tmp_path / "c.txt"), "pairs": str(tmp_path / "p.tsv"),
               "basis_sizes": [3], "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 1
        assert ">= 4" in json.loads(err)["message"]

    def test_pipeline_missing_corpus(self, capsys, tmp_path):
        (tmp_path / "p.tsv").write_text("a\tb\t1\n")
        cfg = {"corpus": str(tmp_path / "absent.txt"),
               "pairs": str(tmp_path / "p.tsv"),
               "basis_sizes": [4], "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 1
        assert json.loads(err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("key", ["corpus", "pairs"])
    def test_pipeline_config_names_a_missing_key(self, capsys, tmp_path, key):
        cfg = {"corpus": "c.txt", "pairs": "p.tsv", "basis_sizes": [4]}
        del cfg[key]
        with pytest.raises(ValueError, match=f"missing required keys: \\['{key}'\\]"):
            PipelineConfig.from_json_dict(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and repr(key) in payload["message"]

    def test_select_dataset_rejects_negative_threshold(self, capsys, tmp_path):
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(2, corpus, pairs)
        out = tmp_path / "selection.json"
        code, _, err = run_cli(
            capsys, "select-dataset", "--corpus", str(corpus), "--pairs", str(pairs),
            "--drop-top", "-3", "--out", str(out))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "drop_top" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize("selection, key", [
        ({"entries": []}, "targets"),
        ({"targets": [{"word": "big", "freq": 9, "args": [["n0", 3]]}]}, "pos_class"),
    ])
    def test_learn_matrices_names_a_missing_selection_key(self, capsys, tmp_path,
                                                          selection, key):
        with pytest.raises(ValueError, match=repr(key)):
            DatasetSelection.from_json_dict(selection)
        path = tmp_path / "selection.json"
        path.write_text(json.dumps(selection))
        code, _, err = run_cli(capsys, "learn-matrices", "--vectors", str(tmp_path / "v"),
                               "--selection", str(path), "--out", str(tmp_path / "m"))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert str(path) in payload["message"] and repr(key) in payload["message"]

    @pytest.mark.parametrize("dim", [0, 8])
    def test_learn_matrices_rejects_dim_outside_the_vectors(self, tmp_path, dim):
        nouns = [DistVector(f"n{i}", np.arange(5.0) + i) for i in range(3)]
        compounds = [DistVector(f"big n{i}", np.arange(5.0) * i) for i in range(3)]
        selection = DatasetSelection.from_json_dict({"targets": [
            {"word": "big", "pos_class": "adjective", "freq": 9,
             "args": [[f"n{i}", 3] for i in range(3)]}]})
        with pytest.raises(ValueError, match=f"dimension {dim} .* vector dimension 5"):
            stage_learn_matrices(selection, nouns, compounds, dim,
                                 RegressionConfig(ridge_lambda=0.1), "closed_form",
                                 tmp_path / "matrices", {})
        assert not (tmp_path / "matrices").exists()


class TestStageSubcommands:
    def test_gen_corpus_and_stages(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        code, out, err = run_cli(
            capsys, "gen-corpus", "--seed", "4", "--sentences", "900",
            "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        assert code == 0, err
        stats = json.loads(out)
        assert stats["sentences"] == 900

        vec_dir = tmp_path / "vectors"
        code, _, err = run_cli(
            capsys, "build-vectors", "--corpus", str(corpus), "--pairs", str(pairs),
            "--basis-size", "40", "--out", str(vec_dir))
        assert code == 0, err
        assert (vec_dir / "basis.txt").exists()
        assert sorted(os.listdir(vec_dir / "nouns")) == ["labels.json", "vectors.npy"]

        sel_path = tmp_path / "selection.json"
        code, out, err = run_cli(
            capsys, "select-dataset", "--corpus", str(corpus), "--pairs", str(pairs),
            "--min-target-freq", "10", "--drop-top", "0",
            "--min-pair-count", "1", "--min-args", "5", "--out", str(sel_path))
        assert code == 0, err
        selected = json.loads(out)["selected"]
        assert len(selected) > 0

        mat_dir = tmp_path / "matrices"
        code, _, err = run_cli(
            capsys, "learn-matrices",
            "--vectors", str(vec_dir), "--selection", str(sel_path),
            "--lambda", "0.1", "--dim", "20", "--out", str(mat_dir))
        assert code == 0, err
        ens = read_ensemble(mat_dir)
        assert ens.dim == 20 and len(ens) == len(selected)
        assert (mat_dir / "training_log.json").exists()


class TestPipelineCli:
    def test_end_to_end_small(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "1200",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        cfg = {
            "corpus": str(corpus), "pairs": str(pairs),
            "basis_sizes": [20, 40], "window": 5,
            "thresholds": {"min_target_freq": 10, "drop_top": 0,
                           "min_pair_count": 1, "min_args": 5},
            "regression": {"lambda": 0.01},
            "seed": 0,
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 0, err
        summary = json.loads(out)
        assert summary["dims"] == [20, 40]
        out_dir = tmp_path / "out"
        assert (out_dir / "report.json").exists()
        assert (out_dir / "sweep.csv").exists()
        assert (out_dir / "D020" / "params.json").exists()
        assert not (out_dir / "FAILED").exists()

    def test_gradient_descent_searches_the_lambda_grid(self, capsys, tmp_path):
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "600",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        out = tmp_path / "out"
        run_pipeline(PipelineConfig.from_json_dict({
            "corpus": str(corpus), "pairs": str(pairs), "out_dir": str(out),
            "basis_sizes": [20],
            "thresholds": {"min_target_freq": 10, "drop_top": 0,
                           "min_pair_count": 1, "min_args": 5},
            "regression": {"method": "gradient_descent", "learning_rate": 0.0005,
                           "max_epochs": 50}}))
        log = json.loads((out / "D020" / "matrices" / "training_log.json").read_text())
        ensemble = read_ensemble(out / "D020" / "matrices")
        selection = DatasetSelection.from_json_dict(
            json.loads((out / "selection.json").read_text()))
        nouns = read_vectors_dir(out / "vectors" / "nouns")
        compounds = read_vectors_dir(out / "vectors" / "compounds")
        assert sorted(log["words"]) == sorted(ensemble.labels()) != []
        for entry, matrix in zip(selection.entries, ensemble.members):
            used = [n for n, _ in entry.args
                    if n in nouns and f"{entry.word} {n}" in compounds]
            ts = TrainingSet(entry.word,
                             np.vstack([nouns[n].values[:20] for n in used]),
                             np.vstack([compounds[f"{entry.word} {n}"].values[:20]
                                        for n in used]))
            record = log["words"][entry.word]
            assert record["method"] == "gradient_descent"
            assert record["epochs"] >= 1
            assert record["lambda"] in DEFAULT_LAMBDA_GRID
            assert record["final_loss"] == loss(matrix, ts, record["lambda"])

    def test_rerun_with_fewer_dims_removes_stale_trees(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "600",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        cfg = {"corpus": str(corpus), "pairs": str(pairs), "basis_sizes": [20, 40],
               "thresholds": {"min_target_freq": 10, "drop_top": 0,
                              "min_pair_count": 1, "min_args": 5},
               "out_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        for sizes in ([20, 40], [20]):
            cfg["basis_sizes"] = sizes
            cfg_path.write_text(json.dumps(cfg))
            code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
            assert code == 0, err
        out_dir = tmp_path / "out"
        assert sorted(p.name for p in out_dir.iterdir() if p.name.startswith("D")) == ["D020"]

    def test_rerun_over_text_layout_gives_a_fresh_tree(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "600",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        cfg = {"corpus": str(corpus), "pairs": str(pairs), "basis_sizes": [20, 40],
               "thresholds": {"min_target_freq": 10, "drop_top": 0,
                              "min_pair_count": 1, "min_args": 5}}

        def run(out_dir):
            cfg["out_dir"] = str(out_dir)
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            code, _, err = run_cli(capsys, "pipeline", "--config", str(tmp_path / "cfg.json"))
            assert code == 0, err

        run(tmp_path / "fresh")
        run(tmp_path / "reused")
        _to_text_layout(tmp_path / "reused")
        assert (tmp_path / "reused" / "vectors" / "nouns" / "manifest.txt").exists()
        run(tmp_path / "reused")
        assert _tree(tmp_path / "reused") == _tree(tmp_path / "fresh")

    def test_failure_leaves_marker(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        corpus.write_text("a|N b|N c|N d|N e|N\n" * 30)
        pairs.write_text("zz\tqq\t5\n")  # words absent from the corpus
        cfg = {
            "corpus": str(corpus), "pairs": str(pairs), "basis_sizes": [4],
            "thresholds": {"min_target_freq": 0, "drop_top": 0,
                           "min_pair_count": 0, "min_args": 0},
            "out_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "PipelineError"
        assert "stage" in payload
        marker = (tmp_path / "out" / "FAILED").read_text()
        assert "stage:" in marker


class TestCatalogPasses:
    def test_desk_run_evaluates_each_catalog_once(self, monkeypatch, tmp_path):
        """The report reads the averages of the observables stage, so each
        ensemble's catalog is evaluated once, in blocks of block_size(D)."""
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(2, corpus, pairs)
        config = PipelineConfig.from_json_dict({
            "corpus": str(corpus), "pairs": str(pairs), "out_dir": str(tmp_path / "out"),
            "basis_sizes": [60, 80, 100], "window": 5,
            "thresholds": {"min_target_freq": 100, "drop_top": 0,
                           "min_pair_count": 5, "min_args": 10},
            "regression": {"lambda": 0.001, "method": "closed_form"}})
        calls = []
        real = _kernels.catalog_values

        def counted(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(_kernels, "catalog_values", counted)
        n = run_pipeline(config)["selection_size"]
        assert len(calls) == sum(math.ceil(n / _kernels.block_size(d))
                                 for d in (60, 80, 100)) == 25
        assert sum(calls) == 3 * n


class TestConfigFile:
    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipeline_config_through_a_pipe(self, capsys, tmp_path):
        corpus = tmp_path / "corpus.txt"
        pairs = tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "600",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        cfg = {"corpus": str(corpus), "pairs": str(pairs), "basis_sizes": [20],
               "thresholds": {"min_target_freq": 10, "drop_top": 0,
                              "min_pair_count": 1, "min_args": 5},
               "out_dir": str(tmp_path / "out")}
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, json.dumps(cfg).encode())
            os.close(write_end)
            code, out, err = run_cli(capsys, "pipeline", "--config", f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        assert code == 0, err
        assert json.loads(out)["dims"] == [20]

    @pytest.mark.parametrize("change, key", [
        ({"window": 2.7}, "window"),
        ({"basis_sizes": [60.5]}, "basis_sizes"),
        ({"basis_size": 60.0}, "basis_sizes"),
        ({"seed": 1.9}, "seed"),
        ({"threads": True}, "threads"),
        ({"thresholds": {"drop_top": 2.7}}, "drop_top"),
        ({"thresholds": {"min_freq": 3}}, "min_freq"),
        ({"thresholds": [1]}, "thresholds"),
        ({"regression": {"max_epochs": 50.5}}, "max_epochs"),
        ({"regression": {"learning_rate": "fast"}}, "learning_rate"),
        ({"regression": [0.1]}, "regression"),
    ])
    def test_malformed_pipeline_value_names_its_key(self, change, key):
        with pytest.raises(ValueError, match=key):
            PipelineConfig.from_json_dict({"corpus": "c.txt", "pairs": "p.tsv", **change})

    def test_config_defaults_and_hash_are_unchanged(self):
        """Keys left out take the dataclass defaults; integral numbers are
        kept as they were, floats as floats, so the hash stays the same."""
        bare = PipelineConfig.from_json_dict({"corpus": "c.txt", "pairs": "p.tsv"})
        assert bare == PipelineConfig("c.txt", "p.tsv")
        assert bare.out_dir == "out" and bare.basis_sizes == (60, 80, 100)
        assert bare.config_hash() == "d5e43df89022487c"
        full = PipelineConfig.from_json_dict({
            "corpus": "c.txt", "pairs": "p.tsv", "basis_size": 20, "window": 2,
            "seed": 3, "thresholds": {"drop_top": 0},
            "regression": {"lambda": 1, "learning_rate": 1, "convergence_tol": 1,
                           "max_epochs": 7, "method": "gradient_descent"}})
        assert full.regression == RegressionConfig(1.0, 1.0, 7, 1.0, seed=3)
        assert full.config_hash() == "b336fcb0ba3e3f2f"

    def test_stage_subcommand_rejects_unknown_keys(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2, "dimm": 3, "out_dir": "x"}))
        code, out, err = run_cli(capsys, "count-invariants", "--config", str(cfg))
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert "dimm, out_dir" in payload["message"]

    def test_dashed_keys_match_flags(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"corpus": "c.txt", "basis-size": 4, "out": "o"}))
        code, _, err = run_cli(capsys, "build-vectors", "--config", str(cfg))
        assert code == 2
        assert "--pairs" in json.loads(err)["message"]
