import argparse
import json
import math
import os
import tempfile
import weakref

import numpy as np
import pytest

from lingmat import _kernels, cli, pipeline
from lingmat.gauss import GaussParams
from lingmat.invariants import eval_all
from lingmat.corpus import DatasetSelection, Thresholds, read_corpus, read_vectors_dir
from lingmat.matrix_core import read_ensemble, write_matrix, write_vector
from lingmat.pipeline import PipelineConfig, run_pipeline, stage_learn_matrices
from lingmat.regression import DEFAULT_LAMBDA_GRID, RegressionConfig, TrainingSet, loss
from lingmat.sampler import SampleSpec
from lingmat.synth import SynthConfig, write_synth_corpus


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
        labels, values = read_vectors_dir(vec_dir)
        names = [label.replace(" ", "_") + ".txt" for label in labels]
        for name, label, v in zip(names, labels, values):
            write_vector(label, v, vec_dir / name)
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

    def test_one_draw_is_refused(self, capsys, tmp_path):
        """One draw has no standard error: the check fails before it
        writes, where it wrote ``"z_score": Infinity``, which is not JSON."""
        params_path = tmp_path / "p.json"
        write_params(params_path, dim=8)
        out, csv = tmp_path / "z.json", tmp_path / "z.csv"
        code, stdout, err = run_cli(
            capsys, "mc-check", "--params", str(params_path), "--count", "1",
            "--seed", "7", "--out", str(out), "--csv", str(csv))
        assert code == 1 and stdout == ""
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "count 1" in payload["message"]
        assert not out.exists() and not csv.exists()


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

    @pytest.mark.parametrize("cfg", [
        {"corpus": "c", "pairs": "p", "thresholds": []},
        {"corpus": "c", "pairs": "p", "window": 2.5},
        {"corpus": "c"},
        ["corpus", "pairs"],
    ])
    def test_pipeline_config_error_names_the_file(self, capsys, tmp_path, cfg):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "pipeline", "--config", str(cfg_path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{cfg_path}: ")

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

    def test_invalid_utf8_corpus_names_its_line(self, capsys, tmp_path):
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        corpus.write_bytes(b"big cat\nsmall \xff dog\n")
        pairs.write_text("big\tcat\t1\n")
        for argv in (("build-vectors", "--basis-size", "2", "--out", str(tmp_path / "v")),
                     ("select-dataset", "--out", str(tmp_path / "s.json"))):
            code, _, err = run_cli(capsys, *argv, "--corpus", str(corpus),
                                   "--pairs", str(pairs))
            assert code == 1
            payload = json.loads(err)
            assert payload["error"] == "CorpusError"
            assert payload["message"].startswith(f"{corpus}:2: invalid UTF-8")

    @pytest.mark.parametrize("dim", [0, 8])
    def test_learn_matrices_rejects_dim_outside_the_vectors(self, tmp_path, dim):
        nouns = ([f"n{i}" for i in range(3)], np.arange(5.0) + np.arange(3.0)[:, None])
        compounds = ([f"big n{i}" for i in range(3)],
                     np.arange(5.0) * np.arange(3.0)[:, None])
        selection = DatasetSelection.from_json_dict({"targets": [
            {"word": "big", "pos_class": "adjective", "freq": 9,
             "args": [[f"n{i}", 3] for i in range(3)]}]})
        with pytest.raises(ValueError, match=f"dimension {dim} .* vector dimension 5"):
            stage_learn_matrices(selection, nouns, compounds, dim,
                                 RegressionConfig(ridge_lambda=0.1), "closed_form",
                                 tmp_path / "matrices", {})
        assert not (tmp_path / "matrices").exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv, flag", [
        (("gen-corpus", "--seed", "1", "--sentences", "1e3", "--out-corpus", "c",
          "--out-pairs", "p"), "--sentences"),
        (("build-vectors", "--corpus", "c", "--pairs", "p", "--basis-size", "x",
          "--out", "o"), "--basis-size"),
        (("select-dataset", "--corpus", "c", "--pairs", "p", "--drop-top", "2.7",
          "--out", "o"), "--drop-top"),
        (("learn-matrices", "--vectors", "v", "--selection", "s", "--lambda", "small",
          "--out", "o"), "--lambda"),
        (("learn-matrices", "--vectors", "v", "--selection", "s", "--threads", "two",
          "--out", "o"), "--threads"),
        (("observables", "--ensemble", "e", "--out", "o", "--hist", "0", "1", "ten"),
         "--hist"),
        (("count-invariants", "--k", "four"), "--k"),
        (("count-invariants", "--k", "2", "--dim", "3.5"), "--dim"),
        (("sample", "--params", "p.json", "--count", "2.5", "--seed", "1"), "--count"),
        (("mc-check", "--params", "p.json", "--count", "3", "--seed", "x"), "--seed"),
    ])
    def test_bad_flag_value_names_the_flag(self, capsys, tmp_path, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp_path)
        write_params(tmp_path / "p.json")
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError" and payload["message"].startswith(flag)

    @pytest.mark.parametrize("command, cfg, key", [
        ("select-dataset", {"corpus": "c", "pairs": "p", "out": "o", "drop_top": 2.7},
         "drop_top"),
        ("select-dataset", {"corpus": "c", "pairs": "p", "out": "o", "min-args": "5"},
         "min-args"),
        ("count-invariants", {"k": 4.0}, "k"),
        ("count-invariants", {"k": True}, "k"),
        ("gen-corpus", {"seed": 1, "sentences": 99.5, "out_corpus": "c", "out_pairs": "p"},
         "sentences"),
        ("learn-matrices", {"vectors": "v", "selection": "s", "out": "o",
                            "ridge_lambda": "0.1"}, "ridge_lambda"),
        ("learn-matrices", {"vectors": "v", "selection": "s", "out": "o", "threads": 2.0},
         "threads"),
        ("observables", {"ensemble": "e", "out": "o", "hist": [0, 1]}, "hist"),
        ("observables", {"ensemble": "e", "out": "o", "hist": [0, 1, 2.5]}, "hist"),
    ])
    def test_config_value_of_the_wrong_type_names_its_key(self, capsys, tmp_path,
                                                          command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"{path}: config key {key!r}" in payload["message"]

    @pytest.mark.parametrize("command, cfg, message", [
        ("count-invariants", {"k": None}, "'k' must be an integer"),
        ("learn-matrices", {"vectors": "v", "selection": "s", "out": "o", "seed": None},
         "'seed' must be an integer"),
        ("learn-matrices", {"vectors": "v", "selection": "s", "out": "o",
                            "ridge_lambda": None}, "'ridge_lambda' must be a finite number"),
        ("observables", {"ensemble": "e", "out": "o", "hist": None},
         "'hist' must be a list of 3 numbers"),
        ("sample", {"params": "p.json", "count": 2, "seed": 1, "out": None},
         "'out' must be a string"),
        ("report", {"params": "p.json", "ensemble": "e", "out": "o", "text": None},
         "'text' must be a bool"),
    ])
    def test_null_config_value_names_its_key(self, capsys, tmp_path, command, cfg, message):
        """A null is an error for every flag kind; it never reads as unset."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": f"{path}: config key {message}, got None"}

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_lambda_names_its_flag_or_key(self, capsys, tmp_path, value):
        code, out, err = run_cli(capsys, "learn-matrices", "--vectors", "v",
                                 "--selection", "s", f"--lambda={value}", "--out", "o")
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert payload["message"].startswith("--lambda: ")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"vectors": "v", "selection": "s", "out": "o",
                                    "ridge_lambda": float(value)}))
        code, _, err = run_cli(capsys, "learn-matrices", "--config", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert f"{path}: config key 'ridge_lambda' must be a finite number" in payload["message"]

    @pytest.mark.parametrize("command, cfg, key", [
        ("build-vectors", {"corpus": 12345, "pairs": "p", "basis_size": 4, "out": "o"},
         "corpus"),
        ("select-dataset", {"corpus": "c", "pairs": ["p.tsv"], "out": "o"}, "pairs"),
        ("learn-matrices", {"vectors": {"nouns": "n"}, "selection": "s", "out": "o"},
         "vectors"),
        ("learn-matrices", {"vectors": "v", "selection": 2.5, "out": "o"}, "selection"),
        ("observables", {"ensemble": ["e"], "out": "o"}, "ensemble"),
        ("fit", {"averages": "a.json", "out": 3.0}, "out"),
        ("report", {"params": "p.json", "ensemble": "e", "out": ["r.json"]}, "out"),
        ("predict", {"params": 12345}, "params"),
        ("sample", {"params": "p.json", "count": 2, "seed": 1, "out": {"d": 0}}, "out"),
        ("gen-corpus", {"seed": 1, "out_corpus": ["c"], "out_pairs": "p"}, "out_corpus"),
        ("mc-check", {"params": "p.json", "count": 2, "seed": 1, "csv": 1.0}, "csv"),
    ])
    def test_config_path_that_is_not_a_string_names_its_key(self, capsys, tmp_path,
                                                            command, cfg, key):
        """The integer values are no open file descriptor, so that code
        which opens them fails without closing one."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{path}: config key {key!r} must be a string")

    def test_values_are_hashed_as_given(self, capsys, tmp_path, monkeypatch):
        """Converting a value leaves the provenance hash of the flags and
        config values as they were given."""
        monkeypatch.chdir(tmp_path)
        write_params(tmp_path / "p.json")
        (tmp_path / "cfg.json").write_text(json.dumps({"dim": 4, "count": 2, "seed": 1}))
        run_cli(capsys, "sample", "--params", "p.json", "--dim", "4", "--count", "2",
                "--seed", "1", "--out", "flags")
        run_cli(capsys, "sample", "--config", "cfg.json", "--params", "p.json",
                "--out", "config")
        hashes = [json.loads((tmp_path / out / "provenance.json").read_text())
                  ["provenance"]["config_hash"] for out in ("flags", "config")]
        assert hashes == ["7ddc0438e3331b17", "f76feb9a6efd74d3"]

    @pytest.mark.parametrize("argv, text", [
        (("sample", "--bogus", "1"), "--bogus"),
        (("sample", "--count"), "--count"),
        (("bogus",), "bogus"),
        ((), "command"),
    ])
    def test_parser_error_prints_the_json_error(self, capsys, argv, text):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError" and text in payload["message"]

    @pytest.mark.parametrize("argv, start", [
        (("--help",), "usage: lingmat"),
        (("sample", "--help"), "usage: lingmat sample"),
        (("--version",), "lingmat "),
    ])
    def test_help_and_version_print_text(self, capsys, argv, start):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(start) and captured.err == ""


class TestStageSubcommands:
    def test_select_dataset_spills_nothing(self, capsys, tmp_path, monkeypatch):
        """select-dataset reads the corpus counts only: it opens no spill,
        and it writes the selection.json of a read that spills."""
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(2, corpus, pairs)
        out = tmp_path / "selection.json"
        argv = ("select-dataset", "--corpus", str(corpus), "--pairs", str(pairs),
                "--min-target-freq", "100", "--drop-top", "0", "--min-pair-count", "5",
                "--min-args", "10", "--out", str(out))
        real, spills = tempfile.TemporaryFile, []

        def temporary_file(*args, **kwargs):
            spills.append(real(*args, **kwargs))
            return spills[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert spills == []
        counted = out.read_bytes()
        monkeypatch.setattr(cli, "read_corpus", lambda path, spill: read_corpus(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert len(spills) == 1
        assert out.read_bytes() == counted

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


    def test_stage_path_writes_the_pipeline_bytes(self, capsys, tmp_path):
        """build-vectors, select-dataset and learn-matrices, run one by one
        on the README desk config, write the vector and ensemble stacks of
        `run_pipeline` byte for byte."""
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(2, corpus, pairs)
        thresholds = {"min_target_freq": 100, "drop_top": 0,
                      "min_pair_count": 5, "min_args": 10}
        out, stage = tmp_path / "out", tmp_path / "stage"
        run_pipeline(PipelineConfig.from_json_dict({
            "corpus": str(corpus), "pairs": str(pairs), "out_dir": str(out),
            "basis_sizes": [60, 80, 100], "window": 5, "thresholds": thresholds,
            "regression": {"lambda": 0.001, "method": "closed_form"}}))
        inputs = ("--corpus", str(corpus), "--pairs", str(pairs))
        flags = [x for key, n in thresholds.items() for x in ("--" + key.replace("_", "-"), str(n))]
        for argv in (
                ("build-vectors", *inputs, "--basis-size", "100", "--out", str(stage / "vectors")),
                ("select-dataset", *inputs, *flags, "--out", str(stage / "selection.json")),
                *(("learn-matrices", "--vectors", str(stage / "vectors"),
                   "--selection", str(stage / "selection.json"), "--lambda", "0.001",
                   "--dim", str(d), "--out", str(stage / f"D{d:03d}" / "matrices"))
                  for d in (60, 80, 100))):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        stacks = [f"vectors/{kind}/{name}" for kind in ("nouns", "compounds")
                  for name in ("vectors.npy", "labels.json")]
        stacks += [f"D{d:03d}/matrices/{name}" for d in (60, 80, 100)
                   for name in ("members.npy", "labels.json")]
        for path in stacks:
            assert (stage / path).read_bytes() == (out / path).read_bytes(), path


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
        nouns = dict(zip(*read_vectors_dir(out / "vectors" / "nouns")))
        compounds = dict(zip(*read_vectors_dir(out / "vectors" / "compounds")))
        assert sorted(log["words"]) == sorted(ensemble.labels()) != []
        for entry, matrix in zip(selection.entries, ensemble.members):
            used = [n for n, _ in entry.args
                    if n in nouns and f"{entry.word} {n}" in compounds]
            ts = TrainingSet(entry.word,
                             np.vstack([nouns[n][:20] for n in used]),
                             np.vstack([compounds[f"{entry.word} {n}"][:20]
                                        for n in used]))
            record = log["words"][entry.word]
            assert record["method"] == "gradient_descent"
            assert record["epochs"] >= 1
            assert record["lambda"] in DEFAULT_LAMBDA_GRID
            assert record["final_loss"] == loss(matrix, ts, record["lambda"])

    def test_python_and_json_configs_share_one_seed(self, capsys, tmp_path):
        """``seed`` also seeds the holdout split of the lambda search, in a
        config built in Python as in one read from JSON."""
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        run_cli(capsys, "gen-corpus", "--seed", "6", "--sentences", "600",
                "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        thresholds = {"min_target_freq": 10, "drop_top": 0, "min_pair_count": 1, "min_args": 5}
        from_json = PipelineConfig.from_json_dict({
            "corpus": str(corpus), "pairs": str(pairs), "out_dir": str(tmp_path / "json"),
            "basis_sizes": [20], "thresholds": thresholds, "seed": 7})
        from_python = PipelineConfig(str(corpus), str(pairs), str(tmp_path / "python"),
                                     basis_sizes=(20,), thresholds=Thresholds(**thresholds),
                                     seed=7)
        assert from_python.regression == from_json.regression == RegressionConfig(seed=7)
        for config in (from_json, from_python):
            run_pipeline(config)
        assert _tree(tmp_path / "python") == _tree(tmp_path / "json")

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_every_seed_is_a_64_bit_unsigned_integer(self, capsys, tmp_path, seed):
        message = "seed must be a 64-bit unsigned integer"
        params = write_params(tmp_path / "p.json")
        for make in (lambda: RegressionConfig(seed=seed),
                     lambda: PipelineConfig("c.txt", "p.tsv", seed=seed),
                     lambda: SampleSpec(params, 1, seed)):
            with pytest.raises(ValueError, match=f"^{message}$"):
                make()
        code, _, err = run_cli(capsys, "learn-matrices", "--vectors", "v", "--selection", "s",
                               "--out", "o", "--seed", str(seed))
        assert code == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}

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

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64), str(2 ** 65)])
    def test_gen_corpus_seed_is_a_64_bit_unsigned_integer(self, capsys, tmp_path, seed):
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        code, _, err = run_cli(capsys, "gen-corpus", "--seed", seed, "--sentences", "10",
                               "--out-corpus", str(corpus), "--out-pairs", str(pairs))
        assert code == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "seed must be a 64-bit unsigned integer"}
        assert not corpus.exists() and not pairs.exists()

    def test_build_vectors_basis_size_below_one_is_an_error(self, capsys, tmp_path):
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(2, corpus, pairs, SynthConfig(n_sentences=200))
        code, _, err = run_cli(capsys, "build-vectors", "--corpus", str(corpus),
                               "--pairs", str(pairs), "--basis-size", "-3",
                               "--out", str(tmp_path / "vectors"))
        assert code == 1
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "basis size must be >= 1, got -3"}
        assert not (tmp_path / "vectors").exists()

    def test_failed_rerun_leaves_no_stale_summary(self, capsys, tmp_path):
        """A rerun removes the summary files of the earlier run before its
        first stage, so a failure leaves none of them beside FAILED."""
        corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(6, corpus, pairs, SynthConfig(n_sentences=600))
        out = tmp_path / "out"
        cfg = {"corpus": str(corpus), "pairs": str(pairs), "basis_sizes": [20],
               "out_dir": str(out), "thresholds": {"min_target_freq": 10, "drop_top": 0,
                                                   "min_pair_count": 1, "min_args": 5}}
        for min_args, want in ((5, 0), (1000, 1)):
            cfg["thresholds"]["min_args"] = min_args
            (tmp_path / "cfg.json").write_text(json.dumps(cfg))
            code, _, err = run_cli(capsys, "pipeline", "--config", str(tmp_path / "cfg.json"))
            assert code == want, err
        assert (out / "FAILED").read_text().startswith("stage: learn-matrices\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "D020", "FAILED", "selection.json", "vectors"]
        assert json.loads((out / "selection.json").read_text())["targets"] == []

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

    def test_corpus_is_dropped_before_learn_matrices(self, monkeypatch, tmp_path):
        """Nothing after select-dataset reads the corpus arrays, so the run
        holds no reference to them through the per-dimension stages."""
        corpus_path, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
        write_synth_corpus(6, corpus_path, pairs, SynthConfig(n_sentences=600))
        refs, alive = [], []

        def read(path):
            corpus = read_corpus(path)
            refs.append(weakref.ref(corpus))
            return corpus

        def learn(*args, **kwargs):
            alive.append(refs[0]() is not None)
            return stage_learn_matrices(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_corpus", read)
        monkeypatch.setattr(pipeline, "stage_learn_matrices", learn)
        run_pipeline(PipelineConfig.from_json_dict({
            "corpus": str(corpus_path), "pairs": str(pairs), "out_dir": str(tmp_path / "out"),
            "basis_sizes": [20], "thresholds": {"min_target_freq": 10, "drop_top": 0,
                                                "min_pair_count": 1, "min_args": 5}}))
        assert alive == [False]


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
                                 for d in (60, 80, 100)) == 18
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
        ({"basis_size": 60.0}, "basis_size"),
        ({"seed": 1.9}, "seed"),
        ({"threads": True}, "threads"),
        ({"thresholds": {"drop_top": 2.7}}, "drop_top"),
        ({"thresholds": {"min_freq": 3}}, "min_freq"),
        ({"thresholds": [1]}, "thresholds"),
        ({"regression": {"max_epochs": 50.5}}, "max_epochs"),
        ({"regression": {"learning_rate": "fast"}}, "learning_rate"),
        ({"regression": [0.1]}, "regression"),
        ({"basis_size": 20, "basis_sizes": [60]}, "basis_size"),
    ])
    def test_malformed_pipeline_value_names_its_key(self, change, key):
        with pytest.raises(ValueError, match=key):
            PipelineConfig.from_json_dict({"corpus": "c.txt", "pairs": "p.tsv", **change})

    @pytest.mark.parametrize("change, key", [
        ({"corpus": 0, "pairs": 1}, "corpus"),
        ({"pairs": ["p.tsv"]}, "pairs"),
        ({"out_dir": 3}, "out_dir"),
    ])
    def test_non_string_path_names_its_key(self, change, key):
        """A path must be a string: ``os.path.exists(0)`` would test file
        descriptor 0."""
        with pytest.raises(ValueError, match=f"^{key} must be a path string"):
            PipelineConfig.from_json_dict({"corpus": "c.txt", "pairs": "p.tsv", **change})

    def test_config_defaults_and_hash_are_unchanged(self):
        """Keys left out take the dataclass defaults; integral numbers are
        kept as they were, floats as floats, so the hash stays the same."""
        bare = PipelineConfig.from_json_dict({"corpus": "c.txt", "pairs": "p.tsv"})
        assert bare == PipelineConfig("c.txt", "p.tsv")
        assert bare.out_dir == "out" and bare.basis_sizes == (60, 80, 100)
        assert bare.config_hash() == "d5e43df89022487c"
        full = PipelineConfig.from_json_dict({
            "corpus": "c.txt", "pairs": "p.tsv", "basis_sizes": [20], "window": 2,
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

    @pytest.mark.parametrize("text", [True, False])
    def test_report_config_text_is_honoured(self, capsys, tmp_path, text):
        params = tmp_path / "p.json"
        write_params(params, dim=4)
        run_cli(capsys, "sample", "--params", str(params), "--count", "20",
                "--seed", "3", "--out", str(tmp_path / "e"))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"text": text, "params": str(params),
                                   "ensemble": str(tmp_path / "e"),
                                   "out": str(tmp_path / "report.json")}))
        code, out, err = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 0, err
        assert ("invariant" in out) == text

    @pytest.mark.parametrize("value", ["yes", 1, None, [True]])
    def test_report_config_text_must_be_a_bool(self, capsys, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"text": value}))
        code, _, err = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{cfg}: config key 'text' must be a bool")


#: Each subcommand's flags after ``-h``, ``--help`` and ``--config``, and
#: the flags it requires, in the order a missing-flag error names them.
SURFACE = {
    "gen-corpus": (["--seed", "--out-corpus", "--out-pairs", "--sentences"],
                   ["--seed", "--out-corpus", "--out-pairs"]),
    "build-vectors": (["--corpus", "--pairs", "--basis-size", "--window", "--out"],
                      ["--corpus", "--pairs", "--basis-size", "--out"]),
    "select-dataset": (["--corpus", "--pairs", "--out", "--min-target-freq", "--drop-top",
                        "--min-pair-count", "--min-args"],
                       ["--corpus", "--pairs", "--out"]),
    "learn-matrices": (["--pairs", "--vectors", "--selection", "--out", "--dim", "--method",
                        "--threads", "--seed", "--lambda"],
                       ["--vectors", "--selection", "--out"]),
    "observables": (["--ensemble", "--out", "--hist-out", "--hist"], ["--ensemble", "--out"]),
    "fit": (["--averages", "--out"], ["--averages", "--out"]),
    "predict": (["--params", "--tags", "--out"], ["--params"]),
    "report": (["--params", "--ensemble", "--out", "--text"], ["--params", "--ensemble", "--out"]),
    "sample": (["--params", "--count", "--seed", "--dim", "--out"],
               ["--params", "--count", "--seed"]),
    "mc-check": (["--params", "--count", "--seed", "--dim", "--tags", "--out", "--csv"],
                 ["--params", "--count", "--seed"]),
    "count-invariants": (["--k", "--dim"], ["--k"]),
    "pipeline": (["--out", "--threads"], ["--config"]),
}


@pytest.mark.parametrize("command", SURFACE)
def test_subcommand_flags_and_required_flags_are_pinned(capsys, command):
    flags, required = SURFACE[command]
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(SURFACE)
    options = [s for action in sub.choices[command]._actions for s in action.option_strings]
    assert options == ["-h", "--help", "--config", *flags]
    code, out, err = run_cli(capsys, command)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "UsageError",
                               "message": f"missing required option(s): {', '.join(required)}"}
