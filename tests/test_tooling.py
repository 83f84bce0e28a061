"""The test configuration and source rules: a failing property must fail
like any test, a fresh lingmat process must run BLAS with one thread
unless its caller set a count, the benchmark's traced names must exist
and a traced run must count its layers, every file lingmat writes goes
through one writer, no JSON reader coerces and no JSON writer writes NaN
or Infinity."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lingmat
from lingmat import THREAD_VARS, _workers

REPO = Path(__file__).resolve().parents[1]


def test_failing_property_is_an_ordinary_failure(tmp_path):
    """Reporting a falsified ``@given`` test imports modules that raise
    deprecation warnings; under the repository's warnings-as-errors
    setting this must still end in one failed test (exit 1), not in an
    internal error (exit 3) that stops the rest of the suite."""
    (tmp_path / "test_prop.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 0\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-q",
         "-c", str(REPO / "pyproject.toml"), str(tmp_path / "test_prop.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed" in proc.stdout


CHILD = """
import json, os, sys
import lingmat
from lingmat import _workers, corpus
print(json.dumps({"env": {var: os.environ[var] for var in lingmat.THREAD_VARS},
                  "threads": len(os.listdir("/proc/self/task")),
                  "can_fork": _workers._can_fork(),
                  "parts": len(corpus._cuts(sys.argv[1])) - 1}))
"""


@pytest.mark.skipif(_workers._usable_cpus() < 2, reason="one usable CPU: every read is one part")
@pytest.mark.parametrize("caller", [{}, {"OPENBLAS_NUM_THREADS": "2"}])
def test_a_fresh_process_splits_unless_its_caller_sets_blas_threads(tmp_path, caller):
    """A fresh interpreter whose caller set no thread variable runs one
    thread after ``import lingmat`` and cuts a 2 MiB file into 2 parts.  One
    whose caller set ``OPENBLAS_NUM_THREADS=2`` keeps that value, runs
    OpenBLAS's threads and reads the file in one part."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if caller and "openblas" not in blas:
        pytest.skip(f"numpy's BLAS is {blas}, not OpenBLAS")
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"big|J cat|N\n" * ((2 << 20) // 12 + 1))
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(caller, PYTHONPATH=os.path.dirname(os.path.dirname(lingmat.__file__)))
    proc = subprocess.run([sys.executable, "-c", CHILD, str(path)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got.pop("env") == {**dict.fromkeys(THREAD_VARS, "1"), **caller}
    if caller:
        assert got["threads"] > 1 and not got["can_fork"] and got["parts"] == 1
    else:
        assert got == {"threads": 1, "can_fork": True, "parts": 2}


def _tracing():
    """The benchmark's ``lmbench/tracing.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location("lmbench_tracing",
                                                  REPO / "lmbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    """Each (module, function) pair that ``lmbench/tracing.py`` wraps exists
    in lingmat, so renaming or deleting a traced function fails here, not
    only in a traced benchmark run."""
    tracing = _tracing()
    missing = [f"lingmat.{module}.{attr}" for module, attr, _ in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"lingmat.{module}"), attr,
                                       None))]
    assert tracing.TRACED and not missing


def test_a_traced_run_counts_its_layers(tmp_path):
    """A small pipeline run and Monte Carlo check under the benchmark's
    tracer run to the end and count work in the corpus, kernel and
    regression layers, so a signature change that breaks a traced call or
    its counter fails here, not only in a traced benchmark run.  The run
    builds its vocabulary once and classifies its heads in at most two
    calls, one per stage that needs their classes."""
    from lingmat.synth import SynthConfig, write_synth_corpus

    corpus, pairs = tmp_path / "corpus.txt", tmp_path / "pairs.tsv"
    write_synth_corpus(404, corpus, pairs, SynthConfig(n_sentences=750))
    config = lingmat.PipelineConfig.from_json_dict({
        "corpus": str(corpus), "pairs": str(pairs), "out_dir": str(tmp_path / "out"),
        "basis_sizes": [20], "thresholds": {"min_target_freq": 10, "drop_top": 0,
                                            "min_pair_count": 1, "min_args": 5}})
    params = lingmat.GaussParams(dim=10, lam=1.6, a=0.8, b=2.4, j0=0.7, js=-0.4)
    tracer = _tracing().Tracer("smoke")
    with tracer.installed(0):
        lingmat.run_pipeline(config)
        lingmat.monte_carlo_check(lingmat.SampleSpec(params=params, count=20, seed=1))
    (metrics,) = tracer.layer_metrics().values()
    for name in ("corpus.cooc_s", "corpus.compound_calls", "kernels.window_pairs",
                 "regression.solves"):
        assert metrics[name] > 0, name
    assert metrics["corpus.vocab_calls"] == 1
    assert metrics["corpus.pos_calls"] <= 2



def test_traced_window_pairs_count_every_span(tmp_path):
    """Under the benchmark's tracer, ``kernels.window_pairs`` of one
    `count_cooccurrence` call is every pair it adds: the target pairs in
    ``table.counts`` and the context pairs of every compound."""
    from lingmat.corpus import BasisSpec, count_cooccurrence, read_corpus
    from lingmat.synth import SynthConfig, write_synth_corpus

    path = tmp_path / "corpus.txt"
    write_synth_corpus(404, path, tmp_path / "pairs.tsv", SynthConfig(n_sentences=200))
    corpus = read_corpus(path)
    basis = BasisSpec(tuple(f"c{i:03d}" for i in range(40)))
    nouns = [f"n{i:02d}" for i in range(14)]
    tracer = _tracing().Tracer("pairs")
    with tracer.installed(0):
        table = count_cooccurrence(corpus, nouns, basis, 5,
                                   {"adj00": (nouns, "adjective"), "adj01": (nouns, "verb")})
    (metrics,) = tracer.layer_metrics().values()
    target_pairs = sum(n for row in table.counts.values() for n in row.values())
    compound_pairs = sum(int(joint.sum()) for *_, joint in table.compounds.values())
    assert target_pairs and compound_pairs
    assert metrics["kernels.window_pairs"] == target_pairs + compound_pairs

#: Calls that write a file without `matrix_core.atomic_open`.
_DIRECT_WRITERS = {"save", "savez", "savez_compressed", "savetxt", "tofile",
                   "write_text", "write_bytes"}


def _open_mode(call):
    """The mode node of an ``open(...)`` call, or None for the default "r"."""
    if len(call.args) > 1:
        return call.args[1]
    return next((k.value for k in call.keywords if k.arg == "mode"), None)


def test_atomic_open_is_the_only_writer():
    """No ``open`` call in ``src/lingmat`` outside `atomic_open` has a mode
    with w, a or x (or a mode the scan cannot read), and nothing calls
    ``np.save``, ``Path.write_text`` or ``Path.write_bytes``, so a crash in
    a write never leaves part of a file."""
    offences, inside = [], 0
    for path in sorted((REPO / "src" / "lingmat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        allowed = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and fn.name == "atomic_open"
                   for node in ast.walk(fn)}
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            where = f"{path.name}:{call.lineno}"
            if name == "open":
                mode = _open_mode(call)
                writes = not (mode is None or (isinstance(mode, ast.Constant)
                                               and not set("wax") & set(mode.value)))
                if writes and id(call) in allowed:
                    inside += 1
                elif writes:
                    offences.append(f"{where}: open for writing")
            elif isinstance(func, ast.Attribute) and name in _DIRECT_WRITERS:
                offences.append(f"{where}: {name}")
    assert offences == []
    assert inside == 1  # the scan sees atomic_open's own open


def test_json_readers_do_not_coerce():
    """No ``from_json_dict`` method in ``src/lingmat`` calls the builtin
    ``int`` or ``float``, which would read ``2.5`` as 2, ``true`` as 1 and
    ``"3"`` as 3.0; values go through `check_int` and `check_real`."""
    offences, readers = [], 0
    for path in sorted((REPO / "src" / "lingmat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for fn in ast.walk(tree):
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "from_json_dict"):
                continue
            readers += 1
            offences += [f"{path.name}:{call.lineno}: {call.func.id}" for call in ast.walk(fn)
                         if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                         and call.func.id in ("int", "float")]
    assert offences == []
    assert readers >= 5  # the scan sees the readers it guards


def test_json_writers_refuse_non_finite_numbers():
    """Every ``json.dumps`` and ``json.dump`` call in ``src/lingmat`` passes
    ``allow_nan=False``, so a NaN or infinity fails the write instead of
    putting ``NaN`` or ``Infinity``, which are not JSON, in a file or on
    stdout."""
    offences, calls = [], 0
    for path in sorted((REPO / "src" / "lingmat").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for call in ast.walk(tree):
            func = getattr(call, "func", None)
            if not (isinstance(call, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr in ("dump", "dumps") and isinstance(func.value, ast.Name)
                    and func.value.id == "json"):
                continue
            calls += 1
            if not any(k.arg == "allow_nan" and isinstance(k.value, ast.Constant)
                       and k.value.value is False for k in call.keywords):
                offences.append(f"{path.name}:{call.lineno}")
    assert offences == []
    assert calls >= 10  # the scan sees the writers it guards
