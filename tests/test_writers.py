"""Crash safety of every file writer: each goes through
`matrix_core.atomic_open`, so a write that fails part way leaves the
previous complete file or no file, never part of one and never a
``.tmp`` sibling."""

import builtins
import errno
import json
import os
import re
import stat
import tempfile

import numpy as np
import pytest

from lingmat import cli, matrix_core
from lingmat.corpus import write_pairs
from lingmat.matrix_core import (Ensemble, WordMatrix, atomic_open, read_ensemble,
                                 write_ensemble, write_matrix, write_vector)
from lingmat.pipeline import PipelineConfig, PipelineError, run_pipeline, write_json, write_text
from lingmat.synth import SynthConfig, write_synth_corpus

PROV = {"tool": "lingmat", "version": "0", "config_hash": "0" * 16, "seed": 0}


class Faults:
    """Stands in for ``open`` in `matrix_core`: handles opened for writing
    count the bytes written through them, and the first write that would
    pass ``budget`` bytes in total writes only up to it, then raises.
    After that one fault every handle is the real one, so a FAILED marker
    can still be written."""

    def __init__(self, budget=float("inf")):
        self.budget = budget
        self.written = 0
        self.fired = False

    def open(self, file, mode="r", **kwargs):
        fh = builtins.open(file, mode, **kwargs)
        return fh if "w" not in mode or self.fired else _FaultyFile(fh, self)


class _FaultyFile:
    def __init__(self, fh, faults):
        self._fh, self._faults = fh, faults

    def write(self, data):
        f = self._faults
        view = data if isinstance(data, str) else memoryview(data).cast("B")
        if not f.fired and f.written + len(view) > f.budget:
            f.fired = True
            self._fh.write(view[:f.budget - f.written])
            raise OSError("injected write fault")
        f.written += len(view)
        return self._fh.write(data)

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def inject(monkeypatch, fault, total):
    """Install ``fault``: a write fault after k of ``total`` bytes for
    k in {0, 1, half, all but one}, or an ``os.fsync`` that raises once."""
    if fault == "fsync":
        real, calls = os.fsync, []

        def fsync(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError("injected fsync fault")
            real(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        return
    budget = {"0": 0, "1": 1, "half": total // 2, "all but one": total - 1}[fault]
    monkeypatch.setattr(matrix_core, "open", Faults(budget).open, raising=False)


FAULTS = ["0", "1", "half", "all but one", "fsync"]


def counted_bytes(monkeypatch, write):
    """The bytes ``write()`` passes through its file handles."""
    faults = Faults()
    with monkeypatch.context() as mp:
        mp.setattr(matrix_core, "open", faults.open, raising=False)
        write()
    return faults.written


def files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def _stack(d, version):
    labels = ["a", "b", "c"] if version else ["x", "y"]
    write_ensemble(Ensemble(labels, np.full((len(labels), 3, 3), version + 0.5)), d)


#: name -> (the first file the writer writes, write(dir, version)); each
#: version writes different bytes.
WRITERS = {
    "write_json": ("a.json", lambda d, v: write_json({"v": v, "pad": "x" * 40},
                                                     d / "a.json", PROV)),
    "write_text": ("a.txt", lambda d, v: write_text(d / "a.txt", f"version {v}\n" * 9, PROV)),
    "write_pairs": ("pairs.tsv", lambda d, v: write_pairs(
        {"big": {"cat": v + 1, "dog": 3}, "red": {"car": 2}}, d / "pairs.tsv")),
    "write_synth_corpus": ("corpus.txt", lambda d, v: write_synth_corpus(
        v, d / "corpus.txt", d / "pairs.tsv", SynthConfig(n_sentences=40))),
    "write_matrix": ("m.txt", lambda d, v: write_matrix(WordMatrix("w", np.full((3, 3), v + 0.5)),
                                                        d / "m.txt")),
    "write_vector": ("v.txt", lambda d, v: write_vector("w", np.arange(4.0) + v, d / "v.txt")),
    "write_stack": ("members.npy", _stack),
}


@pytest.mark.parametrize("previous", [True, False], ids=["over-previous", "fresh"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_previous_or_no_file(tmp_path, monkeypatch, writer, fault,
                                                 previous):
    _, write = WRITERS[writer]
    old_dir, new_dir, work = tmp_path / "old", tmp_path / "new", tmp_path / "work"
    for d in (old_dir, new_dir, work):
        d.mkdir()
    write(old_dir, 0)
    total = counted_bytes(monkeypatch, lambda: write(new_dir, 1))
    old, new = files(old_dir), files(new_dir)
    assert old.keys() == new.keys() and all(old[k] != new[k] for k in old)
    if previous:
        write(work, 0)
    inject(monkeypatch, fault, total)
    with pytest.raises(OSError, match="injected"):
        write(work, 1)
    monkeypatch.undo()
    after = files(work)
    assert not [name for name in after if name.endswith(".tmp")]
    assert after.keys() <= new.keys() and after != new
    for name, data in after.items():
        # a writer of two files may have put the first in place
        assert data == new[name] or (previous and data == old[name]), name
    if previous:  # no file is removed, the old label manifest included
        assert after.keys() == old.keys()
    if writer == "write_stack":  # every write and fsync precedes the removal
        assert after == (old if previous else {})
        if previous:
            back = read_ensemble(work)
            assert back.labels() == ["x", "y"] and (back.values == 0.5).all()


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_fifo_out_path_is_refused_and_kept(tmp_path, writer):
    first, write = WRITERS[writer]
    fifo = tmp_path / first
    os.mkfifo(fifo)
    with pytest.raises(ValueError, match=re.escape(str(fifo))):
        write(tmp_path, 1)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == [first]


def test_cli_refuses_a_fifo_out_path(capsys, tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"dim": 4, "lambda": 1.5, "a": 1.0, "b": 2.0,
                                  "j0": 0.4, "js": 0.2}))
    fifo = tmp_path / "predicted.json"
    os.mkfifo(fifo)
    assert cli.main(["predict", "--params", str(params), "--out", str(fifo)]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "ValueError" and str(fifo) in payload["message"]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_write_json_refuses_non_finite_numbers(tmp_path, value):
    """``Infinity`` and ``NaN`` are not JSON: the write fails and leaves no
    file."""
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json({"z_score": value}, tmp_path / "a.json", PROV)
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_symlinked_out_path_is_written_through(tmp_path, writer):
    first, write = WRITERS[writer]
    target, links = tmp_path / "target", tmp_path / "links"
    target.mkdir()
    links.mkdir()
    write(target, 0)
    for name in os.listdir(target):
        os.symlink(target / name, links / name)
    write(links, 1)
    new = tmp_path / "new"
    new.mkdir()
    write(new, 1)
    assert all((links / name).is_symlink() for name in os.listdir(links))
    assert files(target) == files(new)


def test_atomic_open_streams_bytes_and_replaces_on_exit(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"old")
    with atomic_open(path, "wb") as fh:
        fh.write(b"new bytes")
        assert path.read_bytes() == b"old"
        assert sorted(os.listdir(tmp_path)) == ["f.bin", "f.bin.tmp"]
    assert path.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["f.bin"]


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """A small pipeline's inputs, a clean run's tree and the bytes the run
    writes through its file handles."""
    root = tmp_path_factory.mktemp("pipeline")
    write_synth_corpus(6, root / "corpus.txt", root / "pairs.tsv", SynthConfig(n_sentences=1200))

    def config(out):
        return PipelineConfig.from_json_dict({
            "corpus": str(root / "corpus.txt"), "pairs": str(root / "pairs.tsv"),
            "out_dir": str(out), "basis_sizes": [20, 40],
            "thresholds": {"min_target_freq": 10, "drop_top": 0,
                           "min_pair_count": 1, "min_args": 5},
            "regression": {"lambda": 0.01}})

    with pytest.MonkeyPatch.context() as mp:
        total = counted_bytes(mp, lambda: run_pipeline(config(root / "ref")))
    return config, files(root / "ref"), total


@pytest.mark.parametrize("fault", FAULTS)
def test_failed_pipeline_leaves_failed_and_only_complete_files(tmp_path, monkeypatch,
                                                                pipeline_run, fault):
    config, ref, total = pipeline_run
    inject(monkeypatch, fault, total)
    with pytest.raises(PipelineError):
        run_pipeline(config(tmp_path / "out"))
    monkeypatch.undo()
    after = files(tmp_path / "out")
    assert after.pop("FAILED").startswith(b"stage: ")
    assert not [name for name in after if name.endswith(".tmp")]
    assert after.keys() < ref.keys()
    for name, data in after.items():
        assert data == ref[name], name


class _FullSpill:
    """A corpus spill whose writes, or reads, fail as on a full disk."""

    def __init__(self, fh, op):
        self._fh, self._op = fh, op

    def _check(self, op):
        if op == self._op:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def write(self, data):
        self._check("write")
        return self._fh.write(data)

    def read(self, size=-1):
        self._check("read")
        return self._fh.read(size)

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize("op", ["write", "read"])
def test_spill_fault_fails_build_vectors_and_leaves_no_file(tmp_path, monkeypatch, capsys,
                                                            pipeline_run, op):
    """A full disk under the corpus spill, in pass 1's writes or in pass
    2's read-back, fails the build-vectors stage with the FAILED marker
    and the CLI's JSON error, and leaves no file in out_dir or TMPDIR."""
    config = pipeline_run[0]
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    real = tempfile.TemporaryFile
    spills = []

    def temporary_file(*args, **kwargs):
        spills.append(_FullSpill(real(*args, **kwargs), op))
        return spills[-1]

    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    monkeypatch.setattr(tempfile, "TemporaryFile", temporary_file)
    with pytest.raises(PipelineError) as info:
        run_pipeline(config(tmp_path / "out"))
    assert info.value.stage == "build-vectors"
    assert isinstance(info.value.cause, OSError) and info.value.cause.errno == errno.ENOSPC
    assert f"corpus spill in {spill_dir}: " in str(info.value.cause)
    assert files(tmp_path / "out") == {
        "FAILED": f"stage: build-vectors\nerror: {info.value.cause}\n".encode()}

    cfg = config(tmp_path / "out")
    assert cli.main(["build-vectors", "--corpus", cfg.corpus, "--pairs", cfg.pairs,
                     "--basis-size", "20", "--out", str(tmp_path / "vectors")]) == 1
    payload = json.loads(capsys.readouterr().err)
    assert payload == {"error": "OSError", "message": str(info.value.cause)}
    assert not (tmp_path / "vectors").exists()
    assert os.listdir(spill_dir) == []
    assert len(spills) == 2 and all(spill.closed for spill in spills)
