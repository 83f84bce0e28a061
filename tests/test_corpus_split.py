"""Split reads: both corpus passes over parts of the file, read and counted
by forked workers, against the one-part read and the oracles.

Reads are forced into 2-4 parts of any size by setting ``_MIN_PART`` to
one byte and the usable CPU count to the number of parts.  Every test that
forks checks that no worker and no spill descriptor outlives the read.
"""

import contextlib
import errno
import os
import re
import signal
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmat import THREAD_VARS, _kernels, corpus
from lingmat.corpus import (
    BasisSpec,
    CorpusError,
    build_compound_vectors,
    build_vocab,
    count_cooccurrence,
    read_corpus,
)
from lingmat.pipeline import PipelineConfig, PipelineError, run_pipeline
from lingmat.synth import SynthConfig, write_synth_corpus

import oracles
from test_corpus_arrays import (any_corpus, check_vocab_basis_and_pos_class, chunk_length,
                                pair_counts)
from test_writers import _FullSpill, files

#: The reader forks only in a process that runs one thread.  conftest
#: imports lingmat before numpy, so this process runs BLAS with one thread
#: unless its caller set a thread count above 1.
CALLER_SET = ", ".join(f"{var}={os.environ[var]}" for var in THREAD_VARS
                       if os.environ[var] != "1")
pytestmark = pytest.mark.skipif(
    bool(CALLER_SET) and not corpus._can_fork(),
    reason=f"{CALLER_SET} runs BLAS with more than one thread, so every read is one part")


@contextlib.contextmanager
def split_into(parts):
    """Reads cut the file into up to `parts` parts of any size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_MIN_PART", 1)
        mp.setattr(corpus, "_usable_cpus", lambda: parts)
        yield


def open_fds():
    return set(os.listdir("/proc/self/fd"))


@contextlib.contextmanager
def leaves_no_worker_or_spill():
    """The block leaves no child process, reaped or not, and no open
    descriptor it did not find."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


def write(tmp_path, data: bytes, name="corpus.txt"):
    path = tmp_path / name
    path.write_bytes(data)
    return path


def assert_same_corpus(got, want):
    assert got.words == want.words and got.tags == want.tags
    assert got.word_index == want.word_index
    assert pair_counts(got) == pair_counts(want)
    assert got.n_total == want.n_total
    assert got.sentences == want.sentences


def counted(corpus_, words, window, pos_class):
    """Every word as target and basis word, and the compounds of the first
    three words as heads."""
    heads = {head: (words + ["absent"], pos_class) for head in words[:3]}
    return count_cooccurrence(corpus_, words, BasisSpec(tuple(words)), window, heads)


def assert_same_table(got, want):
    assert got.counts == want.counts and got.totals == want.totals
    assert got.compounds.keys() == want.compounds.keys()
    for head, (nouns, _, occurrences, joint) in got.compounds.items():
        want_nouns, _, want_occurrences, want_joint = want.compounds[head]
        assert nouns == want_nouns
        np.testing.assert_array_equal(occurrences, want_occurrences)
        np.testing.assert_array_equal(joint, want_joint)


# ---------------------------------------------------------------------------
# where the file is cut, and when nothing forks
# ---------------------------------------------------------------------------

def test_parts_end_just_after_a_line_feed(tmp_path, monkeypatch):
    """Each later part starts just after a ``\\n``, so no line and no
    ``\\r\\n`` is cut; parts are about equal; a file has no more parts than
    `_MIN_PART` allows, and a file with no ``\\n`` to cut at, or one that
    is not a regular file, is one part."""
    monkeypatch.setattr(corpus, "_can_fork", lambda: True)
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 4)
    data = b"".join(b"w%d x|N\r\ny\r" % k + b"z\n" * (k % 3) for k in range(400))
    path = write(tmp_path, data)
    monkeypatch.setattr(corpus, "_MIN_PART", 1)
    cuts = corpus._cuts(path)
    assert len(cuts) == 5 and cuts[0] == 0 and cuts[-1] is None
    assert all(data[c - 1:c] == b"\n" for c in cuts[1:-1])
    sizes = np.diff(cuts[:-1] + [len(data)])
    assert sizes.max() - sizes.min() < 40
    monkeypatch.setattr(corpus, "_MIN_PART", len(data) // 2)
    assert len(corpus._cuts(path)) == 3
    monkeypatch.setattr(corpus, "_MIN_PART", len(data) // 2 + 1)
    assert corpus._cuts(path) == [0, None]
    monkeypatch.setattr(corpus, "_MIN_PART", 1)
    assert corpus._cuts(write(tmp_path, b"a\rb\rc\r" * 50, "cr.txt")) == [0, None]
    late = b"c\r" * 50 + b"a b\n"
    assert corpus._cuts(write(tmp_path, late + b"d\r" * 50, "late.txt")) == [0, len(late), None]
    if hasattr(os, "mkfifo"):
        os.mkfifo(tmp_path / "corpus.fifo")
        assert corpus._cuts(tmp_path / "corpus.fifo") == [0, None]


@pytest.mark.parametrize("why", ["one CPU", "a second thread"])
def test_one_cpu_or_a_second_thread_forks_nothing(tmp_path, monkeypatch, why):
    """With one usable CPU, or with a second thread running, a read is one
    part in this process: nothing forks."""
    path = write(tmp_path, b"big|J cat|N\nx big|J\n" * 50)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(corpus, "_MIN_PART", 1)
    monkeypatch.setattr(corpus, "_usable_cpus", lambda: 1 if why == "one CPU" else 4)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if why == "a second thread":
        other.start()
    try:
        got = read_corpus(path)
        table = count_cooccurrence(got, ["cat"], BasisSpec(("big", "x")), 2)
    finally:
        stop.set()
        if why == "a second thread":
            other.join(timeout=30)
    assert not other.is_alive()
    assert len(got.parts) == 1
    assert table.counts == {"cat": {"big": 50}}
    got.close()


# ---------------------------------------------------------------------------
# split reads against the one-part read and the oracles
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(any_corpus, st.integers(2, 4), st.sampled_from([None, 3]), st.integers(1, 6),
       st.sampled_from(["adjective", "verb"]))
def test_split_read_matches_one_part_read(text, parts, chunk, window, pos_class):
    """Mixed ``\\n``/``\\r\\n``/``\\r`` line ends and non-ASCII separators:
    the split read has the one-part read's words, word ids, tags, counts,
    token total and sentences, and its pass 2 the same tables, which are
    the oracles' too; its vocabulary, basis at every size and every word's
    part-of-speech class are the oracles'."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        sentences = oracles.read_sentences(path)
        if not sentences:
            with split_into(parts), pytest.raises(CorpusError, match="empty"):
                read_corpus(path)
            return
        with chunk_length(chunk):
            one = read_corpus(path)
            with split_into(parts), leaves_no_worker_or_spill():
                got = read_corpus(path)
                assert len(got.parts) == len(corpus._cuts(path)) - 1
                assert_same_corpus(got, one)
                assert got.sentences == sentences
                words = list(build_vocab(got))
                table = counted(got, words, window, pos_class)
                got.close()
            assert_same_table(table, counted(one, words, window, pos_class))
            one.close()
            with split_into(parts):
                check_vocab_basis_and_pos_class(text)
    want = oracles.window_counts_bruteforce(sentences, words, words, window)
    assert {(t, c): n for t, row in table.counts.items() for c, n in row.items()} == want
    reach = window if pos_class == "verb" else 1
    for head in words[:3]:
        spans = oracles.spans_by_noun(sentences, head, words + ["absent"], reach)
        (labels, values), _ = build_compound_vectors(table, head)
        for label, v in zip(labels, values):
            noun = label[len(head) + 1:]
            assert v.tobytes() == oracles.compound_values(sentences, spans[noun], words,
                                                          window).tobytes()


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A small pipeline's inputs and the tree of its one-part run."""
    root = tmp_path_factory.mktemp("split")
    write_synth_corpus(6, root / "corpus.txt", root / "pairs.tsv", SynthConfig(n_sentences=1200))

    def config(out):
        return PipelineConfig.from_json_dict({
            "corpus": str(root / "corpus.txt"), "pairs": str(root / "pairs.tsv"),
            "out_dir": str(out), "basis_sizes": [20, 40],
            "thresholds": {"min_target_freq": 10, "drop_top": 0,
                           "min_pair_count": 1, "min_args": 5},
            "regression": {"lambda": 0.01}})

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_usable_cpus", lambda: 1)
        run_pipeline(config(root / "one"))
    return config, files(root / "one")


@pytest.mark.parametrize("parts", [2, 3, 4])
def test_split_pipeline_writes_the_same_bytes(tmp_path, small_run, parts):
    config, want = small_run
    with split_into(parts), leaves_no_worker_or_spill():
        run_pipeline(config(tmp_path / "out"))
    assert files(tmp_path / "out") == want


# ---------------------------------------------------------------------------
# failures in a worker
# ---------------------------------------------------------------------------

def lines_file(tmp_path, bad=()):
    """120 lines with mixed line ends, the lines in `bad` (1-based) holding
    an invalid UTF-8 token."""
    ends = (b"\n", b"\r\n", b"\r", b"\n")
    data = b"".join((b"caf\xc3\xa9 x\xff y" if k + 1 in bad else b"a%d b|N c" % k) + ends[k % 4]
                    for k in range(120))
    return write(tmp_path, data)


@pytest.mark.parametrize("bad", [(101,), (62, 101), (17, 62, 101)])
def test_invalid_utf8_names_the_line_of_the_whole_file(tmp_path, bad):
    """Invalid UTF-8 in a later part gives the one-part read's exact
    ``path:line`` message, and with errors in several parts the earliest
    part's error wins."""
    path = lines_file(tmp_path, bad)
    with pytest.raises(CorpusError) as one:
        read_corpus(path)
    assert str(one.value).startswith(f"{path}:{bad[0]}: invalid UTF-8")
    with split_into(4), leaves_no_worker_or_spill():
        assert len(corpus._cuts(path)) == 5
        with pytest.raises(CorpusError) as got:
            read_corpus(path)
    assert str(got.value) == str(one.value)


def worker_only(fault):
    """`fault` runs only in a forked worker, never in this process."""
    parent = os.getpid()

    def maybe(*args, **kwargs):
        if os.getpid() != parent:
            fault()
    return maybe


@pytest.mark.parametrize("op", ["write", "read"])
def test_full_disk_in_a_worker_keeps_errno_and_names_the_spill_dir(tmp_path, monkeypatch,
                                                                   small_run, op):
    """ENOSPC in a worker's spill write (pass 1) or read-back (pass 2)
    reaches `run_pipeline` with its errno and the spill's directory, fails
    build-vectors and leaves only the FAILED marker."""
    config = small_run[0]
    spill_dir = tmp_path / "tmp"
    spill_dir.mkdir()
    real = tempfile.TemporaryFile
    parent = os.getpid()

    class WorkerFullSpill(_FullSpill):
        def _check(self, op):
            if os.getpid() != parent:
                super()._check(op)

    monkeypatch.setattr(tempfile, "tempdir", str(spill_dir))
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda: WorkerFullSpill(real(), op))
    with split_into(3), leaves_no_worker_or_spill():
        with pytest.raises(PipelineError) as info:
            run_pipeline(config(tmp_path / "out"))
    assert info.value.stage == "build-vectors"
    cause = info.value.cause
    assert isinstance(cause, OSError) and cause.errno == errno.ENOSPC
    assert str(cause) == f"[Errno 28] corpus spill in {spill_dir}: {os.strerror(errno.ENOSPC)}"
    assert files(tmp_path / "out") == {
        "FAILED": f"stage: build-vectors\nerror: {cause}\n".encode()}
    assert os.listdir(spill_dir) == []


@pytest.mark.parametrize("how, message", [
    ("exit", "exited with status 3"), ("kill", f"was killed by signal {int(signal.SIGKILL)}")])
@pytest.mark.parametrize("where", ["pass 1", "pass 2"])
def test_a_worker_that_dies_fails_build_vectors(tmp_path, monkeypatch, small_run, how, message,
                                                where):
    """A worker that exits or is killed before it sends its result fails
    build-vectors with its exit status and leaves only the FAILED
    marker."""
    config = small_run[0]
    die = worker_only(lambda: os._exit(3) if how == "exit"
                      else os.kill(os.getpid(), signal.SIGKILL))
    module, name = (corpus._Encoder, "read") if where == "pass 1" else (_kernels,
                                                                        "window_pair_counts")
    real = getattr(module, name)

    def dying(*args):
        die()
        return real(*args)

    monkeypatch.setattr(module, name, dying)
    with split_into(2), leaves_no_worker_or_spill():
        with pytest.raises(PipelineError) as info:
            run_pipeline(config(tmp_path / "out"))
    assert info.value.stage == "build-vectors"
    assert re.fullmatch(f"a corpus worker process {message} before it sent its result",
                        str(info.value.cause))
    assert list(files(tmp_path / "out")) == ["FAILED"]


def test_a_failure_here_kills_the_workers(tmp_path, monkeypatch):
    """When part 0, read in this process, fails, the workers still reading
    later parts are killed and reaped and every spill is closed."""
    path = lines_file(tmp_path, bad=(1,))
    parent = os.getpid()
    real = corpus._Encoder.read

    def slow_in_workers(self, block):
        if os.getpid() != parent:
            threading.Event().wait(60)
        return real(self, block)

    monkeypatch.setattr(corpus._Encoder, "read", slow_in_workers)
    with split_into(3), leaves_no_worker_or_spill():
        with pytest.raises(CorpusError, match=f"^{re.escape(str(path))}:1: invalid UTF-8"):
            read_corpus(path)
