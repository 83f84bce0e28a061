"""The two-pass, block-streamed corpus against the per-token oracles.

Random tagged and untagged corpora go through both passes and through
the oracles in ``oracles.py``; every result must match exactly, PPMI
values bit for bit.  Each check also runs with the reader's reads cut to
1, 3 and 7 bytes, so that tokens, UTF-8 forms and line ends cross reads,
and with the chunks that pass 2 reads back cut to as many tokens, so that
a chunk ends at almost every sentence and sentences outgrow chunks.
"""

import collections
import contextlib
import dataclasses
import io
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmat import _kernels
from lingmat.corpus import (
    BasisSpec,
    CorpusError,
    TokenizedCorpus,
    build_compound_vectors,
    build_vocab,
    count_cooccurrence,
    pos_class_of,
    read_corpus,
    read_pairs,
    select_basis,
)
from lingmat.pipeline import stage_build_vectors
from lingmat.synth import SynthConfig, write_synth_corpus

import oracles

#: Words: ASCII, tokens of 8, 9-16 and more than 16 bytes (equal lengths
#: sharing their first 8 or 16 bytes), NUL and other control bytes, and
#: multibyte letters, some whose UTF-8 forms resemble a separator's
#: (U+200B and U+2030 are not whitespace).
WORDS = ("a", "b", "big", "cat", "eats", "x", "abcdefgh", "abcdefghij", "abcdefghik",
         "abcdefghijklmnopq", "abcdefghijklmnopr", "a\x00b", "\x00", "\x1b", "\x7f",
         "\u00e9", "\u540d", "caf\u00e9\u540d", "\u200b", "\u2030", "\u0185")
TAGS = ("N", "NN", "V", "vb", "J", "R", "D", "F", "")

#: The separators of `str.split` that are not ASCII, from `str.isspace`.
UNICODE_SPACES = tuple(chr(c) for c in range(0x80, 0x110000) if chr(c).isspace())

word = st.sampled_from(WORDS)
tag = st.sampled_from(TAGS)
# raw token forms: plain, word|TAG, word| (empty tag), |TAG (no word),
# a|b|TAG (bar inside the word)
tagged_token = st.one_of(
    word,
    st.builds(lambda w, t: f"{w}|{t}", word, tag),
    st.builds(lambda t: f"|{t}", tag),
    st.builds(lambda w, v, t: f"{w}|{v}|{t}", word, word, tag),
)
separator = st.sampled_from((" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1f")
                            + UNICODE_SPACES)
line_end = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def corpus_text(draw, token=tagged_token):
    """Corpus file text: token lines, blank lines and mixed line endings,
    perhaps a BOM first and no line end last."""
    lines = []
    for toks in draw(st.lists(st.lists(token, max_size=9), min_size=1, max_size=12)):
        seps = draw(st.lists(separator, min_size=len(toks), max_size=len(toks)))
        body = "".join(s + t for s, t in zip(seps, toks))
        lines.append(body + draw(line_end))
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(lines)


def read_both(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.txt")
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
        sentences = oracles.read_sentences(path)
        if not sentences:
            with pytest.raises(CorpusError, match="empty"):
                read_corpus(path)
            return None, sentences
        return read_corpus(path), sentences


any_corpus = st.one_of(corpus_text(), corpus_text(token=word))


def pair_counts(corpus):
    """The tokens of each (word, tag), summed over its types, which do not
    depend on how the file was cut into parts."""
    out = collections.Counter()
    for w, t, n in zip(corpus.word_of.tolist(), corpus.tag_of.tolist(), corpus.counts.tolist()):
        if n:
            out[corpus.words[w], corpus.tags[t]] += n
    return out

#: Chunk lengths every check runs at: the default (None), then chunks so
#: short that most sentences end a chunk and some outgrow one.
CHUNKS = (None, 1, 3, 7)


@contextlib.contextmanager
def chunk_length(chunk):
    """The reader reads `chunk` bytes at a time, and pass 2 reads the spill
    back in chunks of at least `chunk` tokens."""
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(_kernels, "_CHUNK", chunk)
        yield


@settings(max_examples=80, deadline=None)
@given(any_corpus)
def test_read_corpus_round_trip(text):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus, sentences = read_both(text)
        if corpus is None:
            return
        assert corpus.sentences == sentences, chunk
        assert corpus.n_total == sum(len(s) for s in sentences)
        assert pair_counts(corpus) == collections.Counter(t for s in sentences for t in s)
        assert corpus.tagged == oracles.is_tagged(sentences)
        with chunk_length(chunk):
            check_chunks(corpus, sentences)


def check_chunks(corpus, sentences):
    """Pass 2 reads back every sentence whole, in order, as type ids, in
    chunks of at least ``_CHUNK`` tokens but the last."""
    chunks = list(corpus.chunks())
    tokens = [token for sentence in sentences for token in sentence]
    assert [(corpus.words[corpus.word_of[t]], corpus.tags[corpus.tag_of[t]])
            for ids, _ in chunks for t in ids.tolist()] == tokens
    assert [int(b - a) for ids, offsets in chunks
            for a, b in zip(offsets[:-1], offsets[1:])] == [len(s) for s in sentences]
    for ids, offsets in chunks[:-1]:
        assert ids.size >= _kernels._CHUNK
    for ids, offsets in chunks:
        assert ids.dtype == np.int32 and offsets[0] == 0 and offsets[-1] == ids.size


@settings(max_examples=50, deadline=None)
@given(any_corpus)
def test_vocab_basis_and_pos_class(text):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            check_vocab_basis_and_pos_class(text)


def check_vocab_basis_and_pos_class(text):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    vocab = build_vocab(corpus)
    assert list(vocab.items()) == list(oracles.vocab(sentences).items())
    for size in range(1, len(vocab) + 2):
        want = oracles.basis_words(sentences, size)
        if len(want) < size:
            with pytest.raises(CorpusError, match="content words"):
                select_basis(corpus, size)
            break
        assert select_basis(corpus, size).words == want
    words = list(vocab) + ["absent"]
    assert pos_class_of(corpus, words) == {w: oracles.pos_class(sentences, w) for w in words}


@settings(max_examples=50, deadline=None)
@given(any_corpus, st.integers(1, 12))
def test_cooccurrence_matches_bruteforce(text, window):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            check_cooccurrence(text, window)


def check_cooccurrence(text, window):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    words = list(build_vocab(corpus))
    targets = words[::2] + ["absent"]
    basis = BasisSpec(tuple(words[1:]) + ("absent",))
    want = oracles.window_counts_bruteforce(sentences, targets, basis.words, window)
    table = count_cooccurrence(corpus, targets, basis, window)
    got = {(t, c): n for t, row in table.counts.items() for c, n in row.items()}
    assert got == want


@settings(max_examples=80, deadline=None)
@given(any_corpus, st.integers(1, 12), st.sampled_from(["adjective", "verb", "unknown"]))
def test_compounds_match_oracle(text, window, pos_class):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            check_compounds(text, window, pos_class)


def check_compounds(text, window, pos_class):
    """Every head's compounds, counted in one pass with the noun windows,
    as the pipeline counts them."""
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    words = list(build_vocab(corpus))
    basis = BasisSpec(tuple(words))
    reach = window if pos_class == "verb" else 1
    nouns = words + ["absent"]
    heads = {target: (nouns, pos_class) for target in words[:3] + ["absent"]}
    table = count_cooccurrence(corpus, words, basis, window, heads)
    assert table.counts == count_cooccurrence(corpus, words, basis, window).counts
    for target in heads:
        spans = oracles.spans_by_noun(sentences, target, nouns, reach)
        assert table.compounds[target][2].tolist() == [len(spans[n]) for n in nouns]
        (labels, values), skipped = build_compound_vectors(table, target)
        assert skipped == [n for n in nouns if not spans[n]]
        assert labels == [f"{target} {n}" for n in nouns if spans[n]]
        for label, v in zip(labels, values):
            noun = label[len(target) + 1:]
            want = oracles.compound_values(sentences, spans[noun], basis.words, window)
            assert v.tobytes() == want.tobytes(), label


def test_edge_case_tokens_and_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("word| |tag a|b|N\r\n\n   \nsolo\nx\x0cy\u2028z|J\n".encode())
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus = read_corpus(path)
            assert corpus.sentences == (
                (("word", None), ("|tag", None), ("a|b", "N")),
                (("solo", None),),
                (("x", None), ("y", None), ("z", "J")),
            ), chunk
            assert corpus.tagged
            assert pos_class_of(corpus, ["z", "solo"]) == {"z": "adjective", "solo": "unknown"}
            # a window longer than every sentence counts whole sentences
            table = count_cooccurrence(corpus, ["solo", "x"],
                                       BasisSpec(("y", "z", "solo")), 50)
            assert table.counts == {"solo": {}, "x": {"y": 1, "z": 1}}, chunk


def test_separators_are_those_of_str_split():
    assert len(UNICODE_SPACES) == 19
    assert _kernels._UNICODE_SPACES == "".join(UNICODE_SPACES)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(1, 6), st.integers(0, 40)), max_size=60),
                max_size=8))
def test_type_table_numbers_keys_in_first_occurrence_order(batches):
    """Batch after batch, each distinct key gets the next id at its first
    position, and the table stays at most half full."""
    table, want = _kernels.TypeTable(), {}
    for batch in batches:
        k0 = np.array([a for a, _ in batch], dtype=np.uint64)
        k1 = np.array([b << 58 | b for _, b in batch], dtype=np.uint64)
        ids = table.add(k0, k1)
        assert ids.tolist() == [want.setdefault(key, len(want)) for key in batch]
        assert table.size == len(want) and 2 * table.size <= table.k0.size


@settings(max_examples=80, deadline=None)
@given(st.lists(st.binary(min_size=1, max_size=30).map(
    lambda b: bytes(b"ab\x00\xe2"[c % 4] for c in b)), min_size=1, max_size=40),
    st.lists(st.sampled_from([b" ", b"\n", b"\t\r\n"]), min_size=40, max_size=40))
def test_type_table_nodes_are_the_byte_strings(words, seps):
    """Two tokens share a node exactly when their bytes are equal, whatever
    their lengths and whatever follows them."""
    block = b"".join(w + sep for w, sep in zip(words, seps))
    start, length, _, _ = _kernels.tokens(block + _kernels.PAD)
    assert [block[a:a + n] for a, n in zip(start.tolist(), length.tolist())] == words
    node = _kernels.TypeTable().nodes(block + _kernels.PAD, start, length).tolist()
    first = {}
    assert node == [first.setdefault(w, n) for w, n in zip(words, node)]
    assert len(set(node)) == len(first)


line_bytes = st.lists(st.sampled_from([b"a", b" ", b"\n", b"\r", b"\r\n"]), min_size=1,
                      max_size=30).map(b"".join)


@settings(max_examples=200, deadline=None)
@given(line_bytes)
def test_tokens_count_line_ends_as_text_mode_reads_them(block):
    """A block's line ends are the newlines of text-mode reading."""
    text = io.TextIOWrapper(io.BytesIO(block), encoding="ascii").read()
    assert _kernels.tokens(block + _kernels.PAD)[3] == text.count("\n")


@settings(max_examples=200, deadline=None)
@given(line_bytes)
def test_blocks_join_into_the_file_and_never_split_a_crlf(data):
    """At every read length, the blocks join back into the file, and no
    block ends with the "\\r" of a "\\r\\n" whose "\\n" starts the next."""
    for chunk in CHUNKS:
        with chunk_length(chunk):
            blocks = list(_kernels.blocks(io.BytesIO(data)))
        assert b"".join(blocks) == data, chunk
        assert not any(a.endswith(b"\r") and b.startswith(b"\n")
                       for a, b in zip(blocks, blocks[1:])), chunk


def test_long_token_tails_are_not_short_tokens(tmp_path):
    """A long token's later bytes never read as the short token they spell,
    whichever node its first 8 bytes get."""
    lines = [" ".join([f"f{i}" for i in range(k)] + ["abcdefgh" + tail, tail])
             for k in range(12) for tail in ("i", "ij", "ijklmnop", "ijklmnopq")]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = oracles.read_sentences(path)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            assert read_corpus(path).sentences == want, chunk


def test_more_than_5000_types_read_as_the_oracle_reads_them(tmp_path):
    """Enough distinct tokens, of 2 to 39 bytes, that the type table
    doubles several times; many share their first 8 or 16 bytes."""
    rng = np.random.default_rng(7)
    stems = ["", "w", "prefix08", "sixteen-byte-pre", "\u00e9\u540d", "x|N"]
    types = [f"{stems[i % len(stems)]}{i:x}" + "z" * int(rng.integers(0, 20))
             + ("|" + "NVJR"[i % 4] if i % 3 else "") for i in range(6000)]
    picks = np.concatenate([rng.permutation(len(types)),
                            rng.integers(0, len(types), size=4000)])
    lines = [" ".join(types[i] for i in line) + ("\n", "\r\n", "\r")[k % 3] for k, line
             in enumerate(np.split(picks, np.flatnonzero(rng.random(picks.size) < 0.1)))]
    path = tmp_path / "corpus.txt"
    path.write_bytes("".join(lines).encode())
    want = oracles.read_sentences(path)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus = read_corpus(path)
        assert len(corpus.words) > 5000
        assert corpus.sentences == want, chunk


def test_more_than_128_tags_widen_the_tag_ids(tmp_path):
    """Tag ids are int32 per type, so 301 tags count apart."""
    path = tmp_path / "corpus.txt"
    path.write_text("".join(f"w{i % 7}|T{i} x\n" for i in range(300)), encoding="utf-8")
    want = oracles.read_sentences(path)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus = read_corpus(path)
            assert corpus.sentences == want, chunk
        assert len(corpus.tags) == 301 and corpus.tag_of.dtype == np.int32
        assert len(corpus.words) == 8
        assert (np.bincount(corpus.tag_of, corpus.counts, 301)[1:] == 1).all()
        assert not corpus.counts.flags.writeable


@pytest.mark.parametrize("data, line", [
    (b"\x85\n", 1),
    (b"ok\n\nok \xff\n", 3),
    (b"a b\r\nc\rd\n\r\n  e \xc3( f\n", 5),
    (b"x\r\n\xed\xa0\x80 y\r\n", 2),
    (b"fine\nfine a\xe2\x80", 2),
    (b"ab\r\ncd\n\xff\n", 3),  # reads of 1 and 3 bytes split the "\r\n"
])
def test_invalid_utf8_names_its_line(tmp_path, data, line):
    path = tmp_path / "corpus.txt"
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError):
        oracles.read_sentences(path)
    for chunk in CHUNKS:
        with chunk_length(chunk), pytest.raises(
                CorpusError, match=f"^{re.escape(str(path))}:{line}: invalid UTF-8"):
            read_corpus(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_corpus_read_from_a_pipe_matches_the_file(tmp_path, desk_corpus):
    path, _ = desk_corpus
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(path.read_bytes())

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    from_pipe = read_corpus(fifo)
    writer.join(timeout=30)
    assert not writer.is_alive()
    from_file = read_corpus(path)
    assert pair_counts(from_pipe) == pair_counts(from_file)
    assert from_pipe.words == from_file.words and from_pipe.tags == from_file.tags
    for (ids, offsets), (want_ids, want_offsets) in zip(from_pipe.chunks(), from_file.chunks(),
                                                        strict=True):
        np.testing.assert_array_equal(ids, want_ids)
        np.testing.assert_array_equal(offsets, want_offsets)


def test_sentences_view_is_decoded_from_the_arrays(tmp_path):
    """Types are distinct token byte strings, so ``a|`` (an empty tag,
    read as none) is a type of its own beside ``b``; the view decodes the
    spill."""
    path = tmp_path / "corpus.txt"
    path.write_text("a|N b\n\na|\n", encoding="utf-8")
    corpus = read_corpus(path)
    assert corpus.words == ("a", "b")
    assert corpus.tags == (None, "N")
    np.testing.assert_array_equal(corpus.word_of, [0, 1, 0])
    np.testing.assert_array_equal(corpus.tag_of, [1, 0, 0])
    np.testing.assert_array_equal(corpus.counts, [1, 1, 1])
    ((ids, offsets),) = corpus.chunks()
    np.testing.assert_array_equal(ids, [0, 1, 2])
    np.testing.assert_array_equal(offsets, [0, 2, 3])
    assert corpus.sentences == ((("a", "N"), ("b", None)), (("a", None),))
    assert not corpus.counts.flags.writeable
    corpus.close()
    with pytest.raises(ValueError):
        next(corpus.chunks())


@pytest.mark.parametrize("chunk", CHUNKS)
def test_long_sentences_and_line_ends_at_block_edges(tmp_path, chunk):
    """A sentence longer than a pass-2 chunk, and ``\\r\\n`` line ends whose
    ``\\r`` ends one read and whose ``\\n`` starts the next, read, count
    and make compounds as the oracles do."""
    read = chunk or _kernels._CHUNK
    long = " ".join(["big", "cat"] * 9 + ["eats", "big", "x", "cat"])
    head = "x" * (read - 1) + "\r\n" if read > 2 else "\r\n"
    text = head + long + "\r\nbig cat\r\r\nx big\n\rcat big eats cat\r"
    path = tmp_path / "corpus.txt"
    path.write_bytes(text.encode())
    with chunk_length(chunk), open(path, "rb") as fh:
        blocks = list(_kernels.blocks(fh))
    assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(blocks, blocks[1:]))
    sentences = oracles.read_sentences(path)
    assert max(map(len, sentences)) > 7
    with chunk_length(chunk):
        corpus = read_corpus(path)
        assert corpus.sentences == sentences
        check_chunks(corpus, sentences)
        words = list(build_vocab(corpus))
        basis = BasisSpec(tuple(words))
        for window in (1, 3, 12):
            table = count_cooccurrence(corpus, words, basis, window,
                                       {"big": (words, "adjective"), "eats": (words, "verb")})
            got = {(t, c): n for t, row in table.counts.items() for c, n in row.items()}
            assert got == oracles.window_counts_bruteforce(sentences, words, words, window)
            for target, reach in (("big", 1), ("eats", window)):
                spans = oracles.spans_by_noun(sentences, target, words, reach)
                (labels, values), _ = build_compound_vectors(table, target)
                assert labels == [f"{target} {n}" for n in words if spans[n]]
                for label, v in zip(labels, values):
                    want = oracles.compound_values(sentences, spans[label.split(" ", 1)[1]],
                                                   basis.words, window)
                    assert v.tobytes() == want.tobytes(), (window, label)


def test_word_index_is_pass_1s_and_lookups_leave_it_alone(tmp_path):
    """The word ids of pass 1 are kept as the corpus's `word_index`;
    looking up words the corpus lacks adds none of them."""
    assert "word_index" in {f.name for f in dataclasses.fields(TokenizedCorpus)}
    path = tmp_path / "corpus.txt"
    path.write_text("big|J cat|N\nx big|J\n", encoding="utf-8")
    corpus = read_corpus(path)
    assert corpus.word_index == {"big": 0, "cat": 1, "x": 2}
    assert corpus.lookup(["dog", "cat"]).tolist() == [-1, 1, -1]
    assert pos_class_of(corpus, ["dog"]) == {"dog": "unknown"}
    count_cooccurrence(corpus, ["dog"], BasisSpec(("cat",)), 2,
                       {"big": (["dog", "cat"], "adjective"), "emu": (["cat"], "verb")})
    assert corpus.word_index == {"big": 0, "cat": 1, "x": 2}


def test_compounds_of_an_uncounted_head_raise(tmp_path):
    """Compound vectors come only from the counts of the one pass; a head
    it did not count is an error that names the head."""
    path = tmp_path / "corpus.txt"
    path.write_text("big|J red|J cat|N\n", encoding="utf-8")
    corpus = read_corpus(path)
    table = count_cooccurrence(corpus, ["cat"], BasisSpec(("big", "cat")), 2,
                               {"big": (["cat"], "adjective")})
    with pytest.raises(ValueError, match="compounds of 'red' were not counted"):
        build_compound_vectors(table, "red")


@pytest.mark.parametrize("chunk", CHUNKS)
def test_c08_counts_at_every_chunk_length(tmp_path, chunk):
    """c08's window counts on its ~1e4-token fixture, through both passes
    at every chunk length."""
    corpus_path = tmp_path / "fixture.txt"
    write_synth_corpus(404, corpus_path, tmp_path / "fixture_pairs.tsv",
                       SynthConfig(n_sentences=750))
    targets = [f"n{i:02d}" for i in range(14)] + ["adj00", "c005"]
    basis = BasisSpec(tuple(f"c{i:03d}" for i in range(40)) + ("n03", "adj01"))
    sentences = oracles.read_sentences(corpus_path)
    with chunk_length(chunk):
        corpus = read_corpus(corpus_path)
        for window in (2, 5):
            table = count_cooccurrence(corpus, targets, basis, window)
            got = {(t, c): n for t, row in table.counts.items() for c, n in row.items()}
            assert got == oracles.window_counts_bruteforce(sentences, targets, basis.words,
                                                           window), window


#: Bytes one chunk position may add to a peak: an int64 position and an
#: int64 key.
CHUNK_POSITION_BYTES = 16

PROV = {"tool": "lingmat", "version": "0", "config_hash": "0" * 16, "seed": 0}


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    """The default ``gen-corpus --seed 2`` corpus and pairs files."""
    root = tmp_path_factory.mktemp("desk")
    corpus, pairs = root / "corpus.txt", root / "pairs.tsv"
    write_synth_corpus(2, corpus, pairs)
    return corpus, read_pairs(pairs)


def build_vectors_peak(path, pairs, out):
    """tracemalloc's peak during `read_corpus` and `stage_build_vectors`
    above the memory before them."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    corpus = read_corpus(path)
    try:
        stage_build_vectors(corpus, pairs, 100, 5, out, PROV)
    finally:
        corpus.close()
    return tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("chunk", [1 << 12, None])
def test_corpus_peak_is_flat_in_corpus_length(desk_corpus, tmp_path, chunk):
    """No array with one entry per token or sentence outlives a block or
    a chunk: reading the desk corpus and ten copies of it in one file, and
    building their vectors, peak less than one chunk's positions apart."""
    path, pairs = desk_corpus
    tenfold = tmp_path / "corpus10.txt"
    tenfold.write_bytes(path.read_bytes() * 10)
    tracemalloc.start()
    try:
        with chunk_length(chunk):
            peaks = [build_vectors_peak(p, pairs, tmp_path / f"out{k}")
                     for k, p in enumerate((path, tenfold))]
            bound = CHUNK_POSITION_BYTES * _kernels._CHUNK
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < bound, peaks
    for name in ("basis.txt", "nouns/vectors.npy", "compounds/vectors.npy"):
        assert (tmp_path / "out0" / name).read_bytes() == (tmp_path / "out1" / name).read_bytes()
