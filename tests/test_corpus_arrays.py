"""The integer-encoded corpus against the per-token oracles.

Random tagged and untagged corpora go through the array paths and through
the oracles in ``oracles.py``; every result must match exactly, PPMI
values bit for bit.  Each check also runs with the chunk of the
full-corpus passes cut to 1, 3 and 7 token positions, so that anchors,
windows and spans cross chunk edges, and with the reader's reads cut to
as many bytes, so that tokens, UTF-8 forms and line ends cross reads.
"""

import contextlib
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lingmat import _kernels
from lingmat import corpus as corpus_module
from lingmat.corpus import (
    BasisSpec,
    CorpusError,
    TokenizedCorpus,
    build_compound_vectors,
    build_vocab,
    compound_spans,
    count_cooccurrence,
    pos_class_of,
    read_corpus,
    read_pairs,
    select_basis,
)
from lingmat.synth import write_synth_corpus

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

#: Chunk lengths every check runs at: the default (None), then chunks so
#: short that most windows and spans cross a chunk edge.
CHUNKS = (None, 1, 3, 7)


@contextlib.contextmanager
def chunk_length(chunk):
    """Full-corpus passes run in chunks of `chunk` token positions, and the
    reader reads `chunk` bytes at a time."""
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
        assert corpus.tagged == oracles.is_tagged(sentences)
        assert corpus.word_ids.dtype == np.int32
        assert corpus.tag_ids.dtype == np.int8
        # the id array owns its memory: no buffer capacity stays behind it
        assert corpus.word_ids.base is None


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.tuples(word, st.one_of(st.none(), tag)), max_size=6),
                max_size=8))
def test_from_sentences_round_trip(sentences):
    want = tuple(tuple(s) for s in sentences if s)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus = TokenizedCorpus.from_sentences(sentences)
            assert corpus.sentences == want, chunk
            assert corpus.tagged == oracles.is_tagged(want)
            if want:
                assert (list(build_vocab(corpus).items())
                        == list(oracles.vocab(want).items())), chunk


@settings(max_examples=50, deadline=None)
@given(any_corpus, st.sets(word))
def test_vocab_basis_and_pos_class(text, stopwords):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            check_vocab_basis_and_pos_class(text, stopwords)


def check_vocab_basis_and_pos_class(text, stopwords):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    vocab = build_vocab(corpus)
    assert list(vocab.items()) == list(oracles.vocab(sentences).items())
    for size in range(1, len(vocab) + 2):
        want = oracles.basis_words(sentences, size, stopwords)
        if len(want) < size:
            with pytest.raises(CorpusError, match="content words"):
                select_basis(vocab, corpus, size, stopwords)
            break
        assert select_basis(vocab, corpus, size, stopwords).words == want
    for w in list(vocab) + ["absent"]:
        assert pos_class_of(w, corpus) == oracles.pos_class(sentences, w), w


@settings(max_examples=50, deadline=None)
@given(any_corpus, st.integers(1, 12))
def test_cooccurrence_matches_bruteforce(text, window):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    words = list(build_vocab(corpus))
    targets = words[::2] + ["absent"]
    basis = BasisSpec(tuple(words[1:]) + ("absent",))
    want = oracles.window_counts_bruteforce(sentences, targets, basis.words, window)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            table = count_cooccurrence(corpus, targets, basis, window)
        got = {(t, c): n for t, row in table.counts.items() for c, n in row.items()}
        assert got == want, chunk


@settings(max_examples=80, deadline=None)
@given(any_corpus, st.integers(1, 12), st.sampled_from(["adjective", "verb", "unknown"]))
def test_compounds_match_oracle(text, window, pos_class):
    for chunk in CHUNKS:
        with chunk_length(chunk):
            check_compounds(text, window, pos_class)


def check_compounds(text, window, pos_class):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    words = list(build_vocab(corpus))
    basis = BasisSpec(tuple(words))
    table = count_cooccurrence(corpus, words, basis, window)
    reach = window if pos_class == "verb" else 1
    nouns = words + ["absent"]
    for target in words[:3]:
        spans = oracles.spans_by_noun(sentences, target, nouns, reach)
        for noun in nouns:
            assert compound_spans(corpus, target, noun, pos_class, window) == spans[noun]
        (labels, values), skipped = build_compound_vectors(corpus, table, basis, target,
                                                           nouns, pos_class, window)
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
            assert pos_class_of("z", corpus) == "adjective"
            assert pos_class_of("solo", corpus) == "unknown"
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
    start, length, _ = _kernels.tokens(block + _kernels.PAD)
    assert [block[a:a + n] for a, n in zip(start.tolist(), length.tolist())] == words
    node = _kernels.TypeTable().nodes(block + _kernels.PAD, start, length).tolist()
    first = {}
    assert node == [first.setdefault(w, n) for w, n in zip(words, node)]
    assert len(set(node)) == len(first)


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
        assert corpus.word_ids.dtype == np.int32 and corpus.tag_ids.dtype == np.int8


def test_more_than_128_tags_widen_the_tag_ids(tmp_path):
    """The tag ids turn int32 in the block where the 129th tag appears."""
    path = tmp_path / "corpus.txt"
    path.write_text("".join(f"w{i % 7}|T{i} x\n" for i in range(300)), encoding="utf-8")
    want = oracles.read_sentences(path)
    for chunk in CHUNKS:
        with chunk_length(chunk):
            corpus = read_corpus(path)
        assert corpus.sentences == want, chunk
        assert len(corpus.tags) == 301 and corpus.tag_ids.dtype == np.int32
        assert corpus.tag_ids.base is None and not corpus.tag_ids.flags.writeable


@pytest.mark.parametrize("data, line", [
    (b"\x85\n", 1),
    (b"ok\n\nok \xff\n", 3),
    (b"a b\r\nc\rd\n\r\n  e \xc3( f\n", 5),
    (b"x\r\n\xed\xa0\x80 y\r\n", 2),
    (b"fine\nfine a\xe2\x80", 2),
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


def test_token_count_hint_is_exact_for_space_separated_lines(desk_corpus):
    path, _ = desk_corpus
    corpus = read_corpus(path)
    assert corpus_module._token_count_hint(path) == (corpus.n_total + 1, corpus.offsets.size)


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
    for name in ("word_ids", "tag_ids", "offsets"):
        np.testing.assert_array_equal(getattr(from_pipe, name), getattr(from_file, name))
    assert from_pipe.words == from_file.words and from_pipe.tags == from_file.tags


def test_sentences_view_is_decoded_from_the_arrays():
    corpus = TokenizedCorpus.from_sentences([[("a", "N"), ("b", None)], [], [("a", "")]])
    assert corpus.words == ("a", "b")
    assert corpus.tags == (None, "N", "")
    np.testing.assert_array_equal(corpus.word_ids, [0, 1, 0])
    np.testing.assert_array_equal(corpus.tag_ids, [1, 0, 2])
    np.testing.assert_array_equal(corpus.offsets, [0, 2, 3])
    assert corpus.sentences == ((("a", "N"), ("b", None)), (("a", ""),))
    assert not corpus.word_ids.flags.writeable


#: Bytes one chunk position may add to a peak: an int64 position and an
#: int64 key.
CHUNK_POSITION_BYTES = 16


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    """The default ``gen-corpus --seed 2`` corpus and pairs files."""
    root = tmp_path_factory.mktemp("desk")
    corpus, pairs = root / "corpus.txt", root / "pairs.tsv"
    write_synth_corpus(2, corpus, pairs)
    return corpus, read_pairs(pairs)


def traced_peak(fn):
    """(result, tracemalloc's peak during ``fn()`` above the memory before it)."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, tracemalloc.get_traced_memory()[1] - before


@pytest.mark.parametrize("chunk", [1 << 12, None])
def test_stage_peaks_stay_within_the_corpus_plus_one_chunk(desk_corpus, chunk):
    """No corpus stage holds per-token memory beyond the corpus arrays:
    each peak above them is at most 2 B/token plus one chunk's worth."""
    path, pairs = desk_corpus
    nouns = sorted({noun for args in pairs.values() for noun in args})
    tracemalloc.start()
    try:
        with chunk_length(chunk):
            corpus, read_peak = traced_peak(lambda: read_corpus(path))
            held = sum(a.nbytes for a in (corpus.word_ids, corpus.tag_ids, corpus.offsets))
            peaks = {"read_corpus": read_peak - held}
            vocab, peaks["build_vocab"] = traced_peak(lambda: build_vocab(corpus))
            basis = select_basis(vocab, corpus, 100)
            table, peaks["count_cooccurrence"] = traced_peak(
                lambda: count_cooccurrence(corpus, nouns, basis))
            peaks["build_compound_vectors"] = max(
                traced_peak(lambda: build_compound_vectors(
                    corpus, table, basis, head, sorted(pairs[head]),
                    pos_class_of(head, corpus)))[1]
                for head in sorted(pairs))
            bound = 2 * corpus.n_total + CHUNK_POSITION_BYTES * _kernels._CHUNK
    finally:
        tracemalloc.stop()
    over = {stage: f"{peak / corpus.n_total:.2f} B/token"
            for stage, peak in peaks.items() if peak > bound}
    assert not over, f"bound {bound / corpus.n_total:.2f} B/token: {over}"
