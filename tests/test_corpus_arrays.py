"""The integer-encoded corpus against the per-token oracles.

Random tagged and untagged corpora go through the array paths and through
the oracles in ``oracles.py``; every result must match exactly, PPMI
values bit for bit.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    select_basis,
)

import oracles

WORDS = ("a", "b", "big", "cat", "eats", "x")
TAGS = ("N", "NN", "V", "vb", "J", "R", "D", "F", "")

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
separator = st.sampled_from([" ", "  ", "\t", "\x0c", "\u2028"])
line_end = st.sampled_from(["\n", "\r\n"])


@st.composite
def corpus_text(draw, token=tagged_token):
    """Corpus file text: token lines, blank lines and mixed line endings."""
    lines = []
    for toks in draw(st.lists(st.lists(token, max_size=9), min_size=1, max_size=12)):
        seps = draw(st.lists(separator, min_size=len(toks), max_size=len(toks)))
        body = "".join(s + t for s, t in zip(seps, toks))
        lines.append(body + draw(line_end))
    return "".join(lines)


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


@settings(max_examples=80, deadline=None)
@given(any_corpus)
def test_read_corpus_round_trip(text):
    corpus, sentences = read_both(text)
    if corpus is None:
        return
    assert corpus.sentences == sentences
    assert corpus.n_total == sum(len(s) for s in sentences)
    assert corpus.tagged == oracles.is_tagged(sentences)
    assert corpus.word_ids.dtype == np.int32
    assert corpus.tag_ids.dtype == np.int8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.tuples(word, st.one_of(st.none(), tag)), max_size=6),
                max_size=8))
def test_from_sentences_round_trip(sentences):
    corpus = TokenizedCorpus.from_sentences(sentences)
    want = tuple(tuple(s) for s in sentences if s)
    assert corpus.sentences == want
    assert corpus.tagged == oracles.is_tagged(want)
    if want:
        assert list(build_vocab(corpus).items()) == list(oracles.vocab(want).items())


@settings(max_examples=50, deadline=None)
@given(any_corpus, st.sets(word))
def test_vocab_basis_and_pos_class(text, stopwords):
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
    table = count_cooccurrence(corpus, targets, basis, window)
    got = {(t, c): n for t, row in table.counts.items() for c, n in row.items()}
    assert got == oracles.window_counts_bruteforce(sentences, targets, basis.words,
                                                   window)


@settings(max_examples=80, deadline=None)
@given(any_corpus, st.integers(1, 12), st.sampled_from(["adjective", "verb", "unknown"]))
def test_compounds_match_oracle(text, window, pos_class):
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
        vectors, skipped = build_compound_vectors(corpus, table, basis, target, nouns,
                                                  pos_class, window)
        assert skipped == [n for n in nouns if not spans[n]]
        assert [v.word for v in vectors] == [f"{target} {n}" for n in nouns if spans[n]]
        for v in vectors:
            noun = v.word[len(target) + 1:]
            want = oracles.compound_values(sentences, spans[noun], basis.words, window)
            assert v.values.tobytes() == want.tobytes(), v.word


def test_edge_case_tokens_and_lines(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes("word| |tag a|b|N\r\n\n   \nsolo\nx\x0cy\u2028z|J\n".encode())
    corpus = read_corpus(path)
    assert corpus.sentences == (
        (("word", None), ("|tag", None), ("a|b", "N")),
        (("solo", None),),
        (("x", None), ("y", None), ("z", "J")),
    )
    assert corpus.tagged
    assert pos_class_of("z", corpus) == "adjective"
    assert pos_class_of("solo", corpus) == "unknown"
    # a window longer than every sentence counts whole sentences
    table = count_cooccurrence(corpus, ["solo", "x"], BasisSpec(("y", "z", "solo")), 50)
    assert table.counts == {"solo": {}, "x": {"y": 1, "z": 1}}


def test_sentences_view_is_decoded_from_the_arrays():
    corpus = TokenizedCorpus.from_sentences([[("a", "N"), ("b", None)], [], [("a", "")]])
    assert corpus.words == ("a", "b")
    assert corpus.tags == (None, "N", "")
    np.testing.assert_array_equal(corpus.word_ids, [0, 1, 0])
    np.testing.assert_array_equal(corpus.tag_ids, [1, 0, 2])
    np.testing.assert_array_equal(corpus.offsets, [0, 2, 3])
    assert corpus.sentences == ((("a", "N"), ("b", None)), (("a", ""),))
    assert not corpus.word_ids.flags.writeable
