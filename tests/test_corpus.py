import math
import re

import numpy as np
import pytest

from lingmat.corpus import (
    BasisSpec,
    CorpusError,
    Thresholds,
    TokenizedCorpus,
    build_compound_vectors,
    build_noun_vectors,
    build_vocab,
    compound_spans,
    count_cooccurrence,
    ppmi,
    read_corpus,
    read_pairs,
    read_vectors_dir,
    select_basis,
    select_dataset,
    write_vectors_dir,
)
from lingmat.corpus import DistVector
from lingmat.matrix_core import ParseError
from lingmat.synth import SynthConfig, generate_corpus, write_synth_corpus

from oracles import window_counts_bruteforce


def corpus_of(text):
    sentences = [[(w.rpartition("|")[0] or w,
                   w.rpartition("|")[2] if "|" in w else None)
                  for w in line.split()]
                 for line in text.strip().split("\n") if line.split()]
    return TokenizedCorpus.from_sentences(sentences)


class TestVocab:
    def test_simple_counts(self):
        vocab = build_vocab(corpus_of("a b a"))
        assert vocab == {"a": 2, "b": 1}

    def test_frequencies_sum_to_total(self):
        c = corpus_of("a b c\nb c d e\na a")
        assert sum(build_vocab(c).values()) == c.n_total == 9

    def test_empty_corpus_errors(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        with pytest.raises(CorpusError, match="empty"):
            read_corpus(path)


class TestBasis:
    def test_toy_selection(self):
        c = corpus_of("a b c a b a\nd e d")
        basis = select_basis(build_vocab(c), c, 3)
        assert basis.words == ("a", "b", "d")

    def test_ties_break_lexicographically(self):
        c = corpus_of("z q z q")
        basis = select_basis(build_vocab(c), c, 2)
        assert basis.words == ("q", "z")

    def test_too_few_content_words(self):
        c = corpus_of("a b a")
        with pytest.raises(CorpusError, match="only 2"):
            select_basis(build_vocab(c), c, 5)

    def test_sentence_order_irrelevant(self):
        c1 = corpus_of("a b c\nd e f")
        c2 = corpus_of("d e f\na b c")
        b1 = select_basis(build_vocab(c1), c1, 4)
        b2 = select_basis(build_vocab(c2), c2, 4)
        assert b1.words == b2.words

    def test_tagged_corpus_uses_content_tags(self):
        c = corpus_of("the|D cat|N sat|V the|D the|D mat|N")
        basis = select_basis(build_vocab(c), c, 3)
        assert "the" not in basis.words
        assert set(basis.words) == {"cat", "sat", "mat"}

    def test_stopwords_for_untagged(self):
        c = corpus_of("the cat the mat")
        basis = select_basis(build_vocab(c), c, 2, stopwords={"the"})
        assert basis.words == ("cat", "mat")

    def test_head_prefix(self):
        b = BasisSpec(("x", "y", "z"))
        assert b.head(2).words == ("x", "y")


class TestCooccurrence:
    def test_three_word_sentence(self):
        c = corpus_of("x y z")
        table = count_cooccurrence(c, ["x"], BasisSpec(("y", "z")), window=5)
        assert table.count("x", "y") == 1
        assert table.count("x", "z") == 1

    def test_window_one(self):
        c = corpus_of("x y z")
        table = count_cooccurrence(c, ["x"], BasisSpec(("y", "z")), window=1)
        assert table.count("x", "y") == 1
        assert table.count("x", "z") == 0

    def test_does_not_cross_sentences(self):
        c = corpus_of("x\ny")
        table = count_cooccurrence(c, ["x"], BasisSpec(("y",)), window=5)
        assert table.count("x", "y") == 0

    def test_self_pairs_by_position(self):
        c = corpus_of("x x")
        table = count_cooccurrence(c, ["x"], BasisSpec(("x",)), window=5)
        assert table.count("x", "x") == 2  # both orderings of the two positions

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(70)
        words = [f"w{i}" for i in range(12)]
        sentences = [
            [(words[int(k)], None) for k in rng.integers(0, 12, size=rng.integers(1, 15))]
            for _ in range(60)
        ]
        c = TokenizedCorpus.from_sentences(sentences)
        targets = words[:5]
        basis = BasisSpec(tuple(words[3:10]))
        for window in (1, 2, 5):
            table = count_cooccurrence(c, targets, basis, window)
            want = window_counts_bruteforce(c.sentences, targets, basis.words, window)
            got = {(t, ctx): n for t, row in table.counts.items()
                   for ctx, n in row.items()}
            assert got == want, window

    def test_shuffling_sentences_changes_nothing(self):
        rng = np.random.default_rng(71)
        sentences = [[(f"w{int(k)}", None) for k in rng.integers(0, 6, size=8)]
                     for _ in range(30)]
        c1 = TokenizedCorpus.from_sentences(sentences)
        c2 = TokenizedCorpus.from_sentences(list(reversed(sentences)))
        basis = BasisSpec(tuple(f"w{i}" for i in range(6)))
        t1 = count_cooccurrence(c1, ["w0", "w1"], basis)
        t2 = count_cooccurrence(c2, ["w0", "w1"], basis)
        assert t1.counts == t2.counts


class TestPpmi:
    def test_hand_value_log2(self):
        # count(c,t)=4, count(t)=8, count(c)=4, N=16 -> log 2
        from lingmat.corpus import CoocTable

        table = CoocTable(counts={"t": {"c": 4}}, totals={"t": 8, "c": 4},
                          n_total=16, window=5)
        assert ppmi(table, "t", "c") == pytest.approx(math.log(2.0), abs=1e-12)

    def test_independent_words_zero(self):
        from lingmat.corpus import CoocTable

        table = CoocTable(counts={"t": {"c": 2}}, totals={"t": 8, "c": 4},
                          n_total=16, window=5)
        assert ppmi(table, "t", "c") == 0.0

    def test_zero_joint_count_clamps(self):
        from lingmat.corpus import CoocTable

        table = CoocTable(counts={"t": {}}, totals={"t": 8, "c": 4},
                          n_total=16, window=5)
        assert ppmi(table, "t", "c") == 0.0

    def test_negative_pmi_clamps(self):
        from lingmat.corpus import CoocTable

        table = CoocTable(counts={"t": {"c": 1}}, totals={"t": 8, "c": 4},
                          n_total=16, window=5)
        assert ppmi(table, "t", "c") == 0.0

    def test_unseen_word_errors(self):
        from lingmat.corpus import CoocTable

        table = CoocTable(counts={}, totals={"t": 1}, n_total=1, window=5)
        with pytest.raises(CorpusError, match="does not occur"):
            ppmi(table, "nope", "t")


class TestNounVectors:
    def test_absent_noun_errors(self):
        c = corpus_of("a b c")
        basis = BasisSpec(("b", "c"))
        table = count_cooccurrence(c, ["a"], basis)
        with pytest.raises(CorpusError, match="does not occur"):
            build_noun_vectors(table, basis, ["zzz"])

    def test_zero_row_is_valid(self):
        c = corpus_of("a\nb\nc")
        basis = BasisSpec(("b", "c"))
        table = count_cooccurrence(c, ["a"], basis)
        (vec,) = build_noun_vectors(table, basis, ["a"])
        np.testing.assert_array_equal(vec.values, [0.0, 0.0])

    def test_values_nonnegative(self):
        rng = np.random.default_rng(72)
        sentences = [[(f"w{int(k)}", None) for k in rng.integers(0, 8, size=10)]
                     for _ in range(40)]
        c = TokenizedCorpus.from_sentences(sentences)
        basis = BasisSpec(tuple(f"w{i}" for i in range(8)))
        table = count_cooccurrence(c, ["w0", "w1"], basis)
        for v in build_noun_vectors(table, basis, ["w0", "w1"]):
            assert (v.values >= 0).all()


class TestCompounds:
    def test_adjective_spans_are_adjacent(self):
        c = corpus_of("big cat runs\ncat big\nbig dog\nbig cat")
        spans = compound_spans(c, "big", "cat", "adjective")
        assert spans == [(0, 0, 1), (3, 0, 1)]

    def test_verb_spans_within_window(self):
        c = corpus_of("eats the old cheese now")
        assert compound_spans(c, "eats", "cheese", "verb", window=5) == [(0, 0, 3)]
        assert compound_spans(c, "eats", "cheese", "verb", window=2) == []

    def test_compound_vector_window_counts(self):
        # "p q big cat r s": context of span (big cat) within window 2:
        # p,q on the left, r,s on the right
        c = corpus_of("p q big cat r s")
        basis = BasisSpec(("p", "q", "r", "s"))
        table = count_cooccurrence(c, ["cat"], basis, window=2)
        vecs, skipped = build_compound_vectors(c, table, basis, "big", ["cat"],
                                               "adjective", window=2)
        assert skipped == []
        (v,) = vecs
        assert v.word == "big cat"
        # every context word occurs once near the single compound occurrence
        n = c.n_total
        for i, w in enumerate(basis.words):
            expect = max(0.0, math.log(1 * n / (1 * table.totals[w])))
            assert v.values[i] == pytest.approx(expect)

    def test_span_interior_excluded(self):
        c = corpus_of("sees very old cheese here")
        basis = BasisSpec(("very", "old", "here"))
        table = count_cooccurrence(c, ["cheese"], basis, window=5)
        vecs, _ = build_compound_vectors(c, table, basis, "sees", ["cheese"],
                                         "verb", window=5)
        (v,) = vecs
        assert v.values[basis.index("very")] == 0.0  # inside the span
        assert v.values[basis.index("old")] == 0.0   # inside the span
        assert v.values[basis.index("here")] > 0.0

    def test_zero_occurrences_skipped_with_warning(self):
        c = corpus_of("big cat")
        basis = BasisSpec(("cat",))
        table = count_cooccurrence(c, ["cat"], basis)
        vecs, skipped = build_compound_vectors(c, table, basis, "big",
                                               ["cat", "dog"])
        assert [v.word for v in vecs] == ["big cat"]
        assert skipped == ["dog"]


class TestSelectDataset:
    def corpus_and_pairs(self):
        # five candidate adjectives with different frequencies/args
        lines = []
        lines += ["alpha x"] * 30
        lines += ["beta x"] * 30
        lines += ["gamma x"] * 30
        lines += ["delta x"] * 2      # too rare
        lines += ["epsilon x"] * 30
        c = corpus_of("\n".join(lines))
        pairs = {
            "alpha": {"n1": 10, "n2": 10, "n3": 1},
            "beta": {"n1": 10, "n2": 10},
            "gamma": {"n1": 10},           # too few surviving args
            "delta": {"n1": 10, "n2": 10},  # rare in corpus
            "epsilon": {"n1": 1, "n2": 1},  # all args below pair threshold
        }
        return c, pairs

    def test_engineered_fixture_selects_exactly_two(self):
        c, pairs = self.corpus_and_pairs()
        th = Thresholds(min_target_freq=10, drop_top=0, min_pair_count=5, min_args=2)
        sel = select_dataset(c, pairs, th)
        assert sel.words() == ["alpha", "beta"]
        assert sel.entry("alpha").args == (("n1", 10), ("n2", 10))

    def test_boundary_args_count(self):
        c, pairs = self.corpus_and_pairs()
        th = Thresholds(min_target_freq=10, drop_top=0, min_pair_count=5, min_args=3)
        sel = select_dataset(c, pairs, th)
        assert sel.words() == []  # alpha keeps only 2 args: below min_args=3

    def test_zero_thresholds_keep_everything(self):
        c, pairs = self.corpus_and_pairs()
        sel = select_dataset(c, pairs, Thresholds(0, 0, 0, 0))
        assert sel.words() == sorted(pairs)

    def test_drop_top_removes_most_frequent(self):
        lines = ["top x"] * 100 + ["mid x"] * 50
        c = corpus_of("\n".join(lines))
        pairs = {"top": {"n": 10}, "mid": {"n": 10}}
        th = Thresholds(min_target_freq=1, drop_top=1, min_pair_count=1, min_args=1)
        assert select_dataset(c, pairs, th).words() == ["mid"]

    def test_monotone_in_thresholds(self):
        c, pairs = self.corpus_and_pairs()
        base = Thresholds(min_target_freq=10, drop_top=0, min_pair_count=5, min_args=2)
        baseline = set(select_dataset(c, pairs, base).words())
        tighter = [
            Thresholds(31, 0, 5, 2), Thresholds(10, 1, 5, 2),
            Thresholds(10, 0, 11, 2), Thresholds(10, 0, 5, 3),
        ]
        for th in tighter:
            assert set(select_dataset(c, pairs, th).words()) <= baseline

    @pytest.mark.parametrize("field", ["min_target_freq", "drop_top",
                                       "min_pair_count", "min_args"])
    def test_negative_threshold_is_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            Thresholds(**{field: -3})
        assert getattr(Thresholds(**{field: 0}), field) == 0

    def test_pos_class_from_tags(self):
        c = corpus_of("big|J cat|N\nbig|J dog|N\nruns|V cat|N")
        pairs = {"big": {"cat": 1, "dog": 1}, "runs": {"cat": 1}}
        sel = select_dataset(c, pairs, Thresholds(0, 0, 0, 0))
        assert sel.entry("big").pos_class == "adjective"
        assert sel.entry("runs").pos_class == "verb"


class TestPairsFile:
    def test_roundtrip(self, tmp_path):
        from lingmat.corpus import write_pairs

        pairs = {"big": {"cat": 3, "dog": 1}, "old": {"cat": 2}}
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, path)
        assert read_pairs(path) == pairs

    def test_malformed_line_names_lineno(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("big\tcat\t3\nbad line\n")
        with pytest.raises(CorpusError, match="pairs.tsv:2"):
            read_pairs(path)

    def test_non_integer_count(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("big\tcat\tx\n")
        with pytest.raises(CorpusError, match="not an integer"):
            read_pairs(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_pairs(tmp_path / "nope.tsv")


class TestVectorsDir:
    def test_roundtrip(self, tmp_path):
        vecs = [DistVector("red car", np.array([0.0, 1.5])),
                DistVector("car", np.array([2.0, 0.0]))]
        write_vectors_dir(vecs, tmp_path / "v")
        back = read_vectors_dir(tmp_path / "v")
        assert set(back) == {"red car", "car"}
        np.testing.assert_array_equal(back["red car"].values, [0.0, 1.5])

    def test_rewrite_removes_stale_vector_files(self, tmp_path):
        a = DistVector("a", np.array([1.0, 2.0]))
        b = DistVector("b", np.array([3.0, 4.0]))
        write_vectors_dir([a, b], tmp_path / "v")
        (tmp_path / "v" / "notes.txt").write_text("kept\n")
        write_vectors_dir([a], tmp_path / "v")
        assert sorted(p.name for p in (tmp_path / "v").iterdir()) == [
            "labels.json", "notes.txt", "vectors.npy"]
        back = read_vectors_dir(tmp_path / "v")
        assert list(back) == ["a"]
        np.testing.assert_array_equal(back["a"].values, [1.0, 2.0])

    def test_vector_named_manifest_keeps_its_own_file(self, tmp_path):
        vecs = [DistVector("manifest", np.array([1.0, 2.0])),
                DistVector("labels.json", np.array([0.5, 0.0])),
                DistVector("car", np.array([3.0, 0.0]))]
        labels = write_vectors_dir(vecs, tmp_path / "v")
        assert labels == ["manifest", "labels.json", "car"]
        assert sorted(p.name for p in (tmp_path / "v").iterdir()) == [
            "labels.json", "vectors.npy"]
        back = read_vectors_dir(tmp_path / "v")
        assert list(back) == labels
        for v in vecs:
            np.testing.assert_array_equal(back[v.word].values, v.values)

    def test_empty_vector_set_round_trips(self, tmp_path):
        assert write_vectors_dir([], tmp_path / "v") == []
        assert read_vectors_dir(tmp_path / "v") == {}

    def test_negative_entry_names_the_path(self, tmp_path):
        write_vectors_dir([DistVector("a", np.array([1.0, 2.0]))], tmp_path)
        np.save(tmp_path / "vectors.npy", np.array([[1.0, -2.0]]))
        with pytest.raises(ParseError, match=re.escape(str(tmp_path / "vectors.npy"))):
            read_vectors_dir(tmp_path)


class TestSyntheticGenerator:
    def test_deterministic(self):
        cfg = SynthConfig(n_sentences=200)
        s1, p1 = generate_corpus(5, cfg)
        s2, p2 = generate_corpus(5, cfg)
        assert s1 == s2 and p1 == p2

    def test_different_seeds_differ(self):
        cfg = SynthConfig(n_sentences=200)
        assert generate_corpus(1, cfg)[0] != generate_corpus(2, cfg)[0]

    def test_pairs_match_adjacency_scan(self, tmp_path):
        cfg = SynthConfig(n_sentences=400)
        stats = write_synth_corpus(9, tmp_path / "c.txt", tmp_path / "p.tsv", cfg)
        corpus = read_corpus(tmp_path / "c.txt")
        pairs = read_pairs(tmp_path / "p.tsv")
        adjectives = {f"adj{i:02d}" for i in range(cfg.n_adjectives)}
        scanned: dict = {}
        for sent in corpus.sentences:
            for i in range(len(sent) - 1):
                w, nxt = sent[i][0], sent[i + 1][0]
                if w in adjectives and nxt.startswith("n"):
                    scanned.setdefault(w, {})
                    scanned[w][nxt] = scanned[w].get(nxt, 0) + 1
        assert scanned == pairs
        assert stats["tokens"] == corpus.n_total

    def test_corpus_is_tagged(self, tmp_path):
        write_synth_corpus(3, tmp_path / "c.txt", tmp_path / "p.tsv",
                           SynthConfig(n_sentences=50))
        corpus = read_corpus(tmp_path / "c.txt")
        assert corpus.tagged
        tags = {tok[1] for sent in corpus.sentences for tok in sent}
        assert tags == {"N", "J", "F"}

    def test_config_validation(self):
        with pytest.raises(ValueError, match="multiples"):
            SynthConfig(tier_sizes=(50, 30, 20))
        with pytest.raises(ValueError, match="tilt"):
            SynthConfig(tilt=1.5)
