"""Corpus ingestion: vocabulary, windowed co-occurrence counting, PPMI
weighting, dataset selection, and noun/compound distributional vectors.

Corpus format: UTF-8 text, one sentence per line, tokens separated by
whitespace (exactly as ``str.split`` splits; see `read_corpus`),
optionally tagged as ``word|POS``.  A corpus counts as tagged if
any token carries a tag; content words are those whose tag starts with
N, V, J or R.  In an untagged corpus every word is content: no stopword
list ships, and the pipeline passes `select_basis` none.  Argument pairs
arrive from a tab-separated ``head<TAB>argument<TAB>count`` file
(dependency analysis is upstream of this package); lines starting with
'#' are comments.

A vector set, from the PPMI step to the training sets, is a pair
(labels, values): one float64 (N, dim) array whose row i is the vector of
label i, the layout of ``vectors.npy``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _kernels
from .matrix_core import ParseError, atomic_open, check_int, read_stack, write_stack


class CorpusError(ValueError):
    pass


CONTENT_TAG_PREFIXES = ("N", "V", "J", "R")

DEFAULT_WINDOW = 5


@dataclass(frozen=True, eq=False)
class TokenizedCorpus:
    """An integer-encoded corpus.

    ``word_ids`` and ``tag_ids`` hold one entry per token, ``offsets``
    delimits the sentences, and ``words``/``tags`` map ids back to strings
    (``tags[0]`` is None, the id of an untagged token).  Every statistic is
    derived from these arrays and cached on the corpus; they are the only
    per-token memory that outlives a chunk of ``_kernels.chunks`` or a
    block of the reader.
    """

    word_ids: np.ndarray
    tag_ids: np.ndarray
    offsets: np.ndarray
    words: tuple
    tags: tuple

    def __post_init__(self):
        for arr in (self.word_ids, self.tag_ids, self.offsets):
            arr.setflags(write=False)

    @classmethod
    def from_sentences(cls, sentences) -> "TokenizedCorpus":
        """From sentences of (word, tag) tokens, with a dict per table;
        empty sentences are dropped."""
        words, tags = _FirstSeenIds(), _FirstSeenIds({None: 0})
        word_ids, tag_ids, offsets = [], [], [0]
        for sentence in sentences:
            for word, tag in sentence:
                word_ids.append(words[word])
                tag_ids.append(tags[tag])
            if len(word_ids) > offsets[-1]:
                offsets.append(len(word_ids))
        return cls(np.array(word_ids, dtype=np.int32),
                   np.array(tag_ids, dtype=_tag_dtype(len(tags))),
                   np.array(offsets, dtype=np.int64), tuple(words), tuple(tags))

    @property
    def n_total(self) -> int:
        return self.word_ids.size

    @property
    def tagged(self) -> bool:
        """True if any token carries a tag."""
        return len(self.tags) > 1

    @property
    def sentences(self) -> tuple:
        """Sentences as tuples of (word, tag), decoded on every access.

        For tests and oracles; the pipeline works on the arrays.
        """
        toks = list(zip(map(self.words.__getitem__, self.word_ids.tolist()),
                        map(self.tags.__getitem__, self.tag_ids.tolist())))
        bounds = self.offsets.tolist()
        return tuple(tuple(toks[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))

    @cached_property
    def word_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def word_tag_counts(self) -> np.ndarray:
        """Token counts per (word id, tag id), shape (len(words), len(tags))."""
        n_tags = len(self.tags)
        size = len(self.words) * n_tags
        counts = np.zeros(size, dtype=np.int64)
        for lo, hi in _kernels.chunks(self.n_total):
            key = self.word_ids[lo:hi].astype(np.int64)
            key *= n_tags
            key += self.tag_ids[lo:hi]
            counts += np.bincount(key, minlength=size)
        counts = counts.reshape(len(self.words), n_tags)
        counts.setflags(write=False)
        return counts

    def lookup(self, words) -> np.ndarray:
        """Per word id, the index of that word in `words`, or -1."""
        out = np.full(len(self.words), -1, dtype=np.int32)
        for i, w in enumerate(words):
            j = self.word_index.get(w)
            if j is not None:
                out[j] = i
        return out


class _FirstSeenIds(dict):
    """Maps each new key to the next id, in first-occurrence order."""

    def __missing__(self, key):
        self[key] = n = len(self)
        return n


def _tag_dtype(n_tags):
    return np.int8 if n_tags <= 128 else np.int32


def _parse_token(raw: str):
    if "|" in raw:
        word, _, tag = raw.rpartition("|")
        if word:
            return (word, tag or None)
    return (raw, None)


def _room(buf, used, need):
    """`buf` if it holds `need` entries, else a copy of its first `used`
    entries in a buffer at least twice as large."""
    if need <= buf.size:
        return buf
    grown = np.empty(max(2 * buf.size, need), dtype=buf.dtype)
    grown[:used] = buf[:used]
    return grown


class _BlockEncoder:
    """Encodes a corpus block by block into one word-id, one tag-id and
    one offset buffer, sized by `_token_count_hint` and doubled when full.

    Each token's bytes map to a node of a `_kernels.TypeTable`.  A new
    type is decoded and parsed once, at its first position, which fixes its
    word and tag ids; the ids of a block's tokens are then two gathers from
    the per-node arrays.
    """

    def __init__(self, path, capacity):
        tokens, lines = capacity
        self.path = path
        self.table = _kernels.TypeTable()
        self.word_of = np.empty(0, dtype=np.int32)  # per node: word id, or -1
        self.tag_of = np.empty(0, dtype=np.int32)
        self.words, self.tags = _FirstSeenIds(), _FirstSeenIds({None: 0})
        self.word_ids = np.empty(tokens, dtype=np.int32)
        self.tag_ids = np.empty(tokens, dtype=np.int8)
        self.offsets = np.empty(lines, dtype=np.int64)
        self.n = self.n_sentences = 0
        self.lines = 0  # line ends before the current block
        self.after_cr = False  # whether the previous block ended with "\r"

    def add(self, block: bytes):
        padded = block + _kernels.PAD
        start, length, first = _kernels.tokens(padded)
        known = self.table.size  # a token whose node is newer is of a new type
        node = self.table.nodes(padded, start, length)
        if self.word_of.size < self.table.size:
            grow = np.full(2 * self.table.size - self.word_of.size, -1, dtype=np.int32)
            self.word_of = np.concatenate([self.word_of, grow])
            self.tag_of = np.concatenate([self.tag_of, grow])
        if node.size and node.max() >= known:
            self._add_types(block, start, length, node, known)
        n, k = self.n, node.size
        self.word_ids = _room(self.word_ids, n, n + k)
        self.tag_ids = _room(self.tag_ids, n, n + k)
        np.take(self.word_of, node, out=self.word_ids[n:n + k])
        self.tag_ids[n:n + k] = self.tag_of.take(node)
        s, m = self.n_sentences, first.size
        self.offsets = _room(self.offsets, s, s + m + 1)
        np.add(first, n, out=self.offsets[s:s + m])
        self.n, self.n_sentences = n + k, s + m
        self.lines += _kernels.line_ends(block, self.after_cr)
        self.after_cr = block.endswith(b"\r")

    def _add_types(self, block, start, length, node, known):
        """Decode and parse each new type once, in order of first position."""
        new = np.flatnonzero(node >= known)
        _, first = np.unique(node[new], return_index=True)
        for t in sorted(new[first].tolist()):
            lo = int(start[t])
            raw = block[lo:lo + int(length[t])]
            try:
                word, tag = _parse_token(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                line = self.lines + _kernels.line_ends(block[:lo], self.after_cr) + 1
                raise CorpusError(f"{self.path}:{line}: invalid UTF-8 ({exc.reason}) "
                                  f"in token {raw[:40]!r}") from None
            self.word_of[node[t]] = self.words[word]
            self.tag_of[node[t]] = self.tags[tag]
        dtype = _tag_dtype(len(self.tags))
        if dtype != self.tag_ids.dtype:
            self.tag_ids = self.tag_ids.astype(dtype)

    def corpus(self) -> TokenizedCorpus:
        """The encoded corpus; the buffers are cut to size in place."""
        self.offsets = _room(self.offsets, self.n_sentences, self.n_sentences + 1)
        self.offsets[self.n_sentences] = self.n
        for buf, size in ((self.word_ids, self.n), (self.tag_ids, self.n),
                          (self.offsets, self.n_sentences + 1)):
            buf.resize(size, refcheck=False)
        return TokenizedCorpus(self.word_ids, self.tag_ids, self.offsets,
                               tuple(self.words), tuple(self.tags))


def _token_count_hint(path) -> tuple[int, int]:
    """The reader's buffer sizes: spaces plus newlines plus one, the token
    count of a file whose tokens are separated by single spaces, and
    newlines plus one, its sentence count plus one when no line is blank.
    Other layouts only make the buffers grow or shrink.  (0, 0) for a pipe
    or another file that is not regular, which cannot be read twice."""
    if not os.path.isfile(path):
        return 0, 0
    tokens = lines = 1
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            newlines = block.count(b"\n")
            tokens += block.count(b" ") + newlines
            lines += newlines
    return tokens, lines


def read_corpus(path) -> TokenizedCorpus:
    """The corpus at `path`, read in byte blocks after a byte count that
    sizes the id buffers.

    The tokens and sentences are those of text-mode UTF-8 reading with
    ``str.split`` per line: the separators are the bytes 09-0D, 1C-1F and
    20 and the UTF-8 forms of the 19 non-ASCII whitespace code points,
    ``\\n``, ``\\r`` and ``\\r\\n`` end a sentence, and lines without tokens
    drop.  Numpy tokenizes and looks up each block; Python runs once per
    distinct token, which it decodes strictly (invalid UTF-8 is a
    `CorpusError` naming ``path:line``) and parses with `_parse_token`.
    """
    encoder = _BlockEncoder(path, _token_count_hint(path))
    with open(path, "rb") as fh:
        for block in _kernels.blocks(fh):
            encoder.add(block)
    corpus = encoder.corpus()
    if corpus.n_total == 0:
        raise CorpusError(f"{path}: corpus is empty")
    return corpus


def build_vocab(corpus: TokenizedCorpus) -> dict[str, int]:
    """Exact surface-form frequencies; sums to the total token count."""
    if corpus.n_total == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    return dict(zip(corpus.words, corpus.word_tag_counts.sum(axis=1).tolist()))


def _content_words(corpus: TokenizedCorpus, stopwords) -> list[str]:
    if corpus.tagged:
        content = np.array([t is not None and t[:1].upper() in CONTENT_TAG_PREFIXES
                            for t in corpus.tags])
        mask = corpus.word_tag_counts[:, content].any(axis=1)
        return [corpus.words[i] for i in np.flatnonzero(mask)]
    return [w for w in corpus.words if w not in stopwords]


@dataclass(frozen=True, eq=False)
class BasisSpec:
    """The ordered context words; index i everywhere refers to words[i]."""

    words: tuple[str, ...]

    def __post_init__(self):
        words = tuple(self.words)
        if len(set(words)) != len(words):
            raise ValueError("basis words must be distinct")
        if not words:
            raise ValueError("basis must be nonempty")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(words)})

    @property
    def size(self) -> int:
        return len(self.words)

    def index(self, word: str) -> int:
        return self._index[word]

    def head(self, size: int) -> "BasisSpec":
        """The first `size` words; valid because the order is by frequency."""
        if size > self.size:
            raise ValueError(f"cannot take {size} words from a basis of {self.size}")
        return BasisSpec(self.words[:size])


def select_basis(vocab: dict[str, int], corpus: TokenizedCorpus, size: int,
                 stopwords=frozenset()) -> BasisSpec:
    """Top-`size` content words by frequency, ties broken lexicographically."""
    content = _content_words(corpus, stopwords)
    if len(content) < size:
        raise CorpusError(
            f"need {size} content words for the basis but only {len(content)} are available"
        )
    ranked = sorted(content, key=lambda w: (-vocab[w], w))
    return BasisSpec(tuple(ranked[:size]))


@dataclass(frozen=True, eq=False)
class CoocTable:
    """Sparse windowed co-occurrence counts plus the unigram totals.

    counts[target][context] holds the number of position pairs at distance
    <= window inside one sentence; rows exist for the requested targets,
    columns for the requested contexts.
    """

    counts: dict[str, dict[str, int]]
    totals: dict[str, int]
    n_total: int
    window: int

    def count(self, target: str, context: str) -> int:
        return self.counts.get(target, {}).get(context, 0)


def count_cooccurrence(corpus: TokenizedCorpus, targets, basis: BasisSpec,
                       window: int = DEFAULT_WINDOW) -> CoocTable:
    """Windowed target-context pair counts, not crossing sentence
    boundaries; a position never pairs with itself."""
    if window < 1:
        raise ValueError("window must be >= 1")
    targets = tuple(dict.fromkeys(targets))  # dedupe, keep order
    dense = _kernels.window_pair_counts(corpus.word_ids, corpus.lookup(targets),
                                        corpus.lookup(basis.words), corpus.offsets,
                                        window, len(targets), basis.size)
    counts: dict[str, dict[str, int]] = {}
    for t, word in enumerate(targets):
        row = dense[t]
        nz = np.nonzero(row)[0]
        counts[word] = {basis.words[c]: int(row[c]) for c in nz}
    totals = build_vocab(corpus)
    return CoocTable(counts=counts, totals=totals, n_total=corpus.n_total,
                     window=window)


def _ppmi(joint, totals, table: CoocTable, basis: BasisSpec) -> np.ndarray:
    """PPMI, natural log, clamped at 0, from the (N, basis.size) integer
    joint counts of N targets and their totals; 0 where a count is 0."""
    cc = np.array([table.totals.get(w, 0) for w in basis.words], dtype=np.int64)
    absent = np.flatnonzero((cc <= 0) & joint.any(axis=0))
    if absent.size:
        raise CorpusError(f"context word {basis.words[absent[0]]!r} does not occur in the corpus")
    out = np.zeros(joint.shape)
    rows, cols = np.nonzero(joint)
    out[rows, cols] = np.maximum(0.0, np.log(joint[rows, cols] * table.n_total
                                             / (totals[rows] * cc[cols])))
    return out


def ppmi(table: CoocTable, target: str, context: str) -> float:
    """Positive pointwise mutual information, natural log, clamped at 0."""
    ct = table.totals.get(target, 0)
    if ct <= 0:
        raise CorpusError(f"target word {target!r} does not occur in the corpus")
    if table.totals.get(context, 0) <= 0:
        raise CorpusError(f"context word {context!r} does not occur in the corpus")
    return float(_ppmi(np.array([[table.count(target, context)]]), np.array([ct]), table,
                       BasisSpec((context,)))[0, 0])


def build_noun_vectors(table: CoocTable, basis: BasisSpec, nouns
                       ) -> tuple[list[str], np.ndarray]:
    """The vector set of the nouns, in the given order, over the basis."""
    nouns = list(nouns)
    for noun in nouns:
        if table.totals.get(noun, 0) <= 0:
            raise CorpusError(f"noun {noun!r} does not occur in the corpus")
        if noun not in table.counts:
            raise CorpusError(f"noun {noun!r} was not counted as a target")
    joint = np.array([[table.counts[n].get(c, 0) for c in basis.words] for n in nouns],
                     dtype=np.int64).reshape(len(nouns), basis.size)
    totals = np.array([table.totals[n] for n in nouns], dtype=np.int64)
    return nouns, _ppmi(joint, totals, table, basis)


def _reach_of(pos_class: str, window: int) -> int:
    if pos_class not in ("adjective", "verb", "unknown"):
        raise ValueError(f"unknown part-of-speech class {pos_class!r}")
    return 1 if pos_class in ("adjective", "unknown") else window


def head_positions(corpus: TokenizedCorpus, heads) -> dict[str, np.ndarray]:
    """The int64 corpus positions of each head word, in position order.

    One scan finds every head; a counting sort, sized by the cached
    `word_tag_counts`, places each chunk's positions in one array that the
    returned arrays are views of.
    """
    heads = list(dict.fromkeys(heads))
    totals = corpus.word_tag_counts.sum(axis=1)
    counts = np.array([totals[corpus.word_index[h]] if h in corpus.word_index else 0
                       for h in heads], dtype=np.int64)
    end = np.cumsum(counts)
    free = end - counts  # the next free slot of each head
    out = np.empty(int(end[-1]) if heads else 0, dtype=np.int64)
    for pos, head in _kernels.scan(corpus.word_ids, corpus.lookup(heads)):
        order = np.argsort(head, kind="stable")
        head = head[order]
        n = np.bincount(head, minlength=len(heads))
        rank = np.arange(head.size) - (np.cumsum(n) - n)[head]
        out[free[head] + rank] = pos[order]
        free += n
    return dict(zip(heads, np.split(out, end[:-1])))


def _spans(corpus, pos, nouns, reach):
    """Compound spans of the target at positions `pos` with each of
    `nouns`, as arrays.

    For each target occurrence, each distinct noun takes its nearest
    occurrence within reach to the right as the compound span.  Returns
    (start, end, noun index, sentence index), ordered by start and then
    by noun index; start and end are corpus positions.
    """
    none = np.zeros(0, dtype=np.int64)
    sent = np.searchsorted(corpus.offsets, pos, side="right")
    hi = corpus.offsets[sent]
    noun_of = corpus.lookup(nouns).astype(np.int64)
    found = [(none, none, none)]
    for q in range(1, reach + 1):
        k = np.flatnonzero(pos + q < hi)
        noun = noun_of[corpus.word_ids[pos[k] + q]]
        hit = noun >= 0
        found.append((k[hit], np.full(hit.sum(), q), noun[hit]))
    k, q, noun = (np.concatenate(parts) for parts in zip(*found))
    # keep the nearest occurrence (smallest q, found first) of each noun
    _, first = np.unique(k * len(nouns) + noun, return_index=True)
    k, q, noun = k[first], q[first], noun[first]
    return pos[k], pos[k] + q, noun, sent[k] - 1


def compound_spans(corpus: TokenizedCorpus, target: str, noun: str,
                   pos_class: str = "adjective",
                   window: int = DEFAULT_WINDOW) -> list[tuple[int, int, int]]:
    """Corpus positions of the compound, as (sentence, start, end) spans.

    Adjective compounds are the positions where the target immediately
    precedes the noun; verb compounds allow the noun anywhere within
    `window` tokens to the right of the verb.  The span covers every
    token from target to noun inclusive.
    """
    start, end, _, sent = _spans(corpus, head_positions(corpus, [target])[target], [noun],
                                 _reach_of(pos_class, window))
    base = corpus.offsets[sent]
    return list(zip(sent.tolist(), (start - base).tolist(), (end - base).tolist()))


def build_compound_vectors(corpus: TokenizedCorpus, table: CoocTable,
                           basis: BasisSpec, target: str, nouns,
                           pos_class: str = "adjective",
                           window: int | None = None, positions=None
                           ) -> tuple[tuple[list[str], np.ndarray], list[str]]:
    """PPMI vectors for target-noun compounds, treating each compound
    occurrence as one token spanning its positions.

    Context is every token within `window` of the span on either side,
    excluding the span itself.  `positions` are the target's corpus
    positions as `head_positions` gives them, which one scan finds for
    every head; None scans for this target alone.  Returns the vector
    set, labelled ``"<target> <noun>"``, and the skipped nouns, whose
    compound never occurs.
    """
    if window is None:
        window = table.window
    if positions is None:
        positions = head_positions(corpus, [target])[target]
    distinct = list(dict.fromkeys(nouns))
    start, end, noun, sent = _spans(corpus, positions, distinct,
                                    _reach_of(pos_class, window))
    totals = np.bincount(noun, minlength=len(distinct))
    joint = np.zeros((len(distinct), basis.size), dtype=np.int64)
    _kernels.context_counts(start, end, corpus.offsets[sent], corpus.offsets[sent + 1],
                            noun * basis.size, corpus.word_ids,
                            corpus.lookup(basis.words), window, joint.reshape(-1))
    index = {n: i for i, n in enumerate(distinct)}
    kept = [index[n] for n in nouns if totals[index[n]]]
    labels = [f"{target} {distinct[i]}" for i in kept]
    skipped = [n for n in nouns if not totals[index[n]]]
    return (labels, _ppmi(joint[kept], totals[kept], table, basis)), skipped


# ---------------------------------------------------------------------------
# dataset selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Thresholds:
    """Selection thresholds; defaults are the full-scale study's values."""

    min_target_freq: int = 1000
    drop_top: int = 100
    min_pair_count: int = 100
    min_args: int = 100

    def __post_init__(self):
        for key, value in self.to_json_dict().items():
            if check_int(f"threshold {key}", value) < 0:
                raise ValueError(f"threshold {key} must be >= 0, got {value}")

    def to_json_dict(self) -> dict:
        return {"min_target_freq": self.min_target_freq, "drop_top": self.drop_top,
                "min_pair_count": self.min_pair_count, "min_args": self.min_args}

    @classmethod
    def from_json_dict(cls, obj) -> "Thresholds":
        if not isinstance(obj, dict):
            raise ValueError(f"thresholds must be a JSON object, got {obj!r}")
        unknown = sorted(set(obj) - set(cls.__dataclass_fields__))
        if unknown:
            raise ValueError(f"unknown threshold keys: {unknown}")
        return cls(**obj)


@dataclass(frozen=True)
class SelectionEntry:
    word: str
    pos_class: str           # adjective | verb | unknown
    freq: int
    args: tuple[tuple[str, int], ...]  # (noun, pair count), count order then lex


@dataclass(frozen=True, eq=False)
class DatasetSelection:
    entries: tuple[SelectionEntry, ...]

    def words(self) -> list[str]:
        return [e.word for e in self.entries]

    def entry(self, word: str) -> SelectionEntry:
        for e in self.entries:
            if e.word == word:
                return e
        raise KeyError(word)

    def to_json_dict(self) -> dict:
        return {"targets": [
            {"word": e.word, "pos_class": e.pos_class, "freq": e.freq,
             "args": [[n, c] for n, c in e.args]}
            for e in self.entries
        ]}

    @classmethod
    def from_json_dict(cls, obj) -> "DatasetSelection":
        """A missing ``targets`` key, or a target key, raises a ValueError
        that names it; so does a word or argument noun that is not a
        nonempty string, a ``pos_class`` other than adjective, verb or
        unknown, or a count that is not a JSON integer (`check_int`)."""
        try:
            return cls(entries=tuple(
                SelectionEntry(word=_word("word", t["word"]),
                               pos_class=_pos_class(t["pos_class"]),
                               freq=check_int("freq", t["freq"]),
                               args=tuple((_word("args noun", n), check_int("args count", c))
                                          for n, c in t["args"]))
                for t in obj["targets"]))
        except KeyError as exc:
            raise ValueError(f"dataset selection has no {exc} key") from None


def _word(key, value) -> str:
    if not (isinstance(value, str) and value):
        raise ValueError(f"{key} must be a nonempty string, got {value!r}")
    return value


def _pos_class(value) -> str:
    if value not in ("adjective", "verb", "unknown"):
        raise ValueError(f"pos_class must be adjective, verb or unknown, got {value!r}")
    return value


def read_pairs(path) -> dict[str, dict[str, int]]:
    """head<TAB>argument<TAB>count, summed per (head, argument); invalid UTF-8 names path:line."""
    pairs: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii() and any("\udc80" <= c <= "\udcff" for c in line):
                raise CorpusError(f"{path}:{lineno}: invalid UTF-8")
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise CorpusError(f"{path}:{lineno}: expected head<TAB>argument<TAB>count")
            head, arg, raw = fields
            try:
                count = int(raw)
            except ValueError:
                raise CorpusError(f"{path}:{lineno}: count {raw!r} is not an integer") from None
            if count < 0:
                raise CorpusError(f"{path}:{lineno}: negative count")
            pairs.setdefault(head, {})
            pairs[head][arg] = pairs[head].get(arg, 0) + count
    if not pairs:
        raise CorpusError(f"{path}: no argument pairs found")
    return pairs


def write_pairs(pairs: dict[str, dict[str, int]], path) -> None:
    with atomic_open(path) as fh:
        for head in sorted(pairs):
            for arg in sorted(pairs[head]):
                fh.write(f"{head}\t{arg}\t{pairs[head][arg]}\n")


def pos_class_of(word: str, corpus: TokenizedCorpus) -> str:
    """Majority vote of the word's tag letters; ties go to the first letter."""
    i = corpus.word_index.get(word)
    if not corpus.tagged or i is None:
        return "unknown"
    votes: dict[str, int] = {}
    for tag, n in zip(corpus.tags, corpus.word_tag_counts[i].tolist()):
        if tag and n:
            votes[tag[:1].upper()] = votes.get(tag[:1].upper(), 0) + n
    if not votes:
        return "unknown"
    top = max(sorted(votes), key=lambda k: votes[k])
    return {"J": "adjective", "V": "verb"}.get(top, "unknown")


def select_dataset(corpus: TokenizedCorpus, pairs: dict[str, dict[str, int]],
                   thresholds: Thresholds = Thresholds()) -> DatasetSelection:
    """Targets passing all thresholds, with their surviving argument lists.

    Candidates are the pair-file heads with corpus frequency at least
    min_target_freq; after sorting by frequency (ties lexicographic) the
    drop_top most frequent are discarded as uninformative.  Arguments
    below min_pair_count are dropped, then targets keeping fewer than
    min_args arguments are dropped.  Raising any threshold never adds a
    target.
    """
    vocab = build_vocab(corpus)
    candidates = [h for h in pairs if vocab.get(h, 0) >= thresholds.min_target_freq]
    candidates.sort(key=lambda w: (-vocab.get(w, 0), w))
    candidates = candidates[thresholds.drop_top:]
    entries = []
    for head in candidates:
        args = [(noun, cnt) for noun, cnt in pairs[head].items()
                if cnt >= thresholds.min_pair_count]
        if len(args) < max(thresholds.min_args, 1):
            continue
        args.sort(key=lambda nc: (-nc[1], nc[0]))
        entries.append(SelectionEntry(word=head, pos_class=pos_class_of(head, corpus),
                                      freq=vocab.get(head, 0), args=tuple(args)))
    entries.sort(key=lambda e: e.word)
    return DatasetSelection(entries=tuple(entries))


# ---------------------------------------------------------------------------
# vector directory: one float64 stack ``vectors.npy`` of shape (N, dim)
# plus the label manifest, the layout of ensemble directories
# ---------------------------------------------------------------------------

VECTORS_NAME = "vectors.npy"


def write_vectors_dir(vectors, dirpath) -> list[str]:
    """Write a (labels, values) vector set as one stack plus the label
    manifest (see `matrix_core.write_stack`); returns the labels."""
    labels, values = vectors
    if len(labels) != len(values):
        raise ValueError(f"{len(labels)} labels for {len(values)} vectors")
    return write_stack(zip(labels, values), dirpath, VECTORS_NAME)


def read_vectors_dir(dirpath) -> tuple[list[str], np.ndarray]:
    """The vector set of `write_vectors_dir`; every entry must be finite
    and non-negative."""
    labels, values = read_stack(dirpath, VECTORS_NAME, 2)
    if values.size and not (np.isfinite(values.max()) and values.min() >= 0):
        raise ParseError(f"{os.path.join(dirpath, VECTORS_NAME)}: vectors must be "
                         "finite and non-negative")
    return labels, values
