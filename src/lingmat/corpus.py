"""Corpus ingestion: vocabulary, windowed co-occurrence counting, PPMI
weighting, dataset selection, and noun/compound distributional vectors.

Corpus format: UTF-8 text, one sentence per line, tokens separated by
spaces, optionally tagged as ``word|POS``.  A corpus counts as tagged if
any token carries a tag; content words are those whose tag starts with
N, V, J or R.  In an untagged corpus every word is content: no stopword
list ships, and the pipeline passes `select_basis` none.  Argument pairs
arrive from a tab-separated ``head<TAB>argument<TAB>count`` file
(dependency analysis is upstream of this package); lines starting with
'#' are comments.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice

import numpy as np

from . import _kernels
from .matrix_core import ParseError, check_int, read_stack, write_stack


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
    per-token memory that outlives a chunk of ``_kernels.chunks``.
    """

    word_ids: np.ndarray
    tag_ids: np.ndarray
    offsets: np.ndarray
    words: tuple
    tags: tuple

    @classmethod
    def from_sentences(cls, sentences) -> "TokenizedCorpus":
        """From sentences of (word, tag) tokens; empty sentences are dropped."""
        return _encode(([tuple(tok) for tok in s] for s in sentences), tuple)

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


#: Lines `_encode` takes at a time; bounds the token strings alive at once.
_ENCODE_LINES = 256


class _FirstSeenIds(dict):
    """Maps each new key to the next id, in first-occurrence order."""

    def __missing__(self, key):
        self[key] = n = len(self)
        return n


def _encode(token_lists, parse, capacity=0) -> TokenizedCorpus:
    """Encode sentences of raw tokens in one pass.

    Each distinct raw token gets an id in first-occurrence order; `parse`
    then runs once per distinct raw token and maps it to (word, tag).  Raw
    ids are written, `_ENCODE_LINES` lines at a time, into one buffer of
    `capacity` tokens that is copied into one twice as large when full
    and cut to size in place at the end, so an exact capacity means one
    allocation and no copy.  The tag ids are gathered first, then the
    raw-id array is remapped to word ids in place, chunk by chunk.
    """
    raw_ids = _FirstSeenIds()
    raw = np.empty(capacity, dtype=np.int32)
    ends = [np.zeros(1, dtype=np.int64)]
    n = 0
    lines = iter(token_lists)
    while block := list(islice(lines, _ENCODE_LINES)):
        block = [toks for toks in block if toks]
        lengths = np.fromiter(map(len, block), dtype=np.int64, count=len(block))
        k = int(lengths.sum())
        if n + k > raw.size:
            grown = np.empty(max(2 * raw.size, n + k), dtype=np.int32)
            grown[:n] = raw[:n]
            raw = grown
        raw[n:n + k] = np.fromiter(map(raw_ids.__getitem__, chain.from_iterable(block)),
                                   dtype=np.int32, count=k)
        ends.append(n + np.cumsum(lengths))
        n += k
    raw.resize(n, refcheck=False)
    parsed = [parse(token) for token in raw_ids]
    word_index = _FirstSeenIds()
    tag_index = _FirstSeenIds({None: 0})
    raw_word = [word_index[word] for word, _ in parsed]
    raw_tag = [tag_index[tag] for _, tag in parsed]
    tag_dtype = np.int8 if len(tag_index) <= 128 else np.int32
    tag_ids = np.array(raw_tag, dtype=tag_dtype)[raw]
    word_of_raw = np.array(raw_word, dtype=np.int32)
    for lo, hi in _kernels.chunks(raw.size):
        raw[lo:hi] = word_of_raw.take(raw[lo:hi])
    word_ids = raw
    offsets = np.concatenate(ends)
    for arr in (word_ids, tag_ids, offsets):
        arr.setflags(write=False)
    return TokenizedCorpus(word_ids=word_ids, tag_ids=tag_ids, offsets=offsets,
                           words=tuple(word_index), tags=tuple(tag_index))


def _parse_token(raw: str):
    if "|" in raw:
        word, _, tag = raw.rpartition("|")
        if word:
            return (word, tag or None)
    return (raw, None)


def _token_count_hint(path) -> int:
    """Spaces plus newlines plus one: the token count of a file whose
    tokens are separated by single spaces, as `_encode`'s capacity.  Other
    layouts only make the buffer grow or shrink.  0 for a pipe or another
    file that is not regular, which cannot be read twice."""
    if not os.path.isfile(path):
        return 0
    n = 1
    with open(path, "rb") as fh:
        while block := fh.read(1 << 16):
            b = np.frombuffer(block, dtype=np.uint8)
            n += int(np.count_nonzero(b == ord(" ")) + np.count_nonzero(b == ord("\n")))
    return n


def read_corpus(path) -> TokenizedCorpus:
    """One pass over the file, after a byte count that sizes the id
    array; `_parse_token` runs once per distinct token."""
    with open(path, encoding="utf-8") as fh:
        corpus = _encode((line.split() for line in fh), _parse_token,
                         _token_count_hint(path))
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


def write_basis(basis: BasisSpec, path, header: str) -> None:
    """``header`` (a ``#`` comment line), then one basis word per line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header)
        for w in basis.words:
            fh.write(w + "\n")


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


def ppmi(table: CoocTable, target: str, context: str) -> float:
    """Positive pointwise mutual information, natural log, clamped at 0."""
    ct = table.totals.get(target, 0)
    cc = table.totals.get(context, 0)
    if ct <= 0:
        raise CorpusError(f"target word {target!r} does not occur in the corpus")
    if cc <= 0:
        raise CorpusError(f"context word {context!r} does not occur in the corpus")
    joint = table.count(target, context)
    if joint == 0:
        return 0.0
    val = np.log(joint * table.n_total / (ct * cc))
    return float(max(0.0, val))


@dataclass(frozen=True, eq=False)
class DistVector:
    """PPMI-weighted distributional vector over a fixed basis."""

    word: str
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError("vector must be one-dimensional")
        if not np.isfinite(v).all() or (v < 0).any():
            raise ValueError(f"vector for {self.word!r} must be finite and non-negative")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dim(self) -> int:
        return self.values.size


def _ppmi_row(joint, target_total, table, basis) -> np.ndarray:
    """PPMI over the basis from the integer joint counts of one target."""
    out = np.zeros(basis.size)
    nz = np.flatnonzero(joint)
    cc = np.array([table.totals.get(basis.words[i], 0) for i in nz], dtype=np.int64)
    if (cc <= 0).any():
        missing = basis.words[nz[np.argmax(cc <= 0)]]
        raise CorpusError(f"context word {missing!r} does not occur in the corpus")
    out[nz] = np.maximum(0.0, np.log(joint[nz] * table.n_total / (target_total * cc)))
    return out


def build_noun_vectors(table: CoocTable, basis: BasisSpec, nouns) -> list[DistVector]:
    """PPMI vectors over the basis for each noun, in the given order."""
    out = []
    for noun in nouns:
        total = table.totals.get(noun, 0)
        if total <= 0:
            raise CorpusError(f"noun {noun!r} does not occur in the corpus")
        if noun not in table.counts:
            raise CorpusError(f"noun {noun!r} was not counted as a target")
        row = table.counts[noun]
        joint = np.array([row.get(c, 0) for c in basis.words], dtype=np.int64)
        out.append(DistVector(noun, _ppmi_row(joint, total, table, basis)))
    return out


def _reach_of(pos_class: str, window: int) -> int:
    if pos_class not in ("adjective", "verb", "unknown"):
        raise ValueError(f"unknown part-of-speech class {pos_class!r}")
    return 1 if pos_class in ("adjective", "unknown") else window


def _spans(corpus, target, nouns, reach):
    """Compound spans of `target` with each of `nouns`, as arrays.

    For each target occurrence, each distinct noun takes its nearest
    occurrence within reach to the right as the compound span.  Returns
    (start, end, noun index, sentence index), ordered by start and then
    by noun index; start and end are corpus positions.
    """
    none = np.zeros(0, dtype=np.int64)
    pos = np.concatenate([none] + [p for p, _ in _kernels.scan(corpus.word_ids,
                                                               corpus.lookup([target]))])
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
    start, end, _, sent = _spans(corpus, target, [noun], _reach_of(pos_class, window))
    base = corpus.offsets[sent]
    return list(zip(sent.tolist(), (start - base).tolist(), (end - base).tolist()))


def build_compound_vectors(corpus: TokenizedCorpus, table: CoocTable,
                           basis: BasisSpec, target: str, nouns,
                           pos_class: str = "adjective",
                           window: int | None = None
                           ) -> tuple[list[DistVector], list[str]]:
    """PPMI vectors for target-noun compounds, treating each compound
    occurrence as one token spanning its positions.

    Context is every token within `window` of the span on either side,
    excluding the span itself.  Nouns whose compound never occurs are
    skipped and returned in the second list.
    """
    if window is None:
        window = table.window
    distinct = list(dict.fromkeys(nouns))
    start, end, noun, sent = _spans(corpus, target, distinct,
                                    _reach_of(pos_class, window))
    totals = np.bincount(noun, minlength=len(distinct))
    joint = np.zeros(len(distinct) * basis.size, dtype=np.int64)
    _kernels.context_counts(start, end, corpus.offsets[sent], corpus.offsets[sent + 1],
                            noun * basis.size, corpus.word_ids,
                            corpus.lookup(basis.words), window, joint)
    joint = joint.reshape(len(distinct), basis.size)
    index = {n: i for i, n in enumerate(distinct)}
    vectors = []
    skipped = []
    for n in nouns:
        i = index[n]
        if totals[i] == 0:
            skipped.append(n)
            continue
        values = _ppmi_row(joint[i], int(totals[i]), table, basis)
        vectors.append(DistVector(f"{target} {n}", values))
    return vectors, skipped


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
        that names it."""
        try:
            return cls(entries=tuple(
                SelectionEntry(word=t["word"], pos_class=t["pos_class"],
                               freq=int(t["freq"]),
                               args=tuple((n, int(c)) for n, c in t["args"]))
                for t in obj["targets"]))
        except KeyError as exc:
            raise ValueError(f"dataset selection has no {exc} key") from None


def read_pairs(path) -> dict[str, dict[str, int]]:
    """head<TAB>argument<TAB>count, aggregated per (head, argument)."""
    pairs: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    with open(path, "w", encoding="utf-8") as fh:
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
    """Write the vectors as one stack plus the label manifest (see
    `matrix_core.write_stack`); returns the labels."""
    return write_stack(((v.word, v.values) for v in vectors), dirpath, VECTORS_NAME)


def read_vectors_dir(dirpath) -> dict[str, DistVector]:
    labels, values = read_stack(dirpath, VECTORS_NAME, 2)
    try:
        return {label: DistVector(label, v) for label, v in zip(labels, values)}
    except ValueError as exc:
        raise ParseError(f"{os.path.join(dirpath, VECTORS_NAME)}: {exc}") from None
