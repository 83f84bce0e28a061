"""Corpus ingestion: vocabulary, windowed co-occurrence counting, PPMI
weighting, dataset selection, and noun/compound distributional vectors.

Corpus format: UTF-8 text, one sentence per line, tokens separated by
whitespace (exactly as ``str.split`` splits; see `read_corpus`),
optionally tagged as ``word|POS``.  A corpus counts as tagged if
any token carries a tag; content words are those whose tag starts with
N, V, J or R.  In an untagged corpus every word is content: there is no
stopword list.  Argument pairs arrive from a tab-separated
``head<TAB>argument<TAB>count`` file (dependency analysis is upstream of
this package); lines starting with '#' are comments.

A corpus is read in two passes, and no array with one entry per token or
sentence outlives a block or chunk.  Pass 1 (`read_corpus`, one
`_read_part` per part of the file) tokenizes it block by block, counts
the tokens of each type (distinct token bytes), and appends each block's
type ids and sentence starts to an unnamed temporary file, the spill.
Vocabulary, basis, part-of-speech votes and dataset selection come from
the type counts.  Pass 2 (`count_cooccurrence`) reads the spilled type
ids back in chunks of whole sentences and counts one kind of thing, the
context of a span: a target occurrence is a span of one token, a
compound the span from its head to its noun, and one kernel call per
chunk counts the contexts of all of them into one table.  A spill error
names `tempfile`'s directory.

On Linux both passes use every usable CPU, through `_workers`.  Pass 1
cuts a regular file into one part per CPU this process may run on
(``os.sched_getaffinity``), but no more than one per
`_workers._MIN_PART` bytes, each ending just after a ``\\n``.  It reads
part 0 itself while one forked worker process per other part reads that
part, with a type table of its own and a spill of its own; type ids are
per part, each part's after those of the parts before it.  Pass 2
counts each part's spill in the process that wrote it, and the integer
tables add up.  Where ``os.fork`` or ``os.sched_getaffinity`` is
missing, or this process runs more than one thread, a read is one part
in this process.  A process that imports lingmat before numpy runs BLAS
with one thread (`lingmat.THREAD_VARS`), unless its caller set a BLAS
thread count above 1.  Every count, and so every output byte, is that of
the one-part read.

A vector set, from the PPMI step to the training sets, is a pair
(labels, values): one float64 (N, dim) array whose row i is the vector of
label i, the layout of ``vectors.npy``.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import stat
import tempfile
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, _workers
from .matrix_core import ParseError, atomic_open, check_int, read_stack, write_stack


class CorpusError(ValueError):
    pass


CONTENT_TAG_PREFIXES = ("N", "V", "J", "R")

DEFAULT_WINDOW = 5


@contextlib.contextmanager
def _spill_io():
    """Re-raise an OSError as one with the same errno that names the
    spill's directory, since the spill has no name."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, f"corpus spill in {tempfile.gettempdir()}: "
                                 f"{exc.strerror}") from exc


@dataclass(frozen=True, eq=False)
class TokenizedCorpus:
    """A corpus after pass 1: ``words``/``tags`` map ids back to strings
    (``tags[0]`` is None, the id of an untagged token) and ``word_index``
    maps each word to its id, and ``word_of``/``tag_of``/``counts`` give
    each type id's word id, tag id and tokens; a continuation node of a
    token longer than 8 bytes has count 0 and tag id 0.  ``parts`` holds,
    per part of the file (see `read_corpus`), its spill and its first type
    id: the spill holds, per block, each token's type id within the part
    and each sentence's start (`chunks`), and it is None if the corpus was
    read for its counts only.  One (word, tag) may have a type in each part."""

    words: tuple
    word_index: dict
    tags: tuple
    word_of: np.ndarray
    tag_of: np.ndarray
    counts: np.ndarray
    parts: tuple

    def __post_init__(self):
        for arr in (self.word_of, self.tag_of, self.counts):
            arr.setflags(write=False)

    @property
    def n_total(self) -> int:
        return int(self.counts.sum())

    @property
    def tagged(self) -> bool:
        """True if any token carries a tag."""
        return len(self.tags) > 1

    def close(self) -> None:
        """Close the spills, which `chunks` and `sentences` read; collecting
        the corpus closes them too."""
        for spill, _ in self.parts:
            if spill is not None:
                spill.close()

    __del__ = close

    def chunks(self, part=None):
        """Pass 2's input, the only reader of the spills: the sentences of
        part `part`, or of every part in order if None, in runs of whole
        sentences of at least ``_kernels._CHUNK`` tokens, the last perhaps
        shorter; per run, its int32 type ids and int64 sentence offsets,
        its length last."""
        parts = self.parts if part is None else self.parts[part:part + 1]
        if any(spill is None for spill, _ in parts):
            raise ValueError("the corpus was read for its counts only; it has no spill")
        types, starts, n = [], [], 0
        for spill, base in parts:
            at = 0
            while True:
                with _spill_io():
                    spill.seek(at)
                    head = spill.read(16)
                    k, m = np.frombuffer(head, dtype=np.int64).tolist() if head else (0, 0)
                    data = spill.read(8 * m + 4 * k)
                if not head:
                    break
                if len(data) != 8 * m + 4 * k:
                    raise OSError("the corpus spill file ends inside a record")
                at += 16 + len(data)
                starts.append(np.frombuffer(data, dtype=np.int64, count=m) + n)
                ids = np.frombuffer(data, dtype=np.int32, offset=8 * m)
                types.append(ids + np.int32(base) if base else ids)
                n += k
                if n >= _kernels._CHUNK:
                    yield np.concatenate(types), np.concatenate(starts + [[n]])
                    types, starts, n = [], [], 0
        if n:
            yield np.concatenate(types), np.concatenate(starts + [[n]])

    @property
    def sentences(self) -> tuple:
        """Sentences as tuples of (word, tag), decoded from the spill on
        every access; for tests and oracles."""
        out = []
        for types, offsets in self.chunks():
            toks = list(zip(map(self.words.__getitem__, self.word_of.take(types).tolist()),
                            map(self.tags.__getitem__, self.tag_of.take(types).tolist())))
            bounds = offsets.tolist()
            out += (tuple(toks[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(out)

    def lookup(self, words) -> np.ndarray:
        """Per type id, the index of its word in `words`, or -1."""
        out = np.full(len(self.words), -1, dtype=np.int32)
        for i, w in enumerate(words):
            j = self.word_index.get(w)
            if j is not None:
                out[j] = i
        return out.take(self.word_of)


def _parse_token(raw: str):
    if "|" in raw:
        word, _, tag = raw.rpartition("|")
        if word:
            return (word, tag or None)
    return (raw, None)


def _read_part(path, start, end, spill):
    """Pass 1 over the bytes of the file at `path` from `start` up to `end`
    (to its end if None), block by block.  Each token's bytes map to a node
    of a `_kernels.TypeTable`, its type id.  A new type is decoded and
    parsed once, at its first position, which fixes its word and tag ids in
    order of first occurrence.  Per block, the tokens of each type are
    counted, and their type ids and the sentence starts are appended to
    `spill` unless it is None; the spill is flushed at the end, since a
    worker's buffers die with it.  Returns the part as `_merged` takes it:
    its words and tags in id order, and per type its word id, tag id and
    tokens."""
    table = _kernels.TypeTable()
    words, tags = {}, {None: 0}  # ids in order of first occurrence
    word_of = np.empty(0, dtype=np.int32)  # per type: word id
    tag_of = np.empty(0, dtype=np.int32)
    counts = np.empty(0, dtype=np.int64)  # per type: tokens
    lines = 0  # line ends in the part before the current block
    with open(path, "rb") as fh:
        if start:  # a pipe cannot seek; its one part starts at 0
            fh.seek(start)
        for block in _kernels.blocks(fh, end):
            padded = block + _kernels.PAD
            at, length, first, block_lines = _kernels.tokens(padded)
            known = table.size  # a token whose node is newer is of a new type
            node = table.nodes(padded, at, length)
            if counts.size < table.size:  # room for the new type ids
                more = max(counts.size, table.size - counts.size)
                word_of, tag_of, counts = (np.concatenate([a, np.zeros(more, dtype=a.dtype)])
                                           for a in (word_of, tag_of, counts))
            if node.size and node.max() >= known:
                new = np.flatnonzero(node >= known)
                _, seen = np.unique(node[new], return_index=True)
                for t in sorted(new[seen].tolist()):
                    lo = int(at[t])
                    raw = block[lo:lo + int(length[t])]
                    try:
                        word, tag = _parse_token(raw.decode("utf-8"))
                    except UnicodeDecodeError as exc:
                        line = (_line_ends(path, start) + lines
                                + _kernels.tokens(block[:lo] + _kernels.PAD)[3] + 1)
                        raise CorpusError(f"{path}:{line}: invalid UTF-8 ({exc.reason}) "
                                          f"in token {raw[:40]!r}") from None
                    word_of[node[t]] = words.setdefault(word, len(words))
                    tag_of[node[t]] = tags.setdefault(tag, len(tags))
            if node.size:
                counts += np.bincount(node, minlength=counts.size)
                if spill is not None:
                    with _spill_io():
                        spill.write(np.array([node.size, first.size], dtype=np.int64))
                        spill.write(first.astype(np.int64, copy=False))
                        spill.write(node)
            lines += block_lines
    if spill is not None:
        with _spill_io():
            spill.flush()
    n = table.size
    return list(words), list(tags), word_of[:n], tag_of[:n], counts[:n]


def _line_ends(path, end) -> int:
    """The line ends in the first `end` bytes of the file, for the line
    number of an error in a later part."""
    if not end:
        return 0
    with open(path, "rb") as fh:
        return sum(_kernels.tokens(block + _kernels.PAD)[3] for block in _kernels.blocks(fh, end))


def _cuts(path) -> list:
    """The byte offsets at which the parts of a read of `path` start, then
    None for the end of the file.  A regular file has
    ``_workers._part_count(size)`` parts, anything else one; every part
    after the first starts just after a ``\\n``, so no line and no
    ``\\r\\n`` is cut."""
    info = os.stat(path)
    n = _workers._part_count(info.st_size) if stat.S_ISREG(info.st_mode) else 1
    cuts = [0]
    if n > 1:
        with open(path, "rb") as fh:
            for k in range(1, n):
                at = max(cuts[-1], info.st_size * k // n)
                fh.seek(at)
                while piece := fh.read(_kernels._CHUNK):
                    if (i := piece.find(b"\n")) >= 0:
                        at += i + 1
                        break
                    at += len(piece)
                if not piece or at == info.st_size:
                    break
                cuts.append(at)
    return cuts + [None]


def _merged(parts, spills) -> TokenizedCorpus:
    """The corpus of the `_read_part` results of the parts, in file
    order.  Words and tags are numbered in order of first occurrence in
    the file, and each part's type ids follow those of the parts before
    it."""
    words, tags, columns, bases = {}, {}, ([], [], []), [0]
    for part_words, part_tags, word_of, tag_of, counts in parts:
        word_ids = np.array([words.setdefault(w, len(words)) for w in part_words], dtype=np.int32)
        tag_ids = np.array([tags.setdefault(t, len(tags)) for t in part_tags], dtype=np.int32)
        for column, a in zip(columns, (word_ids.take(word_of), tag_ids.take(tag_of), counts)):
            column.append(a)
        bases.append(bases[-1] + len(counts))
    return TokenizedCorpus(tuple(words), words, tuple(tags), *map(np.concatenate, columns),
                           tuple(zip(spills, bases)))


def read_corpus(path, spill: bool = True) -> TokenizedCorpus:
    """Pass 1 over the corpus at `path`, in byte blocks.

    The tokens and sentences are those of text-mode UTF-8 reading with
    ``str.split`` per line: the separators are the bytes 09-0D, 1C-1F and
    20 and the UTF-8 forms of the 19 non-ASCII whitespace code points,
    ``\\n``, ``\\r`` and ``\\r\\n`` end a sentence, and lines without tokens
    drop.  Numpy tokenizes and looks up each block; Python runs once per
    distinct token, which it decodes strictly (invalid UTF-8 is a
    `CorpusError` naming ``path:line``) and parses with `_parse_token`.

    The file is read in parts (`_cuts`): on Linux, one per usable CPU,
    each of at least `_workers._MIN_PART` bytes and ending just after a
    ``\\n``; one part where this process may not fork
    (`_workers._can_fork`) or the file is not a regular file, such as a
    pipe.  Part 0 is read here and each other part in a forked worker,
    each by `_read_part` with a type table and a spill of its own, which
    this process creates before it forks; the parts are then merged in
    file order (`_merged`).  The error of the earliest failing part is
    raised, and an invalid UTF-8 error names the line in the whole file.
    Every spill is closed if the read fails.
    With `spill` false nothing is spilled: the corpus has its counts,
    which are all that vocabulary, basis and dataset selection read, but
    no `chunks` for pass 2.
    """
    cuts = _cuts(path)
    spills = []
    try:
        for _ in cuts[1:]:
            spills.append(tempfile.TemporaryFile() if spill else None)
        corpus = _merged(_workers._each_part(
            "corpus", lambda k: _read_part(path, cuts[k], cuts[k + 1], spills[k]), len(spills)),
            spills)
        if not corpus.n_total:
            raise CorpusError(f"{path}: corpus is empty")
    except BaseException:
        for fh in spills:
            if fh is not None:
                fh.close()
        raise
    return corpus


def _word_totals(corpus: TokenizedCorpus) -> np.ndarray:
    """Per word id, its tokens summed over its types; exact below 2**53."""
    return np.bincount(corpus.word_of, corpus.counts, len(corpus.words)).astype(np.int64)


def build_vocab(corpus: TokenizedCorpus) -> dict[str, int]:
    """Exact surface-form frequencies; sums to the total token count."""
    if corpus.n_total == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    return dict(zip(corpus.words, _word_totals(corpus).tolist()))


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


def select_basis(corpus: TokenizedCorpus, size: int) -> BasisSpec:
    """Top-`size` content words by frequency, ties broken lexicographically.
    A continuation node (tag id 0, None) is content only when untagged."""
    if size < 1:
        raise ValueError(f"basis size must be >= 1, got {size}")
    is_content = np.array([not corpus.tagged or (t is not None and t[:1].upper()
                                                 in CONTENT_TAG_PREFIXES) for t in corpus.tags])
    content = np.zeros(len(corpus.words), dtype=bool)
    content[corpus.word_of[is_content.take(corpus.tag_of)]] = True
    if len(content := np.flatnonzero(content)) < size:
        raise CorpusError(f"need {size} content words for the basis but only "
                          f"{len(content)} are available")
    ranked = heapq.nsmallest(size, zip((-_word_totals(corpus)[content]).tolist(),
                                       map(corpus.words.__getitem__, content.tolist())))
    return BasisSpec(tuple(w for _, w in ranked))


@dataclass(frozen=True, eq=False)
class CoocTable:
    """Sparse windowed co-occurrence counts plus the unigram totals.

    counts[target][context] holds the number of position pairs at distance
    <= window inside one sentence; rows exist for the requested targets,
    columns for the requested contexts.  compounds[head] holds the counts
    of the head's compounds from the same pass: (distinct nouns, basis,
    occurrences per noun, context counts per noun and basis word).
    """

    counts: dict[str, dict[str, int]]
    totals: dict[str, int]
    n_total: int
    window: int
    compounds: dict[str, tuple] = field(default_factory=dict)

    def count(self, target: str, context: str) -> int:
        return self.counts.get(target, {}).get(context, 0)


def count_cooccurrence(corpus: TokenizedCorpus, targets, basis: BasisSpec,
                       window: int = DEFAULT_WINDOW, compounds=None) -> CoocTable:
    """Windowed target-context pair counts, not crossing sentence
    boundaries; a position never pairs with itself.

    This is pass 2, one read of the spill.  `compounds` maps heads to
    (nouns, part-of-speech class), whose compounds the same pass counts
    into ``table.compounds``, for `build_compound_vectors`.  Adjective
    and unknown heads take the noun right after them, verb heads the
    nearest within `window` tokens to the right; the span covers every
    token from head to noun.  Each target occurrence is a span of its own
    token, so one count serves both: per chunk, `_SpanFinder` finds the
    spans and `_kernels.window_pair_counts` adds every basis token within
    `window` of a span, on either side, to the span's row of one table.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    targets = tuple(dict.fromkeys(targets))  # dedupe, keep order
    heads = {head: (tuple(dict.fromkeys(nouns)), _reach_of(pos_class, window))
             for head, (nouns, pos_class) in (compounds or {}).items()}
    finder = _SpanFinder(corpus, targets, heads)
    cmap = corpus.lookup(basis.words)

    def count(part):
        occurrences = np.zeros(finder.n_rows, dtype=np.int64)
        joint = np.zeros((finder.n_rows, basis.size), dtype=np.int64)
        for type_ids, offsets in corpus.chunks(part):
            start, end, row = finder.spans(type_ids, offsets)
            occurrences += np.bincount(row, minlength=finder.n_rows)
            _kernels.window_pair_counts(type_ids, offsets, start, end, row, cmap, window, joint)
        return occurrences, joint

    occurrences, joint = map(sum, zip(*_workers._each_part("corpus", count, len(corpus.parts))))
    counts = {word: {basis.words[c]: int(row[c]) for c in np.flatnonzero(row)}
              for word, row in zip(targets, joint)}
    cuts = np.cumsum([len(nouns) for nouns, _ in heads.values()])[:-1]
    counted = {head: (nouns, basis, head_occurrences, head_joint)
               for (head, (nouns, _)), head_occurrences, head_joint
               in zip(heads.items(), np.split(occurrences[len(targets):], cuts),
                      np.split(joint[len(targets):], cuts))}
    return CoocTable(counts=counts, totals=build_vocab(corpus), n_total=corpus.n_total,
                     window=window, compounds=counted)


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
    return window if _pos_class(pos_class) == "verb" else 1


class _SpanFinder:
    """The spans of pass 2, chunk by chunk, each with its row of the count
    table: rows 0..T-1 are the T `targets`, whose every occurrence is a
    span of one token, and rows T onward number the compounds, the nouns
    of each head of `heads` (head -> (distinct nouns, reach)) in order.
    Each head occurrence takes, for each of its nouns, the nearest
    occurrence within reach to the right as the compound span.  Targets
    and heads are looked up per type id; word ids are gathered only at the
    candidate positions after a head.  `np.searchsorted` in one sorted
    table of ``head index * len(words) + word id`` keys, ended by the
    largest int64, finds every candidate's row at once."""

    def __init__(self, corpus: TokenizedCorpus, targets, heads):
        self.n_words = len(corpus.words)
        self.word_of = corpus.word_of
        self.target_of = corpus.lookup(targets)
        self.head_of = corpus.lookup(heads)
        # whether each type id is a target or a head: the gathers over a
        # whole chunk then make bytes, not int32 indices
        self.is_target, self.is_head = self.target_of >= 0, self.head_of >= 0
        self.reach = np.array([reach for _, reach in heads.values()], dtype=np.int64)
        nouns = [(h, noun) for h, (head_nouns, _) in enumerate(heads.values())
                 for noun in head_nouns]
        self.n_rows = len(targets) + len(nouns)
        word = np.array([corpus.word_index.get(noun, -1) for _, noun in nouns], dtype=np.int64)
        known = np.flatnonzero(word >= 0)
        keys = np.array([h for h, _ in nouns], dtype=np.int64) * self.n_words + word
        order = np.argsort(keys[known])
        self.keys = np.append(keys[known][order], np.iinfo(np.int64).max)
        self.rows = known[order] + len(targets)

    def spans(self, type_ids, offsets):
        """(start, end, row) of the spans in one chunk: the target
        occurrences in position order, then the compound spans ordered by
        start and then by row."""
        at = np.flatnonzero(self.is_target.take(type_ids))
        pos = np.flatnonzero(self.is_head.take(type_ids))
        head = self.head_of.take(type_ids.take(pos)).astype(np.int64)
        sent = np.searchsorted(offsets, pos, side="right")
        room = np.minimum(offsets[sent] - 1 - pos, self.reach.take(head))
        base = head * self.n_words
        none = np.zeros(0, dtype=np.int64)
        found = [(none, none, none)]
        for q in range(1, int(room.max(initial=0)) + 1):
            k = np.flatnonzero(room >= q)
            key = base.take(k) + self.word_of.take(type_ids.take(pos.take(k) + q))
            i = np.searchsorted(self.keys, key)
            hit = self.keys.take(i) == key
            found.append((k[hit], np.full(np.count_nonzero(hit), q), self.rows.take(i[hit])))
        k, q, row = (np.concatenate(parts) for parts in zip(*found))
        # keep the nearest occurrence (smallest q, found first) of each noun
        _, first = np.unique(k * self.n_rows + row, return_index=True)
        k, q, row = k[first], q[first], row[first]
        start = pos[k]
        return (np.concatenate((at, start)), np.concatenate((at, start + q)),
                np.concatenate((self.target_of.take(type_ids.take(at)), row)))


def build_compound_vectors(table: CoocTable, target: str
                           ) -> tuple[tuple[list[str], np.ndarray], list[str]]:
    """PPMI vectors for the compounds of `target` as `count_cooccurrence`
    counted them into ``table.compounds``, each compound occurrence one
    token spanning its positions.  Returns the vector set, labelled
    ``"<target> <noun>"``, and the skipped nouns, whose compound never
    occurs.
    """
    if target not in table.compounds:
        raise ValueError(f"the compounds of {target!r} were not counted")
    nouns, basis, totals, joint = table.compounds[target]
    kept = np.flatnonzero(totals)
    labels = [f"{target} {nouns[i]}" for i in kept.tolist()]
    skipped = [noun for noun, n in zip(nouns, totals.tolist()) if not n]
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
    """head<TAB>argument<TAB>count, summed per (head, argument); invalid
    UTF-8, an empty field or a count that is not ASCII digits names
    path:line."""
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
            if not (head and arg):
                raise CorpusError(f"{path}:{lineno}: empty {'head' if not head else 'argument'}")
            if raw.startswith("-"):
                raise CorpusError(f"{path}:{lineno}: negative count")
            if not (raw.isascii() and raw.isdigit()):
                raise CorpusError(f"{path}:{lineno}: count {raw!r} is not an integer")
            pairs.setdefault(head, {})
            pairs[head][arg] = pairs[head].get(arg, 0) + int(raw)
    if not pairs:
        raise CorpusError(f"{path}: no argument pairs found")
    return pairs


def write_pairs(pairs: dict[str, dict[str, int]], path) -> None:
    with atomic_open(path) as fh:
        for head in sorted(pairs):
            for arg in sorted(pairs[head]):
                fh.write(f"{head}\t{arg}\t{pairs[head][arg]}\n")


def pos_class_of(corpus: TokenizedCorpus, words) -> dict[str, str]:
    """Per word, one pass over the types (`lookup`): the majority vote of
    its tokens' tag letters, J adjective, V verb, else unknown; a tie goes
    to the alphabetically first tied letter.  Only tagged types vote (not a
    continuation node, tag id 0); a word with no votes is unknown."""
    words = list(dict.fromkeys(words))
    votes = [{} for _ in words]
    row = corpus.lookup(words)
    voters = np.flatnonzero((row >= 0) & (corpus.tag_of > 0))
    for i, tag, n in zip(row[voters].tolist(), corpus.tag_of[voters].tolist(),
                         corpus.counts[voters].tolist()):
        letter = corpus.tags[tag][:1].upper()
        votes[i][letter] = votes[i].get(letter, 0) + n
    return {w: {"J": "adjective", "V": "verb"}.get(max(sorted(v), key=v.get) if v else None,
                                                  "unknown") for w, v in zip(words, votes)}


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
    totals = _word_totals(corpus)
    freq = {h: int(totals[corpus.word_index[h]]) if h in corpus.word_index else 0 for h in pairs}
    candidates = [h for h in pairs if freq[h] >= thresholds.min_target_freq]
    candidates.sort(key=lambda w: (-freq[w], w))
    kept = {}
    for head in candidates[thresholds.drop_top:]:
        args = [(noun, cnt) for noun, cnt in pairs[head].items()
                if cnt >= thresholds.min_pair_count]
        if len(args) >= max(thresholds.min_args, 1):
            kept[head] = tuple(sorted(args, key=lambda nc: (-nc[1], nc[0])))
    return DatasetSelection(entries=tuple(
        SelectionEntry(word=head, pos_class=pos, freq=freq[head], args=kept[head])
        for head, pos in sorted(pos_class_of(corpus, kept).items())))


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
