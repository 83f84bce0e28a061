"""Deterministic synthetic corpus generator for desk-scale runs.

Real corpora at the scale the selection thresholds were designed for run
to billions of tokens; this generator plants the same kind of structure
(adjective-noun compounds whose context distributions mix topic, noun,
and adjective profiles) in ~1e5 tokens so the full pipeline can run end
to end and produce statistics that are stable across the basis-size
sweep.  The planted structure is constant (`SynthConfig`'s class
constants); only the number of sentences varies.  Everything is driven by
one Philox-seeded generator, so a given seed and sentence count always
produce byte-identical corpus and pairs files.

Three constructions keep the dimension sweep well behaved:

* Context words carry frequency tiers that change exactly at the sweep
  boundaries (ranks 60 and 80 of 100), so the top-D basis sets are
  deterministic prefixes of the construction order.  Tier factors
  multiply every context profile uniformly and cancel inside PPMI
  ratios.

* Profile tilts are built from harmonics with period 20.  Any product of
  such profiles is again a period-20 harmonic plus a constant, so sums
  over the first 60, 80, or 100 context words (whole periods) are
  exactly proportional to the count.  Cross-moments of the planted
  profiles, and hence the learned-matrix statistics, then scale
  canonically with the basis size instead of fluctuating by O(D^-1/2).

* Context tokens are dealt by largest-remainder quota per sentence type
  rather than drawn independently, so realized co-occurrence counts sit
  within +-1 of their expectations and Poisson noise does not leak a
  dimension-dependent bias into the fitted parameters.

Every random draw comes before any sentence is built: the harmonics, the
round-robin slots, the quota pools and the order of compound and bare
sentences.  A sentence is then a function of those pre-drawn pools: its
function words cycle with its index, and the j-th sentence of a type
takes the j-th run of 2 * ctx_per_side tokens of that type's pool.  So the
whole corpus is one table of token ids, one row per sentence, into one
table of token strings (`_token_table`); the file is written from it in
batches of sentences, and no sentence is ever a Python list unless
`generate_corpus` is asked for the lists.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .corpus import write_pairs
from .matrix_core import atomic_open, check_int, check_seed

#: Harmonic period; sweep dimensions should be multiples of this.
PERIOD = 20


@dataclass(frozen=True)
class SynthConfig:
    """The corpus size.  The class constants fix the planted structure
    (vocabulary, flank length, profile mixes, frequency tiers), the same
    at every size."""

    n_sentences: int = 12500
    n_topics: ClassVar[int] = 6
    n_nouns: ClassVar[int] = 14
    n_adjectives: ClassVar[int] = 10
    n_function: ClassVar[int] = 8
    ctx_per_side: ClassVar[int] = 5
    compound_fraction: ClassVar[float] = 0.68
    adjective_mix: ClassVar[float] = 0.75  # weight of the adjective profile in compounds
    noun_mix: ClassVar[float] = 0.85       # weight of the noun's own profile in bare sentences
    tilt: ClassVar[float] = 0.6            # max relative profile deviation from uniform
    n_harmonics: ClassVar[int] = 9         # uses frequencies 1..n_harmonics over PERIOD
    tier_sizes: ClassVar[tuple[int, ...]] = (60, 20, 20)
    tier_levels: ClassVar[tuple[float, ...]] = (1.16, 1.0, 0.86)
    n_context: ClassVar[int] = sum(tier_sizes)

    def __post_init__(self):
        if check_int("n_sentences", self.n_sentences) < 1:
            raise ValueError("need at least one sentence")


def _harmonics(rng, n_words, n_harmonics):
    """A zero-mean tilt whose sum over any whole PERIOD vanishes exactly."""
    j = np.arange(n_words)
    h = np.zeros(n_words)
    for m in range(1, n_harmonics + 1):
        a, b = rng.standard_normal(2)
        h += a * np.cos(2.0 * np.pi * m * j / PERIOD)
        h += b * np.sin(2.0 * np.pi * m * j / PERIOD)
    return h / np.sqrt(n_harmonics)


def _round_robin(rng, n_items, total):
    """`total` indices below `n_items`: each index ``total // n_items``
    times plus ``total % n_items`` distinct random ones, shuffled."""
    reps, extra = divmod(total, n_items)
    pool = np.tile(np.arange(n_items), reps)
    if extra:
        pool = np.concatenate([pool, rng.choice(n_items, size=extra, replace=False)])
    return pool[rng.permutation(total)]


def _quota_tokens(rng, probs, total):
    """A shuffled multiset of `total` draws matching `probs` within +-1
    per cell (largest-remainder apportionment)."""
    ideal = probs * total
    counts = np.floor(ideal).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        frac = ideal - counts
        # ties broken by index for determinism
        top = np.lexsort((np.arange(len(probs)), -frac))[:short]
        counts[top] += 1
    tokens = np.repeat(np.arange(len(probs)), counts)
    return tokens[rng.permutation(tokens.size)]


#: Sentences per write of `write_synth_corpus`: ~0.4 MB of text and ~1 MB
#: of temporaries at the default config, whatever the corpus size.
_WRITE_BATCH = 4096


def _token_table(seed: int, cfg: SynthConfig):
    """The corpus as token ids into one table of token strings.

    Returns the strings, each followed by its separator (a space, or the
    line end after a sentence's last token) and the empty string at id 0;
    the ``(n_sentences, 2 * ctx_per_side + 4)`` id table, one sentence per
    row, where a bare sentence's adjective column holds id 0; and the
    pairs, adjective -> noun -> count.
    """
    rng = np.random.Generator(np.random.Philox(key=check_seed(seed)))
    n_ctx = cfg.n_context
    topic_of = np.arange(cfg.n_nouns) % cfg.n_topics

    tiers = np.concatenate([
        np.full(size, level) for size, level in zip(cfg.tier_sizes, cfg.tier_levels)
    ])

    topic_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                         for _ in range(cfg.n_topics)])
    adj_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                       for _ in range(cfg.n_adjectives)])
    noun_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                        for _ in range(cfg.n_nouns)])

    # A compound slot is adjective * n_nouns + noun, a bare slot its noun.
    n_compound = int(round(cfg.n_sentences * cfg.compound_fraction))
    n_bare = cfg.n_sentences - n_compound
    compound = _round_robin(rng, cfg.n_adjectives * cfg.n_nouns, n_compound)
    bare = _round_robin(rng, cfg.n_nouns, n_bare)
    comp_a, comp_n = np.divmod(compound, cfg.n_nouns)

    # Exact usage weight of every profile in the aggregate context
    # distribution, so the weighted tilt can be centered to zero and the
    # marginal context frequencies hit the tier levels exactly.  A
    # weighted bincount adds the weights one slot after another, compound
    # slots first: the float sums of one ``+=`` per slot in that order.
    am, nm = cfg.adjective_mix, cfg.noun_mix
    a_w = np.bincount(comp_a, weights=np.full(n_compound, am), minlength=cfg.n_adjectives)
    n_w = np.bincount(bare, weights=np.full(n_bare, nm), minlength=cfg.n_nouns)
    t_w = np.bincount(topic_of[np.concatenate([comp_n, bare])],
                      weights=np.repeat([1.0 - am, 1.0 - nm], [n_compound, n_bare]),
                      minlength=cfg.n_topics)
    total_w = t_w.sum() + a_w.sum() + n_w.sum()
    mean_h = (t_w @ topic_h + a_w @ adj_h + n_w @ noun_h) / total_w
    topic_h -= mean_h
    adj_h -= mean_h
    noun_h -= mean_h
    peak = max(np.abs(topic_h).max(), np.abs(adj_h).max(), np.abs(noun_h).max())
    scale = cfg.tilt / peak
    topic_h *= scale
    adj_h *= scale
    noun_h *= scale

    # All profiles share the tier envelope and total mass, so mixtures of
    # profiles are already normalized relative to each other.
    base = tiers / tiers.sum()

    # One quota token pool per sentence type, in type order: per compound
    # pair and per bare noun.  Each sentence takes 2 * ctx_per_side tokens
    # of its pool, so with the pools end to end, row p holds the tokens of
    # the p-th slot of a stable sort of the slots by type.
    per_sentence = 2 * cfg.ctx_per_side

    def pool_rows(slots, profile):
        counts = Counter(slots.tolist())  # in order of first slot
        rows = np.empty((slots.size, per_sentence), dtype=np.min_scalar_type(n_ctx - 1))
        at = 0
        for key, cnt in sorted(counts.items()):
            rows[at:at + cnt] = _quota_tokens(rng, base * (1.0 + profile(key)),
                                              cnt * per_sentence).reshape(cnt, per_sentence)
            at += cnt
        return rows, counts

    comp_rows, pair_counts = pool_rows(compound, lambda k: (
        am * adj_h[k // cfg.n_nouns] + (1.0 - am) * topic_h[topic_of[k % cfg.n_nouns]]))
    bare_rows, _ = pool_rows(bare, lambda n: nm * noun_h[n] + (1.0 - nm) * topic_h[topic_of[n]])

    is_compound = rng.permutation(cfg.n_sentences) < n_compound

    # Token ids: context words, function words opening and closing a
    # sentence, adjectives and nouns; 0 is the empty string.
    c, n_f = cfg.ctx_per_side, cfg.n_function
    words = ([""] + [f"c{i:03d}|N " for i in range(n_ctx)]
             + [f"f{i}|F " for i in range(n_f)] + [f"f{i}|F\n" for i in range(n_f)]
             + [f"adj{i:02d}|J " for i in range(cfg.n_adjectives)]
             + [f"n{i:02d}|N " for i in range(cfg.n_nouns)])
    opening = 1 + n_ctx
    adjective = opening + 2 * n_f
    noun = adjective + cfg.n_adjectives

    # Sentence s: function word 2s, c context tokens, [adjective,] noun,
    # c context tokens, function word 2s + 1, the function words cycling.
    # Function words sit at the outer edge of each flank, so the in-window
    # context slots always hold planted context tokens.
    ids = np.empty((cfg.n_sentences, 2 * c + 4), dtype=np.min_scalar_type(len(words) - 1))
    cycle = 2 * np.arange(cfg.n_sentences)
    ids[:, 0] = opening + cycle % n_f
    ids[:, -1] = opening + n_f + (cycle + 1) % n_f
    del cycle
    for slots, rows, where, adjectives, nouns in (
            (compound, comp_rows, np.flatnonzero(is_compound), adjective + comp_a, comp_n),
            (bare, bare_rows, np.flatnonzero(~is_compound), 0, bare)):
        ids[where, c + 1] = adjectives
        ids[where, c + 2] = noun + nouns
        where = where[np.argsort(slots, kind="stable")]
        ids[where, 1:c + 1] = 1 + rows[:, :c]
        ids[where, c + 3:-1] = 1 + rows[:, c:]

    pairs: dict[str, dict[str, int]] = {}
    for key, cnt in pair_counts.items():
        a, n = divmod(key, cfg.n_nouns)
        pairs.setdefault(f"adj{a:02d}", {})[f"n{n:02d}"] = cnt
    return words, ids, pairs


def generate_corpus(seed: int, config: SynthConfig = SynthConfig()):
    """Build the corpus as tagged sentences plus the adjacency pair counts.

    Sentences hold ``word|TAG`` tokens (N noun, J adjective, F function
    word); pairs maps adjective -> noun -> count, exactly as an
    adjacency scan of the corpus would find them.
    """
    words, ids, pairs = _token_table(seed, config)
    sentences = np.array([w[:-1] for w in words], dtype=object)[ids].tolist()
    gap = config.ctx_per_side + 1
    for s in np.flatnonzero(ids[:, gap] == 0).tolist():
        del sentences[s][gap]
    return sentences, pairs


def write_synth_corpus(seed: int, corpus_path, pairs_path,
                       config: SynthConfig = SynthConfig()) -> dict:
    """Generate and write the corpus and pairs files; returns run stats."""
    words, ids, pairs = _token_table(seed, config)
    words = np.array(words, dtype=object)
    with atomic_open(corpus_path) as fh:
        for lo in range(0, len(ids), _WRITE_BATCH):
            fh.write("".join(words[ids[lo:lo + _WRITE_BATCH]].ravel().tolist()))
    write_pairs(pairs, pairs_path)
    return {
        "seed": seed,
        "sentences": len(ids),
        "tokens": int(np.count_nonzero(ids)),
        "adjectives": config.n_adjectives,
        "nouns": config.n_nouns,
        "context_words": config.n_context,
    }
