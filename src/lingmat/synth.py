"""Deterministic synthetic corpus generator for desk-scale runs.

Real corpora at the scale the selection thresholds were designed for run
to billions of tokens; this generator plants the same kind of structure
(adjective-noun compounds whose context distributions mix topic, noun,
and adjective profiles) in ~1e5 tokens so the full pipeline can run end
to end and produce statistics that are stable across the basis-size
sweep.  Everything is driven by one Philox-seeded generator, so a given
(seed, config) pair always produces byte-identical corpus and pairs
files.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import write_pairs
from .matrix_core import atomic_open

#: Harmonic period; sweep dimensions should be multiples of this.
PERIOD = 20


@dataclass(frozen=True)
class SynthConfig:
    n_sentences: int = 12500
    n_topics: int = 6
    n_nouns: int = 14
    n_adjectives: int = 10
    n_function: int = 8
    ctx_per_side: int = 5
    compound_fraction: float = 0.68
    adjective_mix: float = 0.75  # weight of the adjective profile in compounds
    noun_mix: float = 0.85       # weight of the noun's own profile in bare sentences
    tilt: float = 0.6            # max relative profile deviation from uniform
    n_harmonics: int = 9         # uses frequencies 1..n_harmonics over PERIOD
    tier_sizes: tuple[int, ...] = (60, 20, 20)
    tier_levels: tuple[float, ...] = (1.16, 1.0, 0.86)

    def __post_init__(self):
        if self.n_sentences < 1 or self.n_topics < 1:
            raise ValueError("need at least one sentence and one topic")
        if not (0.0 < self.compound_fraction < 1.0):
            raise ValueError("compound_fraction must be in (0, 1)")
        for name in ("adjective_mix", "noun_mix"):
            if not (0.0 <= getattr(self, name) <= 1.0):
                raise ValueError(f"{name} must be in [0, 1]")
        if not (0.0 < self.tilt < 1.0):
            raise ValueError("tilt must be in (0, 1)")
        if len(self.tier_sizes) != len(self.tier_levels):
            raise ValueError("tier_sizes and tier_levels must align")
        if any(s % PERIOD != 0 for s in self.tier_sizes):
            raise ValueError(f"tier sizes must be multiples of {PERIOD}")
        if not (1 <= self.n_harmonics < PERIOD // 2):
            raise ValueError(f"n_harmonics must be in [1, {PERIOD // 2 - 1}]")

    @property
    def n_context(self) -> int:
        return sum(self.tier_sizes)


def _harmonics(rng, n_words, n_harmonics):
    """A zero-mean tilt whose sum over any whole PERIOD vanishes exactly."""
    j = np.arange(n_words)
    h = np.zeros(n_words)
    for m in range(1, n_harmonics + 1):
        a, b = rng.standard_normal(2)
        h += a * np.cos(2.0 * np.pi * m * j / PERIOD)
        h += b * np.sin(2.0 * np.pi * m * j / PERIOD)
    return h / np.sqrt(n_harmonics)


def _round_robin(rng, items, total):
    reps, extra = divmod(total, len(items))
    pool = list(items) * reps
    if extra:
        pick = rng.choice(len(items), size=extra, replace=False)
        pool += [items[int(i)] for i in pick]
    order = rng.permutation(total)
    return [pool[i] for i in order]


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


def generate_corpus(seed: int, config: SynthConfig = SynthConfig()):
    """Build the corpus as tagged sentences plus the adjacency pair counts.

    Sentences hold ``word|TAG`` tokens (N noun, J adjective, F function
    word); pairs maps adjective -> noun -> count, exactly as an
    adjacency scan of the corpus would find them.
    """
    cfg = config
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_ctx = cfg.n_context

    contexts = [f"c{i:03d}" for i in range(n_ctx)]
    nouns = [f"n{i:02d}" for i in range(cfg.n_nouns)]
    adjectives = [f"adj{i:02d}" for i in range(cfg.n_adjectives)]
    functions = [f"f{i}" for i in range(cfg.n_function)]
    topic_of = [i % cfg.n_topics for i in range(cfg.n_nouns)]

    tiers = np.concatenate([
        np.full(size, level) for size, level in zip(cfg.tier_sizes, cfg.tier_levels)
    ])

    topic_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                         for _ in range(cfg.n_topics)])
    adj_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                       for _ in range(cfg.n_adjectives)])
    noun_h = np.vstack([_harmonics(rng, n_ctx, cfg.n_harmonics)
                        for _ in range(cfg.n_nouns)])

    n_compound = int(round(cfg.n_sentences * cfg.compound_fraction))
    n_bare = cfg.n_sentences - n_compound
    pair_pool = [(a, n) for a in range(cfg.n_adjectives) for n in range(cfg.n_nouns)]
    compound_slots = _round_robin(rng, pair_pool, n_compound)
    bare_slots = _round_robin(rng, list(range(cfg.n_nouns)), n_bare)

    # Exact usage weight of every profile in the aggregate context
    # distribution, so the weighted tilt can be centered to zero and the
    # marginal context frequencies hit the tier levels exactly.
    t_w = np.zeros(cfg.n_topics)
    a_w = np.zeros(cfg.n_adjectives)
    n_w = np.zeros(cfg.n_nouns)
    for a, n in compound_slots:
        a_w[a] += cfg.adjective_mix
        t_w[topic_of[n]] += 1.0 - cfg.adjective_mix
    for n in bare_slots:
        n_w[n] += cfg.noun_mix
        t_w[topic_of[n]] += 1.0 - cfg.noun_mix
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

    # One quota token pool per sentence type: per compound pair and per
    # bare noun.  Each sentence pops 2 * ctx_per_side tokens from its pool.
    per_sentence = 2 * cfg.ctx_per_side
    pair_counts: dict[tuple[int, int], int] = {}
    for slot in compound_slots:
        pair_counts[slot] = pair_counts.get(slot, 0) + 1
    bare_counts: dict[int, int] = {}
    for n in bare_slots:
        bare_counts[n] = bare_counts.get(n, 0) + 1

    pools: dict = {}
    for (a, n), cnt in sorted(pair_counts.items()):
        h = (cfg.adjective_mix * adj_h[a]
             + (1.0 - cfg.adjective_mix) * topic_h[topic_of[n]])
        pools[(a, n)] = iter(_quota_tokens(rng, base * (1.0 + h), cnt * per_sentence))
    for n, cnt in sorted(bare_counts.items()):
        h = (cfg.noun_mix * noun_h[n]
             + (1.0 - cfg.noun_mix) * topic_h[topic_of[n]])
        pools[n] = iter(_quota_tokens(rng, base * (1.0 + h), cnt * per_sentence))

    kinds = np.zeros(cfg.n_sentences, dtype=np.int64)
    kinds[:n_compound] = 1
    kinds = kinds[rng.permutation(cfg.n_sentences)]

    # Function words sit at the outer edge of each flank, so the in-window
    # context slots always hold planted context tokens.
    func_cycle = 0

    def flank(pool, outer_first):
        nonlocal func_cycle
        ctx = [f"{contexts[next(pool)]}|N" for _ in range(cfg.ctx_per_side)]
        f = f"{functions[func_cycle % cfg.n_function]}|F"
        func_cycle += 1
        return [f] + ctx if outer_first else ctx + [f]

    sentences = []
    pairs: dict[str, dict[str, int]] = {}
    ci = 0
    bi = 0
    for kind in kinds:
        if kind == 1:
            key = compound_slots[ci]
            ci += 1
            a, n = key
            core = [f"{adjectives[a]}|J", f"{nouns[n]}|N"]
            pairs.setdefault(adjectives[a], {})
            pairs[adjectives[a]][nouns[n]] = pairs[adjectives[a]].get(nouns[n], 0) + 1
        else:
            key = bare_slots[bi]
            bi += 1
            core = [f"{nouns[key]}|N"]
        pool = pools[key]
        sentences.append(flank(pool, True) + core + flank(pool, False))
    return sentences, pairs


def write_synth_corpus(seed: int, corpus_path, pairs_path,
                       config: SynthConfig = SynthConfig()) -> dict:
    """Generate and write the corpus and pairs files; returns run stats."""
    sentences, pairs = generate_corpus(seed, config)
    with atomic_open(corpus_path) as fh:
        fh.writelines(" ".join(sent) + "\n" for sent in sentences)
    write_pairs(pairs, pairs_path)
    n_tokens = sum(len(s) for s in sentences)
    return {
        "seed": seed,
        "sentences": len(sentences),
        "tokens": n_tokens,
        "adjectives": config.n_adjectives,
        "nouns": config.n_nouns,
        "context_words": config.n_context,
    }
