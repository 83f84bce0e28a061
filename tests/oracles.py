"""Independent oracles used only by the tests.

Everything here is written directly from the defining formulas (nested
loops over index tuples, quadratic position scans, the pentagonal-number
recurrence) and never calls the fast implementations it checks.  The
synthetic corpus reference is the generator's loop over sentences, which
shares only the config and the random draws with the id table it checks.
"""

import itertools

import numpy as np

from lingmat.invariants import CATALOG_INDEX
from lingmat.synth import SynthConfig, _harmonics, _quota_tokens


def loop_invariant(tag, m):
    """Catalog invariants as literal restricted sums over distinct tuples."""
    d = len(m)
    perms = itertools.permutations

    if tag == "Md1":
        return sum(m[i][i] for i in range(d))
    if tag == "Mo1":
        return sum(m[i][j] for i, j in perms(range(d), 2))
    if tag == "Md2":
        return sum(m[i][i] ** 2 for i in range(d))
    if tag == "Mo21":
        return sum(m[i][j] ** 2 for i, j in perms(range(d), 2))
    if tag == "Mo22":
        return sum(m[i][j] * m[j][i] for i, j in perms(range(d), 2))
    if tag == "Qdd":
        return sum(m[i][i] * m[j][j] for i, j in perms(range(d), 2))
    if tag == "Qdio":
        return sum(m[i][i] * m[i][j] for i, j in perms(range(d), 2))
    if tag == "Qoid":
        return sum(m[i][j] * m[j][j] for i, j in perms(range(d), 2))
    if tag == "Qchain":
        return sum(m[i][j] * m[j][k] for i, j, k in perms(range(d), 3))
    if tag == "Qout":
        return sum(m[i][j] * m[i][k] for i, j, k in perms(range(d), 3))
    if tag == "Qin":
        return sum(m[i][j] * m[k][j] for i, j, k in perms(range(d), 3))
    if tag == "Qodiag":
        return sum(m[i][j] * m[k][k] for i, j, k in perms(range(d), 3))
    if tag == "Qdisc":
        return sum(m[i][j] * m[k][l] for i, j, k, l in perms(range(d), 4))
    if tag == "Md3":
        return sum(m[i][i] ** 3 for i in range(d))
    if tag == "Mo31":
        return sum(m[i][j] ** 3 for i, j in perms(range(d), 2))
    if tag == "Mo32":
        return sum(m[i][j] * m[j][k] * m[k][i] for i, j, k in perms(range(d), 3))
    if tag == "Md4":
        return sum(m[i][i] ** 4 for i in range(d))
    if tag == "Mo41":
        return sum(m[i][j] ** 4 for i, j in perms(range(d), 2))
    if tag == "Mo42":
        return sum(m[i][j] * m[j][k] * m[k][l] * m[l][i]
                   for i, j, k, l in perms(range(d), 4))
    raise KeyError(tag)


def sample_matrix_reference(params, rng):
    """One matrix draw as three ``normal`` calls: the diagonal, then the
    upper-triangle symmetric parts, then the antisymmetric parts."""
    d = params.dim
    m = np.empty((d, d))
    diag = rng.normal(params.mean_diag, np.sqrt(params.var_diag), size=d)
    np.fill_diagonal(m, diag)
    if d > 1:
        iu, ju = np.triu_indices(d, k=1)
        sym = rng.normal(params.mean_off, np.sqrt(1.0 / params.a), size=iu.size)
        anti = rng.normal(0.0, np.sqrt(1.0 / params.b), size=iu.size)
        m[iu, ju] = sym + anti
        m[ju, iu] = sym - anti
    return m


def stream_draws_reference(params, seed, start, count):
    """Draws ``start .. start + count - 1`` of `seed`: draw k is draw
    k mod 128 of the stream ``SFC64(SeedSequence(seed, spawn_key=(k // 128,)))``.
    The stream of `start` is built anew and its earlier draws are thrown
    away, one `sample_matrix_reference` call each; every draw after it is
    one call on the stream it falls in."""
    draws, rng = [], None
    for k in range(start, start + count):
        if rng is None or k % 128 == 0:
            key = np.random.SeedSequence(seed, spawn_key=(k // 128,))
            rng = np.random.Generator(np.random.SFC64(key))
            for _ in range(k % 128):
                sample_matrix_reference(params, rng)
        draws.append(sample_matrix_reference(params, rng))
    return np.stack(draws)


def closed_form_moment(params, tag):
    """The published closed-form model moments, one branch per tag."""
    d = params.dim
    mu_d = params.mean_diag
    v_d = params.var_diag
    mu_o = params.mean_off
    v_p = params.var_off_plus
    v_m = params.var_off_minus

    def f(n):
        out = 1.0
        for k in range(n):
            out *= d - k
        return out

    if tag == "Md1":
        return d * mu_d
    if tag == "Mo1":
        return f(2) * mu_o
    if tag == "Md2":
        return d * (mu_d ** 2 + v_d)
    if tag == "Mo21":
        return f(2) * (mu_o ** 2 + v_p)
    if tag == "Mo22":
        return f(2) * (mu_o ** 2 + v_m)
    if tag == "Qdd":
        return f(2) * mu_d ** 2
    if tag in ("Qdio", "Qoid"):
        return f(2) * mu_d * mu_o
    if tag in ("Qchain", "Qout", "Qin"):
        return f(3) * mu_o ** 2
    if tag == "Qodiag":
        return f(3) * mu_d * mu_o
    if tag == "Qdisc":
        return f(4) * mu_o ** 2
    if tag == "Md3":
        return d * (mu_d ** 3 + 3.0 * v_d * mu_d)
    if tag == "Mo31":
        return f(2) * (mu_o ** 3 + 3.0 * v_p * mu_o)
    if tag == "Mo32":
        return f(3) * mu_o ** 3
    if tag == "Md4":
        return d * (mu_d ** 4 + 6.0 * v_d * mu_d ** 2 + 3.0 * v_d ** 2)
    if tag == "Mo41":
        return f(2) * (mu_o ** 4 + 6.0 * v_p * mu_o ** 2 + 3.0 * v_p ** 2)
    if tag == "Mo42":
        return f(4) * mu_o ** 4
    raise KeyError(tag)


def mc_records_reference(table, theory):
    """The Monte Carlo records of a ``(count, 19)`` table of per-draw
    catalog values, two-pass: each column's mean, then the sample standard
    deviation about that mean over sqrt(count).  `theory` maps each tag
    to its model moment; the records come in its order, as JSON dicts."""
    count = len(table)
    out = {}
    for tag, moment in theory.items():
        col = table[:, CATALOG_INDEX[tag]]
        mean = float(col.sum() / count)
        stderr = float(np.std(col, ddof=1) / np.sqrt(count))
        if stderr > 0:
            z = float((mean - moment) / stderr)
        else:
            z = 0.0 if mean == moment else np.inf
        out[tag] = {"tag": tag, "theory": moment, "sample_mean": mean,
                    "sample_stderr": stderr, "z_score": z}
    return out


def close(a, b, rel):
    """|a - b| within rel of max(1, |a|, |b|); guards near-zero values."""
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def window_counts_bruteforce(sentences, targets, contexts, window):
    """All-position-pairs scan: count (t, c) pairs at distance <= window."""
    targets = set(targets)
    contexts = set(contexts)
    counts = {}
    for sent in sentences:
        words = [tok[0] for tok in sent]
        n = len(words)
        for i in range(n):
            if words[i] not in targets:
                continue
            for j in range(n):
                if j == i or abs(i - j) > window:
                    continue
                if words[j] in contexts:
                    key = (words[i], words[j])
                    counts[key] = counts.get(key, 0) + 1
    return counts


def parse_token(raw):
    """``word|TAG`` -> (word, TAG); a token with no word before the last
    bar, or with an empty tag, keeps its text as the word or has no tag."""
    if "|" in raw:
        word, _, tag = raw.rpartition("|")
        if word:
            return (word, tag or None)
    return (raw, None)


def read_sentences(path):
    """The per-token reader: one sentence per non-blank line."""
    sentences = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            toks = line.split()
            if toks:
                sentences.append(tuple(parse_token(t) for t in toks))
    return tuple(sentences)


def vocab(sentences):
    """Word frequencies, keyed in first-occurrence order."""
    counts = {}
    for sent in sentences:
        for word, _tag in sent:
            counts[word] = counts.get(word, 0) + 1
    return counts


def is_tagged(sentences):
    return any(tag is not None for sent in sentences for _w, tag in sent)


def basis_words(sentences, size):
    """Top-`size` content words by frequency, ties lexicographic."""
    if is_tagged(sentences):
        content = {w for sent in sentences for w, tag in sent
                   if tag is not None and tag[:1].upper() in ("N", "V", "J", "R")}
    else:
        content = {w for sent in sentences for w, _ in sent}
    counts = vocab(sentences)
    return tuple(sorted(content, key=lambda w: (-counts[w], w))[:size])


def pos_class(sentences, word):
    """Majority tag letter of `word`; a tie goes to the alphabetically
    first of the tied letters."""
    if not is_tagged(sentences):
        return "unknown"
    votes = {}
    for sent in sentences:
        for w, tag in sent:
            if w == word and tag:
                votes[tag[:1].upper()] = votes.get(tag[:1].upper(), 0) + 1
    if not votes:
        return "unknown"
    top = max(sorted(votes), key=lambda k: votes[k])
    return {"J": "adjective", "V": "verb"}.get(top, "unknown")


def spans_by_noun(sentences, target, nouns, reach):
    """Per noun, the (sentence, start, end) compound spans: for each target
    occurrence, each distinct noun's nearest occurrence within reach to the
    right."""
    noun_set = set(nouns)
    spans = {n: [] for n in noun_set}
    for k, sent in enumerate(sentences):
        for i, (word, _tag) in enumerate(sent):
            if word != target:
                continue
            seen = set()
            for q in range(1, reach + 1):
                if i + q >= len(sent):
                    break
                w2 = sent[i + q][0]
                if w2 in noun_set and w2 not in seen:
                    spans[w2].append((k, i, i + q))
                    seen.add(w2)
    return spans


def compound_values(sentences, spans, contexts, window):
    """PPMI over `contexts` of a compound from its spans, scanning every
    position within `window` of each span and outside it."""
    counts = vocab(sentences)
    n_total = sum(counts.values())
    joint = [0] * len(contexts)
    for k, start, end in spans:
        sent = sentences[k]
        for p in range(max(0, start - window), min(len(sent) - 1, end + window) + 1):
            if not start <= p <= end and sent[p][0] in contexts:
                joint[contexts.index(sent[p][0])] += 1
    values = np.zeros(len(contexts))
    for i, c in enumerate(contexts):
        if joint[i]:
            values[i] = max(0.0, np.log(joint[i] * n_total / (len(spans) * counts[c])))
    return values


def partition_count(n):
    """p(n) by Euler's pentagonal-number recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def central_difference_gradient(f, x, step):
    """Componentwise central finite differences of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    out = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = f(x)
        flat[k] = orig - step
        lo = f(x)
        flat[k] = orig
        out[k] = (hi - lo) / (2.0 * step)
    return grad


def _round_robin(rng, items, total):
    reps, extra = divmod(total, len(items))
    pool = list(items) * reps
    if extra:
        pick = rng.choice(len(items), size=extra, replace=False)
        pool += [items[int(i)] for i in pick]
    order = rng.permutation(total)
    return [pool[i] for i in order]


def synth_corpus(seed: int, config: SynthConfig = SynthConfig()):
    """`lingmat.synth.generate_corpus` as a loop over sentences that pops
    each sentence's context tokens from its type's pool.

    Builds the corpus as tagged sentences plus the adjacency pair counts.

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


def synth_corpus_text(sentences) -> str:
    """The corpus file of `lingmat.synth.write_synth_corpus`."""
    return "".join(" ".join(sent) + "\n" for sent in sentences)
