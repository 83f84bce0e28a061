"""Hot numeric kernels, in numpy.

Two kernel families live here: the per-matrix evaluation of the fixed
catalog of permutation-invariant polynomials, and windowed co-occurrence
pair counting over an integer-encoded corpus.  Every full-corpus pass runs
over chunks of ``_CHUNK`` token positions, so no per-token temporary
outgrows one chunk.
"""

import numpy as np

#: Bytes of float64 matrix data per stacked block: the bound on what one
#: block holds, which keeps memory per draw flat at any ensemble size.
_BLOCK_BYTES = 65536


def block_size(dim):
    """Matrices per stacked ``(B, D, D)`` block: as many as fit in
    ``_BLOCK_BYTES``, and at least one (B = 9 at D = 30)."""
    return max(1, _BLOCK_BYTES // (8 * dim * dim))


#: Token positions per chunk of a full-corpus pass: about 1 MB of
#: temporaries per pass, and few enough chunks that per-chunk call
#: overhead stays below the gather work (shorter chunks ran slower).
_CHUNK = 1 << 16


def chunks(n):
    """``(start, stop)`` of consecutive ``_CHUNK``-position chunks of ``range(n)``."""
    step = _CHUNK
    return ((lo, min(lo + step, n)) for lo in range(0, n, step))


def scan(word_ids, table):
    """Positions ``p`` with ``table[word_ids[p]] >= 0``, chunk by chunk.

    ``table`` maps each word id to an index or -1.  Yields, per chunk, the
    int64 positions found and their table values, in position order.
    """
    member = table >= 0
    for lo, hi in chunks(word_ids.size):
        pos = np.flatnonzero(member.take(word_ids[lo:hi])) + lo
        yield pos, table.take(word_ids.take(pos))


def catalog_values(m):
    """All 19 catalog invariants, in the order of ``invariants.CATALOG``, of
    one ``(D, D)`` matrix (a ``(19,)`` vector) or of each matrix of an
    ``(N, D, D)`` stack (an ``(N, 19)`` table).

    Restricted sums over pairwise-distinct indices are expanded by
    inclusion-exclusion over index-coincidence patterns into unrestricted
    contractions.  Mo32 and Mo42 take one batched matrix product; every
    other entry costs O(D^2) per matrix.

    A matrix is evaluated as a stack of one, and every row of a stack gets
    the same bits as the matrix alone: the stack and each product summed
    are C-contiguous, each reduction runs over one matrix's own axes, and
    each dot product is a batched ``(1, D) @ (D, 1)`` matmul, the same
    BLAS call as a 1-D ``@``.
    """
    m = np.ascontiguousarray(m)
    single = m.ndim == 2
    if single:
        m = m[None]
    mT = m.swapaxes(-1, -2)

    def dot(x, y):  # x_k . y_k for each member k
        return (x[:, None, :] @ y[:, :, None])[:, 0, 0]

    d = np.ascontiguousarray(np.diagonal(m, axis1=1, axis2=2))
    d2 = d * d
    t1 = d.sum(axis=1)
    q2 = d2.sum(axis=1)
    q3 = (d2 * d).sum(axis=1)
    q4 = (d2 * d * d).sum(axis=1)
    s = m.sum(axis=(1, 2))
    scratch = np.empty_like(m)
    m2e = m * m
    f2 = m2e.sum(axis=(1, 2))
    f3 = np.multiply(m2e, m, out=scratch).sum(axis=(1, 2))
    f4 = np.multiply(m2e, m2e, out=scratch).sum(axis=(1, 2))
    r = m.sum(axis=2)
    c = m.sum(axis=1)
    mt = np.multiply(m, mT, out=np.empty_like(m))  # (i,j) -> M_ij * M_ji
    tr2 = mt.sum(axis=(1, 2))
    dr = dot(d, r)
    dc = dot(d, c)
    cr = dot(c, r)
    rr = (r * r).sum(axis=1)
    cc = (c * c).sum(axis=1)
    g = mt.sum(axis=2)  # g_i = sum_j M_ij M_ji = (M^2)_ii
    dg2 = dot(d, g)
    sg2 = (g * g).sum(axis=1)
    dg = dot(d2, g)
    h = dot((d[:, None, :] @ mt)[:, 0], d)
    f22 = np.multiply(mt, mt, out=scratch).sum(axis=(1, 2))

    out = np.empty((len(m), 19))
    out[:, 0] = t1
    out[:, 1] = s - t1
    out[:, 2] = q2
    out[:, 3] = f2 - q2
    out[:, 4] = tr2 - q2
    out[:, 5] = t1 * t1 - q2
    out[:, 6] = dr - q2
    out[:, 7] = dc - q2
    out[:, 8] = cr - dr - dc - tr2 + 2.0 * q2
    out[:, 9] = rr - 2.0 * dr - f2 + 2.0 * q2
    out[:, 10] = cc - 2.0 * dc - f2 + 2.0 * q2
    out[:, 11] = s * t1 - t1 * t1 - dr - dc + 2.0 * q2
    out[:, 12] = (s * s - 2.0 * s * t1 - rr - cc - 2.0 * cr
                  + t1 * t1 + f2 + tr2 + 4.0 * dr + 4.0 * dc - 6.0 * q2)
    out[:, 13] = q3
    out[:, 14] = f3 - q3
    out[:, 16] = q4
    out[:, 17] = f4 - q4
    mm = m @ m
    mm3 = np.multiply(mm, mT, out=scratch)  # (i,j) -> (M^2)_ij M_ji
    tr3 = mm3.sum(axis=(1, 2))
    dm3 = dot(d, mm3.sum(axis=2))  # d . diag(M^3)
    tr4 = np.multiply(mm, mm.swapaxes(-1, -2), out=scratch).sum(axis=(1, 2))
    out[:, 15] = tr3 - 3.0 * dg2 + 2.0 * q3
    out[:, 18] = (tr4 - 4.0 * dm3 - 2.0 * sg2 + 2.0 * h + f22
                  + 8.0 * dg - 6.0 * q4)
    return out[0] if single else out


def context_counts(left, right, lo, hi, rows, word_ids, cmap, window, counts):
    """Add the counts of ``rows + cmap[word_ids[p]]`` over the context
    positions ``p`` of anchors to the flat int64 array ``counts``.

    Anchor k has context positions ``left[k] - q`` and ``right[k] + q`` for
    q = 1..window, clipped to its sentence ``[lo[k], hi[k])``; positions
    whose word maps to -1 in ``cmap`` are skipped.  One masked ``bincount``
    per offset and direction, gathering word ids at the visited positions
    only.
    """
    before, after = left - lo, hi - 1 - right  # room in the sentence
    for q in range(1, window + 1):
        for ok, pos in ((before >= q, left - q), (after >= q, right + q)):
            c = cmap.take(word_ids.take(pos[ok]))
            key = rows[ok] + c
            counts += np.bincount(key[c >= 0], minlength=counts.size)


def window_pair_counts(word_ids, tmap, cmap, offsets, window, n_targets, n_contexts):
    """Co-occurrence counts between targets and contexts inside sentences.

    ``tmap``/``cmap`` map each word id to a target respectively context
    index, or -1.  ``offsets`` delimits sentences.  A pair is counted for
    every (target position, context position) within distance ``window``
    in the same sentence; a position never pairs with itself.  Targets are
    found chunk by chunk, and their windows read the whole ``word_ids``, so
    windows that cross a chunk edge count in full.
    """
    counts = np.zeros(n_targets * n_contexts, dtype=np.int64)
    for pos, t in scan(word_ids, tmap):
        sent = np.searchsorted(offsets, pos, side="right")
        context_counts(pos, pos, offsets[sent - 1], offsets[sent],
                       t.astype(np.int64) * n_contexts, word_ids, cmap, window, counts)
    return counts.reshape(n_targets, n_contexts)
