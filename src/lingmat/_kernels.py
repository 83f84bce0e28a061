"""Hot numeric kernels, in numpy.

Two kernel families live here: the per-matrix evaluation of the fixed
catalog of permutation-invariant polynomials, and windowed co-occurrence
pair counting over an integer-encoded corpus.
"""

import numpy as np

#: Tags whose evaluation needs one dense matrix product (O(D^3)); every
#: other catalog entry costs O(D^2).
CYCLE_TAGS = ("Mo32", "Mo42")


def catalog_values(m, with_cycles=True):
    """All 19 catalog invariants of one matrix, as a vector in the order of
    ``invariants.CATALOG``.

    Restricted sums over pairwise-distinct indices are expanded by
    inclusion-exclusion over index-coincidence patterns into unrestricted
    contractions.  When ``with_cycles`` is false the two entries that need
    a matrix product (Mo32, Mo42) are left at 0 and must not be read.
    """
    d = np.ascontiguousarray(np.diag(m))
    t1 = d.sum()
    q2 = (d * d).sum()
    q3 = (d * d * d).sum()
    q4 = (d * d * d * d).sum()
    s = m.sum()
    m2e = m * m
    f2 = m2e.sum()
    f3 = (m2e * m).sum()
    f4 = (m2e * m2e).sum()
    r = m.sum(axis=1)
    c = m.sum(axis=0)
    mt = m * m.T  # (i,j) -> M_ij * M_ji
    tr2 = mt.sum()
    dr = d @ r
    dc = d @ c
    cr = c @ r
    rr = (r * r).sum()
    cc = (c * c).sum()
    g = mt.sum(axis=1)  # g_i = sum_j M_ij M_ji = (M^2)_ii
    dg2 = d @ g
    sg2 = (g * g).sum()
    dg = (d * d) @ g
    h = d @ mt @ d
    f22 = (mt * mt).sum()

    out = np.zeros(19)
    out[0] = t1
    out[1] = s - t1
    out[2] = q2
    out[3] = f2 - q2
    out[4] = tr2 - q2
    out[5] = t1 * t1 - q2
    out[6] = dr - q2
    out[7] = dc - q2
    out[8] = cr - dr - dc - tr2 + 2.0 * q2
    out[9] = rr - 2.0 * dr - f2 + 2.0 * q2
    out[10] = cc - 2.0 * dc - f2 + 2.0 * q2
    out[11] = s * t1 - t1 * t1 - dr - dc + 2.0 * q2
    out[12] = (s * s - 2.0 * s * t1 - rr - cc - 2.0 * cr
               + t1 * t1 + f2 + tr2 + 4.0 * dr + 4.0 * dc - 6.0 * q2)
    out[13] = q3
    out[14] = f3 - q3
    out[16] = q4
    out[17] = f4 - q4
    if with_cycles:
        mm = m @ m
        tr3 = (mm * m.T).sum()
        tr4 = (mm * mm.T).sum()
        d3 = (mm * m.T).sum(axis=1)  # diag(M^3)
        dm3 = d @ d3
        out[15] = tr3 - 3.0 * dg2 + 2.0 * q3
        out[18] = (tr4 - 4.0 * dm3 - 2.0 * sg2 + 2.0 * h + f22
                   + 8.0 * dg - 6.0 * q4)
    return out


def context_counts(left, right, lo, hi, rows, cid, window, size):
    """Counts of ``rows + cid[p]`` over the context positions of anchors.

    Anchor k has context positions ``left[k] - q`` and ``right[k] + q`` for
    q = 1..window, clipped to its sentence ``[lo[k], hi[k])``; positions
    whose ``cid`` is -1 are skipped.  One masked ``bincount`` per offset
    and direction; the result is a flat int64 array of length ``size``.
    """
    counts = np.zeros(size, dtype=np.int64)
    for q in range(1, window + 1):
        for ok, pos in ((left - q >= lo, left - q), (right + q < hi, right + q)):
            c = cid[pos[ok]]
            hit = c >= 0
            counts += np.bincount(rows[ok][hit] + c[hit], minlength=size)
    return counts


def window_pair_counts(tid, cid, offsets, window, n_targets, n_contexts):
    """Co-occurrence counts between targets and contexts inside sentences.

    ``tid``/``cid`` hold, per corpus position, a target- respectively
    context-index or -1.  ``offsets`` delimits sentences.  A pair is
    counted for every (target position, context position) within distance
    ``window`` in the same sentence; a position never pairs with itself.
    """
    pos = np.flatnonzero(tid >= 0)
    sent = np.searchsorted(offsets, pos, side="right")
    rows = tid[pos].astype(np.int64) * n_contexts
    counts = context_counts(pos, pos, offsets[sent - 1], offsets[sent], rows, cid,
                            window, n_targets * n_contexts)
    return counts.reshape(n_targets, n_contexts)

