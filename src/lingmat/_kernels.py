"""Hot numeric kernels, in numpy.

Three kernel families live here: the per-matrix evaluation of the fixed
catalog of permutation-invariant polynomials, windowed context counting
around the spans of one chunk of an integer-encoded corpus (a target
occurrence is a one-token span, a compound a longer one), and the byte-block
tokenizer with its table of token types, which the corpus reader runs on
each block.  The reader reads ``_CHUNK`` bytes at a time, and the corpus
is read back in chunks of whole sentences of at least ``_CHUNK`` tokens,
so no per-token temporary outgrows one block or chunk.
"""

import numpy as np

#: Bytes of float64 matrix data per stacked block: the bound on what one
#: block holds, which keeps memory per draw flat at any ensemble size.
_BLOCK_BYTES = 65536


def block_size(dim):
    """Matrices per stacked ``(B, D, D)`` block: as many as fit in
    ``_BLOCK_BYTES``, and at least one (B = 9 at D = 30)."""
    return max(1, _BLOCK_BYTES // (8 * dim * dim))


#: Bytes per read of the corpus reader, and the fewest tokens per chunk
#: of the corpus read back: about 1 MB of temporaries per chunk, and few
#: enough chunks that per-chunk call overhead stays below the gather work
#: (shorter chunks ran slower).
_CHUNK = 1 << 16


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


def window_pair_counts(type_ids, offsets, left, right, rows, cmap, window, counts):
    """Add the context counts of spans inside the sentences of one chunk,
    given as the type id of each token, to the int64 table ``counts`` in
    place, and return the number of pairs added.

    ``offsets`` delimits the chunk's sentences, its end last.  Span k
    covers the positions ``left[k]..right[k]`` of one sentence (a target
    occurrence is a span from its token to itself) and counts into row
    ``rows[k]`` of ``counts``.  Its context positions are ``left[k] - q``
    and ``right[k] + q`` for q = 1..window, clipped to its sentence;
    ``cmap`` maps each type id to a column of ``counts``, or -1 for a
    position that is not counted.  One masked ``bincount`` per offset and
    direction, gathering type ids at the visited positions only.
    """
    sent = np.searchsorted(offsets, left, side="right")
    before, after = left - offsets[sent - 1], offsets[sent] - 1 - right  # room in the sentence
    rows = rows * counts.shape[1]
    flat, added = counts.reshape(-1), np.int64(0)
    for q in range(1, window + 1):
        for ok, pos in ((before >= q, left - q), (after >= q, right + q)):
            c = cmap.take(type_ids.take(pos[ok]))
            key = rows[ok] + c
            key = key[c >= 0]
            flat += np.bincount(key, minlength=flat.size)
            added += key.size
    return added


# ---------------------------------------------------------------------------
# byte-block tokenizing
# ---------------------------------------------------------------------------

#: The 19 non-ASCII separators of `str.split`.
_UNICODE_SPACES = ("\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B)))
                   + "\u2028\u2029\u202f\u205f\u3000")

#: The big-endian integers of their 2- and 3-byte UTF-8 forms, each of
#: which starts with a byte >= 0xC2.
_SPACE_CODES = {width: np.array(sorted(
    int.from_bytes(c.encode(), "big") for c in _UNICODE_SPACES if len(c.encode()) == width))
    for width in (2, 3)}

#: Zero bytes that follow a block given to `tokens` or `TypeTable.nodes`,
#: so that an 8-byte load at any block position stays inside the buffer.
PAD = bytes(8)

#: Per n in 0..8, the mask of the low n bytes of a little-endian uint64.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

#: Marks a continuation key: (previous node id | _LINK, next 8 bytes).
_LINK = np.uint64(1 << 63)


def blocks(fh):
    """The bytes of binary file `fh` in blocks that end after their last
    line end, before a ``\\r`` that ends a read (it may start a ``\\r\\n``),
    or at the end of the file.  Each block holds the rest of the previous
    read plus one read of ``_CHUNK`` bytes; a longer line extends it."""
    parts = []
    while data := fh.read(_CHUNK):
        cut = (len(data) - 1 if data.endswith(b"\r")
               else max(data.rfind(b"\n"), data.rfind(b"\r")) + 1)
        if cut:
            parts.append(data[:cut])
            yield b"".join(parts)
            parts, data = [], data[cut:]
        if data:
            parts.append(data)
    if parts:
        yield b"".join(parts)


def tokens(padded: bytes):
    """The tokens of a block, given as its bytes followed by `PAD`.

    A token is a maximal run of bytes that are neither separators nor line
    ends.  Returns the start and length of each token (int32 unless the
    block holds 2**31 bytes or more), the index of the first token of
    each sentence, and the block's line ends as text-mode reading counts
    them, where ``\\n``, ``\\r`` and ``\\r\\n`` each count once: tokens
    split as ``str.split`` splits the lines of text-mode reading, and
    lines without tokens drop.
    """
    buf = np.frombuffer(padded, dtype=np.uint8)
    n = buf.size - len(PAD)
    b = buf[:n]
    inside = np.zeros(n + 2, dtype=bool)
    body = inside[1:-1]
    # every byte but the ASCII separators 09-0D and 1C-20
    np.greater(b, 0x20, out=body)
    body |= b < 0x09
    body |= (b > 0x0D) & (b < 0x1C)
    if b.max(initial=0) >= 0xC2:
        lead = np.flatnonzero(b >= 0xC2)
        code = (buf[lead].astype(np.int32) << 16) | (buf[lead + 1].astype(np.int32) << 8)
        code |= buf[lead + 2]
        for width, spaces in _SPACE_CODES.items():
            hit = lead[np.isin(code >> 8 * (3 - width), spaces)]
            for k in range(width):
                body[hit + k] = False
    edges = np.flatnonzero(inside[1:] != inside[:-1])
    edges = edges.astype(np.int32 if n < 2**31 else np.int64)  # one line can exceed 2 GB
    del inside, body
    start, length = edges[0::2], edges[1::2] - edges[0::2]
    ends = np.flatnonzero((b == 0x0A) | (b == 0x0D))
    # a "\n" right after a "\r" adds none
    lf = b.take(ends) == 0x0A
    lines = ends.size - np.count_nonzero(lf[1:] & ~lf[:-1] & (np.diff(ends) == 1))
    # the first token after each line end, and the block's first token
    first = np.searchsorted(start, ends)
    first = np.concatenate(([0], first[first < start.size])) if start.size else first[:0]
    return start, length, first[np.diff(first, prepend=-1) != 0], int(lines)


class TypeTable:
    """The token types of a corpus: node ids 0, 1, ... for exact two-word
    uint64 keys, in insertion order, where a token's byte string is a chain
    of keys ending in its type's node (see `nodes`).

    Open addressing with linear probing over power-of-two arrays that stay
    at most half full and double when they would fill; every call looks up
    a whole array of keys at once.  A first word of 0 marks an empty slot;
    no key has one.
    """

    def __init__(self):
        self.size = 0
        self._alloc(16)

    def _alloc(self, slots):
        self.k0 = np.zeros(slots, dtype=np.uint64)
        self.k1 = np.zeros(slots, dtype=np.uint64)
        self.ids = np.zeros(slots, dtype=np.int32)
        self.shift = np.uint64(65 - slots.bit_length())

    def _slots(self, k0, k1):
        """Home slots: the top bits of a multiply-xorshift mix of both
        words (the constants of splitmix64)."""
        h = k0 * np.uint64(0x9E3779B97F4A7C15)
        h ^= k1
        h *= np.uint64(0xBF58476D1CE4E5B9)
        h ^= h >> np.uint64(32)
        h *= np.uint64(0x94D049BB133111EB)
        return (h >> self.shift).astype(np.intp)

    def find(self, k0, k1):
        """The node id of each key, or -1."""
        mask = self.k0.size - 1
        slot = self._slots(k0, k1)
        at = self.k0.take(slot)
        hit = (at == k0) & (self.k1.take(slot) == k1)
        out = self.ids.take(slot)
        if hit.all():
            return out
        out[~hit] = -1
        todo = np.flatnonzero(~hit & (at != 0))
        slot = slot[todo]
        while todo.size:
            slot = (slot + 1) & mask
            at = self.k0.take(slot)
            hit = (at == k0[todo]) & (self.k1.take(slot) == k1[todo])
            out[todo[hit]] = self.ids.take(slot[hit])
            go = ~hit & (at != 0)
            todo, slot = todo[go], slot[go]
        return out

    def _insert(self, k0, k1, ids):
        """Store keys absent from the table; where several probe to one
        free slot, the first of them takes it."""
        mask = self.k0.size - 1
        slot = self._slots(k0, k1)
        todo = np.arange(k0.size)
        while todo.size:
            free = np.flatnonzero(self.k0[slot] == 0)
            _, first = np.unique(slot[free], return_index=True)
            won = free[first]
            s, i = slot[won], todo[won]
            self.k0[s], self.k1[s], self.ids[s] = k0[i], k1[i], ids[i]
            lost = np.ones(todo.size, dtype=bool)
            lost[won] = False
            todo, slot = todo[lost], (slot[lost] + 1) & mask

    def add(self, k0, k1):
        """The node id of each key; new keys get the next ids in order of
        their first position."""
        ids = self.find(k0, k1)
        miss = np.flatnonzero(ids < 0)
        if not miss.size:
            return ids
        m0, m1 = k0[miss], k1[miss]
        order = np.lexsort((m1, m0))  # stable: equal keys in position order
        s0, s1 = m0[order], m1[order]
        head = np.ones(order.size, dtype=bool)
        head[1:] = (s0[1:] != s0[:-1]) | (s1[1:] != s1[:-1])
        first = order[head]  # per distinct key, in key order: its first index
        is_first = np.zeros(miss.size, dtype=bool)
        is_first[first] = True
        # the same indices in position order, from a mask: numpy's default
        # sort would fault in ~0.3 MB more of its SIMD library code
        new = np.flatnonzero(is_first)
        id_at = np.cumsum(is_first, dtype=np.int32) + np.int32(self.size - 1)
        ids[miss[order]] = id_at[first][np.cumsum(head) - 1]
        self.size += new.size
        if 2 * self.size > self.k0.size:
            used = np.flatnonzero(self.k0)
            old = self.k0[used], self.k1[used], self.ids[used]
            self._alloc(1 << (2 * self.size - 1).bit_length())
            self._insert(*old)
        self._insert(m0[new], m1[new], ids[miss[new]])
        return ids

    def nodes(self, padded: bytes, start, length):
        """The node of each token's whole byte string, for the tokens of
        `tokens`: the key of its length and first 8 bytes, then per further
        8 bytes the continuation key of the previous node and those bytes."""
        u64 = np.ndarray(len(padded) - 7, dtype="<u8", buffer=padded, strides=(1,))
        node = self.add(length.astype(np.uint64),
                        u64.take(start) & _LOW_BYTES.take(np.minimum(length, 8)))
        at, k = np.flatnonzero(length > 8), 8
        while at.size:
            rest = length[at] - k
            node[at] = self.add(node[at].astype(np.uint64) | _LINK,
                                u64.take(start[at] + k) & _LOW_BYTES.take(np.minimum(rest, 8)))
            at, k = at[rest > 8], k + 8
        return node
