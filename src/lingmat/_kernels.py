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
#: Evaluating a block allocates about three blocks more, the Mᵀ, M² and
#: M³ of ``catalog_values``.
_BLOCK_BYTES = 131072


def block_size(dim):
    """Matrices per stacked ``(B, D, D)`` block: as many as fit in
    ``_BLOCK_BYTES``, and at least one (B = 18 at D = 30, 4 at D = 60, 2
    at D = 80, 1 from D = 91 up)."""
    return max(1, _BLOCK_BYTES // (8 * dim * dim))


#: Bytes per read of the corpus reader, and the fewest tokens per chunk
#: of the corpus read back: about 1 MB of temporaries per chunk, and few
#: enough chunks that per-chunk call overhead stays below the gather work
#: (shorter chunks ran slower).
_CHUNK = 1 << 16


#: The rows of V, one per matrix: 1, d = diag M, d∘d, r = M·1, c = 1·M,
#: g = diag M² and e = diag M³.
_GRAM_VECTORS = ("1", "d", "d2", "r", "c", "g", "e")

#: The base quantities that are entries of the Gram matrix V Vᵀ.
_GRAM_ENTRIES = {"t1": ("1", "d"), "s": ("1", "r"), "q2": ("d", "d"), "q3": ("d", "d2"),
                 "q4": ("d2", "d2"), "tr2": ("1", "g"), "tr3": ("1", "e"), "dr": ("d", "r"),
                 "dc": ("d", "c"), "cr": ("r", "c"), "rr": ("r", "r"), "cc": ("c", "c"),
                 "dg": ("d", "g"), "d2g": ("d2", "g"), "gg": ("g", "g"), "de": ("d", "e")}

#: The base quantities of one matrix M, in the order ``catalog_values``
#: gathers them: the sums of M∘M, M∘M∘M, (M∘M)², (M∘Mᵀ)² and M³∘Mᵀ, the
#: Gram entries, h = dᵀ(M∘Mᵀ)d, and three products of sums.
_BASE = ("f2", "f3", "f4", "f22", "tr4", *_GRAM_ENTRIES, "h", "t1t1", "st1", "ss")

#: Each catalog invariant in catalog order: its tag, its graph's vertex
#: count and its restricted sum over pairwise-distinct indices, expanded
#: by inclusion-exclusion over index coincidences into ``_BASE``.
_EXPANSIONS = (
    ("Md1", 1, {"t1": 1}),
    ("Mo1", 2, {"s": 1, "t1": -1}),
    ("Md2", 1, {"q2": 1}),
    ("Mo21", 2, {"f2": 1, "q2": -1}),
    ("Mo22", 2, {"tr2": 1, "q2": -1}),
    ("Qdd", 2, {"t1t1": 1, "q2": -1}),
    ("Qdio", 2, {"dr": 1, "q2": -1}),
    ("Qoid", 2, {"dc": 1, "q2": -1}),
    ("Qchain", 3, {"cr": 1, "dr": -1, "dc": -1, "tr2": -1, "q2": 2}),
    ("Qout", 3, {"rr": 1, "dr": -2, "f2": -1, "q2": 2}),
    ("Qin", 3, {"cc": 1, "dc": -2, "f2": -1, "q2": 2}),
    ("Qodiag", 3, {"st1": 1, "t1t1": -1, "dr": -1, "dc": -1, "q2": 2}),
    ("Qdisc", 4, {"ss": 1, "st1": -2, "rr": -1, "cc": -1, "cr": -2, "t1t1": 1, "f2": 1,
                  "tr2": 1, "dr": 4, "dc": 4, "q2": -6}),
    ("Md3", 1, {"q3": 1}),
    ("Mo31", 2, {"f3": 1, "q3": -1}),
    ("Mo32", 3, {"tr3": 1, "dg": -3, "q3": 2}),
    ("Md4", 1, {"q4": 1}),
    ("Mo41", 2, {"f4": 1, "q4": -1}),
    ("Mo42", 4, {"tr4": 1, "de": -4, "gg": -2, "h": 2, "f22": 1, "d2g": 8, "q4": -6}),
)

#: Where each Gram entry sits in a flattened V Vᵀ.
_GRAM_INDEX = np.array([_GRAM_VECTORS.index(a) * len(_GRAM_VECTORS) + _GRAM_VECTORS.index(b)
                        for a, b in _GRAM_ENTRIES.values()])

#: The ``(25, 19)`` coefficients: catalog = base quantities @ ``COEF``.
COEF = np.array([[e.get(b, 0) for _, _, e in _EXPANSIONS] for b in _BASE], dtype=float)

#: Vertices of each invariant's graph: the invariant is an empty sum, 0,
#: at any D below it.
VERTICES = np.array([v for _, v, _ in _EXPANSIONS])


def catalog_values(m):
    """All 19 catalog invariants, in the order of ``invariants.CATALOG``, of
    one ``(D, D)`` matrix (a ``(19,)`` vector) or of each matrix of an
    ``(N, D, D)`` stack (an ``(N, 19)`` table).

    Restricted sums over pairwise-distinct indices are expanded by
    inclusion-exclusion (``_EXPANSIONS``) into the 25 unrestricted
    contractions of ``_BASE``.  Per block: one contiguous copy of Mᵀ, the
    products M² and M³, five elementwise products, one batched
    ``(7, D) @ (D, 7)`` Gram product of the vectors ``_GRAM_VECTORS`` and
    one batched ``(1, D) @ (D, D) @ (D, 1)`` product for h.  Mᵀ, M² and
    M³ are the only temporaries of the stack's size: once the diagonals
    of M² and M³ are in V, each elementwise product is written into one
    of them and summed over its matrix axes into a ``(5, N)`` table.  The
    invariants are the base quantities times ``COEF``; those with more
    graph vertices than D are set to exactly 0.

    A matrix is evaluated as a stack of one, and every row of a stack gets
    the same bits as the matrix alone: the stack and every buffer are
    C-contiguous, each reduction runs over one matrix's own axes, and
    every product is batched, one BLAS call per matrix of the same shape
    at any N.  That holds for the last step too, a batched
    ``(1, 25) @ (25, 19)``; a 2-D ``(N, 25) @ (25, 19)`` would be a gemm
    call at N > 1 but a gemv call at N = 1.
    """
    m = np.ascontiguousarray(m)
    single = m.ndim == 2
    if single:
        m = m[None]
    n, dim = len(m), m.shape[-1]
    mT = np.ascontiguousarray(m.swapaxes(1, 2))
    v = np.empty((n, len(_GRAM_VECTORS), dim))
    v[:, 0] = 1.0
    v[:, 1] = np.diagonal(m, axis1=1, axis2=2)
    np.multiply(v[:, 1], v[:, 1], out=v[:, 2])
    ones = np.ones(dim)
    np.matmul(m, ones, out=v[:, 3])
    np.matmul(ones, m, out=v[:, 4])

    # M² and M³ are scratch once their diagonals are in V: each elementwise
    # product is written into one of them and summed at once
    sq = np.matmul(m, m)
    v[:, 5] = np.diagonal(sq, axis1=1, axis2=2)
    cube = np.matmul(sq, m)
    v[:, 6] = np.diagonal(cube, axis1=1, axis2=2)
    sums = np.empty((5, n))
    np.multiply(cube, mT, out=cube)  # sums to tr M⁴
    cube.sum(axis=(1, 2), out=sums[4])
    np.multiply(m, m, out=sq)
    sq.sum(axis=(1, 2), out=sums[0])
    np.multiply(sq, m, out=cube)
    cube.sum(axis=(1, 2), out=sums[1])
    np.multiply(sq, sq, out=cube)
    cube.sum(axis=(1, 2), out=sums[2])
    np.multiply(m, mT, out=sq)  # M∘Mᵀ
    h = (v[:, 1:2] @ sq) @ v[:, 1, :, None]
    np.multiply(sq, sq, out=sq)
    sq.sum(axis=(1, 2), out=sums[3])
    gram = (v @ v.swapaxes(1, 2)).reshape(n, len(_GRAM_VECTORS) ** 2)

    base = np.empty((n, 1, len(_BASE)))
    f = base[:, 0]
    f[:, :5] = sums.T
    f[:, 5:21] = gram[:, _GRAM_INDEX]
    f[:, 21] = h[:, 0, 0]
    t1, s = f[:, 5], f[:, 6]
    f[:, 22], f[:, 23], f[:, 24] = t1 * t1, s * t1, s * s
    out = (base @ COEF)[:, 0]
    out[:, VERTICES > dim] = 0.0
    return out[0] if single else out


def window_pair_counts(type_ids, offsets, left, right, rows, cmap, window, counts):
    """Add the context counts of spans inside the sentences of one chunk,
    given as the ``intp`` type id of each token, to the int64 table
    ``counts`` in place, and return the number of pairs added.

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

#: Zero bytes that follow each block of `blocks`, so that an 8-byte load
#: at any block position stays inside the buffer.
PAD = bytes(8)

#: Per n in 0..8, the mask of the low n bytes of a little-endian uint64.
_LOW_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)

#: Marks a continuation key: (previous node id | _LINK, next 8 bytes).
_LINK = np.uint64(1 << 63)


def blocks(fh, end=None):
    """The bytes of binary file `fh`, from its position up to byte `end`
    (to the end of the file if None), in blocks that end after their last
    line end, before a ``\\r`` that ends a read (it may start a ``\\r\\n``),
    or at the end, each followed by `PAD`.  Each block holds the rest of
    the previous read plus one read of ``_CHUNK`` bytes; a longer line
    extends it."""
    parts = []
    while data := fh.read(_CHUNK if end is None else min(_CHUNK, end - fh.tell())):
        cut = (len(data) - 1 if data.endswith(b"\r")
               else max(data.rfind(b"\n"), data.rfind(b"\r")) + 1)
        if cut:
            parts += (data[:cut], PAD)
            yield b"".join(parts)
            parts, data = [], data[cut:]
        if data:
            parts.append(data)
    if parts:
        yield b"".join(parts + [PAD])


def tokens(padded: bytes):
    """The tokens of a block of `blocks`, its bytes followed by `PAD`.

    A token is a maximal run of bytes that are neither separators nor line
    ends.  Returns the start and length of each token and the index of the
    first token of each sentence, all ``intp``, and the block's line ends
    as text-mode reading counts them, where ``\\n``, ``\\r`` and ``\\r\\n``
    each count once: tokens split as ``str.split`` splits the lines of
    text-mode reading, and lines without tokens drop.
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
