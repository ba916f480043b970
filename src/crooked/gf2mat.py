"""GF(2) elimination in three shapes: many small systems at once, one
large matrix, and a few small matrices of Python ints.

`rank_and_normal_batched` reduces many systems of uint32 bitset vectors,
one system per array element: the derivatives and components of the
quadratic path. `pack_rows` and `rank_packed` reduce one bit-packed uint64
matrix: what is left of a development matrix (2^{2n} square) of the rank
invariants once `invariants.development_rank` has taken out its unit
pivots over the group ring. `rank_packed` is word-column Four-Russians
elimination: 64 columns at a time, cleared by 256-entry table lookups from
the rows that reach them. `rank_ints` ranks the small matrices that count
those unit pivots.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np


def rank_and_normal_batched(
    vectors: Sequence[np.ndarray], cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Rank and a normal of many systems of small vectors at once.

    vectors[i][s] is vector i of system s, a uint32 bitset of `cols` bits.
    Returns (rank, normal): rank[s] is the rank of system s, and normal[s]
    a w != 0 with parity(w & v) = 0 for every vector v of the system, which
    is the only one when rank[s] = cols - 1, or 0 when rank[s] = cols. The
    vectors are reduced in place.
    """
    rows: List[np.ndarray] = []
    pivots: List[np.ndarray] = []  # lowest set bit of each reduced row, or 0
    for v in vectors:
        # Each pivot bit is set in its own row only, so the order of these
        # reductions does not matter.
        for r, p in zip(rows, pivots):
            v ^= r * ((v & p) != 0)
        p = v & (~v + np.uint32(1))
        for r in rows:
            r ^= v * ((r & p) != 0)
        rows.append(v)
        pivots.append(p)
    rank = np.zeros(rows[0].shape, dtype=np.int64)
    covered = np.zeros(rows[0].shape, dtype=np.uint32)
    for p in pivots:
        rank += p != 0
        covered |= p
    free = ~covered & np.uint32((1 << cols) - 1)
    j = free & (~free + np.uint32(1))
    normal = j.copy()
    for r, p in zip(rows, pivots):
        normal |= p * ((r & j) != 0)
    return rank, normal


def rank_ints(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as Python-int bitsets, keeping one row
    per leading bit: for small matrices, where a numpy call would cost more
    than the whole elimination."""
    leading = {}
    for r in rows:
        while r:
            top = r.bit_length()
            if top not in leading:
                leading[top] = r
                break
            r ^= leading[top]
    return len(leading)


def pack_rows(bool_rows: np.ndarray) -> np.ndarray:
    """Pack a (R, C) boolean matrix into (R, W) uint64 words, little-endian."""
    packed = np.packbits(bool_rows, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


# Target words per pass of the table lookups: 256 KB, which stays in a
# core's L2 cache while every table is applied to it.
_BLOCK_WORDS = 1 << 15


def _xor_combinations(
    target: np.ndarray, index: np.ndarray, rows: np.ndarray, coeffs: np.ndarray
) -> None:
    """target[index] ^= the sums of `rows` that `coeffs` selects, over GF(2).

    rows is (m, L) uint64, target (N, L) uint64, index (M,) row numbers of
    target and coeffs (M, >= ceil(m / 8)) uint8: bit j of coeffs[i, g] adds
    row 8g + j into target[index[i]]. Each group of 8 rows is one 256-entry
    table of its sums and one lookup per indexed row. The indexed rows are
    gathered and scattered back one block at a time, so the rows left out
    are neither copied nor touched.
    """
    groups = -(-rows.shape[0] // 8)
    tables = np.zeros((groups, 256, rows.shape[1]), dtype=np.uint64)
    for g, table in enumerate(tables):
        for j, r in enumerate(rows[8 * g : 8 * g + 8]):
            np.bitwise_xor(table[: 1 << j], r, out=table[1 << j : 2 << j])
    step = max(1, _BLOCK_WORDS // rows.shape[1])
    for start in range(0, index.size, step):
        at = index[start : start + step]
        block = target[at]
        for g, table in enumerate(tables):
            block ^= table.take(coeffs[start : start + step, g], axis=0)
        target[at] = block


def _word_pivots(word: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """Pivot rows of the (N,) uint64 column `word`, and how every row
    reduces on them, by eliminating the column one bit at a time.

    Returns (pivots, comb): word[pivots] is a basis of the span of the
    words, and every word[i] is the sum of the word[pivots[j]] for which bit
    j of comb[i] is set.
    """
    c = word.copy()
    comb = np.zeros_like(c)
    pivots: List[int] = []
    present = int(np.bitwise_or.reduce(c))
    while present:
        bit = present & -present
        present ^= bit
        hit = (c & np.uint64(bit)) != 0
        p = int(hit.argmax())
        if hit[p]:
            # c[i] is word[i] plus the pivot words that comb[i] selects, so
            # adding c[p] adds word[p], the new pivot, and comb[p].
            step = comb[p] | np.uint64(1 << len(pivots))
            c ^= c[p] * hit
            comb ^= step * hit
            pivots.append(p)
            present &= int(np.bitwise_or.reduce(c))
    return pivots, comb


def rank_packed(a: np.ndarray, cols: int) -> int:
    """Rank over GF(2) of a (R, W) uint64 bit matrix whose column c is bit
    c % 64 of word c // 64; a is consumed.

    Word-column Method of Four Russians (Albrecht, Bard & Hart, ACM TOMS
    2010). The rows past `rank` are zero on the words already done. For each
    word, only the rows with a bit in it take part: the pivot rows, and the
    sum of pivot rows that matches each of those rows on that word, come
    from eliminating the word's column alone; one 256-entry table lookup per
    8 pivots then adds those sums to each of those rows, which clears the
    word, and the pivot rows, now zero, move to the top. A triangular or
    sparse matrix, where few rows reach a word, thus costs lookups on those
    rows only; a dense one costs one `flatnonzero` more per word.
    """
    if cols % 64:
        a[:, cols // 64] &= np.uint64((1 << (cols % 64)) - 1)
    rank = 0
    for w in range(-(-cols // 64)):
        live = a[rank:, w:]
        index = np.flatnonzero(live[:, 0])
        found, comb = _word_pivots(live[index, 0])
        k = len(found)
        if not k:
            continue
        pivots = index[found].tolist()
        coeffs = comb.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
        # live[pivots] is a copy, so the pivot rows serve as the table rows
        # while the lookups zero them.
        _xor_combinations(live, index, live[pivots], coeffs)
        src = [p for p in pivots if p >= k]
        live[src] = live[sorted(set(range(k)) - set(pivots))]
        rank += k
    return rank
