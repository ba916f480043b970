"""GF(2) elimination in two shapes. `rank_and_normal_batched` reduces many
systems of uint32 bitset vectors at once, one system per array element:
the derivatives and components of the quadratic path. `rank_packed` ranks
one bit-packed matrix on Python-int rows: the window probes and the Schur
complement of the development ranks (`invariants.development_rank`).
`pack_rows` packs a boolean matrix into uint64 words.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def pack_rows(bool_rows: np.ndarray) -> np.ndarray:
    """Pack a (R, C) boolean matrix into (R, W) uint64 words, little-endian."""
    packed = np.packbits(bool_rows, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % 8
    if pad:
        packed = np.pad(packed, ((0, 0), (0, pad)))
    return np.ascontiguousarray(packed).view(np.uint64)


def rank_packed(a: np.ndarray) -> int:
    """Rank over GF(2) of a 2-D array of little-endian bit-packed words of
    any unsigned dtype, each row read as one Python int; one row is kept
    per leading bit.

    The rows are read bottom row first, so that the pivot rows found first
    are sparse: the window probes of `invariants.development_rank` are
    upper triangular, and its expanded Schur complement, though filled in
    below the diagonal, keeps the fewest bits in its bottom rows.
    """
    leading = [0] * (8 * a.itemsize * a.shape[1] + 1)  # the row kept per bit_length
    rank = 0
    for row in a[::-1]:
        r = int.from_bytes(row.tobytes(), "little")
        while r:
            top = r.bit_length()
            p = leading[top]
            if not p:
                leading[top] = r
                rank += 1
                break
            r ^= p
    return rank
