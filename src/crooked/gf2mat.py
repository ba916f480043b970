"""GF(2) linear algebra on int bitsets and bit-packed numpy arrays.

Row vectors are plain Python ints: bit j of a row is the entry in column j.
`echelon` is the one elimination over int bitsets; ranks and nullspaces are
read off its result. The packed uint64 routines exist for the large
development matrices (2^{2n} square). `rank_and_normal_batched` is the one
numpy-batched elimination: many small systems, one per array element.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


def echelon(rows: Iterable[int], stop: Optional[int] = None) -> Dict[int, int]:
    """Reduced row echelon form of the span of `rows`, as {pivot column: row}.

    A row's pivot is its leading bit, and each pivot column is set in its own
    row only. Reduction ends once `stop` pivots are found.
    """
    red: Dict[int, int] = {}
    for v in rows:
        for p, r in red.items():
            if (v >> p) & 1:
                v ^= r
        if v:
            p = v.bit_length() - 1
            for q in red:
                if (red[q] >> p) & 1:
                    red[q] ^= v
            red[p] = v
            if len(red) == stop:
                break
    return red


def rank_bits(rows: Iterable[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets."""
    return len(echelon(rows))


def nullspace_bits(red: Dict[int, int], cols: int) -> List[int]:
    """Basis of {x : <row, x> = 0 for every row}, parity inner product, from
    an `echelon` result: one vector per free column, in ascending order."""
    return [
        (1 << j) | sum(1 << p for p, r in red.items() if (r >> j) & 1)
        for j in range(cols)
        if j not in red
    ]


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


def rank_packed(a: np.ndarray, cols: int) -> int:
    """Rank over GF(2) of a (R, W) uint64 bit matrix; a is consumed."""
    nrows = a.shape[0]
    rank = 0
    for col in range(cols):
        w, b = divmod(col, 64)
        live = (a[rank:, w] >> np.uint64(b)) & np.uint64(1)
        nz = np.nonzero(live)[0]
        if nz.size == 0:
            continue
        p = rank + int(nz[0])
        if p != rank:
            a[[rank, p]] = a[[p, rank]]
        rest = nz[1:] + rank
        if rest.size:
            a[rest] ^= a[rank]
        rank += 1
        if rank == nrows:
            break
    return rank
