"""GF(2) linear algebra on int bitsets and bit-packed numpy arrays.

Row vectors are plain Python ints: bit j of a row is the entry in column j.
`echelon` is the one elimination over int bitsets; ranks and nullspaces are
read off its result. The packed uint64 routines exist for the large
development matrices (2^{2n} square).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

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
