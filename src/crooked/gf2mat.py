"""F_2-linear tables and GF(2) elimination. `span_table` tabulates a linear
map from its basis images, `parity_table` among them, and `subset_sums` is
the XOR Moebius butterfly. `rank_and_normal_batched` reduces many systems
of uint32 bitset vectors at once to echelon form, held as one array with
one system per column, and reads each normal in one pass from the last row
back: the derivatives and components of the quadratic path. `rank_packed`
gives the F_2 dimension of the module that the rows of one bit-packed
matrix generate over F_2[y_0..y_(k-1)]/(y_i^2), whose monomial shifts
`shift_masks` tabulates, on Python-int rows: the window probes and the
Schur complement of the development ranks (`invariants.development_rank`).
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np


def span_table(images: np.ndarray) -> np.ndarray:
    """table[..., x] = the XOR of images[..., j] over the set bits j of x,
    for every x below 2^k, k = images.shape[-1]: the F_2-linear map with
    those basis images, tabulated along the last axis by doubling,
    table[..., 2^j : 2^(j+1)] = table[..., :2^j] ^ images[..., j]."""
    k = images.shape[-1]
    table = np.zeros(images.shape[:-1] + (1 << k,), dtype=images.dtype)
    for j in range(k):
        np.bitwise_xor(table[..., : 1 << j], images[..., j, None], out=table[..., 1 << j : 2 << j])
    return table


@functools.cache
def parity_table(n: int) -> np.ndarray:
    """uint8 table of popcount parity for all values below 2^n, built once
    per n and shared by every caller, so read-only."""
    t = span_table(np.ones(n, dtype=np.uint8))
    t.setflags(write=False)
    return t


def subset_sums(t: np.ndarray) -> np.ndarray:
    """t[u] replaced in place by the XOR of t[v] over the v contained in u,
    for a C-contiguous t of 2^k entries, which is returned: its own inverse.
    subset_sums(t[::-1].copy())[::-1] gives the superset sums instead."""
    h = 1
    while h < t.size:
        v = t.reshape(-1, 2 * h)
        v[:, h:] ^= v[:, :h]
        h *= 2
    return t


def rank_and_normal_batched(vectors: np.ndarray, cols: int) -> Tuple[np.ndarray, np.ndarray]:
    """Rank and a normal of many systems of small vectors at once.

    vectors[i, s] is vector i of system s, a uint32 bitset of `cols` bits,
    in a (vectors, systems) uint32 array. Returns (rank, normal): rank[s] is
    the rank of system s, and normal[s] a w != 0 with parity(w & v) = 0 for
    every vector v of the system, which is the only one when rank[s] =
    cols - 1, or 0 when rank[s] = cols. The vectors are reduced in place,
    to echelon form.
    """
    pivots = np.zeros_like(vectors)  # lowest set bit of each reduced row, or 0
    # Counted as the rows come: np.count_nonzero(pivots, axis=0) copies the
    # whole array to bool, which raised verify's peak memory at n = 16.
    rank = np.zeros(vectors.shape[1], dtype=np.int64)
    for i, v in enumerate(vectors):
        # In order: row k holds no earlier row's pivot, so none comes back.
        for r, p in zip(vectors[:i], pivots[:i]):
            v ^= r * ((v & p) != 0)
        p = pivots[i]
        np.bitwise_and(v, ~v + np.uint32(1), out=p)
        rank += p != 0
    free = ~np.bitwise_or.reduce(pivots, axis=0) & np.uint32((1 << cols) - 1)
    normal = free & (~free + np.uint32(1))
    # Of the free bits (no row's pivot) the normal holds the lowest only. A
    # row's other bits are free or pivots of later rows, so last row first.
    for r, p in zip(vectors[::-1], pivots[::-1]):
        normal |= p * parity_table(cols)[normal & r]
    return rank, normal


@functools.cache
def shift_masks(width: int) -> Tuple[int, ...]:
    """M_b for b = 0, ..., width - 1, width = 2^k: the bits v with v & b = 0,
    so that y^b * x = (x & M_b) << b for a `width`-bit ring element x."""
    ones = (1 << width) - 1
    masks = [ones]
    for b in range(1, width):
        low = b & -b
        # The v with bit `low` clear: a run of `low` ones every 2 low bits.
        masks.append(masks[b ^ low] & ((1 << low) - 1) * (ones // ((1 << 2 * low) - 1)))
    return tuple(masks)


@functools.cache
def _graded(width: int) -> Tuple[int, ...]:
    """The shifts b below width in graded order: by popcount, then value."""
    return tuple(sorted(range(width), key=lambda b: (bin(b).count("1"), b)))


def rank_packed(a: np.ndarray, width: int) -> int:
    """F_2 dimension of the submodule over R = F_2[y_0..y_(k-1)]/(y_i^2)
    that the rows of `a` generate, where `a` is a 2-D array of little-endian
    bit-packed words of any unsigned dtype and each row is a run of ring
    elements of `width` = 2^k bits, bit u the coefficient of y^u; width 1
    gives the plain F_2 rank. The width divides the bits of a row.

    Each row R is read once as a Python int, and its shifts
    y^b * R = (R & M_b) << b are reduced in graded order, one kept row per
    leading bit. Once y^b * R reduces to zero, every b' containing b is
    skipped: y^(b' - b) maps that dependency onto shifts of R that come
    strictly earlier, plus the module of the rows before R.

    The rows are read bottom row first, so that the pivot rows found first
    are sparse: the Schur complement of `invariants.development_rank`,
    though filled in below the diagonal, keeps the fewest bits in its
    bottom rows.
    """
    bits = 8 * a.itemsize * a.shape[1]
    each = ((1 << bits) - 1) // ((1 << width) - 1)  # bit 0 of every element
    masks = shift_masks(width)
    shifts = [(b, masks[b] * each, masks[b] << b) for b in _graded(width)]
    leading = [0] * (bits + 1)  # the row kept per bit_length
    rank = 0
    for row in a[::-1]:
        whole = int.from_bytes(row.tobytes(), "little")
        spanned = 0  # the shifts b already known to reduce to zero
        for b, mask, above in shifts:
            if spanned >> b & 1:
                continue
            r = (whole & mask) << b
            while r:
                top = r.bit_length()
                p = leading[top]
                if not p:
                    leading[top] = r
                    rank += 1
                    break
                r ^= p
            else:  # y^b * R reduced to zero: skip the b' in above = M_b << b
                spanned |= above
    return rank
