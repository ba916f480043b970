"""CCZ-equivalence invariants and comparison reports: differential spectrum,
extended Walsh spectrum, and the GF(2) ranks of the graph / difference-set
development matrices."""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import gf2mat
from .spectral import walsh_spectrum
from .vbf import TruthTable, check_size, differential_spectrum


def graph_points(f: TruthTable) -> np.ndarray:
    """G_f = {(x, f(x))} packed as x*2^n + f(x)."""
    xs = np.arange(f.ctx.order, dtype=np.uint32)
    return (xs << np.uint32(f.ctx.n)) | f.values


def difference_points(f: TruthTable) -> np.ndarray:
    """D_f = {(a, f(x)+f(x+a)) : a != 0} packed as a*2^n + value, sorted.

    The points are marked in one 2^(2n) mask and read back in order, which
    sorts and deduplicates them without `np.unique`, whose first call in a
    process imports `numpy.ma` in numpy 2."""
    n = np.uint32(f.ctx.n)
    xs = np.arange(f.ctx.order, dtype=np.uint32)
    a = xs[1:, None]
    seen = np.zeros(f.ctx.order << f.ctx.n, dtype=bool)
    seen[(a << n) | (f.values ^ f.values[xs ^ a])] = True
    return np.flatnonzero(seen).astype(np.uint32)


# The ring R = F_2[y_0..y_5]/(y_i^2) of `development_rank`: one element per
# uint64 word, bit u the coefficient of y^u.
_RING_BITS = 64
# Ring products are read from 16-entry tables, one per 4-bit group of the
# coefficient: 16 * 16 rows per pivot row to build, 16 lookups per product.
_NIBBLE = 4


@functools.cache
def _ring_shifts(low: int) -> Tuple[np.ndarray, np.ndarray]:
    """(masks, u) with y^u * a = (a & masks[u]) << u for a ring element a of
    `low` bits: masks[u] holds the bits v with v & u = 0."""
    u = np.arange(low, dtype=np.uint64)
    return gf2mat.pack_rows((u[:, None] & u) == 0)[:, 0], u


def _rotl(x, k, bits: int):
    """x rotated left by k within `bits` bits."""
    return ((x << k) | (x >> (bits - k))) & ((1 << bits) - 1)


def _unit_pivots(N: np.ndarray) -> int:
    """Eliminates the unit pivots of the square matrix N over R in place, in
    Markowitz order, and returns how many there were; N is left holding the
    Schur complement, with each pivot's row and column zero.

    A unit u (constant bit 1) is its own inverse, since u^2 is u's constant
    term. Pivot (p, q) takes (N[i, q] * u) * N[p] from every other row i:
    the 64 shifts y^b * N[p] are summed into one table per 4 bits of the
    coefficient, and N[i, q] * u is the q entry of N[i, q] * N[p]."""
    size = N.shape[0]
    masks, shifts = _ring_shifts(_RING_BITS)
    group = np.arange(0, _RING_BITS, _NIBBLE, dtype=np.uint64)[:, None]  # low bit of each
    g = np.arange(group.size)[:, None]
    nibble = np.uint64((1 << _NIBBLE) - 1)
    units = 0
    while True:
        nonzero = N != 0
        cost = np.outer(nonzero.sum(1) - 1, nonzero.sum(0) - 1)
        cost[(N & np.uint64(1)) == 0] = size * size
        at = int(cost.argmin())
        if cost.flat[at] == size * size:
            return units
        p, q = divmod(at, size)
        cols = np.flatnonzero(N[p])
        rows = np.flatnonzero(N[:, q])
        rows = rows[rows != p]
        by = ((N[p, cols] & masks[:, None]) << shifts[:, None]).reshape(g.size, _NIBBLE, -1)
        tables = np.zeros((g.size, 1 << _NIBBLE, cols.size), dtype=np.uint64)
        for j in range(_NIBBLE):
            np.bitwise_xor(tables[:, : 1 << j], by[:, j, None], out=tables[:, 1 << j : 2 << j])
        c = (N[rows, q] >> group) & nibble
        d = np.bitwise_xor.reduce(tables[g, c, np.searchsorted(cols, q)], axis=0)
        N[rows[:, None], cols] ^= np.bitwise_xor.reduce(tables[g, (d >> group) & nibble], axis=0)
        N[p] = 0
        units += 1


def development_rank(two_n: int, points: np.ndarray) -> int:
    """GF(2) rank of the 2^(2n)-square incidence matrix whose row g is the
    indicator vector of the translate S + g of the point set.

    The matrix is multiplication by s = sum of X^p over the points in the
    group algebra F_2[Z_2^two_n], and its rank is that of the same map in
    any basis. In the basis y^u = prod over i in u of (1 + X^(e_i)),
    y^u * y^v is y^(u | v) when u & v = 0 and 0 otherwise, and
    s = sum of t[u] y^u with t[u] = #{p in S : p contains u} mod 2, so row
    v is w -> t[w ^ v] for w containing v, and 0 elsewhere. That matrix is
    upper triangular, with t[0] = |S| mod 2 on its diagonal: a set of odd
    size gives full rank without elimination, and one of even size a
    singular matrix.

    With R = F_2[y_0..y_5]/(y_i^2) on the low 6 coordinates, the algebra is
    free over R with basis y^(64 h), and the map is the 2^(2n-6)-square
    matrix N over R with N[v, w] = sigma[w ^ v] for w containing v, where
    sigma[u] is the word t[64u : 64u + 64]; F_2 row 64 v + b is
    y^b * N[v]. R is local, so its units (constant bit 1) give 64 pivots
    each, and their number is the F_2 rank of N's constant bits: the
    development rank of the set projected off the ring coordinates. Of
    the 2n cyclic windows of 6 coordinates, the one with the most units is
    rotated to the bottom. Unit pivots are eliminated over R, and only the
    nonzero rows y^b * N[v] of what is left are expanded for `rank_packed`.
    """
    size = 1 << two_n
    if points.size % 2:
        return size
    t = np.zeros(size, dtype=bool)
    t[points] = True
    h = 1
    while h < size:  # superset sums: t[u] ^= t[u | h] where u lacks h
        v = t.reshape(-1, 2 * h)
        v[:, :h] ^= v[:, h:]
        h *= 2
    low = min(size, _RING_BITS)
    v = np.arange(size // low)
    above = (v[:, None] & v) == v[:, None]  # w contains v
    apart = v[:, None] ^ v
    k = 0
    if v.size > 1:
        # offered[k]: the units with the coordinates rotated right by k, the
        # F_2 rank of N's constant bits t[64 (w ^ v)].
        constant = t[_rotl(v * low, np.arange(two_n)[:, None], two_n)][:, apart] & above
        packed = np.packbits(constant, axis=2, bitorder="little")
        offered = [gf2mat.rank_packed(m) for m in packed]
        k = offered.index(max(offered))
    t = t[_rotl(np.arange(size), k, two_n)]
    sigma = gf2mat.pack_rows(t.reshape(-1, low))[:, 0]
    N = np.where(above, sigma[apart], np.uint64(0))
    units = _unit_pivots(N)
    rest = N[N.any(1)][:, N.any(0)]
    masks, shifts = _ring_shifts(low)
    r, b = np.nonzero((np.bitwise_or.reduce(rest, axis=1)[:, None] & masks) != 0)
    rows = (rest[r] & masks[b, None]) << shifts[b, None]
    return low * units + gf2mat.rank_packed(rows)


def gamma_rank(f: TruthTable) -> int:
    """Rank of the graph development matrix; CCZ-invariant."""
    check_size(f.ctx.n, "gamma")
    return development_rank(2 * f.ctx.n, graph_points(f))


def delta_rank(f: TruthTable) -> int:
    """Rank of the difference-set development matrix; CCZ-invariant."""
    check_size(f.ctx.n, "delta")
    return development_rank(2 * f.ctx.n, difference_points(f))


@dataclass(frozen=True)
class FunctionInvariants:
    delta: int
    diff_spectrum: Counter
    extended_walsh: Counter
    nl: int
    gamma_rank: Optional[int] = None
    delta_rank: Optional[int] = None


@dataclass(frozen=True)
class InvariantReport:
    left: FunctionInvariants
    right: FunctionInvariants
    depth: str
    verdict: str  # "distinguished" | "indistinguishable-by-computed-invariants"


def function_invariants(f: TruthTable, with_ranks: bool) -> FunctionInvariants:
    g_rank = gamma_rank(f) if with_ranks else None
    d_rank = delta_rank(f) if with_ranks else None
    delta, dspec = differential_spectrum(f)
    summary = walsh_spectrum(f)
    return FunctionInvariants(
        delta=delta,
        diff_spectrum=dspec,
        extended_walsh=summary.extended,
        nl=summary.nl,
        gamma_rank=g_rank,
        delta_rank=d_rank,
    )


def compare(left: FunctionInvariants, right: FunctionInvariants) -> InvariantReport:
    """Invariant comparison of two functions over the same field, both
    computed by `function_invariants` with the same `with_ranks`, which sets
    the depth; "distinguished" proves CCZ-inequivalence (hence
    EA-inequivalence), while the other verdict is explicitly inconclusive."""
    depth = "spectra" if left.gamma_rank is None else "spectra+ranks"
    # delta and nl are read off diff_spectrum and extended_walsh, so the
    # records differ exactly when a spectrum or a rank does.
    verdict = "distinguished" if left != right else "indistinguishable-by-computed-invariants"
    return InvariantReport(left=left, right=right, depth=depth, verdict=verdict)
