"""CCZ-equivalence invariants and comparison reports: differential spectrum,
extended Walsh spectrum, and the GF(2) ranks of the graph / difference-set
development matrices."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import gf2mat
from .errors import InfeasibleSize
from .spectral import walsh_spectrum
from .vbf import TruthTable, differential_spectrum

RANK_MAX_N = 7  # development matrices are 2^(2n) square


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
    singular matrix. It is also sparse, so few of its rows reach each
    word, and `rank_packed` skips the rest.

    Row v = 64*v_h + v_l is packed row v_l with its 64-bit words permuted by
    j -> j ^ v_h and zeroed outside the words j containing v_h, so only the
    rows v < 64 are packed and the rest gathered.
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
    low = min(size, 64)
    bits = np.arange(low)
    v_l = bits[:, None]
    # rows[j, v_l, b] = t[64j + (b ^ v_l)] where b contains v_l.
    rows = t.reshape(-1, low)[:, bits ^ v_l] & ((bits & v_l) == v_l)
    packed = gf2mat.pack_rows(rows.transpose(1, 0, 2).reshape(low, size))
    words = packed.shape[1]
    j = np.arange(words)[None, :]
    v_h = np.arange(size // low)[:, None]
    matrix = packed[np.arange(low)[None, :, None], (j ^ v_h)[:, None, :]]
    matrix *= ((j & v_h) == v_h)[:, None, :]
    return gf2mat.rank_packed(matrix.reshape(size, words), size)


def gamma_rank(f: TruthTable) -> int:
    """Rank of the graph development matrix; CCZ-invariant."""
    if f.ctx.n > RANK_MAX_N:
        raise InfeasibleSize(f"gamma rank capped at n={RANK_MAX_N}")
    return development_rank(2 * f.ctx.n, graph_points(f))


def delta_rank(f: TruthTable) -> int:
    """Rank of the difference-set development matrix; CCZ-invariant."""
    if f.ctx.n > RANK_MAX_N:
        raise InfeasibleSize(f"delta rank capped at n={RANK_MAX_N}")
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
    # Ranks first, so that their size cap refuses before any spectrum is built.
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
