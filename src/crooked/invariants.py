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
from .vbf import TruthTable, derivative_values, differential_spectrum

RANK_MAX_N = 7  # development matrices are 2^(2n) square


def graph_points(f: TruthTable) -> np.ndarray:
    """G_f = {(x, f(x))} packed as x*2^n + f(x)."""
    xs = np.arange(f.ctx.order, dtype=np.uint32)
    return (xs << np.uint32(f.ctx.n)) | f.values


def difference_points(f: TruthTable) -> np.ndarray:
    """D_f = {(a, f(x)+f(x+a)) : a != 0} packed as a*2^n + value."""
    n = f.ctx.n
    return np.concatenate(
        [(a << n) | np.unique(derivative_values(f, a)) for a in range(1, f.ctx.order)]
    )


def development_rank(two_n: int, points: np.ndarray) -> int:
    """GF(2) rank of the 2^(2n)-square incidence matrix whose row g is the
    indicator vector of the translate S + g of the point set.

    The matrix is multiplication by s = sum of X^p over the points in the
    group algebra F_2[Z_2^two_n], which is local: its augmentation ideal,
    the s of even size, is nilpotent. So a set of odd size is a unit and
    its matrix has full rank without elimination (and one of even size is
    singular).

    Row g = 64*g_h + g_l is packed row g_l with its 64-bit words permuted by
    j -> j ^ g_h, so only the rows g < 64 are packed and the rest gathered.
    """
    size = 1 << two_n
    if points.size % 2:
        return size
    low = min(size, 64)
    shifts = np.arange(low, dtype=np.uint32)[:, None]
    rows = np.zeros((low, size), dtype=bool)
    rows[shifts, points ^ shifts] = True
    packed = gf2mat.pack_rows(rows)
    words = packed.shape[1]
    perm = np.arange(words)[None, :] ^ np.arange(size // low)[:, None]
    matrix = packed[np.arange(low)[None, :, None], perm[:, None, :]]
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
