"""Walsh transform machinery: per-component spectra via the fast
Walsh-Hadamard butterfly, each a plain int64 array indexed by the mask, and
full-spectrum summaries with nonlinearity. The full spectrum takes the
table's `TruthTable.path`: gcd(d, 2^n - 1) transformed components for a
power function x^d, the rank of every component's symplectic matrix for f
of degree <= 2, and every component otherwise."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd
from typing import List

import numpy as np

from . import gf2mat
from .errors import InvalidInput
from .vbf import TruthTable, check_size, parity_table


def fwht(v: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform over the index bits."""
    n = v.size
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        lo, hi = v[:, :h].copy(), v[:, h:].copy()
        v[:, :h] = lo + hi
        v[:, h:] = lo - hi
        h *= 2
    return v.reshape(-1)


def walsh_component(f: TruthTable, a: int) -> np.ndarray:
    """The Walsh values of x -> tr(a*f(x)) at every mask omega, as int64."""
    if a == 0 or a >= f.ctx.order:
        raise InvalidInput(f"component a={a} invalid")
    signs = 1 - 2 * parity_table(f.ctx.n)[f.values & f.ctx.trace_masks[a]].astype(np.int64)
    # The butterfly pairs x with masks under the plain bit inner product;
    # reindex so that entry omega matches the tr(omega*x) character.
    return fwht(signs)[f.ctx.trace_masks]


def symplectic_rows(f: TruthTable) -> List[np.ndarray]:
    """For f of degree <= 2, the symplectic matrix of every component
    tr(a*f), a = 1, ..., 2^n - 1: entry a - 1 of array i is row i, whose
    bit j is tr(a*beta_ij) with beta_ij = f(e_i+e_j) + f(e_i) + f(e_j) +
    f(0). Built one (i, j) pair at a time from (2^n - 1)-long vectors, so
    that no (2^n - 1, n, n) temporary raises the peak memory."""
    n, v = f.ctx.n, f.values
    masks, par = f.ctx.trace_masks[1:], parity_table(n)
    rows = [np.zeros(f.ctx.order - 1, dtype=np.uint32) for _ in range(n)]
    for i in range(n):
        for j in range(i):
            beta = v[(1 << i) | (1 << j)] ^ v[1 << i] ^ v[1 << j] ^ v[0]
            bit = par[masks & beta].astype(np.uint32)
            rows[i] |= bit << np.uint32(j)
            rows[j] |= bit << np.uint32(i)
    return rows


@dataclass(frozen=True)
class SpectrumSummary:
    gamma: Counter      # walsh value -> multiplicity, over all (omega, a != 0)
    extended: Counter   # |walsh value| -> multiplicity
    nl: int             # 2^(n-1) - max|W|/2


def walsh_spectrum(f: TruthTable) -> SpectrumSummary:
    n = f.ctx.n
    check_size(n, "walsh")
    order = f.ctx.order
    # |W| <= 2^n, so hist[v + 2^n] counts the Walsh value v over all (omega, a).
    hist = np.zeros(2 * order + 1, dtype=np.int64)
    path, d = f.path
    if path == "quadratic":
        # tr(a*f) is a quadratic form. With k the dimension of the radical of
        # its symplectic matrix, |W| = 2^((n+k)/2) on 2^(n-k) masks, and
        # sum_omega W(omega) = 2^n (-1)^tr(a*f(0)), so the + values outnumber
        # the - values by (-1)^tr(a*f(0)) 2^((n-k)/2).
        rank, _ = gf2mat.rank_and_normal_batched(symplectic_rows(f), n)
        sign = parity_table(n)[f.ctx.trace_masks[1:] & f.values[0]]
        for key, count in enumerate(np.bincount(2 * (n - rank) + sign, minlength=2 * n + 2).tolist()):
            k, s = divmod(key, 2)
            support, value = 1 << (n - k), 1 << ((n + k) // 2)
            plus = (support + (1 - 2 * s) * (1 << ((n - k) // 2))) // 2
            hist[order + value] += count * plus
            hist[order - value] += count * (support - plus)
            hist[order] += count * (order - support)
    else:
        components, weight = range(1, order), 1
        if path == "power":
            # f = x^d: W_{a*c^d}(omega) = W_a(omega/c), so the components in
            # one coset of the d-th powers share a value multiset. The g =
            # gcd(d, 2^n - 1) cosets, each of (2^n - 1)/g components, have
            # the representatives gamma^j, j < g.
            g = gcd(d, f.ctx.mult_order)
            components, weight = f.ctx.exp_array[:g].tolist(), f.ctx.mult_order // g
        for a in components:
            hist += np.bincount(walsh_component(f, a) + order, minlength=2 * order + 1)
        hist *= weight
    idx = np.flatnonzero(hist)
    gamma = Counter(dict(zip((idx - order).tolist(), hist[idx].tolist())))
    extended: Counter = Counter()
    for v, m in gamma.items():
        extended[abs(v)] += m
    return SpectrumSummary(gamma=gamma, extended=extended, nl=(1 << (n - 1)) - max(extended) // 2)
