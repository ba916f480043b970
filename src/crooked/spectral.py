"""Walsh transform machinery: per-component spectra via the fast
Walsh-Hadamard butterfly, full-spectrum summaries, nonlinearity, and the
almost-bent predicate."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import gcd

import numpy as np

from . import vbf
from .errors import InfeasibleSize, InvalidDirection
from .vbf import EXHAUSTIVE_MAX_N, TruthTable, parity_table


@dataclass(frozen=True)
class WalshComponent:
    """Walsh values of x -> tr(a*f(x)) over all linear masks omega."""

    a: int
    values: np.ndarray  # int64, length 2^n


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


def component_signs(f: TruthTable, a: int) -> np.ndarray:
    """(-1)^(tr(a*f(x))) as an int64 vector indexed by x."""
    if a == 0 or a >= f.ctx.order:
        raise InvalidDirection(f"component a={a} invalid")
    par = parity_table(f.ctx.n)
    return 1 - 2 * par[f.values & f.ctx.trace_masks[a]].astype(np.int64)


def walsh_component(f: TruthTable, a: int) -> WalshComponent:
    # The butterfly pairs x with masks under the plain bit inner product;
    # reindex so that values[omega] matches the tr(omega*x) character.
    plain = fwht(component_signs(f, a))
    return WalshComponent(a=a, values=plain[f.ctx.trace_masks])


@dataclass(frozen=True)
class SpectrumSummary:
    gamma: Counter      # walsh value -> multiplicity, over all (omega, a != 0)
    extended: Counter   # |walsh value| -> multiplicity
    nl: int             # 2^(n-1) - max|W|/2


def walsh_spectrum(f: TruthTable) -> SpectrumSummary:
    n = f.ctx.n
    if n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSize(f"walsh spectrum capped at n={EXHAUSTIVE_MAX_N}")
    order = f.ctx.order
    # |W| <= 2^n, so hist[v + 2^n] counts the Walsh value v over all (omega, a).
    hist = np.zeros(2 * order + 1, dtype=np.int64)
    components, weight = range(1, order), 1
    d = vbf.power_exponent(f)
    if d is not None:
        # f = x^d: W_{a*c^d}(omega) = W_a(omega/c), so the components in one
        # coset of the d-th powers share a value multiset. The g =
        # gcd(d, 2^n - 1) cosets, each of (2^n - 1)/g components, have the
        # representatives gamma^j, j < g.
        g = gcd(d, f.ctx.mult_order)
        components, weight = f.ctx.exp_array[:g].tolist(), f.ctx.mult_order // g
    for a in components:
        hist += np.bincount(walsh_component(f, a).values + order, minlength=2 * order + 1)
    hist *= weight
    idx = np.flatnonzero(hist)
    gamma = Counter(dict(zip((idx - order).tolist(), hist[idx].tolist())))
    extended: Counter = Counter()
    for v, m in gamma.items():
        extended[abs(v)] += m
    return SpectrumSummary(gamma=gamma, extended=extended, nl=(1 << (n - 1)) - max(extended) // 2)


def is_ab(f: TruthTable) -> bool:
    """Almost bent: odd n and Walsh spectrum exactly {0, +-2^((n+1)/2)}."""
    n = f.ctx.n
    if n % 2 == 0:
        return False
    v = 1 << ((n + 1) // 2)
    return set(walsh_spectrum(f).gamma) == {0, v, -v}

