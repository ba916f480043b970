"""Vectorial Boolean functions F_{2^n} -> F_{2^n} as truth tables:
differential spectra, APN tests, and crooked (hyperplane-derivative)
verification."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import gf2mat
from .errors import InfeasibleSize, InvalidDirection, InvalidInput
from .field import FieldCtx

EXHAUSTIVE_MAX_N = 16

_parity_cache: Dict[int, np.ndarray] = {}


def parity_table(n: int) -> np.ndarray:
    """uint8 table of popcount parity for all values below 2^n."""
    t = _parity_cache.get(n)
    if t is None:
        bits = np.arange(1 << n, dtype=np.uint32)
        t = np.zeros(1 << n, dtype=np.uint8)
        while bits.any():
            t ^= (bits & 1).astype(np.uint8)
            bits >>= 1
        _parity_cache[n] = t
    return t


@dataclass(frozen=True)
class Multinomial:
    """Sparse function sum of coeff * x^exp over a fixed field.

    Exponents are reduced into [1, 2^n - 1] and coefficients of colliding
    exponents are merged by XOR at construction (use `multinomial`).
    """

    ctx: FieldCtx
    terms: Tuple[Tuple[int, int], ...]


def multinomial(ctx: FieldCtx, terms: Iterable[Tuple[int, int]]) -> Multinomial:
    merged: Dict[int, int] = {}
    for coeff, exp in terms:
        if exp < 1:
            raise InvalidInput(f"exponent {exp} < 1")
        if coeff >> ctx.n:
            raise InvalidInput(f"coefficient {coeff:#x} outside GF(2^{ctx.n})")
        if coeff == 0:
            continue
        e = exp % ctx.mult_order if ctx.n > 1 else exp
        if e == 0:
            e = ctx.mult_order
        merged[e] = merged.get(e, 0) ^ coeff
    out = tuple(sorted(((c, e) for e, c in merged.items() if c), key=lambda t: t[1]))
    return Multinomial(ctx, out)


class TruthTable:
    """Exhaustive value table; values[x] = f(x) with x read as basis bits."""

    def __init__(self, ctx: FieldCtx, values: Sequence[int]):
        if len(values) != ctx.order:
            raise InvalidInput(f"table length {len(values)} != 2^{ctx.n}")
        self.ctx = ctx
        self.values = np.asarray(values, dtype=np.uint32)
        if self.values.size and int(self.values.max()) >= ctx.order:
            raise InvalidInput("table entry outside the field")

    def __getitem__(self, x: int) -> int:
        return int(self.values[x])

    def __eq__(self, other):
        return (
            isinstance(other, TruthTable)
            and self.ctx == other.ctx
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self):
        return f"TruthTable(n={self.ctx.n}, values[:4]={self.values[:4].tolist()}...)"


def from_multinomial(m: Multinomial) -> TruthTable:
    ctx = m.ctx
    vals = [0] * ctx.order
    for x in range(1, ctx.order):
        acc = 0
        for coeff, exp in m.terms:
            acc ^= ctx.mul(coeff, ctx.pow(x, exp))
        vals[x] = acc
    return TruthTable(ctx, vals)


def derivative_values(f: TruthTable, a: int) -> np.ndarray:
    if a == 0 or a >= f.ctx.order:
        raise InvalidDirection(f"direction a={a} invalid")
    xs = np.arange(f.ctx.order, dtype=np.uint32)
    return f.values ^ f.values[xs ^ np.uint32(a)]


def differential_spectrum(f: TruthTable) -> Tuple[int, Counter]:
    """(delta, multiset of solution counts over all (a != 0, b) pairs)."""
    n = f.ctx.n
    if n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSize(f"exhaustive differential scan capped at n={EXHAUSTIVE_MAX_N}")
    order = f.ctx.order
    hist = np.zeros(order + 1, dtype=np.int64)  # hist[v] = pairs (a, b) with v solutions
    for a in range(1, order):
        counts = np.bincount(derivative_values(f, a), minlength=order)
        hist += np.bincount(counts, minlength=order + 1)
    vals = np.flatnonzero(hist)
    return int(vals[-1]), Counter(dict(zip(vals.tolist(), hist[vals].tolist())))


def is_apn(f: TruthTable) -> bool:
    delta, _ = differential_spectrum(f)
    return delta == 2


@dataclass(frozen=True)
class HyperplaneWitness:
    """The set equals {y : trace(b*y) = eps}."""

    b: int
    eps: int


def hyperplane_of(ctx: FieldCtx, s: Iterable[int]) -> Optional[HyperplaneWitness]:
    """Witness (b, eps) when the set of elements of s (repeats allowed) is an
    affine hyperplane {y : tr(b*y) = eps}."""
    vals = np.asarray(s if isinstance(s, np.ndarray) else list(s), dtype=np.int64)
    elems = np.flatnonzero(np.bincount(vals, minlength=ctx.order))  # distinct, sorted
    n = ctx.n
    if elems.size != 1 << (n - 1):
        return None
    y0 = int(elems[0])
    shifted = np.sort(elems ^ y0)
    # The smallest element at or above each power of two: one element per
    # leading bit present. A linear hyperplane has n-1 leading bits, so these
    # elements span it and its normal w is the one nullspace vector.
    firsts = np.searchsorted(shifted, 1 << np.arange(n))
    reps = shifted[np.minimum(firsts, shifted.size - 1)].tolist()
    w = gf2mat.nullspace_bits(gf2mat.echelon(reps, stop=n - 1), n)[0]
    # The set has the size of w's hyperplane, so lying inside it means being it.
    par = parity_table(n)
    if par[shifted & w].any():
        return None
    return HyperplaneWitness(b=int(ctx.trace_masks_inverse[w]), eps=int(par[y0 & w]))


@dataclass
class CrookedReport:
    is_crooked: bool
    witnesses: Dict[int, HyperplaneWitness]
    failed_at: Optional[int] = None  # first direction without a hyperplane, or
    failed_apn: bool = False         # True when the APN precondition broke


def is_crooked(f: TruthTable) -> CrookedReport:
    """APN plus: every nonzero-direction derivative image is an affine
    hyperplane. Witnesses are collected per direction. The hyperplanes imply
    APN (2^n inputs, paired as x and x+a, onto 2^(n-1) values is 2-to-1), so
    the differential sweep runs only on failure, to report a non-APN f as such."""
    if f.ctx.n > EXHAUSTIVE_MAX_N:
        raise InfeasibleSize(f"crooked sweep capped at n={EXHAUSTIVE_MAX_N}")
    witnesses: Dict[int, HyperplaneWitness] = {}
    for a in range(1, f.ctx.order):
        wit = hyperplane_of(f.ctx, derivative_values(f, a))
        if wit is None:
            if not is_apn(f):
                return CrookedReport(False, {}, failed_apn=True)
            return CrookedReport(False, witnesses, failed_at=a)
        witnesses[a] = wit
    return CrookedReport(True, witnesses)
