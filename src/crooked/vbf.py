"""Vectorial Boolean functions F_{2^n} -> F_{2^n} as truth tables:
differential spectra and crooked (hyperplane-derivative) verification.

The derivative and Walsh sweeps each take one of three paths, chosen once
per table by `TruthTable.path` from the whole truth table: a power function
x^d needs one derivative, a function of algebraic degree <= 2 needs one
batched GF(2) rank per direction or component, and every other input is
swept exhaustively over all 2^n - 1 directions or components. One
derivative sweep per table answers both `differential_spectrum` and
`is_crooked`. Per-direction answers are arrays indexed by direction: entry
a - 1 of `CrookedReport.b` and `.eps` is direction a's hyperplane.
`evaluate` is the only evaluator of a field formula at many points."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from . import gf2mat
from .errors import InfeasibleSize, InvalidInput
from .field import FieldCtx

EXHAUSTIVE_MAX_N = 16
RANK_MAX_N = 7  # development matrices are 2^(2n) square

# The size policy: each computation's largest n, and the subject its refusal names.
SIZE_CAPS: Dict[str, Tuple[int, str]] = {
    "apn": (EXHAUSTIVE_MAX_N, "exhaustive differential scan"),
    "crooked": (EXHAUSTIVE_MAX_N, "exhaustive differential scan"),
    "walsh": (EXHAUSTIVE_MAX_N, "walsh spectrum"),
    "gamma": (RANK_MAX_N, "gamma rank"),
    "delta": (RANK_MAX_N, "delta rank"),
}


def check_size(n: int, *computations: str) -> None:
    """InfeasibleSize for the first computation whose cap is below n, from n alone."""
    for c in computations:
        cap, subject = SIZE_CAPS[c]
        if n > cap:
            raise InfeasibleSize(f"{subject} capped at n={cap}")


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
        e = (exp - 1) % ctx.mult_order + 1
        merged[e] = merged.get(e, 0) ^ coeff
    out = tuple(sorted(((c, e) for e, c in merged.items() if c), key=lambda t: t[1]))
    return Multinomial(ctx, out)


class TruthTable:
    """Exhaustive value table; values[x] = f(x) with x read as basis bits."""

    def __init__(self, ctx: FieldCtx, values: Sequence[int]):
        if len(values) != ctx.order:
            raise InvalidInput(f"truth table length {len(values)} != 2^{ctx.n}")
        # Range-checked before the uint32 conversion, which would wrap or
        # overflow on an entry below 0 or at 2^32 and above.
        values = np.asarray(values)
        if values.min() < 0 or values.max() >= ctx.order:
            raise InvalidInput("table entry outside the field")
        self.ctx = ctx
        self.values = values.astype(np.uint32, copy=False)

    @cached_property
    def path(self) -> Tuple[str, Optional[int]]:
        """The path the differential, Walsh and crooked sweeps take for this
        table, certified once and cached, so `values` must not change after
        construction: ("power", d) when f = x^d at every x,
        ("quadratic", None) when f has algebraic degree <= 2, else
        ("exhaustive", None). Power goes first: a Gold function is both, and
        one derivative is cheaper than 2^n - 1 ranks."""
        d = power_exponent(self)
        if d is not None:
            return "power", d
        if has_degree_at_most_2(self):
            return "quadratic", None
        return "exhaustive", None

    @cached_property
    def _derivatives(self) -> Tuple[int, Counter, CrookedReport]:
        # Swept once per table, as the path is certified once: the apn and
        # crooked checks read the same sweep.
        return _derivative_sweep(self)

    def __repr__(self):
        return f"TruthTable(n={self.ctx.n}, values[:4]={self.values[:4].tolist()}...)"


def evaluate(ctx: FieldCtx, terms: Iterable[Tuple[int, int]], points: Sequence[int]) -> np.ndarray:
    """sum c*p^e over the terms (c, e), e >= 1, at every p of the 1-d points,
    as uint32. Each term is one gather from the log/antilog tables, c*p^e =
    exp[(log c + (e mod 2^n-1) log p) mod (2^n-1)], and p = 0 gives 0."""
    points = np.asarray(points, dtype=np.uint32)
    terms = [(c, e) for c, e in terms if c]
    log, exp, m = ctx.log_array, ctx.exp_array, ctx.mult_order
    logp = log[points].astype(np.int64)
    acc = np.zeros(points.shape, dtype=np.uint32)
    for c, e in terms:
        acc ^= exp[(int(log[c]) + e % m * logp) % m]
    acc[points == 0] = 0
    return acc


def from_multinomial(m: Multinomial) -> TruthTable:
    return TruthTable(m.ctx, evaluate(m.ctx, m.terms, np.arange(m.ctx.order)))


def power_exponent(f: TruthTable) -> Optional[int]:
    """The d in [1, 2^n - 1] with f(x) = x^d at every x, or None when f is
    not a power function. d = log f(gamma) is the only candidate, and the
    whole table is compared with `evaluate`'s x^d, so how f was made is never
    trusted. In GF(2), gamma = 1 and the only d is 1."""
    ctx = f.ctx
    gamma = ctx.exp_array[1 % ctx.mult_order]
    d = int(ctx.log_array[f.values[gamma]]) or ctx.mult_order
    return d if np.array_equal(f.values, evaluate(ctx, [(1, d)], np.arange(ctx.order))) else None


def has_degree_at_most_2(f: TruthTable) -> bool:
    """True when every coordinate of f has algebraic degree <= 2. One XOR
    Moebius butterfly over the whole table gives the algebraic normal form
    of all n coordinates at once, and no monomial in more than two variables
    may be non-zero, so how f was made is never trusted."""
    anf = gf2mat.subset_sums(f.values.copy())
    heavy = np.arange(anf.size, dtype=np.uint32)
    heavy &= heavy - np.uint32(1)  # clearing the lowest set bit twice leaves
    heavy &= heavy - np.uint32(1)  # a non-zero index exactly at weight > 2
    return not anf[heavy != 0].any()


def polar_form(f: TruthTable) -> np.ndarray:
    """The (n, n) uint32 array beta[i, j] = f(e_i+e_j) + f(e_i) + f(e_j) + f(0),
    with beta[i, i] = 0. For f of degree <= 2 it is the Gram matrix of the
    symmetric F_2-bilinear form B(x, y) = f(x+y) + f(x) + f(y) + f(0)."""
    v = f.values
    e = np.uint32(1) << np.arange(f.ctx.n, dtype=np.uint32)
    # e_i ^ e_j, not e_i | e_j, so that beta_ii = f(0) + f(e_i) + f(e_i) + f(0) = 0.
    return v[e[:, None] ^ e] ^ v[e][:, None] ^ v[e] ^ v[0]


def derivative_columns(f: TruthTable) -> np.ndarray:
    """For f of degree <= 2, D_a f(x) = L_a(x) + D_a f(0) with L_a linear.
    Entry (j, a - 1) of the (n, 2^n - 1) uint32 array is L_a(e_j) =
    f(a+e_j) + f(a) + f(e_j) + f(0), for a = 1, ..., 2^n - 1: linear in a,
    so row j is the `span_table` of column j of the `polar_form`."""
    return gf2mat.span_table(polar_form(f).T)[:, 1:]


def hyperplane_of(ctx: FieldCtx, counts: np.ndarray) -> Optional[Tuple[int, int]]:
    """(b, eps) when the set of the y with counts[y] != 0, for counts of
    length 2^n, is the affine hyperplane {y : tr(b*y) = eps}, else None.

    With y0 in the set, the set is one exactly when its shift by y0 is a
    linear hyperplane. A linear hyperplane with normal w holds the basis
    vector e_j exactly when bit j of w is 0, so the only candidate normal is
    the w with bit j set for each e_j + y0 outside the set. The set has the
    size of w's hyperplane, so lying inside it means being it."""
    elems = np.flatnonzero(counts)  # distinct
    n = ctx.n
    if elems.size != 1 << (n - 1):
        return None
    y0 = int(elems[0])
    basis = 1 << np.arange(n)
    w = int(basis[counts[basis ^ y0] == 0].sum())
    par = gf2mat.parity_table(n)
    if w == 0 or par[(elems ^ y0) & w].any():
        return None
    return int(ctx.trace_masks_inverse[w]), int(par[y0 & w])


@dataclass(eq=False)
class CrookedReport:
    """Direction a's derivative image is {y : tr(b[a-1]*y) = eps[a-1]}, so b
    (uint32) is the map a -> b and eps (uint8) the side; both are None when
    f is not crooked."""

    is_crooked: bool
    b: Optional[np.ndarray]
    eps: Optional[np.ndarray]
    failed_at: Optional[int] = None  # first direction without a hyperplane, or
    failed_apn: bool = False         # True when the APN precondition broke


def differential_spectrum(f: TruthTable) -> Tuple[int, Counter]:
    """(delta, multiset of solution counts over all (a != 0, b) pairs), read
    off the table's one derivative sweep; each call gets its own Counter."""
    delta, spectrum, _ = f._derivatives
    return delta, Counter(spectrum)


def is_crooked(f: TruthTable) -> CrookedReport:
    """APN plus: every nonzero-direction derivative image is an affine
    hyperplane, with its (b, eps) per direction. Every caller gets the one
    report of the table's derivative sweep, so b and eps are read-only."""
    return f._derivatives[2]


def _derivative_sweep(f: TruthTable) -> Tuple[int, Counter, CrookedReport]:
    """(delta, spectrum, crooked report) of f from one pass over its
    derivatives, on the path `TruthTable.path` picks.

    For f of degree <= 2, one batched elimination gives the rank of every
    L_a and the normal w of its columns: a kernel of dimension k gives
    2^(n-k) outputs of D_a f, each hit 2^k times, and the image is a
    hyperplane exactly when ker L_a = {0, a}, with b = trace_masks_inverse[w]
    and eps = parity(w & D_a f(0)). For f = x^d, D_a f(x) = a^d D_1 f(x/a):
    every direction has direction 1's counts, and direction a's image is the
    hyperplane with normal b*a^(-d). Any other f is swept in every direction,
    with hyperplanes checked up to the first direction that has none.

    Hyperplane images imply APN (2^n inputs, paired as x and x+a, onto
    2^(n-1) values is 2-to-1), so delta != 2 is reported as a broken APN
    precondition, ahead of any direction. A hyperplane's normal is unique,
    so every path gives the (b, eps) the sweep of every direction finds.
    Above n = EXHAUSTIVE_MAX_N it refuses on every path (InfeasibleSize)."""
    check_size(f.ctx.n, "apn")
    ctx, n, order = f.ctx, f.ctx.n, f.ctx.order
    hist = np.zeros(order + 1, dtype=np.int64)  # hist[v] = pairs (a, b) with v solutions
    path, d = f.path
    failed_at = None
    if path == "quadratic":
        rank, normal = gf2mat.rank_and_normal_batched(derivative_columns(f), n)
        for k, count in enumerate(np.bincount(n - rank, minlength=n + 1).tolist()):
            hist[1 << k] += count << (n - k)
            hist[0] += count * (order - (1 << (n - k)))
        b = ctx.trace_masks_inverse[normal]
        eps = gf2mat.parity_table(n)[normal & (f.values[1:] ^ f.values[0])]
    else:
        b = np.empty(order - 1, dtype=np.uint32)
        eps = np.empty(order - 1, dtype=np.uint8)
        xs = np.arange(order, dtype=np.uint32)
        for a in (1,) if path == "power" else range(1, order):
            counts = np.bincount(f.values ^ f.values[xs ^ np.uint32(a)], minlength=order)
            hist += np.bincount(counts, minlength=order + 1)
            if failed_at is None:
                wit = hyperplane_of(ctx, counts)
                if wit is None:
                    failed_at = a
                else:
                    b[a - 1], eps[a - 1] = wit
        if path == "power":
            hist *= order - 1
            if failed_at is None:
                b = evaluate(ctx, [(int(b[0]), 2 * ctx.mult_order - d)], np.arange(1, order))
                eps = np.full(order - 1, eps[0], dtype=np.uint8)
    vals = np.flatnonzero(hist)
    delta = int(vals[-1])
    spectrum = Counter(dict(zip(vals.tolist(), hist[vals].tolist())))
    if delta != 2:
        return delta, spectrum, CrookedReport(False, None, None, failed_apn=True)
    if failed_at is not None:
        return delta, spectrum, CrookedReport(False, None, None, failed_at=failed_at)
    b.setflags(write=False)
    eps.setflags(write=False)
    return delta, spectrum, CrookedReport(True, b, eps)
