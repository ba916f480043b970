"""Independent oracles and EA-transformation helpers shared by the tests.

Everything here is deliberately brute-force and kept apart from the library
code paths it cross-checks.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from contextlib import contextmanager
from functools import cache, reduce
from math import gcd
from operator import xor
from typing import Dict, List, Optional, Tuple
from unittest import mock

import numpy as np

from crooked import spectral, vbf
from crooked.families import FamilyParams, validate
from crooked.field import FieldCtx
from crooked.vbf import TruthTable


def from_truthtable_repr(t: TruthTable, provenance: Optional[dict] = None) -> dict:
    """The function file document that carries t as a truth table, as
    `cli.parse` reads it and `cli.serialize` writes it."""
    return {
        "n": t.ctx.n,
        "modulus": t.ctx.modulus,
        "representation": "truthtable",
        "values": [format(v, "x") for v in t.values.tolist()],
        "provenance": provenance or {},
    }


def frobenius_trace(ctx: FieldCtx, a: int) -> int:
    """tr(a) by its definition, the XOR of the n Frobenius images a^(2^i)."""
    acc = 0
    for _ in range(ctx.n):
        acc ^= a
        a = ctx.mul(a, a)
    return acc


@cache
def _frobenius_traces(n: int, modulus: int) -> List[int]:
    ctx = FieldCtx(n, modulus)
    return [frobenius_trace(ctx, a) for a in range(ctx.order)]


def frobenius_traces(ctx: FieldCtx) -> List[int]:
    """tr(a) for every a of ctx's field by `frobenius_trace`, listed once
    per field (n, modulus)."""
    return _frobenius_traces(ctx.n, ctx.modulus)


def naive_walsh(f: TruthTable, a: int, omega: int) -> int:
    """Direct double-sum Walsh value, via field trace only."""
    ctx, tr, v = f.ctx, frobenius_traces(f.ctx), f.values.tolist()
    acc = 0
    for x in range(ctx.order):
        bit = tr[ctx.mul(a, v[x])] ^ tr[ctx.mul(omega, x)]
        acc += -1 if bit else 1
    return acc


def naive_diff_spectrum(f: TruthTable) -> Tuple[int, Counter]:
    """Solution counts per (a, b) by plain dict counting."""
    order, v = f.ctx.order, f.values.tolist()
    spectrum: Counter = Counter()
    delta = 0
    for a in range(1, order):
        per_b = Counter(v[x] ^ v[x ^ a] for x in range(order))
        delta = max(delta, max(per_b.values()))
        for b in range(order):
            spectrum[per_b.get(b, 0)] += 1
    return delta, spectrum


def naive_crooked(f: TruthTable) -> Tuple[Optional[tuple], Optional[int]]:
    """Walk the directions a = 1, 2, ... and match each derivative image
    against every affine hyperplane {y : tr(b*y) = eps}, listed by plain
    trace evaluation. Returns the (b, eps) of every direction, or None, and
    the first direction whose image is no hyperplane (None when every one is)."""
    ctx, tr, v = f.ctx, frobenius_traces(f.ctx), f.values.tolist()
    flats = {
        frozenset(y for y in range(ctx.order) if tr[ctx.mul(b, y)] == eps): (b, eps)
        for b in range(1, ctx.order)
        for eps in (0, 1)
    }
    witnesses = []
    for a in range(1, ctx.order):
        wit = flats.get(frozenset(v[x] ^ v[x ^ a] for x in range(ctx.order)))
        if wit is None:
            return None, a
        witnesses.append(wit)
    return tuple(witnesses), None


def derivative(f: TruthTable, a: int) -> np.ndarray:
    """D_a f(x) = f(x) + f(x + a) at x = 0, 1, ..., 2^n - 1."""
    return f.values ^ f.values[np.arange(f.ctx.order) ^ a]


def counts_of(ctx: FieldCtx, elements) -> np.ndarray:
    """counts[y] = how often y occurs in elements, for every y in the field:
    the form in which `vbf.hyperplane_of` reads a multiset of elements."""
    return np.bincount(np.array(list(elements), dtype=np.int64), minlength=ctx.order)


def crooked_form(rep: vbf.CrookedReport):
    """(verdict, failed_at, failed_apn, the (b, eps) of each direction a =
    1, 2, ... or None): the one form in which tests compare crooked reports."""
    pairs = None if rep.b is None else tuple(zip(rep.b.tolist(), rep.eps.tolist()))
    return rep.is_crooked, rep.failed_at, rep.failed_apn, pairs


def witness_dict(rep: vbf.CrookedReport) -> dict:
    """The hyperplane_witnesses object of `verify` as a dict, {hex a: [hex
    b, eps]} in numeric order of a."""
    return {format(a, "x"): [format(b, "x"), eps]
            for a, b, eps in zip(range(1, len(rep.b) + 1), rep.b.tolist(), rep.eps.tolist())}


def emitted(doc: dict, as_json: bool) -> str:
    """The stdout of a report doc, rendered whole: json.dumps with sorted
    keys, or one `key: str(value)` line per key in key order."""
    if as_json:
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    return "".join(f"{k}: {doc[k]}\n" for k in sorted(doc))


def is_ab(f: TruthTable) -> bool:
    """Almost bent: odd n and Walsh spectrum exactly {0, +-2^((n+1)/2)}."""
    n = f.ctx.n
    if n % 2 == 0:
        return False
    v = 1 << ((n + 1) // 2)
    return set(spectral.walsh_spectrum(f)["walsh_spectrum"]) == {0, v, -v}


def sweeps(f: TruthTable):
    """The differential, Walsh and crooked answers, the last in
    `crooked_form`, on the path `TruthTable.path` picks for f."""
    return vbf.differential_spectrum(f), spectral.walsh_spectrum(f), crooked_form(vbf.is_crooked(f))


@contextmanager
def _forced_path(path: str):
    # Class-level properties are data descriptors, so they win over what a
    # table has already cached in its instance dict: its path, and the
    # derivative sweep run on that path, which is run afresh on the forced
    # one.
    with mock.patch.object(TruthTable, "path", new_callable=mock.PropertyMock,
                           return_value=(path, None)), \
         mock.patch.object(TruthTable, "_derivatives", property(vbf._derivative_sweep)):
        yield


def exhaustive_sweeps(f: TruthTable):
    """The sweeps of every direction and component, whatever f is."""
    with _forced_path("exhaustive"):
        return sweeps(f)


def quadratic_sweeps(f: TruthTable):
    """The quadratic path's answers for f, which must have degree <= 2."""
    assert vbf.has_degree_at_most_2(f)
    with _forced_path("quadratic"):
        return sweeps(f)


def naive_crooked_report(f: TruthTable):
    """The `crooked_form` of the `vbf.is_crooked` report that `naive_crooked`
    and, on failure, `naive_diff_spectrum` give."""
    witnesses, failed_at = naive_crooked(f)
    if failed_at is None:
        return True, None, False, witnesses
    if naive_diff_spectrum(f)[0] != 2:
        return False, None, True, None
    return False, failed_at, False, None


def naive_pair_identity(f: TruthTable, p: FamilyParams) -> bool:
    """The families' per-direction identity at every (x, a != 0), with
    F(x) = f(x) + f(x+a) + f(a) and q = 2^m:
      first family:  F(x) + F(x)^q = (c + c^q)(x^q a + x a^q);
      second family: F(x) + d F(x)^q = (c + d c^q)(x^q a + x a^q)."""
    ctx, v = f.ctx, f.values.tolist()
    q = 1 << p.m

    def twist(v: int) -> int:
        vq = ctx.pow(v, q)
        return v ^ (vq if p.family == "thm1" else ctx.mul(p.d, vq))

    coeff = twist(p.c)
    for a in range(1, ctx.order):
        for x in range(ctx.order):
            big_f = v[x] ^ v[x ^ a] ^ v[a]
            cross = ctx.mul(ctx.pow(x, q), a) ^ ctx.mul(x, ctx.pow(a, q))
            if twist(big_f) != ctx.mul(coeff, cross):
                return False
    return True


def family_values(ctx: FieldCtx, p: FamilyParams) -> List[int]:
    """f(x) at every x by the families' formulas, with q = 2^m, e = 2^s+2^t
    and every 2^k-th power taken as k squarings:
      thm1: c x^(q+1) + sum_k r_k (x^(q+1))^(2^k)
            + sum_{k in K} ((d x^e)^(2^k) + ((d x^e)^q)^(2^k));
      thm2: c x^(q+1) + sum_k r_k (x^(q+1))^(2^k)
            + sum_{k in K} ((x^e)^(2^k) + d ((x^e)^q)^(2^k)),
    where r_k = r[k - 1], k = 1, ..., m - 1."""
    q, e = 1 << p.m, (1 << p.s) + (1 << p.t)

    def frobenius(y: int, k: int) -> int:
        for _ in range(k):
            y = ctx.mul(y, y)
        return y

    values = []
    for x in range(ctx.order):
        norm, xe = ctx.pow(x, q + 1), ctx.pow(x, e)
        y = ctx.mul(p.c, norm)
        for k, rk in enumerate(p.r, start=1):
            y ^= ctx.mul(rk, frobenius(norm, k))
        lead = ctx.mul(p.d, xe) if p.family == "thm1" else xe
        for k in p.K:
            twin = frobenius(ctx.pow(lead, q), k)
            y ^= frobenius(lead, k) ^ (twin if p.family == "thm1" else ctx.mul(p.d, twin))
        values.append(y)
    return values


def naive_search(ctx: FieldCtx, family: str, budget: int, seed: int) -> List[FamilyParams]:
    """`families.search_params` as its docstring states it: the seeded
    shuffle of the (s, t) and K lists, then for each (s, t, K) the first
    (d, c) over every pair of nonzero elements, primitive ones first, that
    the family's validator accepts. Bijectivity of L_K and primitivity are
    read off images and multiplicative orders listed in full."""
    n, m = ctx.n, ctx.n // 2

    def bijective(K) -> bool:
        images = {reduce(xor, (ctx.pow(y, 1 << k) for k in K), 0) for y in range(ctx.order)}
        return len(images) == ctx.order

    def mult_order(v: int) -> int:
        k, w = 1, v
        while w != 1:
            k, w = k + 1, ctx.mul(w, v)
        return k

    rng = random.Random(seed)
    st_pairs = [(s, t) for t in range(n - 1) for s in range(t + 1, n) if gcd(s - t, n) == 1]
    k_opts = [(k,) for k in range(n)]
    k_opts += [(k1, k2) for k1 in range(n) for k2 in range(k1 + 1, n) if (k1, k2) != (0, 1)]
    k_opts = [K for K in k_opts if bijective(K)]
    rng.shuffle(st_pairs)
    rng.shuffle(k_opts)
    elems = sorted(range(1, ctx.order), key=lambda v: (mult_order(v) != ctx.order - 1, v))
    out: List[FamilyParams] = []
    for s, t in st_pairs:
        for K in k_opts:
            if len(out) >= budget:
                return out
            pairs = ((d, c) for d in elems for c in elems)
            tuples = (FamilyParams(family, m=m, s=s, t=t, K=K, c=c, d=d, r=(0,) * (m - 1)) for d, c in pairs)
            p = next((p for p in tuples if not validate(ctx, p)), None)
            if p is not None:
                out.append(p)
    return out


def naive_rank(rows: List[int]) -> int:
    """Rank over GF(2) of rows given as int bitsets, by plain Gaussian
    elimination: one kept row per leading bit."""
    leading: Dict[int, int] = {}
    for r in rows:
        while r and r.bit_length() in leading:
            r ^= leading[r.bit_length()]
        if r:
            leading[r.bit_length()] = r
    return len(leading)


def ring_shifts(rows: List[int], width: int) -> List[int]:
    """Every y^b * R, 0 <= b < width, for each row R read as a run of
    elements of F_2[y_0..y_(k-1)]/(y_i^2), width = 2^k, bit u of an element
    the coefficient of y^u: the sum over the monomials y^u of R of
    y^u * y^b = y^(u | b), which is 0 unless b lies in the complement of u.
    Their F_2 span is the submodule the rows generate."""
    out: List[int] = []
    for r in rows:
        shifted = [0] * width
        while r:
            p = (r & -r).bit_length() - 1
            r ^= 1 << p
            e, u = divmod(p, width)
            rest = (width - 1) ^ u
            b = rest
            while True:  # every subset b of rest
                shifted[b] ^= 1 << (e * width + (u | b))
                if not b:
                    break
                b = (b - 1) & rest
        out += shifted
    return out


def f2_is_irreducible_by_trial_division(p: int) -> bool:
    """Irreducibility over F_2 of the polynomial with bitmask p, by long
    division through every polynomial of degree 1 .. deg(p) // 2."""
    deg = p.bit_length() - 1
    if deg < 1:
        return False
    for d in range(1 << 1, 1 << (deg // 2 + 1)):
        r = p
        while r.bit_length() >= d.bit_length():
            r ^= d << (r.bit_length() - d.bit_length())
        if r == 0:
            return False
    return True


# Every irreducible modulus of degree 2 to 8, for tests that draw a field.
IRREDUCIBLES = {n: [p for p in range(1 << n, 2 << n) if f2_is_irreducible_by_trial_division(p)]
                for n in range(2, 9)}


def random_invertible(n: int, rng: random.Random) -> List[int]:
    """Columns (images of basis vectors) of a random invertible GF(2) matrix."""
    while True:
        cols = [rng.randrange(1, 1 << n) for _ in range(n)]
        if naive_rank(cols) == n:
            return cols


def apply_linear(cols: List[int], x: int) -> int:
    y = 0
    for j, c in enumerate(cols):
        if (x >> j) & 1:
            y ^= c
    return y


def ea_transform(f: TruthTable, rng: random.Random) -> TruthTable:
    """g = A1 o f o A2 + A for random affine permutations A1, A2 and affine A."""
    n = f.ctx.n
    a1 = random_invertible(n, rng)
    a2 = random_invertible(n, rng)
    la = [rng.randrange(1 << n) for _ in range(n)]
    c1, c2, ca = (rng.randrange(1 << n) for _ in range(3))
    v, vals = f.values.tolist(), [0] * f.ctx.order
    for x in range(f.ctx.order):
        inner = apply_linear(a2, x) ^ c2
        vals[x] = apply_linear(a1, v[inner]) ^ c1 ^ apply_linear(la, x) ^ ca
    return TruthTable(f.ctx, vals)


def random_quadratic(ctx: FieldCtx, rng: random.Random):
    """Random multinomial with all exponents of binary weight 2."""
    from crooked.vbf import multinomial

    exps = [(1 << i) + (1 << j) for i in range(ctx.n) for j in range(i)]
    chosen = rng.sample(exps, k=min(3, len(exps)))
    return multinomial(ctx, [(rng.randrange(1, ctx.order), e) for e in chosen])
