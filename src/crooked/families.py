"""Builders, validators, and parameter search for the two crooked
multinomial families on GF(2^{2m}), plus Gold power functions and the
earlier three-term family they generalize."""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, chain, filterfalse, repeat
from math import gcd
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from .errors import DegreeMismatch, InvalidInput, InvalidParams, NotApnWarning
from .field import FieldCtx, f2_gcd
from .vbf import Multinomial, TruthTable, evaluate, multinomial


FAMILIES = ("thm1", "thm2")


@dataclass(frozen=True)
class FamilyParams:
    """A tuple of either family on GF(2^{2m}), q = 2^m; `family` names which.

    thm1: f = c*x^(q+1) + sum r_k x^(2^k(q+1))
    + sum_{k in K} (d^(2^k) x^(2^(s+k)+2^(t+k)) + d^(q 2^k) x^(q(2^(s+k)+2^(t+k)))).

    s > t >= 0 are the two fixed exponents (gcd(s-t, n) = 1); r has m-1
    entries, all in the subfield F_{2^m}; c outside F_{2^m}; d not of the
    form u^(2^s+2^t).

    Derived condition (not one of the stated hypotheses above): with
    e = 2^s+2^t, f is APN exactly when d is not a gcd(e, q+1)-th power.
    Sketch: put F(x) = f(x)+f(x+a)+f(a)+f(0). The identity
    F + F^q = (c+c^q)(x^q a + x a^q) puts every root of F in a*F_q, and on
    x = a*u with u in F_q, F(au) = L_K(Tr_{n/m}(d a^e) (u^(2^s)+u^(2^t)))
    where L_K(y) = sum_{k in K} y^(2^k). So direction a has q roots when
    d*a^e lies in F_q and 2 roots otherwise, and some a != 0 puts d*a^e in
    F_q exactly when d is a gcd(e, q+1)-th power. As gcd(s-t, n) = 1,
    gcd(e, q+1) is 3 for odd m, where the condition is the stated one, and
    1 for even m, where no tuple is APN. build warns (NotApnWarning)
    when the condition fails.

    thm2: f = c*x^(q+1) + sum r_k x^(2^k(q+1))
    + sum_{k in K} (x^(2^(s+k)+2^(t+k)) + d x^(q(2^(s+k)+2^(t+k)))).

    Requires d^(q+1) = 1, c + d*c^q != 0, d not a (2^s+2^t)-power, and each
    r_k either 0 or satisfying d = r_k^(1-q).
    """

    family: str
    m: int
    s: int
    t: int
    K: Tuple[int, ...]
    c: int
    d: int
    r: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidInput(f"unknown family {self.family!r}")


def _r_padded(p: FamilyParams) -> Tuple[int, ...]:
    r = tuple(p.r)
    return r + (0,) * (p.m - 1 - len(r))


def linearized_is_bijective(ctx: FieldCtx, K: Sequence[int]) -> bool:
    """True iff L_K(y) = sum_{k in K} y^(2^k) is a bijection of GF(2^n),
    the condition the family constructions need from K.

    As a module over F_2[x], with x acting as the Frobenius y -> y^2,
    GF(2^n) is cyclic and isomorphic to F_2[x]/(x^n + 1) (it has a normal
    basis), and L_K acts on it as l_K(x) = sum_{k in K} x^k. So L_K is a
    bijection exactly when l_K is a unit modulo x^n + 1, that is when
    gcd(l_K, x^n + 1) = 1 in F_2[x] (Lidl & Niederreiter, Finite Fields,
    3.4). A k repeated in K cancels in pairs, in l_K as in L_K.
    """
    if any(k < 0 or k >= ctx.n for k in K):
        raise InvalidInput(f"K indices must lie in [0, {ctx.n - 1}]")
    l_K = 0
    for k in K:
        l_K ^= 1 << k
    return f2_gcd(l_K, (1 << ctx.n) | 1) == 1


def _power_exponent(p: FamilyParams) -> int:
    return (1 << p.s) + (1 << p.t)


def validate(ctx: FieldCtx, p: FamilyParams) -> List[str]:
    """All violated hypotheses of p's family; empty list means valid. The
    hypotheses both families share are checked first, and the family's own
    only when those all hold."""
    if ctx.n != 2 * p.m:
        raise DegreeMismatch(f"ctx degree {ctx.n} != 2m = {2 * p.m}")
    bad = []
    if not p.s > p.t >= 0:
        bad.append("requires s > t >= 0")
    elif gcd(p.s - p.t, ctx.n) != 1:
        bad.append("gcd(s-t, n) != 1")
    if p.s >= ctx.n:
        bad.append(f"requires s < n = {ctx.n}")
    K = tuple(p.K)
    if not K:
        bad.append("K is empty")
    elif tuple(sorted(set(K))) != K or K[0] < 0 or K[-1] >= ctx.n:
        bad.append("K must be strictly increasing within [0, n-1]")
    elif K == (0, 1):
        bad.append("K = {0,1} is excluded")
    elif not linearized_is_bijective(ctx, K):
        bad.append("linearized map of K has nontrivial kernel")
    if len(p.r) > p.m - 1:
        bad.append(f"r has more than m-1 = {p.m - 1} entries")
    if any(v >> ctx.n for v in (p.c, p.d, *p.r)):
        bad.append("element outside GF(2^n)")
    if bad:
        return bad
    if p.family == "thm1":
        if ctx.in_subfield(p.c, p.m):
            bad.append("c lies in the subfield F_{2^m}")
        if p.d == 0 or ctx.is_eth_power(p.d, _power_exponent(p)):
            bad.append("d is a (2^s+2^t)-power")
        for k, rv in enumerate(_r_padded(p), start=1):
            if rv and not ctx.in_subfield(rv, p.m):
                bad.append(f"r[{k}] outside the subfield F_{{2^m}}")
        return bad
    q = 1 << p.m
    if p.d == 0 or ctx.pow(p.d, q + 1) != 1:
        bad.append("d^(q+1) != 1")
    if p.d and ctx.is_eth_power(p.d, _power_exponent(p)):
        bad.append("d is a (2^s+2^t)-power")
    if (p.c ^ ctx.mul(p.d, ctx.pow(p.c, q) if p.c else 0)) == 0:
        bad.append("c + d*c^q = 0")
    for k, rv in enumerate(_r_padded(p), start=1):
        # d = r^(1-q) rewritten multiplicatively as d * r^q = r.
        if rv and ctx.mul(p.d, ctx.pow(rv, q)) != rv:
            bad.append(f"r[{k}] does not satisfy d = r^(1-q)")
    return bad


def _family_terms(ctx: FieldCtx, p: FamilyParams) -> Multinomial:
    q = 1 << p.m
    terms = [(p.c, q + 1)]
    for k, rv in enumerate(_r_padded(p), start=1):
        if rv:
            terms.append((rv, (q + 1) << k))
    for k in p.K:
        e = (1 << (p.s + k)) + (1 << (p.t + k))
        if p.family == "thm1":
            terms.append((ctx.pow(p.d, 1 << k), e))
            terms.append((ctx.pow(p.d, q << k), q * e))
        else:
            terms.append((1, e))
            terms.append((p.d, q * e))
    return multinomial(ctx, terms)


def build(ctx: FieldCtx, p: FamilyParams) -> Multinomial:
    """The multinomial of p's family; raises InvalidParams on violated stated
    hypotheses and, for thm1, warns (NotApnWarning) when the derived APN
    condition in FamilyParams fails."""
    bad = validate(ctx, p)
    if bad:
        raise InvalidParams(bad)
    q = 1 << p.m
    g = gcd(_power_exponent(p), q + 1)
    if p.family == "thm1" and ctx.is_eth_power(p.d, g):
        warnings.warn(
            f"d is a gcd(2^s+2^t, 2^m+1)-th power (gcd = {g}): the stated "
            f"hypotheses hold, but f is not APN (delta = 2^m = {q})",
            NotApnWarning,
            stacklevel=2,
        )
    return _family_terms(ctx, p)


def build_gold(ctx: FieldCtx, s: int) -> Multinomial:
    """x^(2^s + 1); requires 1 <= s < n and gcd(s, n) = 1."""
    if not 1 <= s < ctx.n:
        raise InvalidParams([f"s = {s} is outside [1, n-1] = [1, {ctx.n - 1}]"])
    if gcd(s, ctx.n) != 1:
        raise InvalidParams([f"gcd({s}, {ctx.n}) != 1"])
    return multinomial(ctx, [(1, (1 << s) + 1)])


def validate_ref7(ctx: FieldCtx, m: int, s: int) -> List[str]:
    """Violated hypotheses of the three-term family (m and s odd, 1 <= s < n)."""
    if ctx.n != 2 * m:
        raise DegreeMismatch(f"ctx degree {ctx.n} != 2m = {2 * m}")
    bad = [f"{name} = {v} is even" for name, v in (("m", m), ("s", s)) if v % 2 == 0]
    if not 1 <= s < ctx.n:
        bad.append(f"s = {s} is outside [1, n-1] = [1, {ctx.n - 1}]")
    return bad


def build_ref7(ctx: FieldCtx, m: int, s: int, c: int, d: int) -> Multinomial:
    """The earlier three-term family on GF(2^{2m}) with m and s odd:
    f = c*x^(q+1) + d*x^(2^s+1) + d^q*x^(q(2^s+1)); coded directly from its
    own formula as an independent cross-check of the t = 0, K = {0} case.
    Raises InvalidParams when validate_ref7 reports a violation."""
    bad = validate_ref7(ctx, m, s)
    if bad:
        raise InvalidParams(bad)
    q = 1 << m
    e = (1 << s) + 1
    return multinomial(ctx, [(c, q + 1), (d, e), (ctx.pow(d, q), q * e)])


def gold_representatives(n: int) -> List[int]:
    """One Gold exponent s per CCZ class of x^(2^s+1): 1 <= s <= n/2 with
    gcd(s, n) = 1. s and n-s give the same class, and these s are pairwise
    CCZ-inequivalent (Budaghyan, Carlet & Pott, IEEE TIT 2006)."""
    return [s for s in range(1, n // 2 + 1) if gcd(s, n) == 1]


def _k_candidates(ctx: FieldCtx) -> List[Tuple[int, ...]]:
    """The K = {k}, then {k1 < k2} other than {0, 1}, whose L_K is bijective."""
    opts = [(k,) for k in range(ctx.n)]
    opts += [(k1, k2) for k1 in range(ctx.n) for k2 in range(k1 + 1, ctx.n) if (k1, k2) != (0, 1)]
    return [K for K in opts if linearized_is_bijective(ctx, K)]


def _primitive_first(ctx: FieldCtx) -> Iterator[int]:
    """The nonzero elements, lazily: primitive ones first, each part by increasing value."""
    primitives = map(ctx.primitive, range(ctx.primitive_count))
    return chain(primitives, filterfalse(ctx.is_primitive, range(1, ctx.order)))


def search_params(
    ctx: FieldCtx, family: str, budget: int, seed: int = 0
) -> List[FamilyParams]:
    """Deterministic seeded search for valid parameter tuples (r = 0).

    The seed shuffles the (s, t) with 0 <= t < s < n and gcd(s - t, n) = 1,
    listed by t then s, and the K of _k_candidates. For each (s, t, K) the
    search keeps the first (d, c) that `validate` accepts, d and then c
    running over the nonzero elements, primitive ones first, then in
    increasing bit value. With c0 the first primitive element, it asks only
    about the pairs that order reaches first. First family: (c0, c0), as c0
    lies in no proper subfield and is a (2^s+2^t)-power only when every
    element is. Second family: the units form a cyclic group, so the d with
    d^(q+1) = 1 are the c0^((q-1)j), j <= q, primitive exactly when
    gcd((q-1)j, 2^n-1) = 1; each d comes with the first c for which
    c + d*c^q != 0, found once, when the search first reaches that d.

    For even m the second family is empty, and the search returns [] before
    any `validate` call. As n = 2m is even and gcd(s-t, n) = 1, s - t is odd
    and gcd(2^(s-t)+1, 2^m+1) = 1. So g = gcd(2^s+2^t, 2^n-1), a divisor of
    (q-1)(q+1) prime to q+1, divides q - 1, and every c0^((q-1)j) is a g-th
    power, hence a (2^s+2^t)-power.
    """
    if family not in FAMILIES:
        raise InvalidInput(f"unknown family {family!r}")
    if ctx.n % 2:
        raise DegreeMismatch("family search needs even n")
    m = ctx.n // 2
    q = 1 << m
    if family == "thm2" and m % 2 == 0:
        return []
    rng = random.Random(seed)
    st_pairs = [
        (s, t)
        for t in range(ctx.n - 1)
        for s in range(t + 1, ctx.n)
        if gcd(s - t, ctx.n) == 1
    ]
    k_opts = _k_candidates(ctx)
    rng.shuffle(st_pairs)
    rng.shuffle(k_opts)
    c0 = next(_primitive_first(ctx))
    if family == "thm1":
        ds, c_for = [c0], lambda d: c0
    else:
        roots = accumulate(repeat(ctx.pow(c0, q - 1), q), ctx.mul, initial=1)
        imprimitive = (gcd((q - 1) * j, ctx.mult_order) != 1 for j in range(q + 1))
        ds = [d for _, d in sorted(zip(imprimitive, roots))]
        c_for = cache(lambda d: next(c for c in _primitive_first(ctx) if c ^ ctx.mul(d, ctx.pow(c, q))))
    out: List[FamilyParams] = []
    for s, t in st_pairs:
        for K in k_opts:
            if len(out) >= budget:
                return out
            tuples = (FamilyParams(family, m, s, t, K, c_for(d), d, (0,) * (m - 1)) for d in ds)
            p = next((p for p in tuples if not validate(ctx, p)), None)
            if p is not None:
                out.append(p)
    return out


def proof_identity_check(f: TruthTable, p: FamilyParams) -> bool:
    """Check the proofs' cancellation identity on the truth table f.

    With q = 2^m, for every x:
      first family:  f(x) + f(x)^q = (c + c^q) x^(q+1);
      second family: f(x) + d f(x)^q = (c + d c^q) x^(q+1).

    The proofs use it per direction: with F(x) = f(x) + f(x+a) + f(a),
    F(x) + F(x)^q = (c + c^q)(x^q a + x a^q), and F(x) + d F(x)^q =
    (c + d c^q)(x^q a + x a^q) for the second family. It follows from the
    global one: v -> v + d v^q is additive and
    (x+a)^(q+1) + x^(q+1) + a^(q+1) = x^q a + x a^q.
    It tests the identity, not membership of the family: adding to f(x) any
    v in the kernel of v -> v + d v^q (2^m elements; F_q itself for the
    first family) leaves it true. The apn and crooked checks catch such edits.
    """
    ctx = f.ctx
    q = 1 << p.m
    d = 1 if p.family == "thm1" else p.d  # the first family twists by v^q alone
    coeff = p.c ^ ctx.mul(d, ctx.pow(p.c, q))
    lhs = f.values ^ evaluate(ctx, [(d, q)], f.values)
    return bool(np.array_equal(lhs, evaluate(ctx, [(coeff, q + 1)], np.arange(ctx.order))))
