import random
from collections import Counter

import numpy as np
import pytest

from crooked import spectral, vbf
from crooked.errors import NotApnWarning
from crooked.families import build, build_gold, search_params
from crooked.field import FieldCtx
from helpers import _forced_path, ea_transform, frobenius_traces, is_ab, naive_walsh, random_quadratic


def _table(ctx, fn):
    return vbf.TruthTable(ctx, [fn(x) for x in range(ctx.order)])


def test_constant_component():
    ctx = FieldCtx(4)
    zero = _table(ctx, lambda x: 0)
    w = spectral.walsh_component(zero, 5)
    assert w[0] == 16 and not w[1:].any()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fwht_equals_direct_definition(n):
    ctx = FieldCtx(n)
    rng = random.Random(n)
    funcs = [
        _table(ctx, lambda x: rng.randrange(ctx.order)),
        vbf.from_multinomial(random_quadratic(ctx, rng)),
    ]
    for f in funcs:
        for a in range(1, ctx.order, max(1, ctx.order // 8)):
            w = spectral.walsh_component(f, a)
            for omega in range(ctx.order):
                assert w[omega] == naive_walsh(f, a, omega)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_walsh_spectrum_matches_naive(n):
    ctx = FieldCtx(n)
    rng = random.Random(n * 7)
    f = _table(ctx, lambda x: rng.randrange(ctx.order))
    values = [naive_walsh(f, a, omega) for a in range(1, ctx.order) for omega in range(ctx.order)]
    s = spectral.walsh_spectrum(f)
    assert s["walsh_spectrum"] == Counter(values)
    assert s["extended_walsh"] == Counter(abs(v) for v in values)
    assert s["nl"] == (1 << (n - 1)) - max(abs(v) for v in values) // 2


def test_parseval_and_balance_identity():
    for n in (3, 4, 6):
        ctx = FieldCtx(n)
        rng = random.Random(n * 3)
        f = _table(ctx, lambda x: rng.randrange(ctx.order))
        tr, v = frobenius_traces(ctx), f.values.tolist()
        for a in range(1, ctx.order):
            w = spectral.walsh_component(f, a)
            assert int((w.astype(object) ** 2).sum()) == 1 << (2 * n)
            weight = sum(
                tr[ctx.mul(a, v[x])] for x in range(ctx.order)
            )
            assert w[0] == ctx.order - 2 * weight


def test_gold_component_values_n3():
    ctx = FieldCtx(3)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    for a in range(1, 8):
        vals = set(spectral.walsh_component(f, a).tolist())
        assert vals <= {0, 4, -4}


def test_walsh_spectrum_gold_n3():
    ctx = FieldCtx(3)
    s = spectral.walsh_spectrum(vbf.from_multinomial(build_gold(ctx, 1)))
    assert set(s["walsh_spectrum"]) == {0, 4, -4}
    assert s["nl"] == 2
    assert sum(s["walsh_spectrum"].values()) == 7 * 8


def test_affine_nl_zero():
    ctx = FieldCtx(4)
    aff = _table(ctx, lambda x: ctx.mul(9, x) ^ 3)
    assert spectral.walsh_spectrum(aff)["nl"] == 0


def test_is_ab():
    ctx3 = FieldCtx(3)
    assert is_ab(vbf.from_multinomial(build_gold(ctx3, 1)))
    aff = _table(ctx3, lambda x: x)
    assert not is_ab(aff)
    ctx4 = FieldCtx(4)
    assert not is_ab(vbf.from_multinomial(vbf.multinomial(ctx4, [(1, 3)])))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_extended_spectrum_and_nl_ea_invariant(n):
    ctx = FieldCtx(n)
    rng = random.Random(n * 13)
    f = vbf.from_multinomial(random_quadratic(ctx, rng))
    base = spectral.walsh_spectrum(f)
    for _ in range(3):
        g = ea_transform(f, rng)
        s = spectral.walsh_spectrum(g)
        assert s["extended_walsh"] == base["extended_walsh"]
        assert s["nl"] == base["nl"]


def _gold_plus_affine(n, s, seed):
    """x^(2^s+1) + c2 x^2 + c1 x + c0 with seeded c2, c1 and c0 != 0:
    quadratic and no power function, and APN exactly when gcd(s, n) = 1."""
    ctx, rng = FieldCtx(n), random.Random(seed)
    c2, c1, c0 = rng.randrange(ctx.order), rng.randrange(ctx.order), rng.randrange(1, ctx.order)
    m = vbf.multinomial(ctx, [(1, (1 << s) + 1), (c2, 2), (c1, 1)])
    return vbf.TruthTable(ctx, vbf.from_multinomial(m).values ^ np.uint32(c0))


def _family(family, n, seed):
    ctx = FieldCtx(n)
    return vbf.from_multinomial(build(ctx, search_params(ctx, family, budget=1, seed=seed)[0]))


def _even_m_thm1():
    with pytest.warns(NotApnWarning):  # m = 4: no first-family tuple is APN
        return _family("thm1", 8, 3)


# name -> (builder, APN): APN tables, where the quadratic Walsh branch counts
# the radicals off the derivative sweep's normals, and non-APN ones, where it
# ranks the symplectic matrices. x^(2^s+1) with gcd(s, n) > 1 is a power
# function, forced onto the quadratic path below, and taken there with
# affine terms.
QUADRATIC_WALSH_CASES = {
    **{f"gold n={n} s={s} + affine": (lambda n=n, s=s: _gold_plus_affine(n, s, n), True)
       for n, s in ((3, 1), (5, 2), (6, 1), (7, 3), (8, 3), (10, 3))},
    **{f"{fam} n=6 seed={seed}": (lambda fam=fam, seed=seed: _family(fam, 6, seed), True)
       for fam in ("thm1", "thm2") for seed in (1, 2)},
    **{f"x^{(1 << s) + 1} n={n}": (
        lambda n=n, s=s: vbf.from_multinomial(vbf.multinomial(FieldCtx(n), [(1, (1 << s) + 1)])), False)
       for n, s in ((4, 2), (6, 2), (6, 3), (8, 2))},
    **{f"x^{(1 << s) + 1} n={n} + affine": (lambda n=n, s=s: _gold_plus_affine(n, s, n), False)
       for n, s in ((4, 2), (6, 2), (6, 3), (8, 2))},
    "thm1 n=8, even m": (_even_m_thm1, False),
}


@pytest.mark.parametrize("name", QUADRATIC_WALSH_CASES)
def test_quadratic_walsh_equals_every_component(name, monkeypatch):
    make, apn = QUADRATIC_WALSH_CASES[name]
    f = make()
    ranked = []

    def counted(g, original=spectral.symplectic_rows):
        ranked.append(g)
        return original(g)

    monkeypatch.setattr(spectral, "symplectic_rows", counted)
    assert vbf.has_degree_at_most_2(f)
    with _forced_path("quadratic"):
        assert (vbf.differential_spectrum(f)[0] == 2) == apn
        got = spectral.walsh_spectrum(f)
    assert len(ranked) == (0 if apn else 1)
    with _forced_path("exhaustive"):
        assert got == spectral.walsh_spectrum(f)


def _random_table(n):
    ctx, rng = FieldCtx(n), random.Random(n)
    return _table(ctx, lambda x: rng.randrange(ctx.order))


def _monomials(n, terms):
    return vbf.from_multinomial(vbf.multinomial(FieldCtx(n), terms))


# name -> (builder, the sweep path its table takes): one group per path.
MOMENT_CASES = {
    **{f"random n={n}": (lambda n=n: _random_table(n), "exhaustive") for n in (3, 5, 6, 8)},
    **{f"x^{d} n={n}": (lambda n=n, d=d: _monomials(n, [(1, d)]), "power")
       for n, d in ((7, 126), (9, 13), (10, 57), (11, 2046))},
    **{f"{fam} n={n} seed=1": (lambda fam=fam, n=n: _family(fam, n, 1), "quadratic")
       for fam in ("thm1", "thm2") for n in (6, 10, 14)},
    "thm1 n=8, even m": (_even_m_thm1, "quadratic"),
    "x^3+x^5+7x n=8": (lambda: _monomials(8, [(1, 3), (1, 5), (7, 1)]), "quadratic"),
}


@pytest.mark.parametrize("name", MOMENT_CASES)
def test_spectra_moment_identities(name):
    # Over a != 0 (Chabaud & Vaudenay): the differential spectrum counts the
    # 2^n (2^n - 1) pairs (a, b) and as many solutions; each component
    # satisfies Parseval; and the fourth Walsh moment is 2^(2n) times the
    # second moment of the differential spectrum. The two spectra come from
    # independent computations on every path.
    make, path = MOMENT_CASES[name]
    f = make()
    assert f.path[0] == path
    n = f.ctx.n
    pairs = (1 << n) * ((1 << n) - 1)
    diff = vbf.differential_spectrum(f)[1].items()
    walsh = spectral.walsh_spectrum(f)["walsh_spectrum"].items()
    assert sum(m for _, m in diff) == sum(v * m for v, m in diff) == pairs
    assert sum(w * w * m for w, m in walsh) == pairs << n
    assert sum(v * v * m for v, m in diff) << (2 * n) == sum(w**4 * m for w, m in walsh)
