import random
from collections import Counter

import numpy as np
import pytest

from crooked import spectral, vbf
from crooked.families import build_gold
from crooked.field import FieldCtx
from helpers import ea_transform, is_ab, naive_walsh, random_quadratic


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
    assert s.gamma == Counter(values)
    assert s.extended == Counter(abs(v) for v in values)
    assert s.nl == (1 << (n - 1)) - max(abs(v) for v in values) // 2


def test_parseval_and_balance_identity():
    for n in (3, 4, 6):
        ctx = FieldCtx(n)
        rng = random.Random(n * 3)
        f = _table(ctx, lambda x: rng.randrange(ctx.order))
        for a in range(1, ctx.order):
            w = spectral.walsh_component(f, a)
            assert int((w.astype(object) ** 2).sum()) == 1 << (2 * n)
            weight = sum(
                ctx.trace(ctx.mul(a, f[x])) for x in range(ctx.order)
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
    assert set(s.gamma) == {0, 4, -4}
    assert s.nl == 2
    assert sum(s.gamma.values()) == 7 * 8


def test_affine_nl_zero():
    ctx = FieldCtx(4)
    aff = _table(ctx, lambda x: ctx.mul(9, x) ^ 3)
    assert spectral.walsh_spectrum(aff).nl == 0


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
        assert s.extended == base.extended
        assert s.nl == base.nl
