import itertools
import random

import numpy as np
import pytest

from crooked import vbf
from crooked.errors import InvalidInput, NotApnWarning
from crooked.families import build_gold
from crooked.field import FieldCtx
from helpers import (
    counts_of,
    crooked_form,
    derivative,
    frobenius_traces,
    naive_diff_spectrum,
    random_quadratic,
)


def _table(ctx, fn):
    return vbf.TruthTable(ctx, [fn(x) for x in range(ctx.order)])


def _image(f, a):
    """The sorted image set of the direction-a derivative."""
    return np.unique(derivative(f, a)).tolist()


def test_multinomial_merges_and_reduces():
    ctx = FieldCtx(3)
    m = vbf.multinomial(ctx, [(3, 2), (3, 2)])
    assert m.terms == ()  # equal terms cancel
    m2 = vbf.multinomial(ctx, [(1, 9), (5, 2)])  # 9 = 2 mod 7
    assert m2.terms == ((4, 2),)
    with pytest.raises(InvalidInput):
        vbf.multinomial(ctx, [(1, 0)])
    assert vbf.multinomial(FieldCtx(1), [(1, 3), (1, 2)]).terms == ()  # x^3 = x^2 = x on GF(2)


def test_truthtable_refuses_entries_outside_the_field():
    # Checked before the uint32 conversion, which overflows on -1 and 2^32.
    ctx = FieldCtx(3)
    for entry in (-1, 8, 1 << 32, 1 << 70):
        with pytest.raises(InvalidInput, match="outside the field"):
            vbf.TruthTable(ctx, [0, entry, 0, 0, 0, 0, 0, 0])
    assert vbf.TruthTable(ctx, np.arange(8, dtype=np.uint32)).values.dtype == np.uint32


def test_from_multinomial_identity_and_cube():
    ctx = FieldCtx(2)
    ident = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 1)]))
    assert ident.values.tolist() == [0, 1, 2, 3]
    cube = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    assert cube.values.tolist() == [0, 1, 1, 1]


def _scalar_values(ctx, terms, points):
    # Per-point oracle: the field's scalar mul and pow.
    out = []
    for p in points:
        acc = 0
        for c, e in terms:
            acc ^= ctx.mul(c, ctx.pow(p, e))
        out.append(acc)
    return out


def _random_terms(ctx, rng):
    # Random terms plus a zero coefficient, a repeated exponent,
    # e = 2^n - 1 and an e >= 2^n.
    e = rng.randrange(1, ctx.order)
    u = [rng.randrange(1, ctx.order) for _ in range(4)]
    terms = [(rng.randrange(ctx.order), rng.randrange(1, 4 * ctx.order)) for _ in range(3)]
    return terms + [(0, e), (u[0], e), (u[1], e), (u[2], ctx.mult_order),
                    (u[3], ctx.order + rng.randrange(3 * ctx.order))]


@pytest.mark.parametrize("n", [*range(1, 9), 17, 20])
def test_evaluate_matches_scalar_arithmetic(n):
    ctx = FieldCtx(n)
    rng = random.Random(n)
    for _ in range(10 if n <= 8 else 2):
        terms = _random_terms(ctx, rng)
        some = [rng.randrange(ctx.order) for _ in range(40)]
        points = [0] + some + some[:5] + [0]  # 0 and repeats
        got = vbf.evaluate(ctx, terms, points)
        assert got.dtype == np.uint32
        assert got.tolist() == _scalar_values(ctx, terms, points), terms


def test_evaluate_whole_field_matches_scalar_arithmetic():
    ctx = FieldCtx(8)
    terms = _random_terms(ctx, random.Random(8))
    points = range(ctx.order)
    assert vbf.evaluate(ctx, terms, points).tolist() == _scalar_values(ctx, terms, points)


def test_flagship_shape_exponents_n12():
    # the three-term n=12 instance has exponents {65, 258, 132} before r-terms
    ctx = FieldCtx(12)
    from crooked.families import FamilyParams, build

    c = next(v for v in range(2, 4096) if ctx.is_primitive(v))
    p = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=c, d=c, r=(0,) * 5)
    with pytest.warns(NotApnWarning):  # m = 6 is even: delta = 64
        m = build(ctx, p)
    assert sorted(e for _, e in m.terms) == [65, 132, 258]


def test_derivative_sets():
    ctx = FieldCtx(3)
    lin = _table(ctx, lambda x: ctx.mul(5, x))
    for a in range(1, 8):
        assert _image(lin, a) == [ctx.mul(5, a)]
    cube = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    assert len(_image(cube, 1)) == 4
    const = _table(ctx, lambda x: 6)
    assert _image(const, 3) == [0]


def test_differential_spectrum_examples():
    ctx4 = FieldCtx(4)
    lin = _table(ctx4, lambda x: ctx4.mul(7, x))
    assert vbf.differential_spectrum(lin)[0] == 16
    cube = vbf.from_multinomial(vbf.multinomial(ctx4, [(1, 3)]))
    assert vbf.differential_spectrum(cube)[0] == 2
    fifth = vbf.from_multinomial(vbf.multinomial(ctx4, [(1, 5)]))
    assert vbf.differential_spectrum(fifth)[0] == 4


def test_spectrum_partition_and_parity():
    ctx = FieldCtx(4)
    rng = random.Random(11)
    for _ in range(5):
        f = _table(ctx, lambda x: rng.randrange(16))
        delta, spec = vbf.differential_spectrum(f)
        assert sum(c * m for c, m in spec.items()) == 15 * 16
        assert sum(spec.values()) == 15 * 16
        assert delta >= 2 and delta % 2 == 0
        assert all(c % 2 == 0 for c in spec if spec[c])


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_spectrum_matches_naive_oracle(n):
    ctx = FieldCtx(n)
    rng = random.Random(n)
    funcs = [vbf.from_multinomial(random_quadratic(ctx, rng)),
             _table(ctx, lambda x: rng.randrange(ctx.order))]
    if n % 2:
        funcs.append(vbf.from_multinomial(build_gold(ctx, 1)))
    for f in funcs:
        assert vbf.differential_spectrum(f) == naive_diff_spectrum(f)


def test_hyperplane_witness_gf4():
    ctx = FieldCtx(2)
    b, eps = vbf.hyperplane_of(ctx, counts_of(ctx, {0, 1}))
    assert (b, eps) == (1, 0)
    tr = frobenius_traces(ctx)
    for y in range(4):
        assert (tr[ctx.mul(b, y)] == eps) == (y in {0, 1})


def test_hyperplane_wrong_size_and_non_flat():
    ctx = FieldCtx(3)
    assert vbf.hyperplane_of(ctx, counts_of(ctx, {0})) is None
    assert vbf.hyperplane_of(ctx, counts_of(ctx, {0, 1, 2, 3})) is not None  # span{1, 2}
    assert vbf.hyperplane_of(ctx, counts_of(ctx, {0, 1, 2, 4})) is None  # not closed: 1+2=3 missing


def test_hyperplane_witness_consistency_exhaustive():
    ctx = FieldCtx(4)
    tr = frobenius_traces(ctx)
    # every coset of every hyperplane gets the right witness back
    for b in range(1, 16):
        for eps in (0, 1):
            s = {y for y in range(16) if tr[ctx.mul(b, y)] == eps}
            w = vbf.hyperplane_of(ctx, counts_of(ctx, s))
            assert w is not None
            assert {y for y in range(16) if tr[ctx.mul(w[0], y)] == w[1]} == s


@pytest.mark.parametrize("n", [3, 4])
def test_hyperplane_of_matches_enumeration(n):
    # Every subset of hyperplane size, against the 2(2^n - 1) affine
    # hyperplanes listed by brute force.
    ctx = FieldCtx(n)
    tr = frobenius_traces(ctx)
    flats = {
        frozenset(y for y in range(ctx.order) if tr[ctx.mul(b, y)] == eps): (b, eps)
        for b in range(1, ctx.order)
        for eps in (0, 1)
    }
    for s in itertools.combinations(range(ctx.order), ctx.order // 2):
        assert vbf.hyperplane_of(ctx, counts_of(ctx, s)) == flats.get(frozenset(s))


def test_gold_derivatives_are_hyperplanes():
    ctx = FieldCtx(3)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    for a in range(1, 8):
        assert vbf.hyperplane_of(ctx, counts_of(ctx, _image(f, a))) is not None


def test_is_crooked_gold_n3():
    ctx = FieldCtx(3)
    rep = vbf.is_crooked(vbf.from_multinomial(build_gold(ctx, 1)))
    assert rep.is_crooked
    assert len(rep.b) == len(rep.eps) == 7


def test_is_crooked_inverse_n4_fails():
    ctx = FieldCtx(4)
    inv = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 14)]))
    rep = vbf.is_crooked(inv)
    assert not rep.is_crooked
    assert rep.failed_apn


def test_is_crooked_reports_non_apn_past_a_two_to_one_direction():
    # Direction 1 is 2-to-1 but its image is not a hyperplane, so the sweep
    # stops there; the function is not APN, which the report names instead.
    ctx = FieldCtx(3)
    f = vbf.TruthTable(ctx, [6, 6, 0, 4, 7, 6, 4, 7])
    d1 = derivative(f, 1)
    assert np.bincount(d1).max() == 2 and vbf.hyperplane_of(ctx, counts_of(ctx, d1)) is None
    assert vbf.differential_spectrum(f)[0] != 2
    assert crooked_form(vbf.is_crooked(f)) == (False, None, True, None)


def test_constant_shift_preserves_derivative_sets():
    for n in (3, 4, 6, 8):
        ctx = FieldCtx(n)
        rng = random.Random(n)
        f = vbf.from_multinomial(random_quadratic(ctx, rng))
        c = rng.randrange(1, ctx.order)
        g = vbf.TruthTable(ctx, (f.values ^ c).tolist())
        for a in range(1, ctx.order, max(1, ctx.order // 16)):
            assert _image(f, a) == _image(g, a)


def test_quadratic_apn_iff_crooked():
    for n in (4, 6, 8):
        ctx = FieldCtx(n)
        rng = random.Random(n + 1)
        for _ in range(3):
            f = vbf.from_multinomial(random_quadratic(ctx, rng))
            assert (vbf.differential_spectrum(f)[0] == 2) == vbf.is_crooked(f).is_crooked
