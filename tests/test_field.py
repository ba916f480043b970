import functools
import operator
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from crooked.errors import InvalidInput, InvalidModulus
from crooked.field import FieldCtx, _f2_is_irreducible, smallest_irreducible, trial_factor
from helpers import f2_is_irreducible_by_trial_division, frobenius_trace, frobenius_traces


def test_create_gf4_default_modulus():
    ctx = FieldCtx(2)
    assert ctx.modulus == 0b111  # x^2+x+1, the only irreducible quadratic


def test_create_accepts_given_irreducible():
    ctx = FieldCtx(3, 0b1011)  # x^3+x+1
    assert ctx.modulus == 0b1011


def test_create_rejects_reducible():
    with pytest.raises(InvalidModulus):
        FieldCtx(4, 0b10001)  # x^4+1 = (x+1)^4


def test_create_rejects_wrong_degree():
    with pytest.raises(InvalidModulus):
        FieldCtx(4, 0b1011)


def test_degree_bounds():
    for n in (0, 25, -3):
        with pytest.raises(InvalidInput, match=rf"n={n} outside \[1, 24\]"):
            FieldCtx(n)


def test_order_facts_product():
    for n in (2, 3, 6, 12):
        ctx = FieldCtx(n)
        prod = 1
        for p, e in ctx.order_facts:
            prod *= p**e
        assert prod == ctx.mult_order


def test_default_modulus_is_smallest():
    # Every smaller candidate bitmask must be reducible.
    for n in (2, 3, 4, 6, 8):
        mod = smallest_irreducible(n)
        for cand in range(1 << n, mod):
            with pytest.raises(InvalidModulus):
                FieldCtx(n, cand)


def test_modulus_agrees_with_general_irreducibility_test():
    # The default modulus has no factor of degree 1..n/2 over F_2, by trial
    # division independent of the field module's Ben-Or test.
    for n in (2, 3, 5, 8, 12):
        assert f2_is_irreducible_by_trial_division(FieldCtx(n).modulus)
    assert not f2_is_irreducible_by_trial_division(0b10101)  # (x^2+x+1)^2


def test_irreducibility_test_agrees_with_trial_division():
    # Every bitmask below 2^14, with 0, 1 and the even ones.
    for p in range(1 << 14):
        assert _f2_is_irreducible(p) == f2_is_irreducible_by_trial_division(p), hex(p)


def test_default_moduli_are_pinned():
    # Every canonical output over a default field depends on these.
    assert [smallest_irreducible(n) for n in range(1, 25)] == [
        0x2, 0x7, 0xb, 0x13, 0x25, 0x43, 0x83, 0x11b, 0x203, 0x409, 0x805, 0x1009,
        0x201b, 0x4021, 0x8003, 0x1002b, 0x20009, 0x40009, 0x80027, 0x100009,
        0x200005, 0x400003, 0x800021, 0x100001b,
    ]


def test_mul_examples_gf4():
    ctx = FieldCtx(2)
    assert ctx.mul(0b10, 0b10) == 0b11  # w^2 = w + 1
    for a in range(4):
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0


def test_mul_commutative_associative_distributive():
    ctx = FieldCtx(4)
    for a in range(16):
        for b in range(16):
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in (3, 7):
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a ^ b, c) == ctx.mul(a, c) ^ ctx.mul(b, c)


def test_pow_examples():
    ctx3 = FieldCtx(3, 0b1011)
    assert ctx3.pow(0b010, 3) == 0b011  # alpha^3 = alpha + 1
    ctx2 = FieldCtx(2)
    assert ctx2.pow(0b10, 3) == 1
    for a in range(1, 8):
        assert ctx3.pow(a, 1) == a


def test_pow_zero_cases():
    ctx = FieldCtx(3)
    assert ctx.pow(0, 5) == 0
    with pytest.raises(InvalidInput, match=r"0\^0 is undefined"):
        ctx.pow(0, 0)


def test_inverse_law_exhaustive():
    for n in (2, 3, 4, 6, 8, 12):
        ctx = FieldCtx(n)
        for a in range(1, min(ctx.order, 300)):
            assert ctx.mul(a, ctx.pow(a, ctx.mult_order - 1)) == 1


def test_fermat_and_frobenius_additivity():
    for n in (2, 3, 4, 6, 8):
        ctx = FieldCtx(n)
        for a in range(1, ctx.order):
            assert ctx.pow(a, ctx.mult_order) == 1
        for a in range(ctx.order):
            for b in range(0, ctx.order, 3):
                assert ctx.pow(a ^ b, 2) == ctx.pow(a, 2) ^ (ctx.pow(b, 2) if b else 0)


def test_trace_examples_and_balance():
    # tr(a) = tr(a*1) is bit 0 of trace_masks[a].
    ctx = FieldCtx(2)
    trace = (ctx.trace_masks & 1).tolist()
    assert trace[0] == 0
    assert trace[1] == 0
    assert trace[0b10] == 1
    for n in (2, 3, 4, 6, 8, 10, 12):
        c = FieldCtx(n)
        trace = (c.trace_masks & 1).tolist()
        zeros = sum(1 for a in range(c.order) if trace[a] == 0)
        assert zeros == c.order // 2
        # linearity, sampled
        for a in range(0, c.order, 5):
            for b in range(0, c.order, 7):
                assert trace[a ^ b] == trace[a] ^ trace[b]


def test_in_subfield():
    ctx4 = FieldCtx(4)
    assert ctx4.in_subfield(0, 2) and ctx4.in_subfield(1, 2)
    ctx2 = FieldCtx(2)
    assert not ctx2.in_subfield(0b10, 1)
    g = next(a for a in range(2, 16) if ctx4.is_primitive(a))
    assert ctx4.in_subfield(ctx4.pow(g, 5), 2)  # order-3 element sits in F_4
    with pytest.raises(InvalidInput, match="m=3 does not divide n=4"):
        ctx4.in_subfield(1, 3)


def test_subfield_sizes():
    for n, m in ((4, 2), (6, 2), (6, 3), (12, 6), (12, 4)):
        ctx = FieldCtx(n)
        count = sum(1 for a in range(ctx.order) if ctx.in_subfield(a, m))
        assert count == 1 << m


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10])
def test_eth_power_matches_enumeration(n):
    ctx = FieldCtx(n)
    for e in (2, 3, 5, (1 << 2) + 2):
        image = {ctx.pow(u, e) for u in range(1, ctx.order)}
        for d in range(1, ctx.order):
            assert ctx.is_eth_power(d, e) == (d in image)


def test_eth_power_examples():
    ctx2 = FieldCtx(2)
    assert ctx2.is_eth_power(1, 3)
    assert not ctx2.is_eth_power(0b10, 3)
    ctx6 = FieldCtx(6)
    g = next(a for a in range(2, 64) if ctx6.is_primitive(a))
    assert not ctx6.is_eth_power(g, 3)
    with pytest.raises(InvalidInput, match="d = 0; the caller decides the zero case"):
        ctx6.is_eth_power(0, 3)


def test_is_primitive():
    ctx2 = FieldCtx(2)
    assert ctx2.is_primitive(0b10)
    assert not ctx2.is_primitive(1)
    ctx4 = FieldCtx(4)
    g = next(a for a in range(2, 16) if ctx4.is_primitive(a))
    assert not ctx4.is_primitive(ctx4.pow(g, 3))  # order divides 5
    with pytest.raises(InvalidInput, match="0 is not a unit"):
        ctx4.is_primitive(0)
    # counts: phi(2^n - 1) primitive elements
    assert sum(1 for a in range(1, 16) if ctx4.is_primitive(a)) == 8


def test_trial_factor():
    assert trial_factor(1) == []
    assert trial_factor(63) == [(3, 2), (7, 1)]
    assert trial_factor(4095) == [(3, 2), (5, 1), (7, 1), (13, 1)]
    assert trial_factor((1 << 24) - 1) == [(3, 2), (5, 1), (7, 1), (13, 1), (17, 1), (241, 1)]


def test_component_mask_matches_trace():
    # 0x1F = x^4+x^3+x^2+x+1, where x has order 5 and so does not generate.
    for n, modulus in ((2, None), (3, None), (5, None), (8, None), (4, 0x1F)):
        ctx = FieldCtx(n, modulus)
        assert "trace_masks" not in vars(ctx)  # built on first use only
        masks, inverse, tr = ctx.trace_masks, ctx.trace_masks_inverse, frobenius_traces(ctx)
        for a in range(ctx.order):
            mask = int(masks[a])
            for y in range(ctx.order):
                assert bin(mask & y).count("1") & 1 == tr[ctx.mul(a, y)]
            assert inverse[mask] == a


def _seeded_irreducibles(n: int, count: int) -> list:
    rng = random.Random(n)
    found = []
    while len(found) < count:
        p = 1 << n | rng.getrandbits(n) | 1
        if p not in found and f2_is_irreducible_by_trial_division(p):
            found.append(p)
    return found


def test_trace_matches_frobenius_on_every_modulus():
    # Every irreducible modulus of degree 1 to 10, then two seeded ones of
    # each degree 11 to 24: the traces are read off the modulus's coefficients.
    moduli = [
        p for n in range(1, 11) for p in range(1 << n, 2 << n) if f2_is_irreducible_by_trial_division(p)
    ] + [p for n in range(11, 25) for p in _seeded_irreducibles(n, 2)]
    for p in moduli:
        n = p.bit_length() - 1
        ctx = FieldCtx(n, p)
        # x^k for k < 2n - 1: the powers trace_masks reads, and the basis.
        powers = [1]
        for _ in range(2 * n - 2):
            powers.append(ctx.mul(powers[-1], 0b10))
        traces = [frobenius_trace(ctx, v) for v in powers]
        assert set(traces) <= {0, 1}
        assert ctx._traces == traces, hex(p)
        if n <= 10:
            # Bit i of masks[x^j] is tr(x^(i+j)).
            masks = ctx.trace_masks
            for j in range(n):
                assert [int(masks[1 << j]) >> i & 1 for i in range(n)] == traces[j : j + n], hex(p)


@pytest.fixture(scope="module")
def gf24():
    """GF(2^24) with its tables, built once for the module (two 64 MB arrays)."""
    ctx = FieldCtx(24)
    ctx.log_array
    return ctx


@pytest.mark.parametrize("n, modulus", [(n, None) for n in range(1, 25)] + [(4, 0x1F)])
def test_tables_match_raw_arithmetic(n, modulus, request):
    # The numpy tables against the table-free scalar mul and pow, at every n.
    if n == 24:
        ctx = request.getfixturevalue("gf24")
    else:
        ctx = FieldCtx(n, modulus)
        assert "exp_array" not in vars(ctx) and "log_array" not in vars(ctx)  # built on first use only
    exp, log = ctx.exp_array, ctx.log_array
    assert exp.size == ctx.mult_order and log.size == ctx.order and log[0] == 0
    gamma = ctx.primitive(0)
    assert exp[0] == 1 and exp[1 % ctx.mult_order] == gamma
    if n <= 20:
        assert np.array_equal(np.sort(exp), np.arange(1, ctx.order))  # a permutation of the units
        assert np.array_equal(log[exp], np.arange(ctx.mult_order))
    if modulus == 0x1F:
        # x^4+x^3+x^2+x+1 is irreducible, but x has order 5 in its field,
        # so the tables' generator is not x there.
        assert ctx.pow(0b10, 5) == 1 and exp[1] != 0b10
    rng = random.Random(n)
    for _ in range(200):
        i, j = rng.randrange(ctx.mult_order), rng.randrange(ctx.mult_order)
        assert exp[i] == ctx.pow(gamma, i) and log[exp[i]] == i
        assert ctx.mul(int(exp[i]), int(exp[j])) == exp[(i + j) % ctx.mult_order]


def test_gf2_has_the_trivial_tables():
    # GF(2) has the one unit 1: log = [0, 0] and exp = [1], through the
    # general code paths.
    gf2 = FieldCtx(1)
    assert gf2.log_array.tolist() == [0, 0] and gf2.exp_array.tolist() == [1]
    assert [gf2.pow(1, e) for e in range(6)] == [1] * 6
    assert [gf2.mul(a, b) for a in (0, 1) for b in (0, 1)] == [0, 0, 0, 1]
    assert gf2.is_primitive(1) and gf2.order_facts == []
    assert gf2._traces == [1] and gf2.trace_masks.tolist() == [0, 1]


@functools.cache
def _field(n: int) -> FieldCtx:
    return FieldCtx(n)


@seed(2)
@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_scalar_arithmetic_is_a_field(data):
    n = data.draw(st.integers(1, 24), label="n")
    ctx = _field(n)
    a, b, c = (data.draw(st.integers(0, ctx.mult_order), label=name) for name in "abc")
    e, f = data.draw(st.integers(1, 1 << 30), label="e"), data.draw(st.integers(1, 1 << 30), label="f")
    mul, pw = ctx.mul, ctx.pow
    assert mul(a, b) == mul(b, a) and mul(a, 1) == a and mul(a, 0) == 0
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a ^ b, c) == mul(a, c) ^ mul(b, c)
    assert pw(a, e + f) == mul(pw(a, e), pw(a, f))
    assert pw(pw(a, e), f) == pw(a, e * f)
    assert pw(a, ctx.order) == a and pw(a ^ b, 2) == pw(a, 2) ^ pw(b, 2)
    if a:
        assert mul(a, pw(a, ctx.mult_order - 1)) == 1 and pw(a, 0) == 1
    # The parity trace against its definition, the XOR of the n Frobenius
    # images: tr(a) = parity(a & w), w the mask of the traces of the basis.
    frobenius = functools.reduce(operator.xor, (pw(a, 1 << i) for i in range(n)), 0)
    w = sum(t << i for i, t in enumerate(ctx._traces[:n]))
    assert frobenius in (0, 1) and bin(a & w).count("1") & 1 == frobenius


def test_field_import_stays_numpy_free():
    # pipebench draws its inputs with the field module alone, and each
    # benchmark worker's peak RSS includes that process's resident set;
    # importing the module and every scalar mul and pow must not import numpy.
    code = (
        "import sys\n"
        "from crooked.field import FieldCtx\n"
        "ctx = FieldCtx(13, 0x201B)\n"
        "assert all(ctx.mul(x, ctx.pow(x, 2**13 - 2)) == 1 for x in range(1, 2**13))\n"
        "sys.exit('numpy' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
