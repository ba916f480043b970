"""The power-function path of the differential, Walsh and crooked sweeps
(one derivative, gcd(d, 2^n - 1) Walsh components) against the brute-force
oracles and against the sweeps of every direction and component."""

from collections import Counter
from math import gcd

import pytest
from hypothesis import given, seed, settings, strategies as st

from crooked import spectral, vbf
from crooked.field import FieldCtx
from helpers import (
    IRREDUCIBLES,
    crooked_form,
    exhaustive_sweeps,
    naive_crooked_report,
    naive_diff_spectrum,
    naive_walsh,
    quadratic_sweeps,
    sweeps,
)


def power_table(ctx, d):
    return vbf.TruthTable(ctx, [ctx.pow(x, d) for x in range(ctx.order)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_power_path_matches_naive_oracles(n):
    # Every d in [1, 2^n - 1]: gcd(d, 2^n - 1) > 1 where 2^n - 1 is not
    # prime, and d = 2^n - 1, which is 0 modulo the group order.
    ctx = FieldCtx(n)
    for d in range(1, ctx.order):
        f = power_table(ctx, d)
        assert vbf.power_exponent(f) == d
        delta, spectrum = naive_diff_spectrum(f)
        assert vbf.differential_spectrum(f) == (delta, spectrum)
        values = Counter(naive_walsh(f, a, omega)
                         for a in range(1, ctx.order) for omega in range(ctx.order))
        assert spectral.walsh_spectrum(f)["walsh_spectrum"] == values
        assert crooked_form(vbf.is_crooked(f)) == naive_crooked_report(f), d


@pytest.mark.parametrize("n", [8, 9, 10])
def test_power_path_matches_exhaustive_sweeps(n):
    ctx = FieldCtx(n)
    k = next(k for k in range(2, n) if gcd(k, n) == 1)
    exponents = {
        "gold s=1": 3,
        "gold s=3": 9,
        "kasami": (1 << 2 * k) - (1 << k) + 1,
        "inverse": ctx.order - 2,
        "welch": (1 << (n - 1) // 2) + 3,
    }
    for name, d in exponents.items():
        f = power_table(ctx, d)
        assert f.path == ("power", d), name
        loops = exhaustive_sweeps(f)
        assert sweeps(f) == loops, name
        # Gold functions are also quadratic; the power path goes first.
        assert vbf.has_degree_at_most_2(f) == name.startswith("gold"), name
        if name.startswith("gold"):
            assert quadratic_sweeps(f) == loops, name


def test_power_exponent_checks_every_entry():
    ctx = FieldCtx(6)
    base = [ctx.pow(x, 5) for x in range(ctx.order)]
    assert vbf.power_exponent(vbf.TruthTable(ctx, base)) == 5
    for x in range(ctx.order):  # x = 0 makes f(0) != 0
        edited = list(base)
        edited[x] ^= 1
        assert vbf.power_exponent(vbf.TruthTable(ctx, edited)) is None, x
    gamma = int(ctx.exp_array[1])
    edited = list(base)
    edited[gamma] = 0
    assert vbf.power_exponent(vbf.TruthTable(ctx, edited)) is None
    # GF(2): x = x^1 is its one power function, with gamma = 1.
    assert vbf.power_exponent(vbf.TruthTable(FieldCtx(1), [0, 1])) == 1
    assert vbf.power_exponent(vbf.TruthTable(FieldCtx(1), [0, 0])) is None
    assert vbf.power_exponent(vbf.TruthTable(FieldCtx(1), [1, 1])) is None


@seed(1)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_power_path_equals_exhaustive_path(data):
    n = data.draw(st.integers(2, 8), label="n")
    ctx = FieldCtx(n, data.draw(st.sampled_from(IRREDUCIBLES[n]), label="modulus"))
    d = data.draw(st.integers(1, ctx.mult_order), label="d")
    f = power_table(ctx, d)
    assert vbf.power_exponent(f) == d
    assert sweeps(f) == exhaustive_sweeps(f)
