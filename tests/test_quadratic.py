"""The quadratic path of the differential, Walsh and crooked sweeps (one
batched GF(2) rank per direction or component) against the brute-force
oracles and against the sweeps of every direction and component, and the
degree certificate that admits an input to it."""

import random
from collections import Counter
from functools import reduce
from math import gcd
from operator import or_, xor

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from crooked import gf2mat, spectral, vbf
from crooked.field import FieldCtx
from helpers import (
    IRREDUCIBLES,
    exhaustive_sweeps,
    frobenius_traces,
    naive_crooked_report,
    naive_diff_spectrum,
    naive_rank,
    naive_walsh,
    quadratic_sweeps,
    random_quadratic,
    sweeps,
)


def quadratic_table(ctx, const, linear, beta):
    """f(x) = const + sum_i x_i linear[i] + sum_{j < i} x_i x_j beta[i][j]."""
    values = []
    for x in range(ctx.order):
        y = const
        for i in range(ctx.n):
            if (x >> i) & 1:
                y ^= linear[i]
                for j in range(i):
                    if (x >> j) & 1:
                        y ^= beta[i][j]
        values.append(y)
    return vbf.TruthTable(ctx, values)


def naive_walsh_values(f):
    return Counter(naive_walsh(f, a, omega)
                   for a in range(1, f.ctx.order) for omega in range(f.ctx.order))


def naive_sweeps(f):
    return naive_diff_spectrum(f), naive_walsh_values(f), naive_crooked_report(f)


def test_batched_rank_and_normal_match_naive():
    rng = random.Random(5)
    for cols in range(1, 17):
        # cols + 1 vectors per system, each a random sum of a spanning set
        # of random size, so that every rank shows up.
        systems = []
        for _ in range(40):
            span = [rng.randrange(1 << cols) for _ in range(rng.randrange(cols + 1))]
            systems.append([reduce(xor, (b for b in span if rng.random() < 0.5), 0)
                            for _ in range(cols + 1)])
        vectors = np.array(systems, dtype=np.uint32).T.copy()  # (cols + 1, systems)
        rank, normal = gf2mat.rank_and_normal_batched(vectors, cols)
        for s, reduced, r, w in zip(systems, vectors.T.tolist(), rank.tolist(), normal.tolist()):
            assert r == naive_rank(s)
            # Reduced in place by row operations: the span is unchanged.
            assert naive_rank(s + reduced) == r
            # The nonzero normals are the orthogonal complement less 0, of
            # dimension cols - r: none at full rank, and only w at cols - 1.
            assert (w == 0) == (r == cols)
            assert w < 1 << cols
            assert all(bin(w & v).count("1") % 2 == 0 for v in s)
            # The exact normal, which the crooked witnesses' bytes rest on:
            # the only one at rank cols - 1, and at every rank the one whose
            # only bit outside the reduced rows' lowest bits is the lowest.
            if r == cols - 1 and cols <= 10:
                assert [u for u in range(1, 1 << cols)
                        if all(bin(u & v).count("1") % 2 == 0 for v in s)] == [w]
            free = ((1 << cols) - 1) & ~reduce(or_, (v & -v for v in reduced), 0)
            assert w & free == free & -free


@seed(3)
@settings(max_examples=40, deadline=None, database=None)
@given(st.data())
def test_span_table_matches_naive_xor(data):
    k = data.draw(st.integers(0, 10), label="k")
    shape = data.draw(st.sampled_from([(), (3,), (2, 3)]), label="shape")
    dtype = data.draw(st.sampled_from([np.uint8, np.uint32, np.uint64]), label="dtype")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="images"))
    images = rng.integers(0, np.iinfo(dtype).max, size=shape + (k,), dtype=dtype, endpoint=True)
    table = gf2mat.span_table(images)
    assert table.shape == shape + (1 << k,) and table.dtype == dtype
    for x in range(1 << k):
        want = np.zeros(shape, dtype=dtype)
        for j in range(k):
            if x >> j & 1:
                want ^= images[..., j]
        assert np.array_equal(table[..., x], want), x


def _naive_xor_over(t, sets):
    """[XOR of t[v] over the v in sets(u)] for every index u of t."""
    return [reduce(xor, (t[v] for v in sets(u)), 0) for u in range(len(t))]


def _subsets(u):
    v = u
    while True:  # every v contained in u, u itself first
        yield v
        if v == 0:
            return
        v = (v - 1) & u


@pytest.mark.parametrize("k", range(11))
def test_subset_sums_match_naive_xor(k):
    rng = np.random.default_rng(k)
    full = (1 << k) - 1
    for dtype in (np.uint32, bool):
        t = rng.integers(0, 2 if dtype is bool else 1 << 32, size=1 << k).astype(dtype)
        values = t.tolist()
        got = gf2mat.subset_sums(t.copy())
        assert got.dtype == t.dtype
        assert got.tolist() == _naive_xor_over(values, _subsets)
        # Its own inverse, in place.
        assert gf2mat.subset_sums(got) is got and np.array_equal(got, t)
        # Reversed, the XOR of t[w] over the w that contain u.
        supersets = gf2mat.subset_sums(t[::-1].copy())[::-1]
        assert supersets.tolist() == _naive_xor_over(values, lambda u: (u | v for v in _subsets(full ^ u)))


@pytest.mark.parametrize("n", range(1, 9))
def test_derivative_columns_match_their_definition(n):
    # Entry (j, a - 1) is f(a+e_j) + f(a) + f(e_j) + f(0).
    rng = random.Random(n)
    for modulus in (None, *IRREDUCIBLES.get(n, [])[-1:]):
        ctx = FieldCtx(n, modulus)
        f = vbf.from_multinomial(random_quadratic(ctx, rng))
        cols = vbf.derivative_columns(f)
        assert cols.shape == (n, ctx.order - 1) and cols.dtype == np.uint32
        v = f.values.tolist()
        for j in range(n):
            e = 1 << j
            assert cols[j].tolist() == [v[a ^ e] ^ v[a] ^ v[e] ^ v[0] for a in range(1, ctx.order)], j


@pytest.mark.parametrize("n, modulus", [(n, None) for n in range(1, 9)]
                         + [(n, IRREDUCIBLES[n][-1]) for n in range(3, 9)])
def test_symplectic_rows_match_brute_force(n, modulus):
    # Bit j of entry (i, a - 1) is tr(a*beta_ij) off the diagonal and 0 on it.
    ctx = FieldCtx(n, modulus)
    rng = random.Random(n)
    f = quadratic_table(ctx, rng.randrange(ctx.order), [rng.randrange(ctx.order) for _ in range(n)],
                        [[rng.randrange(ctx.order) for _ in range(i)] for i in range(n)])
    rows = spectral.symplectic_rows(f)
    assert rows.shape == (n, ctx.order - 1) and rows.dtype == np.uint32
    tr, v = frobenius_traces(ctx), f.values.tolist()
    for i in range(n):
        for j in range(n):
            beta = v[(1 << i) | (1 << j)] ^ v[1 << i] ^ v[1 << j] ^ v[0]
            want = [0 if i == j else tr[ctx.mul(a, beta)] for a in range(1, ctx.order)]
            assert ((rows[i] >> j) & 1).tolist() == want, (i, j)
    # The rows are a strided view of the span table; the elimination, which
    # reduces them in place, gives what it gives on a C-order copy.
    want = gf2mat.rank_and_normal_batched(rows.copy(), n)  # ndarray.copy is C-order
    got = gf2mat.rank_and_normal_batched(rows, n)
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


def test_every_table_at_n1_and_n2():
    # Every function on GF(2) and GF(4) has degree <= 2.
    for n in (1, 2):
        ctx = FieldCtx(n)
        for code in range(ctx.order ** ctx.order):
            f = vbf.TruthTable(ctx, [(code >> (n * x)) % ctx.order for x in range(ctx.order)])
            assert vbf.has_degree_at_most_2(f)
            loops = exhaustive_sweeps(f)
            assert quadratic_sweeps(f) == loops, code
            diff, walsh, report = loops
            assert (diff, walsh["walsh_spectrum"], report) == naive_sweeps(f), code


def test_single_entry_edit_fails_the_certificate():
    ctx = FieldCtx(6)
    rng = random.Random(6)
    base = quadratic_table(ctx, 1, [rng.randrange(64) for _ in range(6)],
                           [[rng.randrange(64) for _ in range(i)] for i in range(6)])
    assert base.path == ("quadratic", None)
    assert sweeps(base) == exhaustive_sweeps(base)
    for x in range(ctx.order):
        for change in range(1, ctx.order):
            edited = base.values.copy()
            edited[x] ^= change
            assert not vbf.has_degree_at_most_2(vbf.TruthTable(ctx, edited)), (x, change)
        edited = base.values.copy()
        edited[x] ^= x % (ctx.order - 1) + 1
        f = vbf.TruthTable(ctx, edited)
        assert f.path[0] != "quadratic", x
        assert sweeps(f) == exhaustive_sweeps(f), x


def test_degree_three_is_refused():
    ctx = FieldCtx(6)
    cube = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 7)]))
    assert not vbf.has_degree_at_most_2(cube)
    assert cube.path == ("power", 7)
    f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 7), (1, 1)]))
    assert f.path == ("exhaustive", None)
    gold = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    assert vbf.has_degree_at_most_2(gold) and gold.path == ("power", 3)


def test_affine_tables_take_the_quadratic_path():
    ctx = FieldCtx(5)
    tables = {
        "constant 0": [0] * ctx.order,
        "constant": [7] * ctx.order,
        "linear, not a power": [ctx.mul(x, x) ^ x for x in range(ctx.order)],
        "affine": [ctx.mul(9, x) ^ ctx.mul(x, x) ^ 3 for x in range(ctx.order)],
    }
    for name, values in tables.items():
        f = vbf.TruthTable(ctx, values)
        assert f.path == ("quadratic", None), name
        delta, _ = vbf.differential_spectrum(f)
        assert delta == ctx.order, name
        diff, walsh, report = exhaustive_sweeps(f)
        assert sweeps(f) == (diff, walsh, report), name
        assert (diff, walsh["walsh_spectrum"], report) == naive_sweeps(f), name


@seed(2)
@settings(max_examples=30, deadline=None, database=None)
@given(st.data())
def test_quadratic_path_equals_loops_and_oracles(data):
    n = data.draw(st.integers(1, 8), label="n")
    ctx = FieldCtx(1) if n == 1 else FieldCtx(
        n, data.draw(st.sampled_from(IRREDUCIBLES[n]), label="modulus"))
    element = st.integers(0, ctx.order - 1)
    if data.draw(st.booleans(), label="gold"):
        # x^(2^s+1) with gcd(s, n) = 1 is APN, so the witnesses are checked.
        s = data.draw(st.sampled_from([s for s in range(1, max(n, 2)) if gcd(s, n) == 1]), label="s")
        gold = [ctx.pow(x, (1 << s) + 1) for x in range(ctx.order)]
        beta = [[gold[(1 << i) | (1 << j)] ^ gold[1 << i] ^ gold[1 << j] for j in range(i)]
                for i in range(n)]
    else:
        beta = [data.draw(st.lists(element, min_size=i, max_size=i), label=f"beta[{i}]")
                for i in range(n)]
    linear = data.draw(st.lists(element, min_size=n, max_size=n), label="linear")
    const = data.draw(st.integers(1, ctx.order - 1), label="f(0)")  # f(0) != 0: no power
    f = quadratic_table(ctx, const, linear, beta)
    assert f.path == ("quadratic", None)
    got = sweeps(f)
    assert got == exhaustive_sweeps(f)
    diff, walsh, report = got
    assert diff == naive_diff_spectrum(f)
    assert report == naive_crooked_report(f)
    if n <= 5:  # the double sum costs 2^(3n) trace evaluations
        assert walsh["walsh_spectrum"] == naive_walsh_values(f)
