import random

import numpy as np
import pytest

from crooked import gf2mat, invariants, vbf
from crooked.errors import InfeasibleSize
from crooked.families import build_gold, search_params, build
from crooked.field import FieldCtx
from helpers import ea_transform, naive_rank, random_invertible, apply_linear, ring_shifts


def _pack_u64(bools):
    """A (R, C) boolean matrix as (R, ceil(C / 64)) little-endian uint64 words."""
    packed = np.packbits(bools, axis=1, bitorder="little")
    return np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8))).view(np.uint64)


def _rank_cases(rng, cols):
    """(rows, expected rank or None) for fewer and for more rows than cols."""
    for nrows in (max(1, cols // 2), cols + 7):
        yield [rng.randrange(1 << cols) for _ in range(nrows)], None
        yield [0] * nrows, 0
        yield [rng.randrange(1, 1 << cols)] * nrows, 1
        # Distinct lowest set bits make the first min(nrows, cols) rows
        # independent.
        full = [
            (1 << i) | (rng.randrange(1 << cols) >> (i + 1) << (i + 1))
            for i in range(min(nrows, cols))
        ]
        full += [rng.randrange(1 << cols) for _ in range(nrows - len(full))]
        rng.shuffle(full)
        yield full, min(nrows, cols)
        # Sums of a few rows: the low-rank regime of a Delta-rank.
        base = [rng.randrange(1 << cols) for _ in range(3)]
        low = []
        for _ in range(nrows):
            r = 0
            for b in base:
                if rng.randrange(2):
                    r ^= b
            low.append(r)
        yield low, None
        # Staircases, as in the development matrices: row i is zero left of
        # column i, so the early words reach few rows. Dense above the
        # diagonal, and sparse with a zero diagonal.
        yield [rng.randrange(1 << cols) >> i << i for i in range(nrows)], None
        yield [(1 << rng.randrange(i, cols)) | (1 << rng.randrange(i, cols)) if i < cols else 0
               for i in range(1, nrows + 1)], None
        # A column block of 64 that no row touches, ending at a word
        # boundary: the middle word, or the only one.
        words = -(-cols // 64)
        gap = ((1 << 64) - 1) << (64 * (words // 2))
        yield [rng.randrange(1 << cols) & ~gap for _ in range(nrows)], None
        # The top rows miss the first 64 columns, so those columns' pivots
        # lie below them, across the first word boundary.
        top = nrows // 2
        yield ([rng.randrange(1 << cols) >> 64 << 64 for _ in range(top)]
               + [rng.randrange(1 << cols) for _ in range(nrows - top)]), None


def _packed(rows, cols, width):
    """The rows as uint64 words and as the uint8 bytes that the window
    probes of `development_rank` pass, each padded to whole ring elements
    of `width` bits."""
    bools = np.array([[(r >> j) & 1 for j in range(cols)] for r in rows], dtype=bool)
    for packed in (_pack_u64(bools), np.packbits(bools, axis=1, bitorder="little")):
        per = max(1, width // (8 * packed.itemsize))  # words per element
        yield np.pad(packed, ((0, 0), (0, -packed.shape[1] % per)))


def test_rank_packed_vs_naive_rank():
    # The dimension of the submodule the rows generate, as ring rows of
    # width 1 (the plain F_2 rank), 4, 64 and 256 (four words per element,
    # on fewer shapes: each row has 256 shifts).
    rng = random.Random(9)
    shapes = (1, 10, 63, 64, 65, 70, 127, 128, 130, 200)
    for width in (1, 4, 64, 256):
        for cols in shapes if width < 256 else (1, 10, 63, 65, 200):
            for rows, expected in _rank_cases(rng, cols):
                # The sparse shifts of high popcount first, which is faster.
                module = naive_rank(ring_shifts(rows, width)[::-1])
                if width == 1:
                    assert module == naive_rank(rows)
                    assert expected is None or module == expected, (cols, len(rows))
                for packed in _packed(rows, cols, width):
                    rank = gf2mat.rank_packed(packed, width)
                    assert rank == module, (width, cols, len(rows), packed.dtype)


@pytest.mark.parametrize("width", [1 << k for k in range(7)])
def test_shift_masks_match_their_definition(width):
    # Bit v of M_b is set exactly when v & b = 0.
    masks = gf2mat.shift_masks(width)
    assert len(masks) == width
    for b, mask in enumerate(masks):
        assert mask == sum(1 << v for v in range(width) if v & b == 0), b


def _point_sets(rng):
    """(two_n, points): random sets of several sizes, then structured ones."""
    # 2n = 2 and 4 give matrices narrower than one word; 2n = 8 has four
    # words per row, so the rows g >= 64 come from the word permutation; at
    # 2n = 8 and 10 the ring elimination runs on a 4- and 16-square matrix.
    for two_n in (2, 4, 6, 8, 10):
        size = 1 << two_n
        for npoints in (0, 1, 3, size // 4, size // 2 + 1, size):
            if two_n < 10 or npoints in (0, 3, size // 4):
                yield two_n, rng.sample(range(size), npoints)
    # A subgroup and one of its cosets, whose superset counts t are sparse.
    for two_n, dim in ((4, 2), (6, 3), (8, 5), (10, 4)):
        group = {0}
        while len(group) < 1 << dim:
            b = rng.randrange(1 << two_n)
            if b not in group:
                group |= {g ^ b for g in group}
        shift = rng.choice([g for g in range(1 << two_n) if g not in group])
        yield two_n, sorted(group)
        yield two_n, sorted(g ^ shift for g in group)
    # The graph and the difference set of a random function.
    for n in (3, 4, 5):
        f = [rng.randrange(1 << n) for _ in range(1 << n)]
        yield 2 * n, [(x << n) | f[x] for x in range(1 << n)]
        yield 2 * n, sorted(
            {(a << n) | (f[x] ^ f[x ^ a]) for a in range(1, 1 << n) for x in range(1 << n)}
        )
    yield from _unit_cases(rng)


def _unit_cases(rng):
    """Sets at 2n = 10 for each regime of the ring elimination."""
    # No unit: invariant under the translations by e_0 and e_5, one of which
    # lies in every cyclic window of 6 coordinates, so every projection off
    # a window has even multiplicities.
    base = rng.sample(range(1 << 10), 40)
    yield 10, sorted({b ^ g for b in base for g in (0, 1, 32, 33)})
    # One unit, in the corner: the graph of a permutation of 4 bits with its
    # outputs padded to the 6 ring coordinates; the projection off them is
    # every input once, whose development matrix is one bit in its corner.
    yield 10, [(x << 6) | x for x in range(16)]
    # The most units there are, half of the 16 rows: any s in the maximal
    # ideal has s^2 = 0, so its image lies in its kernel.
    f = [rng.randrange(1 << 5) for _ in range(1 << 5)]
    yield 10, [(x << 5) | f[x] for x in range(1 << 5)]


def _record_units(monkeypatch):
    """The number of unit pivots of every `development_rank` call."""
    units = []

    def recorded(N, original=invariants._unit_pivots):
        units.append(original(N))
        return units[-1]

    monkeypatch.setattr(invariants, "_unit_pivots", recorded)
    return units


def test_development_rank_vs_naive(monkeypatch):
    units = _record_units(monkeypatch)
    for two_n, pts in _point_sets(random.Random(31)):
        rows = [sum(1 << (p ^ g) for p in pts) for g in range(1 << two_n)]
        rank = invariants.development_rank(two_n, np.array(pts, dtype=np.uint32))
        assert rank == naive_rank(rows), (two_n, pts)
    # The last sets are _unit_cases': no unit, the corner unit, the most units.
    assert units[-3:] == [0, 1, 8]


def test_development_rank_is_full_exactly_at_odd_size(monkeypatch):
    # F_2[Z_2^k] is local, so a point set is a unit (full rank) exactly when
    # its size is odd; at odd size no elimination runs.
    rng = random.Random(5)
    for two_n in (2, 4, 6):
        size = 1 << two_n
        for npoints in rng.sample(range(1, size + 1), min(size, 12)):
            pts = rng.sample(range(size), npoints)
            rows = [sum(1 << (p ^ g) for p in pts) for g in range(size)]
            assert (naive_rank(rows) == size) == (npoints % 2 == 1), (two_n, npoints)

    def no_elimination(a, width):
        raise AssertionError("an odd-size set was eliminated")

    monkeypatch.setattr(gf2mat, "rank_packed", no_elimination)
    odd = np.array(rng.sample(range(1 << 12), 1953), dtype=np.uint32)
    assert invariants.development_rank(12, odd) == 1 << 12


def test_gamma_delta_rank_vs_naive_n3():
    ctx = FieldCtx(3)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    pts = invariants.graph_points(f)
    rows = [sum(1 << (p ^ g) for p in pts.tolist()) for g in range(64)]
    assert invariants.gamma_rank(f) == naive_rank(rows)

    dpts, v = invariants.difference_points(f), f.values.tolist()
    assert dpts.tolist() == sorted(
        {(a << 3) | (v[x] ^ v[x ^ a]) for a in range(1, 8) for x in range(8)}
    )
    drows = [sum(1 << (p ^ g) for p in dpts.tolist()) for g in range(64)]
    assert invariants.delta_rank(f) == naive_rank(drows)


def test_ranks_n6_pinned():
    ctx = FieldCtx(6)
    gold = vbf.from_multinomial(build_gold(ctx, 1))
    inverse = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 62)]))
    assert (invariants.gamma_rank(gold), invariants.delta_rank(gold)) == (1102, 94)
    assert (invariants.gamma_rank(inverse), invariants.delta_rank(inverse)) == (2016, 4096)


def _superset_counts(two_n, points):
    """t[u] = #{p in points : p contains u} mod 2, one coordinate at a time."""
    size = 1 << two_n
    t = np.zeros(size, dtype=bool)
    t[points] = True
    for i in range(two_n):
        u = np.arange(size)
        lacks = (u >> i) & 1 == 0
        t[u[lacks]] ^= t[u[lacks] | (1 << i)]
    return t


def _full_expansion_rank(two_n, points):
    """`naive_rank` of the whole 2^(2n)-square matrix in the monomial basis,
    with no ring elimination: row 64 h + l is row l with its words permuted
    by j -> j ^ h and zeroed outside the words j containing h. The matrix
    is upper triangular, so its rows are fed bottom row first, where they
    are sparse; the rank does not depend on the order."""
    size = 1 << two_n
    t = _superset_counts(two_n, points)
    bits = np.arange(64)
    rows = t.reshape(-1, 64)[:, bits ^ bits[:, None]] & ((bits & bits[:, None]) == bits[:, None])
    packed = _pack_u64(rows.transpose(1, 0, 2).reshape(64, size))
    j = np.arange(size // 64)
    h = j[:, None]
    matrix = packed[bits[None, :, None], (j ^ h)[:, None, :]]
    matrix *= ((j & h) == h)[:, None, :]
    rows = matrix.reshape(size, size // 64)[::-1]
    return naive_rank([int.from_bytes(row.tobytes(), "little") for row in rows])


def _rank_inputs():
    """(label, function, its Gamma units at least): the rank-invariants
    inputs at n = 6, and Gold and the inverse at n = 7."""
    ctx = FieldCtx(6)
    for family in ("thm1", "thm2"):
        yield family, vbf.from_multinomial(build(ctx, search_params(ctx, family, 1, 1)[0])), 14
    for n in (6, 7):
        ctx = FieldCtx(n)
        yield f"gold n={n}", vbf.from_multinomial(build_gold(ctx, 1)), 14
        yield f"inverse n={n}", vbf.from_multinomial(vbf.multinomial(ctx, [(1, (1 << n) - 2)])), 28


def test_unit_stage_matches_the_full_expansion(monkeypatch):
    # 64 per unit pivot plus the rank of the expanded Schur complement is the
    # rank of the whole F_2 matrix, on every matrix the benchmark ranks and
    # on Gold and the inverse at n = 7.
    units = _record_units(monkeypatch)
    for label, f, gamma_units in _rank_inputs():
        two_n = 2 * f.ctx.n
        graph, difference = invariants.graph_points(f), invariants.difference_points(f)
        for points in (graph, difference):
            units.clear()
            rank = invariants.development_rank(two_n, points)
            assert rank == _full_expansion_rank(two_n, points), label
            # An odd-size set (the inverse's Delta at n = 6) is not eliminated.
            assert len(units) == 1 - points.size % 2, label
            if points is graph:
                assert units[0] >= gamma_units, label


def test_unit_pivots_take_the_cheapest_unit_first():
    # Markowitz order. Row 0 holds two units, and the one at (0, 1), whose
    # column is otherwise empty, is eliminated without touching another row.
    # Taking (0, 0) first, as row order would, fills rows 1 and 2 in with
    # y_0 * y_1 = 8 and y_2 * y_1 = 64. The order changes speed, never the
    # rank, so only the Schur complement left in N shows it.
    N = np.array([[1, 1, 4, 0], [2, 0, 16, 0], [16, 0, 0, 2], [0, 0, 0, 0]], dtype=np.uint64)
    schur = N.copy()
    schur[0] = 0
    assert invariants._unit_pivots(N) == 1
    assert np.array_equal(N, schur)


def test_ranks_n7_pinned():
    ctx = FieldCtx(7)
    gold = vbf.from_multinomial(build_gold(ctx, 1))
    inverse = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 126)]))
    assert (invariants.gamma_rank(gold), invariants.delta_rank(gold)) == (3610, 198)
    assert (invariants.gamma_rank(inverse), invariants.delta_rank(inverse)) == (8128, 4928)


def test_rank_invariance_under_linear_permutations():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    rng = random.Random(17)
    cols = random_invertible(4, rng)
    # input-side linear permutation
    v = f.values.tolist()
    g_in = vbf.TruthTable(ctx, [v[apply_linear(cols, x)] for x in range(16)])
    # output-side linear permutation
    g_out = vbf.TruthTable(ctx, [apply_linear(cols, v[x]) for x in range(16)])
    for g in (g_in, g_out):
        assert invariants.gamma_rank(g) == invariants.gamma_rank(f)
        assert invariants.delta_rank(g) == invariants.delta_rank(f)


def test_rank_infeasible_cutoff():
    ctx = FieldCtx(8)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    with pytest.raises(InfeasibleSize):
        invariants.gamma_rank(f)
    with pytest.raises(InfeasibleSize):
        invariants.delta_rank(f)


def _invariants(f, depth="spectra"):
    return invariants.function_invariants(f, depth == "spectra+ranks")


def test_compare_self_indistinguishable():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    # The dicts are in report order, and carry the ranks at depth ranks.
    spectra = ["delta", "diff_spectrum", "extended_walsh", "nl"]
    for depth, keys in (("spectra", spectra), ("spectra+ranks", spectra + ["gamma_rank", "delta_rank"])):
        left = _invariants(f, depth)
        assert list(left) == keys
        assert invariants.compare(left, _invariants(f, depth)) == "indistinguishable-by-computed-invariants"


def test_compare_distinguishes_cube_from_fifth():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    g = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)]))
    left, right = _invariants(f), _invariants(g)
    assert invariants.compare(left, right) == "distinguished"
    assert left["delta"] == 2 and right["delta"] == 4


def test_compare_symmetry_and_mismatch():
    # The field mismatch is refused by `crooked invariants` before any
    # invariant is computed (tests/test_cli.py); compare sees dicts only.
    ctx = FieldCtx(4)
    f = _invariants(vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)])))
    g = _invariants(vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)])))
    assert invariants.compare(f, g) == invariants.compare(g, f)


def test_verdict_iff_some_invariant_differs():
    ctx = FieldCtx(6)
    p = search_params(ctx, "thm1", budget=1, seed=1)[0]
    f = vbf.from_multinomial(build(ctx, p))
    g = vbf.from_multinomial(build_gold(ctx, 1))
    depth = "spectra+ranks"
    left, right = _invariants(f, depth), _invariants(g, depth)
    differs = (
        left["diff_spectrum"] != right["diff_spectrum"]
        or left["extended_walsh"] != right["extended_walsh"]
        or left["gamma_rank"] != right["gamma_rank"]
        or left["delta_rank"] != right["delta_rank"]
    )
    assert (invariants.compare(left, right) == "distinguished") == differs


def test_rank_ea_invariance_small():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    rng = random.Random(23)
    base_g, base_d = invariants.gamma_rank(f), invariants.delta_rank(f)
    for _ in range(4):
        g = ea_transform(f, rng)
        assert invariants.gamma_rank(g) == base_g
        assert invariants.delta_rank(g) == base_d


def test_window_probes_count_the_units(monkeypatch):
    # The probe of the window rotated right by k, the rank of the one ring
    # element c[u] = t[rotl(64 u, k)], is the F_2 rank of N's constant bits
    # on that window, and the unit stage finds the most any window offers.
    units = _record_units(monkeypatch)
    calls = []

    def recorded(a, width, original=gf2mat.rank_packed):
        calls.append((a.shape[0], width, original(a, width)))
        return calls[-1][-1]

    monkeypatch.setattr(gf2mat, "rank_packed", recorded)
    sets = [(two_n, np.array(pts, dtype=np.uint32))
            for two_n, pts in _point_sets(random.Random(31)) if two_n >= 8]
    sets += [(2 * f.ctx.n, points) for _, f, _ in _rank_inputs()
             for points in (invariants.graph_points(f), invariants.difference_points(f))]
    for two_n, points in sets:
        calls.clear()
        invariants.development_rank(two_n, points)
        if points.size % 2:
            assert not calls
            continue
        size, m = 1 << two_n, 1 << (two_n - 6)
        t = _superset_counts(two_n, points)
        v = np.arange(m)
        constant_ranks = []
        for k in range(two_n):
            c = t[((v << 6 << k) | (v << 6 >> (two_n - k))) & (size - 1)]
            matrix = c[v[:, None] ^ v] & ((v[:, None] & v) == v[:, None])
            packed = np.packbits(matrix, axis=1, bitorder="little")
            constant_ranks.append(naive_rank([int.from_bytes(row.tobytes(), "little") for row in packed]))
        assert [(rows, width) for rows, width, _ in calls[:two_n]] == [(1, m)] * two_n
        assert [rank for _, _, rank in calls[:two_n]] == constant_ranks, two_n
        assert units[-1] == max(constant_ranks), two_n
