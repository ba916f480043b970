import random

import numpy as np
import pytest

from crooked import gf2mat, invariants, vbf
from crooked.errors import InfeasibleSize
from crooked.families import build_gold, search_params, build_thm1
from crooked.field import FieldCtx
from helpers import ea_transform, naive_rank, random_invertible, apply_linear


def test_rank_packed_vs_naive_rank():
    rng = random.Random(9)
    for cols in (10, 64, 70, 130):
        rows = [rng.randrange(1 << cols) for _ in range(40)]
        bools = np.array(
            [[(r >> j) & 1 for j in range(cols)] for r in rows], dtype=bool
        )
        packed = gf2mat.pack_rows(bools)
        assert gf2mat.rank_packed(packed, cols) == naive_rank(rows)


def test_gamma_delta_rank_vs_naive_n3():
    ctx = FieldCtx(3)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    pts = invariants.graph_points(f)
    rows = [sum(1 << (p ^ g) for p in pts.tolist()) for g in range(64)]
    assert invariants.gamma_rank(f) == naive_rank(rows)

    dpts = invariants.difference_points(f)
    assert dpts.tolist() == sorted(
        {(a << 3) | (f[x] ^ f[x ^ a]) for a in range(1, 8) for x in range(8)}
    )
    drows = [sum(1 << (p ^ g) for p in dpts.tolist()) for g in range(64)]
    assert invariants.delta_rank(f) == naive_rank(drows)


def test_rank_invariance_under_linear_permutations():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    rng = random.Random(17)
    cols = random_invertible(4, rng)
    # input-side linear permutation
    g_in = vbf.TruthTable(ctx, [f[apply_linear(cols, x)] for x in range(16)])
    # output-side linear permutation
    g_out = vbf.TruthTable(ctx, [apply_linear(cols, f[x]) for x in range(16)])
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
    # The depth is read off the records: ranks when they carry them.
    for depth in ("spectra", "spectra+ranks"):
        rep = invariants.compare(_invariants(f, depth), _invariants(f, depth))
        assert rep.depth == depth
        assert rep.verdict == "indistinguishable-by-computed-invariants"


def test_compare_distinguishes_cube_from_fifth():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    g = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)]))
    rep = invariants.compare(_invariants(f), _invariants(g))
    assert rep.verdict == "distinguished"
    assert rep.left.delta == 2 and rep.right.delta == 4


def test_compare_symmetry_and_mismatch():
    # The field mismatch is refused by `crooked invariants` before any
    # invariant is computed (tests/test_cli.py); compare sees records only.
    ctx = FieldCtx(4)
    f = _invariants(vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)])))
    g = _invariants(vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)])))
    assert invariants.compare(f, g).verdict == invariants.compare(g, f).verdict


def test_verdict_iff_some_invariant_differs():
    ctx = FieldCtx(6)
    p = search_params(ctx, "thm1", budget=1, seed=1)[0]
    f = vbf.from_multinomial(build_thm1(ctx, p))
    g = vbf.from_multinomial(build_gold(ctx, 1))
    depth = "spectra+ranks"
    rep = invariants.compare(_invariants(f, depth), _invariants(g, depth))
    differs = (
        rep.left.diff_spectrum != rep.right.diff_spectrum
        or rep.left.extended_walsh != rep.right.extended_walsh
        or rep.left.gamma_rank != rep.right.gamma_rank
        or rep.left.delta_rank != rep.right.delta_rank
    )
    assert (rep.verdict == "distinguished") == differs


def test_rank_ea_invariance_small():
    ctx = FieldCtx(4)
    f = vbf.from_multinomial(build_gold(ctx, 1))
    rng = random.Random(23)
    base_g, base_d = invariants.gamma_rank(f), invariants.delta_rank(f)
    for _ in range(4):
        g = ea_transform(f, rng)
        assert invariants.gamma_rank(g) == base_g
        assert invariants.delta_rank(g) == base_d
