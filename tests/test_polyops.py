"""The linearized polynomial sum_{k in K} y^(2^k) over GF(2^n): bijectivity
against its kernel, found by enumeration."""

from itertools import combinations

import numpy as np
import pytest

from crooked.families import linearized_is_bijective
from crooked.field import FieldCtx
from crooked.vbf import evaluate


def test_linearized_trivial_cases():
    ctx = FieldCtx(6)
    assert linearized_is_bijective(ctx, (0,))  # identity
    assert linearized_is_bijective(ctx, (1,))  # Frobenius
    # A repeated k cancels: y^2 + y^2 = 0.
    assert not linearized_is_bijective(ctx, (2, 2))
    assert linearized_is_bijective(ctx, (0, 1, 1))
    for n in (2, 4, 6):
        c = FieldCtx(n)
        assert not linearized_is_bijective(c, (0, 1))  # kernel F_2


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10, 12])
def test_linearized_matches_kernel_enumeration(n):
    ctx = FieldCtx(n)
    # Every non-empty K up to n = 6; the K of size 1 and 2 above.
    sizes = range(1, n + 1) if n <= 6 else (1, 2)
    subsets = [K for size in sizes for K in combinations(range(n), size)]
    ys = np.arange(ctx.order)
    for K in subsets:
        # L_K at every y at once, through the field's log/antilog tables.
        kernel = np.flatnonzero(evaluate(ctx, [(1, 1 << k) for k in K], ys) == 0)
        assert linearized_is_bijective(ctx, K) == (kernel.tolist() == [0])
