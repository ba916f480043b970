"""The linearized polynomial sum_{k in K} y^(2^k) over GF(2^n): bijectivity
against its kernel, found by enumeration."""

import pytest

from crooked.families import linearized_is_bijective
from crooked.field import field_create


def test_linearized_trivial_cases():
    ctx = field_create(6)
    assert linearized_is_bijective(ctx, (0,))  # identity
    assert linearized_is_bijective(ctx, (1,))  # Frobenius
    for n in (2, 4, 6):
        c = field_create(n)
        assert not linearized_is_bijective(c, (0, 1))  # kernel F_2


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 10, 12])
def test_linearized_matches_kernel_enumeration(n):
    ctx = field_create(n)
    subsets = [(k,) for k in range(n)] + [
        (a, b) for a in range(n) for b in range(a + 1, n)
    ]
    def image(y, K):
        acc = 0
        for k in K:
            acc ^= ctx.pow(y, 1 << k) if y else 0
        return acc

    for K in subsets:
        kernel = [y for y in range(ctx.order) if image(y, K) == 0]
        assert linearized_is_bijective(ctx, K) == (kernel == [0])
