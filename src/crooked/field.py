"""Arithmetic in GF(2^n), 1 <= n <= 24, polynomial basis.

Elements are plain ints: bit i is the coefficient of x^i in the basis
polynomial, addition is XOR. A :class:`FieldCtx` pins the degree and the
irreducible modulus; every operation is a pure method on the context, so a
context can be shared freely across workers.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, repeat
from math import gcd
from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import InvalidModulus, InvalidSubfield, NotAUnit, UndefinedPower, UnsupportedDegree

if TYPE_CHECKING:
    import numpy as np

MAX_DEGREE = 24
_TABLE_DEGREE = 16  # log/antilog tables kept up to this degree


def _f2_mul(a: int, b: int) -> int:
    # Carry-less product of two F_2[x] polynomials given as bitmasks.
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _f2_mod(a: int, m: int) -> int:
    dm = m.bit_length() - 1
    while a.bit_length() - 1 >= dm and a:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def f2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two F_2[x] polynomials given as bitmasks."""
    while b:
        a, b = b, _f2_mod(a, b)
    return a


def _f2_powmod_x(e: int, m: int) -> int:
    # x^e mod m over F_2, square and multiply.
    r = 1
    base = _f2_mod(0b10, m)
    while e:
        if e & 1:
            r = _f2_mod(_f2_mul(r, base), m)
        base = _f2_mod(_f2_mul(base, base), m)
        e >>= 1
    return r


def _f2_is_irreducible(p: int) -> bool:
    """Rabin test for a polynomial over F_2 given as a bitmask."""
    d = p.bit_length() - 1
    if d < 1:
        return False
    if d == 1:
        return True
    if not p & 1:  # x divides p
        return False
    if _f2_powmod_x(1 << d, p) != _f2_mod(0b10, p):
        return False
    for r in {f for f, _ in trial_factor(d)}:
        h = _f2_powmod_x(1 << (d // r), p) ^ 0b10
        if f2_gcd(p, h).bit_length() - 1 != 0:
            return False
    return True


def trial_factor(x: int) -> List[Tuple[int, int]]:
    """Prime factorization of x >= 1 by trial division, as (prime, mult)."""
    facts = []
    p = 2
    while p * p <= x:
        if x % p == 0:
            e = 0
            while x % p == 0:
                x //= p
                e += 1
            facts.append((p, e))
        p += 1 if p == 2 else 2
    if x > 1:
        facts.append((x, 1))
    return facts


def smallest_irreducible(n: int) -> int:
    """The degree-n irreducible over F_2 with the numerically smallest bitmask."""
    if n == 1:
        return 0b10  # x
    for p in range((1 << n) | 1, 1 << (n + 1), 2):
        if _f2_is_irreducible(p):
            return p
    raise InvalidModulus(f"no irreducible polynomial of degree {n}")  # unreachable


class FieldCtx:
    """Immutable description of GF(2^n); its log/antilog tables are built on
    first use.

    Parameters
    ----------
    n : extension degree, 1 <= n <= 24.
    modulus : optional bitmask of an irreducible degree-n polynomial; when
        omitted the numerically smallest irreducible is used.
    """

    def __init__(self, n: int, modulus: Optional[int] = None):
        if not 1 <= n <= MAX_DEGREE:
            raise UnsupportedDegree(f"n={n} outside [1, {MAX_DEGREE}]")
        if modulus is None:
            modulus = smallest_irreducible(n)
        else:
            if modulus.bit_length() - 1 != n:
                raise InvalidModulus(f"modulus degree {modulus.bit_length() - 1} != n={n}")
            if not _f2_is_irreducible(modulus):
                raise InvalidModulus(f"modulus {modulus:#x} is reducible over F_2")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self.mult_order = (1 << n) - 1
        self.order_facts = trial_factor(self.mult_order)

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#x})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and (self.n, self.modulus) == (other.n, other.modulus)

    def __hash__(self):
        return hash((self.n, self.modulus))

    # -- raw arithmetic (table-free) -------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        return _f2_mod(_f2_mul(a, b), self.modulus)

    def _raw_pow(self, a: int, e: int) -> int:
        r = 1
        base = a
        while e:
            if e & 1:
                r = self._raw_mul(r, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return r

    @cached_property
    def _tables(self) -> Optional[Tuple[List[int], List[int]]]:
        """(log, exp): exp[i] = gamma^i for 0 <= i < 2(2^n - 1), doubled so
        that a sum of two logs needs no reduction, and log[exp[i]] = i for
        i < 2^n - 1 (log[0] = 0); gamma is `_find_generator`'s. None where
        the field keeps no tables (n = 1 or n > 16). Built on first use.

        v -> v*gamma is F_2-linear, so it is the XOR of one lookup per byte
        of v, in 256-entry tables spanned by the images of that byte's
        basis vectors."""
        n = self.n
        if not 2 <= n <= _TABLE_DEGREE:
            return None
        g = self._find_generator()
        low, high = [0], [0]
        for i in range(n):
            table = low if i < 8 else high
            image = self._raw_mul(1 << i, g)
            table += [v ^ image for v in table]

        def times_gamma(v: int, _) -> int:
            return low[v & 255] ^ high[v >> 8]

        exp = list(accumulate(repeat(None, self.mult_order - 1), times_gamma, initial=1))
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        return log, exp + exp

    def _find_generator(self) -> int:
        cofactors = [self.mult_order // p for p, _ in self.order_facts]
        for g in range(2, self.order):
            if all(self._raw_pow(g, c) != 1 for c in cofactors):
                return g
        raise AssertionError("no generator found")  # pragma: no cover

    # -- public operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        tables = self._tables
        if tables is None:
            return self._raw_mul(a, b)
        if a == 0 or b == 0:
            return 0
        log, exp = tables
        return exp[log[a] + log[b]]

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0; 0^0 raises UndefinedPower."""
        if a == 0:
            if e == 0:
                raise UndefinedPower("0^0 is undefined")
            return 0
        tables = self._tables
        if tables is not None:
            log, exp = tables
            return exp[log[a] * e % self.mult_order]
        return self._raw_pow(a, e % self.mult_order)

    def trace(self, a: int) -> int:
        """Absolute trace to F_2: XOR of the n Frobenius images."""
        acc = a
        v = a
        for _ in range(self.n - 1):
            v = self.mul(v, v)
            acc ^= v
        return acc

    def in_subfield(self, a: int, m: int) -> bool:
        """True iff a lies in the subfield F_{2^m}; m must divide n."""
        if m < 1 or self.n % m:
            raise InvalidSubfield(f"m={m} does not divide n={self.n}")
        if a == 0:
            return True
        return self.pow(a, 1 << m) == a

    def is_eth_power(self, d: int, e: int) -> bool:
        """True iff d = u^e for some nonzero u; requires d != 0."""
        if d == 0:
            raise NotAUnit("d = 0; the caller decides the zero case")
        g = gcd(e, self.mult_order)
        if g == 1:
            return True
        return self.pow(d, self.mult_order // g) == 1

    def is_primitive(self, a: int) -> bool:
        if a == 0:
            raise NotAUnit("0 is not a unit")
        return all(self.pow(a, self.mult_order // p) != 1 for p, _ in self.order_facts)

    @cached_property
    def trace_masks(self) -> np.ndarray:
        """masks[a] = the bitmask w with parity(w & y) = trace(a*y) for every y.

        Bit i of masks[x^j] is trace(x^(i+j)); masks is linear in a, so the
        rest of the table is XORs of those n basis masks. Built on first use.
        """
        # Imported here so that importing this module alone stays numpy-free:
        # pipebench draws its inputs with it, and each benchmark worker's
        # peak RSS includes that parent process's resident set.
        import numpy as np

        n = self.n
        traces = []  # traces[k] = trace(x^k)
        v = 1
        for _ in range(2 * n - 1):
            traces.append(self.trace(v))
            v = self.mul(v, 2)
        masks = np.zeros(self.order, dtype=np.uint32)
        for j in range(n):
            basis = sum(traces[i + j] << i for i in range(n))
            masks[1 << j : 2 << j] = masks[: 1 << j] ^ np.uint32(basis)
        return masks

    @cached_property
    def log_array(self) -> Optional[np.ndarray]:
        """log_array[x] = the i with exp_array[i] = x, for x != 0 (entry 0
        is 0), as uint16; None where the field keeps no tables (n = 1 or
        n > 16). Built on first use from the log table."""
        import numpy as np

        tables = self._tables
        return None if tables is None else np.array(tables[0], dtype=np.uint16)

    @cached_property
    def exp_array(self) -> Optional[np.ndarray]:
        """exp_array[i] = gamma^i for 0 <= i < 2^n - 1, gamma the generator
        the tables use, as uint16; None where the field keeps no tables.
        Built on first use from the antilog table."""
        import numpy as np

        tables = self._tables
        return None if tables is None else np.array(tables[1][: self.mult_order], dtype=np.uint16)

    @cached_property
    def trace_masks_inverse(self) -> np.ndarray:
        """inverse[w] = the a with trace_masks[a] = w. trace_masks is a
        permutation, as the trace form is nondegenerate, so argsort inverts it."""
        return self.trace_masks.argsort().astype(self.trace_masks.dtype)

