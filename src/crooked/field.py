"""Arithmetic in GF(2^n), 1 <= n <= 24, polynomial basis.

Elements are plain ints: bit i is the coefficient of x^i in the basis
polynomial, addition is XOR. A :class:`FieldCtx` pins the degree and the
irreducible modulus; every operation is a pure method on the context, so a
context can be shared freely across workers. Scalar operations use no
tables and no numpy; vectorised code reads the context's one numpy
log/antilog pair, built on first use at every degree.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from math import gcd, prod
from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import InvalidInput, InvalidModulus

if TYPE_CHECKING:
    import numpy as np

MAX_DEGREE = 24


def _f2_mul(a: int, b: int) -> int:
    # Carry-less product of two F_2[x] polynomials given as bitmasks: one
    # shifted copy of a per set bit of b.
    r = 0
    while b:
        low = b & -b
        r ^= a * low
        b ^= low
    return r


def _f2_mod(a: int, m: int) -> int:
    dm = m.bit_length()
    shift = a.bit_length() - dm
    while shift >= 0:
        a ^= m << shift
        shift = a.bit_length() - dm
    return a


def f2_gcd(a: int, b: int) -> int:
    """Greatest common divisor of two F_2[x] polynomials given as bitmasks."""
    while b:
        a, b = b, _f2_mod(a, b)
    return a


def _f2_is_irreducible(p: int) -> bool:
    """Ben-Or's test for a polynomial over F_2 given as a bitmask. x^(2^i) - x
    is the product of the irreducibles of degree dividing i, so p of degree
    d >= 1 is irreducible iff gcd(p, x^(2^i) - x) = 1 for every 1 <= i <= d/2.
    One squaring and one gcd per i; it stops at the first shared factor."""
    d = p.bit_length() - 1
    if d < 1:
        return False
    h = 0b10  # x^(2^i) mod p, from i = 0
    for _ in range(d // 2):
        h = _f2_mod(_f2_mul(h, h), p)
        if f2_gcd(p, h ^ 0b10) != 1:
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
    return next(filter(_f2_is_irreducible, range(1 << n, 2 << n)))


class FieldCtx:
    """Immutable description of GF(2^n). Scalar arithmetic needs no tables;
    the numpy log/antilog pair `log_array`/`exp_array` that vectorised code
    reads is built on first use.

    Parameters
    ----------
    n : extension degree, 1 <= n <= 24.
    modulus : optional bitmask of an irreducible degree-n polynomial; when
        omitted the numerically smallest irreducible is used.
    """

    def __init__(self, n: int, modulus: Optional[int] = None):
        if not 1 <= n <= MAX_DEGREE:
            raise InvalidInput(f"n={n} outside [1, {MAX_DEGREE}]")
        if modulus is None:
            modulus = smallest_irreducible(n)
        else:
            if modulus < 0:  # the F_2[x] helpers never end on one
                raise InvalidModulus(f"modulus {modulus:#x} is negative")
            if modulus.bit_length() - 1 != n:
                raise InvalidModulus(f"modulus degree {modulus.bit_length() - 1} != n={n}")
            if not _f2_is_irreducible(modulus):
                raise InvalidModulus(f"modulus {modulus:#x} is reducible over F_2")
        self.n = n
        self.modulus = modulus
        self.order = 1 << n
        self.mult_order = (1 << n) - 1
        self.order_facts = trial_factor(self.mult_order)
        # phi(2^n - 1), the number of primitive elements.
        self.primitive_count = prod(p ** (e - 1) * (p - 1) for p, e in self.order_facts)
        self._primitives: List[int] = []  # the first ones, as far as `primitive` has scanned

    def __repr__(self):
        return f"FieldCtx(n={self.n}, modulus={self.modulus:#x})"

    # -- scalar operations ------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return _f2_mod(_f2_mul(a, b), self.modulus)

    def pow(self, a: int, e: int) -> int:
        """a^e with e >= 0 by square and multiply; 0^0 or a < 0 is InvalidInput."""
        if a < 0:  # _f2_mul never ends on a negative operand
            raise InvalidInput(f"{a:#x} outside GF(2^{self.n})")
        if a == 0:
            if e == 0:
                raise InvalidInput("0^0 is undefined")
            return 0
        e %= self.mult_order
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return r

    @cached_property
    def _traces(self) -> List[int]:
        """tr(x^k) for 0 <= k < 2n - 1. The conjugates of x are the roots of
        the modulus, so tr(x^k) is their k-th power sum s_k, which Newton's
        identities give from the modulus's coefficients e_i (the bits n - i)
        with no field product: s_0 = n, s_k = sum over 0 < i < k, i <= n of
        e_i s_(k-i), plus k e_k when k <= n, all mod 2. Computed on first use."""
        n = self.n
        e = [self.modulus >> (n - i) & 1 for i in range(n + 1)]
        s = [n & 1]
        for k in range(1, 2 * n - 1):
            t = k & e[k] & 1 if k <= n else 0
            for i in range(1, min(k, n + 1)):
                t ^= e[i] & s[k - i]
            s.append(t)
        return s

    def in_subfield(self, a: int, m: int) -> bool:
        """True iff a lies in the subfield F_{2^m}; m must divide n."""
        if m < 1 or self.n % m:
            raise InvalidInput(f"m={m} does not divide n={self.n}")
        if a == 0:
            return True
        return self.pow(a, 1 << m) == a

    def is_eth_power(self, d: int, e: int) -> bool:
        """True iff d = u^e for some nonzero u; requires d != 0."""
        if d == 0:
            raise InvalidInput("d = 0; the caller decides the zero case")
        g = gcd(e, self.mult_order)
        if g == 1:
            return True
        return self.pow(d, self.mult_order // g) == 1

    def is_primitive(self, a: int) -> bool:
        if a == 0:
            raise InvalidInput("0 is not a unit")
        return all(self.pow(a, self.mult_order // p) != 1 for p, _ in self.order_facts)

    def primitive(self, k: int) -> int:
        """The k-th primitive element by value, k taken mod
        `primitive_count`. Every caller reads one ascending scan, kept on
        the context: it tests each element once, and only up to the
        largest k asked for. From 1, not 2: 1 generates GF(2)'s unit group,
        and no larger one."""
        found = self._primitives
        k %= self.primitive_count
        if len(found) <= k:
            # Extended as a new list, so that a context shared by threads
            # never holds an element twice.
            rest = filter(self.is_primitive, range(found[-1] + 1 if found else 1, self.order))
            found = self._primitives = found + list(islice(rest, k + 1 - len(found)))
        return found[k]

    # -- tables for vectorised code -----------------------------------------
    # numpy and `gf2mat` are imported inside each builder, so that importing
    # this module and every scalar operation stay numpy-free: pipebench draws
    # its inputs with them, and each benchmark worker's peak RSS includes
    # that parent process's resident set.

    @cached_property
    def trace_masks(self) -> np.ndarray:
        """masks[a] = the bitmask w with parity(w & y) = trace(a*y) for every y.

        Bit i of masks[x^j] is trace(x^(i+j)); masks is linear in a, so
        `span_table` fills it from those n basis masks. Built on first use.
        """
        import numpy as np

        from .gf2mat import span_table

        n, traces = self.n, self._traces
        return span_table(np.array([sum(traces[i + j] << i for i in range(n)) for j in range(n)],
                                   dtype=np.uint32))

    @cached_property
    def log_array(self) -> np.ndarray:
        """log_array[x] = the i with exp_array[i] = x, for x != 0 (entry 0
        is 0), as uint32. Built on first use from exp_array."""
        import numpy as np

        log = np.zeros(self.order, dtype=np.uint32)
        log[self.exp_array] = np.arange(self.mult_order, dtype=np.uint32)
        return log

    @cached_property
    def exp_array(self) -> np.ndarray:
        """exp_array[i] = gamma^i for 0 <= i < 2^n - 1, gamma = `primitive(0)`
        the smallest generator, as uint32 (GF(2) has exp_array = [1]).

        Built on first use by doubling from exp[0] = 1: exp[k:2k] =
        exp[:k] * c with c = gamma^k. Times c is F_2-linear, so it is the XOR
        of one lookup per byte of its argument, in 256-entry tables spanned
        by c*x^i for that byte's bits i. The first tables, of times gamma,
        are spanned by gamma*x^i, each the last one times x: a shift, less
        the modulus when it reaches degree n. Times c applied to the tables'
        own entries gives the tables of c^2.
        """
        import numpy as np

        from .gf2mat import span_table

        def times(tables, v):
            out = tables[0][v & 255]
            for byte in range(1, len(tables)):
                out ^= tables[byte][(v >> 8 * byte) & 255]
            return out

        images, v = [], self.primitive(0)
        for _ in range(self.n):
            images.append(v)
            v <<= 1
            if v >> self.n:
                v ^= self.modulus
        # Row j of the byte tables spans gamma*x^(8j), ..., gamma*x^(8j+7).
        tables = span_table(np.array(images + [0] * (-self.n % 8), dtype=np.uint32).reshape(-1, 8))
        exp = np.empty(self.mult_order, dtype=np.uint32)
        exp[0], k = 1, 1
        while k < self.mult_order:
            head = exp[: min(k, self.mult_order - k)]
            exp[k : k + head.size] = times(tables, head)
            tables, k = times(tables, tables), 2 * k
        return exp

    @cached_property
    def trace_masks_inverse(self) -> np.ndarray:
        """inverse[w] = the a with trace_masks[a] = w. trace_masks is a
        permutation, as the trace form is nondegenerate, so one scatter
        inverts it."""
        import numpy as np

        masks = self.trace_masks
        inverse = np.empty_like(masks)
        inverse[masks] = np.arange(self.order, dtype=masks.dtype)
        return inverse
