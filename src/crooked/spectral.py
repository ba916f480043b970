"""Walsh transform machinery: per-component spectra via the fast
Walsh-Hadamard butterfly, each a plain int64 array indexed by the mask, and
the full spectrum with nonlinearity as report keys. The full spectrum takes
the table's `TruthTable.path`: gcd(d, 2^n - 1) transformed components for a
power function x^d; for f of degree <= 2, the radical of every component's
symplectic form, counted off the derivative sweep's hyperplane normals
(the ortho-derivative) when f is APN and ranked by one batched elimination
of the symplectic matrices otherwise; and every component otherwise."""

from __future__ import annotations

from collections import Counter
from math import gcd

import numpy as np

from . import gf2mat
from .errors import InvalidInput
from .vbf import TruthTable, check_size, is_crooked, polar_form


def fwht(v: np.ndarray) -> np.ndarray:
    """In-place fast Walsh-Hadamard transform over the index bits."""
    n = v.size
    h = 1
    while h < n:
        v = v.reshape(-1, 2 * h)
        lo, hi = v[:, :h].copy(), v[:, h:].copy()
        v[:, :h] = lo + hi
        v[:, h:] = lo - hi
        h *= 2
    return v.reshape(-1)


def walsh_component(f: TruthTable, a: int) -> np.ndarray:
    """The Walsh values of x -> tr(a*f(x)) at every mask omega, as int64."""
    if a == 0 or a >= f.ctx.order:
        raise InvalidInput(f"component a={a} invalid")
    signs = 1 - 2 * gf2mat.parity_table(f.ctx.n)[f.values & f.ctx.trace_masks[a]].astype(np.int64)
    # The butterfly pairs x with masks under the plain bit inner product;
    # reindex so that entry omega matches the tr(omega*x) character.
    return fwht(signs)[f.ctx.trace_masks]


def symplectic_rows(f: TruthTable) -> np.ndarray:
    """For f of degree <= 2, the symplectic matrix of every component
    tr(a*f), a = 1, ..., 2^n - 1, as one (n, 2^n - 1) uint32 array:
    entry (i, a - 1) is row i, whose bit j is tr(a*beta_ij), beta the
    `polar_form` of f. Row i is F_2-linear in a, with bit j of its image of
    a = x^k equal to tr(x^k*beta_ij), so one `span_table` of those images
    gives every row at every a in O(n 2^n)."""
    n = f.ctx.n
    bit = np.arange(n, dtype=np.uint32)
    # bits[i, k, j] = tr(x^k*beta_ij): the parity of beta_ij under x^k's trace mask.
    bits = gf2mat.parity_table(n)[polar_form(f)[:, None, :] & f.ctx.trace_masks[1 << bit][:, None]]
    # images[i, k]: bit j is tr(x^k*beta_ij); the bits are distinct, so sum is OR.
    images = (bits << bit).sum(axis=2, dtype=np.uint32)
    return gf2mat.span_table(images)[:, 1:]


def walsh_spectrum(f: TruthTable) -> dict:
    """The report keys of f's Walsh spectrum: `walsh_spectrum`, each Walsh
    value's multiplicity over all (omega, a != 0), and `extended_walsh`, each
    |value|'s, as Counters, and the nonlinearity `nl` = 2^(n-1) - max|W|/2."""
    n = f.ctx.n
    check_size(n, "walsh")
    order = f.ctx.order
    # |W| <= 2^n, so hist[v + 2^n] counts the Walsh value v over all (omega, a).
    hist = np.zeros(2 * order + 1, dtype=np.int64)
    path, d = f.path
    if path == "quadratic":
        # tr(a*f) is a quadratic form. With k the dimension of the radical of
        # its symplectic matrix, |W| = 2^((n+k)/2) on 2^(n-k) masks, and
        # sum_omega W(omega) = 2^n (-1)^tr(a*f(0)), so the + values outnumber
        # the - values by (-1)^tr(a*f(0)) 2^((n-k)/2). The radical is the
        # x with tr(a*L_x(y)) = 0 for every y, L_x the linear part of D_x f.
        res = is_crooked(f)
        if res.is_crooked:
            # f is APN, so Im L_x is the hyperplane with normal b[x-1] for
            # x != 0, and the radical of tr(a*f) is {0} and the x with
            # b[x-1] = a: the derivative sweep already holds every radical,
            # of 2^k = 1 + #{x : b[x-1] = a} elements (frexp gives k + 1).
            radical = np.frexp(np.bincount(res.b, minlength=order)[1:] + 1)[1] - 1
        else:
            radical = n - gf2mat.rank_and_normal_batched(symplectic_rows(f), n)[0]
        sign = gf2mat.parity_table(n)[f.ctx.trace_masks[1:] & f.values[0]]
        for key, count in enumerate(np.bincount(2 * radical + sign, minlength=2 * n + 2).tolist()):
            k, s = divmod(key, 2)
            support, value = 1 << (n - k), 1 << ((n + k) // 2)
            plus = (support + (1 - 2 * s) * (1 << ((n - k) // 2))) // 2
            hist[order + value] += count * plus
            hist[order - value] += count * (support - plus)
            hist[order] += count * (order - support)
    else:
        components, weight = range(1, order), 1
        if path == "power":
            # f = x^d: W_{a*c^d}(omega) = W_a(omega/c), so the components in
            # one coset of the d-th powers share a value multiset. The g =
            # gcd(d, 2^n - 1) cosets, each of (2^n - 1)/g components, have
            # the representatives gamma^j, j < g.
            g = gcd(d, f.ctx.mult_order)
            components, weight = f.ctx.exp_array[:g].tolist(), f.ctx.mult_order // g
        for a in components:
            hist += np.bincount(walsh_component(f, a) + order, minlength=2 * order + 1)
        hist *= weight
    idx = np.flatnonzero(hist)
    gamma = Counter(dict(zip((idx - order).tolist(), hist[idx].tolist())))
    extended: Counter = Counter()
    for v, m in gamma.items():
        extended[abs(v)] += m
    nl = (1 << (n - 1)) - max(extended) // 2
    return {"walsh_spectrum": gamma, "extended_walsh": extended, "nl": nl}
