import dataclasses
import random
import warnings
from math import gcd

import numpy as np
import pytest

from crooked import families, vbf
from crooked.errors import DegreeMismatch, InvalidInput, InvalidParams, NotApnWarning
from crooked.families import (
    FamilyParams,
    build,
    build_gold,
    build_ref7,
    gold_representatives,
    proof_identity_check,
    search_params,
    validate,
)
from crooked.field import FieldCtx
from helpers import IRREDUCIBLES, naive_pair_identity, naive_search


def _first_primitive(ctx):
    return next(v for v in range(2, ctx.order) if ctx.is_primitive(v))


@pytest.fixture(scope="module")
def ctx6():
    return FieldCtx(6)


@pytest.fixture(scope="module")
def ctx12():
    return FieldCtx(12)


def test_validate_thm1_n12_primitive_cd(ctx12):
    c = _first_primitive(ctx12)
    p = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=c, d=c, r=(0,) * 5)
    assert validate(ctx12, p) == []


def test_validate_thm1_subfield_c(ctx12):
    sub = next(v for v in range(2, 4096) if ctx12.in_subfield(v, 6))
    c = _first_primitive(ctx12)
    p = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=sub, d=c, r=(0,) * 5)
    assert any("subfield" in v for v in validate(ctx12, p))


def test_validate_thm1_power_d(ctx12):
    c = _first_primitive(ctx12)
    d = ctx12.pow(7, (1 << 8) + 2)  # a (2^s+2^t)-power by construction
    p = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=c, d=d, r=(0,) * 5)
    assert any("power" in v for v in validate(ctx12, p))


def test_validate_thm1_gcd_and_k(ctx6):
    c = _first_primitive(ctx6)
    p = FamilyParams("thm1", m=3, s=3, t=1, K=(0,), c=c, d=c, r=())
    assert any("gcd" in v for v in validate(ctx6, p))
    p2 = FamilyParams("thm1", m=3, s=2, t=1, K=(0, 1), c=c, d=c, r=())
    assert any("K" in v for v in validate(ctx6, p2))


def test_validator_is_pure(ctx6):
    c = _first_primitive(ctx6)
    p = FamilyParams("thm1", m=3, s=2, t=1, K=(0,), c=1, d=1, r=())
    assert validate(ctx6, p) == validate(ctx6, p)


def test_build_thm1_smallest_instance(ctx6):
    hits = search_params(ctx6, "thm1", budget=1, seed=0)
    assert hits
    m = build(ctx6, hits[0])
    assert len(m.terms) == 3  # r = 0, |K| = 1
    assert vbf.is_crooked(vbf.from_multinomial(m)).is_crooked


def test_build_thm1_rejects_invalid(ctx6):
    p = FamilyParams("thm1", m=3, s=2, t=1, K=(0,), c=1, d=1, r=())  # c in subfield, d a power
    with pytest.raises(InvalidParams, match="subfield"):
        build(ctx6, p)


def test_builders_raise_sorted_violations(ctx6):
    # s >= n and an empty K: the validators list "requires s < n" first.
    for family in ("thm1", "thm2"):
        p = FamilyParams(family, m=3, s=7, t=0, K=(), c=2, d=2, r=())
        with pytest.raises(InvalidParams) as info:
            build(ctx6, p)
        assert validate(ctx6, p) != sorted(validate(ctx6, p))
        assert info.value.violations == sorted(validate(ctx6, p))
    ctx12 = FieldCtx(12)
    with pytest.raises(InvalidParams) as info:
        build_ref7(ctx12, 6, 2, 2, 2)
    assert info.value.violations == sorted(families.validate_ref7(ctx12, 6, 2))
    with pytest.raises(InvalidParams) as info:
        build_gold(ctx6, 2)
    assert type(info.value) is InvalidParams
    assert info.value.violations == ["gcd(2, 6) != 1"]


def test_build_thm1_degree_mismatch(ctx6):
    with pytest.raises(DegreeMismatch):
        validate(ctx6, FamilyParams("thm1", m=4, s=2, t=1, K=(0,), c=2, d=2, r=()))


# Edits of a valid n = 6 tuple (m = 3) that each break one hypothesis, the
# families that check it, and the one violation validate then lists.
VALIDATE_EDITS = [
    (lambda p: {"s": 1, "t": 1}, families.FAMILIES, "requires s > t >= 0"),
    (lambda p: {"t": -1}, families.FAMILIES, "requires s > t >= 0"),
    (lambda p: {"K": (1, 0)}, families.FAMILIES, "K must be strictly increasing within [0, n-1]"),
    (lambda p: {"K": (0, 0)}, families.FAMILIES, "K must be strictly increasing within [0, n-1]"),
    (lambda p: {"K": (0, 6)}, families.FAMILIES, "K must be strictly increasing within [0, n-1]"),
    # 1 + x^2 = (1 + x)^2 divides x^6 + 1.
    (lambda p: {"K": (0, 2)}, families.FAMILIES, "linearized map of K has nontrivial kernel"),
    (lambda p: {"r": (0, 0, 0)}, families.FAMILIES, "r has more than m-1 = 2 entries"),
    (lambda p: {"c": 64}, families.FAMILIES, "element outside GF(2^n)"),
    (lambda p: {"d": 64}, families.FAMILIES, "element outside GF(2^n)"),
    (lambda p: {"r": (0, 65)}, families.FAMILIES, "element outside GF(2^n)"),
    # c lies outside F_8, so as r[1] it breaks thm1's subfield hypothesis.
    (lambda p: {"r": (p.c,)}, ("thm1",), "r[1] outside the subfield F_{2^m}"),
]


@pytest.mark.parametrize("edit, fams, message", VALIDATE_EDITS,
                         ids=[f"{row[2]} {i}" for i, row in enumerate(VALIDATE_EDITS)])
def test_validate_names_each_violation(ctx6, edit, fams, message):
    for family in fams:
        p = search_params(ctx6, family, budget=1, seed=5)[0]
        assert validate(ctx6, p) == []
        assert validate(ctx6, dataclasses.replace(p, **edit(p))) == [message], family


def test_thm2_search_and_crooked(ctx6):
    hits = search_params(ctx6, "thm2", budget=2, seed=5)
    assert hits
    for p in hits:
        f = vbf.from_multinomial(build(ctx6, p))
        assert vbf.is_crooked(f).is_crooked


def test_validate_thm2_d_one(ctx6):
    # d = 1 satisfies d^(q+1) = 1 but is itself a (2^s+2^t)-power
    p = FamilyParams("thm2", m=3, s=1, t=0, K=(0,), c=_first_primitive(ctx6), d=1, r=())
    assert any("power" in v for v in validate(ctx6, p))


def test_validate_thm2_r_coupling(ctx6):
    hits = search_params(ctx6, "thm2", budget=1, seed=5)
    p = hits[0]
    # r entry that does not satisfy d = r^(1-q)
    bad_r = next(
        v
        for v in range(1, 64)
        if ctx6.mul(p.d, ctx6.pow(v, 8)) != v
    )
    p_bad = FamilyParams("thm2", m=p.m, s=p.s, t=p.t, K=p.K, c=p.c, d=p.d, r=(bad_r, 0))
    assert any("r[1]" in v for v in validate(ctx6, p_bad))


def test_thm2_r_satisfying_coupling_still_crooked(ctx6):
    p = search_params(ctx6, "thm2", budget=1, seed=5)[0]
    q = 8
    good_r = [v for v in range(1, 64) if ctx6.mul(p.d, ctx6.pow(v, q)) == v]
    if good_r:
        p2 = FamilyParams("thm2", m=p.m, s=p.s, t=p.t, K=p.K, c=p.c, d=p.d, r=(good_r[0], 0))
        assert validate(ctx6, p2) == []
        assert vbf.is_crooked(vbf.from_multinomial(build(ctx6, p2))).is_crooked


def test_build_gold(ctx6):
    m = build_gold(ctx6, 1)
    assert m.terms == ((1, 3),)
    with pytest.raises(InvalidParams, match=r"gcd\(2, 6\) != 1"):
        build_gold(ctx6, 2)
    ctx12 = FieldCtx(12)
    g = vbf.from_multinomial(build_gold(ctx12, 5))
    assert vbf.differential_spectrum(g)[0] == 2


def test_gold_representatives():
    # 1 <= s <= n/2 with gcd(s, n) = 1: s and n-s give one class.
    expected = {
        2: [1], 4: [1], 6: [1], 8: [1, 3], 10: [1, 3], 12: [1, 5], 14: [1, 3, 5],
        5: [1, 2], 7: [1, 2, 3], 9: [1, 2, 4], 11: [1, 2, 3, 4, 5],
    }
    for n, reps in expected.items():
        assert gold_representatives(n) == reps, n


def test_ref7_matches_thm1_special_case():
    # t = 0, K = {0}, r = 0 collapses the first family to the older
    # three-term construction, bit for bit.
    for m, s_list in ((3, (1, 5)), (5, (1, 3))):
        ctx = FieldCtx(2 * m)
        for s in s_list:
            c = next(v for v in range(2, ctx.order) if not ctx.in_subfield(v, m))
            e = (1 << s) + 1
            d = next(v for v in range(2, ctx.order) if not ctx.is_eth_power(v, e))
            p = FamilyParams("thm1", m=m, s=s, t=0, K=(0,), c=c, d=d, r=(0,) * (m - 1))
            assert validate(ctx, p) == []
            f1 = vbf.from_multinomial(build(ctx, p))
            f2 = vbf.from_multinomial(build_ref7(ctx, m, s, c, d))
            assert np.array_equal(f1.values, f2.values)


def test_search_determinism(ctx6):
    a = search_params(ctx6, "thm1", budget=3, seed=7)
    b = search_params(ctx6, "thm1", budget=3, seed=7)
    assert a == b
    assert search_params(ctx6, "thm1", budget=0, seed=7) == []


def test_search_revalidates(ctx6):
    for p in search_params(ctx6, "thm1", budget=5, seed=2):
        assert validate(ctx6, p) == []
    for p in search_params(ctx6, "thm2", budget=3, seed=2):
        assert validate(ctx6, p) == []


@pytest.mark.parametrize("family", ["thm1", "thm2"])
def test_search_matches_brute_force(family):
    # Every tuple at n = 2 and 4 under every modulus, and the first few at
    # n = 6, against a scan of every (d, c) pair through the validator.
    for n in (2, 4):
        for modulus in IRREDUCIBLES[n]:
            ctx = FieldCtx(n, modulus)
            for seed in (0, 1):
                assert search_params(ctx, family, 1000, seed) == naive_search(ctx, family, 1000, seed)
    ctx6 = FieldCtx(6)
    for seed in range(3):
        assert search_params(ctx6, family, 2, seed) == naive_search(ctx6, family, 2, seed)


@pytest.mark.parametrize("family", ["thm1", "thm2"])
def test_search_tests_few_elements_for_primitivity(family, monkeypatch):
    # The search derives c and d from the first primitive element, so it
    # never orders the whole field by primitivity.
    calls = []
    is_primitive = FieldCtx.is_primitive
    monkeypatch.setattr(FieldCtx, "is_primitive", lambda ctx, a: calls.append(a) or is_primitive(ctx, a))
    ctx = FieldCtx(14)
    assert search_params(ctx, family, budget=1, seed=1)
    assert 0 < len(calls) < ctx.order // 8


def test_thm2_search_is_empty_at_even_m(monkeypatch):
    # For even m every d with d^(q+1) = 1 is a (2^s+2^t)-power (see
    # search_params), so the second family is empty. The brute-force search
    # agrees at n = 4 (test_search_matches_brute_force); its scan of every
    # (d, c) pair would take minutes at n = 8, so there the claim is checked
    # against the images u^(2^s+2^t) of every unit, for each (s, t) searched.
    for n in (8, 12):
        ctx = FieldCtx(n)
        q = 1 << n // 2
        units = np.arange(1, ctx.order)
        roots = units[vbf.evaluate(ctx, [(1, q + 1)], units) == 1]
        assert roots.size == q + 1
        for s in range(1, n):
            for t in range(s):
                if gcd(s - t, n) == 1:
                    images = vbf.evaluate(ctx, [(1, (1 << s) + (1 << t))], units)
                    assert np.isin(roots, images).all(), (s, t)
    # The search returns before any validator call.
    monkeypatch.setattr(families, "validate", lambda ctx, p: pytest.fail("validator called"))
    for n in (4, 8, 12, 16):
        assert search_params(FieldCtx(n), "thm2", budget=5, seed=1) == []


def test_unknown_family_refused(ctx6):
    with pytest.raises(InvalidInput, match="unknown family 'thm3'"):
        FamilyParams("thm3", m=3, s=2, t=1, K=(0,), c=2, d=2, r=())
    with pytest.raises(InvalidInput, match="unknown family 'thm3'"):
        search_params(ctx6, "thm3", 1)


def test_search_odd_n_rejected():
    with pytest.raises(DegreeMismatch):
        search_params(FieldCtx(3), "thm1", budget=1, seed=0)


def _built(ctx, p):
    # The function the parameters define, built without the validators.
    return vbf.from_multinomial(families._family_terms(ctx, p))


def test_proof_identity_exhaustive_n6(ctx6):
    p1 = search_params(ctx6, "thm1", budget=1, seed=1)[0]
    assert proof_identity_check(_built(ctx6, p1), p1)
    p2 = search_params(ctx6, "thm2", budget=1, seed=1)[0]
    assert proof_identity_check(_built(ctx6, p2), p2)


def test_proof_identity_detects_corrupted_d(ctx6):
    p = search_params(ctx6, "thm2", budget=1, seed=1)[0]
    g = _first_primitive(ctx6)
    bad = FamilyParams("thm2", m=p.m, s=p.s, t=p.t, K=p.K, c=p.c, d=g, r=p.r)
    # primitive d violates d^(q+1) = 1; either the validator or the proof
    # identity must notice
    assert validate(ctx6, bad) or not proof_identity_check(_built(ctx6, bad), bad)
    assert not proof_identity_check(_built(ctx6, bad), bad)


def test_proof_identity_matches_pair_oracle(ctx6):
    # The global check agrees with the per-direction oracle on valid tuples,
    # a corrupted d and single-entry corruptions of a valid table.
    cases = [
        (_built(ctx6, p), p)
        for fam in ("thm1", "thm2")
        for seed in (1, 2, 3)
        for p in search_params(ctx6, fam, budget=1, seed=seed)
    ]
    assert len(cases) == 6
    bad = dataclasses.replace(cases[3][1], d=_first_primitive(ctx6))  # thm2, seed 1
    cases.append((_built(ctx6, bad), bad))
    f, p = cases[0]
    rng = random.Random(20)
    for _ in range(20):
        x = rng.randrange(ctx6.order)
        values = f.values.copy()
        values[x] ^= rng.randrange(1, ctx6.order)
        cases.append((vbf.TruthTable(ctx6, values), p))
    results = [proof_identity_check(g, p) for g, p in cases]
    assert results == [naive_pair_identity(g, p) for g, p in cases]
    assert results[:6] == [True] * 6 and results[6] is False


@pytest.mark.parametrize("family", ["thm1", "thm2"])
def test_proof_identity_blind_to_twist_kernel(ctx6, family):
    # The check tests f + d f^q = (c + d c^q) x^(q+1), not membership of the
    # family: an edit f(x) += v keeps it true exactly when v + d v^q = 0.
    p = search_params(ctx6, family, budget=1, seed=1)[0]
    f = _built(ctx6, p)
    q = 1 << p.m
    d = 1 if family == "thm1" else p.d
    kernel = {v for v in range(ctx6.order) if v ^ ctx6.mul(d, ctx6.pow(v, q)) == 0}
    assert len(kernel) == q
    if family == "thm1":
        assert kernel == {v for v in range(ctx6.order) if ctx6.in_subfield(v, p.m)}
    for x in range(ctx6.order):
        for v in range(1, ctx6.order):
            values = f.values.copy()
            values[x] ^= v
            assert proof_identity_check(vbf.TruthTable(ctx6, values), p) == (v in kernel), (x, v)
    # The apn check catches such an edit.
    values = f.values.copy()
    values[5] ^= min(kernel - {0})
    assert vbf.differential_spectrum(vbf.TruthTable(ctx6, values))[0] != 2


def test_family_instances_crooked_odd_half_degree():
    # The first-family construction is sound for odd m = n/2.
    for n in (6, 10):
        ctx = FieldCtx(n)
        for p in search_params(ctx, "thm1", budget=2, seed=n):
            assert vbf.is_crooked(vbf.from_multinomial(build(ctx, p))).is_crooked


def test_even_half_degree_hypotheses_insufficient():
    # Regression pin: for even m the stated hypotheses do not force APN.
    # With e = 2^s + 2^t and gcd(e, 2^n - 1) = 3, the subfield group
    # F_{2^m}^* meets every coset of the e-th powers once 3 | 2^m - 1, so
    # d * a^e lands in F_{2^m} for some direction a and the derivative
    # kernel blows up. Smallest case: n = 4.
    ctx = FieldCtx(4)
    hits = search_params(ctx, "thm1", budget=1, seed=4)
    assert hits  # hypotheses are satisfiable...
    with pytest.warns(NotApnWarning):
        f = vbf.from_multinomial(build(ctx, hits[0]))
    assert vbf.differential_spectrum(f)[0] != 2  # ...but the conclusion fails


def test_thm1_warning_iff_not_apn():
    # build warns on a validated tuple exactly when brute force finds it
    # is not APN: every accepted d at n = 4, 6 and a seeded sample at n = 8,
    # for the (s, t, K) of three searched tuples, with and without r.
    rng = random.Random(8)
    for n, sample in ((4, None), (6, None), (8, 12)):
        ctx = FieldCtx(n)
        m = n // 2
        sub = next(v for v in range(2, ctx.order) if ctx.in_subfield(v, m))
        for base in search_params(ctx, "thm1", budget=3, seed=n):
            ps = [dataclasses.replace(base, d=d) for d in range(1, ctx.order)]
            ps = [p for p in ps if validate(ctx, p) == []]
            assert ps
            if sample:
                ps = rng.sample(ps, sample)
            for i, p in enumerate(ps):
                if i % 2:
                    p = dataclasses.replace(p, r=(sub,) + (0,) * (m - 2))
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    f = vbf.from_multinomial(build(ctx, p))
                warned = any(issubclass(w.category, NotApnWarning) for w in caught)
                assert warned == (vbf.differential_spectrum(f)[0] != 2), p
