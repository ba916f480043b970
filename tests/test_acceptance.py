"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These tests exercise the library end to end at the sizes where exhaustive
verification is feasible, cross-check every fast path against a brute-force
oracle, and pin the CLI's canonical output and exit-code contract.
"""

import dataclasses
import json
import math
import random
import subprocess
import sys
import warnings

import numpy as np

from crooked import cli, families, invariants, spectral, vbf
from crooked.errors import NotApnWarning
from crooked.families import (
    FamilyParams,
    build,
    build_gold,
    build_ref7,
    proof_identity_check,
    search_params,
    validate,
)
from crooked.field import FieldCtx
from helpers import (
    derivative,
    ea_transform,
    from_truthtable_repr,
    is_ab,
    naive_diff_spectrum,
    naive_rank,
    naive_walsh,
    random_quadratic,
)


def _criterion(num, ok, desc):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num:02d} failed: {desc}"


def _first_primitive(ctx):
    return next(v for v in range(2, ctx.order) if ctx.is_primitive(v))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "crooked.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_01_n12_flagship_instance():
    # m = 6 is even, so gcd(2^s+2^t, 2^m+1) = 1 and every d is a power of it:
    # the stated hypotheses hold but, by the derived condition in the
    # FamilyParams docstring, the instance is not APN. Check it is flagged.
    ctx = FieldCtx(12)
    c = _first_primitive(ctx)
    p = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=c, d=c, r=(0,) * 5)
    ok = validate(ctx, p) == []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        f = vbf.from_multinomial(build(ctx, p))
    ok &= [w.category for w in caught] == [NotApnWarning]
    ok &= all("gcd(2^s+2^t, 2^m+1)-th power" in str(w.message) for w in caught)
    delta, _ = vbf.differential_spectrum(f)
    rep = vbf.is_crooked(f)
    ok &= delta == 64 and not rep.is_crooked and rep.failed_apn
    # Roots of F(x) = f(x)+f(x+a)+f(a)+f(0) per direction a: 2^m exactly
    # where d*a^e lies in F_{2^m}, 2 elsewhere.
    e = (1 << 8) + (1 << 1)
    roots = {}
    for a in range(1, ctx.order):
        dv = derivative(f, a)
        roots[a] = int(np.count_nonzero(dv == dv[0]))
    wide = {a for a, r in roots.items() if r == 64}
    expected = {
        a for a in range(1, ctx.order) if ctx.in_subfield(ctx.mul(p.d, ctx.pow(a, e)), 6)
    }
    ok &= set(roots.values()) == {2, 64} and wide == expected and len(wide) == 63
    _criterion(
        1,
        ok,
        "n=12 instance (K={0}, s=8, t=1, primitive c,d) meets the stated "
        "hypotheses, is flagged NotApnWarning and is not APN: "
        f"delta={delta}, crooked={rep.is_crooked}, "
        f"{len(wide)} directions with 2^m roots",
    )


def test_criterion_02_first_family_small_instances():
    ok = True
    for n in (6, 10):
        ctx = FieldCtx(n)
        hits = search_params(ctx, "thm1", budget=5, seed=n)
        ok &= bool(hits)
        for p in hits:
            f = vbf.from_multinomial(build(ctx, p))
            ok &= vbf.differential_spectrum(f)[0] == 2 and vbf.is_crooked(f).is_crooked
    _criterion(2, ok, "every searched first-family tuple at n=6,10 is APN and crooked")


def test_criterion_03_second_family_and_hypothesis_corruption():
    ok = True
    for n in (6, 10):
        ctx = FieldCtx(n)
        hits = search_params(ctx, "thm2", budget=1, seed=1)
        ok &= bool(hits)
        ok &= vbf.is_crooked(vbf.from_multinomial(build(ctx, hits[0]))).is_crooked
    ctx = FieldCtx(6)
    p = search_params(ctx, "thm2", budget=1, seed=1)[0]
    q = 1 << p.m
    e = (1 << p.s) + (1 << p.t)

    def broken(bad):
        return bool(validate(ctx, bad)) or not proof_identity_check(
            vbf.from_multinomial(families._family_terms(ctx, bad)), bad
        )

    # d of full order: d^(q+1) != 1
    ok &= broken(dataclasses.replace(p, d=_first_primitive(ctx)))
    # c chosen so that c + d*c^q = 0
    dead_c = next(
        v for v in range(1, ctx.order) if (v ^ ctx.mul(p.d, ctx.pow(v, q))) == 0
    )
    ok &= broken(dataclasses.replace(p, c=dead_c))
    # d in the norm-1 subgroup but also an e-th power
    power_d = next(
        v
        for v in range(2, ctx.order)
        if ctx.pow(v, q + 1) == 1 and ctx.is_eth_power(v, e)
    )
    ok &= broken(dataclasses.replace(p, d=power_d))
    _criterion(
        3,
        ok,
        "second family verifies crooked at n=6,10 and each corrupted hypothesis "
        "is caught by validation or the identity check",
    )


def test_criterion_04_three_term_special_case():
    ok = True
    for m, s_list in ((3, (1, 5)), (5, (1, 3, 7, 9))):
        ctx = FieldCtx(2 * m)
        for s in s_list:
            c = next(v for v in range(2, ctx.order) if not ctx.in_subfield(v, m))
            d = next(
                v
                for v in range(2, ctx.order)
                if not ctx.is_eth_power(v, (1 << s) + 1)
            )
            p = FamilyParams("thm1", m=m, s=s, t=0, K=(0,), c=c, d=d, r=(0,) * (m - 1))
            ok &= validate(ctx, p) == []
            f1 = vbf.from_multinomial(build(ctx, p))
            f2 = vbf.from_multinomial(build_ref7(ctx, m, s, c, d))
            ok &= bool(np.array_equal(f1.values, f2.values))
    _criterion(
        4,
        ok,
        "first family with t=0, K={0}, r=0 matches the independent three-term "
        "construction bit for bit (m=3,5)",
    )


def test_criterion_05_conjugation_identity_suite():
    ctx6 = FieldCtx(6)
    p = search_params(ctx6, "thm1", budget=1, seed=1)[0]
    ok = proof_identity_check(vbf.from_multinomial(families._family_terms(ctx6, p)), p)
    p = search_params(ctx6, "thm2", budget=1, seed=1)[0]
    ok &= proof_identity_check(vbf.from_multinomial(families._family_terms(ctx6, p)), p)

    ctx12 = FieldCtx(12)
    c = _first_primitive(ctx12)
    p1 = FamilyParams("thm1", m=6, s=8, t=1, K=(0,), c=c, d=c, r=(0,) * 5)
    ok &= proof_identity_check(vbf.from_multinomial(families._family_terms(ctx12, p1)), p1)
    # No tuple at n=12 passes the full second-family validator, but the
    # conjugation identity is algebraic: it needs only d^(q+1) = 1 and
    # c + d*c^q != 0, which are satisfiable.
    d = next(
        v for v in range(2, ctx12.order) if ctx12.pow(v, 65) == 1
    )
    c2 = next(
        v
        for v in range(1, ctx12.order)
        if (v ^ ctx12.mul(d, ctx12.pow(v, 64))) != 0
    )
    p2 = FamilyParams("thm2", m=6, s=8, t=1, K=(0,), c=c2, d=d, r=(0,) * 5)
    ok &= proof_identity_check(vbf.from_multinomial(families._family_terms(ctx12, p2)), p2)
    _criterion(
        5,
        ok,
        "conjugation identities hold over every x at n=6 and n=12 for both "
        "families",
    )


def test_criterion_06_oracle_equivalence():
    ok = True
    rng = random.Random(6)
    # Fast Walsh transform vs the direct trace double sum, plus Parseval.
    for n in (2, 3, 4, 5):
        ctx = FieldCtx(n)
        fs = [vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))]
        if n >= 3:
            fs.append(vbf.from_multinomial(random_quadratic(ctx, rng)))
        for f in fs:
            for a in range(1, ctx.order):
                w = spectral.walsh_component(f, a)
                ok &= all(
                    int(w[omega]) == naive_walsh(f, a, omega)
                    for omega in range(ctx.order)
                )
                ok &= int((w.astype("int64") ** 2).sum()) == 4**n
    ctx6 = FieldCtx(6)
    f6 = vbf.from_multinomial(
        build(ctx6, search_params(ctx6, "thm1", budget=1, seed=1)[0])
    )
    for a in rng.sample(range(1, 64), 5):
        w = spectral.walsh_component(f6, a)
        ok &= all(int(w[o]) == naive_walsh(f6, a, o) for o in range(64))
        ok &= int((w.astype("int64") ** 2).sum()) == 4**6
    # Optimized differential counting vs plain dict counting up to n = 8.
    for f in (
        f6,
        vbf.from_multinomial(build_gold(FieldCtx(7), 1)),
        vbf.from_multinomial(build_gold(FieldCtx(8), 1)),
    ):
        ok &= vbf.differential_spectrum(f) == naive_diff_spectrum(f)
    _criterion(
        6,
        ok,
        "fast Walsh and differential paths match brute-force oracles exactly; "
        "Parseval holds for every tested component",
    )


def test_criterion_07_gold_baselines():
    ctx = FieldCtx(6)
    ok = True
    for s in range(1, 6):
        f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, (1 << s) + 1)]))
        delta, _ = vbf.differential_spectrum(f)
        ok &= delta == 1 << math.gcd(s, 6)
    cube3 = vbf.from_multinomial(build_gold(FieldCtx(3), 1))
    gamma = set(spectral.walsh_spectrum(cube3)["walsh_spectrum"])
    ok &= gamma == {0, 4, -4} and is_ab(cube3)
    _criterion(
        7,
        ok,
        "delta(x^(2^s+1)) = 2^gcd(s,6) for s=1..5 and x^3 on n=3 has the "
        "almost-bent spectrum {0, +-4}",
    )


def _naive_development_rank(two_n, points):
    rows = []
    for g in range(1 << two_n):
        r = 0
        for p in points.tolist():
            r |= 1 << (p ^ g)
        rows.append(r)
    return naive_rank(rows)


def test_criterion_08_ea_invariance():
    ctx = FieldCtx(6)
    f = vbf.from_multinomial(
        build(ctx, search_params(ctx, "thm1", budget=1, seed=1)[0])
    )
    base_ext = spectral.walsh_spectrum(f)["extended_walsh"]
    base_diff = vbf.differential_spectrum(f)[1]
    base_g = invariants.gamma_rank(f)
    base_d = invariants.delta_rank(f)
    rng = random.Random(8)
    ok = True
    for _ in range(20):
        g = ea_transform(f, rng)
        ok &= spectral.walsh_spectrum(g)["extended_walsh"] == base_ext
        ok &= vbf.differential_spectrum(g)[1] == base_diff
        ok &= invariants.gamma_rank(g) == base_g
        ok &= invariants.delta_rank(g) == base_d
    # Cross-check the packed rank path against an independent elimination.
    for n in (3, 4, 5):
        h = vbf.from_multinomial(build_gold(FieldCtx(n), 1))
        pts = invariants.graph_points(h)
        ok &= invariants.gamma_rank(h) == _naive_development_rank(2 * n, pts)
        dpts = invariants.difference_points(h)
        ok &= invariants.delta_rank(h) == _naive_development_rank(2 * n, dpts)
    _criterion(
        8,
        ok,
        "extended Walsh, differential spectrum, and both development ranks are "
        "stable under 20 seeded EA transformations; ranks match naive "
        "elimination at n<=5",
    )


def test_criterion_09_inequivalence_evidence(tmp_path):
    ok = True
    verdicts = {}
    for fam in ("thm1", "thm2"):
        path = tmp_path / f"{fam}.json"
        built = run_cli(
            "construct", "--family", fam, "--n", "6", "--auto", "--seed", "1",
            "--out", str(path),
        )
        ok &= built.returncode == 0
        args = (
            "invariants", "--in", str(path), "--against", "gold-all",
            "--depth", "ranks", "--json",
        )
        out1, out2 = run_cli(*args), run_cli(*args)
        ok &= out1.returncode == 0 and out1.stdout == out2.stdout
        for line in out1.stdout.splitlines():
            doc = json.loads(line)
            differs = any(
                doc["left"][k] != doc["right"][k]
                for k in ("diff_spectrum", "extended_walsh", "gamma_rank", "delta_rank")
            )
            ok &= (doc["verdict"] == "distinguished") == differs
            verdicts[(fam, doc["against"])] = doc["verdict"]
    _criterion(
        9,
        ok,
        "rank-depth comparison against every Gold class at n=6 is reproducible "
        f"byte for byte with honest verdicts: {sorted(verdicts.items())}",
    )


def test_criterion_10_cli_round_trip_and_exit_codes(tmp_path):
    ok = True
    # Determinism of the full construct -> verify -> invariants pipeline.
    args = ["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "5"]
    r1, r2 = run_cli(*args), run_cli(*args)
    ok &= r1.returncode == 0 and r1.stdout == r2.stdout
    path = tmp_path / "f.json"
    path.write_text(r1.stdout)
    ok &= run_cli(
        "verify", "--in", str(path), "--checks", "apn,crooked,walsh,identity",
        "--json", "--summary",
    ).returncode == 0
    ok &= run_cli(
        "invariants", "--in", str(path), "--against", str(path), "--json"
    ).returncode == 0

    # Exit-code map conformance, one probe per documented code.
    ok &= run_cli("construct", "--family", "gold", "--n", "6", "--s", "2").returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    ok &= run_cli("verify", "--in", str(bad), "--checks", "apn").returncode == 3
    big = tmp_path / "big.json"
    run_cli("construct", "--family", "gold", "--n", "12", "--s", "1", "--out", str(big))
    ok &= run_cli(
        "invariants", "--in", str(big), "--against", str(big), "--depth", "ranks"
    ).returncode == 4
    small = tmp_path / "small.json"
    run_cli("construct", "--family", "gold", "--n", "4", "--modulus", "13",
            "--s", "1", "--out", str(small))
    ok &= run_cli(
        "invariants", "--in", str(path), "--against", str(small)
    ).returncode == 5
    ctx = FieldCtx(4)
    fifth = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)]))
    notapn = tmp_path / "x5.json"
    notapn.write_text(cli.serialize(from_truthtable_repr(fifth)))
    ok &= run_cli("verify", "--in", str(notapn), "--checks", "apn").returncode == 1
    _criterion(
        10,
        ok,
        "CLI round trip is byte-identical across seeded runs and every "
        "documented exit code is honored",
    )
