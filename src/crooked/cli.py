"""Command-line front-end: construct family instances, verify their
properties, emit invariant comparison reports, and search parameters.

Exit codes (stable for scripting):
  0 success / all requested checks passed
  1 a requested check failed
  2 invalid parameters
  3 malformed input file
  4 computation infeasible at this degree
  5 field/degree mismatch

Violated hypotheses print one line each on stdout; every other refusal
prints one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from collections import Counter
from itertools import islice
from math import prod
from typing import Callable, List, Optional, Tuple

from . import families, funcfile, invariants, spectral, vbf
from .errors import (
    CrookedError,
    DegreeMismatch,
    InfeasibleSize,
    InvalidInput,
    InvalidParams,
    MalformedFile,
    NotApnWarning,
)
from .field import FieldCtx

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_MALFORMED = 3
EXIT_INFEASIBLE = 4
EXIT_MISMATCH = 5


def _counter_to_list(c: Counter) -> list:
    return [[int(v), int(m)] for v, m in sorted(c.items())]


def _emit(doc: dict, as_json: bool):
    if as_json:
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        for k in sorted(doc):
            print(f"{k}: {doc[k]}")


def _int(text: str, base: int = 16) -> int:
    """An integer flag value; an unparsable one is InvalidInput carrying the
    ValueError's text."""
    try:
        return int(text, base)
    except ValueError as e:
        raise InvalidInput(str(e)) from None


def _resolve_elem(ctx: FieldCtx, text: str, seed: int) -> int:
    if text == "primitive":
        # From 1, not 2: 1 is primitive in GF(2), and in no larger field. There
        # are phi(2^n - 1) primitive elements; the scan stops at the one it returns.
        phi = prod(p ** (k - 1) * (p - 1) for p, k in ctx.order_facts)
        return next(islice(filter(ctx.is_primitive, range(1, ctx.order)), seed % phi, None))
    return _int(text)


def _field(args) -> FieldCtx:
    return FieldCtx(args.n, _int(args.modulus) if args.modulus else None)


def _half(n: int) -> int:
    """m = n/2: the families live on GF(2^(2m)), so an odd n is refused."""
    if n % 2:
        raise InvalidParams(["n must be even"])
    return n // 2


def _load(
    path: str, over: Optional[FieldCtx] = None
) -> Tuple[funcfile.FunctionFile, FieldCtx, Callable[[], vbf.TruthTable]]:
    """(file, field, table): the function file at path, its field (`over`
    when given) and a call that builds its truth table. Everything but the
    evaluation is checked here, so that a caller can refuse by size from the
    header before any table is built. A file over another field than `over`
    is DegreeMismatch; any failure to read, parse or check it is
    MalformedFile."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            ff = funcfile.parse(fh.read())
        if over is not None and (ff.n, ff.modulus) != (over.n, over.modulus):
            raise DegreeMismatch("functions live over different fields")
        ctx = over or FieldCtx(ff.n, ff.modulus)
        if ff.representation == "truthtable":
            f = ff.to_truthtable(ctx)  # the file holds the table itself
            return ff, ctx, lambda: f
        ff.to_multinomial(ctx)  # checks the terms, which the table evaluates
        return ff, ctx, lambda: ff.to_truthtable(ctx)
    except DegreeMismatch:
        raise
    except (OSError, UnicodeDecodeError, CrookedError) as e:
        raise MalformedFile(str(e)) from None


# The tuple flags each family reads; a thm1/thm2 tuple under --auto reads none.
_TUPLE_FLAGS = ("s", "t", "K", "c", "d", "r")
_READS = {"gold": ("s",), "ref7": ("s", "c", "d")}


def _refuse_unread_flags(args) -> None:
    """InvalidInput naming the given flags that the family or --auto does not read."""
    reads = _READS.get(args.family, () if args.auto else _TUPLE_FLAGS)
    unread = [f"--{k}" for k in _TUPLE_FLAGS if k not in reads and getattr(args, k) is not None]
    if args.auto and args.family in _READS:
        unread.append("--auto")
    if unread:
        mode = " --auto" if args.auto and args.family not in _READS else ""
        raise InvalidInput(f"construct --family {args.family}{mode} does not read {', '.join(unread)}")


def cmd_construct(args) -> int:
    _refuse_unread_flags(args)
    # No default in the parser, so that a given --s or --t can be told apart.
    args.s = 1 if args.s is None else args.s
    args.t = 0 if args.t is None else args.t
    # The families live on GF(2^(2m)): an odd n is refused before the field
    # is built, in the order search refuses it.
    half = None if args.family == "gold" else _half(args.n)
    ctx = _field(args)
    seed = args.seed or 0
    prov = {"family": args.family, "seed": seed}
    if args.family == "gold":
        m = families.build_gold(ctx, args.s)
        prov["s"] = args.s
    elif args.family == "ref7":
        c = _resolve_elem(ctx, args.c or "primitive", seed)
        d = _resolve_elem(ctx, args.d or "primitive", seed)
        m = families.build_ref7(ctx, half, args.s, c, d)
        prov.update({"m": half, "s": args.s, "c": format(c, "x"), "d": format(d, "x")})
    else:
        params = _family_params(ctx, args, half, seed)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", NotApnWarning)
            m = families.build(ctx, params)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
        prov.update(_family_provenance(params))
    text = funcfile.serialize(funcfile.from_multinomial_repr(m, prov))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise InvalidInput(f"cannot write --out: {e}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _family_params(ctx, args, m, seed) -> families.FamilyParams:
    """Family params from flags, which the builder validates, or a
    seeded-search hit under --auto."""
    if args.auto:
        hits = families.search_params(ctx, args.family, budget=1, seed=seed)
        if not hits:
            raise InvalidParams(["no valid parameters found by search"])
        return hits[0]
    K = tuple(_int(v, 10) for v in args.K.split(",")) if args.K else (0,)
    c = _resolve_elem(ctx, args.c or "primitive", seed)
    d = _resolve_elem(ctx, args.d or "primitive", seed)
    r = tuple(map(_int, args.r.split(","))) if args.r else (0,) * (m - 1)
    return families.FamilyParams(args.family, m, args.s, args.t, K, c, d, r)


def _family_provenance(p: families.FamilyParams) -> dict:
    """The keys of a family tuple, as construct and search write them."""
    return {
        "family": p.family,
        "m": p.m,
        "s": p.s,
        "t": p.t,
        "K": list(p.K),
        "c": format(p.c, "x"),
        "d": format(p.d, "x"),
        "r": [format(v, "x") for v in p.r],
    }


def _params_from_provenance(ff: funcfile.FunctionFile):
    """The family tuple a thm1/thm2 file records, None for any other file;
    MalformedFile when a key is missing, garbled or out of range, or
    disagrees with the field."""
    prov = ff.provenance
    fam = prov.get("family")
    if fam not in families.FAMILIES:
        return None
    try:
        p = families.FamilyParams(
            fam,
            m=int(prov["m"]),
            s=int(prov["s"]),
            t=int(prov["t"]),
            K=tuple(prov["K"]),
            c=int(prov["c"], 16),
            d=int(prov["d"], 16),
            r=tuple(int(v, 16) for v in prov.get("r", [])),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"{fam} provenance lacks or garbles {e}") from None
    if 2 * p.m != ff.n:
        raise MalformedFile(f"{fam} provenance has m = {p.m}, but n = {ff.n} is not 2m")
    if not (0 <= p.t < p.s < ff.n and all(type(k) is int and 0 <= k < ff.n for k in p.K)):
        raise MalformedFile(f"{fam} provenance needs 0 <= t < s < n and K within [0, n-1]")
    if any(v >> ff.n for v in (p.c, p.d, *p.r)):
        raise MalformedFile(f"{fam} provenance has an element outside GF(2^{ff.n})")
    return p


def cmd_verify(args) -> int:
    checks = args.checks.split(",")
    for i, check in enumerate(checks):
        if check not in ("apn", "crooked", "walsh", "identity"):
            raise InvalidInput(f"unknown check {check!r}")
        if check in checks[:i]:
            raise InvalidInput(f"check {check!r} given twice")
    ff, _, table = _load(args.infile)
    # What the header decides comes first, in check order, so that a file
    # above a size cap is refused before its table is built.
    params = None
    for check in checks:
        if check == "identity":
            params = _params_from_provenance(ff)
            if params is None:
                raise MalformedFile("identity check needs thm1/thm2 provenance")
        else:
            vbf.check_size(ff.n, check)
    f = table()
    report: dict = {"n": ff.n, "checks": sorted(checks)}
    ok = True
    for check in checks:
        if check == "apn":
            delta, spec = vbf.differential_spectrum(f)
            report["delta"] = delta
            report["diff_spectrum"] = _counter_to_list(spec)
            ok &= delta == 2
        elif check == "crooked":
            res = vbf.is_crooked(f)
            report["crooked"] = res.is_crooked
            if res.is_crooked and not args.summary:
                report["hyperplane_witnesses"] = {
                    format(a, "x"): [format(b, "x"), eps]
                    for a, b, eps in zip(range(1, f.ctx.order), res.b.tolist(), res.eps.tolist())
                }
            if not res.is_crooked:
                report["crooked_failed_at"] = (
                    "apn" if res.failed_apn else format(res.failed_at, "x")
                )
            ok &= res.is_crooked
        elif check == "walsh":
            summary = spectral.walsh_spectrum(f)
            report["nl"] = summary.nl
            report["walsh_spectrum"] = _counter_to_list(summary.gamma)
            report["extended_walsh"] = _counter_to_list(summary.extended)
        else:  # identity
            good = families.proof_identity_check(f, params)
            report["identity"] = good
            ok &= good
    report["pass"] = ok
    _emit(report, args.json)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _invariants_doc(rep: invariants.InvariantReport, label: str) -> dict:
    def side(inv):
        doc = {
            "delta": inv.delta,
            "diff_spectrum": _counter_to_list(inv.diff_spectrum),
            "extended_walsh": _counter_to_list(inv.extended_walsh),
            "nl": inv.nl,
        }
        if inv.gamma_rank is not None:
            doc["gamma_rank"] = inv.gamma_rank
            doc["delta_rank"] = inv.delta_rank
        return doc

    return {
        "against": label,
        "depth": rep.depth,
        "left": side(rep.left),
        "right": side(rep.right),
        "verdict": rep.verdict,
    }


def cmd_invariants(args) -> int:
    ff, ctx, table = _load(args.infile)
    with_ranks = args.depth == "ranks"
    if args.against == "gold-all":
        targets = [
            (f"gold-s{s}", lambda s=s: vbf.from_multinomial(families.build_gold(ctx, s)))
            for s in families.gold_representatives(ctx.n)
        ]
    else:
        targets = [(args.against, _load(args.against, ctx)[2])]
    # Both files are checked, so the caps refuse before any table is built.
    vbf.check_size(ff.n, *(("gamma", "delta") if with_ranks else ()), "apn", "walsh")
    left = invariants.function_invariants(table(), with_ranks)
    for label, right_table in targets:
        right = invariants.function_invariants(right_table(), with_ranks)
        _emit(_invariants_doc(invariants.compare(left, right), label), args.json)
    return EXIT_OK


def cmd_search(args) -> int:
    if args.budget < 1:
        raise InvalidInput(f"--budget {args.budget} is below 1")
    m = _half(args.n)
    ctx = _field(args)
    if m % 2 == 0:
        consequence = (
            "no first-family tuple is APN (see FamilyParams)"
            if args.family == "thm1"
            else "the second family is empty (each d with d^(q+1) = 1 is a (2^s+2^t)-power)"
        )
        print(f"warning: m = {m} is even: {consequence}", file=sys.stderr)
    hits = families.search_params(ctx, args.family, budget=args.budget, seed=args.seed or 0)
    for p in hits:
        _emit(_family_provenance(p), True)
    print(f"# {len(hits)} valid tuple(s)", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crooked", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a family instance")
    c.add_argument("--family", required=True, choices=[*families.FAMILIES, "gold", "ref7"])
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--modulus", help="hex bitmask of the field modulus")
    c.add_argument("--s", type=int, help="default 1")
    c.add_argument("--t", type=int, help="default 0")
    c.add_argument("--K", help="comma-separated indices, e.g. 0,3")
    c.add_argument("--c", help="hex element or 'primitive'")
    c.add_argument("--d", help="hex element or 'primitive'")
    c.add_argument("--r", help="comma-separated hex elements")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--auto", action="store_true", help="take the first searched tuple")
    c.add_argument("--out")
    c.set_defaults(func=cmd_construct)

    v = sub.add_parser("verify", help="run property checks on a function file")
    v.add_argument("--in", dest="infile", required=True)
    v.add_argument("--checks", default="apn,crooked")
    v.add_argument("--json", action="store_true")
    v.add_argument("--summary", action="store_true", help="omit per-direction witnesses")
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("invariants", help="compare CCZ invariants")
    i.add_argument("--in", dest="infile", required=True)
    i.add_argument("--against", required=True, help="function file or 'gold-all'")
    i.add_argument("--depth", choices=["spectra", "ranks"], default="spectra")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_invariants)

    s = sub.add_parser("search", help="enumerate valid family parameters")
    s.add_argument("--family", required=True, choices=families.FAMILIES)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--modulus")
    s.add_argument("--budget", type=int, default=5)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_search)
    return ap


# The exit code of each refusal; any other CrookedError is invalid input.
EXIT_CODES = {
    MalformedFile: EXIT_MALFORMED,
    InfeasibleSize: EXIT_INFEASIBLE,
    DegreeMismatch: EXIT_MISMATCH,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidParams as e:
        print("\n".join(e.violations))
        return EXIT_INVALID_PARAMS
    except CrookedError as e:
        print(str(e), file=sys.stderr)
        return EXIT_CODES.get(type(e), EXIT_INVALID_PARAMS)


if __name__ == "__main__":
    sys.exit(main())
