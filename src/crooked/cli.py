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
import re
import sys
import warnings
from collections import Counter
from functools import cache
from itertools import repeat
from typing import List, Optional, Tuple

import numpy as np

from . import families, invariants, spectral, vbf
from .errors import (
    CrookedError,
    DegreeMismatch,
    InfeasibleSize,
    InvalidInput,
    InvalidParams,
    MalformedFile,
    NotApnWarning,
)
from .field import MAX_DEGREE, FieldCtx

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_PARAMS = 2
EXIT_MALFORMED = 3
EXIT_INFEASIBLE = 4
EXIT_MISMATCH = 5


def _plain(doc: dict) -> dict:
    """doc with each Counter value (a spectrum) as its [value, count] list."""
    return {k: [[int(u), int(m)] for u, m in sorted(v.items())] if isinstance(v, Counter) else v
            for k, v in doc.items()}


class _Rendered(str):
    """A report value already rendered in the form `_emit` prints it in."""


def _emit(doc: dict, as_json: bool):
    """One report: canonical JSON (json.dumps with sort_keys), or one
    `key: value` line per key in key order. The top-level keys are joined
    here, so that a `_Rendered` value drops in as it is."""
    if as_json:
        items = (
            f"{json.dumps(k)}:"
            + (v if isinstance(v, _Rendered) else json.dumps(v, sort_keys=True, separators=(",", ":")))
            for k, v in sorted(doc.items())
        )
        print("{" + ",".join(items) + "}")
    else:
        for k in sorted(doc):
            print(f"{k}: {doc[k]}")


# Directions per `%` call of `_witnesses`: each call takes a tuple of three
# Python ints per direction, so this bounds those tuples (n <= 12 is one call).
_WITNESS_CHUNK = 4096


def _witnesses(res: vbf.CrookedReport, as_json: bool) -> _Rendered:
    """The hyperplane_witnesses object {hex a: [hex b, eps]}, rendered from
    the report's arrays as `_emit` would render that dict: for JSON in
    sort_keys order, which is lexicographic on hex, else as str(dict) in
    numeric order. One template per direction, filled by one % call per
    `_WITNESS_CHUNK` directions; no dict or string is built per direction."""
    a = np.arange(1, len(res.b) + 1)
    template, sep = ('"%x":["%x",%d]', ",") if as_json else ("'%x': ['%x', %d]", ", ")
    if as_json:
        # Hex strings sort as their digits left-aligned to the widest key,
        # and a key that is a prefix of another (1 and 10) sorts first.
        digits = (np.frexp(a)[1] + 3) // 4
        a = a[np.lexsort((digits, a << 4 * (digits[-1] - digits)))]
    fields = np.stack([a, res.b[a - 1], res.eps[a - 1]], axis=1)
    parts = []
    for i in range(0, len(a), _WITNESS_CHUNK):
        chunk = fields[i : i + _WITNESS_CHUNK]
        parts.append(sep.join([template] * len(chunk)) % tuple(chunk.ravel().tolist()))
    return _Rendered("{" + sep.join(parts) + "}")


def _int(text: str, base: int = 16) -> int:
    """An integer flag value; an unparsable one is InvalidInput carrying the
    ValueError's text."""
    try:
        return int(text, base)
    except ValueError as e:
        raise InvalidInput(str(e)) from None


def _resolve_elem(ctx: FieldCtx, text: Optional[str], seed: int) -> int:
    """A --c or --d value: a hex element, or the seeded primitive element
    when the flag is absent or 'primitive'."""
    if text is None or text == "primitive":
        return ctx.primitive(seed)
    return _int(text)


def _field(args) -> FieldCtx:
    return FieldCtx(args.n, None if args.modulus is None else _int(args.modulus))


def _half(n: int) -> int:
    """m = n/2: the families live on GF(2^(2m)), so an odd n is refused."""
    if n % 2:
        raise InvalidParams(["n must be even"])
    return n // 2


# Function files, the one persistence format the CLI writes and reads:
# canonical JSON, diff-friendly and round-trip stable.
SCHEMA_VERSION = 1


def serialize(doc: dict) -> str:
    """The canonical text of a function file: doc's keys, n and modulus as
    ints and the body as it is written, under the current schema_version."""
    doc = {**doc, "schema_version": SCHEMA_VERSION, "modulus": format(doc["modulus"], "x")}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _integer(value, what: str) -> int:
    if type(value) is not int:  # int() would read true as 1, 3.5 as 3 and " 6 " as 6
        raise MalformedFile(f"{what} = {json.dumps(value)} is not an integer")
    return value


def _hex(value, what: str) -> int:
    # int(text, 16) would also read " a", "0xa", "+a", "0a", "a_0", "A" and "\u0661".
    if type(value) is not str or not re.fullmatch("0|[1-9a-f][0-9a-f]*", value):
        raise MalformedFile(f"{what} = {json.dumps(value)} is not lowercase hex")
    return int(value, 16)


def parse(text: str) -> dict:
    """The document of a function file, with its header checked and read (n
    and modulus as ints, provenance {} when absent) and its body, a JSON
    list, left as written; `_table` decodes the body over the field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedFile(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise MalformedFile("not a JSON object")
    try:
        version = _integer(doc.get("schema_version", SCHEMA_VERSION), "schema_version")
        if version != SCHEMA_VERSION:
            raise MalformedFile(f"schema_version = {version} is not {SCHEMA_VERSION}")
        n = doc["n"] = _integer(doc["n"], "n")
        # Checked before anything is sized by 2^n.
        if not 1 <= n <= MAX_DEGREE:
            raise MalformedFile(f"n = {n} outside [1, {MAX_DEGREE}]")
        doc["modulus"] = _hex(doc["modulus"], "modulus")
        rep = doc["representation"]
        if rep not in ("multinomial", "truthtable"):  # compared, not hashed: any JSON value
            raise MalformedFile(f"unknown representation {rep!r}")
        # The body: {"coeff": hex, "exp": int} terms, or the 2^n hex entries.
        # A string or an object would iterate as its characters or keys.
        body = "terms" if rep == "multinomial" else "values"
        if not isinstance(doc[body], list):
            raise MalformedFile(f"{body} is not a JSON list")
        if not isinstance(doc.setdefault("provenance", {}), dict):
            raise MalformedFile("provenance is not a JSON object")
        return doc
    except MalformedFile:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"bad function file: {e}") from None


def _load(path: str, over: Optional[FieldCtx] = None) -> Tuple[dict, FieldCtx]:
    """(doc, field): the function file at path with its header checked
    (`parse`), and its field (`over` when given). Its body is left
    to `_table`, so that a caller can refuse from the header before any
    entry is decoded. A file over another field than `over` is
    DegreeMismatch; any failure to read, parse or check it is MalformedFile."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = parse(fh.read())
        if over is not None and (doc["n"], doc["modulus"]) != (over.n, over.modulus):
            raise DegreeMismatch("functions live over different fields")
        return doc, over or FieldCtx(doc["n"], doc["modulus"])
    except DegreeMismatch:
        raise
    except (OSError, UnicodeDecodeError, CrookedError) as e:
        raise MalformedFile(str(e)) from None


def _table(doc: dict, ctx: FieldCtx) -> vbf.TruthTable:
    """The truth table of a file that `_load` read over ctx: its entries, or
    its terms evaluated. Any failure to decode or check the body is
    MalformedFile."""
    try:
        if doc["representation"] == "truthtable":
            raw = doc["values"]
            try:
                values = np.fromiter(map(int, raw, repeat(16)), dtype=np.int64, count=len(raw))
            except OverflowError:  # an entry at 2^63 or above, or below -2^63
                raise MalformedFile("table entry outside the field") from None
            return vbf.TruthTable(ctx, values)  # the file holds the table itself
        terms = [(_hex(t["coeff"], "coeff"), _integer(t["exp"], "exp")) for t in doc["terms"]]
        m = vbf.multinomial(ctx, terms)  # checks the terms, which the table evaluates
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"bad function file: {e}") from None
    except CrookedError as e:
        raise MalformedFile(str(e)) from None
    return vbf.from_multinomial(m)


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
    seed = args.seed
    prov = {"family": args.family, "seed": seed}
    if args.family == "gold":
        m = families.build_gold(ctx, args.s)
        prov["s"] = args.s
    elif args.family == "ref7":
        c = _resolve_elem(ctx, args.c, seed)
        d = _resolve_elem(ctx, args.d, seed)
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
    text = serialize({
        "n": ctx.n,
        "modulus": ctx.modulus,
        "representation": "multinomial",
        "provenance": prov,
        "terms": [{"coeff": format(c, "x"), "exp": e} for c, e in m.terms],
    })
    if args.out is not None:
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
    K = (0,) if args.K is None else tuple(_int(v, 10) for v in args.K.split(","))
    c = _resolve_elem(ctx, args.c, seed)
    d = _resolve_elem(ctx, args.d, seed)
    r = (0,) * (m - 1) if args.r is None else tuple(map(_int, args.r.split(",")))
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


def _params_from_provenance(doc: dict):
    """The family tuple a thm1/thm2 file records, None for any other file;
    MalformedFile when a key is missing, garbled or out of range, or
    disagrees with the field."""
    prov, n = doc["provenance"], doc["n"]
    fam = prov.get("family")
    if fam not in families.FAMILIES:
        return None
    try:
        r = prov.get("r", [])
        # tuple() would read a string as its characters, an object as its keys.
        if not isinstance(r, list):
            raise TypeError(f"r = {json.dumps(r)}, which is not a list")
        p = families.FamilyParams(
            fam,
            m=_integer(prov["m"], f"{fam} provenance m"),
            s=_integer(prov["s"], f"{fam} provenance s"),
            t=_integer(prov["t"], f"{fam} provenance t"),
            K=tuple(prov["K"]),
            c=_hex(prov["c"], f"{fam} provenance c"),
            d=_hex(prov["d"], f"{fam} provenance d"),
            r=tuple(_hex(v, f"{fam} provenance r") for v in r),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"{fam} provenance lacks or garbles {e}") from None
    if 2 * p.m != n:
        raise MalformedFile(f"{fam} provenance has m = {p.m}, but n = {n} is not 2m")
    if not (0 <= p.t < p.s < n and all(type(k) is int and 0 <= k < n for k in p.K)):
        raise MalformedFile(f"{fam} provenance needs 0 <= t < s < n and K within [0, n-1]")
    if any(v >> n for v in (p.c, p.d, *p.r)):
        raise MalformedFile(f"{fam} provenance has an element outside GF(2^{n})")
    return p


def cmd_verify(args) -> int:
    checks = args.checks.split(",")
    for i, check in enumerate(checks):
        if check not in ("apn", "crooked", "walsh", "identity"):
            raise InvalidInput(f"unknown check {check!r}")
        if check in checks[:i]:
            raise InvalidInput(f"check {check!r} given twice")
    doc, ctx = _load(args.infile)
    # What the header decides comes first, in check order, so that a file
    # above a size cap is refused before its body is decoded.
    params = None
    for check in checks:
        if check == "identity":
            params = _params_from_provenance(doc)
            if params is None:
                raise MalformedFile("identity check needs thm1/thm2 provenance")
        else:
            vbf.check_size(ctx.n, check)
    f = _table(doc, ctx)
    report: dict = {"n": ctx.n, "checks": sorted(checks)}
    ok = True
    for check in checks:
        if check == "apn":
            delta, spec = vbf.differential_spectrum(f)
            report.update(delta=delta, diff_spectrum=spec)
            ok &= delta == 2
        elif check == "crooked":
            res = vbf.is_crooked(f)
            report["crooked"] = res.is_crooked
            if res.is_crooked and not args.summary:
                report["hyperplane_witnesses"] = _witnesses(res, args.json)
            if not res.is_crooked:
                report["crooked_failed_at"] = (
                    "apn" if res.failed_apn else format(res.failed_at, "x")
                )
            ok &= res.is_crooked
        elif check == "walsh":
            report.update(spectral.walsh_spectrum(f))
        else:  # identity
            good = families.proof_identity_check(f, params)
            report["identity"] = good
            ok &= good
    report["pass"] = ok
    _emit(_plain(report), args.json)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_invariants(args) -> int:
    doc, ctx = _load(args.infile)
    against = None if args.against == "gold-all" else _load(args.against, ctx)[0]
    if against is None and not families.gold_representatives(ctx.n):
        raise InvalidInput(f"gold-all: no Gold representative 1 <= s <= n/2 at n = {ctx.n}")
    with_ranks = args.depth == "ranks"
    # Both headers are checked, so the caps refuse before any body is decoded.
    vbf.check_size(ctx.n, *(("gamma", "delta") if with_ranks else ()), "apn", "walsh")
    f = _table(doc, ctx)
    if against is None:
        targets = ((f"gold-s{s}", vbf.from_multinomial(families.build_gold(ctx, s)))
                   for s in families.gold_representatives(ctx.n))
    else:
        targets = [(args.against, _table(against, ctx))]
    left = invariants.function_invariants(f, with_ranks)
    for label, g in targets:
        right = invariants.function_invariants(g, with_ranks)
        _emit({
            "against": label,
            "depth": "spectra+ranks" if with_ranks else "spectra",
            "left": _plain(left),
            "right": _plain(right),
            "verdict": invariants.compare(left, right),
        }, args.json)
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
    hits = families.search_params(ctx, args.family, budget=args.budget, seed=args.seed)
    for p in hits:
        _emit(_family_provenance(p), True)
    print(f"# {len(hits)} valid tuple(s)", file=sys.stderr)
    return EXIT_OK


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built by the first call and shared by every later
    one in the process."""
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


def entry() -> None:
    """`main` as a process (the `crooked` script, `python -m crooked.cli`),
    under SIGPIPE's default action: a reader that closes the pipe ends it as
    it ends `cat`, with no traceback. In-process `main` calls are unchanged."""
    import signal  # here, so that importing the CLI does not load it

    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
