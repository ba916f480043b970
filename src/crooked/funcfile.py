"""Persistent JSON format for functions: canonical, diff-friendly, and
round-trip stable. The only persistence format the CLI emits or reads."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .errors import MalformedFile
from .field import MAX_DEGREE, FieldCtx
from .vbf import Multinomial, TruthTable, from_multinomial, multinomial

SCHEMA_VERSION = 1


def _hex(v: int) -> str:
    return format(v, "x")


@dataclass
class FunctionFile:
    n: int
    modulus: int
    representation: str  # "multinomial" | "truthtable"
    terms: Optional[list] = None   # [(coeff, exp)] when multinomial
    values: Optional[list] = None  # length-2^n ints when truthtable
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    # Each reads the function over `ctx`, which the caller has checked is
    # the file's field (n, modulus), or over a new context for it.
    def to_multinomial(self, ctx: Optional[FieldCtx] = None) -> Multinomial:
        if self.representation != "multinomial":
            raise MalformedFile("file does not carry a multinomial")
        return multinomial(ctx or FieldCtx(self.n, self.modulus), self.terms)

    def to_truthtable(self, ctx: Optional[FieldCtx] = None) -> TruthTable:
        if self.representation == "multinomial":
            return from_multinomial(self.to_multinomial(ctx))
        return TruthTable(ctx or FieldCtx(self.n, self.modulus), self.values)


def from_multinomial_repr(m: Multinomial, provenance: Optional[dict] = None) -> FunctionFile:
    return FunctionFile(
        n=m.ctx.n,
        modulus=m.ctx.modulus,
        representation="multinomial",
        terms=[list(t) for t in m.terms],
        provenance=provenance or {},
    )


def serialize(ff: FunctionFile) -> str:
    doc = {
        "schema_version": ff.schema_version,
        "n": ff.n,
        "modulus": _hex(ff.modulus),
        "representation": ff.representation,
        "provenance": ff.provenance,
    }
    if ff.representation == "multinomial":
        doc["terms"] = [{"coeff": _hex(c), "exp": e} for c, e in ff.terms]
    else:
        doc["values"] = [_hex(v) for v in ff.values]
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _integer(value, what: str) -> int:
    if isinstance(value, (bool, float)):  # int() would read true as 1, 3.5 as 3
        raise MalformedFile(f"{what} = {json.dumps(value)} is not an integer")
    return int(value)


def parse(text: str) -> FunctionFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedFile(f"not valid JSON: {e}") from None
    try:
        n = _integer(doc["n"], "n")
        # Checked before anything is sized by 2^n.
        if not 1 <= n <= MAX_DEGREE:
            raise MalformedFile(f"n = {n} outside [1, {MAX_DEGREE}]")
        modulus = int(doc["modulus"], 16)
        rep = doc["representation"]
        if rep == "multinomial":
            terms = [(int(t["coeff"], 16), _integer(t["exp"], "exp")) for t in doc["terms"]]
            values = None
        elif rep == "truthtable":
            values = [int(v, 16) for v in doc["values"]]
            terms = None
            if len(values) != 1 << n:
                raise MalformedFile(f"truth table length {len(values)} != 2^{n}")
        else:
            raise MalformedFile(f"unknown representation {rep!r}")
        provenance = doc.get("provenance", {})
        if not isinstance(provenance, dict):
            raise MalformedFile("provenance is not a JSON object")
        return FunctionFile(
            n=n,
            modulus=modulus,
            representation=rep,
            terms=terms,
            values=values,
            provenance=provenance,
            schema_version=int(doc.get("schema_version", SCHEMA_VERSION)),
        )
    except MalformedFile:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise MalformedFile(f"bad function file: {e}") from None
