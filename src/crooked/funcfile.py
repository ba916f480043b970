"""Persistent JSON format for functions: canonical, diff-friendly, and
round-trip stable. The only persistence format the CLI emits or reads."""

from __future__ import annotations

import json

from .errors import MalformedFile
from .field import MAX_DEGREE

SCHEMA_VERSION = 1


def serialize(doc: dict) -> str:
    """The canonical text of a function file: doc's keys, n and modulus as
    ints and the body as it is written, under the current schema_version."""
    doc = {**doc, "schema_version": SCHEMA_VERSION, "modulus": format(doc["modulus"], "x")}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _integer(value, what: str) -> int:
    if isinstance(value, (bool, float)):  # int() would read true as 1, 3.5 as 3
        raise MalformedFile(f"{what} = {json.dumps(value)} is not an integer")
    return int(value)


def parse(text: str) -> dict:
    """The document of a function file, with its header checked and read (n
    and modulus as ints, provenance {} when absent) and its body, a JSON
    list, left as written; the caller decodes the body over the field."""
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
        doc["modulus"] = int(doc["modulus"], 16)
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
