import numpy as np
import pytest

from crooked import cli, vbf
from crooked.errors import MalformedFile
from crooked.families import build_gold, build, search_params
from crooked.field import FieldCtx
from helpers import from_truthtable_repr


def test_multinomial_round_trip(tmp_path):
    # A constructed file reads back to the same text, and its terms to the
    # multinomial that was built.
    ctx = FieldCtx(6)
    p = search_params(ctx, "thm1", budget=1, seed=3)[0]
    path = tmp_path / "f.json"
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "3",
                     "--out", str(path)]) == 0
    text = path.read_text()
    back = cli.parse(text)
    assert cli.serialize(back) == text
    assert (back["n"], back["modulus"], back["provenance"]["family"]) == (6, ctx.modulus, "thm1")
    assert [(int(t["coeff"], 16), t["exp"]) for t in back["terms"]] == list(build(ctx, p).terms)


def test_truthtable_round_trip():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    text = cli.serialize(from_truthtable_repr(t))
    parsed = cli.parse(text)
    assert cli.serialize(parsed) == text
    assert (parsed["n"], parsed["modulus"]) == (t.ctx.n, t.ctx.modulus)
    assert np.array_equal(cli._table(parsed, ctx).values, t.values)


def test_serialize_is_canonical():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    ff = from_truthtable_repr(t)
    assert cli.serialize(ff) == cli.serialize(ff)


def read(text: str) -> vbf.TruthTable:
    """The table of a function file: its header by `parse`, its body by the
    CLI's body step."""
    doc = cli.parse(text)
    return cli._table(doc, FieldCtx(doc["n"], doc["modulus"]))


def test_parse_rejects_garbage():
    with pytest.raises(MalformedFile):
        cli.parse("not json at all {")
    with pytest.raises(MalformedFile):
        cli.parse('{"n": 4}')
    for top_level in ("[]", "5", '"x"', "null"):
        with pytest.raises(MalformedFile, match="not a JSON object"):
            cli.parse(top_level)
    with pytest.raises(MalformedFile):
        cli.parse(
            '{"n": 4, "modulus": "13", "representation": "weird"}'
        )
    # x^exp over GF(2^6), with n and exp as written: int() would read the
    # floats and booleans below as x^3, x^1 and n = 6.
    one_term = ('{"n": %s, "modulus": "43", "representation": "multinomial", '
                '"terms": [{"coeff": "1", "exp": %s}]}')
    cube = vbf.from_multinomial(vbf.multinomial(FieldCtx(6, 0x43), [(1, 3)])).values.tolist()
    assert read(one_term % ("6", "3")).values.tolist() == cube
    for n, exp in (("6", "3.5"), ("6", "true"), ("6.9", "3"), ("6.0", "3"), ("true", "3")):
        with pytest.raises(MalformedFile):
            read(one_term % (n, exp))
    # A missing schema_version means 1; any other version, or a non-integer
    # one that int() would read as 1, is refused.
    versioned = '{"schema_version": %s, ' + one_term[1:]
    assert read(versioned % ("1", "6", "3")).values.tolist() == cube
    for version in ("7", "0", "2", "true", "1.5"):
        with pytest.raises(MalformedFile, match="schema_version"):
            cli.parse(versioned % (version, "6", "3"))


def test_parse_rejects_short_table():
    with pytest.raises(MalformedFile):
        read('{"n": 4, "modulus": "13", "representation": "truthtable", "values": ["0", "1"]}')


def test_parse_refuses_a_body_that_is_not_a_list():
    # A string or an object would be iterated as its characters or keys:
    # "0132" as the table [0, 1, 3, 2], {"0": "x", "1": "y"} as [0, 1].
    table = '{"n": %s, "modulus": "%s", "representation": "truthtable", "values": %s}'
    terms = '{"n": 4, "modulus": "13", "representation": "multinomial", "terms": %s}'
    for text in (table % (2, "7", '"0132"'), table % (1, "3", '{"0": "x", "1": "y"}'),
                 terms % '"13"', terms % '{"coeff": "1", "exp": 3}'):
        with pytest.raises(MalformedFile, match="is not a JSON list"):
            cli.parse(text)


def test_hex_encoding_is_lowercase_no_prefix():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    text = cli.serialize(from_truthtable_repr(t))
    assert '"modulus":"13"' in text
    assert "0x" not in text
