import numpy as np
import pytest

from crooked import funcfile, vbf
from crooked.errors import MalformedFile
from crooked.families import build_gold, build, search_params
from crooked.field import FieldCtx
from helpers import from_truthtable_repr


def test_multinomial_round_trip():
    ctx = FieldCtx(6)
    p = search_params(ctx, "thm1", budget=1, seed=3)[0]
    m = build(ctx, p)
    ff = funcfile.from_multinomial_repr(m, {"family": "thm1"})
    back = funcfile.parse(funcfile.serialize(ff))
    assert back.n == 6 and back.modulus == ctx.modulus
    assert vbf.multinomial(FieldCtx(back.n, back.modulus), back.terms).terms == m.terms
    assert back.provenance == {"family": "thm1"}


def test_truthtable_round_trip():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    ff = from_truthtable_repr(t)
    parsed = funcfile.parse(funcfile.serialize(ff))
    assert (parsed.n, parsed.modulus) == (t.ctx.n, t.ctx.modulus)
    assert np.array_equal(parsed.values, t.values)


def test_serialize_is_canonical():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    ff = from_truthtable_repr(t)
    assert funcfile.serialize(ff) == funcfile.serialize(ff)


def test_parse_rejects_garbage():
    with pytest.raises(MalformedFile):
        funcfile.parse("not json at all {")
    with pytest.raises(MalformedFile):
        funcfile.parse('{"n": 4}')
    for top_level in ("[]", "5", '"x"', "null"):
        with pytest.raises(MalformedFile, match="not a JSON object"):
            funcfile.parse(top_level)
    with pytest.raises(MalformedFile):
        funcfile.parse(
            '{"n": 4, "modulus": "13", "representation": "weird"}'
        )
    # x^exp over GF(2^6), with n and exp as written: int() would read the
    # floats and booleans below as x^3, x^1 and n = 6.
    one_term = ('{"n": %s, "modulus": "43", "representation": "multinomial", '
                '"terms": [{"coeff": "1", "exp": %s}]}')
    assert funcfile.parse(one_term % ("6", "3")).terms == [(1, 3)]
    for n, exp in (("6", "3.5"), ("6", "true"), ("6.9", "3"), ("6.0", "3"), ("true", "3")):
        with pytest.raises(MalformedFile):
            funcfile.parse(one_term % (n, exp))
    # A missing schema_version means 1; any other version, or a non-integer
    # one that int() would read as 1, is refused.
    versioned = '{"schema_version": %s, ' + one_term[1:]
    assert funcfile.parse(versioned % ("1", "6", "3")).terms == [(1, 3)]
    for version in ("7", "0", "2", "true", "1.5"):
        with pytest.raises(MalformedFile, match="schema_version"):
            funcfile.parse(versioned % (version, "6", "3"))


def test_parse_rejects_short_table():
    with pytest.raises(MalformedFile):
        funcfile.parse(
            '{"n": 4, "modulus": "13", "representation": "truthtable", "values": ["0", "1"]}'
        )


def test_hex_encoding_is_lowercase_no_prefix():
    ctx = FieldCtx(4)
    t = vbf.from_multinomial(build_gold(ctx, 1))
    text = funcfile.serialize(from_truthtable_repr(t))
    assert '"modulus":"13"' in text
    assert "0x" not in text
