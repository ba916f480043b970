import hashlib
import json
import os
import random
import re
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crooked import cli, gf2mat, invariants, vbf
from crooked.errors import DegreeMismatch, InfeasibleSize, InvalidInput, InvalidModulus, MalformedFile
from crooked.families import FamilyParams, search_params
from crooked.field import FieldCtx
from helpers import counts_of, derivative, emitted, from_truthtable_repr, witness_dict


def run_cli(*args, expect=None):
    proc = subprocess.run(
        [sys.executable, "-m", "crooked.cli", *args],
        capture_output=True,
        text=True,
    )
    if expect is not None:
        assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def test_construct_thm1_auto_and_verify(tmp_path):
    out = tmp_path / "f.json"
    run_cli(
        "construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
        "--out", str(out), expect=0,
    )
    assert cli.parse(out.read_text())["provenance"]["family"] == "thm1"
    run_cli(
        "verify", "--in", str(out), "--checks", "apn,crooked,identity",
        "--json", "--summary", expect=0,
    )


def test_construct_explicit_params(tmp_path):
    out = tmp_path / "g.json"
    run_cli(
        "construct", "--family", "thm1", "--n", "6",
        "--s", "2", "--t", "1", "--K", "0",
        "--c", "primitive", "--d", "primitive",
        "--out", str(out), expect=0,
    )
    f = cli._table(*cli._load(str(out)))
    assert vbf.is_crooked(f).is_crooked


def test_construct_gold_bad_s_exits_2():
    proc = run_cli("construct", "--family", "gold", "--n", "6", "--s", "2", expect=2)
    assert "gcd" in proc.stdout


def test_construct_invalid_params_lists_violations():
    proc = run_cli(
        "construct", "--family", "thm1", "--n", "6",
        "--s", "3", "--t", "1", "--K", "0", "--c", "1", "--d", "1",
        expect=2,
    )
    assert "gcd" in proc.stdout


def test_verify_non_apn_exits_1(tmp_path):
    ctx = FieldCtx(4)
    fifth = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 5)]))
    path = tmp_path / "x5.json"
    path.write_text(cli.serialize(from_truthtable_repr(fifth)))
    proc = run_cli("verify", "--in", str(path), "--checks", "apn", "--json", expect=1)
    report = json.loads(proc.stdout)
    assert report["delta"] == 4 and report["pass"] is False


def test_verify_malformed_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    run_cli("verify", "--in", str(path), "--checks", "apn", expect=3)


def test_invariants_self_and_mismatch(tmp_path):
    a = tmp_path / "a.json"
    run_cli("construct", "--family", "gold", "--n", "6", "--s", "1",
            "--out", str(a), expect=0)
    proc = run_cli("invariants", "--in", str(a), "--against", str(a),
                   "--json", expect=0)
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "indistinguishable-by-computed-invariants"

    b = tmp_path / "b.json"
    run_cli("construct", "--family", "gold", "--n", "4",
            "--modulus", "13", "--s", "1", "--out", str(b), expect=0)
    run_cli("invariants", "--in", str(a), "--against", str(b), expect=5)


def test_invariants_rank_cutoff_exits_4(tmp_path):
    a = tmp_path / "a12.json"
    run_cli("construct", "--family", "gold", "--n", "12", "--s", "1",
            "--out", str(a), expect=0)
    run_cli("invariants", "--in", str(a), "--against", str(a),
            "--depth", "ranks", expect=4)


def test_invariants_gold_all_reports(tmp_path):
    a = tmp_path / "t1.json"
    run_cli("construct", "--family", "thm1", "--n", "6", "--auto",
            "--out", str(a), expect=0)
    proc = run_cli("invariants", "--in", str(a), "--against", "gold-all",
                   "--json", expect=0)
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    assert len(lines) == 1  # n = 6 has a single Gold class
    assert lines[0]["against"] == "gold-s1"


def test_search_deterministic_and_exit_codes():
    p1 = run_cli("search", "--family", "thm1", "--n", "6", "--budget", "3",
                 "--seed", "7", expect=0)
    p2 = run_cli("search", "--family", "thm1", "--n", "6", "--budget", "3",
                 "--seed", "7", expect=0)
    assert p1.stdout == p2.stdout
    assert len(p1.stdout.splitlines()) == 3
    run_cli("search", "--family", "thm1", "--n", "7", expect=2)
    # A budget below 1 would print no tuple, as if none existed: refused.
    empty = run_cli("search", "--family", "thm1", "--n", "6", "--budget", "0",
                    expect=2)
    assert empty.stdout == "" and empty.stderr == "--budget 0 is below 1\n"


def test_absent_flags_take_their_documented_defaults(capsys):
    # Each pair differs only in whether the defaults are spelled out.
    pairs = [
        (("construct", "--family", "thm1", "--n", "6", "--K", "0"),
         ("--s", "1", "--t", "0", "--c", "primitive", "--d", "primitive", "--r", "0,0",
          "--seed", "0", "--modulus", "43")),
        (("search", "--family", "thm1", "--n", "6", "--budget", "2"), ("--seed", "0", "--modulus", "43")),
    ]
    for argv, defaults in pairs:
        outputs = []
        for args in (argv, argv + defaults):
            assert cli.main(list(args)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]


def test_construct_byte_identical_across_runs():
    args = ["construct", "--family", "thm2", "--n", "6", "--auto", "--seed", "9"]
    assert run_cli(*args, expect=0).stdout == run_cli(*args, expect=0).stdout


def test_resolve_primitive_stops_at_the_element_it_returns():
    # The (seed mod phi(2^n - 1))-th primitive element of the ascending scan
    # is the one the list of every primitive element gives.
    for n in range(1, 11):
        ctx = FieldCtx(n)
        prims = [v for v in range(1, ctx.order) if ctx.is_primitive(v)]
        for seed in (0, 1, 7, 1000):
            assert cli._resolve_elem(ctx, "primitive", seed) == prims[seed % len(prims)], (n, seed)


# The README flagship; m = 6 is even, so the instance is not APN.
FLAGSHIP = ("construct", "--family", "thm1", "--n", "12", "--s", "8", "--t", "1",
            "--K", "0", "--c", "primitive", "--d", "primitive")
# sha256 of its canonical output; the warning must leave the bytes as they were.
FLAGSHIP_SHA256 = "f180a6beb5af8c8f86bc8146c889923d78034a5a52a1c55f277a3e4c7457d71c"


def test_construct_flagship_warns_not_apn(tmp_path, capsys):
    proc = run_cli(*FLAGSHIP, expect=0)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: ")
    assert "not APN" in lines[0] and "delta = 2^m = 64" in lines[0]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == FLAGSHIP_SHA256
    # In one process the warning is relayed on every call, and --out writes
    # the same bytes.
    out = tmp_path / "g.json"
    for _ in range(2):
        assert cli.main([*FLAGSHIP, "--out", str(out)]) == 0
        got = capsys.readouterr()
        assert got.out == "" and got.err == lines[0] + "\n"
        assert out.read_bytes() == proc.stdout.encode()


def test_construct_flagship_tests_each_element_for_primitivity_once(tmp_path, monkeypatch, capsys):
    # --c primitive, --d primitive and the field's exp table all read the
    # context's one scan for primitive elements.
    tested = []
    is_primitive = FieldCtx.is_primitive
    monkeypatch.setattr(FieldCtx, "is_primitive", lambda ctx, a: tested.append(a) or is_primitive(ctx, a))
    assert cli.main([*FLAGSHIP, "--out", str(tmp_path / "f.json")]) == 0
    assert tested and len(tested) == len(set(tested))
    capsys.readouterr()


def test_construct_odd_half_degree_no_warning():
    proc = run_cli("construct", "--family", "thm1", "--n", "6", "--auto", expect=0)
    assert proc.stderr == ""


# Stand-ins for n = 6 thm1 files whose provenance lacks m (None), has a
# value replaced or is replaced whole (key None), for n = 6 Gold truth-table
# files with entry 1, n or schema_version replaced, for an n = 6 Gold file, for a file that
# does not exist, for a file that is not UTF-8, and for a path in a directory
# that does not exist.
NO_M, C_FFF, M_5 = "<no-m>", "<c=fff>", "<m=5>"
K_NEG, K_A, S_99, S_6 = "<K=[-1]>", "<K=[a]>", "<s=99>", "<s=6>"
PROV_5, PROV_LIST, PROV_STR = "<provenance=5>", "<provenance=[]>", "<provenance='x'>"
M_3_0, S_5_9, T_TRUE, S_STR = "<m=3.0>", "<s=5.9>", "<t=true>", "<s='4'>"
R_STR, R_OBJECT = "<r='0000'>", "<r={a:1}>"
PROVENANCE_EDITS = {NO_M: ("m", None), C_FFF: ("c", "fff"), M_5: ("m", 5),
                    K_NEG: ("K", [-1]), K_A: ("K", ["a"]), S_99: ("s", 99), S_6: ("s", 6),
                    PROV_5: (None, 5), PROV_LIST: (None, []), PROV_STR: (None, "x"),
                    M_3_0: ("m", 3.0), S_5_9: ("s", 5.9), T_TRUE: ("t", True), S_STR: ("s", "4"),
                    R_STR: ("r", "0000"), R_OBJECT: ("r", {"a": 1})}
ENTRY_NEG, ENTRY_BIG, ENTRY_2_80 = "<entry=-1>", "<entry=100000000>", "<entry=16^20>"
N_2_40, N_10_30, VERSION_7 = "<n=2^40>", "<n=10^30>", "<schema_version=7>"
N_STR, VERSION_STR = "<n=Arabic-Indic '6'>", "<schema_version='1'>"
VALUES_OBJECT, VALUES_STR = "<values={0: y, ..., 3f: y}>", "<values=0123...ef>"
TABLE_EDITS = {ENTRY_NEG: ("entry", "-1"), ENTRY_BIG: ("entry", "100000000"),
               ENTRY_2_80: ("entry", "1" + "0" * 20),
               N_2_40: ("n", 1 << 40), N_10_30: ("n", 10 ** 30), VERSION_7: ("schema_version", 7),
               N_STR: ("n", "\u0666"), VERSION_STR: ("schema_version", "1"),
               # Iterated, their 64 keys or characters would read as a table at n = 6.
               VALUES_OBJECT: ("values", {format(x, "x"): "y" for x in range(64)}),
               VALUES_STR: ("values", "0123456789abcdef" * 4)}
GOLD, MISSING, NOT_UTF8, NO_DIR = "<gold>", "<missing>", "<not-utf-8>", "<no-dir>"
TOP_LIST, TOP_NUMBER = "<[]>", "<5>"
# The identity on GF(2), and a file whose header says n = 1 over a body
# that is not a table at all; x^3 on GF(2^6) with its exponent a string.
N_1, N_1_BAD_BODY, EXP_STR = "<n=1>", "<n=1, values=[z]>", "<exp='3'>"
_N_1 = b'{"n": 1, "modulus": "3", "representation": "truthtable", "values": %s}'
RAW_FILES = {NOT_UTF8: b"\xff\xfe\x00", TOP_LIST: b"[]", TOP_NUMBER: b"5",
             N_1: _N_1 % b'["0", "1"]', N_1_BAD_BODY: _N_1 % b'["z"]',
             EXP_STR: b'{"n": 6, "modulus": "43", "representation": "multinomial",'
                      b' "terms": [{"coeff": "1", "exp": "3"}]}'}


def _thm1_file_with(path, key, value):
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto",
                     "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    if key is None:
        doc["provenance"] = value
    elif value is None:
        del doc["provenance"][key]
    else:
        doc["provenance"][key] = value
    path.write_text(json.dumps(doc))


def _gold_table_file_with(path, key, value):
    gold = vbf.from_multinomial(vbf.multinomial(FieldCtx(6), [(1, 3)]))
    doc = json.loads(cli.serialize(from_truthtable_repr(gold)))
    if key == "entry":
        doc["values"][1] = value
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))


# A hex field respelled in each way int(text, 16) reads but `serialize`
# never writes: space, 0x, +, _, leading zero, uppercase and an Arabic-Indic
# digit. The modulus and a coeff are respelled in a*x^3 over 5b, provenance
# c, d and r[0] in a thm1 file over 67, so that each canonical value holds a
# letter and a digit; that value is the control, which verifies.
HEX_THM1 = ("--modulus", "67", "--s", "2", "--t", "1", "--K", "0", "--c", "1a", "--d", "2e",
            "--r", "3a,3b")
HEX_FIELDS = {"modulus": "5b", "coeff": "2b", "c": "1a", "d": "2e", "r": "3a"}
HEX_SPELLINGS = [lambda v: " " + v, lambda v: "0x" + v, lambda v: "+" + v,
                 lambda v: v[0] + "_" + v[1:], lambda v: "0" + v, str.upper,
                 lambda v: "".join(chr(0x660 + int(c)) if c.isdigit() else c for c in v)]
HEX_EDITS = {f"<{key}={value!r}>": (key, value)
             for key, canonical in HEX_FIELDS.items()
             for value in [canonical] + [respell(canonical) for respell in HEX_SPELLINGS]}


def _hex_file_with(path, key, value):
    if key in ("modulus", "coeff"):
        doc = {"n": 6, "modulus": "5b", "representation": "multinomial",
               "terms": [{"coeff": "2b", "exp": 3}]}
    else:
        assert cli.main(["construct", "--family", "thm1", "--n", "6", *HEX_THM1,
                         "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
    prov = doc.get("provenance", {})
    holder, slot = {"modulus": (doc, key), "coeff": (doc["terms"][0], key),
                    "r": (prov.get("r"), 0)}.get(key, (prov, key))
    holder[slot] = value
    path.write_text(json.dumps(doc))


def _hex_case(key, value):
    checks = "apn" if key in ("modulus", "coeff") else "identity"
    argv = ("verify", "--in", f"<{key}={value!r}>", "--checks", checks, "--json")
    if value == HEX_FIELDS[key]:
        return argv, 0, "out", '"pass":true'
    what = key if checks == "apn" else f"thm1 provenance {key}"
    return argv, 3, "err", f"{what} = {json.dumps(value)} is not lowercase hex"


# argv (with a stand-in above for an edited file), exit code, the stream
# that carries the one-line message, and a part of that line.
EXIT_CASES = [
    # An empty flag value is refused, not read as the flag's default.
    (("construct", "--family", "gold", "--n", "6", "--modulus", ""), 2, "err", "with base 16: ''"),
    (("construct", "--family", "thm1", "--n", "6", "--K", ""), 2, "err", "with base 10: ''"),
    (("construct", "--family", "thm1", "--n", "6", "--r", ""), 2, "err", "with base 16: ''"),
    (("construct", "--family", "thm1", "--n", "6", "--c", ""), 2, "err", "with base 16: ''"),
    (("construct", "--family", "ref7", "--n", "6", "--d", ""), 2, "err", "with base 16: ''"),
    (("construct", "--family", "gold", "--n", "6", "--out", ""), 2, "err", "cannot write --out"),
    (("search", "--family", "thm1", "--n", "6", "--modulus", ""), 2, "err", "with base 16: ''"),
    # GF(2) has no Gold representative 1 <= s <= n/2 to compare against,
    # which the header tells before the body is decoded.
    (("invariants", "--in", N_1, "--against", "gold-all"), 2, "err", "at n = 1"),
    (("invariants", "--in", N_1_BAD_BODY, "--against", "gold-all", "--json"), 2, "err", "at n = 1"),
    (("invariants", "--in", N_1, "--against", N_1, "--json"), 0, "out",
     '"verdict":"indistinguishable-by-computed-invariants"'),
    (("construct", "--family", "thm1", "--n", "6", "--c", "zz"), 2, "err", "'zz'"),
    (("construct", "--family", "thm1", "--n", "6", "--d", "zz"), 2, "err", "'zz'"),
    (("construct", "--family", "thm1", "--n", "6", "--K", "0,a"), 2, "err", "'a'"),
    (("construct", "--family", "thm1", "--n", "6", "--r", "zz,0"), 2, "err", "'zz'"),
    (("construct", "--family", "gold", "--n", "6", "--modulus", "zz"), 2, "err", "'zz'"),
    (("search", "--family", "thm1", "--n", "6", "--modulus", "zz"), 2, "err", "'zz'"),
    (("construct", "--family", "ref7", "--n", "6", "--c", "1ff"), 2, "err", "outside GF(2^6)"),
    (("construct", "--family", "ref7", "--n", "12"), 2, "out", "m = 6 is even"),
    (("construct", "--family", "ref7", "--n", "6", "--s", "2"), 2, "out", "s = 2 is even"),
    (("construct", "--family", "ref7", "--n", "6", "--s", "99"), 2, "out", "s = 99 is outside"),
    (("construct", "--family", "gold", "--n", "6", "--s", "7"), 2, "out",
     "s = 7 is outside [1, n-1] = [1, 5]"),
    (("construct", "--family", "gold", "--n", "6", "--s", "0"), 2, "out",
     "s = 0 is outside [1, n-1] = [1, 5]"),
    (("construct", "--family", "thm1", "--n", "6", "--s", "7", "--t", "0", "--K", "0",
      "--c", "primitive", "--d", "primitive"), 2, "out", "requires s < n = 6"),
    (("verify", "--in", NO_M, "--checks", "identity"), 3, "err", "'m'"),
    (("verify", "--in", C_FFF, "--checks", "identity"), 3, "err", "outside GF(2^6)"),
    (("verify", "--in", M_5, "--checks", "identity"), 3, "err", "m = 5"),
    (("verify", "--in", K_NEG, "--checks", "identity"), 3, "err", "K within [0, n-1]"),
    (("verify", "--in", K_A, "--checks", "identity"), 3, "err", "K within [0, n-1]"),
    (("verify", "--in", S_99, "--checks", "identity"), 3, "err", "0 <= t < s < n"),
    (("verify", "--in", S_6, "--checks", "identity"), 3, "err", "0 <= t < s < n"),
    # int() would read 3.0 as 3, 5.9 as 5 and true as 1.
    (("verify", "--in", M_3_0, "--checks", "identity"), 3, "err", "thm1 provenance m = 3.0 is not an integer"),
    (("verify", "--in", S_5_9, "--checks", "identity"), 3, "err", "thm1 provenance s = 5.9 is not an integer"),
    (("verify", "--in", T_TRUE, "--checks", "identity"), 3, "err", "thm1 provenance t = true is not an integer"),
    # int() would read these strings as integers, "\u0666" (an Arabic-Indic 6) too.
    (("verify", "--in", S_STR, "--checks", "identity"), 3, "err", 'thm1 provenance s = "4" is not an integer'),
    (("verify", "--in", N_STR, "--checks", "apn"), 3, "err", 'n = "\\u0666" is not an integer'),
    (("verify", "--in", VERSION_STR, "--checks", "apn"), 3, "err", 'schema_version = "1" is not an integer'),
    (("verify", "--in", EXP_STR, "--checks", "apn"), 3, "err", 'exp = "3" is not an integer'),
    # tuple() would read a string as its characters and an object as its keys.
    (("verify", "--in", R_STR, "--checks", "identity"), 3, "err",
     'thm1 provenance lacks or garbles r = "0000", which is not a list'),
    (("verify", "--in", R_OBJECT, "--checks", "identity"), 3, "err",
     'thm1 provenance lacks or garbles r = {"a": 1}, which is not a list'),
    (("verify", "--in", PROV_5, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_5, "--checks", "apn"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_LIST, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_STR, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", ENTRY_NEG, "--checks", "apn"), 3, "err", "outside the field"),
    (("verify", "--in", ENTRY_BIG, "--checks", "apn"), 3, "err", "outside the field"),
    # Beyond int64, which the table is parsed into.
    (("verify", "--in", ENTRY_2_80, "--checks", "apn"), 3, "err", "table entry outside the field"),
    (("invariants", "--in", ENTRY_BIG, "--against", "gold-all"), 3, "err",
     "outside the field"),
    # Refused before the table length 2^n is computed.
    (("verify", "--in", N_2_40, "--checks", "apn"), 3, "err", "outside [1, 24]"),
    (("verify", "--in", N_10_30, "--checks", "apn"), 3, "err", "outside [1, 24]"),
    (("construct", "--family", "thm1", "--n", "7"), 2, "out", "n must be even"),
    (("construct", "--family", "thm1", "--n", "7", "--auto"), 2, "out", "n must be even"),
    (("construct", "--family", "thm2", "--n", "7", "--auto"), 2, "out", "n must be even"),
    (("construct", "--family", "thm2", "--n", "8", "--auto"), 2, "out", "no valid parameters"),
    (("construct", "--family", "ref7", "--n", "7"), 2, "out", "n must be even"),
    (("construct", "--family", "ref7", "--n", "1"), 2, "out", "n must be even"),
    # An odd n is refused before the field is built, as search refuses it.
    (("construct", "--family", "thm1", "--n", "7", "--modulus", "zz"), 2, "out", "n must be even"),
    (("construct", "--family", "thm1", "--n", "25"), 2, "out", "n must be even"),
    # An unparsable flag is reported before a violated hypothesis.
    (("construct", "--family", "ref7", "--n", "6", "--s", "2", "--c", "zz"), 2, "err", "'zz'"),
    (("verify", "--in", GOLD, "--checks", "apn,nope"), 2, "err", "unknown check 'nope'"),
    (("verify", "--in", MISSING, "--checks", "apn,walsh,apn"), 2, "err", "check 'apn' given twice"),
    (("verify", "--in", VERSION_7, "--checks", "apn"), 3, "err", "schema_version = 7 is not 1"),
    (("verify", "--in", VALUES_OBJECT, "--checks", "apn"), 3, "err", "values is not a JSON list"),
    (("verify", "--in", VALUES_STR, "--checks", "apn"), 3, "err", "values is not a JSON list"),
    (("verify", "--in", GOLD, "--checks", "identity"), 3, "err", "thm1/thm2 provenance"),
    (("invariants", "--in", MISSING, "--against", "gold-all"), 3, "err", "No such file"),
    (("search", "--family", "thm1", "--n", "7"), 2, "out", "n must be even"),
    (("search", "--family", "thm1", "--n", "6", "--budget", "0"), 2, "err", "--budget 0 is below 1"),
    (("search", "--family", "thm1", "--n", "6", "--budget", "-1"), 2, "err", "--budget -1 is below 1"),
    (("verify", "--in", NOT_UTF8, "--checks", "apn"), 3, "err", "'utf-8' codec"),
    (("verify", "--in", TOP_LIST, "--checks", "apn"), 3, "err", "not a JSON object"),
    (("verify", "--in", TOP_NUMBER, "--checks", "apn"), 3, "err", "not a JSON object"),
    (("construct", "--family", "gold", "--n", "6", "--out", NO_DIR), 2, "err",
     "cannot write --out"),
    # A flag the family or --auto does not read is refused, not ignored.
    (("construct", "--family", "thm1", "--n", "6", "--auto", "--K", "0,3", "--s", "5", "--c", "7"),
     2, "err", "construct --family thm1 --auto does not read --s, --K, --c"),
    (("construct", "--family", "gold", "--n", "6", "--auto", "--K", "0,3", "--r", "5", "--t", "2"),
     2, "err", "construct --family gold does not read --t, --K, --r, --auto"),
    (("construct", "--family", "thm2", "--n", "6", "--auto", "--s", "1"), 2, "err",
     "construct --family thm2 --auto does not read --s"),
    (("construct", "--family", "ref7", "--n", "6", "--t", "0", "--r", "1"), 2, "err",
     "construct --family ref7 does not read --t, --r"),
    (("construct", "--family", "gold", "--n", "6", "--d", "2"), 2, "err",
     "construct --family gold does not read --d"),
]
EXIT_CASES += [_hex_case(key, value) for key, value in HEX_EDITS.values()]


@pytest.mark.parametrize("argv, code, stream, part", EXIT_CASES,
                         ids=[" ".join(row[0]) for row in EXIT_CASES])
def test_documented_exit_codes(argv, code, stream, part, tmp_path, capsys):
    path = tmp_path / "f.json"
    if GOLD in argv:
        assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(path)]) == 0
    for stand_in, raw in RAW_FILES.items():
        if stand_in in argv:
            path.write_bytes(raw)
    for stand_in, (key, value) in PROVENANCE_EDITS.items():
        if stand_in in argv:
            _thm1_file_with(path, key, value)
    for stand_in, (key, value) in TABLE_EDITS.items():
        if stand_in in argv:
            _gold_table_file_with(path, key, value)
    for stand_in, (key, value) in HEX_EDITS.items():
        if stand_in in argv:
            _hex_file_with(path, key, value)
    capsys.readouterr()
    argv = tuple(str(tmp_path / "no-dir" / "f.json") if a == NO_DIR
                 else str(path) if a in (GOLD, MISSING, *RAW_FILES, *PROVENANCE_EDITS, *TABLE_EDITS,
                                          *HEX_EDITS)
                 else a for a in argv)
    assert cli.main(list(argv)) == code
    got = capsys.readouterr()
    message, other = (got.err, got.out) if stream == "err" else (got.out, got.err)
    assert len(message.splitlines()) == 1 and part in message and other == ""


# Inputs that once made the F_2[x] helpers loop for good, as they never end
# on a negative operand. Each runs in a subprocess, so that a hang fails.
NEG_MODULUS = "<modulus=-13>"
HANG_CASES = [
    (("construct", "--family", "gold", "--n", "4", "--modulus", "-13"), 2, "modulus -0x13 is negative"),
    # Refused as negative before its degree, which has the wrong bit length.
    (("construct", "--family", "gold", "--n", "4", "--modulus", "-5"), 2, "modulus -0x5 is negative"),
    (("search", "--family", "thm1", "--n", "6", "--modulus", "-43"), 2, "modulus -0x43 is negative"),
    # A file's modulus is refused by the hex grammar, before any F_2[x] arithmetic.
    (("verify", "--in", NEG_MODULUS, "--checks", "apn"), 3, 'modulus = "-13" is not lowercase hex'),
    (("invariants", "--in", NEG_MODULUS, "--against", "gold-all"), 3,
     'modulus = "-13" is not lowercase hex'),
    (("construct", "--family", "ref7", "--n", "6", "--d", "-5"), 2, "-0x5 outside GF(2^6)"),
]


@pytest.mark.parametrize("argv, code, message", HANG_CASES,
                         ids=[" ".join(row[0]) for row in HANG_CASES])
def test_negative_inputs_are_refused(argv, code, message, tmp_path):
    path = tmp_path / "f.json"
    if NEG_MODULUS in argv:
        assert cli.main(["construct", "--family", "gold", "--n", "4", "--out", str(path)]) == 0
        doc = json.loads(path.read_text())
        doc["modulus"] = "-13"
        path.write_text(json.dumps(doc))
    argv = [str(path) if a == NEG_MODULUS else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "crooked.cli", *argv],
                          capture_output=True, text=True, timeout=20)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", message + "\n")


@pytest.mark.parametrize("error, code", [
    (MalformedFile, 3), (InfeasibleSize, 4), (DegreeMismatch, 5), (InvalidInput, 2),
    (InvalidModulus, 2),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_refusal_exit_code_table(error, code, tmp_path, monkeypatch, capsys):
    # main maps each refusal a command raises to its exit code, with its
    # message as one line on stderr; any other CrookedError exits 2.
    def refuse(f):
        raise error("refused")

    path = tmp_path / "gold.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(path)]) == 0
    monkeypatch.setattr(vbf, "differential_spectrum", refuse)
    assert cli.main(["verify", "--in", str(path), "--checks", "apn"]) == code
    assert capsys.readouterr() == ("", "refused\n")


def test_search_even_m_warns():
    # m = 4: every first-family tuple is non-APN and the second family is
    # empty; stdout and the exit code are as without the warning.
    thm1 = run_cli("search", "--family", "thm1", "--n", "8", "--budget", "2", "--seed", "1",
                   expect=0)
    assert len(thm1.stdout.splitlines()) == 2
    assert thm1.stderr.splitlines() == [
        "warning: m = 4 is even: no first-family tuple is APN (see FamilyParams)",
        "# 2 valid tuple(s)",
    ]
    thm2 = run_cli("search", "--family", "thm2", "--n", "8", "--budget", "2", expect=0)
    assert thm2.stdout == ""
    warning, count = thm2.stderr.splitlines()
    assert warning.startswith("warning: m = 4 is even: the second family is empty")
    assert count == "# 0 valid tuple(s)"
    odd = run_cli("search", "--family", "thm1", "--n", "6", "--budget", "1", expect=0)
    assert odd.stderr == "# 1 valid tuple(s)\n"


# sha256 of the stdout of each command on the constructed file: the verify
# with its hyperplane witnesses as computed before the GF(2) elimination was
# rewritten, the Walsh spectrum and the Gold comparison as computed before
# the trace form moved into the field context, the full family verify as
# computed before the identity check stopped sampling pairs, and the other
# forms of the Gold comparison as computed while each side passed through
# two record types.
PINNED_SHA256 = {
    ("gold", "--n", "10", "--s", "1"): {
        ("verify", "--checks", "apn,crooked", "--json"):
            "31e9b62166d469169d578fcf3e833adba226cfe8c26f4ccb83e0b317c6b2b3f9",
        ("verify", "--checks", "walsh", "--json"):
            "b9949673a831fd9f9daf3e1b50cfe55741a82674a0124ab2cde39f808ff8e410",
        ("invariants", "--against", "gold-all", "--json"):
            "858d42c6703d4043de48acd74cf22f994f443d6fb21f098167c33c1c10624644",
    },
    ("thm1", "--n", "6", "--auto", "--seed", "1"): {
        ("verify", "--checks", "apn,crooked", "--json"):
            "82db512de8151766a10ae7e4ca9824478e0709ac9191820b41a83a0854d75b92",
        ("verify", "--checks", "walsh", "--json"):
            "a2d8aa61f78a3a8097dbd15c283ac1c711f1b904e35156d8a247812530e046de",
        ("invariants", "--against", "gold-all", "--json"):
            "65a0b2d844e28f54c7fb9bdae43c1dbd255ac186ca5e7ddb4897e970c6c931f2",
        ("verify", "--checks", "apn,crooked,walsh,identity", "--json"):
            "b7a2eb2eac037e99f20872604dc769236d5003c4b141c5576132831fb71f1cc6",
        ("invariants", "--against", "gold-all"):
            "ac2f72b9019ca979c7fdb7848a585e466e982a85181218279695d8e556401c7f",
        ("invariants", "--against", "gold-all", "--depth", "ranks"):
            "0e042884f8bd8a52caca08e1d5e472a0682b4b57f45c074a06d5747ff1a542f2",
        ("invariants", "--against", "gold-all", "--depth", "ranks", "--json"):
            "ff332c0f4cc16067b134d1d6aaf547f35bf9fb81ef37d8015310c39db49a0230",
    },
}


@pytest.mark.parametrize("flags", list(PINNED_SHA256), ids=" ".join)
def test_verify_witnesses_pinned(flags, tmp_path):
    # Each command gives the same bytes on the constructed multinomial file
    # and on its truth table with the same provenance.
    path, table = tmp_path / "f.json", tmp_path / "t.json"
    run_cli("construct", "--family", *flags, "--out", str(path), expect=0)
    provenance = cli.parse(path.read_text())["provenance"]
    table.write_text(cli.serialize(from_truthtable_repr(cli._table(*cli._load(str(path))), provenance)))
    for (command, *rest), digest in PINNED_SHA256[flags].items():
        for infile in (path, table):
            proc = run_cli(command, "--in", str(infile), *rest, expect=0)
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, (infile.name, rest)


# sha256 of `verify --checks apn,crooked,walsh,identity --json` on
# `construct --family thm1 --n 14 --auto --seed 1`, as computed while each
# crooked witness was built as its own object.
THM1_N14_SHA256 = "f239dd821338f55106ffdf0c1aedd95d579245f56cf6f58062554e77ffa43464"


def test_thm1_n14_verify_pinned(tmp_path):
    path = tmp_path / "f.json"
    run_cli("construct", "--family", "thm1", "--n", "14", "--auto", "--seed", "1",
            "--out", str(path), expect=0)
    proc = run_cli("verify", "--in", str(path), "--checks", "apn,crooked,walsh,identity",
                   "--json", expect=0)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == THM1_N14_SHA256
    # The arrays is_crooked returns hold each direction's hyperplane_of.
    f = cli._table(*cli._load(str(path)))
    assert f.path == ("quadratic", None)
    rep = vbf.is_crooked(f)
    for a in random.Random(14).sample(range(1, f.ctx.order), 64):
        got = (int(rep.b[a - 1]), int(rep.eps[a - 1]))
        assert got == vbf.hyperplane_of(f.ctx, counts_of(f.ctx, derivative(f, a))), a


# sha256 of `verify --checks apn,crooked,walsh --json` on
# `construct --family thm1 --n 16 --auto --seed 1`, as computed while the
# batched elimination kept its rows fully reduced. m = 8 is even, so f is not
# APN (exit 1): its derivative and symplectic systems are rank-deficient, at
# the largest n the checks allow.
THM1_N16_SHA256 = "5f337725e6fdea2b341bb57596398f55fe7d04260941e3023b45a2b3cf80ebef"


def test_thm1_n16_verify_pinned(tmp_path):
    path = tmp_path / "f.json"
    run_cli("construct", "--family", "thm1", "--n", "16", "--auto", "--seed", "1",
            "--out", str(path), expect=0)
    proc = run_cli("verify", "--in", str(path), "--checks", "apn,crooked,walsh", "--json", expect=1)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == THM1_N16_SHA256


# sha256 of the stdout of `search --n 10 --budget 5 --seed 1` as computed
# while K was filtered by a GF(2) rank: the seeded shuffle runs over the
# filtered K list, so these pin the filter's answers and their order.
SEARCH_SHA256 = {
    "thm1": "82c3e689ed2af903c7dc962d5a3b6c3383c4a60930620e123abb5e9c25721710",
    "thm2": "0af1994ffce0fdb8350d9564f274480144199ccfccfc3736354130755010bc4a",
}


@pytest.mark.parametrize("family", list(SEARCH_SHA256))
def test_search_pinned(family):
    proc = run_cli("search", "--family", family, "--n", "10", "--budget", "5", "--seed", "1",
                   expect=0)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == SEARCH_SHA256[family]


@pytest.mark.parametrize("family", ["thm1", "thm2"])
def test_provenance_round_trip(family, tmp_path):
    # The tuple a construct --auto file records reads back as the tuple the
    # search gave, family included.
    path = tmp_path / "f.json"
    for n in (6, 10):
        ctx = FieldCtx(n)
        for seed in range(3):
            argv = ["construct", "--family", family, "--n", str(n), "--auto",
                    "--seed", str(seed), "--out", str(path)]
            assert cli.main(argv) == 0
            p = cli._params_from_provenance(cli.parse(path.read_text()))
            assert p == search_params(ctx, family, 1, seed)[0]
    # Elements of several hex digits, each with a digit a wrong base would misread.
    p = FamilyParams(family, 5, 3, 1, (0, 2), 0x3a1, 0x2ff, (0x1b, 0, 0, 0x10))
    assert cli._params_from_provenance({"n": 10, "provenance": cli._family_provenance(p)}) == p


def test_invariants_refuses_before_any_spectrum(tmp_path, monkeypatch, capsys):
    # A field mismatch (exit 5) and the rank cap (exit 4) are reported
    # before either function's spectra are computed.
    def no_spectrum(f):
        raise AssertionError("a spectrum was computed")

    monkeypatch.setattr(invariants, "differential_spectrum", no_spectrum)
    monkeypatch.setattr(invariants, "walsh_spectrum", no_spectrum)
    big, small = tmp_path / "big.json", tmp_path / "small.json"
    assert cli.main(["construct", "--family", "gold", "--n", "8", "--out", str(big)]) == 0
    assert cli.main(["construct", "--family", "gold", "--n", "4", "--out", str(small)]) == 0
    capsys.readouterr()
    assert cli.main(["invariants", "--in", str(big), "--against", str(small)]) == 5
    assert capsys.readouterr().err == "functions live over different fields\n"
    argv = ["invariants", "--in", str(big), "--against", "gold-all", "--depth", "ranks"]
    assert cli.main(argv) == 4
    assert capsys.readouterr().err == "gamma rank capped at n=7\n"


def test_identity_checks_the_file_not_its_provenance(tmp_path, capsys):
    # A coefficient edited in the file, with the provenance kept, fails the
    # identity; the unedited file passes it.
    path = tmp_path / "f.json"
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
                     "--out", str(path)]) == 0
    argv = ["verify", "--in", str(path), "--checks", "identity", "--json"]
    assert cli.main(argv) == 0
    assert '"identity":true' in capsys.readouterr().out
    doc = json.loads(path.read_text())
    assert doc["terms"][0]["coeff"] == "2"
    doc["terms"][0]["coeff"] = "1"
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert '"identity":false' in capsys.readouterr().out


def test_verify_certifies_the_path_once(tmp_path, monkeypatch, capsys):
    # Every check of one verify reads the path its table has cached.
    calls = {"power_exponent": 0, "has_degree_at_most_2": 0}
    for name in calls:
        def counted(f, name=name, original=getattr(vbf, name)):
            calls[name] += 1
            return original(f)

        monkeypatch.setattr(vbf, name, counted)
    path = tmp_path / "f.json"
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
                     "--out", str(path)]) == 0
    argv = ["verify", "--in", str(path), "--checks", "apn,crooked,walsh,identity", "--json"]
    assert cli.main(argv) == 0
    assert calls == {"power_exponent": 1, "has_degree_at_most_2": 1}
    assert '"pass":true' in capsys.readouterr().out


def test_verify_sweeps_the_differential_spectrum_once(tmp_path, monkeypatch, capsys):
    # The apn and crooked checks read one derivative sweep. On a quadratic
    # APN input, verify runs one batched elimination, of the derivatives,
    # and the Walsh check reads its radicals off that sweep's normals; a
    # non-APN quadratic input adds one of the symplectic matrices.
    sweeps, eliminations = [], []

    def counted(f, original=vbf._derivative_sweep):
        sweeps.append(f)
        return original(f)

    def counted_elimination(*args, original=gf2mat.rank_and_normal_batched):
        eliminations.append(args)
        return original(*args)

    monkeypatch.setattr(vbf, "_derivative_sweep", counted)
    monkeypatch.setattr(gf2mat, "rank_and_normal_batched", counted_elimination)
    thm1 = tmp_path / "thm1.json"
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
                     "--out", str(thm1)]) == 0
    sweeps.clear()
    eliminations.clear()
    assert cli.main(["verify", "--in", str(thm1), "--checks", "apn,crooked,walsh"]) == 0
    assert (len(sweeps), len(eliminations)) == (1, 1)
    # m = 4 is even, so the thm1 tuple is not APN (construct warns on stderr).
    assert cli.main(["construct", "--family", "thm1", "--n", "8", "--auto", "--seed", "1",
                     "--out", str(thm1)]) == 0
    sweeps.clear()
    eliminations.clear()
    assert cli.main(["verify", "--in", str(thm1), "--checks", "apn,crooked,walsh"]) == 1
    assert (len(sweeps), len(eliminations)) == (1, 2)
    capsys.readouterr()
    # The inverse at n = 7 is APN but not crooked: direction 1 has no
    # hyperplane.
    sweeps.clear()
    ctx = FieldCtx(7)
    f = vbf.TruthTable(ctx, [ctx.pow(x, ctx.mult_order - 1) if x else 0 for x in range(ctx.order)])
    path = tmp_path / "inverse.json"
    path.write_text(cli.serialize(from_truthtable_repr(f)))
    argv = ["verify", "--in", str(path), "--checks", "apn,crooked", "--json"]
    assert cli.main(argv) == 1
    assert len(sweeps) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["delta"], doc["crooked"], doc["crooked_failed_at"]) == (2, False, "1")


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 9, 12, 13, 16])
@pytest.mark.parametrize("terms", [((1, 3),), ((1, 3), (1, 1))], ids=["x^3", "x^3+x"])
def test_witnesses_render_as_their_dict(n, terms, tmp_path, capsys):
    # x^3 takes the power path and x^3 + x the quadratic one; both are
    # crooked. From n = 5 on, the hex keys in lexicographic order ("10"
    # before "2") are no longer in numeric order. n = 1 has one direction;
    # at n = 13 the keys run to 1fff, at n = 16 to ffff, the widths where
    # the renderer's digit grid changes.
    ctx = FieldCtx(n)
    m = vbf.multinomial(ctx, terms)
    path = tmp_path / "f.json"
    body = [{"coeff": format(c, "x"), "exp": e} for c, e in m.terms]
    path.write_text(cli.serialize({"n": n, "modulus": ctx.modulus, "representation": "multinomial",
                                        "provenance": {}, "terms": body}))
    witnesses = witness_dict(vbf.is_crooked(vbf.from_multinomial(m)))
    doc = {"checks": ["crooked"], "crooked": True, "hyperplane_witnesses": witnesses, "n": n, "pass": True}
    for as_json in (True, False):
        assert cli.main(["verify", "--in", str(path), "--checks", "crooked", *["--json"] * as_json]) == 0
        out = capsys.readouterr().out
        assert out == emitted(doc, as_json)
        if as_json:
            keys = list(json.loads(out)["hyperplane_witnesses"])
            assert (keys == list(witnesses)) == (n < 5)


def test_one_parser_per_process(tmp_path, capsys):
    cli.build_parser.cache_clear()
    path = tmp_path / "gold.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6"]) == 0
    path.write_text(capsys.readouterr().out)
    outs = []
    for _ in range(2):
        assert cli.main(["verify", "--in", str(path), "--checks", "apn,crooked,walsh"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert cli.build_parser.cache_info()[:2] == (2, 1)  # (hits, misses)
    # argparse's own refusal is unchanged: exit 2, the same stderr as from
    # a parser built afresh.
    errs = []
    for parse in (cli.main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as e:
            parse(["verify", "--checks", "apn"])
        assert e.value.code == 2
        errs.append(capsys.readouterr())
    assert errs[0] == errs[1] and errs[0].out == ""
    assert "the following arguments are required: --in" in errs[0].err


def test_differential_spectrum_hands_out_its_own_counter():
    ctx = FieldCtx(5)
    f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    _, first = vbf.differential_spectrum(f)
    first[99] = 1
    assert 99 not in vbf.differential_spectrum(f)[1]


def test_is_crooked_hands_out_a_read_only_report():
    # Every caller gets the one cached report, so its arrays refuse writes.
    ctx = FieldCtx(5)
    f = vbf.from_multinomial(vbf.multinomial(ctx, [(1, 3)]))
    rep = vbf.is_crooked(f)
    b, eps = rep.b.copy(), rep.eps.copy()
    for arr in (rep.b, rep.eps):
        with pytest.raises(ValueError):
            arr[0] ^= 1
    again = vbf.is_crooked(f)
    assert np.array_equal(again.b, b) and np.array_equal(again.eps, eps)


def test_invariants_builds_one_field_table_per_command(tmp_path, monkeypatch, capsys):
    # A file over the left side's field is read onto the left side's
    # context, so the field's tables are built once: exp_array asks that
    # context for primitive(0), and nothing else in this command does.
    builds = []

    def counted(ctx, k, original=FieldCtx.primitive):
        builds.append(ctx)
        return original(ctx, k)

    monkeypatch.setattr(FieldCtx, "primitive", counted)
    gold, thm1 = tmp_path / "gold.json", tmp_path / "thm1.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(gold)]) == 0
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
                     "--out", str(thm1)]) == 0
    builds.clear()
    assert cli.main(["invariants", "--in", str(thm1), "--against", str(gold), "--json"]) == 0
    assert len(builds) == 1
    # Both are quadratic APN functions at n = 6: their spectra agree.
    assert '"verdict":"indistinguishable-by-computed-invariants"' in capsys.readouterr().out


def test_verify_crooked_runs_no_differential_sweep(tmp_path, monkeypatch, capsys):
    # The crooked check reads the table's derivative sweep itself; it never
    # calls differential_spectrum.
    def no_sweep(f):
        raise AssertionError("a differential sweep ran")

    monkeypatch.setattr(vbf, "differential_spectrum", no_sweep)
    path = tmp_path / "gold.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(path)]) == 0
    assert cli.main(["verify", "--in", str(path), "--checks", "crooked", "--json"]) == 0
    assert '"crooked":true' in capsys.readouterr().out


def test_refusals_above_16_make_few_scalar_calls(tmp_path, monkeypatch, capsys):
    # A file at n = 20 is refused from its header, so the apn and crooked
    # checks and the Gold comparison refuse (exit 4), with the derivative
    # sweep's one cap message, after a few scalar mul/pow calls, not
    # several per field element.
    path = tmp_path / "g20.json"
    assert cli.main(["construct", "--family", "gold", "--n", "20", "--s", "1", "--out", str(path)]) == 0
    calls = []

    def counting(name):
        original = getattr(FieldCtx, name)

        def counted(ctx, *args):
            calls.append(name)
            assert len(calls) < 1 << 10, "more than 2^10 scalar calls"
            return original(ctx, *args)

        return counted

    for name in ("mul", "pow"):
        monkeypatch.setattr(FieldCtx, name, counting(name))
    for command, *flags in (["verify", "--checks", "apn"], ["verify", "--checks", "crooked"],
                            ["invariants", "--against", "gold-all"]):
        calls.clear()
        capsys.readouterr()
        assert cli.main([command, "--in", str(path), *flags]) == 4
        assert capsys.readouterr() == ("", "exhaustive differential scan capped at n=16\n")


def test_size_caps_refuse_from_the_header(tmp_path, monkeypatch, capsys):
    # Above a size cap no body is decoded and no truth table is built: the
    # refusal is decided from the header, in check order, with the exit
    # code and the line the computation itself would give, and it comes
    # before a malformed entry of a truth-table file.
    files = []
    for n in (18, 20):
        files.append(tmp_path / f"g{n}.json")
        assert cli.main(["construct", "--family", "gold", "--n", str(n), "--s", "1",
                         "--out", str(files[-1])]) == 0
    doc = cli.parse(files[0].read_text())
    table = from_truthtable_repr(cli._table(doc, FieldCtx(18, doc["modulus"])), doc["provenance"])
    for name, entry in (("t18.json", table["values"][1]), ("t18-bad.json", "zz")):
        files.append(tmp_path / name)
        table["values"][1] = entry
        files[-1].write_text(cli.serialize(table))
    g6 = tmp_path / "g6.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(g6)]) == 0
    capsys.readouterr()

    def no_table(*args):
        raise AssertionError("a body was decoded or a truth table was built")

    monkeypatch.setattr(vbf, "from_multinomial", no_table)
    monkeypatch.setattr(cli, "_table", no_table)
    sweep, walsh = "exhaustive differential scan capped at n=16\n", "walsh spectrum capped at n=16\n"
    identity = "identity check needs thm1/thm2 provenance\n"
    for path in files:
        for command, code, err in (
            (["verify", "--checks", "apn"], 4, sweep),
            (["verify", "--checks", "crooked,apn"], 4, sweep),
            (["verify", "--checks", "walsh,apn"], 4, walsh),
            (["verify", "--checks", "apn,identity"], 4, sweep),
            (["verify", "--checks", "identity,apn"], 3, identity),
            (["invariants", "--against", "gold-all"], 4, sweep),
            (["invariants", "--against", "gold-all", "--depth", "ranks"], 4, "gamma rank capped at n=7\n"),
            (["invariants", "--against", str(path)], 4, sweep),
            (["invariants", "--against", str(g6)], 5, "functions live over different fields\n"),
        ):
            assert cli.main([command[0], "--in", str(path), *command[1:]]) == code, (path.name, command)
            assert capsys.readouterr() == ("", err), (path.name, command)


def _count_evaluations(monkeypatch):
    """The (n, modulus) of every field a function is evaluated over."""
    fields = []

    def counted(ctx, *args, original=vbf.evaluate):
        fields.append((ctx.n, ctx.modulus))
        return original(ctx, *args)

    monkeypatch.setattr(vbf, "evaluate", counted)
    return fields


def test_against_file_over_another_field_is_refused_from_its_header(tmp_path, monkeypatch, capsys):
    # The --against file's (n, modulus) is compared with the left side's
    # field before any truth table is built: a Gold file at n = 20, or one
    # at n = 6 over another modulus, exits 5 with neither side evaluated.
    thm1, g20, g6 = tmp_path / "thm1.json", tmp_path / "g20.json", tmp_path / "g6.json"
    assert cli.main(["construct", "--family", "thm1", "--n", "6", "--auto", "--seed", "1",
                     "--out", str(thm1)]) == 0
    assert cli.main(["construct", "--family", "gold", "--n", "20", "--out", str(g20)]) == 0
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--modulus", "49",
                     "--out", str(g6)]) == 0
    capsys.readouterr()
    fields = _count_evaluations(monkeypatch)
    for other in (g20, g6):
        fields.clear()
        assert cli.main(["invariants", "--in", str(thm1), "--against", str(other)]) == 5
        assert capsys.readouterr() == ("", "functions live over different fields\n")
        assert fields == []


def test_verify_refuses_an_unknown_check_before_reading_the_file(tmp_path, monkeypatch, capsys):
    # The check names are decided before the file is read: an unknown one
    # exits 2 ahead of the n = 20 file's table and its size cap, and ahead
    # of a missing file.
    g20 = tmp_path / "g20.json"
    assert cli.main(["construct", "--family", "gold", "--n", "20", "--out", str(g20)]) == 0
    capsys.readouterr()
    fields = _count_evaluations(monkeypatch)
    for path in (g20, tmp_path / "missing.json"):
        assert cli.main(["verify", "--in", str(path), "--checks", "apn,nope"]) == 2
        assert capsys.readouterr() == ("", "unknown check 'nope'\n")
    assert fields == []


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signals only")
@pytest.mark.parametrize("entry", ["python -m", "console script"])
def test_closed_reader_ends_the_process_like_cat(entry, tmp_path):
    # A reader that closes the pipe before the command writes ends the
    # process by SIGPIPE, with empty stderr: no traceback and no exit code
    # that reads as a failed check. verify writes its 65 kB report while
    # running; construct writes only when stdout is flushed at exit.
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^crooked = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
    start = {
        "python -m": [sys.executable, "-m", "crooked.cli"],
        "console script": [sys.executable, "-c", f"import sys; from {module} import {func}; sys.exit({func}())"],
    }[entry]
    g12 = tmp_path / "g12.json"
    handler = signal.getsignal(signal.SIGPIPE)
    assert cli.main(["construct", "--family", "gold", "--n", "12", "--s", "1", "--out", str(g12)]) == 0
    assert signal.getsignal(signal.SIGPIPE) == handler  # in-process calls leave it alone
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    for argv in (("verify", "--in", str(g12), "--checks", "crooked", "--json"),
                 ("construct", "--family", "gold", "--n", "6")):
        proc = subprocess.Popen([*start, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(), err) == (-signal.SIGPIPE, b""), argv
