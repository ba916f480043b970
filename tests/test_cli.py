import hashlib
import json
import random
import subprocess
import sys

import numpy as np
import pytest

from crooked import cli, funcfile, gf2mat, invariants, vbf
from crooked.errors import DegreeMismatch, InfeasibleSize, InvalidInput, InvalidModulus, MalformedFile
from crooked.families import search_params
from crooked.field import FieldCtx
from helpers import from_truthtable_repr


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
    ff = funcfile.parse(out.read_text())
    assert ff.provenance["family"] == "thm1"
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
    ff = funcfile.parse(out.read_text())
    f = ff.to_truthtable(FieldCtx(ff.n, ff.modulus))
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
    path.write_text(funcfile.serialize(from_truthtable_repr(fifth)))
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


def test_construct_odd_half_degree_no_warning():
    proc = run_cli("construct", "--family", "thm1", "--n", "6", "--auto", expect=0)
    assert proc.stderr == ""


# Stand-ins for n = 6 thm1 files whose provenance lacks m (None), has a
# value replaced or is replaced whole (key None), for n = 6 Gold truth-table
# files with entry 1, n or schema_version replaced, for an n = 6 Gold file, for a file that
# does not exist, for a file that is not UTF-8, and for a path in a directory
# that does not exist.
NO_M, C_FFF, M_5 = "<no-m>", "<c=fff>", "<m=5>"
K_NEG, K_A, S_99 = "<K=[-1]>", "<K=[a]>", "<s=99>"
PROV_5, PROV_LIST, PROV_STR = "<provenance=5>", "<provenance=[]>", "<provenance='x'>"
PROVENANCE_EDITS = {NO_M: ("m", None), C_FFF: ("c", "fff"), M_5: ("m", 5),
                    K_NEG: ("K", [-1]), K_A: ("K", ["a"]), S_99: ("s", 99),
                    PROV_5: (None, 5), PROV_LIST: (None, []), PROV_STR: (None, "x")}
ENTRY_NEG, ENTRY_BIG = "<entry=-1>", "<entry=100000000>"
N_2_40, N_10_30, VERSION_7 = "<n=2^40>", "<n=10^30>", "<schema_version=7>"
TABLE_EDITS = {ENTRY_NEG: ("entry", "-1"), ENTRY_BIG: ("entry", "100000000"),
               N_2_40: ("n", 1 << 40), N_10_30: ("n", 10 ** 30), VERSION_7: ("schema_version", 7)}
GOLD, MISSING, NOT_UTF8, NO_DIR = "<gold>", "<missing>", "<not-utf-8>", "<no-dir>"
TOP_LIST, TOP_NUMBER = "<[]>", "<5>"
RAW_FILES = {NOT_UTF8: b"\xff\xfe\x00", TOP_LIST: b"[]", TOP_NUMBER: b"5"}


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
    doc = json.loads(funcfile.serialize(from_truthtable_repr(gold)))
    if key == "entry":
        doc["values"][1] = value
    else:
        doc[key] = value
    path.write_text(json.dumps(doc))


# argv (with a stand-in above for an edited file), exit code, the stream
# that carries the one-line message, and a part of that line.
EXIT_CASES = [
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
    (("verify", "--in", PROV_5, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_5, "--checks", "apn"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_LIST, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", PROV_STR, "--checks", "identity"), 3, "err", "provenance is not"),
    (("verify", "--in", ENTRY_NEG, "--checks", "apn"), 3, "err", "outside the field"),
    (("verify", "--in", ENTRY_BIG, "--checks", "apn"), 3, "err", "outside the field"),
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
    capsys.readouterr()
    argv = tuple(str(tmp_path / "no-dir" / "f.json") if a == NO_DIR
                 else str(path) if a in (GOLD, MISSING, *RAW_FILES, *PROVENANCE_EDITS, *TABLE_EDITS)
                 else a for a in argv)
    assert cli.main(list(argv)) == code
    got = capsys.readouterr()
    message, other = (got.err, got.out) if stream == "err" else (got.out, got.err)
    assert len(message.splitlines()) == 1 and part in message and other == ""


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
# the trace form moved into the field context, and the full family verify as
# computed before the identity check stopped sampling pairs.
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
    },
}


@pytest.mark.parametrize("flags", list(PINNED_SHA256), ids=" ".join)
def test_verify_witnesses_pinned(flags, tmp_path):
    path = tmp_path / "f.json"
    run_cli("construct", "--family", *flags, "--out", str(path), expect=0)
    for (command, *rest), digest in PINNED_SHA256[flags].items():
        proc = run_cli(command, "--in", str(path), *rest, expect=0)
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest, rest


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
    ff = funcfile.parse(path.read_text())
    f = ff.to_truthtable(FieldCtx(ff.n, ff.modulus))
    assert f.path == ("quadratic", None)
    rep = vbf.is_crooked(f)
    for a in random.Random(14).sample(range(1, f.ctx.order), 64):
        got = (int(rep.b[a - 1]), int(rep.eps[a - 1]))
        assert got == vbf.hyperplane_of(f.ctx, vbf.derivative_values(f, a)), a


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
            p = cli._params_from_provenance(funcfile.parse(path.read_text()))
            assert p == search_params(ctx, family, 1, seed)[0]


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
    # input, verify runs two batched eliminations: one for the derivatives
    # and one for the symplectic matrices of the Walsh check.
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
    assert (len(sweeps), len(eliminations)) == (1, 2)
    capsys.readouterr()
    # The inverse at n = 7 is APN but not crooked: direction 1 has no
    # hyperplane.
    sweeps.clear()
    ctx = FieldCtx(7)
    f = vbf.TruthTable(ctx, [ctx.pow(x, ctx.mult_order - 1) if x else 0 for x in range(ctx.order)])
    path = tmp_path / "inverse.json"
    path.write_text(funcfile.serialize(from_truthtable_repr(f)))
    argv = ["verify", "--in", str(path), "--checks", "apn,crooked", "--json"]
    assert cli.main(argv) == 1
    assert len(sweeps) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["delta"], doc["crooked"], doc["crooked_failed_at"]) == (2, False, "1")


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
    # context, so the field's tables are built once.
    builds = []

    def counted(ctx, original=FieldCtx._find_generator):
        builds.append(ctx)
        return original(ctx)

    monkeypatch.setattr(FieldCtx, "_find_generator", counted)
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
    # Above a size cap no truth table is built: the refusal is decided from
    # the header, in check order, with the exit code and the line the
    # computation itself would give.
    files = {}
    for n in (18, 20):
        files[n] = tmp_path / f"g{n}.json"
        assert cli.main(["construct", "--family", "gold", "--n", str(n), "--s", "1",
                         "--out", str(files[n])]) == 0
    g6 = tmp_path / "g6.json"
    assert cli.main(["construct", "--family", "gold", "--n", "6", "--out", str(g6)]) == 0
    capsys.readouterr()

    def no_table(ff, ctx=None):
        raise AssertionError("a truth table was built")

    monkeypatch.setattr(funcfile.FunctionFile, "to_truthtable", no_table)
    sweep, walsh = "exhaustive differential scan capped at n=16\n", "walsh spectrum capped at n=16\n"
    identity = "identity check needs thm1/thm2 provenance\n"
    for n, path in files.items():
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
            assert cli.main([command[0], "--in", str(path), *command[1:]]) == code, (n, command)
            assert capsys.readouterr() == ("", err), (n, command)


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
