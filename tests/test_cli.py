"""CLI tests: parsing, commands, exit codes, deterministic output."""

import ast
import io
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nil2q import cli, ingest


def run(argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def test_info_q8_golden():
    code, text = run(["info", "Q8"])
    assert code == 0
    assert text == (
        "group Q8\n"
        "order: 8\n"
        "abelianization: [2, 2]\n"
        "commutator: [2]\n"
        "exponent: 4\n"
        "center: order 2\n"
        "q-split: yes (search)\n")


def test_info_semidirect_not_qsplit():
    code, text = run(["info", "semidirect(9,3,4)"])
    assert code == 0
    assert "order: 27" in text
    assert "q-split: no (search)" in text


def test_info_free_structural():
    code, text = run(["info", "free(2)"])
    assert code == 0
    assert "order: infinite" in text
    assert "abelianization: [0, 0]" in text
    assert "commutator: [0]" in text
    assert "q-split: yes (structural)" in text


def test_info_guard_skips_large_search():
    code, text = run(["info", "semidirect(25,5,6)"])
    assert code == 0
    assert "q-split: skipped (order 125 exceeds --max-order 64)" in text
    code, text = run(["--max-order", "200", "info", "semidirect(25,5,6)"])
    assert "q-split: no (search)" in text


def test_info_order_343_semidirect():
    code, text = run(["info", "semidirect(49,7,8)"])
    assert code == 0
    assert "order: 343" in text
    assert "abelianization: [7, 7]" in text
    assert "commutator: [7]" in text
    assert "exponent: 49" in text
    assert "center: order 7" in text
    assert "q-split: skipped (order 343 exceeds --max-order 64)" in text


@pytest.mark.parametrize("argv", [
    ["--max-order", "-3", "info", "Q8"],
    ["--max-order", "0", "iso", "D4", "Q8"],
    ["--max-order", "0", "selftest", "--suite", "negative"],
])
def test_max_order_must_be_positive(argv):
    # a non-positive guard is an input error, not a skipped or silently
    # dropped search
    code, text = run(argv)
    assert code == 2
    assert text.startswith("error: --max-order")


def test_iso_commands():
    code, text = run(["iso", "D4", "Q8", "--category", "niq", "--witness"])
    assert code == 0
    assert "iso D4 Q8 category=niq: YES" in text
    assert "path qsplit-similar: yes" in text
    assert "path witness-search: yes" in text
    assert "witness fab =" in text
    assert "inverse fab =" in text

    code, text = run(["iso", "D4", "Q8", "--category", "nil"])
    assert code == 1
    assert "category=nil: NO" in text

    code, text = run(["iso", "Heis3", "semidirect(9,3,4)", "--category", "niq"])
    assert code == 1
    assert "NO" in text
    assert "path log-criterion: no" in text


def test_iso_witness_skipped_by_guard_is_reported():
    # another path decides YES; the guard skips the asked-for witness search
    code, text = run(["--max-order", "7", "iso", "D4", "Q8", "--witness"])
    assert code == 0
    assert "iso D4 Q8 category=niq: YES" in text
    assert "path witness-search" not in text
    assert "witness fab =" not in text
    assert text.endswith("witness: skipped (order 8 exceeds --max-order 7)\n")


def test_iso_identity():
    code, text = run(["iso", "Q8", "Q8", "--category", "nil"])
    assert code == 0 and "YES" in text


def test_iso_nil_witness_is_printed():
    # the group isomorphism found, with zero cross-effect, and its inverse
    code, text = run(["iso", "Q8", "Q8", "--category", "nil", "--witness"])
    assert code == 0
    assert text.startswith("iso Q8 Q8 category=nil: YES\nwitness fab = ")
    assert "inverse fab = " in text and "delta" not in text
    code, text = run(["iso", "D4", "Q8", "--category", "nil", "--witness"])
    assert code == 1 and text == "iso D4 Q8 category=nil: NO\n"


def test_unknown_group_is_input_error():
    code, text = run(["info", "Nope"])
    assert code == 2
    assert "error:" in text


def test_group_file(tmp_path):
    f = tmp_path / "groups.txt"
    f.write_text("""
# a comment
group G27 = semidirect(9,3,4)
group W = coproduct(Z2, Z2)
group K { abelianization = [3,3]; commutator = [3]; bil[2][1] = [2]; }
""")
    code, text = run(["--file", str(f), "info", "W"])
    assert code == 0 and "order: 8" in text
    code, text = run(["--file", str(f), "iso", "K", "G27", "--category", "niq"])
    assert code == 1  # K is Heis3-like (no carries), G27 is not q-split
    code, text = run(["--file", str(f), "iso", "K", "Heis3", "--category", "niq"])
    assert code == 0


def test_group_file_torsion_error(tmp_path):
    f = tmp_path / "k.txt"
    f.write_text("group K { abelianization = [3,3]; commutator = [9]; bil[1][2] = [1]; }\n")
    code, text = run(["--file", str(f), "info", "K"])
    assert code == 2
    assert text == "error: bil[1][2] = (1) not killed by generator orders (3, 3)\n"


def test_group_file_oracle(tmp_path):
    o = ["elements = " + " ".join(f"g{i}" for i in range(4)), "id = g0"]
    table = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]
    for i in range(4):
        for j in range(4):
            o.append(f"g{i} * g{j} = g{table[i][j]}")
    f = tmp_path / "g.txt"
    f.write_text("group C4 = oracle {\n" + "\n".join(o) + "\n}\n")
    code, text = run(["--file", str(f), "info", "C4"])
    assert code == 0
    assert "order: 4" in text and "abelianization: [4]" in text


def test_group_file_oracle_class_three_rejected(tmp_path):
    # D16 = Z/8 x| Z/2 acting by 7 is a group of nilpotence class three
    elems = [(a, b) for a in range(8) for b in range(2)]
    label = {(a, b): f"g{a}_{b}" for a, b in elems}
    o = ["elements = " + " ".join(label[z] for z in elems), "id = g0_0"]
    for a, b in elems:
        for a2, b2 in elems:
            o.append(f"{label[a, b]} * {label[a2, b2]} = "
                     f"{label[(a + 7 ** b * a2) % 8, (b + b2) % 2]}")
    f = tmp_path / "d16.txt"
    f.write_text("group D16 = oracle {\n" + "\n".join(o) + "\n}\n")
    code, text = run(["--file", str(f), "info", "D16"])
    assert code == 2
    assert text == "error: table has nilpotence class greater than two\n"


def test_duplicate_names_rejected(tmp_path):
    f = tmp_path / "dup.txt"
    f.write_text("group X = free(1)\ngroup X = free(2)\n")
    code, text = run(["--file", str(f), "info", "X"])
    assert code == 2
    f2 = tmp_path / "clash.txt"
    f2.write_text("group Q8 = free(1)\n")
    code, text = run(["--file", str(f2), "info", "Q8"])
    assert code == 2


def test_builtin_groups_built_on_demand(monkeypatch):
    # a query builds the built-in groups it names, once each, and no other
    built = []
    real = cli._build_from_block
    monkeypatch.setattr(cli, "_build_from_block", lambda body: built.append(body) or real(body))
    assert run(["info", "semidirect(9,3,4)"])[0] == 0 and built == []
    assert run(["info", "product(Q8,Q8)"])[0] == 0 and built == [cli.BUILTIN_DEFS["Q8"]]


@pytest.mark.parametrize("body, item", [
    ("abelianization = [2]; abelianization = [3];", "abelianization"),
    ("abelianization = [2,2]; commutator = [3]; commutator = [2]; bil[1][2] = [1];",
     "commutator"),
    ("abelianization = [2,2]; commutator = [2]; carry = [[0],[0]]; carry = [[1],[1]]; "
     "bil[1][2] = [1];", "carry"),
    ("abelianization = [2,2]; commutator = [2]; bil[1][2] = [0]; bil[1][2] = [1];",
     "bil[1][2]"),
    ("abelianization = [2,2]; commutator = [2]; bil[1][2] = [1]; bil[01][2] = [1];",
     "bil[1][2]"),
])
def test_group_file_rejects_repeated_definitions(tmp_path, body, item):
    # the last value used to win silently
    f = tmp_path / "rep.txt"
    f.write_text("group G { " + body + " }\n")
    code, text = run(["--file", str(f), "info", "G"])
    assert (code, text) == (2, f"error: {item} is defined twice\n")


def test_semidirect_ingestion_guarded_by_max_order():
    code, text = run(["--max-order", "8", "info", "semidirect(121,11,12)"])
    assert code == 2
    assert text == ("error: semidirect(121,11,12) has order 1331, above 64 "
                    "(--max-order 8 squared); raise the guard\n")
    # the bound is --max-order squared: order 27 passes at 6, not at 5
    assert run(["--max-order", "5", "info", "semidirect(9,3,4)"])[0] == 2
    code, text = run(["--max-order", "6", "info", "semidirect(9,3,4)"])
    assert code == 0 and "order: 27" in text


def test_huge_semidirect_builds_no_table(tmp_path, monkeypatch):
    def no_table(*args):
        raise AssertionError("semidirect table built")

    monkeypatch.setattr(ingest, "semidirect", no_table)
    f = tmp_path / "s.txt"
    f.write_text("group S = semidirect(99999999999,1,1)\n")
    for argv in (["info", "semidirect(99999999999,1,1)"],
                 ["iso", "Q8", "semidirect(99999999999,1,1)"],
                 ["--file", str(f), "info", "Q8"]):
        code, text = run(argv)
        assert code == 2 and "above 4096 (--max-order 64 squared)" in text


@pytest.mark.parametrize("argv", [
    ["info", "free(\u00b2)"],                  # str.isdigit accepts a superscript
    ["info", "semidirect(\u00b2,1,1)"],
    ["info", "semidirect(--9,3,4)"],
    ["info", "semidirect(" + "1" * 5000 + ",1,1)"],
])
def test_builder_arguments_are_ascii_integers(argv):
    code, text = run(argv)
    assert code == 2 and text.startswith("error:")


def test_selftest_deterministic_and_passing():
    code1, text1 = run(["selftest", "--suite", "classify"])
    code2, text2 = run(["selftest", "--suite", "classify"])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "PASS qsplit-verdict D4" in text1
    assert "FAIL" not in text1


@pytest.mark.parametrize("max_order", ["1", "7", "8", "64"])
def test_selftest_classify_at_any_max_order(max_order):
    # the fixed D4|Q8 witness check does not depend on the catalog guard
    code, text = run(["--max-order", max_order, "selftest", "--suite", "classify"])
    assert code == 0 and "FAIL" not in text
    assert "PASS niq-iso-d4-q8 D4|Q8" in text


def test_selftest_negative_suite():
    code, text = run(["selftest", "--suite", "negative"])
    assert code == 0
    assert "PASS not-isomorphic-in-niq Z2^3|Z2vZ2" in text


def test_info_infinite_file_group_without_guarantee(tmp_path):
    # an infinite group with no structural q-split answer: the verdict is
    # reported as unknown, not a traceback
    f = tmp_path / "k.txt"
    f.write_text("group K { abelianization = [0,0]; commutator = [2]; bil[1][2] = [1]; }\n")
    code, text = run(["--file", str(f), "info", "K"])
    assert code == 0
    assert "q-split: unknown (infinite, no structural guarantee)\n" in text


@pytest.mark.parametrize("body", [
    "abelianization = [2.5];",
    "abelianization = [True, 2];",
    'abelianization = ["a"];',
    "abelianization = [[2]];",
    "abelianization = [2, 2]; commutator = [2.0]; bil[1][2] = [1];",
    "abelianization = [2, 2]; commutator = [2]; bil[1][2] = [1.5];",
    "abelianization = [2, 2]; commutator = [2]; bil[1][2] = [[1]];",
    "abelianization = [2, 2]; commutator = [2]; bil[1][2] = [1]; carry = [1, 0];",
    "abelianization = [2, 2]; commutator = [2]; bil[1][2] = [1]; carry = [[1], [False]];",
    "abelianization = [2, 2]; commutator = [2]; bil[1][2] = [1]; carry = [[1], 'a'];",
    # an index beyond the interpreter's int conversion limit, where it has one
    pytest.param("abelianization = [2]; bil[" + "1" * 5000 + "][1] = [1];",
                 id="bil-index-with-5000-digits"),
])
def test_group_file_rejects_non_integers(tmp_path, body):
    # wrong types are input errors (exit 2), never truncated or a traceback
    f = tmp_path / "bad.txt"
    f.write_text("group K { " + body + " }\n")
    code, text = run(["--file", str(f), "info", "K"])
    assert code == 2
    assert text.startswith("error:")


# The group-file list reader against `ast.literal_eval`, its reference:
# where the reference reads a list of integers (for `carry`, a list of
# integer lists) the reader returns the same value, and it refuses the rest.

def reference_int_list(value, nested):
    """ast.literal_eval's value if it is a list of the required depth, else None."""
    try:
        parsed = ast.literal_eval(value.strip())
    except (ValueError, SyntaxError, TypeError):
        return None
    rows = parsed if nested and isinstance(parsed, list) else [parsed]
    ok = all(isinstance(row, list) and all(type(v) is int for v in row) for row in rows)
    return parsed if ok else None


def read_int_list(value, nested):
    """The reader's value, or None where it raises an input error."""
    try:
        return cli._parse_int_list(value, nested)
    except cli.InputError:
        return None


LIST_CORPUS = [
    "[]", "[ ]", "[1]", "[1,]", "[1 , 2 ,]", "[-3, 0, 12]", "[- 3]", "[-\n3]", "[00]",
    "[-00]", "[01]", "[-01]", "[1,,]", "[,]", "[,1]", "[1 2]", "[--1]", "[- -1]", "[1-2]",
    "[[1],[0]]", "[[1], [-2, 3],]", "[[]]", "[[],]", "[[1]][0]", "[1][0]", "[[1],2]",
    "[[1],[2]],", "[1\t,\f2\r]", "[1,\v2]", "[1,\u30002]", "1", "(1, 2)", "1, 2",
    "[1.5]", "[True]", "['a']", "[None]", "[", "]", "[[1]", "[1]]", "", "-[1]", "[1e3]",
    "[1j]", "[" + "9" * 30 + "]", " [2, 3] ",
]
# read by the reference, refused by the reader: lists of integers not written
# in decimal, and Python syntax beyond brackets, commas and whitespace
REFUSED = [("[0x10]", False), ("[0o7]", False), ("[0b1]", False), ("[+1]", False),
           ("[1_0]", False), ("[(1)]", False), ("[1, # note\n 2]", False),
           ("[\\\n1]", False), ("[[+1], [2]]", True)]


def test_list_reader_matches_literal_eval_on_corpus(tmp_path):
    for value in LIST_CORPUS:
        for nested in (False, True):
            assert read_int_list(value, nested) == reference_int_list(value, nested), value
    # the refused inputs are input errors, exit 2, also from a group file
    for value, nested in REFUSED:
        assert reference_int_list(value, nested) is not None, value
        assert read_int_list(value, nested) is None, value
        field = "carry" if nested else "commutator"
        f = tmp_path / "refused.txt"
        f.write_text(f"group K {{ abelianization = [2]; {field} = {value}; }}\n")
        code, text = run(["--file", str(f), "info", "K"])
        assert code == 2 and text.startswith("error: expected a list of integer"), value


# strings over `[ ] , - 0-9 space`: free text, token soup, and lists of
# items drawn with stray signs, leading zeros, spaces and doubled commas
_list_tokens = st.sampled_from(["[", "]", ",", "-", " ", "0", "1", "00", "07", "12"])
_gap = st.sampled_from(["", " ", "  "])
_item = st.tuples(_gap, st.sampled_from(["", "-", "- ", "--"]),
                  st.sampled_from(["0", "00", "7", "10", "01", "1 2", ""]), _gap).map("".join)


def _bracketed(items):
    return st.tuples(st.lists(items, max_size=3), st.sampled_from([",", ", ", ",,", " "]),
                     st.sampled_from(["", ",", " , ", ",,"])).map(
        lambda t: "[" + t[1].join(t[0]) + (t[2] if t[0] else "") + "]")


_list_texts = st.one_of(st.text(alphabet="[],-0123456789 ", max_size=16),
                        st.lists(_list_tokens, max_size=16).map("".join),
                        _bracketed(_item), _bracketed(_bracketed(_item)))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(value=_list_texts)
def test_list_reader_matches_literal_eval(value):
    for nested in (False, True):
        assert read_int_list(value, nested) == reference_int_list(value, nested)


# A query imports only what its command runs.  pytest has already imported
# every module, so each check runs cli.main in a fresh interpreter.
LAZY = ("nil2q.verify", "nil2q.maltsev", "nil2q.linext", "dataclasses", "ast")
_FRESH = """
import io, sys
from nil2q import cli
lazy = {lazy!r}
at_import = [m for m in lazy if m in sys.modules]
out = io.StringIO()
code = cli.main({argv!r}, out=out)
print(repr((at_import, [m for m in lazy if m in sys.modules], code, out.getvalue())))
"""


def run_fresh(argv, timeout=120, lazy=LAZY):
    """(`lazy` modules loaded by the import, `lazy` modules loaded after the
    command, exit code, output) of cli.main(argv) in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _FRESH.format(lazy=lazy, argv=argv)],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


def test_fresh_import_loads_no_lazy_module(tmp_path):
    at_import, after, code, text = run_fresh(["info", "Q8"])
    assert at_import == [] and after == []
    assert code == 0 and "q-split: yes (search)\n" in text
    at_import, after, code, text = run_fresh(["iso", "D4", "Q8", "--category", "niq",
                                              "--witness"])
    assert at_import == [] and after == []
    assert code == 0 and "witness fab = " in text
    # a group file block with a carry and a negative entry: Q8's data
    f = tmp_path / "k.txt"
    f.write_text("group K { abelianization = [2,2]; commutator = [2]; "
                 "carry = [[1],[1]]; bil[1][2] = [-1]; }\n")
    at_import, after, code, text = run_fresh(["--file", str(f), "iso", "K", "Q8",
                                              "--category", "nil"])
    assert at_import == [] and after == []
    assert code == 0 and text == "iso K Q8 category=nil: YES\n"


def test_fresh_queries_load_the_cold_blocks_on_first_use():
    blocks = ("nil2q.abelian_constructions", "nil2q.ingest", "nil2q.qmap_constructions",
              "nil2q.qmap_tables")
    for argv, code, loaded in ((["info", "Q8"], 0, []),
                               (["iso", "D4", "Q8", "--category", "nil"], 1, []),
                               (["info", "semidirect(9,3,4)"], 0, ["nil2q.ingest"]),
                               (["info", "free(2)"], 0, ["nil2q.abelian_constructions"]),
                               (["iso", "D4", "Q8", "--witness"], 0,
                                ["nil2q.qmap_constructions"])):
        assert run_fresh(argv, lazy=blocks)[:3] == ([], loaded, code), argv


def test_fresh_odd_order_iso_imports_maltsev():
    at_import, after, code, text = run_fresh(["iso", "Heis3", "Heis3"])
    assert at_import == [] and after == ["nil2q.maltsev"]
    assert code == 0 and "path log-criterion: yes\n" in text


def test_large_odd_qsplit_iso_runs_no_unbounded_log_criterion():
    # order 3^10, B = Z3^6: the log criterion would first list about 8e16
    # isomorphisms B -> B, so once q-split similarity decides it runs only
    # while |Hom(B_G, B_H)| <= --max-order squared; in a subprocess, so a
    # hang fails on the timeout
    pair = ["coproduct(Heis3,Heis3)", "coproduct(Heis3,Heis3)"]
    _, _, code, text = run_fresh(["iso"] + pair, timeout=30)
    assert code == 0 and "path qsplit-similar: yes\n" in text
    assert "log-criterion" not in text
    code, text = run(["--max-order", "1", "iso", "Heis3", "Heis3"])
    assert code == 0 and "log-criterion" not in text
    code, text = run(["iso", "Heis5", "Heis5"])
    assert code == 0 and "path log-criterion: yes\n" in text


def test_fresh_selftest_imports_verify():
    at_import, after, code, text = run_fresh(["selftest", "--suite", "negative"])
    assert at_import == [] and after == ["nil2q.verify", "nil2q.maltsev"]
    assert code == 0 and text.endswith("selftest: 3/3 checks passed\n")
    at_import, after, code, text = run_fresh(["selftest", "--suite", "linext"])
    assert at_import == [] and after == ["nil2q.verify", "nil2q.maltsev", "nil2q.linext"]
    assert code == 0 and text.endswith("selftest: 32/32 checks passed\n")


# ---------------------------------------------------------------------------
# Fuzzing the group-file grammar and the builder expressions.

FUZZ_SECONDS = 10                       # per example, parsing and `info`
_ints = st.integers(-3, 9)
_values = st.one_of(
    st.lists(_ints, max_size=3).map(str),
    st.lists(st.lists(_ints, max_size=2), max_size=3).map(str),
    st.sampled_from(["[1.5]", "[True]", "'x'", "[", "[1,]", "1", "", "[[1]", "[-0]"]))
_fields = st.sampled_from(["abelianization", "commutator", "carry", "bil[1][1]",
                           "bil[1][2]", "bil[2][1]", "bil[3][2]", "bil[0][1]",
                           "bil[9][1]", "bil[x][1]", "bil[\u00b2][1]", "junk", ""])
_block = st.lists(st.tuples(_fields, _values).map(" = ".join), max_size=6).map(
    lambda stmts: "{ " + "; ".join(stmts) + " }")

_Z3 = [f"g{i} * g{j} = g{(i + j) % 3}" for i in range(3) for j in range(3)]
_oracle_lines = st.one_of(
    st.sampled_from(_Z3 + ["elements = g0 g1 g2", "id = g0", "elements = g0 g0 g1",
                           "id = g3", "g0 * = g1", "junk"]),
    st.tuples(*[st.sampled_from(["g0", "g1", "g2", "g3"])] * 3).map(
        lambda t: "{} * {} = {}".format(*t)))
_oracle = st.one_of(
    st.lists(_oracle_lines, max_size=14),
    st.lists(_oracle_lines, max_size=3).map(                # a whole table, and more
        lambda extra: ["elements = g0 g1 g2", "id = g0"] + _Z3 + extra)).map(
    lambda lines: "oracle {\n" + "\n".join(lines) + "\n}")

_names = st.sampled_from(["G", "H", "Q8", "D4", "Z2", "V4", "Heis3", "Nope"])
# orders up to 4096 = 64^2, or an argument past it that the guard rejects
_big = st.one_of(st.integers(-2, 64), st.integers(4097, 10 ** 12))
_builders = st.one_of(
    st.tuples(_big, _big, _big).map(lambda t: "semidirect({},{},{})".format(*t)),
    st.sampled_from(["semidirect(9,3,4)", "semidirect(8,2,5)", "semidirect(25,5,6)",
                     "semidirect(1,2)", "semidirect(a,b,c)", "semidirect(\u0663,1,1)",
                     "semidirect(--9,3,4)",
                     "free(\u00b2)"]),
    st.integers(-1, 12).map("free({})".format),
    st.tuples(st.sampled_from(["product", "coproduct", "nope"]), _names, _names).map(
        lambda t: "{}({},{})".format(*t)))
_definitions = st.tuples(st.sampled_from(["G", "H", "Q8"]),
                         st.one_of(_block, _oracle.map("= {}".format),
                                   _builders.map("= {}".format)),
                         ).map(lambda t: "group {} {}".format(*t))
_files = st.lists(st.one_of(_definitions, st.sampled_from(["# note", "junk", "group",
                                                           "group G {", "}"])),
                  max_size=3).map("\n".join)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(text=_files, query=st.one_of(_names, _builders))
def test_cli_grammar_fuzz(tmp_path, text, query):
    # any group file and builder expression: an answer or a clean input
    # error, never a traceback, an internal error or an unbounded run
    f = tmp_path / "fuzz.txt"
    f.write_text(text, encoding="utf-8")
    start = time.perf_counter()
    code, out = run(["--file", str(f), "info", query])
    assert code in (0, 1, 2), out
    assert time.perf_counter() - start < FUZZ_SECONDS, (text, query)
