"""Command-line surface: text formats, JSON output, demos, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import subrep as sr
from subrep import cli
from subrep.ordinal import Card, fin, omega
from conftest import (
    parse_cardinal_reference,
    parse_ordinal_reference,
    parse_pair_list_reference,
)


FIG3 = """\
# the four-point refusal example
elem 1 2 3 4
1 < 2
2 < 3
4 < 3
"""


@pytest.fixture()
def fig3_file(tmp_path):
    path = tmp_path / "fig3.poset"
    path.write_text(FIG3, encoding="utf-8")
    return str(path)


@pytest.fixture()
def chain_file(tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text("elem a b c\na < b\nb < c\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_poset_text_closure_and_comments():
    p = cli.parse_poset_text(FIG3)
    assert p.elements == ("1", "2", "3", "4")
    assert p.less(0, 2)


def test_parse_poset_text_errors():
    with pytest.raises(sr.ParseError):
        cli.parse_poset_text("1 < 2\n")  # no elem line
    with pytest.raises(sr.ParseError):
        cli.parse_poset_text("elem a b\na << b\n")
    with pytest.raises(sr.ParseError):
        cli.parse_poset_text("elem a a\n")


def test_parse_ordinal_grammar():
    assert cli.parse_ordinal("w2") == omega(2)
    assert cli.parse_ordinal("w1+10") == sr.ord_sum(omega(1), fin(10))
    assert cli.parse_ordinal("w0*2+5") == sr.ord_sum(omega(0, 2), fin(5))
    assert cli.parse_ordinal("30") == fin(30)
    assert cli.parse_ordinal("w0+w0") == omega(0, 2)
    with pytest.raises(sr.ParseError):
        cli.parse_ordinal("omega")


def test_ordinal_str_round_trips():
    for text in ("w2", "w1+10", "w0*2+5", "30", "0", "w3*4"):
        assert str(cli.parse_ordinal(text)) == text


def test_parse_cardinal():
    assert cli.parse_cardinal("aleph3") == Card.aleph(3)
    assert cli.parse_cardinal("12") == Card.fin(12)
    with pytest.raises(sr.ParseError):
        cli.parse_cardinal("w1")


_TOKENS = (
    "0", "1", "7", "30", "00", "007", "\u0663", "w0", "w1", "w12", "w1*1", "w0*0",
    "w1*1+3", "3+w0", "w0+w0", "w2+w1*3+4", "w0 + 5", " w1 ", "w", "w*2", "ww1",
    "w1*", "w\u0663", "+", "1+", "", "aleph0", "aleph12", "aleph", "aleph\u0663",
    "aleph01", "alpha", "-1", "1.5", "x", "9" * 5000,
)


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except sr.ParseError as exc:
        return "error", str(exc)


def test_parsers_match_reference():
    """The ordinal, cardinal and pair-list parsers give the results, or the
    error messages, of the reference parser: on every token, on every
    one-pair text, on malformed lists, and on seeded random texts."""
    for token in _TOKENS:
        assert _outcome(cli.parse_ordinal, token) == _outcome(parse_ordinal_reference, token)
        assert _outcome(cli.parse_cardinal, token) == _outcome(parse_cardinal_reference, token)
    texts = [f"pin ({h},{f})" for h in _TOKENS for f in _TOKENS]
    texts += [
        "copin (w0,1)  (2,aleph0)", "pin(1,1)", "pin", "pinx (1,1)", "PIN (1,1)",
        "pin (1,1) x", "pin x (1,1)", "pin (1,1)x(2,1)", "pin ((1,1))", "pin (1,1),(2,2)",
        "pin ( 1 , 1 )", " copin (\u0663,1) ", "pin (1,1) (", "pin (1,1) (w0*0,1)",
        "pin (w0*0,1) junk", "pin (1,1) junk (w0*0,1)", "pin\u3000(1,1)\u2003(2,2)\x1c",
        "pin (1,1)\n\t(2,2)", "pin (1 1) (2,2)", "pin (w0*0,1) (",
    ]
    rng = random.Random(1357)
    leads = ["pin", "copin", "pin ", "pinx", ""]
    seps = [" ", " ", " ", "", "\u3000", "\t", "x", ",", "(", ")"]
    heights = ["1", "w0", "w1*2", "3+w0", "\u0663", "00", "w0*0", "x", ""]
    freqs = ["1", "aleph0", "\u0663", "00", "aleph", "w0", ""]
    for _ in range(6000):
        pairs = (f"({rng.choice(heights)},{rng.choice(freqs)})" for _ in range(rng.randint(0, 4)))
        texts.append(rng.choice(leads) + "".join(rng.choice(seps) + pair for pair in pairs))
    for text in texts:
        assert _outcome(cli.parse_pair_list, text) == _outcome(parse_pair_list_reference, text), text


def test_parse_pinboard_syntax():
    pb = cli.parse_pinboard("pin (w2,5) (w1,2) (6,aleph0) (3,1)")
    assert len(pb.pairs) == 4 and not pb.starred
    co = cli.parse_pinboard("copin (w0,3)")
    assert co.starred
    with pytest.raises(sr.ParseError):
        cli.parse_pinboard("(w2,5)")
    with pytest.raises(sr.ParseError):
        cli.parse_pinboard("pin (w2,5) junk")
    with pytest.raises(sr.ParseError):
        cli.parse_pinboard("pin (w2,5) junk (3,1)")


def test_parse_simple_pinboard():
    host = cli.parse_simple_pinboard("pin (w2,12) (7,aleph3)")
    assert host.beta == Card.aleph(2) and host.n == 12
    assert host.m == 7 and host.gamma == Card.aleph(3)
    with pytest.raises(sr.ParseError):
        cli.parse_simple_pinboard("pin (w2,12)")
    with pytest.raises(sr.ParseError):
        cli.parse_simple_pinboard("pin (w2,12) (w1,aleph0)")


def test_classify_json_round_trip(capsys, fig3_file):
    code, out, _ = run(capsys, "classify", fig3_file)
    assert code == 0
    payload = json.loads(out)
    verdict = sr.classify_finite(cli.load_poset(fig3_file))
    assert payload == verdict.as_dict()
    assert payload["subRepresentable"] is False


def test_classify_negative_is_not_an_error(capsys, fig3_file):
    code, _, err = run(capsys, "classify", fig3_file)
    assert code == 0 and err == ""


def test_classify_dot(capsys, fig3_file, tmp_path):
    code, out, _ = run(capsys, "classify", fig3_file, "--dot")
    assert code == 0
    assert out.startswith("digraph poset {")
    assert '"1" -> "2";' in out
    assert '"1" -> "3";' not in out  # covers only
    odd = tmp_path / "odd.poset"
    odd.write_text('elem a"b c\\d\na"b < c\\d\n', encoding="utf-8")
    code, out, _ = run(capsys, "classify", str(odd), "--dot")
    assert code == 0
    assert '  "a\\"b";\n  "c\\\\d";\n  "a\\"b" -> "c\\\\d";\n' in out


def test_embed_command(capsys, chain_file, fig3_file):
    code, out, _ = run(capsys, "embed", chain_file, fig3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["embeds"] is True
    assert payload["map"] == {"a": "1", "b": "2", "c": "3"}


def test_subrep_command_positive(capsys, chain_file):
    code, out, _ = run(capsys, "subrep", chain_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["subRepresentable"] is True
    assert [["a"], ["a"]] in payload["g"]


def test_subrep_command_negative(capsys, fig3_file):
    code, out, _ = run(capsys, "subrep", fig3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["g"] is None and payload["subRepresentable"] is False


def test_oracle_command(capsys, fig3_file):
    code, out, _ = run(capsys, "oracle", fig3_file)
    assert code == 0
    payload = json.loads(out)
    assert payload == {"subRepresentable": False, "g": None}


def test_oracle_command_positive(capsys, chain_file):
    code, out, _ = run(capsys, "oracle", chain_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["subRepresentable"] is True
    assert len(payload["g"]) == 7  # one row per nonempty subset


def test_survey_command(capsys):
    code, out, _ = run(capsys, "survey", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 5
    assert payload["disagreements"] == 0
    code, out, _ = run(capsys, "survey", "3")
    assert code == 0 and "5 classes" in out


def test_survey_four_point_counts(capsys):
    code, out, _ = run(capsys, "survey", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"] == 16
    assert payload["subRepresentable"] == 9
    assert payload["notSubRepresentable"] == 7
    assert payload["disagreements"] == 0


def test_survey_output_pinned(capsys):
    code, out, _ = run(capsys, "survey", "4")
    assert code == 0 and out == SURVEY4
    code, out, _ = run(capsys, "survey", "5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5dcb4ae76cc16bb8529e5533de16c58603366a00956280059a41bb74748256cc"
    )


def test_closed_stdout_ends_quietly(tmp_path):
    """A reader that stops early, as in ``subrep subrep FILE | head -1``,
    leaves exit code 1 and no traceback on stderr."""
    names = [f"c{i}" for i in range(14)]
    covers = [f"{a} < {b}\n" for a, b in zip(names, names[1:]) if b != "c7"]
    path = tmp_path / "chains.poset"
    path.write_text(f"elem {' '.join(names)}\n{''.join(covers)}", encoding="utf-8")
    src = str(Path(sr.__file__).resolve().parents[1])
    path_var = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path_var)
    proc = subprocess.Popen(
        [sys.executable, "-m", "subrep.cli", "subrep", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_pinboard_theta_command(capsys):
    code, out, _ = run(
        capsys,
        "pinboard",
        "theta",
        "pin (w2,12) (7,aleph3)",
        "pin (w1+1,1) (5,aleph0) (3,aleph0)",
    )
    assert code == 0
    assert "[0, 1)  height w1+1" in out
    assert "height 3" not in out  # absorbed entry
    assert out.rstrip().endswith("elsewhere  height 0")


def test_pinboard_theta_co_form(capsys):
    code, out, _ = run(
        capsys,
        "pinboard",
        "theta",
        "copin (w1,4) (3,aleph0)",
        "copin (3,2) (1,1)",
    )
    assert code == 0
    assert "height 3*" in out and "height 1*" in out
    code, _, _ = run(
        capsys, "pinboard", "theta", "copin (w1,4) (3,aleph0)", "pin (3,2)"
    )
    assert code == 1  # orientation mismatch is a parse-level refusal


def test_pinboard_embed_command(capsys):
    code, out, _ = run(
        capsys,
        "pinboard",
        "embed",
        "pin (w2,12) (7,aleph3)",
        "pin (5,aleph1)",
        "pin (7,aleph0)",
    )
    assert code == 0
    assert json.loads(out) == {"embeds": False, "thetaSubset": False}


def test_exit_code_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("elem a b\na <", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(bad))
    assert code == 1 and err


def test_exit_code_semantic_error(capsys, tmp_path):
    big = tmp_path / "big.poset"
    names = [f"x{i}" for i in range(11)]
    big.write_text("elem " + " ".join(names) + "\n", encoding="utf-8")
    code, _, err = run(capsys, "oracle", str(big))
    assert code == 2 and err == "error: oracle is limited to 10 elements, got 11\n"


SEVENTEEN_CHAIN = (
    "elem " + " ".join(f"x{i}" for i in range(17)) + "\n"
    + "".join(f"x{i} < x{i + 1}\n" for i in range(16))
).encode()


@pytest.mark.parametrize(
    "argv, data, want",
    [
        (["classify", "{file}"], b"elem \xff\xfe\n", 1),
        (["pinboard", "theta", "pin (w2,12) (7,aleph3)", "pin (w1*0,1)"], None, 1),
        (["pinboard", "theta", "pin (w2,12) (7,aleph3)", "pin (3,\u00b2)"], None, 1),
        (["pinboard", "theta", "pin (w2,12) (7,aleph3)", "pin (3," + "9" * 5000 + ")"], None, 1),
        (["survey", "0"], None, 2),
        (["survey", "-1"], None, 2),
        (["survey", "7"], None, 2),
        (["subrep", "{file}"], SEVENTEEN_CHAIN, 2),
        (["pinboard", "theta", "pin (w2,12) (7,aleph3)", "pin (3,1)", "pin (2,1)"], None, 1),
        (["pinboard", "embed", "pin (w2,12) (7,aleph3)", "pin (3,1)"], None, 1),
    ],
    ids=["not-utf8", "zero-multiplicity", "superscript-count", "long-count",
         "survey-zero", "survey-negative", "survey-too-large", "table-too-large",
         "theta-two-subsets", "embed-one-subset"],
)
def test_bad_input_is_one_error_line(capsys, tmp_path, argv, data, want):
    path = tmp_path / "in.poset"
    if data is not None:
        path.write_bytes(data)
    code, out, err = run(capsys, *[a.replace("{file}", str(path)) for a in argv])
    assert code == want
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_cycle_is_semantic(capsys, tmp_path):
    cyc = tmp_path / "cyc.poset"
    cyc.write_text("elem a b\na < b\nb < a\n", encoding="utf-8")
    code, _, err = run(capsys, "classify", str(cyc))
    assert code == 2


def test_demo_section2_golden(capsys):
    code, out, _ = run(capsys, "demo", "section2")
    assert code == 0
    assert "subset: true" in out
    assert "reverse: false" in out
    assert "[8, w0)  height 5  (aleph0 columns)" in out
    assert "[9, w1)  height 6  (aleph1 columns)" in out
    assert out == DEMO_SECTION2


def test_demo_fig1_table(capsys):
    code, out, _ = run(capsys, "demo", "fig1")
    assert code == 0
    assert "{1} -> {3}" in out
    assert "{1,2,3,4} -> {1,2,3,4}" in out
    assert "violations: 0" in out
    assert out == DEMO_FIG1


def test_demo_fig3(capsys):
    code, out, _ = run(capsys, "demo", "fig3")
    assert code == 0
    assert "wedge embeds at: {1,3,4}; {2,3,4}" in out
    assert "exhausted, no map exists" in out
    assert out == DEMO_FIG3


def test_demos_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = run(capsys, "demo", "section2")
        outputs.append(out)
    assert outputs[0] == outputs[1]


# Full demo and survey stdout, byte for byte.

SURVEY4 = """\
posets on 4 elements: 16 classes, 9 sub-representable, 7 not, 0 disagreements
code          kind                  classifier  oracle  agree
0400000000    unionOfChains         True        True    True
0400000001    unionOfChains         True        True    True
0400000003    notSubRepresentable   False       False   True
0400000007    flower                True        True    True
0400000101    notSubRepresentable   False       False   True
0400000102    unionOfChains         True        True    True
0400000103    notSubRepresentable   False       False   True
0400000105    unionOfChains         True        True    True
0400000107    notSubRepresentable   False       False   True
0400000303    notSubRepresentable   False       False   True
0400000307    flower                True        True    True
0400010101    coFlower              True        True    True
0400010103    notSubRepresentable   False       False   True
0400010107    notSubRepresentable   False       False   True
0400010303    coFlower              True        True    True
0400010307    unionOfChains         True        True    True
"""

DEMO_FIG1 = """\
witnessing map for the four-point flower (1 < 2, 2 < 3, 2 < 4):
  {1} -> {3}
  {2} -> {3}
  {1,2} -> {2,3}
  {3} -> {3}
  {1,3} -> {2,3}
  {2,3} -> {2,3}
  {1,2,3} -> {1,2,3}
  {4} -> {3}
  {1,4} -> {2,3}
  {2,4} -> {2,3}
  {1,2,4} -> {1,2,3}
  {3,4} -> {3,4}
  {1,3,4} -> {2,3,4}
  {2,3,4} -> {2,3,4}
  {1,2,3,4} -> {1,2,3,4}
violations: 0
"""

DEMO_FIG3 = """\
poset: 1 < 2, 2 < 3, 4 < 3
wedge embeds at: {1,3,4}; {2,3,4}
two-point chains inside those images: {1,3}; {2,3}; {3,4}
points incomparable to {1,3}: none
points incomparable to {2,3}: none
points incomparable to {3,4}: none
{1,2,4} is a two-point chain plus an incomparable point, so it has no candidate image
{
  "kind": "notSubRepresentable",
  "subRepresentable": false,
  "witness": {
    "patterns": [
      {
        "pattern": "long_arm_wedge",
        "map": {
          "a": "1",
          "b": "2",
          "c": "3",
          "d": "4"
        }
      }
    ]
  }
}
oracle: exhausted, no map exists
"""

DEMO_SECTION2 = """\
host: pin (w2,12) (7,aleph3)
theta(Y):
  [0, 1)  height w1+1  (1 column)
  [1, 2)  height w1  (1 column)
  [2, 4)  height w0+5  (2 columns)
  [4, 5)  height w0  (1 column)
  [5, 7)  height 30  (2 columns)
  [7, 8)  height 20  (1 column)
  [8, w0)  height 5  (aleph0 columns)
  elsewhere  height 0
theta(Y'):
  [0, 2)  height w2  (2 columns)
  [2, 3)  height w1+10  (1 column)
  [3, 4)  height w1  (1 column)
  [4, 5)  height w0  (1 column)
  [5, 6)  height 60  (1 column)
  [6, 7)  height 40  (1 column)
  [7, 8)  height 30  (1 column)
  [8, 9)  height 20  (1 column)
  [9, w1)  height 6  (aleph1 columns)
  elsewhere  height 0
subset: true
reverse: false
embeds: true
"""


# Fuzzed input to main(): every case exits 0, 1 or 2 and prints no traceback.
# The strategies mix well-formed text, which reaches the library, with noise.
_NAMES = st.sampled_from(["a", "b", "c", "d", "e", "f", "g", "h", "1", '"', "\\", "é"])
_DECLARED_POSET = st.tuples(
    st.lists(_NAMES, min_size=1, max_size=8, unique=True),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10),
).map(lambda t: [
    "elem " + " ".join(t[0]),
    *(f"{t[0][i % len(t[0])]} < {t[0][j % len(t[0])]}" for i, j in t[1]),
])
_POSET_LINE = st.one_of(
    st.lists(_NAMES, max_size=8).map(lambda names: "elem " + " ".join(names)),
    st.tuples(_NAMES, _NAMES).map(lambda pair: f"{pair[0]} < {pair[1]}"),
    st.text(max_size=12),
    st.just("# comment"),
)
_POSET_LINES = st.one_of(_DECLARED_POSET, st.lists(_POSET_LINE, max_size=10))

_SMALL = st.integers(0, 20).map(str)
_ODD_NUMBER = st.sampled_from(["9" * 5000, "\u00b2", "-1", ""])
_ORDINAL = st.one_of(
    _SMALL,
    st.integers(0, 3).map(lambda k: f"w{k}"),
    st.tuples(st.integers(0, 3), st.integers(1, 3), _SMALL).map(
        lambda t: f"w{t[0]}*{t[1]}+{t[2]}"
    ),
)
_CARDINAL = st.one_of(_SMALL, st.integers(0, 3).map(lambda k: f"aleph{k}"))
_PAIR = st.tuples(_ORDINAL, _CARDINAL).map(lambda t: f"({t[0]},{t[1]})")
_ODD_PAIR = st.tuples(
    st.one_of(_ORDINAL, _ODD_NUMBER, st.text(max_size=4)),
    st.one_of(_CARDINAL, _ODD_NUMBER, st.text(max_size=4)),
).map(lambda t: f"({t[0]},{t[1]})")
_PAIR_LIST = st.one_of(
    st.lists(_PAIR, min_size=1, max_size=4).map(lambda pairs: " ".join(["pin", *pairs])),
    st.tuples(
        st.sampled_from(["pin", "copin", "pon"]), st.lists(st.one_of(_PAIR, _ODD_PAIR), max_size=4)
    ).map(lambda t: " ".join([t[0], *t[1]])),
)
_HOST = st.one_of(
    st.sampled_from(["pin (w2,12) (7,aleph3)", "pin (w1,20) (9,aleph0)", "copin (w1,3) (4,aleph0)"]),
    _PAIR_LIST,
)


def _main_outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


@settings(max_examples=120, deadline=None)
@given(lines=_POSET_LINES, dot=st.booleans())
def test_fuzzed_poset_files_never_raise(tmp_path_factory, lines, dot):
    path = tmp_path_factory.getbasetemp() / "fuzz.poset"
    path.write_text("\n".join(lines), encoding="utf-8")
    _main_outcome(["classify", *(["--dot"] if dot else []), str(path)])


@settings(max_examples=120, deadline=None)
@given(host=_HOST, subsets=st.lists(_PAIR_LIST, min_size=1, max_size=2))
def test_fuzzed_pair_lists_never_raise(host, subsets):
    action = "theta" if len(subsets) == 1 else "embed"
    _main_outcome(["pinboard", action, host, *subsets])


@settings(max_examples=20, deadline=None)
@given(n=st.integers(-5, 3), as_json=st.booleans())
def test_fuzzed_survey_sizes_never_raise(n, as_json):
    _main_outcome(["survey", str(n), *(["--json"] if as_json else [])])
