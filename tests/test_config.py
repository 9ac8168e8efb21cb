"""Config parsing, shipped-scenario equivalence with the programmatic
builders, and error reporting with line numbers."""

import re
import textwrap
from fractions import Fraction as Q
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import scen
from oracles import homog
from lefbench.cli import run_command
from lefbench.config import (_hpoint, _int, _rational, load_config,
                             parse_config)
from lefbench.errors import ConfigError, Inconsistent, LefbenchError
from lefbench.exactgeom import Pt
from lefbench.fibration import TotalSpaceFiber
from lefbench.wrapping import WrapParams

ROOT = Path(__file__).resolve().parents[1]


def shipped(name: str) -> str:
    return str(resources.files("lefbench") / "scenarios" / name)


def _doc(body: str) -> str:
    return textwrap.dedent(body).lstrip("\n")


BASE = _doc("""
    [disc d]
    puncture p = 0 0

    [fiber F]
    dim = 2
    homology 0 = 1
    homology 1 = 1
    class c = 1

    [fibration f]
    disc = d
    fiber = F
    reference-angle = 0
    crit p = c | 1/2

    [run]
    fibration = f
    """)


# --------------------------------------------------------------------------
# shipped scenarios match the programmatic builders
# --------------------------------------------------------------------------

def test_readme_config_block_is_w0():
    # the README's config block is a complete config, W0 with its two
    # fibrations renamed, and gives W0's report
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    text, _ = run_command("all", parse_config(block, "README.md"))
    golden = (ROOT / "tests" / "golden" / "w0_all.txt").read_text()
    assert text == golden.replace("main-W0", "main").replace("aux-W0", "aux")


@pytest.mark.parametrize("variant", ["W0", "W1"])
def test_shipped_main_scenarios(variant):
    cfg = load_config(shipped(f"{variant}.cfg"))
    assert cfg.fibration == scen.full_main_fibration(variant)
    assert cfg.name == f"main-{variant}"
    assert [(cx.puncture, cy.puncture) for cx, cy in cfg.towers] == [
        ("b", "b"), ("a", "a"), ("a", "b")]
    assert {c for pair in cfg.towers for c in pair} <= set(cfg.fibration.crits)
    assert cfg.wrap == WrapParams(Q(1, 64), (0, 1, 2, 3))


def test_shipped_ts3():
    cfg = load_config(shipped("ts3.cfg"))
    assert cfg.fibration == scen.ts3_fibration()
    assert cfg.towers == ()
    assert cfg.wrap == WrapParams()


@pytest.mark.parametrize("name", ["W0", "W1", "ts3", "empty-fibration"])
def test_loaded_arcs_store_reduced_triples(name):
    f = load_config(shipped(f"{name}.cfg")).fibration
    while True:
        for arc in [c.path for c in f.crits] + [mo.path for mo in f.objects]:
            assert arc.hverts == tuple(homog(v) for v in arc.vertices)
        if not isinstance(f.fiber, TotalSpaceFiber):
            break
        f = f.fiber.fibration


def test_crit_path_keeps_its_middle_vertices():
    cfg = parse_config(BASE.replace("crit p = c | 1/2",
                                    "crit p = c | 1/2 | 0 -1/3 ; 1/4 -2/3"))
    path = cfg.fibration.crits[0].path
    assert path.vertices == (scen.pt(0, 0), scen.pt(0, Q(-1, 3)),
                             scen.pt(Q(1, 4), Q(-2, 3)), scen.pt(-1, 0))
    assert path.hverts == tuple(homog(v) for v in path.vertices)


def test_shipped_empty_fibration():
    cfg = load_config(shipped("empty-fibration.cfg"))
    assert cfg.fibration == scen.empty_fibration()


def test_base_doc_parses():
    cfg = parse_config(BASE)
    assert cfg.name == "f"
    assert len(cfg.fibration.crits) == 1
    assert cfg.fibration.oracle is None


def test_the_wrap_grid_is_the_run_disc_line():
    # the run fibration's disc line sets the spiral grid; an inner disc's
    # line is checked and dropped, and a run disc without one gives 16
    text = Path(shipped("W1.cfg")).read_text()
    run = "puncture b = 1/2 0\nresolution = 16\n"
    inner = "puncture c-mid = 0 0\nresolution = 16\n"
    assert text.count(run) == 1 and text.count(inner) == 1
    cfg = parse_config(text.replace(run, run.replace("16", "40")))
    assert cfg.wrap == WrapParams(Q(1, 64), (0, 1, 2, 3), 40)
    cfg = parse_config(text.replace(inner, inner.replace("16", "40")))
    assert cfg.wrap.resolution == 16
    cfg = parse_config(text.replace(run, "puncture b = 1/2 0\n"))
    assert cfg.wrap.resolution == 16
    assert parse_config(BASE).wrap == WrapParams()


# --------------------------------------------------------------------------
# errors carry the config line
# --------------------------------------------------------------------------

def _expect_error(text, needle, lineno=None, exc=ConfigError, source="t.cfg"):
    with pytest.raises(exc) as e:
        parse_config(_doc(text), source=source)
    msg = str(e.value)
    assert needle in msg and msg.startswith(f"{source}:"), msg
    if lineno is not None:
        assert f"{source}:{lineno}:" in msg, msg


def test_float_rejected():
    _expect_error("""
        [disc d]
        puncture p = 0.5 0
        """, "not an exact rational", lineno=2)


def test_zero_denominator():
    _expect_error("""
        [disc d]
        puncture p = 1/0 0
        """, "zero denominator", lineno=2)


# a rational token: a sign, leading zeros, and a numerator over an optional
# nonzero denominator, up to 40 digits each
RATIONAL_TOKENS = st.builds(
    lambda sign, zeros, p, q: f"{sign}{'0' * zeros}{p}"
    + ("" if q is None else f"/{q}"),
    st.sampled_from(["", "+", "-"]), st.integers(0, 2),
    st.integers(0, 10 ** 40), st.none() | st.integers(1, 10 ** 40))


@given(RATIONAL_TOKENS, RATIONAL_TOKENS)
@example("-0", "6/4")
@example("-12/8", "+0/7")
def test_rationals_parse_on_integers(x, y):
    assert _rational(x, "c:1") == Q(x)
    assert type(_rational(x, "c:1")) is Q
    assert _hpoint([x, y], "c:1") == homog(Pt(Q(x), Q(y)))


@pytest.mark.parametrize("token, message", [
    ("1/0", "zero denominator in '1/0'"),
    ("-0/0", "zero denominator in '-0/0'"),
    ("0.5", "'0.5' is not an exact rational (use p/q integers; no floating"
     " point)"),
    ("1e3", "'1e3' is not an exact rational (use p/q integers; no floating"
     " point)"),
    ("--1", "'--1' is not an exact rational (use p/q integers; no floating"
     " point)"),
])
def test_bad_rationals_keep_their_messages(token, message):
    for parse in (lambda: _rational(token, "c:1"),
                  lambda: _hpoint([token, "0"], "c:1"),
                  lambda: _hpoint(["0", token], "c:1")):
        with pytest.raises(ConfigError) as e:
            parse()
        assert str(e.value) == f"c:1: {message}"


# the number language as a regex: \d is Unicode category Nd, the digits
# int() reads
REFERENCE_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?")
REFERENCE_INTEGER = re.compile(r"[+-]?\d+")
# signs, ASCII and other Nd digits (Arabic-Indic three, fullwidth three),
# and characters int() or a float reads that the language refuses
NUMBER_CHARS = ["+", "-", "/", "0", "1", "7", "٣", "３", "²",
                "_", " ", ".", "e", "\n"]


def _number_outcome(parse, token):
    try:
        return parse(token, "c:1")
    except ConfigError as e:
        return str(e)


@given(st.text(st.sampled_from(NUMBER_CHARS), max_size=8))
@example("٣/３")
@example("-３0")
@example("1_0")
@example("1/²")
@example(" 1")
@example("1\n")
@example("+-1")
@example("1/-2")
@example("")
def test_number_rule_is_the_reference_language(token):
    not_rational = (f"c:1: {token!r} is not an exact rational (use p/q"
                    " integers; no floating point)")
    if not REFERENCE_RATIONAL.fullmatch(token):
        expected = not_rational
    elif not int(token.partition("/")[2] or 1):
        expected = f"c:1: zero denominator in {token!r}"
    else:
        expected = Q(token)
    assert _number_outcome(_rational, token) == expected
    assert _number_outcome(_int, token) == (
        int(token) if REFERENCE_INTEGER.fullmatch(token)
        else f"c:1: {token!r} is not an integer")


def test_unknown_section_kind():
    _expect_error("""
        [discs d]
        """, "unknown section kind", lineno=1)


def test_content_before_section():
    _expect_error("""
        puncture p = 0 0
        """, "before the first section", lineno=1)


def test_missing_equals():
    _expect_error("""
        [disc d]
        puncture p 0 0
        """, "expected 'key = value'", lineno=2)


def test_duplicate_key():
    _expect_error("""
        [disc d]
        puncture p = 0 0
        puncture p = 1/4 0
        """, "duplicate key", lineno=3)
    # one vanishing path per puncture: a repeated crit line is refused here
    _expect_error(BASE.replace("crit p = c | 1/2",
                               "crit p = c | 1/2\ncrit p = c | 1/4"),
                  "duplicate key 'crit p'", lineno=15)
    # a fiber's cycle class and an oracle's label are declared once each,
    # whatever the whitespace in the key
    _expect_error(BASE.replace("class c = 1", "class c = 1\nclass\tc = 1"),
                  "duplicate key 'class c'", lineno=9)
    _expect_error(BASE + "[oracle f]\nlabel c = sphere\nlabel  c = plain\n",
                  "duplicate key 'label c'", lineno=20)


def test_missing_provenance():
    _expect_error(BASE + "\n".join([
        "[oracle f]",
        "label c = sphere",
        "rank c c = 2",
    ]), "provenance", lineno=20)


def test_malformed_relation():
    _expect_error(BASE + "\n".join([
        "[oracle f]",
        "label c = sphere",
        "relation = tangent c c !assumed x",
    ]), "relation is", lineno=20)


def test_bad_label_value():
    _expect_error(BASE + "[oracle f]\nlabel c = torus\n",
                  "'sphere' or 'plain'", lineno=19)


def test_unknown_disc_reference():
    _expect_error(BASE.replace("disc = d", "disc = e"),
                  "unknown disc", lineno=10)


def test_total_space_must_point_backwards():
    _expect_error(BASE.replace("fiber = F", "fiber = total-space g"),
                  "declared earlier", lineno=10)


def test_crit_over_unknown_puncture():
    _expect_error(BASE.replace("crit p = c | 1/2", "crit q = c | 1/2"),
                  "unknown puncture", lineno=14, exc=LefbenchError)


def test_missing_run_section():
    text = BASE.split("[run]")[0]
    _expect_error(text, "missing [run]")


def test_run_names_unknown_fibration():
    # the error cites the [run] header line
    _expect_error(BASE.replace("fibration = f", "fibration = g"),
                  "unknown fibration", lineno=16)


def test_provenance_kind_is_cited_or_assumed():
    oracle = "[oracle f]\nlabel c = sphere\nparity c c = all-same !{} x\n"
    _expect_error(BASE + oracle.format("hearsay"),
                  "malformed provenance '!hearsay x'", lineno=20)
    parse_config(BASE + oracle.format("assumed"), source="t.cfg")


def test_duplicate_run_and_wrap_sections():
    _expect_error(BASE + "[run]\n", "duplicate [run]", lineno=18)
    _expect_error(BASE + "[wrap]\n[wrap]\n", "duplicate [wrap]", lineno=19)


@pytest.mark.parametrize("extra, message, lineno", [
    ("[disc d]\n", "duplicate disc 'd'", 18),
    ("[fiber F]\n", "duplicate fiber 'F'", 18),
    # an empty repeat: the duplicate is found before its missing keys
    ("[fibration f]\n", "duplicate fibration 'f'", 18),
    ("[objects f]\n[objects f]\n", "duplicate objects section for 'f'", 19),
    ("[oracle f]\n[oracle f]\n", "duplicate oracle section for 'f'", 19),
], ids=["disc", "fiber", "fibration", "objects", "oracle"])
def test_duplicate_named_sections(extra, message, lineno):
    _expect_error(BASE + extra, message, lineno=lineno)


def test_duplicate_checks_come_first():
    # split errors, by line, come before duplicate keys
    _expect_error(BASE + "fibration = f\n[runs]\n", "unknown section kind",
                  lineno=19)
    # a duplicate key in a later section comes before a bad value in an
    # earlier one
    _expect_error(BASE.replace("puncture p = 0 0", "puncture p = 0.5 0")
                  + "fibration = f\n", "duplicate key 'fibration'", lineno=18)
    # a repeated section comes before an error inside it or in any later
    # section, and after an error in an earlier section
    _expect_error(BASE + "[disc d]\npuncture q = 0.5 0\n[fiber G]\ndim = x\n",
                  "duplicate disc 'd'", lineno=18)
    _expect_error(BASE.replace("[run]", "[fiber G]\ndim = x\n[run]")
                  + "[run]\n", "'x' is not an integer", lineno=17)


REPEATED_PUNCTURE = BASE.replace("puncture p = 0 0",
                                 "puncture p = 0 0\npuncture p = 1/4 0")


@pytest.mark.parametrize("text, message", [
    # a duplicate key early loses to a malformed header anywhere later
    (REPEATED_PUNCTURE + "[run\n",
     "t.cfg:19: unterminated section header"),
    # of two duplicate keys, in two sections or in one, the first is reported
    (REPEATED_PUNCTURE.replace("class c = 1", "class c = 1\nclass c = 2"),
     "t.cfg:3: duplicate key 'puncture p'"),
    (BASE.replace("dim = 2", "dim = 2\ndim = 3\nhomology 0 = 2"),
     "t.cfg:6: duplicate key 'dim'"),
    # a duplicate key comes before a malformed number above it
    (BASE.replace("puncture p = 0 0", "puncture p = 0.5 0\npuncture p = 0 0"),
     "t.cfg:3: duplicate key 'puncture p'"),
], ids=["header-after-duplicate", "two-sections", "one-section",
        "number-before-duplicate"])
def test_error_precedence(text, message):
    with pytest.raises(ConfigError) as e:
        parse_config(text, source="t.cfg")
    assert str(e.value) == message


def test_unknown_crit_puncture_is_located_at_its_line():
    with pytest.raises(LefbenchError) as e:
        parse_config(BASE.replace("crit p = c | 1/2", "crit q = c | 1/2"),
                     source="t.cfg")
    assert type(e.value) is LefbenchError
    assert str(e.value) == "t.cfg:14: unknown puncture 'q'"


# --------------------------------------------------------------------------
# line endings and encodings
# --------------------------------------------------------------------------

W1_TEXT = Path(shipped("W1.cfg")).read_bytes()


@pytest.mark.parametrize("encode", [
    lambda text: text.replace(b"\n", b"\r\n"),
    lambda text: text.replace(b"\n", b"\r"),
    lambda text: b"\xef\xbb\xbf" + text,
], ids=["crlf", "cr", "bom"])
def test_line_endings_and_bom_load_the_same(encode, tmp_path):
    cfg = tmp_path / "W1.cfg"
    cfg.write_bytes(encode(W1_TEXT))
    plain = load_config(shipped("W1.cfg"))
    assert load_config(cfg) == plain
    assert run_command("all", load_config(cfg)) == run_command("all", plain)
    # a broken line keeps its line number
    lineno = W1_TEXT.split(b"\n").index(b"delta = 1/64") + 1
    cfg.write_bytes(encode(W1_TEXT.replace(b"delta = 1/64", b"delta = 0.5")))
    with pytest.raises(ConfigError) as e:
        load_config(cfg)
    assert str(e.value).startswith(f"{cfg}:{lineno}: '0.5' is not an exact")


W0_TEXT = Path(shipped("W0.cfg")).read_text(encoding="utf-8")


@pytest.mark.parametrize("sep", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_line_separators_in_a_comment_stay_in_it(sep, tmp_path):
    # str.splitlines breaks a line at each of these; an editor, and
    # universal newlines, break only at \n, \r\n and \r
    cfg = tmp_path / "W0.cfg"
    text = W0_TEXT.replace('Scenario "W0"', f'Scenario{sep}"W0"', 1)
    cfg.write_text(text, encoding="utf-8")
    assert load_config(cfg) == load_config(shipped("W0.cfg"))
    # a broken line after that comment keeps its line number
    lineno = text.split("\n").index("delta = 1/64") + 1
    cfg.write_text(text.replace("delta = 1/64", "delta = 0.5"),
                   encoding="utf-8")
    with pytest.raises(ConfigError) as e:
        load_config(cfg)
    assert str(e.value).startswith(f"{cfg}:{lineno}: '0.5' is not an exact")


@pytest.mark.parametrize("offset", [19, 10001])
@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["", "bom"])
def test_undecodable_byte_names_its_position(offset, bom, tmp_path):
    data = bytearray(W1_TEXT * (1 + offset // len(W1_TEXT)))
    data[offset] = 0xFF
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(bom + data)
    with pytest.raises(ConfigError) as e:
        load_config(cfg)
    assert str(e.value) == (
        f"{cfg}: cannot read config ('utf-8' codec can't decode byte 0xff"
        f" in position {offset}: invalid start byte)")


def _with_line(kind, line):
    """BASE with line first in its kind's section, appended as a new
    section for the kinds BASE lacks."""
    header = {"disc": "[disc d]", "fiber": "[fiber F]",
              "fibration": "[fibration f]", "run": "[run]"}.get(kind)
    if header:
        return BASE.replace(header, f"{header}\n{line}")
    return BASE + f"[{kind}{'' if kind == 'wrap' else ' f'}]\n{line}\n"


@pytest.mark.parametrize("kind, line, message, lineno", [
    ("disc", "= 5", "unknown disc key ''", 2),
    ("fiber", "= 5", "unknown fiber key ''", 5),
    ("fibration", "= 5", "unknown fibration key ''", 11),
    ("objects", "= 5", "unknown objects key ''", 19),
    ("oracle", "= x !cited s", "unknown oracle key ''", 19),
    # the oracle reads a fact's provenance before its key
    ("oracle", "= 5", "oracle facts need a provenance note", 19),
    ("wrap", "= 5", "unknown wrap key ''", 19),
    ("run", "= 5", "unknown run key ''", 17),
], ids=["disc", "fiber", "fibration", "objects", "oracle",
        "oracle-without-provenance", "wrap", "run"])
def test_empty_key_is_an_unknown_key(kind, line, message, lineno):
    _expect_error(_with_line(kind, line), message, lineno=lineno)


def test_bad_tower_token():
    text = BASE.replace("fibration = f", "fibration = f\ntowers = p;p")
    _expect_error(text, "not of the form x:y", lineno=18)


def test_wrap_guards():
    # delta must exceed the fixed bend of a self-tower's copy; the error
    # cites the delta line
    for delta in ("1/128", "0", "-1"):
        _expect_error(BASE + f"[wrap]\ndelta = {delta}\n",
                      f"wrap delta {delta} must exceed 1/128", lineno=19)
    parse_config(BASE + "[wrap]\ndelta = 1/127\n")
    _expect_error(BASE + "[wrap]\nbend = 1/256\n", "unknown wrap key 'bend'",
                  lineno=19)
    for levels in ("1 1", "0 -1", ""):
        _expect_error(BASE + f"[wrap]\nlevels = {levels}\n",
                      "distinct nonnegative", lineno=19)


def test_delta_must_clear_endpoint_gaps():
    # boundary endpoints at 0 (reference) and 1/2 leave a gap of 1/2; the
    # error cites the delta line
    _expect_error(BASE + "[wrap]\ndelta = 1/2\n",
                  "reaches the angular gap 1/2", lineno=19)
    _expect_error(BASE + "[wrap]\nlevels = 0 1\ndelta = 1/2\n",
                  "reaches the angular gap 1/2", lineno=20)
    # the default delta 1/64 against a gap of 1/128: the fibration's header
    _expect_error(BASE.replace("crit p = c | 1/2", "crit p = c | 1/128"),
                  "wrap delta 1/64 reaches the angular gap 1/128", lineno=10)
    # one declared angle leaves a full turn: delta stays below 1
    one_angle = BASE.replace("crit p = c | 1/2", "crit p = c | 0")
    parse_config(one_angle + "[wrap]\ndelta = 63/64\n")
    for delta in ("1", "2"):
        _expect_error(one_angle + f"[wrap]\ndelta = {delta}\n",
                      "reaches the angular gap 1 ", lineno=19)


def test_objects_for_unknown_fibration():
    _expect_error(BASE + "[objects g]\nthimble t = crit p\n",
                  "unknown fibration 'g'", lineno=18)


def test_oracle_for_unknown_fibration():
    _expect_error(BASE + "[oracle g]\nlabel c = sphere\n",
                  "unknown fibration 'g'", lineno=18)


def test_thimble_of_unknown_crit():
    _expect_error(BASE + "[objects f]\nthimble t = crit q\n",
                  "no critical value over puncture", lineno=19)


def test_matching_needs_crits_at_both_ends():
    text = _doc("""
        [disc d]
        puncture p = 0 0
        puncture q = 1/4 0

        [fiber F]
        dim = 2
        homology 0 = 1
        homology 1 = 1
        class c = 1

        [fibration f]
        disc = d
        fiber = F
        reference-angle = 0
        crit p = c | 1/2

        [objects f]
        matching m = p q

        [run]
        fibration = f
        """)
    _expect_error(text, "no critical value over puncture 'q'", lineno=18)


def test_inconsistent_oracle_keeps_type_and_gains_line():
    text = BASE + "\n".join([
        "[oracle f]",
        "label c = sphere",
        "rank c c = 1 !assumed broken",
    ])
    with pytest.raises(Inconsistent) as e:
        parse_config(_doc(text), source="t.cfg")
    assert "t.cfg:18:" in str(e.value)


def test_unreadable_file():
    with pytest.raises(ConfigError) as e:
        load_config("/nonexistent/nowhere.cfg")
    assert "cannot read config" in str(e.value)
