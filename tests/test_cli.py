import io
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st
from _oracles import row_data, row_text
from test_root_datum import BUILDER_SPECS

from ziphasse import cli_report, root_datum, weyl, zip_core
from ziphasse.cli_report import (
    COMMANDS,
    ParseError,
    ValidationError,
    main,
    parse_config,
    render_json,
    render_text,
    run,
    write_json,
    write_text,
)


UNITARY3 = {"q": 3, "group": {"builder": "unitary", "n": 3}, "parabolic_type": [1]}
GL2_BOREL = {"q": 3, "group": {"builder": "gl", "n": 2}, "parabolic_type": []}
GL7_BOREL = {"q": 2, "group": {"builder": "gl", "n": 7}, "parabolic_type": []}
HB3 = {"q": 2,
       "group": {"builder": "weil_restriction", "copies": 3,
                 "inner": {"builder": "gl", "n": 2}},
       "parabolic_type": []}
WEIL_GL3_TWO_GAPS = {"q": 3,
                     "group": {"builder": "weil_restriction", "copies": 2,
                               "inner": {"builder": "gl", "n": 3}},
                     "parabolic_type": [3, 4]}
PGL3_FULL = {"q": 3,
             "group": {"builder": "simple", "series": "A", "rank": 2,
                       "isogeny": "adjoint"},
             "parabolic_type": [1, 2]}


def nested_product(depth):
    """A document whose group is GL2 inside ``depth`` nested products.

    Built as text: json.dumps itself recurses too deeply at depth 900.
    """
    group = ('{"builder": "product", "factors": [' * depth
             + '{"builder": "gl", "n": 2}' + ']}' * depth)
    return '{"q": 3, "parabolic_type": [], "group": %s}' % group


def run_cli(args, stdin_text):
    old = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        import contextlib
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(args)
        return code, out.getvalue(), err.getvalue()
    finally:
        sys.stdin = old


class TestParseConfig:
    def test_valid(self):
        cfg = parse_config(json.dumps(UNITARY3))
        assert cfg.q == 3
        assert cfg.parabolic_type == (0,)
        assert cfg.cocharacter is None

    def test_cocharacter_form(self):
        cfg = parse_config(json.dumps(
            {"q": 5, "group": {"builder": "gl", "n": 3}, "cocharacter": [1, 1, 0]}))
        assert cfg.cocharacter == (1, 1, 0)

    def test_neither_input(self):
        with pytest.raises(ValidationError):
            parse_config(json.dumps({"q": 3, "group": {"builder": "gl", "n": 3}}))

    def test_both_inputs(self):
        doc = dict(UNITARY3)
        doc["cocharacter"] = [1, 0, 0]
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_q_bound(self):
        doc = dict(UNITARY3)
        doc["q"] = 1
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        doc = dict(UNITARY3)
        doc["frobnicate"] = True
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))
        bad_group = {"q": 3, "group": {"builder": "gl", "n": 3, "m": 1},
                     "parabolic_type": []}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(bad_group))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError) as info:
            parse_config("{\n  \"q\": 3,,\n}")
        assert "line" in str(info.value) and "column" in str(info.value)

    def test_one_based_indices(self):
        doc = dict(UNITARY3)
        doc["parabolic_type"] = [0]
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))


class TestRun:
    def test_hasse_unitary3(self):
        d = run("hasse", parse_config(json.dumps(UNITARY3)))
        assert d["invariant_factors"] == ["1", "4", "8"]
        assert d["hasse_number"] == "8"
        assert d["J"] == [1] and d["J0"] == []
        assert not d["warnings"]

    def test_orbits_gl2(self):
        d = run("orbits", parse_config(json.dumps(GL2_BOREL)))
        assert len(d["orbits"].words) == 2
        assert len(d["codim1"]) == 1
        assert d["pic_rank"] == 1

    def test_picard_adjoint(self):
        report = run("picard", parse_config(json.dumps(PGL3_FULL)))
        assert report["picard"] == ["3"]
        assert not report["warnings"]  # picard alone is fine

    def test_pgl_obstruction(self):
        report = run("hasse", parse_config(json.dumps(PGL3_FULL)))
        assert report["warnings"]
        assert report["warnings"][0]["code"] == "PicObstruction"
        assert report["pic_L0_trivial"] is False

    def test_all_sections_present(self):
        d = run("all", parse_config(json.dumps(HB3)))
        for key in ("zeta", "det_zeta", "invariant_factors", "hasse_number",
                    "orbits", "codim1", "positivity", "picard", "warnings"):
            assert key in d
        assert d["hasse_number"] == "7"

    def test_invalid_node(self):
        doc = {"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [5]}
        with pytest.raises(ValidationError):
            run("hasse", parse_config(json.dumps(doc)))


class TestDeterminism:
    @pytest.mark.parametrize("doc", [UNITARY3, GL2_BOREL, HB3])
    def test_byte_identical_json(self, doc):
        text = json.dumps(doc)
        first = render_json(run("all", parse_config(text)))
        second = render_json(run("all", parse_config(text)))
        assert first.encode() == second.encode()

    def test_round_trip_lossless(self):
        rendered = render_json(run("all", parse_config(json.dumps(UNITARY3))))
        doc = json.loads(rendered)
        assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == rendered

    def test_text_carries_same_numbers(self):
        d = run("all", parse_config(json.dumps(UNITARY3)))
        text = render_text(d)
        assert d["hasse_number"] in text
        assert d["det_zeta"] in text
        for f in d["invariant_factors"]:
            assert f in text


class TestMainEntry:
    def test_exit_zero(self):
        code, out, err = run_cli(["hasse"], json.dumps(UNITARY3))
        assert code == 0
        assert json.loads(out)["hasse_number"] == "8"

    def test_exit_two_on_bad_input(self):
        code, out, err = run_cli(["hasse"], "{nope")
        assert code == 2
        assert "ParseError" in err

    def test_exit_two_on_validation(self):
        code, out, err = run_cli(["hasse"], json.dumps({"q": 1}))
        assert code == 2

    def test_exit_three_on_obstruction_with_partial_report(self):
        code, out, err = run_cli(["all"], json.dumps(PGL3_FULL))
        assert code == 3
        doc = json.loads(out)
        assert doc["picard"] == ["3"]
        assert doc["warnings"][0]["code"] == "PicObstruction"
        assert "PicObstruction" in err

    def test_node_out_of_range_is_named_as_written(self):
        doc = {"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [5]}
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 2 and out == ""
        assert err == ("ziphasse: ValidationError: parabolic_type index 5 is out "
                       "of range 1..2\n")

    def test_weyl_cap_flag(self):
        code, out, err = run_cli(["orbits", "--weyl-cap", "2"], json.dumps(UNITARY3))
        assert code == 3
        assert json.loads(out)["warnings"][0]["code"] == "WeylGroupTooLarge"

    def test_weyl_cap_option_below_one_is_input_error(self):
        doc = dict(UNITARY3, options={"weyl_cap": -1})
        code, out, err = run_cli(["orbits"], json.dumps(doc))
        assert code == 2 and out == ""
        assert "ValidationError" in err and "weyl_cap" in err

    @pytest.mark.parametrize("doc,message", [
        (dict(GL2_BOREL, q=True), "q must be an integer, got True"),
        (dict(GL2_BOREL, q=3.0), "q must be an integer, got 3.0"),
        ({"q": 3, "group": {"builder": "gl", "n": 2}, "cocharacter": [1, True]},
         "cocharacter entry must be an integer, got True"),
        (dict(GL2_BOREL, parabolic_type=["1"]),
         "parabolic_type entry must be an integer, got '1'"),
        (dict(GL2_BOREL, options={"weyl_cap": True}),
         "weyl_cap must be an integer, got True"),
    ], ids=["q_true", "q_float", "cocharacter_true", "parabolic_str", "weyl_cap_true"])
    def test_non_integer_is_input_error(self, doc, message):
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 2 and out == ""
        assert err == "ziphasse: ValidationError: %s\n" % message

    def test_weyl_cap_flag_below_one_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(UNITARY3)))
        with pytest.raises(SystemExit) as info:
            main(["orbits", "--weyl-cap", "0"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--weyl-cap" in captured.err

    def test_e6_maximal_orbits_without_enumeration(self):
        doc = {"q": 2, "group": {"builder": "simple", "series": "E", "rank": 6},
               "parabolic_type": [2, 3, 4, 5, 6]}
        code, out, err = run_cli(["orbits"], json.dumps(doc))
        assert code == 0 and err == ""
        d = json.loads(out)
        assert len(d["orbits"]) == 27 and d["eta_length"] == 16
        assert d["codim1"] == [{"node": 1, "orbit": 25}]

    @pytest.mark.parametrize("command", ["positivity", "all"])
    def test_weil_block_missing_two_nodes_is_uncovered(self, command):
        code, out, err = run_cli([command], json.dumps(WEIL_GL3_TWO_GAPS))
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["positivity"][0]["kind"] == "uncovered"
        assert doc["warnings"] == []

    @pytest.mark.parametrize("doc,kind", [
        ({"q": 3, "group": {"builder": "unitary", "n": 3}, "parabolic_type": []},
         "divisor_coefficients"),
        ({"q": 3, "group": {"builder": "weil_restriction", "copies": 3,
                            "inner": {"builder": "gl", "n": 2}},
          "parabolic_type": [1]}, "weil_pullback"),
        (UNITARY3, "uncovered"),
    ], ids=["rational", "weil", "uncovered"])
    def test_positivity_kind(self, doc, kind):
        code, out, err = run_cli(["positivity"], json.dumps(doc))
        assert code == 0
        assert json.loads(out)["positivity"][0]["kind"] == kind

    @pytest.mark.parametrize("group", [
        {"builder": "gl", "n": 129},
        {"builder": "weil_restriction", "copies": 10**9,
         "inner": {"builder": "gl", "n": 1}},
        {"builder": "product", "factors": [{"builder": "gl", "n": 100},
                                           {"builder": "gsp", "dim": 60}]},
    ], ids=["GL129", "ResGL1x1e9", "GL100xGSp60"])
    def test_rank_above_budget_is_input_error(self, group, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a group above the rank budget was built")

        monkeypatch.setattr(root_datum, "build_group", forbidden)
        doc = {"q": 2, "group": group, "parabolic_type": []}
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 2 and out == ""
        assert "ValidationError" in err and "budget of 128" in err

    def test_rank_at_budget_runs(self):
        doc = {"q": 3, "group": {"builder": "unitary", "n": 128}, "parabolic_type": []}
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 0 and err == ""
        assert len(json.loads(out)["zeta"]) == 128

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "\n",
        nested_product(900),
    ], ids=["brackets100000", "product900"])
    def test_deep_nesting_is_input_error(self, text):
        code, out, err = run_cli(["hasse"], text)
        assert code == 2 and out == ""
        assert "ParseError" in err and "nested too deeply" in err

    def test_nesting_above_budget_is_input_error(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a group nested above the budget was built")

        monkeypatch.setattr(root_datum, "build_group", forbidden)
        for depth in (33, 300):
            code, out, err = run_cli(["hasse"], nested_product(depth))
            assert code == 2 and out == ""
            assert "ValidationError" in err and "more than 32 deep" in err
        weil = {"q": 3, "parabolic_type": [], "group": {"builder": "gl", "n": 1}}
        for _ in range(33):
            weil["group"] = {"builder": "weil_restriction", "copies": 1,
                             "inner": weil["group"]}
        code, out, err = run_cli(["hasse"], json.dumps(weil))
        assert code == 2 and out == "" and "more than 32 deep" in err

    def test_nesting_at_budget_runs(self):
        code, out, err = run_cli(["hasse"], nested_product(32))
        assert code == 0 and err == ""
        assert json.loads(out)["invariant_factors"] == ["2", "2"]

    def test_q_above_bit_budget_is_input_error(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("q above the bit budget was factored")

        monkeypatch.setattr(root_datum, "is_prime_power", forbidden)
        doc = dict(GL2_BOREL, q=2**61 - 1)
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 2 and out == ""
        assert "ValidationError" in err and "61 bits, above the budget of 40" in err

    @pytest.mark.parametrize("q,message", [
        (1, "q must be >= 2"),
        (2**49 + 1, "q has 50 bits, above the budget of 40"),
        (6, "unknown builder 'spin'"),
    ], ids=["q_below_two", "q_50_bits", "q_not_a_prime_power"])
    def test_invalid_group_and_q_report_the_first_check_made(self, q, message):
        # q's range and bit budget are read before the group; whether q is
        # a prime power only once the group is built
        doc = {"q": q, "group": {"builder": "spin"}, "parabolic_type": []}
        code, out, err = run_cli(["hasse"], json.dumps(doc))
        assert code == 2 and out == ""
        assert err == "ziphasse: ValidationError: %s\n" % message

    def test_q_at_bit_budget_runs(self):
        code, out, err = run_cli(["hasse"], json.dumps(dict(GL2_BOREL, q=2**39)))
        assert code == 0 and err == ""
        assert json.loads(out)["q"] == 2**39

    def test_text_format(self):
        code, out, err = run_cli(["hasse", "--format", "text"], json.dumps(UNITARY3))
        assert code == 0
        assert "hasse:" in out

    def test_file_input(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(UNITARY3))
        code, out, err = run_cli(["hasse", "--input", str(path)], "")
        assert code == 0

    def test_integer_literal_above_digit_limit_is_input_error(self):
        text = json.dumps(GL2_BOREL).replace('"q": 3', '"q": ' + "7" * 5000)
        code, out, err = run_cli(["hasse"], text)
        assert code == 2 and out == "" and err.startswith("ziphasse: ")
        if hasattr(sys, "get_int_max_str_digits"):
            # without the digit limit q is read and fails the bit budget
            assert "ParseError" in err and "too many digits" in err

    def test_non_utf8_file_is_input_error(self, tmp_path):
        raw = json.dumps(UNITARY3).encode().replace(b"3}", b"3\xff}")
        path = tmp_path / "latin.json"
        path.write_bytes(raw)
        code, out, err = run_cli(["hasse", "--input", str(path)], "")
        assert code == 2 and out == ""
        assert err.startswith("ziphasse: %s is not UTF-8: " % (path,))
        for args, stdin in ((["--input", str(path)], b""), ([], raw)):
            proc = subprocess.run(
                [sys.executable, "-m", "ziphasse", "hasse", *args],
                input=stdin, capture_output=True)
            assert proc.returncode == 2 and proc.stdout == b""
            assert b"Traceback" not in proc.stderr

    # python -m enters at __main__; the console script calls main directly
    ENTRY_POINTS = {
        "module": ["-m", "ziphasse"],
        "script": ["-c", "import sys; from ziphasse.cli_report import main; "
                         "sys.exit(main())"],
    }

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("command", ["hasse", "orbits"])
    def test_write_error_exits_two_without_traceback(self, entry, command):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, *self.ENTRY_POINTS[entry], command],
                input=json.dumps(GL7_BOREL).encode(), stdout=full,
                stderr=subprocess.PIPE)
        assert proc.returncode == 2
        assert proc.stderr.startswith(b"ziphasse: cannot write the report: ")
        assert proc.stderr.count(b"\n") == 1 and b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_pipe_closed_after_one_byte_exits_two_without_traceback(self, entry):
        # the orbit table of GL7 (1 MB) overfills the pipe before it closes
        proc = subprocess.Popen(
            [sys.executable, *self.ENTRY_POINTS[entry], "orbits"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdin.write(json.dumps(GL7_BOREL).encode())
        proc.stdin.close()
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.startswith(b"ziphasse: cannot write the report: ")
        assert err.count(b"\n") == 1 and b"Traceback" not in err

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ziphasse", "hasse"],
            input=json.dumps(UNITARY3), capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hasse_number"] == "8"


# Values of the wrong JSON type for any field of a document.
WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(-4, 4, width=16), st.text(max_size=2),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(0, 2), max_size=1))
# Small groups with the rank of X* and the number of simple roots.
GROUPS = [
    ({"builder": "gl", "n": 2}, 2, 1),
    ({"builder": "unitary", "n": 3}, 3, 2),
    ({"builder": "gsp", "dim": 4}, 3, 2),
    ({"builder": "simple", "series": "G", "rank": 2}, 2, 2),
    ({"builder": "simple", "series": "A", "rank": 2, "isogeny": "adjoint"}, 2, 2),
    ({"builder": "product", "factors": [{"builder": "gl", "n": 1},
                                        {"builder": "unitary", "n": 2}]}, 3, 1),
    ({"builder": "weil_restriction", "copies": 2,
      "inner": {"builder": "gl", "n": 2}}, 4, 2),
]


@st.composite
def valid_documents(draw):
    """q, a group of GROUPS and a cocharacter or parabolic type that fits it."""
    group, rank, nodes = draw(st.sampled_from(GROUPS))
    doc = {"q": draw(st.sampled_from([2, 3, 4, 5, 2 ** 39])), "group": group}
    if draw(st.booleans()):
        doc["cocharacter"] = draw(st.lists(st.integers(-1, 1), min_size=rank,
                                           max_size=rank))
    else:
        doc["parabolic_type"] = draw(st.lists(st.integers(1, nodes), unique=True))
    if draw(st.booleans()):
        doc["options"] = draw(st.fixed_dictionaries({}, optional={
            "weyl_cap": st.integers(1, 20), "format": st.sampled_from(["json", "text"])}))
    return doc


VALID = valid_documents()
# Faulty values of each field: wrong-typed, out of range or over budget.
FAULTS = {
    "q": st.one_of(st.integers(-2, 1), st.sampled_from([6, 2 ** 40 + 15, 6 ** 20]), WRONG),
    "group": st.one_of(st.sampled_from([
        {"builder": "gl", "n": True},
        {"builder": "gl"},
        {"builder": "spin", "n": 2},
        {"builder": "gl", "n": 200},
        {"builder": "product", "factors": []},
    ]), WRONG),
    "cocharacter": st.one_of(st.lists(st.one_of(st.integers(-2, 2), WRONG),
                                      min_size=1, max_size=5), WRONG),
    "parabolic_type": st.one_of(st.lists(st.one_of(st.integers(-1, 6), WRONG),
                                         min_size=1, max_size=4), WRONG),
    "options": st.one_of(st.fixed_dictionaries({}, optional={
        "weyl_cap": st.one_of(st.integers(-1, 0), WRONG),
        "format": st.one_of(st.just("xml"), WRONG),
        "colour": st.integers()}), WRONG),
    "extra": st.integers(),
}
ONE_FAULT = VALID.flatmap(lambda doc: st.sampled_from(sorted(FAULTS)).flatmap(
    lambda key: FAULTS[key].map(lambda value: dict(doc, **{key: value}))))
# Malformed JSON: a document cut short, or a few arbitrary characters.
MALFORMED = st.one_of(
    ONE_FAULT.map(json.dumps).flatmap(
        lambda text: st.integers(1, len(text) - 1).map(lambda k: text[:k])),
    st.text(max_size=6))
TEXTS = st.one_of(VALID.map(json.dumps), ONE_FAULT.map(json.dumps), MALFORMED)


@st.composite
def grammar_documents(draw):
    """A group of the whole builder grammar at rank <= 10, a J of its nodes
    and a small census cap, so that orbits/all stay cheap or exit 3."""
    group = draw(BUILDER_SPECS.filter(lambda spec: root_datum.check_group(spec)[1] <= 10))
    q = draw(st.sampled_from([2, 3, 4, 5, 2 ** 39]))
    nodes = root_datum.build_group(group, q)[0].num_nodes
    J = draw(st.lists(st.integers(1, nodes), unique=True)) if nodes else []
    return {"q": q, "group": group, "parabolic_type": J,
            "options": {"weyl_cap": draw(st.integers(1, 1000)),
                        "format": draw(st.sampled_from(["json", "text"]))}}


class TestWholeDocuments:
    @staticmethod
    def check(text, command):
        # an uncaught exception (exit code 1) fails the test by propagating
        first = run_cli([command], text)
        code, out, _ = first
        assert code in (0, 2, 3)
        assert run_cli([command], text) == first
        if code == 2:
            assert out == ""

    @settings(max_examples=300, deadline=None, database=None)
    @given(TEXTS, st.sampled_from(COMMANDS))
    def test_exit_codes_and_determinism(self, text, command):
        self.check(text, command)

    @settings(max_examples=150, deadline=None, database=None)
    @given(grammar_documents().map(json.dumps), st.sampled_from(COMMANDS))
    def test_every_grammar_group_as_a_document(self, text, command):
        self.check(text, command)


def oracle_json(value):
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


JSON_ATOMS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-1), st.text())
JSON_VALUES = st.recursive(
    JSON_ATOMS,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(st.text(), inner)),
    max_leaves=40)


class TestRenderJsonOracle:
    """render_json writes exactly what json.dumps(sort_keys, indent=2) does."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(JSON_VALUES)
    @example([1, True, 0, False])
    @example({"b": [], "a": {}, "c": (), "d": [[], {}, ()]})
    @example({"big": [2**64, 2**64 + 1, -2**70, -1, 0]})
    @example(['q"uote', "back\\slash", "\x00\x1f\x7f\n\t", "caf\u00e9 \u2028 \U0001d11e"])
    @example({"\u00e9": 1, "e": 2, "\"": [None, True, "x", 3]})
    def test_matches_json_dumps(self, value):
        assert render_json(value) == oracle_json(value)

    @pytest.mark.parametrize("value", [
        1.5, {1, 2}, object(), [1, 2.0], {"a": {"b": frozenset()}}, {1: "a"},
        {"a": 1, 2: "b"},
    ], ids=["float", "set", "object", "nested-float", "nested-frozenset",
            "int-key", "mixed-keys"])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            render_json(value)

    @pytest.mark.parametrize("group", [
        {"builder": "unitary", "n": 4},
        {"builder": "gsp", "dim": 6},
        {"builder": "simple", "series": "D", "rank": 4, "isogeny": "adjoint"},
    ], ids=["U4", "GSp6", "D4ad"])
    def test_every_J_and_command_matches_json_dumps(self, group):
        rd, _ = root_datum.build_group(group, 3)
        nodes = range(1, rd.num_nodes + 1)
        for size in range(rd.num_nodes + 1):
            for J in itertools.combinations(nodes, size):
                cfg = parse_config(json.dumps(
                    {"q": 3, "group": group, "parabolic_type": list(J)}))
                for command in COMMANDS:
                    report = run(command, cfg)
                    assert render_json(report).splitlines(True) == \
                        oracle_json(row_data(report)).splitlines(True), (J, command)


TABLE_KEYS = st.one_of(
    st.sampled_from(["word", "length", "dim", "codim", "%s", "%%", "%(a)d"]),
    st.text(alphabet='ab%"\\é \U0001d11e', min_size=1, max_size=4))
INT_CELLS = st.one_of(
    st.integers(), st.integers(min_value=2**64, max_value=2**200),
    st.integers(max_value=-2**64, min_value=-2**200))
LIST_CELLS = st.lists(INT_CELLS, max_size=4)
ODD_ITEMS = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False))
ODD_CELLS = st.one_of(
    ODD_ITEMS,
    st.lists(st.booleans(), min_size=1, max_size=2),
    st.lists(st.floats(allow_nan=False, allow_infinity=False),
             min_size=1, max_size=2),
    st.lists(LIST_CELLS, min_size=1, max_size=2), st.just((1, 2)),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


@st.composite
def tables(draw):
    """Lists of dicts shaped like the orbit table, at most one cell or key off."""
    keys = draw(st.lists(TABLE_KEYS, min_size=1, max_size=4, unique=True))
    cells = {key: draw(st.sampled_from((INT_CELLS, LIST_CELLS))) for key in keys}
    size = draw(st.integers(0, 18))
    rows = [{key: draw(cells[key]) for key in keys} for _ in range(size)]
    if rows and draw(st.booleans()):
        row = rows[draw(st.integers(0, size - 1))]
        key = draw(st.sampled_from(keys))
        flaw = draw(st.sampled_from(
            ("odd", "odd-item", "swap", "extra", "missing", "int-key")))
        if flaw == "odd":
            row[key] = draw(ODD_CELLS)
        elif flaw == "odd-item":
            items = row[key] if type(row[key]) is list else [row[key]]
            row[key] = items + [draw(ODD_ITEMS)]
        elif flaw == "swap":
            row[key] = draw(LIST_CELLS if type(row[key]) is int else INT_CELLS)
        elif flaw == "extra":
            row[draw(TABLE_KEYS.filter(lambda k: k not in keys))] = 0
        elif flaw == "missing":
            del row[key]
        else:
            row[1] = 0
    return rows


def writable(value):
    """False when the value holds a float or a non-str key (render_json raises)."""
    if isinstance(value, float):
        return False
    if isinstance(value, dict):
        return all(type(k) is str for k in value) and all(map(writable, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(writable, value))
    return True


class TestLikeShapedRows:
    """Lists of like-shaped dicts go through the recursive writer."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(tables())
    @example([{"word": [], "length": 0}] * 8)
    @example([{"%s": [2**64, -1], '"é': True}] * 9)
    @example([{"a": 1}] * 7 + [{"a": 1.0}])
    @example([{"a": 1}] * 7 + [{"a": 1, 2: 0}])
    @example([{"a": [1]}] * 8 + [{"a": [1, True]}])
    @example([{"a": [1]}] * 8 + [{"a": [2, 0.5]}])
    def test_matches_json_dumps_or_raises_type_error(self, rows):
        value = {"rows": rows, "nested": [{"%t": rows}]}
        if writable(value):
            assert render_json(value) == oracle_json(value)
        else:
            with pytest.raises(TypeError):
                render_json(value)

    @pytest.mark.parametrize("rows", [
        [{"a": 1}] * 7,
        [{}] * 8,
        [{"a": 1}] * 7 + [{"a": True}],
        [{"a": [1]}] * 7 + [{"a": [True]}],
        [{"a": [1]}] * 7 + [{"a": (1,)}],
        [{"a": [1]}] * 7 + [{"a": 1}],
        [{"a": 1}] * 7 + [{"b": 1}],
        [{"a": 1}] * 7 + [{"a": 1, "b": 1}],
    ], ids=["short", "empty", "bool", "bool-in-list", "tuple", "mixed", "other-key",
            "extra-key"])
    def test_other_shapes_match_json_dumps(self, rows):
        assert render_json(rows) == oracle_json(rows)

    def test_int_keys_raise_type_error(self):
        with pytest.raises(TypeError):
            render_json([{1: 1}] * 8)

    def test_shape_checks_survive_optimize_flag(self):
        script = (
            "import json\n"
            "from ziphasse.cli_report import render_json\n"
            "for rows in ([{'word': [1, 2], 'length': 2}] * 9,\n"
            "             [{'a': [1]}] * 8 + [{'a': [True]}],\n"
            "             [{'a': 1}] * 8 + [{'b': 1}],\n"
            "             [{'a': [1]}] * 8 + [{'a': [0.5]}]):\n"
            "    try:\n"
            "        text = render_json(rows)\n"
            "    except TypeError:\n"
            "        text = 'TypeError'\n"
            "    print(text == json.dumps(rows, sort_keys=True, indent=2) + '\\n'\n"
            "          or text)\n")
        src = str(Path(cli_report.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\nTrue\nTrue\nTypeError\n"


@st.composite
def census_documents(draw):
    """A grammar group with |W| <= 2000 and at most 6 nodes, and a q.

    Every J of such a group has |W_J \\ W| <= 2000 orbits.
    """
    group = draw(BUILDER_SPECS.filter(lambda spec: root_datum.check_group(spec)[1] <= 12))
    rd, _ = root_datum.build_group(group, 3)
    if rd.num_nodes > 6 or weyl.classical_order(rd) > 2000:
        reject()
    return {"q": draw(st.sampled_from([2, 3, 2 ** 39])), "group": group}, rd.num_nodes


def census_reports(doc, nodes):
    """The orbits report of doc for every J, J = all nodes included."""
    for size in range(nodes + 1):
        for J in itertools.combinations(range(1, nodes + 1), size):
            yield run("orbits", parse_config(json.dumps(dict(doc, parabolic_type=J))))


def streamed(write, report):
    """What write(report, stream) writes to a StringIO."""
    stream = io.StringIO()
    write(report, stream)
    return stream.getvalue()


class TestOrbitWriter:
    """run() hands the OrbitCensus to the writers, which read its columns.

    The texts are compared as lists of lines: a failure then names the
    first line that differs, where a diff of two long strings takes minutes.
    """

    F4 = ({"q": 3, "group": {"builder": "simple", "series": "F", "rank": 4}}, 4)
    GSP6 = ({"q": 2, "group": {"builder": "gsp", "dim": 6}}, 3)

    @settings(max_examples=40, deadline=None, database=None)
    @given(census_documents())
    @example(F4)
    @example(GSP6)
    def test_json_matches_the_row_dicts(self, doc_nodes):
        for report in census_reports(*doc_nodes):
            assert render_json(report).splitlines(True) == \
                oracle_json(row_data(report)).splitlines(True)
            assert streamed(write_json, report) == render_json(report)

    @settings(max_examples=40, deadline=None, database=None)
    @given(census_documents())
    @example(F4)
    @example(GSP6)
    def test_text_matches_the_row_formatter(self, doc_nodes):
        for report in census_reports(*doc_nodes):
            assert render_text(report).splitlines(True) == \
                row_text(report).splitlines(True)
            assert streamed(write_text, report) == render_text(report)

    def test_one_orbit_when_J_holds_every_node(self):
        doc = {"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [1, 2]}
        report = run("orbits", parse_config(json.dumps(doc)))
        assert report["orbits"].words == ((),)
        assert '"word": []' in render_json(report)
        assert "  orbit word=[] length=0 dim=9 codim=0\n" in render_text(report)
        assert render_json(report).splitlines(True) == \
            oracle_json(row_data(report)).splitlines(True)
        assert streamed(write_json, report) == render_json(report)
        assert streamed(write_text, report) == render_text(report)

    def test_orbit_table_is_streamed_one_length_at_a_time(self):
        report = run("orbits", parse_config(json.dumps(GL7_BOREL)))
        writes = []
        write_json(report, SimpleNamespace(write=writes.append))
        text = "".join(writes)
        assert text == render_json(report)
        census = report["orbits"]
        assert sum('"word"' in w for w in writes) >= census.eta_length + 1
        # the text of one length runs from its first row to the next length's
        rows = [m.start() for m in re.finditer(r'\{\n {6}"codim"', text)]
        assert len(rows) == len(census.lengths) == 5040
        firsts = [n for n, length in enumerate(census.lengths)
                  if n == 0 or census.lengths[n - 1] != length]
        ends = [rows[n] for n in firsts[1:]] + [text.index("\n  ]", rows[-1])]
        largest = max(end - rows[n] for n, end in zip(firsts, ends))
        assert max(map(len, writes)) <= largest

    def test_census_is_written_at_any_indent(self):
        doc = {"q": 3, "parabolic_type": [2],
               "group": {"builder": "simple", "series": "F", "rank": 4}}
        census = run("orbits", parse_config(json.dumps(doc)))["orbits"]
        assert type(census) is zip_core.OrbitCensus
        rows = row_data({"orbits": census})["orbits"]
        value = {"top": census, "nested": [[{"%d": census}], census]}
        expanded = {"top": rows, "nested": [[{"%d": rows}], rows]}
        assert render_json(value).splitlines(True) == \
            oracle_json(expanded).splitlines(True)
        assert streamed(write_json, value) == render_json(value)


class TestOneParserPerProcess:
    def test_parser_is_built_once_on_first_use(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from ziphasse import cli_report as c; "
             "before = c._parser.cache_info().currsize; "
             "c._parser(); print(before, c._parser.cache_info().currsize)"],
            capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.split() == ["0", "1"]
        assert cli_report._parser() is cli_report._parser()

    def test_format_flag_does_not_stick(self):
        code, out, err = run_cli(["hasse", "--format", "text"], json.dumps(UNITARY3))
        assert code == 0 and out.startswith("datum: ")
        code, out, err = run_cli(["hasse"], json.dumps(UNITARY3))
        assert code == 0 and json.loads(out)["hasse_number"] == "8"

    def test_usage_error_repeats(self, capsys, monkeypatch):
        for _ in range(2):
            monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(UNITARY3)))
            with pytest.raises(SystemExit) as info:
                main(["orbits", "--weyl-cap", "0"])
            assert info.value.code == 2
            assert "--weyl-cap" in capsys.readouterr().err

    def test_documents_in_one_process_match_fresh_processes(self):
        cases = [(["all"], UNITARY3), (["orbits", "--format", "text"], HB3),
                 (["all", "--weyl-cap", "2"], PGL3_FULL)]
        in_process = [run_cli(args, json.dumps(doc)) for args, doc in cases]
        for (args, doc), (code, out, err) in zip(cases, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "ziphasse"] + args,
                input=json.dumps(doc).encode(), capture_output=True)
            assert (code, out.encode()) == (proc.returncode, proc.stdout)
