import contextlib
import copy
import io
import json
import pickle
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _oracles import (apply, central_solve_weights, coefficient_closure, dense_datum,
                      dense_group, dense_rows, dense_tau, dot, factorisations,
                      first_negative_to_dominant, power_loop_frobenius, same_lattice,
                      transpose, xstar_dominant_conjugate)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ziphasse import cli_report, root_datum
from ziphasse.exact_linear import (IntMatrix, SelfCheckError,
                                   solve_rational)
from ziphasse.root_datum import (
    MAX_DEPTH,
    Component,
    FrobeniusStructure,
    InvalidQError,
    InvalidRankError,
    RootDatum,
    UnsupportedSeriesError,
    _check_q,
    _degrees,
    _dense,
    _cycles,
    _tau,
    _types,
    _walk,
    build_group,
    char_lattice_of_parabolic,
    check_group,
    is_prime_power,
    fundamental_weight_sum,
    fundamental_weights,
    gl,
    gsp,
    opp_type,
    opposition,
    picard_torsion,
    positive_roots,
    product_group,
    simple_group,
    unitary,
    weil_restriction,
)
from ziphasse.zip_core import (PicObstructionError, build_zip_datum,
                               classify_cocharacter, orbit_census, s0_characters)


class TestBuilders:
    def test_gl3(self):
        rd, frob = gl(3, 5)
        assert rd.rank == 3
        assert rd.num_nodes == 2
        assert dense_datum(rd).root(0) == (1, -1, 0)
        assert dense_tau(frob) == IntMatrix.identity(3)
        assert frob.order == 1

    def test_unitary3(self):
        rd, frob = unitary(3, 3)
        assert rd.rank == 3
        assert frob.order == 2
        assert apply(dense_tau(frob), (1, 0, 0)) == (0, 0, -1)  # tau(e1) = -e3
        assert frob.root_perm == (1, 0)

    def test_weil_restriction(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        assert rd.rank == 6
        assert frob.order == 3
        # block 1 shifts down to block 0
        assert apply(dense_tau(frob), (0, 0, 1, 0, 0, 0)) == (1, 0, 0, 0, 0, 0)
        assert frob.root_perm == (2, 0, 1)

    def test_gsp4(self):
        rd, frob = gsp(4, 3)
        assert rd.rank == 3
        assert rd.num_nodes == 2
        cart = dense_datum(rd).cartan_matrix()
        assert cart.to_rows() == [[2, -2], [-1, 2]]

    def test_simple_isogenies(self):
        sc, _ = simple_group("A", 2, 2, "simply_connected")
        ad, _ = simple_group("A", 2, 2, "adjoint")
        assert dense_datum(sc).cartan_matrix() == dense_datum(ad).cartan_matrix()
        assert picard_torsion(sc) == ()
        assert picard_torsion(ad) == (3,)

    def test_product(self):
        rd, frob = product_group(
            [{"builder": "gl", "n": 2}, {"builder": "gl", "n": 3}], 5)
        assert rd.rank == 5
        assert rd.num_nodes == 3
        assert len(rd.components) == 2

    def test_build_group_dispatch(self):
        rd, frob = build_group({"builder": "unitary", "n": 3}, 3)
        assert rd == gl(3, 3)[0] and frob.sign == (-1,) * 3
        with pytest.raises(UnsupportedSeriesError):
            build_group({"builder": "so"}, 3)

    def test_invalid_q(self):
        with pytest.raises(InvalidQError):
            gl(3, 1)
        with pytest.raises(InvalidQError):
            gl(3, 6)
        gl(3, 8)  # 2^3 is fine
        gl(3, 49)

    def test_is_prime_power_below_2_to_the_12(self):
        factors = factorisations(1 << 12)
        for q in range(-2, 1 << 12):
            assert is_prime_power(q) == (q in factors and len(factors[q]) == 1), q

    def test_invalid_rank(self):
        with pytest.raises(InvalidRankError):
            simple_group("D", 2, 3)
        with pytest.raises(InvalidRankError):
            simple_group("E", 9, 3)
        with pytest.raises(InvalidRankError):
            gsp(3, 3)

    def test_weil_needs_split_inner(self):
        with pytest.raises(UnsupportedSeriesError):
            weil_restriction(2, {"builder": "unitary", "n": 3}, 3)


def nested(spec, depth):
    """spec wrapped in depth single-factor products."""
    for _ in range(depth):
        spec = {"builder": "product", "factors": [spec]}
    return spec


GL2 = {"builder": "gl", "n": 2}
GOLDEN_Q = 1099511627689  # 2^40 - 87, the largest 40-bit prime
GOLDEN_NESTED = json.loads(
    (Path(__file__).parent / "golden" / "cases.json").read_text(encoding="utf-8")
)["nested30x4_q40bit"]["document"]["group"]
# nested products and Weil restrictions, up to rank 24
NESTED_SPECS = [
    GOLDEN_NESTED,
    {"builder": "weil_restriction", "copies": 3, "inner": nested(
        {"builder": "product", "factors": [
            GL2, {"builder": "simple", "series": "B", "rank": 2,
                  "isogeny": "adjoint"}]}, 2)},
    {"builder": "product", "factors": [
        {"builder": "weil_restriction", "copies": 6, "inner": nested(GL2, 2)},
        nested({"builder": "unitary", "n": 4}, 3), {"builder": "gsp", "dim": 6}]},
    {"builder": "product", "factors": [
        {"builder": "simple", "series": "D", "rank": 4, "isogeny": "adjoint"},
        {"builder": "unitary", "n": 6},
        nested({"builder": "weil_restriction", "copies": 7, "inner": GL2}, 1)]},
    {"builder": "product", "factors": [{"builder": "gl", "n": 1}] * 24},
]


# the simple groups among the grammar's leaves, as (series, rank)
SIMPLE_LEAVES = [("A", 1), ("A", 3), ("B", 2), ("C", 3), ("D", 3), ("D", 4), ("G", 2)]
# every Dynkin series at the ranks of Bourbaki's plates that the tests run
PLATES = ([("A", n) for n in range(1, 9)]
          + [(s, n) for s in "BC" for n in range(2, 9)]
          + [("D", n) for n in range(3, 10)]
          + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


def _leaf_specs(split):
    simple = st.tuples(st.sampled_from(SIMPLE_LEAVES),
                       st.sampled_from(("simply_connected", "adjoint")))
    leaves = [
        st.builds(lambda n: {"builder": "gl", "n": n}, st.integers(1, 4)),
        st.builds(lambda d: {"builder": "gsp", "dim": d}, st.sampled_from((2, 4, 6))),
        simple.map(lambda s: {"builder": "simple", "series": s[0][0],
                              "rank": s[0][1], "isogeny": s[1]}),
    ]
    if not split:
        leaves.append(st.builds(lambda n: {"builder": "unitary", "n": n},
                                st.integers(1, 5)))
    return st.one_of(leaves)


def _products(children):
    return st.lists(children, min_size=1, max_size=3).map(
        lambda fs: {"builder": "product", "factors": fs})


# the builder grammar; a Weil restriction only ever wraps a split group,
# a product of split leaves
SPLIT_SPECS = st.recursive(_leaf_specs(True), _products, max_leaves=3)
BUILDER_SPECS = st.recursive(
    _leaf_specs(False),
    lambda ch: st.one_of(_products(ch), st.tuples(st.integers(1, 3), SPLIT_SPECS).map(
        lambda ci: {"builder": "weil_restriction", "copies": ci[0], "inner": ci[1]})),
    max_leaves=5)


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for field in a._fields:
        assert getattr(a, field) == getattr(b, field), field


class TestOneFrobeniusPerGroup:
    """build_group checks tau once, for the whole group: factors and inner
    groups are built as (datum, src, sign).  A warm description checks
    only q."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"is_prime_power": 0, "_tau": 0}
        for name in calls:
            def counted(*args, _name=name, _inner=getattr(root_datum, name)):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(root_datum, name, counted)
        root_datum._group.cache_clear()
        return calls

    @pytest.mark.parametrize("spec", NESTED_SPECS)
    def test_q_is_factored_once_and_frobenius_made_once(self, spec, calls):
        rd, frob = build_group(spec, GOLDEN_Q)
        assert calls == {"is_prime_power": 1, "_tau": 1}
        assert frob.q == GOLDEN_Q and len(frob.src) == rd.rank <= 24

    @pytest.mark.parametrize("spec", NESTED_SPECS)
    def test_a_warm_description_checks_q_and_not_tau(self, spec, calls):
        build_group(spec, GOLDEN_Q)
        rd, frob = build_group(spec, GOLDEN_Q)
        assert calls == {"is_prime_power": 2, "_tau": 1}
        assert frob.q == GOLDEN_Q and len(frob.src) == rd.rank <= 24

    @settings(max_examples=40, deadline=None, database=None)
    @given(BUILDER_SPECS)
    def test_every_grammar_spec_makes_one_frobenius(self, spec):
        with pytest.MonkeyPatch.context() as monkeypatch:
            made = []
            inner = root_datum._tau
            monkeypatch.setattr(root_datum, "_tau",
                                lambda *args: made.append(1) or inner(*args))
            root_datum._group.cache_clear()
            build_group(spec, 4)
            assert made == [1]
            build_group(spec, 5)
        assert made == [1]

    PUBLIC = [
        (lambda q: gl(3, q), {"builder": "gl", "n": 3}),
        (lambda q: unitary(4, q), {"builder": "unitary", "n": 4}),
        (lambda q: gsp(6, q), {"builder": "gsp", "dim": 6}),
        (lambda q: simple_group("B", 3, q),
         {"builder": "simple", "series": "B", "rank": 3}),
        (lambda q: simple_group("C", 3, q, "adjoint"),
         {"builder": "simple", "series": "C", "rank": 3, "isogeny": "adjoint"}),
        (lambda q: product_group(GOLDEN_NESTED["factors"], q), GOLDEN_NESTED),
        (lambda q: weil_restriction(3, NESTED_SPECS[1]["inner"], q),
         NESTED_SPECS[1]),
    ]

    @pytest.mark.parametrize("build,spec", PUBLIC)
    def test_public_builders_equal_build_group(self, build, spec):
        for got, expected in zip(build(9), build_group(spec, 9)):
            assert_same_fields(got, expected)

    def test_a_bad_group_is_reported_before_a_bad_q(self):
        with pytest.raises(InvalidRankError):
            build_group({"builder": "product", "factors": [
                GL2, {"builder": "gl", "n": 0}]}, 6)
        with pytest.raises(InvalidQError):
            build_group({"builder": "product", "factors": [GL2, GL2]}, 6)

    def test_a_nested_non_split_inner_group_is_refused(self):
        with pytest.raises(UnsupportedSeriesError,
                           match="weil_restriction needs a split inner group"):
            weil_restriction(2, nested({"builder": "unitary", "n": 3}, 3), 3)

    def test_the_order_check_holds_for_the_whole_group(self):
        # Weil restrictions of 2, 3, 5, 7, 11 and 13 copies: each factor
        # has a small order, the product has order 30030 > 10000
        factors = [{"builder": "weil_restriction", "copies": c,
                    "inner": {"builder": "gl", "n": 1}}
                   for c in (2, 3, 5, 7, 11, 13)]
        with pytest.raises(ValueError, match="does not have small finite order"):
            product_group(factors, 2)
        assert product_group(factors[:5], 2)[1].order == 2310


B3 = {"builder": "simple", "series": "B", "rank": 3}
U3_WEIL = {"builder": "weil_restriction", "copies": 2,
           "inner": {"builder": "unitary", "n": 3}}


def memo_size():
    return root_datum._group.cache_info().currsize


class TestGroupMemo:
    """build_group keeps one datum per description and process, and checks
    q on every call."""

    @pytest.mark.parametrize("spec,same", [
        ({"builder": "gsp", "dim": 6}, {"dim": 6, "builder": "gsp"}),
        (B3, dict(B3, isogeny="simply_connected")),
        (B3, {"isogeny": "simply_connected", "rank": 3, "series": "B",
              "builder": "simple"}),
        ({"builder": "product", "factors": [
            {"builder": "weil_restriction", "copies": 2,
             "inner": nested({"builder": "simple", "series": "C", "rank": 3}, 1)},
            {"builder": "unitary", "n": 3}]},
         {"factors": [
             {"inner": {"factors": [{"rank": 3, "series": "C", "builder": "simple",
                                     "isogeny": "simply_connected"}],
                        "builder": "product"},
              "builder": "weil_restriction", "copies": 2},
             {"n": 3, "builder": "unitary"}], "builder": "product"}),
    ], ids=["keys_permuted", "isogeny_given", "isogeny_given_keys_permuted",
            "nested_product_and_weil"])
    def test_equal_descriptions_return_one_datum(self, spec, same):
        rd, frob = build_group(spec, 3)
        again, frob_again = build_group(same, 3)
        assert again is rd and frob_again == frob
        assert memo_size() == 1

    def test_the_isogeny_and_the_factor_order_tell_data_apart(self):
        sc, _ = build_group(B3, 2)
        ad, _ = build_group(dict(B3, isogeny="adjoint"), 2)
        assert ad != sc
        assert (picard_torsion(sc), picard_torsion(ad)) == ((), (2,))
        u3 = {"builder": "unitary", "n": 3}
        one, _ = build_group({"builder": "product", "factors": [GL2, u3]}, 2)
        other, _ = build_group({"builder": "product", "factors": [u3, GL2]}, 2)
        assert one != other
        assert memo_size() == 4

    @pytest.mark.parametrize("spec", NESTED_SPECS + [U3_WEIL["inner"], B3])
    def test_a_second_q_keeps_the_datum_and_gets_its_own_frobenius(self, spec):
        rd, frob = build_group(spec, 2)
        rd9, frob9 = build_group(spec, 9)
        assert rd9 is rd and frob9 == frob._replace(q=9)
        root_datum._group.cache_clear()
        cold_rd, cold9 = build_group(spec, 9)
        assert cold_rd is not rd and cold_rd == rd
        assert_same_fields(frob9, cold9)

    @pytest.mark.parametrize("q", [1, 6, 0, -4, True, 4.0, "4", None])
    def test_a_bad_q_is_refused_on_a_warm_description_every_time(self, q):
        rd, _ = build_group(GL2, 4)
        for _ in range(3):
            with pytest.raises(InvalidQError):
                build_group(GL2, q)
        info = root_datum._group.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)
        assert build_group(GL2, 4)[0] is rd

    @pytest.mark.parametrize("q", [3, 6])
    def test_a_non_split_inner_group_is_refused_every_time(self, q):
        for _ in range(3):
            with pytest.raises(UnsupportedSeriesError,
                               match="weil_restriction needs a split inner group"):
                build_group(U3_WEIL, q)
        assert memo_size() == 0

    def test_the_memo_is_bounded_and_an_evicted_description_rebuilds_equal(self):
        spec = {"builder": "unitary", "n": 5}
        first, frob = build_group(spec, 3)
        for n in range(1, root_datum.MAX_GROUPS + 1):
            build_group({"builder": "gl", "n": n}, 3)
        assert memo_size() == root_datum.MAX_GROUPS
        again, frob_again = build_group(spec, 3)
        assert again is not first and again == first
        assert_same_fields(frob_again, frob)
        assert memo_size() == root_datum.MAX_GROUPS

    @settings(max_examples=25, deadline=None, database=None)
    @given(BUILDER_SPECS.filter(lambda spec: check_group(spec)[1] <= 10),
           st.sampled_from([2, 3, 4, 2 ** 39]), st.sampled_from(["json", "text"]),
           st.data())
    def test_every_command_prints_the_same_bytes_warm_and_cold(
            self, spec, q, fmt, data):
        nodes = build_group(spec, q)[0].num_nodes
        J = data.draw(st.lists(st.integers(1, nodes), unique=True)) if nodes else []
        doc = {"q": q, "group": spec, "parabolic_type": J,
               "options": {"weyl_cap": 2000, "format": fmt}}
        cold = []
        for command in cli_report.COMMANDS:
            root_datum._group.cache_clear()
            cold.append(cli_run(command, doc))
        warm = [cli_run(command, doc) for command in cli_report.COMMANDS]
        assert root_datum._group.cache_info().hits >= len(cli_report.COMMANDS)
        assert warm == cold


def weil_tower(spec, depth):
    """spec inside depth nested one-copy Weil restrictions."""
    for _ in range(depth):
        spec = {"builder": "weil_restriction", "copies": 1, "inner": spec}
    return spec


# Descriptions that check_group refuses, each with a piece of its message.
MALFORMED = {
    "n_bool": ({"builder": "gl", "n": True}, "n must be an integer, got True"),
    "n_float": ({"builder": "unitary", "n": 3.0}, "n must be an integer"),
    "n_str": ({"builder": "gl", "n": "3"}, "n must be an integer, got '3'"),
    "dim_float": ({"builder": "gsp", "dim": 4.0}, "dim must be an integer"),
    "rank_bool": ({"builder": "simple", "series": "A", "rank": False},
                  "rank must be an integer"),
    "copies_str": ({"builder": "weil_restriction", "copies": "2", "inner": GL2},
                   "copies must be an integer"),
    "n_zero": ({"builder": "gl", "n": 0}, "gl needs n >= 1"),
    "dim_odd": ({"builder": "gsp", "dim": 5}, "gsp needs an even dim >= 2"),
    "copies_zero": ({"builder": "weil_restriction", "copies": 0, "inner": GL2},
                    "weil_restriction needs copies >= 1"),
    "F5": ({"builder": "simple", "series": "F", "rank": 5},
           "series F does not have rank 5"),
    "series_X": ({"builder": "simple", "series": "X", "rank": 2},
                 "unknown series 'X'"),
    "series_list": ({"builder": "simple", "series": ["A"], "rank": 2},
                    "series must be a string"),
    "isogeny": ({"builder": "simple", "series": "A", "rank": 2, "isogeny": "sc"},
                "isogeny must be simply_connected or adjoint"),
    "unknown_key": ({"builder": "gl", "n": 2, "m": 1}, "unknown group keys ['m']"),
    "unknown_inner_key": (nested(dict(GL2, dim=4), 2), "unknown group keys ['dim']"),
    "factors_empty": ({"builder": "product", "factors": []},
                      "factors must be a non-empty list"),
    "factors_dict": ({"builder": "product", "factors": GL2},
                     "factors must be a non-empty list"),
    "factors_missing": ({"builder": "product"}, "factors must be a non-empty list"),
    "group_list": ([GL2], "group must be an object"),
    "group_str": ("gl", "group must be an object"),
    "inner_list": ({"builder": "weil_restriction", "copies": 2, "inner": [GL2]},
                   "group must be an object"),
    "inner_missing": ({"builder": "weil_restriction", "copies": 2},
                      "group must be an object"),
    "builder_missing": ({"n": 3}, "unknown builder None"),
    "builder_list": ({"builder": ["gl"], "n": 3}, "unknown builder ['gl']"),
    "builder_so": ({"builder": "so", "n": 3}, "unknown builder 'so'"),
    "products_33_deep": (nested(GL2, MAX_DEPTH + 1), "more than 32 deep"),
    "weil_33_deep": (weil_tower(GL2, MAX_DEPTH + 1), "more than 32 deep"),
}


def cli_run(command, doc):
    """(exit code, stdout, stderr) of cli_report.main on doc, in process."""
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_report.main([command])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def cli_hasse(spec):
    """cli_run of hasse on spec at q = 3 with J empty."""
    return cli_run("hasse", {"q": 3, "group": spec, "parabolic_type": []})


@st.composite
def corrupted_specs(draw):
    """A BUILDER_SPECS description with one group broken: a key of it set
    to a value of the wrong type or size, or an unknown key added."""
    spec = json.loads(json.dumps(draw(BUILDER_SPECS)))
    groups, todo = [], [spec]
    while todo:
        groups.append(todo.pop())
        todo += groups[-1].get("factors", [])
        if "inner" in groups[-1]:
            todo.append(groups[-1]["inner"])
    group = draw(st.sampled_from(groups))
    key = draw(st.sampled_from(sorted(group) + ["extra"]))
    group[key] = draw(st.sampled_from((True, 2.0, "2", None, [], {}, 0, -2)))
    return spec


class TestGroupGrammar:
    """check_group is the one reading of a builder description: the library
    and the CLI accept the same descriptions and refuse the same ones."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(BUILDER_SPECS, st.sampled_from((2, 3, 4)))
    def test_the_copy_builds_the_same_group_of_the_same_rank(self, spec, q):
        copy, rank = check_group(spec)
        assert check_group(copy) == (copy, rank)
        built = build_group(spec, q)
        assert built[0].rank == rank
        for got, expected in zip(build_group(copy, q), built):
            assert_same_fields(got, expected)

    def test_the_copy_fills_in_the_isogeny_and_leaves_the_input_alone(self):
        spec = nested({"builder": "simple", "series": "B", "rank": 3}, 2)
        text = json.dumps(spec)
        copy, rank = check_group(spec)
        assert rank == 3 and json.dumps(spec) == text
        assert copy["factors"][0]["factors"][0]["isogeny"] == "simply_connected"

    def test_the_rank_is_read_without_building(self, monkeypatch):
        monkeypatch.setattr(root_datum, "_parts", None)
        spec = {"builder": "product", "factors": [
            {"builder": "weil_restriction", "copies": 10**9,
             "inner": {"builder": "gsp", "dim": 4}},
            {"builder": "simple", "series": "E", "rank": 8}]}
        assert check_group(spec)[1] == 3 * 10**9 + 8

    def test_nesting_at_the_budget_is_accepted(self):
        for spec in (nested(GL2, MAX_DEPTH), weil_tower(GL2, MAX_DEPTH)):
            assert check_group(spec)[1] == 2
            assert build_group(spec, 3)[0].rank == 2

    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_library_and_cli_refuse_a_malformed_description(self, name):
        spec, message = MALFORMED[name]
        with pytest.raises((InvalidRankError, UnsupportedSeriesError)) as info:
            build_group(spec, 3)
        assert message in str(info.value)
        code, out, err = cli_hasse(spec)
        assert code == 2 and out == ""
        assert err.startswith("ziphasse: ValidationError: ") and message in err

    @settings(max_examples=80, deadline=None, database=None)
    @given(corrupted_specs())
    def test_a_corrupted_description_is_refused_by_both(self, spec):
        with pytest.raises((InvalidRankError, UnsupportedSeriesError)) as info:
            check_group(spec)
        with pytest.raises(type(info.value)):
            build_group(spec, 3)
        code, out, err = cli_hasse(spec)
        assert (code, out) == (2, "")
        assert err == "ziphasse: ValidationError: %s\n" % (info.value,)


class TestCartanAndFrobenius:
    BUILDS = [
        lambda: gl(4, 3),
        lambda: unitary(4, 3),
        lambda: gsp(6, 3),
        lambda: simple_group("B", 3, 2),
        lambda: simple_group("G", 2, 5),
        lambda: weil_restriction(2, {"builder": "gl", "n": 3}, 2),
        lambda: product_group([
            {"builder": "unitary", "n": 3},
            {"builder": "weil_restriction", "copies": 3,
             "inner": {"builder": "gl", "n": 2}}], 2),  # tau of order 6
        # non-simply-laced adjoint data: pins A c = t, not A^T c = t
        lambda: simple_group("C", 3, 2, "adjoint"),
        lambda: simple_group("F", 4, 3, "adjoint"),
    ]

    @pytest.mark.parametrize("build", BUILDS)
    def test_cartan_shape(self, build):
        rd, _ = build()
        cart = dense_datum(rd).cartan_matrix()
        for i in range(rd.num_nodes):
            assert cart.row(i)[i] == 2
            for j in range(rd.num_nodes):
                if i != j:
                    assert cart.row(i)[j] <= 0
                    assert (cart.row(i)[j] == 0) == (cart.row(j)[i] == 0)

    @pytest.mark.parametrize("build", BUILDS)
    def test_tau_respects_pairing(self, build):
        rd, frob = build()
        tau, dense = dense_tau(frob), dense_datum(rd)
        # contragredient relation: tau_dual^T * tau = identity, with tau_dual = tau
        assert transpose(tau) * tau == IntMatrix.identity(rd.rank)
        for i in range(rd.num_nodes):
            assert apply(tau, dense.root(i)) == dense.root(frob.root_perm[i])
            assert apply(tau, dense.coroot(i)) == dense.coroot(frob.root_perm[i])

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.integers(0, 8).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.lists(st.sampled_from((1, -1)),
                                            min_size=n, max_size=n))))
    def test_signed_perm_reads_tau(self, signed):
        perm, signs = signed
        n = len(perm)
        frob = frobenius(torus(n), 3, perm, signs)
        assert dense_tau(frob) == IntMatrix(n, n, [signs[i] if j == perm[i] else 0
                                                   for i in range(n) for j in range(n)])
        vec = tuple(range(3, 3 + n))
        assert tuple(s * vec[j] for s, j in zip(frob.sign, frob.src)) == \
            apply(dense_tau(frob), vec)

    def test_rejects_src_and_sign_off_signed_permutations(self):
        for src, sign in (((0, 0), (1, 1)), ((0, 2), (1, 1)), ((1, 0), (1, 2)),
                          ((0,), (1,)), ((1, 0), (-1,))):
            with pytest.raises(ValueError, match="must be a signed permutation"):
                frobenius(torus(2), 2, src, sign)

    def test_rejects_tau_off_the_simple_roots(self):
        rd, _ = gl(3, 2)
        # swapping e1 and e2 sends alpha_1 to -alpha_1
        with pytest.raises(ValueError, match="does not permute the simple roots"):
            frobenius(rd, 2, (1, 0, 2), (1, 1, 1))

    def test_rejects_tau_whose_dual_leaves_the_coroots(self):
        # the swap fixes the root e1 + e2 but sends the coroot e1 to e2
        rd = RootDatum(rank=2, root_entries=(((0, 1), (1, 1)),),
                       coroot_entries=(((0, 1),),))
        with pytest.raises(ValueError,
                           match="tau dual does not follow the root permutation"):
            frobenius(rd, 2, (1, 0), (1, 1))
        assert frobenius(rd, 2, (0, 1), (1, 1)).root_perm == (0,)

    def test_rejects_signed_permutation_of_large_order(self):
        # cycles of lengths 2, 3, 5, 7, 11 and 13: order 30030 > 10000
        cycle_of, start = [], 0
        for length in (2, 3, 5, 7, 11, 13):
            cycle_of += [start + (i + 1) % length for i in range(length)]
            start += length
        n = len(cycle_of)
        with pytest.raises(ValueError, match="does not have small finite order"):
            frobenius(torus(n), 2, cycle_of, (1,) * n)
        # without the 13-cycle the order is 2310, which is accepted
        assert frobenius(torus(28), 2, cycle_of[:28], (1,) * 28).order == 2310

    @pytest.mark.parametrize("build", BUILDS)
    def test_matches_power_loop_oracle(self, build):
        rd, frob = build()
        tau = dense_tau(frob)
        assert (tau, frob.root_perm, frob.order) == \
            power_loop_frobenius(dense_datum(rd), tau)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.lists(st.sampled_from((1, -1)),
                                            min_size=n, max_size=n))))
    def test_signed_permutations_match_power_loop_oracle(self, signed):
        perm, signs = signed
        n = len(perm)
        tau = IntMatrix(n, n, [signs[i] if j == perm[i] else 0
                               for i in range(n) for j in range(n)])
        frob = frobenius(torus(n), 3, perm, signs)
        assert (dense_tau(frob), frob.root_perm, frob.order) == \
            power_loop_frobenius(dense_datum(torus(n)), tau)

    @pytest.mark.parametrize("build", BUILDS)
    def test_cartan_matrix_is_the_pairing_matrix(self, build):
        rd, _ = build()
        k = rd.num_nodes
        dense = dense_datum(rd)
        assert _dense(rd._cartan_entries[0], k).entries == tuple(
            dot(dense.coroot(i), dense.root(j)) for i in range(k) for j in range(k))

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_coroot_pairings_match_the_plain_dot(self, data):
        rd, _ = data.draw(st.sampled_from(self.BUILDS))()
        ints = st.integers(-50, 50)
        fracs = st.fractions(min_value=-50, max_value=50, max_denominator=30)
        entry = data.draw(st.sampled_from(
            (ints, fracs, st.one_of(ints, fracs))))
        vec = data.draw(st.lists(entry, min_size=rd.rank, max_size=rd.rank))
        got = rd.coroot_pairings(vec)
        dense = dense_datum(rd)
        expected = tuple(dot(dense.coroot(i), vec) for i in range(rd.num_nodes))
        assert got == expected
        assert list(map(type, got)) == list(map(type, expected))

    @pytest.mark.parametrize("build", BUILDS)
    def test_components_cover_nodes(self, build):
        rd, _ = build()
        nodes = [i for c in rd.components for i in c.nodes]
        assert sorted(nodes) == list(range(rd.num_nodes))

    # positive-root counts per series, the sharpest finite-type check we have
    _POS_COUNTS = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
                   "C": lambda n: n * n, "D": lambda n: n * (n - 1),
                   "E": {6: 36, 7: 63, 8: 120}.get, "F": lambda n: 24,
                   "G": lambda n: 6}

    @pytest.mark.parametrize("build", BUILDS)
    def test_components_match_finite_type(self, build):
        rd, _ = build()
        cart = dense_datum(rd).cartan_matrix()
        node_comp = {}
        for ci, comp in enumerate(rd.components):
            for i in comp.nodes:
                node_comp[i] = ci
        # edges stay inside components and components are connected
        for i in range(rd.num_nodes):
            for j in range(rd.num_nodes):
                if i != j and cart.row(i)[j] != 0:
                    assert node_comp[i] == node_comp[j]
        pos = positive_roots(rd)
        for ci, comp in enumerate(rd.components):
            expected = self._POS_COUNTS[comp.series](len(comp.nodes))
            count = sum(
                1 for r in pos.roots
                if {i for i, x in enumerate(r.coeffs) if x} <= set(comp.nodes))
            assert count == expected

    @pytest.mark.parametrize("build", BUILDS)
    def test_roots_and_coroots_independent(self, build):
        from ziphasse.exact_linear import smith_normal_form
        rd, _ = build()
        if rd.num_nodes == 0:
            return
        dense = dense_datum(rd)
        for mat in (dense.simple_roots, dense.simple_coroots):
            rank = len(smith_normal_form(mat).invariant_factors)
            assert rank == rd.num_nodes


class TestCycles:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 12).flatmap(lambda n: st.permutations(range(n))))
    def test_cycles_partition_the_nodes_and_are_closed(self, perm):
        cycles = _cycles(perm)
        assert sorted(i for cycle in cycles for i in cycle) == list(range(len(perm)))
        for cycle in cycles:
            assert [perm[i] for i in cycle] == cycle[1:] + cycle[:1]
        # each from its least element, in order of that element
        assert [cycle[0] for cycle in cycles] == sorted(min(c) for c in cycles)


class TestDenseReference:
    """The nonzero entries against the dense rank-length construction."""

    G2_BLOCKS = {"builder": "product", "factors": [
        {"builder": "simple", "series": "G", "rank": 2},
        {"builder": "weil_restriction", "copies": 2, "inner": {
            "builder": "simple", "series": "G", "rank": 2, "isogeny": "adjoint"}}]}

    @settings(max_examples=80, deadline=None, database=None)
    @given(BUILDER_SPECS, st.sampled_from(("int", "fraction", "mixed")),
           st.integers(0, 2 ** 16))
    @example(G2_BLOCKS, "mixed", 0)
    @example({"builder": "unitary", "n": 5}, "fraction", 1)
    @example({"builder": "product", "factors": [
        {"builder": "simple", "series": "D", "rank": 3, "isogeny": "adjoint"},
        {"builder": "gsp", "dim": 4}, {"builder": "simple", "series": "B", "rank": 2}]},
        "int", 2)
    def test_every_grammar_spec_matches_the_dense_construction(self, spec, kind, seed):
        rd, frob = build_group(spec, 3)
        dense, tau = dense_group(spec)
        assert (dense_rows(rd.root_entries, rd.rank), dense_rows(rd.coroot_entries, rd.rank)) \
            == (dense.simple_roots, dense.simple_coroots)
        assert rd.components == declared_types(dense)
        k = dense.num_nodes
        assert _dense(rd._cartan_entries[0], k).entries == tuple(
            dot(dense.coroot(i), dense.root(j)) for i in range(k) for j in range(k))
        _, perm, order = power_loop_frobenius(dense, tau)
        assert (dense_tau(frob), frob.root_perm, frob.order) == (tau, perm, order)
        rng = random.Random(seed)
        vec = [rng.randint(-50, 50) for _ in range(rd.rank)]
        if kind != "int":
            vec = [Fraction(x, rng.randint(1, 30))
                   if kind == "fraction" or rng.random() < 0.5 else x for x in vec]
        for got, expected in (
                (rd.coroot_pairings(vec), [dot(dense.coroot(i), vec) for i in range(k)]),
                (rd.root_pairings(vec), [dot(vec, dense.root(i)) for i in range(k)])):
            assert got == tuple(expected)
            assert list(map(type, got)) == list(map(type, expected))

    @settings(max_examples=80, deadline=None, database=None)
    @given(BUILDER_SPECS)
    @example({"builder": "weil_restriction", "copies": 3, "inner": {"builder": "gl", "n": 3}})
    def test_a_one_factor_product_is_its_factor(self, spec):
        # the datum records no description, only roots, coroots and
        # components, so the pair (datum, Frobenius) is the factor's
        assert build_group({"builder": "product", "factors": [spec]}, 3) == \
            build_group(spec, 3)

    @settings(max_examples=80, deadline=None, database=None)
    @given(BUILDER_SPECS)
    @example(G2_BLOCKS)
    @example({"builder": "gsp", "dim": 6})
    def test_reflector_columns_match_a_dense_scan(self, spec):
        rd, _ = build_group(spec, 3)
        dense, _ = dense_group(spec)
        k = dense.num_nodes
        cartan = [[dot(dense.coroot(i), dense.root(j)) for j in range(k)]
                  for i in range(k)]
        rows, columns = rd._cartan_entries
        assert columns == tuple(
            tuple((j, cartan[j][i]) for j in range(k) if cartan[j][i]) for i in range(k))
        assert rows == tuple(
            tuple((j, cartan[i][j]) for j in range(k) if cartan[i][j]) for i in range(k))

    @pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
    @pytest.mark.parametrize("series,rank", PLATES)
    def test_every_plate_matches_the_dense_construction(self, series, rank, isogeny):
        # dense_group types its Cartan matrices from the plates, so a wrong
        # bond in the library's table shows here
        spec = {"builder": "simple", "series": series, "rank": rank, "isogeny": isogeny}
        rd, _ = build_group(spec, 2)
        dense, _ = dense_group(spec)
        assert (dense_rows(rd.root_entries, rank), dense_rows(rd.coroot_entries, rank)) \
            == (dense.simple_roots, dense.simple_coroots)

    def test_a_non_int_entry_is_refused(self):
        with pytest.raises(TypeError, match="integer entry expected"):
            RootDatum(rank=2, root_entries=(((0, 1), (1, Fraction(-1))),),
                      coroot_entries=(((0, 1), (1, -1)),))


class TestMalformedEntries:
    """The constructor takes nonzero (coordinate, value) entries at strictly
    increasing int coordinates in range(rank), and refuses any other row
    before a Cartan entry or a tau is computed from it."""

    A1 = ((0, 1), (1, -1))

    @pytest.mark.parametrize("row", [
        ((0, 1), (2, -1)),   # coordinate past the rank: read as root 1's entry
        ((-1, 1), (0, 1)),   # a negative coordinate indexes from the end
        ((0, 1), (0, 1)),    # a repeated coordinate: Cartan entry 4, dense 1
        ((1, -1), (0, 1)),   # unsorted: tau's sorted images miss it
        ((0, 1), (1, 0)),    # a zero value
        ((0.0, 1), (1, -1)), ((True, 1), (1, -1)),  # a coordinate not an int
    ], ids=["past-rank", "negative", "repeated", "unsorted", "zero", "float", "bool"])
    @pytest.mark.parametrize("side", ["root", "coroot"])
    def test_a_malformed_row_is_refused(self, row, side):
        rows = {"root_entries": (self.A1,), "coroot_entries": (self.A1,)}
        rows[side + "_entries"] = (self.A1, row)
        with pytest.raises(ValueError, match="increasing coordinates in range"):
            RootDatum(rank=2, **rows)

    def test_a_well_formed_datum_is_accepted_with_its_tau(self):
        rd = RootDatum(rank=2, root_entries=(self.A1,), coroot_entries=(self.A1,))
        assert dense_datum(rd).cartan_matrix().to_rows() == [[2]]
        # e0 - e1 is fixed by v -> -(v1, v0), so this tau is valid
        assert frobenius(rd, 3, (1, 0), (-1, -1)).root_perm == (0,)

    def test_more_roots_than_coroots_is_refused(self):
        # one root and no coroot made a one-node datum whose components
        # raised IndexError
        with pytest.raises(ValueError, match="one coroot per root, got 1 roots and 0"):
            RootDatum(rank=2, root_entries=(self.A1,), coroot_entries=())

    def test_more_coroots_than_roots_is_refused(self):
        with pytest.raises(ValueError, match="one coroot per root, got 1 roots and 2"):
            RootDatum(rank=2, root_entries=(self.A1,),
                      coroot_entries=(self.A1, self.A1))

    @pytest.mark.parametrize("rank", [-1, 2.5, True, "2"],
                             ids=["negative", "float", "bool", "str"])
    def test_a_rank_that_is_not_a_non_negative_int_is_refused(self, rank):
        with pytest.raises(ValueError, match="non-negative int rank"):
            RootDatum(rank=rank, root_entries=(), coroot_entries=())

    # _make and _replace build through the constructor, so they refuse
    # what it refuses; NamedTuple's own _make would skip every check
    @pytest.mark.parametrize("build,error", [
        (lambda: gl(3, 2)[0]._replace(rank=-1), ValueError),
        (lambda: gl(3, 2)[0]._replace(coroot_entries=()), ValueError),
        (lambda: RootDatum._make((2, (((0, 1), (5, -1)),), (((0, 1),),))), ValueError),
        (lambda: RootDatum._make((2.5, (), ())), ValueError),
        (lambda: RootDatum._make((2, (((0, 1.0),),), (((0, 1),),))), TypeError),
    ], ids=["replace-rank", "replace-coroots", "make-past-rank", "make-float-rank",
            "make-float-entry"])
    def test_make_and_replace_refuse_what_the_constructor_refuses(self, build, error):
        with pytest.raises(error):
            build()

    def test_make_replace_copy_and_pickle_keep_a_datum(self):
        rd = gl(3, 2)[0]
        assert type(RootDatum._make(rd)) is RootDatum and RootDatum._make(rd) == rd
        assert rd._replace(rank=3) == rd
        assert copy.copy(rd) == rd and copy.deepcopy(rd) == rd
        assert pickle.loads(pickle.dumps(rd)) == rd

    def test_a_hand_made_datum_of_two_nodes_is_accepted(self):
        # A2 in the simply connected form: roots are the Cartan columns
        rd = RootDatum(rank=2, root_entries=(((0, 2), (1, -1)), ((0, -1), (1, 2))),
                       coroot_entries=(((0, 1),), ((1, 1),)))
        assert rd.num_nodes == 2 and torus(0).num_nodes == 0
        assert [comp.nodes for comp in rd.components] == [(0, 1)]
        assert dense_datum(rd).cartan_matrix().to_rows() == [[2, -1], [-1, 2]]


def torus(rank):
    return RootDatum(rank=rank, root_entries=(), coroot_entries=())


def frobenius(rd, q, src, sign):
    """The Frobenius structure of q and the tau (src, sign) on rd, checked
    as build_group checks them: q first, then tau."""
    return FrobeniusStructure(_check_q(q), *_tau(rd, src, sign))


class TestPositiveRoots:
    def test_gl3(self):
        pos = positive_roots(gl(3, 2)[0])
        vectors = {r.vector for r in pos.roots}
        assert vectors == {(1, -1, 0), (0, 1, -1), (1, 0, -1)}
        assert pos.highest[0].coeffs == (1, 1)

    def test_g2(self):
        pos = positive_roots(simple_group("G", 2, 2)[0])
        assert len(pos.roots) == 6
        assert sorted(pos.highest[0].coeffs) == [2, 3]

    def test_a1(self):
        pos = positive_roots(simple_group("A", 1, 2)[0])
        assert len(pos.roots) == 1

    def test_counts(self):
        assert len(positive_roots(simple_group("B", 3, 2)[0]).roots) == 9
        assert len(positive_roots(simple_group("D", 4, 2)[0]).roots) == 12
        assert len(positive_roots(simple_group("F", 4, 2)[0]).roots) == 24
        assert len(positive_roots(gsp(6, 2)[0]).roots) == 9


class TestWeylWalksAgainstOracle:
    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_positive_roots_match_the_coefficient_closure(self, build):
        rd, _ = build()
        pos = positive_roots(rd)
        roots, highest = coefficient_closure(rd)
        assert [(r.coeffs, r.vector) for r in pos.roots] == roots
        assert [(r.coeffs, r.vector) for r in pos.highest] == highest

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_dominant_root_pairings_match_the_xstar_walk(self, data):
        rd, _ = data.draw(st.sampled_from(TestCartanAndFrobenius.BUILDS))()
        chi = data.draw(st.lists(st.integers(-3, 3),
                                 min_size=rd.rank, max_size=rd.rank))
        got, _ = _walk(rd.root_pairings(chi), rd._cartan_entries[0],
                       rd._opposition[1])
        assert got == rd.root_pairings(xstar_dominant_conjugate(rd, chi))

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS + [
        lambda: unitary(9, 2), lambda: simple_group("E", 6, 2),
        lambda: simple_group("D", 5, 3, "adjoint")])
    def test_worklist_walk_matches_the_first_negative_scan(self, build):
        # the opposition start and random points, in both Cartan orientations:
        # the columns of A move weights, its rows (the columns of A^T)
        # cocharacters, and the oracle reads A entry by entry
        rd, _ = build()
        k = rd.num_nodes
        rng = random.Random(k)
        starts = [tuple(-(j + 1) for j in range(k))] + [
            tuple(rng.randint(-4, 4) for _ in range(k)) for _ in range(20)]
        rows, columns = rd._cartan_entries
        cartan = dense_datum(rd).cartan_matrix()
        for entries, matrix in ((columns, cartan), (rows, transpose(cartan))):
            for p in starts:
                assert _walk(p, entries, rd._opposition[1])[0] == \
                    first_negative_to_dominant(p, matrix)

    def test_reflector_exposes_its_sparse_columns(self):
        rd, _ = simple_group("B", 3, 2)
        cartan = dense_group({"builder": "simple", "series": "B", "rank": 3})[0].cartan_matrix()
        # node 2 is short: <alpha_2^vee, alpha_1> = -2 sits in column 1
        rows, columns = rd._cartan_entries
        assert columns == (
            ((0, 2), (1, -1)), ((0, -1), (1, 2), (2, -2)), ((1, -1), (2, 2)))
        assert rows == (
            ((0, 2), (1, -1)), ((0, -1), (1, 2), (2, -1)), ((1, -2), (2, 2)))
        for entries, matrix in ((columns, cartan), (rows, transpose(cartan))):
            assert entries == tuple(
                tuple((j, c) for j, c in enumerate(transpose(matrix).row(i)) if c)
                for i in range(3))

    def test_reflector_columns_are_nonzero_and_in_node_order(self):
        # A2 with its simple roots on swapped coordinates: the Cartan sum
        # meets node 1 before node 0
        rd = RootDatum(rank=2, root_entries=(((1, 1),), ((0, 1),)),
                       coroot_entries=(((0, -1), (1, 2)), ((0, 2), (1, -1))))
        assert rd._cartan_entries[1] == rd._cartan_entries[0] == (
            ((0, 2), (1, -1)), ((0, -1), (1, 2)))
        # A1 x A1 on e0 + e1 and e0 - e1: the two nodes share both
        # coordinates, and their pairings sum to 0
        rd = RootDatum(rank=2, root_entries=(((0, 1), (1, 1)), ((0, 1), (1, -1))),
                       coroot_entries=(((0, 1), (1, 1)), ((0, 1), (1, -1))))
        assert dense_datum(rd).cartan_matrix().to_rows() == [[2, 0], [0, 2]]
        assert rd._cartan_entries[1] == rd._cartan_entries[0] == (((0, 2),), ((1, 2),))


def declared_types(dense):
    """The components the dense construction declares, D3 named A3 as
    _types names it: the two diagrams are the same."""
    return tuple(Component("A", c.nodes) if (c.series, len(c.nodes)) == ("D", 3) else c
                 for c in dense.components)


def typed_root_count(rd, J):
    """|Phi+_J| as the census reads it: d - 1 summed over the degrees d of
    J's typed components."""
    return sum(d - 1 for d in _degrees(_types(rd._cartan_entries[0], J)))


def root_counts(rd, J):
    """(|Phi+|, |Phi+_J|) from the list of positive roots."""
    roots = positive_roots(rd).roots
    inside = sum(1 for r in roots
                 if all(i in J for i, x in enumerate(r.coeffs) if x))
    return len(roots), inside


class TestWalkCounts:
    """The opposition walk takes |Phi+| steps, and the degrees of J's typed
    components give |Phi+_J|."""

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_step_counts_match_the_root_list_for_every_J(self, build):
        rd, _ = build()
        k = rd.num_nodes
        assert k <= 6
        for bits in range(2 ** k):
            J = {i for i in range(k) if bits >> i & 1}
            assert (rd._opposition[1], typed_root_count(rd, J)) == \
                root_counts(rd, J), J

    @pytest.mark.parametrize("rank", [7, 8])
    def test_exceptional_maximal_parabolics(self, rank):
        rd, _ = simple_group("E", rank, 2)
        for outside in range(rank):
            J = set(range(rank)) - {outside}
            assert (rd._opposition[1], typed_root_count(rd, J)) == \
                root_counts(rd, J)

    def test_rank_128(self):
        # the root list takes seconds here, so the counts are the closed
        # forms: A_n has n(n+1)/2 positive roots and C_n has n^2
        rd, _ = unitary(128, 2)
        assert rd._opposition[1] == 127 * 128 // 2 == 8128
        assert typed_root_count(rd, range(1, 127)) == 126 * 127 // 2 == 8001
        rd, _ = gsp(254, 2)
        assert rd._opposition[1] == 127 ** 2 == 16_129
        assert typed_root_count(rd, range(3, 100)) == 97 * 98 // 2 == 4753

    def test_u512_opposition_runs_past_the_old_step_guard(self):
        rd, _ = unitary(512, 2)
        assert rd._opposition[1] == 130_816
        assert opposition(rd) == tuple(reversed(range(511)))

    def test_a_walk_longer_than_its_bound_raises(self):
        rd, _ = simple_group("F", 4, 2)
        start = (-1, -2, -3, -4)  # w0 = -1 on F4
        assert _walk(start, rd._cartan_entries[1], 24) == ((1, 2, 3, 4), 24)
        with pytest.raises(SelfCheckError, match="more than"):
            _walk(start, rd._cartan_entries[1], 23)

    @pytest.mark.parametrize("series,message", [
        ("A", "more than"), ("E", "not |Phi+|")])
    def test_a_misnamed_component_trips_the_opposition_check(
            self, series, message, monkeypatch):
        # D6 has 30 positive roots; A6 and E6 claim 21 and 36
        types = root_datum._types
        monkeypatch.setattr(root_datum, "_types", lambda rows, nodes: tuple(
            Component(series, c.nodes) for c in types(rows, nodes)))
        root_datum._group.cache_clear()  # a D6 built under the patch only
        rd, _ = simple_group("D", 6, 2)
        with pytest.raises(SelfCheckError, match=message):
            opposition(rd)


class TestCartanCache:
    def test_cached_values_are_shared_tuples(self):
        rd, _ = product_group([{"builder": "unitary", "n": 4},
                               {"builder": "simple", "series": "G", "rank": 2}], 2)
        assert rd._cartan_entries is rd._cartan_entries
        assert rd._opposition is rd._opposition
        for entries in rd._cartan_entries:
            assert type(entries) is tuple
            assert all(type(col) is tuple and all(type(e) is tuple for e in col)
                       for col in entries)
        perm, steps = rd._opposition
        assert type(perm) is tuple and steps == 6 + 6

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_a_used_datum_equals_a_fresh_one(self, build):
        used, frob = build()
        root_datum._group.cache_clear()
        fresh, _ = build()
        assert fresh is not used
        opp_type(used, range(used.num_nodes))
        fundamental_weight_sum(used)
        orbit_census(build_zip_datum(used, frob, parabolic=[]))
        classify_cocharacter(used, (1,) + (0,) * (used.rank - 1))
        assert {"_cartan_entries", "_opposition"} <= set(vars(used))
        assert used == fresh and fresh == used
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_the_pipeline_makes_no_dense_matrix(self, build):
        # every walk and solve reads the Cartan nonzeros, and the Smith
        # forms only the coroot entries they need; the datum caches exactly
        # these three values, so a new per-datum cache must be named here
        rd, frob = build()
        for J in ((), (0,), range(1, rd.num_nodes)):
            zd = build_zip_datum(rd, frob, parabolic=J)
            with contextlib.suppress(PicObstructionError):
                s0_characters(zd)
            orbit_census(zd)
            fundamental_weight_sum(rd, zd.J)
            fundamental_weights(rd, zd.J)
            cli_report._positivity_section(zd)
        classify_cocharacter(rd, (2,) + (0,) * (rd.rank - 1))
        picard_torsion(rd)
        assert set(vars(rd)) - set(rd._fields) == {"_cartan_entries", "_opposition", "components"}


class TestCharLattice:
    def test_gl3_block21(self):
        rd, _ = gl(3, 5)
        basis = char_lattice_of_parabolic(rd, [0])
        assert basis.rows == 2
        assert same_lattice(basis.to_rows(), [[1, 1, 0], [0, 0, 1]])

    def test_full_levi_is_center(self):
        rd, _ = gl(4, 3)
        basis = char_lattice_of_parabolic(rd, (2, 0, 1))
        assert basis.rows == 1
        assert same_lattice(basis.to_rows(), [[1, 1, 1, 1]])

    def test_empty_levi_is_everything(self):
        rd, _ = gl(3, 2)
        basis = char_lattice_of_parabolic(rd, frozenset())
        assert basis == IntMatrix.identity(3)


class TestOppType:
    def test_a2_flip(self):
        rd, _ = gl(3, 2)
        assert opp_type(rd, {0}) == frozenset({1})

    def test_c2_identity(self):
        rd, _ = gsp(4, 3)
        for J in (frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})):
            assert opp_type(rd, J) == J

    def test_empty(self):
        rd, _ = gl(4, 2)
        assert opp_type(rd, frozenset()) == frozenset()

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_involution(self, build):
        rd, _ = build()
        rng = random.Random(5)
        for _ in range(5):
            J = frozenset(i for i in range(rd.num_nodes) if rng.random() < 0.5)
            assert opp_type(rd, opp_type(rd, J)) == J


class TestFundamentalWeights:
    def test_gl2(self):
        rd, _ = gl(2, 3)
        w = fundamental_weights(rd)
        assert w[0] == (Fraction(1, 2), Fraction(-1, 2))

    def test_sc_a1(self):
        rd, _ = simple_group("A", 1, 2)
        w = fundamental_weights(rd)
        # the simple root is twice the weight here
        root = dense_group({"builder": "simple", "series": "A", "rank": 1})[0].root(0)
        assert tuple(2 * x for x in w[0]) == tuple(Fraction(x) for x in root)

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_kronecker_pairings(self, build):
        rd, _ = build()
        w = fundamental_weights(rd)
        for i, vec in w.items():
            pairings = rd.coroot_pairings(vec)
            for j in range(rd.num_nodes):
                assert pairings[j] == (1 if i == j else 0)

    def test_excludes_requested_nodes(self):
        rd, _ = gl(4, 3)
        w = fundamental_weights(rd, J={1})
        assert sorted(w) == [0, 2]

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_sum_matches_sum_of_weights_for_every_J(self, build):
        rd, _ = build()
        k = rd.num_nodes
        for bits in range(2 ** k):
            J = {i for i in range(k) if bits >> i & 1}
            weights = fundamental_weights(rd, J)
            expected = tuple(sum((w[a] for w in weights.values()), Fraction(0))
                             for a in range(rd.rank))
            assert fundamental_weight_sum(rd, J) == expected, J
            assert weights == central_solve_weights(rd, J), J

    @pytest.mark.parametrize("build", TestCartanAndFrobenius.BUILDS)
    def test_forest_solve_matches_dense_solves_for_every_J(self, build):
        rd, _ = build()
        k = rd.num_nodes
        dense = dense_datum(rd)
        roots_t = transpose(dense.simple_roots)
        for bits in range(1, 2 ** k):
            J = {i for i in range(k) if bits >> i & 1 == 0}
            got = fundamental_weight_sum(rd, J)
            assert all(type(x) is Fraction for x in got)
            target = [0 if i in J else 1 for i in range(k)]
            assert got == apply(roots_t, solve_rational(dense.cartan_matrix(), target))
            central = central_solve_weights(rd, J).values()
            assert got == tuple(sum(col) for col in zip(*central)), J
            weights = fundamental_weights(rd, J)
            assert sorted(weights) == [i for i in range(k) if i not in J]
            for i, omega in weights.items():
                e_i = [1 if j == i else 0 for j in range(k)]
                assert omega == apply(roots_t, solve_rational(dense.cartan_matrix(), e_i))

    def test_forest_check_refuses_affine_a2(self):
        with pytest.raises(SelfCheckError, match="not a forest"):
            fundamental_weight_sum(affine_a2(), ())
        # the empty sum is a solve too, of the zero target
        with pytest.raises(SelfCheckError, match="not a forest"):
            fundamental_weight_sum(affine_a2(), (0, 1, 2))

    def test_fundamental_weights_refuse_affine_a2(self):
        with pytest.raises(SelfCheckError, match="not a forest"):
            fundamental_weights(affine_a2())

    def test_forest_check_survives_optimize_flag(self):
        from test_zip_core import run_optimized
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from test_root_datum import affine_a2\n"
            "from ziphasse.exact_linear import SelfCheckError\n"
            "from ziphasse.root_datum import fundamental_weight_sum\n"
            "try:\n"
            "    print(fundamental_weight_sum(affine_a2(), ()))\n"
            "except SelfCheckError as exc:\n"
            "    print('SelfCheckError:', exc)\n" % (str(Path(__file__).parent),))
        assert run_optimized(script) == (
            "SelfCheckError: the Dynkin graph of the Cartan matrix is not a forest\n")


def affine_a2():
    """The affine datum of type A2~: three nodes bonded in a triangle."""
    roots = tuple(tuple((j, 2 if i == j else -1) for j in range(3)) for i in range(3))
    return RootDatum(rank=3, root_entries=roots,
                     coroot_entries=(((0, 1),), ((1, 1),), ((2, 1),)))


class TestPicardTorsion:
    def test_adjoint_a_series(self):
        for n in range(2, 7):
            rd, _ = simple_group("A", n - 1, 2, "adjoint")
            assert picard_torsion(rd) == (n,)

    # The fundamental group of the adjoint group, the weight lattice over
    # the root lattice, from Bourbaki, Lie Groups and Lie Algebras, ch. VI,
    # plates I-IX; written out here, so a wrong Cartan table shows.
    BOURBAKI = (
        [("A", n, (n + 1,)) for n in range(1, 9)]
        + [(series, n, (2,)) for series in "BC" for n in range(2, 9)]
        + [("D", n, (2, 2) if n % 2 == 0 else (4,)) for n in range(3, 10)]
        + [("E", 6, (3,)), ("E", 7, (2,)), ("E", 8, ()), ("F", 4, ()), ("G", 2, ())])

    @pytest.mark.parametrize("series,rank,torsion", BOURBAKI)
    def test_adjoint_series_match_bourbaki(self, series, rank, torsion):
        assert picard_torsion(simple_group(series, rank, 2, "adjoint")[0]) == torsion
        assert picard_torsion(simple_group(series, rank, 2)[0]) == ()

    def test_trivial_cases(self):
        for n in (2, 3, 5):
            assert picard_torsion(gl(n, 3)[0]) == ()
        assert picard_torsion(gsp(4, 3)[0]) == ()
        assert picard_torsion(gsp(6, 3)[0]) == ()
        assert picard_torsion(simple_group("C", 2, 3)[0]) == ()
        assert picard_torsion(simple_group("D", 4, 3)[0]) == ()

    def test_torus(self):
        assert picard_torsion(gl(1, 2)[0]) == ()


class TestTypes:
    """_types against Bourbaki's plates (Lie Groups and Lie Algebras, ch. VI)."""

    def test_a_root_datum_is_its_roots_and_coroots(self):
        assert list(RootDatum._fields) == ["rank", "root_entries", "coroot_entries"]

    @pytest.mark.parametrize("isogeny", ["simply_connected", "adjoint"])
    @pytest.mark.parametrize("series,rank,torsion", TestPicardTorsion.BOURBAKI)
    def test_every_plate_is_typed_in_both_isogeny_types(
            self, series, rank, torsion, isogeny):
        rd, _ = simple_group(series, rank, 2, isogeny)
        typed = "A" if (series, rank) == ("D", 3) else series
        assert rd.components == (Component(typed, tuple(range(rank))),)

    @pytest.mark.parametrize("series,rank,outside,levi", [
        # E8 nodes 0..7 are Bourbaki's alpha_1..alpha_8; F4 has 0, 1 long
        ("E", 8, 0, (("D", 7),)), ("E", 8, 1, (("A", 7),)),
        ("E", 8, 2, (("A", 1), ("A", 6))), ("E", 8, 3, (("A", 2), ("A", 1), ("A", 4))),
        ("E", 8, 4, (("A", 4), ("A", 3))), ("E", 8, 5, (("D", 5), ("A", 2))),
        ("E", 8, 6, (("E", 6), ("A", 1))), ("E", 8, 7, (("E", 7),)),
        ("F", 4, 0, (("C", 3),)), ("F", 4, 3, (("B", 3),)),
        ("G", 2, 0, (("A", 1),)), ("D", 4, 1, (("A", 1),) * 3),
    ])
    def test_maximal_levis_are_typed_as_the_plates_name_them(
            self, series, rank, outside, levi):
        rd, _ = simple_group(series, rank, 2)
        J = set(range(rank)) - {outside}
        typed = _types(rd._cartan_entries[0], J)
        assert [(c.series, len(c.nodes)) for c in typed] == list(levi)
        assert sorted(i for c in typed for i in c.nodes) == sorted(J)
