from math import factorial

import pytest
from _oracles import dense_group

from ziphasse import root_datum, weyl
from ziphasse.exact_linear import SelfCheckError
from ziphasse.root_datum import gl, gsp, simple_group, weil_restriction
from ziphasse.weyl import (
    WeylGroupTooLargeError,
    classical_order,
    enumerate_weyl,
    longest_element,
    min_coset_reps,
    subgroup_indices,
)


FIXTURES = [
    ("A3", lambda: simple_group("A", 3, 2)[0], factorial(4)),
    ("A1", lambda: simple_group("A", 1, 2)[0], 2),
    ("B3", lambda: simple_group("B", 3, 2)[0], 48),
    ("G2", lambda: simple_group("G", 2, 2)[0], 12),
    ("gl4", lambda: gl(4, 3)[0], 24),
    ("gsp4", lambda: gsp(4, 3)[0], 8),
    ("D4", lambda: simple_group("D", 4, 2)[0], 192),
    ("res2gl2", lambda: weil_restriction(2, {"builder": "gl", "n": 2}, 2)[0], 4),
]


@pytest.mark.parametrize("name,build,order", FIXTURES, ids=[f[0] for f in FIXTURES])
def test_enumeration_matches_order_formula(name, build, order):
    rd = build()
    assert classical_order(rd) == order
    W = enumerate_weyl(rd)
    assert len(W) == order


# closed-form Weyl group orders per series, the reference for the degree table
CLOSED_FORMS = {"A": lambda n: factorial(n + 1), "B": lambda n: 2 ** n * factorial(n),
                "C": lambda n: 2 ** n * factorial(n),
                "D": lambda n: 2 ** (n - 1) * factorial(n)}
EXCEPTIONAL_ORDERS = {("E", 6): 51_840, ("E", 7): 2_903_040, ("E", 8): 696_729_600,
                      ("F", 4): 1_152, ("G", 2): 12}


@pytest.mark.parametrize("series,first", [("A", 1), ("B", 2), ("C", 2), ("D", 3)])
def test_degree_products_match_the_closed_forms(series, first):
    for rank in range(first, 41):
        rd, _ = simple_group(series, rank, 2, "adjoint")
        assert classical_order(rd) == CLOSED_FORMS[series](rank)


@pytest.mark.parametrize("series,rank", sorted(EXCEPTIONAL_ORDERS))
def test_degree_products_match_the_exceptional_orders(series, rank):
    rd, _ = simple_group(series, rank, 2)
    assert classical_order(rd) == EXCEPTIONAL_ORDERS[series, rank]


def test_cap():
    rd, _ = simple_group("E", 8, 2)
    with pytest.raises(WeylGroupTooLargeError):
        enumerate_weyl(rd)
    rd, _ = simple_group("A", 3, 2)
    with pytest.raises(WeylGroupTooLargeError):
        enumerate_weyl(rd, cap=10)


def test_lengths_count_inverted_positive_roots():
    # l(w) = number of positive roots sent negative, spot check on B2
    from ziphasse.root_datum import positive_roots
    rd, _ = simple_group("B", 2, 3)
    W = enumerate_weyl(rd)
    pos = [r.vector for r in positive_roots(rd).roots]
    pos_set = set(pos)
    for el in W.elements:
        inverted = sum(1 for v in pos if tuple(-x for x in el.matrix.apply(v)) in pos_set)
        assert inverted == el.length


def test_generators_are_involutions():
    rd, _ = simple_group("B", 3, 2)
    W = enumerate_weyl(rd)
    from ziphasse.exact_linear import IntMatrix
    for g in W.generators:
        assert g * g == IntMatrix.identity(rd.rank)


class TestLongestElement:
    def test_empty_is_identity(self):
        W = enumerate_weyl(gl(3, 2)[0])
        assert longest_element(W, frozenset()) == 0

    def test_full_a2(self):
        W = enumerate_weyl(gl(3, 2)[0])
        idx = longest_element(W, frozenset({0, 1}))
        el = W.elements[idx]
        assert el.length == 3
        assert idx == W.w0_index
        assert el.matrix * el.matrix == W.elements[0].matrix

    def test_rank_one_parabolic(self):
        W = enumerate_weyl(gl(3, 2)[0])
        idx = longest_element(W, frozenset({0}))
        assert W.elements[idx].word == (0,)

    def test_squares_to_identity(self):
        W = enumerate_weyl(simple_group("B", 3, 2)[0])
        for J in (frozenset({0}), frozenset({0, 2}), frozenset({0, 1, 2})):
            el = W.elements[longest_element(W, J)]
            assert el.matrix * el.matrix == W.elements[0].matrix


class TestCosetReps:
    def test_empty_gives_everything(self):
        W = enumerate_weyl(gl(3, 2)[0])
        reps = min_coset_reps(W, frozenset())
        assert len(reps.reps) == len(W)

    def test_a2_singleton(self):
        W = enumerate_weyl(gl(3, 2)[0])
        reps = min_coset_reps(W, frozenset({0}))
        assert [length for _, length in reps.reps] == [0, 1, 2]

    def test_a3_parabolic(self):
        W = enumerate_weyl(gl(4, 2)[0])
        reps = min_coset_reps(W, frozenset({0, 1}))
        assert len(reps.reps) == 4

    @pytest.mark.parametrize("name,build,order", FIXTURES, ids=[f[0] for f in FIXTURES])
    def test_invariants(self, name, build, order):
        rd = build()
        W = enumerate_weyl(rd)
        k = rd.num_nodes
        for bits in range(2 ** k):
            J = frozenset(i for i in range(k) if bits >> i & 1)
            reps = min_coset_reps(W, J)
            assert len(reps.reps) * len(subgroup_indices(W, J)) == len(W)
            # minimality: left multiplication by J-generators goes up
            for idx, length in reps.reps:
                for j in J:
                    prod = W.generators[j] * W.elements[idx].matrix
                    assert W.elements[W.index[prod]].length == length + 1
            # the longest representative has complementary length
            w0j = W.elements[longest_element(W, J)].length
            eta_idx, eta_len = reps.reps[-1]
            assert eta_len == W.elements[W.w0_index].length - w0j
            assert sum(1 for _, l in reps.reps if l == eta_len) == 1
            # codimension-one layer has one element per node outside J
            near = [i for i, l in reps.reps if l == eta_len - 1]
            if eta_len > 0:
                assert len(near) == k - len(J)


def _simple_types(max_rank):
    for series, low in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
        for rank in range(low, max_rank + 1):
            yield series, rank
    yield from (("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2))


def test_opposition_agrees_with_enumeration():
    # -w0 read off the enumerated longest element is the oracle
    from ziphasse.root_datum import opposition
    specs = [{"builder": "gl", "n": 3}, {"builder": "gsp", "dim": 4},
             {"builder": "simple", "series": "G", "rank": 2},
             {"builder": "simple", "series": "D", "rank": 4, "isogeny": "adjoint"}]
    for series, rank in _simple_types(5):
        for isogeny in ("simply_connected", "adjoint"):
            specs.append({"builder": "simple", "series": series, "rank": rank,
                          "isogeny": isogeny})
    for spec in specs:
        rd = root_datum.build_group(spec, 2)[0]
        if classical_order(rd) > 1920:
            continue
        W = enumerate_weyl(rd)
        w0 = W.elements[W.w0_index].matrix
        dense = dense_group(spec)[0]
        roots = {dense.root(i): i for i in range(rd.num_nodes)}
        expected = tuple(roots[tuple(-x for x in w0.apply(dense.root(j)))]
                         for j in range(rd.num_nodes))
        assert opposition(rd) == expected, spec


def test_opposition_matches_bourbaki_table():
    from ziphasse.root_datum import opposition
    for series, rank in _simple_types(20):
        nodes = list(range(rank))
        if series == "A":
            expected = nodes[::-1]
        elif series == "D" and rank % 2:
            expected = nodes[:-2] + [rank - 1, rank - 2]
        elif (series, rank) == ("E", 6):
            expected = [5, 1, 4, 3, 2, 0]
        else:
            expected = nodes
        for isogeny in ("simply_connected", "adjoint"):
            rd = simple_group(series, rank, 2, isogeny)[0]
            assert opposition(rd) == tuple(expected), (series, rank, isogeny)


def test_torus_degenerates_gracefully():
    rd, _ = gl(1, 2)
    W = enumerate_weyl(rd)
    assert len(W) == 1
    reps = min_coset_reps(W, frozenset())
    assert reps.reps == ((0, 0),)


def test_conjugation_by_w0_preserves_length():
    W = enumerate_weyl(simple_group("B", 2, 5)[0])
    w0 = W.elements[W.w0_index].matrix
    for el in W.elements:
        conj = w0 * el.matrix * w0
        assert W.elements[W.index[conj]].length == el.length


def test_codim1_layer_is_eta_times_opposed_generator():
    # the node s outside J labels the representative eta * s' with s' = -w0(s)
    from ziphasse.root_datum import opp_type
    for build in (lambda: gl(3, 2)[0], lambda: simple_group("B", 2, 3)[0],
                  lambda: gl(4, 2)[0], lambda: simple_group("D", 4, 2)[0]):
        rd = build()
        W = enumerate_weyl(rd)
        k = rd.num_nodes
        for bits in range(2 ** k):
            J = frozenset(i for i in range(k) if bits >> i & 1)
            reps = min_coset_reps(W, J)
            rep_set = {i for i, _ in reps.reps}
            eta_idx, eta_len = reps.reps[-1]
            labeled = set()
            for s in set(range(k)) - J:
                s_opp = next(iter(opp_type(rd, [s])))
                mat = W.elements[eta_idx].matrix * W.generators[s_opp]
                idx = W.index[mat]
                assert idx in rep_set
                assert W.elements[idx].length == eta_len - 1
                labeled.add(idx)
            assert labeled == {i for i, l in reps.reps if l == eta_len - 1}


class TestSelfChecks:
    """Each self-check of the enumeration raises SelfCheckError, so it also
    holds under python -O."""

    def test_order_formula(self, monkeypatch):
        monkeypatch.setattr(weyl, "classical_order", lambda rd: 7)
        with pytest.raises(SelfCheckError, match="order formula"):
            enumerate_weyl(gl(3, 2)[0])

    def test_unique_longest_element(self, monkeypatch):
        # s_1 and the 3-cycle s_1 s_2 generate S3 with three elements of
        # top BFS length: s_1 c, c s_1 and c^2
        reflection = root_datum.reflection_matrix
        monkeypatch.setattr(weyl, "reflection_matrix", lambda rd, i: (
            reflection(rd, 0) * reflection(rd, 1) if i else reflection(rd, 0)))
        with pytest.raises(SelfCheckError, match="longest element is not unique"):
            enumerate_weyl(gl(3, 2)[0])

    def test_unique_longest_element_of_W_J(self):
        W = enumerate_weyl(gl(3, 2)[0])
        # len(W) is |W|, so W._replace refuses: rebuild through the class
        doubled = weyl.WeylGroup(**{**W._asdict(),
                                    "elements": W.elements + (W.elements[W.w0_index],)})
        with pytest.raises(SelfCheckError, match="of W_J is not unique"):
            longest_element(doubled, frozenset({0, 1}))

    def test_coset_count(self, monkeypatch):
        inner = weyl.subgroup_indices
        monkeypatch.setattr(weyl, "subgroup_indices",
                            lambda W, J: inner(W, J) + [0])
        with pytest.raises(SelfCheckError, match="coset representatives"):
            min_coset_reps(enumerate_weyl(gl(3, 2)[0]), frozenset({0}))
