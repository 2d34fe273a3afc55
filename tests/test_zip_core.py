import math
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import chain
from pathlib import Path

import pytest
import test_root_datum
from _oracles import (apply, basis_zeta_matrix, dense_zeta_matrix, enumerated_census,
                      full_order_j0, macdonald_length_counts, minors_invariant_factors,
                      normal_form, power_loop_order, root_list_classify, scalar,
                      tau_cycle_invariant_factors)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ziphasse import zip_core
from ziphasse.exact_linear import IntMatrix, SelfCheckError, determinant, smith_normal_form
from ziphasse.root_datum import (
    _degrees,
    _levi_lattice,
    _types,
    build_group,
    char_lattice_of_parabolic,
    check_group,
    gl,
    gsp,
    product_group,
    simple_group,
    unitary,
    weil_restriction,
)
from ziphasse.weyl import classical_order, enumerate_weyl, min_coset_reps
from ziphasse.zip_core import (
    CENTRAL,
    MINUSCULE,
    NEITHER,
    SMALL_NOT_MINUSCULE,
    NonNormalizedCocharacterError,
    OrbitEntry,
    PicObstructionError,
    build_zip_datum,
    classify_cocharacter,
    hasse_number,
    orbit_census,
    pic_rank,
    s0_characters,
    zeta_matrix,
)


class TestBuildZipDatum:
    def test_gl3_from_cocharacter(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, cocharacter=(1, 1, 0))
        assert zd.J == frozenset({0})
        assert zd.J0 == zd.J  # split, tau = id
        assert zd.cochar == (1, 1, 0)

    def test_unitary3_torus_levi(self):
        rd, frob = unitary(3, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        # the diagram flip moves node 0 to node 1, so nothing survives
        assert zd.J0 == frozenset()

    def test_full_parabolic(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=range(3))
        assert zd.J == zd.K == zd.J0 == frozenset({0, 1, 2})

    def test_rejects_mixed_signs(self):
        rd, frob = gl(3, 5)
        with pytest.raises(NonNormalizedCocharacterError):
            build_zip_datum(rd, frob, cocharacter=(0, 1, 2))

    def test_needs_exactly_one_input(self):
        rd, frob = gl(3, 5)
        with pytest.raises(ValueError):
            build_zip_datum(rd, frob)
        with pytest.raises(ValueError):
            build_zip_datum(rd, frob, cocharacter=(1, 0, 0), parabolic=[0])

    # each refused with TypeError before it is used; unchecked, a float
    # would build J = {1} and keep the float in cochar, a bool would pass
    # as 1 or 0, and a float node would fail late, indexing root_perm
    @pytest.mark.parametrize("kw", [
        {"cocharacter": [1.5, 0, 0]},
        {"cocharacter": [True, False, False]},
        {"parabolic": [True]},
        {"parabolic": [1.0]},
    ], ids=["float-cocharacter", "bool-cocharacter", "bool-node", "float-node"])
    def test_a_non_int_entry_is_refused(self, kw):
        rd, frob = unitary(3, 3)
        with pytest.raises(TypeError, match="integer entry expected"):
            build_zip_datum(rd, frob, **kw)

    def test_k_follows_perm_and_opposition(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        # split A3: perm is trivial, opposition flips node 0 to node 2
        assert zd.K == frozenset({2})

    @pytest.mark.parametrize("build", [
        lambda: weil_restriction(3, {"builder": "gl", "n": 2}, 3),
        lambda: weil_restriction(2, {"builder": "gl", "n": 3}, 3),
        # the root permutation has order 1 while tau has order 2
        lambda: product_group([{"builder": "unitary", "n": 2},
                               {"builder": "gl", "n": 3}], 3),
    ], ids=["res3gl2", "res2gl3", "u2xgl3"])
    def test_j0_is_the_largest_stable_subset(self, build):
        rd, frob = build()
        perm = frob.root_perm
        k = rd.num_nodes

        def orbit(j):
            for _ in range(k):
                yield j
                j = perm[j]

        for bits in range(2 ** k):
            J = frozenset(i for i in range(k) if bits >> i & 1)
            zd = build_zip_datum(rd, frob, parabolic=J)
            assert zd.J0 == {j for j in J if all(i in J for i in orbit(j))}

    @pytest.mark.parametrize("copies", [(16, 9, 5, 7), (8, 3, 5), (12, 7)],
                             ids=["order5040", "order120", "order84"])
    def test_j0_matches_the_full_order_loop(self, copies):
        rd, frob = product_group([
            {"builder": "weil_restriction", "copies": c,
             "inner": {"builder": "gl", "n": 2}} for c in copies], 3)
        assert power_loop_order(frob) == math.lcm(*copies)
        rng = random.Random(sum(copies))
        k = rd.num_nodes
        for density in (0.0, 0.5, 0.8, 0.95, 1.0):
            for _ in range(4):
                J = frozenset(i for i in range(k) if rng.random() < density)
                assert build_zip_datum(rd, frob, parabolic=J).J0 == full_order_j0(frob, J)


class TestClassifyCocharacter:
    def test_siegel_is_minuscule(self):
        for g in (1, 2, 3):
            rd, _ = gsp(2 * g, 3)
            mu = (1,) * (g + 1)
            assert classify_cocharacter(rd, mu) == MINUSCULE

    def test_doubled_siegel_is_neither(self):
        for g in (1, 2, 3):
            rd, _ = gsp(2 * g, 3)
            mu = tuple(2 * x for x in (1,) * (g + 1))
            assert classify_cocharacter(rd, mu) == NEITHER

    def test_g2_has_no_minuscule(self):
        rd, _ = simple_group("G", 2, 5)
        for chi in ((1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)):
            assert classify_cocharacter(rd, chi) != MINUSCULE

    def test_g2_small(self):
        rd, _ = simple_group("G", 2, 5)
        # dominant conjugates of the fundamental coweights pair (1, 0) with
        # the simple roots, so they are small without being minuscule
        assert classify_cocharacter(rd, (1, 0)) == SMALL_NOT_MINUSCULE
        assert classify_cocharacter(rd, (0, 1)) == SMALL_NOT_MINUSCULE

    def test_central(self):
        rd, _ = gl(3, 5)
        assert classify_cocharacter(rd, (1, 1, 1)) == CENTRAL

    def test_gl_one_block_weights(self):
        rd, _ = gl(3, 5)
        assert classify_cocharacter(rd, (1, 1, 0)) == MINUSCULE
        assert classify_cocharacter(rd, (2, 1, 0)) == NEITHER

    # unchecked, a float would be classified by float arithmetic
    # ("neither"), a bool as an int
    @pytest.mark.parametrize("chi", [[1.5, 0, 0], [True, False, False]],
                             ids=["float", "bool"])
    def test_a_non_int_entry_is_refused(self, chi):
        rd, _ = unitary(3, 3)
        with pytest.raises(TypeError, match="integer entry expected"):
            classify_cocharacter(rd, chi)

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.data())
    def test_matches_the_root_list(self, data):
        builds = test_root_datum.TestCartanAndFrobenius.BUILDS
        rd, _ = data.draw(st.sampled_from(builds))()
        chi = data.draw(st.lists(st.integers(-2, 2), min_size=rd.rank,
                                 max_size=rd.rank))
        assert classify_cocharacter(rd, chi) == root_list_classify(rd, chi)

    @pytest.mark.parametrize("series,rank", [
        ("E", 6), ("E", 7), ("E", 8), ("D", 5), ("B", 4), ("C", 4), ("F", 4)])
    def test_fundamental_coweights_match_the_root_list(self, series, rank):
        # adjoint: the roots are the unit vectors, so e_i is the fundamental
        # coweight of node i; the minuscule ones and all others
        rd, _ = simple_group(series, rank, 2, "adjoint")
        for i in range(rank):
            chi = tuple(1 if j == i else 0 for j in range(rank))
            assert classify_cocharacter(rd, chi) == root_list_classify(rd, chi)


class TestZetaMatrix:
    def test_split_is_scalar(self):
        for build, J in [(lambda: gl(3, 5), [0]), (lambda: gsp(4, 3), [0]),
                         (lambda: simple_group("B", 3, 2), [0, 2])]:
            rd, frob = build()
            zd = build_zip_datum(rd, frob, parabolic=J)
            zm = zeta_matrix(zd)
            assert zm == scalar(zm.rows, 1 - frob.q)

    def test_unitary3(self):
        rd, frob = unitary(3, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        assert zeta_matrix(zd).to_rows() == [[1, 0, 3], [0, 4, 0], [3, 0, 1]]

    def test_weil_full_lattice_blocks(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        zm = zeta_matrix(zd)
        assert zm.rows == 6
        # block circulant: column of e_{b,c} is e_{b,c} - q e_{b-1,c}
        vec = [0] * 6
        vec[2] = 1
        assert apply(zm, vec) == (-2, 0, 1, 0, 0, 0)

    def test_zero_rank_levi(self):
        rd, frob = simple_group("A", 2, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0, 1])
        assert zeta_matrix(zd).rows == 0

    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS)
    def test_matches_basis_solve_for_every_J(self, build):
        rd, frob = build()
        k = rd.num_nodes
        for bits in range(2 ** k):
            zd = build_zip_datum(
                rd, frob, parabolic=[i for i in range(k) if bits >> i & 1])
            assert zeta_matrix(zd) == basis_zeta_matrix(zd), zd.J

    DENSE_ORACLE_BUILDS = [
        lambda: unitary(4, 3), lambda: unitary(5, 2), lambda: unitary(6, 5),
        lambda: unitary(7, 4),
        lambda: gsp(8, 3),
        lambda: simple_group("D", 4, 2, "adjoint"),
        lambda: simple_group("E", 6, 3),
        lambda: weil_restriction(3, {"builder": "gl", "n": 2}, 2),
        lambda: weil_restriction(2, {"builder": "gl", "n": 3}, 3),
        lambda: product_group([{"builder": "unitary", "n": 3},
                               {"builder": "gsp", "dim": 4}], 2),
    ]

    @pytest.mark.parametrize("build", DENSE_ORACLE_BUILDS)
    def test_matches_dense_oracle_for_every_J(self, build):
        rd, frob = build()
        k = rd.num_nodes
        for bits in range(2 ** k):
            zd = build_zip_datum(
                rd, frob, parabolic=[i for i in range(k) if bits >> i & 1])
            assert zeta_matrix(zd) == dense_zeta_matrix(zd), zd.J

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.data())
    def test_matches_dense_oracle_up_to_rank_24(self, data):
        spec = data.draw(st.one_of(
            st.builds(lambda n: {"builder": "gl", "n": n}, st.integers(1, 24)),
            st.builds(lambda n: {"builder": "unitary", "n": n}, st.integers(1, 24)),
            st.builds(lambda g: {"builder": "gsp", "dim": 2 * g}, st.integers(1, 23)),
            st.builds(lambda s, r, iso: {"builder": "simple", "series": s,
                                         "rank": r, "isogeny": iso},
                      st.sampled_from("ABCD"), st.integers(4, 24),
                      st.sampled_from(("simply_connected", "adjoint"))),
            st.builds(lambda c, n: {"builder": "weil_restriction", "copies": c,
                                    "inner": {"builder": "gl", "n": n}},
                      st.integers(1, 8), st.integers(1, 3)),
            st.builds(lambda a, b: {"builder": "product", "factors": [
                {"builder": "unitary", "n": a}, {"builder": "gsp", "dim": 2 * b}]},
                      st.integers(1, 12), st.integers(1, 11))))
        q = data.draw(st.sampled_from((2, 3, 4, 5, 9, 25)))
        rd, frob = build_group(spec, q)
        J = data.draw(st.sets(st.integers(0, max(rd.num_nodes - 1, 0)))
                      if rd.num_nodes else st.just(set()))
        zd = build_zip_datum(rd, frob, parabolic=J)
        assert zeta_matrix(zd) == dense_zeta_matrix(zd)

    def test_lattice_self_check_survives_optimize_flag(self):
        # swapping e2 and e3 moves (1, 1, 0) off the lattice lam_1 = lam_2
        script = (
            "from ziphasse.exact_linear import SelfCheckError\n"
            "from ziphasse.root_datum import gl\n"
            "from ziphasse.zip_core import build_zip_datum, zeta_matrix\n"
            "rd, frob = gl(3, 2)\n"
            "zd = build_zip_datum(rd, frob, parabolic=[0])\n"
            "zd = zd._replace(frob=frob._replace(src=(0, 2, 1)))\n"
            "try:\n"
            "    print(zeta_matrix(zd))\n"
            "except SelfCheckError as exc:\n"
            "    print('SelfCheckError:', exc)\n")
        out = run_optimized(script)
        assert out == ("SelfCheckError: twist endomorphism does not preserve "
                       "the lattice\n")


class TestS0Characters:
    def test_gl_two_blocks(self):
        for n, r, q in ((3, 2, 5), (4, 2, 3), (5, 3, 2)):
            rd, frob = gl(n, q)
            J = sorted(set(range(n - 1)) - {r - 1})
            zd = build_zip_datum(rd, frob, parabolic=J)
            rep = s0_characters(zd)
            # X*(L0) has rank two (one determinant per block)
            assert rep.invariant_factors == (q - 1, q - 1)
            assert rep.hasse_number == q - 1
            assert rep.pic_L0_trivial

    def test_unitary3(self):
        for q in (2, 3, 5):
            rd, frob = unitary(3, q)
            zd = build_zip_datum(rd, frob, parabolic=[0])
            rep = s0_characters(zd)
            assert [f for f in rep.invariant_factors if f > 1] == \
                [q + 1, q * q - 1]
            assert rep.s0_order == (q + 1) * (q * q - 1)
            assert rep.hasse_number == q * q - 1

    def test_weil_hasse_number(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        assert hasse_number(zd) == 7

    def test_split_levi_rank(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0, 2])
        rep = s0_characters(zd)
        assert rep.invariant_factors == (2, 2)  # q-1 per lattice rank

    def test_pic_obstruction(self):
        rd, frob = simple_group("A", 2, 4, "adjoint")
        zd = build_zip_datum(rd, frob, parabolic=[0, 1])
        with pytest.raises(PicObstructionError) as info:
            s0_characters(zd)
        assert info.value.torsion == (3,)
        partial = info.value.report
        assert not partial.pic_L0_trivial
        # the cokernel itself is trivial here, which is exactly why the
        # unobstructed formula would be wrong for the adjoint group
        assert partial.invariant_factors == ()
        assert partial.hasse_number == 1

    def test_det_is_product_of_factors(self):
        rd, frob = unitary(4, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0, 2])
        rep = s0_characters(zd)
        prod = 1
        for f in rep.invariant_factors:
            prod *= f
        assert prod == abs(rep.det_zeta) == rep.s0_order
        assert all(rep.hasse_number % f == 0 for f in rep.invariant_factors)

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data())
    def test_det_zeta_from_tau_matches_bareiss_on_zeta(self, data):
        # s0_characters reads det zeta off tau's cycles; Bareiss on the
        # zeta it returns is the oracle, sign included
        spec = data.draw(test_root_datum.BUILDER_SPECS.filter(
            lambda spec: check_group(spec)[1] <= 12))
        q = data.draw(st.sampled_from((2, 3, 4, 9)))
        rd, frob = build_group(spec, q)
        J = data.draw(st.sets(st.integers(0, rd.num_nodes - 1))
                      if rd.num_nodes else st.just(set()))
        try:
            report = s0_characters(build_zip_datum(rd, frob, parabolic=J))
        except PicObstructionError as exc:
            report = exc.report
        assert report.det_zeta == determinant(report.zeta)


def cycles_only(monkeypatch):
    """Make the fallback elimination of s0_characters raise, so that a run
    passes only when the factors come off T's signed cycles."""
    def fallback(zeta):
        raise AssertionError("T is not a signed permutation: zeta was eliminated")
    monkeypatch.setattr(zip_core, "invariant_factors", fallback)


def report_of(zd):
    """s0_characters(zd), also when Pic(L0) obstructs."""
    try:
        return s0_characters(zd)
    except PicObstructionError as exc:
        return exc.report


class TestCycleRoute:
    """zeta = 1 - q*T: the factors come off T's signed cycles when T is a
    signed permutation, and off the Smith form of zeta otherwise."""

    def test_coprime_cycle_orders_need_the_gcd_lcm_step(self, monkeypatch):
        # GL1 x U(1) at q = 4: T = diag(1, -1), two fixed points of orders
        # 3 and 5, so the cokernel is Z/15 and not Z/3 + Z/5 as read
        cycles_only(monkeypatch)
        rd, frob = product_group([{"builder": "gl", "n": 1},
                                  {"builder": "unitary", "n": 1}], 4)
        report = s0_characters(build_zip_datum(rd, frob, parabolic=[]))
        assert report.zeta.to_rows() == [[-3, 0], [0, 5]]
        assert report.invariant_factors == (1, 15)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.data())
    def test_cycles_match_the_smith_form(self, data):
        spec = data.draw(test_root_datum.BUILDER_SPECS.filter(
            lambda spec: check_group(spec)[1] <= 24))
        q = data.draw(st.sampled_from((2, 3, 4, 9, 2 ** 39)))
        rd, frob = build_group(spec, q)
        J = data.draw(st.sets(st.integers(0, rd.num_nodes - 1))
                      if rd.num_nodes else st.just(set()))
        zd = build_zip_datum(rd, frob, parabolic=J)
        with pytest.MonkeyPatch.context() as monkeypatch:
            cycles_only(monkeypatch)
            report = report_of(zd)
        k = report.zeta.rows
        assert report.invariant_factors == smith_normal_form(report.zeta).invariant_factors
        if k <= 5:
            assert report.invariant_factors == minors_invariant_factors(
                report.zeta.to_rows(), k)

    @pytest.mark.parametrize("build,J", [
        (lambda: unitary(3, 3), []),
        (lambda: unitary(5, 4), [1, 2]),
        (lambda: weil_restriction(3, {"builder": "gl", "n": 2}, 2), []),
        (lambda: product_group([{"builder": "gl", "n": 1},
                                {"builder": "unitary", "n": 1}], 4), []),
    ])
    def test_a_conjugated_t_falls_back_to_the_smith_form(self, build, J, monkeypatch):
        # T in the basis b1 + b2, b2, b3, ...: S^-1 T S with S = I + E_21
        # is no signed permutation, zeta changes, its factors do not, and the
        # det check, which reads tau and not T, still passes
        rd, frob = build()
        zd = build_zip_datum(rd, frob, parabolic=J)
        before = report_of(zd)
        levi = _levi_lattice(rd, zd.J0, frob.src, frob.sign)
        k = before.zeta.rows
        entries = [0] * (k * k)
        for i, j, x in levi.twist:
            entries[i * k + j] = x
        s, s_inv = (IntMatrix(k, k, [int(i == j) + c * (i == 1 and j == 0)
                                     for i in range(k) for j in range(k)])
                    for c in (1, -1))
        conjugated = (s_inv * IntMatrix(k, k, entries) * s).to_rows()
        twist = tuple((i, j, x) for i, row in enumerate(conjugated)
                      for j, x in enumerate(row) if x)
        assert len(twist) > k
        eliminated = []
        inner = zip_core.invariant_factors
        monkeypatch.setattr(zip_core, "_levi_lattice",
                            lambda *args: levi._replace(twist=twist))
        monkeypatch.setattr(zip_core, "invariant_factors",
                            lambda zeta: eliminated.append(zeta) or inner(zeta))
        after = report_of(zd)
        assert after.zeta.to_rows() == [[(i == j) - frob.q * x for j, x in enumerate(row)]
                                        for i, row in enumerate(conjugated)]
        assert after.zeta != before.zeta and eliminated == [after.zeta]
        assert after.invariant_factors == before.invariant_factors
        assert (after.det_zeta, after.s0_order) == (before.det_zeta, before.s0_order)


class TestOrbitCensus:
    def test_gl2_borel(self):
        rd, frob = gl(2, 3)
        zd = build_zip_datum(rd, frob, parabolic=[])
        W = enumerate_weyl(rd)
        census = orbit_census(zd)
        assert census == enumerated_census(zd, W)
        assert [o.dim for o in census.orbits] == [3, 4]
        assert len(census.codim1_indices) == 1

    def test_full_parabolic_single_orbit(self):
        rd, frob = gl(3, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0, 1])
        census = orbit_census(zd)
        assert census == enumerated_census(zd, enumerate_weyl(rd))
        assert len(census.orbits) == 1
        assert census.orbits[0].codim == 0
        assert census.codim1_indices == ()

    def test_a2_one_node(self):
        rd, frob = gl(3, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        census = orbit_census(zd)
        assert census == enumerated_census(zd, enumerate_weyl(rd))
        assert [o.codim for o in census.orbits] == [2, 1, 0]
        assert sum(1 for o in census.orbits if o.codim == 1) == 1

    @pytest.mark.parametrize("build", [
        lambda: gl(3, 2), lambda: gl(4, 3), lambda: gsp(4, 3),
        lambda: simple_group("B", 3, 2), lambda: simple_group("D", 4, 2),
        lambda: unitary(3, 3),
        lambda: weil_restriction(2, {"builder": "gl", "n": 2}, 2),
    ])
    def test_invariants_over_all_types(self, build):
        rd, frob = build()
        W = enumerate_weyl(rd)
        k = rd.num_nodes
        for bits in range(2 ** k):
            J = [i for i in range(k) if bits >> i & 1]
            zd = build_zip_datum(rd, frob, parabolic=J)
            census = orbit_census(zd)
            assert census == enumerated_census(zd, W)
            codim1 = [o for o in census.orbits if o.codim == 1]
            assert len(codim1) == k - len(J)
            assert sum(1 for o in census.orbits if o.codim == 0) == 1
            assert census.orbits[-1].dim == census.dim_group
            assert pic_rank(zd) == len(codim1)

    @pytest.mark.parametrize("build", [
        *(pytest.param(lambda s=series, r=rank, i=isogeny: simple_group(s, r, 3, i),
                       id="%s%d-%s" % (series, rank, isogeny))
          for series, ranks in (("A", (1, 2, 3, 4)), ("B", (2, 3, 4)),
                                ("C", (3, 4)), ("D", (4, 5)), ("F", (4,)),
                                ("G", (2,)))
          for rank in ranks
          for isogeny in ("simply_connected", "adjoint")),
        pytest.param(lambda: gsp(6, 3), id="GSp6"),
        pytest.param(lambda: unitary(4, 3), id="U4"),
        pytest.param(lambda: unitary(5, 2), id="U5"),
        pytest.param(lambda: gl(3, 2), id="GL3"),
        pytest.param(lambda: gl(4, 3), id="GL4"),
        pytest.param(lambda: gl(6, 2), id="GL6"),
        pytest.param(lambda: weil_restriction(3, {"builder": "gl", "n": 2}, 2),
                     id="Res-GL2x3"),
        pytest.param(lambda: weil_restriction(2, {"builder": "gl", "n": 3}, 3),
                     id="Res-GL3x2"),
    ])
    def test_matches_enumeration_for_every_J(self, build):
        rd, frob = build()
        W = enumerate_weyl(rd)
        k = rd.num_nodes
        for bits in range(2 ** k):
            J = [i for i in range(k) if bits >> i & 1]
            zd = build_zip_datum(rd, frob, parabolic=J)
            assert orbit_census(zd) == enumerated_census(zd, W), J

    @pytest.mark.parametrize("build,J", [
        (lambda: gl(7, 2), []), (lambda: simple_group("G", 2, 2), []),
        (lambda: simple_group("E", 8, 2), [0, 2, 3, 4, 5, 6, 7]),
        (lambda: simple_group("B", 5, 2), [1, 3]), (lambda: gl(3, 2), [0, 1]),
    ], ids=["GL7-borel", "G2-borel", "E8-without-alpha2", "B5-J24", "GL3-full"])
    def test_tree_invariants(self, build, J):
        rd, frob = build()
        census = orbit_census(build_zip_datum(rd, frob, parabolic=J))
        parents, letters, lengths = census.parents, census.letters, census.lengths
        assert [type(c) for c in (parents, letters)] == [tuple] * 2
        assert len(parents) == len(letters) == len(lengths)
        assert (parents[0], letters[0], lengths[0]) == (-1, -1, 0)
        words = census.words
        for n in range(1, len(parents)):
            assert 0 <= parents[n] < n
            assert lengths[n] == lengths[parents[n]] + 1
            assert words[n] == words[parents[n]] + (letters[n],)

    @pytest.mark.parametrize("rank,outside,count", [
        (6, [0], 27), (7, [6], 56), (8, [1], 17_280), (6, range(6), 51_840),
    ], ids=["E6-maximal", "E7-maximal", "E8-without-alpha2", "E6-borel"])
    def test_exceptional_orbit_counts(self, rank, outside, count):
        rd, frob = simple_group("E", rank, 2)
        J = set(range(rank)) - set(outside)
        census = orbit_census(build_zip_datum(rd, frob, parabolic=J))
        assert len(census.orbits) == count
        assert len(census.codim1_indices) == len(outside)
        if not J:
            assert count == classical_order(rd)

    def test_self_checks_survive_optimize_flag(self):
        # A wrong opposition involution labels the open orbit as a divisor.
        script = (
            "from ziphasse import zip_core\n"
            "from ziphasse.root_datum import gl\n"
            "zd = zip_core.build_zip_datum(*gl(3, 2), parabolic=[0])\n"
            "zip_core.opposition = lambda rd: (0, 1)\n"
            "try:\n"
            "    zip_core.orbit_census(zd)\n"
            "except zip_core.CensusCheckError as exc:\n"
            "    print(exc)\n")
        assert "codimension-one orbits are not labeled" in run_optimized(script)

    def test_census_count_check_survives_optimize_flag(self):
        # J = {0, 1} of GL4 typed as A1 x A1 gives |W_J| = 4, not 6: the
        # census holds 24 / 6 = 4 points, not the 6 that this |W_J| claims,
        # while l(w0) - l(w0,J) = 6 - 2 still matches eta's length
        script = (
            "from ziphasse import zip_core\n"
            "from ziphasse.root_datum import Component, gl\n"
            "zd = zip_core.build_zip_datum(*gl(4, 2), parabolic=[0, 1])\n"
            "zip_core._types = lambda rows, nodes: tuple(\n"
            "    Component('A', (i,)) for i in sorted(nodes))\n"
            "try:\n"
            "    zip_core.orbit_census(zd)\n"
            "except zip_core.CensusCheckError as exc:\n"
            "    print(exc)\n")
        assert run_optimized(script) == "the census holds 4 points, not |W_J \\ W| = 6\n"

    @settings(max_examples=60, deadline=None, database=None)
    @given(test_root_datum.BUILDER_SPECS, st.data())
    def test_census_count_is_w_over_w_j(self, spec, data):
        # |W| / |W_J| from the typed components against Macdonald's count
        # over the root heights, the census where it is cheap, and the
        # enumerated coset representatives where |W| <= 2,000
        rd, frob = build_group(spec, 2)
        J = data.draw(st.sets(st.sampled_from(range(rd.num_nodes)))
                      if rd.num_nodes else st.just(set()))
        count = classical_order(rd) // math.prod(
            _degrees(_types(rd._cartan_entries[0], J)))
        assert count == sum(macdonald_length_counts(rd, J))
        if count <= 20_000:
            zd = build_zip_datum(rd, frob, parabolic=J)
            assert len(orbit_census(zd).lengths) == count
        if classical_order(rd) <= 2000:
            assert len(min_coset_reps(enumerate_weyl(rd), J).reps) == count

    @pytest.mark.parametrize("series,rank,outside", [
        ("G", 2, None), ("F", 4, None), ("B", 4, None),
        *(("E", 6, node) for node in range(6)),
        *(("E", 7, node) for node in range(7)),
        ("E", 8, 1),
    ])
    def test_lengths_match_macdonald(self, series, rank, outside):
        # Full-W enumeration is out of reach for E7 and E8, so the census
        # is checked length by length against Macdonald's product: on every
        # J when outside is None, else on the maximal parabolic without it
        rd, frob = simple_group(series, rank, 2)
        if outside is None:
            subsets = [frozenset(i for i in range(rank) if bits >> i & 1)
                       for bits in range(2 ** rank)]
        else:
            subsets = [frozenset(range(rank)) - {outside}]
        for J in subsets:
            counts = Counter(o.length for o in
                             orbit_census(build_zip_datum(rd, frob, parabolic=J)).orbits)
            assert [counts[n] for n in range(max(counts) + 1)] == \
                macdonald_length_counts(rd, J), sorted(J)


class TestOrbitEntry:
    def test_fields_and_construction(self):
        assert OrbitEntry._fields == ("word", "length", "dim", "codim")
        by_keyword = OrbitEntry(word=(0, 1), length=2, dim=9, codim=0)
        assert by_keyword == OrbitEntry((0, 1), 2, 9, 0) == ((0, 1), 2, 9, 0)
        assert (by_keyword.word, by_keyword.length, by_keyword.dim,
                by_keyword.codim) == ((0, 1), 2, 9, 0)
        word, length, dim, codim = by_keyword
        assert (word, length, dim, codim) == ((0, 1), 2, 9, 0)

    def test_immutable_and_hashable(self):
        entry = OrbitEntry((1,), 1, 8, 1)
        with pytest.raises(AttributeError):
            entry.codim = 0
        assert hash(entry) == hash(((1,), 1, 8, 1))
        assert {entry: 1}[OrbitEntry((1,), 1, 8, 1)] == 1

    def test_census_entries_match_enumeration(self):
        for build, J in ((lambda: unitary(4, 3), [1]), (lambda: gsp(6, 3), [0]),
                         (lambda: simple_group("B", 3, 2), [])):
            rd, frob = build()
            zd = build_zip_datum(rd, frob, parabolic=J)
            orbits = orbit_census(zd).orbits
            assert all(type(o) is OrbitEntry for o in orbits)
            assert orbits == enumerated_census(zd, enumerate_weyl(rd)).orbits

    def test_census_columns_are_tuples_and_read_only(self):
        rd, frob = gsp(6, 3)
        census = orbit_census(build_zip_datum(rd, frob, parabolic=[0]))
        columns = (census.words, census.lengths)
        assert [type(c) for c in columns] == [tuple] * 2
        assert census.orbits == tuple(
            (word, n, census.dim_parabolic + n, census.eta_length - n)
            for word, n in zip(*columns))
        assert not {"dims", "codims"} & set(census._fields)
        for name in ("words", "orbits"):
            with pytest.raises(AttributeError):
                setattr(census, name, ())

    def test_readme_quick_start(self):
        # every value the README's quick start shows is what its line gives:
        # "expr  # value" on one line, or the value commented on the next
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1]
        block = block.split("```", 1)[0]
        namespace = {}
        exec(block, namespace)
        lines = block.splitlines()
        shown = []
        for i, line in enumerate(lines):
            expr, _, comment = line.partition("#")
            if expr.strip() and "=" not in expr and comment:
                shown.append((expr, comment.split("==")[0]))
            elif not expr.strip() and comment and i:
                shown.append((lines[i - 1], comment))
        assert len(shown) == 4
        for expr, value in shown:
            assert eval(expr, namespace) == eval(value, namespace), expr


def run_optimized(script):
    """stdout of ``python -O -c script`` with the package importable."""
    src = str(Path(zip_core.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hasse_self_checks_survive_optimize_flag():
    # q = 1 makes the twist endomorphism id - tau vanish on GL2 with J empty
    script = (
        "from ziphasse.exact_linear import SelfCheckError\n"
        "from ziphasse.root_datum import gl\n"
        "from ziphasse.zip_core import build_zip_datum, s0_characters\n"
        "rd, frob = gl(2, 3)\n"
        "zd = build_zip_datum(rd, frob._replace(q=1), parabolic=[])\n"
        "try:\n"
        "    print(s0_characters(zd))\n"
        "except SelfCheckError as exc:\n"
        "    print('SelfCheckError:', exc)\n")
    out = run_optimized(script)
    assert out == "SelfCheckError: twist endomorphism must be injective\n"


def test_census_check_error_is_a_self_check_error():
    assert issubclass(zip_core.CensusCheckError, SelfCheckError)


class TestPicRank:
    def test_values(self):
        rd, frob = gl(3, 5)
        assert pic_rank(build_zip_datum(rd, frob, parabolic=[0])) == 1
        assert pic_rank(build_zip_datum(rd, frob, parabolic=[0, 1])) == 0
        rd, frob = weil_restriction(4, {"builder": "gl", "n": 2}, 2)
        assert pic_rank(build_zip_datum(rd, frob, parabolic=[])) == 4

    def test_random_subsets_match_lattice_ranks(self):
        rng = random.Random(23)
        for build in (lambda: gl(4, 3), lambda: gsp(6, 3),
                      lambda: simple_group("B", 3, 2), lambda: unitary(4, 2)):
            rd, frob = build()
            rank_g = char_lattice_of_parabolic(rd, range(rd.num_nodes)).rows
            for _ in range(6):
                J = [i for i in range(rd.num_nodes) if rng.random() < 0.5]
                zd = build_zip_datum(rd, frob, parabolic=J)
                rank_p = char_lattice_of_parabolic(rd, J).rows
                assert pic_rank(zd) == rd.num_nodes - len(J) == rank_p - rank_g


def twist_factors(rd, frob, J):
    """Invariant factors above 1 of the twist on X*(L0), also when Pic(L0)
    obstructs."""
    report = report_of(build_zip_datum(rd, frob, parabolic=J))
    return tuple(f for f in report.invariant_factors if f > 1)


def split_nodes(rds, J):
    """J in the node indices of each factor of a product."""
    out, offset = [], 0
    for rd in rds:
        out.append([j - offset for j in J if offset <= j < offset + rd.num_nodes])
        offset += rd.num_nodes
    return out


def convolve(counts):
    """Length counts of a product of cosets: the lengths add."""
    total = Counter({0: 1})
    for factor in counts:
        nxt = Counter()
        for a, m in total.items():
            for b, n in factor.items():
                nxt[a + b] += m * n
        total = nxt
    return total


ORACLE_SPECS = test_root_datum.NESTED_SPECS
ORACLE_PRODUCTS = [s for s in ORACLE_SPECS if s["builder"] == "product"] + [
    {"builder": "product",
     "factors": [ORACLE_SPECS[1], {"builder": "unitary", "n": 5}]}]


class TestProductAndCycleOracles:
    """Closed forms for the block assembly of products and Weil restrictions.

    A product's twist is block-diagonal, so its invariant factors above 1
    are the normal form of its factors' with J split per factor; its
    minimal coset representatives are tuples of the factors', so the orbit
    count multiplies, the lengths add and so does pic_rank.  With J empty
    the invariant factors come from the signed cycles of the dense tau.
    """

    def check_product(self, factor_specs, q, J, max_orbits=10_000):
        """Check the product oracle; True when the census was compared too."""
        rd, frob = product_group(factor_specs, q)
        parts = [build_group(s, q) for s in factor_specs]
        local = split_nodes([part_rd for part_rd, _ in parts], J)
        assert twist_factors(rd, frob, J) == normal_form(chain.from_iterable(
            twist_factors(*part, part_J) for part, part_J in zip(parts, local)))
        zd = build_zip_datum(rd, frob, parabolic=J)
        factor_zds = [build_zip_datum(*part, parabolic=part_J)
                      for part, part_J in zip(parts, local)]
        assert pic_rank(zd) == sum(map(pic_rank, factor_zds))
        # |W_J \ W| of each factor off the degrees, so that no census is
        # built when their product is over the budget
        orbits = math.prod(
            classical_order(part_rd) // math.prod(_degrees(_types(
                part_rd._cartan_entries[0], part_J)))
            for (part_rd, _), part_J in zip(parts, local))
        if orbits > max_orbits:
            return False
        counts = [Counter(o.length for o in orbit_census(z).orbits)
                  for z in factor_zds]
        assert math.prod(sum(c.values()) for c in counts) == orbits
        census = orbit_census(zd)
        assert len(census.orbits) == orbits
        assert Counter(o.length for o in census.orbits) == convolve(counts)
        return True

    @pytest.mark.parametrize("q", [2, 9])
    @pytest.mark.parametrize("spec", ORACLE_SPECS)
    def test_j_empty_factors_match_the_tau_cycles(self, spec, q):
        rd, frob = build_group(spec, q)
        assert twist_factors(rd, frob, []) == tau_cycle_invariant_factors(frob)

    @pytest.mark.parametrize("spec", ORACLE_PRODUCTS)
    def test_products_match_their_factors(self, spec):
        rd, _ = build_group(spec, 2)
        rng = random.Random(rd.rank)
        nodes = range(rd.num_nodes)
        # every node, every node but the first of each component, and random J
        choices = [list(nodes), [i for c in rd.components for i in c.nodes[1:]]]
        choices += [[i for i in nodes if rng.random() < 0.5] for _ in range(4)]
        compared = [self.check_product(spec["factors"], q, J)
                    for J in choices for q in (2, 9)]
        assert compared[:4] == [True] * 4

    @settings(max_examples=60, deadline=None, database=None)
    @given(test_root_datum.BUILDER_SPECS, st.sampled_from((2, 3, 4, 9, 25)))
    def test_j_empty_over_the_builder_grammar(self, spec, q):
        rd, frob = build_group(spec, q)
        assume(rd.rank <= 24)
        assert twist_factors(rd, frob, []) == tau_cycle_invariant_factors(frob)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(test_root_datum.BUILDER_SPECS, min_size=2, max_size=3),
           st.sampled_from((2, 3, 4, 9, 25)), st.randoms(use_true_random=False))
    def test_products_over_the_builder_grammar(self, factors, q, rng):
        rd, _ = product_group(factors, q)
        assume(rd.rank <= 24)
        self.check_product(factors, q,
                           [i for i in range(rd.num_nodes) if rng.random() < 0.5])
