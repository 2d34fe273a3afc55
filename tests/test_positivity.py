import random
from fractions import Fraction

import pytest
import test_root_datum
from _oracles import (relabelled_positivity, two_helper_verdict, weil_factor_relabelling,
                      xstar_block_pullbacks)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ziphasse import cli_report, root_datum
from ziphasse.exact_linear import IntMatrix, SingularMatrixError, rational_inverse
from ziphasse.positivity import (
    AMPLE,
    ANTIAMPLE,
    CERTIFIED_NEGATIVE,
    MIXED,
    NEITHER,
    NOT_APPLICABLE,
    NOT_IN_LATTICE,
    NotRationalCaseError,
    NotWeilRestrictionError,
    PreconditionViolatedError,
    _borel_zeta_inverse_image,
    _verdict,
    antiample_check,
    borel_zeta_matrix,
    fundamental_zeta_matrix,
    hasse_divisor_coeffs,
    weil_pullback_check,
    zeta_matrix,
)
from ziphasse.root_datum import (
    CONTAINS_B,
    CONTAINS_BMINUS,
    ParabolicType,
    fundamental_weights,
    gl,
    gsp,
    unitary,
    weil_restriction,
)
from ziphasse.zip_core import PicObstructionError, build_zip_datum, s0_characters


RES2_GL3_U4 = {"builder": "product", "factors": [
    {"builder": "weil_restriction", "copies": 2, "inner": {"builder": "gl", "n": 3}},
    {"builder": "unitary", "n": 4}]}


def ample_character(rd, J, coeffs):
    """Negative combination sum(c_i * omega_i) over the nodes outside J."""
    weights = fundamental_weights(rd, J)
    vec = [Fraction(0)] * rd.rank
    for i, c in zip(sorted(weights), coeffs):
        vec = [x + c * w for x, w in zip(vec, weights[i])]
    return tuple(vec)


def every_J(rd, frob):
    """The zip datum of every parabolic type J of (rd, frob)."""
    k = rd.num_nodes
    for bits in range(2 ** k):
        yield build_zip_datum(rd, frob, parabolic=[i for i in range(k) if bits >> i & 1])


def random_ample(rd, J, rng):
    outside = rd.num_nodes - len(J)
    coeffs = [Fraction(-rng.randrange(1, 10), rng.randrange(1, 4))
              for _ in range(outside)]
    return ample_character(rd, J, coeffs)


def is_ample(rd, pt, lam):
    """The sign rule on lam's coroot pairings, oriented as pt."""
    sign = 1 if pt.orientation == CONTAINS_B else -1
    return _verdict(rd.coroot_pairings(lam), pt.J, sign)


class TestIsAmple:
    def test_hb_alpha_is_antiample(self):
        rd, _ = gl(2, 2)
        pt = ParabolicType(frozenset(), CONTAINS_BMINUS)
        assert is_ample(rd, pt, (1, 0)) == ANTIAMPLE

    def test_zero_is_neither(self):
        rd, _ = gl(3, 2)
        pt = ParabolicType(frozenset({0}), CONTAINS_BMINUS)
        assert is_ample(rd, pt, (0, 0, 0)) == NEITHER

    def test_standard_parabolic_weight(self):
        rd, _ = gl(3, 2)
        pt = ParabolicType(frozenset({0}), CONTAINS_B)
        omega2 = fundamental_weights(rd)[1]
        assert is_ample(rd, pt, omega2) == AMPLE

    def test_membership(self):
        rd, _ = gl(3, 2)
        pt = ParabolicType(frozenset({0}), CONTAINS_BMINUS)
        assert is_ample(rd, pt, (1, 0, 0)) == NOT_IN_LATTICE

    def test_orientation_flips_signs(self):
        rd, _ = gl(3, 2)
        lam = ample_character(rd, frozenset(), (-1, -2))
        assert is_ample(rd, ParabolicType(frozenset(), CONTAINS_BMINUS), lam) == AMPLE
        assert is_ample(rd, ParabolicType(frozenset(), CONTAINS_B), lam) == ANTIAMPLE


PAIRING_VALUES = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4),
                           st.just(0), st.just(Fraction(0)))


# SPLIT_SPECS's leaves, each with its number of nodes
SPLIT_LEAVES = [(spec, root_datum.build_group(spec, 3)[0].num_nodes) for spec in (
    [{"builder": "gl", "n": n} for n in range(1, 5)]
    + [{"builder": "gsp", "dim": d} for d in (2, 4, 6)]
    + [{"builder": "simple", "series": s, "rank": r, "isogeny": i}
       for s, r in test_root_datum.SIMPLE_LEAVES for i in ("simply_connected", "adjoint")])]


@st.composite
def split_factors(draw, nodes):
    """Two or three factors of SPLIT_SPECS's grammar, each a leaf or a product
    of up to three, with at most `nodes` nodes in all.  Each leaf is drawn
    from those that fit in what is left, so no example is filtered out."""
    factors = []
    for _ in range(draw(st.integers(2, 3))):
        leaves = []
        for _ in range(draw(st.integers(1, 3))):
            spec, k = draw(st.sampled_from([leaf for leaf in SPLIT_LEAVES if leaf[1] <= nodes]))
            nodes -= k
            leaves.append(spec)
        if len(leaves) == 1 and draw(st.booleans()):
            factors.append(leaves[0])
        else:
            factors.append({"builder": "product", "factors": leaves})
    return factors


@st.composite
def pairings_and_types(draw):
    """Coroot pairings (ints and Fractions, zeros included) and a J of their
    nodes, often J holding every node."""
    pairings = draw(st.lists(PAIRING_VALUES, max_size=8))
    nodes = range(len(pairings))
    every = frozenset(nodes)
    J = draw(st.one_of(st.just(every), st.frozensets(st.sampled_from(nodes)))
             if pairings else st.just(every))
    return pairings, J


class TestOneSignRule:
    @settings(max_examples=1000, deadline=None, database=None)
    @given(pairings_and_types(), st.sampled_from((CONTAINS_B, CONTAINS_BMINUS)))
    def test_matches_the_two_helper_rule(self, case, orientation):
        pairings, J = case
        sign = 1 if orientation == CONTAINS_B else -1
        assert _verdict(pairings, J, sign) == two_helper_verdict(pairings, J, orientation)

    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS)
    def test_is_ample_matches_the_two_helper_rule(self, build):
        rd, frob = build()
        rng = random.Random(rd.rank)
        for zd in every_J(rd, frob):
            for lam in (random_ample(rd, zd.J, rng),
                        tuple(rng.randrange(-2, 3) for _ in range(rd.rank))):
                pairings = rd.coroot_pairings(lam)
                for orientation in (CONTAINS_B, CONTAINS_BMINUS):
                    pt = ParabolicType(zd.J, orientation)
                    assert is_ample(rd, pt, lam) == two_helper_verdict(
                        pairings, zd.J, orientation)

    @pytest.mark.parametrize("spec,q,lam", [
        ({"builder": "gl", "n": 3}, 5, (1, 1, 1)),
        ({"builder": "unitary", "n": 3}, 3, (2, 2, 2)),
        ({"builder": "gsp", "dim": 4}, 3, (0, 0, 0)),
        ({"builder": "weil_restriction", "copies": 2,
          "inner": {"builder": "gl", "n": 2}}, 3, (1, 1, 0, 0)),
    ], ids=["GL3", "U3", "GSp4", "ResGL2x2"])
    def test_J_holding_every_node_is_vacuously_certified(self, spec, q, lam):
        rd, frob = root_datum.build_group(spec, q)
        zd = build_zip_datum(rd, frob, parabolic=range(rd.num_nodes))
        assert zd.J0 == zd.J == frozenset(range(rd.num_nodes))
        assert antiample_check(zd, lam) is True
        report = hasse_divisor_coeffs(zd, lam)
        assert report.antiample_certified is True
        assert report.verdict == CERTIFIED_NEGATIVE

    def test_no_certificate_builds_a_parabolic_type(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a certificate built a ParabolicType")

        monkeypatch.setattr(root_datum, "ParabolicType", forbidden)
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 2}, 3)
        zd = build_zip_datum(rd, frob, parabolic=[])
        lam = random_ample(rd, zd.J, random.Random(11))
        assert antiample_check(zd, lam) is True
        assert hasse_divisor_coeffs(zd, lam).verdict == CERTIFIED_NEGATIVE
        assert weil_pullback_check(zd, lam) is True


class TestZetaInverse:
    def test_split_scalar(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        # zeta = -4 * id, so its inverse is -id / 4
        assert rational_inverse(zeta_matrix(zd)) == (-IntMatrix.identity(2), 4)

    def test_unitary3_borel(self):
        rd, frob = unitary(3, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        inverse, d = rational_inverse(borel_zeta_matrix(zd))
        assert borel_zeta_matrix(zd) * inverse == IntMatrix.identity(3).scale(d)

    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS)
    def test_denominator_is_the_hasse_number_for_every_J(self, build):
        # the exponent of coker zeta is the least common denominator of zeta^-1
        for zd in every_J(*build()):
            try:
                report = s0_characters(zd)
            except PicObstructionError as exc:
                report = exc.report
            inverse, d = rational_inverse(zeta_matrix(zd))
            assert d == report.hasse_number, zd.J
            assert report.zeta * inverse == IntMatrix.identity(report.zeta.rows).scale(d)

    def test_hb_fundamental_inverse(self):
        for d, q in ((2, 2), (3, 2), (2, 3)):
            rd, frob = weil_restriction(d, {"builder": "gl", "n": 2}, q)
            zd = build_zip_datum(rd, frob, parabolic=[])
            inverse, denom = rational_inverse(fundamental_zeta_matrix(zd))
            assert denom == q ** d - 1
            for i in range(d):
                for j in range(d):
                    power = (j - i) % d
                    assert inverse.at(i, j) == -q ** power


class TestFundamentalZeta:
    def test_hb_circulant(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        assert fundamental_zeta_matrix(zd).to_rows() == [
            [1, -2, 0], [0, 1, -2], [-2, 0, 1]]

    def test_split_scalar(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[1])
        fz = fundamental_zeta_matrix(zd)
        assert fz.to_rows() == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]


class TestAntiampleCheck:
    def test_hb_negative_alpha_sum(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        lam = tuple(-x for x in (1, 0, 1, 0, 1, 0))  # -(a_1 + a_2 + a_3)
        assert antiample_check(zd, lam) is True

    def test_split_sign_flip(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        lam = ample_character(rd, zd.J, (Fraction(-2),))
        assert antiample_check(zd, lam) is True

    def test_gl4_random(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0, 2])
        rng = random.Random(41)
        for _ in range(10):
            assert antiample_check(zd, random_ample(rd, zd.J, rng)) is True

    def test_requires_ample(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        with pytest.raises(PreconditionViolatedError):
            antiample_check(zd, (0, 0, 0))

    def test_uncovered_case_rejected(self):
        # parabolic-input datum with unstable J and no cocharacter provenance
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 3}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[1, 2, 3])  # block 0 maximal, block 1 full
        assert {zd.frob.root_perm[j] for j in zd.J} != set(zd.J)
        lam = random_ample(rd, zd.J, random.Random(1))
        with pytest.raises(PreconditionViolatedError):
            antiample_check(zd, lam)


# Res GL2 with 16, 9, 5 and 7 copies: rank 74, tau of order 5040
ORDER_5040 = {"builder": "product", "factors": [
    {"builder": "weil_restriction", "copies": c, "inner": {"builder": "gl", "n": 2}}
    for c in (16, 9, 5, 7)]}


class TestClosedFormZetaInverse:
    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS)
    def test_matches_rational_inverse_for_every_J(self, build):
        rd, frob = build()
        rng = random.Random(rd.rank)
        inverse, d = rational_inverse(borel_zeta_matrix(build_zip_datum(rd, frob, parabolic=[])))
        for zd in every_J(rd, frob):
            characters = [random_ample(rd, zd.J, rng),
                          tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                                for _ in range(rd.rank))]
            for lam in characters:
                assert _borel_zeta_inverse_image(zd, lam) == tuple(
                    Fraction(x, d) for x in inverse.apply(lam))

    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS + [
        lambda: root_datum.build_group(ORDER_5040, 3),
        lambda: root_datum.build_group(ORDER_5040, 2 ** 39)])
    def test_image_solves_the_twist_exactly(self, build):
        rd, frob = build()
        zd = build_zip_datum(rd, frob, parabolic=[])
        zeta = borel_zeta_matrix(zd)
        rng = random.Random(rd.rank)
        characters = [(1,) + (0,) * (rd.rank - 1), (1,) * rd.rank] + [
            tuple(Fraction(rng.randrange(-9, 10), rng.randrange(1, 6))
                  for _ in range(rd.rank)) for _ in range(3)]
        for lam in characters:
            assert zeta.apply(_borel_zeta_inverse_image(zd, lam)) == lam

    def test_singular_when_q_to_the_order_is_one(self):
        rd, frob = gl(2, 3)
        zd = build_zip_datum(rd, frob, parabolic=[])._replace(frob=frob._replace(q=1))
        with pytest.raises(SingularMatrixError):
            rational_inverse(borel_zeta_matrix(zd))
        with pytest.raises(SingularMatrixError):
            _borel_zeta_inverse_image(zd, (1, 0))


class TestHasseDivisorCoeffs:
    def test_hb_pins(self):
        for d, q in ((2, 2), (3, 2), (2, 3)):
            rd, frob = weil_restriction(d, {"builder": "gl", "n": 2}, q)
            zd = build_zip_datum(rd, frob, parabolic=[])
            bz = borel_zeta_matrix(zd)
            for i in range(d):
                alpha_i = tuple(1 if a == 2 * i else 0 for a in range(2 * d))
                rep = hasse_divisor_coeffs(zd, bz.apply(alpha_i))
                expected = tuple(Fraction(-1 if j == i else 0) for j in range(d))
                assert rep.borel_coefficients == expected

    def test_zero_character(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        rep = hasse_divisor_coeffs(zd, (0, 0, 0))
        assert rep.borel_coefficients == (Fraction(0), Fraction(0))
        assert rep.verdict == MIXED

    def test_split_borel_scaling(self):
        rd, frob = gl(3, 5)
        zd = build_zip_datum(rd, frob, parabolic=[])
        lam = random_ample(rd, zd.J, random.Random(2))
        rep = hasse_divisor_coeffs(zd, lam)
        pairings = rd.coroot_pairings(lam)
        assert rep.borel_coefficients == tuple(p / (frob.q - 1) for p in pairings)
        assert rep.verdict == CERTIFIED_NEGATIVE

    @pytest.mark.parametrize("build", test_root_datum.TestCartanAndFrobenius.BUILDS)
    def test_refused_exactly_when_J_is_not_frobenius_stable(self, build):
        # a parabolic-input datum has no cocharacter, so antiample_check
        # covers it only when J is Frobenius-stable, as hasse_divisor_coeffs does
        rd, frob = build()
        rng = random.Random(rd.rank)
        for zd in every_J(rd, frob):
            lam = random_ample(rd, zd.J, rng)
            if {frob.root_perm[j] for j in zd.J} == set(zd.J):
                assert hasse_divisor_coeffs(zd, lam).verdict != NOT_APPLICABLE
                assert antiample_check(zd, lam) in (True, False)
            else:
                with pytest.raises(NotRationalCaseError):
                    hasse_divisor_coeffs(zd, lam)
                with pytest.raises(PreconditionViolatedError):
                    antiample_check(zd, lam)

    def test_rejects_unstable_types(self):
        rd, frob = unitary(3, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        with pytest.raises(NotRationalCaseError):
            hasse_divisor_coeffs(zd, (0, 0, 0))

    def test_linearity(self):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[1])
        rng = random.Random(17)
        lam = random_ample(rd, zd.J, rng)
        mu = random_ample(rd, zd.J, rng)
        a, b = Fraction(3), Fraction(-5, 2)
        combo = tuple(a * x + b * y for x, y in zip(lam, mu))
        c_lam = hasse_divisor_coeffs(zd, lam).borel_coefficients
        c_mu = hasse_divisor_coeffs(zd, mu).borel_coefficients
        c_combo = hasse_divisor_coeffs(zd, combo).borel_coefficients
        assert c_combo == tuple(a * x + b * y for x, y in zip(c_lam, c_mu))

    def test_zeta_composition_collapses(self):
        rd, frob = unitary(4, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0, 2])  # flip-stable
        bz = borel_zeta_matrix(zd)
        rng = random.Random(29)
        for _ in range(5):
            mu = tuple(rng.randrange(-4, 5) for _ in range(rd.rank))
            rep = hasse_divisor_coeffs(zd, bz.apply(mu))
            assert rep.borel_coefficients == \
                tuple(-p for p in rd.coroot_pairings(mu))


class TestWeilPullback:
    def test_hb_d2(self):
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 2}, 3)
        zd = build_zip_datum(rd, frob, parabolic=[])
        rng = random.Random(31)
        for _ in range(5):
            assert weil_pullback_check(zd, random_ample(rd, zd.J, rng)) is True

    def test_single_copy_reduces_to_input(self):
        rd, frob = weil_restriction(1, {"builder": "gl", "n": 2}, 3)
        zd = build_zip_datum(rd, frob, parabolic=[])
        lam = random_ample(rd, zd.J, random.Random(3))
        assert weil_pullback_check(zd, lam) is True

    def test_hb_d3_alpha_sum(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 2}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        lam = tuple(-x for x in (1, 0, 1, 0, 1, 0))
        assert weil_pullback_check(zd, lam) is True

    def test_mixed_blocks(self):
        # one maximal factor, one full factor: J is not Frobenius stable
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 3}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[1, 2, 3])
        assert {zd.frob.root_perm[j] for j in zd.J} != set(zd.J)
        lam = random_ample(rd, zd.J, random.Random(7))
        assert weil_pullback_check(zd, lam) is True

    def test_different_nodes_per_block(self):
        # maximal parabolics picking different nodes in each block
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 3}, 3)
        zd = build_zip_datum(rd, frob, parabolic=[1, 2])  # misses node 0 and node 3
        rng = random.Random(13)
        for _ in range(5):
            assert weil_pullback_check(zd, random_ample(rd, zd.J, rng)) is True

    def test_datum_without_nodes_is_certified(self):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 1}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[])
        assert rd.num_nodes == 0
        assert weil_pullback_check(zd, (1, -2, 5)) is True

    def test_split_group_qualifies_as_one_copy(self):
        rd, frob = gl(3, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0])
        assert weil_pullback_check(zd, random_ample(rd, zd.J, random.Random(2))) is True

    @pytest.mark.parametrize("spec,J", [
        ({"builder": "unitary", "n": 3}, [0]),
        (RES2_GL3_U4, [0, 4, 6]),
        # every component misses one node: only the flip's cycles refuse it,
        # although the missing node of U(4) is the middle one, which it fixes
        (RES2_GL3_U4, [0, 2, 4, 6]),
    ], ids=["U3", "Res2GL3xU4", "Res2GL3xU4-maximal"])
    def test_rejects_a_cycle_meeting_one_component_twice(self, spec, J):
        rd, frob = root_datum.build_group(spec, 3)
        zd = build_zip_datum(rd, frob, parabolic=J)
        with pytest.raises(NotWeilRestrictionError, match="meets one component twice"):
            weil_pullback_check(zd, random_ample(rd, zd.J, random.Random(4)))

    def test_rejects_non_maximal_factor(self):
        rd, frob = weil_restriction(2, {"builder": "gl", "n": 4}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[0, 3, 4, 5])  # block 0 misses 2 nodes
        lam = random_ample(rd, zd.J, random.Random(9))
        with pytest.raises(NotWeilRestrictionError):
            weil_pullback_check(zd, lam)

    def test_maximal_rule_is_per_component(self):
        # each copy of GL2 x GL3 misses one node of each factor
        rd, frob = weil_restriction(2, {"builder": "product", "factors": [
            {"builder": "gl", "n": 2}, {"builder": "gl", "n": 3}]}, 3)
        zd = build_zip_datum(rd, frob, parabolic=[1, 5])
        assert weil_pullback_check(zd, random_ample(rd, zd.J, random.Random(6))) is True
        zd = build_zip_datum(rd, frob, parabolic=[5])  # GL3 of copy 0 misses 2 nodes
        with pytest.raises(NotWeilRestrictionError, match="component 1 is neither"):
            weil_pullback_check(zd, random_ample(rd, zd.J, random.Random(6)))

    @pytest.mark.parametrize("copies,inner", [
        (3, {"builder": "gl", "n": 2}),
        (2, {"builder": "gl", "n": 3}),
        (2, {"builder": "gsp", "dim": 4}),
    ], ids=["GL2x3", "GL3x2", "GSp4x2"])
    def test_pullbacks_of_ample_characters_are_ample_whenever_the_check_applies(
            self, copies, inner):
        # each copy is one component and every cycle meets each copy once, so
        # the check applies exactly when no copy misses two nodes of J; then
        # the X* pullback to every copy is ample for that copy's parabolic
        rd, frob = weil_restriction(copies, inner, 3)
        rng = random.Random(copies)
        every = frozenset(range(rd.num_nodes))
        for zd in every_J(rd, frob):
            lam = random_ample(rd, zd.J, rng)
            if any(len(set(comp.nodes) - zd.J) > 1 for comp in rd.components):
                with pytest.raises(NotWeilRestrictionError):
                    weil_pullback_check(zd, lam)
                continue
            for lam in [lam, random_ample(rd, zd.J, rng)]:
                assert weil_pullback_check(zd, lam) is True
                for vec, targets in xstar_block_pullbacks(zd, lam, copies):
                    assert _verdict(rd.coroot_pairings(vec), every - targets) == AMPLE, (
                        sorted(zd.J), lam)
            if zd.J != every:
                with pytest.raises(PreconditionViolatedError):
                    weil_pullback_check(zd, tuple(-x for x in lam))

    def test_pullback_needs_no_weights_or_tau_powers(self, monkeypatch):
        rd, frob = weil_restriction(3, {"builder": "gl", "n": 3}, 2)
        zd = build_zip_datum(rd, frob, parabolic=[1, 2, 4, 5])
        lam = random_ample(rd, zd.J, random.Random(5))

        def forbidden(*args, **kwargs):
            raise AssertionError("weil_pullback_check left coroot pairings")

        monkeypatch.setattr(root_datum, "fundamental_weights", forbidden)
        monkeypatch.setattr(IntMatrix, "__mul__", forbidden)
        assert weil_pullback_check(zd, lam) is True


class TestWritingInvariance:
    """The positivity entry of every J depends on the group and its
    Frobenius, not on how the description writes them."""

    @staticmethod
    def assert_same_on_every_J(spec, other, relabel=None):
        """Node i of spec is node relabel[i] of other (the same node when
        relabel is None)."""
        rd, frob = root_datum.build_group(spec, 3)
        other_rd, other_frob = root_datum.build_group(other, 3)
        unmoved = range(rd.num_nodes)
        relabel = unmoved if relabel is None else relabel
        for zd in every_J(rd, frob):
            other_zd = build_zip_datum(other_rd, other_frob,
                                       parabolic=[relabel[j] for j in zd.J])
            got = relabelled_positivity(cli_report._positivity_section(zd)[0], relabel)
            expected = relabelled_positivity(
                cli_report._positivity_section(other_zd)[0], unmoved)
            assert got == expected, sorted(zd.J)

    @pytest.mark.parametrize("spec", [
        {"builder": "weil_restriction", "copies": 3, "inner": {"builder": "gl", "n": 3}},
        {"builder": "unitary", "n": 4},
        {"builder": "weil_restriction", "copies": 2, "inner": {"builder": "product", "factors": [
            {"builder": "gl", "n": 2}, {"builder": "gl", "n": 3}]}},
        {"builder": "product", "factors": [
            {"builder": "gsp", "dim": 4},
            {"builder": "weil_restriction", "copies": 2, "inner": {
                "builder": "simple", "series": "B", "rank": 2, "isogeny": "adjoint"}}]},
    ], ids=["ResGL3x3", "U4", "Res2(GL2xGL3)", "GSp4xRes2adjB2"])
    def test_one_factor_product_matches_the_factor(self, spec):
        self.assert_same_on_every_J(spec, {"builder": "product", "factors": [spec]})

    @pytest.mark.parametrize("copies,factors", [
        (2, [{"builder": "gl", "n": 2}, {"builder": "gl", "n": 3}]),
        (3, [{"builder": "gl", "n": 3}, {"builder": "gl", "n": 2}]),
        (2, [{"builder": "simple", "series": "A", "rank": 1}, {"builder": "gsp", "dim": 4}]),
        (2, [{"builder": "gl", "n": 2}, {"builder": "gl", "n": 2}, {"builder": "gl", "n": 3}]),
    ], ids=["Res2(GL2xGL3)", "Res3(GL3xGL2)", "Res2(SL2xGSp4)", "Res2(GL2xGL2xGL3)"])
    def test_restriction_of_a_product_matches_the_product_of_restrictions(
            self, copies, factors):
        written = {"builder": "weil_restriction", "copies": copies,
                   "inner": {"builder": "product", "factors": factors}}
        split = {"builder": "product", "factors": [
            {"builder": "weil_restriction", "copies": copies, "inner": f} for f in factors]}
        counts = [root_datum.build_group(f, 3)[0].num_nodes for f in factors]
        self.assert_same_on_every_J(written, split, weil_factor_relabelling(copies, counts))

    @settings(max_examples=25, deadline=None, database=None)
    @given(test_root_datum.BUILDER_SPECS)
    def test_every_grammar_spec_matches_its_one_factor_product(self, spec):
        assume(root_datum.build_group(spec, 3)[0].num_nodes <= 6)
        self.assert_same_on_every_J(spec, {"builder": "product", "factors": [spec]})

    @settings(max_examples=25, deadline=None, database=None)
    @given(st.integers(1, 3), st.data())
    def test_every_grammar_restriction_of_a_product_matches(self, copies, data):
        factors = data.draw(split_factors(7 // copies))
        self.test_restriction_of_a_product_matches_the_product_of_restrictions(
            copies, factors)
