"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every expected value is exact (integer or Fraction equality); nothing here
uses tolerances.  Run with -s to see the per-criterion lines.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

from _oracles import (apply, borel_zeta_matrix, dense_tau, enumerated_census,
                      fundamental_zeta_matrix, minors_invariant_factors, scalar,
                      two_helper_verdict, xstar_block_pullbacks)

from ziphasse.cli_report import main as cli_main, parse_config, render_json, run
from ziphasse.exact_linear import IntMatrix, determinant, rational_inverse, smith_normal_form
from ziphasse.positivity import (
    AMPLE,
    CERTIFIED_NEGATIVE,
    antiample_check,
    hasse_divisor_coeffs,
    weil_pullback_check,
)
from ziphasse.root_datum import (
    char_lattice_of_parabolic,
    fundamental_weights,
    gl,
    gsp,
    picard_torsion,
    simple_group,
    unitary,
    weil_restriction,
)
from ziphasse.weyl import enumerate_weyl, longest_element, subgroup_indices
from ziphasse.zip_core import (
    MINUSCULE,
    NEITHER,
    build_zip_datum,
    classify_cocharacter,
    orbit_census,
    pic_rank,
    s0_characters,
    zeta_matrix,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print("criterion %2d [FAIL] %s" % (number, label))
        raise
    print("criterion %2d [PASS] %s" % (number, label))


def ample_character(rd, J, coeffs):
    weights = fundamental_weights(rd, J)
    vec = [Fraction(0)] * rd.rank
    for i, c in zip(sorted(weights), coeffs):
        vec = [x + c * w for x, w in zip(vec, weights[i])]
    return tuple(vec)


def seeded_ample(rd, J, rng):
    outside = rd.num_nodes - len(J)
    coeffs = [Fraction(-rng.randrange(1, 10), rng.randrange(1, 4))
              for _ in range(outside)]
    return ample_character(rd, J, coeffs)


GL_FIXTURES = [(3, (2, 1), 5), (4, (2, 2), 3), (5, (3, 2), 2)]

SPLIT_BUILDERS = [
    ("gl3", lambda q: gl(3, q)),
    ("gl4", lambda q: gl(4, q)),
    ("gsp4", lambda q: gsp(4, q)),
    ("B3sc", lambda q: simple_group("B", 3, q)),
    ("D4sc", lambda q: simple_group("D", 4, q)),
]


def gl_block_datum(n, blocks, q):
    r, _ = blocks
    rd, frob = gl(n, q)
    J = sorted(set(range(n - 1)) - {r - 1})
    return rd, frob, build_zip_datum(rd, frob, parabolic=J)


def hb_datum(d, q):
    rd, frob = weil_restriction(d, {"builder": "gl", "n": 2}, q)
    return rd, frob, build_zip_datum(rd, frob, parabolic=[])


def test_criterion_1_gl_blocks():
    with criterion(1, "GL_n two-block invariant factors (q-1, q-1), N = q-1"):
        for n, blocks, q in GL_FIXTURES:
            _, _, zd = gl_block_datum(n, blocks, q)
            rep = s0_characters(zd)
            assert rep.invariant_factors == (q - 1, q - 1)
            assert rep.hasse_number == q - 1
            assert rep.s0_order == (q - 1) ** 2


def test_criterion_2_unitary():
    with criterion(2, "U(3) r=2 s=1 factors (q+1, q^2-1), N = q^2-1"):
        for q in (2, 3, 5):
            rd, frob = unitary(3, q)
            zd = build_zip_datum(rd, frob, parabolic=[0])
            rep = s0_characters(zd)
            assert tuple(f for f in rep.invariant_factors if f > 1) == \
                (q + 1, q * q - 1)
            assert rep.hasse_number == q * q - 1
            assert rep.s0_order == (q + 1) * (q * q - 1)


def test_criterion_3_hilbert_blumenthal():
    with criterion(3, "Hilbert-Blumenthal circulant, cyclic cokernel, "
                      "negative inverse, divisor pins"):
        for d in (2, 3, 5):
            for q in (2, 3):
                rd, frob, zd = hb_datum(d, q)
                order = q ** d - 1

                circulant = fundamental_zeta_matrix(zd)
                expected = IntMatrix(d, d, [
                    (1 if i == j else 0) - (q if (i + 1) % d == j % d else 0)
                    for i in range(d) for j in range(d)])
                assert circulant == expected
                assert abs(determinant(circulant)) == order

                factors = smith_normal_form(circulant).invariant_factors
                assert factors == (1,) * (d - 1) + (order,)  # cyclic cokernel
                assert s0_characters(zd).hasse_number == order

                inverse, denom = rational_inverse(circulant)
                for i in range(d):
                    for j in range(d):
                        value = Fraction(inverse.row(i)[j], denom)
                        assert value == Fraction(-(q ** ((j - i) % d)), order)
                        assert value < 0

                bz = borel_zeta_matrix(zd)
                for i in range(d):
                    alpha_i = tuple(1 if a == 2 * i else 0 for a in range(2 * d))
                    rep = hasse_divisor_coeffs(zd, apply(bz, alpha_i))
                    assert rep.borel_coefficients == tuple(
                        Fraction(-1 if j == i else 0) for j in range(d))


def test_criterion_4_split_shortcut():
    with criterion(4, "split data: zeta = (1-q) id, all factors q-1, N = p-1"):
        from ziphasse.root_datum import product_group
        builders = [build for _, build in SPLIT_BUILDERS]
        builders.append(lambda q: product_group(
            [{"builder": "gl", "n": 2}, {"builder": "gsp", "dim": 4}], q))
        for q in (2, 3, 5, 7):
            for build in builders:
                rd, frob = build(q)
                assert dense_tau(frob) == IntMatrix.identity(rd.rank)
                k = rd.num_nodes
                for bits in range(2 ** k):
                    J = [i for i in range(k) if bits >> i & 1]
                    zd = build_zip_datum(rd, frob, parabolic=J)
                    zm = zeta_matrix(zd)
                    assert zm == scalar(zm.rows, 1 - q)
                    factors = smith_normal_form(zm).invariant_factors
                    assert factors == (q - 1,) * zm.rows
                    if zm.rows:
                        assert s0_characters(zd).hasse_number == q - 1


def test_criterion_5_picard_torsion():
    with criterion(5, "Picard torsion (n) for adjoint A_{n-1}, empty otherwise"):
        for n in range(2, 7):
            rd, _ = simple_group("A", n - 1, 2, "adjoint")
            assert picard_torsion(rd) == (n,)
        for rd in (gl(3, 2)[0], gl(5, 3)[0], gsp(4, 3)[0], gsp(6, 2)[0],
                   simple_group("A", 3, 2)[0], simple_group("B", 3, 2)[0],
                   simple_group("C", 2, 3)[0], simple_group("D", 4, 2)[0],
                   simple_group("G", 2, 2)[0]):
            assert picard_torsion(rd) == ()


def test_criterion_6_m_p_identity():
    with criterion(6, "rank X*(P) - rank X*(G) = |I \\ J| for every J"):
        for _, build in SPLIT_BUILDERS:
            rd, _ = build(3)
            k = rd.num_nodes
            full = frozenset(range(k))
            rank_g = char_lattice_of_parabolic(rd, full).rows
            for bits in range(2 ** k):
                J = frozenset(i for i in range(k) if bits >> i & 1)
                rank_p = char_lattice_of_parabolic(rd, J).rows
                assert rank_p - rank_g == k - len(J)


def test_criterion_7_orbit_census():
    with criterion(7, "orbit counts, dimensions and codimension-one census"):
        for _, build in SPLIT_BUILDERS:
            rd, frob = build(3)
            W = enumerate_weyl(rd)
            w0_len = W.elements[W.w0_index].length
            k = rd.num_nodes
            for bits in range(2 ** k):
                J = [i for i in range(k) if bits >> i & 1]
                zd = build_zip_datum(rd, frob, parabolic=J)
                census = orbit_census(zd)
                assert census == enumerated_census(zd, W)
                order_j = len(subgroup_indices(W, frozenset(J)))
                assert len(census.orbits) * order_j == len(W)
                codim0 = [o for o in census.orbits if o.codim == 0]
                assert len(codim0) == 1
                assert codim0[0].dim == census.dim_group
                codim1 = [o for o in census.orbits if o.codim == 1]
                assert len(codim1) == k - len(J)
                w0j_len = W.elements[longest_element(W, frozenset(J))].length
                assert census.eta_length == w0_len - w0j_len
                assert pic_rank(zd) == len(codim1)


def test_criterion_8_positivity_property_suite():
    with criterion(8, "ample characters: antiample certificate and "
                      "certified-negative divisor coefficients"):
        rng = random.Random(2024)
        types = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2)]
        for series, rank in types:
            for q in (2, 3, 5):
                rd, frob = simple_group(series, rank, q)
                k = rd.num_nodes
                for bits in range(2 ** k):
                    J = frozenset(i for i in range(k) if bits >> i & 1)
                    zd = build_zip_datum(rd, frob, parabolic=sorted(J))
                    for _ in range(20):
                        lam = seeded_ample(rd, J, rng)
                        assert antiample_check(zd, lam) is True
                        rep = hasse_divisor_coeffs(zd, lam)
                        assert rep.verdict == CERTIFIED_NEGATIVE
                        coeffs = rep.borel_coefficients
                        assert all(c <= 0 for c in coeffs)
                        strict = {i for i, c in enumerate(coeffs) if c < 0}
                        assert strict == set(range(k)) - J
                        if not J:
                            assert all(c < 0 for c in coeffs)


def test_criterion_9_weil_pullback():
    with criterion(9, "Weil-restriction pullbacks stay ample"):
        rng = random.Random(777)
        cases = []
        for d in (2, 3):
            for q in (2, 3):
                cases.append((weil_restriction(d, {"builder": "gl", "n": 2}, q), []))
        for q in (2, 3):
            pair = weil_restriction(2, {"builder": "gl", "n": 3}, q)
            cases.append((pair, [1, 3]))  # both blocks missing their first node
            cases.append((pair, [1, 2]))  # different node per block
        for (rd, frob), J in cases:
            zd = build_zip_datum(rd, frob, parabolic=J)
            copies = len(rd.components)
            every = frozenset(range(rd.num_nodes))
            for _ in range(10):
                lam = seeded_ample(rd, zd.J, rng)
                assert weil_pullback_check(zd, lam) is True
                # the pullback to each copy, computed in X*, is ample there
                for vec, targets in xstar_block_pullbacks(zd, lam, copies):
                    assert two_helper_verdict(rd.coroot_pairings(vec), every - targets,
                                              -1) == AMPLE


def test_criterion_10_classification():
    with criterion(10, "Siegel cocharacters minuscule, doubles and G2 excluded"):
        for g in (1, 2, 3):
            rd, _ = gsp(2 * g, 3)
            siegel = (1,) * (g + 1)
            assert classify_cocharacter(rd, siegel) == MINUSCULE
            doubled = tuple(2 * x for x in siegel)
            assert classify_cocharacter(rd, doubled) == NEITHER
        rd, _ = simple_group("G", 2, 2)
        for chi in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 5), (-1, 1)):
            assert any(p != 0 for p in rd.root_pairings(chi))  # noncentral
            assert classify_cocharacter(rd, chi) != MINUSCULE


def test_criterion_11_snf_oracle_equivalence():
    with criterion(11, "Smith normal form agrees with the minors-gcd oracle"):
        matrices = []
        for n, blocks, q in GL_FIXTURES:
            _, _, zd = gl_block_datum(n, blocks, q)
            matrices.append(zeta_matrix(zd))
        for q in (2, 3, 5):
            rd, frob = unitary(3, q)
            matrices.append(zeta_matrix(build_zip_datum(rd, frob, parabolic=[0])))
        for d in (2, 3):
            for q in (2, 3):
                _, _, zd = hb_datum(d, q)
                matrices.append(fundamental_zeta_matrix(zd))
        _, _, zd = hb_datum(2, 2)
        matrices.append(zeta_matrix(zd))  # the 4x4 full-lattice matrix
        rd, frob = gsp(4, 5)
        matrices.append(zeta_matrix(build_zip_datum(rd, frob, parabolic=[0])))
        for m in matrices:
            assert m.rows <= 4
            assert smith_normal_form(m).invariant_factors == \
                minors_invariant_factors(m.to_rows(), m.cols)


CLI_FIXTURES = [
    {"q": 3, "group": {"builder": "unitary", "n": 3}, "parabolic_type": [1]},
    {"q": 5, "group": {"builder": "gl", "n": 3}, "cocharacter": [1, 1, 0]},
    {"q": 2, "group": {"builder": "weil_restriction", "copies": 3,
                       "inner": {"builder": "gl", "n": 2}},
     "parabolic_type": []},
    {"q": 3, "group": {"builder": "gsp", "dim": 4}, "cocharacter": [1, 1, 1]},
]

CLI_OBSTRUCTED = {
    "q": 3,
    "group": {"builder": "simple", "series": "A", "rank": 2, "isogeny": "adjoint"},
    "parabolic_type": [1, 2],
}


def test_criterion_12_cli_determinism(tmp_path, capsys):
    with criterion(12, "CLI determinism and obstruction exit code"):
        for doc in CLI_FIXTURES:
            text = json.dumps(doc)
            first = render_json(run("all", parse_config(text)))
            second = render_json(run("all", parse_config(text)))
            assert first.encode() == second.encode()
        path = tmp_path / "obstructed.json"
        path.write_text(json.dumps(CLI_OBSTRUCTED))
        code = cli_main(["all", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        partial = json.loads(captured.out)
        assert partial["warnings"][0]["code"] == "PicObstruction"
        assert partial["picard"] == ["3"]
        assert partial["pic_L0_trivial"] is False
