"""The mutant registry: deliberate faults in src/ziphasse and the tests that
must catch them.

Each record names a file under src/ziphasse, a text that occurs there
exactly once, the text that replaces it, and the pytest node ids expected
to fail.  For every record the runner copies src to a temporary directory,
applies the record to the copy (never to the tree itself) and runs the
named ids with -x under PYTHONPATH=<copy>, in a child process limited by a
timeout and by an address-space limit that acts on the child only.  A
record is

    killed    when a named test fails,
    survived  when they all pass, or the child times out or ends otherwise,
    stale     when its text no longer occurs exactly once, or pytest cannot
              find a named test.

Run from anywhere:

    python tests/mutants.py

It first runs every named test on an unmutated copy, which must pass.  It
prints one line per record and exits 1 when any record survived or is
stale.  The file is not named test_*, so pytest does not collect it.
"""

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 120
MEMORY_BYTES = 2 << 30


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # the census's point field fixed at 2 bits: the fields carry into each
    # other and the walk leaves the orbit set, until the scan stops at
    # |W_J \ W| points and the count check raises
    Mutant("zip_core.py",
           "width = n_pos.bit_length() + 1",
           "width = 2",
           ("tests/test_zip_core.py::TestOrbitCensus::"
            "test_tree_invariants[E8-without-alpha2]",
            "tests/test_acceptance.py::test_criterion_7_orbit_census")),
    # the Weil pullback rule without its "one component twice" refusal
    Mutant("positivity.py",
           "if len(set(met)) < len(met):",
           "if False:",
           ("tests/test_positivity.py::TestWeilPullback::"
            "test_rejects_a_cycle_meeting_one_component_twice",)),
    # ... without its maximal-component refusal
    Mutant("positivity.py",
           "if len(set(comp.nodes) - zd.J) > 1:",
           "if False:",
           ("tests/test_positivity.py::TestWeilPullback::test_rejects_non_maximal_factor",
            "tests/test_positivity.py::TestWeilPullback::test_maximal_rule_is_per_component")),
    # ... without its ample precondition
    Mutant("positivity.py",
           "if _verdict(rd.coroot_pairings(_frac(lam)), zd.J) != AMPLE:",
           "if False:",
           ("tests/test_positivity.py::TestWeilPullback::test_pullbacks_of_ample_"
            "characters_are_ample_whenever_the_check_applies",)),
    # the sign rule ignoring the ample sign
    Mutant("positivity.py",
           "return AMPLE if ample_sign < 0 else ANTIAMPLE\n"
           "    if all(p > 0 for p in outside):\n"
           "        return ANTIAMPLE if ample_sign < 0 else AMPLE",
           "return AMPLE\n"
           "    if all(p > 0 for p in outside):\n"
           "        return ANTIAMPLE",
           ("tests/test_positivity.py::TestIsAmple",
            "tests/test_acceptance.py::test_criterion_8_positivity_property_suite")),
    # a reflection that reads the root where it needs the coroot
    Mutant("root_datum.py",
           "_dense((rd.root_entries[i], rd.coroot_entries[i]), n)",
           "_dense((rd.root_entries[i], rd.root_entries[i]), n)",
           ("tests/test_weyl.py::test_opposition_agrees_with_enumeration",)),
    # positive roots closed under the Cartan columns where its rows are meant
    Mutant("root_datum.py",
           "cartan_rows = rd._cartan_entries[0]",
           "cartan_rows = rd._cartan_entries[1]",
           ("tests/test_root_datum.py::TestWeylWalksAgainstOracle::"
            "test_positive_roots_match_the_coefficient_closure",)),
    # |W| as the sum of the degrees, not their product
    Mutant("root_datum.py",
           "return prod(_degrees(rd.components))",
           "return sum(_degrees(rd.components))",
           ("tests/test_weyl.py::test_degree_products_match_the_closed_forms",
            "tests/test_weyl.py::test_degree_products_match_the_exceptional_orders")),
    # positive roots summed over the coroots
    Mutant("root_datum.py",
           "vectors = coeffs * _dense(rd.root_entries, rd.rank)",
           "vectors = coeffs * _dense(rd.coroot_entries, rd.rank)",
           ("tests/test_root_datum.py::TestWeylWalksAgainstOracle::"
            "test_positive_roots_match_the_coefficient_closure",)),
    # the closed-form inverse of 1 - q*tau with the signs of tau dropped
    Mutant("positivity.py",
           "qsign = [q * s for s in zd.frob.sign]",
           "qsign = [q for s in zd.frob.sign]",
           ("tests/test_positivity.py::TestClosedFormZetaInverse::"
            "test_matches_rational_inverse_for_every_J",)),
    # the Cartan nonzeros recomputed on every read instead of cached
    Mutant("root_datum.py",
           "@cached_property\n    def _cartan_entries",
           "@property\n    def _cartan_entries",
           ("tests/test_root_datum.py::TestCartanCache",)),
    # the census reading a point's coordinates back one below their value
    Mutant("zip_core.py",
           "image = p - ((p >> shift & mask) - bias) * column",
           "image = p - ((p >> shift & mask) - bias - 1) * column",
           ("tests/test_acceptance.py::test_criterion_7_orbit_census",)),
    # the orbit table's words built from the wrong parent body
    Mutant("cli_report.py",
           "bodies = [bodies[p - before] + glued[i]",
           "bodies = [bodies[p - before - 1] + glued[i]",
           ("tests/test_cli.py::TestRenderJsonOracle::"
            "test_every_J_and_command_matches_json_dumps[U4]",)),
    # each length's head written with the next length's codim, dim, length
    Mutant("cli_report.py",
           "head % (eta_length - n, dim_p + n, n)",
           "head % (eta_length - n - 1, dim_p + n + 1, n + 1)",
           ("tests/test_cli.py::TestRenderJsonOracle::"
            "test_every_J_and_command_matches_json_dumps[U4]",)),
    # omega_i solved for e_{i+1}
    Mutant("root_datum.py",
           "return {i: _weight(rd, [1 if j == i else 0 for j in range(k)])",
           "return {i: _weight(rd, [1 if j == i + 1 else 0 for j in range(k)])",
           ("tests/test_root_datum.py::TestFundamentalWeights::test_gl2",
            "tests/test_acceptance.py::test_criterion_8_positivity_property_suite")),
    # the Levi's Smith form made from the roots of J0, not its coroots
    Mutant("root_datum.py",
           "rows = [rd.coroot_entries[j] for j in sorted(nodes)]",
           "rows = [rd.root_entries[j] for j in sorted(nodes)]",
           ("tests/test_acceptance.py::test_criterion_4_split_shortcut",)),
    # fundamental_weights ignoring J
    Mutant("root_datum.py",
           "for i in range(k) if i not in J}",
           "for i in range(k)}",
           ("tests/test_root_datum.py::TestFundamentalWeights::"
            "test_excludes_requested_nodes",
            "tests/test_acceptance.py::test_criterion_8_positivity_property_suite")),
    # B and C swapped at the last end of a double bond
    Mutant("root_datum.py",
           'series = "F" if not on_end else "B" if max(on_end) == short else "C"',
           'series = "F" if not on_end else "C" if max(on_end) == short else "B"',
           ("tests/test_root_datum.py::TestTypes::"
            "test_every_plate_is_typed_in_both_isogeny_types",)),
    # D and E swapped at the branch node
    Mutant("root_datum.py",
           'series = "D" if len(ends.intersection(branch[0])) >= 2 else "E"',
           'series = "D" if len(ends.intersection(branch[0])) < 2 else "E"',
           ("tests/test_root_datum.py::TestTypes::"
            "test_every_plate_is_typed_in_both_isogeny_types",)),
    # the census count check weakened back to a bound: too few points pass
    Mutant("zip_core.py",
           "if len(points) != count:",
           "if len(points) > count:",
           ("tests/test_zip_core.py::TestOrbitCensus::"
            "test_census_count_check_survives_optimize_flag",)),
    # RootDatum built without its int check
    Mutant("root_datum.py",
           "                _check_int(x)\n",
           "",
           ("tests/test_root_datum.py::TestDenseReference::test_a_non_int_entry_is_refused",)),
    # ... with its range check weakened to a lower bound: a coordinate past
    # the rank is taken
    Mutant("root_datum.py",
           "not last < a < rank",
           "not last < a",
           ("tests/test_root_datum.py::TestMalformedEntries::"
            "test_a_malformed_row_is_refused[root-past-rank]",)),
    # ... without its order check: a repeated or unsorted row is taken
    Mutant("root_datum.py",
           "                last = a\n",
           "",
           ("tests/test_root_datum.py::TestMalformedEntries::"
            "test_a_malformed_row_is_refused[root-repeated]",
            "tests/test_root_datum.py::TestMalformedEntries::"
            "test_a_malformed_row_is_refused[coroot-unsorted]")),
    # solve_rational without U: the target taken for U t
    Mutant("exact_linear.py",
           "ut = [sum(map(mul, U.row(i), target)) for i in range(U.rows)]",
           "ut = list(target)",
           ("tests/test_exact_linear.py::TestSolveAndKernel::test_solve_unique",
            "tests/test_exact_linear.py::TestSolveAndKernel::"
            "test_solve_random_full_column_rank")),
    # ... and without V: y taken for V y
    Mutant("exact_linear.py",
           "return tuple([sum(map(mul, V.row(i), y)) for i in range(V.rows)])",
           "return tuple(y)",
           ("tests/test_exact_linear.py::TestSolveAndKernel::"
            "test_solve_random_full_column_rank",)),
    # kernel_basis reading rows of V where its columns are meant
    Mutant("exact_linear.py",
           "v[j::n] for j in range(rank, n)",
           "v[j * n:j * n + n] for j in range(rank, n)",
           ("tests/test_exact_linear.py::TestSolveAndKernel::test_kernel_is_saturated",)),
    # ... reading the first n - rank columns of V, not the last
    Mutant("exact_linear.py",
           "v[j::n] for j in range(rank, n)",
           "v[j::n] for j in range(n - rank)",
           ("tests/test_exact_linear.py::TestSolveAndKernel::test_kernel_is_saturated",)),
    # J0 taking the perm-cycles that merely meet J, not those inside it
    Mutant("zip_core.py",
           "if J.issuperset(cycle)",
           "if not J.isdisjoint(cycle)",
           ("tests/test_zip_core.py::TestBuildZipDatum::test_j0_is_the_largest_stable_subset",
            "tests/test_zip_core.py::TestBuildZipDatum::test_j0_matches_the_full_order_loop")),
    # the cycle walk marking only its start node as seen: each cycle comes
    # once from each of its nodes
    Mutant("root_datum.py",
           "seen[i] = True",
           "seen[start] = True",
           ("tests/test_root_datum.py::TestCycles::"
            "test_cycles_partition_the_nodes_and_are_closed",)),
    # the order of tau not doubled on a cycle whose signs multiply to -1
    Mutant("root_datum.py",
           "len(cycle) if eps == 1 else 2 * len(cycle)",
           "len(cycle)",
           ("tests/test_root_datum.py::TestCartanAndFrobenius::"
            "test_signed_permutations_match_power_loop_oracle",)),
    # the invariant factors without their gcd/lcm pass: the sorted diagonal
    Mutant("exact_linear.py",
           "if y % x:",
           "if False:",
           ("tests/test_exact_linear.py::TestInvariantFactors::"
            "test_a_diagonal_needs_the_gcd_lcm_step",)),
    # ... with the signs of the diagonal kept
    Mutant("exact_linear.py",
           "diag.append(abs(piv))",
           "diag.append(piv)",
           ("tests/test_exact_linear.py::TestInvariantFactors::"
            "test_a_scalar_matrix_has_no_unit_pivot",)),
    # zeta's basis read from column r + 1 of V, one column short
    Mutant("zip_core.py",
           "for j in range(r, n)",
           "for j in range(r + 1, n)",
           ("tests/test_zip_core.py::TestZetaMatrix::test_unitary3",)),
    # V^-1 read by rows where its columns are meant
    Mutant("zip_core.py",
           "(back[j::n] for j in range(n))",
           "(back[j * n:j * n + n] for j in range(n))",
           ("tests/test_zip_core.py::TestZetaMatrix::"
            "test_matches_dense_oracle_for_every_J",)),
    # build_group checking q only when its description misses the memo
    Mutant("root_datum.py",
           "    rd, tau = _group(_canonical(check_group(spec)[0]))\n"
           "    return rd, FrobeniusStructure(_check_q(q), *tau)",
           "    misses = _group.cache_info().misses\n"
           "    rd, tau = _group(_canonical(check_group(spec)[0]))\n"
           "    if _group.cache_info().misses > misses:\n"
           "        _check_q(q)\n"
           "    return rd, FrobeniusStructure(q, *tau)",
           ("tests/test_root_datum.py::TestGroupMemo::"
            "test_a_bad_q_is_refused_on_a_warm_description_every_time",
            "tests/test_root_datum.py::TestOneFrobeniusPerGroup::"
            "test_a_warm_description_checks_q_and_not_tau")),
    # a memo key blind to the isogeny: adjoint and simply connected data
    # share one key, and so one datum
    Mutant("root_datum.py",
           "_group(_canonical(check_group(spec)[0]))",
           "_group(_canonical(check_group(spec)[0])"
           ".replace('\"adjoint\"', '\"simply_connected\"'))",
           ("tests/test_root_datum.py::TestGroupMemo::"
            "test_the_isogeny_and_the_factor_order_tell_data_apart",
            "tests/test_root_datum.py::TestBuilders::test_simple_isogenies")),
    # the Frobenius structure of a description's first q kept on its shared
    # datum and returned for every later q
    Mutant("root_datum.py",
           "return rd, FrobeniusStructure(_check_q(q), *tau)",
           "return rd, vars(rd).setdefault(\"frob\", FrobeniusStructure(_check_q(q), *tau))",
           ("tests/test_root_datum.py::TestGroupMemo::"
            "test_a_second_q_keeps_the_datum_and_gets_its_own_frobenius",)),
    # F4's double bond on the wrong side: node 1 made its short end
    Mutant("root_datum.py",
           '"F": (2, 1, -2),',
           '"F": (1, 2, -2),',
           ("tests/test_root_datum.py::TestTypes::"
            "test_maximal_levis_are_typed_as_the_plates_name_them[F-4-0-levi8]",
            "tests/test_root_datum.py::TestDenseReference::"
            "test_every_plate_matches_the_dense_construction[F-4-simply_connected]")),
    # theta's coefficients solved on the transpose of the Cartan matrix
    Mutant("zip_core.py",
           "_forest_solve(rows, thetas)",
           "_forest_solve(columns, thetas)",
           ("tests/test_zip_core.py::TestClassifyCocharacter::"
            "test_fundamental_coweights_match_the_root_list[B-4]",
            "tests/test_zip_core.py::TestClassifyCocharacter::"
            "test_fundamental_coweights_match_the_root_list[C-4]",
            "tests/test_zip_core.py::TestClassifyCocharacter::"
            "test_fundamental_coweights_match_the_root_list[F-4]")),
    # the simply connected roots read off the Cartan rows, not its columns
    Mutant("root_datum.py",
           "roots, coroots = _columns(rows, n), units",
           "roots, coroots = rows, units",
           ("tests/test_root_datum.py::TestDenseReference::"
            "test_every_grammar_spec_matches_the_dense_construction",
            "tests/test_root_datum.py::TestTypes::test_every_plate_is_typed_in_"
            "both_isogeny_types[B-2-torsion8-simply_connected]")),
    # the dict writer dropping the ": " after a key
    Mutant("cli_report.py",
           'emit(lead + _escape(key) + ": ")',
           "emit(lead + _escape(key))",
           ("tests/test_cli.py::TestRenderJsonOracle::test_matches_json_dumps",)),
    # main building the --weyl-cap config and dropping it
    Mutant("cli_report.py",
           "cfg = cfg._replace(weyl_cap=args.weyl_cap)",
           "cfg._replace(weyl_cap=args.weyl_cap)",
           ("tests/test_cli.py::TestMainEntry::test_weyl_cap_flag",)),
    # zeta built with the wrong tau: every sign kept, every source its own
    # index; det zeta read off tau's cycles no longer matches its factors
    Mutant("zip_core.py",
           "zip(vec, qsign, src)",
           "zip(vec, qsign, range(n))",
           ("tests/test_acceptance.py::test_criterion_2_unitary",)),
    # det zeta read off tau's cycles with the cycle signs eps dropped
    Mutant("zip_core.py",
           "prod([q * sign[i] for i in c])",
           "prod([q for i in c])",
           ("tests/test_acceptance.py::test_criterion_2_unitary",)),
    # RootDatum._make back to NamedTuple's unchecked one: _make and _replace
    # skip __new__
    Mutant("root_datum.py",
           "return cls(*iterable)",
           "return tuple.__new__(cls, iterable)",
           ("tests/test_root_datum.py::TestMalformedEntries::"
            "test_make_and_replace_refuse_what_the_constructor_refuses[replace-rank]",)),
    # build_zip_datum without its int check on the cocharacter: a float
    # builds a datum
    Mutant("zip_core.py",
           "chi = tuple(map(_check_int, cocharacter))",
           "chi = tuple(cocharacter)",
           ("tests/test_zip_core.py::TestBuildZipDatum::"
            "test_a_non_int_entry_is_refused[float-cocharacter]",)),
    # IntMatrix built without its type scan: a float entry is taken
    Mutant("exact_linear.py",
           "if set(map(type, entries)) - {int}:",
           "if False:",
           ("tests/test_exact_linear.py::TestMatrixBasics::test_no_floats",)),
)


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def _pytest(tests, file=None, text=None):
    """The finished child, or None on a timeout: pytest -x on tests, run on
    a copy of src whose file, if given, holds text."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if file is not None:
            (src / "ziphasse" / file).write_text(text)
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               *tests]
        try:
            return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=TIMEOUT_S,
                                  preexec_fn=_limit_memory)
        except subprocess.TimeoutExpired:
            return None


def _last_line(proc) -> str:
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else proc.stderr.strip()[-200:]


def run(mutant: Mutant) -> tuple:
    """(outcome, detail) of one record: killed, survived or stale."""
    text = (ROOT / "src" / "ziphasse" / mutant.file).read_text()
    if text.count(mutant.old) != 1:
        return "stale", "%r occurs %d times" % (mutant.old, text.count(mutant.old))
    proc = _pytest(mutant.tests, mutant.file, text.replace(mutant.old, mutant.new))
    if proc is None:
        return "survived", "no named test failed within %d s" % TIMEOUT_S
    if proc.returncode == 1:
        return "killed", _last_line(proc)
    if proc.returncode in (4, 5):  # a named test was not found
        return "stale", _last_line(proc)
    return "survived", "exit %d: %s" % (proc.returncode, _last_line(proc))


def main() -> int:
    # every named test must pass on the tree as it is, or a kill means nothing
    tests = sorted({t for mutant in MUTANTS for t in mutant.tests})
    proc = _pytest(tests)
    if proc is None or proc.returncode != 0:
        print("the named tests do not pass unmutated: %s"
              % (_last_line(proc) if proc else "timeout"))
        return 1
    print("unmutated: %s" % (_last_line(proc),))
    bad = 0
    for n, mutant in enumerate(MUTANTS):
        start = time.perf_counter()
        outcome, detail = run(mutant)
        bad += outcome != "killed"
        print("%2d %-8s %5.1f s  %s: %s -> %s  [%s]"
              % (n, outcome, time.perf_counter() - start, mutant.file,
                 mutant.old.split("\n")[0], mutant.new.split("\n")[0], detail),
              flush=True)
    print("%d records, %d killed" % (len(MUTANTS), len(MUTANTS) - bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
