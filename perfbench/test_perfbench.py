"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import corpus  # noqa: E402
import workload  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402

from ziphasse import positivity, root_datum, zip_core  # noqa: E402

U3 = corpus.unitary(3)


def _doc(command, group=U3, J=(1,), fmt="json"):
    return corpus._doc("t", command, {"parabolic_type": list(J)}, 3, group,
                       fmt=fmt)


def test_checker_accepts_real_outputs():
    for command in ("hasse", "orbits", "positivity", "picard", "all"):
        for fmt in ("json", "text"):
            result = workload.execute(_doc(command, fmt=fmt))
            assert result.code == 0 and result.problems == [], result


def test_checker_counts_tampered_invariant_factor():
    doc = _doc("all")
    result = workload.execute(doc)
    data = json.loads(result.stdout)
    assert data["invariant_factors"] == ["1", "4", "8"]
    data["invariant_factors"][1] = "5"
    problems = checks.check(doc, result.code, json.dumps(data))
    assert problems and "invariant factors" in problems[0]


def test_checker_counts_tampered_text_report():
    doc = _doc("all", fmt="text")
    stdout = workload.execute(doc).stdout
    assert "invariant_factors=['1', '4', '8']" in stdout
    tampered = stdout.replace("invariant_factors=['1', '4', '8']",
                              "invariant_factors=['1', '4', '16']")
    assert checks.check(doc, 0, tampered)


def test_checker_counts_exit_code_one():
    doc = _doc("hasse")
    assert checks.check(doc, 1, workload.execute(doc).stdout)
    invalid = corpus.Doc(id="bad", command="hasse", text="{", argv=(),
                         expect=corpus.INVALID, nodes=None, datum=None)
    assert checks.check(invalid, 1, "")
    assert checks.check(invalid, 2, "") == []


def test_known_failure_is_counted_not_hidden():
    # Weil restriction of GL3 with non-maximal blocks: positivity raises.
    doc = _doc("positivity", group=corpus.weil(2, corpus.gl(3)), J=(3, 4))
    failure = workload.execute(doc)
    assert failure.code == 1
    assert any("NotWeilRestrictionError" in p for p in failure.problems)
    summary = workload.summarize([failure, workload.execute(_doc("hasse"))])
    assert summary["attempted"] == 2 and summary["failed"] == 1
    assert summary["correct"]


def test_corpus_depends_only_on_seed():
    def first(name, seed):
        return [d.text for d in next(corpus.rounds(name, seed))]

    for name in corpus.WORKLOADS:
        assert first(name, 7) == first(name, 7)
        assert first(name, 7) != first(name, 8)


def test_tracer_self_times_add_up_to_traced_wall_time():
    docs = [_doc("all"), _doc("hasse", group=corpus.product(
        corpus.gl(2), corpus.simple("B", 2))), _doc("picard", fmt="text")]
    with Tracer() as tracer:
        results = workload.run_docs(docs)
    wall_ns = sum(r.wall_ns for r in results)
    assert sum(tracer.self_ns.values()) == tracer.root_ns
    assert tracer.calls["cli_report.main"] == len(docs)
    assert 0.9 * wall_ns <= tracer.root_ns <= wall_ns
    # The product builds itself and its two factors through build_group.
    assert tracer.calls["root_datum.build_group"] == 1 + 3 + 1
    assert tracer.counters["weyl.elements"] == 6


def test_tracer_rebinds_every_alias_and_restores():
    def aliases():
        return (zip_core.opp_type, zip_core.min_coset_reps,
                root_datum.solve_rational, positivity.zeta_matrix)

    originals = aliases()
    with Tracer():
        assert all(w is not o and w.__wrapped__ is o
                   for w, o in zip(aliases(), originals))
    assert aliases() == originals
    assert sum(len(v) for v in TRACED.values()) == 28


def test_tracing_does_not_change_outputs():
    docs = next(corpus.rounds("sweep", 0))[:12]
    plain = [r.stdout for r in workload.run_docs(docs)]
    with Tracer():
        traced = [r.stdout for r in workload.run_docs(docs)]
    assert plain == traced
