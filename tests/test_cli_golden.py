"""Golden CLI outputs.

Every document in ``golden/cases.json`` runs under ``hasse``, ``orbits``,
``positivity``, ``picard`` and ``all``; stdout must equal
``golden/<name>.<command>.out`` byte for byte and the exit code must equal
the recorded one.  The documents at rank 13-24 are GL17, U(17), GSp30,
adjoint D13 and the Weil restrictions of GL3 (8 copies) and SL2 (20
copies), with Borel, parabolic and cocharacter inputs; their Weyl groups
exceed the cap, so ``orbits`` exits 3 on them.  So it does on the rank-74
product of the Weil restrictions of GL2 with 16, 9, 5 and 7 copies, at
q = 3 and q = 2^39 with J empty: its Frobenius has order 5040, which pins
the positivity certificate's inverse twist on long signed cycles.  The
rank-12 product of U(3), Res GL2 x2, GSp4 and adjoint B2, each wrapped in
30 single-factor products, at the largest 40-bit prime q with J = {1, 3},
pins a document at the nesting and q budgets.  Two documents sit at the
rank budget, rank 128: U(128) with J = {2..127} at q = 2, and GSp254 with
the Siegel parabolic J = {1..126} at q = 3.  GSp254 with J = {1..10} at
q = 3 pins a twist matrix with no unit entry, -2 times the identity of size
118: T is the identity, and its 118 fixed points give the factors 2.
Every ``hasse`` and ``all`` document also runs with the fallback
elimination made to raise, so each reads its factors off the signed
cycles of T.  The small documents pin
whole orbit tables: E6 maximal, F4 with J = {2}, B5 with J = {2, 4},
U(6), GSp8, adjoint D4, Res GL3 x2 and U(3) x adjoint B2.  Three more
pin the positivity entry of one Weil restriction written in different
ways, at q = 3: Res GL3 x3 as a one-factor product and beside GL2, with
J = {1, 3, 6}, and Res_2 (GL2 x GL3) with J = {2, 6}.  On these
(every document whose ``orbits`` exits 0), ``orbits`` and ``all`` also run
with ``--format text``; stdout must equal ``golden/<name>.<command>.text.out``
and the exit code the one under ``text_exit``.

To record the files again from the current code (only when an output is
meant to change):

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ziphasse
from ziphasse import zip_core
from ziphasse.cli_report import main

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = ("hasse", "orbits", "positivity", "picard", "all")
TEXT_COMMANDS = ("orbits", "all")


def load_cases():
    return json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


def run_document(command, document, fmt="json"):
    """(exit code, stdout) of ``ziphasse <command> --format <fmt>``, in process."""
    old = sys.stdin
    sys.stdin = io.StringIO(json.dumps(document))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([command, "--format", fmt])
    finally:
        sys.stdin = old
    return code, out.getvalue()


def golden_path(name, command, fmt="json"):
    suffix = ".text.out" if fmt == "text" else ".out"
    return GOLDEN / ("%s.%s%s" % (name, command, suffix))


def expected_stdout(name, command, fmt="json"):
    return golden_path(name, command, fmt).read_text(encoding="utf-8")


def runs(cases):
    """(name, command, format, recorded exit code) of every golden file."""
    for name, case in sorted(cases.items()):
        for command in COMMANDS:
            yield name, command, "json", case["exit"][command]
        for command, code in sorted(case.get("text_exit", {}).items()):
            yield name, command, "text", code


CASES = load_cases()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_and_exit_code_match_golden(name, command):
    case = CASES[name]
    code, stdout = run_document(command, case["document"])
    assert code == case["exit"][command]
    assert stdout == expected_stdout(name, command)


@pytest.mark.parametrize("name,command", [
    (name, command) for name, command, fmt, _ in runs(CASES) if fmt == "text"])
def test_text_stdout_and_exit_code_match_golden(name, command):
    case = CASES[name]
    code, stdout = run_document(command, case["document"], "text")
    assert code == case["text_exit"][command]
    assert stdout == expected_stdout(name, command, "text")


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_hasse_document_reads_the_cycles_of_t(name, monkeypatch):
    # the fallback elimination raises, so each document must read its
    # factors off the signed cycles of T and still print its golden bytes
    def fallback(zeta):
        raise AssertionError("T is not a signed permutation: zeta was eliminated")
    monkeypatch.setattr(zip_core, "invariant_factors", fallback)
    case = CASES[name]
    for command in ("hasse", "all"):
        code, stdout = run_document(command, case["document"])
        assert (code, stdout) == (case["exit"][command], expected_stdout(name, command))


def test_every_census_document_has_text_goldens():
    for name, case in CASES.items():
        expected = set(TEXT_COMMANDS) if case["exit"]["orbits"] == 0 else set()
        assert set(case.get("text_exit", {})) == expected, name


# Censuses too large to keep as golden files, pinned by the byte count and
# SHA-256 of their ``orbits`` stdout: GL7 with J empty (5,040 orbits) at
# q = 2, and E8 without alpha_2 (17,280 orbits) with the cap lifted to |W(E8)|.
LARGE_CENSUSES = {
    "gl7_borel": {"q": 2, "group": {"builder": "gl", "n": 7}, "parabolic_type": []},
    "e8_no_a2": {"q": 2, "group": {"builder": "simple", "series": "E", "rank": 8},
                 "parabolic_type": [1, 3, 4, 5, 6, 7, 8],
                 "options": {"weyl_cap": 696729600}},
}
LARGE_DIGESTS = [
    ("gl7_borel", "json", 1042412,
     "ce47c949069215c361bb9ff7dea6487a88b4c1bee969afa6cfd5dd172b915a82"),
    ("gl7_borel", "text", 356587,
     "7e3312566da6466dcc10c5bf51c610386f9dca3ea5b7480952db83eaa4356916"),
    ("e8_no_a2", "json", 10351144,
     "0f9f629e9fa89b13abc87b4f55588f45dae4648dfa61ae7c127d6bff62ce40f9"),
    ("e8_no_a2", "text", 3093254,
     "e523790cd52faaf4c46f7b4f4a679d01758850622f5c699b58f4edd628e80e95"),
]


@pytest.mark.parametrize("name,fmt,size,sha", LARGE_DIGESTS)
def test_large_census_matches_its_digest(name, fmt, size, sha):
    code, stdout = run_document("orbits", LARGE_CENSUSES[name], fmt)
    data = stdout.encode("utf-8")
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha)


def test_golden_outputs_survive_optimize_flag():
    # the self-checks raise, so python -O must print the same bytes
    script = (
        "import sys\n"
        "sys.path.insert(0, %r)\n"
        "import test_cli_golden as g\n"
        "for name, command, fmt, code in g.runs(g.CASES):\n"
        "    document = g.CASES[name]['document']\n"
        "    if g.run_document(command, document, fmt) != (\n"
        "            code, g.expected_stdout(name, command, fmt)):\n"
        "        print(name, command, fmt)\n" % (str(Path(__file__).parent),))
    src = str(Path(ziphasse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def record():
    cases = load_cases()
    for name, case in sorted(cases.items()):
        case["exit"] = {}
        case.pop("text_exit", None)
        for command in COMMANDS:
            code, stdout = run_document(command, case["document"])
            case["exit"][command] = code
            golden_path(name, command).write_text(stdout, encoding="utf-8")
        if case["exit"]["orbits"] == 0:
            case["text_exit"] = {}
            for command in TEXT_COMMANDS:
                code, stdout = run_document(command, case["document"], "text")
                case["text_exit"][command] = code
                golden_path(name, command, "text").write_text(
                    stdout, encoding="utf-8")
    (GOLDEN / "cases.json").write_text(
        json.dumps(cases, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_golden.py --record")
    record()
