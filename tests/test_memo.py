"""The parabolic memo, root_datum._memo.

A document whose (datum, J) was seen before reads the Levi lattice, the
weight sum and the census from the memo: it must print what a document on
an empty memo prints.  K and J0 are made on every call and the Picard
torsion once per datum, on the datum itself.  Each entry belongs to one
datum object and one key, a make that raises keeps nothing, and the memo
keeps to its budget, also when threads share it.
"""

import gc
import json
import random
import sys
import threading
import tracemalloc
from itertools import cycle

import pytest
from _oracles import dense_zeta_matrix
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import run_cli
from test_root_datum import BUILDER_SPECS

from ziphasse import root_datum, zip_core
from ziphasse.cli_report import COMMANDS, _positivity_section
from ziphasse.root_datum import (
    MEMO_BUDGET,
    FrobeniusStructure,
    RootDatum,
    _datum_charge,
    _ENTRY_CHARGE,
    _levi_lattice,
    _Memo,
    _memo,
    _tau,
    build_group,
    fundamental_weight_sum,
    gl,
    picard_torsion,
    unitary,
)
from ziphasse.zip_core import (
    CensusCheckError,
    build_zip_datum,
    orbit_census,
    s0_characters,
    zeta_matrix,
)

GL4 = {"builder": "gl", "n": 4}


def every_stage(rd, frob, J):
    """Run every q-free stage on (rd, frob, J): K and J0, made per call, the
    Picard torsion, kept on the datum, and the three memo stages (the Levi
    lattice, the weight sum and the census); return what each made."""
    zd = build_zip_datum(rd, frob, parabolic=J)
    return {"K": zd.K, "J0": zd.J0, "levi": _levi_lattice(rd, zd.J0, frob.src, frob.sign),
            "weights": fundamental_weight_sum(rd, zd.J),
            "picard": picard_torsion(rd), "census": orbit_census(zd)}


@st.composite
def document_lists(draw):
    """Documents on at most three groups of rank <= 8: each (group, J, q)
    under two to five commands, some J under two q, all shuffled.  The
    census cap keeps orbits and all cheap, or makes them exit 3."""
    docs = []
    for _ in range(draw(st.integers(1, 3))):
        group = draw(BUILDER_SPECS.filter(lambda spec: root_datum.check_group(spec)[1] <= 8))
        nodes = build_group(group, 2)[0].num_nodes
        for _ in range(draw(st.integers(1, 2))):
            J = draw(st.lists(st.integers(1, nodes), unique=True)) if nodes else []
            for q in draw(st.lists(st.sampled_from([2, 3, 4, 9, 2 ** 39]),
                                   min_size=1, max_size=2, unique=True)):
                text = json.dumps({"q": q, "group": group, "parabolic_type": J,
                                   "options": {"weyl_cap": 2000}})
                commands = draw(st.lists(st.sampled_from(COMMANDS), min_size=2, max_size=5))
                docs += [(command, text) for command in commands]
    return draw(st.permutations(docs))


class TestWarmEqualsCold:
    @settings(max_examples=60, deadline=None, database=None)
    @given(document_lists())
    def test_a_warm_process_prints_what_an_empty_memo_prints(self, docs):
        _memo.clear()
        warm = [run_cli([command], text)[:2] for command, text in docs]
        cold = []
        for command, text in docs:
            _memo.clear()
            cold.append(run_cli([command], text)[:2])
        assert warm == cold

    def test_a_hit_returns_the_object_the_make_returned(self):
        rd, frob = gl(5, 3)
        first = every_stage(rd, frob, [0, 2])
        entries, held = len(_memo), _memo.held
        again = every_stage(rd, frob, [0, 2])
        assert again == first
        # K and J0 are made afresh; the rest is the object made first
        assert all(again[stage] is first[stage]
                   for stage in ("levi", "weights", "picard", "census"))
        assert (len(_memo), _memo.held) == (entries, held)


class TestKeys:
    def test_one_datum_under_two_frobenius_structures(self):
        # GL4's tau fixes the simple roots, U(4)'s flips them: J = {1} has
        # K = {3} and J0 = {1} under the first, K = {1} and no J0 under the
        # second (0-based: {0} -> K {2}, J0 {0}; K {0}, J0 {})
        rd, split = gl(4, 3)
        flip = FrobeniusStructure(3, *_tau(rd, range(3, -1, -1), (-1,) * 4))
        assert flip.root_perm == (2, 1, 0) and flip == unitary(4, 3)[1]
        for first, second in ((split, flip), (flip, split)):
            _memo.clear()
            got = [build_zip_datum(rd, frob, parabolic=[0]) for frob in (first, second)]
            assert {(zd.frob.root_perm, zd.K, zd.J0) for zd in got} == {
                ((0, 1, 2), frozenset({2}), frozenset({0})),
                ((2, 1, 0), frozenset({0}), frozenset())}
        # the same flip on U(4)'s own datum, a different object
        other = build_zip_datum(unitary(4, 3)[0], flip, parabolic=[0])
        assert (other.K, other.J0) == (frozenset({0}), frozenset())

    def test_the_levi_stage_is_keyed_on_tau(self):
        # one datum object under two taus with equal J0 = {}: GL1 under
        # tau = 1 and tau = -1, and GL4 under its split tau and U(4)'s flip;
        # each pass runs both taus twice, the second time on a warm memo
        q = 3
        gl1, plus = gl(1, q)
        minus = FrobeniusStructure(q, *_tau(gl1, (0,), (-1,)))
        gl4, split = gl(4, q)
        flip = FrobeniusStructure(q, *_tau(gl4, range(3, -1, -1), (-1,) * 4))
        antidiagonal = [[1, 0, 0, q], [0, 1, q, 0], [0, q, 1, 0], [q, 0, 0, 1]]
        diagonal = [[1 - q if i == j else 0 for j in range(4)] for i in range(4)]
        for rd, zetas in ((gl1, {plus: [[1 - q]], minus: [[1 + q]]}),
                          (gl4, {split: diagonal, flip: antidiagonal})):
            for order in (list(zetas), list(zetas)[::-1]):
                _memo.clear()
                for frob in order + order:
                    zd = build_zip_datum(rd, frob, parabolic=[])
                    assert zd.J0 == frozenset()
                    zeta = zeta_matrix(zd)
                    assert zeta.to_rows() == zetas[frob]
                    assert zeta == dense_zeta_matrix(zd)
                assert len(_memo) == 2

    def test_each_stage_is_keyed_on_its_node_set(self):
        rd, frob = gl(5, 3)
        warm = [every_stage(rd, frob, J) for J in ([], [0], [1, 2], [0, 1, 2, 3])]
        for J, got in zip(([], [0], [1, 2], [0, 1, 2, 3]), warm):
            _memo.clear()
            assert every_stage(rd, frob, J) == got
        assert len({got["census"].lengths for got in warm}) == 4

    def test_equal_data_from_two_descriptions_get_their_own_entries(self):
        a, frob_a = build_group(GL4, 3)
        b, frob_b = build_group({"builder": "product", "factors": [GL4]}, 3)
        assert a == b and a is not b
        stages_a = every_stage(a, frob_a, [1])
        entries = len(_memo)
        stages_b = every_stage(b, frob_b, [1])
        assert len(_memo) == 2 * entries
        assert stages_a == stages_b
        assert not any(stages_b[stage] is stages_a[stage] for stage in ("levi", "census"))

    def test_hand_made_lists_and_sets_still_work(self):
        # a list root_perm is never hashed, and the memo keys J, J0 and tau's
        # src and sign are made hashable, so a set J or J0 and a list src or
        # sign work too
        rd, frob = gl(4, 3)
        frob = frob._replace(root_perm=list(frob.root_perm), src=list(frob.src),
                             sign=list(frob.sign))
        zd = build_zip_datum(rd, frob, parabolic=[0])
        loose = zd._replace(J=set(zd.J), J0=set(zd.J0))
        assert orbit_census(loose) is orbit_census(zd)
        assert s0_characters(loose) == s0_characters(zd)

    def test_no_lookup_hashes_a_root_datum(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a RootDatum was hashed")
        monkeypatch.setattr(RootDatum, "__hash__", refuse)
        with pytest.raises(AssertionError):
            hash(gl(2, 3)[0])
        for group in (GL4, {"builder": "unitary", "n": 5},
                      {"builder": "simple", "series": "B", "rank": 3, "isogeny": "adjoint"}):
            rd, frob = build_group(group, 3)
            for _ in range(2):
                for J in ([], [0], [0, 1]):
                    zd = build_zip_datum(rd, frob, parabolic=J)
                    every_stage(rd, frob, J)
                    _positivity_section(zd)
                    try:
                        s0_characters(zd)
                    except zip_core.PicObstructionError:
                        pass


class TestNothingKeptFromARaise:
    def test_a_census_that_fails_its_check_is_not_kept(self, monkeypatch):
        rd, frob = gl(4, 3)
        zd = build_zip_datum(rd, frob, parabolic=[0, 1])
        entries, held = len(_memo), _memo.held
        # twice |W|: the scan ends short of the count, and the check raises
        monkeypatch.setattr(zip_core, "classical_order", lambda rd: 48)
        for _ in range(2):
            with pytest.raises(CensusCheckError, match="holds 4 points, not"):
                orbit_census(zd)
            assert (len(_memo), _memo.held) == (entries, held)
        monkeypatch.undo()
        assert orbit_census(zd).lengths == (0, 1, 2, 3)
        assert len(_memo) == entries + 1

    def test_an_exception_is_raised_and_not_kept(self):
        memo = _Memo(10_000)
        rd, _ = gl(3, 2)
        calls = []

        def make():
            calls.append(1)
            raise ValueError("no value")
        for _ in range(3):
            with pytest.raises(ValueError, match="no value"):
                memo(rd, "stage", None, make, len)
        assert (len(calls), len(memo), memo.held) == (3, 0, 0)


class TestBudget:
    def test_the_oldest_entries_go_first_and_the_memo_keeps_to_its_budget(self):
        rd, _ = gl(4, 3)
        entry = 50 + _ENTRY_CHARGE
        memo = _Memo(_datum_charge(rd) + 29 * entry + entry // 2)
        for n in range(100):
            assert memo(rd, "x", n, lambda: tuple(range(50)), len) == tuple(range(50))
            assert memo.held <= memo.budget
        assert (len(memo), memo.held) == (29, _datum_charge(rd) + 29 * entry)

        def missing():
            raise LookupError
        for n in range(71):
            with pytest.raises(LookupError):
                memo(rd, "x", n, missing, len)
        assert [memo(rd, "x", n, missing, len)[-1] for n in range(71, 100)] == [49] * 29
        # an entry above the whole budget is returned and not kept
        big = memo(rd, "x", "big", lambda: tuple(range(memo.budget)), len)
        assert len(big) == memo.budget and len(memo) == 29

    def test_a_datum_is_charged_while_any_entry_of_it_is_kept(self):
        a, b = gl(4, 3)[0], gl(6, 3)[0]
        memo = _Memo(_datum_charge(a) + _datum_charge(b) + 3 * _ENTRY_CHARGE - 1)
        memo(a, "x", 0, tuple, len)
        memo(b, "x", 0, tuple, len)
        assert memo.held == _datum_charge(a) + _datum_charge(b) + 2 * _ENTRY_CHARGE
        memo(b, "x", 1, tuple, len)  # a's one entry goes, and a's charge with it
        assert memo.held == _datum_charge(b) + 2 * _ENTRY_CHARGE
        assert len(memo) == 2
        memo.clear()
        assert (len(memo), memo.held) == (0, 0)

    def test_a_full_memo_holds_at_most_the_stated_bytes(self):
        # the MEMO_BUDGET comment states 36 B per counted integer at most
        assert _memo.budget == MEMO_BUDGET
        groups = [{"builder": "gl", "n": 6}, {"builder": "unitary", "n": 7},
                  {"builder": "simple", "series": "F", "rank": 4},
                  {"builder": "simple", "series": "D", "rank": 5, "isogeny": "adjoint"},
                  {"builder": "gsp", "dim": 24}, {"builder": "unitary", "n": 40}]
        rng = random.Random(0)
        tracemalloc.start()
        try:
            # fill past two evictions, until the memo holds within 2000
            # integers of its budget
            evicted = 0
            for group in cycle(groups):
                if evicted >= 2 and _memo.held > MEMO_BUDGET - 2000:
                    break
                rd, frob = build_group(group, 3)
                J = sorted(rng.sample(range(rd.num_nodes), rng.randint(0, rd.num_nodes)))
                before = len(_memo)
                zd = build_zip_datum(rd, frob, parabolic=J)
                _levi_lattice(rd, zd.J0, frob.src, frob.sign)
                fundamental_weight_sum(rd, zd.J)
                picard_torsion(rd)
                if rd.num_nodes <= 6:
                    orbit_census(zd)
                evicted += len(_memo) < before
            root_datum._group.cache_clear()
            gc.collect()
            full = tracemalloc.get_traced_memory()[0]
            held = _memo.held
            _memo.clear()
            gc.collect()
            kept = full - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert MEMO_BUDGET - 2000 < held <= MEMO_BUDGET
        assert 0 < kept <= 36 * held, (kept, held)


class TestThreads:
    def test_threads_sharing_a_memo_keep_its_count(self):
        data = [gl(n, 2)[0] for n in (3, 4, 5)]
        memo = _Memo(sum(map(_datum_charge, data)) + 40 * (_ENTRY_CHARGE + 8))
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(3000):
                    key = rng.randrange(60)
                    rd = rng.choice(data)
                    value = memo(rd, "x", key, lambda: (key,) * 8, len)
                    assert value == (key,) * 8
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        entries = memo._entries
        assert memo.held <= memo.budget
        assert memo.held == (sum(charge for charge, _ in entries.values())
                             + sum(charge for _, _, charge in memo._data.values()))
        for rd_id, (rd, count, _) in memo._data.items():
            assert id(rd) == rd_id
            assert count == sum(1 for slot in entries if slot[0] == rd_id) > 0
