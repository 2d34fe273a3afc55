"""Seeded generator of CLI input documents for the three workloads.

A workload is an endless sequence of rounds.  Every round of a workload
holds the same slots (groups and commands).  The seed draws q and the
order of every round, J of the small census groups, and the cocharacters,
E7/E8 documents and invalid documents of the sweep.  The choices that set
most of a round's cost (J of the larger groups, the command and isogeny
type of a slot) follow a schedule that is the same for every seed, so runs
of different seeds do nearly the same amount of work.

The program under test receives only the generated documents.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional

WORKLOADS = ("census", "high_rank", "sweep")

VALID = (0, 3)
INVALID = (2,)

SMALL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27)


@dataclass(frozen=True)
class Doc:
    """One CLI invocation: ``ziphasse <command> [argv]`` with ``text`` on stdin."""

    id: str
    command: str
    text: str
    argv: tuple
    expect: tuple          # exit codes the document may end with
    nodes: Optional[int]   # number of simple roots, None for invalid input
    datum: Optional[str]   # canonical (group, q), None for invalid input

    @property
    def fmt(self) -> str:
        return "text" if "text" in self.argv else "json"


def gl(n):
    return {"builder": "gl", "n": n}


def unitary(n):
    return {"builder": "unitary", "n": n}


def gsp(dim):
    return {"builder": "gsp", "dim": dim}


def simple(series, rank, isogeny="simply_connected"):
    return {"builder": "simple", "series": series, "rank": rank,
            "isogeny": isogeny}


def product(*factors):
    return {"builder": "product", "factors": list(factors)}


def weil(copies, inner):
    return {"builder": "weil_restriction", "copies": copies, "inner": inner}


def num_nodes(group: dict) -> int:
    """Number of simple roots of a builder description."""
    kind = group["builder"]
    if kind in ("gl", "unitary"):
        return group["n"] - 1
    if kind == "gsp":
        return group["dim"] // 2
    if kind == "simple":
        return group["rank"]
    if kind == "product":
        return sum(num_nodes(f) for f in group["factors"])
    if kind == "weil_restriction":
        return group["copies"] * num_nodes(group["inner"])
    raise ValueError("unknown builder %r" % (kind,))


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _doc(doc_id, command, body, q, group, fmt="json"):
    """A valid document: body carries parabolic_type or cocharacter."""
    text = _key(dict(body, q=q, group=group))
    argv = ("--format", "text") if fmt == "text" else ()
    return Doc(id=doc_id, command=command, text=text, argv=argv,
               expect=VALID, nodes=num_nodes(group),
               datum=_key({"group": group, "q": q}))


def _subsets(n: int) -> list:
    return [list(c) for k in range(n + 1)
            for c in itertools.combinations(range(1, n + 1), k)]


class _SubsetPool:
    """Parabolic types of one group, each drawn once before any repeats."""

    def __init__(self, rng: random.Random):
        self._rng = rng
        self._left = {}

    def draw(self, group: dict) -> list:
        left = self._left.get(_key(group))
        if not left:
            left = _subsets(num_nodes(group))
            self._rng.shuffle(left)
            self._left[_key(group)] = left
        return left.pop()


_ISOGENIES = ("simply_connected", "adjoint")


def _resolve(entry, k: int) -> dict:
    """A (series, rank) pair becomes a split simple group of isogeny k % 2."""
    if isinstance(entry, tuple):
        return simple(entry[0], entry[1], _ISOGENIES[k % 2])
    return entry


def _round(workload, r, rng, slots, fmts=None) -> list:
    """Documents of one round from (command, body, q, group) slots, shuffled."""
    order = list(range(len(slots)))
    rng.shuffle(order)
    return [_doc("%s-%d-%d" % (workload, r, k), *slots[i],
                 fmt=fmts[i] if fmts else "json")
            for k, i in enumerate(order)]


# --------------------------------------------------------------------------
# census: orbit census of small and mid-rank data (|W| <= 5040)

# Per round: four documents for each group with |W| <= 120, two (one
# `orbits`, one `all`) for each group with 192 <= |W| <= 1920, each with its
# own J.  A (series, rank) pair is split evenly between the isogeny types.
_CENSUS_TINY = (
    [gl(n) for n in (2, 3, 4, 5)] + [unitary(n) for n in (2, 3, 4, 5)]
    + [gsp(4), gsp(6)]
    + [("A", r) for r in (1, 2, 3, 4)] + [("B", 2), ("B", 3), ("C", 2),
                                          ("C", 3), ("G", 2)]
    + [weil(2, gl(2)), weil(3, gl(2)), weil(2, gl(3))]
)
_CENSUS_MID = (
    [gl(6), unitary(6), gsp(8), weil(3, gl(3))]
    + [("A", 5), ("B", 4), ("C", 4), ("D", 4), ("D", 5), ("F", 4)]
)
_CENSUS_PRODUCTS = (
    product(gl(2), simple("G", 2)), product(unitary(3), simple("B", 2, "adjoint")),
    product(gsp(4), simple("A", 2)), product(gl(3), gl(2)),
)
# |W| = 5040 with J empty (the full census of 5040 orbits: the largest output
# and, by design, the peak memory of every run) and |W| = 3840.  Each takes
# seconds and its time varies by tens of percent from one run to the next on
# a shared machine, so they run once per run, in the first round, and the
# many shorter documents of the later rounds set the run's figures.
_CENSUS_HEAVY = ((gl(7), []), (simple("B", 5), [2, 4]))
_CENSUS_COMMANDS = ("orbits", "all")


def _census_rounds(rng: random.Random) -> Iterator[list]:
    # J of the tiny groups comes from the seed.  The groups with |W| >= 192
    # make nearly all of the time; their J follows one schedule for every
    # seed, so that seeds differ in q and order there, not in cost.
    tiny = _SubsetPool(rng)
    scheduled = _SubsetPool(random.Random("census"))
    for r in itertools.count():
        slots = []
        for entry in _CENSUS_TINY:
            for k in range(4):
                g = _resolve(entry, k // 2)
                slots.append((_CENSUS_COMMANDS[k % 2],
                              {"parabolic_type": tiny.draw(g)},
                              rng.choice(SMALL_Q), g))
        for k, g in enumerate(_CENSUS_PRODUCTS):
            slots.append((_CENSUS_COMMANDS[(k + r) % 2],
                          {"parabolic_type": tiny.draw(g)},
                          rng.choice(SMALL_Q), g))
        for entry in _CENSUS_MID:
            for k, command in enumerate(_CENSUS_COMMANDS):
                g = _resolve(entry, k)
                slots.append((command, {"parabolic_type": scheduled.draw(g)},
                              rng.choice(SMALL_Q), g))
        if r == 0:
            for k, (g, J) in enumerate(_CENSUS_HEAVY):
                slots.append((_CENSUS_COMMANDS[k], {"parabolic_type": J},
                              rng.choice(SMALL_Q), g))
        yield _round("census", r, rng, slots)


# --------------------------------------------------------------------------
# high_rank: Hasse numbers, positivity and Picard data at rank 8-24

# The six largest (GL16, GL17, U(16), U(17), GSp28, GSp30) cost about the
# same, so that the 90th percentile falls among them and not on the edge
# between them and the rest.
_HIGH_RANK_GROUPS = (
    [gl(n) for n in (8, 12, 16, 17)] + [unitary(n) for n in (9, 13, 16, 17)]
    + [gsp(dim) for dim in (16, 22, 28, 30)]
    + [(s, r) for s in "ABCD" for r in (8, 10, 13)]
    + [weil(c, gl(1)) for c in (4, 8, 12, 16, 20)]
    + [weil(c, gl(2)) for c in (4, 6, 8, 10, 12)]
    + [weil(c, gl(3)) for c in (4, 6, 8)]
    + [weil(c, simple("A", 1)) for c in (4, 8, 12, 16, 20)]
    + [weil(c, gsp(4)) for c in (4, 6, 8)]
)
_HIGH_RANK_COMMANDS = ("hasse", "positivity", "picard")


def _high_rank_rounds(rng: random.Random) -> Iterator[list]:
    # Commands and isogeny types rotate with the round, so every three
    # rounds run each group with each command.  J, which sets the cost of
    # the zeta solves and of the positivity certificates, follows one
    # schedule for every seed; the seed draws q and the order.
    scheduled = random.Random("high_rank")
    for r in itertools.count():
        slots = []
        for k, entry in enumerate(_HIGH_RANK_GROUPS):
            g = _resolve(entry, k + r)
            n = num_nodes(g)
            J = sorted(scheduled.sample(range(1, n + 1),
                                        scheduled.randint(0, n)))
            slots.append((_HIGH_RANK_COMMANDS[(k + r) % 3],
                          {"parabolic_type": J}, rng.choice(SMALL_Q), g))
        yield _round("high_rank", r, rng, slots)


# --------------------------------------------------------------------------
# sweep: every J of a fixed list of groups, all five commands

_SWEEP_GROUPS = (
    simple("F", 4), unitary(6), gsp(8), simple("D", 4, "adjoint"), gl(5),
    weil(3, gl(2)), weil(2, gl(3)),
)
_SWEEP_COMMANDS = ("hasse", "orbits", "positivity", "picard", "all")

# Malformed or invalid input: each must exit 2 with nothing on stdout.
_BAD_INPUTS = (
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [1]',
    '[1, 2, 3]',
    '{"q": 6, "group": {"builder": "gl", "n": 3}, "parabolic_type": [1]}',
    '{"q": 3, "group": {"builder": "spin", "n": 3}, "parabolic_type": []}',
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [9]}',
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [0]}',
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [1],'
    ' "cocharacter": [1, 0, 0]}',
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "cocharacter": [0, 1, 2]}',
    '{"q": 3, "group": {"builder": "simple", "series": "F", "rank": 5},'
    ' "parabolic_type": []}',
    '{"q": 3, "group": {"builder": "gl", "n": 3}, "parabolic_type": [1],'
    ' "options": {"format": "yaml"}}',
)


def _sweep_rounds(rng: random.Random) -> Iterator[list]:
    # J follows one order for every seed, so that runs of the same number of
    # rounds do the same work; the seed draws q, the extra documents and the
    # order of each round.
    qs = {_key(g): rng.choice(SMALL_Q) for g in _SWEEP_GROUPS}
    scheduled = _SubsetPool(random.Random("sweep"))
    for r in itertools.count():
        slots, fmts = [], []
        for k, g in enumerate(_SWEEP_GROUPS):
            J = scheduled.draw(g)
            for c, command in enumerate(_SWEEP_COMMANDS):
                slots.append((command, {"parabolic_type": J}, qs[_key(g)], g))
                fmts.append(("json", "text")[(k + c + r) % 2])
        # A cocharacter pairs >= 0 with every simple root of GL_n and U(n)
        # exactly when its entries do not increase.
        for k, g in enumerate((gl(5), unitary(6))):
            chi = sorted((rng.randint(-2, 3) for _ in range(g["n"])),
                         reverse=True)
            slots.append((_SWEEP_COMMANDS[(2 * k + r) % 5],
                          {"cocharacter": chi}, qs[_key(g)], g))
            fmts.append(("json", "text")[(k + r) % 2])
        # E7 and E8 are refused by the default Weyl cap: exit 3.
        slots.append(("orbits", {"parabolic_type": [rng.randint(1, 7)]}, 2,
                      simple("E", rng.choice((7, 8)), rng.choice(_ISOGENIES))))
        fmts.append("json")
        out = _round("sweep", r, rng, slots, fmts)
        for k in range(2):
            out.append(Doc(id="sweep-%d-bad%d" % (r, k),
                           command=rng.choice(_SWEEP_COMMANDS),
                           text=rng.choice(_BAD_INPUTS), argv=(),
                           expect=INVALID, nodes=None, datum=None))
        yield out


_ROUNDS = {"census": _census_rounds, "high_rank": _high_rank_rounds,
           "sweep": _sweep_rounds}


def rounds(workload: str, seed: int) -> Iterator[list]:
    """Endless rounds of documents; the same (workload, seed) gives the same."""
    return _ROUNDS[workload](random.Random("%s:%d" % (workload, seed)))
