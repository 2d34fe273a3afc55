"""Finite Weyl group engine; pipelines use only classical_order, tests the rest.

Elements are stored as integer matrices acting on the character lattice, so
equality is matrix equality and never depends on word choices.  Enumeration
is a breadth-first closure of the simple reflections; the BFS layer is the
length and the first word found is kept (lexicographically smallest reduced
word of that length).
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .exact_linear import IntMatrix, SelfCheckError
from .root_datum import RootDatum, _degrees, reflection_matrix


class WeylGroupTooLargeError(ValueError):
    """Expected order exceeds the enumeration cap."""

    def __init__(self, expected, cap):
        super().__init__(
            "Weyl group of order %d exceeds the cap %d" % (expected, cap))
        self.expected = expected
        self.cap = cap


DEFAULT_CAP = 1_000_000


def classical_order(rd: RootDatum) -> int:
    """|W|, the product of the degrees of the Weyl group of every component."""
    return prod(_degrees(rd.components))


class WeylElement(NamedTuple):
    matrix: IntMatrix
    word: tuple
    length: int


class WeylGroup(NamedTuple):
    rd: RootDatum
    generators: tuple
    elements: tuple
    index: dict
    w0_index: int

    def __len__(self) -> int:
        # |W|: so _make and _replace, which check len, refuse; build with the class
        return len(self.elements)


class CosetReps(NamedTuple):
    """Minimal-length representatives of the cosets W_J \\ W.

    reps holds (element index, length) pairs sorted by length then by the
    stored reduced word; every representative w satisfies l(s w) > l(w) for
    all s in J.
    """

    J: frozenset
    reps: tuple


def enumerate_weyl(rd: RootDatum, cap: int = DEFAULT_CAP) -> WeylGroup:
    expected = classical_order(rd)
    if expected > cap:
        raise WeylGroupTooLargeError(expected, cap)
    gens = tuple(reflection_matrix(rd, i) for i in range(rd.num_nodes))
    ident = IntMatrix.identity(rd.rank)
    elements = [WeylElement(ident, (), 0)]
    index = {ident: 0}
    frontier = [0]
    # stop past the expected order, so a wrong generator cannot run on
    while frontier and len(elements) <= expected:
        nxt = []
        for idx in frontier:
            el = elements[idx]
            for i, s in enumerate(gens):
                mat = el.matrix * s  # w . s_i
                if mat not in index:
                    index[mat] = len(elements)
                    elements.append(WeylElement(mat, el.word + (i,), el.length + 1))
                    nxt.append(index[mat])
        frontier = nxt
    if len(elements) != expected:
        raise SelfCheckError("enumeration disagrees with the order formula")
    top = max(el.length for el in elements)
    longest = [i for i, el in enumerate(elements) if el.length == top]
    if len(longest) != 1:
        raise SelfCheckError("longest element is not unique")
    return WeylGroup(rd=rd, generators=gens, elements=tuple(elements),
                     index=index, w0_index=longest[0])


def subgroup_indices(W: WeylGroup, J) -> list:
    """Indices of the elements of the standard parabolic subgroup W_J.

    Membership test: every reduced word of an element of W_J uses only
    letters from J, and the stored word is reduced.
    """
    J = frozenset(J)
    return [i for i, el in enumerate(W.elements) if set(el.word) <= J]


def longest_element(W: WeylGroup, J) -> int:
    """Index of the longest element of W_J (w0 itself for J = I)."""
    members = subgroup_indices(W, J)
    best = max(members, key=lambda i: W.elements[i].length)
    ties = [i for i in members
            if W.elements[i].length == W.elements[best].length]
    if len(ties) != 1:
        raise SelfCheckError("longest element of W_J is not unique")
    return best


def min_coset_reps(W: WeylGroup, J) -> CosetReps:
    """Minimal-length representatives of the left quotient W_J \\ W."""
    J = frozenset(J)
    reps = []
    for idx, el in enumerate(W.elements):
        minimal = True
        for j in J:
            prod = W.generators[j] * el.matrix  # s_j . w
            if W.elements[W.index[prod]].length < el.length:
                minimal = False
                break
        if minimal:
            reps.append(idx)
    reps.sort(key=lambda i: (W.elements[i].length, W.elements[i].word))
    order_j = len(subgroup_indices(W, J))
    if len(reps) * order_j != len(W.elements):
        raise SelfCheckError("coset representatives times |W_J| is not |W|")
    return CosetReps(J=J, reps=tuple((i, W.elements[i].length) for i in reps))
