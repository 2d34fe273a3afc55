"""Zip data and their Hasse invariants.

A zip datum is a root datum with Frobenius structure plus the type J of a
parabolic containing the lower Borel.  From it we derive: the type K of the
opposite-twisted parabolic, the type J0 of the largest Frobenius-stable Levi
L0, the endomorphism chi -> chi - q*tau(chi) of the character lattice of L0
(whose cokernel is the character group of the finite stabilizer when the
Picard group of L0 vanishes), the Hasse number (exponent of that cokernel),
the orbit census over the minimal coset representatives, and the rank of the
equivariant Picard group.
"""

from __future__ import annotations

from itertools import chain, compress
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence

from .exact_linear import (IntMatrix, SelfCheckError, SmithDecomposition,
                           _check_int, invariant_factors)
from .root_datum import (
    FrobeniusStructure,
    RootDatum,
    _coroot_smith,
    _cycles,
    _degrees,
    _forest_solve,
    _types,
    _walk,
    classical_order,
    opp_type,
    opposition,
)
from .weyl import min_coset_reps  # noqa: F401  re-exported; perfbench traces it here


class NonNormalizedCocharacterError(ValueError):
    """Cocharacter must pair >= 0 with every simple root."""


class CensusCheckError(SelfCheckError):
    """An orbit census self-check failed."""


class PicObstructionError(Exception):
    """Derived group of L0 is not simply connected.

    The cokernel of the twist endomorphism is still computed and attached as
    ``report`` (with pic_L0_trivial False), but it may differ from the true
    character group of the stabilizer.
    """

    def __init__(self, report, torsion):
        super().__init__(
            "derived group of L0 is not simply connected "
            "(Picard torsion %s); cokernel may differ from the stabilizer "
            "character group" % (list(torsion),))
        self.report = report
        self.torsion = torsion


CENTRAL = "central"
MINUSCULE = "minuscule"
SMALL_NOT_MINUSCULE = "small_not_minuscule"
NEITHER = "neither"


class ZipDatum(NamedTuple):
    rd: RootDatum
    frob: FrobeniusStructure
    J: frozenset
    K: frozenset
    J0: frozenset
    cochar: Optional[tuple]


class HasseReport(NamedTuple):
    zeta: IntMatrix
    det_zeta: int
    invariant_factors: tuple
    s0_order: int
    hasse_number: int
    pic_L0_trivial: bool


class OrbitEntry(NamedTuple):
    word: tuple
    length: int
    dim: int
    codim: int


class OrbitCensus(NamedTuple):
    """The orbits as the breadth-first tree of their words, plus columns.

    Orbit n (0-based) has the word words[n] = words[parents[n]] + (letters[n],);
    orbit 0 is the empty word, with parent and letter -1.  So parents[n] < n
    and lengths[n] = lengths[parents[n]] + 1, and an orbit's word is never
    stored: ``words`` and ``orbits`` rebuild the words on each read.  Nor
    are its dimension dim_parabolic + lengths[n] and codimension
    eta_length - lengths[n]: ``orbits`` and the CLI compute them.
    """

    parents: tuple
    letters: tuple
    lengths: tuple
    eta_length: int
    dim_group: int
    dim_parabolic: int
    codim1_indices: tuple  # pairs (node in I \ J, orbit position)

    @property
    def words(self) -> tuple:
        """The word of each orbit, letters 0-based, built from the tree."""
        words = [()]
        for parent, letter in zip(self.parents[1:], self.letters[1:]):
            words.append(words[parent] + (letter,))
        return tuple(words)

    @property
    def orbits(self) -> tuple:
        """One OrbitEntry per orbit, built from the words and lengths on each read."""
        dim_p, eta_length = self.dim_parabolic, self.eta_length
        return tuple([OrbitEntry(word, n, dim_p + n, eta_length - n)
                      for word, n in zip(self.words, self.lengths)])


def build_zip_datum(rd: RootDatum, frob: FrobeniusStructure, *,
                    cocharacter: Optional[Sequence] = None,
                    parabolic: Optional[Iterable] = None) -> ZipDatum:
    """Zip datum from either a normalized cocharacter or a parabolic type J.

    A cocharacter must pair >= 0 with every simple root; J is then its
    vanishing set, so the parabolic attached to it contains the lower Borel.
    A non-int cocharacter entry or node, a bool too, raises TypeError.
    """
    if (cocharacter is None) == (parabolic is None):
        raise ValueError("need exactly one of cocharacter or parabolic")
    if cocharacter is not None:
        chi = tuple(map(_check_int, cocharacter))
        if len(chi) != rd.rank:
            raise ValueError("cocharacter length does not match the rank")
        pairings = rd.root_pairings(chi)
        if any(p < 0 for p in pairings):
            raise NonNormalizedCocharacterError(
                "cocharacter pairings with the simple roots must all be >= 0, "
                "got %s" % (list(pairings),))
        J = frozenset(i for i, p in enumerate(pairings) if p == 0)
        cochar = chi
    else:
        J = frozenset(map(_check_int, parabolic))
        for j in J:
            if not 0 <= j < rd.num_nodes:
                raise ValueError("node %r out of range" % (j,))
        cochar = None

    perm = frob.root_perm
    K = opp_type(rd, frozenset(perm[j] for j in J))
    # J0 is the largest perm-stable subset of J: the perm-cycles inside J
    J0 = frozenset([i for cycle in _cycles(perm) if J.issuperset(cycle) for i in cycle])
    return ZipDatum(rd=rd, frob=frob, J=J, K=K, J0=J0, cochar=cochar)


def classify_cocharacter(rd: RootDatum, chi: Sequence) -> str:
    """central / minuscule / small_not_minuscule / neither.

    Central means every simple-root pairing is 0.  Minuscule means every
    root pairing lies in {-1, 0, 1}; the Weyl group permutes the roots, so
    that holds for chi when it holds for its dominant conjugate chi+, and
    chi+ pairs with the positive roots of a component between 0 and its
    pairing with the highest root theta there.  theta is the dominant root
    in the orbit of a long simple root: a walk gives its coroot pairings
    A c, and the forest solve its coefficients c over one denominator, so
    the comparison with 1 is one of integers.
    Small means that in every simple component the dominant conjugate pairs
    positively with at most one simple root, with value 1.
    A non-int entry of chi, a bool too, raises TypeError.
    """
    chi = tuple(map(_check_int, chi))
    if len(chi) != rd.rank:
        raise ValueError("cocharacter length does not match the rank")
    pairings = rd.root_pairings(chi)
    if not any(pairings):
        return CENTRAL
    n_pos = rd._opposition[1]
    rows, columns = rd._cartan_entries
    dominant, _ = _walk(pairings, rows, n_pos)
    longs = [0] * rd.num_nodes
    for comp in rd.components:
        # a long node is the long end of a multiple bond: its column holds
        # an entry <alpha_j^vee, alpha_i> <= -2; without one, all are long
        long = next((i for i in comp.nodes if any(c < -1 for _, c in columns[i])),
                    comp.nodes[0])
        for j, c in columns[long]:
            longs[j] = c
    # the components are orthogonal, so one walk takes the sum of their long
    # roots to the sum of their thetas, and one solve gives its coefficients
    thetas, _ = _walk(longs, columns, n_pos)
    nums, denom = _forest_solve(rows, thetas)
    if all(sum([nums[i] * dominant[i] for i in comp.nodes]) <= denom
           for comp in rd.components):
        return MINUSCULE
    for comp in rd.components:
        positives = [dominant[i] for i in comp.nodes if dominant[i] > 0]
        if len(positives) > 1 or (positives and positives[0] != 1):
            return NEITHER
    return SMALL_NOT_MINUSCULE


def zeta_matrix(zd: ZipDatum, snf: Optional[SmithDecomposition] = None) -> IntMatrix:
    """Matrix of chi -> chi - q*tau(chi) on the basis of X*(L0) in columns
    r.. of V, for snf = _coroot_smith(rd, J0), passed or made here.

    The lattice is tau-stable because the root permutation fixes J0, so the
    restriction has integer entries: the coordinates of an image y are
    entries r.. of V^-1 y, and its entries 0..r-1 vanish.

    The work follows the nonzeros: tau acts as the signed permutation it
    is, and V^-1 y is summed as y_j times column j of V^-1 over the
    nonzero y_j, each column kept as its nonzero entries.  The columns of V
    and V^-1 are read as strided slices of their row-major entries, and the
    image coordinates, the columns of zeta, are zipped into its rows.
    """
    if snf is None:
        snf = _coroot_smith(zd.rd, zd.J0)
    r = len(snf.invariant_factors)
    n = zd.rd.rank
    q = zd.frob.q
    src, sign = zd.frob.src, zd.frob.sign
    qsign = [q * s for s in sign]
    basis, back = snf.V.entries, snf.V_inv.entries
    inverse = [[(i, col[i]) for i in compress(range(n), col)]
               for col in (back[j::n] for j in range(n))]
    columns = []
    for vec in (basis[j::n] for j in range(r, n)):
        y = [x - c * vec[j] for x, c, j in zip(vec, qsign, src)]
        coords = [0] * n
        for j in compress(range(n), y):
            yj = y[j]
            for i, v in inverse[j]:
                coords[i] += yj * v
        if any(coords[:r]):
            raise SelfCheckError("twist endomorphism does not preserve the lattice")
        columns.append(coords[r:])
    k = n - r
    return IntMatrix(k, k, chain.from_iterable(zip(*columns)))


def s0_characters(zd: ZipDatum) -> HasseReport:
    """Invariant factors of the twist endomorphism on X*(L0).

    When the derived group of L0 is simply connected the cokernel is the
    character group of the finite stabilizer; otherwise PicObstructionError
    is raised, carrying the same report flagged as unreliable.  One Smith
    form of the J0 coroots, _coroot_smith, serves the lattice and the torsion.
    Only the invariant factors of zeta are read, so no transform of it is
    built.  They must multiply to |det zeta|, which tau gives apart from zeta
    (Carter 1985): det(1 - q tau) on X*, one 1 - eps*q^c per signed c-cycle,
    over det(1 - q tau) on X*/X*(L0), dual to the J0 coroots tau permutes.
    """
    levi = _coroot_smith(zd.rd, zd.J0)
    zeta = zeta_matrix(zd, levi)
    q, sign = zd.frob.q, zd.frob.sign
    whole = prod([1 - prod([q * sign[i] for i in c]) for c in _cycles(zd.frob.src)])
    if whole == 0:
        raise SelfCheckError("twist endomorphism must be injective")
    det, rest = divmod(whole, prod([1 - q ** len(c) for c in _cycles(zd.frob.root_perm)
                                    if zd.J0.issuperset(c)]))
    factors = invariant_factors(zeta)
    order = abs(det)
    if rest or order != prod(factors):
        raise SelfCheckError("invariant factors must multiply to |det|")
    torsion = tuple(f for f in levi.invariant_factors if f > 1)
    report = HasseReport(
        zeta=zeta,
        det_zeta=det,
        invariant_factors=factors,
        s0_order=order,
        hasse_number=factors[-1] if factors else 1,
        pic_L0_trivial=not torsion,
    )
    if torsion:
        raise PicObstructionError(report, torsion)
    return report


def hasse_number(zd: ZipDatum) -> int:
    """Exponent of the stabilizer character group (largest invariant factor)."""
    return s0_characters(zd).hasse_number


def orbit_census(zd: ZipDatum) -> OrbitCensus:
    """One orbit per minimal coset representative.

    An orbit labeled by a representative w has dimension l(w) + dim P and
    codimension l(eta) - l(w), where eta is the longest representative.  The
    codimension-one orbits correspond to the nodes outside J: the node s maps
    to the representative eta * s' with s' the opposition image of s.

    No Weyl group is built (Casselman, Invent. Math. 116, 1994): w is the
    point w^-1 lambda in coroot pairings, lambda pairing to 0 on J and to 1
    off J, and the letter i lengthens w iff the point pairs positively with
    i.  Prefixes of minimal representatives are minimal (Bjorner-Brenti
    2.4-2.5), so a breadth-first walk with ascending letters meets them in
    (length, word) order, each with its lexicographically least reduced word,
    which is its parent's word plus one letter: the census keeps that tree.
    It holds |W_J \\ W| = |W| / |W_J| points, and |Phi+_J| is the sum of
    d - 1 over the degrees d of J's typed components, whose product is |W_J|.

    A point is packed into one int, coordinate j in the field of ``width``
    bits at bit width * j, stored plus ``bias``.  Every coordinate obeys
    |<w^-1 lambda, alpha_j^vee>| = |<lambda, w alpha_j^vee>| <= |Phi+|:
    w alpha_j^vee is a coroot, lambda pairs 0 or 1 with each simple coroot,
    and the coefficients of a coroot sum to its height, at most |Phi+|.  The
    fields hold bias - |Phi+| >= 0 up to bias + |Phi+| < 2^width, so they
    never carry into each other, and s_i is p - p_i * column_i, column i of
    the Cartan matrix packed the same way with no bias.  With bias
    2^(width-1) - 1 a coordinate is positive iff the top bit of its field
    is set.
    """
    rd = zd.rd
    k = rd.num_nodes
    columns = rd._cartan_entries[1]
    n_pos = rd._opposition[1]
    width = n_pos.bit_length() + 1
    bias = (1 << width - 1) - 1
    mask = (1 << width) - 1
    # per letter i: (i, shift of field i, packed column i, top bit of field i)
    steps = [(i, width * i, sum(c << width * j for j, c in columns[i]),
              1 << width * i + width - 1) for i in range(k)]
    points = [sum(bias + (i not in zd.J) << width * i for i in range(k))]
    parents, letters, lengths = [-1], [-1], [0]
    position = {points[0]: 0}
    # the lists grow while points is scanned, the queue in discovery order;
    # the scan stops at |W_J \ W| of them (range takes any int)
    degrees_j = _degrees(_types(rd._cartan_entries[0], zd.J))
    count = classical_order(rd) // prod(degrees_j)
    for n, p in zip(range(count), points):
        length = lengths[n] + 1
        for i, shift, column, top in steps:
            if p & top:
                image = p - ((p >> shift & mask) - bias) * column
                if image not in position:
                    position[image] = len(points)
                    points.append(image)
                    parents.append(n)
                    letters.append(i)
                    lengths.append(length)
    if len(points) != count:
        raise CensusCheckError("the census holds %d points, not |W_J \\ W| = %d"
                               % (len(points), count))

    n_pos_j = sum(degrees_j) - len(degrees_j)
    dim_p = rd.rank + n_pos + n_pos_j
    dim_g = rd.rank + 2 * n_pos
    eta_length = lengths[-1]
    if eta_length != n_pos - n_pos_j:
        raise CensusCheckError("eta has length %d, not l(w0) - l(w0,J)" % eta_length)
    if lengths.count(eta_length) != 1 or eta_length + dim_p != dim_g:
        raise CensusCheckError("no unique open orbit of dimension dim G")

    eta = points[-1]
    opp = opposition(rd)
    codim1 = []
    for s in sorted(set(range(k)) - zd.J):
        _, shift, column, _ = steps[opp[s]]
        image = eta - ((eta >> shift & mask) - bias) * column
        codim1.append((s, position.get(image, -1)))
    if sorted(pos for _, pos in codim1) != [
            n for n, length in enumerate(lengths) if length == eta_length - 1]:
        raise CensusCheckError("the codimension-one orbits are not labeled by I \\ J")
    return OrbitCensus(parents=tuple(parents), letters=tuple(letters),
                       lengths=tuple(lengths),
                       eta_length=eta_length, dim_group=dim_g,
                       dim_parabolic=dim_p, codim1_indices=tuple(codim1))


def pic_rank(zd: ZipDatum) -> int:
    """Rank of the equivariant Picard group: the number of nodes outside J.

    This is rank X*(P) - rank X*(G); the tests check that identity.
    """
    return zd.rd.num_nodes - len(zd.J)
