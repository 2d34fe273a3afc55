"""Ampleness predicates and positivity certificates for zip data.

A character of a parabolic containing the lower Borel is ample exactly when
it pairs strictly negatively with the coroots of the simple roots outside
the Levi (strictly positively for a parabolic containing the upper Borel).
The certificates below check the computable positivity statements: the
inverse of the twist endomorphism sends ample characters to antiample ones,
and the divisor coefficients of an ample character at Borel level are
negative.  Every verdict is one sign rule (_verdict) on the coroot pairings
of one vector.  For products of Weil restrictions the pullbacks of an ample
character to the copies stay ample whenever the rule of weil_pullback_check
applies, so that rule is the whole certificate; the tests prove it in X*.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Sequence

from .exact_linear import IntMatrix, SelfCheckError, SingularMatrixError
from .root_datum import _dense
from .zip_core import (
    CENTRAL,
    MINUSCULE,
    NEITHER,
    SMALL_NOT_MINUSCULE,
    ZipDatum,
    classify_cocharacter,
    zeta_matrix,  # noqa: F401  re-exported; perfbench traces it here
)


class PreconditionViolatedError(ValueError):
    """Input fails a documented precondition of the certificate."""


class NotRationalCaseError(ValueError):
    """Divisor coefficients need Frobenius-stable parabolics (or J empty)."""


class NotWeilRestrictionError(ValueError):
    """The pullback certificate does not apply: a tau-cycle of simple roots
    meets one Dynkin component twice, or a component misses two nodes of J."""


AMPLE = "ample"
ANTIAMPLE = "antiample"
NOT_IN_LATTICE = "not_in_lattice"

CERTIFIED_NEGATIVE = "certified_negative"
MIXED = "mixed"
NOT_APPLICABLE = "not_applicable"


class PositivityReport(NamedTuple):
    zeta_inverse_image: tuple
    antiample_certified: bool
    borel_coefficients: tuple  # indexed by the simple roots
    negative_count: int
    verdict: str


def _frac(vec: Sequence) -> tuple:
    return tuple(Fraction(x) for x in vec)


def _verdict(pairings: Sequence, J, ample_sign: int = -1) -> str:
    """The one sign rule, read from the coroot pairings of a character.

    not_in_lattice when some pairing on J is nonzero; ample when every
    pairing outside J has the sign ample_sign (vacuously so when J holds
    every node), antiample when every one has the opposite sign.
    """
    if any(pairings[j] for j in J):
        return NOT_IN_LATTICE
    outside = [p for i, p in enumerate(pairings) if i not in J]
    if not outside:
        return AMPLE
    if all(p < 0 for p in outside):
        return AMPLE if ample_sign < 0 else ANTIAMPLE
    if all(p > 0 for p in outside):
        return ANTIAMPLE if ample_sign < 0 else AMPLE
    return NEITHER


def borel_zeta_matrix(zd: ZipDatum) -> IntMatrix:
    """The twist endomorphism id - q*tau on all of X*."""
    n = zd.rd.rank
    tau = _dense([((j, s),) for j, s in zip(zd.frob.src, zd.frob.sign)], n)
    return IntMatrix.identity(n) - tau.scale(zd.frob.q)


def _cycle(perm: Sequence, start: int) -> list:
    """start, perm[start], perm[perm[start]], ... up to the return to start."""
    cycle = [start]
    while perm[cycle[-1]] != start:
        cycle.append(perm[cycle[-1]])
    return cycle


def _borel_zeta_inverse_image(zd: ZipDatum, lam: Sequence) -> tuple:
    """zeta^-1(lam) on X*, with zeta = id - q*tau, one signed cycle at a time.

    zeta(x) = lam reads x_i - q*sign_i*x_{src_i} = lam_i.  Along a cycle
    i_0, i_1 = src[i_0], ... of length c whose signs multiply to eps, one
    pass of Horner's rule gives (1 - eps*q^c) x_{i_0}, and the equations
    taken backwards round the cycle give the other entries over the same
    denominator, so the integers stay of size q^c.  Raises
    SingularMatrixError when eps*q^c = 1 on some cycle, which no prime
    power q allows.
    """
    q, src = zd.frob.q, zd.frob.src
    qsign = [q * s for s in zd.frob.sign]
    scale = lcm(*(x.denominator for x in lam))
    base = [x.numerator * (scale // x.denominator) for x in lam]
    image = [None] * len(base)
    for start in range(len(base)):
        if image[start] is not None:
            continue
        cycle = _cycle(src, start)
        acc = 0
        for i in reversed(cycle):
            acc = base[i] + qsign[i] * acc
        denom = 1 - prod(qsign[i] for i in cycle)
        if denom == 0:
            raise SingularMatrixError("eps*q^c = 1 on a signed c-cycle of tau, "
                                      "so 1 - q*tau has no inverse")
        image[start] = Fraction(acc, denom * scale)
        for i in reversed(cycle[1:]):
            acc = base[i] * denom + qsign[i] * acc
            image[i] = Fraction(acc, denom * scale)
    return tuple(image)


def fundamental_zeta_matrix(zd: ZipDatum) -> IntMatrix:
    """Twist endomorphism on X*/X*(G) in the fundamental-weight basis.

    Entry (i, j) is <alpha_i^vee, zeta(omega_j)> = delta_ij - q*[i = pi(j)],
    an integer matrix of size |I|; for a Weil restriction of rank-one blocks
    this is the circulant with 1 on the diagonal and -q on the shifted
    diagonal.
    """
    k = zd.rd.num_nodes
    q = zd.frob.q
    perm = zd.frob.root_perm
    return IntMatrix(k, k, [
        (1 if i == j else 0) - (q if i == perm[j] else 0)
        for i in range(k) for j in range(k)
    ])


def antiample_check(zd: ZipDatum, lam: Sequence) -> bool:
    """Certify that the twist-inverse of an ample character is antiample.

    Requires an ample character of the parabolic of type J and a datum in a
    covered case: Frobenius-stable parabolics, or one built from a small (in
    particular minuscule) cocharacter.
    """
    rd = zd.rd
    lam = _frac(lam)
    if _verdict(rd.coroot_pairings(lam), zd.J) != AMPLE:
        raise PreconditionViolatedError("an ample character of P is required")
    # J0 is the largest Frobenius-stable subset of J
    rational = zd.J0 == zd.J
    if not rational:
        if zd.cochar is None or classify_cocharacter(rd, zd.cochar) not in (
                CENTRAL, MINUSCULE, SMALL_NOT_MINUSCULE):
            raise PreconditionViolatedError(
                "need Frobenius-stable parabolics or a small cocharacter")
    # mu and twisted are the coroot pairings of zeta^-1(lam) and q*tau(lam)
    mu = rd.coroot_pairings(_borel_zeta_inverse_image(zd, lam))
    certified = _verdict(mu, zd.J, +1) == AMPLE
    if rational:
        # Frobenius composition preserves ampleness when J is stable
        twisted = rd.coroot_pairings([zd.frob.q * s * lam[j]
                                      for s, j in zip(zd.frob.sign, zd.frob.src)])
        if _verdict(twisted, zd.J) != AMPLE:
            raise SelfCheckError("Frobenius twist of an ample character is not ample")
    return certified


def hasse_divisor_coeffs(zd: ZipDatum, lam: Sequence) -> PositivityReport:
    """Borel-level divisor coefficients of a character of P.

    The coefficient at a simple root alpha is <alpha^vee, -zeta^{-1}(lam)>
    on the full character lattice.  Verdict certified_negative means: all
    coefficients strictly negative for a Borel datum (J empty), and all
    coefficients <= 0 with exactly |I \\ J| strict ones for a parabolic datum
    with Frobenius-stable J.
    """
    rd = zd.rd
    if zd.J0 != zd.J:
        raise NotRationalCaseError(
            "J is not Frobenius-stable; use weil_pullback_check for "
            "Weil-restriction data")
    lam = _frac(lam)
    member = _verdict(rd.coroot_pairings(lam), zd.J) != NOT_IN_LATTICE
    mu = _borel_zeta_inverse_image(zd, lam)
    mu_pairings = rd.coroot_pairings(mu)
    coeffs = tuple(-p for p in mu_pairings)
    negative = sum(1 for c in coeffs if c < 0)
    if not member:
        verdict = NOT_APPLICABLE
    else:
        outside = rd.num_nodes - len(zd.J)
        certified = all(c <= 0 for c in coeffs) and negative == outside
        verdict = CERTIFIED_NEGATIVE if certified else MIXED
    antiample = member and _verdict(mu_pairings, zd.J, +1) == AMPLE
    return PositivityReport(
        zeta_inverse_image=mu,
        antiample_certified=antiample,
        borel_coefficients=coeffs,
        negative_count=negative,
        verdict=verdict,
    )


def weil_pullback_check(zd: ZipDatum, lam: Sequence) -> bool:
    """Pullback certificate for products of Weil restrictions of split groups.

    Read off tau, not off how the group was written: an orbit of c Dynkin
    components is Res_c of a split simple group exactly when perm^c fixes
    its nodes, that is when every perm-cycle in it meets c distinct
    components, one node per copy.  The datum qualifies when every cycle
    does and each component misses at most one node of J (a maximal or
    full parabolic in each copy); otherwise NotWeilRestrictionError.

    The rule reads only root_perm and components, so Res_c (G x H) and
    Res_c G x Res_c H get one answer and the maximal rule is per component.
    Once it holds, the certificate holds: each node n outside J adds
    a_n q^d tau^d(omega_n) to the pullback to the copy of its d-th cycle
    node, with a_n = <alpha_n^vee, lam> < 0 for an ample lam, so every
    pairing of a pullback with its copy's coroots outside J is a sum of
    terms a_n q^d < 0.  The answer is True for every ample lam; anything
    else raises PreconditionViolatedError.
    """
    rd, perm = zd.rd, zd.frob.root_perm
    component = {node: c for c, comp in enumerate(rd.components) for node in comp.nodes}
    for node in range(rd.num_nodes):
        met = [component[i] for i in _cycle(perm, node)]
        if len(set(met)) < len(met):
            raise NotWeilRestrictionError(
                "the cycle of node %d meets one component twice" % (node,))

    # one missing node per maximal component, none for full ones
    for c, comp in enumerate(rd.components):
        if len(set(comp.nodes) - zd.J) > 1:
            raise NotWeilRestrictionError(
                "component %d is neither maximal nor the full group" % (c,))

    if _verdict(rd.coroot_pairings(_frac(lam)), zd.J) != AMPLE:
        raise PreconditionViolatedError("an ample character of P is required")
    return True
