"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own reduction routines: the
determinant is cofactor expansion, the invariant factors come from the
gcd-of-k-by-k-minors definition, the orbit census is read off the full
Weyl group enumeration, the Weil pullback is built in X* from
fundamental weights and dense powers of tau, the Frobenius structure
comes from a determinant test and the dense powers of tau, and matrix
products are the textbook triple loop.  dense_group is the builders'
construction as it was before the data kept only their nonzero entries:
rank-length rows, zero-padded blocks and a dense tau, with the Cartan
matrices of the simple groups typed from Bourbaki's plates rather than read
off the library's bond table.  The library keeps
root data only as their nonzero entries and tau only as src and sign, so
DenseDatum is now the only dense form of a datum: dense_datum, dense_tau
and DenseDatum.cartan_matrix make the dense views the tests compare
against, entry by entry, from those entries.  The positive roots come from a
closure on their coefficients alone and the dominant conjugate of a
cocharacter from a walk in X_*, both recomputing every pairing from the
Cartan matrix or the roots at each step.  The fundamental weights and the twist matrix come
from their defining Fraction systems (coroots plus central directions; the
coordinates on a basis of X*(L0)), solved by a Gauss-Jordan of their own.
The dense twist matrix, the Smith form with a full pivot scan and the
first-negative dominance walk are the bodies the library used before it
went sparse, kept to pin that the sparse paths return the same values;
the walk reflects with the dense Cartan matrix read entry by entry.
The cocharacter classification by the list of positive roots is the one
the library used before it read the highest roots off walks, and the
ampleness verdict is its old lattice test and strict sign test, the
polarity flipped by hand.  The length
distribution of the minimal coset representatives is Macdonald's product
over the root heights, and J0 is the full loop of tau-order intersections
that build_zip_datum ran before it stopped at the first stable pass, and
the prime factorisations of small q come from a sieve.  With
J0 empty the invariant factors of the twist are read off the signed cycles
of the dense tau, one Z/(q^c - eps) per cycle, and put in normal form by
gcd/lcm exchanges, with no Smith form.  weil_factor_relabelling matches
the nodes of a Weil restriction of a product with those of the product of
the Weil restrictions by counting, with no datum.  The dense twist
matrices on X* (from the dense tau) and in the fundamental-weight basis
(from the root permutation) are the references that the closed-form
inverse of 1 - q*tau is checked against; transpose, scalar, matmul, apply
and dot are the matrix algebra the tests need beyond IntMatrix's product.
row_data and row_text are the CLI's orbit rows as it made them before it
wrote the census as columns: one dict and one 1-based word list per orbit,
and the text formatter that read them.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from ziphasse.exact_linear import (IntMatrix, SelfCheckError, SmithDecomposition,
                                   kernel_basis)
from ziphasse.positivity import AMPLE, ANTIAMPLE, NOT_IN_LATTICE
from ziphasse.root_datum import (Component, _coroot_smith, char_lattice_of_parabolic,
                                 check_group, fundamental_weights, positive_roots)
from ziphasse.weyl import longest_element, min_coset_reps
from ziphasse.zip_core import (CENTRAL, MINUSCULE, NEITHER, SMALL_NOT_MINUSCULE,
                               OrbitCensus)


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minors_invariant_factors(rows, cols=None):
    """Invariant factors via d_k = gcd of all k x k minors, f_k = d_k/d_{k-1}."""
    m = len(rows)
    n = len(rows[0]) if rows else (cols if cols is not None else 0)
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        dk = 0
        for ri in combinations(range(m), k):
            for ci in combinations(range(n), k):
                minor = [[rows[i][j] for j in ci] for i in ri]
                dk = gcd(dk, cofactor_det(minor))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def matmul(a, b):
    """Row-major entries of a @ b by the triple loop over (i, j, k)."""
    return [sum(a.entries[i * a.cols + k] * b.entries[k * b.cols + j]
                for k in range(a.cols))
            for i in range(a.rows) for j in range(b.cols)]


def dot(a, b):
    """The plain dot product of two vectors."""
    return sum(x * y for x, y in zip(a, b))


def apply(a, vec):
    """a @ vec by the double loop over (i, k)."""
    return tuple(sum(a.entries[i * a.cols + k] * vec[k] for k in range(a.cols))
                 for i in range(a.rows))


def transpose(a):
    """The transpose of a, entry (j, i) read off entry (i, j)."""
    return IntMatrix(a.cols, a.rows, [a.entries[i * a.cols + j]
                                      for j in range(a.cols) for i in range(a.rows)])


def scalar(n, c):
    """c times the n x n identity."""
    return IntMatrix(n, n, [c if i == j else 0 for i in range(n) for j in range(n)])


def power_loop_frobenius(rd, tau):
    """(tau_dual, root_perm, order) of any unimodular tau of finite order on
    the DenseDatum rd.

    |det tau| = 1 by cofactor expansion, the root permutation from dense
    images of the simple roots, the order as the first power of tau that is
    the identity, and tau_dual as the transpose of the power before it,
    tau^(order-1) = tau^-1.
    """
    assert abs(cofactor_det(tau.to_rows())) == 1, "tau is not unimodular"
    roots = {rd.root(i): i for i in range(rd.num_nodes)}
    perm = tuple(roots[apply(tau, rd.root(i))] for i in range(rd.num_nodes))
    n = rd.rank
    ident = IntMatrix.identity(n)
    inverse, power, order = ident, tau, 1
    while power != ident:
        inverse, power = power, IntMatrix(n, n, matmul(power, tau))
        order += 1
        assert order <= 10_000, "tau does not have small finite order"
    tau_dual = transpose(inverse)
    assert all(apply(tau_dual, rd.coroot(i)) == rd.coroot(perm[i])
               for i in range(rd.num_nodes)), "tau dual does not follow perm"
    return tau_dual, perm, order


@dataclass(frozen=True)
class DenseDatum:
    """A root datum with its simple roots and coroots as dense rank-length
    rows, the form the library kept before it stored only the nonzeros."""

    rank: int
    simple_roots: IntMatrix
    simple_coroots: IntMatrix
    components: tuple

    @property
    def num_nodes(self):
        return self.simple_roots.rows

    def root(self, i):
        return self.simple_roots.row(i)

    def coroot(self, i):
        return self.simple_coroots.row(i)

    def cartan_matrix(self):
        """<alpha_i^vee, alpha_j> at (i, j), the dot of a dense coroot row
        and a dense root row."""
        k = self.num_nodes
        return IntMatrix(k, k, [sum(x * y for x, y in zip(self.coroot(i), self.root(j)))
                                for i in range(k) for j in range(k)])


def dense_rows(entries, rank):
    """The matrix with rank columns whose row i holds the nonzero
    (index, value) pairs entries[i] and zeros elsewhere."""
    rows = [[0] * rank for _ in entries]
    for row, pairs in zip(rows, entries):
        for a, x in pairs:
            row[a] = x
    return _rows(rows, rank)


def dense_datum(rd):
    """The DenseDatum of a library RootDatum, its root and coroot entries
    written out as rank-length rows."""
    return DenseDatum(rd.rank, dense_rows(rd.root_entries, rd.rank),
                      dense_rows(rd.coroot_entries, rd.rank), rd.components)


def dense_tau(frob):
    """tau as a dense matrix, read off src and sign: row i holds sign[i] in
    column src[i], so (tau v)_i = sign[i] * v[src[i]]."""
    n = len(frob.src)
    return IntMatrix(n, n, [s if j == a else 0
                            for a, s in zip(frob.src, frob.sign) for j in range(n)])


def _unit(n, *pairs_flat):
    v = [0] * n
    it = iter(pairs_flat)
    for idx in it:
        v[idx] = next(it)
    return tuple(v)


def _rows(rows, rank):
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, rank, ())


def _padded_sum(parts):
    """The data side by side, every row padded with zeros to the full rank,
    and their taus as one block-diagonal matrix."""
    rank = sum(rd.rank for rd, _ in parts)
    roots, coroots, comps, tau = [], [], [], [0] * (rank * rank)
    offset = nodes = 0
    for rd, part_tau in parts:
        left, right = (0,) * offset, (0,) * (rank - offset - rd.rank)
        roots += [left + rd.root(i) + right for i in range(rd.num_nodes)]
        coroots += [left + rd.coroot(i) + right for i in range(rd.num_nodes)]
        comps += [Component(c.series, tuple(nodes + i for i in c.nodes))
                  for c in rd.components]
        for a in range(rd.rank):
            for b in range(rd.rank):
                tau[(offset + a) * rank + offset + b] = part_tau.row(a)[b]
        offset += rd.rank
        nodes += rd.num_nodes
    datum = DenseDatum(rank, _rows(roots, rank), _rows(coroots, rank),
                       tuple(comps))
    return datum, IntMatrix(rank, rank, tau)


# E8, F4 and G2 from Bourbaki, Lie Groups and Lie Algebras, ch. VI, plates
# VII-IX, entry (i, j) = <alpha_i^vee, alpha_j>: node i is the short end of
# a multiple bond when its row holds -2 or -3.  E6 and E7 are the leading
# blocks of E8, as Bourbaki numbers their nodes.
EXCEPTIONAL_CARTAN = {
    "E": ((2, 0, -1, 0, 0, 0, 0, 0),
          (0, 2, 0, -1, 0, 0, 0, 0),
          (-1, 0, 2, -1, 0, 0, 0, 0),
          (0, -1, -1, 2, -1, 0, 0, 0),
          (0, 0, 0, -1, 2, -1, 0, 0),
          (0, 0, 0, 0, -1, 2, -1, 0),
          (0, 0, 0, 0, 0, -1, 2, -1),
          (0, 0, 0, 0, 0, 0, -1, 2)),
    "F": ((2, -1, 0, 0),
          (-1, 2, -1, 0),
          (0, -2, 2, -1),
          (0, 0, -1, 2)),
    "G": ((2, -3),
          (-1, 2)),
}


def bourbaki_cartan(series, n):
    """The Cartan matrix of a series at rank n as dense rows, entry (i, j) =
    <alpha_i^vee, alpha_j>, in Bourbaki's node order (plates I-IX): A_n a
    path; alpha_n short in B_n and long in C_n; alpha_{n-2} bonded to both
    alpha_{n-1} and alpha_n in D_n; the exceptional ones as typed above."""
    if series in EXCEPTIONAL_CARTAN:
        return [list(row[:n]) for row in EXCEPTIONAL_CARTAN[series][:n]]
    a = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
         for i in range(n)]
    if series == "B":
        a[n - 1][n - 2] = -2
    elif series == "C":
        a[n - 2][n - 1] = -2
    elif series == "D":
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
    return a


def dense_group(spec):
    """(DenseDatum, tau) of a builder description, tau a dense matrix.

    The dense construction: unit vectors for gl, unitary and gsp, the rows
    and columns of bourbaki_cartan for simple groups, and zero-padded
    blocks for products and Weil restrictions.  tau is the identity, the
    negated antidiagonal for unitary, block-diagonal for a product and the
    block shift (block b to block b-1) for a Weil restriction of a split
    group.
    """
    spec = check_group(spec)[0]
    kind = spec["builder"]
    if kind == "product":
        return _padded_sum([dense_group(f) for f in spec["factors"]])
    if kind == "weil_restriction":
        copies = spec["copies"]
        inner, inner_tau = dense_group(spec["inner"])
        assert inner_tau == IntMatrix.identity(inner.rank), "non-split inner group"
        datum, _ = _padded_sum([(inner, inner_tau)] * copies)
        m, rank = inner.rank, datum.rank
        tau = IntMatrix(rank, rank, [1 if b == (a + m) % rank else 0
                                     for a in range(rank) for b in range(rank)])
        return datum, tau
    if kind in ("gl", "unitary"):
        n = spec["n"]
        roots = coroots = _rows([_unit(n, i, 1, i + 1, -1) for i in range(n - 1)], n)
        comps = (Component("A", tuple(range(n - 1))),) if n > 1 else ()
    elif kind == "gsp":
        dim = spec["dim"]
        g = dim // 2
        n = g + 1
        chain = [_unit(n, i, 1, i + 1, -1) for i in range(g - 1)]
        coroots = IntMatrix.from_rows(chain + [_unit(n, g - 1, 1)])
        roots = IntMatrix.from_rows(chain + [_unit(n, g - 1, 2, g, -1)])
        comps = (Component("C" if g >= 2 else "A", tuple(range(g))),)
    else:
        series, n, isogeny = spec["series"], spec["rank"], spec["isogeny"]
        cartan = _rows(bourbaki_cartan(series, n), n)
        if isogeny == "simply_connected":
            roots, coroots = transpose(cartan), IntMatrix.identity(n)
        else:
            roots, coroots = IntMatrix.identity(n), cartan
        comps = (Component(series, tuple(range(n))),)
    if kind == "unitary":
        tau = IntMatrix(n, n, [-1 if a + b == n - 1 else 0
                               for a in range(n) for b in range(n)])
    else:
        tau = IntMatrix.identity(n)
    return DenseDatum(n, roots, coroots, comps), tau


def same_lattice(basis_a, basis_b):
    """Do two integer row bases span the same sublattice of Z^n?"""
    return _contained(basis_a, basis_b) and _contained(basis_b, basis_a)


def _contained(gens, basis):
    if not basis:
        return not gens or all(all(x == 0 for x in g) for g in gens)
    n = len(basis[0])
    for g in gens:
        # solve sum c_i basis_i = g exactly over Q, then check integrality
        aug = [[Fraction(basis[i][a]) for i in range(len(basis))] + [Fraction(g[a])]
               for a in range(n)]
        r = 0
        sol_cols = len(basis)
        pivots = {}
        for col in range(sol_cols):
            piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
            if piv is None:
                continue
            aug[r], aug[piv] = aug[piv], aug[r]
            scale = aug[r][col]
            aug[r] = [x / scale for x in aug[r]]
            for i in range(n):
                if i != r and aug[i][col] != 0:
                    f = aug[i][col]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            pivots[col] = r
            r += 1
        if any(aug[i][sol_cols] != 0 for i in range(r, n)):
            return False
        coeffs = [aug[pivots[c]][sol_cols] if c in pivots else Fraction(0)
                  for c in range(sol_cols)]
        if any(c.denominator != 1 for c in coeffs):
            return False
    return True


def enumerated_census(zd, W):
    """The orbit census of zd from the enumerated Weyl group W.

    The representatives are min_coset_reps(W, J), the lengths of w0 and
    w0,J give dim P, and the codimension-one label of the node s is
    eta * s_opp(s) = w0,J * s * w0, so -w0 is never computed.
    """
    reps = min_coset_reps(W, zd.J)
    w0 = W.elements[W.w0_index]
    w0_j = W.elements[longest_element(W, zd.J)]
    dim_p = zd.rd.rank + w0.length + w0_j.length
    eta_length = reps.reps[-1][1]
    lengths = tuple(length for _, length in reps.reps)
    positions = {idx: pos for pos, (idx, _) in enumerate(reps.reps)}
    codim1 = tuple(
        (s, positions[W.index[w0_j.matrix * W.generators[s] * w0.matrix]])
        for s in sorted(set(range(zd.rd.num_nodes)) - zd.J))
    words = [W.elements[idx].word for idx, _ in reps.reps]
    # the BFS tree read off the words through a prefix index: a word whose
    # prefix is not a representative raises KeyError
    prefix = {word: pos for pos, word in enumerate(words)}
    return OrbitCensus(parents=tuple(prefix[w[:-1]] if w else -1 for w in words),
                       letters=tuple(w[-1] if w else -1 for w in words),
                       lengths=lengths,
                       eta_length=eta_length,
                       dim_group=zd.rd.rank + 2 * w0.length,
                       dim_parabolic=dim_p, codim1_indices=codim1)


def xstar_block_pullbacks(zd, lam, copies):
    """The pullback of lam to each block of a Weil restriction with the
    given number of copies, in X*.

    Block j gets sum_n <alpha_n^vee, lam> q^d tau^d(omega_n) over the nodes
    n outside J, with d = (block of n - j) mod copies, together with the
    nodes perm^d(n) it is meant to be supported on.
    """
    rd = zd.rd
    per_block = rd.num_nodes // copies
    weights = fundamental_weights(rd, zd.J)
    pairings = rd.coroot_pairings(lam)
    tau = dense_tau(zd.frob)
    tau_powers = [IntMatrix.identity(rd.rank)]
    perm_powers = [tuple(range(rd.num_nodes))]
    for _ in range(copies - 1):
        tau_powers.append(tau * tau_powers[-1])
        perm_powers.append(tuple(zd.frob.root_perm[i] for i in perm_powers[-1]))
    blocks = []
    for j in range(copies):
        vec = [Fraction(0)] * rd.rank
        targets = set()
        for node, weight in weights.items():
            dist = (node // per_block - j) % copies
            shifted = apply(tau_powers[dist], weight)
            coeff = Fraction(pairings[node]) * zd.frob.q ** dist
            vec = [x + coeff * y for x, y in zip(vec, shifted)]
            targets.add(perm_powers[dist][node])
        blocks.append((tuple(vec), frozenset(targets)))
    return blocks


def weil_factor_relabelling(copies, node_counts):
    """relabel[i] is the node of Res G_1 x ... x Res G_r that node i of
    Res (G_1 x ... x G_r) is, both with the given number of copies and G_f
    with node_counts[f] nodes.  The first group lays its nodes out copy by
    copy, each copy factor by factor; the second factor by factor, each
    factor copy by copy.
    """
    relabel = []
    for copy in range(copies):
        start = 0
        for count in node_counts:
            relabel += [start + copy * count + j for j in range(count)]
            start += copies * count
    return relabel


def relabelled_positivity(entry, relabel):
    """The fields of a CLI positivity entry that a relabelling of the nodes
    keeps: kind, verdict, certified, antiample_certified, negative_count
    and the Borel coefficients, moved from node i to node relabel[i]."""
    coeffs = entry.get("borel_coefficients")
    if coeffs is not None:
        moved = [None] * len(coeffs)
        for i, c in enumerate(coeffs):
            moved[relabel[i]] = c
        coeffs = moved
    return (entry["kind"], entry["verdict"], entry.get("certified"),
            entry.get("antiample_certified"), entry.get("negative_count"), coeffs)


def gauss_jordan(rows, rhs):
    """Rows of the unique X with rows @ X = rhs over Q (rhs given row by row).

    Full Gauss-Jordan: every pivot column is cleared above and below.
    """
    m, n = len(rows), len(rows[0])
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(x) for x in rhs[i]]
           for i in range(m)]
    for col in range(n):
        piv = next(i for i in range(col, m) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for i in range(m):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    assert all(x == 0 for row in aug[n:] for x in row[n:]), "inconsistent"
    return [row[n:] for row in aug[:n]]


def central_solve_weights(rd, J=()):
    """omega_i for i outside J from the square system of the simple coroots
    followed by a basis of the central directions of X_* (the kernel of
    pairing against all simple roots): omega_i pairs to delta_ij with the
    coroots and to 0 with the central directions."""
    dense = dense_datum(rd)
    central = kernel_basis(dense.simple_roots)
    system = [dense.coroot(i) for i in range(rd.num_nodes)] + [
        central.row(i) for i in range(central.rows)]
    wanted = [i for i in range(rd.num_nodes) if i not in J]
    ident = [[1 if a == i else 0 for i in wanted] for a in range(rd.rank)]
    solution = gauss_jordan(system, ident)
    return {i: tuple(row[c] for row in solution) for c, i in enumerate(wanted)}


def basis_zeta_matrix(zd):
    """chi -> chi - q tau(chi) in coordinates on char_lattice_of_parabolic's
    basis of X*(L0), by a Fraction solve on that basis."""
    basis = char_lattice_of_parabolic(zd.rd, zd.J0)
    k = basis.rows
    if k == 0:
        return IntMatrix(0, 0, ())
    tau = dense_tau(zd.frob)
    images = []
    for a in range(k):
        vec = basis.row(a)
        images.append([x - zd.frob.q * y for x, y in zip(vec, apply(tau, vec))])
    # row j of the solution holds the j-th basis coordinate of every image
    coeffs = [c for row in gauss_jordan(transpose(basis).to_rows(),
                                        [list(r) for r in zip(*images)])
              for c in row]
    assert all(c.denominator == 1 for c in coeffs), "not in the lattice"
    return IntMatrix(k, k, [c.numerator for c in coeffs])


def borel_zeta_matrix(zd):
    """The twist endomorphism id - q*tau on all of X*, from the dense tau."""
    tau, q = dense_tau(zd.frob), zd.frob.q
    n = tau.rows
    return IntMatrix(n, n, [(1 if i == j else 0) - q * tau.row(i)[j]
                            for i in range(n) for j in range(n)])


def fundamental_zeta_matrix(zd):
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


def coefficient_closure(rd):
    """(roots, highest) of rd as (coeffs, vector) pairs in (height, coeffs)
    order, by the reflection closure on coefficients: s_i lowers c_i by
    sum_j A_ij c_j, A the Cartan matrix read entry by entry, and a vector is
    sum_i c_i alpha_i coordinate by coordinate.  highest holds the unique
    root of maximal height of each component."""
    k = rd.num_nodes
    dense = dense_datum(rd)
    cartan = dense.cartan_matrix()
    seen = {tuple(1 if j == i else 0 for j in range(k)) for i in range(k)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(k):
                pairing = sum(cartan.row(i)[j] * c[j] for j in range(k))
                c2 = c[:i] + (c[i] - pairing,) + c[i + 1:]
                if pairing and min(c2) >= 0 and c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
    roots = [(c, tuple(sum(c[i] * dense.root(i)[a] for i in range(k))
                       for a in range(rd.rank)))
             for c in sorted(seen, key=lambda c: (sum(c), c))]
    highest = []
    for comp in rd.components:
        inside = [r for r in roots
                  if {i for i, x in enumerate(r[0]) if x} <= set(comp.nodes)]
        top = max(sum(c) for c, _ in inside)
        tops = [r for r in inside if sum(r[0]) == top]
        assert len(tops) == 1, "highest root is not unique"
        highest.append(tops[0])
    return roots, highest


def xstar_dominant_conjugate(rd, chi):
    """The dominant W-conjugate of the cocharacter chi, walked in X_*:
    reflect chi -> chi - <chi, alpha_i> alpha_i^vee in the first simple root
    it pairs negatively with, recomputing every root pairing at each step."""
    dense = dense_datum(rd)
    vec = list(chi)
    for _ in range(100_000):
        pairings = rd.root_pairings(vec)
        i = next((i for i, p in enumerate(pairings) if p < 0), None)
        if i is None:
            return tuple(vec)
        vec = [x - pairings[i] * c for x, c in zip(vec, dense.coroot(i))]
    raise AssertionError("dominance walk did not terminate")


def dense_zeta_matrix(zd):
    """chi -> chi - q tau(chi) on the Smith basis of X*(L0), by dense
    matrix-vector products: column a of V, its image under tau, and the
    coordinates V_inv @ image, of which entries r.. are kept."""
    snf = _coroot_smith(zd.rd, zd.J0)
    r = len(snf.invariant_factors)
    q, tau, v_columns = zd.frob.q, dense_tau(zd.frob), transpose(snf.V)
    columns = []
    for a in range(r, zd.rd.rank):
        vec = v_columns.row(a)
        coords = apply(snf.V_inv, [x - q * y for x, y in zip(vec, apply(tau, vec))])
        assert not any(coords[:r]), "twist endomorphism does not preserve the lattice"
        columns.append(coords[r:])
    k = len(columns)
    return IntMatrix(k, k, [c[j] for j in range(k) for c in columns])


def full_scan_smith_normal_form(mat):
    """Smith normal form with the pivot chosen by a scan of the whole
    remaining block (least |x|, ties by lowest (row, col)) and the
    divisibility rescan run for every pivot, units included."""
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    u = IntMatrix.identity(m).to_rows()
    v = IntMatrix.identity(n).to_rows()
    v_inv = IntMatrix.identity(n).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in range(m):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(n):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def add_row(src, dst, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + k * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, k):
        for r in range(m):
            a[r][dst] += k * a[r][src]
        for r in range(n):
            v[r][dst] += k * v[r][src]
        v_inv[src] = [x - k * y for x, y in zip(v_inv[src], v_inv[dst])]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
                        break
            if dirty:
                continue
            if any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n)):
                continue
            bad = None
            piv = a[t][t]
            for i in range(t + 1, m):
                if any(x % piv for x in a[i][t + 1:]):
                    bad = i
                    break
            if bad is None:
                break
            add_row(bad, t, 1)
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    diag = [a[i][i] for i in range(min(m, n))]
    factors = tuple(d for d in diag if d != 0)
    if any(diag[len(factors):]):
        raise SelfCheckError("zero diagonal entries of the Smith form are not last")
    return SmithDecomposition(
        U=IntMatrix(m, m, [x for row in u for x in row]),
        V=IntMatrix(n, n, [x for row in v for x in row]),
        invariant_factors=factors,
        V_inv=IntMatrix(n, n, [x for row in v_inv for x in row]),
    )


def first_negative_to_dominant(p, matrix):
    """Reflect p in its first node with a negative pairing until none is
    left, scanning p from the start on every step: s_i sends p_j to
    p_j - p_i * matrix[j][i], the dense matrix read entry by entry (a
    Cartan matrix for coroot pairings, its transpose for root pairings)."""
    k = len(p)
    for _ in range(100_000):
        i = next((i for i, x in enumerate(p) if x < 0), None)
        if i is None:
            return tuple(p)
        p = [p[j] - p[i] * matrix.row(j)[i] for j in range(k)]
    raise AssertionError("dominance walk did not terminate")


def _in_lattice(pairings, J):
    return all(pairings[j] == 0 for j in J)


def _signs_hold(pairings, J, positive):
    """Strict sign test on the nodes outside J; vacuously true if none."""
    outside = (p for i, p in enumerate(pairings) if i not in J)
    if positive:
        return all(p > 0 for p in outside)
    return all(p < 0 for p in outside)


def two_helper_verdict(pairings, J, sign):
    """ample / antiample / neither / not_in_lattice for the coroot pairings
    of a character of the parabolic of type J whose ample characters pair
    with the sign (+1 or -1) outside J."""
    if not _in_lattice(pairings, J):
        return NOT_IN_LATTICE
    ample_positive = sign > 0
    if _signs_hold(pairings, J, positive=ample_positive):
        return AMPLE
    if _signs_hold(pairings, J, positive=not ample_positive):
        return ANTIAMPLE
    return NEITHER


def root_list_classify(rd, chi):
    """central / minuscule / small_not_minuscule / neither from the list of
    positive roots: central when chi pairs to 0 with every root, minuscule
    when every pairing lies in {-1, 0, 1}; small when in every component
    the dominant conjugate, walked in X_*, pairs positively with at most
    one simple root, with value 1."""
    pairings = [sum(x * y for x, y in zip(chi, r.vector))
                for r in positive_roots(rd).roots]
    if all(p == 0 for p in pairings):
        return CENTRAL
    if all(-1 <= p <= 1 for p in pairings):
        return MINUSCULE
    dominant = rd.root_pairings(xstar_dominant_conjugate(rd, chi))
    for comp in rd.components:
        positives = [dominant[i] for i in comp.nodes if dominant[i] > 0]
        if len(positives) > 1 or (positives and positives[0] != 1):
            return NEITHER
    return SMALL_NOT_MINUSCULE


def full_order_j0(frob, J):
    """J0 as the intersection of J with its perm-images, taken once for
    every power of tau up to its order, never stopping early."""
    J0 = set(J)
    for _ in range(frob.order):
        J0 &= {frob.root_perm[j] for j in J0}
    return frozenset(J0)


def factorisations(limit):
    """{q: {p: e}} for 2 <= q < limit: each q's prime factorisation, read off
    a sieve of Eratosthenes that records the least prime factor of each q."""
    least = list(range(limit))
    for p in range(2, limit):
        if least[p] == p:
            for m in range(p * p, limit, p):
                least[m] = min(least[m], p)
    factors = {}
    for q in range(2, limit):
        p = least[q]
        rest = dict(factors.get(q // p, {}))
        rest[p] = rest.get(p, 0) + 1
        factors[q] = rest
    return factors


def macdonald_length_counts(rd, J):
    """Coefficients of ^J W(t), the number of minimal representatives of
    W_J \\ W of each length (Macdonald, Math. Ann. 199, 1972):

        ^J W(t) = prod over alpha in Phi+ minus Phi+_J of [ht a + 1]_t / [ht a]_t

    with [m]_t = (1 - t^m) / (1 - t).  The factors 1 - t are cancelled, the
    numerators 1 - t^(h + 1) multiplied out and the 1 - t^h divided off one
    by one; each division must leave no remainder.
    """
    heights = [sum(r.coeffs) for r in positive_roots(rd).roots
               if any(c and i not in J for i, c in enumerate(r.coeffs))]
    poly = [1] + [0] * sum(h + 1 for h in heights)
    top = 0
    for h in heights:
        top += h + 1
        for k in range(top, h, -1):
            poly[k] -= poly[k - h - 1]
    for h in heights:
        for k in range(h, top + 1):
            poly[k] += poly[k - h]
        if any(poly[top - h + 1:top + 1]):
            raise AssertionError("1 - t^%d does not divide the product" % h)
        top -= h
    return poly[:top + 1]


def normal_form(diagonal):
    """Invariant factors above 1 of the diagonal matrix with these entries:
    each pair (a, b) becomes (gcd, lcm), which keeps the product and the
    exponents of every prime, until each entry divides the next."""
    d = list(diagonal)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = gcd(d[i], d[j]), lcm(d[i], d[j])
    return tuple(f for f in d if f > 1)


def tau_cycle_invariant_factors(frob):
    """Invariant factors above 1 of chi -> chi - q*tau(chi) on all of X*.

    As a Z[tau]-module X* is the sum over the signed cycles of tau of
    Z[x]/(x^c - eps), c the length of the cycle and eps the product of its
    signs, so the cokernel is the sum of the Z/(q^c - eps).  The cycles are
    read off the rows of the dense tau, each with one entry +-1.
    """
    rows = dense_tau(frob).to_rows()
    seen = [False] * len(rows)
    diagonal = []
    for start in range(len(rows)):
        length, eps, i = 0, 1, start
        while not seen[i]:
            seen[i] = True
            [(i, s)] = [(j, x) for j, x in enumerate(rows[i]) if x]
            if s not in (1, -1):
                raise AssertionError("tau is not a signed permutation")
            length, eps = length + 1, eps * s
        if length:
            diagonal.append(abs(frob.q ** length - eps))
    return normal_form(diagonal)


def row_data(data):
    """A report's data with its OrbitCensus expanded into one dict per orbit."""
    if "orbits" not in data:
        return data
    return dict(data, orbits=[
        {"word": [i + 1 for i in word], "length": length, "dim": dim, "codim": codim}
        for word, length, dim, codim in data["orbits"].orbits])


def row_text(data):
    """The text rendering of row_data(data), as the row-based formatter made it."""
    d = row_data(data)
    lines = []
    group = json.dumps(d["group"], sort_keys=True)
    lines.append("datum: q=%d group=%s" % (d["q"], group))
    lines.append("types: J=%s K=%s J0=%s" % (d["J"], d["K"], d["J0"]))
    if "hasse_number" in d:
        lines.append("hasse: invariant_factors=%s hasse_number=%s s0_order=%s "
                     "det_zeta=%s pic_L0_trivial=%s"
                     % (d["invariant_factors"], d["hasse_number"],
                        d["s0_order"], d["det_zeta"], d["pic_L0_trivial"]))
        lines.append("zeta: %s" % (d["zeta"],))
    if "orbits" in d:
        lines.append("orbits: count=%d eta_length=%d codim1=%d pic_rank=%d"
                     % (len(d["orbits"]), d["eta_length"], len(d["codim1"]),
                        d["pic_rank"]))
        for o in d["orbits"]:
            lines.append("  orbit word=%s length=%d dim=%d codim=%d"
                         % (o["word"], o["length"], o["dim"], o["codim"]))
    if "positivity" in d:
        for entry in d["positivity"]:
            lines.append("positivity: %s" % (json.dumps(entry, sort_keys=True),))
    if "picard" in d:
        lines.append("picard: torsion=%s" % (d["picard"],))
    for w in d.get("warnings", []):
        lines.append("warning: %s: %s" % (w["code"], w["detail"]))
    return "\n".join(lines) + "\n"
