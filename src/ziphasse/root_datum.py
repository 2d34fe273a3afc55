"""Based root data with a Frobenius structure over a finite field.

A root datum here is a pair of lattices X* = X_* = Z^rank with the standard
dot pairing, a list of simple roots (vectors in X*) and simple coroots
(vectors in X_*), each kept as its nonzero (coordinate, value) entries.  The
Frobenius structure carries the size q of the base field together with the
finite-order lattice automorphism tau, a signed permutation of the
coordinates, through which the arithmetic Frobenius acts on characters;
composing a character with the q-power isogeny corresponds to q * tau on
coordinates.

Builders cover the groups used downstream: general linear groups, similitude
symplectic groups, quasi-split unitary groups, split simple groups in both
isogeny types, finite products, and Weil restrictions of split groups along a
degree-r extension.  Each is one call to build_group, which assembles
factors and inner groups from their lattice parts and checks tau once, for
the whole group.

Everything constructed here is immutable and safe to share between threads.
A RootDatum computes its Cartan data on first use and keeps it: the nonzero
rows and columns of the Cartan matrix, which every walk and solve reads,
the Dynkin components typed off them and the opposition walk.  Each is
deterministic and immutable, so a race between threads only computes it twice.
build_group keeps the last MAX_GROUPS descriptions it built, each with its
datum and the q-free part of its tau, in one process-wide lru_cache: equal
descriptions share one RootDatum object, so a sweep over parabolic types
pays for the Cartan data once.  q is checked on every call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf, isqrt, lcm, prod
from typing import Iterable, NamedTuple, Sequence

from .exact_linear import (
    IntMatrix,
    SelfCheckError,
    SmithDecomposition,
    _check_int,
    invariant_factors,
    kernel_basis,
    smith_normal_form,
    solve_rational,  # noqa: F401  re-exported; perfbench traces it here
)


class UnsupportedSeriesError(ValueError):
    """Malformed builder description: unknown builder, key or Dynkin series."""


class InvalidRankError(ValueError):
    """A size that is not an int or is out of range, or too deep a nesting."""


class InvalidQError(ValueError):
    """q must be a prime power >= 2."""


class SingularCartanError(ValueError):
    """Fundamental-weight system is singular (cannot happen for finite type)."""


class Component(NamedTuple):
    """One connected Dynkin component: series letter plus its node indices."""

    series: str
    nodes: tuple


class RootDatum(NamedTuple("RootDatum", [("rank", int), ("root_entries", tuple),
                                          ("coroot_entries", tuple)])):
    """A based root datum on X* = X_* = Z^rank.

    Simple root i is root_entries[i], the tuple of its nonzero (coordinate,
    value) entries in increasing coordinate order, and simple coroot i is
    coroot_entries[i] in the same form; the constructor, and so _make and
    _replace, refuse any other entries with ValueError, and a non-int value
    with TypeError.  They also refuse with ValueError a rank that is not a
    non-negative int (a bool is not one) and root and coroot lists of
    different lengths.  The builders' roots and coroots have at most four
    nonzero coordinates, so building, checking and pairing them costs
    O(nnz), not O(rank) per root.
    """

    def __new__(cls, rank, root_entries, coroot_entries):
        if type(rank) is not int or rank < 0:
            raise ValueError("a root datum needs a non-negative int rank, got %r"
                             % (rank,))
        for row in (*root_entries, *coroot_entries):
            last = -1
            for a, x in row:
                _check_int(x)
                if type(a) is not int or not last < a < rank or x == 0:
                    raise ValueError("a root datum row needs nonzero entries at "
                                     "increasing coordinates in range(%d), got %r"
                                     % (rank, row))
                last = a
        if len(root_entries) != len(coroot_entries):
            raise ValueError("a root datum needs one coroot per root, got %d "
                             "roots and %d coroots"
                             % (len(root_entries), len(coroot_entries)))
        return super().__new__(cls, rank, root_entries, coroot_entries)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def num_nodes(self) -> int:
        return len(self.root_entries)

    # the cached values below live in the instance __dict__, not in the
    # tuple: ==, hash and repr ignore them

    @cached_property
    def _cartan_entries(self) -> tuple:
        """(rows, columns) of the Cartan matrix as their nonzero entries:
        rows[i] holds (j, <alpha_i^vee, alpha_j>) and columns[j] holds
        (i, <alpha_i^vee, alpha_j>), both in increasing index order."""
        on_coord = {}
        for j, row in enumerate(self.root_entries):
            for a, x in row:
                on_coord.setdefault(a, []).append((j, x))
        rows = []
        for row in self.coroot_entries:
            sums = {}
            for a, y in row:
                for j, x in on_coord.get(a, ()):
                    sums[j] = sums.get(j, 0) + y * x
            rows.append(tuple([(j, sums[j]) for j in sorted(sums) if sums[j]]))
        return tuple(rows), _columns(rows, self.num_nodes)

    @cached_property
    def components(self) -> tuple:
        """The Dynkin components of all nodes, typed by _types."""
        return _types(self._cartan_entries[0], range(self.num_nodes))

    @cached_property
    def _opposition(self) -> tuple:
        """(perm, |Phi+|): the opposition walk of opposition(), and its
        length, checked against the count read off the component series."""
        n_pos = sum([d - 1 for d in _degrees(self.components)])
        start = range(-1, -self.num_nodes - 1, -1)
        end, steps = _walk(start, self._cartan_entries[1], n_pos)
        if steps != n_pos:
            raise SelfCheckError("the opposition walk took %d steps, not |Phi+| = %d"
                                 % (steps, n_pos))
        return tuple([x - 1 for x in end]), n_pos

    def coroot_pairings(self, vec: Sequence) -> tuple:
        """<alpha_i^vee, vec> for every node i; vec may be rational.

        A rational vec is paired as integer numerators over the lcm of its
        denominators, so each pairing makes one Fraction.
        """
        return _pairings(self.coroot_entries, vec)

    def root_pairings(self, covec: Sequence) -> tuple:
        """<covec, alpha_i> for every node i, paired as coroot_pairings."""
        return _pairings(self.root_entries, covec)


def _columns(rows: Sequence, cols: int) -> tuple:
    """The columns of the matrix with cols columns whose row i has the
    nonzero entries rows[i], each as its nonzero (row, value) entries."""
    columns = [[] for _ in range(cols)]
    for i, row in enumerate(rows):
        for j, x in row:
            columns[j].append((i, x))
    return tuple(map(tuple, columns))


def _dense(rows: Sequence, rank: int) -> IntMatrix:
    """The matrix whose row i has the nonzero entries rows[i]."""
    entries = [0] * (len(rows) * rank)
    for i, row in enumerate(rows):
        for a, x in row:
            entries[i * rank + a] = x
    return IntMatrix(len(rows), rank, entries)


def _pairings(rows: Sequence, vec: Sequence) -> tuple:
    """sum(x * vec[a] for (a, x) in row) for every row of nonzero entries.

    With a Fraction in vec every pairing is a Fraction, as in a dense dot:
    integer numerators over the lcm of the denominators, one Fraction each.
    """
    if Fraction not in set(map(type, vec)):
        return tuple([sum([x * vec[a] for a, x in row]) for row in rows])
    scale = lcm(*(x.denominator for x in vec))
    nums = [x.numerator * (scale // x.denominator) for x in vec]
    return tuple([Fraction(sum([x * nums[a] for a, x in row]), scale) for row in rows])


class FrobeniusStructure(NamedTuple):
    """q with the signed permutation tau: (tau v)_i = sign[i] * v[src[i]].

    tau permutes the simple roots by root_perm and has finite order; its
    dual is tau itself, since a signed permutation is orthogonal.
    """

    q: int
    src: tuple
    sign: tuple
    root_perm: tuple
    order: int


def is_prime_power(q: int) -> bool:
    if q < 2:
        return False
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def _cycles(perm: Sequence) -> list:
    """The cycles [i, perm[i], perm[perm[i]], ...] of a permutation of
    range(len(perm)), each from its least element, in order of that element."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycle, i = [], start
        while not seen[i]:
            seen[i] = True
            cycle.append(i)
            i = perm[i]
        cycles.append(cycle)
    return cycles


# ---------------------------------------------------------------------------
# builders


MAX_FROBENIUS_ORDER = 10_000


def _check_q(q) -> int:
    """q, when it is an int prime power >= 2; raises InvalidQError otherwise."""
    if not isinstance(q, int) or isinstance(q, bool) or not is_prime_power(q):
        raise InvalidQError("q must be a prime power >= 2, got %r" % (q,))
    return q


def _tau(rd: RootDatum, src: Sequence, sign: Sequence) -> tuple:
    """(src, sign, root_perm, order): the fields of a Frobenius structure
    besides q, for the tau with (tau v)_i = sign[i] * v[src[i]].

    Every builder's tau is such a signed permutation.  Its order is the lcm
    of its cycle lengths, doubled on a cycle whose signs multiply to -1.
    Raises ValueError when tau is not a signed permutation, does not
    permute the simple roots and coroots alike, or has too large an order.
    build_group checks tau once per group: the tau of a product or Weil
    restriction is block-diagonal up to the block shift, so a factor that
    fails a check here makes the whole group fail it.
    """
    n = rd.rank
    src, sign = tuple(src), tuple(sign)
    if sorted(src) != list(range(n)) or len(sign) != n \
            or not set(sign) <= {1, -1}:
        raise ValueError("tau must be a signed permutation of %d coordinates" % n)

    # tau sends e_a to sign[i] * e_i with src[i] = a, i = dest[a]
    dest = sorted(range(n), key=src.__getitem__)

    def act(row):
        return tuple(sorted([(dest[a], sign[dest[a]] * x) for a, x in row]))

    roots = {row: i for i, row in enumerate(rd.root_entries)}
    perm = []
    for row in rd.root_entries:
        image = act(row)
        if image not in roots:
            raise ValueError("tau does not permute the simple roots")
        perm.append(roots[image])
    perm = tuple(perm)

    # tau sends e_src[i] to sign[i] * e_i; walk each cycle of that map
    order = 1
    for cycle in _cycles(src):
        eps = prod([sign[i] for i in cycle])
        order = lcm(order, len(cycle) if eps == 1 else 2 * len(cycle))
    if order > MAX_FROBENIUS_ORDER:
        raise ValueError("tau does not have small finite order")
    coroots = rd.coroot_entries
    for i, row in enumerate(coroots):
        if act(row) != coroots[perm[i]]:
            raise ValueError("tau dual does not follow the root permutation")
    return src, sign, perm, order


def gl(n: int, q: int):
    """GL_n with the standard diagonal torus: X* = Z^n, alpha_i = e_i - e_{i+1}."""
    return build_group({"builder": "gl", "n": n}, q)


def unitary(n: int, q: int):
    """Quasi-split unitary group U(n) splitting over a quadratic extension.

    Same root datum as GL_n; the Frobenius acts on characters through
    tau(e_i) = -e_{n+1-i}, which permutes the simple roots by the diagram
    flip.
    """
    return build_group({"builder": "unitary", "n": n}, q)


def gsp(dim: int, q: int):
    """Similitude symplectic group GSp_{2g} (dim = 2g), rank g+1.

    Coordinates: e_0..e_{g-1} are the torus weights, e_g is the similitude
    multiplier.  The long simple root is 2e_{g-1} - e_g.
    """
    return build_group({"builder": "gsp", "dim": dim}, q)


def simple_group(series: str, rank: int, q: int, isogeny: str = "simply_connected"):
    """Split simple group of the given Dynkin series and isogeny type.

    simply_connected: X* is the weight lattice (roots = columns of the Cartan
    matrix, coroots = standard basis).  adjoint: X* is the root lattice
    (roots = standard basis, coroots = rows of the Cartan matrix).
    """
    return build_group({"builder": "simple", "series": series, "rank": rank,
                        "isogeny": isogeny}, q)


def product_group(factor_specs: Sequence, q: int):
    """Direct product of builder specs sharing one q."""
    return build_group({"builder": "product", "factors": list(factor_specs)}, q)


def weil_restriction(copies: int, inner_spec, q: int):
    """Weil restriction of a split group along a degree-``copies`` extension.

    The lattice is ``copies`` blocks of the inner lattice and tau cyclically
    shifts block b to block b-1, so that composing a block-b character with
    Frobenius lands in block b-1 scaled by q.
    """
    return build_group({"builder": "weil_restriction", "copies": copies,
                        "inner": inner_spec}, q)


# Most group descriptions that build_group keeps built, the least recently
# used dropped first.  An entry of rank 128 holds about 110 KB once its
# Cartan data are cached, so the memo holds about 14 MB at that rank.
MAX_GROUPS = 128

# The canonical text of a checked description, the key of build_group's
# memo: JSON with sorted keys, made by one encoder for every call.
_canonical = json.JSONEncoder(sort_keys=True).encode


def build_group(spec: dict, q: int):
    """Build (RootDatum, FrobeniusStructure) from a builder description.

    The description mirrors the CLI input format, e.g.::

        {"builder": "unitary", "n": 3}
        {"builder": "simple", "series": "B", "rank": 3,
         "isogeny": "simply_connected"}
        {"builder": "weil_restriction", "copies": 3,
         "inner": {"builder": "gl", "n": 2}}

    check_group refuses a malformed description before anything is built.
    Equal descriptions, whatever the order of their keys and whether the
    default isogeny is given, return the same RootDatum object: the datum
    and the q-free part of the Frobenius structure are built once per
    description and process (_group), so the datum's cached Cartan data
    are too.  q is checked on every call, after the datum, and the
    Frobenius structure carries the q of the call.
    """
    rd, tau = _group(_canonical(check_group(spec)[0]))
    return rd, FrobeniusStructure(_check_q(q), *tau)


@lru_cache(maxsize=MAX_GROUPS)
def _group(key: str) -> tuple:
    """(RootDatum, (src, sign, root_perm, order)) of the checked description
    whose canonical text is key, built from the key itself, so that an entry
    cannot hold another description's datum.  Factors and inner groups are
    built as lattice parts only (_parts), and tau is checked once, for the
    whole group.  lru_cache stores no exception, so a refused description
    is refused again on every call."""
    rd, src, sign = _parts(json.loads(key))
    return rd, _tau(rd, src, sign)


# Deepest nesting of product / weil_restriction groups a description may use.
MAX_DEPTH = 32

# The keys of each builder's description besides "builder".
_GROUP_KEYS = {
    "gl": {"n"},
    "unitary": {"n"},
    "gsp": {"dim"},
    "simple": {"series", "rank", "isogeny"},
    "product": {"factors"},
    "weil_restriction": {"copies", "inner"},
}
# The least and the greatest rank of each Dynkin series.
_SERIES_RANKS = {"A": (1, inf), "B": (2, inf), "C": (2, inf), "D": (3, inf),
                 "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def require_int(value, what: str) -> int:
    """value, when it is an int and not a bool; raises InvalidRankError otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidRankError("%s must be an integer, got %r" % (what, value))
    return value


def check_group(spec, depth: int = 0) -> tuple:
    """(copy, rank): a checked copy of a builder description and the rank of
    its X*, read off without building anything.

    Raises UnsupportedSeriesError or InvalidRankError on every fault that
    the description alone decides; depth counts the enclosing groups.  The
    copy has the default isogeny filled in, and check_group returns it as is.
    """
    if not isinstance(spec, dict):
        raise UnsupportedSeriesError("group must be an object")
    kind = spec.get("builder")
    if not isinstance(kind, str) or kind not in _GROUP_KEYS:
        raise UnsupportedSeriesError("unknown builder %r" % (kind,))
    if kind in ("product", "weil_restriction") and depth >= MAX_DEPTH:
        raise InvalidRankError("groups are nested more than %d deep" % (MAX_DEPTH,))
    unknown = set(spec) - _GROUP_KEYS[kind] - {"builder"}
    if unknown:
        raise UnsupportedSeriesError("unknown group keys %s" % (sorted(unknown),))
    out = {"builder": kind}
    if kind in ("gl", "unitary"):
        rank = out["n"] = require_int(spec.get("n"), "n")
        if rank < 1:
            raise InvalidRankError("%s needs n >= 1" % kind)
    elif kind == "gsp":
        dim = out["dim"] = require_int(spec.get("dim"), "dim")
        if dim < 2 or dim % 2:
            raise InvalidRankError("gsp needs an even dim >= 2")
        rank = dim // 2 + 1
    elif kind == "simple":
        series = out["series"] = spec.get("series")
        rank = out["rank"] = require_int(spec.get("rank"), "rank")
        isogeny = out["isogeny"] = spec.get("isogeny", "simply_connected")
        if not isinstance(series, str):
            raise UnsupportedSeriesError("series must be a string")
        if isogeny not in ("simply_connected", "adjoint"):
            raise UnsupportedSeriesError("isogeny must be simply_connected or adjoint")
        if series not in _SERIES_RANKS:
            raise UnsupportedSeriesError("unknown series %r" % (series,))
        least, most = _SERIES_RANKS[series]
        if not least <= rank <= most:
            raise InvalidRankError("series %s does not have rank %d" % (series, rank))
    elif kind == "product":
        factors = spec.get("factors")
        if not isinstance(factors, list) or not factors:
            raise UnsupportedSeriesError("factors must be a non-empty list")
        checked = [check_group(f, depth + 1) for f in factors]
        out["factors"] = [f for f, _ in checked]
        rank = sum(r for _, r in checked)
    else:
        copies = out["copies"] = require_int(spec.get("copies"), "copies")
        if copies < 1:
            raise InvalidRankError("weil_restriction needs copies >= 1")
        out["inner"], inner_rank = check_group(spec.get("inner"), depth + 1)
        rank = copies * inner_rank
    return out, rank


def _parts(spec: dict) -> tuple:
    """(RootDatum, src, sign) of a checked builder description: the datum
    and the signed permutation of its tau, with no Frobenius structure made.
    Its one refusal, a non-split inner group, needs the inner tau."""
    kind = spec["builder"]
    if kind == "product":
        parts = [_parts(s) for s in spec["factors"]]
        src, sign = [], []
        for _, part_src, part_sign in parts:
            src += [len(src) + j for j in part_src]
            sign += part_sign
        return _direct_sum([rd for rd, _, _ in parts]), src, sign
    if kind == "weil_restriction":
        copies = spec["copies"]
        inner, inner_src, inner_sign = _parts(spec["inner"])
        if list(inner_src) != list(range(inner.rank)) or -1 in inner_sign:
            raise UnsupportedSeriesError("weil_restriction needs a split inner group")
        rd = _direct_sum([inner] * copies)
        m, rank = inner.rank, rd.rank
        return rd, [(r + m) % rank for r in range(rank)], (1,) * rank
    if kind in ("gl", "unitary"):
        n = spec["n"]
        roots = coroots = tuple([((i, 1), (i + 1, -1)) for i in range(n - 1)])
    elif kind == "gsp":
        dim = spec["dim"]
        g = dim // 2
        n = g + 1
        chain = tuple([((i, 1), (i + 1, -1)) for i in range(g - 1)])
        roots = chain + (((g - 1, 2), (g, -1)),)
        coroots = chain + (((g - 1, 1),),)
    else:
        series, n, isogeny = spec["series"], spec["rank"], spec["isogeny"]
        rows = _cartan_matrix(series, n)
        units = tuple([((i, 1),) for i in range(n)])
        if isogeny == "simply_connected":
            # root i is column i of the Cartan matrix
            roots, coroots = _columns(rows, n), units
        else:
            roots, coroots = units, rows
    rd = RootDatum(n, roots, coroots)
    if kind == "unitary":
        return rd, range(n - 1, -1, -1), (-1,) * n
    return rd, range(n), (1,) * n


def _direct_sum(data: Sequence) -> RootDatum:
    """The data side by side: block b of the lattice, simple roots and
    coroots is data[b]'s, its coordinates shifted past the blocks before it."""
    roots, coroots, offset = [], [], 0
    for rd in data:
        for out, rows in ((roots, rd.root_entries), (coroots, rd.coroot_entries)):
            out += [tuple([(a + offset, x) for a, x in row]) for row in rows]
        offset += rd.rank
    return RootDatum(offset, tuple(roots), tuple(coroots))


def _cartan_matrix(series: str, rank: int) -> tuple:
    """The Cartan matrix of a series at a rank that check_group accepts, as
    its nonzero rows: row i holds the (j, A_ij) with A_ij != 0, in
    increasing j order."""
    if series == "D":
        bonds = [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    elif series == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][:rank - 1]
        bonds = list(zip(chain, chain[1:])) + [(1, 3)]
    else:  # A, B, C, F and G are paths
        bonds = [(i, i + 1) for i in range(rank - 1)]
    rows = [{i: 2} for i in range(rank)]
    for i, j in bonds:
        rows[i][j] = rows[j][i] = -1
    # the multiple bond (i, j, A_ij): A_ij < -1 makes node i its short end
    multiple = {"B": (rank - 1, rank - 2, -2),  # last root short
                "C": (rank - 2, rank - 1, -2),  # last root long
                "F": (2, 1, -2),  # nodes 0,1 long; 2,3 short
                "G": (0, 1, -3)}.get(series)  # node 0 short
    if multiple:
        i, j, x = multiple
        rows[i][j] = x
    return tuple([tuple(sorted(row.items())) for row in rows])


# ---------------------------------------------------------------------------
# root enumeration and Weyl walks in Cartan coordinates


# Degrees of the basic invariants of the Weyl group of a component, from its
# series and number of nodes (Humphreys, "Reflection groups and Coxeter
# groups", 3.7): |Phi+| = sum(d - 1) and |W| = prod(d).
_DEGREES = {"A": lambda n: range(2, n + 2), "B": lambda n: range(2, 2 * n + 1, 2),
            "C": lambda n: range(2, 2 * n + 1, 2),
            "D": lambda n: [*range(2, 2 * n - 1, 2), n],
            "E": {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                  8: (2, 8, 12, 14, 18, 20, 24, 30)}.__getitem__,
            "F": lambda n: (2, 6, 8, 12), "G": lambda n: (2, 6)}


def _degrees(components: Sequence) -> list:
    """The degrees of the Weyl group of the components, one by one."""
    return [d for c in components for d in _DEGREES[c.series](len(c.nodes))]


def classical_order(rd: RootDatum) -> int:
    """|W|, the product of the degrees of the Weyl group of every component."""
    return prod(_degrees(rd.components))


# The default bound on |W| for the orbit census of the CLI (--weyl-cap).
DEFAULT_CAP = 1_000_000


class WeylGroupTooLargeError(ValueError):
    """|W| exceeds a cap: the CLI's --weyl-cap, or enumerate_weyl's."""

    def __init__(self, expected, cap):
        super().__init__(
            "Weyl group of order %d exceeds the cap %d" % (expected, cap))
        self.expected = expected
        self.cap = cap


def _types(rows: Sequence, nodes: Iterable) -> tuple:
    """The connected components of the Dynkin diagram on nodes, by least
    node, each typed off the Cartan nonzero rows (Bourbaki, ch. VI, plates):
    rows[i] holds (j, <alpha_i^vee, alpha_j>), below -1 when i is the short
    end of a multiple bond.  The diagram is taken to be of finite type, and
    RootDatum._opposition checks l(w0) against the degrees.  D3 is A3."""
    nodes = set(nodes)
    nbrs = {i: [j for j, _ in rows[i] if j != i and j in nodes] for i in nodes}
    out, seen = [], set()
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        for i in comp:  # comp grows while it is read: a breadth-first walk
            for j in nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    comp.append(j)
        ends = {i for i in comp if len(nbrs[i]) == 1}
        branch = [nbrs[i] for i in comp if len(nbrs[i]) == 3]
        bond = [(i, j, c) for i in comp for j, c in rows[i] if c < -1 and j in nodes]
        if branch:  # two ends next to the branch node in D, one in E
            series = "D" if len(ends.intersection(branch[0])) >= 2 else "E"
        elif not bond:
            series = "A"
        elif bond[0][2] == -3:
            series = "G"
        else:  # the last end on the double bond: short in B, long in C
            short, long = bond[0][:2]
            on_end = ends & {short, long}
            series = "F" if not on_end else "B" if max(on_end) == short else "C"
        out.append(Component(series, tuple(sorted(comp))))
    return tuple(out)


def _walk(p: tuple, columns, limit: int) -> tuple:
    """(end, steps): reflect p in nodes with a negative pairing until none
    is left, counting the reflections.

    ``columns`` are the Cartan nonzeros of the datum (_cartan_entries):
    its columns, with entry (j, i) = <alpha_j^vee, alpha_i>, move the
    coroot pairings of a weight, and its rows, the columns of the
    transpose, move the root pairings of a cocharacter.

    The dominant conjugate is unique, so the order of the reflections does
    not matter.  A worklist holds the negative nodes: s_i makes node i
    positive and can only lower its neighbours (the off-diagonal Cartan
    entries are <= 0), so a node joins the list when it turns negative.
    p is updated in place, one step costs O(degree of i).

    s_i negates alpha_i and permutes the other positive roots, so each step
    lowers by one the number of positive roots that p pairs negatively
    with: a walk takes at most |Phi+| steps, exactly |Phi+| = l(w0) from a
    regular antidominant p (Casselman, Invent. Math. 116, 1994), and one
    that would take more than ``limit`` raises SelfCheckError.
    """
    p = list(p)
    todo = [i for i, x in enumerate(p) if x < 0]
    for steps in range(limit + 1):
        if not todo:
            return tuple(p), steps
        i = todo.pop()
        pi = p[i]
        for j, c in columns[i]:
            x = p[j]
            p[j] = x - pi * c
            if x >= 0 > p[j]:
                todo.append(j)
    raise SelfCheckError("a Weyl walk took more than |Phi+| = %d steps" % limit)


class Root(NamedTuple):
    vector: tuple
    coeffs: tuple


class PositiveRoots(NamedTuple):
    roots: tuple
    highest: tuple  # one Root per component, in component order


def positive_roots(rd: RootDatum) -> PositiveRoots:
    """All positive roots by reflection closure of the simple roots.

    Each root is kept as its expansion c in the simple roots: s_i lowers c_i
    by the coroot pairing p_i = sum_j A_ij c_j, read off row i of the Cartan
    nonzeros.  The vectors are one product, the coefficient rows times the
    simple roots.  The highest root of every component (the unique root of
    maximal height there) is returned alongside.
    """
    k = rd.num_nodes
    cartan_rows = rd._cartan_entries[0]
    frontier = [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]
    seen = set(frontier)
    while frontier:
        nxt = []
        for c in frontier:
            for i, row in enumerate(cartan_rows):
                pi = sum([x * c[j] for j, x in row])
                if not pi or c[i] < pi:
                    continue
                c2 = c[:i] + (c[i] - pi,) + c[i + 1:]
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
        if len(seen) > 100_000:
            raise ValueError("root system does not look finite")

    ordered = sorted(seen, key=lambda c: (sum(c), c))
    coeffs = IntMatrix(len(ordered), k, [x for c in ordered for x in c])
    vectors = coeffs * _dense(rd.root_entries, rd.rank)
    roots = [Root(vector=vectors.row(n), coeffs=c) for n, c in enumerate(ordered)]

    highest = []
    for comp in rd.components:
        nodes = set(comp.nodes)
        comp_roots = [r for r in roots
                      if set(i for i, x in enumerate(r.coeffs) if x) <= nodes]
        top = max(sum(r.coeffs) for r in comp_roots)
        tops = [r for r in comp_roots if sum(r.coeffs) == top]
        if len(tops) != 1:
            raise SelfCheckError("highest root is not unique")
        highest.append(tops[0])
    return PositiveRoots(roots=tuple(roots), highest=tuple(highest))


def char_lattice_of_parabolic(rd: RootDatum, J: Iterable) -> IntMatrix:
    """Z-basis (rows) of {lam in X* : <alpha_j^vee, lam> = 0 for all j in J}.

    J is any iterable of the nodes of the Levi's simple roots.  The basis is
    saturated and deterministic.
    """
    J = sorted(set(J))
    for j in J:
        if not 0 <= j < rd.num_nodes:
            raise ValueError("node %r out of range" % (j,))
    return kernel_basis(_dense([rd.coroot_entries[j] for j in J], rd.rank))


def opposition(rd: RootDatum) -> tuple:
    """The opposition involution -w0 as a permutation of the nodes.

    Works in Cartan coordinates (Casselman, "Machine calculations in Weyl
    groups", Invent. Math. 116, 1994): the weight whose coroot pairings are
    -(1, 2, ..., k) is regular antidominant, and its dominant conjugate is
    its image under w0, the weight sum_j (j + 1) omega_perm[j].  As -w0 is
    an involution, node j of that end point pairs to perm[j] + 1.  The walk
    runs once per datum (RootDatum._opposition), and its length l(w0) must
    equal |Phi+| as read off the typed components.
    """
    return rd._opposition[0]


def opp_type(rd: RootDatum, J: Iterable) -> frozenset:
    """Image of J under the opposition involution -w0 on the simple roots."""
    perm = opposition(rd)
    return frozenset(perm[j] for j in J)


def reflection_matrix(rd: RootDatum, i: int) -> IntMatrix:
    """Simple reflection s_i on X*: lam -> lam - <alpha_i^vee, lam> alpha_i."""
    n = rd.rank
    root, coroot = _dense((rd.root_entries[i], rd.coroot_entries[i]), n).to_rows()
    return IntMatrix(n, n, [
        (1 if a == b else 0) - root[a] * coroot[b]
        for a in range(n) for b in range(n)
    ])


def fundamental_weights(rd: RootDatum, J: Iterable = ()) -> dict:
    """Fundamental weights omega_i for i outside J, as exact rational vectors.

    omega_i = _weight(rd, e_i) pairs with alpha_j^vee to the Kronecker delta
    and vanishes against the central directions of X_*, which makes it
    unique for non-semisimple data.
    """
    J = frozenset(J)
    k = rd.num_nodes
    return {i: _weight(rd, [1 if j == i else 0 for j in range(k)])
            for i in range(k) if i not in J}


def fundamental_weight_sum(rd: RootDatum, J: Iterable = ()) -> tuple:
    """sum(omega_i for i outside J) with the normalization of fundamental_weights.

    One _weight solve for the indicator of the nodes outside J; the empty
    sum, the solve of a zero target, is the zero vector.
    """
    J = frozenset(J)
    return _weight(rd, [0 if i in J else 1 for i in range(rd.num_nodes)])


def _weight(rd: RootDatum, target: Sequence) -> tuple:
    """sum_j c_j alpha_j with A c = target, A the Cartan matrix, solved on
    the Dynkin forest of A (_forest_solve) as integer numerators over one
    common denominator and summed over the nonzeros of the roots."""
    nums, denom = _forest_solve(rd._cartan_entries[0], target)
    acc = [0] * rd.rank
    for num, row in zip(nums, rd.root_entries):
        for a, x in row:
            acc[a] += num * x
    return tuple(Fraction(x, denom) for x in acc)


def _forest_solve(rows: Sequence, target: Sequence) -> tuple:
    """(nums, denom) with A @ nums = denom * target, in integers, for the
    Cartan matrix A whose row i has the nonzero (j, A_ij) entries rows[i],
    and whose graph (i ~ j when entry (i, j) or (j, i) is nonzero) is a
    forest.

    Leaf elimination without division: a leaf l with its one remaining
    neighbour p replaces p's equation by pivot_l * (p's) - coefficient *
    (l's).  Each pivot ends as the determinant of the subtree it heads, so
    a tree's root holds its determinant, and by Cramer's rule the solution
    times the lcm of those determinants is integral: back-substitution
    divides exactly.  Raises SelfCheckError when the graph has a cycle or a
    division is not exact, and SingularCartanError on a zero pivot; none of
    these happens for finite type.  Each row is read once as a dict, so
    the solve costs O(k) for the O(k) nonzeros of a forest.
    """
    k = len(rows)
    cartan = [dict(row) for row in rows]
    nbrs = [set(row) - {i} for i, row in enumerate(cartan)]
    for i in range(k):
        for j in nbrs[i]:
            nbrs[j].add(i)
    degree = [len(n) for n in nbrs]
    pivot = [cartan[i].get(i, 0) for i in range(k)]
    scale = [1] * k  # equation i is scale[i] times row i of the system
    rhs = list(target)
    removed = [False] * k
    steps = []  # (node, the neighbour it was folded into, or None)
    leaves = [i for i in range(k) if degree[i] <= 1]
    while leaves:
        i = leaves.pop()
        removed[i] = True
        parent = next((j for j in nbrs[i] if not removed[j]), None)
        steps.append((i, parent))
        if pivot[i] == 0:
            raise SingularCartanError("zero pivot at node %d of the Cartan matrix" % i)
        if parent is not None:
            a = scale[parent] * cartan[parent].get(i, 0)
            b = scale[i] * cartan[i].get(parent, 0)
            pivot[parent] = pivot[i] * pivot[parent] - a * b
            rhs[parent] = pivot[i] * rhs[parent] - a * rhs[i]
            scale[parent] *= pivot[i]
            degree[parent] -= 1
            if degree[parent] == 1:
                leaves.append(parent)
    if len(steps) != k:
        raise SelfCheckError("the Dynkin graph of the Cartan matrix is not a forest")
    denom = lcm(*(pivot[i] for i, parent in steps if parent is None))
    nums = [0] * k
    for i, parent in reversed(steps):
        value = rhs[i] * denom
        if parent is not None:
            value -= scale[i] * cartan[i].get(parent, 0) * nums[parent]
        nums[i], rest = divmod(value, pivot[i])
        if rest:
            raise SelfCheckError("leaf elimination left a remainder at node %d" % i)
    return nums, denom


def picard_torsion(rd: RootDatum) -> tuple:
    """Invariant factors > 1 of X_* / (lattice spanned by the simple coroots).

    Empty exactly when the derived group is simply connected.  Only the
    factors of the coroot matrix are read, so none of its transforms is built.
    """
    factors = invariant_factors(_dense(rd.coroot_entries, rd.rank))
    return tuple(f for f in factors if f > 1)


def _coroot_smith(rd: RootDatum, nodes: Iterable) -> SmithDecomposition:
    """Smith form of the coroot rows of nodes in increasing order, made from
    their nonzeros (0 x rank for no nodes).  It serves the nodes J0 of a
    Levi: columns |J0|.. of V are char_lattice_of_parabolic's basis of
    X*(L0), and the factors > 1 are the Picard torsion of L0."""
    rows = [rd.coroot_entries[j] for j in sorted(nodes)]
    return smith_normal_form(_dense(rows, rd.rank))
