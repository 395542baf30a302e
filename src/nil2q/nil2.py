"""Class-two nilpotent groups presented by explicit central-extension data.

A group is stored as (A, B, bil, carry): A is the abelianization with
generators e_1..e_r, B is the commutator subgroup, and the 2-cocycle on
canonical representatives splits as

    beta(x, y) = sum_ij x_i y_j bil[i][j]
               + sum_{i : d_i > 0} floor((x_i + y_i) / d_i) carry_i.

Elements are pairs (a, u) in A x B with

    (x, u) + (y, v) = (x + y, u + v + beta(x, y)).

As `bil` is killed by A's orders, a left-to-right sum of lifts of
canonical A-vectors c_i, for any integers x_i, has one closed form (s =
sum_i x_i c_i unreduced; n (x, u) is the one-vector case):

    x_1 (c_1, 0) + ... + x_k (c_k, 0) = (s, sum_{p<i} x_p x_i bil(c_p, c_i)
        + sum_i C(x_i, 2) bil(c_i, c_i) + sum_t floor(s_t / d_t) carry_t).

`CentralExtension` holds this layer: the cocycle, the element
constructors and `Nil2Element`, the one element arithmetic.  `Nil2Group`
adds validation, the Cayley table and the group invariants; the class-two
Lie ring of `maltsev` and the universal quadratic extension P2(G) of
`linext` are extensions too.  B is required to be exactly the commutator
subgroup: the antisymmetrized bilinear part must generate B, otherwise
construction is rejected.  One set of validators checks generator data
over B (shape and membership, torsion, values generating B) for `bil`,
the Lie bracket and q-map `delta` alike.

The module also provides the constructions (product, coproduct, free
group), the center, and the closure routines on integer tables that the
oracle masks of `qmaps` and the table ingestion of `ingest` share.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import mul, sub

from . import abelian as ab
from .errors import (
    CommutatorMismatch,
    InvalidArgument,
    InvalidCocycle,
    UnsupportedEnumeration,
)


def _quadratic(x):
    """The monomials of `_lift_sum`, i ascending: x_p x_i (p < i), C(x_i, 2)."""
    return tuple([x[p] * m if p < i else m * (m - 1) // 2
                  for i, m in enumerate(x) for p in range(i + 1)])


class Nil2Element:
    """Element (a, u) of a central extension, both components canonical.
    Elements are immutable values and may be shared: `QMap.eval` returns
    one object for equal values of the maps of one enumeration."""

    __slots__ = ("group", "a", "b")

    def __init__(self, group, a, b):
        self.group = group
        self.a = a
        self.b = b

    def _check(self, other):
        if self.group is not other.group and self.group != other.group:
            raise InvalidArgument("elements of different nil_2-groups")

    def __add__(self, other):
        self._check(other)
        g = self.group
        x, y = self.a.coords, other.a.coords
        coc = g._cocycle_coords(x, y)
        return type(self)(g, g.A._trusted([p + q for p, q in zip(x, y)]),
                          g.B._trusted([p + q + c for p, q, c
                                        in zip(self.b.coords, other.b.coords, coc)]))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, n):
        """n (x, u) by `CentralExtension._times`; an int n."""
        if not isinstance(n, int):
            return NotImplemented
        s, v = self.group._times(n, self.a.coords, self.b.coords)
        return type(self)(self.group, self.group.A._trusted(s), self.group.B._trusted(v))

    __rmul__ = __mul__

    def comm(self, other) -> "Nil2Element":
        """The commutator [self, other] = -self - other + self + other."""
        self._check(other)
        g = self.group
        return type(self)(g, g.A.zero(), g.commutator_pairing(self.a, other.a))

    def is_zero(self):
        return self.a.is_zero() and self.b.is_zero()

    def order(self) -> int:
        """Element order, 0 for infinite: m = ord(x) times the order of m (x, u)."""
        m = self.a.order()
        return m * (m * self).b.order()

    def __eq__(self, other):
        return (isinstance(other, Nil2Element)
                and (self.group is other.group or self.group == other.group)
                and self.a == other.a and self.b == other.b)

    def __hash__(self):
        return hash((self.a.coords, self.b.coords))

    def __repr__(self):
        return f"({','.join(map(str, self.a.coords))} | {','.join(map(str, self.b.coords))})"


class CentralExtension:
    """Pairs (a, u) in A x B under the cocycle beta of `bil` and `carry`.

    Subclasses validate their data and pass it to this constructor, which
    keeps flat coordinate caches for the hot cocycle path; elements are
    built as `element_class`.  `commutators[i][j]` = bil[i][j] - bil[j][i]
    is [e_i, e_j] in B, formed on coordinates.  `_terms` is the last pair
    (target, `qmaps._relations` terms) that q-map validation used from here.
    """

    __slots__ = ("A", "B", "commutators", "_orders", "_borders", "_bilc",
                 "_commc", "_carryc", "_terms")
    element_class = Nil2Element

    def __init__(self, A, B, bil, carry):
        self.A, self.B, self._terms = A, B, None
        self._orders, self._borders = A.orders, B.orders
        bilc = [[e.coords for e in row] for row in bil]
        self.commutators = tuple(tuple(B._trusted(map(sub, x, y)) for x, y in zip(row, col))
                                 for row, col in zip(bilc, zip(*bilc)))
        self._bilc, self._commc = (
            tuple(tuple(c if any(c) else None for c in row) for row in mat)
            for mat in (bilc, [[e.coords for e in row] for row in self.commutators]))
        self._carryc = tuple(e.coords if any(e.coords) else None for e in carry)

    @property
    def rank(self):
        return self.A.rank

    def is_finite(self):
        return self.A.is_finite() and self.B.is_finite()

    def order(self):
        return self.A.order() * self.B.order() if self.is_finite() else 0

    def element(self, acoords, bcoords):
        return self.element_class(self, self.A.element(acoords), self.B.element(bcoords))

    def pair(self, a: ab.AbElement, b: ab.AbElement):
        if a.group != self.A or b.group != self.B:
            raise InvalidArgument("components not in A and B")
        return self.element_class(self, a, b)

    def zero(self):
        return self.element_class(self, self.A.zero(), self.B.zero())

    def gen(self, i: int):
        """The chosen lift (e_i, 0) of abelianization generator i."""
        return self.element_class(self, self.A.gen(i), self.B.zero())

    def central(self, b: ab.AbElement):
        """The element (0, b) of the commutator subgroup."""
        if b.group != self.B:
            raise InvalidArgument("not an element of B")
        return self.element_class(self, self.A.zero(), b)

    def elements(self):
        """All elements, deterministic (A x B lexicographic) order."""
        if not self.is_finite():
            raise UnsupportedEnumeration(f"cannot enumerate infinite group {self}")
        for a in self.A.elements():
            for b in self.B.elements():
                yield self.element_class(self, a, b)

    def cocycle(self, x: ab.AbElement, y: ab.AbElement) -> ab.AbElement:
        """beta(x, y) evaluated on canonical representatives."""
        return self.B._trusted(self._cocycle_coords(x.coords, y.coords))

    def _cocycle_coords(self, x, y):
        acc = ab._bilinear_into([0] * len(self._borders), x, y, self._bilc)
        for i, di in enumerate(self._orders):
            if di > 0 and x[i] + y[i] >= di:
                e = self._carryc[i]
                if e is not None:
                    for t, et in enumerate(e):
                        acc[t] += et
        return acc

    def _lift_rows(self, cols):
        """Per B-coordinate, the coefficients bil(c_p, c_i) of `_quadratic`
        in `_lift_sum` over the canonical A-vectors `cols`."""
        nb = len(self._borders)
        entries = [ab._bilinear_into([0] * nb, cols[p], c, self._bilc)
                   for i, c in enumerate(cols) for p in range(i + 1)]
        return list(zip(*entries)) if entries else [()] * nb

    def _lift_sum(self, rows, quad, s):
        """B-part, unreduced, of the closed form (module docstring): `rows`
        of the c_i times quad = `_quadratic(x)`, plus the carries of s."""
        acc = [sum(map(mul, row, quad)) for row in rows]
        for d, e, st in zip(self._orders, self._carryc, s):
            if e is not None:
                acc = [u + st // d * et for u, et in zip(acc, e)]
        return acc

    def _times(self, n, x, u):
        """n (x, u) on coordinates, unreduced: the closed form's one-vector case."""
        s = [n * c for c in x]
        lift = self._lift_sum(self._lift_rows([x]), (n * (n - 1) // 2,), s)
        return s, [n * v + w for v, w in zip(u, lift)]

    def commutator_pairing(self, x: ab.AbElement, y: ab.AbElement) -> ab.AbElement:
        """The commutator [(x,*), (y,*)] in B: the antisymmetrized cocycle,
        whose symmetric carries cancel, so sum_ij x_i y_j commutators[i][j]."""
        return self.B._trusted(ab._bilinear_into([0] * len(self._borders), x.coords,
                                                 y.coords, self._commc))


# ---------------------------------------------------------------------------
# Validation of generator data over B: bil and carry here, the bracket of
# `maltsev`, gamma and delta of `qmaps`.

def _check_entries(name, entries, r, B):
    """Shape and membership: r entries of B, or r rows of r entries of B
    (rows are tuples).  InvalidArgument names the first bad entry."""
    if len(entries) != r:
        raise InvalidArgument(f"{name} must have {r} entries")
    for i, e in enumerate(entries):
        if isinstance(e, tuple):
            _check_entries(f"{name}[{i+1}]", e, r, B)
        elif e.group != B:
            raise InvalidArgument(f"{name}[{i+1}] not in B")


def _check_torsion(name, mat, orders, error):
    """mat[i][j] is killed by the generator orders d_i and d_j (by their gcd)."""
    for i, di in enumerate(orders):
        for j, dj in enumerate(orders):
            e = mat[i][j]
            if not ab._kills(gcd(di, dj), e.coords, e.group.orders):
                raise error(f"{name}[{i+1}][{j+1}] = {e} not killed by generator "
                            f"orders ({di}, {dj})")


def _check_generates(what, mat, B):
    """The values mat[i][j], i < j, generate B: one Smith form, without row
    transforms, of B's relation columns and the values is all ones."""
    values = [e for i, row in enumerate(mat) for e in row[i + 1:]]
    cols = ab._relation_columns(B) + [e.coords for e in values]
    if B.orders and ab.SmithForm(list(zip(*cols)), B.rank, len(cols),
                                 rows=False).diag.count(1) != B.rank:
        from .abelian_constructions import subgroup_generated
        raise CommutatorMismatch(
            f"{what} generate a proper subgroup of B with invariants "
            f"{list(subgroup_generated(values, B).invariants())}, B = {B}")


class Nil2Group(CentralExtension):
    """A nil_2-group as central-extension data over explicit cocycles."""

    __slots__ = ("bil", "carry", "provenance", "_table")

    def __init__(self, A, B, bil, carry, provenance=None):
        self._table = None
        self.bil = tuple(tuple(row) for row in bil)
        self.carry = tuple(carry)
        self.provenance = provenance
        r = A.rank
        _check_entries("bil", self.bil, r, B)
        _check_entries("carry", self.carry, r, B)
        _check_torsion("bil", self.bil, A.orders, InvalidCocycle)
        for i, d in enumerate(A.orders):
            if d == 0 and any(self.carry[i].coords):
                raise InvalidCocycle(f"carry[{i+1}] nonzero on an infinite cyclic factor")
        super().__init__(A, B, self.bil, self.carry)
        _check_generates("commutators", self.commutators, B)

    def is_abelian(self):
        return self.B.is_trivial()

    def __eq__(self, other):
        return (isinstance(other, Nil2Group) and self.A == other.A
                and self.B == other.B and self.bil == other.bil
                and self.carry == other.carry)

    def __hash__(self):
        return hash((self.A, self.B,
                     tuple(tuple(e.coords for e in row) for row in self.bil),
                     tuple(e.coords for e in self.carry)))

    def __repr__(self):
        return f"Nil2Group(A={self.A}, B={self.B})"

    def __str__(self):
        return f"G[{self.A}|{self.B}]"

    def table(self) -> "CayleyTable":
        """The integer Cayley table, built on first use (finite groups)."""
        if self._table is None:
            self._table = CayleyTable(self)
        return self._table

    def exponent(self) -> int:
        """From generator data: n(x + y) = nx + ny - C(n, 2)[x, y], so the
        n-torsion is a subgroup once C(n, 2) kills the generator commutators.
        With n0 = lcm(exp B, orders of the lifts gen(i)) that gives n0, and
        2 n0 when C(n0, 2) fails to kill some [e_i, e_j]."""
        if not self.is_finite():
            raise InvalidArgument("exponent of an infinite group")
        n = lcm(self.B.exponent(), *(self.gen(i).order() for i in range(self.rank)))
        c = n * (n - 1) // 2
        return n if all((c * e).is_zero() for row in self.commutators for e in row) else 2 * n


def _sum_table(orders):
    """Index table of addition in Z/d_1 + ... + Z/d_r, elements in
    lexicographic coordinate order.  Factor by factor, (i d + x) + (j d + y)
    is (i + j) d + (x + y mod d), with i + j read off the table of the
    factors before, and row x of Z/d is range(d) rotated by x."""
    t = [[0]]
    for d in orders:
        runs = [list(range(s * d, s * d + d)) * 2 for s in range(len(t))]
        t = [list(itertools.chain.from_iterable(runs[s][x:x + d] for s in row))
             for row in t for x in range(d)]
    return t


class CayleyTable:
    """Integer Cayley table of a finite nil_2-group, built from the group law.

    Element i is the i-th of `group.elements()`, so zero is 0; `index` maps
    its coordinates (a.coords, b.coords) to i, and `add[i][j]` and `neg[i]`
    are the indices of sums and negatives.  (a, u) is at pos(a) |B| + pos(u),
    so `add` comes from the sums in A and B and the cocycle.  Coordinates
    come from `itertools.product` over the cyclic orders (`elements()`
    order), and keys are coordinates, so the table holds no element and no
    reference to its group.
    `masks` keeps the membership masks of `qmaps`' oracles, which fill it
    on first use.
    """

    __slots__ = ("index", "add", "neg", "masks")

    def __init__(self, group):
        if not group.is_finite():
            raise UnsupportedEnumeration(f"cannot enumerate infinite group {group}")
        A, B = group.A, group.B
        acoords, bcoords = (list(itertools.product(*map(range, K.orders))) for K in (A, B))
        self.index = {z: i for i, z in enumerate(itertools.product(acoords, bcoords))}
        asum, bsum = _sum_table(A.orders), _sum_table(B.orders)
        na, nb = len(asum), len(bsum)
        if nb == 1:         # B = 0: the sums in A, and no cocycle call
            self.add = asum
        else:
            bpos = {u: i for i, u in enumerate(bcoords)}
            coc = [[bpos[tuple(c % d for c, d in zip(group._cocycle_coords(x, y), B.orders))]
                    for y in acoords] for x in acoords]
            self.add = [[asum[i][j] * nb + bsum[bsum[u][v]][coc[i][j]]
                         for j in range(na) for v in range(nb)]
                        for i in range(na) for u in range(nb)]
        self.neg = [row.index(0) for row in self.add]
        self.masks = {}


# ---------------------------------------------------------------------------
# Constructors.

def make(A, B, bil, carry, provenance=None) -> Nil2Group:
    """Validate cocycle data and build the group."""
    return Nil2Group(A, B, bil, carry, provenance)


def from_abelian(A: ab.FGAbelian) -> Nil2Group:
    """An abelian group viewed as a nil_2-group with trivial B."""
    B = ab.FGAbelian([])
    z = B.zero()
    r = A.rank
    return Nil2Group(A, B, [[z] * r for _ in range(r)], [z] * r,
                     provenance=("abelian",))


def _block_sum(g1: Nil2Group, g2: Nil2Group, tail: ab.FGAbelian):
    """Data of g1 x g2 with B widened by `tail`: (A1 + A2, B1 + B2 + tail,
    block-diagonal bil, carry, the embedding of tail's coordinates into B)."""
    A = ab.direct_sum(g1.A, g2.A)
    B = ab.direct_sum(ab.direct_sum(g1.B, g2.B), tail)

    def embedding(offset):
        return lambda c: B._trusted((0,) * offset + tuple(c)
                                    + (0,) * (B.rank - offset - len(c)))

    emb1, emb2 = embedding(0), embedding(g1.B.rank)
    z = B.zero()
    bil = ([[emb1(e.coords) for e in row] + [z] * g2.rank for row in g1.bil]
           + [[z] * g1.rank + [emb2(e.coords) for e in row] for row in g2.bil])
    carry = [emb1(e.coords) for e in g1.carry] + [emb2(e.coords) for e in g2.carry]
    return A, B, bil, carry, embedding(g1.B.rank + g2.B.rank)


def _factor(whole: Nil2Group, tag: str, k: int):
    """Factor k of a group built by `product` or `coproduct` (named by
    `tag`), with the offsets of its generators in `whole`'s A and B: the
    block layout of `_block_sum`."""
    prov = whole.provenance
    if not prov or prov[0] != tag:
        raise InvalidArgument(f"group was not built as a {tag}")
    if k not in (0, 1):
        raise InvalidArgument(f"factor index {k!r} is not 0 or 1")
    return prov[1 + k], k * prov[1].rank, k * prov[1].B.rank


def product(g1: Nil2Group, g2: Nil2Group) -> Nil2Group:
    """Direct product: block-diagonal cocycle data."""
    A, B, bil, carry, _ = _block_sum(g1, g2, ab.FGAbelian([]))
    return Nil2Group(A, B, bil, carry, provenance=("product", g1, g2))


def coproduct(g1: Nil2Group, g2: Nil2Group) -> Nil2Group:
    """Coproduct in the category of nil_2-groups.

    B gains the extra summand A1 (x) A2; the cocycle cross term sends the
    generator pair (f_j in the A2 slot, e_i in the A1 slot) to
    -(e_i (x) f_j), matching the group law
    (xi, g, h) + (xi', g', h') = (xi + xi' - g'^ (x) h^, g + g', h + h').
    """
    from .abelian_constructions import tensor
    tens = tensor(g1.A, g2.A)
    A, B, bil, carry, embt = _block_sum(g1, g2, tens.group)
    r1 = g1.rank
    for j in range(g2.rank):
        for i in range(r1):
            bil[r1 + j][i] = embt([-c for c in tens.pure(g1.A.gen(i), g2.A.gen(j)).coords])
    return Nil2Group(A, B, bil, carry,
                     provenance=("coproduct", g1, g2, tens))


def free(n: int) -> Nil2Group:
    """The free nil_2-group of rank n: B = Lambda^2(Z^n)."""
    if n < 0:
        raise InvalidArgument("rank must be nonnegative")
    from .abelian_constructions import exterior_square
    A = ab.FGAbelian([0] * n)
    ext = exterior_square(A)
    B = ext.group
    z = B.zero()
    bil = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bil[i][j] = B.gen(ext.position(i, j))
    carry = [z] * n
    return Nil2Group(A, B, bil, carry, provenance=("free", n, ext))


# ---------------------------------------------------------------------------
# Center.

class CenterInfo:
    """The center as (kernel of the commutator pairing) x B."""

    def __init__(self, group: Nil2Group):
        self.group = group
        rows = [[row[k].coords[t] for row in group.commutators]
                for k in range(group.rank) for t in range(group.B.rank)]
        target = ab.FGAbelian(group.B.orders * group.rank)
        pairing = ab.AbHom(group.A, target, rows)
        self.a_kernel = ab.kernel(pairing)[0]
        self._pairing = pairing

    def contains(self, z: Nil2Element) -> bool:
        if z.group != self.group:
            raise InvalidArgument("element of a different group")
        return self._pairing.apply(z.a).is_zero()

    def order(self) -> int:
        ka = self.a_kernel.order()
        kb = self.group.B.order()
        return ka * kb if ka and kb else 0

    def invariants(self):
        """Invariant factors of the A-part kernel and of B."""
        return self.a_kernel.invariant_factors(), self.group.B.invariant_factors()


def center(group: Nil2Group) -> CenterInfo:
    return CenterInfo(group)


# ---------------------------------------------------------------------------
# Finite integer tables: the closure routines of `qmaps`' oracles and
# of `ingest`.

def _greedy_generators(table, identity):
    """Greedy generators of a finite Cayley table: each element, in index
    order, that right multiplication from the identity by the earlier ones
    does not reach.  Each at least doubles the span: at most log2 n."""
    gens, span = [], {identity}
    for x in range(len(table)):
        if x not in span:
            gens.append(x)
            span = _closure(table, identity, gens)
    return gens


def _comm(table, neg, x, y):
    """[x, y] = -(y + x) + (x + y) in additive convention."""
    return table[neg[table[y][x]]][table[x][y]]


def _closure(table, identity, gens):
    """The subgroup `gens` generate in a finite table: what right
    multiplication by them reaches from the identity."""
    span, todo = {identity}, [identity]
    for x in todo:
        new = {table[x][g] for g in gens} - span
        span |= new
        todo += new
    return span


def _derived(table, neg, identity, gens):
    """[G, G] of a class-two table: the commutator is bilinear there, so the
    [s, t] over the generating set `gens` generate it."""
    return _closure(table, identity, {_comm(table, neg, s, t) for s in gens for t in gens})


def table_of(group: Nil2Group):
    """Multiplication table of a finite Nil2Group (elements in lex order),
    as an `ingest.GroupOracle`."""
    from .ingest import GroupOracle
    return GroupOracle([repr(z) for z in group.elements()], group.table().add, 0)
