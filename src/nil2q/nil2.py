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
Lie ring of `maltsev` is the extension with zero bilinear part, and the
universal quadratic extension P2(G) is G's data with B widened by
A (x) A.  B is required to be exactly the commutator subgroup: the
antisymmetrized bilinear part must generate B, otherwise construction is
rejected.  One set of validators checks generator data over B (shape and
membership, torsion, values generating B) for `bil`, the Lie bracket and
q-map `delta` alike.

The module also provides the constructions (product, coproduct, free
group, the universal quadratic extension), ingestion of concrete finite
groups via multiplication tables, and canonicalization of any finite
class-two table into this format.  Ingestion costs O(n^2 |S|) integer
steps for a greedy generating set S: Light's associativity test at each
generator, class two from the commutators of generator pairs, and the
canonical bijection verified on all n^2 products against `table()`.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm
from operator import itemgetter, mul, sub

from . import abelian as ab
from .errors import (
    CommutatorMismatch,
    InvalidArgument,
    InvalidCocycle,
    NotAGroup,
    NotAnAction,
    NotClassTwo,
    UnsupportedEnumeration,
)


def _quadratic(x):
    """The monomials of `_lift_sum`, i ascending: x_p x_i (p < i), C(x_i, 2)."""
    return tuple([x[p] * m if p < i else m * (m - 1) // 2
                  for i, m in enumerate(x) for p in range(i + 1)])


class Nil2Element:
    """Element (a, u) of a central extension, both components canonical.
    Elements are immutable values and may be shared: `QMap.eval` returns
    one object for equal values of the maps sharing a plan."""

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
        raise CommutatorMismatch(
            f"{what} generate a proper subgroup of B with invariants "
            f"{list(ab.subgroup_generated(values, B).invariants())}, B = {B}")


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
    `by_max` and `masks` are kept here for the function-level oracles of
    `qmaps`, which fill them on first use.
    """

    __slots__ = ("index", "add", "neg", "by_max", "masks")

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
        self.by_max, self.masks = None, {}


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
    tens = ab.tensor(g1.A, g2.A)
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
    A = ab.FGAbelian([0] * n)
    ext = ab.exterior_square(A)
    B = ext.group
    z = B.zero()
    bil = [[z] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            bil[i][j] = B.gen(ext.position(i, j))
    carry = [z] * n
    return Nil2Group(A, B, bil, carry, provenance=("free", n, ext))


# ---------------------------------------------------------------------------
# The universal quadratic central extension P2.

class P2Element(Nil2Element):
    """Element (xi, g) of P2(G), stored as (a, (u, xi)) with g = (a, u)."""

    __slots__ = ()

    @property
    def xi(self):
        ext = self.group
        return ab.AbElement(ext.tensor.group, self.b.coords[ext.base.B.rank:])

    @property
    def g(self):
        base = self.group.base
        return Nil2Element(base, self.a, ab.AbElement(base.B, self.b.coords[:base.B.rank]))


class P2Extension(CentralExtension):
    """The central extension 0 -> A (x) A -> P2(G) -> G -> 0.

    Pairs (xi, g) with (xi, g) + (xi', g') = (xi + xi' - g^ (x) g'^, g + g'):
    G's data with B widened by A (x) A and -(e_i (x) e_j) added to bil[i][j].
    The section p2(g) = (0, g) is the universal quadratic map out of G.
    """

    __slots__ = ("base", "tensor")
    element_class = P2Element

    def __init__(self, base: Nil2Group):
        self.base = base
        self.tensor = tens = ab.tensor(base.A, base.A)
        _, B, bil, carry, embt = _block_sum(base, from_abelian(ab.FGAbelian([])), tens.group)
        e = base.A.gen
        bil = [[B._trusted(map(sub, x.coords, embt(tens.pure(e(i), e(j)).coords).coords))
                for j, x in enumerate(row)] for i, row in enumerate(bil)]
        super().__init__(base.A, B, bil, carry)

    def element(self, xi, g):
        if xi.group != self.tensor.group or g.group != self.base:
            raise InvalidArgument("components not in A (x) A and G")
        return P2Element(self, g.a, ab.AbElement(self.B, g.b.coords + xi.coords))

    def p2(self, g: Nil2Element) -> P2Element:
        return self.element(self.tensor.group.zero(), g)

    def proj(self, el: P2Element) -> Nil2Element:
        return el.g

    def elements(self):
        """All elements, xi-major: A (x) A outer, G's order inner."""
        if not self.is_finite():
            raise UnsupportedEnumeration("cannot enumerate an infinite extension")
        for xi in self.tensor.group.elements():
            for g in self.base.elements():
                yield self.element(xi, g)


def p2_extension(g: Nil2Group) -> P2Extension:
    return P2Extension(g)


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
        self.a_kernel, self.a_incl = ab.kernel(pairing)
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
# Concrete finite groups as multiplication tables.

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


class GroupOracle:
    """A finite group given by labels and a total multiplication table."""

    def __init__(self, labels, table, identity):
        self.labels = tuple(str(x) for x in labels)
        self.table = tuple(tuple(map(int, row)) for row in table)
        self.identity = int(identity)
        self._inv = None
        self._validate()

    def _validate(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise NotAGroup("multiplication table is not total")
        for row in self.table:
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise NotAGroup(f"table entry {v} out of range")
        e = self.identity
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise NotAGroup(f"'{self.labels[e]}' is not an identity")
        # the first y with xy = e = yx, scanning only where row x holds e
        inv = []
        for x, row in enumerate(self.table):
            try:
                y = row.index(e)
                while self.table[y][x] != e:
                    y = row.index(e, y + 1)
            except ValueError:
                raise NotAGroup(f"'{self.labels[x]}' has no inverse") from None
            inv.append(y)
        self._inv = tuple(inv)
        # Light's test: {a : (xa)y = x(ay) for all x, y} holds e and is closed
        # under the product, so it is everything once it holds a generating set
        t = self.table
        for a in self.generating_set():
            right = itemgetter(*t[a])       # row of x -> the row of x(ay) over y
            for x in range(n):
                xa = t[x][a]
                if t[xa] != right(t[x]):
                    y = next(y for y in range(n) if t[xa][y] != t[x][t[a][y]])
                    raise NotAGroup(
                        f"associativity fails at ({self.labels[x]}, "
                        f"{self.labels[a]}, {self.labels[y]})")

    def __len__(self):
        return len(self.labels)

    def comm(self, x, y):
        return _comm(self.table, self._inv, x, y)

    def power(self, x, n):
        if n < 0:
            return self.power(self._inv[x], -n)
        acc = self.identity
        for _ in range(n):
            acc = self.table[acc][x]
        return acc

    def subgroup_closure(self, gens):
        return _closure(self.table, self.identity, list(gens))

    def generating_set(self):
        return _greedy_generators(self.table, self.identity)

    def commutator_subgroup(self):
        return _derived(self.table, self._inv, self.identity, self.generating_set())

    def is_class_two(self) -> bool:
        """Each [s, t] over the generating set S commutes with S: then the
        images of S commute in G/Z(G), which they generate."""
        gens, t = self.generating_set(), self.table
        comms = {self.comm(a, b) for a in gens for b in gens}
        return all(t[c][s] == t[s][c] for c in comms for s in gens)

    @classmethod
    def from_text(cls, text: str) -> "GroupOracle":
        """Parse the ingestion format: element labels, `id = <label>`,
        and one `a * b = c` line per product."""
        labels = None
        identity_label = None
        products = {}           # (a, b) -> c, in the order given
        statements = []
        for raw in text.replace(";", "\n").splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                statements.append(line)
        for line in statements:
            if "*" in line:
                lhs, _, rhs = line.partition("=")
                a, _, b = lhs.partition("*")
                a, b, c = a.strip(), b.strip(), rhs.strip()
                if not (a and b and c):
                    raise NotAGroup(f"malformed product line: {line!r}")
                if (a, b) in products:
                    raise NotAGroup(f"product {a} * {b} is given twice")
                products[a, b] = c
            elif line.startswith("elements"):
                if labels is not None:
                    raise NotAGroup("`elements` is declared twice")
                _, _, rhs = line.partition("=")
                labels = [tok for tok in rhs.replace(",", " ").split() if tok]
                seen = set()
                for tok in labels:
                    if tok in seen:
                        raise NotAGroup(f"element label {tok!r} is repeated in `elements`")
                    seen.add(tok)
            elif line.startswith("id"):
                if identity_label is not None:
                    raise NotAGroup("`id` is declared twice")
                _, _, rhs = line.partition("=")
                identity_label = rhs.strip()
            else:
                raise NotAGroup(f"unrecognized oracle line: {line!r}")
        if identity_label is None:
            raise NotAGroup("missing `id = <label>` line")
        if labels is None:
            labels = list(dict.fromkeys(tok for (a, b), c in products.items()
                                        for tok in (a, b, c)))
        index = {lab: i for i, lab in enumerate(labels)}
        if identity_label not in index:
            raise NotAGroup(f"identity label {identity_label!r} not declared")
        n = len(labels)
        table = [[None] * n for _ in range(n)]
        for (a, b), c in products.items():
            for tok in (a, b, c):
                if tok not in index:
                    raise NotAGroup(f"undeclared element label {tok!r}")
            table[index[a]][index[b]] = index[c]
        for i in range(n):
            for j in range(n):
                if table[i][j] is None:
                    raise NotAGroup(
                        f"table is not total: missing {labels[i]} * {labels[j]}")
        return cls(labels, table, index[identity_label])


def table_of(group: Nil2Group) -> GroupOracle:
    """Multiplication table of a finite Nil2Group (elements in lex order)."""
    return GroupOracle([repr(z) for z in group.elements()], group.table().add, 0)


def semidirect(n: int, m: int, k: int) -> GroupOracle:
    """The semidirect product Z/n x| Z/m, generator acting by a -> k*a.

    Requires k^m = 1 (mod n) for a genuine action and (k-1)^2 = 0 (mod n)
    for nilpotence class two.
    """
    if n < 1 or m < 1:
        raise InvalidArgument("moduli must be positive")
    if pow(k, m, n) != 1 % n:
        raise NotAnAction(f"k^m = {pow(k, m, n)} != 1 (mod {n})")
    if (k - 1) ** 2 % n != 0:
        raise NotClassTwo(f"(k-1)^2 = {(k - 1) ** 2} != 0 (mod {n})")
    elems = [(a, b) for a in range(n) for b in range(m)]
    ids = list(range(n * m))            # (a, b) is a * m + b
    # row (a, b) is, for each a2, the block of a + k^b a2 rotated by b
    block = [[ids[s + b:s + m] + ids[s:s + b] for s in range(0, n * m, m)]
             for b in range(m)]
    kb = [pow(k, b, n) for b in range(m)]
    table = [list(itertools.chain.from_iterable(
        block[b][(a + kb[b] * a2) % n] for a2 in range(n))) for a, b in elems]
    labels = [f"({a},{b})" for a, b in elems]
    return GroupOracle(labels, table, 0)


# ---------------------------------------------------------------------------
# Abelian structure of a (sub)table, and canonicalization.

def _element_orders(table, identity):
    out = []
    for i in range(len(table)):
        n, x = 1, i
        while x != identity:
            x = table[x][i]
            n += 1
        out.append(n)
    return out


def _quotient(table, sub):
    """Left cosets x + sub of the subgroup `sub` of a finite table, as
    (coset_of, reps, qtable): the coset index of each element, the
    smallest element of each coset, and the quotient table on indices."""
    coset_of = [None] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] is None:
            # x is the smallest element not yet in a coset, so it is the
            # smallest element of its own coset
            for y in (table[x][s] for s in sub):
                coset_of[y] = len(reps)
            reps.append(x)
    qtable = [[coset_of[table[c1][c2]] for c2 in reps] for c1 in reps]
    return coset_of, reps, qtable


def _abelian_basis(table, identity):
    """Basis of a finite abelian multiplication table.

    Returns (gens, orders, coords): generator indices with orders in a
    decreasing divisibility chain, and a dict element -> coordinates.
    Greedy: an element of maximal order splits off as a direct summand;
    the quotient basis is lifted preserving orders.
    """
    n = len(table)
    if n == 1:
        return [], [], {identity: ()}
    orders = _element_orders(table, identity)
    d = max(orders)
    q = orders.index(d)
    powers = [identity]
    x = identity
    for _ in range(d - 1):
        x = table[x][q]
        powers.append(x)
    power_index = {p: i for i, p in enumerate(powers)}
    if d == n:
        coords = {p: (i,) for i, p in enumerate(powers)}
        return [q], [d], coords
    coset_of, reps, qtable = _quotient(table, powers)
    qgens, qorders, _ = _abelian_basis(qtable, coset_of[identity])
    gens, gorders = [q], [d]
    for cg, m in zip(qgens, qorders):
        h = reps[cg]
        mh = identity
        for _ in range(m):
            mh = table[mh][h]
        k = power_index[mh]
        assert k % m == 0, "maximal-order summand lift failed"
        t = (-(k // m)) % d
        gens.append(table[h][powers[t]])
        gorders.append(m)
    coords = {}
    for tup in itertools.product(*(range(o) for o in gorders)):
        acc = identity
        for g, c in zip(gens, tup):
            for _ in range(c):
                acc = table[acc][g]
        assert acc not in coords, "generator coordinates collide"
        coords[acc] = tup
    assert len(coords) == n, "generators do not span the table"
    return gens, gorders, coords


class Canonicalization:
    """Result of canonicalizing a finite class-two table: `to_oracle[i]` is
    the oracle index of the i-th element of `group.elements()`."""

    def __init__(self, group, oracle, to_oracle):
        self.group = group
        self.oracle = oracle
        self.to_oracle = to_oracle


def canonicalize_finite(oracle: GroupOracle) -> Canonicalization:
    """Read central-extension data off a finite class-two table.

    The table has already passed Light's associativity test; class two is
    checked on commutators of generator pairs.  Chooses invariant-factor
    generators of G/[G,G] greedily, lifts them (smallest element index in
    each coset), and reads bil from commutators of the lifts and carry from
    their d_i-fold sums.  The returned bijection, built in
    `group.elements()` order, is verified on all n^2 products against
    `group.table()`, which comes from the cocycle and not from the oracle.
    """
    if not oracle.is_class_two():
        raise NotClassTwo("table has nilpotence class greater than two")
    n = len(oracle)
    t = oracle.table
    comm_set = oracle.commutator_subgroup()
    celems = sorted(comm_set)
    cindex = {x: i for i, x in enumerate(celems)}
    ctable = [[cindex[t[x][y]] for y in celems] for x in celems]
    cgens, corders, ccoords = _abelian_basis(ctable, cindex[oracle.identity])
    B = ab.FGAbelian(corders)

    def bcoords(x):
        return B.element(ccoords[cindex[x]])

    coset_of, reps, qtable = _quotient(t, celems)
    qgens, qorders, _ = _abelian_basis(qtable, coset_of[oracle.identity])
    lifts = [reps[c] for c in qgens]
    A = ab.FGAbelian(qorders)
    r = len(lifts)
    z = B.zero()
    bil = [[z] * r for _ in range(r)]
    for i in range(r):
        for j in range(i):
            bil[i][j] = bcoords(oracle.comm(lifts[i], lifts[j]))
    carry = [bcoords(oracle.power(lifts[i], qorders[i])) for i in range(r)]
    group = Nil2Group(A, B, bil, carry)

    to_oracle = []
    for acoords in itertools.product(*(range(d) for d in qorders)):
        s = oracle.identity
        for g, c in zip(lifts, acoords):
            s = t[s][oracle.power(g, c)]
        for bco in itertools.product(*(range(e) for e in corders)):
            x = s
            for cg, c in zip(cgens, bco):
                x = t[x][oracle.power(celems[cg], c)]
            to_oracle.append(x)
    if len(set(to_oracle)) != n:
        raise NotAGroup("canonicalization bijection failed")  # pragma: no cover
    image = to_oracle.__getitem__
    for i, row in enumerate(group.table().add):
        if list(map(image, row)) != list(map(t[image(i)].__getitem__, to_oracle)):
            raise NotAGroup(
                "canonicalized data does not reproduce the table at "
                f"element {i} of the group")  # pragma: no cover
    return Canonicalization(group, oracle, to_oracle)
