"""Constructions on finitely generated abelian groups over `abelian`'s
Smith-form presentations: subgroups, cokernels, the canonical
decomposition and isomorphism witnesses, the multilinear constructions
(tensor product, exterior and symmetric square) with a fixed generator
indexing, and hom-set sizes.

Loaded on first use: by `nil2.coproduct` and `nil2.free`, by the error
branch of `nil2`'s check that commutators generate B, by the hom count of
`classify.niq_iso_decide`'s log-criterion guard, and by `verify` and
`linext`.  So `info Q8` and `iso D4 Q8` do not load it.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from math import gcd

from . import abelian as ab
from .errors import InvalidArgument, UnsupportedEnumeration

# ---------------------------------------------------------------------------
# Subgroups and cokernels.

class Subgroup:
    """Subgroup of an FGAbelian group generated by a list of elements.

    The constructor computes nothing.  `is_whole`, `index` and `contains`
    read the quotient ambient / subgroup, one `abelian._present` Smith form: x is
    a member exactly when its image there is zero.  `group` (and so
    `order` and `invariants`) presents Z^k modulo the preimage of the
    ambient relation lattice on first use.  Each is cached.
    """

    def __init__(self, ambient: ab.FGAbelian, elements):
        elements = list(elements)
        for e in elements:
            if e.group != ambient:
                raise InvalidArgument("generator not in the ambient group")
        self.ambient = ambient
        self.generators = elements

    @cached_property
    def _quotient(self):
        """(ambient / subgroup, the rows of the projection onto it)."""
        return ab._present(self.ambient.rank, ab._relation_columns(self.ambient)
                           + [e.coords for e in self.generators])[:2]

    @cached_property
    def group(self) -> ab.FGAbelian:
        """The subgroup as an abstract group, in invariant-factor form."""
        k, rank = len(self.generators), self.ambient.rank
        gen_rows = [[e.coords[i] for e in self.generators] for i in range(rank)]
        return ab.presented(k, ab._preimage_lattice(gen_rows, self.ambient, k))

    def invariants(self) -> tuple:
        return self.group.orders

    def order(self) -> int:
        return self.group.order()

    def contains(self, x: ab.AbElement) -> bool:
        if x.group != self.ambient:
            raise InvalidArgument("element not in the ambient group")
        quotient, proj = self._quotient
        return quotient._trusted(ab.mat_vec(proj, x.coords)).is_zero()

    def is_whole(self) -> bool:
        return self._quotient[0].is_trivial()

    def index(self) -> int:
        """Index in the ambient group; 0 when infinite."""
        return self._quotient[0].order()


def subgroup_generated(elements, ambient: ab.FGAbelian = None) -> Subgroup:
    elements = list(elements)
    if ambient is None:
        if not elements:
            raise InvalidArgument("need an ambient group for the empty subgroup")
        ambient = elements[0].group
    return Subgroup(ambient, elements)


def cokernel(h: ab.AbHom):
    """Cokernel of h as (group C, projection target -> C)."""
    tgt = h.target
    c, proj, _ = ab._present(tgt.rank,
                             ab._relation_columns(tgt) + [y.coords for y in h.columns()])
    return c, ab.AbHom(tgt, c, proj)


# ---------------------------------------------------------------------------
# Canonical decomposition and isomorphism witnesses.

def canonical_decomposition(group: ab.FGAbelian):
    """(C, to_c, from_c) with C the invariant-factor form of `group`."""
    c, proj, section = ab._present(group.rank, ab._relation_columns(group))
    return c, ab.AbHom(group, c, proj), ab.AbHom(c, group, section)


def isomorphic(a: ab.FGAbelian, b: ab.FGAbelian) -> bool:
    return a.invariant_factors() == b.invariant_factors()


def isomorphism(a: ab.FGAbelian, b: ab.FGAbelian):
    """(forward, backward) AbHom witnesses, or None when not isomorphic."""
    if not isomorphic(a, b):
        return None
    _, to_ca, from_ca = canonical_decomposition(a)
    _, to_cb, from_cb = canonical_decomposition(b)
    return from_cb.compose(to_ca), from_ca.compose(to_cb)


# ---------------------------------------------------------------------------
# Multilinear constructions with fixed generator indexing.

class IndexedGroup:
    """An FGAbelian generated by symbols (i, j) for the index pairs `pairs`,
    in that order, the symbol (i, j) of order `order(i, j)`.

    Pairs of order 1 are dropped from the group but keep a `positions`
    entry mapping to None, so that `position`, `columns` and `at` stay
    well-defined on them.
    """

    def __init__(self, pairs, order):
        self.positions, orders = {}, []
        for i, j in pairs:
            d = order(i, j)
            self.positions[(i, j)] = None if d == 1 else len(orders)
            if d != 1:
                orders.append(d)
        self.group = ab.FGAbelian(orders)

    def position(self, i, j):
        return self.positions.get((i, j))

    def columns(self, value):
        """[value(i, j)] over the kept pairs, in generator order."""
        return [value(i, j) for (i, j), p in self.positions.items() if p is not None]

    def at(self, hom: ab.AbHom, i, j) -> ab.AbElement:
        """hom on the generator of (i, j); zero for a dropped pair."""
        p = self.positions.get((i, j))
        return hom.target.zero() if p is None else hom.column(p)

    def _unit(self, i, j, sign=1):
        """sign times the coordinates of the generator of (i, j), or None."""
        p = self.positions.get((i, j))
        if p is None:
            return None
        return tuple(sign if t == p else 0 for t in range(self.group.rank))


class TensorProduct(IndexedGroup):
    """A (x) B with generators e_i (x) f_j ordered lexicographically."""

    def __init__(self, a: ab.FGAbelian, b: ab.FGAbelian):
        self.left, self.right = a, b
        super().__init__(itertools.product(range(a.rank), range(b.rank)),
                         lambda i, j: gcd(a.orders[i], b.orders[j]))
        self._units = [[self._unit(i, j) for j in range(b.rank)]
                       for i in range(a.rank)]

    def pure(self, x: ab.AbElement, y: ab.AbElement) -> ab.AbElement:
        """The elementary tensor x (x) y."""
        if x.group != self.left or y.group != self.right:
            raise InvalidArgument("pure tensor arguments in the wrong groups")
        return self.group._trusted(ab._bilinear_into([0] * self.group.rank,
                                                     x.coords, y.coords, self._units))


class ExteriorSquare(IndexedGroup):
    """Lambda^2 A with generators e_i ^ e_j for i < j."""

    def __init__(self, a: ab.FGAbelian):
        self.base = a
        n = a.rank
        super().__init__(itertools.combinations(range(n), 2),
                         lambda i, j: gcd(a.orders[i], a.orders[j]))
        # (j, i) holds minus the generator of (i, j); the diagonal is zero
        self._units = [[self._unit(i, j) if i <= j else self._unit(j, i, -1)
                        for j in range(n)] for i in range(n)]

    def wedge(self, x: ab.AbElement, y: ab.AbElement) -> ab.AbElement:
        return self.group._trusted(ab._bilinear_into([0] * self.group.rank,
                                                     x.coords, y.coords, self._units))


class SymmetricSquare(IndexedGroup):
    """Sym^2 A with generators e_i e_j for i <= j."""

    def __init__(self, a: ab.FGAbelian):
        self.base = a
        # gcd(d_i, d_i) = d_i on the diagonal
        super().__init__(itertools.combinations_with_replacement(range(a.rank), 2),
                         lambda i, j: gcd(a.orders[i], a.orders[j]))


def tensor(a: ab.FGAbelian, b: ab.FGAbelian) -> TensorProduct:
    return TensorProduct(a, b)


def exterior_square(a: ab.FGAbelian) -> ExteriorSquare:
    return ExteriorSquare(a)


def sym_square(a: ab.FGAbelian) -> SymmetricSquare:
    return SymmetricSquare(a)


# ---------------------------------------------------------------------------
# Counting homomorphisms.

def hom_count(source: ab.FGAbelian, target: ab.FGAbelian) -> int:
    n = 1
    for d in source.orders:
        for dt in target.orders:
            if d == 0:
                if dt == 0:
                    raise UnsupportedEnumeration("infinite hom set")
                n *= dt
            elif dt == 0:
                pass
            else:
                n *= gcd(dt, d)
    return n
