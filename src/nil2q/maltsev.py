"""Class-two Lie rings over odd-torsion abelian groups and the exp/log
correspondence with odd-order nil_2-groups.

A Lie ring is stored as (A, B, carry, bracket): its additive group is
`nil2`'s central extension of A by B with zero bilinear part, so the
carry cocycle alone, and its elements use `nil2.Nil2Element`'s
arithmetic.  The bracket is an antisymmetric matrix over B whose values
generate B; the group commutator of the additive group is zero.  exp
keeps the data and sets the group cocycle's bilinear part to half the
bracket; log antisymmetrizes the group's bilinear part and discharges
the symmetric residue into the element identification (subtracting the
coboundary of a -> half * sym(a, a)), which makes log(exp(L)) the
literal identity on data.

The odd-order Niq-isomorphism criterion (log G and log H isomorphic as
abelian groups, B onto B) is `classify`'s iso-pair search on the logs:
as central extensions their homomorphisms are the additive maps carrying
B into B, and `qmaps` solves and evaluates them as it does for groups.
So is the linear part g of a q-map's (g, h) decomposition: a
zero-cross-effect `qmaps.QMap` log G -> log H, evaluated on group
elements through each group's `LogCorrespondence`.
"""

from __future__ import annotations

from . import abelian as ab
from . import classify, nil2, qmaps
from .errors import (
    InvalidArgument,
    InvalidBracket,
    NotUniquely2Divisible,
    Unsupported,
)


def _require_odd(group: ab.FGAbelian, what: str):
    for d in group.orders:
        if d == 0 or d % 2 == 0:
            raise NotUniquely2Divisible(
                f"{what} has a factor of order {d}; odd finite torsion required")


def _half(modulus: int) -> int:
    """Multiplicative inverse of 2 modulo an odd modulus (0 when trivial)."""
    return pow(2, -1, modulus) if modulus > 1 else 0


class LieElement(nil2.Nil2Element):
    """Element (a, u) of a class-two Lie ring: the extension's addition,
    and the bracket."""

    __slots__ = ()

    def bracket(self, other) -> "LieElement":
        self._check(other)
        r = self.group
        return LieElement(r, r.A.zero(),
                          r.B._bilinear(self.a.coords, other.a.coords, r.bracket))


class Nil2LieRing(nil2.CentralExtension):
    """Class-two nilpotent Lie ring over odd finite abelian groups."""

    __slots__ = ("carry", "bracket")
    element_class = LieElement

    def __init__(self, A, B, carry, bracket):
        _require_odd(A, "A")
        _require_odd(B, "B")
        self.carry = tuple(carry)
        self.bracket = tuple(tuple(row) for row in bracket)
        r = A.rank
        nil2._check_entries("carry", self.carry, r, B)
        nil2._check_entries("bracket", self.bracket, r, B)
        nil2._check_torsion("bracket", self.bracket, A.orders, InvalidBracket)
        # in odd B, e = -e forces e = 0, so this also zeroes the diagonal
        for i, row in enumerate(self.bracket):
            for j, e in enumerate(row):
                if e != -self.bracket[j][i]:
                    raise InvalidBracket(f"bracket is not antisymmetric at ({i+1}, {j+1})")
        nil2._check_generates("bracket values", self.bracket, B)
        super().__init__(A, B, [[B.zero()] * r] * r, self.carry)

    def additive_invariants(self):
        """Invariant factors of the underlying abelian group."""
        r, s = self.A.rank, self.B.rank
        rels = []
        for i, d in enumerate(self.A.orders):
            row = [0] * (r + s)
            row[i] = d
            for t, c in enumerate(self.carry[i].coords):
                row[r + t] = -c
            rels.append(row)
        for j, e in enumerate(self.B.orders):
            row = [0] * (r + s)
            row[r + j] = e
            rels.append(row)
        return ab.presented(r + s, rels).orders

    def __eq__(self, other):
        return (isinstance(other, Nil2LieRing) and self.A == other.A
                and self.B == other.B and self.carry == other.carry
                and self.bracket == other.bracket)

    def __hash__(self):
        return hash((self.A, self.B, tuple(e.coords for e in self.carry),
                     tuple(e.coords for row in self.bracket for e in row)))

    def __repr__(self):
        return f"Nil2LieRing(A={self.A}, B={self.B})"


def lie_make(A, B, carry, bracket) -> Nil2LieRing:
    return Nil2LieRing(A, B, carry, bracket)


# ---------------------------------------------------------------------------
# exp / log on data.

def lie_exp(ring: Nil2LieRing) -> nil2.Nil2Group:
    """The group on the same data: a (+) b = a + b + half [a, b]."""
    half = _half(ring.B.exponent())
    bil = [[half * e for e in row] for row in ring.bracket]
    return nil2.Nil2Group(ring.A, ring.B, bil, list(ring.carry))


def lie_log(group: nil2.Nil2Group) -> Nil2LieRing:
    """The Lie ring of an odd-order group: bracket = antisymmetrized bil,
    carries preserved (the symmetric residue moves into the element
    identification, see `LogCorrespondence`)."""
    _require_odd(group.A, "the abelianization")
    _require_odd(group.B, "the commutator subgroup")
    return Nil2LieRing(group.A, group.B, group.carry, group.commutators)


class LogCorrespondence:
    """Set-level identification of an odd-order group with its Lie ring.

    to_lie / from_lie translate between group pairs (a, u) and normalized
    Lie pairs via (a, u) -> (a, u - chi(a)), chi(a) = half * sym(a, a)
    with sym the symmetric part of the group's bilinear cocycle.  The
    same coordinate map is an isomorphism of groups G -> exp(log G).
    """

    def __init__(self, group: nil2.Nil2Group):
        self.group = group
        self.ring = lie_log(group)
        self.exp_group = lie_exp(self.ring)
        r = group.rank
        half = _half(group.B.exponent())
        self._sym = [[half * (group.bil[i][j] + group.bil[j][i])
                      for j in range(r)] for i in range(r)]
        self._half = half

    def _chi(self, a: ab.AbElement) -> ab.AbElement:
        return self._half * self.group.B._bilinear(a.coords, a.coords, self._sym)

    def to_lie(self, z: nil2.Nil2Element) -> LieElement:
        if z.group != self.group:
            raise InvalidArgument("element of a different group")
        return self.ring.pair(z.a, z.b - self._chi(z.a))

    def from_lie(self, w: LieElement) -> nil2.Nil2Element:
        if w.group != self.ring:
            raise InvalidArgument("element of a different Lie ring")
        return self.group.pair(w.a, w.b + self._chi(w.a))

    def to_exp(self, z: nil2.Nil2Element) -> nil2.Nil2Element:
        """The group isomorphism G -> exp(log G)."""
        w = self.to_lie(z)
        return self.exp_group.pair(w.a, w.b)


# ---------------------------------------------------------------------------
# Lie-side operations directly on group elements.

def _group_half(group: nil2.Nil2Group) -> int:
    n = group.order()
    if n == 0 or n % 2 == 0:
        raise NotUniquely2Divisible("group must be finite of odd order")
    return _half(n)


def lie_add(x: nil2.Nil2Element, y: nil2.Nil2Element) -> nil2.Nil2Element:
    """The Lie addition on an odd-order group: x + y - half [x, y]."""
    half = _group_half(x.group)
    return x + y - half * x.comm(y)


def lie_sub(x: nil2.Nil2Element, y: nil2.Nil2Element) -> nil2.Nil2Element:
    return lie_add(x, -y)


# ---------------------------------------------------------------------------
# (g, h) decomposition of q-maps between odd-order groups.

class QMapDecomposition:
    """f(a) = g(a) + half h(a^, a^): linear part and symmetric cross part.

    `g` is a homomorphism of the logs' additive groups carrying B into B,
    a `qmaps.QMap` lie_log(G) -> lie_log(H) with zero cross-effect, read
    on group elements through the correspondences `cg` and `ch`; `h` is a
    symmetric matrix over the target's commutator subgroup indexed by
    abelianization generators.
    """

    def __init__(self, cg: LogCorrespondence, ch: LogCorrespondence, g: qmaps.QMap, h):
        self.cg, self.ch, self.g = cg, ch, g
        self.source, self.target = cg.group, ch.group
        self.h = tuple(tuple(row) for row in h)
        r = self.source.rank
        for i in range(r):
            for j in range(r):
                if self.h[i][j] != self.h[j][i]:
                    raise InvalidArgument(f"h is not symmetric at ({i+1}, {j+1})")

    def g_value(self, z: nil2.Nil2Element) -> nil2.Nil2Element:
        """The linear part at z: g at z's log, read back in H."""
        return self.ch.from_lie(self.g.eval(self.cg.to_lie(z)))

    def eval(self, z: nil2.Nil2Element) -> nil2.Nil2Element:
        """g(z) + half h(z^, z^): the second term is central, so the Lie
        sum is the group sum."""
        H = self.target
        return self.g_value(z) + H.central(
            self.ch._half * H.B._bilinear(z.a.coords, z.a.coords, self.h))


def lie_qmap_decompose(q: qmaps.QMap) -> QMapDecomposition:
    """g(a) = 2 f(a) - half f(2a), h(a^, b^) = f(a + b) - f(a) - f(b),
    with all operations on the Lie side.  g is read off at the logs'
    generator lifts and at B's generators (where the logs' coordinates
    are the groups'), and `qmaps._hom` validates it on the solver's terms."""
    G, H = q.source, q.target
    cg, ch = LogCorrespondence(G), LogCorrespondence(H)
    g_fn = linear_part(q)

    def h_fn(x, y):
        w = lie_sub(lie_sub(q.eval(lie_add(x, y)), q.eval(x)), q.eval(y))
        if not w.a.is_zero():
            raise Unsupported("cross part leaves the commutator subgroup")
        return w

    lifts = [ch.to_lie(g_fn(cg.from_lie(cg.ring.gen(i)))) for i in range(G.rank)]
    bimages = [g_fn(G.central(G.B.gen(j))) for j in range(G.B.rank)]
    if any(not w.a.is_zero() for w in bimages):
        raise InvalidArgument("g does not carry [G,G] into [H,H]")
    g = qmaps._hom(cg.ring, ch.ring, ab.AbHom.from_columns(G.A, H.A, [w.a for w in lifts]),
                   ab.AbHom.from_columns(G.B, H.B, [w.b for w in bimages]),
                   [w.b for w in lifts])
    h = [[h_fn(G.gen(i), G.gen(j)).b for j in range(G.rank)]
         for i in range(G.rank)]
    return QMapDecomposition(cg, ch, g, h)


def lie_qmap_recompose(d: QMapDecomposition) -> qmaps.QMap:
    from .qmap_constructions import qmap_from_function
    return qmap_from_function(d.source, d.target, d.eval)


def linear_part(q: qmaps.QMap):
    """The morphism q(f)(a) = 2 f(a) - half f(2a) to the linear subcategory,
    as a plain function on elements."""
    half = _group_half(q.target)

    def g_fn(z):
        return lie_sub(2 * q.eval(z), half * q.eval(2 * z))

    return g_fn


# ---------------------------------------------------------------------------
# Pair isomorphism of logs: the odd-order Niq-isomorphism criterion.

def log_criterion_decide(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """Niq-isomorphism criterion for finite odd order: true iff the logs
    are isomorphic as abelian groups matching commutator subgroups.

    The isomorphism is `classify`'s iso-pair search on the logs with the
    cross-effect pinned to zero: a homomorphism of the additive groups
    (zero bilinear part) over isomorphisms of A and of B, bijective as
    |log G| = |log H|.  Returns (verdict, that homomorphism log G -> log H
    as a `qmaps.QMap`, or None)."""
    for grp in (g, h):
        if not grp.is_finite() or grp.order() % 2 == 0:
            raise Unsupported("the log criterion needs finite odd order")
    lg, lh = lie_log(g), lie_log(h)
    if lg.additive_invariants() != lh.additive_invariants():
        return False, None
    witness = classify._iso_pair(lg, lh, homs=True)
    return witness is not None, witness
