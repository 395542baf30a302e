"""Constructors of q-maps: the zero, power and addition maps, q-maps out
of Z, q-maps read off a concrete function, and the structural
homomorphisms of products and coproducts (projections, inclusions, the
coproduct's couniversal map).

Each is `qmaps._hom`, the zero-cross-effect constructor, mostly over the
generator-shift maps `qmaps._shift` at the factor offsets of
`nil2._factor`; the power map is `_shift` scaled by n with its forced
cross-effect, and addition is the sum of the two product projections.
The module also holds the converse of reading a map off a function: the
value tables of the maps an enumeration yields, one packed-integer kernel
call per map (`_Kernel`, `_TablePlan`).
Loaded on first use: by `qmaps`' enumerations, by `classify`'s witness
search when it finds a witness (the inverse is read off its table), by
`maltsev`'s recomposition, and by `verify` and `linext`.  So `info` and
an `iso` query that finds no witness, or runs no search, do not load it.
"""

from __future__ import annotations

import itertools
import struct
from math import prod
from operator import mul
from sys import byteorder

from . import abelian as ab
from . import nil2, qmaps
from .errors import InvalidArgument, InvalidHomomorphism, NotAQMap


def zero_qmap(g: nil2.Nil2Group, h: nil2.Nil2Group) -> qmaps.QMap:
    return qmaps._hom(g, h, ab.AbHom.zero(g.A, h.A), ab.AbHom.zero(g.B, h.B))


def power_qmap(g: nil2.Nil2Group, n: int) -> qmaps.QMap:
    """The n-th power map a -> n a, with (a|b)_n = -(n(n-1)/2) [a,b]."""
    gamma = [(n * g.gen(i)).b for i in range(g.rank)]
    c = -(n * (n - 1) // 2)
    return qmaps.QMap(g, g, qmaps._shift(g.A, g.A, 0, n), qmaps._shift(g.B, g.B, 0, n),
                      gamma, [[c * e for e in row] for row in g.commutators])


def addition_qmap(g: nil2.Nil2Group) -> qmaps.QMap:
    """The group law + : G x G -> G, the sum p_1 + p_2 of the product
    projections, so ((a,b)|(c,d))_+ = [c, b] by the sum formula."""
    p = nil2.product(g, g)
    return product_projection(p, 0) + product_projection(p, 1)


def qmap_from_z(h: nil2.Nil2Group, a: nil2.Nil2Element, b: nil2.Nil2Element) -> qmaps.QMap:
    """f_{a,b} : Z -> H, n -> n a + (n(n-1)/2) b; requires b in [H,H]."""
    if a.group != h or b.group != h:
        raise InvalidArgument("images must lie in the target group")
    if not b.a.is_zero():
        raise NotAQMap(f"{b!r} is not in the commutator subgroup")
    src = nil2.free(1)
    fab = ab.AbHom.from_columns(src.A, h.A, [a.a])
    fcomm = ab.AbHom.zero(src.B, h.B)
    return qmaps.QMap(src, h, fab, fcomm, [a.b], [[b.b]])


def qmap_from_function(source, target, fn) -> qmaps.QMap:
    """Read generator data off a concrete function and validate it.

    On a finite source the evaluated presentation is checked to reproduce
    `fn` pointwise.
    """
    try:
        fab = ab.AbHom.from_columns(
            source.A, target.A, [fn(source.gen(i)).a for i in range(source.rank)])
    except InvalidHomomorphism as exc:
        raise NotAQMap(f"induced abelianization map is not a homomorphism: {exc}")
    gamma = [fn(source.gen(i)).b for i in range(source.rank)]
    fcols = []
    for j in range(source.B.rank):
        w = fn(source.central(source.B.gen(j)))
        if not w.a.is_zero():
            raise NotAQMap("image of the commutator subgroup leaves [H,H]")
        fcols.append(w.b)
    try:
        fcomm = ab.AbHom.from_columns(source.B, target.B, fcols)
    except InvalidHomomorphism as exc:
        raise NotAQMap(f"restriction to [G,G] is not a homomorphism: {exc}")
    r = source.rank
    delta = [[None] * r for _ in range(r)]
    for i in range(r):
        gi = fn(source.gen(i))
        for j in range(r):
            c = -(gi + fn(source.gen(j))) + fn(source.gen(i) + source.gen(j))
            if not c.a.is_zero():
                raise NotAQMap(
                    f"cross-effect at generators ({i+1}, {j+1}) leaves [H,H]")
            delta[i][j] = c.b
    q = qmaps.QMap(source, target, fab, fcomm, gamma, delta)
    if source.is_finite():
        for z in source.elements():
            if q.eval(z) != fn(z):
                raise NotAQMap(
                    f"function disagrees with its generator data at {z!r}")
    return q


# ---------------------------------------------------------------------------
# Structural q-maps of products and coproducts.

def product_projection(p: nil2.Nil2Group, k: int) -> qmaps.QMap:
    gk, off_a, off_b = nil2._factor(p, "product", k)
    return qmaps._hom(p, gk, qmaps._shift(p.A, gk.A, -off_a),
                      qmaps._shift(p.B, gk.B, -off_b))


def _inclusion(whole: nil2.Nil2Group, tag: str, k: int) -> qmaps.QMap:
    gk, off_a, off_b = nil2._factor(whole, tag, k)
    return qmaps._hom(gk, whole, qmaps._shift(gk.A, whole.A, off_a),
                      qmaps._shift(gk.B, whole.B, off_b))


def product_inclusion(p: nil2.Nil2Group, k: int) -> qmaps.QMap:
    return _inclusion(p, "product", k)


def coproduct_inclusion(c: nil2.Nil2Group, k: int) -> qmaps.QMap:
    return _inclusion(c, "coproduct", k)


def coproduct_couniversal(c: nil2.Nil2Group, u: qmaps.QMap, v: qmaps.QMap) -> qmaps.QMap:
    """The unique homomorphism out of a coproduct restricting to the
    homomorphisms u and v: (xi, g, h) -> [u,v](xi) + u(g) + v(h)."""
    g1, g2 = (nil2._factor(c, "coproduct", k)[0] for k in (0, 1))
    if u.source != g1 or v.source != g2 or u.target != v.target:
        raise InvalidArgument("u, v must map the coproduct factors to one target")
    if not (u.is_hom() and v.is_hom()):
        raise InvalidArgument("the coproduct property extends homomorphisms only")
    x = u.target
    tens_cols = c.provenance[3].columns(
        lambda i, j: x.commutator_pairing(u.fab.column(i), v.fab.column(j)))
    return qmaps._hom(c, x, ab.AbHom.from_columns(c.A, x.A, u.fab.columns() + v.fab.columns()),
                      ab.AbHom.from_columns(c.B, x.B,
                                            u.fcomm.columns() + v.fcomm.columns() + tens_cols),
                      u.gamma + v.gamma)


# ---------------------------------------------------------------------------
# Value tables of the maps an enumeration yields (`qmaps._enumerate`).

_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _packs(cols, n, k, rep=1):
    """Each of the columns `cols`, n non-negative values below 256**k each,
    as one int whose field p, k bytes, holds the p-th value, times `rep`:
    all cut out of one int.  Packing and `_unpack` use the native byte
    order, so `_unpack`'s memoryview cast reads the fields on any host."""
    values, fmt, width = list(itertools.chain.from_iterable(cols)), _FORMATS.get(k), 8 * k * n
    whole = int.from_bytes(struct.pack(f"={len(values)}{fmt}", *values) if fmt
                           else b"".join([v.to_bytes(k, byteorder) for v in values]), byteorder)
    return [((whole >> width * j) & ((1 << width) - 1)) * rep for j in range(len(cols))]


def _unpack(v, n, k):
    """The n fields of k bytes of `v` (`_packs`), as a sequence of ints."""
    raw = v.to_bytes(n * k, byteorder)
    if k in _FORMATS:
        return memoryview(raw).cast(_FORMATS[k])
    return [int.from_bytes(raw[i:i + k], byteorder) for i in range(0, n * k, k)]


class _Kernel(dict):
    """H-index (position in `H.elements()`) -> element of H, built on first
    lookup: one memo per enumeration G -> H, so equal values of its maps are
    one object.  `fill` builds, on the first tabulation, G's points (x, u),
    ordered by u then x (`index`: (u, x) -> position), and per monomial of
    `QMap.eval` its values at all points packed into one int, k bytes per
    field (`_packs`): `heads` (x, quad(x)) and `us` (u - kappa(x) mod G's B
    orders, which fcomm kills).  As base_fab(x) and every coefficient are
    reduced mod e_t, a value's field for B_H-coordinate t is some v < 2^b, b
    the bit length of (max e_t - 1) (1 + the sum of the monomials' largest
    values).  `steps`: per t, (e_t, its place value, c, s, mask), with s =
    b + bitlen(e_t - 1) and c = ceil(2^s / e_t), so floor(v c / 2^s) =
    floor(v / e_t) for v < 2^b (c e_t = 2^s + d, 0 <= d < e_t: the error
    v d / (e_t 2^s) < 2^(b-s) <= 1/e_t).  As v c < 2^(2b+1) <= 2^(8k), no
    field of a product, quotient (its low 8k - s bits after the shift, kept
    by `mask`), remainder or H-index carries into the next.  An abelian
    target reads no monomial."""

    __slots__ = ("source", "target", "table", "index", "apts", "nb", "orders", "place", "k",
                 "rep", "steps", "heads", "us")

    def __init__(self, source, target):
        self.source, self.target, self.index = source, target, None
        self.table = qmaps._source_table(source)

    def fill(self):
        G, H = self.source, self.target
        self.apts = apts = list(itertools.product(*map(range, G._orders)))
        bpts = list(itertools.product(*map(range, G._borders)))
        self.index = dict(zip(itertools.product(bpts, apts), itertools.count()))
        self.orders, self.nb, self.steps = H._orders + H._borders, len(bpts), []
        self.place = [prod(self.orders[i + 1:]) for i in range(len(self.orders))]
        if not H._borders:
            return
        monos, n = list(map(self.table.__getitem__, apts)), len(self.index)
        heads = list(zip(*[m.head for m in monos]))
        us = [[(u[j] - m.kappa[j]) % e for u in bpts for m in monos]
              for j, e in enumerate(G._borders)]
        b = ((max(H._borders) - 1) * (1 + sum(map(max, heads + us)))).bit_length()
        w = max(2 * b + 1, (prod(self.orders) - 1).bit_length())
        self.k = k = 1 << max(0, (w - 1).bit_length() - 3)     # bytes: a power of two
        self.rep, ones = (((1 << 8 * k * n) - 1) // ((1 << 8 * k * len(apts)) - 1),
                          ((1 << 8 * k * n) - 1) // ((1 << 8 * k) - 1))
        self.heads, self.us = _packs(heads, len(apts), k, self.rep), _packs(us, n, k)
        self.steps = [(e, place, -(-(1 << s) // e), s, ((1 << 8 * k - s) - 1) * ones)
                      for e, place in zip(H._borders, self.place[len(H._orders):])
                      for s in (b + (e - 1).bit_length(),)]

    def __missing__(self, i):
        H, coords = self.target, tuple([i // s % d for s, d in zip(self.place, self.orders)])
        self[i] = z = H.element_class(H, ab.AbElement(H.A, coords[:len(H._orders)]),
                                      ab.AbElement(H.B, coords[len(H._orders):]))
        return z


class _TablePlan(qmaps._FabPlan):
    """The plan of an enumeration's maps with one fab.  `pack` reads its
    entries once into `apos`, the H-indices of (fab(x), 0) by mixed radix,
    and `bases`, base_fab(x) reduced per B_H-coordinate, both packed over G
    (for an abelian target, `apos` is the value table); `tabulate` gives a
    map's table."""

    __slots__ = ("kernel", "apos", "bases", "index")

    def __init__(self, kernel, fab):
        super().__init__(kernel.table, kernel.target, fab)
        self.kernel, self.bases = kernel, None

    def pack(self):
        kernel = self.kernel
        if kernel.index is None:
            kernel.fill()
        entries, self.index = list(map(self.__getitem__, kernel.apts)), kernel.index
        apos = [sum(map(mul, a.coords, kernel.place)) for a, _, _ in entries]
        if not kernel.steps:
            self.apos, self.bases = list(map(kernel.__getitem__, apos)) * kernel.nb, []
            return
        self.apos, *self.bases = _packs([apos] + [
            [v % e for v in col] for col, e in zip(zip(*[b for _, b, _ in entries]),
                                                   self.target._borders)],
            len(entries), kernel.k, kernel.rep)

    def tabulate(self, q):
        """q's values at G's points in `_Kernel` order: per B_H-coordinate t,
        V = base_fab(x) + fcomm(u - kappa(x)) + gamma and delta times x and
        quad(x), one multiply-add per packed monomial, then V mod e_t times
        its place value added to the H-indices of (fab(x), 0)."""
        if self.bases is None:
            self.pack()
        kernel, idx, delta = self.kernel, self.apos, q.delta
        if not self.bases:
            return idx
        coefs = q.gamma + tuple([delta[p][i] for i in range(len(delta)) for p in range(i + 1)])
        for t, (v, frow, (e, place, c, s, mask)) in enumerate(
                zip(self.bases, q.fcomm.matrix, kernel.steps)):
            v = sum(map(mul, frow, kernel.us), v)
            for y, x in zip(coefs, kernel.heads):
                v += y.coords[t] * x
            idx += (v - e * ((v * c >> s) & mask)) * place
        return list(map(kernel.__getitem__, _unpack(idx, len(kernel.index), kernel.k)))
