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
call per map (`_Kernel`), after one packed call per fab for fab(x) and
base_fab(x) (`_TablePlan`), with no per-point step.
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


def _packs(cols, n, k):
    """Each of the columns `cols`, n non-negative values below 256**k each,
    as one int whose field p, k bytes, holds the p-th value: all cut out of
    one byte string.  Packing and `_unpack` use the native byte order, so
    `_unpack`'s memoryview cast reads the fields on any host."""
    values, size = list(itertools.chain.from_iterable(cols)), n * k
    raw = (struct.pack(f"={len(values)}{_FORMATS[k]}", *values) if k <= 8
           else b"".join([v.to_bytes(k, byteorder) for v in values]))
    return [int.from_bytes(raw[i:i + size], byteorder) for i in range(0, len(raw), size)]


def _unpack(v, size, k):
    """The fields of k bytes of `v` (`_packs`), `size` bytes in all, as a
    sequence of ints."""
    raw = v.to_bytes(size, byteorder)
    if k <= 8:
        return memoryview(raw).cast(_FORMATS[k])
    return [int.from_bytes(raw[i:i + k], byteorder) for i in range(0, size, k)]


class _Kernel(dict):
    """H-index (position in `H.elements()`) -> element of H, built on first
    lookup: one memo per enumeration G -> H, so equal values of its maps are
    one object.  `fill` builds, on the first tabulation, G's points (x, u),
    ordered by u then x (`index`: (u, x) -> position), and packs the
    monomials of `QMap.eval` over them, k bytes per field (`_packs`):
    `heads`, x_j and then quad_m(x), and `us`, u - kappa(x) mod G's B
    orders (which fcomm kills), kappa(x) being G's lift rows times quad(x)
    (x_j < D_j carries nothing).

    Field bounds, for D_j, d_i the A orders of G and H, e the largest B
    order e_t of H, X = sum_j (D_j - 1) and Q the sum of the quads' maxima:
    s_i = sum_j fab_ij x_j <= (d_i - 1) max(X, 1), fab reduced mod d_i; the
    unreduced base_t = sum_m rows_tm quad_m + sum_i floor(s_i/d_i) carry_it
    <= (e - 1) (Q + sum_i floor((d_i - 1) X / d_i)), rows reduced mod e_t;
    V_t = (base_t mod e_t) + fcomm.us + delta.quad + gamma.x <= (e - 1) (1 +
    Q + X + the sum of the us' maxima).  Every term is non-negative and b
    (`bits`) is the bit length of the largest bound, so every field is below
    2^b, and b >= bitlen(d - 1) for every order d of H.  A step (d, place,
    c, s, mask), d some d_i or e_t with its place value in H-indices, has s
    = b + bitlen(d - 1) <= 2b and c = ceil(2^s / d), so floor(v c / 2^s) =
    floor(v / d) for v < 2^b (c d = 2^s + r, 0 <= r < d: the error v r / (d
    2^s) < 2^(b-s) <= 1/d).  As c <= 2^(b+1), v c < 2^(2b+1) <= 2^(8k): no
    field of a product, quotient (its low 8k - s bits after the shift, kept
    by `mask`), remainder or H-index carries into the next.  `asteps` reduce
    s_i, `steps` base_t and V_t."""

    __slots__ = ("source", "target", "index", "orders", "place", "k", "size", "bits",
                 "asteps", "steps", "heads", "us")

    def __init__(self, source, target):
        self.source, self.target, self.index = source, target, None

    def fill(self):
        G, H = self.source, self.target
        apts = list(itertools.product(*map(range, G._orders)))
        bpts = list(itertools.product(*map(range, G._borders)))
        self.index = dict(zip(itertools.product(bpts, apts), itertools.count()))
        self.orders, n = H._orders + H._borders, len(self.index)
        self.place = [prod(self.orders[i + 1:]) for i in range(len(self.orders))]
        quads = list(map(nil2._quadratic, apts))
        kappas = [[sum(map(mul, row, q)) for q in quads]
                  for row in (G._lift_rows(ab._identity(G.rank)) if G._borders else ())]
        us = [[(u[j] - v) % e for u in bpts for v in kap]
              for j, (e, kap) in enumerate(zip(G._borders, kappas))]
        xs, quads = list(zip(*apts)), list(zip(*quads))
        x, q, m = sum(map(max, xs)), sum(map(max, quads)), max(H._borders, default=1) - 1
        heads = xs + quads
        self.bits = b = max([(d - 1) * max(x, 1) for d in H._orders] + [
            m * (q + sum([(d - 1) * x // d for d in H._orders])),
            m * (1 + q + x + sum(map(max, us)))]).bit_length()
        w = max(2 * b + 1, (prod(self.orders) - 1).bit_length())
        self.k = k = 1 << max(0, (w - 1).bit_length() - 3)     # bytes: a power of two
        self.size, ones = n * k, ((1 << 8 * k * n) - 1) // ((1 << 8 * k) - 1)
        packed = _packs([c * len(bpts) for c in heads] + us, n, k)
        self.heads, self.us = packed[:len(heads)], packed[len(heads):]
        steps = [(d, place, -(-(1 << s) // d), s, ((1 << 8 * k - s) - 1) * ones)
                 for d, place in zip(self.orders, self.place) for s in (b + (d - 1).bit_length(),)]
        self.asteps, self.steps = steps[:len(H._orders)], steps[len(H._orders):]

    def __missing__(self, i):
        H, coords = self.target, tuple([i // s % d for s, d in zip(self.place, self.orders)])
        self[i] = z = H.element_class(H, ab.AbElement(H.A, coords[:len(H._orders)]),
                                      ab.AbElement(H.B, coords[len(H._orders):]))
        return z


class _TablePlan:
    """The plan of an enumeration's maps with one fab.  `pack` computes
    over all of G at once, by the kernel's steps: s_i = sum_j fab_ij x_j,
    `apos`, the H-indices of (fab(x), 0) = (s_i mod d_i) by mixed radix,
    and `bases`, base_fab(x) mod e_t per B_H-coordinate t (`_Kernel`).
    `tabulate` gives a map's table; `key` and `partial` keep the sum that
    the maps with one (fcomm, delta) share."""

    __slots__ = ("kernel", "fab", "apos", "bases", "index", "key", "partial")

    def __init__(self, kernel, fab):
        self.kernel, self.fab, self.bases, self.key = kernel, fab, None, (None, None)

    def pack(self):
        kernel, H, fab = self.kernel, self.kernel.target, self.fab
        if kernel.index is None:
            kernel.fill()
        self.index, self.apos, sums = kernel.index, 0, []
        for row, (d, place, c, s, mask) in zip(fab.matrix, kernel.asteps):
            v = sum(map(mul, row, kernel.heads))
            sums.append(d * ((v * c >> s) & mask))      # s_i - (s_i mod d_i), fieldwise
            self.apos += (v - sums[-1]) * place
        # nil2's closed form on packed values: its floor(s_i / d_i) divides
        # a multiple of d_i, so it is exact on every field at once
        rows = [[y % e for y in row] for row, e in zip(
            H._lift_rows(list(zip(*fab.matrix))), H._borders)]
        self.bases = [v - e * ((v * c >> s) & mask) for v, (e, _, c, s, mask) in zip(
            H._lift_sum(rows, kernel.heads[fab.source.rank:], sums), kernel.steps)]

    def tabulate(self, q):
        """q's values at G's points in `_Kernel` order: per B_H-coordinate t,
        V = base_fab(x) + fcomm(u - kappa(x)) + delta times quad(x), kept
        while the maps share fcomm and delta, plus gamma times x, one
        multiply-add per packed monomial; then V mod e_t times its place
        value added to the H-indices of (fab(x), 0)."""
        if self.bases is None:
            self.pack()
        kernel, idx, delta = self.kernel, self.apos, q.delta
        if self.key[0] is not q.fcomm or self.key[1] is not delta:
            quads = kernel.heads[len(delta):]
            coefs = [delta[p][i].coords for i in range(len(delta)) for p in range(i + 1)]
            self.key, self.partial = (q.fcomm, delta), [
                (sum(map(mul, frow, kernel.us), sum([y[t] * x for y, x in zip(coefs, quads)], v)),
                 *step) for t, (v, frow, step) in enumerate(
                     zip(self.bases, q.fcomm.matrix, kernel.steps))]
        for t, (v, e, place, c, s, mask) in enumerate(self.partial):
            for y, x in zip(q.gamma, kernel.heads):
                v += y.coords[t] * x
            idx += (v - e * ((v * c >> s) & mask)) * place
        return list(map(kernel.__getitem__, _unpack(idx, kernel.size, kernel.k)))
