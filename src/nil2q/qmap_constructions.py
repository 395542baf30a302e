"""Constructors of q-maps: the zero, power and addition maps, q-maps out
of Z, q-maps read off a concrete function, and the structural
homomorphisms of products and coproducts (projections, inclusions, the
coproduct's couniversal map).

Each is `qmaps._hom`, the zero-cross-effect constructor, mostly over the
generator-shift maps `qmaps._shift` at the factor offsets of
`nil2._factor`; the power map is `_shift` scaled by n with its forced
cross-effect, and addition is the sum of the two product projections.
Loaded on first use: by `classify`'s witness search when it finds a
witness (the inverse is read off its table), by `maltsev`'s
recomposition, and by `verify` and `linext`.  So `info` and an `iso`
query that finds no witness, or runs no search, do not load it.
"""

from __future__ import annotations

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

