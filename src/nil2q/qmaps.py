"""The q-map calculus.

A q-map f : G -> H between nil_2-groups is a map whose cross-effect
(x|y)_f = -(f(x) + f(y)) + f(x+y) lands in [H,H] and is bilinear.  It is
stored by generator data:

    fab    : G_ab -> H_ab        induced homomorphism,
    fcomm  : [G,G] -> [H,H]      restriction to the commutator subgroup,
    gamma  : r corrections       f(e_i-lift) = (fab(e_i), gamma_i),
    delta  : r x r cross matrix  delta[i][j] = (e_i | e_j)_f in [H,H].

Three relation families gate the data (torsion of delta, commutator
relations, order relations), each on one coordinate.  One solver,
`_presentations`, walks them on integer coordinates for q-map enumeration,
homomorphism enumeration (delta pinned to zero), q-split section search
(fab = id, fcomm = 0 out of G_ab) and the iso-pair search of `classify`.
It and `QMap` read only `nil2.CentralExtension` data, so they serve any
finite central extension: groups, P2(G) and the Lie rings of `maltsev`.
Evaluation is the closed form of the ascending generator expansion: as
(0, gamma) is central, f(x, u) = (fab(x), base_fab(x) + sum_i [x_i gamma_i
+ C(x_i, 2) delta_ii] + sum_{p<i} x_p x_i delta_pi + fcomm(u - kappa(x))),
base_fab(x) the B-part of x_1 (fab e_1, 0) + ... + x_r (fab e_r, 0) summed
left to right and kappa(x) the same in G,
sum_{p<i} x_p x_i bil_pi + sum_i C(x_i, 2) bil_ii: per B-coordinate, one dot
product of the map's coefficient row with monomials a per-fab plan keeps.
The structural homomorphisms (identity, zero, the projections and
inclusions of products and coproducts, the coproduct's couniversal map,
the abelianization projection) are built by one zero-cross-effect
constructor, `_hom`, mostly over generator-shift maps `_shift` at the
factor offsets of `nil2._factor`.  The power map is `_shift` scaled by n
with its forced cross-effect; addition is the sum of the two product
projections.
The independent completeness oracle is the exhaustive set-map filter over
the defining conditions; it and the function-level checks run on integer
Cayley tables built from the group law (`Nil2Group.table`), never from
q-map data.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd
from operator import add, mul, sub

from . import abelian as ab
from . import nil2
from .errors import (
    InvalidArgument,
    InvalidHomomorphism,
    NotAQMap,
    UnsupportedEnumeration,
)


class _FabPlan(dict):
    """x -> (fab(x), base_fab(x), the monomials of x: x_i, then x_p x_i for
    p < i and C(x_i, 2) for p = i, kappa(x)) for the q-maps G -> H with one
    fab, filled on first lookup from the cached multiples m (fab e_i, 0).
    A canonical x never carries, so kappa(x) is the quadratic monomials
    times G's bil[p][i], p <= i: one dot product per B-coordinate of G."""

    def __init__(self, source, target, fab):
        self.target, self.fab, self.mults = target, fab, {}
        r, zero = source.rank, (0,) * source.B.rank
        cols = [source._bilc[p][i] or zero for i in range(r) for p in range(i + 1)]
        self.kappa_rows = list(zip(*cols)) if cols else [()] * source.B.rank

    def __missing__(self, x):
        H, mults, acc = self.target, self.mults, self.target.zero()
        for i, m in enumerate(x):
            if m:
                if (i, m) not in mults:
                    mults[i, m] = m * H.pair(self.fab.column(i), H.B.zero())
                acc = acc + mults[i, m]
        quad = tuple([x[p] * m if p < i else m * (m - 1) // 2
                      for i, m in enumerate(x) for p in range(i + 1)])
        kappa = [sum(map(mul, row, quad)) for row in self.kappa_rows]
        self[x] = hit = (acc.a, acc.b.coords, x + quad, kappa)
        return hit


class QMap:
    """Finite presentation of a q-map between nil_2-groups, or between any
    central extensions; values are built as the target's `element_class`."""

    __slots__ = ("source", "target", "fab", "fcomm", "gamma", "delta",
                 "_plan", "_rows")

    def __init__(self, source, target, fab, fcomm, gamma, delta,
                 _validated=False, _plan=None):
        self.source, self.target = source, target
        self.fab, self.fcomm = fab, fcomm
        self.gamma = tuple(gamma)
        # solver output: delta is a tuple of row tuples, shared across maps
        self.delta = delta if _validated else tuple(tuple(row) for row in delta)
        if not _validated:
            if fab.source != source.A or fab.target != target.A:
                raise InvalidArgument("fab endpoints do not match")
            if fcomm.source != source.B or fcomm.target != target.B:
                raise InvalidArgument("fcomm endpoints do not match")
            nil2._check_entries("gamma", self.gamma, source.rank, target.B)
            nil2._check_entries("delta", self.delta, source.rank, target.B)
            self._validate()
        self._plan = _FabPlan(source, target, fab) if _plan is None else _plan
        # eval's coefficients, per B-coordinate: the plan's monomials, fcomm
        cols = [e.coords for e in self.gamma]
        cols += [self.delta[p][i].coords for i in range(len(cols)) for p in range(i + 1)]
        cols += zip(*fcomm.matrix)
        self._rows = list(zip(*cols)) if cols else [()] * target.B.rank

    # -- validation ----------------------------------------------------------

    def _validate(self):
        G, H = self.source, self.target
        r = G.rank
        nil2._check_torsion("delta", self.delta, G.A.orders, NotAQMap)
        for i in range(r):
            for j in range(i + 1, r):
                lhs = self.fcomm.apply(G.commutators[i][j])
                rhs = (H.commutator_pairing(self.fab.column(i), self.fab.column(j))
                       + self.delta[i][j] - self.delta[j][i])
                if lhs != rhs:
                    raise NotAQMap(
                        f"commutator relation fails at generator pair "
                        f"({i+1}, {j+1}): {lhs} != {rhs}")
        for i in range(r):
            di = G.A.orders[i]
            if di == 0:
                continue
            torsion = (di * G.gen(i)).b
            lhs = (di * self.gen_image(i)
                   + (di * (di - 1) // 2) * H.central(self.delta[i][i]))
            rhs = H.central(self.fcomm.apply(torsion))
            if lhs != rhs:
                raise NotAQMap(
                    f"order relation fails at generator {i+1}: {lhs!r} != {rhs!r}")

    # -- evaluation ----------------------------------------------------------

    def gen_image(self, i: int) -> nil2.Nil2Element:
        """f(e_i-lift) = (fab(e_i), gamma_i)."""
        return self.target.pair(self.fab.column(i), self.gamma[i])

    def cross_data(self, acoords, bcoords) -> ab.AbElement:
        """Bilinear cross-effect through delta on canonical A-coordinates."""
        return self.target.B._bilinear(acoords, bcoords, self.delta)

    def eval(self, z: nil2.Nil2Element) -> nil2.Nil2Element:
        """Evaluate by the fixed generator expansion (ascending index), in
        closed form (module docstring): per B-coordinate, base_fab(x) plus
        the coefficient row times the monomials of x and u - kappa(x)."""
        G, H = self.source, self.target
        if z.group is not G and z.group != G:
            raise InvalidArgument("element not in the source group")
        a, base, mono, kappa = self._plan[z.a.coords]
        mono += tuple(map(sub, z.b.coords, kappa))
        return H.element_class(H, a, H.B._trusted(
            [s + sum(map(mul, row, mono)) for s, row in zip(base, self._rows)]))

    def cross(self, z, zp) -> nil2.Nil2Element:
        """(z | z')_f as an element of (0, [H,H])."""
        G = self.source
        if (z.group is not G and z.group != G) or (zp.group is not G and zp.group != G):
            raise InvalidArgument("elements not in the source group")
        return self.target.central(self.cross_data(z.a.coords, zp.a.coords))

    def is_hom(self, exhaustive=False) -> bool:
        """A q-map is a homomorphism iff its cross-effect vanishes."""
        if any(not e.is_zero() for row in self.delta for e in row):
            return False
        if exhaustive and self.source.is_finite():
            elems = list(self.source.elements())
            for a in elems:
                fa = self.eval(a)
                for b in elems:
                    if self.eval(a + b) != fa + self.eval(b):
                        return False
        return True

    # -- group structure on qw(G, H) ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise InvalidArgument("q-map sum needs equal endpoints")
        H = self.target
        r = self.source.rank
        gamma = [(self.gen_image(i) + other.gen_image(i)).b for i in range(r)]
        delta = [[self.delta[i][j] + other.delta[i][j]
                  + H.commutator_pairing(self.fab.column(j), other.fab.column(i))
                  for j in range(r)] for i in range(r)]
        return QMap(self.source, H, self.fab + other.fab,
                    self.fcomm + other.fcomm, gamma, delta)

    def __neg__(self):
        H = self.target
        r = self.source.rank
        gamma = [(-self.gen_image(i)).b for i in range(r)]
        delta = [[H.commutator_pairing(self.fab.column(j), self.fab.column(i))
                  - self.delta[i][j] for j in range(r)] for i in range(r)]
        return QMap(self.source, H, -self.fab, -self.fcomm, gamma, delta)

    def __sub__(self, other):
        return self + (-other)

    def compose(self, other: "QMap") -> "QMap":
        """self o other (apply `other` first); cross-effect by
        (a|b)_{fg} = f((a|b)_g) + (g(a)|g(b))_f."""
        if other.target != self.source:
            raise InvalidArgument("composition endpoints do not match")
        r = other.source.rank
        gamma = [self.eval(other.gen_image(i)).b for i in range(r)]
        delta = [[self.fcomm.apply(other.delta[i][j])
                  + self.cross_data(other.fab.column(i).coords,
                                    other.fab.column(j).coords)
                  for j in range(r)] for i in range(r)]
        return QMap(other.source, self.target,
                    self.fab.compose(other.fab), self.fcomm.compose(other.fcomm),
                    gamma, delta)

    def is_zero(self):
        return (self.fab.is_zero() and self.fcomm.is_zero()
                and all(g.is_zero() for g in self.gamma)
                and all(e.is_zero() for row in self.delta for e in row))

    def __eq__(self, other):
        return (isinstance(other, QMap)
                and self.source == other.source and self.target == other.target
                and self.fab == other.fab and self.fcomm == other.fcomm
                and self.gamma == other.gamma and self.delta == other.delta)

    def __hash__(self):
        return hash((self.fab, self.fcomm,
                     tuple(g.coords for g in self.gamma),
                     tuple(e.coords for row in self.delta for e in row)))

    def __repr__(self):
        return (f"QMap({self.source} -> {self.target}, fab={self.fab.matrix}, "
                f"gamma={[g.coords for g in self.gamma]})")


# ---------------------------------------------------------------------------
# Basic constructors.

def _shift(source: ab.FGAbelian, target: ab.FGAbelian, offset: int, n: int = 1) -> ab.AbHom:
    """Generator j to n times generator j + offset (to zero out of range)."""
    return ab.AbHom(source, target, [[n if i == j + offset else 0 for j in range(source.rank)]
                                     for i in range(target.rank)])


def _hom(g: nil2.Nil2Group, h: nil2.Nil2Group, fab, fcomm, gamma=None) -> QMap:
    """The q-map with data (fab, fcomm, gamma) and zero cross-effect;
    gamma is zero unless given."""
    bz = h.B.zero()
    r = g.rank
    return QMap(g, h, fab, fcomm, [bz] * r if gamma is None else gamma,
                [[bz] * r for _ in range(r)])


def identity_qmap(g: nil2.Nil2Group) -> QMap:
    return _hom(g, g, ab.AbHom.identity(g.A), ab.AbHom.identity(g.B))


def zero_qmap(g: nil2.Nil2Group, h: nil2.Nil2Group) -> QMap:
    return _hom(g, h, ab.AbHom.zero(g.A, h.A), ab.AbHom.zero(g.B, h.B))


def power_qmap(g: nil2.Nil2Group, n: int) -> QMap:
    """The n-th power map a -> n a, with (a|b)_n = -(n(n-1)/2) [a,b]."""
    gamma = [(n * g.gen(i)).b for i in range(g.rank)]
    c = -(n * (n - 1) // 2)
    return QMap(g, g, _shift(g.A, g.A, 0, n), _shift(g.B, g.B, 0, n), gamma,
                [[c * e for e in row] for row in g.commutators])


def addition_qmap(g: nil2.Nil2Group) -> QMap:
    """The group law + : G x G -> G, the sum p_1 + p_2 of the product
    projections, so ((a,b)|(c,d))_+ = [c, b] by the sum formula."""
    p = nil2.product(g, g)
    return product_projection(p, 0) + product_projection(p, 1)


def qmap_from_z(h: nil2.Nil2Group, a: nil2.Nil2Element, b: nil2.Nil2Element) -> QMap:
    """f_{a,b} : Z -> H, n -> n a + (n(n-1)/2) b; requires b in [H,H]."""
    if a.group != h or b.group != h:
        raise InvalidArgument("images must lie in the target group")
    if not b.a.is_zero():
        raise NotAQMap(f"{b!r} is not in the commutator subgroup")
    src = nil2.free(1)
    fab = ab.AbHom.from_columns(src.A, h.A, [a.a])
    fcomm = ab.AbHom.zero(src.B, h.B)
    return QMap(src, h, fab, fcomm, [a.b], [[b.b]])


def qmap_from_function(source, target, fn) -> QMap:
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
    q = QMap(source, target, fab, fcomm, gamma, delta)
    if source.is_finite():
        for z in source.elements():
            if q.eval(z) != fn(z):
                raise NotAQMap(
                    f"function disagrees with its generator data at {z!r}")
    return q


# ---------------------------------------------------------------------------
# beta(f) : Ker(fab) -> coker(fcomm).

class BetaData:
    """The induced map beta(f) : Ker(fab) -> coker(fcomm).

    Always well-defined on cosets (different lifts differ by commutator
    elements, and f is additive on those).  Additivity over the kernel is
    checked exhaustively and recorded in `additive`: it holds for all
    homomorphisms, but genuine q-maps with a symmetric cross-effect on
    the kernel can fail it (the squaring map on Q8 is an example), in
    which case `hom` is None and only `value` is meaningful.
    """

    def __init__(self, qmap: QMap):
        if not (qmap.source.is_finite() and qmap.target.is_finite()):
            raise UnsupportedEnumeration("beta is computed for finite groups")
        self.qmap = qmap
        self.kernel, self.incl = ab.kernel(qmap.fab)
        self.coker, self.proj = ab.cokernel(qmap.fcomm)
        self.additive = all(
            self.value(x + y) == self.value(x) + self.value(y)
            for x in self.kernel.elements() for y in self.kernel.elements())
        if self.additive:
            cols = [self.value(self.kernel.gen(i))
                    for i in range(self.kernel.rank)]
            self.hom = ab.AbHom.from_columns(self.kernel, self.coker, cols)
        else:
            self.hom = None

    def value(self, k: ab.AbElement) -> ab.AbElement:
        """beta(f) at a kernel element, via the defining formula."""
        z = self.qmap.source.pair(self.incl.apply(k), self.qmap.source.B.zero())
        w = self.qmap.eval(z)
        assert w.a.is_zero()
        return self.proj.apply(w.b)


def qmap_beta(qmap: QMap) -> BetaData:
    return BetaData(qmap)


# ---------------------------------------------------------------------------
# Factorization through the universal quadratic extension.

class P2Factorization:
    """The homomorphism P2(G) -> H induced by a q-map q : G -> H,
    (xi, g) -> (cross-effect hom)(xi) + q(g)."""

    def __init__(self, qmap: QMap):
        self.qmap = qmap
        self.extension = nil2.p2_extension(qmap.source)
        tens = self.extension.tensor
        self.cross_hom = ab.AbHom.from_columns(
            tens.group, qmap.target.B, tens.columns(lambda i, j: qmap.delta[i][j]))

    def eval(self, el: nil2.P2Element) -> nil2.Nil2Element:
        return (self.qmap.target.central(self.cross_hom.apply(el.xi))
                + self.qmap.eval(el.g))


def qmap_p2_factorize(qmap: QMap) -> P2Factorization:
    return P2Factorization(qmap)


# ---------------------------------------------------------------------------
# Structural q-maps of products and coproducts.

def product_projection(p: nil2.Nil2Group, k: int) -> QMap:
    gk, off_a, off_b = nil2._factor(p, "product", k)
    return _hom(p, gk, _shift(p.A, gk.A, -off_a), _shift(p.B, gk.B, -off_b))


def _inclusion(whole: nil2.Nil2Group, tag: str, k: int) -> QMap:
    gk, off_a, off_b = nil2._factor(whole, tag, k)
    return _hom(gk, whole, _shift(gk.A, whole.A, off_a), _shift(gk.B, whole.B, off_b))


def product_inclusion(p: nil2.Nil2Group, k: int) -> QMap:
    return _inclusion(p, "product", k)


def coproduct_inclusion(c: nil2.Nil2Group, k: int) -> QMap:
    return _inclusion(c, "coproduct", k)


def coproduct_couniversal(c: nil2.Nil2Group, u: QMap, v: QMap) -> QMap:
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
    return _hom(c, x, ab.AbHom.from_columns(c.A, x.A, u.fab.columns() + v.fab.columns()),
                ab.AbHom.from_columns(c.B, x.B,
                                      u.fcomm.columns() + v.fcomm.columns() + tens_cols),
                u.gamma + v.gamma)


# ---------------------------------------------------------------------------
# Enumeration.

def _lazy(items):
    """A lazy choice list: each copy of the tee iterates `items` from the start."""
    return itertools.tee(items, 1)[0]


def _product(lists):
    """itertools.product over `_lazy` lists, reading each only as needed."""
    if not lists:
        return iter([()])
    return ((x,) + rest for x in lists[0].__copy__() for rest in _product(lists[1:]))


def _relations(g: nil2.CentralExtension, h: nil2.CentralExtension, homs: bool):
    """(fcomm, fab columns xs, k) -> the lists of delta_kk (with gamma_k's)
    and delta_ik, i < k, or None if one is empty, once per relation value."""
    orders, eb, A = g.A.orders, h.B.orders, h.A._trusted
    tors = [(d * g.gen(i)).b for i, d in enumerate(orders)]
    el = functools.partial(ab.AbElement, h.B)
    image = functools.cache(lambda f: ([f.apply(t).coords for t in tors],
                                       [[f.apply(c).coords for c in r] for r in g.commutators]))
    power = functools.cache(lambda d, x: (d * h.pair(A(x), h.B.zero())).b.coords)
    pair = functools.cache(lambda x, y: h.commutator_pairing(A(x), A(y)).coords)
    gammas = functools.cache(lambda d, y: _lazy(ab._scalar_solutions(d, el(y))))

    def red(v):
        return tuple([x % e for x, e in zip(v, eb)])

    @functools.cache
    def diag(d, rhs):
        c = 0 if homs else d * (d - 1) // 2
        if ab._solvable(d, el(rhs), c):
            ys = ((e, red([t - c * u for t, u in zip(rhs, e)]))
                  for e in ab._killed(eb, 1 if homs else d))
            return _lazy((el(e), gammas(d, y)) for e, y in ys if ab._solvable(d, el(y)))

    @functools.cache
    def upper(m, s):
        if not any(m * t % e for t, e in zip(s, eb)):
            return _lazy((el(v), el(red(map(add, v, s)))) for v in ab._killed(eb, m))

    def column(f, xs, k):
        (tors_f, comm_f), x, d = image(f), xs[k], orders[k]
        lists = [diag(d, red(map(sub, tors_f[k], power(d, x))))]
        lists += [upper(1 if homs else gcd(orders[i], d),
                        red(map(sub, pair(xs[i], x), comm_f[i][k]))) for i in range(k)]
        return None if None in lists else lists

    return column


def _presentations(g: nil2.CentralExtension, h: nil2.CentralExtension, fabs, fcomms,
                   homs=False):
    """Generator data (fab, fcomm, gamma, delta) of every q-map G -> H with
    fab from `fabs` and fcomm from the list `fcomms`, for finite central
    extensions G and H (`nil2.CentralExtension`: groups, P2(G), Lie rings).

    The one solver of the three relation families, each on one coordinate:
    delta_kk = e in B_H[d_k] when rhs_k - C(d_k, 2) e = d_k gamma_k is
    solvable, rhs_k = fcomm(d_k e_k) - d_k (fab e_k, 0); delta_ik (i < k)
    is all of B_H[d_i, d_k] when s = [fab e_i, fab e_k] - fcomm([e_i, e_k])
    has d_i s = d_k s = 0, and delta_ki = delta_ik + s.  Order: fab, fcomm,
    delta's diagonal, its upper triangle, gamma (lexicographic); maps with
    one diagonal and upper triangle share a delta.  `homs` pins delta to 0.
    """
    column, r = _relations(g, h, homs), g.rank
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for fab in fabs:
        xs = [tuple([row[i] for row in fab.matrix]) for i in range(r)]
        for fcomm in fcomms:
            cols = [column(fcomm, xs, k) for k in range(r)]
            if None in cols:
                continue
            for choice in _product([c[0] for c in cols] + [cols[j][1 + i] for i, j in pairs]):
                diag, up = choice[:r], dict(zip(pairs, choice[r:]))
                delta = tuple(tuple(diag[i][0] if i == j else up[i, j][0] if i < j
                                    else up[j, i][1] for j in range(r)) for i in range(r))
                for gamma in _product([gl for _, gl in diag]):
                    yield fab, fcomm, gamma, delta


def _enumerate(g, h, what, homs=False):
    """The q-maps of `_presentations`; the maps with one fab share a plan."""
    if not (g.is_finite() and h.is_finite()):
        raise UnsupportedEnumeration(f"{what} enumeration needs finite groups")
    plan = None
    for data in _presentations(g, h, ab.enumerate_homs(g.A, h.A),
                               list(ab.enumerate_homs(g.B, h.B)), homs):
        if plan is None or plan.fab is not data[0]:
            plan = _FabPlan(g, h, data[0])
        yield QMap(g, h, *data, _validated=True, _plan=plan)


def enumerate_qmaps(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """All q-maps G -> H, deterministic order (see `_presentations`).

    Complete against the brute-force set-map filter (acceptance property).
    """
    yield from _enumerate(g, h, "q-map")


def enumerate_homs(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """All group homomorphisms G -> H (q-maps with zero cross-effect), in
    the order of filtering enumerate_qmaps by is_hom."""
    yield from _enumerate(g, h, "homomorphism", homs=True)


# ---------------------------------------------------------------------------
# Function-level oracles (independent of the presentation machinery): they
# read only the groups' integer Cayley tables, built from the group law.

def _member_mask(h: nil2.Nil2Group, kind: str):
    """good[w] per H-index w: in [H,H] ("qmap") or central ("quadratic")."""
    if kind == "qmap":
        return [w.a.is_zero() for w in h.elements()]
    if kind == "quadratic":
        ctr = nil2.center(h)
        return [ctr.contains(w) for w in h.elements()]
    raise InvalidArgument(f"unknown filter kind {kind!r}")


def _cross_ok(vals, gadd, hadd, hneg, good, cross) -> bool:
    """The defining conditions on a value table, vals[x] = H-index of f(x).

    Fills the n x n buffer `cross` with (x|y)_f = -(f(x)+f(y)) + f(x+y),
    failing at the first value w with not good[w]; then the cross-effect
    is bilinear iff each row and each column v has v[x+z] = v[x] + v[z].
    """
    for x, vx in enumerate(vals):
        row, gx, hx = cross[x], gadd[x], hadd[vx]
        for y, vy in enumerate(vals):
            row[y] = c = hadd[hneg[hx[vy]]][vals[gx[y]]]
            if not good[c]:
                return False
    return all(all([v[s] for s in gx] == [hadd[vx][w] for w in v]
                   for gx, vx in zip(gadd, v))
               for v in itertools.chain(cross, zip(*cross)))


def _function_ok(fn, g, h, good) -> bool:
    gt, ht = g.table(), h.table()
    vals = []
    for z in g.elements():
        w = fn(z)
        if w.group != h:
            raise InvalidArgument(f"value {w!r} at {z!r} is not in the target group")
        vals.append(ht.index[w.a.coords, w.b.coords])
    n = len(vals)
    return _cross_ok(vals, gt.add, ht.add, ht.neg, good, [[0] * n for _ in range(n)])


def is_qmap_function(fn, g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Definition-level check: cross-effect in [H,H] and bilinear."""
    return _function_ok(fn, g, h, _member_mask(h, "qmap"))


def is_quadratic_function(fn, g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Cross-effect central and bilinear (not necessarily in [H,H])."""
    return _function_ok(fn, g, h, _member_mask(h, "quadratic"))


def quadratic_functions_bruteforce(g: nil2.Nil2Group, h: nil2.Nil2Group,
                                   kind: str = "qmap"):
    """Exhaustive filter of all set maps G -> H by the defining conditions.

    `kind` = "qmap" requires the cross-effect in [H,H]; "quadratic"
    requires it central.  Runs on the integer Cayley tables of G and H,
    built from the group law and never from q-map data.  Backtracking
    assigns values in element order and prunes on the membership
    condition; survivors get the full bilinearity check.  Returns value
    tables as tuples of H-element indices, sorted.
    """
    gadd, ht = g.table().add, h.table()
    good = _member_mask(h, kind)
    hadd, hneg = ht.add, ht.neg
    n = len(gadd)
    by_max = [[] for _ in range(n)]
    for i in range(n):
        for j, k in enumerate(gadd[i]):
            by_max[max(i, j, k)].append((i, j, k))
    values = [-1] * n          # -1: no value tried yet at this position
    cross = [[0] * n for _ in range(n)]
    out = []
    pos = 0
    while pos >= 0:
        if pos == n:
            if _cross_ok(values, gadd, hadd, hneg, good, cross):
                out.append(tuple(values))
            pos -= 1
            continue
        values[pos] += 1
        if values[pos] == len(hadd):
            values[pos] = -1
            pos -= 1
        elif all(good[hadd[hneg[hadd[values[i]][values[j]]]][values[k]]]
                 for i, j, k in by_max[pos]):
            pos += 1
    return sorted(out)
