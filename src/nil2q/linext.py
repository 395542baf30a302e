"""Linear extensions of Niq and Nil (Baues-Wirsching): the group actions
on morphisms, the ~ and == equivalences they induce, the maps q-maps induce
on kernels and on the universal quadratic extension P2(G), P2(G) itself,
and the verifiers of the linear-extension and weak-coproduct structure.

A homomorphism alpha : G_ab (x) G_ab -> [H,H] translates a q-map G -> H,
(f + alpha)(z) = f(z) + alpha(z^ (x) z^), and k : G_ab -> [H,H] translates a
homomorphism; f ~ g when g is a translate of f, f == g when both induce the
same (fab, fcomm).  No `info` or `iso` query reaches this module: only the
`linext` suite of `verify` imports it, so the queries do not compile it.
"""

from __future__ import annotations

import itertools
from operator import sub

from . import abelian as ab
from . import abelian_constructions as abx
from . import nil2, qmaps
from . import qmap_constructions as qmc
from .errors import (
    InternalInvariant,
    InvalidArgument,
    InvalidHomomorphism,
    UnsupportedEnumeration,
)
from .report import CheckResult


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

    def __init__(self, qmap: qmaps.QMap):
        if not (qmap.source.is_finite() and qmap.target.is_finite()):
            raise UnsupportedEnumeration("beta is computed for finite groups")
        self.qmap = qmap
        self.kernel, self.incl = ab.kernel(qmap.fab)
        self.coker, self.proj = abx.cokernel(qmap.fcomm)
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
        if not w.a.is_zero():
            raise InternalInvariant(f"f({z!r}) = {w!r} has a nonzero A-part")
        return self.proj.apply(w.b)


def qmap_beta(qmap: qmaps.QMap) -> BetaData:
    return BetaData(qmap)


# ---------------------------------------------------------------------------
# The universal quadratic central extension P2, and factorization through it.

class P2Element(nil2.Nil2Element):
    """Element (xi, g) of P2(G), stored as (a, (u, xi)) with g = (a, u)."""

    __slots__ = ()

    @property
    def xi(self):
        ext = self.group
        return ab.AbElement(ext.tensor.group, self.b.coords[ext.base.B.rank:])

    @property
    def g(self):
        base = self.group.base
        return nil2.Nil2Element(base, self.a, ab.AbElement(base.B, self.b.coords[:base.B.rank]))


class P2Extension(nil2.CentralExtension):
    """The central extension 0 -> A (x) A -> P2(G) -> G -> 0.

    Pairs (xi, g) with (xi, g) + (xi', g') = (xi + xi' - g^ (x) g'^, g + g'):
    G's data with B widened by A (x) A and -(e_i (x) e_j) added to bil[i][j].
    The section p2(g) = (0, g) is the universal quadratic map out of G.
    """

    __slots__ = ("base", "tensor")
    element_class = P2Element

    def __init__(self, base: nil2.Nil2Group):
        self.base = base
        self.tensor = tens = abx.tensor(base.A, base.A)
        _, B, bil, carry, embt = nil2._block_sum(base, nil2.from_abelian(ab.FGAbelian([])),
                                                tens.group)
        e = base.A.gen
        bil = [[B._trusted(map(sub, x.coords, embt(tens.pure(e(i), e(j)).coords).coords))
                for j, x in enumerate(row)] for i, row in enumerate(bil)]
        super().__init__(base.A, B, bil, carry)

    def element(self, xi, g):
        if xi.group != self.tensor.group or g.group != self.base:
            raise InvalidArgument("components not in A (x) A and G")
        return P2Element(self, g.a, ab.AbElement(self.B, g.b.coords + xi.coords))

    def p2(self, g: nil2.Nil2Element) -> P2Element:
        return self.element(self.tensor.group.zero(), g)

    def proj(self, el: P2Element) -> nil2.Nil2Element:
        return el.g

    def elements(self):
        """All elements, xi-major: A (x) A outer, G's order inner."""
        if not self.is_finite():
            raise UnsupportedEnumeration("cannot enumerate an infinite extension")
        for xi in self.tensor.group.elements():
            for g in self.base.elements():
                yield self.element(xi, g)


def p2_extension(g: nil2.Nil2Group) -> P2Extension:
    return P2Extension(g)


class P2Factorization:
    """The homomorphism P2(G) -> H induced by a q-map q : G -> H,
    (xi, g) -> (cross-effect hom)(xi) + q(g)."""

    def __init__(self, qmap: qmaps.QMap):
        self.qmap = qmap
        self.extension = p2_extension(qmap.source)
        tens = self.extension.tensor
        self.cross_hom = ab.AbHom.from_columns(
            tens.group, qmap.target.B, tens.columns(lambda i, j: qmap.delta[i][j]))

    def eval(self, el: P2Element) -> nil2.Nil2Element:
        return (self.qmap.target.central(self.cross_hom.apply(el.xi))
                + self.qmap.eval(el.g))


def qmap_p2_factorize(qmap: qmaps.QMap) -> P2Factorization:
    return P2Factorization(qmap)


# ---------------------------------------------------------------------------
# The ~ and == equivalences on q-maps.

class EquivalenceWitness:
    __slots__ = ("kind", "alpha")  # "sim" (alpha: G_ab (x) G_ab -> [H,H]) or "approx"

    def __init__(self, kind: str, alpha: ab.AbHom = None):
        self.kind, self.alpha = kind, alpha


def translate_qmap(f: qmaps.QMap, alpha: ab.AbHom) -> qmaps.QMap:
    """The action (f + alpha)(z) = f(z) + alpha(z^ (x) z^)."""
    g, h = f.source, f.target
    tens = abx.tensor(g.A, g.A)
    if alpha.source != tens.group or alpha.target != h.B:
        raise InvalidArgument("alpha must map G_ab (x) G_ab into [H,H]")
    r = g.rank
    gamma = [f.gamma[i] + tens.at(alpha, i, i) for i in range(r)]
    delta = [[f.delta[i][j] + tens.at(alpha, i, j) + tens.at(alpha, j, i)
              for j in range(r)] for i in range(r)]
    return qmaps.QMap(g, h, f.fab, f.fcomm, gamma, delta)


def translate_hom(f: qmaps.QMap, k: ab.AbHom) -> qmaps.QMap:
    """The action (f + k)(z) = f(z) + k(z^) on homomorphisms."""
    g, h = f.source, f.target
    if k.source != g.A or k.target != h.B:
        raise InvalidArgument("k must map G_ab into [H,H]")
    gamma = [f.gamma[i] + k.column(i) for i in range(g.rank)]
    return qmaps.QMap(g, h, f.fab, f.fcomm, gamma, f.delta)


def qmap_sim_equiv(f: qmaps.QMap, g: qmaps.QMap):
    """Decide f ~ g (g = f + alpha for a homomorphism alpha on the tensor
    square); returns (bool, EquivalenceWitness or None)."""
    if f.source != g.source or f.target != g.target:
        raise InvalidArgument("equivalence needs equal endpoints")
    if f.fab != g.fab or f.fcomm != g.fcomm:
        return False, None
    src, tgt = f.source, f.target
    r = src.rank
    dgamma = [g.gamma[i] - f.gamma[i] for i in range(r)]
    ddelta = [[g.delta[i][j] - f.delta[i][j] for j in range(r)] for i in range(r)]
    for i in range(r):
        if 2 * dgamma[i] != ddelta[i][i]:
            return False, None
        for j in range(i + 1, r):
            if ddelta[i][j] != ddelta[j][i]:
                return False, None
    tens = abx.tensor(src.A, src.A)
    zero = tgt.B.zero()
    cols = tens.columns(lambda i, j: dgamma[i] if i == j
                        else ddelta[i][j] if i < j else zero)
    try:
        alpha = ab.AbHom.from_columns(tens.group, tgt.B, cols)
    except InvalidHomomorphism:
        # torsion obstruction: the forced diagonal value has too large order
        return False, None
    if translate_qmap(f, alpha) != g:
        raise InternalInvariant("translation witness failed to reproduce g")
    return True, EquivalenceWitness("sim", alpha)


def qmap_approx_equiv(f: qmaps.QMap, g: qmaps.QMap) -> bool:
    """f == g in the coarser quotient: equal induced maps on the
    abelianization and the commutator subgroup."""
    if f.source != g.source or f.target != g.target:
        raise InvalidArgument("equivalence needs equal endpoints")
    return f.fab == g.fab and f.fcomm == g.fcomm


# ---------------------------------------------------------------------------
# Linear-extension verification.

def _null_tensor_hom(alpha: ab.AbHom, src: nil2.Nil2Group, tens) -> bool:
    """Does alpha vanish on all squares x^ (x) x^?"""
    r = src.rank
    for i in range(r):
        if not tens.at(alpha, i, i).is_zero():
            return False
        for j in range(i + 1, r):
            if not (tens.at(alpha, i, j) + tens.at(alpha, j, i)).is_zero():
                return False
    return True


def linear_extension_verify(level: str, g: nil2.Nil2Group, h: nil2.Nil2Group,
                            max_quads: int = 400, instance: str = None):
    """Verify the linear-extension axioms on enumerated morphisms.

    level "nil": homomorphisms with Hom(G_ab, [H,H]) acting; the fibers
    of the quotient are the classes with equal induced (fab, fcomm).
    level "niq": q-maps with Hom(G_ab (x) G_ab, [H,H]) acting; the
    effective group is the quotient by the null subgroup (homomorphisms
    vanishing on all squares), and the fibers are the ~ classes, checked
    against the pairwise decision procedure.
    The distributivity law is checked on composable quadruples through
    G -> H -> H, the first `max_quads` in product order.
    """
    inst = instance or f"{level}:{g}|{h}"
    results = []
    if level == "nil":
        morphisms = list(qmaps.enumerate_homs(g, h))
        actors = list(ab.enumerate_homs(g.A, h.B))
        act = translate_hom
        null_size = 1
        morphisms_hh = list(qmaps.enumerate_homs(h, h))
        actors_hh = list(ab.enumerate_homs(h.A, h.B))

        def pull(gq, a):
            return a.compose(gq.fab)
    elif level == "niq":
        morphisms = list(qmaps.enumerate_qmaps(g, h))
        tens_g = abx.tensor(g.A, g.A)
        actors = list(ab.enumerate_homs(tens_g.group, h.B))
        act = translate_qmap
        null_size = sum(1 for a in actors if _null_tensor_hom(a, g, tens_g))
        morphisms_hh = list(qmaps.enumerate_qmaps(h, h))
        tens_h = abx.tensor(h.A, h.A)
        actors_hh = list(ab.enumerate_homs(tens_h.group, h.B))

        def pull(gq, a):
            cols = tens_g.columns(lambda i, j: a.apply(
                tens_h.pure(gq.fab.column(i), gq.fab.column(j))))
            return ab.AbHom.from_columns(tens_g.group, h.B, cols)
    else:
        raise InvalidArgument(f"unknown level {level!r}")

    def push(f, b):
        return f.fcomm.compose(b)

    morph_set = set(morphisms)
    closed = True
    free = True
    is_action = True
    orbits = {}
    for f in morphisms:
        if f in orbits:
            continue
        orbit = set()
        for a in actors:
            fa = act(f, a)
            orbit.add(fa)
            if fa not in morph_set:
                closed = False
        if len(orbit) * null_size != len(actors):
            free = False
        for f2 in orbit:
            orbits[f2] = orbit
    for f in itertools.islice(morphisms, 5):
        for a in itertools.islice(actors, 4):
            for b in itertools.islice(actors, 4):
                if act(act(f, a), b) != act(f, a + b):
                    is_action = False
    results.append(CheckResult("action-closed", inst, closed))
    results.append(CheckResult("action-additive", inst, is_action))
    results.append(CheckResult("action-free-on-fibers", inst, free,
                               f"null subgroup size {null_size}"))

    if level == "nil":
        # fibers of the quotient are the equal-(fab, fcomm) classes
        fibers = {}
        for f in morphisms:
            fibers.setdefault((f.fab, f.fcomm), set()).add(f)
        transitive = all(orbits[f] == fibers[(f.fab, f.fcomm)] for f in morphisms)
        results.append(CheckResult("action-fiber-transitive", inst, transitive))
    else:
        # fibers are the ~ classes: orbit membership must agree with the
        # pairwise decision procedure
        agree = True
        sample = morphisms[: min(len(morphisms), 40)]
        for f in sample:
            for f2 in sample:
                if (f2 in orbits[f]) != qmap_sim_equiv(f, f2)[0]:
                    agree = False
        results.append(CheckResult("orbits-match-sim-decision", inst, agree))

    # distributivity: (f + a)(g' + b) = f g' + f_* b + g'^* a
    ok, quads = True, 0
    for f, gq, a, b in itertools.islice(
            itertools.product(morphisms_hh, morphisms, actors_hh, actors), max_quads):
        quads += 1
        if act(f, a).compose(act(gq, b)) != act(f.compose(gq), push(f, b) + pull(gq, a)):
            ok = False
            break
    results.append(CheckResult("distributivity", inst, ok,
                               f"{quads} quadruples" if ok
                               else f"violated at quadruple {quads}"))
    return results


def weak_coproduct_verify(x1: nil2.Nil2Group, x2: nil2.Nil2Group,
                          z: nil2.Nil2Group, max_pairs: int = 400,
                          instance: str = None):
    """W = X1 x X2 with f = f1 p1 + f2 p2 satisfies f i_k = f_k for the
    first `max_pairs` enumerated pairs (f1, f2) in product order."""
    w = nil2.product(x1, x2)
    p1, p2 = qmc.product_projection(w, 0), qmc.product_projection(w, 1)
    i1, i2 = qmc.product_inclusion(w, 0), qmc.product_inclusion(w, 1)
    f1s = list(qmaps.enumerate_qmaps(x1, z))
    f2s = list(qmaps.enumerate_qmaps(x2, z))
    inst = instance or f"{x1}|{x2}->{z}"
    ok, count = True, 0
    for f1, f2 in itertools.islice(itertools.product(f1s, f2s), max_pairs):
        f = f1.compose(p1) + f2.compose(p2)
        count += 1
        if f.compose(i1) != f1 or f.compose(i2) != f2:
            ok = False
            break
    return [CheckResult("weak-coproduct", inst, ok, f"{count} pairs")]
