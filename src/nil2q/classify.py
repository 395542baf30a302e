"""Decision procedures: group isomorphism, similarity, q-splitness,
Niq-isomorphism, the ~ and == equivalences on q-maps, and verifiers for
the linear-extension structure.

q-splitness of a finite group is decided by exhaustive search for a
section of the projection onto the abelianization: the first fab = id,
fcomm = 0 presentation of a q-map G_ab -> G (the q-map solver of
`qmaps`); infinite groups are reported structurally when they were
built by the constructions known to preserve q-splitness (abelian
groups, products, coproducts, free groups).  Plain isomorphism, Niq
isomorphism and the odd-order log criterion of `maltsev` are one pruned
search over isomorphism pairs (fab, fcomm), `_iso_pair`, with the
cross-effect pinned to zero for plain isomorphism and for the additive
isomorphisms of the Lie rings; it reads no Cayley table, only the
independent check of a group witness (`_iso_search`) does.
"""

from __future__ import annotations

import itertools

from . import abelian as ab
from . import nil2, qmaps
from .errors import (
    InternalInvariant,
    InvalidArgument,
    InvalidHomomorphism,
    Unsupported,
)
from .report import CheckResult


# ---------------------------------------------------------------------------
# Similarity.

def similar(g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Isomorphic abelianizations and isomorphic commutator subgroups."""
    return ab.isomorphic(g.A, h.A) and ab.isomorphic(g.B, h.B)


# ---------------------------------------------------------------------------
# q-splitness.

def abelianization_projection(g: nil2.Nil2Group) -> qmaps.QMap:
    """The quotient homomorphism G -> G_ab (target built with trivial B)."""
    tgt = nil2.from_abelian(g.A)
    return qmaps._hom(g, tgt, ab.AbHom.identity(g.A), ab.AbHom.zero(g.B, tgt.B))


class QSplitResult:
    __slots__ = ("verdict", "mode", "section")   # mode "search" or "structural"

    def __init__(self, verdict: bool, mode: str, section: qmaps.QMap = None):
        self.verdict, self.mode, self.section = verdict, mode, section

    def __bool__(self):
        return self.verdict


def _section_search(g: nil2.Nil2Group):
    """Generator data (fab, fcomm, gamma, delta) of the first section of
    G -> G_ab, or None: the first fab = id, fcomm = 0 presentation of a
    q-map G_ab -> G in enumeration order."""
    src = nil2.from_abelian(g.A)
    return next(qmaps._presentations(src, g, [ab.AbHom.identity(g.A)],
                                     [ab.AbHom.zero(src.B, g.B)]), None)


def is_qsplit(g: nil2.Nil2Group) -> QSplitResult:
    """Does the projection G -> G_ab admit a quadratic section?

    Finite groups are decided by exhaustive section search; infinite
    groups only when built by constructions that preserve q-splitness.
    """
    if g.is_finite():
        data = _section_search(g)
        if data is None:
            return QSplitResult(False, "search")
        section = qmaps.QMap(nil2.from_abelian(g.A), g, *data)
        proj = abelianization_projection(g)
        composite = proj.compose(section)
        if composite != qmaps.identity_qmap(proj.target):
            raise InternalInvariant("section does not split the projection")
        return QSplitResult(True, "search", section)
    if g.is_abelian():
        return QSplitResult(True, "structural")
    prov = g.provenance or ()
    if prov and prov[0] == "free":
        return QSplitResult(True, "structural")
    if prov and prov[0] in ("product", "coproduct"):
        if is_qsplit(prov[1]).verdict and is_qsplit(prov[2]).verdict:
            return QSplitResult(True, "structural")
    raise Unsupported(
        "q-splitness of an infinite group without a structural guarantee")


# ---------------------------------------------------------------------------
# Isomorphism: plain and in Niq.

def _iso_pair(g, h, homs: bool):
    """The first q-map (`homs`: homomorphism) G -> H over an isomorphism
    pair (fab, fcomm), or None, for finite central extensions G and H (the
    groups here, their Lie rings for `maltsev`'s log criterion); for
    |G| = |H| these are the q-maps with a q-map inverse.  `keep` holds, per
    column prefix of fab, the iso fcomm that pass the solver's
    per-coordinate tests at the prefix's last column (`qmaps._relations`).
    So the first presentation over the kept pairs is the first over all.
    """
    if not (g.is_finite() and h.is_finite()):
        raise Unsupported("isomorphism search needs finite groups")
    if g.order() != h.order():
        return None
    column = qmaps._relations(g, h, homs)
    live = [list(ab.isomorphisms(g.B, h.B))]   # live[k]: the fcomm kept by the k-column prefix

    def keep(cols):
        k, xs = len(cols) - 1, [x.coords for x in cols]
        live[k + 1:] = [[f for f in live[k] if column(f, xs, k) is not None]]
        return bool(live[-1])

    fab = next(ab.isomorphisms(g.A, h.A, keep=keep), None)
    if fab is None:
        return None
    data = next(qmaps._presentations(g, h, [fab], live[-1], homs), None)
    if data is None:
        raise InternalInvariant("a kept iso pair has no presentation")
    return qmaps.QMap(g, h, *data, _validated=True)


def _iso_search(g: nil2.Nil2Group, h: nil2.Nil2Group, homs: bool):
    """`_iso_pair`'s q-map with its inverse, or None, checked
    independently: tabulated, bijective, its inverse a q-map (`homs`: a
    homomorphism) by the definition."""
    q = _iso_pair(g, h, homs)
    if q is None:
        return None
    table = {q.eval(z): z for z in g.elements()}
    if len(table) != g.order() or not qmaps.is_qmap_function(table.__getitem__, h, g):
        raise InternalInvariant("iso-pair q-map has no q-map inverse")
    qinv = qmaps.qmap_from_function(h, g, table.__getitem__)
    if homs and not qinv.is_hom():
        raise InternalInvariant("iso-pair homomorphism has no homomorphism inverse")
    return q, qinv


def find_niq_iso_witness(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """First q-map with a q-map inverse, with that inverse, or None."""
    return _iso_search(g, h, homs=False)


def find_group_iso_witness(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """First group isomorphism G -> H, with its inverse, or None."""
    return _iso_search(g, h, homs=True)


def groups_isomorphic(g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Isomorphism of finite nil_2-groups as plain groups."""
    return find_group_iso_witness(g, h) is not None


class IsoDecision:
    __slots__ = ("verdict", "paths", "witness")

    def __init__(self, verdict: bool, paths: dict, witness: tuple = None):
        self.verdict, self.paths, self.witness = verdict, paths, witness


def niq_iso_decide(g: nil2.Nil2Group, h: nil2.Nil2Group,
                   search_guard: int = 64) -> IsoDecision:
    """Decide isomorphism in Niq, reporting every applicable path.

    (a) both q-split: reduces to similarity; (b) both of odd order: the
    log criterion; (c) direct witness search (guarded by `search_guard`
    on the group order when another path already applies).  All
    applicable paths must agree.
    """
    if not (g.is_finite() and h.is_finite()):
        raise Unsupported("the decision procedure needs finite groups")
    paths = {}
    witness = None
    qs_g, qs_h = is_qsplit(g), is_qsplit(h)
    if qs_g.verdict and qs_h.verdict:
        paths["qsplit-similar"] = similar(g, h)
    if g.order() % 2 == 1 and h.order() % 2 == 1:
        from . import maltsev
        ok, _ = maltsev.log_criterion_decide(g, h)
        paths["log-criterion"] = ok
    big = max(g.order(), h.order())
    if big <= search_guard or not paths:
        if big > search_guard:
            raise Unsupported(
                f"witness search needed but order {big} exceeds the guard "
                f"{search_guard}")
        found = find_niq_iso_witness(g, h)
        paths["witness-search"] = found is not None
        witness = found
    verdicts = set(paths.values())
    if len(verdicts) != 1:
        raise InternalInvariant(f"decision paths disagree: {paths}")
    return IsoDecision(verdicts.pop(), paths, witness)


# ---------------------------------------------------------------------------
# The ~ and == equivalences on q-maps.

class EquivalenceWitness:
    __slots__ = ("kind", "alpha")  # "sim" (alpha: G_ab (x) G_ab -> [H,H]) or "approx"

    def __init__(self, kind: str, alpha: ab.AbHom = None):
        self.kind, self.alpha = kind, alpha


def translate_qmap(f: qmaps.QMap, alpha: ab.AbHom) -> qmaps.QMap:
    """The action (f + alpha)(z) = f(z) + alpha(z^ (x) z^)."""
    g, h = f.source, f.target
    tens = ab.tensor(g.A, g.A)
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
    tens = ab.tensor(src.A, src.A)
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
        tens_g = ab.tensor(g.A, g.A)
        actors = list(ab.enumerate_homs(tens_g.group, h.B))
        act = translate_qmap
        null_size = sum(1 for a in actors if _null_tensor_hom(a, g, tens_g))
        morphisms_hh = list(qmaps.enumerate_qmaps(h, h))
        tens_h = ab.tensor(h.A, h.A)
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
    p1, p2 = qmaps.product_projection(w, 0), qmaps.product_projection(w, 1)
    i1, i2 = qmaps.product_inclusion(w, 0), qmaps.product_inclusion(w, 1)
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
