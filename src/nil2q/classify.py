"""Decision procedures: group isomorphism, similarity, q-splitness and
Niq-isomorphism.  The ~ and == equivalences on q-maps and the verifiers of
the linear-extension structure are in `linext`, which no query imports.

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

from . import abelian as ab
from . import nil2, qmaps
from .errors import InternalInvariant, Unsupported


# ---------------------------------------------------------------------------
# Similarity.

def similar(g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Isomorphic abelianizations and isomorphic commutator subgroups."""
    return (g.A.invariant_factors() == h.A.invariant_factors()
            and g.B.invariant_factors() == h.B.invariant_factors())


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
    column = qmaps._relations(g, h, homs)[1]
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
    from .qmap_constructions import qmap_from_function
    qinv = qmap_from_function(h, g, table.__getitem__)
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
    log criterion (after (a), only if |Hom(B_G, B_H)| <= `search_guard`^2);
    (c) direct witness search (guarded by `search_guard` on the group
    order when another path already applies).  All paths must agree.
    """
    if not (g.is_finite() and h.is_finite()):
        raise Unsupported("the decision procedure needs finite groups")
    paths = {}
    witness = None
    qs_g, qs_h = is_qsplit(g), is_qsplit(h)
    if qs_g.verdict and qs_h.verdict:
        paths["qsplit-similar"] = similar(g, h)
    odd = g.order() % 2 == 1 and h.order() % 2 == 1
    if odd and paths:
        from .abelian_constructions import hom_count
        odd = hom_count(g.B, h.B) <= search_guard ** 2
    if odd:
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
