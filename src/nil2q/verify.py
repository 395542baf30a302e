"""Deterministic verification suites over the example catalog.

Each suite returns a list of CheckResult records in a fixed order; the
CLI selftest renders them as PASS/FAIL lines and the acceptance tests
assert on them.  Exhaustive loops are bounded by the catalog order caps;
where a morphism space is too large to sweep completely, its members are
drawn by `report.pick` (golden-ratio positions, no randomness) up to the
caps below, and the counts are recorded in the result details.  The
element-pair sweeps read the integer Cayley tables (`_law`); the lemma
suites have one scale, the catalog up to order 125, whatever the caller's
order cap.
"""

from __future__ import annotations

import itertools

from . import abelian as ab
from . import abelian_constructions as abx
from . import catalog, classify, maltsev, nil2, qmaps
from . import qmap_constructions as qmc
from .report import CheckResult, pick

# The fixed scales of the suites; only the catalog order caps vary by caller.
MULTIPLE_RANGE = range(-5, 6)     # the n of the multiple identity
QMAP_IDENTITY_CAP = 120           # q-maps per pair in the identity family
COPRODUCT_TARGET_ORDER = 16       # targets of the universal-property sweep
FREE_WINDOW = 6                   # elements of a free group tested against its centre
COUPLE_CAP = 30                   # picked q-maps per pair in the algebra suite
POINTWISE_COUPLES = 6             # of those, the ones summed pointwise
COMPOSE_CAP = 8                   # picked q-maps per side of a composition triple
TRIPLE_ELEMENTS = 6               # elements per slot of the triple commutator
ROUNDTRIP_SAMPLE = 60             # picked q-maps per decompose round trip


# ---------------------------------------------------------------------------
# Element identities on catalog groups, read off the integer Cayley tables.

def _law(g):
    """The law of finite `g` on the indices of `g.table()`: `add`; `neg` and
    the commutator table -x - y + x + y, with -x from `Nil2Element` negation,
    not from the table; and `at(z)`, the index of element z."""
    add, index = g.table().add, g.table().index

    def at(z):
        return index[z.a.coords, z.b.coords]

    neg = [at(-z) for z in g.elements()]
    comm = [[add[add[nx][ny]][s] for ny, s in zip(neg, row)] for nx, row in zip(neg, add)]
    return add, neg, comm, at


def _pairs(table):
    return ((x, y, e) for x, row in enumerate(table) for y, e in enumerate(row))


def suite_element_identities():
    """Commutator and multiple identities, exhaustive on all element pairs of
    the catalog groups up to order 125: element operations give indices, and
    each identity is a comparison of table lookups."""
    results = []
    for name, g in catalog.standard_catalog(125):
        add, _, comm, at = _law(g)
        elems, pairs = list(g.elements()), list(_pairs(comm))
        ok_def = all(at(elems[x].comm(elems[y])) == c for x, y, c in pairs)
        results.append(CheckResult("commutator-definition", name, ok_def))
        cen = [at(g.central(b)) for b in g.B.elements()]
        ok_central = all(e == 0 for c in cen for e in comm[c])
        results.append(CheckResult("commutators-central", name, ok_central))
        # the commutator depends only on abelianization classes and agrees with the
        # antisymmetrized cocycle data; `elements` is A x B lexicographic
        avals, nb = list(g.A.elements()), len(cen)
        pairing = [[at(g.central(g.commutator_pairing(a, b))) for b in avals] for a in avals]
        ok_pairing = all(c == pairing[x // nb][y // nb] for x, y, c in pairs)
        results.append(CheckResult("commutator-pairing-data", name, ok_pairing))
        ok_anti = all(add[c][comm[y][x]] == 0 for x, y, c in pairs)
        results.append(CheckResult("commutator-antisymmetric", name, ok_anti))
        mult = {n: [at(n * z) for z in elems]
                for m in MULTIPLE_RANGE for n in (m, m * (m - 1) // 2)}
        ok_mult = all(add[m[x]][m[y]] == add[m[add[x][y]]][m2[c]]
                      for m, m2 in [(mult[n], mult[n * (n - 1) // 2]) for n in MULTIPLE_RANGE]
                      for x, y, c in pairs)
        results.append(CheckResult("multiple-identity", name, ok_mult,
                                   f"n in {list(MULTIPLE_RANGE)}"))
        ok_triple = all(row[c] == 0 for row in comm for c in cen)
        results.append(CheckResult("triple-commutator-trivial", name, ok_triple))
    return results


# ---------------------------------------------------------------------------
# q-map identities.

QMAP_PAIRS_SMALL = [("D4", "Q8"), ("Q8", "Q8"), ("Q8", "D4"), ("Z4", "Q8"),
                    ("V4", "D4"), ("Z2vZ2", "Q8")]
QMAP_PAIRS_27 = [("Heis3", "Heis3"), ("G27", "Heis3"), ("Heis3", "G27")]


def _catalog_map(max_order=200):
    return dict(catalog.standard_catalog(max_order))


def suite_qmap_identities():
    """The weakly-quadratic identity family over all element pairs, for
    up to QMAP_IDENTITY_CAP q-maps of each catalog pair picked over its
    whole enumeration (its first maps share one fab), on the integer
    tables of both groups: per q-map the index of each value, and of each
    cross value once per pair of A-classes."""
    cat = _catalog_map()
    results = []
    for gn, hn in QMAP_PAIRS_SMALL + QMAP_PAIRS_27:
        g, h = cat[gn], cat[hn]
        inst = f"{gn}->{hn}"
        qs = pick(qmaps.enumerate_qmaps(g, h), QMAP_IDENTITY_CAP)
        (gadd, gneg, gcomm, gat), (hadd, hneg, hcomm, at) = _law(g), _law(h)
        avals, gel = [a.coords for a in g.A.elements()], list(g.elements())
        cen = [gat(g.central(b)) for b in g.B.elements()]
        idx, cpairs = range(len(gadd)), list(_pairs(gcomm))
        hz, hindex = (0,) * h.A.rank, h.table().index      # a cross value's index
        cls, six = [x // len(cen) for x in idx], pick(idx, TRIPLE_ELEMENTS)  # A-classes, as above
        ok_zero = ok_neg = ok_shift = ok_comm = ok_cross = ok_triple = True
        for q in qs:
            v = [at(q.eval(z)) for z in gel]
            byclass = [[hindex[hz, q.cross_data(a, b).coords] for b in avals] for a in avals]
            cross = [[byclass[p][r] for r in cls] for p in cls]
            ok_zero &= v[0] == 0
            ok_neg &= all(v[gneg[x]] == hadd[hneg[v[x]]][cross[x][x]] for x in idx)
            ok_shift &= all(v[gadd[x][c]] == hadd[v[x]][v[c]] for x in idx for c in cen)
            # cross-effect of the function matches the bilinear data
            ok_cross &= all([hadd[hneg[hadd[vx][vy]]][v[s]] for vy, s in zip(v, row)] == cx
                            for vx, row, cx in zip(v, gadd, cross))
            ok_comm &= all(v[c] == hadd[hadd[hcomm[v[x]][v[y]]][cross[x][y]]][hneg[cross[y][x]]]
                           for x, y, c in cpairs)
            ok_triple &= all(v[gcomm[x][gcomm[y][z]]] == hcomm[v[x]][hcomm[v[y]][v[z]]]
                             for x in six for y in six for z in six)
        checks = [("qmap-zero-value", ok_zero), ("qmap-negation-identity", ok_neg),
                  ("qmap-commutator-shift", ok_shift), ("qmap-cross-matches-data", ok_cross),
                  ("qmap-commutator-image", ok_comm), ("qmap-triple-commutator", ok_triple)]
        results += [CheckResult(c, inst, ok, f"{len(qs)} q-maps") for c, ok in checks]
    return results


# ---------------------------------------------------------------------------
# Coproduct correctness.

def suite_coproduct():
    results = []
    z2 = catalog.cyclic(2)
    w = nil2.coproduct(z2, z2)
    d4 = catalog.dihedral4()
    results.append(CheckResult("coproduct-z2-z2-is-d4", "Z2vZ2",
                               classify.groups_isomorphic(w, d4)))

    cat = _catalog_map(COPRODUCT_TARGET_ORDER)
    targets = [(n, g) for n, g in cat.items() if g.order() <= COPRODUCT_TARGET_ORDER]
    factor_pairs = [(catalog.cyclic(2), catalog.cyclic(2)),
                    (catalog.cyclic(2), catalog.cyclic(4))]
    ok_univ = True
    checked = 0
    for g1, g2 in factor_pairs:
        c = nil2.coproduct(g1, g2)
        i1, i2 = qmc.coproduct_inclusion(c, 0), qmc.coproduct_inclusion(c, 1)
        for _, x in targets:
            # each hom out of the coproduct, filed once by its restrictions
            restrictions = {}
            for t in qmaps.enumerate_homs(c, x):
                restrictions.setdefault((t.compose(i1), t.compose(i2)), []).append(t)
            for u in qmaps.enumerate_homs(g1, x):
                for v in qmaps.enumerate_homs(g2, x):
                    # the one hom restricting to (u, v) is the couniversal map
                    ok_univ &= restrictions.get((u, v)) == [qmc.coproduct_couniversal(c, u, v)]
                    checked += 1
    results.append(CheckResult("coproduct-universal-property", "pairs",
                               ok_univ, f"{checked} hom pairs"))

    for n in (1, 2, 3):
        f = nil2.free(n)
        ext = abx.exterior_square(ab.FGAbelian([0] * n))
        ok = f.B.invariant_factors() == ext.group.invariant_factors()
        # centrality of the kernel on a finite window
        window = pick(itertools.product([-1, 0, 1, 2], repeat=n), FREE_WINDOW)
        bco = [0] * f.B.rank
        for u in range(f.B.rank):
            b1 = [1 if t == u else 0 for t in range(f.B.rank)]
            cen = f.element((0,) * n, b1)
            for co in window:
                if not cen.comm(f.element(co, bco)).is_zero():
                    ok = False
        results.append(CheckResult("free-commutator-exterior-square",
                                   f"rank{n}", ok))
    return results


# ---------------------------------------------------------------------------
# q-map algebra closure.

def suite_qmap_algebra():
    """Closure of qw(G,H) under + and -, the cross-effect sum formulas
    pointwise, composition and left distributivity on small triples."""
    cat = _catalog_map()
    results = []
    for gn, hn in QMAP_PAIRS_SMALL:
        g, h = cat[gn], cat[hn]
        inst = f"{gn}->{hn}"
        qs = pick(qmaps.enumerate_qmaps(g, h), COUPLE_CAP)
        elems = list(g.elements())
        ok_add = ok_neg = ok_cross = True
        for f in qs:
            try:
                nf = -f
            except Exception:
                ok_neg = False
                break
            if any((f + nf).eval(z) != h.zero() for z in elems):
                ok_neg = False
            for q2 in qs:
                try:
                    f + q2    # constructor validation = closure
                except Exception:
                    ok_add = False
                    break
        pointwise = pick(qs, POINTWISE_COUPLES)
        for f, q2 in itertools.product(pointwise, repeat=2):
            s = f + q2
            ok_add &= all(s.eval(x) == f.eval(x) + q2.eval(x) for x in elems)
            ok_cross &= all(s.cross(x, y) == f.cross(x, y) + q2.cross(x, y)
                            + f.eval(y).comm(q2.eval(x)) for x in elems for y in elems)
        detail = f"{len(qs)} picked maps"
        results.append(CheckResult("qw-closed-under-sum", inst, ok_add, detail))
        results.append(CheckResult("qw-closed-under-negation", inst, ok_neg, detail))
        results.append(CheckResult("qw-sum-cross-formula", inst, ok_cross, detail))
    # composition formula and left distributivity on order <= 8 triples
    trip = [("Z4", "D4", "Q8"), ("Q8", "D4", "Q8"), ("V4", "Q8", "D4")]
    for an, bn, cn in trip:
        A, B, C = cat[an], cat[bn], cat[cn]
        inst = f"{an}->{bn}->{cn}"
        gs = pick(qmaps.enumerate_qmaps(A, B), COMPOSE_CAP)
        fs = pick(qmaps.enumerate_qmaps(B, C), COMPOSE_CAP)
        elems = list(A.elements())
        ok_comp = True
        for f, gq in itertools.product(fs, gs):
            c = f.compose(gq)
            ok_comp &= all(c.eval(z) == f.eval(gq.eval(z)) for z in elems)
            ok_comp &= all(c.cross(x, y) == f.eval(gq.cross(x, y))
                           + f.cross(gq.eval(x), gq.eval(y)) for x in elems for y in elems)
        ok_dist = all((f + f2).compose(gq) == f.compose(gq) + f2.compose(gq)
                      for f, f2, gq in itertools.product(fs, fs, gs))
        results.append(CheckResult("compose-cross-formula", inst, ok_comp))
        results.append(CheckResult("compose-left-distributive", inst, ok_dist))
    return results


# ---------------------------------------------------------------------------
# Enumeration soundness and completeness.

BRUTE_PAIRS = [("Z2", "Z4"), ("Z4", "Z4"), ("Z2", "Q8"), ("Z4", "Q8"),
               ("V4", "Q8"), ("Q8", "Z4"), ("D4", "Q8"), ("Q8", "D4")]


def suite_enumeration():
    cat = _catalog_map()
    results = []
    for gn, hn in BRUTE_PAIRS:
        g, h = cat[gn], cat[hn]
        inst = f"{gn}->{hn}"
        (gadd, _, _, gat), (hadd, hneg, _, at) = _law(g), _law(h)
        gel, gens, enum, ok = list(g.elements()), [gat(g.gen(i)) for i in range(g.rank)], [], True
        for q in qmaps.enumerate_qmaps(g, h):
            # each map, not only the set: its cross-effect (s|y), s a generator, is its delta's
            enum.append(v := tuple(at(q.eval(z)) for z in gel))
            ok &= all(hadd[hneg[hadd[v[s]][v[y]]]][v[gadd[s][y]]] == at(q.cross(gel[s], z))
                      for s in gens for y, z in enumerate(gel))
        brute = qmaps.quadratic_functions_bruteforce(g, h, kind="qmap")
        ok &= sorted(enum) == brute and len(set(enum)) == len(enum)
        results.append(CheckResult("enumeration-matches-bruteforce", inst, ok,
                                   f"{len(enum)} maps"))
    # abelian targets: q-maps are exactly homomorphisms
    for gn, hn in [("Q8", "Z2"), ("Q8", "Z4"), ("D4", "V4")]:
        g, h = cat[gn], cat[hn]
        qs = list(qmaps.enumerate_qmaps(g, h))
        gadd, (hadd, _, _, at) = _law(g)[0], _law(h)
        ok = len(qs) == abx.hom_count(g.A, h.A)
        for q in qs:
            v = [at(q.eval(z)) for z in g.elements()]
            ok &= q.is_hom() and all(v[s] == hadd[v[x]][v[y]] for x, y, s in _pairs(gadd))
        results.append(CheckResult("abelian-target-qmaps-are-homs",
                                   f"{gn}->{hn}", ok, f"{len(qs)} maps"))
    # q-maps out of Z classify by value and cross at 1: |qw(Z, Q8)| = 16
    q8 = cat["Q8"]
    seen = set()
    for a in q8.elements():
        for b in q8.B.elements():
            seen.add(qmc.qmap_from_z(q8, a, q8.central(b)))
    results.append(CheckResult("qw-from-z-count", "Z->Q8", len(seen) == 16,
                               f"{len(seen)} maps"))
    # |qw(G1 x G2, H)| = |qw(G1,H)| |qw(G2,H)| |Hom(A1 (x) A2, [H,H])|
    ok_prod = True
    for g1n, g2n, hn in [("Z2", "Z2", "Q8"), ("Z2", "Z4", "Q8"),
                         ("Z4", "Z4", "D4")]:
        g1, g2, h = cat[g1n], cat[g2n], cat[hn]
        p = nil2.product(g1, g2)
        n = sum(1 for _ in qmaps.enumerate_qmaps(p, h))
        n1 = sum(1 for _ in qmaps.enumerate_qmaps(g1, h))
        n2 = sum(1 for _ in qmaps.enumerate_qmaps(g2, h))
        t = abx.tensor(g1.A, g2.A).group
        if n != n1 * n2 * abx.hom_count(t, h.B):
            ok_prod = False
    results.append(CheckResult("product-source-count-identity", "3 cases", ok_prod))
    return results


# ---------------------------------------------------------------------------
# Classification headline.

def suite_classification(max_order: int = 64):
    cat = _catalog_map(200)
    results = []
    expected = [("D4", True), ("Q8", True), ("G27", False)]
    if max_order >= 125:
        expected.append(("G125", False))
        expected.append(("Heis5", True))
    for name, want in expected:
        res = classify.is_qsplit(cat[name])
        ok = res.verdict == want
        if want and ok:
            s = res.section
            for a in cat[name].A.elements():
                if s.eval(s.source.pair(a, s.source.B.zero())).a != a:
                    ok = False
        results.append(CheckResult("qsplit-verdict", name, ok,
                                   f"expected {'yes' if want else 'no'}"))
    # the Q8 witness matches the known quadratic section on generators
    s = classify.is_qsplit(cat["Q8"]).section
    src = s.source
    q8 = cat["Q8"]
    ok = (s.eval(src.element([1, 0], [])) == q8.gen(0)
          and s.eval(src.element([0, 1], [])) == q8.gen(1)
          and s.eval(src.element([1, 1], [])) == q8.gen(0) + q8.gen(1))
    results.append(CheckResult("qsplit-q8-section-values", "Q8", ok))

    # a fixed instance: the default search guard, whatever --max-order is
    dec = classify.niq_iso_decide(cat["D4"], cat["Q8"])
    ok = dec.verdict and dec.witness is not None
    if ok:
        q, qinv = dec.witness
        ok = all(qinv.eval(q.eval(z)) == z for z in cat["D4"].elements())
        ok = ok and all(q.eval(qinv.eval(z)) == z for z in cat["Q8"].elements())
    results.append(CheckResult("niq-iso-d4-q8", "D4|Q8", ok,
                               f"paths {sorted(dec.paths)}"))
    results.append(CheckResult("niq-iso-paths-agree", "D4|Q8",
                               len(set(dec.paths.values())) == 1))

    dec2 = classify.niq_iso_decide(cat["Heis3"], cat["G27"], search_guard=max_order)
    results.append(CheckResult("niq-iso-heis3-g27", "Heis3|G27",
                               dec2.verdict is False,
                               f"paths {sorted(dec2.paths)}"))
    results.append(CheckResult("niq-iso-paths-agree", "Heis3|G27",
                               len(set(dec2.paths.values())) == 1))

    ab8 = catalog.abelian_group([2, 2, 2])
    dec3 = classify.niq_iso_decide(ab8, cat["Q8"], search_guard=max_order)
    results.append(CheckResult("niq-iso-abelian-control", "Z2^3|Q8",
                               dec3.verdict is False))
    # products and coproducts of q-split groups stay q-split
    ok_closure = (classify.is_qsplit(nil2.product(cat["D4"], cat["Q8"])).verdict
                  and classify.is_qsplit(nil2.coproduct(cat["Z2"], cat["Z4"])).verdict)
    results.append(CheckResult("qsplit-closure", "product|coproduct", ok_closure))
    return results


# ---------------------------------------------------------------------------
# Linear extensions.

LINEXT_INSTANCES = [("nil", "Q8", "Q8"), ("nil", "Z4", "Q8"), ("nil", "D4", "D4"),
                    ("niq", "D4", "D4"), ("niq", "Z4", "Q8"), ("niq", "Q8", "Q8")]


def suite_linext():
    from . import linext
    cat = _catalog_map()
    results = []
    for level, gn, hn in LINEXT_INSTANCES:
        results.extend(linext.linear_extension_verify(
            level, cat[gn], cat[hn], instance=f"{level}:{gn}|{hn}"))
    results.extend(linext.weak_coproduct_verify(
        cat["Z2"], cat["Z2"], cat["Z2"], instance="Z2|Z2->Z2"))
    results.extend(linext.weak_coproduct_verify(
        cat["Q8"], cat["Q8"], cat["Q8"], instance="Q8|Q8->Q8"))
    return results


# ---------------------------------------------------------------------------
# Maltsev correspondence.

def suite_maltsev(max_order: int = 125):
    cat = _catalog_map(200)
    results = []
    odd = [(n, g) for n, g in cat.items()
           if g.order() % 2 == 1 and 1 < g.order() <= max_order]
    odd += [("Z27", catalog.abelian_group([27])),
            ("Z9xZ3", catalog.abelian_group([9, 3]))]
    for name, g in odd:
        ring = maltsev.lie_log(g)
        ok_data = maltsev.lie_log(maltsev.lie_exp(ring)) == ring
        corr = maltsev.LogCorrespondence(g)
        exps = {z: corr.to_exp(z) for z in g.elements()}
        ok_iso = len(set(exps.values())) == g.order()
        for z, ez in exps.items():
            for w, ew in exps.items():
                if exps[z + w] != ez + ew:
                    ok_iso = False
        results.append(CheckResult("exp-log-data-roundtrip", name, ok_data))
        results.append(CheckResult("exp-log-group-isomorphism", name, ok_iso))
        ok_br = True
        exp_g = maltsev.lie_exp(ring)
        pts = [(x, exp_g.element(x.a.coords, x.b.coords)) for x in ring.elements()]
        for x, gx in pts:
            for y, gy in pts:
                c, br = gx.comm(gy), x.bracket(y)
                if (c.a.coords, c.b.coords) != (br.a.coords, br.b.coords):
                    ok_br = False
        results.append(CheckResult("commutator-equals-bracket", name, ok_br))

    # the (g, h) characterization: |qw(G,H)| equals the number of admissible
    # (linear part, symmetric part) pairs, with picked pointwise round trips
    for gn, hn in [("Heis3", "Heis3"), ("Heis3", "G27"), ("G27", "Heis3")]:
        g, h = cat[gn], cat[hn]
        qs = list(qmaps.enumerate_qmaps(g, h))
        gh = _count_linear_symmetric_pairs(g, h)
        results.append(CheckResult("qmap-count-equals-gh-pairs", f"{gn}->{hn}",
                                   len(qs) == gh, f"{len(qs)} vs {gh}"))
        qs = pick(qs, ROUNDTRIP_SAMPLE)
        ok_rt = True
        for q in qs:
            d = maltsev.lie_qmap_decompose(q)
            back = maltsev.lie_qmap_recompose(d)
            if any(back.eval(z) != q.eval(z) for z in g.elements()):
                ok_rt = False
        results.append(CheckResult("decompose-recompose-identity", f"{gn}->{hn}",
                                   ok_rt, f"{len(qs)} picked maps"))

    # the log criterion agrees with direct witness search on order-27 pairs
    order27 = [(n, g) for n, g in cat.items() if g.order() == 27]
    for n1, g1 in order27:
        for n2, g2 in order27:
            ok_log, _ = maltsev.log_criterion_decide(g1, g2)
            found = classify.find_niq_iso_witness(g1, g2)
            results.append(CheckResult("log-criterion-matches-witness-search",
                                       f"{n1}|{n2}", ok_log == (found is not None),
                                       f"log={ok_log}"))
    return results


def _count_linear_symmetric_pairs(g: nil2.Nil2Group, h: nil2.Nil2Group) -> int:
    """Number of pairs (g0, h0): g0 additive on the logs carrying [G,G]
    into [H,H], h0 symmetric bilinear into [H,H]."""
    count_g = sum(1 for _ in qmaps.enumerate_homs(maltsev.lie_log(g), maltsev.lie_log(h)))
    return count_g * abx.hom_count(abx.sym_square(g.A).group, h.B)


# ---------------------------------------------------------------------------
# Negative control.

def suite_negative_control():
    cube = catalog.abelian_group([2, 2, 2])
    w = nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2))

    def fn(z):
        l, m, n = z.a.coords
        return l * w.central(w.B.gen(0)) + m * w.gen(0) + n * w.gen(1)

    q = qmc.qmap_from_function(cube, w, fn)
    table = {z: q.eval(z) for z in cube.elements()}
    bijective = len(set(table.values())) == 8
    inverse = {v: k for k, v in table.items()}
    inv_not_qmap = not qmaps.is_qmap_function(inverse.__getitem__, w, cube)
    dec = classify.niq_iso_decide(cube, w)
    return [
        CheckResult("bijective-qmap-exists", "Z2^3->Z2vZ2", bijective),
        CheckResult("inverse-is-not-qmap", "Z2^3->Z2vZ2", inv_not_qmap),
        CheckResult("not-isomorphic-in-niq", "Z2^3|Z2vZ2", not dec.verdict),
    ]


# ---------------------------------------------------------------------------
# Suite registry.

SUITES = {
    "lemmas": lambda max_order: suite_element_identities() + suite_qmap_identities(),
    "coproduct": lambda max_order: suite_coproduct(),
    "qmaps": lambda max_order: suite_qmap_algebra(),
    "enum": lambda max_order: suite_enumeration(),
    "classify": lambda max_order: suite_classification(max_order),
    "linext": lambda max_order: suite_linext(),
    "maltsev": lambda max_order: suite_maltsev(max_order),
    "negative": lambda max_order: suite_negative_control(),
}


def run_suites(tags, max_order: int = 64):
    results = []
    for tag in tags:
        results.extend(SUITES[tag](max_order))
    return results
