"""Deterministic verification suites over the example catalog.

Each suite returns a list of CheckResult records in a fixed order; the
CLI selftest renders them as PASS/FAIL lines and the acceptance tests
assert on them.  Exhaustive loops are bounded by the catalog order caps;
where a morphism space is too large to sweep completely, couples are
sampled deterministically (fixed stride, no randomness) and the caps are
recorded in the result details.
"""

from __future__ import annotations

import itertools
from math import gcd

from . import abelian as ab
from . import catalog, classify, maltsev, nil2, qmaps
from .report import CheckResult

# The fixed scales of the suites; only the catalog order caps vary by caller.
MULTIPLE_RANGE = range(-5, 6)     # the n of the multiple identity
QMAP_IDENTITY_CAP = 120           # q-maps per pair in the identity family
COPRODUCT_TARGET_ORDER = 16       # targets of the universal-property sweep
COUPLE_CAP = 30                   # sampled q-maps per pair in the algebra suite
POINTWISE_COUPLES = 6             # of those, the ones summed pointwise
LINEXT_MAX_QUADS = 300            # quadruples per linear-extension instance
ROUNDTRIP_SAMPLE = 60             # sampled q-maps per decompose round trip


def _stride_sample(seq, cap):
    seq = list(seq)
    if len(seq) <= cap:
        return seq
    step = len(seq) // cap + 1
    return seq[::step]


# ---------------------------------------------------------------------------
# Element identities on catalog groups.

def suite_element_identities(max_order: int = 32):
    """Commutator and multiple identities, exhaustive on all element pairs."""
    results = []
    for name, g in catalog.standard_catalog(max_order):
        elems = list(g.elements())
        ok_def = all(x.comm(y) == -x - y + x + y for x in elems for y in elems)
        results.append(CheckResult("commutator-definition", name, ok_def))
        ok_central = True
        for b in g.B.elements():
            c = g.central(b)
            if not all(c.comm(z).is_zero() for z in elems):
                ok_central = False
        results.append(CheckResult("commutators-central", name, ok_central))
        # the commutator depends only on abelianization classes and agrees
        # with the antisymmetrized cocycle data
        ok_pairing = all(x.comm(y) == g.central(g.commutator_pairing(x.a, y.a))
                         for x in elems for y in elems)
        results.append(CheckResult("commutator-pairing-data", name, ok_pairing))
        ok_anti = all((x.comm(y) + y.comm(x)).is_zero()
                      for x in elems for y in elems)
        results.append(CheckResult("commutator-antisymmetric", name, ok_anti))
        ok_mult = True
        for x in elems:
            for y in elems:
                c = x.comm(y)
                for n in MULTIPLE_RANGE:
                    if n * x + n * y != n * (x + y) + (n * (n - 1) // 2) * c:
                        ok_mult = False
        results.append(CheckResult("multiple-identity", name, ok_mult,
                                   f"n in {list(MULTIPLE_RANGE)}"))
        ok_triple = all(x.comm(g.central(b)).is_zero()
                        for x in elems for b in g.B.elements())
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
    """The weakly-quadratic identity family, pointwise over all element
    pairs, for deterministically sampled q-maps of each catalog pair."""
    cat = _catalog_map()
    results = []
    for gn, hn in QMAP_PAIRS_SMALL + QMAP_PAIRS_27:
        g, h = cat[gn], cat[hn]
        inst = f"{gn}->{hn}"
        qs = list(itertools.islice(qmaps.enumerate_qmaps(g, h), QMAP_IDENTITY_CAP))
        elems = list(g.elements())
        bees = [g.central(b) for b in g.B.elements()]
        ok_zero = ok_neg = ok_shift = ok_comm = ok_cross = ok_triple = True
        for q in qs:
            vals = {z: q.eval(z) for z in elems}
            if not vals[g.zero()].is_zero():
                ok_zero = False
            for z in elems:
                if q.eval(-z) != -vals[z] + q.cross(z, z):
                    ok_neg = False
            for z in elems:
                for c in bees:
                    if vals[z + c] != vals[z] + vals[c]:
                        ok_shift = False
            for x in elems:
                vx = vals[x]
                for y in elems:
                    # cross-effect of the function matches the bilinear data
                    if -(vx + vals[y]) + vals[x + y] != q.cross(x, y):
                        ok_cross = False
                    if vals[x.comm(y)] != vx.comm(vals[y]) + q.cross(x, y) - q.cross(y, x):
                        ok_comm = False
            for x in elems[:6]:
                for y in elems[:6]:
                    for z in elems[:6]:
                        if vals[x.comm(y.comm(z))] != vals[x].comm(vals[y].comm(vals[z])):
                            ok_triple = False
        detail = f"{len(qs)} q-maps"
        results.append(CheckResult("qmap-zero-value", inst, ok_zero, detail))
        results.append(CheckResult("qmap-negation-identity", inst, ok_neg, detail))
        results.append(CheckResult("qmap-commutator-shift", inst, ok_shift, detail))
        results.append(CheckResult("qmap-cross-matches-data", inst, ok_cross, detail))
        results.append(CheckResult("qmap-commutator-image", inst, ok_comm, detail))
        results.append(CheckResult("qmap-triple-commutator", inst, ok_triple, detail))
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
        i1, i2 = qmaps.coproduct_inclusion(c, 0), qmaps.coproduct_inclusion(c, 1)
        for _, x in targets:
            homs1 = list(qmaps.enumerate_homs(g1, x))
            homs2 = list(qmaps.enumerate_homs(g2, x))
            all_homs = list(qmaps.enumerate_homs(c, x))
            for u in homs1:
                for v in homs2:
                    uv = qmaps.coproduct_couniversal(c, u, v)
                    if uv.compose(i1) != u or uv.compose(i2) != v:
                        ok_univ = False
                    matches = [t for t in all_homs
                               if t.compose(i1) == u and t.compose(i2) == v]
                    if matches != [uv]:
                        ok_univ = False
                    checked += 1
    results.append(CheckResult("coproduct-universal-property", "pairs",
                               ok_univ, f"{checked} hom pairs"))

    for n in (1, 2, 3):
        f = nil2.free(n)
        ext = ab.exterior_square(ab.FGAbelian([0] * n))
        ok = f.B.invariant_factors() == ext.group.invariant_factors()
        # centrality of the kernel on a finite window
        window = list(itertools.product([-1, 0, 1, 2], repeat=n))[:6]
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
        qs = _stride_sample(qmaps.enumerate_qmaps(g, h), COUPLE_CAP)
        elems = list(g.elements())
        ok_add = ok_neg = ok_cross = True
        for i, f in enumerate(qs):
            try:
                nf = -f
            except Exception:
                ok_neg = False
                break
            if any((f + nf).eval(z) != h.zero() for z in elems[:4]):
                ok_neg = False
            for q2 in qs:
                try:
                    s = f + q2    # constructor validation = closure
                except Exception:
                    ok_add = False
                    break
            if i < POINTWISE_COUPLES:
                for q2 in qs[:POINTWISE_COUPLES]:
                    s = f + q2
                    for x in elems:
                        if s.eval(x) != f.eval(x) + q2.eval(x):
                            ok_add = False
                    for x in elems:
                        for y in elems:
                            expect = (f.cross(x, y) + q2.cross(x, y)
                                      + f.eval(y).comm(q2.eval(x)))
                            if s.cross(x, y) != expect:
                                ok_cross = False
        detail = f"{len(qs)} sampled maps"
        results.append(CheckResult("qw-closed-under-sum", inst, ok_add, detail))
        results.append(CheckResult("qw-closed-under-negation", inst, ok_neg, detail))
        results.append(CheckResult("qw-sum-cross-formula", inst, ok_cross, detail))
    # composition formula and left distributivity on order <= 8 triples
    trip = [("Z4", "D4", "Q8"), ("Q8", "D4", "Q8"), ("V4", "Q8", "D4")]
    for an, bn, cn in trip:
        A, B, C = cat[an], cat[bn], cat[cn]
        inst = f"{an}->{bn}->{cn}"
        gs = _stride_sample(qmaps.enumerate_qmaps(A, B), 8)
        fs = _stride_sample(qmaps.enumerate_qmaps(B, C), 8)
        elems = list(A.elements())
        ok_comp = ok_dist = True
        for f in fs:
            for gq in gs:
                c = f.compose(gq)
                for z in elems:
                    if c.eval(z) != f.eval(gq.eval(z)):
                        ok_comp = False
                for x in elems[:4]:
                    for y in elems[:4]:
                        expect = f.eval(gq.cross(x, y)) + f.cross(gq.eval(x), gq.eval(y))
                        if c.cross(x, y) != expect:
                            ok_comp = False
        for f in fs[:4]:
            for f2 in fs[:4]:
                for gq in gs[:4]:
                    lhs = (f + f2).compose(gq)
                    rhs = f.compose(gq) + f2.compose(gq)
                    if lhs != rhs:
                        ok_dist = False
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
        hel = list(h.elements())
        hidx = {z: i for i, z in enumerate(hel)}
        gel = list(g.elements())
        enum = sorted(tuple(hidx[q.eval(z)] for z in gel)
                      for q in qmaps.enumerate_qmaps(g, h))
        brute = qmaps.quadratic_functions_bruteforce(g, h, kind="qmap")
        ok = enum == brute and len(set(enum)) == len(enum)
        results.append(CheckResult("enumeration-matches-bruteforce", inst, ok,
                                   f"{len(enum)} maps"))
    # abelian targets: q-maps are exactly homomorphisms
    for gn, hn in [("Q8", "Z2"), ("Q8", "Z4"), ("D4", "V4")]:
        g, h = cat[gn], cat[hn]
        qs = list(qmaps.enumerate_qmaps(g, h))
        ok = (all(q.is_hom(exhaustive=True) for q in qs)
              and len(qs) == ab.hom_count(g.A, h.A))
        results.append(CheckResult("abelian-target-qmaps-are-homs",
                                   f"{gn}->{hn}", ok, f"{len(qs)} maps"))
    # q-maps out of Z classify by value and cross at 1: |qw(Z, Q8)| = 16
    q8 = cat["Q8"]
    seen = set()
    for a in q8.elements():
        for b in q8.B.elements():
            seen.add(qmaps.qmap_from_z(q8, a, q8.central(b)))
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
        t = ab.tensor(g1.A, g2.A).group
        if n != n1 * n2 * ab.hom_count(t, h.B):
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
    cat = _catalog_map()
    results = []
    for level, gn, hn in LINEXT_INSTANCES:
        results.extend(classify.linear_extension_verify(
            level, cat[gn], cat[hn], max_quads=LINEXT_MAX_QUADS,
            instance=f"{level}:{gn}|{hn}"))
    results.extend(classify.weak_coproduct_verify(
        cat["Z2"], cat["Z2"], cat["Z2"], instance="Z2|Z2->Z2"))
    results.extend(classify.weak_coproduct_verify(
        cat["Q8"], cat["Q8"], cat["Q8"], max_pairs=60, instance="Q8|Q8->Q8"))
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
        seen = set()
        ok_iso = True
        elems = list(g.elements())
        for z in elems:
            seen.add(corr.to_exp(z))
        if len(seen) != g.order():
            ok_iso = False
        for z in _stride_sample(elems, 12):
            for w in _stride_sample(elems, 12):
                if corr.to_exp(z + w) != corr.to_exp(z) + corr.to_exp(w):
                    ok_iso = False
        results.append(CheckResult("exp-log-data-roundtrip", name, ok_data))
        results.append(CheckResult("exp-log-group-isomorphism", name, ok_iso))
        ok_br = True
        exp_g = maltsev.lie_exp(ring)
        for x in _stride_sample(list(ring.elements()), 10):
            for y in _stride_sample(list(ring.elements()), 10):
                gx = exp_g.element(x.a.coords, x.b.coords)
                gy = exp_g.element(y.a.coords, y.b.coords)
                c, br = gx.comm(gy), x.bracket(y)
                if (c.a.coords, c.b.coords) != (br.a.coords, br.b.coords):
                    ok_br = False
        results.append(CheckResult("commutator-equals-bracket", name, ok_br))

    # the (g, h) characterization: |qw(G,H)| equals the number of admissible
    # (linear part, symmetric part) pairs, with sampled pointwise round trips
    for gn, hn in [("Heis3", "Heis3"), ("Heis3", "G27"), ("G27", "Heis3")]:
        g, h = cat[gn], cat[hn]
        total = sum(1 for _ in qmaps.enumerate_qmaps(g, h))
        gh = _count_linear_symmetric_pairs(g, h)
        results.append(CheckResult("qmap-count-equals-gh-pairs", f"{gn}->{hn}",
                                   total == gh, f"{total} vs {gh}"))
        qs = _stride_sample(qmaps.enumerate_qmaps(g, h), ROUNDTRIP_SAMPLE)
        ok_rt = True
        for q in qs:
            d = maltsev.lie_qmap_decompose(q)
            back = maltsev.lie_qmap_recompose(d)
            if any(back.eval(z) != q.eval(z) for z in g.elements()):
                ok_rt = False
        results.append(CheckResult("decompose-recompose-identity", f"{gn}->{hn}",
                                   ok_rt, f"{len(qs)} sampled maps"))

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
    lg, lh = maltsev.lie_log(g), maltsev.lie_log(h)
    r = lg.A.rank
    count_g = sum(1 for _ in qmaps.enumerate_homs(lg, lh))
    count_h = 1
    for i in range(r):
        for j in range(i, r):
            d = gcd(g.A.orders[i], g.A.orders[j])
            n = 1
            for e in h.B.orders:
                n *= gcd(e, d)
            count_h *= n
    return count_g * count_h


# ---------------------------------------------------------------------------
# Negative control.

def suite_negative_control():
    cube = catalog.abelian_group([2, 2, 2])
    w = nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2))

    def fn(z):
        l, m, n = z.a.coords
        return l * w.central(w.B.gen(0)) + m * w.gen(0) + n * w.gen(1)

    q = qmaps.qmap_from_function(cube, w, fn)
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
    "lemmas": lambda max_order: (suite_element_identities(min(max_order, 32))
                                 + suite_qmap_identities()),
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
