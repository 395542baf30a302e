"""Tests for the decision procedures: similarity, q-splitness, the
Niq-isomorphism decision, the equivalences on q-maps, and the
linear-extension verifiers."""

import functools
import hashlib
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nil2q import abelian as ab
from nil2q import abelian_constructions as abx
from nil2q import catalog, classify, ingest, linext, nil2, qmaps
from nil2q import qmap_constructions as qmc
from nil2q.errors import AlgebraError, Unsupported
from nil2q.report import CheckResult, all_ok

from iso_reference import reference_groups_isomorphic, reference_iso_pair_search

Q8 = catalog.quaternion()
D4 = catalog.dihedral4()
HEIS3 = catalog.heisenberg(3)
G27 = catalog.modular_semidirect(3)
Z2 = catalog.cyclic(2)
Z4 = catalog.cyclic(4)


def test_similar():
    assert classify.similar(D4, Q8)
    assert classify.similar(HEIS3, G27)
    assert not classify.similar(Q8, catalog.cyclic(8))
    assert not classify.similar(Q8, HEIS3)


def test_group_isomorphism_oracle():
    assert classify.groups_isomorphic(D4, ingest.canonicalize_finite(
        catalog.dihedral4_oracle()).group)
    assert not classify.groups_isomorphic(D4, Q8)
    # coproduct Z/2 v Z/2 is D4 as a group
    assert classify.groups_isomorphic(nil2.coproduct(Z2, Z2), D4)


def test_qsplit_positive():
    for g in [D4, Q8, HEIS3, catalog.heisenberg(5)]:
        res = classify.is_qsplit(g)
        assert res.verdict and res.mode == "search"
        s = res.section
        # the section splits the projection pointwise
        for a in g.A.elements():
            z = s.eval(s.source.pair(a, s.source.B.zero()))
            assert z.a == a


def test_every_section_is_a_qmap_by_the_definition():
    # a section's data are validated on the solver's own relation terms, so
    # the independent check is the definition on the Cayley tables
    found = []
    for name, g in catalog.standard_catalog(125):
        s = classify.is_qsplit(g).section
        if s is not None:
            assert qmaps.is_qmap_function(s.eval, s.source, g), name
            found.append(name)
    assert "D4xD4" in found and "Heis5" in found and "G27" not in found


def test_qsplit_q8_witness_matches_known_section():
    s = classify.is_qsplit(Q8).section
    src = s.source
    omega_hat = src.element([1, 0], [])
    tau_hat = src.element([0, 1], [])
    assert s.eval(omega_hat) == Q8.gen(0)
    assert s.eval(tau_hat) == Q8.gen(1)
    assert s.eval(omega_hat + tau_hat) == Q8.gen(0) + Q8.gen(1)


def test_section_search_is_first_identity_qmap():
    # section search returns the first fab = id, fcomm = 0 q-map G_ab -> G
    for name, g in catalog.standard_catalog(27):
        ident = ab.AbHom.identity(g.A)
        first = next((q for q in qmaps.enumerate_qmaps(nil2.from_abelian(g.A), g)
                      if q.fab == ident and q.fcomm.is_zero()), None)
        assert (first is None) == (name == "G27")
        assert classify.is_qsplit(g).section == first, name


# sha256 prefix of the first section's data (fab, fcomm, gamma, delta) per
# catalog group; None: not q-split
FIRST_SECTIONS = {
    "Z2": "d7f29d740918900b", "Z4": "d7f29d740918900b", "V4": "b6e0d102cdb64d90",
    "D4": "46c19249865de463", "Q8": "10a691e5f942a8af", "Z2vZ2": "b811074fd3158628",
    "Q8xZ2": "f44e85dc50d31fc9", "Heis3": "b811074fd3158628", "G27": None,
    "Heis5": "b811074fd3158628", "G125": None, "D4xD4": "b1ffe3212646f4a2",
}


def test_first_sections_are_pinned():
    got = {}
    for name, g in catalog.standard_catalog(256):
        data = classify._section_search(g)
        if data is not None:
            fab, fcomm, gamma, delta = data
            data = repr((fab.matrix, fcomm.matrix, [e.coords for e in gamma],
                         [[e.coords for e in row] for row in delta]))
            data = hashlib.sha256(data.encode()).hexdigest()[:16]
        got[name] = data
    assert got == FIRST_SECTIONS


def test_section_search_builds_few_elements(monkeypatch):
    # A = B = Z/27^3 with bil[2][1], bil[3][1], bil[3][2] the generators of
    # B, order 387,420,489: each coordinate of the first section has 19,683
    # choices, and the search reads only the first of each
    a, b = ab.FGAbelian([27] * 3), ab.FGAbelian([27] * 3)
    z, (b1, b2, b3) = b.zero(), b.gens()
    k = nil2.make(a, b, [[z, z, z], [b1, z, z], [b2, b3, z]], [z] * 3)
    built = []
    init = ab.AbElement.__init__

    def counting_init(self, group, coords):
        built.append(coords)
        init(self, group, coords)

    monkeypatch.setattr(ab.AbElement, "__init__", counting_init)
    fab, fcomm, gamma, delta = classify._section_search(k)
    searched = len(built)
    # is_qsplit composes the projection with the section: those maps are
    # not enumerated, so each evaluates its few points, not all of k
    verdict = classify.is_qsplit(k).verdict
    monkeypatch.undo()
    assert 0 < searched < 1000
    assert verdict and len(built) - searched < 300
    assert fab == ab.AbHom.identity(a) and fcomm.is_zero()
    assert all(e.is_zero() for e in gamma)
    assert [[e.coords for e in row] for row in delta] == [
        [(0, 0, 0)] * 3, [(26, 0, 0), (0, 0, 0), (0, 0, 0)],
        [(0, 26, 0), (0, 0, 26), (0, 0, 0)]]


def test_qsplit_negative():
    assert not classify.is_qsplit(G27).verdict
    assert not classify.is_qsplit(catalog.modular_semidirect(5)).verdict


def test_qsplit_structural_infinite():
    assert classify.is_qsplit(nil2.free(2)).mode == "structural"
    assert classify.is_qsplit(catalog.cyclic(0)).verdict
    w = nil2.coproduct(catalog.cyclic(0), catalog.cyclic(3))
    assert classify.is_qsplit(w).verdict
    bad = nil2.Nil2Group(nil2.free(2).A, nil2.free(2).B, nil2.free(2).bil,
                         nil2.free(2).carry)  # same data, no provenance
    with pytest.raises(Unsupported):
        classify.is_qsplit(bad)


def test_qsplit_closed_under_product_and_coproduct():
    for g1, g2 in [(D4, Q8), (Q8, HEIS3), (Z2, Q8)]:
        assert classify.is_qsplit(nil2.product(g1, g2)).verdict
    assert classify.is_qsplit(nil2.coproduct(Z2, Z4)).verdict
    assert classify.is_qsplit(nil2.coproduct(Z2, Z2)).verdict


def test_qsplit_invariant_under_group_isomorphism():
    # canonicalization round trips land on the same verdict
    for g, expect in [(Q8, True), (D4, True), (G27, False), (HEIS3, True)]:
        res = ingest.canonicalize_finite(nil2.table_of(g))
        assert classify.is_qsplit(res.group).verdict == expect


def test_niq_iso_d4_q8():
    dec = classify.niq_iso_decide(D4, Q8)
    assert dec.verdict
    assert dec.paths["qsplit-similar"]
    assert dec.paths["witness-search"]
    q, qinv = dec.witness
    # both composites are the identity pointwise
    for z in D4.elements():
        assert qinv.eval(q.eval(z)) == z
    for z in Q8.elements():
        assert q.eval(qinv.eval(z)) == z
    # but D4 and Q8 are not isomorphic as groups
    assert not classify.groups_isomorphic(D4, Q8)


def test_niq_iso_heis3_g27_negative():
    dec = classify.niq_iso_decide(HEIS3, G27)
    assert not dec.verdict
    assert dec.paths["log-criterion"] is False
    assert dec.paths["witness-search"] is False
    assert "qsplit-similar" not in dec.paths  # G27 is not q-split


def test_niq_iso_abelian_vs_nonabelian():
    ab27 = catalog.abelian_group([9, 3])
    dec = classify.niq_iso_decide(ab27, G27)
    assert not dec.verdict
    dec2 = classify.niq_iso_decide(catalog.abelian_group([2, 2, 2]), Q8)
    assert not dec2.verdict


def test_niq_iso_identity_witness():
    dec = classify.niq_iso_decide(Q8, Q8)
    assert dec.verdict
    assert dec.paths["witness-search"]


def test_bijective_qmap_with_non_qmap_inverse_is_rejected():
    # (Z/2)^3 -> Z/2 v Z/2 sends (l, m, n) to l[x,y] + mx + ny: a bijective
    # q-map whose inverse is quadratic but not a q-map
    cube = catalog.abelian_group([2, 2, 2])
    w = nil2.coproduct(Z2, Z2)
    assert cube.order() == w.order() == 8

    def fn(z):
        l, m, n = z.a.coords
        return l * w.central(w.B.gen(0)) + m * w.gen(0) + n * w.gen(1)

    q = qmc.qmap_from_function(cube, w, fn)
    table = {z: q.eval(z) for z in cube.elements()}
    assert len(set(table.values())) == 8
    inverse = {v: k for k, v in table.items()}
    assert not qmaps.is_qmap_function(inverse.__getitem__, w, cube)
    # and no bijective q-map with q-map inverse exists at all
    assert classify.find_niq_iso_witness(cube, w) is None
    dec = classify.niq_iso_decide(cube, w)
    assert not dec.verdict


def reference_niq_witness(g, h):
    """The earlier witness search: the first q-map in enumeration order
    with onto fab, injective fcomm, bijective values and a q-map inverse."""
    if g.order() != h.order():
        return None
    elems = list(g.elements())
    fab_ok, fcomm_ok = {}, {}
    for q in qmaps.enumerate_qmaps(g, h):
        if q.fab not in fab_ok:
            fab_ok[q.fab] = abx.subgroup_generated(q.fab.columns(), h.A).is_whole()
        if q.fcomm not in fcomm_ok:
            fcomm_ok[q.fcomm] = ab.kernel(q.fcomm)[0].is_trivial()
        if not (fab_ok[q.fab] and fcomm_ok[q.fcomm]):
            continue
        table = {q.eval(z): z for z in elems}
        if len(table) != len(elems):
            continue
        if qmaps.is_qmap_function(table.__getitem__, h, g):
            return q, qmc.qmap_from_function(h, g, table.__getitem__)
    return None


def test_niq_witness_matches_reference_filter():
    groups = dict(catalog.standard_catalog(32))
    groups.update({
        "Z8": catalog.cyclic(8),
        "Z2Z4": catalog.abelian_group([2, 4]),
        "Z2^3": catalog.abelian_group([2, 2, 2]),
        "D4xZ2": nil2.product(D4, Z2),
        "Z2vZ4": nil2.coproduct(Z2, Z4),
        "Z2vZ2": nil2.coproduct(Z2, Z2),
    })
    pairs = [(g, h) for g in groups.values() for h in groups.values()
             if g.order() == h.order()]
    assert len(pairs) == 54
    found = 0
    for g, h in pairs:
        expect = reference_niq_witness(g, h)
        assert classify.find_niq_iso_witness(g, h) == expect
        found += expect is not None
    assert 0 < found < len(pairs)


def semidirect(n, m, k):
    return ingest.canonicalize_finite(ingest.semidirect(n, m, k)).group


@functools.lru_cache(maxsize=None)
def iso_pool():
    """Groups up to order 32 (catalog, semidirect, abelian, products), and
    four products of order 64 that pair up into hard NO verdicts."""
    V4 = catalog.abelian_group([2, 2])
    m16, x16 = semidirect(8, 2, 5), semidirect(4, 4, 3)
    small = dict(catalog.standard_catalog(32))
    small.update({f"sd{a}": semidirect(*a)
                  for a in [(4, 4, 3), (8, 2, 5), (8, 4, 5), (16, 2, 9), (4, 8, 3)]})
    small.update({f"Z{o}": catalog.abelian_group(o)
                  for o in [[8], [2, 4], [2, 2, 2], [16], [4, 4], [2, 8], [2, 2, 4],
                            [2, 2, 2, 2], [27], [3, 9], [3, 3, 3], [2, 16]]})
    small.update({"D4xZ2": nil2.product(D4, Z2), "D4xZ4": nil2.product(D4, Z4),
                  "Q8xZ4": nil2.product(Q8, Z4), "M16xZ2": nil2.product(m16, Z2),
                  "X16xZ2": nil2.product(x16, Z2)})
    big = {"D4xV4": nil2.product(D4, V4), "Q8xV4": nil2.product(Q8, V4),
           "M16xV4": nil2.product(m16, V4), "X16xV4": nil2.product(x16, V4)}
    return small, big


def witness_data(found):
    if found is None:
        return None
    q = found[0]
    return q.fab, q.fcomm, q.gamma, q.delta


def unpruned_data(g, h, homs):
    data = reference_iso_pair_search(g, h, homs)
    if data is None:
        return None
    fab, fcomm, gamma, delta = data
    return fab, fcomm, tuple(gamma), tuple(tuple(row) for row in delta)


def test_iso_search_matches_references_up_to_order_32():
    # every equal-order pair: the first witness of both variants equals the
    # unpruned sweep over all iso pairs, plain verdicts equal the table search
    small, _ = iso_pool()
    pairs = [(g, h) for g in small.values() for h in small.values()
             if g.order() == h.order()]
    assert len(pairs) == 211
    found = {False: 0, True: 0}
    for g, h in pairs:
        for homs, search in [(False, classify.find_niq_iso_witness),
                             (True, classify.find_group_iso_witness)]:
            got = witness_data(search(g, h))
            assert got == unpruned_data(g, h, homs), (g, h, homs)
            found[homs] += got is not None
        assert classify.groups_isomorphic(g, h) == reference_groups_isomorphic(g, h)
    assert 0 < found[True] < found[False] < len(pairs)


def test_iso_search_at_order_64():
    # YES pairs match the unpruned sweep; a NO is certified by a table search
    # (plain) or by an invariant of Niq isomorphism: the abelianization and
    # commutator subgroup, or q-splitness
    _, big = iso_pool()
    verdicts = {}
    for (n1, g), (n2, h) in itertools.product(big.items(), repeat=2):
        plain = classify.find_group_iso_witness(g, h)
        assert (plain is not None) == reference_groups_isomorphic(g, h)
        if plain is not None:
            assert witness_data(plain) == unpruned_data(g, h, True)
        niq = classify.find_niq_iso_witness(g, h)
        if niq is not None:
            assert witness_data(niq) == unpruned_data(g, h, False)
        else:
            assert (not classify.similar(g, h)
                    or classify.is_qsplit(g).verdict != classify.is_qsplit(h).verdict)
        verdicts[n1, n2] = (plain is not None, niq is not None)
    assert verdicts["D4xV4", "Q8xV4"] == (False, True)
    assert verdicts["M16xV4", "X16xV4"] == (False, False)
    assert sum(p for p, _ in verdicts.values()) == 4


def test_pruned_iso_search_builds_few_smith_forms(monkeypatch):
    # the NO verdicts D4xV4 | Q8xV4 (plain) and M16xV4 | X16xV4 (Niq) are cut
    # on short prefixes instead of sweeping all 20160 automorphisms of Z2^4
    _, big = iso_pool()
    built = []

    class CountingSmithForm(ab.SmithForm):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(ab, "SmithForm", CountingSmithForm)
    assert not classify.groups_isomorphic(big["D4xV4"], big["Q8xV4"])
    assert classify.find_niq_iso_witness(big["M16xV4"], big["X16xV4"]) is None
    assert 0 < len(built) < 200


@st.composite
def cocycle_groups(draw):
    """A nil_2-group of order <= 64 from random torsion-compatible data
    (strictly lower-triangular bil, any carry) over a B that commutators
    could generate; draws whose commutators do not generate B are rejected."""
    orders = draw(st.lists(st.sampled_from([2, 3, 4, 8]), min_size=1, max_size=3))
    while math.prod(orders) > 32:
        orders.pop()
    gcds = [math.gcd(orders[i], orders[j]) for i in range(len(orders)) for j in range(i)]
    b_choices = [[]] + [[m] for m in (2, 3, 4) if any(g % m == 0 for g in gcds)]
    if sum(g % 2 == 0 for g in gcds) >= 2:
        b_choices.append([2, 2])
    a = ab.FGAbelian(orders)
    b = ab.FGAbelian(draw(st.sampled_from(
        [o for o in b_choices if a.order() * math.prod(o) <= 64])))

    def entry(d=0):
        # an element of B killed by d (any element for d = 0)
        steps = [m // math.gcd(m, d) for m in b.orders]
        return b.element([s * draw(st.integers(0, m // s - 1))
                          for s, m in zip(steps, b.orders)])

    r = a.rank
    bil = [[entry(math.gcd(orders[i], orders[j])) if i > j else b.zero()
            for j in range(r)] for i in range(r)]
    try:
        return nil2.make(a, b, bil, [entry() for _ in range(r)])
    except AlgebraError:
        assume(False)


@settings(max_examples=30, deadline=None)
@given(cocycle_groups())
def test_canonicalized_table_is_isomorphic_to_the_group(g):
    h = ingest.canonicalize_finite(nil2.table_of(g)).group
    assert classify.groups_isomorphic(h, g)
    assert reference_groups_isomorphic(h, g)


def test_sim_equiv_basics():
    f = qmaps.identity_qmap(Q8)
    ok, alpha = linext.qmap_sim_equiv(f, f)
    assert ok and alpha.is_zero()
    # cubing induces the identity on Q8_ab and [Q8,Q8] and differs from the
    # identity by a translation, so it is ~-equivalent to it
    g = qmc.power_qmap(Q8, 3)
    assert g.fab == f.fab and g.fcomm == f.fcomm
    ok2, alpha2 = linext.qmap_sim_equiv(f, g)
    assert ok2
    assert linext.translate_qmap(f, alpha2) == g
    # pointwise witness validation
    for z in Q8.elements():
        tens = abx.tensor(Q8.A, Q8.A)
        corr = alpha2.apply(tens.pure(z.a, z.a))
        assert f.eval(z) + Q8.central(corr) == g.eval(z)


def test_sim_equiv_sum_commutes():
    # f + g ~ g + f with alpha(x,y) = [f(x), g(y)]
    qs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 12))
    for f in qs[:6]:
        for g in qs[:6]:
            ok, alpha = linext.qmap_sim_equiv(f + g, g + f)
            assert ok
            fg = linext.translate_qmap(f + g, alpha)
            assert fg == g + f


def test_sim_equiv_left_distributive_up_to_sim():
    fs = list(itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 6))
    gs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 6))
    for f in fs[:4]:
        for g1 in gs[:4]:
            for g2 in gs[:4]:
                lhs = f.compose(g1 + g2)
                rhs = f.compose(g1) + f.compose(g2)
                ok, _ = linext.qmap_sim_equiv(lhs, rhs)
                assert ok


def test_sim_implies_approx():
    qs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 40))
    for f in qs:
        for g in qs[:10]:
            ok, _ = linext.qmap_sim_equiv(f, g)
            if ok:
                assert linext.qmap_approx_equiv(f, g)


def test_approx_without_sim_separating_pair():
    # source Z/2, target with B = Z/4: the forced diagonal alpha value has
    # order 4, violating the tensor-square torsion, so ~ fails while == holds
    a = ab.FGAbelian([4, 4])
    b = ab.FGAbelian([4])
    z, one = b.zero(), b.element([1])
    h = nil2.Nil2Group(a, b, [[z, one], [z, z]], [z, z])
    src = catalog.cyclic(2)
    f = qmc.zero_qmap(src, h)
    g = qmaps.QMap(src, h, ab.AbHom.zero(src.A, h.A), ab.AbHom.zero(src.B, h.B),
                   [b.element([1])], [[b.element([2])]])
    assert linext.qmap_approx_equiv(f, g)
    assert linext.qmap_sim_equiv(f, g) == (False, None)
    # sanity: g really is that q-map pointwise
    assert g.eval(src.element([1], [])) == h.central(b.element([1]))


def test_zero_vs_identity_not_approx():
    assert not linext.qmap_approx_equiv(
        qmc.zero_qmap(Q8, Q8), qmaps.identity_qmap(Q8))


def distributivity_detail(res):
    return next(r.detail for r in res if r.check_id == "distributivity")


# (f, g', a, b) picks 5·5·4·3; Hom(Z4_ab, [Q8,Q8]) and Hom(Z4_ab (x) Z4_ab,
# [Q8,Q8]) have 2 elements, so b has 2 there
def test_linear_extension_nil_level():
    res = linext.linear_extension_verify("nil", Q8, Q8)
    assert all_ok(res) and distributivity_detail(res) == "300 quadruples"
    res2 = linext.linear_extension_verify("nil", Z4, Q8)
    assert all_ok(res2) and distributivity_detail(res2) == "200 quadruples"


def test_linear_extension_niq_level():
    res = linext.linear_extension_verify("niq", D4, D4)
    assert all_ok(res) and distributivity_detail(res) == "300 quadruples"
    res2 = linext.linear_extension_verify("niq", Z4, Q8)
    assert all_ok(res2) and distributivity_detail(res2) == "200 quadruples"


def test_linear_extension_trivial_target():
    triv = catalog.abelian_group([])
    res = linext.linear_extension_verify("nil", Q8, triv)
    assert all_ok(res) and distributivity_detail(res) == "1 quadruples"


def test_weak_coproduct():
    res = linext.weak_coproduct_verify(Z2, Z2, Z2)
    assert all_ok(res) and res[0].detail == "4 pairs"
    res2 = linext.weak_coproduct_verify(Q8, Q8, Q8)
    assert all_ok(res2) and res2[0].detail == "49 pairs"
    res3 = linext.weak_coproduct_verify(Z2, Z4, Q8)     # 7 of 8 times 7 of 16 maps
    assert all_ok(res3) and res3[0].detail == "49 pairs"


def test_record_classes_keep_fields_and_defaults():
    assert bool(classify.QSplitResult(False, "search")) is False
    assert classify.QSplitResult(True, "structural").section is None
    assert classify.IsoDecision(True, {}).witness is None
    assert CheckResult("x", "y", False, "why").line() == "FAIL x y  # why"
    assert CheckResult("x", "y", True).detail == ""
