"""Tests for the Lie side: ring axioms, exp/log, the (g,h) decomposition
of q-maps, and the odd-order isomorphism criterion."""

import itertools

import pytest

from nil2q import abelian as ab
from nil2q import abelian_constructions as abx
from nil2q import catalog, classify, ingest, maltsev, nil2, qmaps
from nil2q import qmap_constructions as qmc
from nil2q.errors import (
    CommutatorMismatch,
    InvalidBracket,
    NotUniquely2Divisible,
    Unsupported,
)

from iso_reference import reference_find_group_isomorphism

HEIS3 = catalog.heisenberg(3)
G27 = catalog.modular_semidirect(3)


def heisenberg_ring(p):
    a = ab.FGAbelian([p, p])
    b = ab.FGAbelian([p])
    z, one = b.zero(), b.element([1])
    return maltsev.lie_make(a, b, [z, z], [[z, one], [-one, z]])


def test_lie_make_validation():
    ring = heisenberg_ring(3)
    assert ring.order() == 27
    with pytest.raises(NotUniquely2Divisible):
        a = ab.FGAbelian([2])
        maltsev.lie_make(a, ab.FGAbelian([]), [ab.FGAbelian([]).zero()],
                         [[ab.FGAbelian([]).zero()]])
    a = ab.FGAbelian([3, 3])
    b = ab.FGAbelian([3])
    z, one = b.zero(), b.element([1])
    with pytest.raises(InvalidBracket):
        maltsev.lie_make(a, b, [z, z], [[z, one], [one, z]])  # not antisym
    with pytest.raises(CommutatorMismatch):
        maltsev.lie_make(a, b, [z, z], [[z, z], [z, z]])  # B not generated


def test_lie_ring_axioms_exhaustive():
    ring = heisenberg_ring(3)
    elems = list(ring.elements())
    for x in elems:
        assert (x + (-x)).is_zero()
        assert x.bracket(x).is_zero()
    for x in elems:
        for y in elems:
            assert x + y == y + x
            assert x.bracket(y) == -(y.bracket(x))
            # bracket values are central: [[x,y],z] = 0
            for z in elems[:5]:
                assert x.bracket(y).bracket(z).is_zero()
    # bilinearity of the bracket
    for x in elems:
        for y in elems[:9]:
            for z in elems[:9]:
                assert (x + y).bracket(z) == x.bracket(z) + y.bracket(z)


def reference_carry(ring, x, y):
    """The carry cocycle on A-coordinates x, y, summed as B elements."""
    acc = ring.B.zero()
    for i, d in enumerate(ring.A.orders):
        if d > 0 and x[i] + y[i] >= d:
            acc = acc + ring.carry[i]
    return acc


def reference_add(x, y):
    r = x.group
    return r.pair(x.a + y.a, x.b + y.b + reference_carry(r, x.a.coords, y.a.coords))


def reference_neg(x):
    r = x.group
    return r.pair(-x.a, -x.b - reference_carry(r, x.a.coords, (-x.a).coords))


def test_lie_arithmetic_matches_reference():
    for ring in [heisenberg_ring(3), maltsev.lie_log(G27),
                 maltsev.lie_log(catalog.modular_semidirect(5))]:
        elems = list(ring.elements())
        for x in elems:
            assert type(-x) is maltsev.LieElement and -x == reference_neg(x)
            acc, step = ring.zero(), reference_neg(x)
            for n in range(0, -4, -1):
                assert n * x == acc and x * n == acc
                acc = reference_add(acc, step)
            acc = ring.zero()
            for n in range(4):
                assert n * x == acc
                acc = reference_add(acc, x)
            for y in elems:
                assert x + y == reference_add(x, y)
                assert x.comm(y).is_zero()
    # the carries are nonzero on the two logs
    assert any(not e.is_zero() for e in maltsev.lie_log(G27).carry)


def test_exp_of_heisenberg_ring():
    ring = heisenberg_ring(3)
    g = maltsev.lie_exp(ring)
    assert g.order() == 27
    assert g.exponent() == 3
    assert reference_find_group_isomorphism(nil2.table_of(g), nil2.table_of(HEIS3)) is not None


def test_exp_identity_on_abelian():
    ring = maltsev.lie_make(ab.FGAbelian([9]), ab.FGAbelian([]),
                            [ab.FGAbelian([]).zero()],
                            [[ab.FGAbelian([]).zero()]])
    g = maltsev.lie_exp(ring)
    assert g.is_abelian()
    for x in ring.elements():
        for y in ring.elements():
            s = x + y
            gs = g.element(x.a.coords, x.b.coords) + g.element(y.a.coords, y.b.coords)
            assert (gs.a.coords, gs.b.coords) == (s.a.coords, s.b.coords)


def test_commutator_equals_bracket():
    for ring in [heisenberg_ring(3), maltsev.lie_log(G27)]:
        g = maltsev.lie_exp(ring)
        for x in ring.elements():
            for y in ring.elements():
                gx = g.element(x.a.coords, x.b.coords)
                gy = g.element(y.a.coords, y.b.coords)
                c = gx.comm(gy)
                br = x.bracket(y)
                assert (c.a.coords, c.b.coords) == (br.a.coords, br.b.coords)


def test_log_exp_identity_on_data():
    for ring in [heisenberg_ring(3), heisenberg_ring(5), maltsev.lie_log(G27)]:
        assert maltsev.lie_log(maltsev.lie_exp(ring)) == ring


def test_exp_log_group_isomorphism():
    # the normalization map (a, u) -> (a, u - chi(a)) is an isomorphism
    # G -> exp(log G), exhaustively
    for g in [HEIS3, G27, catalog.heisenberg(5), catalog.modular_semidirect(5),
              catalog.abelian_group([9, 3])]:
        corr = maltsev.LogCorrespondence(g)
        seen = set()
        for x in g.elements():
            seen.add(corr.to_exp(x))
        assert len(seen) == g.order()
        for x in g.elements():
            for y in itertools.islice(g.elements(), 27):
                assert corr.to_exp(x + y) == corr.to_exp(x) + corr.to_exp(y)
        for x in g.elements():
            assert corr.from_lie(corr.to_lie(x)) == x


def test_log_rejects_even_order():
    with pytest.raises(NotUniquely2Divisible):
        maltsev.lie_log(catalog.quaternion())


def test_log_additive_invariants():
    assert maltsev.lie_log(HEIS3).additive_invariants() == (3, 3, 3)
    assert maltsev.lie_log(G27).additive_invariants() == (3, 9)
    assert maltsev.lie_log(catalog.modular_semidirect(5)).additive_invariants() == (5, 25)


def test_lie_addition_on_group_elements():
    # x (+_L) y agrees with the normalized correspondence
    for g in [HEIS3, G27]:
        corr = maltsev.LogCorrespondence(g)
        elems = list(g.elements())
        for x in elems:
            for y in elems[:9]:
                lhs = corr.to_lie(maltsev.lie_add(x, y))
                rhs = corr.to_lie(x) + corr.to_lie(y)
                assert lhs == rhs


def test_decompose_homomorphism_gives_zero_h():
    idq = qmaps.identity_qmap(HEIS3)
    d = maltsev.lie_qmap_decompose(idq)
    assert all(e.is_zero() for row in d.h for e in row)
    for z in HEIS3.elements():
        assert d.g_value(z) == z


def test_decompose_recompose_round_trip():
    qs = list(itertools.islice(qmaps.enumerate_qmaps(HEIS3, G27), 40))
    qs += [qmc.power_qmap(HEIS3, 2), qmc.power_qmap(G27, 2)]
    for q in qs:
        d = maltsev.lie_qmap_decompose(q)
        # g is a homomorphism of the logs, and reads back in H as the
        # element-arithmetic linear part
        assert isinstance(d.g, qmaps.QMap) and d.g.is_hom()
        assert d.g.source == maltsev.lie_log(q.source)
        assert d.g.target == maltsev.lie_log(q.target)
        lin = maltsev.linear_part(q)
        assert all(d.g_value(z) == lin(z) for z in q.source.elements())
        back = maltsev.lie_qmap_recompose(d)
        assert back.source == q.source and back.target == q.target
        for z in q.source.elements():
            assert back.eval(z) == q.eval(z)
        # h is the Lie-addition cross-effect on generator classes
        for i in range(q.source.rank):
            for j in range(q.source.rank):
                x, y = q.source.gen(i), q.source.gen(j)
                w = maltsev.lie_sub(
                    maltsev.lie_sub(q.eval(maltsev.lie_add(x, y)), q.eval(x)),
                    q.eval(y))
                assert w.b == d.h[i][j]


def test_power_map_decomposition_linear_part():
    # the linear part of the n-power map is multiplication by n
    for n in [2, 4, -1]:
        q = qmc.power_qmap(HEIS3, n)
        g_fn = maltsev.linear_part(q)
        corr = maltsev.LogCorrespondence(HEIS3)
        for z in HEIS3.elements():
            assert corr.to_lie(g_fn(z)) == n * corr.to_lie(z)


def test_additivity_for_lie_addition_iff_lie_homomorphism():
    # every group hom Heis3 -> Heis3 is additive for the Lie addition and
    # preserves the bracket, exhaustively over all endomorphisms and pairs
    g = HEIS3
    elems = list(g.elements())
    lie_sum = {(x, y): maltsev.lie_add(x, y) for x in elems for y in elems}
    half = pow(2, -1, g.order())
    br = {(x, y): half * x.comm(y) for x in elems for y in elems}
    for q in qmaps.enumerate_homs(g, g):
        vals = {z: q.eval(z) for z in elems}
        for x in elems:
            for y in elems:
                assert vals[lie_sum[(x, y)]] == lie_sum[(vals[x], vals[y])]
                assert vals[br[(x, y)]] == br[(vals[x], vals[y])]


def test_hom_enumeration_fast_path_matches_filter():
    for g, h in [(catalog.cyclic(4), catalog.quaternion()),
                 (catalog.quaternion(), catalog.dihedral4()),
                 (HEIS3, G27)]:
        fast = list(qmaps.enumerate_homs(g, h))
        slow = [q for q in qmaps.enumerate_qmaps(g, h) if q.is_hom()]
        assert fast == slow


def test_linear_part_is_functorial():
    f = qmc.power_qmap(HEIS3, 2)
    g = qmc.power_qmap(HEIS3, 4)
    qf = maltsev.linear_part(f)
    qg = maltsev.linear_part(g)
    qfg = maltsev.linear_part(f.compose(g))
    for z in HEIS3.elements():
        assert qfg(z) == qf(qg(z))
    # functoriality over sampled enumerated endomorphisms
    qs = list(itertools.islice(qmaps.enumerate_qmaps(HEIS3, G27), 6))
    ps = list(itertools.islice(qmaps.enumerate_qmaps(G27, HEIS3), 6))
    for f2 in qs[:4]:
        for g2 in ps[:4]:
            lin_fg = maltsev.linear_part(f2.compose(g2))
            lf, lg = maltsev.linear_part(f2), maltsev.linear_part(g2)
            for z in itertools.islice(G27.elements(), 12):
                assert lin_fg(z) == lf(lg(z))
    # the embedding of linear maps splits the projection: q(hom) = hom
    for h in itertools.islice(qmaps.enumerate_homs(HEIS3, HEIS3), 20):
        lh = maltsev.linear_part(h)
        for z in HEIS3.elements():
            assert lh(z) == h.eval(z)


def test_log_criterion_decide_negative_pairs():
    ok, _ = maltsev.log_criterion_decide(HEIS3, G27)
    assert not ok
    ok, _ = maltsev.log_criterion_decide(catalog.heisenberg(5), catalog.modular_semidirect(5))
    assert not ok


def test_log_criterion_decide_positive():
    ok, w = maltsev.log_criterion_decide(HEIS3, HEIS3)
    assert ok and w is not None and w.is_hom()
    lg = w.source
    gelems = list(lg.elements())
    imgs = {w.eval(z) for z in gelems}
    assert len(imgs) == 27
    for x in gelems[:9]:
        for y in gelems[:9]:
            assert w.eval(x + y) == w.eval(x) + w.eval(y)
    ok2, _ = maltsev.log_criterion_decide(G27, G27)
    assert ok2
    # abelian of matching size but mismatched commutator subgroup: no witness
    ab27 = catalog.abelian_group([9, 3])
    ok3, _ = maltsev.log_criterion_decide(ab27, G27)
    assert not ok3


def test_log_criterion_requires_odd_order():
    with pytest.raises(Unsupported):
        maltsev.log_criterion_decide(catalog.quaternion(), catalog.quaternion())


def test_log_criterion_non_chain_commutator_orders():
    # H is G with B = Z/15 written as Z/3 + Z/5, orders not a divisibility
    # chain; the isomorphism sends the B generator 1 to (1, 1)
    def group(b_orders, one):
        a, b = ab.FGAbelian([15, 15]), ab.FGAbelian(b_orders)
        z, u = b.zero(), b.element(one)
        return nil2.Nil2Group(a, b, [[z, u], [z, z]], [u, z])

    g, h = group([15], [1]), group([3, 5], [1, 1])
    ok, w = maltsev.log_criterion_decide(g, h)
    assert ok and w is not None
    assert abx.subgroup_generated(w.fcomm.columns(), h.B).is_whole()


@pytest.mark.parametrize("n", [3, 9])
def test_log_criterion_heis3_times_cyclic(n):
    g = nil2.product(HEIS3, catalog.cyclic(n))
    ok, w = maltsev.log_criterion_decide(g, g)
    assert ok and w is not None
    if n == 3:
        # the witness is an additive bijection of the underlying groups
        elems = list(w.source.elements())
        image = {x: w.eval(x) for x in elems}
        assert len(set(image.values())) == g.order()
        assert all(w.eval(x + y) == image[x] + image[y] for x in elems for y in elems)


def _odd_pool():
    def sd(n, m, k):
        return ingest.canonicalize_finite(ingest.semidirect(n, m, k)).group

    z3 = catalog.cyclic(3)
    return [HEIS3, G27, catalog.cyclic(27), catalog.abelian_group([9, 3]),
            catalog.abelian_group([3, 3, 3]), sd(9, 3, 4), nil2.product(HEIS3, z3),
            nil2.product(G27, z3), sd(27, 3, 10), sd(9, 9, 4),
            nil2.coproduct(z3, catalog.cyclic(9))]


def test_log_criterion_agrees_with_witness_search():
    # every equal-order pair of an odd pool of orders 27 and 81
    pool = _odd_pool()
    pairs = [(g, h) for g in pool for h in pool if g.order() == h.order()]
    assert len(pairs) == 61
    yes = 0
    for g, h in pairs:
        ok, _ = maltsev.log_criterion_decide(g, h)
        assert ok == (classify.find_niq_iso_witness(g, h) is not None)
        yes += ok
    assert yes == 13
