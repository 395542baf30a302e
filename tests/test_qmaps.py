"""Tests for the q-map calculus: validation, evaluation, the group
structure on qw(G,H), composition, enumeration vs. the set-map filter."""

import collections
import gc
import hashlib
import itertools
import math
import random

import pytest

from nil2q import abelian as ab
from nil2q import abelian_constructions as abx
from nil2q import catalog, classify, ingest, linext, maltsev, nil2, qmaps
from nil2q import qmap_constructions as qmc
from nil2q import qmap_tables as qmt
from nil2q.errors import InvalidArgument, NotAQMap, UnsupportedEnumeration

Q8 = catalog.quaternion()
D4 = catalog.dihedral4()
HEIS3 = catalog.heisenberg(3)
Z2 = catalog.cyclic(2)
Z4 = catalog.cyclic(4)
V4 = catalog.abelian_group([2, 2])
# bil[1][1] != 0: its generator multiples pick up C(m, 2) bil[1][1]
_B4 = ab.FGAbelian([4])
DIAG64 = nil2.make(ab.FGAbelian([4, 4]), _B4, [[_B4.gen(0), _B4.gen(0)], [_B4.zero()] * 2],
                   [_B4.zero()] * 2)


def value_table(q):
    gel = list(q.source.elements())
    return tuple(q.eval(z) for z in gel)


def as_function_set(qs):
    return {value_table(q) for q in qs}


def reference_is_hom(q):
    # pointwise, on every pair of source elements
    gel = list(q.source.elements())
    return all(q.eval(x + y) == q.eval(x) + q.eval(y) for x in gel for y in gel)


def test_identity_and_zero():
    for g in [Q8, D4, HEIS3]:
        idq = qmaps.identity_qmap(g)
        for z in g.elements():
            assert idq.eval(z) == z
        zq = qmc.zero_qmap(g, Q8)
        for z in g.elements():
            assert zq.eval(z).is_zero()
        assert idq.is_hom() and reference_is_hom(idq)


def test_free_source_accepts_any_images():
    # free source: any generator images a_i, any wedge images a_12 and any
    # upper cross-effects b_12 give a valid q-map (the lower triangle is
    # forced by the commutator relation)
    f2 = nil2.free(2)
    bz = Q8.B.zero()
    one = Q8.B.element([1])
    a2 = Q8.gen(1)
    for a1 in itertools.islice(Q8.elements(), 4):
        for a12 in [bz, one]:
            for b12 in [bz, one]:
                fab = ab.AbHom.from_columns(f2.A, Q8.A, [a1.a, a2.a])
                fcomm = ab.AbHom.from_columns(f2.B, Q8.B, [a12])
                d21 = Q8.commutator_pairing(a1.a, a2.a) + b12 - a12
                q = qmaps.QMap(f2, Q8, fab, fcomm, [a1.b, a2.b],
                               [[bz, b12], [d21, bz]])
                assert q.gen_image(0) == a1
                x1, x2 = f2.gen(0), f2.gen(1)
                assert q.cross(x1, x2) == Q8.central(b12)
                assert q.eval(x1.comm(x2)) == Q8.central(a12)


def test_order_relation_failure():
    # fab = 0 with a unit gamma correction fails the order relation
    fab = ab.AbHom.zero(HEIS3.A, Q8.A)
    fcomm = ab.AbHom.zero(HEIS3.B, Q8.B)
    bz = Q8.B.zero()
    one = Q8.B.element([1])
    with pytest.raises(NotAQMap):
        qmaps.QMap(HEIS3, Q8, fab, fcomm, [one, bz], [[bz, bz], [bz, bz]])


def test_commutator_relation_failure():
    # identity data with a single asymmetric off-diagonal delta tweak
    bz = Q8.B.zero()
    one = Q8.B.element([1])
    with pytest.raises(NotAQMap):
        qmaps.QMap(Q8, Q8, ab.AbHom.identity(Q8.A), ab.AbHom.identity(Q8.B),
                   [bz, bz], [[bz, one], [bz, bz]])


Q8Z2, Q8V4, F2 = nil2.product(Q8, Z2), nil2.product(Q8, V4), nil2.free(2)
# (G, H, fab, fcomm, {k: gamma_k}, {(i, k): delta_ik}, verdict): fab and
# fcomm are n times the unit diagonal, gamma and delta entries are the one
# coordinate of B_H (1-based, others zero); the verdict is "valid" or the
# exception class and message that validation gives
VALIDATION_CASES = [
    (Q8Z2, Q8, 0, 0, {}, {(2, 3): 1},
     (NotAQMap, "commutator relation fails at generator pair (2, 3): (0) != (1)")),
    (Q8Z2, Q8, 0, 0, {}, {(3, 3): 1},
     (NotAQMap, "order relation fails at generator 3: (0,0 | 1) != (0,0 | 0)")),
    (Q8Z2, Q8, 0, 0, {}, {(2, 3): 1, (3, 2): 1}, "valid"),
    (Q8Z2, Q8, 0, 0, {}, {(2, 3): 1, (3, 3): 1},
     (NotAQMap, "commutator relation fails at generator pair (2, 3): (0) != (1)")),
    (Q8V4, Q8, 0, 0, {}, {(1, 4): 1, (2, 3): 1},
     (NotAQMap, "commutator relation fails at generator pair (1, 4): (0) != (1)")),
    (Q8, F2, 0, 0, {1: 1}, {},
     (NotAQMap, "order relation fails at generator 1: (0,0 | 2) != (0,0 | 0)")),
    (F2, F2, 1, 1, {}, {(1, 2): 1},
     (NotAQMap, "commutator relation fails at generator pair (1, 2): (1) != (2)")),
    (F2, Q8, 1, 1, {}, {}, "valid"),
    (F2, Q8, 1, 1, {}, {(1, 2): 1, (2, 1): 1}, "valid"),
    (F2, Q8, 1, 1, {}, {(1, 2): 1},
     (NotAQMap, "commutator relation fails at generator pair (1, 2): (1) != (0)")),
    (F2, Q8, 1, 1, {}, {(2, 1): 1},
     (NotAQMap, "commutator relation fails at generator pair (1, 2): (1) != (0)")),
]


def test_sums_set_up_the_relation_terms_once(monkeypatch):
    # sums are validated; the source keeps the relation terms of its last
    # target, so 100 sums of D4 -> Q8 maps set them up once
    d4, q8 = catalog.dihedral4(), catalog.quaternion()
    qs = list(qmaps.enumerate_qmaps(d4, q8))
    calls, real = [], qmaps._relations
    monkeypatch.setattr(qmaps, "_relations", lambda *args: calls.append(args) or real(*args))
    sums = [qs[i % len(qs)] + qs[7 * i % len(qs)] for i in range(100)]
    assert len(calls) == 1
    gel = list(d4.elements())
    for i, q in enumerate(sums[:5]):
        p, r = qs[i % len(qs)], qs[7 * i % len(qs)]
        assert [q.eval(z) for z in gel] == [p.eval(z) + r.eval(z) for z in gel]


@pytest.mark.parametrize("case", VALIDATION_CASES, ids=range(len(VALIDATION_CASES)))
def test_validation_verdicts_and_messages_are_pinned(case):
    # free (order-0) coordinates on either side; of several failing
    # relations, the first commutator pair (lexicographic) is reported, and
    # an order relation only when every commutator relation holds
    g, h, nfab, nfcomm, gamma, delta, verdict = case

    def unit(n, src, dst):
        return ab.AbHom(src, dst, [[n * (i == j) for j in range(src.rank)]
                                   for i in range(dst.rank)])

    r = g.rank
    data = (g, h, unit(nfab, g.A, h.A), unit(nfcomm, g.B, h.B),
            [h.B.element([gamma.get(k + 1, 0)]) for k in range(r)],
            [[h.B.element([delta.get((i + 1, k + 1), 0)]) for k in range(r)]
             for i in range(r)])
    if verdict == "valid":
        qmaps.QMap(*data)
    else:
        with pytest.raises(verdict[0]) as exc:
            qmaps.QMap(*data)
        assert type(exc.value) is verdict[0] and str(exc.value) == verdict[1]


def test_eval_zero_is_zero():
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 50):
        assert q.eval(Q8.zero()).is_zero()


def test_power_map():
    for g in [Q8, HEIS3]:
        for n in range(-3, 5):
            q = qmc.power_qmap(g, n)
            for z in g.elements():
                assert q.eval(z) == n * z
    two = qmc.power_qmap(Q8, 2)
    # (a|b)_2 = -[a,b]
    for x in Q8.elements():
        for y in Q8.elements():
            assert two.cross(x, y) == -(x.comm(y))
    assert not two.is_hom()


def test_power_map_composition():
    for m, n in [(2, 3), (3, -1), (2, 2)]:
        q = qmc.power_qmap(HEIS3, m).compose(qmc.power_qmap(HEIS3, n))
        expect = qmc.power_qmap(HEIS3, m * n)
        for z in HEIS3.elements():
            assert q.eval(z) == expect.eval(z)


def test_addition_map_cross():
    for g in [Q8, HEIS3]:
        plus = qmc.addition_qmap(g)
        p = plus.source
        pairs = list(p.elements())

        def split(z):
            r, s = g.A.rank, g.B.rank
            x = g.element(z.a.coords[:r], z.b.coords[:s])
            y = g.element(z.a.coords[r:], z.b.coords[s:])
            return x, y

        for z in pairs:
            x, y = split(z)
            assert plus.eval(z) == x + y
        for z in pairs[:10]:
            for w in pairs[:10]:
                xa, xb = split(z)
                yc, yd = split(w)
                assert plus.cross(z, w) == yc.comm(xb)


def test_sum_and_negation_pointwise():
    qs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 25))
    elems = list(Q8.elements())
    for f in qs[:8]:
        for g in qs[:8]:
            s = f + g
            for z in elems:
                assert s.eval(z) == f.eval(z) + g.eval(z)
        n = -f
        for z in elems:
            assert n.eval(z) == -(f.eval(z))
        zsum = f + (-f)
        assert all(zsum.eval(z).is_zero() for z in elems)
        assert (f + qmc.zero_qmap(Q8, Q8)) == f


def test_cross_effect_sum_formula():
    # (a|b)_{f+g} = (a|b)_f + (a|b)_g + [f(b), g(a)]
    qs = list(itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 12))
    elems = list(D4.elements())
    for f in qs[:5]:
        for g in qs[:5]:
            s = f + g
            for a in elems:
                for b in elems:
                    expect = (f.cross(a, b) + g.cross(a, b)
                              + f.eval(b).comm(g.eval(a)))
                    assert s.cross(a, b) == expect
    # (a|b)_{-f} = [f(b), f(a)] - (a|b)_f
    for f in qs[:6]:
        n = -f
        for a in elems:
            for b in elems:
                assert n.cross(a, b) == f.eval(b).comm(f.eval(a)) - f.cross(a, b)


def test_compose_pointwise_and_formula():
    outer = list(itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 10))
    inner = list(itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 10))
    elems = list(D4.elements())
    for f in outer[:6]:
        for g in inner[:6]:
            c = f.compose(g)
            for z in elems:
                assert c.eval(z) == f.eval(g.eval(z))
            # (a|b)_{fg} = f((a|b)_g) + (g(a)|g(b))_f
            for a in elems[:6]:
                for b in elems[:6]:
                    expect = f.eval(g.cross(a, b)) + f.cross(g.eval(a), g.eval(b))
                    assert c.cross(a, b) == expect


def test_identity_neutral_and_associative():
    f = qmc.power_qmap(Q8, 3)
    idq = qmaps.identity_qmap(Q8)
    assert f.compose(idq) == f
    assert idq.compose(f) == f
    qs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 8))
    for f in qs[:4]:
        for g in qs[:4]:
            for h in qs[:4]:
                assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_left_distributivity():
    # (f + f') o g = f o g + f' o g
    fs = list(itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 8))
    gs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 8))
    elems = list(Q8.elements())
    for f in fs[:4]:
        for f2 in fs[:4]:
            for g in gs[:4]:
                lhs = (f + f2).compose(g)
                rhs = f.compose(g) + f2.compose(g)
                for z in elems:
                    assert lhs.eval(z) == rhs.eval(z)


def test_right_quadratic_law():
    # f(g + g') = fg + fg' + (g|g')_f with (g|g')_f(x) = (g(x)|g'(x))_f
    fs = list(itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 6))
    gs = list(itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 6))
    elems = list(Q8.elements())
    for f in fs[:4]:
        for g in gs[:4]:
            for g2 in gs[:4]:
                lhs = f.compose(g + g2)
                rhs = f.compose(g) + f.compose(g2)
                for z in elems:
                    corr = f.cross(g.eval(z), g2.eval(z))
                    assert lhs.eval(z) == rhs.eval(z) + corr


def test_is_hom_matches_pointwise():
    for q in qmaps.enumerate_qmaps(Z4, Q8):
        assert q.is_hom() == reference_is_hom(q)


def _reversed_order_eval(q, z):
    # same expansion with the generator index order reversed
    G, H = q.source, q.target
    x = z.a.coords
    acc = H.zero()
    prefix = []
    lift = G.zero()
    for i in reversed(range(len(x))):
        m = x[i]
        term = (m * q.gen_image(i)
                + (m * (m - 1) // 2) * H.central(q.delta[i][i]))
        cross = H.B.zero()
        for p in prefix:
            cross = cross + (x[p] * m) * q.delta[p][i]
        acc = acc + term + H.central(cross)
        prefix.append(i)
        lift = lift + m * G.gen(i)
    return acc + H.central(q.fcomm.apply(z.b - lift.b))


def test_eval_independent_of_expansion_order():
    for g, h in [(Q8, D4), (HEIS3, HEIS3)]:
        for q in itertools.islice(qmaps.enumerate_qmaps(g, h), 30):
            for z in g.elements():
                assert q.eval(z) == _reversed_order_eval(q, z)


def test_qmap_from_z():
    assert qmc.qmap_from_z(Q8, Q8.zero(), Q8.zero()).is_zero()
    # |qw(Z, Q8)| = 16 via the (a, b) classification; all data spaces valid
    seen = set()
    for a in Q8.elements():
        for b in Q8.B.elements():
            q = qmc.qmap_from_z(Q8, a, Q8.central(b))
            seen.add(q)
    assert len(seen) == 16
    # and the data space of q-maps Z -> Q8 is exactly that large
    src = nil2.free(1)
    count = 0
    for col in Q8.A.elements():
        for g1 in Q8.B.elements():
            for d11 in Q8.B.elements():
                qmaps.QMap(src, Q8, ab.AbHom.from_columns(src.A, Q8.A, [col]),
                           ab.AbHom.zero(src.B, Q8.B), [g1], [[d11]])
                count += 1
    assert count == 16
    # f_{a,b}(-1) = -a + b
    a = Q8.gen(0)
    b = Q8.central(Q8.B.element([1]))
    q = qmc.qmap_from_z(Q8, a, b)
    minus1 = src.element([-1], [])
    assert q.eval(minus1) == -a + b
    # cross-effect (n|m) = nm b
    z2 = src.element([2], [])
    z3 = src.element([3], [])
    assert q.cross(z2, z3) == 6 * b
    with pytest.raises(NotAQMap):
        qmc.qmap_from_z(Q8, a, Q8.gen(1))


def test_sum_formula_for_z_maps():
    # f_{a,b} + f_{a',b'} = f_{a+a', b+b'+[a,a']}
    src = nil2.free(1)
    elems = [src.element([n], []) for n in range(-4, 5)]
    for a in itertools.islice(Q8.elements(), 4):
        for a2 in itertools.islice(Q8.elements(), 4):
            for b in Q8.B.elements():
                for b2 in Q8.B.elements():
                    f = qmc.qmap_from_z(Q8, a, Q8.central(b))
                    g = qmc.qmap_from_z(Q8, a2, Q8.central(b2))
                    s = f + g
                    expect = qmc.qmap_from_z(
                        Q8, a + a2, Q8.central(b + b2) + a.comm(a2))
                    for z in elems:
                        assert s.eval(z) == expect.eval(z)


def test_beta_examples():
    idq = qmaps.identity_qmap(Q8)
    bd = linext.qmap_beta(idq)
    assert bd.kernel.is_trivial() and bd.additive
    zq = qmc.zero_qmap(Q8, Q8)
    bz = linext.qmap_beta(zq)
    assert bz.kernel.invariant_factors() == (2, 2)
    assert bz.coker.invariant_factors() == (2,)
    assert bz.additive and bz.hom.is_zero()
    # well-definedness on coset representatives: lifts differing by a
    # commutator element give the same value
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 40):
        bd = linext.qmap_beta(q)
        for x in bd.kernel.elements():
            a = bd.incl.apply(x)
            for u in Q8.B.elements():
                w = q.eval(Q8.pair(a, u))
                assert bd.proj.apply(w.b) == bd.value(x)


def test_beta_additive_with_hom_for_homomorphisms():
    for q in qmaps.enumerate_qmaps(Q8, Q8):
        if not q.is_hom():
            continue
        bd = linext.qmap_beta(q)
        assert bd.additive
        for x in bd.kernel.elements():
            assert bd.hom.apply(x) == bd.value(x)


def test_beta_nonzero_and_monomorphism():
    # the central homomorphism Z/2 -> Q8 has nonzero, injective beta
    f = qmc.qmap_from_function(
        Z2, Q8, lambda z: Q8.central(z.a.coords[0] * Q8.B.element([1])))
    bd = linext.qmap_beta(f)
    assert bd.kernel.invariant_factors() == (2,)
    assert bd.coker.invariant_factors() == (2,)
    assert bd.additive
    assert not bd.hom.is_zero()
    vals = {bd.value(x) for x in bd.kernel.elements()}
    assert len(vals) == 2  # injective on the kernel


def test_beta_additivity_fails_for_squaring_on_q8():
    # regression: the defining formula is not additive for every q-map;
    # the squaring map has beta(e1) = beta(e2) = 1 but beta(e1+e2) = 1
    two = qmc.power_qmap(Q8, 2)
    bd = linext.qmap_beta(two)
    assert bd.kernel.invariant_factors() == (2, 2)
    assert not bd.additive and bd.hom is None
    vals = [bd.value(x) for x in bd.kernel.elements()]
    assert any(not v.is_zero() for v in vals)


def test_p2_factorization():
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 12):
        fq = linext.qmap_p2_factorize(q)
        ext = fq.extension
        # f_q o p2 = q
        for z in Q8.elements():
            assert fq.eval(ext.p2(z)) == q.eval(z)
        # additivity for the extension law on a deterministic sample
        sample = list(itertools.islice(ext.elements(), 24))
        for x in sample[:12]:
            for y in sample[:12]:
                assert fq.eval(x + y) == fq.eval(x) + fq.eval(y)
    # q = identity: f_q is the projection corrected by the cross-effect hom
    idq = qmaps.identity_qmap(Q8)
    fid = linext.qmap_p2_factorize(idq)
    for x in itertools.islice(fid.extension.elements(), 32):
        assert fid.eval(x) == fid.extension.proj(x)
    # q = 0: f_q = 0
    f0 = linext.qmap_p2_factorize(qmc.zero_qmap(Q8, D4))
    assert all(f0.eval(x).is_zero()
               for x in itertools.islice(f0.extension.elements(), 32))


@pytest.mark.parametrize("g, h", [(D4, Q8), (Q8, D4), (Z4, Q8), (V4, D4),
                                  (nil2.coproduct(Z2, Z2), Q8),
                                  (HEIS3, catalog.modular_semidirect(3))])
def test_p2_universal_property_through_hom_solver(g, h):
    # the homomorphisms P2(G) -> H, composed with p2, are exactly the
    # q-maps G -> H, each once
    ext = linext.p2_extension(g)
    lifts = [ext.p2(z) for z in g.elements()]
    via_p2 = [tuple(phi.eval(x) for x in lifts) for phi in qmaps.enumerate_homs(ext, h)]
    direct = [value_table(q) for q in qmaps.enumerate_qmaps(g, h)]
    assert len(set(via_p2)) == len(via_p2)
    assert len(set(direct)) == len(direct)
    assert set(via_p2) == set(direct)


def test_log_criterion_witness_values_are_lie_elements():
    ok, w = maltsev.log_criterion_decide(HEIS3, HEIS3)
    assert ok
    vals = [w.eval(z) for z in w.source.elements()]
    assert all(isinstance(v, maltsev.LieElement) for v in vals)
    # the values run over the whole ring, so their brackets fill B
    assert len({v.bracket(u) for v in vals for u in vals}) == w.target.B.order()


def test_from_function_round_trip():
    for q in itertools.islice(qmaps.enumerate_qmaps(D4, Q8), 20):
        q2 = qmc.qmap_from_function(D4, Q8, q.eval)
        assert q2 == q
    with pytest.raises(NotAQMap):
        # cross-effect at (e1, e2) leaves the commutator subgroup
        table = {(0, 0): Q8.zero(), (1, 0): Q8.gen(0), (0, 1): Q8.gen(1),
                 (1, 1): Q8.zero()}
        qmc.qmap_from_function(V4, Q8, lambda z: table[z.a.coords])


def test_enumeration_matches_bruteforce_small():
    pairs = [(Z2, Z4), (Z4, Z4), (Z2, Q8), (Z4, Q8), (V4, Q8), (Q8, Z2), (Q8, Z4),
             (catalog.abelian_group([2, 2, 2]), Z2)]
    for g, h in pairs:
        brute = qmaps.quadratic_functions_bruteforce(g, h, kind="qmap")
        hel = list(h.elements())
        hidx = {z: i for i, z in enumerate(hel)}
        enum = sorted(tuple(hidx[v] for v in value_table(q))
                      for q in qmaps.enumerate_qmaps(g, h))
        assert enum == brute, f"mismatch for {g} -> {h}"
        assert len(set(enum)) == len(enum)


def presentation_data(q):
    """The generator data (fab, fcomm, gamma, delta) as coordinates."""
    return (q.fab.matrix, q.fcomm.matrix, [e.coords for e in q.gamma],
            [[e.coords for e in row] for row in q.delta])


# (map count, sha256 over each catalog pair's ordered presentations) for
# every ordered pair of the catalog up to order 27, in catalog order; the
# first witnesses and sections depend on this order
ENUMERATION_DIGESTS = {
    qmaps.enumerate_qmaps: (
        188580, "45c78f375fa8ba98c780e3f0804661c7a1ec5f24cf6dd6638a8caa54920551c0"),
    qmaps.enumerate_homs: (
        2722, "764b43b4f59585a82d8f4fbaa38c5c40a47379e5ddfe708c3864009c0b3f122c"),
}


@pytest.mark.parametrize("enum", list(ENUMERATION_DIGESTS), ids=lambda e: e.__name__)
def test_enumeration_order_and_data_are_pinned(enum):
    groups = [g for _, g in catalog.standard_catalog(27)]
    total, outer = 0, hashlib.sha256()
    for g in groups:
        for h in groups:
            sha, count = hashlib.sha256(), 0
            for q in enum(g, h):
                sha.update(repr(presentation_data(q)).encode())
                count += 1
            outer.update(f"{count}:{sha.hexdigest()}".encode())
            total += count
    assert (total, outer.hexdigest()) == ENUMERATION_DIGESTS[enum]


def reference_definition_check(fn, g, member):
    """The q-map definition on element objects, as a reference for the
    integer kernel: every cross-effect value (x|y) = -(f(x)+f(y)) + f(x+y)
    satisfies `member`, and (x|y) is additive in each argument."""
    elems = list(g.elements())
    vals = {z: fn(z) for z in elems}
    cross = {}
    for x in elems:
        for y in elems:
            c = -(vals[x] + vals[y]) + vals[x + y]
            if not member(c):
                return False
            cross[(x, y)] = c
    for x in elems:
        for y in elems:
            cxy = cross[(x, y)]
            for z in elems:
                if cross[(x + z, y)] != cxy + cross[(z, y)]:
                    return False
                if cross[(x, y + z)] != cxy + cross[(x, z)]:
                    return False
    return True


def _kernel_agrees_with_reference(g, h, tables):
    gel = list(g.elements())
    ctr = nil2.center(h)
    verdicts = set()
    for table in tables:
        fn = dict(zip(gel, table)).__getitem__
        want_q = reference_definition_check(fn, g, lambda c: c.a.is_zero())
        want_u = reference_definition_check(fn, g, ctr.contains)
        assert qmaps.is_qmap_function(fn, g, h) == want_q, (g, h, table)
        assert qmaps.is_quadratic_function(fn, g, h) == want_u, (g, h, table)
        verdicts.add((want_q, want_u))
    return verdicts


def test_function_checks_agree_with_reference():
    # Z8, Z2^3 and Q8 x Z2 have generating sets S (`nil2._greedy_generators`)
    # with one, two and three members
    pairs = [(Z4, Q8), (V4, D4), (Q8, Z2), (catalog.cyclic(8), Q8),
             (catalog.abelian_group([2, 2, 2]), Z4), (nil2.product(Q8, Z2), Z2)]
    rng = random.Random(20240)
    for g, h in pairs:
        hel = list(h.elements())
        maps = [value_table(q) for q in qmaps.enumerate_qmaps(g, h)]
        assert _kernel_agrees_with_reference(g, h, maps) == {(True, True)}
        # one value changed per map, at a position and by a shift that vary
        perturbed = []
        for k, table in enumerate(maps):
            pos = k % len(table)
            shift = 1 + k % (len(hel) - 1)
            t = list(table)
            t[pos] = hel[(hel.index(t[pos]) + shift) % len(hel)]
            perturbed.append(tuple(t))
        verdicts = _kernel_agrees_with_reference(g, h, perturbed)
        assert (False, False) in verdicts
        # fixed-seed random set maps
        sample = [tuple(rng.choice(hel) for _ in range(g.order())) for _ in range(100)]
        assert (False, False) in _kernel_agrees_with_reference(g, h, sample)
    # fixed-seed random set maps V4 -> Q8 hit both verdicts
    hel = list(Q8.elements())
    sample = [tuple(rng.choice(hel) for _ in range(V4.order())) for _ in range(400)]
    verdicts = _kernel_agrees_with_reference(V4, Q8, sample)
    assert {(True, True), (False, False)} <= verdicts


@pytest.mark.parametrize("g, h", [(D4, Z2), (catalog.abelian_group([2, 2, 2]), Z2), (V4, Z4)],
                         ids=["D4-Z2", "Z2^3-Z2", "V4-Z4"])
def test_function_checks_agree_with_reference_on_every_set_map(g, h):
    # all 256 set maps, against the all-pairs definition, which does not run
    # the kernel; the brute-force comparison below runs it on both sides
    hel = list(h.elements())
    tables = list(itertools.product(hel, repeat=g.order()))
    assert len(tables) == 256
    verdicts = _kernel_agrees_with_reference(g, h, tables)
    assert verdicts == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_bruteforce_counts_on_elementary_abelian_sources(r):
    # Z2^r has r greedy generators.  [Z2, Z2] = 0, so the q-maps Z2^r -> Z2
    # are the 2^r homomorphisms; the quadratic functions are the F2-quadratic
    # maps with f(0) = 0, 2^(r + C(r, 2)) of them.  Every set map is
    # central, so at r = 4 the leaf alone decides all 65,536 tables
    g = catalog.abelian_group([2] * r)
    assert len(qmaps.quadratic_functions_bruteforce(g, Z2, kind="qmap")) == 2 ** r
    assert len(qmaps.quadratic_functions_bruteforce(g, Z2, kind="quadratic")) == \
        2 ** (r + math.comb(r, 2))


def test_function_checks_reject_a_cubic_on_three_generators():
    # x -> x1 x2 x3: each generator row (e_i|-) is additive along e_i but
    # not along the other two generators, so a leaf that tests each row only
    # along its own generator accepts it
    g, hel = catalog.abelian_group([2, 2, 2]), list(Z2.elements())
    cubic = {z: hel[math.prod(z.a.coords)] for z in g.elements()}.__getitem__
    assert not qmaps.is_qmap_function(cubic, g, Z2)
    assert not qmaps.is_quadratic_function(cubic, g, Z2)


@pytest.mark.parametrize("g, h", [(V4, Z4), (Z4, Q8), (V4, Q8), (V4, D4)],
                         ids=["V4-Z4", "Z4-Q8", "V4-Q8", "V4-D4"])
def test_function_checks_agree_with_bruteforce_on_every_set_map(g, h):
    # the two entry points of the one kernel: each check accepts exactly
    # the tables the brute-force filter of its kind returns
    gel, hel = list(g.elements()), list(h.elements())
    checks = {"qmap": qmaps.is_qmap_function, "quadratic": qmaps.is_quadratic_function}
    for kind, check in checks.items():
        accepted = set(qmaps.quadratic_functions_bruteforce(g, h, kind=kind))
        assert accepted
        for table in itertools.product(range(len(hel)), repeat=len(gel)):
            fn = dict(zip(gel, map(hel.__getitem__, table))).__getitem__
            assert check(fn, g, h) == (table in accepted), (kind, table)


CUBE_GROUPS = [("Heis5", catalog.heisenberg(5)), ("G125", catalog.modular_semidirect(5)),
               ("Heis7", catalog.heisenberg(7))]


@pytest.mark.parametrize("g", [g for _, g in CUBE_GROUPS], ids=[n for n, _ in CUBE_GROUPS])
def test_function_checks_read_generator_rows_without_the_search(g, monkeypatch):
    # a check decides one function by its generator rows (s|-), so it never
    # enters the backtracking search, and G's table keeps nothing for it
    def refuse(*args):
        raise AssertionError("a function check entered the search")

    monkeypatch.setattr(qmaps, "_tables", refuse)
    gel = list(g.elements())
    pos = {z: i for i, z in enumerate(gel)}
    cube = {z: 3 * z for z in gel}
    for check in (qmaps.is_qmap_function, qmaps.is_quadratic_function):
        assert check(cube.__getitem__, g, g)
        # the value at 0, at a generator and at the last element shifted by one
        for z in (gel[0], g.gen(0), gel[-1]):
            changed = dict(cube)
            changed[z] = gel[(pos[cube[z]] + 1) % len(gel)]
            assert not check(changed.__getitem__, g, g), z
    assert not hasattr(nil2.CayleyTable, "by_max")


def test_function_checks_reject_values_outside_target():
    # values in another group, or not group elements at all, are an input
    # error, not a verdict
    for value in (Q8.zero(), None, 0):
        with pytest.raises(InvalidArgument):
            qmaps.is_qmap_function(lambda z: value, Z2, D4)
        with pytest.raises(InvalidArgument):
            qmaps.is_quadratic_function(lambda z: value, Z2, D4)
    # a structurally equal copy of the target is the same group
    assert qmaps.is_qmap_function(lambda z: Q8.zero(), Z2, catalog.quaternion())


def test_constructor_rejects_entries_outside_target_b():
    # the public constructor checks entry shape and membership itself;
    # only the enumerators, which build the entries from target.B, skip it
    q = qmaps.identity_qmap(Q8)
    other = HEIS3.B.zero()
    with pytest.raises(InvalidArgument, match=r"gamma\[2\] not in B"):
        qmaps.QMap(Q8, Q8, q.fab, q.fcomm, [q.gamma[0], other], q.delta)
    with pytest.raises(InvalidArgument, match=r"delta\[1\]\[2\] not in B"):
        qmaps.QMap(Q8, Q8, q.fab, q.fcomm, q.gamma, [[q.delta[0][0], other], q.delta[1]])
    with pytest.raises(InvalidArgument, match="gamma must have 2 entries"):
        qmaps.QMap(Q8, Q8, q.fab, q.fcomm, q.gamma[:1], q.delta)


MASK_GROUPS = list(catalog.standard_catalog(125)) + [
    ("Q8xV4", nil2.product(catalog.quaternion(), catalog.abelian_group([2, 2])))]


@pytest.mark.parametrize("name, h", MASK_GROUPS, ids=[n for n, _ in MASK_GROUPS])
def test_member_masks_match_the_presentation(name, h):
    # the masks read off the addition table mark exactly [H,H] = B and the
    # center of the presentation; Q8xZ2's center Z2xZ2 exceeds its [H,H] = Z2
    elems = list(h.elements())
    qmap, quadratic = qmaps._member_mask(h, "qmap"), qmaps._member_mask(h, "quadratic")
    assert qmap == [w.a.is_zero() for w in elems]
    assert quadratic == [nil2.center(h).contains(w) for w in elems]
    if name == "Q8xZ2":
        assert sum(quadratic) == 4 and sum(qmap) == 2


def test_oracle_set_up_uses_no_presentation(monkeypatch):
    # the Cayley table, both masks and the brute-force filter read only the
    # group law's integer tables: no element enumeration and no center
    groups = [catalog.dihedral4(), nil2.product(catalog.quaternion(), catalog.cyclic(2)),
              catalog.heisenberg(3), ingest.canonicalize_finite(ingest.semidirect(25, 5, 6)).group]

    def runs():         # fresh groups: no table or mask is cached yet
        return [(catalog.abelian_group([2, 2]), catalog.quaternion(), "quadratic"),
                (catalog.dihedral4(), catalog.cyclic(2), "qmap")]

    want, fresh = [qmaps.quadratic_functions_bruteforce(*run) for run in runs()], runs()

    def refuse(*args):
        raise AssertionError("the oracle read the presentation")

    monkeypatch.setattr(nil2, "center", refuse)
    monkeypatch.setattr(nil2.CentralExtension, "elements", refuse)
    monkeypatch.setattr(ab.FGAbelian, "elements", refuse)
    for g in groups:
        table = nil2.CayleyTable(g)
        assert len(table.add) == g.order()
        for kind in ("qmap", "quadratic"):
            assert len(qmaps._member_mask(g, kind)) == g.order()
    assert [qmaps.quadratic_functions_bruteforce(*run) for run in fresh] == want


def test_bruteforce_quadratic_contains_qmaps_d4_q8():
    qw = qmaps.quadratic_functions_bruteforce(D4, Q8, kind="qmap")
    qu = qmaps.quadratic_functions_bruteforce(D4, Q8, kind="quadratic")
    assert len(qw) == 256
    assert set(qw) <= set(qu)


def test_trivial_source_and_target():
    triv = catalog.abelian_group([])
    assert sum(1 for _ in qmaps.enumerate_qmaps(triv, Q8)) == 1
    assert sum(1 for _ in qmaps.enumerate_qmaps(Q8, triv)) == 1
    q = next(qmaps.enumerate_qmaps(triv, Q8))
    assert q.eval(triv.zero()).is_zero()


def test_bruteforce_trivial_source_is_zero_map_only():
    # the generating set holds 0, which forces f(0) = 0 even when G = 0
    triv = catalog.abelian_group([])
    assert qmaps.quadratic_functions_bruteforce(triv, Q8, kind="qmap") == [(0,)]
    assert qmaps.quadratic_functions_bruteforce(triv, Z4, kind="quadratic") == [(0,)]
    involution = 2 * Q8.gen(0)
    assert involution.a.is_zero() and not involution.is_zero()
    assert not qmaps.is_qmap_function(lambda z: involution, triv, Q8)


GROUPS_32 = [("trivial", catalog.abelian_group([]))] + list(catalog.standard_catalog(32))


@pytest.mark.parametrize("g", [g for _, g in GROUPS_32], ids=[n for n, _ in GROUPS_32])
def test_generating_set_spans_from_zero(g):
    gadd = g.table().add
    gens = nil2._greedy_generators(gadd, 0)
    assert 0 not in gens
    assert len(gens) <= math.log2(len(gadd))
    span, todo = {0}, [0]
    for x in todo:
        for y in gens:
            if gadd[x][y] not in span:
                span.add(gadd[x][y])
                todo.append(gadd[x][y])
    assert span == set(range(len(gadd)))


def test_qw_equals_hom_for_abelian_targets():
    # abelian target: q-maps are exactly homomorphisms
    pairs = [(Q8, Z2), (Q8, Z4), (D4, V4), (HEIS3, catalog.cyclic(3))]
    for g, h in pairs:
        qs = list(qmaps.enumerate_qmaps(g, h))
        assert all(q.is_hom() and reference_is_hom(q) for q in qs)
        homs = {tuple(q.fab.matrix) for q in qs}
        assert len(homs) == len(qs)
        assert len(qs) == abx.hom_count(g.A, h.A)


def test_product_count_identity():
    # |qw(G1 x G2, H)| = |qw(G1,H)| |qw(G2,H)| |Hom(A1 (x) A2, [H,H])|
    cases = [(Z2, Z2, Q8), (Z2, Z4, Q8), (Z4, Z4, D4), (Z2, Q8, Q8)]
    for g1, g2, h in cases:
        p = nil2.product(g1, g2)
        n = sum(1 for _ in qmaps.enumerate_qmaps(p, h))
        n1 = sum(1 for _ in qmaps.enumerate_qmaps(g1, h))
        n2 = sum(1 for _ in qmaps.enumerate_qmaps(g2, h))
        t = abx.tensor(g1.A, g2.A).group
        assert n == n1 * n2 * abx.hom_count(t, h.B)


def test_coproduct_count_identity():
    # |qw(G1 v G2, H)| = |Hom(A1 (x) A2, [H,H])|^2 |qw(G1,H)| |qw(G2,H)|
    for g1, g2, h in [(Z2, Z2, Q8), (Z2, Z4, D4)]:
        c = nil2.coproduct(g1, g2)
        n = sum(1 for _ in qmaps.enumerate_qmaps(c, h))
        n1 = sum(1 for _ in qmaps.enumerate_qmaps(g1, h))
        n2 = sum(1 for _ in qmaps.enumerate_qmaps(g2, h))
        t = abx.tensor(g1.A, g2.A).group
        assert n == abx.hom_count(t, h.B) ** 2 * n1 * n2


def test_quadratic_product_count_identity():
    # for quadratic maps the product count runs through the center:
    # |qu(G1 x G2, H)| = |qu(G1,H)| |qu(G2,H)| |Hom(A1 (x) A2, Z(H))|
    # (with H = Q8 x Z2 the center Z/2 x Z/2 exceeds [H,H] = Z/2)
    h = nil2.product(Q8, catalog.cyclic(2))
    ctr = nil2.center(h)
    assert ctr.order() == 4 and h.B.order() == 2
    n1 = len(qmaps.quadratic_functions_bruteforce(Z2, h, kind="quadratic"))
    p = nil2.product(Z2, Z2)
    n = len(qmaps.quadratic_functions_bruteforce(p, h, kind="quadratic"))
    # Hom(Z/2 (x) Z/2, Z(H)) has |2-torsion of Z(H)| = 4 elements
    assert n == n1 * n1 * 4


def test_qw_is_normal_in_qu():
    # conjugating a q-map by a quadratic map stays a q-map (order <= 8)
    g, h = Z4, Q8
    hel = list(h.elements())
    qmap_tables = set(qmaps.quadratic_functions_bruteforce(g, h, kind="qmap"))
    quad_tables = qmaps.quadratic_functions_bruteforce(g, h, kind="quadratic")
    assert qmap_tables <= set(quad_tables)
    gel = list(g.elements())
    for qt in quad_tables:
        for ft in itertools.islice(qmap_tables, 10):
            conj = tuple(
                hel.index(hel[qt[i]] + hel[ft[i]] + (-hel[qt[i]]))
                for i in range(len(gel)))
            assert conj in qmap_tables


def test_coproduct_inclusions_and_couniversal():
    c = nil2.coproduct(Z2, Z2)
    i1, i2 = qmc.coproduct_inclusion(c, 0), qmc.coproduct_inclusion(c, 1)
    assert all(i.is_hom() and reference_is_hom(i) for i in (i1, i2))
    x = Q8
    homs1 = [q for q in qmaps.enumerate_qmaps(Z2, x) if q.is_hom()]
    homs2 = homs1
    all_homs_c = [q for q in qmaps.enumerate_qmaps(c, x) if q.is_hom()]
    for u in homs1:
        for v in homs2:
            w = qmc.coproduct_couniversal(c, u, v)
            assert w.is_hom() and reference_is_hom(w)
            assert w.compose(i1) == u and w.compose(i2) == v
            matches = [t for t in all_homs_c
                       if t.compose(i1) == u and t.compose(i2) == v]
            assert matches == [w]


def test_product_projections_inclusions():
    p = nil2.product(Q8, Z2)
    p1, p2 = qmc.product_projection(p, 0), qmc.product_projection(p, 1)
    i1, i2 = qmc.product_inclusion(p, 0), qmc.product_inclusion(p, 1)
    for z in Q8.elements():
        assert p1.eval(i1.eval(z)) == z
        assert p2.eval(i1.eval(z)).is_zero()
    # i1 p1 + i2 p2 = identity
    s = i1.compose(p1) + i2.compose(p2)
    for z in p.elements():
        assert s.eval(z) == z


def reference_identity(g):
    bz = g.B.zero()
    r = g.rank
    return qmaps.QMap(g, g, ab.AbHom.identity(g.A), ab.AbHom.identity(g.B),
                      [bz] * r, [[bz] * r for _ in range(r)])


def reference_zero(g, h):
    bz = h.B.zero()
    r = g.rank
    return qmaps.QMap(g, h, ab.AbHom.zero(g.A, h.A), ab.AbHom.zero(g.B, h.B),
                      [bz] * r, [[bz] * r for _ in range(r)])


def reference_power(g, n):
    r = g.rank
    gamma = [(n * g.gen(i)).b for i in range(r)]
    c = -(n * (n - 1) // 2)
    delta = [[c * (g.bil[i][j] - g.bil[j][i]) for j in range(r)] for i in range(r)]
    nid_a = ab.AbHom(g.A, g.A, [[n if i == j else 0 for j in range(g.A.rank)]
                                for i in range(g.A.rank)])
    nid_b = ab.AbHom(g.B, g.B, [[n if i == j else 0 for j in range(g.B.rank)]
                                for i in range(g.B.rank)])
    return qmaps.QMap(g, g, nid_a, nid_b, gamma, delta)


def reference_addition(g):
    p = nil2.product(g, g)
    r = g.rank
    fab = ab.AbHom(p.A, g.A, [[1 if (j % r == i) else 0 for j in range(2 * r)]
                              for i in range(g.A.rank)]) if r else ab.AbHom.zero(p.A, g.A)
    s = g.B.rank
    fcomm = ab.AbHom(p.B, g.B, [[1 if (j % s == i) else 0 for j in range(2 * s)]
                                for i in range(s)]) if s else ab.AbHom.zero(p.B, g.B)
    bz = g.B.zero()
    gamma = [bz] * (2 * r)
    delta = [[bz] * (2 * r) for _ in range(2 * r)]
    for i in range(r):
        for j in range(r):
            delta[r + j][i] = g.bil[i][j] - g.bil[j][i]
    return qmaps.QMap(p, g, fab, fcomm, gamma, delta)


def reference_abelianization_projection(g):
    tgt = nil2.from_abelian(g.A)
    bz = tgt.B.zero()
    r = g.rank
    return qmaps.QMap(g, tgt, ab.AbHom.identity(g.A), ab.AbHom.zero(g.B, tgt.B),
                      [bz] * r, [[bz] * r for _ in range(r)])


def reference_product_projection(p, k):
    _, g1, g2 = p.provenance
    gk = (g1, g2)[k]
    off_a = 0 if k == 0 else g1.A.rank
    off_b = 0 if k == 0 else g1.B.rank
    fab = ab.AbHom(p.A, gk.A, [[1 if j == off_a + i else 0 for j in range(p.A.rank)]
                               for i in range(gk.A.rank)])
    fcomm = ab.AbHom(p.B, gk.B, [[1 if j == off_b + i else 0 for j in range(p.B.rank)]
                                 for i in range(gk.B.rank)])
    bz = gk.B.zero()
    r = p.rank
    return qmaps.QMap(p, gk, fab, fcomm, [bz] * r, [[bz] * r for _ in range(r)])


def reference_inclusion(whole, k):
    g1, g2 = whole.provenance[1:3]
    gk = (g1, g2)[k]
    off_a = 0 if k == 0 else g1.A.rank
    off_b = 0 if k == 0 else g1.B.rank
    fab = ab.AbHom(gk.A, whole.A, [[1 if i == off_a + j else 0 for j in range(gk.A.rank)]
                                   for i in range(whole.A.rank)])
    fcomm = ab.AbHom(gk.B, whole.B, [[1 if i == off_b + j else 0 for j in range(gk.B.rank)]
                                     for i in range(whole.B.rank)])
    bz = whole.B.zero()
    r = gk.rank
    return qmaps.QMap(gk, whole, fab, fcomm, [bz] * r, [[bz] * r for _ in range(r)])


def reference_couniversal(c, u, v):
    _, g1, g2, tens = c.provenance
    x = u.target
    fab = ab.AbHom(c.A, x.A, [list(u.fab.matrix[i]) + list(v.fab.matrix[i])
                              for i in range(x.A.rank)])
    tens_cols = tens.columns(
        lambda i, j: x.commutator_pairing(u.fab.column(i), v.fab.column(j)))
    fcomm_cols = ([u.fcomm.column(j) for j in range(g1.B.rank)]
                  + [v.fcomm.column(j) for j in range(g2.B.rank)] + tens_cols)
    fcomm = ab.AbHom.from_columns(c.B, x.B, fcomm_cols)
    bz = x.B.zero()
    r = c.rank
    return qmaps.QMap(c, x, fab, fcomm, list(u.gamma) + list(v.gamma),
                      [[bz] * r for _ in range(r)])


def test_structural_maps_match_reference():
    def same(q, ref):
        assert (q.source, q.target, q.fab, q.fcomm, q.gamma, q.delta) == \
            (ref.source, ref.target, ref.fab, ref.fcomm, ref.gamma, ref.delta)
        return 1

    cases = 0
    for g in [Q8, D4, HEIS3, Z4, V4, nil2.free(2), nil2.coproduct(Z2, Z4)]:
        cases += same(qmaps.identity_qmap(g), reference_identity(g))
        cases += same(qmc.addition_qmap(g), reference_addition(g))
        cases += same(classify.abelianization_projection(g),
                      reference_abelianization_projection(g))
        for n in range(-3, 4):
            cases += same(qmc.power_qmap(g, n), reference_power(g, n))
    for g1, g2 in itertools.product([Q8, D4, HEIS3], repeat=2):
        p, c = nil2.product(g1, g2), nil2.coproduct(g1, g2)
        for k, gk in enumerate((g1, g2)):
            cases += same(qmc.product_projection(p, k), reference_product_projection(p, k))
            cases += same(qmc.product_inclusion(p, k), reference_inclusion(p, k))
            cases += same(qmc.coproduct_inclusion(c, k), reference_inclusion(c, k))
            for w in (p, c):
                cases += same(qmc.zero_qmap(w, gk), reference_zero(w, gk))
                cases += same(qmc.zero_qmap(gk, w), reference_zero(gk, w))
    for g1, g2, x in [(Z2, Z4, Q8), (Z2, Z2, D4)]:
        c = nil2.coproduct(g1, g2)
        for u, v in itertools.product(list(qmaps.enumerate_homs(g1, x)),
                                      list(qmaps.enumerate_homs(g2, x))):
            cases += same(qmc.coproduct_couniversal(c, u, v), reference_couniversal(c, u, v))
    assert cases == 248


@pytest.mark.parametrize("build, tag", [
    (qmc.product_projection, "product"), (qmc.product_inclusion, "product"),
    (qmc.coproduct_inclusion, "coproduct")])
def test_structural_maps_reject_bad_factor(build, tag):
    whole = (nil2.product if tag == "product" else nil2.coproduct)(Q8, Z2)
    for k in (2, -1):
        with pytest.raises(InvalidArgument, match=f"factor index {k} is not 0 or 1"):
            build(whole, k)
    other = nil2.coproduct(Q8, Z2) if tag == "product" else nil2.product(Q8, Z2)
    with pytest.raises(InvalidArgument, match=f"not built as a {tag}"):
        build(other, 0)


def repeated_sum(z, n):
    """n z by |n| additions, so that a reference runs neither
    `Nil2Element.__mul__` nor `__neg__`: for n < 0 it adds the inverse
    (-x, -u - beta(x, -x)) of z = (x, u)."""
    g = z.group
    if n < 0:
        z, n = g.pair(-z.a, -z.b - g.cocycle(z.a, -z.a)), -n
    acc = g.zero()
    for _ in range(n):
        acc = acc + z
    return acc


def reference_kappa(G, a):
    """B-part of x_1 (e_1, 0) + ... + x_r (e_r, 0) summed left to right,
    by element additions, for a = (x_1, ..., x_r) canonical."""
    acc = G.zero()
    for i, m in enumerate(a.coords):
        acc = acc + repeated_sum(G.gen(i), m)
    assert acc.a == a
    return acc.b


def reference_eval(q, z):
    """The object-level generator expansion, as a reference for the
    coordinate-level `QMap.eval`: ascending generator index, each step
    adding m f(e_i) + (m(m-1)/2) delta[i][i] and the cross terms
    x_p m delta[p][i] (p < i), then fcomm(z.b - kappa(z.a))."""
    G, H = q.source, q.target
    x = z.a.coords
    acc = H.zero()
    for i, m in enumerate(x):
        if m == 0:
            continue
        term = repeated_sum(q.gen_image(i), m) + H.central((m * (m - 1) // 2) * q.delta[i][i])
        cross = H.B.zero()
        for p in range(i):
            if x[p]:
                cross = cross + (x[p] * m) * q.delta[p][i]
        acc = acc + term + H.central(cross)
    return acc + H.central(q.fcomm.apply(z.b - reference_kappa(G, z.a)))


def _assert_eval_matches_reference(q, points):
    for z in points:
        got = q.eval(z)
        want = reference_eval(q, z)
        assert got == want, (q, z, got, want)
        assert got.a.coords == want.a.coords and got.b.coords == want.b.coords


def test_eval_agrees_with_reference_expansion():
    q8z2 = nil2.product(Q8, Z2)
    count = 0
    # the DIAG64 targets check the plan's H-side rows against a diagonal bil
    for g, h in [(Z4, Q8), (D4, Q8), (Q8, D4), (q8z2, V4), (Z4, DIAG64), (V4, DIAG64)]:
        pts = list(g.elements())
        for q in qmaps.enumerate_qmaps(g, h):
            _assert_eval_matches_reference(q, pts)
            count += 1
    assert count == 16 + 256 + 256 + 64 + 128 + 512
    # an enumerated source with a nonzero diagonal bil: kappa(x) and the
    # monomials come from the enumeration's source table
    homs = list(qmaps.enumerate_homs(DIAG64, Q8))
    assert len(homs) == 64 and sum(not q.fcomm.is_zero() for q in homs) == 24
    for q in homs:
        _assert_eval_matches_reference(q, DIAG64.elements())
    for g in (D4, HEIS3, DIAG64):
        for n in (-3, -1, 2):
            _assert_eval_matches_reference(qmc.power_qmap(g, n), g.elements())
    _assert_eval_matches_reference(qmaps.identity_qmap(DIAG64), DIAG64.elements())
    # infinite sources: negative multiples of free generators
    z1 = nil2.free(1)
    pts1 = [z1.element([n], []) for n in range(-3, 4)]
    for a in Q8.elements():
        for b in Q8.B.elements():
            _assert_eval_matches_reference(
                qmc.qmap_from_z(Q8, a, Q8.central(b)), pts1)
    f2 = nil2.free(2)
    pts2 = [f2.element([s, t], [u]) for s in range(-3, 4)
            for t in range(-3, 4) for u in range(-3, 4)]
    bz, one = Q8.B.zero(), Q8.B.element([1])
    for a1 in Q8.elements():
        a2 = Q8.gen(1)
        fab = ab.AbHom.from_columns(f2.A, Q8.A, [a1.a, a2.a])
        fcomm = ab.AbHom.from_columns(f2.B, Q8.B, [one])
        d21 = Q8.commutator_pairing(a1.a, a2.a) - one  # commutator relation
        q = qmaps.QMap(f2, Q8, fab, fcomm, [a1.b, a2.b], [[one, bz], [d21, one]])
        _assert_eval_matches_reference(q, pts2)
    _assert_eval_matches_reference(qmaps.identity_qmap(f2), pts2)
    _assert_eval_matches_reference(qmc.power_qmap(f2, -3), pts2)


BOTH_ENUMS = (qmaps.enumerate_qmaps, qmaps.enumerate_homs)


@pytest.mark.parametrize("enums, g, h", [
    (BOTH_ENUMS, D4, Q8),
    (BOTH_ENUMS, nil2.product(Q8, Z2), V4),
    (BOTH_ENUMS, nil2.coproduct(Z2, Z2), nil2.product(Q8, Z2)),
    # 729 homomorphisms over 81 fabs; the 59049 q-maps would take seconds
    ((qmaps.enumerate_homs,), HEIS3, HEIS3),
    # [H,H] = Z/4, a non-prime exponent: 512 q-maps
    (BOTH_ENUMS, V4, nil2.coproduct(Z4, Z4)),
    # Z/9 coordinates, with B: 297 homomorphisms, four-byte fields
    ((qmaps.enumerate_homs,), ingest.canonicalize_finite(ingest.semidirect(9, 9, 4)).group,
     HEIS3),
    (BOTH_ENUMS, catalog.cyclic(9), HEIS3),
    # fields wider than eight bytes
    (BOTH_ENUMS, Z2, catalog.heisenberg(2 ** 65))])
def test_shared_plan_eval_matches_fresh_map(enums, g, h):
    # the maps of one enumeration share a per-fab plan and are tabulated
    # in batches; each must evaluate exactly as a fresh map with the same
    # generator data, which evaluates per point, whether it is evaluated as
    # it is yielded (a batch holds the rest of its chunk), after the whole
    # list (a batch of one map) or in reverse order after it
    pts = list(g.elements())
    for enum in enums:
        for order in (enum(g, h), list(enum(g, h)), list(enum(g, h))[::-1]):
            for q in order:
                fresh = qmaps.QMap(g, h, q.fab, q.fcomm, q.gamma, q.delta)
                for z in pts:
                    got, want = q.eval(z), fresh.eval(z)
                    assert got.a.coords == want.a.coords and got.b.coords == want.b.coords


@pytest.mark.parametrize("g, h, count", [
    (nil2.product(Q8, Z2), V4, 64),
    (D4, Q8, 256)])  # 16 fabs: a plan per map would pack 256 times
def test_enumeration_fills_plan_once_per_fab_and_point(monkeypatch, g, h, count):
    # an enumeration's maps never evaluate per point: each plan packs its
    # fab's s_i, fab(x) and base_fab(x) over all of G at once, once per fab
    calls = collections.Counter()
    for cls, name in ((qmaps.QMap, "_at"), (qmt._TablePlan, "pack")):
        def counting(self, *args, _name=name, _call=getattr(cls, name)):
            calls[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(cls, name, counting)
    pts = list(g.elements())
    maps = list(qmaps.enumerate_qmaps(g, h))
    for q in maps:
        for z in pts:
            q.eval(z)
    assert len(maps) == count
    assert calls == {"pack": len({q.fab for q in maps})}


def test_enumeration_fills_source_side_once(monkeypatch):
    # G's lift rows and kappa(x) depend on G alone: an enumeration's kernel
    # fills once, at its first tabulation, reading G's lift rows once and
    # no per-point lift sum, however many fabs it has
    calls = collections.Counter()
    for name in ("_lift_rows", "_lift_sum"):
        def counting(self, *args, _name=name, _call=getattr(nil2.CentralExtension, name)):
            if self is D4:
                calls[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(nil2.CentralExtension, name, counting)
    fill = qmt._Kernel.fill

    def counting_fill(kernel):
        calls["fill"] += 1
        return fill(kernel)

    monkeypatch.setattr(qmt._Kernel, "fill", counting_fill)
    pts, seen = list(D4.elements()), {}
    for h in (Z2, Q8):
        calls.clear()
        maps = list(qmaps.enumerate_qmaps(D4, h))
        setup = dict(calls)     # the solver's torsion multiples
        for q in maps:
            for z in pts:
                q.eval(z)
        calls.subtract(setup)
        seen[len({q.fab for q in maps})] = setup, +calls
    assert sorted(seen) == [4, 16] and seen[4] == seen[16]
    assert seen[16][1] == {"_lift_rows": 1, "fill": 1}


def test_per_point_rows_are_built_at_first_eval(monkeypatch):
    # (a) a constructed map builds no evaluation state: the 256 sums of
    # the 16 D4 -> Q8 maps of the first fab read lift rows as often as the
    # one sum of its first map does, on fresh groups (the solver's terms of
    # the pair, which validation fills, read them per fab column);
    # (b) a fresh Heis3 -> G27 map builds G's and H's lift rows at its
    # first eval and two lift sums per A-point of Heis3, kept for later calls
    calls = collections.Counter()
    for name in ("_lift_rows", "_lift_sum"):
        def counting(self, *args, _name=name, _call=getattr(nil2.CentralExtension, name)):
            calls[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(nil2.CentralExtension, name, counting)
    seen = []
    for n in (1, 16):
        g, h = catalog.dihedral4(), catalog.quaternion()
        maps = list(itertools.islice(qmaps.enumerate_qmaps(g, h), n))
        calls.clear()
        sums = [p + q for p in maps for q in maps]
        seen.append((len(sums), calls["_lift_rows"]))
    assert len({q.fab for q in maps}) == 1
    assert seen[0][0] == 1 and seen[1][0] == 256 and seen[0][1] == seen[1][1]
    g = catalog.modular_semidirect(3)
    q = list(qmaps.enumerate_qmaps(HEIS3, g))[-1]
    fresh = qmaps.QMap(HEIS3, g, q.fab, q.fcomm, q.gamma, q.delta)
    pts = list(HEIS3.elements())
    table = [q.eval(z) for z in pts]
    calls.clear()
    for _ in range(2):
        assert [fresh.eval(z) for z in pts] == table
    assert len(pts) == 27 and len({z.a for z in pts}) == 9
    assert calls == {"_lift_rows": 2, "_lift_sum": 18}


@pytest.mark.parametrize("g, h, field, b", [
    (catalog.cyclic(9), catalog.cyclic(9), "s", 7),     # s_0 = 8 * 8 at x = 8
    (catalog.cyclic(49), catalog.modular_semidirect(7), "base", 13),
    (catalog.cyclic(7), catalog.heisenberg(7), "V", 8)])
def test_kernel_fields_come_near_their_bound(g, h, field, b):
    # every packed field stays below 2^b, b the bit length of the largest of
    # three bounds (`qmap_tables._Kernel`): on each target one field
    # reaches 2^(b-1), so a reduction exact only further below 2^b, or a b
    # that leaves a bound out, changes a table here
    # as yielded, so that those fields share an int with other maps' fields,
    # and after the whole list, one map a batch
    pts = list(g.elements())
    for q in qmaps.enumerate_qmaps(g, h):
        fresh = qmaps.QMap(g, h, q.fab, q.fcomm, q.gamma, q.delta)
        assert [q.eval(z) for z in pts] == [fresh.eval(z) for z in pts], q
    maps = list(qmaps.enumerate_qmaps(g, h))
    for q in maps:
        fresh = qmaps.QMap(g, h, q.fab, q.fcomm, q.gamma, q.delta)
        assert [q.eval(z) for z in pts] == [fresh.eval(z) for z in pts], q
    # the fields at x in the cyclic source: s_i, base_t before its
    # reduction (rows reduced mod e_t) and V_t
    top = 0
    for q in maps:
        rows = [[y % e for y in row] for row, e in zip(
            h._lift_rows(list(zip(*q.fab.matrix))), h._borders)]
        for x in range(g.A.orders[0]):
            quad, s = nil2._quadratic((x,)), [row[0] * x for row in q.fab.matrix]
            base = h._lift_sum(rows, quad, s)
            top = max([top] + {"s": s, "base": base, "V": [
                v % e + q.gamma[0].coords[t] * x + q.delta[0][0].coords[t] * quad[0]
                for t, (v, e) in enumerate(zip(base, h._borders))]}[field])
    assert maps[0]._plan.kernel.bits == b and 2 ** (b - 1) <= top < 2 ** b


def test_streamed_enumeration_tabulates_a_chunk_per_call(monkeypatch):
    # a map's first eval tabulates it with the maps of its chunk that the
    # enumeration has built but not yet yielded; a chunk holds at most as
    # many maps as were yielded before it (the first holds one), and never
    # maps of two fabs
    batches = []
    tabulate = qmt._TablePlan.tabulate

    def counting(plan, q):
        batches.append(1 + len(plan.pending))
        return tabulate(plan, q)

    monkeypatch.setattr(qmt._TablePlan, "tabulate", counting)
    pts = list(D4.elements())
    # D4 -> Q8, each map evaluated as it is yielded: 16 fabs of 16 maps, the
    # first in chunks of 1, 1, 2, 4 and 8, each later one in one chunk
    for q in qmaps.enumerate_qmaps(D4, Q8):
        for z in pts:
            q.eval(z)
    assert batches == [1, 1, 2, 4, 8] + [16] * 15
    # a consumer that stops early: 120 of the first fab's 729 maps are taken
    # and evaluated, and at most twice that many are tabulated
    batches.clear()
    for q in list(itertools.islice(qmaps.enumerate_qmaps(HEIS3, HEIS3), 120)):
        q.eval(HEIS3.zero())
    assert 120 <= sum(batches) <= 240
    # a consumer that lists every map first: one map a call
    batches.clear()
    maps = list(qmaps.enumerate_qmaps(D4, Q8))
    for q in maps:
        for z in pts:
            q.eval(z)
    assert batches == [1] * 256


def test_enumeration_leaves_no_reference_cycles():
    # an enumeration's plans, kernel and buffered choice lists are freed by
    # reference counting: with the collector off, enumerations evaluated as
    # yielded and after listing, and a section search that reads one choice
    # of each list, leave nothing for it to collect
    gc.collect()
    gc.disable()
    try:
        for q in qmaps.enumerate_qmaps(D4, Q8):
            q.eval(D4.zero())
        for q in list(qmaps.enumerate_homs(HEIS3, HEIS3)):
            q.eval(HEIS3.zero())
        classify.is_qsplit(HEIS3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerated_eval_does_no_element_arithmetic(monkeypatch):
    # the plan fills base_fab(x) and kappa(x) on coordinates: with every
    # Nil2Element +, - and * raising, eval still runs over all D4 -> Q8 maps
    maps, pts = list(qmaps.enumerate_qmaps(D4, Q8)), list(D4.elements())

    def forbidden(*args):
        raise AssertionError("Nil2Element arithmetic in QMap.eval")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(nil2.Nil2Element, name, forbidden)
    tables = {tuple((w.a.coords, w.b.coords) for w in map(q.eval, pts)) for q in maps}
    assert len(maps) == len(tables) == 256


def test_set_up_and_enumeration_do_no_element_arithmetic(monkeypatch):
    # groups are built and validated, and the solver's relation terms read,
    # on coordinates: with every AbElement and Nil2Element +, -, negation
    # and multiple raising, the catalog groups, products, coproducts and
    # the enumeration and tabulation of q-maps still run
    def forbidden(*args):
        raise AssertionError("element arithmetic in set-up")

    for cls in (ab.AbElement, nil2.Nil2Element):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, forbidden)
    q8, d4, heis3 = catalog.quaternion(), catalog.dihedral4(), catalog.heisenberg(3)
    catalog.modular_semidirect(3)
    nil2.product(q8, catalog.cyclic(2))
    nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2))
    pairs = [(d4, catalog.cyclic(4)), (q8, q8), (heis3, catalog.abelian_group([2, 2]))]
    tables = []
    for g, h in pairs:
        pts = list(g.elements())
        tables.append([(q, [q.eval(z) for z in pts]) for q in qmaps.enumerate_qmaps(g, h)])
    monkeypatch.undo()
    assert [len(t) for t in tables] == [4, 256, 1]
    for (g, _), maps in zip(pairs, tables):
        for q, values in maps:
            assert values == [reference_eval(q, z) for z in g.elements()]


def test_validation_does_no_element_arithmetic(monkeypatch):
    # validation reads the solver's relation terms on coordinates: with every
    # AbElement and Nil2Element +, -, negation and multiple raising, the
    # solver's data rebuilt as maps without `_validated`, and the structural
    # maps, still validate
    def forbidden(*args):
        raise AssertionError("element arithmetic in validation")

    pairs = [(D4, Q8), (HEIS3, V4)]
    p, c = nil2.product(Z2, Z4), nil2.coproduct(Z2, Z2)
    for cls in (ab.AbElement, nil2.Nil2Element):
        for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
            monkeypatch.setattr(cls, name, forbidden)
    rebuilt = [[qmaps.QMap(g, h, *data) for data in qmaps._presentations(
        g, h, ab.enumerate_homs(g.A, h.A), list(ab.enumerate_homs(g.B, h.B)))]
        for g, h in pairs]
    structural = [qmaps.identity_qmap(Q8), qmc.zero_qmap(D4, Q8),
                  qmc.product_projection(p, 1), qmc.coproduct_inclusion(c, 0)]
    monkeypatch.undo()
    assert [len(maps) for maps in rebuilt] == [256, 1]
    for (g, h), maps in zip(pairs, rebuilt):
        assert maps == list(qmaps.enumerate_qmaps(g, h))
    for q in structural:
        assert q in list(qmaps.enumerate_qmaps(q.source, q.target))


def test_enumerated_eval_shares_values_per_plan_entry(monkeypatch):
    # an enumeration builds each value of H once: tabulating all 256 D4 -> Q8
    # maps builds at most |Q8| = 8 elements, not one per map and point
    # (2048), and equal values of any two maps, with one plan or not, are
    # one object
    maps, pts = list(qmaps.enumerate_qmaps(D4, Q8)), list(D4.elements())
    built = []
    init = nil2.Nil2Element.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(nil2.Nil2Element, "__init__", counting_init)
    tables = [[q.eval(z) for z in pts] for q in maps]
    assert len(maps) == 256 and 0 < len(built) <= Q8.order() == 8
    shared = collections.Counter()
    for (p, tp), (q, tq) in itertools.combinations(zip(maps[::8], tables[::8]), 2):
        for v, w in zip(tp, tq):
            assert (v is w) == (v == w), (p, q, v, w)
            shared[p._plan is q._plan] += v is w
    assert shared[True] and shared[False]


def test_bruteforce_leaves_no_cyclic_garbage():
    # the backtracking keeps no reference cycle: its working lists are
    # freed by reference counting when the call returns; nor does a
    # function check leave one
    gc.collect()
    for kind in ("qmap", "quadratic"):
        qmaps.quadratic_functions_bruteforce(Z4, Z2, kind=kind)
        assert gc.collect() == 0
    zero, one = Z2.zero(), Z2.gen(0)
    for check in (qmaps.is_qmap_function, qmaps.is_quadratic_function):
        assert check(lambda z: zero, Z4, Z2)
        assert gc.collect() == 0
        assert not check(lambda z: one, Z4, Z2)
        assert gc.collect() == 0
