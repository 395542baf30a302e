"""Tests for the q-map calculus: validation, evaluation, the group
structure on qw(G,H), composition, enumeration vs. the set-map filter."""

import gc
import hashlib
import itertools
import random

import pytest

from nil2q import abelian as ab
from nil2q import catalog, classify, maltsev, nil2, qmaps
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


def test_identity_and_zero():
    for g in [Q8, D4, HEIS3]:
        idq = qmaps.identity_qmap(g)
        for z in g.elements():
            assert idq.eval(z) == z
        zq = qmaps.zero_qmap(g, Q8)
        for z in g.elements():
            assert zq.eval(z).is_zero()
        assert idq.is_hom(exhaustive=True)


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


def test_eval_zero_is_zero():
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 50):
        assert q.eval(Q8.zero()).is_zero()


def test_power_map():
    for g in [Q8, HEIS3]:
        for n in range(-3, 5):
            q = qmaps.power_qmap(g, n)
            for z in g.elements():
                assert q.eval(z) == n * z
    two = qmaps.power_qmap(Q8, 2)
    # (a|b)_2 = -[a,b]
    for x in Q8.elements():
        for y in Q8.elements():
            assert two.cross(x, y) == -(x.comm(y))
    assert not two.is_hom()


def test_power_map_composition():
    for m, n in [(2, 3), (3, -1), (2, 2)]:
        q = qmaps.power_qmap(HEIS3, m).compose(qmaps.power_qmap(HEIS3, n))
        expect = qmaps.power_qmap(HEIS3, m * n)
        for z in HEIS3.elements():
            assert q.eval(z) == expect.eval(z)


def test_addition_map_cross():
    for g in [Q8, HEIS3]:
        plus = qmaps.addition_qmap(g)
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
        assert (f + qmaps.zero_qmap(Q8, Q8)) == f


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
    f = qmaps.power_qmap(Q8, 3)
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
        assert q.is_hom() == q.is_hom(exhaustive=True)


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
    assert qmaps.qmap_from_z(Q8, Q8.zero(), Q8.zero()).is_zero()
    # |qw(Z, Q8)| = 16 via the (a, b) classification; all data spaces valid
    seen = set()
    for a in Q8.elements():
        for b in Q8.B.elements():
            q = qmaps.qmap_from_z(Q8, a, Q8.central(b))
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
    q = qmaps.qmap_from_z(Q8, a, b)
    minus1 = src.element([-1], [])
    assert q.eval(minus1) == -a + b
    # cross-effect (n|m) = nm b
    z2 = src.element([2], [])
    z3 = src.element([3], [])
    assert q.cross(z2, z3) == 6 * b
    with pytest.raises(NotAQMap):
        qmaps.qmap_from_z(Q8, a, Q8.gen(1))


def test_sum_formula_for_z_maps():
    # f_{a,b} + f_{a',b'} = f_{a+a', b+b'+[a,a']}
    src = nil2.free(1)
    elems = [src.element([n], []) for n in range(-4, 5)]
    for a in itertools.islice(Q8.elements(), 4):
        for a2 in itertools.islice(Q8.elements(), 4):
            for b in Q8.B.elements():
                for b2 in Q8.B.elements():
                    f = qmaps.qmap_from_z(Q8, a, Q8.central(b))
                    g = qmaps.qmap_from_z(Q8, a2, Q8.central(b2))
                    s = f + g
                    expect = qmaps.qmap_from_z(
                        Q8, a + a2, Q8.central(b + b2) + a.comm(a2))
                    for z in elems:
                        assert s.eval(z) == expect.eval(z)


def test_beta_examples():
    idq = qmaps.identity_qmap(Q8)
    bd = qmaps.qmap_beta(idq)
    assert bd.kernel.is_trivial() and bd.additive
    zq = qmaps.zero_qmap(Q8, Q8)
    bz = qmaps.qmap_beta(zq)
    assert bz.kernel.invariant_factors() == (2, 2)
    assert bz.coker.invariant_factors() == (2,)
    assert bz.additive and bz.hom.is_zero()
    # well-definedness on coset representatives: lifts differing by a
    # commutator element give the same value
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, Q8), 40):
        bd = qmaps.qmap_beta(q)
        for x in bd.kernel.elements():
            a = bd.incl.apply(x)
            for u in Q8.B.elements():
                w = q.eval(Q8.pair(a, u))
                assert bd.proj.apply(w.b) == bd.value(x)


def test_beta_additive_with_hom_for_homomorphisms():
    for q in qmaps.enumerate_qmaps(Q8, Q8):
        if not q.is_hom():
            continue
        bd = qmaps.qmap_beta(q)
        assert bd.additive
        for x in bd.kernel.elements():
            assert bd.hom.apply(x) == bd.value(x)


def test_beta_nonzero_and_monomorphism():
    # the central homomorphism Z/2 -> Q8 has nonzero, injective beta
    f = qmaps.qmap_from_function(
        Z2, Q8, lambda z: Q8.central(z.a.coords[0] * Q8.B.element([1])))
    bd = qmaps.qmap_beta(f)
    assert bd.kernel.invariant_factors() == (2,)
    assert bd.coker.invariant_factors() == (2,)
    assert bd.additive
    assert not bd.hom.is_zero()
    vals = {bd.value(x) for x in bd.kernel.elements()}
    assert len(vals) == 2  # injective on the kernel


def test_beta_additivity_fails_for_squaring_on_q8():
    # regression: the defining formula is not additive for every q-map;
    # the squaring map has beta(e1) = beta(e2) = 1 but beta(e1+e2) = 1
    two = qmaps.power_qmap(Q8, 2)
    bd = qmaps.qmap_beta(two)
    assert bd.kernel.invariant_factors() == (2, 2)
    assert not bd.additive and bd.hom is None
    vals = [bd.value(x) for x in bd.kernel.elements()]
    assert any(not v.is_zero() for v in vals)


def test_p2_factorization():
    for q in itertools.islice(qmaps.enumerate_qmaps(Q8, D4), 12):
        fq = qmaps.qmap_p2_factorize(q)
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
    fid = qmaps.qmap_p2_factorize(idq)
    for x in itertools.islice(fid.extension.elements(), 32):
        assert fid.eval(x) == fid.extension.proj(x)
    # q = 0: f_q = 0
    f0 = qmaps.qmap_p2_factorize(qmaps.zero_qmap(Q8, D4))
    assert all(f0.eval(x).is_zero()
               for x in itertools.islice(f0.extension.elements(), 32))


@pytest.mark.parametrize("g, h", [(D4, Q8), (Q8, D4), (Z4, Q8), (V4, D4),
                                  (nil2.coproduct(Z2, Z2), Q8),
                                  (HEIS3, catalog.modular_semidirect(3))])
def test_p2_universal_property_through_hom_solver(g, h):
    # the homomorphisms P2(G) -> H, composed with p2, are exactly the
    # q-maps G -> H, each once
    ext = nil2.p2_extension(g)
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
        q2 = qmaps.qmap_from_function(D4, Q8, q.eval)
        assert q2 == q
    with pytest.raises(NotAQMap):
        # cross-effect at (e1, e2) leaves the commutator subgroup
        table = {(0, 0): Q8.zero(), (1, 0): Q8.gen(0), (0, 1): Q8.gen(1),
                 (1, 1): Q8.zero()}
        qmaps.qmap_from_function(V4, Q8, lambda z: table[z.a.coords])


def test_enumeration_matches_bruteforce_small():
    pairs = [(Z2, Z4), (Z4, Z4), (Z2, Q8), (Z4, Q8), (V4, Q8), (Q8, Z2), (Q8, Z4)]
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
    for g, h in [(Z4, Q8), (V4, D4), (Q8, Z2)]:
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
    # fixed-seed random set maps V4 -> Q8
    rng = random.Random(20240)
    hel = list(Q8.elements())
    sample = [tuple(rng.choice(hel) for _ in range(V4.order())) for _ in range(400)]
    verdicts = _kernel_agrees_with_reference(V4, Q8, sample)
    assert {(True, True), (False, False)} <= verdicts


def test_function_checks_reject_values_outside_target():
    # values in another group are an input error, not a verdict
    with pytest.raises(InvalidArgument):
        qmaps.is_qmap_function(lambda z: Q8.zero(), Z2, D4)
    with pytest.raises(InvalidArgument):
        qmaps.is_quadratic_function(lambda z: Q8.zero(), Z2, D4)
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


def test_qw_equals_hom_for_abelian_targets():
    # abelian target: q-maps are exactly homomorphisms
    pairs = [(Q8, Z2), (Q8, Z4), (D4, V4), (HEIS3, catalog.cyclic(3))]
    for g, h in pairs:
        qs = list(qmaps.enumerate_qmaps(g, h))
        assert all(q.is_hom(exhaustive=True) for q in qs)
        homs = {tuple(q.fab.matrix) for q in qs}
        assert len(homs) == len(qs)
        assert len(qs) == ab.hom_count(g.A, h.A)


def test_product_count_identity():
    # |qw(G1 x G2, H)| = |qw(G1,H)| |qw(G2,H)| |Hom(A1 (x) A2, [H,H])|
    cases = [(Z2, Z2, Q8), (Z2, Z4, Q8), (Z4, Z4, D4), (Z2, Q8, Q8)]
    for g1, g2, h in cases:
        p = nil2.product(g1, g2)
        n = sum(1 for _ in qmaps.enumerate_qmaps(p, h))
        n1 = sum(1 for _ in qmaps.enumerate_qmaps(g1, h))
        n2 = sum(1 for _ in qmaps.enumerate_qmaps(g2, h))
        t = ab.tensor(g1.A, g2.A).group
        assert n == n1 * n2 * ab.hom_count(t, h.B)


def test_coproduct_count_identity():
    # |qw(G1 v G2, H)| = |Hom(A1 (x) A2, [H,H])|^2 |qw(G1,H)| |qw(G2,H)|
    for g1, g2, h in [(Z2, Z2, Q8), (Z2, Z4, D4)]:
        c = nil2.coproduct(g1, g2)
        n = sum(1 for _ in qmaps.enumerate_qmaps(c, h))
        n1 = sum(1 for _ in qmaps.enumerate_qmaps(g1, h))
        n2 = sum(1 for _ in qmaps.enumerate_qmaps(g2, h))
        t = ab.tensor(g1.A, g2.A).group
        assert n == ab.hom_count(t, h.B) ** 2 * n1 * n2


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
    i1, i2 = qmaps.coproduct_inclusion(c, 0), qmaps.coproduct_inclusion(c, 1)
    assert i1.is_hom(exhaustive=True) and i2.is_hom(exhaustive=True)
    x = Q8
    homs1 = [q for q in qmaps.enumerate_qmaps(Z2, x) if q.is_hom()]
    homs2 = homs1
    all_homs_c = [q for q in qmaps.enumerate_qmaps(c, x) if q.is_hom()]
    for u in homs1:
        for v in homs2:
            w = qmaps.coproduct_couniversal(c, u, v)
            assert w.is_hom(exhaustive=True)
            assert w.compose(i1) == u and w.compose(i2) == v
            matches = [t for t in all_homs_c
                       if t.compose(i1) == u and t.compose(i2) == v]
            assert matches == [w]


def test_product_projections_inclusions():
    p = nil2.product(Q8, Z2)
    p1, p2 = qmaps.product_projection(p, 0), qmaps.product_projection(p, 1)
    i1, i2 = qmaps.product_inclusion(p, 0), qmaps.product_inclusion(p, 1)
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
        cases += same(qmaps.addition_qmap(g), reference_addition(g))
        cases += same(classify.abelianization_projection(g),
                      reference_abelianization_projection(g))
        for n in range(-3, 4):
            cases += same(qmaps.power_qmap(g, n), reference_power(g, n))
    for g1, g2 in itertools.product([Q8, D4, HEIS3], repeat=2):
        p, c = nil2.product(g1, g2), nil2.coproduct(g1, g2)
        for k, gk in enumerate((g1, g2)):
            cases += same(qmaps.product_projection(p, k), reference_product_projection(p, k))
            cases += same(qmaps.product_inclusion(p, k), reference_inclusion(p, k))
            cases += same(qmaps.coproduct_inclusion(c, k), reference_inclusion(c, k))
            for w in (p, c):
                cases += same(qmaps.zero_qmap(w, gk), reference_zero(w, gk))
                cases += same(qmaps.zero_qmap(gk, w), reference_zero(gk, w))
    for g1, g2, x in [(Z2, Z4, Q8), (Z2, Z2, D4)]:
        c = nil2.coproduct(g1, g2)
        for u, v in itertools.product(list(qmaps.enumerate_homs(g1, x)),
                                      list(qmaps.enumerate_homs(g2, x))):
            cases += same(qmaps.coproduct_couniversal(c, u, v), reference_couniversal(c, u, v))
    assert cases == 248


@pytest.mark.parametrize("build, tag", [
    (qmaps.product_projection, "product"), (qmaps.product_inclusion, "product"),
    (qmaps.coproduct_inclusion, "coproduct")])
def test_structural_maps_reject_bad_factor(build, tag):
    whole = (nil2.product if tag == "product" else nil2.coproduct)(Q8, Z2)
    for k in (2, -1):
        with pytest.raises(InvalidArgument, match=f"factor index {k} is not 0 or 1"):
            build(whole, k)
    other = nil2.coproduct(Q8, Z2) if tag == "product" else nil2.product(Q8, Z2)
    with pytest.raises(InvalidArgument, match=f"not built as a {tag}"):
        build(other, 0)


def reference_kappa(G, a):
    """B-part of x_1 (e_1, 0) + ... + x_r (e_r, 0) summed left to right,
    by element arithmetic, for a = (x_1, ..., x_r) canonical."""
    acc = G.zero()
    for i, m in enumerate(a.coords):
        acc = acc + m * G.gen(i)
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
        term = m * q.gen_image(i) + (m * (m - 1) // 2) * H.central(q.delta[i][i])
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
    for g, h in [(Z4, Q8), (D4, Q8), (Q8, D4), (q8z2, V4)]:
        pts = list(g.elements())
        for q in qmaps.enumerate_qmaps(g, h):
            _assert_eval_matches_reference(q, pts)
            count += 1
    assert count == 16 + 256 + 256 + 64
    for g in (D4, HEIS3, DIAG64):
        for n in (-3, -1, 2):
            _assert_eval_matches_reference(qmaps.power_qmap(g, n), g.elements())
    _assert_eval_matches_reference(qmaps.identity_qmap(DIAG64), DIAG64.elements())
    # infinite sources: negative multiples of free generators
    z1 = nil2.free(1)
    pts1 = [z1.element([n], []) for n in range(-3, 4)]
    for a in Q8.elements():
        for b in Q8.B.elements():
            _assert_eval_matches_reference(
                qmaps.qmap_from_z(Q8, a, Q8.central(b)), pts1)
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
    _assert_eval_matches_reference(qmaps.power_qmap(f2, -3), pts2)


BOTH_ENUMS = (qmaps.enumerate_qmaps, qmaps.enumerate_homs)


@pytest.mark.parametrize("enums, g, h", [
    (BOTH_ENUMS, D4, Q8),
    (BOTH_ENUMS, nil2.product(Q8, Z2), V4),
    (BOTH_ENUMS, nil2.coproduct(Z2, Z2), nil2.product(Q8, Z2)),
    # 729 homomorphisms over 81 fabs; the 59049 q-maps would take seconds
    ((qmaps.enumerate_homs,), HEIS3, HEIS3)])
def test_shared_plan_eval_matches_fresh_map(enums, g, h):
    # the maps of one enumeration share a per-fab plan; each must evaluate
    # exactly as a fresh map with the same generator data and its own plan
    pts = list(g.elements())
    for enum in enums:
        for q in enum(g, h):
            fresh = qmaps.QMap(g, h, q.fab, q.fcomm, q.gamma, q.delta)
            for z in pts:
                got, want = q.eval(z), fresh.eval(z)
                assert got.a.coords == want.a.coords and got.b.coords == want.b.coords


@pytest.mark.parametrize("g, h, count", [
    (nil2.product(Q8, Z2), V4, 64),
    (D4, Q8, 256)])  # 16 fabs: a plan per map would fill 1024 times
def test_enumeration_fills_plan_once_per_fab_and_point(monkeypatch, g, h, count):
    fills = []
    fill = qmaps._FabPlan.__missing__

    def counting_fill(plan, x):
        fills.append(x)
        return fill(plan, x)

    monkeypatch.setattr(qmaps._FabPlan, "__missing__", counting_fill)
    pts = list(g.elements())
    maps = list(qmaps.enumerate_qmaps(g, h))
    for q in maps:
        for z in pts:
            q.eval(z)
    assert len(maps) == count and fills
    assert len(fills) <= len({q.fab for q in maps}) * g.A.order()


def test_bruteforce_leaves_no_cyclic_garbage():
    # the backtracking keeps no reference cycle: its working lists are
    # freed by reference counting when the call returns
    gc.collect()
    for kind in ("qmap", "quadratic"):
        qmaps.quadratic_functions_bruteforce(Z4, Z2, kind=kind)
        assert gc.collect() == 0
