"""Tests for nil_2-groups as cocycle data: arithmetic, constructions,
canonicalization of finite tables, and the class-two element identities."""

import itertools
import random
import re
from math import lcm

import pytest

from nil2q import abelian as ab
from nil2q import abelian_constructions as abx
from nil2q import catalog, ingest, linext, maltsev, nil2, qmaps
from nil2q import qmap_constructions as qmc
from nil2q.errors import (
    CommutatorMismatch,
    InvalidArgument,
    InvalidBracket,
    InvalidCocycle,
    NotAGroup,
    NotAQMap,
    NotAnAction,
    NotClassTwo,
    UnsupportedEnumeration,
)

from iso_reference import reference_find_group_isomorphism

Q8 = catalog.quaternion()
D4 = catalog.dihedral4()
HEIS3 = catalog.heisenberg(3)
G27 = catalog.modular_semidirect(3)

# bil[1][1] != 0
_B4 = ab.FGAbelian([4])
DIAG64 = nil2.make(ab.FGAbelian([4, 4]), _B4, [[_B4.gen(0), _B4.gen(0)], [_B4.zero()] * 2],
                   [_B4.zero()] * 2)

SMALL = [catalog.cyclic(4), catalog.abelian_group([2, 2]), D4, Q8, HEIS3, G27]


def group_axioms_hold(g):
    elems = list(g.elements())
    zero = g.zero()
    for x in elems:
        assert x + zero == x and zero + x == x
        assert (x + (-x)).is_zero() and ((-x) + x).is_zero()
    for x in elems:
        for y in elems:
            for z in elems:
                assert (x + y) + z == x + (y + z)
    return True


def test_group_axioms_exhaustive_small():
    for g in [catalog.cyclic(4), catalog.abelian_group([2, 2]), D4, Q8,
              nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2)),
              nil2.product(Q8, catalog.cyclic(2))]:
        assert group_axioms_hold(g)


def test_cayley_table_matches_element_law():
    # the integer table agrees with element arithmetic, index for index; the
    # last group's A has cyclic factors of orders 2, 2, 3 and 4
    mixed = nil2.product(Q8, catalog.abelian_group([3, 4]))
    assert mixed.A.orders == (2, 2, 3, 4)
    for g in SMALL + [nil2.product(Q8, catalog.cyclic(2)), catalog.abelian_group([]), mixed]:
        t = g.table()
        assert t is g.table()
        elems = list(g.elements())
        index = {z: i for i, z in enumerate(elems)}
        assert t.index == {(z.a.coords, z.b.coords): i for z, i in index.items()}
        for i, x in enumerate(elems):
            assert t.neg[i] == index[-x]
            for j, y in enumerate(elems):
                assert t.add[i][j] == index[x + y]
    with pytest.raises(UnsupportedEnumeration):
        nil2.free(2).table()


def test_abelian_cayley_table_makes_no_cocycle_calls(monkeypatch):
    # with B trivial every cocycle value is zero: building the table makes
    # no cocycle call per pair of A-elements, and still matches the law
    g = catalog.abelian_group([4, 6])
    elems = list(g.elements())
    calls = []
    real = nil2.Nil2Group._cocycle_coords
    monkeypatch.setattr(nil2.Nil2Group, "_cocycle_coords",
                        lambda self, x, y: calls.append(1) or real(self, x, y))
    t = g.table()
    assert calls == []
    monkeypatch.undo()
    assert all(t.add[i][j] == elems.index(x + y)
               for i, x in enumerate(elems) for j, y in enumerate(elems))


def test_group_axioms_order_27():
    for g in [HEIS3, G27]:
        assert group_axioms_hold(g)


def test_cocycle_identity_exhaustive():
    for g in SMALL:
        for x in g.A.elements():
            for y in g.A.elements():
                for z in g.A.elements():
                    lhs = g.cocycle(x, y) + g.cocycle(x + y, z)
                    rhs = g.cocycle(y, z) + g.cocycle(x, y + z)
                    assert lhs == rhs


def test_make_validation():
    a = ab.FGAbelian([2, 2])
    b = ab.FGAbelian([3])
    z, one = b.zero(), b.element([1])
    with pytest.raises(InvalidCocycle):
        nil2.make(a, b, [[z, one], [z, z]], [z, z])  # 2*(1) != 0 in Z/3
    b2 = ab.FGAbelian([2, 2])
    z2 = b2.zero()
    e1 = b2.element([1, 0])
    with pytest.raises(CommutatorMismatch):
        nil2.make(a, b2, [[z2, e1], [z2, z2]], [z2, z2])
    # carry on an infinite cyclic factor is rejected
    a0 = ab.FGAbelian([0, 2])
    b3 = ab.FGAbelian([2])
    z3 = b3.zero()
    with pytest.raises(InvalidCocycle):
        nil2.make(a0, b3, [[z3, b3.element([1])], [z3, z3]],
                  [b3.element([1]), z3])
    # zero carry on Z is fine
    e = ab.FGAbelian([])
    g = nil2.make(ab.FGAbelian([0]), e, [[e.zero()]], [e.zero()])
    assert g.is_abelian()


def _generator_data(kind, mat, B):
    """Build the object that validates `mat` as its `kind` matrix, on
    A = Z/3 + Z/3 and commutator subgroup B."""
    A = ab.FGAbelian([3, 3])
    if kind == "bil":
        return nil2.make(A, B, mat, [B.zero()] * 2)
    if kind == "bracket":
        return maltsev.lie_make(A, B, [B.zero()] * 2, mat)
    h = catalog.heisenberg(9)
    assert h.B == B
    return qmaps.QMap(HEIS3, h, ab.AbHom.zero(A, h.A), ab.AbHom.zero(HEIS3.B, B),
                      [B.zero()] * 2, mat)


@pytest.mark.parametrize("kind, fault, error", [
    (kind, fault, error)
    for kind, torsion in [("bil", InvalidCocycle), ("bracket", InvalidBracket),
                          ("delta", NotAQMap)]
    for fault, error in [("shape", InvalidArgument), ("row", InvalidArgument),
                         ("outside", InvalidArgument), ("torsion", torsion),
                         ("generate", CommutatorMismatch)]
    if (kind, fault) != ("delta", "generate")])
def test_generator_data_validation(kind, fault, error):
    B = ab.FGAbelian([9])                 # 3 does not kill its generator
    z, one = B.zero(), B.gen(0)
    mat = {"shape": [[z, one]],
           "row": [[z, one], [-one]],
           "outside": [[z, ab.FGAbelian([3]).gen(0)], [z, z]],
           "torsion": [[z, one], [-one, z]],
           "generate": [[z, 3 * one], [-3 * one, z]]}[fault]
    with pytest.raises(error):
        _generator_data(kind, mat, B)


def _free_factor_group(aorders, borders, bil, carry):
    """nil2.make on A, B with the given nonzero bil[(i, j)] and carry[i]
    coordinates, every other entry zero."""
    A, B = ab.FGAbelian(aorders), ab.FGAbelian(borders)
    r = A.rank
    rows = [[B.element(bil[i, j]) if (i, j) in bil else B.zero() for j in range(r)]
            for i in range(r)]
    return nil2.make(A, B, rows, [B.element(carry.get(i, [0] * B.rank)) for i in range(r)])


@pytest.mark.parametrize("aorders, borders, bil, carry, error, message", [
    # a bil entry on a Z factor of B over infinite A factors is accepted ...
    ([0, 0], [0], {(0, 1): [1]}, {}, None, None),
    ([0, 0, 0], [0, 0], {(0, 1): [1, 5], (1, 2): [0, -1]}, {}, None, None),
    # ... and over a finite A factor it is not killed
    ([0, 0, 2], [0], {(0, 1): [1], (0, 2): [1]}, {}, InvalidCocycle,
     "bil[1][3] = (1) not killed by generator orders (0, 2)"),
    ([0, 0, 2], [2, 0], {(0, 1): [0, 1], (0, 2): [1, 1]}, {}, InvalidCocycle,
     "bil[1][3] = (1, 1) not killed by generator orders (0, 2)"),
    ([0, 0, 2], [2, 0], {(0, 1): [0, 1], (0, 2): [1, 0]}, {}, None, None),
    # a carry into Z: free over a finite A factor, refused over an infinite one
    ([0, 0, 2], [0], {(0, 1): [1]}, {2: [5]}, None, None),
    ([0, 0], [0], {(0, 1): [1]}, {0: [1]}, InvalidCocycle,
     "carry[1] nonzero on an infinite cyclic factor"),
    # commutators that miss a Z summand of B, or reach only 2Z
    ([0, 0], [2, 0], {(0, 1): [1, 0]}, {}, CommutatorMismatch,
     "commutators generate a proper subgroup of B with invariants [2], B = Z/2 + Z"),
    ([0, 0], [0, 0], {(0, 1): [1, 3]}, {}, CommutatorMismatch,
     "commutators generate a proper subgroup of B with invariants [0], B = Z + Z"),
    ([0, 0], [0], {(0, 1): [2]}, {}, CommutatorMismatch,
     "commutators generate a proper subgroup of B with invariants [0], B = Z"),
])
def test_validation_on_free_coordinates(aorders, borders, bil, carry, error, message):
    # order-0 coordinates take the unreduced branch of the coordinate checks
    if error is None:
        g = _free_factor_group(aorders, borders, bil, carry)
        assert g.commutators[0][1] == g.B.element(bil[0, 1])
    else:
        with pytest.raises(error) as exc:
            _free_factor_group(aorders, borders, bil, carry)
        assert str(exc.value) == message


def test_q8_structure():
    assert Q8.order() == 8
    assert Q8.exponent() == 4
    involutions = [z for z in Q8.elements() if z.order() == 2]
    assert len(involutions) == 1  # unique involution distinguishes Q8
    d4_inv = [z for z in D4.elements() if z.order() == 2]
    assert len(d4_inv) >= 2


def test_commutator_example_q8():
    # [omega, tau] = 2*tau: generator 2 against generator 1 hits the center
    omega, tau = Q8.gen(1), Q8.gen(0)
    assert omega.comm(tau) == Q8.central(Q8.B.element([1]))
    assert (2 * tau) == Q8.central(Q8.B.element([1]))
    for z in Q8.elements():
        assert z.comm(z).is_zero()


def test_commutator_matches_definition():
    for g in [D4, Q8, HEIS3, DIAG64, linext.p2_extension(Q8), maltsev.lie_log(HEIS3)]:
        for x in g.elements():
            for y in g.elements():
                assert x.comm(y) == -x - y + x + y


def test_scalar_multiple_identity():
    # n x + n y = n (x + y) + (n(n-1)/2) [x, y] for n in -5..5
    for g in [Q8, G27]:
        elems = list(g.elements())
        for x in elems:
            for y in elems:
                c = x.comm(y)
                for n in range(-5, 6):
                    lhs = n * x + n * y
                    rhs = n * (x + y) + (n * (n - 1) // 2) * c
                    assert lhs == rhs


def test_multiples_match_repeated_addition():
    # n z (n >= 0) against n additions of z, n z + |n| z = 0 for n < 0, and
    # z + (-z) = 0: over a diagonal bil (DIAG64), a widened B (P2(Q8)), a
    # zero bil with carries (the Lie ring), carries alone (Z8) and negative
    # coordinates (a window of free(2))
    f2 = nil2.free(2)
    window = [f2.element([s, t], [u]) for s in range(-2, 3) for t in range(-2, 3)
              for u in (-1, 0, 1)]
    groups = [D4, Q8, G27, DIAG64, linext.p2_extension(Q8), maltsev.lie_log(HEIS3),
              nil2.product(Q8, catalog.cyclic(2)), catalog.cyclic(8)]
    for g, pts in [(g, list(g.elements())) for g in groups] + [(f2, window)]:
        for z in pts:
            assert (z + (-z)).is_zero() and type(-z) is type(z)
            acc = g.zero()
            for n in range(8):
                assert n * z == acc and z * n == acc and type(n * z) is type(z)
                assert (-n * z + acc).is_zero()
                acc = acc + z


def test_free_group_scalar_identity():
    f2 = nil2.free(2)
    x, y = f2.gen(0), f2.gen(1)
    assert 2 * x + 2 * y == 2 * (x + y) + x.comm(y)


def test_element_order_and_enumeration():
    assert len(list(Q8.elements())) == 8
    assert len(list(HEIS3.elements())) == 27
    assert len(list(catalog.abelian_group([]).elements())) == 1
    with pytest.raises(UnsupportedEnumeration):
        list(nil2.free(2).elements())
    # order via closed form matches brute force
    for g in SMALL:
        for z in g.elements():
            n, acc = 1, z
            while not acc.is_zero():
                acc = acc + z
                n += 1
            assert z.order() == n


def test_center_against_exhaustive():
    for g in SMALL:
        c = nil2.center(g)
        elems = list(g.elements())
        for z in elems:
            commutes = all(z.comm(w).is_zero() for w in elems)
            assert c.contains(z) == commutes
        assert c.order() == sum(
            1 for z in elems if all(z.comm(w).is_zero() for w in elems))
    assert nil2.center(Q8).order() == 2
    assert nil2.center(catalog.abelian_group([4, 2])).order() == 8


def test_center_of_free_rank2():
    c = nil2.center(nil2.free(2))
    assert c.a_kernel.is_trivial()          # nothing central above the commutators
    assert nil2.free(2).B.orders == (0,)    # the center is exactly B = Z


def test_product():
    t = nil2.product(catalog.abelian_group([]), Q8)
    assert t.order() == 8
    p = nil2.product(Q8, catalog.cyclic(2))
    assert p.order() == 16
    assert p.B.invariant_factors() == (2,)
    d = nil2.product(D4, D4)
    assert d.order() == 64
    assert d.B.invariant_factors() == (2, 2)
    assert group_axioms_hold(p)


def test_heisenberg_is_coproduct_of_cyclics():
    assert HEIS3.exponent() == 3
    w = nil2.coproduct(catalog.cyclic(3), catalog.cyclic(3))
    assert w.order() == 27
    assert reference_find_group_isomorphism(nil2.table_of(w), nil2.table_of(HEIS3)) is not None


def test_coproduct_order_and_commutator():
    w = nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2))
    assert w.order() == 8
    assert w.B.invariant_factors() == (2,)
    # trivial v G = G-sized
    t = nil2.coproduct(catalog.abelian_group([]), Q8)
    assert t.order() == 8
    zz = nil2.coproduct(catalog.cyclic(0), catalog.cyclic(0))
    assert zz.A.orders == (0, 0) and zz.B.invariant_factors() == (0,)


def test_coproduct_commutator_formula():
    # [(xi,g,h), (xi',g',h')] = (g^ (x) h'^ - g'^ (x) h^, [g,g'], [h,h'])
    g1, g2 = Q8, catalog.cyclic(4)
    w = nil2.coproduct(g1, g2)
    _, _, _, tens = w.provenance
    r1, s1, s2 = g1.rank, g1.B.rank, g2.B.rank

    def embed(x1, x2, u1, u2, t):
        return w.element(x1.coords + x2.coords, u1.coords + u2.coords + t.coords)

    import random
    elems1 = list(g1.elements())
    elems2 = list(g2.elements())
    tz = tens.group.zero()
    for x in elems1[:6]:
        for y in elems2:
            for x2 in elems1[:6]:
                for y2 in elems2:
                    lhs = embed(x.a, y.a, x.b, y.b, tz).comm(
                        embed(x2.a, y2.a, x2.b, y2.b, tz))
                    expect_t = tens.pure(x.a, y2.a) - tens.pure(x2.a, y.a)
                    expect = embed(x.comm(x2).a, y.comm(y2).a,
                                   x.comm(x2).b, y.comm(y2).b, expect_t)
                    assert lhs == expect


def reference_product(g1, g2):
    """The direct product's data, block by block."""
    A = ab.direct_sum(g1.A, g2.A)
    B = ab.direct_sum(g1.B, g2.B)
    r1, r2 = g1.rank, g2.rank
    s1, s2 = g1.B.rank, g2.B.rank

    def emb1(e):
        return B.element(e.coords + (0,) * s2)

    def emb2(e):
        return B.element((0,) * s1 + e.coords)

    z = B.zero()
    bil = [[z] * (r1 + r2) for _ in range(r1 + r2)]
    for i in range(r1):
        for j in range(r1):
            bil[i][j] = emb1(g1.bil[i][j])
    for i in range(r2):
        for j in range(r2):
            bil[r1 + i][r1 + j] = emb2(g2.bil[i][j])
    carry = [emb1(e) for e in g1.carry] + [emb2(e) for e in g2.carry]
    return nil2.Nil2Group(A, B, bil, carry)


def reference_coproduct(g1, g2):
    """The coproduct's data, block by block, with the A1 (x) A2 cross terms."""
    A = ab.direct_sum(g1.A, g2.A)
    tens = abx.tensor(g1.A, g2.A)
    B = ab.direct_sum(ab.direct_sum(g1.B, g2.B), tens.group)
    r1, r2 = g1.rank, g2.rank
    s1, s2, sT = g1.B.rank, g2.B.rank, tens.group.rank

    def emb1(e):
        return B.element(e.coords + (0,) * (s2 + sT))

    def emb2(e):
        return B.element((0,) * s1 + e.coords + (0,) * sT)

    def embt(e):
        return B.element((0,) * (s1 + s2) + e.coords)

    z = B.zero()
    bil = [[z] * (r1 + r2) for _ in range(r1 + r2)]
    for i in range(r1):
        for j in range(r1):
            bil[i][j] = emb1(g1.bil[i][j])
    for i in range(r2):
        for j in range(r2):
            bil[r1 + i][r1 + j] = emb2(g2.bil[i][j])
    for j in range(r2):
        for i in range(r1):
            bil[r1 + j][i] = embt(-tens.pure(g1.A.gen(i), g2.A.gen(j)))
    carry = [emb1(e) for e in g1.carry] + [emb2(e) for e in g2.carry]
    return nil2.Nil2Group(A, B, bil, carry)


def test_block_sum_matches_reference():
    groups = [g for _, g in catalog.standard_catalog(27)] + [nil2.free(2)]
    for g1, g2 in itertools.product(groups, repeat=2):
        assert nil2.product(g1, g2) == reference_product(g1, g2)
        assert nil2.coproduct(g1, g2) == reference_coproduct(g1, g2)


def reference_exponent(g):
    """lcm of all element orders, by a sweep over the elements."""
    n = 1
    for z in g.elements():
        n = lcm(n, z.order())
    return n


def test_exponent_matches_element_sweep(monkeypatch):
    groups = [g for _, g in catalog.standard_catalog(200)]
    groups += [ingest.canonicalize_finite(ingest.semidirect(*nmk)).group
               for nmk in [(4, 2, 3), (9, 3, 4), (8, 2, 5), (16, 4, 5), (25, 5, 6)]]
    groups.append(nil2.coproduct(catalog.cyclic(4), catalog.cyclic(2)))
    for g in groups:
        assert g.exponent() == reference_exponent(g), g
    # Z2 v Z2 has lifts of order 4 and C(4, 2) [e1, e2] != 0: exponent 2 n0
    assert nil2.coproduct(catalog.cyclic(2), catalog.cyclic(2)).exponent() == 4

    # no element sweep: order 9^6 with exponent 9
    A, B = ab.FGAbelian([9, 9, 9]), ab.FGAbelian([9, 9, 9])
    z = B.zero()
    bil = [[z] * 3 for _ in range(3)]
    bil[0][1], bil[0][2], bil[1][2] = B.gen(0), B.gen(1), B.gen(2)
    k = nil2.Nil2Group(A, B, bil, [z] * 3)

    def no_sweep(self):
        raise AssertionError("exponent() swept the elements")

    monkeypatch.setattr(nil2.Nil2Group, "elements", no_sweep)
    assert k.order() == 9 ** 6 and k.exponent() == 9


def test_free_matches_exterior_square():
    for n in range(4):
        f = nil2.free(n)
        assert f.A.orders == (0,) * n
        assert f.B.invariant_factors() == abx.exterior_square(
            ab.FGAbelian([0] * n)).group.invariant_factors()
    assert nil2.free(1).B.is_trivial()
    assert nil2.free(2).B.orders == (0,)
    assert nil2.free(3).B.invariant_factors() == (0, 0, 0)


def test_free_equals_iterated_coproduct_up_to_twist():
    # explicit data isomorphism (a, u) -> (a, sigma(u) + chi(a)) between the
    # iterated coproduct of copies of Z and the exterior-square encoding
    for n in [2, 3]:
        cop = catalog.cyclic(0)
        for _ in range(n - 1):
            cop = nil2.coproduct(cop, catalog.cyclic(0))
        fr = nil2.free(n)
        assert abx.isomorphic(cop.B, fr.B)
        assert cop.A == fr.A
        # build sigma by matching antisymmetrized cocycle values on generators
        ext = fr.provenance[2]
        pair_to_pos = {}
        for i in range(n):
            for j in range(i + 1, n):
                val = cop.commutator_pairing(cop.A.gen(i), cop.A.gen(j))
                nz = [t for t, c in enumerate(val.coords) if c != 0]
                assert len(nz) == 1
                pair_to_pos[(i, j)] = (nz[0], val.coords[nz[0]])

        def sigma(u):
            out = [0] * fr.B.rank
            for (i, j), (pos, sign) in pair_to_pos.items():
                out[ext.position(i, j)] = sign * u.coords[pos]
            return fr.B.element(out)

        def phi(z):
            corr = fr.B.zero()
            for i in range(n):
                for j in range(i + 1, n):
                    cij = cop.cocycle(cop.A.gen(i), cop.A.gen(j))
                    cji = cop.cocycle(cop.A.gen(j), cop.A.gen(i))
                    sym = sigma(cij + cji)
                    # chi(a) = sum_{i<j} a_i a_j * sigma(bil_ij + bil_ji) / 1
                    corr = corr + (z.a.coords[i] * z.a.coords[j]) * sym
            return fr.pair(z.a, sigma(z.b) + -1 * corr)

        # phi must be a homomorphism on a window of coordinates
        window = [-1, 0, 1, 2]
        coords_list = list(itertools.product(window, repeat=n))[:8]
        bco = [0] * cop.B.rank
        samples = [cop.element(c, bco) for c in coords_list]
        extra = [cop.element((1,) * n, [1] + [0] * (cop.B.rank - 1))]
        for x in samples + extra:
            for y in samples + extra:
                assert phi(x + y) == phi(x) + phi(y)
        # generators correspond
        for i in range(n):
            assert phi(cop.gen(i)) == fr.gen(i)


def test_p2_extension():
    zgrp = catalog.cyclic(0)
    p2 = linext.p2_extension(zgrp)
    x = p2.element(p2.tensor.group.element([3]), zgrp.element([2], []))
    y = p2.element(p2.tensor.group.element([1]), zgrp.element([5], []))
    s = x + y
    assert s.xi == p2.tensor.group.element([3 + 1 - 2 * 5])
    assert s.g == zgrp.element([7], [])

    q8p2 = linext.p2_extension(Q8)
    # pi o p2 = identity
    for g in Q8.elements():
        assert q8p2.proj(q8p2.p2(g)) == g
    # cross-effect of p2 is the pure tensor in the kernel
    omega, tau = Q8.gen(1), Q8.gen(0)
    cross = -(q8p2.p2(omega) + q8p2.p2(tau)) + q8p2.p2(omega + tau)
    assert cross.g.is_zero()
    assert cross.xi == q8p2.tensor.pure(omega.a, tau.a)
    assert not cross.xi.is_zero()
    # group axioms on the finite extension
    elems = list(q8p2.elements())
    assert len(elems) == 8 * 16
    za = elems[:20]
    for x in za:
        for y in za:
            for z in za:
                assert (x + y) + z == x + (y + z)
    for x in elems:
        assert (x + (-x)).is_zero()


def reference_p2_add(ext, x, y):
    """Object-level P2 sum on pairs (xi, g): the reference for the
    extension's element arithmetic."""
    (xi, g), (xi2, g2) = x, y
    return xi + xi2 - ext.tensor.pure(g.a, g2.a), g + g2


def reference_p2_neg(ext, x):
    xi, g = x
    return -xi - ext.tensor.pure(g.a, g.a), -g


def reference_p2_factor(fq, x):
    """The factorization P2(G) -> H at the pair (xi, g)."""
    xi, g = x
    return fq.qmap.target.central(fq.cross_hom.apply(xi)) + fq.qmap.eval(g)


def _stride(seq, cap):
    return seq[::len(seq) // cap + 1]


def test_p2_extension_matches_reference():
    def pair(z):
        return z.xi, z.g

    Z = catalog.cyclic(0)
    for base in [Q8, D4, HEIS3, nil2.coproduct(catalog.cyclic(2), catalog.cyclic(4)),
                 catalog.cyclic(4), Z]:
        ext = linext.p2_extension(base)
        T = ext.tensor.group
        if base is Z:
            w = range(-3, 4)
            ref = [(T.element([t]), Z.element([a], [])) for t in w for a in w]
            elems = [ext.element(*x) for x in ref]
            pairs = list(itertools.product(range(len(elems)), repeat=2))
            qs = [qmc.qmap_from_z(Q8, a, Q8.central(Q8.B.gen(0)))
                  for a in itertools.islice(Q8.elements(), 4)]
        else:
            # xi-major enumeration order, and order()
            ref = [(xi, g) for xi in T.elements() for g in base.elements()]
            elems = list(ext.elements())
            assert [pair(z) for z in elems] == ref
            assert ext.order() == base.order() * T.order() == len(elems)
            pairs = _stride(list(itertools.product(range(len(elems)), repeat=2)), 400)
            qs = _stride(list(itertools.islice(qmaps.enumerate_qmaps(base, Q8), 64)), 4)
        for z, x in zip(elems, ref):
            assert type(z) is linext.P2Element and pair(-z) == reference_p2_neg(ext, x)
        for i, j in pairs:
            assert pair(elems[i] + elems[j]) == reference_p2_add(ext, ref[i], ref[j])
        for q in qs:
            fq = linext.qmap_p2_factorize(q)
            for z, x in _stride(list(zip(elems, ref)), 100):
                assert fq.eval(z) == reference_p2_factor(fq, x)
            for i, j in _stride(pairs, 100):
                assert fq.eval(elems[i] + elems[j]) == fq.eval(elems[i]) + fq.eval(elems[j])


def subgroup_closure(o, gens):
    """The subgroup of the oracle `o` that `gens` generate."""
    return nil2._closure(o.table, o.identity, list(gens))


def commutator_subgroup(o):
    """[G, G] of the class-two oracle `o`, over its generating set."""
    return nil2._derived(o.table, o._inv, o.identity, o.generating_set())


def test_semidirect_oracles():
    g27 = ingest.semidirect(9, 3, 4)
    assert len(g27) == 27
    assert len(commutator_subgroup(g27)) == 3
    g125 = ingest.semidirect(25, 5, 6)
    assert len(g125) == 125
    d4 = ingest.semidirect(4, 2, 3)
    assert len(d4) == 8
    with pytest.raises(NotAnAction):
        ingest.semidirect(5, 2, 3)  # 3^2 = 9 != 1 mod 5
    with pytest.raises(NotClassTwo):
        ingest.semidirect(8, 2, 3)  # (3-1)^2 = 4 != 0 mod 8


@pytest.mark.parametrize("n, m, k", [(1, 1, 1), (4, 2, 3), (8, 2, 5), (4, 4, 3),
                                     (25, 5, 6), (49, 7, 8)])
def test_semidirect_table_matches_definition(n, m, k):
    # (a, b)(a2, b2) = (a + k^b a2, b + b2), element (a, b) at a m + b
    o = ingest.semidirect(n, m, k)
    assert o.labels == tuple(f"({a},{b})" for a in range(n) for b in range(m))
    assert o.table == tuple(tuple((a + k ** b * a2) % n * m + (b + b2) % m
                                  for a2 in range(n) for b2 in range(m))
                            for a in range(n) for b in range(m))


def test_canonicalize_q8_oracle():
    res = ingest.canonicalize_finite(catalog.quaternion_oracle())
    g = res.group
    assert g.A.invariant_factors() == (2, 2)
    assert g.B.invariant_factors() == (2,)
    assert all(not c.is_zero() for c in g.carry)  # both carries hit -1
    # data-level group is isomorphic to the catalog encoding as groups
    assert reference_find_group_isomorphism(nil2.table_of(Q8), res.oracle) is not None


def test_canonicalize_cyclic_and_heisenberg():
    c4 = ingest.canonicalize_finite(nil2.table_of(catalog.cyclic(4)))
    assert c4.group.A.invariant_factors() == (4,)
    assert c4.group.B.is_trivial()
    h = ingest.canonicalize_finite(catalog.heisenberg_oracle(3))
    assert h.group.A.invariant_factors() == (3, 3)
    assert h.group.B.invariant_factors() == (3,)
    assert all(c.is_zero() for c in h.group.carry)


def test_canonicalize_semidirect_matches_catalog():
    res = ingest.canonicalize_finite(ingest.semidirect(9, 3, 4))
    g = res.group
    assert g.A.invariant_factors() == (3, 3)
    assert g.B.invariant_factors() == (3,)
    assert g.order() == 27
    ords = sorted(z.order() for z in g.elements())
    expect = sorted(z.order() for z in G27.elements())
    assert ords == expect
    assert max(ords) == 9  # exponent 9 distinguishes it from Heis3
    # the catalog carry encoding is the same group
    assert reference_find_group_isomorphism(nil2.table_of(G27),
                                            ingest.semidirect(9, 3, 4)) is not None


def test_canonicalize_round_trip():
    for g in [Q8, D4, HEIS3, G27, catalog.abelian_group([2, 4])]:
        res = ingest.canonicalize_finite(nil2.table_of(g))
        assert reference_find_group_isomorphism(nil2.table_of(res.group), nil2.table_of(g)) is not None


def test_canonicalization_check_rejects_data_off_the_table(monkeypatch):
    # faults planted in the data read off the table, past Nil2Group's own
    # validation: only the check along generators can reject them
    real = nil2.Nil2Group.__init__
    heis3 = catalog.heisenberg_oracle(3)

    def zero_carry(self, A, B, bil, carry, provenance=None):
        real(self, A, B, bil, [B.zero()] * len(carry), provenance)

    def doubled_bil(self, A, B, bil, carry, provenance=None):
        bil = [list(row) for row in bil]
        bil[1][0] = 2 * bil[1][0]           # still generates B = Z/3
        real(self, A, B, bil, carry, provenance)

    # Q8's table with D4's data, and Heis3's with a wrong commutator
    for fault, oracle in ((zero_carry, catalog.quaternion_oracle()), (doubled_bil, heis3)):
        with monkeypatch.context() as m:
            m.setattr(nil2.Nil2Group, "__init__", fault)
            with pytest.raises(NotAGroup, match="canonicalized data does not reproduce "
                                                "the table at element"):
                ingest.canonicalize_finite(oracle)


def test_canonicalization_builds_no_cayley_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Cayley table was built")

    oracle = ingest.semidirect(25, 5, 6)
    monkeypatch.setattr(nil2.CayleyTable, "__init__", refuse)
    g = ingest.canonicalize_finite(oracle).group
    assert g.order() == 125 and g.B.invariant_factors() == (5,)


@pytest.mark.parametrize("g", [
    catalog.abelian_group([2, 4, 8]), catalog.abelian_group([3, 3, 3, 3]),
    catalog.abelian_group([2] * 6), nil2.product(Q8, Q8),
    nil2.coproduct(catalog.cyclic(4), catalog.cyclic(4))],
    ids=["Z2+Z4+Z8", "Z3^4", "Z2^6", "Q8xQ8", "Z4*Z4"])
def test_canonicalization_reads_the_invariants_of_the_table(g):
    # product(Q8, Q8) has B of rank 2, and the abelian tables have several
    # invariant factors: both presentations go through `abelian._present`.
    # Renumbered at random, the greedy generators are no basis, so some
    # multiple m g_j lands in the span of the earlier ones off N
    oracle = nil2.table_of(g)
    n = len(oracle)
    new = [0] + random.Random(n).sample(range(1, n), n - 1)    # new index -> old
    old = {x: i for i, x in enumerate(new)}
    renumbered = ingest.GroupOracle([oracle.labels[x] for x in new],
                                    [[old[oracle.table[x][y]] for y in new] for x in new], 0)
    for o in (oracle, renumbered):
        h = ingest.canonicalize_finite(o).group
        assert h.A.invariant_factors() == g.A.invariant_factors()
        assert h.B.invariant_factors() == g.B.invariant_factors()
        assert h.exponent() == g.exponent()
        assert nil2.center(h).order() == nil2.center(g).order()


class _CountingRow(tuple):
    lookups = 0

    def __getitem__(self, i):
        _CountingRow.lookups += 1
        return tuple.__getitem__(self, i)


@pytest.mark.parametrize("nmk", [(4096, 1, 1), (2, 1468, 5)])
def test_canonicalization_makes_few_lookups_per_element(nmk):
    # the walks over [G,G] and G/[G,G] take a bounded number of table
    # lookups per element, never a sweep over every cyclic subgroup
    oracle = ingest.semidirect(*nmk)
    oracle.table = tuple(map(_CountingRow, oracle.table))
    _CountingRow.lookups = 0
    ingest.canonicalize_finite(oracle)
    assert _CountingRow.lookups <= 16 * len(oracle)


def test_oracle_finds_its_generators_once(monkeypatch):
    # validation finds the greedy generators; the class-two check and
    # canonicalization read them off the oracle, with no second search
    calls = []
    greedy = nil2._greedy_generators

    def counting(table, identity):
        calls.append(len(table))
        return greedy(table, identity)

    monkeypatch.setattr(nil2, "_greedy_generators", counting)
    oracle = ingest.semidirect(25, 5, 6)
    ingest.canonicalize_finite(oracle)
    assert calls == [125]


def reduced_latin_squares(n):
    """Every n x n Latin square on 0..n-1 whose first row and column are
    0, 1, ..., n-1 in order (so 0 is a two-sided identity)."""
    sq = [[i if r == 0 else (r if i == 0 else None) for i in range(n)]
          for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in sq]
            return
        r, c = cells[k]
        used = set(sq[r][:c]) | {sq[i][c] for i in range(r)}
        for v in range(n):
            if v not in used:
                sq[r][c] = v
                yield from fill(k + 1)
        sq[r][c] = None

    yield from fill(0)


def reference_is_group(table, identity):
    """The all-triples check: total, identity, two-sided inverses and
    associativity over all n^3 triples."""
    n = len(table)
    if any(len(row) != n or any(not 0 <= v < n for v in row) for row in table):
        return False
    e = identity
    if any(table[e][x] != x or table[x][e] != x for x in range(n)):
        return False
    if not all(any(table[x][y] == e and table[y][x] == e for y in range(n))
               for x in range(n)):
        return False
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def accepts(table, identity):
    try:
        ingest.GroupOracle([str(i) for i in range(len(table))], table, identity)
    except NotAGroup:
        return False
    return True


def test_oracle_validation_matches_reference():
    # Light's test checks associativity only at a generating set
    for n, squares, groups in [(4, 4, 4), (5, 56, 6), (6, 9408, 80)]:
        seen = accepted = 0
        for sq in reduced_latin_squares(n):
            seen += 1
            ok = accepts(sq, 0)
            assert ok == reference_is_group(sq, 0), sq
            accepted += ok
        assert (seen, accepted) == (squares, groups)
    oracles = [catalog.quaternion_oracle(), catalog.dihedral4_oracle(),
               catalog.heisenberg_oracle(3), ingest.semidirect(9, 3, 4),
               ingest.semidirect(25, 5, 6), ingest.semidirect(4, 2, 3)]
    for o in oracles:
        assert reference_is_group(o.table, o.identity)
        # swapping two products off the identity and inverse positions
        # keeps identity and inverses but breaks associativity
        e, inv = o.identity, o._inv
        bad = [list(row) for row in o.table]
        x = next(x for x in range(len(o)) if x != e)
        y, z = [y for y in range(len(o)) if y not in (e, inv[x])][:2]
        bad[x][y], bad[x][z] = bad[x][z], bad[x][y]
        assert not accepts(bad, e) and not reference_is_group(bad, e)
    # non-Latin magmas: the first right inverse of 2 (namely 1) is not
    # two-sided, but 2 itself is, so only associativity can fail; then a
    # magma where no right inverse of 2 is two-sided
    later = [[0, 1, 2], [1, 0, 1], [2, 0, 0]]
    none = [[0, 1, 2], [1, 0, 2], [2, 0, 1]]
    for magma, message in [(later, "associativity fails"), (none, "'2' has no inverse")]:
        assert accepts(magma, 0) == reference_is_group(magma, 0)
        with pytest.raises(NotAGroup, match=re.escape(message)):
            ingest.GroupOracle(["0", "1", "2"], magma, 0)


@pytest.mark.parametrize("entry", [1.0, True, "1", "x"], ids=["float", "bool", "str", "word"])
def test_oracle_rejects_entries_that_are_not_integers(entry):
    # Z2's table with one entry replaced: an input error with a message,
    # never a silent coercion to 1 or a ValueError
    table = [[0, 1], [1, 0]]
    table[1][0] = entry
    with pytest.raises(NotAGroup, match=re.escape(f"table entry {entry!r} is not an integer")):
        ingest.GroupOracle(["0", "1"], table, 0)


@pytest.mark.parametrize("identity", [0.0, "0", "x", True, 5, -1],
                         ids=["float", "str", "word", "bool", "past", "negative"])
def test_oracle_rejects_an_identity_that_is_not_an_element_index(identity):
    # Z2's table: the identity is an int in range(n), like a table entry,
    # never coerced, wrapped around or left to fail with another error
    with pytest.raises(NotAGroup, match=re.escape(f"identity {identity!r} is not an "
                                                  "element index")):
        ingest.GroupOracle(["0", "1"], [[0, 1], [1, 0]], identity)


def dihedral16_oracle():
    """Z/8 x| Z/2 acting by 7: nilpotence class three."""
    elems = [(a, b) for a in range(8) for b in range(2)]
    index = {z: i for i, z in enumerate(elems)}
    table = [[index[((a + 7 ** b * a2) % 8, (b + b2) % 2)] for a2, b2 in elems]
             for a, b in elems]
    return ingest.GroupOracle([f"({a},{b})" for a, b in elems], table, 0)


def reference_class_two(o):
    """Class two and [G, G] from all n^2 commutators."""
    n = len(o)
    comms = {o.comm(x, y) for x in range(n) for y in range(n)}
    central = all(o.table[c][z] == o.table[z][c] for c in comms for z in range(n))
    return central, subgroup_closure(o, sorted(comms - {o.identity}))


def test_class_two_check_matches_reference():
    oracles = [ingest.GroupOracle([str(i) for i in range(6)], sq, 0)
               for sq in reduced_latin_squares(6) if reference_is_group(sq, 0)]
    assert len(oracles) == 80
    oracles.append(dihedral16_oracle())
    oracles += [nil2.table_of(g) for _, g in catalog.standard_catalog(64)]
    verdicts = []
    for o in oracles:
        central, comm = reference_class_two(o)
        assert o.is_class_two() == central
        if central:
            assert commutator_subgroup(o) == comm
        verdicts.append(central)
    # the order-6 tables label Z6 (class one) 5!/|Aut| = 60 ways and S3
    # (not nilpotent) 20 ways; the S3 labelings are the nonabelian ones
    s3 = [o for o in oracles[:80] if any(o.table[x][y] != o.table[y][x]
                                         for x in range(6) for y in range(6))]
    assert len(s3) == 20 and not any(o.is_class_two() for o in s3)
    assert verdicts[80] is False and all(verdicts[81:])
    with pytest.raises(NotClassTwo):
        ingest.canonicalize_finite(dihedral16_oracle())


def test_oracle_text_round_trip():
    o = catalog.dihedral4_oracle()
    labels = [f"g{i}" for i in range(len(o))]
    lines = ["elements = " + " ".join(labels), f"id = {labels[o.identity]}"]
    for i in range(len(o)):
        for j in range(len(o)):
            lines.append(f"{labels[i]} * {labels[j]} = {labels[o.table[i][j]]}")
    parsed = ingest.GroupOracle.from_text("\n".join(lines))
    assert parsed.table == o.table
    from nil2q.errors import NotAGroup
    with pytest.raises(NotAGroup):
        ingest.GroupOracle.from_text("id = e\ne * e = e\ne * f = f")


Z2_LINES = ["elements = e a", "id = e", "e * e = e", "e * a = a", "a * e = a", "a * a = e"]


@pytest.mark.parametrize("extra, message", [
    ("elements = e a", "`elements` is declared twice"),
    ("id = e", "`id` is declared twice"),
    ("a * a = a", "product a * a is given twice"),
    ("e * a = a", "product e * a is given twice"),
])
def test_oracle_text_rejects_repeated_definitions(extra, message):
    # the last value used to win silently
    ingest.GroupOracle.from_text("\n".join(Z2_LINES))
    with pytest.raises(NotAGroup, match=re.escape(message)):
        ingest.GroupOracle.from_text("\n".join(Z2_LINES + [extra]))
    with pytest.raises(NotAGroup, match="label 'a' is repeated in `elements`"):
        ingest.GroupOracle.from_text("\n".join(["elements = e a a"] + Z2_LINES[1:]))
