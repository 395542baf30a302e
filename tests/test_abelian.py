"""Tests for exact finitely generated abelian group arithmetic."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nil2q import abelian as ab
from nil2q import abelian_constructions as abx
from nil2q.errors import (
    InvalidArgument,
    InvalidHomomorphism,
    UnsupportedEnumeration,
)

# A small zoo used throughout.
Z = ab.FGAbelian([0])
Z2 = ab.FGAbelian([2])
Z3 = ab.FGAbelian([3])
Z4 = ab.FGAbelian([4])
Z6 = ab.FGAbelian([6])
V4 = ab.FGAbelian([2, 2])
Z2Z4 = ab.FGAbelian([2, 4])
ZZ = ab.FGAbelian([0, 0])

CATALOG = [ab.FGAbelian([]), Z2, Z3, Z4, V4, Z6, Z2Z4, ab.FGAbelian([2, 3]),
           ab.FGAbelian([9, 3]), ab.FGAbelian([8])]


# ---------------------------------------------------------------------------
# Smith normal form

matrices = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-30, 30), min_size=m, max_size=m),
            min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_smith_form_properties(mat):
    snf = ab.SmithForm(mat)
    n, m = len(mat), len(mat[0])
    diag = snf.diag
    # U M V is the diagonal matrix of diag
    assert ab.mat_mul(ab.mat_mul(snf.u, mat), snf.v) == [
        [diag[i] if i == j else 0 for j in range(m)] for i in range(n)]
    # divisibility chain
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    # the tracked inverse really inverts; V is unimodular
    assert ab.mat_mul(snf.u, snf.uinv) == [[int(i == j) for j in range(n)] for i in range(n)]
    assert ab.SmithForm(snf.v).diag == [1] * m


def test_smith_solve_and_kernel():
    m = [[2, 4], [0, 4]]
    snf = ab.SmithForm(m)
    x = snf.solve([6, 4])
    assert x is not None and ab.mat_vec(m, x) == [6, 4]
    assert snf.solve([1, 0]) is None
    mk = [[2, -4]]
    basis = ab.SmithForm(mk).kernel_basis()
    assert len(basis) == 1
    assert ab.mat_vec(mk, basis[0]) == [0]


def test_smith_form_rejects_ragged_rows():
    # a shape error is an input error, also under `python -O`
    with pytest.raises(InvalidArgument, match="rows of length 2"):
        ab.SmithForm([[1, 2], [3]])


def test_smith_form_without_rows_matches_full_form():
    # the form without row transforms, as `_preimage_lattice` builds it,
    # has the full form's diag, v and kernel basis on a fixed set of
    # matrices, zero, square, wide and tall ones with entries in [-30, 30]
    rng = random.Random(27)
    mats = [[[0, 0], [0, 0]], [[2, 4], [0, 4]], [[2, -4]], [[3], [5], [7]]]
    mats += [[[rng.randint(-30, 30) for _ in range(m)] for _ in range(n)]
             for n, m in itertools.product(range(1, 6), repeat=2) for _ in range(8)]
    for mat in mats:
        full, lean = ab.SmithForm(mat), ab.SmithForm(mat, rows=False)
        assert (lean.diag, lean.v, lean.kernel_basis()) == (
            full.diag, full.v, full.kernel_basis())
        assert lean.u is None and lean.uinv is None
    # and the preimage lattice is the full form's, into finite and free targets
    for orders in ([], [2], [4, 6], [0, 3], [9, 3, 0]):
        target = ab.FGAbelian(orders)
        for nsrc in range(4):
            rows = [[rng.randint(-12, 12) for _ in range(nsrc)] for _ in orders]
            assert ab._preimage_lattice(rows, target, nsrc) == (
                reference_preimage_lattice(rows, target, nsrc))


def test_presented_examples():
    assert ab.presented(2, [[2, 0], [0, 2]]).invariant_factors() == (2, 2)
    assert ab.presented(3, []).invariant_factors() == (0, 0, 0)
    # brute-force oracle: quotient of Z^2 by the lattice spanned by the rows,
    # checked inside Z/8 x Z/8 which contains it for these relations
    assert ab.presented(2, [[2, 1], [0, 2]]).invariant_factors() == (4,)
    big = [(a, b) for a in range(8) for b in range(8)]
    lattice = set()
    for s in range(-8, 8):
        for t in range(-8, 8):
            lattice.add(((2 * s) % 8, (s + 2 * t) % 8))
    # cosets of the image of the lattice in (Z/8)^2: 64 / |lattice image| gives
    # the quotient size only up to the 8-torsion cut; just check cyclicity of
    # order 4 on the nose by generating cosets
    seen = set()
    for a, b in big:
        seen.add(frozenset(((a + x) % 8, (b + y) % 8) for x, y in lattice))
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# Groups and elements

def test_make_normalizes_orders():
    assert ab.FGAbelian([2, 1, 2]).orders == (2, 2)
    assert ab.FGAbelian([]).orders == ()
    assert ab.FGAbelian([0, 3]).orders == (0, 3)
    with pytest.raises(InvalidArgument):
        ab.FGAbelian([-2])


def test_element_arithmetic():
    x = V4.element([1, 0])
    y = V4.element([1, 1])
    assert (x + y).coords == (0, 1)
    assert (3 * Z.element([2])).coords == (6,)
    assert (-Z4.element([3])).coords == (1,)
    with pytest.raises(InvalidArgument):
        x + Z4.element([1])


def test_canonicalization_idempotent():
    for g in CATALOG:
        for e in g.elements():
            assert g.element(e.coords) == e


def test_element_order():
    assert Z4.element([2]).order() == 2
    assert Z.element([5]).order() == 0
    assert Z.zero().order() == 1
    assert Z2Z4.element([1, 2]).order() == 2
    assert Z2Z4.element([1, 1]).order() == 4


def test_enumeration():
    assert len(list(V4.elements())) == 4
    with pytest.raises(UnsupportedEnumeration):
        list(Z.elements())


# ---------------------------------------------------------------------------
# Homomorphisms

def test_hom_validation_and_apply():
    h = ab.AbHom.identity(Z6)
    assert h.apply(Z6.element([5])).coords == (5,)
    r = ab.AbHom(Z, Z2, [[1]])
    assert r.apply(Z.element([7])).coords == (1,)
    with pytest.raises(InvalidHomomorphism):
        ab.AbHom(Z2, Z3, [[1]])


def test_hom_validation_on_free_coordinates():
    # an order-0 target coordinate is not reduced: 2 * 1 is not zero in Z
    z2_z = ab.FGAbelian([2, 0])
    assert ab.AbHom(Z, Z, [[5]]).matrix == ((5,),)
    assert ab.AbHom(Z2, Z, [[0]]).is_zero()
    assert ab.AbHom(Z2, z2_z, [[1], [0]]).matrix == ((1,), (0,))
    for target, matrix, shown in ((Z, [[1]], "(2)"), (z2_z, [[1], [3]], "(0, 6)")):
        with pytest.raises(InvalidHomomorphism) as exc:
            ab.AbHom(Z2, target, matrix)
        assert str(exc.value) == f"column 0 times source order 2 is {shown}, not zero"


def test_hom_compose_identity_assoc():
    f = ab.AbHom(Z4, V4, [[1], [1]])
    g = ab.AbHom(V4, Z2, [[1, 1]])
    gf = g.compose(f)
    for x in Z4.elements():
        assert gf.apply(x) == g.apply(f.apply(x))
    assert ab.AbHom.identity(V4).compose(f) == f
    assert f.compose(ab.AbHom.identity(Z4)) == f


def test_hom_enumeration_counts():
    homs = list(ab.enumerate_homs(Z2, Z4))
    assert len(homs) == 2
    assert sorted(h.column(0).coords for h in homs) == [(0,), (2,)]
    assert len(list(ab.enumerate_homs(Z3, ab.FGAbelian([3, 3])))) == 9
    assert abx.hom_count(Z3, ab.FGAbelian([3, 3])) == 9
    # linearity of every enumerated hom
    for h in ab.enumerate_homs(V4, Z4):
        for x in V4.elements():
            for y in V4.elements():
                assert h.apply(x + y) == h.apply(x) + h.apply(y)
    with pytest.raises(UnsupportedEnumeration):
        list(ab.enumerate_homs(Z, Z))
    assert len(list(ab.enumerate_homs(Z, Z6))) == 6


# ---------------------------------------------------------------------------
# Isomorphism

def _bijective(h):
    return len({h.apply(x) for x in h.source.elements()}) == h.source.order()


@pytest.mark.parametrize("orders", [[2, 2, 2], [2, 4], [4, 4], [3, 9], [2, 3, 4]])
def test_isomorphisms_match_filtered_homs(orders):
    # the backtracking enumerator yields exactly the bijective homs, in
    # enumerate_homs order, also onto a differently written target
    a = ab.FGAbelian(orders)
    for b in (a, ab.FGAbelian(list(reversed(orders)))):
        expect = [h for h in ab.enumerate_homs(a, b) if _bijective(h)]
        assert expect
        assert list(ab.isomorphisms(a, b)) == expect


def test_isomorphisms_prefix_predicate():
    # keep cuts a prefix with all its extensions and sees each prefix only
    # after its parent was kept; the order of the survivors is unchanged
    a = ab.FGAbelian([2, 4])
    seen = []

    def keep(images):
        assert len(images) == 1 or tuple(images[:-1]) in seen
        seen.append(tuple(images))
        return images[-1].coords != (1, 2)

    expect = [h for h in ab.isomorphisms(a, a)
              if all(col.coords != (1, 2) for col in h.columns())]
    assert 0 < len(expect) < len(list(ab.isomorphisms(a, a)))
    assert list(ab.isomorphisms(a, a, keep=keep)) == expect


@pytest.mark.parametrize("orders", [[8], [2, 4], [3, 9]])
def test_solvable_matches_brute_force(orders):
    # t = d y + c e with d e = 0, by the per-coordinate gcd test and by search
    b = ab.FGAbelian(orders)
    elems = list(b.elements())
    for d in range(1, 10):
        killed = ab._annihilator(b, d)
        for c in {0, 1, d * (d - 1) // 2}:
            reach = {d * y + c * e for y in elems for e in killed}
            for t in elems:
                assert ab._solvable(d, t, c) == (t in reach), (d, c, t)
                if c == 0:
                    assert bool(ab._scalar_solutions(d, t)) == (t in reach)


def test_isomorphisms_edge_cases():
    assert list(ab.isomorphisms(Z2Z4, ab.FGAbelian([2, 2, 2]))) == []
    assert list(ab.isomorphisms(Z2Z4, ab.FGAbelian([8]))) == []
    assert list(ab.isomorphisms(Z2, Z3)) == []
    trivial = ab.FGAbelian([])
    assert list(ab.isomorphisms(trivial, trivial)) == [ab.AbHom.identity(trivial)]
    with pytest.raises(UnsupportedEnumeration):
        list(ab.isomorphisms(Z, Z))


def test_isomorphic_basic():
    assert not abx.isomorphic(Z2Z4, ab.FGAbelian([8]))
    assert abx.isomorphic(ab.FGAbelian([2, 3]), Z6)
    assert abx.isomorphic(ZZ, ZZ)


def test_isomorphism_witnesses_compose_to_identity():
    pairs = [(ab.FGAbelian([2, 3]), Z6), (ZZ, ZZ), (ab.FGAbelian([4, 2]), Z2Z4),
             (ab.FGAbelian([9, 3]), ab.FGAbelian([3, 9]))]
    for a, b in pairs:
        fwd, bwd = abx.isomorphism(a, b)
        if a.is_finite():
            for x in a.elements():
                assert bwd.apply(fwd.apply(x)) == x
            for y in b.elements():
                assert fwd.apply(bwd.apply(y)) == y
        else:
            assert bwd.compose(fwd) == ab.AbHom.identity(a)
            assert fwd.compose(bwd) == ab.AbHom.identity(b)


def test_iso_equivalence_relation():
    for a in CATALOG:
        assert abx.isomorphic(a, a)
    for a in CATALOG:
        for b in CATALOG:
            assert abx.isomorphic(a, b) == abx.isomorphic(b, a)


# ---------------------------------------------------------------------------
# Tensor, exterior and symmetric squares

def test_tensor_examples():
    t = abx.tensor(Z4, Z6)
    assert t.group.invariant_factors() == (2,)
    assert abx.tensor(Z, Z3).group.orders == (3,)
    assert abx.tensor(Z, Z).group.orders == (0,)
    # |A (x) B| = prod gcd(d_i, d_j')
    for a in CATALOG:
        for b in CATALOG:
            if a.is_finite() and b.is_finite():
                expect = 1
                for da in a.orders:
                    for db in b.orders:
                        expect *= ab.gcd(da, db)
                assert abx.tensor(a, b).group.order() == expect


def test_tensor_against_presentation_oracle():
    for a, b in [(Z4, Z6), (V4, Z4), (Z2Z4, ab.FGAbelian([9, 3]))]:
        ra, rb = a.rank, b.rank
        ngens = ra * rb
        rels = []
        for i, d in enumerate(a.orders):
            for j in range(rb):
                row = [0] * ngens
                row[i * rb + j] = d
                rels.append(row)
        for j, d in enumerate(b.orders):
            for i in range(ra):
                row = [0] * ngens
                row[i * rb + j] = d
                rels.append(row)
        assert (ab.presented(ngens, rels).invariant_factors()
                == abx.tensor(a, b).group.invariant_factors())


def test_pure_tensors_bilinear():
    t = abx.tensor(V4, Z4)
    for x in V4.elements():
        for y in Z4.elements():
            for x2 in V4.elements():
                assert t.pure(x + x2, y) == t.pure(x, y) + t.pure(x2, y)


def test_exterior_square():
    assert abx.exterior_square(Z6).group.is_trivial()
    assert abx.exterior_square(ab.FGAbelian([0, 0, 0])).group.orders == (0, 0, 0)
    ext = abx.exterior_square(V4)
    assert ext.group.orders == (2,)
    x, y = V4.element([1, 0]), V4.element([0, 1])
    assert ext.wedge(x, y) == -ext.wedge(y, x) + ext.group.zero()
    assert ext.wedge(x, x).is_zero()


def test_exterior_square_of_sum_decomposition():
    for a in [Z2, Z4, V4]:
        for b in [Z2, Z3, Z6]:
            s = ab.direct_sum(a, b)
            lhs = abx.exterior_square(s).group
            rhs = ab.direct_sum(
                ab.direct_sum(abx.exterior_square(a).group, abx.exterior_square(b).group),
                abx.tensor(a, b).group)
            assert abx.isomorphic(lhs, rhs)


def test_sym_square():
    s = abx.sym_square(Z2Z4)
    assert s.group.invariant_factors() == (2, 2, 4)
    assert abx.sym_square(Z4).group.orders == (4,)


def reference_pure(t, x, y):
    """x (x) y by the positions dict, one generator pair at a time."""
    coords = [0] * t.group.rank
    for i, xi in enumerate(x.coords):
        for j, yj in enumerate(y.coords):
            p = t.positions[(i, j)]
            if p is not None:
                coords[p] += xi * yj
    return t.group.element(coords)


def reference_wedge(ext, x, y):
    """x ^ y by the positions dict, one pair i < j at a time."""
    coords = [0] * ext.group.rank
    for i in range(ext.base.rank):
        for j in range(i + 1, ext.base.rank):
            p = ext.positions[(i, j)]
            if p is not None:
                coords[p] += x.coords[i] * y.coords[j] - x.coords[j] * y.coords[i]
    return ext.group.element(coords)


def test_indexed_squares_match_reference():
    z243 = ab.FGAbelian([2, 4, 3])
    box = range(-2, 3)
    for a, b in [(Z6, Z4), (V4, Z2Z4)]:
        t = abx.tensor(a, b)
        for x in a.elements():
            for y in b.elements():
                assert t.pure(x, y) == reference_pure(t, x, y)
    zz = ab.FGAbelian([0, 0])
    t = abx.tensor(zz, zz)
    pts = [zz.element(c) for c in itertools.product(box, repeat=2)]
    for x in pts:
        for y in pts:
            assert t.pure(x, y) == reference_pure(t, x, y)
    ext = abx.exterior_square(z243)
    assert None in ext.positions.values()       # the Z3 gives gcd-1 pairs
    elems = list(z243.elements())
    for x in elems:
        for y in elems:
            assert ext.wedge(x, y) == reference_wedge(ext, x, y)
    z3 = ab.FGAbelian([0, 0, 0])
    ext = abx.exterior_square(z3)
    pts = [z3.element(c) for c in itertools.product(box, repeat=3)]
    for x in pts:
        for y in pts:
            assert ext.wedge(x, y) == reference_wedge(ext, x, y)
    # columns lists a value per kept pair in generator order; at reads a
    # hom built from them back per pair, zero on dropped pairs
    squares = [(abx.tensor(Z6, Z4), 1, 1), (abx.tensor(V4, Z2Z4), 2, 2),
               (abx.tensor(z243, z243), 3, 3), (abx.exterior_square(z243), 3, 3),
               (abx.sym_square(z243), 3, 3), (abx.tensor(zz, zz), 2, 2),
               (abx.exterior_square(z3), 3, 3)]
    for sq, n, m in squares:
        def value(i, j):
            return (1 + i + 3 * j) * sq.group.gen(sq.position(i, j))
        hom = ab.AbHom.from_columns(sq.group, sq.group, sq.columns(value))
        kept = 0
        for i in range(n):
            for j in range(m):
                if sq.position(i, j) is None:
                    assert sq.at(hom, i, j).is_zero()
                else:
                    kept += 1
                    assert sq.at(hom, i, j) == value(i, j)
        assert kept == sq.group.rank


# ---------------------------------------------------------------------------
# Subgroups, kernels, cokernels

def test_subgroup_examples():
    s = abx.subgroup_generated([V4.element([1, 0]), V4.element([0, 1])])
    assert s.is_whole()
    s2 = abx.subgroup_generated([Z4.element([2])])
    assert s2.invariants() == (2,)
    assert not s2.contains(Z4.element([3]))
    assert s2.contains(Z4.element([2]))
    s3 = abx.subgroup_generated([ZZ.element([2, 0]), ZZ.element([0, 3])])
    assert s3.index() == 6
    # index in a finite ambient, infinite index, and the rank-0 ambient
    assert s2.index() == 2 and s.index() == 1
    assert abx.subgroup_generated([Z2Z4.element([1, 2])]).index() == 4
    assert abx.subgroup_generated([ZZ.element([1, 0])]).index() == 0
    assert abx.subgroup_generated([ab.FGAbelian([0, 2]).element([0, 1])]).index() == 0
    assert abx.subgroup_generated([], ab.FGAbelian([])).index() == 1
    # brute-force membership oracle on a finite group
    g = ab.FGAbelian([4, 6])
    gens = [g.element([2, 3])]
    s4 = abx.subgroup_generated(gens)
    closure = {g.zero()}
    frontier = [g.zero()]
    while frontier:
        x = frontier.pop()
        for e in gens:
            y = x + e
            if y not in closure:
                closure.add(y)
                frontier.append(y)
    for x in g.elements():
        assert s4.contains(x) == (x in closure)
    assert s4.order() == len(closure)


def test_kernel_cokernel():
    h = ab.AbHom(Z4, Z2, [[1]])
    k, incl = ab.kernel(h)
    assert k.invariant_factors() == (2,)
    assert h.apply(incl.apply(k.gen(0))).is_zero()
    c, proj = abx.cokernel(h)
    assert c.is_trivial()

    h2 = ab.AbHom(Z2, Z2Z4, [[0], [2]])
    c2, proj2 = abx.cokernel(h2)
    assert c2.invariant_factors() == (2, 2)
    # projection is surjective and kills exactly the image
    imgs = {proj2.apply(x) for x in Z2Z4.elements()}
    assert len(imgs) == 4
    assert proj2.apply(h2.apply(Z2.gen(0))).is_zero()

    h3 = ab.AbHom(Z, Z, [[3]])
    k3, _ = ab.kernel(h3)
    assert k3.is_trivial()
    c3, _ = abx.cokernel(h3)
    assert c3.invariant_factors() == (3,)


def test_kernel_matches_bruteforce_on_finite():
    cases = [ab.AbHom(V4, Z2, [[1, 1]]),
             ab.AbHom(Z2Z4, Z4, [[2, 1]]),
             ab.AbHom(ab.FGAbelian([9, 3]), Z3, [[1, 1]])]
    for h in cases:
        k, incl = ab.kernel(h)
        members = {incl.apply(x) for x in k.elements()}
        brute = {x for x in h.source.elements() if h.apply(x).is_zero()}
        assert members == brute


def test_orders_must_be_integers():
    # no silent truncation of 2.5 to Z/2, and no bool posing as an order
    for bad in ([2.5], [True, 2], ["a"], [None]):
        with pytest.raises(InvalidArgument):
            ab.FGAbelian(bad)


def test_element_ops_keep_free_coordinates_unreduced():
    g = ab.FGAbelian([0, 3, 0])
    x, y = g.element([5, 2, -7]), g.element([4, 2, 3])
    assert (x + y).coords == (9, 1, -4)
    assert (x - y).coords == (1, 0, -10)
    assert (-x).coords == (-5, 1, 7)
    assert (3 * x).coords == (15, 0, -21)
    assert (x * -2).coords == (-10, 2, 14)
    # results of the ops are canonical, as from the validating constructor
    for z in (x + y, x - y, -x, 3 * x, x * -2):
        assert z == g.element(z.coords) and z.group is g


# ---------------------------------------------------------------------------
# The presentation layer against the eager constructions it replaced

def reference_presented(ngens, rels):
    if not rels:
        return ab.FGAbelian([0] * ngens)
    cols = [[rels[k][i] for k in range(len(rels))] for i in range(ngens)]
    snf = ab.SmithForm(cols, ngens, len(rels))
    return ab.FGAbelian([d for d in snf.diag if d != 1]
                        + [0] * (ngens - len(snf.diag)))


def reference_invariant_factors(group):
    r = group.rank
    if r == 0:
        return ()
    diag = [[group.orders[i] if i == j else 0 for j in range(r)] for i in range(r)]
    snf = ab.SmithForm(diag, r, r)
    return (tuple(d for d in snf.diag if d not in (0, 1))
            + (0,) * sum(1 for d in snf.diag if d == 0))


def reference_preimage_lattice(matrix_rows, target, nsrc):
    rel = ab._relation_columns(target)
    if target.rank == 0:
        return [[int(i == j) for j in range(nsrc)] for i in range(nsrc)]
    stacked = [[matrix_rows[i][j] for j in range(nsrc)] + [-rel[k][i] for k in range(len(rel))]
               for i in range(target.rank)]
    snf = ab.SmithForm(stacked, target.rank, nsrc + len(rel))
    return [col[:nsrc] for col in snf.kernel_basis()]


class ReferenceSubgroup:
    """Solver, preimage lattice and presentation, all built up front."""

    def __init__(self, ambient, elements):
        self.ambient = ambient
        k = len(elements)
        self.gen_cols = [[e.coords[i] for e in elements] for i in range(ambient.rank)]
        rel = ab._relation_columns(ambient)
        stacked = [self.gen_cols[i] + [rel[t][i] for t in range(len(rel))]
                   for i in range(ambient.rank)]
        self.solver = ab.SmithForm(stacked, ambient.rank, k + len(rel)) if ambient.rank else None
        ker = reference_preimage_lattice(self.gen_cols, ambient, k) if k else []
        self.group = reference_presented(k, ker)
        self.k = k

    def contains(self, x):
        return self.ambient.rank == 0 or self.solver.solve(list(x.coords)) is not None

    def index(self):
        a, s = self.ambient.order(), self.group.order()
        if a and s:
            return a // s
        if self.ambient.rank == 0:
            return 1
        rel = ab._relation_columns(self.ambient)
        rows = ([[self.gen_cols[i][j] for i in range(self.ambient.rank)]
                 for j in range(self.k)] + rel)
        return reference_presented(self.ambient.rank, rows).order()


def reference_kernel(h):
    src, r = h.source, h.source.rank
    if r == 0:
        k = ab.FGAbelian([])
        return k, ab.AbHom(k, src, [])
    lat = reference_preimage_lattice(h.matrix, h.target, r)
    s = len(lat)
    w = [[lat[j][i] for j in range(s)] for i in range(r)]
    wsnf = ab.SmithForm(w, r, s)
    rel_in_w = [wsnf.solve(col) for col in ab._relation_columns(src)]
    if s == 0:
        k = ab.FGAbelian([])
        return k, ab.AbHom(k, src, [[] for _ in range(r)])
    csnf = ab.SmithForm([[rel[i] for rel in rel_in_w] for i in range(s)], s, len(rel_in_w))
    diag = csnf.diag + [0] * (s - len(csnf.diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    k = ab.FGAbelian([diag[i] for i in keep])
    cols = [src.element(ab.mat_vec(w, [csnf.uinv[t][i] for t in range(s)])) for i in keep]
    return k, ab.AbHom.from_columns(k, src, cols)


def reference_cokernel(h):
    tgt, r = h.target, h.target.rank
    if r == 0:
        c = ab.FGAbelian([])
        return c, ab.AbHom(tgt, c, [])
    cols = ab._relation_columns(tgt)
    cols += [[h.matrix[i][j] for i in range(r)] for j in range(h.source.rank)]
    if not cols:
        c = ab.FGAbelian([0] * r)
        return c, ab.AbHom(tgt, c, ab._identity(r))
    snf = ab.SmithForm([[col[i] for col in cols] for i in range(r)], r, len(cols))
    diag = snf.diag + [0] * (r - len(snf.diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    c = ab.FGAbelian([diag[i] for i in keep])
    return c, ab.AbHom(tgt, c, [snf.u[i] for i in keep])


def reference_canonical_decomposition(group):
    r = group.rank
    if r == 0:
        c = ab.FGAbelian([])
        return c, ab.AbHom(group, c, []), ab.AbHom(c, group, [])
    diag = [[group.orders[i] if i == j else 0 for j in range(r)] for i in range(r)]
    snf = ab.SmithForm(diag, r, r)
    keep = [i for i, d in enumerate(snf.diag) if d != 1]
    c = ab.FGAbelian([snf.diag[i] for i in keep])
    return (c, ab.AbHom(group, c, [snf.u[i] for i in keep]),
            ab.AbHom(c, group, [[snf.uinv[i][j] for j in keep] for i in range(r)]))


def _points(group, box=range(-2, 3)):
    """Every element of a finite group; a coordinate box of an infinite one."""
    if group.is_finite():
        return list(group.elements())
    return [group.element(c) for c in itertools.product(box, repeat=group.rank)]


def test_presentation_layer_matches_reference():
    finite = [ab.FGAbelian(o) for o in
              ([], [2], [3], [4], [6], [8], [9], [2, 2], [2, 4], [4, 2], [3, 3],
               [2, 6], [4, 6], [9, 3])]
    infinite = [ab.FGAbelian(o) for o in
                ([0], [0, 2], [2, 0], [0, 3, 0], [0, 0], [4, 0, 6])]
    for g in finite + infinite:
        assert g.invariant_factors() == reference_invariant_factors(g)
        c, to_c, from_c = abx.canonical_decomposition(g)
        rc, rto, rfrom = reference_canonical_decomposition(g)
        assert (c, to_c.matrix, from_c.matrix) == (rc, rto.matrix, rfrom.matrix)
        # subgroups on one and on two generators
        pts = _points(g)
        gen_sets = [[x] for x in pts] + [list(p) for p in itertools.combinations(pts[:12], 2)]
        gen_sets.append([])
        for gens in gen_sets:
            s, ref = abx.Subgroup(g, gens), ReferenceSubgroup(g, gens)
            assert (s.order(), s.invariants(), s.index(), s.is_whole()) == (
                ref.group.order(), ref.group.invariant_factors(), ref.index(),
                all(ref.contains(e) for e in g.gens()))
            assert [s.contains(x) for x in pts] == [ref.contains(x) for x in pts]
    homs = [h for a in finite for b in finite if abx.hom_count(a, b) <= 64
            for h in ab.enumerate_homs(a, b)]
    for a, b in itertools.product(infinite, finite + infinite):
        # the homs sending generator i to i + 1 times the ith point of a box
        pts = _points(b, range(-1, 2))
        for shift in range(3):
            cols = [(i + 1) * pts[(i + shift) % len(pts)] for i in range(a.rank)]
            try:
                homs.append(ab.AbHom.from_columns(a, b, cols))
            except InvalidHomomorphism:
                pass
    assert len(homs) > 1000
    for h in homs:
        k, incl = ab.kernel(h)
        rk, rincl = reference_kernel(h)
        assert (k, incl.matrix) == (rk, rincl.matrix)
        c, proj = abx.cokernel(h)
        rc, rproj = reference_cokernel(h)
        assert (c, proj.matrix) == (rc, rproj.matrix)


def test_subgroup_questions_build_one_smith_form(monkeypatch):
    built = []
    init = ab.SmithForm.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ab.SmithForm, "__init__", counting_init)
    g = ab.FGAbelian([4, 6, 0])
    gens = [g.element([2, 3, 0]), g.element([1, 0, 2])]
    box = _points(g, range(-1, 2))

    def smith_forms(question):
        built.clear()
        question(abx.subgroup_generated(gens))
        return len(built)

    assert smith_forms(lambda s: s.is_whole()) == 1
    assert smith_forms(lambda s: [s.contains(x) for x in box]) == 1
    assert smith_forms(lambda s: s.index()) == 1
    assert smith_forms(lambda s: (s.is_whole(), s.index(),
                                  [s.contains(x) for x in box])) == 1
