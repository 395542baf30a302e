"""Exact arithmetic for finitely generated abelian groups.

A group is a direct sum of cyclic factors Z/d_i, encoded by its list of
generator orders (d = 0 means an infinite cyclic factor, d >= 2 a finite
one; order-1 factors are normalized away).  Elements are coordinate
vectors in canonical form, and homomorphisms are integer matrices
validated for torsion compatibility.

Every quotient, kernel, decomposition and subgroup question is answered by
one Smith-form presentation, `_present`: a group given by generators and
relations, in invariant-factor form, with the maps to and from it.  Besides
the kernels and invariant factors here, it serves the subgroups, cokernels
and decompositions of `abelian_constructions`, and table ingestion, which
presents [G,G] and G/[G,G] of a finite table by relations read off the
table (`ingest._span`).  This module holds what every query runs (the
arithmetic, kernels, and the enumeration of homomorphisms and
isomorphisms); subgroups, cokernels, isomorphism witnesses, the
multilinear constructions and hom counts are in `abelian_constructions`,
which loads on first use.

All arithmetic uses Python integers, so it is exact at every scale and
cannot wrap; the "overflow must raise" requirement is met vacuously.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod

from .errors import InternalInvariant, InvalidArgument, InvalidHomomorphism, UnsupportedEnumeration

# ---------------------------------------------------------------------------
# Integer matrices.  Tiny dense lists of lists; everything desk scale.

def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def mat_vec(a, x):
    return [sum(row[j] * x[j] for j in range(len(x))) for row in a]


class SmithForm:
    """Smith normal form D = U * M * V with tracked unimodular transforms.

    `diag` holds the diagonal entries d_1 | d_2 | ... (nonnegative, with
    zeros last); `u`, `uinv` are the row transform and its exact inverse,
    `v` the column transform.  With `rows=False` the row transforms are
    neither built nor updated and `u`, `uinv` are None: `diag`, `v` and
    `kernel_basis` are the same, `solve` needs the rows.
    """

    def __init__(self, mat, nrows=None, ncols=None, rows=True):
        if nrows is None:
            nrows = len(mat)
        if ncols is None:
            ncols = len(mat[0]) if mat else 0
        d = [list(row) for row in mat]
        if any(len(row) != ncols for row in d):
            raise InvalidArgument(f"Smith form needs rows of length {ncols}: "
                                  f"{[len(row) for row in d]}")
        u, uinv = (_identity(nrows), _identity(nrows)) if rows else (None, None)
        v = _identity(ncols)

        def row_swap(i, k):
            d[i], d[k] = d[k], d[i]
            if rows:
                u[i], u[k] = u[k], u[i]
                for r in uinv:
                    r[i], r[k] = r[k], r[i]

        def row_add(i, k, q):
            # row i += q * row k
            d[i] = [a + q * b for a, b in zip(d[i], d[k])]
            if rows:
                u[i] = [a + q * b for a, b in zip(u[i], u[k])]
                for r in uinv:
                    r[k] -= q * r[i]

        def row_neg(i):
            d[i] = [-a for a in d[i]]
            if rows:
                u[i] = [-a for a in u[i]]
                for r in uinv:
                    r[i] = -r[i]

        def col_swap(j, k):
            for r in d:
                r[j], r[k] = r[k], r[j]
            for r in v:
                r[j], r[k] = r[k], r[j]

        def col_add(j, k, q):
            # col j += q * col k
            for r in d:
                r[j] += q * r[k]
            for r in v:
                r[j] += q * r[k]

        t = 0
        limit = min(nrows, ncols)
        while t < limit:
            # locate a pivot of minimal absolute value in the trailing block
            best = None
            for i in range(t, nrows):
                for j in range(t, ncols):
                    a = d[i][j]
                    if a != 0 and (best is None or abs(a) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            if best[0] != t:
                row_swap(t, best[0])
            if best[1] != t:
                col_swap(t, best[1])
            while True:
                # clear column t below the pivot
                restart = False
                for i in range(t + 1, nrows):
                    if d[i][t]:
                        q = d[i][t] // d[t][t]
                        row_add(i, t, -q)
                        if d[i][t]:
                            row_swap(t, i)
                            restart = True
                            break
                if restart:
                    continue
                for j in range(t + 1, ncols):
                    if d[t][j]:
                        q = d[t][j] // d[t][t]
                        col_add(j, t, -q)
                        if d[t][j]:
                            col_swap(t, j)
                            restart = True
                            break
                if restart:
                    continue
                break
            # enforce the divisibility chain d_t | d_ij for the trailing block
            p = d[t][t]
            fix = None
            for i in range(t + 1, nrows):
                for j in range(t + 1, ncols):
                    if d[i][j] % p:
                        fix = i
                        break
                if fix is not None:
                    break
            if fix is not None:
                row_add(t, fix, 1)
                continue
            if d[t][t] < 0:
                row_neg(t)
            t += 1

        self.nrows, self.ncols = nrows, ncols
        self.diag = [d[i][i] for i in range(limit)]
        self.u, self.uinv = u, uinv
        self.v = v

    def solve(self, b):
        """One integer solution x of M x = b, or None."""
        c = mat_vec(self.u, list(b))
        y = [0] * self.ncols
        for i in range(self.nrows):
            di = self.diag[i] if i < len(self.diag) else 0
            if di == 0:
                if c[i] != 0:
                    return None
            else:
                if c[i] % di:
                    return None
                y[i] = c[i] // di
        return mat_vec(self.v, y)

    def kernel_basis(self):
        """Columns spanning the integer kernel lattice of M."""
        cols = []
        for j in range(self.ncols):
            dj = self.diag[j] if j < len(self.diag) else 0
            if dj == 0:
                cols.append([self.v[i][j] for i in range(self.ncols)])
        return cols


def _present(ngens: int, relations):
    """The group <ngens generators | rows of `relations`> from one Smith form.

    Returns (C, proj, section): C in invariant-factor form (finite factors
    in ascending divisibility, then free factors), `proj` the rows of the
    map Z^ngens -> C, and `section` the ngens x rank(C) matrix whose
    columns are C's generators in Z^ngens.
    """
    rels = [list(r) for r in relations]
    for r in rels:
        if len(r) != ngens:
            raise InvalidArgument(f"relation length {len(r)} != {ngens} generators")
    # relations as the columns of an ngens x len(rels) matrix
    snf = SmithForm([[r[i] for r in rels] for i in range(ngens)], ngens, len(rels))
    diag = snf.diag + [0] * (ngens - len(snf.diag))
    keep = [i for i, d in enumerate(diag) if d != 1]
    return (FGAbelian([diag[i] for i in keep]), [snf.u[i] for i in keep],
            [[row[i] for i in keep] for row in snf.uinv])


def presented(ngens: int, relations) -> "FGAbelian":
    """Cokernel of a relation matrix: the group <ngens generators | rows>,
    in invariant-factor form (see `_present`)."""
    return _present(ngens, relations)[0]


def _kills(n, coords, orders):
    """Is n times the coordinate vector zero in Z/d_1 + ... (d = 0 for Z)?"""
    return not any(n * x % d if d else n * x for x, d in zip(coords, orders))


def _bilinear_into(acc, x, y, mat):
    """acc += sum_ij x_i y_j mat[i][j] on coordinate lists; each entry of
    `mat` is a coordinate tuple, or None for zero.  Returns acc."""
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = mat[i]
        for j, yj in enumerate(y):
            if yj == 0:
                continue
            e = row[j]
            if e is not None:
                c = xi * yj
                for t, et in enumerate(e):
                    acc[t] += c * et
    return acc


# ---------------------------------------------------------------------------
# Groups, elements, homomorphisms.

class FGAbelian:
    """Finitely generated abelian group, a fixed direct sum of cyclics."""

    __slots__ = ("orders",)

    def __init__(self, orders):
        for d in orders:
            if type(d) is not int:
                raise InvalidArgument(f"generator order {d!r} is not an integer")
            if d < 0:
                raise InvalidArgument(f"negative generator order {d}")
        self.orders = tuple(d for d in orders if d != 1)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def is_finite(self) -> bool:
        return all(d > 0 for d in self.orders)

    def order(self) -> int:
        """Cardinality; 0 encodes an infinite group."""
        return prod(self.orders) if self.is_finite() else 0

    def exponent(self) -> int:
        if not self.is_finite():
            raise InvalidArgument("exponent of an infinite group")
        return lcm(*self.orders) if self.orders else 1

    def is_trivial(self) -> bool:
        return not self.orders

    def _trusted(self, coords) -> "AbElement":
        """Element from `rank` Python ints: reduced mod each finite order,
        free (order-0) coordinates kept as they are, nothing else checked."""
        return AbElement(self, tuple([x % d if d else x
                                      for x, d in zip(coords, self.orders)]))

    def _bilinear(self, x, y, mat) -> "AbElement":
        """sum_ij x_i y_j mat[i][j]: integer vectors x, y, elements mat[i][j]."""
        return self._trusted(_bilinear_into([0] * self.rank, x, y,
                                            [[e.coords for e in row] for row in mat]))

    def element(self, coords) -> "AbElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InvalidArgument(
                f"coordinate length {len(coords)} != rank {self.rank}")
        return self._trusted(coords)

    def zero(self) -> "AbElement":
        return AbElement(self, (0,) * self.rank)

    def gen(self, i: int) -> "AbElement":
        return self.element(tuple(1 if j == i else 0 for j in range(self.rank)))

    def gens(self):
        return [self.gen(i) for i in range(self.rank)]

    def elements(self):
        """All elements in lexicographic coordinate order."""
        if not self.is_finite():
            raise UnsupportedEnumeration(f"cannot enumerate infinite group {self}")
        for coords in itertools.product(*(range(d) for d in self.orders)):
            yield AbElement(self, coords)

    def invariant_factors(self) -> tuple:
        """Canonical invariant factors (ascending divisibility, 0s last)."""
        return presented(self.rank, _relation_columns(self)).orders

    def __eq__(self, other):
        return isinstance(other, FGAbelian) and self.orders == other.orders

    def __hash__(self):
        return hash(("FGAbelian", self.orders))

    def __repr__(self):
        return f"FGAbelian({list(self.orders)})"

    def __str__(self):
        if not self.orders:
            return "0"
        return " + ".join("Z" if d == 0 else f"Z/{d}" for d in self.orders)


class AbElement:
    """Element of an FGAbelian group, coordinates in canonical form; an
    immutable value, which may be shared."""

    __slots__ = ("group", "coords")

    def __init__(self, group, coords):
        self.group = group
        self.coords = coords

    def _check(self, other):
        if self.group is not other.group and self.group != other.group:
            raise InvalidArgument(
                f"elements of different groups: {self.group} vs {other.group}")

    def __add__(self, other):
        self._check(other)
        return self.group._trusted([a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return self.group._trusted([a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return self.group._trusted([-a for a in self.coords])

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return self.group._trusted([n * a for a in self.coords])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def order(self) -> int:
        """Element order; 0 means infinite."""
        n = 1
        for x, d in zip(self.coords, self.group.orders):
            if d == 0:
                if x != 0:
                    return 0
            elif x != 0:
                n = lcm(n, d // gcd(d, x))
        return n

    def __eq__(self, other):
        return (isinstance(other, AbElement)
                and (self.group is other.group or self.group == other.group)
                and self.coords == other.coords)

    def __hash__(self):
        return hash((self.group.orders, self.coords))

    def __repr__(self):
        return f"({', '.join(map(str, self.coords))})"


class AbHom:
    """Homomorphism between FGAbelian groups as an integer matrix.

    Column j is the image of source generator j.  Entries are stored
    canonically (reduced mod the target orders), and torsion
    compatibility d_j * column_j = 0 is enforced at construction.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: FGAbelian, target: FGAbelian, matrix):
        rows = [list(map(int, row)) for row in matrix]
        if len(rows) != target.rank or any(len(r) != source.rank for r in rows):
            raise InvalidArgument(
                f"matrix shape {len(rows)}x{len(rows[0]) if rows else 0} != "
                f"{target.rank}x{source.rank}")
        canon = tuple(tuple(x % d if d else x for x in row)
                      for row, d in zip(rows, target.orders))
        self.source, self.target, self.matrix = source, target, canon
        for j, dj in enumerate(source.orders):
            col = [row[j] for row in canon]
            if not _kills(dj, col, target.orders):
                raise InvalidHomomorphism(f"column {j} times source order {dj} is "
                                          f"{target._trusted([dj * x for x in col])}, not zero")

    @classmethod
    def identity(cls, group: FGAbelian) -> "AbHom":
        return cls(group, group, _identity(group.rank))

    @classmethod
    def zero(cls, source: FGAbelian, target: FGAbelian) -> "AbHom":
        return cls(source, target, [[0] * source.rank for _ in range(target.rank)])

    @classmethod
    def from_columns(cls, source: FGAbelian, target: FGAbelian, cols) -> "AbHom":
        for c in cols:
            if c.group != target:
                raise InvalidArgument("column not in the target group")
        matrix = [[c.coords[i] for c in cols] for i in range(target.rank)]
        return cls(source, target, matrix)

    def column(self, j: int) -> AbElement:
        return self.target._trusted([row[j] for row in self.matrix])

    def columns(self):
        return [self.column(j) for j in range(self.source.rank)]

    def apply(self, x: AbElement) -> AbElement:
        if x.group != self.source:
            raise InvalidArgument("element not in the source group")
        return self.target._trusted(mat_vec(self.matrix, x.coords))

    def compose(self, other: "AbHom") -> "AbHom":
        """self o other (apply `other` first)."""
        if other.target != self.source:
            raise InvalidArgument("composition shapes do not match")
        n, k, m = self.target.rank, self.source.rank, other.source.rank
        mat = [[sum(self.matrix[i][t] * other.matrix[t][j] for t in range(k))
                for j in range(m)] for i in range(n)]
        return AbHom(other.source, self.target, mat)

    def __add__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        if (self.source, self.target) != (other.source, other.target):
            raise InvalidArgument("hom sum needs equal endpoints")
        return AbHom(self.source, self.target,
                     [[a + b for a, b in zip(r1, r2)]
                      for r1, r2 in zip(self.matrix, other.matrix)])

    def __neg__(self):
        return AbHom(self.source, self.target,
                     [[-a for a in row] for row in self.matrix])

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in row) for row in self.matrix)

    def __eq__(self, other):
        return (isinstance(other, AbHom) and self.source == other.source
                and self.target == other.target and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.source.orders, self.target.orders, self.matrix))

    def __repr__(self):
        return f"AbHom({self.source} -> {self.target}, {[list(r) for r in self.matrix]})"


# ---------------------------------------------------------------------------
# Relation lattices and kernels.

def _relation_columns(group: FGAbelian):
    """Columns d_i * e_i spanning the relation lattice (finite factors only)."""
    return [[d if j == i else 0 for j in range(group.rank)]
            for i, d in enumerate(group.orders) if d > 0]


def _preimage_lattice(matrix_rows, target: FGAbelian, nsrc: int):
    """Basis of {c in Z^nsrc : M c lies in the relation lattice of target}."""
    rel = _relation_columns(target)
    stacked = [[matrix_rows[i][j] for j in range(nsrc)] + [-col[i] for col in rel]
               for i in range(target.rank)]
    snf = SmithForm(stacked, target.rank, nsrc + len(rel), rows=False)
    return [col[:nsrc] for col in snf.kernel_basis()]


def kernel(h: AbHom):
    """Kernel of h as (group K, inclusion K -> source)."""
    src = h.source
    r = src.rank
    lat = _preimage_lattice(h.matrix, h.target, r)  # columns, each length r
    # express the source relation lattice in terms of the kernel lattice basis
    w = [[col[i] for col in lat] for i in range(r)]  # r x s
    wsnf = SmithForm(w, r, len(lat))
    rel_in_w = [wsnf.solve(col) for col in _relation_columns(src)]
    if None in rel_in_w:
        raise InternalInvariant("source relations must lie in the kernel lattice")
    # K = Z^s / <rel_in_w>, its generators mapped back to the source through W
    k, _, section = _present(len(lat), rel_in_w)
    return k, AbHom(k, src, mat_mul(w, section))


def direct_sum(a: FGAbelian, b: FGAbelian) -> FGAbelian:
    return FGAbelian(a.orders + b.orders)


# ---------------------------------------------------------------------------
# Enumeration of homomorphisms.

def _annihilator(group: FGAbelian, *ds):
    """Elements killed by every nonzero d in ds, in lexicographic order."""
    return [AbElement(group, c) for c in _killed(group.orders, *ds)]


def _killed(orders, *ds):
    """`_annihilator`'s coordinates, as a lazy iterator."""
    ranges = []
    for e in orders:
        if e == 0:
            if not any(ds):
                raise UnsupportedEnumeration(
                    "infinitely many choices: a free coordinate that no "
                    "nonzero order constrains (e.g. homomorphisms Z -> Z)")
            ranges.append([0])
            continue
        m = 1
        for d in ds:
            if d:
                m = lcm(m, e // gcd(e, d))
        ranges.append(range(0, e, m))
    return itertools.product(*ranges)


def _solvable(d: int, t: AbElement, c: int = 0) -> bool:
    """Is t = d y + c e for some y and some e with d e = 0?  On Z/m, d y and
    c e run over the multiples of g = gcd(d, m) and of c m / g."""
    return all(tc % gcd(g := gcd(d, m), c * (m // g)) == 0
               for m, tc in zip(t.group.orders, t.coords))


def _scalar_solutions(d: int, t: AbElement):
    """All y with d y = t in t's finite group, as a lazy lexicographic
    iterator, or an empty list if there are none."""
    if not _solvable(d, t):
        return []
    ranges = []
    for e, tc in zip(t.group.orders, t.coords):
        g = gcd(d, e)
        step = e // g
        ranges.append(range((tc // g) * pow(d // g, -1, step) % step, e, step))
    return (AbElement(t.group, c) for c in itertools.product(*ranges))


def enumerate_homs(source: FGAbelian, target: FGAbelian):
    """All homomorphisms source -> target in a fixed deterministic order.
    Column j runs over `_killed(target.orders, d_j)`, canonical and killed
    by d_j by construction, so each hom is built without `AbHom`'s checks."""
    col_choices = [list(_killed(target.orders, d)) for d in source.orders]
    empty = ((),) * target.rank
    for cols in itertools.product(*col_choices):
        hom = object.__new__(AbHom)
        hom.source, hom.target, hom.matrix = source, target, tuple(zip(*cols)) or empty
        yield hom


def isomorphisms(source: FGAbelian, target: FGAbelian, keep=None):
    """All isomorphisms source -> target of finite groups, in the order of
    `enumerate_homs`.

    Generator-image backtracking: images x_1..x_k are kept only when
    target / <x_1..x_k> has the invariants of Z/d_{k+1} + ... + Z/d_n.
    Every prefix of an isomorphism passes; at k = n the test makes the map
    onto, so bijective as |source| = |target|.  `keep`, if given, must
    accept each nonempty prefix too; it sees them depth first, each after
    its parent, so it may keep state per prefix length.
    """
    if source.order() != target.order():
        return iter(())
    orders = source.orders
    choices = [_annihilator(target, d) for d in orders]
    want = [FGAbelian(orders[k:]).invariant_factors() for k in range(len(orders) + 1)]
    return (AbHom.from_columns(source, target, cols) for cols in
            _iso_columns(target.rank, _relation_columns(target), choices, want, [], keep))


def _iso_columns(rank, rels, choices, want, images, keep):
    """The extensions of `images` by `choices` whose every prefix of length
    k presents, with the relations `rels`, a group of invariants want[k],
    and is kept by `keep` (if given, from k = 1)."""
    k = len(images)
    if presented(rank, rels + [y.coords for y in images]).orders != want[k]:
        return
    if k == len(choices):
        yield images
        return
    for x in choices[k]:
        if keep is None or keep(images + [x]):
            yield from _iso_columns(rank, rels, choices, want, images + [x], keep)
