"""The q-map calculus.

A q-map f : G -> H between nil_2-groups is a map whose cross-effect
(x|y)_f = -(f(x) + f(y)) + f(x+y) lands in [H,H] and is bilinear.  It is
stored by generator data:

    fab    : G_ab -> H_ab        induced homomorphism,
    fcomm  : [G,G] -> [H,H]      restriction to the commutator subgroup,
    gamma  : r corrections       f(e_i-lift) = (fab(e_i), gamma_i),
    delta  : r x r cross matrix  delta[i][j] = (e_i | e_j)_f in [H,H].

Three relation families gate the data (torsion of delta, commutator
relations, order relations), each on one coordinate.  One solver,
`_presentations`, walks them on integer coordinates for q-map enumeration,
homomorphism enumeration (delta pinned to zero), q-split section search
(fab = id, fcomm = 0 out of G_ab) and the iso-pair search of `classify`.
It and `QMap` read only `nil2.CentralExtension` data, so they serve any
finite central extension: groups, P2(G) and the Lie rings of `maltsev`.
`QMap` validation checks data on the solver's own terms (`_relations`),
with no element arithmetic, so the independent check of both is the
definition-level one below.
Evaluation is the closed form of the ascending generator expansion: as
(0, gamma) is central, f(x, u) = (fab(x), base_fab(x) + sum_i [x_i gamma_i
+ C(x_i, 2) delta_ii] + sum_{p<i} x_p x_i delta_pi + fcomm(u - kappa(x))),
base_fab(x) and kappa(x) the B-parts of x_1 (fab e_1, 0) + ... in H and of
x_1 (e_1, 0) + ... in G, both `nil2`'s closed form for sums of generator
lifts: per B-coordinate, dot products with monomials.  A map an
enumeration yields is tabulated at its first evaluation, with the maps of
its fab built but not yet yielded: each monomial's values at all of G,
and each coefficient's values over those maps, are packed into one int,
so per B-coordinate one multiply-add per monomial and one reduction cover
the batch (`qmap_tables`).  Its values come from one memo of H's elements
per enumeration, so equal values are one object: elements are immutable.
Every other map evaluates per point (`QMap._at`): its first evaluation
builds G's lift rows, H's over the fab columns and the coefficient rows,
and a memo keeps fab(x), base_fab(x), quad(x) and kappa(x) per A-point x.
The identity and `classify`'s abelianization projection are `_hom`, the
one zero-cross-effect constructor, over generator-shift maps `_shift`;
the other fixed q-maps (zero, power, addition, the structural maps of
products and coproducts) and maps read off a function are in
`qmap_constructions`, which loads on first use.
The independent completeness oracle is the exhaustive set-map filter over
the defining conditions, the backtracking search `_tables`, on integer
Cayley tables built from the group law (`Nil2Group.table`), never from
q-map data; the masks of [H,H] and of the center come from H's table too,
with no `nil2.center` and no `elements()`.  It tests each cross value (i|j)
once, at position max(i, j, i+j), and bilinearity along the nonzero
members S' of a generating set.  The function-level checks decide one
function with no search: they read its rows (s|-), s in S', test their
membership, and run the search's additivity test `_additive` on them
(proof at `_function_ok`).
"""

from __future__ import annotations

import itertools
import weakref
from math import gcd
from operator import add, mul, sub

from . import abelian as ab
from . import nil2
from .errors import InvalidArgument, NotAQMap, UnsupportedEnumeration


class _Memo(dict):
    """key -> fn(*key), filled on first lookup: no wrapper set up per call."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(*key)
        return value


class QMap:
    """Finite presentation of a q-map between nil_2-groups, or between any
    central extensions; values are built as the target's `element_class`."""

    __slots__ = ("source", "target", "fab", "fcomm", "gamma", "delta",
                 "_plan", "_table", "_form", "_deltac")

    def __init__(self, source, target, fab, fcomm, gamma, delta,
                 _validated=False, _plan=None):
        self.source, self.target = source, target
        self.fab, self.fcomm = fab, fcomm
        self.gamma = tuple(gamma)
        # solver output: delta is a tuple of row tuples, shared across maps
        self.delta = delta if _validated else tuple(tuple(row) for row in delta)
        if not _validated:
            if fab.source != source.A or fab.target != target.A:
                raise InvalidArgument("fab endpoints do not match")
            if fcomm.source != source.B or fcomm.target != target.B:
                raise InvalidArgument("fcomm endpoints do not match")
            nil2._check_entries("gamma", self.gamma, source.rank, target.B)
            nil2._check_entries("delta", self.delta, source.rank, target.B)
            self._validate()
        # an enumeration's maps share its plans and are tabulated (`eval`);
        # any other map evaluates per point (`_at`)
        self._plan, self._table, self._form, self._deltac = _plan, None, None, None

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """The relations on the solver's terms: delta_ki = delta_ik + s_ik and
        d_k gamma_k + C(d_k, 2) delta_kk = rhs_k.  A failure's message prints
        the relation's fcomm side and that side plus the defect.  G keeps the
        terms of its last target in `_terms`, so maps between one pair of
        groups share them."""
        G, H, B = self.source, self.target, self.target.B
        nil2._check_torsion("delta", self.delta, G.A.orders, NotAQMap)
        if G._terms is None or G._terms[0] is not H:
            G._terms = (H, _relations(G, H, False)[0])
        terms, xs = G._terms[1], list(zip(*self.fab.matrix)) or [()] * G.rank
        rhs, s = zip(*[terms(self.fcomm, xs, k) for k in range(G.rank)]) if xs else ((), ())
        for i, k in itertools.combinations(range(G.rank), 2):
            if B._trusted(map(add, self.delta[i][k].coords, s[k][i])) != self.delta[k][i]:
                side = self.fcomm.apply(G.commutators[i][k])
                raise NotAQMap(
                    f"commutator relation fails at generator pair ({i+1}, {k+1}): {side} != "
                    f"{side + B._trusted(s[k][i]) + self.delta[i][k] - self.delta[k][i]}")
        for k, d in enumerate(G.A.orders):
            v = B._trusted([d * y + d * (d - 1) // 2 * z
                            for y, z in zip(self.gamma[k].coords, self.delta[k][k].coords)])
            if v.coords != rhs[k]:
                side = H.central(self.fcomm.apply((d * G.gen(k)).b))
                raise NotAQMap(f"order relation fails at generator {k+1}: "
                               f"{side + H.central(v - B._trusted(rhs[k]))!r} != {side!r}")

    # -- evaluation ----------------------------------------------------------

    def gen_image(self, i: int) -> nil2.Nil2Element:
        """f(e_i-lift) = (fab(e_i), gamma_i)."""
        return self.target.pair(self.fab.column(i), self.gamma[i])

    def cross_data(self, acoords, bcoords) -> ab.AbElement:
        """Bilinear cross-effect through delta on canonical A-coordinates,
        over delta's coordinate rows (None for zero), built on the first
        call and kept."""
        if self._deltac is None:
            self._deltac = tuple(tuple(None if e.is_zero() else e.coords for e in row)
                                 for row in self.delta)
        B = self.target.B
        return B._trusted(ab._bilinear_into([0] * B.rank, acoords, bcoords, self._deltac))

    def eval(self, z: nil2.Nil2Element) -> nil2.Nil2Element:
        """Evaluate by the fixed generator expansion (ascending index), in
        closed form (module docstring).  A map an enumeration yields is
        tabulated on its first call, with the maps its plan holds unyielded
        (`qmap_tables`), then read at z's position.  Every other map
        (constructors, sums, composites, `classify`'s searches, infinite
        groups) evaluates per point (`_at`), as its callers read a few
        points of sources that may be huge (`is_qsplit` composes maps on a
        group of order 387,420,489), where a table costs O(|G|): its rows
        are built at its first call, and each A-point's terms once."""
        G = self.source
        if z.group is not G and z.group != G:
            raise InvalidArgument("element not in the source group")
        table = self._table
        if table is None:
            if self._plan is None:
                return self._at(z.a.coords, z.b.coords)
            self._plan.tabulate(self)
            table = self._table
        return table[self._plan.index[z.b.coords, z.a.coords]]

    def _at(self, x, u):
        """f(x, u), base_fab(x) plus the coefficient rows times the
        monomials x, quad(x) and u - kappa(x) (`nil2._quadratic`).  The
        first call builds `_form`: G's lift rows, H's over the fab columns,
        the coefficient rows per B_H-coordinate (gamma, delta_pi for p <= i,
        fcomm) and a memo x -> (fab(x), base_fab(x), x + quad(x), kappa(x)),
        both lift sums by `CentralExtension._lift_sum`."""
        G, H = self.source, self.target
        if self._form is None:
            cols = [e.coords for e in self.gamma]
            cols += [self.delta[p][i].coords for i in range(len(cols)) for p in range(i + 1)]
            cols += zip(*self.fcomm.matrix)
            self._form = (G._lift_rows(ab._identity(G.rank)), H._lift_rows(
                [[row[j] for row in self.fab.matrix] for j in range(G.rank)]),
                list(zip(*cols)) if cols else [()] * H.B.rank, {})
        grows, hrows, rows, memo = self._form
        hit = memo.get(x)
        if hit is None:
            quad, s = nil2._quadratic(x), [sum(map(mul, row, x)) for row in self.fab.matrix]
            memo[x] = hit = (H.A._trusted(s), H._lift_sum(hrows, quad, s), x + quad,
                             G._lift_sum(grows, quad, x))
        a, base, head, kappa = hit
        mono = head + tuple(map(sub, u, kappa))
        return H.element_class(H, a, ab.AbElement(H.B, tuple(
            [v % d if d else v for s, row, d in zip(base, rows, H._borders)
             for v in (s + sum(map(mul, row, mono)),)])))

    def cross(self, z, zp) -> nil2.Nil2Element:
        """(z | z')_f as an element of (0, [H,H])."""
        G = self.source
        if (z.group is not G and z.group != G) or (zp.group is not G and zp.group != G):
            raise InvalidArgument("elements not in the source group")
        return self.target.central(self.cross_data(z.a.coords, zp.a.coords))

    def is_hom(self) -> bool:
        """A q-map is a homomorphism iff its cross-effect vanishes."""
        return all(e.is_zero() for row in self.delta for e in row)

    # -- group structure on qw(G, H) ------------------------------------------

    def __add__(self, other):
        if not isinstance(other, QMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            raise InvalidArgument("q-map sum needs equal endpoints")
        H = self.target
        r = self.source.rank
        gamma = [(self.gen_image(i) + other.gen_image(i)).b for i in range(r)]
        delta = [[self.delta[i][j] + other.delta[i][j]
                  + H.commutator_pairing(self.fab.column(j), other.fab.column(i))
                  for j in range(r)] for i in range(r)]
        return QMap(self.source, H, self.fab + other.fab,
                    self.fcomm + other.fcomm, gamma, delta)

    def __neg__(self):
        H = self.target
        r = self.source.rank
        gamma = [(-self.gen_image(i)).b for i in range(r)]
        delta = [[H.commutator_pairing(self.fab.column(j), self.fab.column(i))
                  - self.delta[i][j] for j in range(r)] for i in range(r)]
        return QMap(self.source, H, -self.fab, -self.fcomm, gamma, delta)

    def __sub__(self, other):
        return self + (-other)

    def compose(self, other: "QMap") -> "QMap":
        """self o other (apply `other` first); cross-effect by
        (a|b)_{fg} = f((a|b)_g) + (g(a)|g(b))_f."""
        if other.target != self.source:
            raise InvalidArgument("composition endpoints do not match")
        r = other.source.rank
        gamma = [self.eval(other.gen_image(i)).b for i in range(r)]
        delta = [[self.fcomm.apply(other.delta[i][j])
                  + self.cross_data(other.fab.column(i).coords,
                                    other.fab.column(j).coords)
                  for j in range(r)] for i in range(r)]
        return QMap(other.source, self.target,
                    self.fab.compose(other.fab), self.fcomm.compose(other.fcomm),
                    gamma, delta)

    def is_zero(self):
        return (self.fab.is_zero() and self.fcomm.is_zero()
                and all(g.is_zero() for g in self.gamma)
                and all(e.is_zero() for row in self.delta for e in row))

    def __eq__(self, other):
        return (isinstance(other, QMap)
                and self.source == other.source and self.target == other.target
                and self.fab == other.fab and self.fcomm == other.fcomm
                and self.gamma == other.gamma and self.delta == other.delta)

    def __hash__(self):
        return hash((self.fab, self.fcomm,
                     tuple(g.coords for g in self.gamma),
                     tuple(e.coords for row in self.delta for e in row)))

    def __repr__(self):
        return (f"QMap({self.source} -> {self.target}, fab={self.fab.matrix}, "
                f"gamma={[g.coords for g in self.gamma]})")


# ---------------------------------------------------------------------------
# Basic constructors; the others are in `qmap_constructions`.

def _shift(source: ab.FGAbelian, target: ab.FGAbelian, offset: int, n: int = 1) -> ab.AbHom:
    """Generator j to n times generator j + offset (to zero out of range)."""
    return ab.AbHom(source, target, [[n if i == j + offset else 0 for j in range(source.rank)]
                                     for i in range(target.rank)])


def _hom(g: nil2.Nil2Group, h: nil2.Nil2Group, fab, fcomm, gamma=None) -> QMap:
    """The q-map with data (fab, fcomm, gamma) and zero cross-effect;
    gamma is zero unless given."""
    bz = h.B.zero()
    r = g.rank
    return QMap(g, h, fab, fcomm, [bz] * r if gamma is None else gamma,
                [[bz] * r for _ in range(r)])


def identity_qmap(g: nil2.Nil2Group) -> QMap:
    return _hom(g, g, ab.AbHom.identity(g.A), ab.AbHom.identity(g.B))


# ---------------------------------------------------------------------------
# Enumeration.

class _lazy:
    """A choice list read on demand; `done`: its tuple once read to its end."""

    __slots__ = ("tee", "done", "__weakref__")

    def __init__(self, items):
        self.tee, self.done = itertools.tee(_record(weakref.ref(self), items), 1)[0], None


def _record(ref, items):
    """Yield `items`, then make them `done` of the `_lazy` list `ref()`."""
    seen = []
    for x in items:
        seen.append(x)
        yield x
    if (lazy := ref()) is not None:
        lazy.tee, lazy.done = None, tuple(seen)


def _product(lists):
    """itertools.product over `_lazy` lists, reading each only as needed."""
    if len(lists) == 1:
        return zip(lists[0].tee.__copy__() if lists[0].done is None else lists[0].done)
    done = [c.done for c in lists]
    if None not in done:
        return itertools.product(*done)
    head = lists[0].tee.__copy__() if done[0] is None else done[0]
    return ((x,) + rest for x in head for rest in _product(lists[1:]))


def _relations(g: nil2.CentralExtension, h: nil2.CentralExtension, homs: bool):
    """terms(fcomm, fab columns xs, k) -> (rhs_k, [s_ik for i < k]), and
    column(fcomm, xs, k) -> the lists of delta_kk (with gamma_k's) and
    delta_ik, i < k, read off them, or None if one is empty, once per
    relation value.  Coordinates throughout, reduced by `red`."""
    orders, eb, el = g.A.orders, h.B.orders, h.B._trusted
    tors = [g._times(d, e, (0,) * g.B.rank)[1] for d, e in zip(orders, ab._identity(g.rank))]
    comms = [[e.coords for e in row] for row in g.commutators]
    image = _Memo(lambda f, k: (ab.mat_vec(f.matrix, tors[k]),
                                [ab.mat_vec(f.matrix, comms[i][k]) for i in range(k)]))
    power = _Memo(lambda d, x: h._times(d, x, (0,) * len(eb))[1])
    pair = _Memo(lambda x, y: ab._bilinear_into([0] * len(eb), x, y, h._commc))
    gammas = _Memo(lambda d, y: _lazy(ab._scalar_solutions(d, el(y))))

    def red(v):
        return tuple([x % e if e else x for x, e in zip(v, eb)])

    def terms(f, xs, k):
        (t, cs), x = image[f, k], xs[k]
        return (red(map(sub, t, power[orders[k], x])),
                [red(map(sub, pair[xs[i], x], c)) for i, c in enumerate(cs)])

    @_Memo
    def diag(d, rhs):
        c = 0 if homs else d * (d - 1) // 2
        if ab._solvable(d, el(rhs), c):
            ys = ((e, red([t - c * u for t, u in zip(rhs, e)]))
                  for e in ab._killed(eb, 1 if homs else d))
            return _lazy((el(e), gammas[d, y]) for e, y in ys if ab._solvable(d, el(y)))

    @_Memo
    def upper(m, s):
        if not any(m * t % e for t, e in zip(s, eb)):
            return _lazy((el(v), el(map(add, v, s))) for v in ab._killed(eb, m))

    def column(f, xs, k):
        (rhs, ss), d = terms(f, xs, k), orders[k]
        lists = [diag[d, rhs]] + [upper[1 if homs else gcd(orders[i], d), s]
                                  for i, s in enumerate(ss)]
        return None if None in lists else lists

    return terms, column


def _presentations(g: nil2.CentralExtension, h: nil2.CentralExtension, fabs, fcomms,
                   homs=False):
    """Generator data (fab, fcomm, gamma, delta) of every q-map G -> H with
    fab from `fabs` and fcomm from the list `fcomms`, for finite central
    extensions G and H (`nil2.CentralExtension`: groups, P2(G), Lie rings).

    The one solver of the three relation families, each on one coordinate:
    delta_kk = e in B_H[d_k] when rhs_k - C(d_k, 2) e = d_k gamma_k is
    solvable, rhs_k = fcomm(d_k e_k) - d_k (fab e_k, 0); delta_ik (i < k)
    is all of B_H[d_i, d_k] when s = [fab e_i, fab e_k] - fcomm([e_i, e_k])
    has d_i s = d_k s = 0, and delta_ki = delta_ik + s.  Order: fab, fcomm,
    delta's diagonal, its upper triangle, gamma (lexicographic); maps with
    one diagonal and upper triangle share a delta.  `homs` pins delta to 0.
    """
    column, r = _relations(g, h, homs)[1], g.rank
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    for fab in fabs:
        xs = [tuple([row[i] for row in fab.matrix]) for i in range(r)]
        for fcomm in fcomms:
            cols = [column(fcomm, xs, k) for k in range(r)]
            if None in cols:
                continue
            for choice in _product([c[0] for c in cols] + [cols[j][1 + i] for i, j in pairs]):
                diag, up = choice[:r], dict(zip(pairs, choice[r:]))
                delta = tuple(tuple(diag[i][0] if i == j else up[i, j][0] if i < j
                                    else up[j, i][1] for j in range(r)) for i in range(r))
                for gamma in _product([gl for _, gl in diag]):
                    yield fab, fcomm, gamma, delta


def _enumerate(g, h, what, homs=False):
    """The q-maps of `_presentations`, a fab's in chunks no longer than the
    count already yielded; their plan holds those not yet yielded, and one
    `qmap_tables._Kernel` (loaded here) tabulates them (`QMap.eval`)."""
    if not (g.is_finite() and h.is_finite()):
        raise UnsupportedEnumeration(f"{what} enumeration needs finite groups")
    from .qmap_tables import _Kernel, _TablePlan
    kernel, fab, chunk, done = _Kernel(g, h), None, [], 0
    for data in itertools.chain(_presentations(g, h, ab.enumerate_homs(g.A, h.A), list(
            ab.enumerate_homs(g.B, h.B)), homs), [(None,)]):
        if chunk and (data[0] is not fab or len(chunk) >= done):
            done, pending = done + len(chunk), chunk[::-1]
            plan.pending, chunk = pending, []       # until a tabulation takes them
            while pending:
                yield pending.pop()
        if data[0] is not fab:
            if data[0] is None:
                return
            fab, plan = data[0], _TablePlan(kernel, data[0])
        chunk.append(QMap(g, h, *data, True, plan))     # _validated, _plan


def enumerate_qmaps(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """All q-maps G -> H, deterministic order (see `_presentations`).

    Complete against the brute-force set-map filter (acceptance property).
    """
    yield from _enumerate(g, h, "q-map")


def enumerate_homs(g: nil2.Nil2Group, h: nil2.Nil2Group):
    """All group homomorphisms G -> H (q-maps with zero cross-effect), in
    the order of filtering enumerate_qmaps by is_hom."""
    yield from _enumerate(g, h, "homomorphism", homs=True)


# ---------------------------------------------------------------------------
# Function-level oracles (independent of the presentation machinery): they
# read only the groups' integer Cayley tables, built from the group law.

def _member_mask(h: nil2.Nil2Group, kind: str):
    """good[w] per H-index w: in [H,H] ("qmap") or central ("quadratic"),
    kept in the `masks` of H's table and read off its `add` alone: over its
    greedy generators S, [H,H] is `nil2._derived`, and w is central iff it
    commutes with each s in S (its centralizer is a subgroup)."""
    if kind not in ("qmap", "quadratic"):
        raise InvalidArgument(f"unknown filter kind {kind!r}")
    t = h.table()
    if kind not in t.masks:
        add, gens = t.add, nil2._greedy_generators(t.add, 0)
        member = (nil2._derived(add, t.neg, 0, gens) if kind == "qmap" else
                  {w for w, row in enumerate(add) if all(row[s] == add[s][w] for s in gens)})
        t.masks[kind] = [w in member for w in range(len(add))]
    return t.masks[kind]


def _additive(rows, gens, hadd) -> bool:
    """Each row v satisfies v(y+t) = v(y) + v(t) for every y and every t in
    `gens`, pairs (t, the column y -> y+t of G's table): |rows| |gens| list
    comparisons."""
    return all([row[y] for y in shift] == [hadd[w][row[t]] for w in row]
               for row in rows for t, shift in gens)


def _tables(g, h, good):
    """Every value table vals, vals[x] the H-index of f(x), whose
    cross-effect (x|y)_f = -(f(x)+f(y)) + f(x+y) lies in `good` and is
    bilinear, in lexicographic order.

    Backtracks over G's elements in index order, with every H-index as the
    choice at each position.  Position p computes, stores and tests (i|j)
    for every pair with max(i, j, i+j) = p (the triples of `by_max`, built
    per call), so each pair is filled once, as soon as its three values are
    set, and a full assignment has a whole cross table in `good`.  The leaf
    then runs `_additive` on the rows (s|-), s in S' (exact: see
    `_function_ok`).
    """
    gadd, hadd, hneg = g.table().add, h.table().add, h.table().neg
    n, choices = len(gadd), range(len(hadd))
    gens = [(s, [row[s] for row in gadd]) for s in nil2._greedy_generators(gadd, 0) or [0]]
    by_max = [[] for _ in range(n)]
    for i, row in enumerate(gadd):
        for j, k in enumerate(row):
            m = j if j > i else i       # max(i, j, k), without the call
            by_max[k if k > m else m].append((i, j, k))
    vals, cross = [0] * n, [[0] * n for _ in range(n)]
    untried = [iter(choices)]           # untried[p]: the values left at p
    while untried:
        pos = len(untried) - 1
        for vals[pos] in untried[pos]:
            for i, j, k in by_max[pos]:
                cross[i][j] = c = hadd[hneg[hadd[vals[i]][vals[j]]]][vals[k]]
                if not good[c]:
                    break
            else:
                break                   # every (i|j) at pos is in `good`
        else:
            untried.pop()               # no value left at pos
            continue
        if pos + 1 < n:
            untried.append(iter(choices))
        elif _additive([cross[s] for s, _ in gens], gens, hadd):
            yield tuple(vals)


def _function_ok(fn, g, h, good) -> bool:
    """f's cross-effect lies in `good` and is bilinear, read off the rows
    (s|-) of the nonzero greedy generators S' of G's table ([0] if G = 0):
    n |S'| lookups, with no cross table and no search.

    `good` is [H,H] or Z(H), a central subgroup.  Claim: the cross-effect
    lies in `good` and is bilinear iff every row (s|-), s in S', lies in
    `good` and (s|y+t) = (s|y) + (s|t) for all y in G and t in S' (the test
    of `_additive`).  (=>) is clear.  (<=) (1) For v a map into an abelian
    group, the t with v(y+t) = v(y) + v(t) for all y are closed under +
    (v(y+t+u) = v(y+t) + v(u) = v(y) + v(t) + v(u) = v(y) + v(t+u)), and
    S' spans G as a monoid, so each (s|-) is a homomorphism into `good`.
    (2) At y = 0 the test gives (s|0) = 0, and (s|0) = -f(0), so f(0) = 0;
    for G = 0, S' = [0] gives the same.  (3) Induct on a word in S' for y, from (0|-) = 0:
    let (y|-) be a sum of rows of S'.  Expanding f(s+y+x) both ways gives
    f(s) + f(y) + (s|y) + f(x) + (s+y|x) = f(s) + f(y) + f(x) + (y|x) +
    (s|y+x), and (s|y), (y|x) and (s|y+x) = (s|y) + (s|x) are central, so
    (s+y|x) = (y|x) + (s|x).  So every (y|-) is a sum of rows of S': it
    lies in `good` and is additive in x, and (4) by the closure of (1),
    applied to y -> (y|x), it is additive in y too.
    """
    gadd, ht = g.table().add, h.table()
    index, hadd, hneg, vals = ht.index, ht.add, ht.neg, []
    for z in g.elements():
        w = fn(z)
        if not isinstance(w, nil2.Nil2Element) or (w.group is not h and w.group != h):
            raise InvalidArgument(f"value {w!r} at {z!r} is not in the target group")
        vals.append(index[w.a.coords, w.b.coords])
    gens = [(s, [row[s] for row in gadd]) for s in nil2._greedy_generators(gadd, 0) or [0]]
    rows = [[hadd[hneg[hadd[vals[s]][v]]][vals[k]] for v, k in zip(vals, gadd[s])]
            for s, _ in gens]
    return all(good[c] for row in rows for c in row) and _additive(rows, gens, hadd)


def is_qmap_function(fn, g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Definition-level check: cross-effect in [H,H] and bilinear."""
    return _function_ok(fn, g, h, _member_mask(h, "qmap"))


def is_quadratic_function(fn, g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    """Cross-effect central and bilinear (not necessarily in [H,H])."""
    return _function_ok(fn, g, h, _member_mask(h, "quadratic"))


def quadratic_functions_bruteforce(g: nil2.Nil2Group, h: nil2.Nil2Group,
                                   kind: str = "qmap"):
    """Exhaustive filter of all set maps G -> H by the defining conditions.

    `kind` = "qmap" requires the cross-effect in [H,H]; "quadratic"
    requires it central.  Runs the search `_tables` on the integer Cayley
    tables of G and H, built from the group law and never from q-map data:
    each cross value (i|j) is computed and tested once, at position
    max(i, j, i+j), and each full table gets the bilinearity test along the
    nonzero generators.  Returns tuples of H-element indices, in the
    lexicographic order of the search.
    """
    return list(_tables(g, h, _member_mask(h, kind)))
