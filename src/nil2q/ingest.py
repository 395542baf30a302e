"""Concrete finite groups as multiplication tables: `GroupOracle`, the
semidirect-product tables, and canonicalization of a finite class-two table
into `nil2`'s central-extension data.

Loaded by the queries that ingest a table: `semidirect(...)` expressions and
`oracle { ... }` blocks of the CLI, `nil2.table_of`, and the `*_oracle`
helpers of `catalog`.  Ingestion costs O(n^2 |S|) integer steps for a
greedy generating set S: Light's associativity test at each generator and
class two from the commutators of generator pairs.  The canonical
bijection is then verified along generators, in n (r + rank B) table
lookups, with no second Cayley table (proof at the check).
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from . import abelian as ab
from . import nil2
from .errors import InvalidArgument, NotAGroup, NotAnAction, NotClassTwo


class GroupOracle:
    """A finite group given by labels and a total multiplication table."""

    def __init__(self, labels, table, identity):
        self.labels = tuple(str(x) for x in labels)
        self.table = tuple(row if type(row) is tuple else tuple(row) for row in table)
        self.identity = int(identity)
        self._inv = None
        self._validate()

    def _validate(self):
        n = len(self.labels)
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise NotAGroup("multiplication table is not total")
        for row in self.table:
            if not set(map(type, row)) <= {int}:
                v = next(v for v in row if type(v) is not int)
                raise NotAGroup(f"table entry {v!r} is not an integer")
            if min(row) < 0 or max(row) >= n:
                v = next(v for v in row if not 0 <= v < n)
                raise NotAGroup(f"table entry {v} out of range")
        e = self.identity
        for x in range(n):
            if self.table[e][x] != x or self.table[x][e] != x:
                raise NotAGroup(f"'{self.labels[e]}' is not an identity")
        # the first y with xy = e = yx, scanning only where row x holds e
        inv = []
        for x, row in enumerate(self.table):
            try:
                y = row.index(e)
                while self.table[y][x] != e:
                    y = row.index(e, y + 1)
            except ValueError:
                raise NotAGroup(f"'{self.labels[x]}' has no inverse") from None
            inv.append(y)
        self._inv = tuple(inv)
        # Light's test: {a : (xa)y = x(ay) for all x, y} holds e and is closed
        # under the product, so it is everything once it holds a generating set
        t = self.table
        for a in self.generating_set():
            right = itemgetter(*t[a])       # row of x -> the row of x(ay) over y
            for x in range(n):
                xa = t[x][a]
                if t[xa] != right(t[x]):
                    y = next(y for y in range(n) if t[xa][y] != t[x][t[a][y]])
                    raise NotAGroup(
                        f"associativity fails at ({self.labels[x]}, "
                        f"{self.labels[a]}, {self.labels[y]})")

    def __len__(self):
        return len(self.labels)

    def comm(self, x, y):
        return nil2._comm(self.table, self._inv, x, y)

    def power(self, x, n):
        if n < 0:
            return self.power(self._inv[x], -n)
        acc = self.identity
        for _ in range(n):
            acc = self.table[acc][x]
        return acc

    def subgroup_closure(self, gens):
        return nil2._closure(self.table, self.identity, list(gens))

    def generating_set(self):
        return nil2._greedy_generators(self.table, self.identity)

    def commutator_subgroup(self):
        return nil2._derived(self.table, self._inv, self.identity, self.generating_set())

    def is_class_two(self) -> bool:
        """Each [s, t] over the generating set S commutes with S: then the
        images of S commute in G/Z(G), which they generate."""
        gens, t = self.generating_set(), self.table
        comms = {self.comm(a, b) for a in gens for b in gens}
        return all(t[c][s] == t[s][c] for c in comms for s in gens)

    @classmethod
    def from_text(cls, text: str) -> "GroupOracle":
        """Parse the ingestion format: element labels, `id = <label>`,
        and one `a * b = c` line per product."""
        labels = None
        identity_label = None
        products = {}           # (a, b) -> c, in the order given
        statements = []
        for raw in text.replace(";", "\n").splitlines():
            line = raw.strip()
            if line and not line.startswith("#"):
                statements.append(line)
        for line in statements:
            if "*" in line:
                lhs, _, rhs = line.partition("=")
                a, _, b = lhs.partition("*")
                a, b, c = a.strip(), b.strip(), rhs.strip()
                if not (a and b and c):
                    raise NotAGroup(f"malformed product line: {line!r}")
                if (a, b) in products:
                    raise NotAGroup(f"product {a} * {b} is given twice")
                products[a, b] = c
            elif line.startswith("elements"):
                if labels is not None:
                    raise NotAGroup("`elements` is declared twice")
                _, _, rhs = line.partition("=")
                labels = [tok for tok in rhs.replace(",", " ").split() if tok]
                seen = set()
                for tok in labels:
                    if tok in seen:
                        raise NotAGroup(f"element label {tok!r} is repeated in `elements`")
                    seen.add(tok)
            elif line.startswith("id"):
                if identity_label is not None:
                    raise NotAGroup("`id` is declared twice")
                _, _, rhs = line.partition("=")
                identity_label = rhs.strip()
            else:
                raise NotAGroup(f"unrecognized oracle line: {line!r}")
        if identity_label is None:
            raise NotAGroup("missing `id = <label>` line")
        if labels is None:
            labels = list(dict.fromkeys(tok for (a, b), c in products.items()
                                        for tok in (a, b, c)))
        index = {lab: i for i, lab in enumerate(labels)}
        if identity_label not in index:
            raise NotAGroup(f"identity label {identity_label!r} not declared")
        n = len(labels)
        table = [[None] * n for _ in range(n)]
        for (a, b), c in products.items():
            for tok in (a, b, c):
                if tok not in index:
                    raise NotAGroup(f"undeclared element label {tok!r}")
            table[index[a]][index[b]] = index[c]
        for i in range(n):
            for j in range(n):
                if table[i][j] is None:
                    raise NotAGroup(
                        f"table is not total: missing {labels[i]} * {labels[j]}")
        return cls(labels, table, index[identity_label])



def semidirect(n: int, m: int, k: int) -> GroupOracle:
    """The semidirect product Z/n x| Z/m, generator acting by a -> k*a.

    Requires k^m = 1 (mod n) for a genuine action and (k-1)^2 = 0 (mod n)
    for nilpotence class two.
    """
    if n < 1 or m < 1:
        raise InvalidArgument("moduli must be positive")
    if pow(k, m, n) != 1 % n:
        raise NotAnAction(f"k^m = {pow(k, m, n)} != 1 (mod {n})")
    if (k - 1) ** 2 % n != 0:
        raise NotClassTwo(f"(k-1)^2 = {(k - 1) ** 2} != 0 (mod {n})")
    elems = [(a, b) for a in range(n) for b in range(m)]
    ids = list(range(n * m))            # (a, b) is a * m + b
    # row (a, b) is, for each a2, the block of a + k^b a2 rotated by b
    block = [[ids[s + b:s + m] + ids[s:s + b] for s in range(0, n * m, m)]
             for b in range(m)]
    kb = [pow(k, b, n) for b in range(m)]
    table = [tuple(itertools.chain.from_iterable(
        block[b][(a + kb[b] * a2) % n] for a2 in range(n))) for a, b in elems]
    labels = [f"({a},{b})" for a, b in elems]
    return GroupOracle(labels, table, 0)


# ---------------------------------------------------------------------------
# Abelian structure of a (sub)table, and canonicalization.

def _element_orders(table, identity):
    out = []
    for i in range(len(table)):
        n, x = 1, i
        while x != identity:
            x = table[x][i]
            n += 1
        out.append(n)
    return out


def _multiples(table, identity, g, d):
    """[0, g, 2g, ..., (d-1) g] in a finite table."""
    out = [identity]
    for _ in range(d - 1):
        out.append(table[out[-1]][g])
    return out


def _quotient(table, sub):
    """Left cosets x + sub of the subgroup `sub` of a finite table, as
    (coset_of, reps, qtable): the coset index of each element, the
    smallest element of each coset, and the quotient table on indices.
    By the trivial subgroup each element is its own coset, and the quotient
    table is `table` itself."""
    if len(sub) == 1:
        return range(len(table)), range(len(table)), table
    coset_of = [None] * len(table)
    reps = []
    for x in range(len(table)):
        if coset_of[x] is None:
            # x is the smallest element not yet in a coset, so it is the
            # smallest element of its own coset
            for y in (table[x][s] for s in sub):
                coset_of[y] = len(reps)
            reps.append(x)
    qtable = [[coset_of[table[c1][c2]] for c2 in reps] for c1 in reps]
    return coset_of, reps, qtable


def _abelian_basis(table, identity):
    """Basis of a finite abelian multiplication table.

    Returns (gens, orders, coords): generator indices with orders in a
    decreasing divisibility chain, and a dict element -> coordinates.
    Greedy: an element of maximal order splits off as a direct summand;
    the quotient basis is lifted preserving orders.
    """
    n = len(table)
    if n == 1:
        return [], [], {identity: ()}
    orders = _element_orders(table, identity)
    d = max(orders)
    q = orders.index(d)
    powers = _multiples(table, identity, q, d)
    power_index = {p: i for i, p in enumerate(powers)}
    if d == n:
        coords = {p: (i,) for i, p in enumerate(powers)}
        return [q], [d], coords
    coset_of, reps, qtable = _quotient(table, powers)
    qgens, qorders, _ = _abelian_basis(qtable, coset_of[identity])
    gens, gorders = [q], [d]
    for cg, m in zip(qgens, qorders):
        h = reps[cg]
        mh = identity
        for _ in range(m):
            mh = table[mh][h]
        k = power_index[mh]
        assert k % m == 0, "maximal-order summand lift failed"
        t = (-(k // m)) % d
        gens.append(table[h][powers[t]])
        gorders.append(m)
    coords, muls = {}, [_multiples(table, identity, g, m) for g, m in zip(gens, gorders)]
    for tup in itertools.product(*(range(o) for o in gorders)):
        acc = identity
        for mul, c in zip(muls, tup):
            acc = table[acc][mul[c]]
        assert acc not in coords, "generator coordinates collide"
        coords[acc] = tup
    assert len(coords) == n, "generators do not span the table"
    return gens, gorders, coords


class Canonicalization:
    """Result of canonicalizing a finite class-two table: `to_oracle[i]` is
    the oracle index of the i-th element of `group.elements()`."""

    def __init__(self, group, oracle, to_oracle):
        self.group = group
        self.oracle = oracle
        self.to_oracle = to_oracle


def canonicalize_finite(oracle: GroupOracle) -> Canonicalization:
    """Read central-extension data off a finite class-two table.

    The table has already passed Light's associativity test; class two is
    checked on commutators of generator pairs.  Chooses invariant-factor
    generators of G/[G,G] greedily, lifts them (smallest element index in
    each coset), and reads bil from commutators of the lifts and carry from
    their d_i-fold sums.  The returned bijection, built in
    `group.elements()` order, is verified along the generators of the
    canonical group, against sums read off its cocycle and not off the
    oracle (proof at the check); no Cayley table of the group is built.
    """
    if not oracle.is_class_two():
        raise NotClassTwo("table has nilpotence class greater than two")
    n = len(oracle)
    t = oracle.table
    comm_set = oracle.commutator_subgroup()
    celems = sorted(comm_set)
    cindex = {x: i for i, x in enumerate(celems)}
    ctable = [[cindex[t[x][y]] for y in celems] for x in celems]
    cgens, corders, ccoords = _abelian_basis(ctable, cindex[oracle.identity])
    B = ab.FGAbelian(corders)

    def belement(x):
        return B.element(ccoords[cindex[x]])

    coset_of, reps, qtable = _quotient(t, celems)
    qgens, qorders, _ = _abelian_basis(qtable, coset_of[oracle.identity])
    lifts = [reps[c] for c in qgens]
    A = ab.FGAbelian(qorders)
    r = len(lifts)
    z = B.zero()
    bil = [[z] * r for _ in range(r)]
    for i in range(r):
        for j in range(i):
            bil[i][j] = belement(oracle.comm(lifts[i], lifts[j]))
    carry = [belement(oracle.power(lifts[i], qorders[i])) for i in range(r)]
    group = nil2.Nil2Group(A, B, bil, carry)

    acoords, bcoords = (list(itertools.product(*map(range, orders)))
                        for orders in (qorders, corders))
    apos, bpos = ({c: i for i, c in enumerate(cs)} for cs in (acoords, bcoords))
    nb = len(bcoords)
    amul = [_multiples(t, oracle.identity, g, d) for g, d in zip(lifts, qorders)]
    bmul = [_multiples(t, oracle.identity, celems[cg], e) for cg, e in zip(cgens, corders)]
    to_oracle = []
    for a in acoords:
        s = oracle.identity
        for m, c in zip(amul, a):
            s = t[s][m[c]]
        for u in bcoords:
            x = s
            for m, c in zip(bmul, u):
                x = t[x][m[c]]
            to_oracle.append(x)
    if to_oracle[0] != oracle.identity or len(set(to_oracle)) != n:
        raise NotAGroup("canonicalization bijection failed")  # pragma: no cover

    def plus(c, v, orders):
        return tuple([(x + y) % d for x, y, d in zip(c, v, orders)])

    shifts = {}                 # v in B -> the positions of u + v, over B's u

    def shifted(v):
        v = tuple([x % d for x, d in zip(v, corders)])
        if v not in shifts:
            shifts[v] = [bpos[plus(u, v, corders)] for u in bcoords]
        return shifts[v]

    # phi = to_oracle is a bijection onto the table with phi(0) = e.  It is
    # an isomorphism iff phi(x + s) = phi(x) phi(s) for every x and every s
    # in S = {(e_i, 0)} u {(0, f_j)}, which generates the canonical group.
    # (<=) The y with phi(x + y) = phi(x) phi(y) for all x hold 0, and with
    # y and s in S they hold y + s: phi(x + (y + s)) = phi((x + y) + s) =
    # phi(x + y) phi(s) = phi(x) phi(y) phi(s) = phi(x) phi(y + s).  That
    # uses only that both laws associate: the table passed Light's test and
    # the canonical law comes from a cocycle.  Every element of a finite
    # group is a word in S, so the y are all of G.  Each x + s is read off
    # the cocycle, (a, u) + (e_i, 0) = (a + e_i, u + beta(a, e_i)) and
    # (a, u) + (0, f_j) = (a, u + f_j): n (r + rank B) lookups.
    gens_a = [(e, to_oracle[apos[tuple(e)] * nb]) for e in ab._identity(r)]
    gens_b = [(to_oracle[bpos[tuple(f)]], shifted(f)) for f in ab._identity(len(corders))]
    for pa, a in enumerate(acoords):
        row = pa * nb
        steps = [(img, apos[plus(a, e, qorders)] * nb, shifted(group._cocycle_coords(a, e)))
                 for e, img in gens_a] + [(img, row, w) for img, w in gens_b]
        for img, base, w in steps:
            for k, wk in enumerate(w):
                if t[to_oracle[row + k]][img] != to_oracle[base + wk]:
                    raise NotAGroup("canonicalized data does not reproduce the table "
                                    f"at element {row + k} of the group")
    return Canonicalization(group, oracle, to_oracle)
