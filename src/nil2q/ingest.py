"""Concrete finite groups as multiplication tables: `GroupOracle`, the
semidirect-product tables, and canonicalization of a finite class-two table
into `nil2`'s central-extension data.

Loaded by the queries that ingest a table: `semidirect(...)` expressions and
`oracle { ... }` blocks of the CLI, `nil2.table_of`, and the `*_oracle`
helpers of `catalog`.  Ingestion costs O(n^2 |S|) integer steps for a
greedy generating set S: Light's associativity test at each generator and
class two from the commutators of generator pairs.  [G,G] and G/[G,G] are
then read by one walk each over their span, whose relations go to
`abelian._present` (proof at `_span`): about n table lookups, and no
quotient or subgroup table.  The canonical bijection is verified along
generators, in n (r + rank B) table lookups, with no second Cayley table
(proof at the check).
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
        self.identity = identity
        self._inv = self._gens = None
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
        if type(e) is not int or not 0 <= e < n:
            raise NotAGroup(f"identity {e!r} is not an element index")
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
        self._gens = tuple(nil2._greedy_generators(self.table, e))
        # Light's test: {a : (xa)y = x(ay) for all x, y} holds e and is closed
        # under the product, so it is everything once it holds a generating set
        t = self.table
        for a in self._gens:
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

    def generating_set(self):
        """The greedy generators (`nil2._greedy_generators`), found once by
        the validation."""
        return self._gens

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
# Abelian structure of a span, and canonicalization.

def _multiples(table, identity, g, d):
    """[0, g, 2g, ..., (d-1) g] in a finite table."""
    out = [identity]
    for _ in range(d - 1):
        out.append(table[out[-1]][g])
    return out


def _span(oracle, base, gens):
    """S/N from one `abelian._present`, for N the elements `base` of a
    subgroup and S = <N, gens>, where N is normal in S and S/N is abelian.

    Returns (C, lifts, span, coords): C = S/N in invariant-factor form,
    `lifts` elements of S whose images are C's generators, `span` holding
    the elements of S, and `coords(x)` the coordinates in C of x in S.

    Let S_j = <N, g_1..g_j>, and m_j the least m > 0 with m g_j in
    S_{j-1}, found by walking the multiples of g_j.  The x + i g_j, for x
    in S_{j-1} and 0 <= i < m_j, are pairwise distinct: if two were equal,
    some (i - i') g_j with 0 < i - i' < m_j would lie in S_{j-1}.  They
    cover S_j, as S_{j-1} is normal in S (S/N is abelian) and m_j g_j lies
    in S_{j-1}.  So each x in S has one exponent vector v(x), with
    0 <= v_j < m_j and x in N + sum_j v_j g_j, and |S/N| = prod m_j.  Each
    r_j = m_j e_j - v(m_j g_j) lies in the lattice R of relations of the
    g_j mod N.  The r_j are triangular with diagonal m_j, so Z^k/<r_j> has
    at most prod m_j elements; it maps onto Z^k/R = S/N, so <r_j> = R.  A
    g_j with m_j = 1 adds nothing and is left out.  The walk costs |S|
    table steps plus the multiples walks; each coefficient of a lift's word
    is reduced mod |G|, so no power is longer than the table.
    """
    t, n = oracle.table, len(oracle)
    key = dict.fromkeys(base, 0)        # x -> v(x) in mixed radix, v_1 lowest
    kept, radix, rels = [], [], []
    size = 1                            # |S_{j-1}/N|, the weight of digit j

    def digits(p):
        out = []
        for m in radix:
            p, d = divmod(p, m)
            out.append(d)
        return out

    for g in gens:
        m, top = 1, g
        while top not in key:
            top, m = t[top][g], m + 1
        if m == 1:
            continue
        rels.append([-d for d in digits(key[top])] + [m])
        layer = list(key.items())
        for _ in range(m - 1):          # the coset S_{j-1} + i g_j, from the last
            layer = [(t[x][g], p + size) for x, p in layer]
            key.update(layer)
        kept.append(g)
        radix.append(m)
        size *= m
    k = len(kept)
    group, proj, section = ab._present(k, [r + [0] * (k - len(r)) for r in rels])
    lifts = []
    for col in zip(*section):
        x = oracle.identity
        for g, c in zip(kept, col):
            x = t[x][oracle.power(g, c % n)]
        lifts.append(x)
    return group, lifts, key, lambda x: group.element(ab.mat_vec(proj, digits(key[x])))


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
    checked on commutators of generator pairs.  `_span` presents B = [G,G],
    spanned by the commutators of the greedy generators, and then
    A = G/[G,G], spanned by the greedy generators over B: it gives their
    invariant factors, B's coordinates and basis, and lifts of A's
    generators.  bil is read from commutators of the lifts and carry from
    their d_i-fold sums.  The returned bijection, built in
    `group.elements()` order, is verified along the generators of the
    canonical group, against sums read off its cocycle and not off the
    oracle (proof at the check); no Cayley table of the group is built.
    """
    if not oracle.is_class_two():
        raise NotClassTwo("table has nilpotence class greater than two")
    n, t, e = len(oracle), oracle.table, oracle.identity
    gens = oracle.generating_set()
    B, bgens, bspan, belement = _span(
        oracle, [e], [oracle.comm(s, u) for i, s in enumerate(gens) for u in gens[:i]])
    A, lifts, _, _ = _span(oracle, bspan, gens)
    qorders, corders = A.orders, B.orders
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
    amul = [_multiples(t, e, g, d) for g, d in zip(lifts, qorders)]
    bmul = [_multiples(t, e, g, d) for g, d in zip(bgens, corders)]
    to_oracle = []
    for a in acoords:
        s = e
        for m, c in zip(amul, a):
            s = t[s][m[c]]
        for u in bcoords:
            x = s
            for m, c in zip(bmul, u):
                x = t[x][m[c]]
            to_oracle.append(x)
    if to_oracle[0] != e or len(set(to_oracle)) != n:
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
