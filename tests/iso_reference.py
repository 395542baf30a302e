"""Reference isomorphism searches that `classify._iso_search` must agree
with: the table-level search over finite multiplication tables, and the
unpruned sweep of `qmaps._presentations` over every isomorphism pair."""

import itertools

from nil2q import abelian as ab
from nil2q import ingest, nil2, qmaps


def _element_orders(table, identity):
    out = []
    for i in range(len(table)):
        n, x = 1, i
        while x != identity:
            x = table[x][i]
            n += 1
        out.append(n)
    return out


def _extend_hom(o1, o2, gens, images):
    """Extend generator images to a full map by right multiplication, or None."""
    n = len(o1)
    phi = [None] * n
    phi[o1.identity] = o2.identity
    frontier = [o1.identity]
    defined = 1
    while frontier:
        x = frontier.pop()
        for g, h in zip(gens, images):
            y = o1.table[x][g]
            fy = o2.table[phi[x]][h]
            if phi[y] is None:
                phi[y] = fy
                defined += 1
                frontier.append(y)
            elif phi[y] != fy:
                return None
    if defined != n:
        return None
    return phi


def reference_find_group_isomorphism(o1: ingest.GroupOracle, o2: ingest.GroupOracle):
    """Brute-force isomorphism search between finite tables.

    Generator images are enumerated lexicographically (filtered by element
    order); the first full isomorphism found is returned as an index map.
    """
    n = len(o1)
    if n != len(o2):
        return None
    orders1 = _element_orders(o1.table, o1.identity)
    orders2 = _element_orders(o2.table, o2.identity)
    if sorted(orders1) != sorted(orders2):
        return None
    gens = o1.generating_set()
    candidates = [[y for y in range(n) if orders2[y] == orders1[g]]
                  for g in gens]
    for images in itertools.product(*candidates):
        phi = _extend_hom(o1, o2, gens, images)
        if phi is None or len(set(phi)) != n:
            continue
        if all(phi[o1.table[x][y]] == o2.table[phi[x]][phi[y]]
               for x in range(n) for y in range(n)):
            return phi
    return None


def reference_groups_isomorphic(g: nil2.Nil2Group, h: nil2.Nil2Group) -> bool:
    return reference_find_group_isomorphism(nil2.table_of(g), nil2.table_of(h)) is not None


def reference_iso_pair_search(g: nil2.Nil2Group, h: nil2.Nil2Group, homs=False):
    """The first (fab, fcomm, gamma, delta) over the isomorphism pairs, with
    no pruning: `_presentations` runs over every pair until one solves."""
    if g.order() != h.order():
        return None
    return next(qmaps._presentations(g, h, ab.isomorphisms(g.A, h.A),
                                     list(ab.isomorphisms(g.B, h.B)), homs), None)
