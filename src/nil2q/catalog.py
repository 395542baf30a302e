"""The worked example groups used throughout the test and report suites.

Encodings follow the cocycle normal form: for instance Q8 and D4 share
A = Z/2 + Z/2, B = Z/2 and the bilinear part bil[1][2] = 1; they differ
only in the carries ((1),(1)) versus ((1),(0)).  The `*_oracle` tables
load `ingest` when called.
"""

from __future__ import annotations

from . import abelian as ab
from . import nil2


def cyclic(n: int) -> nil2.Nil2Group:
    """Z/n (n = 0 for Z) as an abelian nil_2-group."""
    return nil2.from_abelian(ab.FGAbelian([n]))


def abelian_group(orders) -> nil2.Nil2Group:
    return nil2.from_abelian(ab.FGAbelian(orders))


def _two_generator(porders, bord, carries) -> nil2.Nil2Group:
    a = ab.FGAbelian(porders)
    b = ab.FGAbelian([bord])
    z = b.zero()
    one = b._trusted([1])
    bil = [[z, one], [z, z]]
    carry = [b._trusted([c]) for c in carries]
    return nil2.Nil2Group(a, b, bil, carry)


def quaternion() -> nil2.Nil2Group:
    """Q8: both generator squares hit the central involution."""
    return _two_generator([2, 2], 2, [1, 1])


def dihedral4() -> nil2.Nil2Group:
    """D4 of order 8: one generator square is central, one is trivial."""
    return _two_generator([2, 2], 2, [1, 0])


def heisenberg(p: int) -> nil2.Nil2Group:
    """Z/p v Z/p: exponent p for odd p, order p^3, no carries."""
    return _two_generator([p, p], p, [0, 0])


def modular_semidirect(p: int) -> nil2.Nil2Group:
    """Z/p^2 x| Z/p with the generator acting by multiplication by p+1."""
    return _two_generator([p, p], p, [1, 0])


def quaternion_oracle():
    """The standard Q8 table on {1,-1,i,-i,j,-j,k,-k}, an `ingest.GroupOracle`."""
    from .ingest import GroupOracle
    units = ["1", "i", "j", "k"]
    mul_unit = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("j", "1"): (1, "j"), ("k", "1"): (1, "k"),
        ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
        ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
        ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
        ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
    }
    elems = [(s, u) for u in units for s in (1, -1)]
    labels = [("" if s == 1 else "-") + u for s, u in elems]
    index = {e: i for i, e in enumerate(elems)}
    table = []
    for s1, u1 in elems:
        row = []
        for s2, u2 in elems:
            s3, u3 = mul_unit[(u1, u2)]
            row.append(index[(s1 * s2 * s3, u3)])
        table.append(row)
    return GroupOracle(labels, table, index[(1, "1")])


def dihedral4_oracle():
    from .ingest import semidirect
    return semidirect(4, 2, 3)


def heisenberg_oracle(p: int):
    return nil2.table_of(heisenberg(p))


def standard_catalog(max_order: int = 32):
    """Named groups for the exhaustive suites, capped by order."""
    groups = [
        ("Z2", cyclic(2)),
        ("Z4", cyclic(4)),
        ("V4", abelian_group([2, 2])),
        ("D4", dihedral4()),
        ("Q8", quaternion()),
        ("Z2vZ2", nil2.coproduct(cyclic(2), cyclic(2))),
        ("Q8xZ2", nil2.product(quaternion(), cyclic(2))),
        ("Heis3", heisenberg(3)),
        ("G27", modular_semidirect(3)),
        ("Heis5", heisenberg(5)),
        ("G125", modular_semidirect(5)),
        ("D4xD4", nil2.product(dihedral4(), dihedral4())),
    ]
    return [(name, g) for name, g in groups if g.order() <= max_order]
