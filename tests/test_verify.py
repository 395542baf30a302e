"""The lemma suites on the integer Cayley tables: one configuration that
sweeps the whole catalog, and each planted fault in an element or q-map
operation it checks makes the named check line FAIL."""

from nil2q import catalog, nil2, qmaps, verify


def _failed(results):
    return {(r.check_id, r.instance) for r in results if not r.ok}


def test_lemma_suites_cover_the_catalog():
    results = verify.run_suites(["lemmas"])
    assert all(r.ok for r in results) and len(results) == 126
    groups = [name for name, _ in catalog.standard_catalog(125)]
    pairs = [f"{g}->{h}" for g, h in verify.QMAP_PAIRS_SMALL + verify.QMAP_PAIRS_27]
    assert len(groups) == 12 and len(pairs) == 9
    assert {r.instance for r in results} == set(groups) | set(pairs)


def test_lemma_suites_catch_planted_faults(monkeypatch):
    # (a) -x wrong off the centre: the table's -x - y + x + y disagrees with comm
    neg = nil2.Nil2Element.__neg__

    def bad_neg(z):
        g = z.group
        if z.a.is_zero() or not g.B.rank:
            return neg(z)
        return neg(z) + g.central(g.B.gen(0))

    with monkeypatch.context() as m:
        m.setattr(nil2.Nil2Element, "__neg__", bad_neg)
        assert ("commutator-definition", "Q8") in _failed(verify.suite_element_identities())

    # (b) the pairing transposed: -[x, y] differs from [x, y] in Heis3
    pairing = nil2.CentralExtension.commutator_pairing
    with monkeypatch.context() as m:
        m.setattr(nil2.CentralExtension, "commutator_pairing",
                  lambda g, x, y: pairing(g, y, x))
        assert ("commutator-pairing-data", "Heis3") in _failed(
            verify.suite_element_identities())

    # (c) the cross data transposed: (x|y) read as (y|x).  The first maps of
    # each order-27 pair all have fab = fcomm = 0, so a symmetric delta that
    # transposing keeps: the family strides over the whole enumeration
    cross = qmaps.QMap.cross_data
    with monkeypatch.context() as m:
        m.setattr(qmaps.QMap, "cross_data", lambda q, a, b: cross(q, b, a))
        failed = _failed(verify.suite_qmap_identities())
    for g, h in [("D4", "Q8")] + verify.QMAP_PAIRS_27:
        assert ("qmap-cross-matches-data", f"{g}->{h}") in failed

    # (d) (-2)·z shifted by a central generator; n·z is __rmul__ for int n
    mul = nil2.Nil2Element.__mul__

    def bad_mul(z, n):
        w = mul(z, n)
        if n != -2 or not z.group.B.rank:
            return w
        return w + z.group.central(z.group.B.gen(0))

    with monkeypatch.context() as m:
        m.setattr(nil2.Nil2Element, "__mul__", bad_mul)
        m.setattr(nil2.Nil2Element, "__rmul__", bad_mul)
        assert ("multiple-identity", "Q8") in _failed(verify.suite_element_identities())

