"""The lemma suites on the integer Cayley tables: one configuration that
sweeps the whole catalog, and each planted fault in an element or q-map
operation it checks makes the named check line FAIL.  The families the
suites pick reach every block of an enumeration, so a composition that
drops the fcomm term fails the `linext` and `qmaps` suites."""

import io

from nil2q import catalog, cli, linext, nil2, qmaps, verify
from nil2q.report import pick


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



def test_pick_spreads_over_the_enumeration_blocks():
    for n in range(0, 300):
        for cap in (1, 3, 5, 8, 30, 120):
            at = pick(range(n), cap)
            assert at == sorted(set(at)) and len(at) == min(n, cap)
            assert at[:1] == list(range(n))[:1]
    # D4 -> Q8 lists its 256 maps in blocks of 16 per fab; a stride of 33,
    # which is 1 mod 16, kept only maps with fcomm = 0
    cat = dict(catalog.standard_catalog(8))
    qs = list(qmaps.enumerate_qmaps(cat["D4"], cat["Q8"]))
    assert [q.fcomm.is_zero() for q in qs[::33]] == [True] * 8
    assert not all(q.fcomm.is_zero() for q in pick(qs, verify.COMPOSE_CAP))


def _compose_without_fcomm(f, g):
    """f o g with the f(δ_g) term of the cross-effect dropped."""
    r = g.source.rank
    gamma = [f.eval(g.gen_image(i)).b for i in range(r)]
    delta = [[f.cross_data(g.fab.column(i).coords, g.fab.column(j).coords)
              for j in range(r)] for i in range(r)]
    return qmaps.QMap(g.source, f.target, f.fab.compose(g.fab),
                      f.fcomm.compose(g.fcomm), gamma, delta)


def test_distributivity_quadruples_reach_outer_maps_with_fcomm(monkeypatch):
    cat = dict(catalog.standard_catalog(8))
    compose, outer = qmaps.QMap.compose, []

    def recording(f, g):
        outer.append(f)
        return compose(f, g)

    monkeypatch.setattr(qmaps.QMap, "compose", recording)
    assert all(r.ok for r in linext.linear_extension_verify("niq", cat["Q8"], cat["Q8"]))
    assert any(not f.fcomm.is_zero() for f in outer)


def test_suites_catch_a_composition_without_the_fcomm_term(monkeypatch):
    monkeypatch.setattr(qmaps.QMap, "compose", _compose_without_fcomm)
    failed = _failed(verify.suite_linext())
    assert {("distributivity", "niq:D4|D4"), ("distributivity", "niq:Q8|Q8")} <= failed
    # the qmaps suite's composite maps fail validation: an internal error
    out = io.StringIO()
    assert cli.main(["selftest", "--suite", "qmaps"], out=out) == 3
    assert "internal error: suite qmaps raised NotAQMap" in out.getvalue()
