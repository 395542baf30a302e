"""Acceptance criteria, one test per criterion.

Each test drives the corresponding verification suite at the scale fixed
by the criterion, prints a single PASS/FAIL line (run with `pytest -s`
to see them), and fails on any violated check.  All arithmetic is exact;
every comparison is equality at zero tolerance.
"""

from nil2q import verify
from nil2q.report import all_ok


def _finish(tag: str, results):
    status = "PASS" if all_ok(results) else "FAIL"
    print(f"ACCEPTANCE {tag}: {status} ({len(results)} checks)")
    bad = [r.line() for r in results if not r.ok]
    assert not bad, f"{tag} violations:\n" + "\n".join(bad)


def test_c1_identity_suite():
    # the one lemma configuration, as `nil2q selftest --suite lemmas` runs
    # it: element identities exhaustively on all pairs of the named catalog
    # groups (including both order-125 members), n in -5..5; the weakly
    # quadratic identity family pointwise for sampled q-maps per pair; both
    # read off the integer Cayley tables
    assert verify.MULTIPLE_RANGE == range(-5, 6)
    _finish("C1 identity-suite", verify.run_suites(["lemmas"]))


def test_c2_coproduct_correctness():
    # Z/2 v Z/2 is D4 via an explicit isomorphism; the universal property
    # over all enumerated homomorphism pairs into targets of order <= 16;
    # the free-group central extension for ranks 1..3
    assert verify.COPRODUCT_TARGET_ORDER == 16
    _finish("C2 coproduct", verify.suite_coproduct())


def test_c3_qmap_algebra():
    # qw(G,H) closed under + and -, cross-effect sum formulas pointwise,
    # composition formula and left distributivity on order <= 8 triples
    _finish("C3 qmap-algebra", verify.suite_qmap_algebra())


def test_c4_enumeration():
    # presentation enumeration matches the brute-force set-map filter for
    # |G|,|H| <= 8; abelian targets give exactly Hom; |qw(Z, Q8)| = 16
    _finish("C4 enumeration", verify.suite_enumeration())


def test_c5_classification():
    # q-split: yes for D4 and Q8 with verified sections, no for the
    # semidirect families at p = 3 and p = 5; Niq-isomorphism yes for
    # (D4, Q8) with an invertible witness, no for (Heis3, G27); all
    # applicable decision paths agree
    _finish("C5 classification", verify.suite_classification(max_order=125))


def test_c6_linear_extensions():
    # both linear-extension levels: fiber transitivity, freeness modulo
    # the null subgroup, and the distributivity law on |G|,|H| <= 8
    _finish("C6 linear-extensions", verify.suite_linext())


def test_c7_maltsev():
    # exp/log mutually inverse on all odd catalog objects of order <= 125;
    # commutator = bracket; the (g,h) characterization count identity at
    # order 27 with sampled round trips; the log criterion agrees with
    # witness search on all order-27 catalog pairs
    _finish("C7 maltsev", verify.suite_maltsev(max_order=125))


def test_c8_negative_control():
    # the bijective q-map (Z/2)^3 -> Z/2 v Z/2 has a non-q-map inverse and
    # the groups are not isomorphic in Niq
    _finish("C8 negative-control", verify.suite_negative_control())
