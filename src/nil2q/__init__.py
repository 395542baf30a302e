"""nil2q: class-two nilpotent groups as explicit 2-cocycle data.

Subpackages that `cli` loads, so every query compiles them:
  abelian    exact arithmetic for finitely generated abelian groups
  nil2       nil_2-groups, products, coproducts, free groups, the center
  qmaps      the q-map calculus (presentation, evaluation, algebra)
  classify   q-splitness, similarity, Niq-isomorphism
  cli        command-line interface

Subpackages that load on first use:
  abelian_constructions  subgroups, cokernels, tensor and exterior squares
  ingest                 multiplication tables, semidirect products,
                         canonicalization
  qmap_constructions     zero, power and addition maps, the structural maps
                         of products and coproducts, maps read off a function
  qmap_tables            the value tables of enumerated maps
  maltsev    class-two Lie rings and the exp/log correspondence
  linext     linear extensions: ~ and ==, beta, P2(G) and its factorization
  catalog    the worked example groups
  verify     the selftest suites
"""

__version__ = "0.1.0"
