"""nil2q: class-two nilpotent groups as explicit 2-cocycle data.

Subpackages:
  abelian   exact arithmetic for finitely generated abelian groups
  nil2      nil_2-groups, constructions, canonicalization, oracles
  qmaps     the q-map calculus (presentation, evaluation, algebra)
  classify  q-splitness, similarity, Niq-isomorphism
  linext    linear extensions: ~ and ==, beta, P2 factorization, verifiers
  maltsev   class-two Lie rings and the exp/log correspondence
  catalog   the worked example groups
  cli       command-line interface
"""

__version__ = "0.1.0"
