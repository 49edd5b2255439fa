"""Exact-arithmetic workbench for the mod-2 Steenrod algebra.

Each name is imported from the module that defines it; the package root
re-exports nothing.  The layers, each importing only the ones it needs:
`gf2` (bitset linear algebra), `milnor` (the dual algebra in the Milnor
basis and sub-Hopf quotient profiles), `bv` (the homology of elementary
abelian 2-groups with its Steenrod action), `cobar` (the reduced cobar
complex) and `transfer` (the rank-n algebraic transfer).  `hit`
(hit-problem tools) and `stratr` (invariants of a stratified limit
algebra) are independent routes; `checks` and `cli` sit on top.
"""

__version__ = "0.1.0"
