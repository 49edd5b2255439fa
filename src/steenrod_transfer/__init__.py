"""Exact-arithmetic workbench for the mod-2 Steenrod algebra.

Core layers: GF(2) bitset linear algebra, the dual algebra in the Milnor
basis with sub-Hopf quotient profiles, the homology of elementary abelian
2-groups with its Steenrod action, the rank-n algebraic transfer, the
reduced-coalgebra cobar complex, hit-problem tools, and a small invariant
calculus for a stratified limit algebra.
"""

__version__ = "0.1.0"

from .gf2 import BudgetError, GF2Matrix, GF2Subspace, set_bit_budget
from .milnor import (
    Profile,
    Pst,
    antipode,
    coproduct,
    dual_basis,
    frobenius,
    generators,
    xi,
)
from .bv import (
    HElement,
    annihilated_subspace,
    basis_dim,
    coinvariant_quotient,
    degree_basis,
    gl_act,
    kameko_sq0,
    kappa_rho,
    right_action,
)
from .cobar import (
    class_of,
    cohomology_dim,
    differential,
    is_cocycle,
)
from .transfer import TransferImage, f_star, transfer_chain, transfer_class, verify_cocycle
from .hit import (
    PolyElement,
    chi_sq,
    decomposables,
    is_hit,
    parse_poly,
    parse_terms,
    peterson_wood,
    sq,
)
from .stratr import is_invariant, parse_r_text, r_mono, same_s_excluded, sq_2k
from .checks import SUITES, run_criterion

__all__ = [
    "BudgetError",
    "GF2Matrix",
    "GF2Subspace",
    "HElement",
    "PolyElement",
    "Profile",
    "Pst",
    "SUITES",
    "TransferImage",
    "annihilated_subspace",
    "antipode",
    "basis_dim",
    "chi_sq",
    "class_of",
    "cohomology_dim",
    "coinvariant_quotient",
    "coproduct",
    "decomposables",
    "degree_basis",
    "differential",
    "dual_basis",
    "f_star",
    "frobenius",
    "generators",
    "gl_act",
    "is_cocycle",
    "is_hit",
    "is_invariant",
    "kameko_sq0",
    "kappa_rho",
    "parse_poly",
    "parse_r_text",
    "parse_terms",
    "peterson_wood",
    "r_mono",
    "right_action",
    "run_criterion",
    "same_s_excluded",
    "set_bit_budget",
    "sq",
    "sq_2k",
    "transfer_chain",
    "transfer_class",
    "verify_cocycle",
    "xi",
]
