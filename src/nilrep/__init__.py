"""Topology of representation varieties of nilpotent groups.

For a finitely generated nilpotent group and a complex reductive target
given by catalog data, this package computes what the abelianization
determines: the homotopy reduction of the identity component to
commuting tuples, fundamental groups of the representation and character
varieties, their exact Poincare polynomials via Weyl-invariant theory,
and connectivity verdicts via finite quotients.
"""

from .errors import (InexactDivision, NilrepError, ParseError, TooLarge,
                     UnsupportedGroup, UnsupportedQuotient, UnsupportedType)
from .groups import (ABELIAN_ON_TRUST, ABELIAN_OUTRIGHT, AbelianInvariants,
                     DirectProduct, FiniteAbelian, FreeAbelian, FreeNilpotent,
                     GroupSpec, Heisenberg, LowerCentralData, Presentation,
                     Presented, Word, abelianize, commutator, concat,
                     free_nilpotent_lcs_ranks, gen, heisenberg_presentation,
                     inverse, is_abelian, lower_central_data, power,
                     quotient_by_lcs)
from .snf import cokernel_invariants, int_det, integer_rank, smith_normal_form
from .rootdata import (Factor, ReductiveSpec, RootDatum, build_root_datum,
                       enumerate_weyl, pi1_G, pi1_G_ab, reductive)
from .invariants import (GradedPoly, coinvariant_char, exterior_char,
                         exterior_invariant_dims_oracle, poincare_char_variety,
                         poincare_hom_component, poly)
from .finitehom import (FiniteGroup, HomSearchResult, Verdict,
                        central_image_order_bound, connectivity_verdict,
                        cyclic, dihedral, enumerate_homs, q8,
                        surjection_witness)
from .parsing import parse_group_spec, parse_reductive_spec
from .report import AnalysisReport, analyze

__version__ = "0.1.0"

__all__ = [
    "ABELIAN_ON_TRUST", "ABELIAN_OUTRIGHT", "AbelianInvariants",
    "AnalysisReport", "DirectProduct", "Factor", "FiniteAbelian",
    "FiniteGroup", "FreeAbelian", "FreeNilpotent",
    "GradedPoly", "GroupSpec", "Heisenberg", "HomSearchResult",
    "InexactDivision", "LowerCentralData", "NilrepError", "ParseError",
    "Presentation", "Presented", "ReductiveSpec", "RootDatum", "TooLarge",
    "UnsupportedGroup", "UnsupportedQuotient", "UnsupportedType", "Verdict",
    "Word", "abelianize", "analyze", "build_root_datum",
    "central_image_order_bound", "coinvariant_char", "cokernel_invariants",
    "commutator", "concat", "connectivity_verdict", "cyclic", "dihedral",
    "enumerate_homs", "enumerate_weyl", "exterior_char",
    "exterior_invariant_dims_oracle", "free_nilpotent_lcs_ranks", "gen",
    "heisenberg_presentation", "int_det", "integer_rank", "inverse",
    "is_abelian", "lower_central_data", "parse_group_spec",
    "parse_reductive_spec", "pi1_G", "pi1_G_ab", "poincare_char_variety",
    "poincare_hom_component", "poly", "power", "q8", "quotient_by_lcs",
    "reductive", "smith_normal_form", "surjection_witness",
]
