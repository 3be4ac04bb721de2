"""Exact-arithmetic computations on quadratic algebras.

Construction and certification of quadratic algebras over the rationals:
quadratic duals, bounded Koszul certificates, graded Frobenius structure
with Nakayama automorphisms, twisted superpotentials and their derivation
quotients, skew polynomial extensions by a degree-one twist, trivial
extension models of Yoneda algebras, filtered deformations with curved
differential duals, and the associated Calabi-Yau verdicts.

The bundled example algebras exist only as the JSON documents in
quadalg/corpus; parse_description reads them like any other input.
"""

from .linalg import (ConsistencyError, LinAlgError, Matrix, ResourceLimitError,
                     Subspace, Vec)
from .tensors import (add_into, apply_slotwise, contract_left, contract_right,
                      index_to_word, preserves_subspace, tau, word_to_index)
from .frobenius import (FrobeniusStructure, GradedFDAlgebra, NotFrobenius,
                        frobenius_structure, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .quadratic import (KoszulCertificate, QuadraticAlgebra, TruncatedAlgebra,
                        graded_dims, koszul_component,
                        numeric_koszul_certificate, truncated_structure)
from .regular import (NotRegular, RegularityCertificate,
                      as_regular_certificate, dim2_matrix_form,
                      nakayama_of_algebra, regularity_data)
from .superpotential import (PresentationReport, SuperpotentialData,
                             derivation_quotient, extract_superpotential,
                             is_twisted_superpotential, symmetrize,
                             verify_superpotential_presentation)
from .skew import (CYReport, IsoReport, SkewExtension, cy_check_with,
                   ext_algebra_of_skew, fresh_letter, skew_extend,
                   verify_ext_algebra_isomorphism,
                   verify_extended_presentation)
from .pbw import (Cdga, CdgaAxiomReport, CompatibilityReport,
                  DeformedCYReport, EquivalenceReport, PBWDeformation,
                  check_cdga_axioms, cy_criterion_deformed,
                  cy_equivalence_dim2, dual_cdga, nakayama_cdga_compatibility,
                  nakayama_shift, skew_deformation)
from .io import (AlgebraDescription, ValidationError, description_deformation,
                 description_to_algebra, parse_description)

__all__ = [name for name in dir() if not name.startswith("_")]
