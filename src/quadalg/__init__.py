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
from .tensors import (add_into, apply_slot_columns, contract_left,
                      contract_right, index_to_word,
                      is_twisted_superpotential, preserves_subspace, tau,
                      word_to_index)
from .frobenius import (GradedFDAlgebra, NotFrobenius, is_graded_symmetric,
                        twisted_module_trivial_extension)
from .quadratic import (KoszulCertificate, QuadraticAlgebra, TruncatedAlgebra,
                        graded_dims, koszul_component,
                        numeric_koszul_certificate, truncated_structure)
from .superpotential import derivation_quotient, symmetrize
from .regular import (NotRegular, PresentationReport, RegularityCertificate,
                      as_regular_certificate, dim2_matrix_form,
                      regularity_data)
from .skew import (IsoReport, SkewExtension, fresh_letter, skew_extend,
                   verify_extended_presentation)
from .pbw import (Cdga, CdgaAxiomReport, DeformedCYReport,
                  EquivalenceReport, PBWDeformation, check_cdga_axioms,
                  cy_equivalence_dim2, nakayama_cdga_compatibility,
                  nakayama_shift, skew_deformation)
from .io import (AlgebraDescription, ValidationError, description_deformation,
                 parse_description)

__all__ = [name for name in dir() if not name.startswith("_")]
