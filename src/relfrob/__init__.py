"""Special Frobenius structures over finite relations.

Build them from groups, verify their axioms with witnessed verdicts,
enumerate them up to relabeling, search for them exhaustively, and take
them apart into group blocks again.
"""

from .analysis import (DecompositionError, DecompositionResult, PreconditionError,
                       QuantumStructure, check_duality, classical_elements,
                       comonoid_subobjects, decompose, is_partial_bijection,
                       quantum_structure, represent, star)
from .classify import (BudgetExceededError, CrossValidation, SearchConfig,
                       brute_force_search, cross_validate,
                       enumerate_classical_structures, enumerate_special_frobenius,
                       quotient_by_iso)
from .files import (StructureParseError, load_structure, parse_structure,
                    render_structure, save_structure)
from .frobenius import (AxiomReport, FrobeniusCandidate, FroWitness, Verdict,
                        check_fro_pointwise, satisfies_axioms, verify_structure)
from .groups import (BUILTIN_NONABELIAN, AbelianGroupSpec, GroupSpec, StructureSpec,
                     abelian_table, build_biproduct, element_orders,
                     enumerate_abelian_groups, identify_group,
                     normalize_invariant_factors, parse_structure_spec)
from .rel import Rel, bits, identity, vector

__all__ = [
    "abelian_table", "AbelianGroupSpec", "AxiomReport", "bits", "brute_force_search",
    "BudgetExceededError", "build_biproduct", "BUILTIN_NONABELIAN", "check_duality",
    "check_fro_pointwise", "classical_elements", "comonoid_subobjects", "cross_validate",
    "CrossValidation", "decompose", "DecompositionError", "DecompositionResult",
    "element_orders", "enumerate_abelian_groups", "enumerate_classical_structures",
    "enumerate_special_frobenius", "FrobeniusCandidate", "FroWitness", "GroupSpec",
    "identify_group", "identity", "is_partial_bijection", "load_structure",
    "normalize_invariant_factors", "parse_structure", "parse_structure_spec",
    "PreconditionError", "quantum_structure", "QuantumStructure", "quotient_by_iso", "Rel",
    "render_structure", "represent", "satisfies_axioms", "save_structure", "SearchConfig",
    "star", "StructureParseError", "StructureSpec", "vector", "Verdict", "verify_structure",
]
