"""Exact efficiency analysis for reciprocal pairwise-comparison matrices.

A weight vector approximates a reciprocal matrix efficiently when no other
vector improves every entrywise residual.  Everything here runs in exact
rational arithmetic: certificates are decided by the strong connectivity of
a dominance digraph, the efficient set decomposes into convex cones indexed
by Hamiltonian cycles with sub-unit product, and column-perturbed
consistent matrices get closed-form efficient sets.
"""

from .bruteforce import DominanceProbe, dominance_search, exhaustive_hamiltonian, probe
from .cones import (
    EfficiencyCone,
    cycle_product,
    efficiency_cone,
    resolve_unit_cycle,
)
from .decomposition import (
    ConvexityReport,
    Decomposition,
    convexity_report,
    decompose,
    enumerate_cycles,
    membership,
)
from .digraph import (
    DominanceDigraph,
    EfficiencyCertificate,
    HamiltonianCycle,
    build_digraph,
    common_digraph,
    improve,
    is_efficient,
)
from .errors import CapExceededError, ConvergenceError, EffvecError, ParseError
from .formats import (
    format_matrix,
    format_rational,
    format_vector,
    matrix_to_json,
    parse_matrix,
    parse_rational,
    parse_vector,
)
from .generators import generate, random_weight_vector
from .matrices import (
    MonomialTransform,
    ReciprocalMatrix,
    Vec,
    as_weight_vector,
    consistent_matrix,
    is_consistent,
    monomial_similarity,
    normalize,
    proportional,
    transform_vector,
)
from .perturbed import (
    ColumnPerturbedForm,
    EfficiencyBand,
    classify_perturbation,
    detect_column_perturbed,
    efficient_set_union,
)
from .ranking import (
    RankingCandidate,
    column_vector,
    columns_common_cone,
    perron_vector,
    singular_vector,
    weighted_geometric,
)
from .reversals import ReversalReport, count_reversals, min_reversal_vector

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CapExceededError",
    "ColumnPerturbedForm",
    "ConvergenceError",
    "ConvexityReport",
    "Decomposition",
    "DominanceDigraph",
    "DominanceProbe",
    "EffvecError",
    "EfficiencyBand",
    "EfficiencyCertificate",
    "EfficiencyCone",
    "HamiltonianCycle",
    "MonomialTransform",
    "ParseError",
    "RankingCandidate",
    "ReciprocalMatrix",
    "ReversalReport",
    "Vec",
    "as_weight_vector",
    "build_digraph",
    "classify_perturbation",
    "column_vector",
    "columns_common_cone",
    "common_digraph",
    "consistent_matrix",
    "convexity_report",
    "count_reversals",
    "cycle_product",
    "decompose",
    "detect_column_perturbed",
    "dominance_search",
    "efficiency_cone",
    "efficient_set_union",
    "enumerate_cycles",
    "exhaustive_hamiltonian",
    "format_matrix",
    "format_rational",
    "format_vector",
    "generate",
    "improve",
    "is_consistent",
    "is_efficient",
    "matrix_to_json",
    "membership",
    "min_reversal_vector",
    "monomial_similarity",
    "normalize",
    "parse_matrix",
    "parse_rational",
    "parse_vector",
    "perron_vector",
    "probe",
    "proportional",
    "random_weight_vector",
    "resolve_unit_cycle",
    "singular_vector",
    "transform_vector",
    "weighted_geometric",
]
