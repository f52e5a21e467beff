"""Exact spectra of graph join operations, verified against a dense oracle.

Characteristic polynomials of joins (plain, subset-constrained,
lexicographic, corona) and of their universal matrices
alpha*A + beta*I + gamma*J + delta*D are computed exactly over the rationals
through block resolvent forms, and every route can be checked
coefficient-for-coefficient against a brute-force dense construction.
"""

from .errors import DomainError, PreconditionError, ShapeError, SpecError
from .graphs import Graph, VertexSubset, load_graph
from .joins import (
    JoinSpec,
    SpecialEigenvalueSplit,
    UniversalParams,
    classify_special_eigenvalues,
    corona_as_hjoin,
    generalized_corona,
    h_generalized_join,
    h_join,
    is_k_tau_regular,
    join_graph,
    join_weights,
    lexicographic,
    load_join_spec,
    universal_matrix,
)
from .kernel import BACKEND as KERNEL_BACKEND
from .matrices import RationalMatrix, charpoly, determinant, poly_det
from .oracle import CompareResult, assemble, check, compare, join_truth, oracle_charpoly, oracle_spectrum
from .polynomials import Polynomial, poly_gcd, square_free_decomposition
from .resolvent import ResolventForm, main_poles, resolvent_form
from .roots import real_roots
from .spectra import (
    CoupledBlocks,
    SpectrumReport,
    corona_charpoly,
    corona_charpoly_via_join,
    coupled_charpoly,
    coupled_spectrum,
    coupling_poly,
    generalized_charpoly,
    hgen_join_charpoly,
    hgen_join_spectrum,
    hjoin_universal_charpoly,
    hjoin_universal_spectrum,
    hjoin_universal_spectrum_alpha_delta_zero,
    hjoin_universal_spectrum_regular,
    join_charpoly,
    join_spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "DomainError",
    "PreconditionError",
    "ShapeError",
    "SpecError",
    "Graph",
    "VertexSubset",
    "load_graph",
    "JoinSpec",
    "SpecialEigenvalueSplit",
    "UniversalParams",
    "classify_special_eigenvalues",
    "corona_as_hjoin",
    "generalized_corona",
    "h_generalized_join",
    "h_join",
    "is_k_tau_regular",
    "join_graph",
    "join_weights",
    "lexicographic",
    "load_join_spec",
    "universal_matrix",
    "RationalMatrix",
    "charpoly",
    "determinant",
    "poly_det",
    "CompareResult",
    "assemble",
    "check",
    "compare",
    "join_truth",
    "oracle_charpoly",
    "oracle_spectrum",
    "Polynomial",
    "poly_gcd",
    "square_free_decomposition",
    "ResolventForm",
    "main_poles",
    "resolvent_form",
    "real_roots",
    "CoupledBlocks",
    "SpectrumReport",
    "corona_charpoly",
    "corona_charpoly_via_join",
    "coupled_charpoly",
    "coupled_spectrum",
    "coupling_poly",
    "generalized_charpoly",
    "hgen_join_charpoly",
    "hgen_join_spectrum",
    "hjoin_universal_charpoly",
    "hjoin_universal_spectrum",
    "hjoin_universal_spectrum_alpha_delta_zero",
    "hjoin_universal_spectrum_regular",
    "join_charpoly",
    "join_spectrum",
    "__version__",
]
