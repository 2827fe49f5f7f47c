"""Weighted combinatorial Hodge theory on triangulated closed manifolds.

The package computes harmonic cochain bases under diagonal metric weights,
the exact intersection form, a quantitative "formality residual" for cup
products of harmonic cochains, a derivative-free search for residual-
minimizing weights, and the elementary low-dimensional obstruction rules.
"""

__version__ = "0.1.0"

from .complexes import (
    SimplicialComplex,
    build_complex,
    connected_sum,
    is_closed_pseudomanifold,
    load_bundled_complex,
    load_complex,
    orient,
    product_complex,
    save_complex,
    sphere,
    surface,
    torus,
)
from .cup import IntersectionForm, intersection_form
from .errors import NumericalError
from .formality import (
    FormalityReport,
    SearchConfig,
    formality_residual,
    search_formal_weights,
)
from .hodge import (
    HarmonicBasis,
    MetricWeights,
    harmonic_basis,
    random_weights,
    spectral_gaps,
    unit_weights,
    weights_from_arrays,
)
from .homology import (
    betti_numbers,
    boundary_matrix,
    euler_characteristic,
    poincare_duality_check,
)
from .obstructions import (
    CohomologySummary,
    ObstructionReport,
    check_obstructions,
    classify_symmetric_model,
    load_summary,
    summarize,
)

__all__ = [
    "__version__",
    "SimplicialComplex",
    "build_complex",
    "is_closed_pseudomanifold",
    "orient",
    "product_complex",
    "connected_sum",
    "sphere",
    "torus",
    "surface",
    "load_complex",
    "save_complex",
    "load_bundled_complex",
    "boundary_matrix",
    "betti_numbers",
    "euler_characteristic",
    "poincare_duality_check",
    "MetricWeights",
    "HarmonicBasis",
    "unit_weights",
    "random_weights",
    "weights_from_arrays",
    "harmonic_basis",
    "spectral_gaps",
    "IntersectionForm",
    "intersection_form",
    "FormalityReport",
    "SearchConfig",
    "formality_residual",
    "search_formal_weights",
    "CohomologySummary",
    "ObstructionReport",
    "summarize",
    "check_obstructions",
    "classify_symmetric_model",
    "load_summary",
    "NumericalError",
]
