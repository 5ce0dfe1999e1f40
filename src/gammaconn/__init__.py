"""Exact computation of the l-infinity analogue of algebraic connectivity.

For a connected graph the invariant equals the vertex count divided by the
maximum vertex transmission (the largest distance-matrix row sum); a
linear-programming formulation provides an independent cross-check.
"""

from . import errors
from .families import (
    FamilySpec,
    cartesian_product,
    closed_form_gamma,
    gamma_harmonic,
    generate,
)
from .graph import (
    UNREACHABLE,
    Graph,
    TransmissionTable,
    components,
    distance_matrix,
    from_edge_list,
    is_connected,
    is_tree,
    transmission_table,
    tree_transmissions,
)
from .invariants import (
    BoundEntry,
    BoundReport,
    GammaCertificate,
    Rational,
    SpectralEstimate,
    WitnessResiduals,
    algebraic_connectivity,
    b_small_oracle,
    bound_report,
    cheeger_constant,
    distance_spectral_radius,
    gamma,
    gamma_objective,
    is_transmission_regular,
    normalized_laplacian_mu,
)
from .lp import gamma_lp_details

__version__ = "0.1.0"

__all__ = [
    "BoundEntry",
    "BoundReport",
    "FamilySpec",
    "GammaCertificate",
    "Graph",
    "Rational",
    "SpectralEstimate",
    "TransmissionTable",
    "UNREACHABLE",
    "WitnessResiduals",
    "algebraic_connectivity",
    "b_small_oracle",
    "bound_report",
    "cartesian_product",
    "cheeger_constant",
    "closed_form_gamma",
    "components",
    "distance_matrix",
    "distance_spectral_radius",
    "errors",
    "from_edge_list",
    "gamma",
    "gamma_harmonic",
    "gamma_lp_details",
    "gamma_objective",
    "generate",
    "is_connected",
    "is_transmission_regular",
    "is_tree",
    "normalized_laplacian_mu",
    "transmission_table",
    "tree_transmissions",
]
