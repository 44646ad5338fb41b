"""Exact toric data of weighted projective spaces.

Fans, polytopes, divisor classes and cohomology dimensions computed in
exact arbitrary-precision arithmetic, with recognition procedures that
decide whether a given integer matrix or lattice simplex presents such
a space.
"""

from .linalg import (DimensionError, IntMatrix, SingularMatrixError, adjoint, is_hnf,
                     max_minors, what_matrix)
from .weights import (ReductionData, WeightsVector, is_reduced, isomorphic,
                      reduce_weights, reduction_data)
from .fan import (FanMatrix, FanRejection, canonical_fan, fan_isomorphic,
                  permutation_matrix, recognize_fan)
from .polytope import (LatticeSimplex, PolarizedWps, PolytopeRejection,
                       is_p_admissible, permute_polytope, polytope_of,
                       recognize_polytope, weighted_transverse)
from .lattice import count_interior, count_points, face_histogram
from .cohomology import (DivisorClassInfo, HodgeTable, divisor_info, h0_line_bundle,
                         hodge, hodge_table, rational_homology)

__version__ = "0.1.0"

__all__ = [
    "IntMatrix", "SingularMatrixError", "DimensionError",
    "is_hnf", "max_minors", "adjoint", "what_matrix",
    "WeightsVector", "ReductionData", "reduction_data", "reduce_weights",
    "is_reduced", "isomorphic",
    "FanMatrix", "FanRejection", "recognize_fan",
    "canonical_fan", "fan_isomorphic", "permutation_matrix",
    "LatticeSimplex", "PolarizedWps", "PolytopeRejection",
    "weighted_transverse", "polytope_of", "is_p_admissible", "recognize_polytope",
    "permute_polytope",
    "count_points", "count_interior", "face_histogram",
    "DivisorClassInfo", "HodgeTable", "divisor_info", "rational_homology",
    "h0_line_bundle", "hodge", "hodge_table",
]
