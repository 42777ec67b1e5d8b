"""gwpskit: exact combinatorial invariants of Gorenstein weighted projective
3-spaces - classification, anticanonical Betti numbers, and extendability
counts via the degree -1 tangent module of the affine cone."""

__version__ = "0.1.0"

from .lattice import count_points, degree_slice, h_vector
from .resolution import beta2, quartic_check
from .tangent import alpha_report, t1_by_shift
from .toric import beta1, check_degree3_generation, quadric_generators
from .wps import (
    WeightedSpace,
    WeightValidationError,
    enumerate_gorenstein,
    invariants,
    restriction_invertible,
    veronese_presentation,
    weighted_space,
)

__all__ = [
    "WeightedSpace",
    "WeightValidationError",
    "alpha_report",
    "beta1",
    "beta2",
    "check_degree3_generation",
    "count_points",
    "degree_slice",
    "enumerate_gorenstein",
    "h_vector",
    "invariants",
    "quadric_generators",
    "quartic_check",
    "restriction_invertible",
    "t1_by_shift",
    "veronese_presentation",
    "weighted_space",
]
