"""Exact computations with divisors on complete toric varieties.

The library takes a complete rational fan and a torus-invariant divisor
with rational coefficients, both exactly, and computes cohomology
dimensions, Euler characteristics, asymptotic growth rates, top
self-intersection numbers, and the chamber decomposition of the
effective cone, all in rational arithmetic.
"""

from .asymptotics import asymptotic_rr_check, hhat, mixed_partial_h0, self_intersection
from .cohomology import (
    cech_oracle,
    cech_ranks,
    euler_char,
    graded_piece_dim,
    h_all,
    weak_ray_set,
)
from .divisor import (
    CartierData,
    Divisor,
    divisor,
    is_ample,
    is_cartier,
    is_q_cartier,
    linear_equiv_shift,
    ray_divisor,
)
from .errors import (
    CapExceededError,
    ChamberMembershipError,
    ChamberWallError,
    EffectiveConeError,
    InvalidFanError,
    NotCompleteError,
    NotQCartierError,
    NotSimplicialError,
    PreconditionError,
    ToricError,
    UnboundedRegionError,
    UnsupportedDimensionError,
)
from .fan import (
    Cone,
    Fan,
    all_cones,
    chi_of_fan,
    cone_multiplicity,
    fan_diagnostics,
    is_complete,
    is_simplicial,
    make_fan,
    subfan,
    validate_fan,
)
from .gkz import (
    GKZCone,
    LocatedChamber,
    NefDecomposition,
    PossiblyDegenerateFan,
    SupportFunction,
    ample_via_asymptotics,
    enumerate_maximal_chambers,
    gkz_cone,
    gkz_membership,
    hhat0_on_chamber,
    locate_chamber,
    located_cone,
    nef_decomposition,
    normal_fan,
    pushforward,
    sigma_to_fan,
    support_function,
)
from .homology import local_cohomology_ranks, reduced_homology_ranks, sphere_complex
from .regions import (
    HalfOpenRegion,
    RationalPolytope,
    bounded_subsets,
    closure_vertices,
    ehrhart_probe,
    is_bounded_subset,
    lattice_count,
    lattice_points,
    normalized_volume,
    region,
)

__version__ = "0.1.0"
