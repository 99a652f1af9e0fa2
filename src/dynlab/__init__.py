"""Desk-scale laboratory for iterated function systems, skew products over
shifts, blender models and twist-map transitivity experiments."""

from .spaces import Box, Circle, Interval, StateSpace, annulus, torus, unit_interval_space
from .maps import SmoothMap, affine_map, check_symplectic, compose, identity_map, jacobian, pair_shear
from .integrate import hamiltonian_flow
from .fixed_points import FixedPointRecord, check_weak_hyperbolic, find_fixed_point
from .ifs import (
    IFS,
    ReachSet,
    forward_orbit,
    minimality_experiment,
    recurrence_experiment,
    replay_check,
)
from .covering import (
    CoveringCertificate,
    backward_itinerary,
    certify_densities,
    certify_density,
    compute_d,
    construct_translations,
    cover_unit_ball,
    translation_count,
    verify_covering,
    verify_well_distributed,
)
from .shifts import ShiftPoint, insert_word
from .skew import (
    SkewProduct,
    UnstableEnumeration,
    affine_fiber,
    enumerate_unstable,
    iterate_skew,
    local_unstable,
    project_unstable_equals_ifs,
    verify_symbolic_cs_blender,
    verify_symbolic_double_blender,
)
from .horseshoe import HorseshoeBase
from .blender import (
    ConeField,
    GeometricBlenderModel,
    Strip,
    build_geometric_model,
    sample_strips,
    verify_cone_invariance,
    verify_covering_geometric,
    verify_double_blender,
    verify_strip_intersection,
    verify_strips,
)
from .bumps import hamiltonian_bump_translation
from .twist import (
    ToriChain,
    bump_eta,
    chain_of_tori_search,
    conjugating_shear,
    flow_h_epsilon,
    minimal_generator_pack,
    shadow_chain,
    twist_map,
)
from .fmu import (
    BlockSchedule,
    FlowFamily,
    almost_minimality_experiment,
    build_F_mu,
    depth_from_diameter,
    shear_family,
    weak_hyperbolicity_budget,
)
from .perturb import perturb_ifs, perturb_map, robustness_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
