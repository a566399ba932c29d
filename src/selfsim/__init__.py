"""Affine self-similar functions on [0,1].

Construction of fixed points of contractive similarity operators, exact
evaluation at refinement-mesh points, a-priori norm bounds, regularity
criteria (continuity, monotonicity, bounded variation) and the induced
self-similar measures.
"""

from . import errors
from .analysis import (
    NormBound,
    RegularityVerdict,
    continuity_check,
    family_bound,
    monotonicity_classify,
    norm_bound,
    stability_bound,
    variation_criterion,
    variation_on_mesh,
)
from .measure import (
    SelfSimilarMeasure,
    cdf_consistency,
    coded_interval,
    coded_interval_mass,
    coded_intervals,
    measure_from_function,
    sample,
)
from .paramfile import read_system, system_from_dict, system_to_dict, write_system
from .presets import PRESET_NAMES, build_preset
from .params import (
    ContractionReport,
    Partition,
    SimilaritySystem,
    contraction_factor,
    validate,
    weighted_pair_norm,
)
from .pwl import PiecewiseLinearFn
from .simop import (
    apply_G,
    boundary_anchors,
    build_mesh,
    code_to_segment,
    exact_value_at_code_point,
    mesh_code_values,
)
from .solver import SolveResult, lp_distance, lp_norm, solve

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
