import types

import selfsim

# the public names, without the submodules; a new name is a deliberate change
PUBLIC = {
    "ContractionReport",
    "NormBound",
    "PRESET_NAMES",
    "Partition",
    "PiecewiseLinearFn",
    "RegularityVerdict",
    "SelfSimilarMeasure",
    "SimilaritySystem",
    "SolveResult",
    "apply_G",
    "boundary_anchors",
    "build_mesh",
    "build_preset",
    "cdf_consistency",
    "code_to_segment",
    "coded_interval",
    "coded_interval_mass",
    "coded_intervals",
    "continuity_check",
    "contraction_factor",
    "exact_value_at_code_point",
    "family_bound",
    "lp_distance",
    "lp_norm",
    "measure_from_function",
    "mesh_code_values",
    "monotonicity_classify",
    "norm_bound",
    "read_system",
    "sample",
    "solve",
    "stability_bound",
    "system_from_dict",
    "system_to_dict",
    "validate",
    "variation_criterion",
    "variation_on_mesh",
    "weighted_pair_norm",
    "write_system",
}


def test_public_names():
    names = {n for n in selfsim.__all__ if not isinstance(getattr(selfsim, n), types.ModuleType)}
    assert names == PUBLIC


def test_traced_functions_exist():
    # the benchmark's tracer rebinds these by module and name
    assert callable(selfsim.simop.build_mesh)
    assert callable(selfsim.measure.coded_interval)
    assert callable(selfsim.measure.coded_interval_mass)
