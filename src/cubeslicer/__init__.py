"""Hypercube edge-slicing toolkit.

Four layers: exact cube/crossing primitives (`core`, `decomp`), randomized
samplers (`sampler`), the anti-concentration oracle and bound checks
(`anticonc`), and the verification/estimation/search machinery
(`verifier`, `lab`) wired together by the `cubeslicer` CLI (`cli`).
"""

from .anticonc import (
    AtomDistribution,
    LinearFormSpec,
    group_bound_check,
    group_bound_r,
    hoeffding_check,
    levy_q,
    levy_scaling_check,
    linear_form_atoms,
    littlewood_check,
    sperner_bound,
)
from .core import (
    Configuration,
    Edge,
    Hyperplane,
    Vertex,
    config_from_json_dict,
    config_to_json_dict,
    construction,
    crossing_necessary,
    edge_crosses,
    edge_endpoints,
    iter_edges,
    make_hyperplane,
    total_edges,
)
from .decomp import BinaryDecomposition, binary_decompose, recompose
from .errors import SlicerError
from .lab import (
    EstimateReport,
    SweepCell,
    estimate_evasion,
    estimate_glue_sum,
    estimate_linf_tail,
    local_search_slicing,
    random_unit_configuration,
    run_estimator,
    sweep,
)
from .sampler import (
    BiasVector,
    RngSpec,
    sample_bias,
    sample_bias_conditioned,
    sample_bias_simple,
    sample_evasive_edge,
    sample_mu,
)
from .verifier import SlicingReport, crossing_counts, max_crossings_bound, verify_slicing

__version__ = "0.1.0"
