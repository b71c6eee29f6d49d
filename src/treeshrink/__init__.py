"""Multistage scenario-tree reduction toolkit.

Reduces a large scenario tree toward a fixed smaller structure by minimizing
the process (nested) distance: reduced quantizers move to transport-weighted
means while conditional probabilities are re-optimized stage by stage as
fixed-support Wasserstein barycenter problems, solved exactly by LP or
approximately by averaged-marginal splitting or entropic Bregman projections.
"""

from .ibp import IbpResult, RegularizationOverflowError, ibp_solve
from .init_filtration import (ScenarioMatrix, ffs_init, kmeans_init,
                              merge_prefixes, random_init)
from .mam import MamResult, mam_solve
from .nested import CostTable, nested_distance
from .ot_core import (BarycenterProblem, TransportPlanSet, barycenter_lp,
                      wasserstein_lp)
from .reduce import (ReductionConfig, ReductionReport, init_plan,
                     probability_step, quantizer_step, reduce_tree)
from .tree import (ScenarioTree, TreeFormatError, TreeValidationError,
                   fan_tree, generate_random, load_csv, path_cost_table)

__version__ = "0.1.0"

__all__ = [
    "BarycenterProblem", "CostTable", "IbpResult", "MamResult",
    "ReductionConfig", "ReductionReport",
    "RegularizationOverflowError", "ScenarioMatrix", "ScenarioTree",
    "TransportPlanSet", "TreeFormatError", "TreeValidationError",
    "barycenter_lp", "fan_tree", "ffs_init", "generate_random", "ibp_solve",
    "init_plan", "kmeans_init", "load_csv", "mam_solve", "merge_prefixes",
    "nested_distance", "path_cost_table", "probability_step",
    "quantizer_step", "random_init", "reduce_tree", "wasserstein_lp",
]
