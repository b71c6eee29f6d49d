"""Multistage scenario-tree reduction toolkit.

Reduces a large scenario tree toward a fixed smaller structure by minimizing
the process (nested) distance: reduced quantizers move to transport-weighted
means while conditional probabilities are re-optimized stage by stage as
fixed-support Wasserstein barycenter problems, solved exactly by LP or
approximately by averaged-marginal splitting or entropic Bregman projections.
"""

from .ibp import RegularizationOverflowError
from .init_filtration import (ScenarioMatrix, ffs_init, kmeans_init,
                              merge_prefixes, random_init)
from .nested import nested_distance
from .reduce import (ReductionConfig, ReductionReport, init_plan,
                     probability_step, quantizer_step, reduce_tree)
from .tree import (ScenarioTree, TreeFormatError, TreeValidationError,
                   fan_tree, generate_random, load_csv, path_cost_table)

__version__ = "0.1.0"

__all__ = [
    "ReductionConfig", "ReductionReport", "RegularizationOverflowError",
    "ScenarioMatrix", "ScenarioTree", "TreeFormatError", "TreeValidationError",
    "fan_tree", "ffs_init", "generate_random", "init_plan", "kmeans_init",
    "load_csv", "merge_prefixes", "nested_distance", "path_cost_table",
    "probability_step", "quantizer_step", "random_init", "reduce_tree",
]
