"""Core machinery: weighted points, metrics, offline solvers, and the
paper's mini-ball-covering coreset construction (§2).

Each name imports its defining module on first access (see
``repro._lazy``), so importing one core module does not run the others.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "assignment": ("ClusterAssignment", "extract_clusters"),
    "builder": ("CoresetBuilder",),
    "coreset": ("CoresetCheck", "opt_bounds", "verify_covering_property",
                "verify_expansion_property", "verify_mbc",
                "verify_sandwich", "verify_weight_property"),
    "dyw": ("DYWResult", "dyw_greedy"),
    "greedy": ("GreedyResult", "charikar_greedy", "gonzalez"),
    "mbc": ("MiniBallCovering", "compose_errors", "mbc_construction",
            "mbc_size_bound", "update_coreset"),
    "metrics": ("CallableMetric", "ChebyshevMetric", "EuclideanMetric",
                "ManhattanMetric", "Metric", "PrecomputedMetric",
                "get_metric"),
    "points": ("WeightedPointSet",),
    "radius": ("coverage_radius", "min_pairwise_distance",
               "nearest_center_distances", "uncovered_weight"),
    "solver": ("Solution", "brute_force_opt", "continuous_opt_1d",
               "solve_kcenter_outliers", "solve_via_coreset"),
})
