"""slameval: trajectory evaluation for visual SLAM.

Pose-level geometry, TUM-format trajectory I/O with timestamp
association, closed-form rigid alignment, ATE/RPE accuracy metrics, and
cohort-level robustness statistics (multi-run medians, cumulative
distributions, failure-gap detection, attribute correlations).

The namespace is lazy (PEP 562): ``import slameval`` loads no submodule
and no numpy; each name below is imported from its home module on first
use. So ``slameval.cli`` can configure the process before numpy loads.
"""

__version__ = "0.1.0"

# home module -> the names re-exported from it
_EXPORTS = {
    "align": ["AlignmentResult", "horn_align"],
    "cohort": [
        "CohortSummary", "Gap", "MetricRecord", "SequenceResult", "aggregate_runs", "cdf",
        "detect_gap", "spearman", "success_rate", "summarize",
    ],
    "errors": [
        "SlamEvalError", "ValidationError", "ParseError", "EmptyAssociationError",
        "UndefinedCorrelationError",
    ],
    "geom3d": [
        "Pose", "Rotation", "Trajectory", "angle_of", "apply", "compose", "inverse", "relative",
        "rot", "trans",
    ],
    "metrics": ["AteReport", "RpeReport", "ate", "rpe"],
    "synth": ["PerturbationSpec", "perturb", "random_trajectory"],
    "trajio": [
        "Association", "associate", "associate_by_index", "dumps_tum", "load_tum", "parse_tum",
        "save_tum", "write_tum",
    ],
    "trajstats": ["SequenceStats", "cohort_stats", "resample_stride", "sequence_stats"],
}
__all__ = ["__version__", *(name for names in _EXPORTS.values() for name in names)]


def _lazy_getattr(namespace: dict, exports: dict[str, list[str]]):
    """A PEP 562 module ``__getattr__`` for the module whose globals are namespace:
    each name of exports (home module -> names) is imported from its home module
    in this package on first use and kept in namespace. It imports through
    __import__, which -X importtime reports (importlib.import_module is not)."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _lazy_getattr(globals(), _EXPORTS)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
