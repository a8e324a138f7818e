"""Tree containment and structural analysis for binary nearly stable
phylogenetic networks, with eNewick I/O, class bounds, transforms, and a
seeded generator."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    CLASSES,
    Branch,
    ClassFlags,
    Network,
    NetworkEditor,
    PhyloTree,
    StabilityReport,
    ValidationOutcome,
    Violation,
    classify,
    in_class,
    stability,
    validate,
)
from .errors import (
    ClassPreconditionError,
    GenerationExhaustedError,
    InternalConsistencyError,
    InvalidNetworkError,
    LeafSetMismatchError,
    NetworkError,
    NewickParseError,
    OracleCapExceededError,
    PatternMismatchError,
)
from .newick_io import (
    ParseDiagnostic,
    canonical_equal,
    parse_network,
    parse_networks,
    parse_tree,
    parse_trees,
    serialize,
)
from .reductions import (
    ReductionStep,
    ReductionTrace,
    replay_trace,
)
from .tcp import (
    DEFAULT_ORACLE_CAP,
    CaseMatch,
    ContainmentVerdict,
    Resolution,
    apply_resolution,
    displays,
    find_longest_root_leaf_path,
    match_case,
    oracle_displays,
    trees_equal,
)
from .bounds import (
    BoundCheck,
    BoundReport,
    ClassStats,
    class_stats,
    ns_to_rv_transform,
    select_dummy_free_removal,
    verify_bounds,
)
from .generator import RNG_NAME, GenSpec, generate, random_tree

# the public surface is every name imported above
__all__ = [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
