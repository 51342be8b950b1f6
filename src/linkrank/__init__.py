"""Exact ranks of groups of links of spheres in codimension greater than
two, with a brute-force free Lie superalgebra oracle backing every closed
formula.
"""

from .errors import (InternalConsistencyError, InvalidInputError,
                     LinkRankError, ResourceLimitError)
from .liedim import lie_component_dim, multiplicity, weighted_dim_sums, witt, witt_super
from .fcs import fcs_contains, fcs_enumerate
from .ranks import (BrunnianRank, RankReport, brunnian_is_infinite, brunnian_rank,
                    equal_dim_rank, knot_rank, link_is_infinite, link_rank)
from .stiefel import so_rank, stiefel_rank
from .framed import (FramedRankReport, HandlebodyReport, framed_knot_is_infinite,
                     framed_rank, fully_framed_is_infinite, handlebody_report,
                     mcg_finite_index)

__version__ = "0.1.0"

__all__ = [
    "LinkRankError", "InvalidInputError", "InternalConsistencyError",
    "ResourceLimitError",
    "lie_component_dim", "multiplicity", "witt", "witt_super", "weighted_dim_sums",
    "fcs_contains", "fcs_enumerate",
    "RankReport", "BrunnianRank", "knot_rank", "brunnian_rank",
    "link_rank", "equal_dim_rank", "brunnian_is_infinite", "link_is_infinite",
    "so_rank", "stiefel_rank",
    "FramedRankReport", "HandlebodyReport",
    "framed_rank", "framed_knot_is_infinite", "fully_framed_is_infinite",
    "handlebody_report", "mcg_finite_index",
    "super_bracket", "left_normed_bracket", "component_dim_bruteforce",
    "WhiteheadAnalysis", "whitehead_map_analysis",
    "VerificationRecord", "VerificationReport", "verify_range",
    "__version__",
]


# the brute-force oracle serves only its own calls and `oracle verify`, so
# it is imported on the first use of one of its names, not with the package:
# every exported name that the imports above do not bind is the oracle's
def __getattr__(name):
    # called only for a name the package does not hold yet; the first use
    # of an oracle name binds it here, so later uses find it directly
    if name in __all__:
        from . import oracle
        value = globals()[name] = getattr(oracle, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
