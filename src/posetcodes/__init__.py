"""Linear codes over prime fields equipped with poset metrics.

Provides posets on [n] with their ideals, levels and automorphisms; the
poset weight and distance; canonical linear codes; pointed partitions and
code decompositions with their syndrome-decoding complexity; the linear
isometry group and orbit searches for primary decompositions; the
hierarchical neighbour posets with the resulting complexity sandwich; and
componentwise syndrome decoding tables.
"""

from .code import LinearCode, ParityData
from .decomposition import (
    Decomposition,
    cheapest_grouping,
    maximal_decomposition,
    min_grouping_complexity,
    trivial_decomposition,
)
from .decoder import (
    SyndromeTable,
    agreement_rate,
    build_table,
    decode,
    nearest_codeword_oracle,
    table_stats,
)
from .errors import ResourceLimitError, ValidationError
from .field import FieldSpec
from .isometry import (
    PIsometry,
    group_size,
    verify_isometry,
)
from .metric import min_pdistance, pdist, pweight, support
from .partition import PointedPartition, all_pointed_partitions
from .poset import LevelStructure, Poset, all_posets, hierarchical_posets, make_family
from .search import (
    BoundsReport,
    PDecomposition,
    hierarchical_decomposition,
    hierarchy_bounds,
    is_p_irreducible,
    lower_neighbour,
    minimal_complexity,
    monotonicity_check,
    orbit_codes,
    primary_decomposition,
    strip_permutation,
    upper_neighbour,
    verify_profile_uniqueness,
    witness_refinement,
)

__all__ = [
    "BoundsReport",
    "Decomposition",
    "FieldSpec",
    "LevelStructure",
    "LinearCode",
    "PDecomposition",
    "PIsometry",
    "ParityData",
    "PointedPartition",
    "Poset",
    "ResourceLimitError",
    "SyndromeTable",
    "ValidationError",
    "agreement_rate",
    "all_pointed_partitions",
    "all_posets",
    "build_table",
    "cheapest_grouping",
    "decode",
    "group_size",
    "hierarchical_decomposition",
    "hierarchical_posets",
    "hierarchy_bounds",
    "is_p_irreducible",
    "lower_neighbour",
    "make_family",
    "maximal_decomposition",
    "min_grouping_complexity",
    "min_pdistance",
    "minimal_complexity",
    "monotonicity_check",
    "nearest_codeword_oracle",
    "orbit_codes",
    "pdist",
    "primary_decomposition",
    "pweight",
    "strip_permutation",
    "support",
    "table_stats",
    "trivial_decomposition",
    "upper_neighbour",
    "verify_isometry",
    "verify_profile_uniqueness",
    "witness_refinement",
]
