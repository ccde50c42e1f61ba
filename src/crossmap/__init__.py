"""Set partitions of subsets of [n], their crossings and nestings, and the
bijection onto partitions of [n+1] that turns enhanced statistics into
classical ones."""

from .partition import (
    PartialPartition,
    from_blocks,
    parse_text,
    enumerate_full,
    enumerate_partial,
)
from .arcs import Arc, ArcSet, arcs_classical, arcs_enhanced, distance_multiset
from .crossings import (
    CrossingWitness,
    find_k_crossing,
    find_k_nesting,
    max_crossing_number,
    max_nesting_number,
    count_k_witnesses,
    oracle_find,
)
from .bijection import forward, reverse, witness_forward, witness_reverse
from .counting import (
    bell,
    binomial,
    count_C,
    count_E,
    count_partial_E,
    verify_identity,
    verify_eigensequence,
    IdentityReport,
)

__version__ = "0.1.0"

__all__ = [
    "PartialPartition",
    "from_blocks",
    "parse_text",
    "enumerate_full",
    "enumerate_partial",
    "Arc",
    "ArcSet",
    "arcs_classical",
    "arcs_enhanced",
    "distance_multiset",
    "CrossingWitness",
    "find_k_crossing",
    "find_k_nesting",
    "max_crossing_number",
    "max_nesting_number",
    "count_k_witnesses",
    "oracle_find",
    "forward",
    "reverse",
    "witness_forward",
    "witness_reverse",
    "bell",
    "binomial",
    "count_C",
    "count_E",
    "count_partial_E",
    "verify_identity",
    "verify_eigensequence",
    "IdentityReport",
]
