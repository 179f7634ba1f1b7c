"""Toolkit for factor/cover criteria of small uniform hypergraphs: deciders
with machine-checkable witnesses, seeded randomized constructions, and
brute-force verification of cover, factor, and denseness claims."""

from .constructions import (
    ConstructionParams,
    construct_partite_coloring,
    construct_shadow_disjoint,
    random_uniform_hypergraph,
)
from .deciders import (
    DecisionReport,
    PreconditionError,
    build_compatible_enumeration,
    check_link_chain_free,
    decide_cover_partition_3,
    decide_factor_3,
    decide_linkdisjoint_kpartite,
    decide_partition_condition_k,
    decide_turan_zero_3,
    forced_coloring,
    validate_cover_witness,
    validate_partition_witness,
    validate_shadow_coloring,
)
from .hypergraph import FormatError, Hypergraph, Partition, load_hypergraph
from .lattice import (
    Lattice,
    decide_trans,
    enumerate_shadow_disjoint_bipartitions,
    lattice_combination,
    lattice_contains,
    lattice_from_generators,
    size_generators,
)
from .verification import (
    DensenessEstimate,
    count_reachable_sets,
    estimate_denseness,
    estimate_S_denseness,
    exact_denseness_small,
    find_cover,
    find_factor,
    rooted_copies,
    validate_embedding,
    validate_factor_certificate,
    validate_refutation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
