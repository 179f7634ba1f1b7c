"""The names ``factorlab`` exports.  Adding or removing one is a deliberate
edit of this list."""

import factorlab

PUBLIC = [
    "Bipartition",
    "ConstructionParams",
    "DecisionReport",
    "DensenessEstimate",
    "FormatError",
    "Hypergraph",
    "Lattice",
    "Partition",
    "PreconditionError",
    "build_compatible_enumeration",
    "check_link_chain_free",
    "construct_partite_coloring",
    "construct_shadow_disjoint",
    "constructions",
    "count_reachable_sets",
    "decide_cover_partition_3",
    "decide_factor_3",
    "decide_linkdisjoint_kpartite",
    "decide_partition_condition_k",
    "decide_trans",
    "decide_turan_zero_3",
    "deciders",
    "enumerate_shadow_disjoint_bipartitions",
    "estimate_S_denseness",
    "estimate_denseness",
    "exact_denseness_small",
    "find_cover",
    "find_factor",
    "forced_coloring",
    "hypergraph",
    "lattice",
    "lattice_combination",
    "lattice_contains",
    "lattice_from_generators",
    "load_hypergraph",
    "random_uniform_hypergraph",
    "rooted_copies",
    "size_generators",
    "validate_cover_witness",
    "validate_embedding",
    "validate_factor_certificate",
    "validate_partition_witness",
    "validate_refutation",
    "validate_shadow_coloring",
    "verification",
]


def test_public_names_pinned():
    assert sorted(factorlab.__all__) == PUBLIC
