"""Toolkit for factor/cover criteria of small uniform hypergraphs: deciders
with machine-checkable witnesses, seeded randomized constructions, and
brute-force verification of cover, factor, and denseness claims.

The namespace is lazy (PEP 562): ``import factorlab`` loads no submodule,
and each public name imports its home module on first access, then stays
bound here.  So a command-line process loads only the modules its command
uses.
"""

# Home module -> the public names it gives this package.  Each module's own
# name is public as well.
_EXPORTS = {
    "constructions": [
        "ConstructionParams",
        "construct_partite_coloring",
        "construct_shadow_disjoint",
        "random_uniform_hypergraph",
    ],
    "deciders": [
        "DecisionReport",
        "PreconditionError",
        "build_compatible_enumeration",
        "decide_cover_partition_3",
        "decide_factor_3",
        "decide_linkdisjoint_kpartite",
        "decide_partition_condition_k",
        "decide_turan_zero_3",
        "forced_coloring",
        "validate_cover_witness",
        "validate_partition_witness",
        "validate_shadow_coloring",
        "validate_turan_zero_refutation",
    ],
    "hypergraph": ["FormatError", "Hypergraph", "Partition", "load_hypergraph"],
    "lattice": [
        "Lattice",
        "decide_trans",
        "enumerate_shadow_disjoint_bipartitions",
        "lattice_combination",
        "lattice_contains",
        "lattice_from_generators",
        "size_generators",
    ],
    "verification": [
        "DensenessEstimate",
        "count_reachable_sets",
        "estimate_denseness",
        "estimate_S_denseness",
        "exact_denseness_small",
        "find_cover",
        "find_factor",
        "rooted_copies",
        "validate_embedding",
        "validate_factor_certificate",
        "validate_refutation",
    ],
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's own path, not importlib's, so that
    # ``python -X importtime`` lists the module; it binds the module here.
    __import__(f"{__name__}.{home}")
    module = globals()[home]
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
