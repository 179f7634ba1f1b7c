"""The names ``factorlab`` exports.  Adding or removing one is a deliberate
edit of this list.  The namespace is lazy: each name loads its home module
on first access."""

import json
import os
import subprocess
import sys
from pathlib import Path

import factorlab

PUBLIC = [
    "ConstructionParams",
    "DecisionReport",
    "DensenessEstimate",
    "FormatError",
    "Hypergraph",
    "Lattice",
    "Partition",
    "PreconditionError",
    "build_compatible_enumeration",
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
    "validate_turan_zero_refutation",
    "verification",
]


def test_public_names_pinned():
    assert sorted(factorlab.__all__) == PUBLIC


def test_import_loads_no_submodule():
    src = str(Path(factorlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import json, sys, factorlab; print(json.dumps(sorted(m for m in sys.modules if 'factorlab' in m)))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["factorlab"]


def test_each_name_is_its_home_modules_object():
    for name in factorlab.__all__:
        value, home = getattr(factorlab, name), f"factorlab.{factorlab._HOME[name]}"
        if home == f"factorlab.{name}":
            assert value is sys.modules[home]
        else:  # defined in its home module, not re-exported through another
            assert value is getattr(sys.modules[home], name) and value.__module__ == home, name
    assert set(factorlab.__all__) <= set(dir(factorlab))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from factorlab import *", namespace)
    assert all(namespace[name] is getattr(factorlab, name) for name in PUBLIC)
    assert not hasattr(factorlab, "no_such_name")
