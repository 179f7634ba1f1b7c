"""Acceptance battery.

Each test prints one "ACCEPTANCE <n> PASS ..." line on success (visible with
``pytest -s`` or in captured output) and enforces the stated runtime budget.
Run the whole gate with::

    pytest tests/test_acceptance.py -v
"""

import time
from itertools import combinations, permutations

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
    build_compatible_enumeration,
    decide_cover_partition_3,
    decide_factor_3,
    decide_linkdisjoint_kpartite,
    decide_partition_condition_k,
    decide_trans,
    decide_turan_zero_3,
    estimate_denseness,
    estimate_S_denseness,
    exact_denseness_small,
    find_factor,
    forced_coloring,
    lattice_contains,
    lattice_from_generators,
    rooted_copies,
    validate_cover_witness,
    validate_factor_certificate,
    validate_shadow_coloring,
)
from factorlab.constructions import (
    ConstructionParams,
    construct_partite_coloring,
    construct_shadow_disjoint,
    partite_structure_ok,
    random_uniform_hypergraph,
    shadow_disjoint_ok,
)
from factorlab.corpus import cherry, complete, k4_minus, k222, loose_path, single_edge
from factorlab.deciders import coloring_from_witness
from factorlab.oracles import (
    bounded_combination_oracle,
    cover_partition_oracle,
    factor_oracle,
    turan_zero_oracle,
)
from factorlab.lattice import shared_sum_contains
from factorlab.verification import copy_images


def labelled_3graphs(n):
    """Every labelled 3-graph on n vertices, once: all edge subsets of the
    C(n, 3) triples (16 graphs on 4 vertices, 1,024 on 5)."""
    triples = list(combinations(range(n), 3))
    for bits in range(1 << len(triples)):
        yield Hypergraph(3, n, [t for i, t in enumerate(triples) if bits >> i & 1])


def test_criterion_1_k222_battery():
    start = time.perf_counter()
    f = k222()
    assert decide_factor_3(f).verdict is False
    assert decide_cover_partition_3(f).verdict is False
    assert decide_partition_condition_k(f).verdict is False
    trans = decide_trans(f, 2)
    assert trans.verdict is False
    assert trans.stats["generators"] == [[0, 6], [2, 4], [4, 2], [6, 0]]
    assert decide_linkdisjoint_kpartite(f).verdict is False
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 1 PASS k222 battery all false, generators 0/2/4/6 ({elapsed:.3f}s)")


def test_criterion_2_positive_battery():
    start = time.perf_counter()
    for f in (single_edge(), loose_path(), cherry()):
        report = decide_factor_3(f)
        assert report.verdict is True
        oc = report.witness["ordering-coloring"]
        assert validate_shadow_coloring(f, oc["ordering"], coloring_from_witness(oc))
        cp = report.witness["cover-partition"]
        assert validate_cover_witness(f, cp["vstar"], cp["X"], cp["Y"])
    report = decide_factor_3(k4_minus())
    assert report.verdict is False
    assert report.stats["condition_i"] is False
    assert sum(
        forced_coloring(k4_minus(), list(p)) is not None for p in permutations(range(4))
    ) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 2 PASS positive battery + k4-minus fails condition (i) ({elapsed:.3f}s)")


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for f in [*labelled_3graphs(4), *labelled_3graphs(5)]:
        assert decide_cover_partition_3(f).verdict == (cover_partition_oracle(f) is not None)
        assert decide_turan_zero_3(f).verdict == turan_zero_oracle(f)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1_040
    assert elapsed < 300
    print(f"ACCEPTANCE 3 PASS zero disagreements on {checked} graphs ({elapsed:.1f}s)")


def test_criterion_4_construction_guarantees():
    start = time.perf_counter()
    pattern = k222()
    checked = 0

    def check_parity(n, seed):
        nonlocal checked
        shadow = construct_shadow_disjoint(ConstructionParams(n=n, k=3, seed=seed, s=2))
        x_side = shadow.partition.parts[0]
        assert shadow_disjoint_ok(shadow.hypergraph, x_side, 2)
        images, truncated = copy_images(pattern, shadow.hypergraph)
        assert not truncated
        x_mask = sum(1 << v for v in x_side)
        for mask in images:
            assert (mask & x_mask).bit_count() % 2 == 0
        checked += len(images)

    for n in (15, 21):
        for seed in range(10):
            built = construct_partite_coloring(ConstructionParams(n=n, k=3, seed=seed))
            assert partite_structure_ok(built.hypergraph, built.z, built.partition)
            for root in range(pattern.n):
                res = rooted_copies(pattern, root, built.hypergraph, built.z)
                assert res.count == 0 and not res.truncated
            check_parity(n, seed)
    # Builds at n <= 21 hold no K222 copy; these larger ones hold 1 to 130.
    for n in (60, 90):
        for seed in range(5):
            check_parity(n, seed)
    assert checked > 0

    # |X| odd with 6 | n: parity forbids a perfect tiling, and the solver and
    # the parity argument prove it independently.
    for seed in range(10):
        shadow = construct_shadow_disjoint(
            ConstructionParams(n=12, k=3, seed=seed, s=2, part_sizes=(5, 7))
        )
        res = find_factor(pattern, shadow.hypergraph)
        assert res.status == "absent"
        x_side = shadow.partition.parts[0]
        x_mask = sum(1 << v for v in x_side)
        images, truncated = copy_images(pattern, shadow.hypergraph)
        assert not truncated
        assert all((mask & x_mask).bit_count() % 2 == 0 for mask in images)
        assert len(x_side) % 2 == 1  # even image slices can never sum to odd |X|
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    print(f"ACCEPTANCE 4 PASS structural guarantees over 10 seeds x n in {{15,21}}, "
          f"{checked} K222 images checked for parity ({elapsed:.1f}s)")


def test_criterion_5_inclusion_probability():
    start = time.perf_counter()
    p_star = 1 / 125  # palette 5, three pairs per 3-set
    edges = 0
    trials = 0
    for seed in range(10):
        built = construct_partite_coloring(ConstructionParams(n=30, k=3, seed=seed))
        z = built.z
        edges += sum(1 for e in built.hypergraph.edges if z not in e)
        trials += len(list(combinations(range(29), 3)))
    freq = edges / trials
    sigma = (p_star * (1 - p_star) / trials) ** 0.5
    assert abs(freq - p_star) <= 4 * sigma
    elapsed = time.perf_counter() - start
    print(
        f"ACCEPTANCE 5 PASS freq={freq:.6f} vs p*={p_star:.6f} "
        f"({abs(freq - p_star) / sigma:.2f} sigma, {elapsed:.1f}s)"
    )


def test_criterion_6_exact_cover_soundness():
    start = time.perf_counter()
    pattern = single_edge()
    for n in range(3, 13):
        host = complete(n, 3)
        res = find_factor(pattern, host)
        assert (res.status == "found") == (n % 3 == 0)
        if res.status == "found":
            assert validate_factor_certificate(pattern, host, res.certificate)
        assert (res.status == "found") == factor_oracle(pattern, host)
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 6 PASS matching on K_n iff 3|n for n=3..12 ({elapsed:.1f}s)")


def test_criterion_7_lattice_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(424242)
    for _ in range(100):
        total = int(rng.integers(1, 13))
        count = int(rng.integers(1, 6))
        firsts = sorted(set(int(rng.integers(0, total + 1)) for _ in range(count)))
        gens = [(a, total - a) for a in firsts]
        lat = lattice_from_generators(gens)
        targets = [(1, -1), (0, 0), (1, 0), (total, 0)]
        for _ in range(2):
            coeffs = rng.integers(-2, 3, size=len(gens))
            targets.append(
                (
                    int(sum(c * g[0] for c, g in zip(coeffs, gens))),
                    int(sum(c * g[1] for c, g in zip(coeffs, gens))),
                )
            )
        for target in targets:
            via_basis = lattice_contains(lat, target)
            via_gcd = shared_sum_contains(gens, target)
            via_brute = bounded_combination_oracle(gens, target, bound=10) is not None
            assert via_basis == via_gcd == via_brute
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 7 PASS 100 generator sets, three membership routes agree ({elapsed:.1f}s)")


def test_criterion_8_compatible_enumeration():
    start = time.perf_counter()
    realized = 0
    # loose_path() and cherry() are among the 5-vertex graphs
    graphs = [single_edge(), *labelled_3graphs(4), *labelled_3graphs(5)]
    for f in graphs:
        cover = decide_cover_partition_3(f)
        if not cover.verdict or not decide_turan_zero_3(f).verdict:
            continue
        w = cover.witness
        ordering, coloring = build_compatible_enumeration(f, w["vstar"], w["X"], w["Y"])
        assert ordering[0] == w["vstar"]
        nx = len(w["X"])
        assert set(ordering[1 : 1 + nx]) == set(w["X"])
        assert set(ordering[1 + nx :]) == set(w["Y"])
        assert validate_shadow_coloring(f, ordering, coloring)
        realized += 1
    elapsed = time.perf_counter() - start
    assert realized == 193
    assert elapsed < 300
    print(f"ACCEPTANCE 8 PASS block enumerations realized on {realized} graphs ({elapsed:.1f}s)")


def test_criterion_9_denseness_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for case in range(20):
        n = int(rng.integers(8, 11))
        p = float(rng.uniform(0.2, 0.8))
        h = random_uniform_hypergraph(n, 3, 0.5, int(rng.integers(1_000_000)))
        seed = int(rng.integers(1_000_000))
        plain = estimate_denseness(h, p, 40, seed=seed)
        directed = estimate_S_denseness(h, p, [[1], [2], [3]], 40, seed=seed)
        assert plain.worst_deficit == directed.worst_deficit  # bit for bit
        exact = exact_denseness_small(h, p)
        assert exact.worst_deficit >= plain.worst_deficit - 1e-9
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE 9 PASS 20 instances: estimators agree, exhaustive bounds sampled ({elapsed:.1f}s)")
