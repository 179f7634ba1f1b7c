"""Deeper randomized differential checks between independent code paths."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
    Partition,
    decide_factor_3,
    decide_linkdisjoint_kpartite,
    decide_partition_condition_k,
    decide_turan_zero_3,
    enumerate_shadow_disjoint_bipartitions,
    find_cover,
    lattice_contains,
    lattice_from_generators,
    rooted_copies,
)
from factorlab.corpus import k222
from factorlab.deciders import forced_coloring
from factorlab.oracles import bounded_combination_oracle, partition_condition_oracle


def random_uniform(rng, n, k, p):
    sets = list(combinations(range(n), k))
    mask = rng.random(len(sets)) < p
    return Hypergraph(k, n, [s for s, m in zip(sets, mask) if m])


class TestDeeperOrderingSearch:
    def test_f6_matches_720_permutation_scan(self):
        rng = np.random.default_rng(60601)
        for _ in range(60):
            f = random_uniform(rng, 6, 3, 0.25)
            exhaustive = any(
                forced_coloring(f, list(p)) is not None for p in permutations(range(6))
            )
            assert decide_turan_zero_3(f).verdict == exhaustive


class TestSearchOrder:
    """The witnesses are the first ones in the oracles' scan order."""

    def test_turan_zero_witness_is_first_consistent_permutation(self):
        rng = np.random.default_rng(60605)
        for n in range(3, 8):
            for _ in range(16):
                f = random_uniform(rng, n, 3, float(rng.choice([0.1, 0.2, 0.35])))
                first = next(
                    (p for p in permutations(range(n)) if forced_coloring(f, p) is not None), None
                )
                report = decide_turan_zero_3(f)
                if first is None:
                    assert report.witness is None
                    continue
                assert report.witness["ordering"] == list(first)
                coloring = sorted(forced_coloring(f, first).items())
                assert report.witness["coloring"] == [[u, v, c] for (u, v), c in coloring]

    @pytest.mark.parametrize("k, sizes", [(3, range(3, 8)), (4, range(4, 8))])
    def test_partition_k_witness_is_the_oracles(self, k, sizes):
        rng = np.random.default_rng(60606 + k)
        for n in sizes:
            for _ in range(12):
                f = random_uniform(rng, n, k, float(rng.choice([0.1, 0.2, 0.35])))
                expected = partition_condition_oracle(f)
                report = decide_partition_condition_k(f)
                if expected is None:
                    assert report.witness is None
                    continue
                vstar, parts = expected
                assert report.witness == {"vstar": vstar, "parts": [sorted(p) for p in parts]}


class TestK4PartitionCondition:
    def test_matches_brute_force_at_k4(self):
        rng = np.random.default_rng(60602)
        for _ in range(40):
            f = random_uniform(rng, 6, 4, 0.3)
            assert decide_partition_condition_k(f).verdict == (
                partition_condition_oracle(f) is not None
            )

    def test_bipartitions_match_raw_definition_at_k4(self):
        rng = np.random.default_rng(60603)
        for _ in range(20):
            f = random_uniform(rng, 6, 4, 0.3)
            for s in (2, 3):
                got = {frozenset(bp.parts[0]) for bp in enumerate_shadow_disjoint_bipartitions(f, s)}
                want = set()
                for bits in range(64):
                    a = frozenset(v for v in range(6) if bits >> v & 1)
                    if all(
                        len(set(e) & set(e2)) < s
                        for e, e2 in combinations(f.edges, 2)
                        if len(set(e) & a) != len(set(e2) & a)
                    ):
                        want.add(a)
                assert got == want


class TestGenericLattice:
    def test_negative_entries_against_wide_brute_force(self):
        rng = np.random.default_rng(60604)
        for _ in range(60):
            gens = [
                (int(rng.integers(-12, 13)), int(rng.integers(-12, 13)))
                for _ in range(2)
            ]
            lat = lattice_from_generators(gens)
            targets = [(0, 0), (1, -1), (1, 0), (0, 1)]
            targets += [
                (int(rng.integers(-6, 7)), int(rng.integers(-6, 7))) for _ in range(3)
            ]
            for target in targets:
                # Cramer bound: entries <= 12, |target| <= 6, |det| >= 1
                # gives |coeff| <= 2*6*12 = 144
                hit = bounded_combination_oracle(gens, target, bound=150)
                assert lattice_contains(lat, target) == (hit is not None)
                if hit is not None:
                    x = sum(c * g[0] for c, g in zip(hit, gens))
                    y = sum(c * g[1] for c, g in zip(hit, gens))
                    assert (x, y) == target


class TestCoverAgainstRootedCounts:
    def test_covered_iff_some_rooted_copy(self):
        rng = np.random.default_rng(60605)
        pattern = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        for _ in range(15):
            host = random_uniform(rng, 7, 3, 0.35)
            report = find_cover(pattern, host)
            for w in range(host.n):
                total = sum(
                    rooted_copies(pattern, u, host, w).count for u in range(pattern.n)
                )
                assert report.covered[w] == (total > 0)


class TestPartitionHelpers:
    def test_from_parts_validates(self):
        p = Partition(((0, 2), (1,), ()))
        assert p.index_vector({0, 1}) == (1, 1, 0)

    def test_k222_partition_index_vectors(self):
        part = Partition(((0, 1), (2, 3), (4, 5)))
        assert all(part.index_vector(e) == (1, 1, 1) for e in k222().edges)

    def test_index_vector_counts_distinct_vertices_per_part(self):
        # Strays (in no part), repeated vertices and overlapping parts; the
        # vertices may come as a one-pass iterator.
        rng = random.Random(5)
        for _ in range(500):
            parts = tuple(tuple(sorted(rng.choices(range(8), k=rng.randint(0, 5)))) for _ in range(rng.randint(0, 4)))
            vs = rng.choices(range(10), k=rng.randint(0, 6))
            expected = tuple(sum(1 for v in set(vs) if v in part) for part in parts)
            assert Partition(parts).index_vector(iter(vs)) == expected


class TestDisjointUnionFactor:
    def test_two_disjoint_k222_blocks(self):
        from factorlab import find_factor, validate_factor_certificate

        base = k222()
        shifted = [tuple(v + 6 for v in e) for e in base.edges]
        host = Hypergraph(3, 12, list(base.edges) + shifted)
        res = find_factor(base, host)
        assert res.status == "found" and len(res.certificate) == 2
        assert validate_factor_certificate(base, host, res.certificate)


def seeded_partite(rng, k, sizes, count):
    """``count`` graphs with an edge, on ``sizes[i % len(sizes)]`` vertices:
    the vertices dealt round-robin, in a random order, to k parts as equal as
    possible, and each crossing k-set kept with a probability drawn from
    {0.3, 0.6, 0.9}."""
    graphs = []
    while len(graphs) < count:
        n = sizes[len(graphs) % len(sizes)]
        part = [0] * n
        for i, v in enumerate(rng.permutation(n)):
            part[int(v)] = i % k
        p = float(rng.choice([0.3, 0.6, 0.9]))
        edges = [e for e in combinations(range(n), k)
                 if len({part[v] for v in e}) == k and rng.random() < p]
        if edges:
            graphs.append(Hypergraph(k, n, edges))
    return graphs


class TestCharacterisationsAgree:
    """On k-partite inputs the paper's link-disjointness criterion
    (kpartite-link), its 3-graph criterion (factor3) and the partition
    condition (partition-k) answer one question, each by its own code path.
    For k-partite F an unblocked vertex is a partition-k vstar (move the
    rest of its part into another part), so both name the same vstar."""

    @staticmethod
    def verdicts(f):
        link, partition = decide_linkdisjoint_kpartite(f), decide_partition_condition_k(f)
        if link.verdict:
            assert partition.witness["vstar"] == link.witness["vstar"]
        return {link.verdict, partition.verdict} | ({decide_factor_3(f).verdict} if f.k == 3 else set())

    def test_every_labelled_3_partite_3_graph_on_3_to_5_vertices(self):
        checked = 0
        for n in (3, 4, 5):
            triples = list(combinations(range(n), 3))
            for bits in range(1, 1 << len(triples)):
                f = Hypergraph(3, n, [t for i, t in enumerate(triples) if bits >> i & 1])
                if f.is_k_partite() is not None:
                    assert len(self.verdicts(f)) == 1
                    checked += 1
        assert checked == 151

    @pytest.mark.parametrize("k, sizes, count", [(3, (6, 7), 500), (4, (4, 5, 6, 7, 8), 400)])
    def test_seeded_k_partite_graphs(self, k, sizes, count):
        answers = []
        for f in seeded_partite(np.random.default_rng(2021 + k), k, sizes, count):
            (verdict,) = self.verdicts(f)
            answers.append(verdict)
        assert True in answers and False in answers
