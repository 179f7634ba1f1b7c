import threading
from itertools import combinations

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
    count_reachable_sets,
    enumerate_copies,
    estimate_denseness,
    estimate_S_denseness,
    exact_denseness_small,
    find_cover,
    find_factor,
    rooted_copies,
    validate_embedding,
    validate_factor_certificate,
)
from factorlab.constructions import random_uniform_hypergraph
from factorlab.corpus import complete, k222, single_edge
from factorlab.oracles import copy_images_oracle, factor_oracle
from factorlab.verification import DENSE_CELL_LIMIT, copy_images, iter_embeddings


def random_graph(rng, n, p=0.4):
    edges = [e for e in combinations(range(n), 3) if rng.random() < p]
    return Hypergraph(3, n, edges)


class TestEmbeddings:
    def test_edge_into_k4(self):
        result = enumerate_copies(single_edge(), complete(4, 3))
        assert len(result.embeddings) == 24 and not result.truncated
        assert len({frozenset(phi) for phi in result.embeddings}) == 4

    def test_k222_self_embeddings_are_automorphisms(self):
        from itertools import permutations

        result = enumerate_copies(k222(), k222())
        # oracle: count edge-preserving bijections directly
        h = k222()
        autos = sum(
            all(frozenset(phi[v] for v in e) in h.edge_set for e in h.edges)
            for phi in permutations(range(6))
        )
        assert autos == 48
        assert len(result.embeddings) == autos

    def test_no_copies_in_edgeless_host(self):
        assert enumerate_copies(single_edge(), Hypergraph(3, 5, [])).embeddings == []

    def test_cap_flags_truncation(self):
        result = enumerate_copies(single_edge(), complete(6, 3), cap=10)
        assert result.truncated and len(result.embeddings) == 10

    def test_every_embedding_validates(self):
        rng = np.random.default_rng(61)
        pattern = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        for _ in range(10):
            host = random_graph(rng, 7)
            for phi in enumerate_copies(pattern, host).embeddings:
                assert validate_embedding(pattern, host, phi)

    def test_matches_injection_oracle(self):
        rng = np.random.default_rng(62)
        pattern = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
        for _ in range(10):
            host = random_graph(rng, 7)
            images, _ = copy_images(pattern, host)
            assert set(images) == set(copy_images_oracle(pattern, host))

    def test_validate_embedding_rejects_bad_maps(self):
        h = complete(4, 3)
        assert not validate_embedding(single_edge(), h, (0, 0, 1))
        assert not validate_embedding(single_edge(), h, (0, 1, 9))
        sparse = Hypergraph(3, 4, [(0, 1, 2)])
        assert not validate_embedding(single_edge(), sparse, (0, 1, 3))


def reference_embeddings(f, h, pre=None):
    """Plain search in the documented order: root (the smallest pinned vertex)
    first, then most edges into the prefix, higher degree, lower id; every
    host vertex tried in ascending order, every edge checked as a set."""
    pre = pre or {}
    deg = [sum(v in e for e in f.edges) for v in range(f.n)]
    order = [min(pre)] if pre else []
    while len(order) < f.n:
        order.append(min(
            (v for v in range(f.n) if v not in order),
            key=lambda v: (-sum(v in e and any(u in order for u in e) for e in f.edges), -deg[v], v),
        ))
    if f.n > h.n:
        return []
    out, phi = [], {}

    def rec(i):
        if i == f.n:
            out.append(tuple(phi[v] for v in range(f.n)))
            return
        u = order[i]
        for w in [pre[u]] if u in pre else range(h.n):
            if w in phi.values():
                continue
            phi[u] = w
            placed = order[: i + 1]
            if all(frozenset(phi[v] for v in e) in h.edge_set
                   for e in f.edges if u in e and all(v in placed for v in e)):
                rec(i + 1)
            del phi[u]

    rec(0)
    return out


def random_pairs(seed, count):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        fn = int(rng.integers(3, 6))
        f = random_graph(rng, fn, p=0.5)
        if not f.edges:
            f = Hypergraph(3, fn, [(0, 1, 2)])
        yield f, random_graph(rng, int(rng.integers(fn, 9)), p=0.5)


class TestSearch:
    """The bitmask search against plain definitions."""

    def test_matches_reference_search(self):
        for f, h in random_pairs(71, 40):
            assert list(iter_embeddings(f, h)) == reference_embeddings(f, h)

    def test_matches_reference_search_with_pins(self):
        for i, (f, h) in enumerate(random_pairs(72, 40)):
            pre = {i % f.n: i % h.n}
            if i % 2:
                pre[(i + 1) % f.n] = (i + 3) % h.n
            assert list(iter_embeddings(f, h, pre)) == reference_embeddings(f, h, pre)

    def test_one_embedding_per_copy(self):
        # a copy is a vertex set with an edge set; per_copy yields the first
        # labelled embedding of each copy, in labelled order
        for f, h in random_pairs(73, 40):
            firsts = {}
            for phi in iter_embeddings(f, h):
                copy = frozenset(phi), frozenset(frozenset(phi[v] for v in e) for e in f.edges)
                firsts.setdefault(copy, phi)
            assert list(iter_embeddings(f, h, per_copy=True)) == list(firsts.values())

    def test_witness_is_first_labelled_embedding_of_its_image(self):
        for f, h in random_pairs(74, 40):
            first = {}
            for phi in enumerate_copies(f, h).embeddings:
                first.setdefault(frozenset(phi), phi)
            images, truncated = copy_images(f, h)
            assert images == first and list(images) == list(first) and not truncated

    def test_cap_counts_copies(self):
        # 20 copies of an edge in K6^(3), each with 6 labelled embeddings
        images, truncated = copy_images(single_edge(), complete(6, 3), cap=20)
        assert len(images) == 20 and not truncated
        images, truncated = copy_images(single_edge(), complete(6, 3), cap=19)
        assert len(images) == 19 and truncated
        # a cherry has several copies on each 4-set, so images <= copies
        cherry = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
        copies = list(iter_embeddings(cherry, complete(5, 3), per_copy=True))
        images, truncated = copy_images(cherry, complete(5, 3), cap=len(copies) - 1)
        assert truncated and len(images) == len({frozenset(phi) for phi in copies[:-1]})

    @pytest.mark.parametrize("pre", [{0: -1}, {0: 6}, {3: 0}, {-1: 0}])
    def test_out_of_range_pins_rejected(self, pre):
        with pytest.raises(ValueError, match="out of range"):
            list(iter_embeddings(single_edge(), complete(6, 3), pre))

    def test_per_copy_takes_no_pins(self):
        with pytest.raises(ValueError):
            list(iter_embeddings(single_edge(), complete(6, 3), {0: 0}, per_copy=True))


class TestRootedCopies:
    def test_edge_rooted_in_k4(self):
        for w in range(4):
            assert rooted_copies(single_edge(), 0, complete(4, 3), w).count == 6

    def test_edgeless_host(self):
        assert rooted_copies(single_edge(), 0, Hypergraph(3, 4, []), 0).count == 0

    def test_cap(self):
        res = rooted_copies(single_edge(), 0, complete(6, 3), 0, cap=3)
        assert res.count == 3 and res.truncated


class TestCover:
    def test_complete_host_fully_covered(self):
        rep = find_cover(single_edge(), complete(6, 3))
        assert rep.verdict and all(rep.covered)

    def test_isolated_vertex_uncovered(self):
        rep = find_cover(single_edge(), Hypergraph(3, 4, [(0, 1, 2)]))
        assert not rep.verdict and rep.covered == [True, True, True, False]
        assert rep.witnesses[3] is None

    def test_factor_implies_cover(self):
        from factorlab.corpus import NAMED

        rng = np.random.default_rng(63)
        hosts = [random_graph(rng, 6, p=0.6) for _ in range(10)]
        hosts += [build() for build in NAMED.values()]
        for host in hosts:
            if find_factor(single_edge(), host).status == "found":
                assert find_cover(single_edge(), host).verdict


class TestFactor:
    def test_perfect_matching_in_k6(self):
        res = find_factor(single_edge(), complete(6, 3))
        assert res.status == "found"
        assert validate_factor_certificate(single_edge(), complete(6, 3), res.certificate)

    def test_divisibility_short_circuit(self):
        res = find_factor(single_edge(), complete(5, 3))
        assert res.status == "absent" and res.stats["reason"] == "divisibility"

    def test_matching_exists_iff_divisible(self):
        for n in range(3, 13):
            res = find_factor(single_edge(), complete(n, 3))
            assert (res.status == "found") == (n % 3 == 0)

    def test_agrees_with_brute_force(self):
        rng = np.random.default_rng(64)
        for _ in range(25):
            host = random_graph(rng, 6, p=0.35)
            assert (find_factor(single_edge(), host).status == "found") == factor_oracle(
                single_edge(), host
            )

    def test_k222_factors_itself(self):
        res = find_factor(k222(), k222())
        assert res.status == "found" and len(res.certificate) == 1

    def test_cap_yields_inconclusive_not_false_absent(self):
        res = find_factor(single_edge(), complete(9, 3), cap=8)
        assert res.status in ("found", "inconclusive")
        if res.status == "found":
            assert validate_factor_certificate(single_edge(), complete(9, 3), res.certificate)

    def test_edgeless_pattern(self):
        pattern = Hypergraph(3, 2, [])
        res = find_factor(pattern, Hypergraph(3, 6, [(0, 1, 2)]))
        assert res.status == "found"
        assert validate_factor_certificate(pattern, Hypergraph(3, 6, [(0, 1, 2)]), res.certificate)

    def test_certificate_validator_rejects_overlap(self):
        h = complete(6, 3)
        assert not validate_factor_certificate(single_edge(), h, [(0, 1, 2), (2, 3, 4)])
        assert not validate_factor_certificate(single_edge(), h, [(0, 1, 2)])


class TestParityOnShadowDisjoint:
    def test_k222_copies_meet_sides_evenly(self):
        # K222 with X = one of its parts is vacuously 2-shadow disjoint and
        # hosts exactly one copy image whose X-intersection is even.
        host = k222()
        x_side = (0, 1)
        images, _ = copy_images(k222(), host)
        assert images
        for img in images:
            assert len(set(x_side) & img) % 2 == 0


class TestDenseness:
    def test_edgeless_worst_deficit_is_p(self):
        est = exact_denseness_small(Hypergraph(3, 7, []), 0.42)
        assert est.worst_deficit == pytest.approx(0.42, abs=1e-12)

    def test_complete_graph_deficit_is_injectivity_loss(self):
        n = 9
        est = exact_denseness_small(complete(n, 3), 1.0)
        assert est.worst_deficit == pytest.approx(3 / n - 2 / n**2, abs=1e-9)
        assert est.worst_deficit <= 9 / n

    def test_exhaustive_bounds_sampled(self):
        rng = np.random.default_rng(65)
        for _ in range(5):
            h = random_uniform_hypergraph(9, 3, 0.5, int(rng.integers(1000)))
            exact = exact_denseness_small(h, 0.5).worst_deficit
            sampled = estimate_denseness(h, 0.5, 100, seed=7).worst_deficit
            assert exact >= sampled - 1e-9

    def test_exhaustive_refused_for_large_hosts(self):
        with pytest.raises(ValueError):
            exact_denseness_small(Hypergraph(3, 13, []), 0.5)
        with pytest.raises(ValueError):
            exact_denseness_small(Hypergraph(4, 8, [(0, 1, 2, 3)]), 0.5)

    def test_singleton_family_matches_plain_estimator_bitwise(self):
        h = random_uniform_hypergraph(10, 3, 0.5, 11)
        plain = estimate_denseness(h, 0.37, 50, seed=5)
        directed = estimate_S_denseness(h, 0.37, [[1], [2], [3]], 50, seed=5)
        assert plain.worst_deficit == directed.worst_deficit

    def test_worker_count_does_not_change_results(self, monkeypatch):
        # ``workers`` is accepted and ignored: every sample runs on the calling thread.
        def refuse(thread):
            raise AssertionError(f"sampling started thread {thread.name}")

        h = random_uniform_hypergraph(10, 3, 0.5, 11)
        one = [estimate_denseness(h, 0.5, 40, seed=3, workers=1),
               estimate_S_denseness(h, 0.5, [[1, 2], [3]], 40, seed=3, workers=1)]
        monkeypatch.setattr(threading.Thread, "start", refuse)
        four = [estimate_denseness(h, 0.5, 40, seed=3, workers=4),
                estimate_S_denseness(h, 0.5, [[1, 2], [3]], 40, seed=3, workers=4)]
        assert [e.worst_deficit for e in four] == [e.worst_deficit for e in one]

    def test_empty_family_counts_all_tuples(self):
        h = random_uniform_hypergraph(8, 3, 0.5, 2)
        est = estimate_S_denseness(h, 0.5, [], 3, seed=0)
        predicted = (0.5 * 8**3 - 6 * len(h.edges)) / 8**3
        assert est.worst_deficit == pytest.approx(predicted, abs=1e-12)

    def test_oversized_family_member_rejected(self):
        with pytest.raises(ValueError):
            estimate_S_denseness(single_edge(), 0.5, [[1, 4]], 2, seed=0)

    @pytest.mark.parametrize("family", [[1], [["a"]], {"x": 1}, [[]], [[True]], "12", [[1.5]]])
    def test_malformed_family_rejected(self, family):
        with pytest.raises(ValueError, match="family"):
            estimate_S_denseness(single_edge(), 0.5, family, 2, seed=0)

    def test_dense_arrays_bounded(self):
        n = round(DENSE_CELL_LIMIT ** (1 / 3)) + 1
        assert n**3 > DENSE_CELL_LIMIT
        with pytest.raises(ValueError, match="cells"):
            estimate_S_denseness(Hypergraph(3, n, []), 0.5, [[1], [2], [3]], 1, seed=0)


class TestReachability:
    def test_complete_host(self):
        assert count_reachable_sets(complete(5, 3), single_edge(), 0, 1) == 3

    def test_edgeless_host(self):
        assert count_reachable_sets(Hypergraph(3, 6, []), single_edge(), 0, 1) == 0

    def test_isolated_endpoint(self):
        h = Hypergraph(3, 4, [(0, 1, 2)])
        assert count_reachable_sets(h, single_edge(), 0, 3) == 0

    def test_matches_factor_oracle_per_set(self):
        rng = np.random.default_rng(75)
        patterns = [single_edge(), Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)]),
                    Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])]
        for i in range(12):
            f, h = patterns[i % 3], random_graph(rng, int(rng.integers(6, 10)), p=0.5)
            u, v = 0, h.n - 1
            rest = [w for w in range(h.n) if w not in (u, v)]
            expected = sum(
                factor_oracle(f, h.induced((u,) + ws)[0]) and factor_oracle(f, h.induced((v,) + ws)[0])
                for ws in combinations(rest, f.n - 1)
            )
            assert count_reachable_sets(h, f, u, v) == expected

    def test_size_guard(self):
        with pytest.raises(ValueError):
            count_reachable_sets(Hypergraph(3, 15, []), single_edge(), 0, 1)
