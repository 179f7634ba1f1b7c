import random
import threading
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
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
from factorlab import verification
from factorlab.constructions import (
    ConstructionParams,
    construct_partite_coloring,
    construct_shadow_disjoint,
    random_uniform_hypergraph,
)
from factorlab.corpus import NAMED, cherry, complete, k222, k4_minus, loose_path, single_edge
from factorlab.oracles import copy_images_oracle, factor_oracle
from factorlab.verification import DEFAULT_CAP, DENSE_CELL_LIMIT, canonical_family, copy_images, iter_embeddings
from alarm import within


def random_graph(rng, n, p=0.4):
    edges = [e for e in combinations(range(n), 3) if rng.random() < p]
    return Hypergraph(3, n, edges)


class TestEmbeddings:
    def test_edge_into_k4(self):
        embeddings = list(iter_embeddings(single_edge(), complete(4, 3)))
        assert len(embeddings) == 24
        assert len({frozenset(phi) for phi in embeddings}) == 4
        images, truncated = copy_images(single_edge(), complete(4, 3))
        assert len(images) == 4 and not truncated

    def test_k222_self_embeddings_are_automorphisms(self):
        from itertools import permutations

        embeddings = list(iter_embeddings(k222(), k222()))
        # oracle: count edge-preserving bijections directly
        h = k222()
        autos = sum(
            all(frozenset(phi[v] for v in e) in h.edge_set for e in h.edges)
            for phi in permutations(range(6))
        )
        assert autos == 48
        assert len(embeddings) == autos

    def test_no_copies_in_edgeless_host(self):
        assert list(iter_embeddings(single_edge(), Hypergraph(3, 5, []))) == []

    def test_cap_flags_truncation(self):
        images, truncated = copy_images(single_edge(), complete(6, 3), cap=10)
        assert truncated and len(images) == 10
        res = rooted_copies(single_edge(), 1, complete(6, 3), 5, cap=10)
        assert res.truncated and res.count == 10

    def test_cap_beyond_index_range(self):
        # Caps at and above the count, up to past sys.maxsize, are not hit.
        for cap in (4, 10**23):
            images, truncated = copy_images(single_edge(), complete(4, 3), cap=cap)
            assert not truncated and len(images) == 4
        for cap in (6, 10**23):
            res = rooted_copies(single_edge(), 2, complete(4, 3), 3, cap=cap)
            assert not res.truncated and res.count == 6

    def test_every_embedding_validates(self):
        rng = np.random.default_rng(61)
        pattern = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        for _ in range(10):
            host = random_graph(rng, 7)
            for phi in iter_embeddings(pattern, host):
                assert validate_embedding(pattern, host, phi)

    def test_matches_injection_oracle(self):
        rng = np.random.default_rng(62)
        pattern = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
        for _ in range(10):
            host = random_graph(rng, 7)
            images, _ = copy_images(pattern, host)
            assert set(images) == {sum(1 << w for w in img) for img in copy_images_oracle(pattern, host)}
            assert all(mask == sum(1 << w for w in phi) for mask, phi in images.items())

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
            for phi in iter_embeddings(f, h):
                first.setdefault(sum(1 << w for w in phi), phi)
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


def reference_copy_images(f, h, cap):
    """The per-embedding copy listing: the first embedding onto each image,
    over the per-copy embeddings, counted against ``cap`` one by one."""
    images = {}
    for count, phi in enumerate(iter_embeddings(f, h, per_copy=True)):
        if count == cap:
            return images, True
        images.setdefault(sum(1 << w for w in phi), phi)
    return images, False


class TestOneEdgeListing:
    """A one-edge pattern's copies are read off the host's edges, with the
    keys, witnesses and ``truncated`` of the per-embedding listing."""

    def hosts(self):
        rng = np.random.default_rng(81)
        for k in (3, 4):
            for n, p in ((k, 1.0), (6, 0.5), (8, 0.3), (9, 0.7)):
                yield Hypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < p])
        yield Hypergraph(3, 5, [])
        yield Hypergraph(3, 2, [])

    def test_matches_per_embedding_listing(self):
        for h in self.hosts():
            f = Hypergraph(h.k, h.k, [tuple(range(h.k))])
            m = len(h.edges)
            for cap in (0, 1, m - 1, m, m + 1):
                images, truncated = copy_images(f, h, cap)
                want, want_truncated = reference_copy_images(f, h, cap)
                assert list(images.items()) == list(want.items()) and truncated == want_truncated


class TestRootedCopies:
    def test_frames_match_plain_capped_count(self):
        # the last step of each case has many candidates, counted per frame
        def plain(embeddings, cap):
            count = 0
            for _ in embeddings:
                if count == cap:
                    return verification.RootedCount(cap, True)
                count += 1
            return verification.RootedCount(count, False)

        rng = np.random.default_rng(82)
        dense = Hypergraph(3, 8, [e for e in combinations(range(8), 3) if rng.random() < 0.85])
        for f, h in ((single_edge(), complete(7, 3)), (k222(), dense)):
            for vstar, w in ((0, 0), (f.n - 1, 3)):
                total = sum(1 for _ in iter_embeddings(f, h, {vstar: w}))
                assert total > 1
                for cap in (total - 1, total, total + 1):
                    assert rooted_copies(f, vstar, h, w, cap) == plain(iter_embeddings(f, h, {vstar: w}), cap)

    def test_edge_rooted_in_k4(self):
        for w in range(4):
            assert rooted_copies(single_edge(), 0, complete(4, 3), w).count == 6

    def test_edgeless_host(self):
        assert rooted_copies(single_edge(), 0, Hypergraph(3, 4, []), 0).count == 0

    def test_cap(self):
        res = rooted_copies(single_edge(), 0, complete(6, 3), 0, cap=3)
        assert res.count == 3 and res.truncated

    def test_cap_beyond_index_range(self):
        for cap in (6, 10**23):
            res = rooted_copies(single_edge(), 0, complete(4, 3), 0, cap=cap)
            assert res.count == 6 and not res.truncated

    @pytest.mark.parametrize("vstar, w, message", [(3, 0, "pattern vertex 3 out of range"),
                                                   (-1, 0, "pattern vertex -1 out of range"),
                                                   (0, 4, "host vertex 4 out of range"),
                                                   (0, -1, "host vertex -1 out of range")])
    def test_out_of_range_root_refused(self, vstar, w, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            rooted_copies(single_edge(), vstar, complete(4, 3), w)

    def test_uniformity_mismatch_reported_before_range(self):
        with pytest.raises(ValueError, match="uniformity mismatch"):
            rooted_copies(single_edge(), 5, complete(6, 4), 9)


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

    def test_matches_pinned_listing_loop(self):
        # hosts: lemma51 builds, gnp graphs and 4-graphs, an edgeless host
        # and hosts smaller than some patterns
        # (most leave some vertex uncovered)
        hosts3 = [construct_partite_coloring(ConstructionParams(n=n, k=3, seed=seed)).hypergraph
                  for n in (24, 30) for seed in (1, 2)]
        hosts3 += [random_uniform_hypergraph(n, 3, p, seed) for n, p, seed in
                   ((12, 0.06, 1), (10, 0.15, 2), (8, 0.3, 3), (9, 0.7, 4))]
        hosts3 += [Hypergraph(3, 7, []), Hypergraph(3, 4, [(0, 1, 2)])]
        hosts4 = [random_uniform_hypergraph(n, 4, p, seed) for n, p, seed in
                  ((5, 0.8, 5), (9, 0.06, 6), (8, 0.25, 7))] + [Hypergraph(4, 6, [])]
        patterns3 = [single_edge(), cherry(), loose_path(), k4_minus(), k222(), Hypergraph(3, 4, [(0, 1, 2)])]
        patterns4 = [complete(4, 4), Hypergraph(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)]),
                     Hypergraph(4, 7, [(0, 1, 2, 3), (3, 4, 5, 6)])]
        for patterns, hosts in ((patterns3, hosts3), (patterns4, hosts4)):
            for f in patterns:
                for h in hosts:
                    assert find_cover(f, h).witnesses == reference_cover(f, h), (f, h)


def reference_cover(f, h):
    """Per uncovered host vertex w, the first embedding of the first pattern
    root u pinned to w, listed by ``iter_embeddings``."""
    witnesses = [None] * h.n
    for w in range(h.n):
        if witnesses[w] is not None:
            continue
        for u in range(f.n):
            phi = next(iter_embeddings(f, h, {u: w}), None)
            if phi is not None:
                for target in phi:
                    if witnesses[target] is None:
                        witnesses[target] = phi
                break
    return witnesses


class TestIsolatedVertices:
    """Patterns with many isolated vertices: the copy search is a loop, not
    a recursion, and the per-copy order constraints are cut early."""

    def test_first_embedding_deeper_than_the_recursion_limit(self):
        f = Hypergraph(3, 1500, [(0, 1, 2)])
        assert within(1, lambda: next(iter_embeddings(f, f))) == tuple(range(1500))
        assert within(1, rooted_copies, f, 0, f, 0, 1) == verification.RootedCount(1, True)

    def test_per_copy_listing_of_isolated_vertices(self):
        f = Hypergraph(3, 24, [(0, 1, 2)])
        res = within(1, find_factor, f, f)
        assert res.status == "found" and res.certificate == [tuple(range(24))]
        assert res.stats["copies"] == 1 and res.stats["nodes"] == 1
        # three disjoint edges on 26 vertices: a copy is an edge with 21 of
        # the other 23 vertices, and every 24-set holds an edge
        h = Hypergraph(3, 26, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        copies = within(1, lambda: list(iter_embeddings(f, h, per_copy=True)))
        assert len(copies) == 3 * 253 and len({frozenset(phi) for phi in copies}) == 325

    def test_pruned_listing_matches_labelled_firsts(self):
        # the cut only drops subtrees without a leaf: one embedding per copy,
        # in labelled order, on patterns with isolated vertices
        # K222, K4^(3) and two disjoint K4^(3): steps with two or more
        # pairwise floors, and an automorphism that swaps components
        k4 = list(combinations(range(4), 3))
        for n_f, n_h, edges in ((5, 6, [(0, 1, 2)]), (6, 7, [(0, 1, 2), (1, 2, 3)]), (6, 8, [(0, 1, 2)]),
                                (6, 7, k222().edges), (4, 6, k4),
                                (8, 8, k4 + [tuple(v + 4 for v in e) for e in k4])):
            f = Hypergraph(3, n_f, edges)
            for h in (complete(n_h, 3), random_uniform_hypergraph(n_h, 3, 0.5, n_h)):
                firsts = {}
                for phi in iter_embeddings(f, h):
                    copy = frozenset(phi), frozenset(frozenset(phi[v] for v in e) for e in f.edges)
                    firsts.setdefault(copy, phi)
                assert list(iter_embeddings(f, h, per_copy=True)) == list(firsts.values())

    def test_isolated_orbits_found_without_a_search(self):
        # 253 isolated vertices in one orbit, found without a pinned search per pair
        f = Hypergraph(3, 256, [(0, 1, 2)])
        res = within(1, find_factor, f, f)
        assert res.status == "found" and res.certificate == [tuple(range(256))]

    def test_floors_linear_in_isolated_vertices(self):
        # one floor per step: a chain, not a floor per pair of the 1021
        # isolated vertices
        f = Hypergraph(3, 1024, [(0, 1, 2)])
        res = within(1, find_factor, f, f)
        assert res.status == "found" and res.certificate == [tuple(range(1024))]
        f = Hypergraph(3, 1024, [(0, 1, 2)])  # floors are cached per pattern
        tracemalloc.start()
        try:
            find_factor(f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    def test_class_floors_match_pairwise_search(self):
        # reference: one pinned search for every equal-degree pair, isolated
        # vertices included
        rng = random.Random(24)
        patterns = [make() for make in NAMED.values()]
        for _ in range(150):
            k = rng.choice((2, 3, 4))
            n = rng.randint(k, 9)
            patterns.append(Hypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < 0.15]))
        for f in patterns:
            order = [step[0] for step in verification._plan(f, None)]
            degs = f.embedding_masks().degrees
            expected = [[] for _ in order]
            for j, a in enumerate(order):
                fixed = {b: b for b in order[:j]}
                for i in range(j + 1, len(order)):
                    pins = {**fixed, a: order[i]}
                    if degs[order[i]] == degs[a] and next(iter_embeddings(f, f, pins), None) is not None:
                        expected[i].append(a)
            floors = verification._class_floors(f)
            rank = {v: i for i, v in enumerate(order)}
            for i, (below, need) in enumerate(floors):
                # one floor per step, the last pairwise one; its chain reaches the rest
                assert below == (expected[i][-1] if expected[i] else -1)
                chain = []
                while below >= 0:
                    chain.append(below)
                    below = floors[rank[below]][0]
                assert chain[::-1] == expected[i]
                assert need == sum(order[i] in later for later in expected)

    def test_root_classes_match_pairwise_search(self):
        # reference: the smallest vertex that one pinned search of f into f
        # sends to u, isolated vertices included
        rng = random.Random(25)
        patterns = [make() for make in NAMED.values()]
        for _ in range(150):
            k = rng.choice((2, 3, 4))
            n = rng.randint(k, 9)
            patterns.append(Hypergraph(k, n, [e for e in combinations(range(n), k) if rng.random() < 0.15]))
        for f in patterns:
            expected = tuple(next(a for a in range(u + 1) if next(iter_embeddings(f, f, {a: u}), None) is not None)
                             for u in range(f.n))
            assert verification._root_classes(f) == expected, f


def reference_factor(f, h):
    """Plain recursive exact cover over the sorted copy images: the uncovered
    vertex with the fewest options (ties: smallest id), options in ascending
    id.  Returns the certificate (None when absent) and the number
    of options tried."""
    images, truncated = copy_images(f, h)
    assert not truncated
    masks = sorted(images, key=lambda m: sorted(images[m]))
    full = (1 << h.n) - 1
    chosen = []
    nodes = 0

    def rec(used):
        nonlocal nodes
        if used == full:
            return True
        best = None
        for v in range(h.n):
            if not used >> v & 1:
                opts = [i for i, m in enumerate(masks) if m >> v & 1 and not m & used]
                if best is None or len(opts) < len(best):
                    best = opts
        for i in best:
            nodes += 1
            chosen.append(i)
            if rec(used | masks[i]):
                return True
            chosen.pop()
        return False

    found = rec(0)
    return ([images[masks[i]] for i in chosen] if found else None), nodes


def exact_cover(f, h, cap=verification.DEFAULT_CAP):
    """find_factor's exact cover alone, with no refutation tried before it:
    the certificate (None when absent), the options tried and whether the
    node limit was hit."""
    _, witnesses, at_vertex, truncated = verification._options(f, h, cap)
    return verification._exact_cover(h.n, witnesses, at_vertex, truncated)


def space_barrier(rng, n, a, p):
    """Every edge meets a set of ``a`` vertices."""
    side = set(rng.sample(range(n), a))
    return Hypergraph(3, n, [e for e in combinations(range(n), 3) if side & set(e) and rng.random() < p])


def parity_barrier(rng, n, a, p):
    """Every edge meets a set of ``a`` vertices in an even number of them."""
    side = set(rng.sample(range(n), a))
    return Hypergraph(3, n, [e for e in combinations(range(n), 3)
                             if len(side & set(e)) % 2 == 0 and rng.random() < p])


def star_hosts(seed, count, n=15):
    """Seeded hosts for the loose path and the cherry: triples through a
    centre, each kept with probability 0.35, plus three edges avoiding it.
    The avoiding edges often keep two vertices from meeting every edge,
    while two vertices may still meet every copy image.  At n = 10 an image-level
    space certificate {a} never shows: every image then has 5 vertices and
    holds a, so the 9 other vertices meet each one evenly."""
    rng = random.Random(seed)
    for _ in range(count):
        c = rng.randrange(n)
        rest = [v for v in range(n) if v != c]
        edges = [(c,) + pair for pair in combinations(rest, 2) if rng.random() < 0.35]
        edges += [tuple(rng.sample(rest, 3)) for _ in range(3)]
        yield Hypergraph(3, n, edges)


def star(n):
    """Every triple through vertex 0 on n vertices."""
    return Hypergraph(3, n, [(0,) + pair for pair in combinations(range(1, n), 2)])


def pin_cases():
    """Seeded (pattern, host) pairs: random hosts for the single edge, the
    loose path and K222, and space and parity barriers without a factor."""
    rng = random.Random(9)
    for n, p in [(6, 0.3), (9, 0.2), (9, 0.35), (12, 0.15), (12, 0.3)]:
        for _ in range(3):
            yield single_edge(), Hypergraph(3, n, [e for e in combinations(range(n), 3) if rng.random() < p])
    for n, p in [(10, 0.15), (10, 0.3), (15, 0.08)]:
        for _ in range(3):
            yield loose_path(), Hypergraph(3, n, [e for e in combinations(range(n), 3) if rng.random() < p])
    for n, p in [(6, 0.7), (12, 0.4), (12, 0.6)]:
        yield k222(), Hypergraph(3, n, [e for e in combinations(range(n), 3) if rng.random() < p])
    for n, a, p in [(9, 2, 1.0), (12, 3, 1.0), (12, 3, 0.5)]:
        yield single_edge(), space_barrier(rng, n, a, p)
    for n, a, p in [(9, 3, 1.0), (12, 5, 1.0), (12, 5, 0.6)]:
        yield single_edge(), parity_barrier(rng, n, a, p)
    yield loose_path(), space_barrier(rng, 10, 1, 1.0)


class TestFactor:
    def test_perfect_matching_in_k6(self):
        res = find_factor(single_edge(), complete(6, 3))
        assert res.status == "found"
        assert validate_factor_certificate(single_edge(), complete(6, 3), res.certificate)

    def test_divisibility_short_circuit(self):
        res = find_factor(single_edge(), complete(5, 3))
        assert res.status == "absent" and res.refutation == {"kind": "divisibility"}

    def test_empty_host_is_factored_by_no_copies(self):
        empty = Hypergraph(3, 0, [])
        assert factor_oracle(single_edge(), empty)
        res = find_factor(single_edge(), empty)
        assert res.status == "found" and res.certificate == []

    def test_matching_exists_iff_divisible(self):
        for n in range(3, 13):
            res = find_factor(single_edge(), complete(n, 3))
            assert (res.status == "found") == (n % 3 == 0)

    def test_agrees_with_brute_force(self):
        for pattern, n, ps in [
            (single_edge(), 6, (0.35,) * 25),
            (loose_path(), 10, (0.05, 0.08, 0.1, 0.12) * 3),
            (k222(), 12, (0.5, 0.7)),
        ]:
            rng = np.random.default_rng(64)
            statuses = set()
            for p in ps:
                host = random_graph(rng, n, p)
                res = find_factor(pattern, host)
                assert (res.status == "found") == factor_oracle(pattern, host)
                if res.status == "found":
                    assert validate_factor_certificate(pattern, host, res.certificate)
                statuses.add(res.status)
            assert statuses == {"found", "absent"}

    def test_certificate_and_nodes_pinned_to_plain_search(self):
        found = set()
        for f, h in pin_cases():
            certificate, nodes, limit_hit = exact_cover(f, h)
            assert (certificate, nodes) == reference_factor(f, h) and not limit_hit
            found.add(certificate is not None)
        assert found == {True, False}

    def test_one_stats_schema_on_every_return_path(self, monkeypatch):
        keys = {"nodes", "copies", "truncated", "node_limit_hit"}
        barrier = Hypergraph(3, 9, list(combinations(range(4), 3)) + list(combinations(range(4, 9), 3)))
        cases = [  # (pattern, host, cap, status, refutation kind, copies listed)
            (single_edge(), complete(5, 3), DEFAULT_CAP, "absent", "divisibility", False),
            (single_edge(), Hypergraph(3, 0, []), DEFAULT_CAP, "found", None, False),
            (Hypergraph(3, 3, []), complete(6, 3), DEFAULT_CAP, "found", None, False),
            (single_edge(), parity_barrier(random.Random(5), 12, 5, 1.0), DEFAULT_CAP, "absent", "lattice", True),
            (single_edge(), space_barrier(random.Random(4), 15, 4, 1.0), DEFAULT_CAP, "absent", "space", False),
            (loose_path(), next(star_hosts(0, 1)), DEFAULT_CAP, "absent", "space", True),
            (single_edge(), complete(6, 3), DEFAULT_CAP, "found", None, True),
            (single_edge(), barrier, DEFAULT_CAP, "absent", None, True),
            (single_edge(), complete(12, 3), 30, "inconclusive", None, True),
        ]
        monkeypatch.setattr(verification, "TRUNCATED_NODE_LIMIT", 2)
        for f, h, cap, status, kind, listed in cases:
            res = find_factor(f, h, cap)
            assert res.status == status
            assert (res.refutation or {}).get("kind") == kind
            extra = {"reason"} if not f.edges else set()
            assert set(res.stats) == keys | extra
            assert (res.stats["copies"] is not None) == listed
            assert res.stats["truncated"] == res.stats["node_limit_hit"] == (cap < DEFAULT_CAP)
            if kind is not None or not listed:
                assert res.stats["nodes"] == 0
            elif status == "inconclusive":
                assert res.stats["nodes"] == 2
            else:
                assert res.stats["nodes"] > 0

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
        assert not validate_factor_certificate(single_edge(), h, [(0, 1, 2), (2, 1, 0)])
        assert not validate_factor_certificate(single_edge(), h, [(0, 1, 2), (3, 3, 4)])
        assert not validate_factor_certificate(single_edge(), h, [(0, 1, 2)])


def oracle_images(f, h):
    return [sum(1 << v for v in img) for img in copy_images_oracle(f, h)]


def oracle_refutes(f, h, images, cert):
    """Does a well-formed space or lattice certificate hold on ``images``,
    the copy images of f in h as bitmasks?"""
    if cert["kind"] == "space":
        hit = sum(1 << v for v in cert["A"])
        return f.n * len(set(cert["A"])) < h.n and all(img & hit for img in images)
    odd = sum(1 << v for v, x in enumerate(cert["w"]) if x)
    return odd.bit_count() % 2 == 1 and all((img & odd).bit_count() % 2 == 0 for img in images)


def corruptions(cert, n):
    """Well-formed certificates one change away from ``cert``: for a space
    certificate, A less one vertex and A grown to every host vertex (past
    n / v(F)); for a lattice certificate, w with one entry flipped, with two
    flipped, and the zero vector."""
    if cert["kind"] == "space":
        side = cert["A"]
        out = [{"kind": "space", "A": side[:i] + side[i + 1:]} for i in range(len(side))]
        return out + [{"kind": "space", "A": side + [v for v in range(n) if v not in side]}]
    w = cert["w"]
    out = [{"kind": "lattice", "q": 2, "w": w[:i] + [1 - w[i]] + w[i + 1:]} for i in range(n)]
    flip2 = [1 - x if i < 2 else x for i, x in enumerate(w)]
    return out + [{"kind": "lattice", "q": 2, "w": flip2}, {"kind": "lattice", "q": 2, "w": [0] * n}]


def malformed(cert, n):
    """Certificates of the wrong kind or shape, which must all be refused."""
    if cert["kind"] == "space":
        side = cert["A"]
        return [{"kind": "lattice", "A": side}, {"kind": "lattice", "q": 2, "w": side},
                {"kind": "divisibility"}, {"kind": "space", "A": side, "q": 2},
                {"kind": "space", "A": side + side[:1]}, {"kind": "space", "A": [n]},
                {"kind": "space", "A": tuple(side)}, {"kind": "space", "A": [True] * len(side)}]
    w = cert["w"]
    return [{"kind": "space", "q": 2, "w": w}, {"kind": "space", "A": w}, {"kind": "divisibility"},
            {"kind": "lattice", "q": 3, "w": w}, {"kind": "lattice", "q": 2.0, "w": w},
            {"kind": "lattice", "w": w}, {"kind": "lattice", "q": 2, "w": w[:-1]},
            {"kind": "lattice", "q": 2, "w": [x + 2 for x in w]},
            {"kind": "lattice", "q": 2, "w": [bool(x) for x in w]}, {"kind": "parity", "q": 2, "w": w}]


def barrier_hosts():
    """Space and parity barriers for the single edge at several sizes,
    densities and seeds, and loose-path space barriers."""
    rng = random.Random(17)
    for n, a in ((9, 2), (12, 3), (15, 4), (18, 5)):
        for p in (1.0, 0.6, 0.3):
            yield single_edge(), space_barrier(rng, n, a, p)
    for n, a in ((9, 3), (12, 5), (15, 7), (18, 9)):
        for p in (1.0, 0.6, 0.3):
            yield single_edge(), parity_barrier(rng, n, a, p)
    for _ in range(3):
        yield loose_path(), space_barrier(rng, 10, 1, 1.0)
        yield loose_path(), space_barrier(rng, 15, 2, 0.5)


def proofs_barrier_hosts(seed):
    """The barrier hosts of one pass of the ``proofs`` benchmark workload at
    ``seed``, rebuilt with the same draws: space and parity barriers for the
    edge, loose-path space barriers and parity-absent obs62 hosts for K222."""
    return [(f, h) for _, f, h in proofs_barriers(seed)]


def proofs_exhaustive_hosts(seed):
    """The six G(n, 0.45) hosts of the ``proofs`` exhaustive-denseness ops at
    ``seed``, whose seeds are drawn after every barrier's."""
    rng = random.Random(seed)
    for _ in proofs_barriers(seed, rng):
        pass
    return [random_uniform_hypergraph(n, 3, 0.45, rng.randrange(2**32)) for n in (10, 11, 11, 11, 11, 12)]


def proofs_barriers(seed, rng=None):
    """``proofs_barrier_hosts(seed)`` with each host's barrier kind first:
    "space", "parity" or "obs62"; ``rng``, when given, makes the draws in
    place of a fresh ``random.Random(seed)``."""
    rng = random.Random(seed) if rng is None else rng
    patterns = {"edge": single_edge(), "loose": loose_path()}
    for kind, name, n, a, p, copies in (
        ("space", "edge", 15, 4, 1.0, 1), ("parity", "edge", 15, 7, 1.0, 1),
        ("space", "edge", 12, 3, 1.0, 4), ("parity", "edge", 12, 5, 1.0, 4),
        ("space", "edge", 18, 5, 0.3, 2), ("parity", "edge", 18, 9, 0.3, 2),
        ("space", "edge", 15, 4, 0.5, 2), ("parity", "edge", 15, 7, 0.5, 2),
        ("space", "loose", 10, 1, 1.0, 16),
    ):
        make = space_barrier if kind == "space" else parity_barrier
        for _ in range(copies):
            yield kind, patterns[name], make(rng, n, a, p)
    for n, x in ((30, 11), (30, 11), (24, 9), (24, 9)):
        params = ConstructionParams(n=n, k=3, s=2, seed=rng.randrange(2**32), part_sizes=(x, n - x))
        yield "obs62", k222(), construct_shadow_disjoint(params).hypergraph


class TestOptions:
    """The exact-cover options against their plain forms: masks ordered by
    sorted vertex tuple, and one int per vertex of the options holding it."""

    SIZES = [0, 1, 7, 8, 9, 15, 16, 17, 64, 65]

    @pytest.mark.parametrize("n", SIZES)
    def test_transpose_is_the_per_vertex_incidence(self, n):
        rng = random.Random(n)
        for count in (0, 1, 2, 7, 8, 9, 100):
            masks = [rng.getrandbits(n) for _ in range(count)] + [(1 << n) - 1, 0]
            expected = [sum(1 << i for i, m in enumerate(masks) if m >> v & 1) for v in range(n)]
            assert verification._transpose(verification._rows(masks, n), n) == expected

    @pytest.mark.parametrize("n", SIZES)
    def test_order_and_incidence_of_every_listing(self, n):
        rng = random.Random(100 + n)
        hosts = [Hypergraph(3, n, []), random_graph(rng, n, min(0.5, 40 / max(n, 1) ** 2))]
        listed = 0
        for h in hosts:
            for f in (single_edge(), loose_path(), k4_minus()):
                masks, witnesses, at_vertex, truncated = verification._options(f, h, DEFAULT_CAP)
                images, _ = copy_images(f, h)
                assert masks == sorted(images, key=lambda m: sorted(images[m]))
                assert witnesses == [images[m] for m in masks] and not truncated
                assert at_vertex == [sum(1 << i for i, phi in enumerate(witnesses) if v in phi) for v in range(n)]
                listed += len(masks)
        assert listed > 0 or n < 5

    def test_one_edge_options_match_sorted_construction(self):
        """A one-edge pattern's options are taken in listing order; they
        equal the options built by sorting the rows, at every cap."""
        rng = random.Random(40)
        hosts = [random_graph(rng, n, p) for n, p in ((3, 1.0), (7, 0.5), (12, 0.3), (30, 0.15))]
        hosts += [Hypergraph(4, n, [e for e in combinations(range(n), 4) if rng.random() < 0.3]) for n in (6, 9)]
        for h in hosts:
            f = Hypergraph(h.k, h.k, [tuple(range(h.k))])
            m = len(h.edges)
            for cap in (0, 1, m - 1, m, -1):
                images, truncated = copy_images(f, h, cap)
                keyed = sorted(zip(verification._rows(images, h.n), images), reverse=True)
                masks = [mask for _, mask in keyed]
                sorted_options = (masks, [images[mask] for mask in masks],
                                  verification._transpose([row for row, _ in keyed], h.n), truncated)
                assert verification._options(f, h, cap) == sorted_options


class TestRefutation:
    def test_validator_agrees_with_oracle_on_pin_cases(self):
        """Fixed, found and corrupted certificates on every pin case but K222
        into 12 vertices, where the oracle tries 665,280 injections a host."""
        rejected = accepted = 0
        for f, h in pin_cases():
            if f.n == 6 and h.n == 12:
                continue
            res, images = find_factor(f, h), oracle_images(f, h)
            candidates = [{"kind": "space", "A": list(range((h.n - 1) // f.n))},
                          {"kind": "lattice", "q": 2, "w": [1] + [0] * (h.n - 1)}]
            if res.refutation is not None:
                candidates.append(res.refutation)
            for cert in candidates:
                for c in [cert] + corruptions(cert, h.n):
                    ok = validate_refutation(f, h, c)
                    assert ok == oracle_refutes(f, h, images, c), c
                    accepted, rejected = accepted + ok, rejected + (not ok)
                assert not any(validate_refutation(f, h, c) for c in malformed(cert, h.n))
        assert accepted and rejected

    def test_barrier_families_refuted(self):
        """Every barrier host gets a certificate that validates, and every
        one-way corruption of it is refused."""
        kinds = set()
        for f, h in barrier_hosts():
            res = find_factor(f, h)
            assert res.status == "absent" and validate_refutation(f, h, res.refutation)
            kinds.add(res.refutation["kind"])
            bad = corruptions(res.refutation, h.n) + malformed(res.refutation, h.n)
            assert not any(validate_refutation(f, h, c) for c in bad)
        assert kinds == {"space", "lattice"}

    def test_divisibility_certificate(self):
        edge = single_edge()
        assert validate_refutation(edge, complete(5, 3), {"kind": "divisibility"})
        assert not validate_refutation(edge, complete(6, 3), {"kind": "divisibility"})
        assert not validate_refutation(edge, complete(5, 3), {"kind": "divisibility", "q": 2})
        assert not validate_refutation(edge, Hypergraph(4, 5, []), {"kind": "divisibility"})
        assert not validate_refutation(edge, complete(5, 3), "divisibility")

    def test_refuted_hosts_have_no_factor(self):
        rng = np.random.default_rng(65)
        cases = list(pin_cases()) + [(f, h) for f, h in barrier_hosts() if h.n <= 12]
        cases += [(single_edge(), random_graph(rng, 9, 0.15)) for _ in range(20)]
        cases += [(loose_path(), random_graph(rng, 10, 0.1)) for _ in range(10)]
        refuted = 0
        for f, h in cases:
            res = find_factor(f, h)
            if res.refutation is not None:
                refuted += 1
                assert res.status == "absent" and res.stats["nodes"] == 0
                assert validate_refutation(f, h, res.refutation)
                assert not factor_oracle(f, h)
        assert refuted > 20

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_proofs_workload_barriers_refuted(self, seed):
        hosts = list(proofs_barrier_hosts(seed))
        assert len(hosts) == 38
        for f, h in hosts:
            res = find_factor(f, h)
            assert res.status == "absent" and res.stats["nodes"] == 0
            assert validate_refutation(f, h, res.refutation)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_proofs_space_barriers_need_no_listing(self, seed, monkeypatch):
        """The workload's space barriers are refuted from the host's edges:
        the edge's certificate is the one the image masks gave, and the
        loose path's is the one vertex on every edge."""
        hosts = [(f, h) for kind, f, h in proofs_barriers(seed) if kind == "space"]
        assert len(hosts) == 25
        expected = []
        for f, h in hosts:
            if f.edges == single_edge().edges:
                masks, _, at_vertex, _ = verification._options(f, h, DEFAULT_CAP)
                expected.append(verification._space_refutation(masks, at_vertex, (h.n - 1) // f.n))
            else:
                expected.append(sorted(set.intersection(*map(set, h.edges))))
                assert len(expected[-1]) == 1

        def refuse(*args):
            raise AssertionError("copies listed")

        monkeypatch.setattr(verification, "copy_images", refuse)
        for (f, h), side in zip(hosts, expected):
            res = find_factor(f, h)
            assert res.status == "absent" and res.refutation == {"kind": "space", "A": side}
            assert res.stats["copies"] is None and res.stats["nodes"] == 0

    def test_image_space_search_after_edge_try(self):
        """A space certificate that meets every copy image but not every
        edge still comes from the image-level search."""
        from_images = 0
        for f, h in zip((loose_path(), cherry()) * 2, star_hosts(1, 4)):
            res = find_factor(f, h)
            if res.refutation is not None:
                from_images += res.refutation["kind"] == "space" and res.stats["copies"] is not None
                assert res.status == "absent" and validate_refutation(f, h, res.refutation)
                assert not factor_oracle(f, h)
        assert from_images

    def test_single_edge_images_skip_the_repeated_space_search(self, monkeypatch):
        """A single edge's copy images are the host's edges, so the space
        search runs once, on the edges, and not again on the same masks.
        Hubs 0..6 on pairs of 7..23 plus three disjoint edges: a factor
        exists, so no 9 vertices meet all 202 edges and the search fails."""
        rng = random.Random(3)
        edges = [(hub, *pair) for hub in range(7) for pair in combinations(range(7, 24), 2) if rng.random() < 0.2]
        h = Hypergraph(3, 30, edges + [(7, 8, 9), (24, 25, 26), (27, 28, 29)])
        calls = []
        search = verification._space_refutation

        def spy(masks, at_vertex, size):
            calls.append(len(masks))
            return search(masks, at_vertex, size)

        monkeypatch.setattr(verification, "_space_refutation", spy)
        res = find_factor(single_edge(), h)
        assert res.status == "found" and validate_factor_certificate(single_edge(), h, res.certificate)
        assert res.stats["copies"] == 202 and calls == [202]

    def test_capped_listing_keeps_space_barrier(self):
        """The edge try runs before the listing, whatever the cap, so a cap
        can neither hide a space barrier nor make it wait for the listing."""
        edge, loose = single_edge(), loose_path()
        res = find_factor(edge, star(9), cap=1)
        assert res.status == "absent" and res.refutation == {"kind": "space", "A": [0]}
        assert res.stats["copies"] is None and validate_refutation(edge, star(9), res.refutation)
        res = find_factor(loose, star(10))
        assert res.refutation == {"kind": "space", "A": [0]} and validate_refutation(loose, star(10), res.refutation)
        # listing the 135,751 images of the loose path in this star takes about a second
        res = within(1, find_factor, loose, star(45))
        assert res.status == "absent" and res.refutation == {"kind": "space", "A": [0]}
        assert res.stats["copies"] is None

    def test_status_and_certificate_match_exact_cover(self):
        rng = np.random.default_rng(66)
        cases = list(pin_cases()) + list(barrier_hosts())
        cases += [(single_edge(), random_graph(rng, 9, 0.2)) for _ in range(20)]
        for f, h in cases:
            res, (certificate, nodes, limit_hit) = find_factor(f, h), exact_cover(f, h)
            assert (res.status, res.certificate) == ("absent" if certificate is None else "found", certificate)
            if res.refutation is None:
                assert (res.stats["nodes"], res.stats["node_limit_hit"]) == (nodes, limit_hit)

    def test_space_search_stops_at_node_limit(self, monkeypatch):
        f, h = single_edge(), space_barrier(random.Random(4), 15, 4, 1.0)
        assert find_factor(f, h).refutation["kind"] == "space"
        monkeypatch.setattr(verification, "SPACE_NODE_LIMIT", 1)
        res = find_factor(f, h)
        assert res.status == "absent" and res.refutation is None and res.stats["nodes"] > 0

    def test_truncated_listing_is_not_refuted(self):
        f, h = single_edge(), parity_barrier(random.Random(5), 12, 5, 1.0)
        assert find_factor(f, h).refutation["kind"] == "lattice"
        res = find_factor(f, h, cap=10)
        assert res.status == "inconclusive" and res.refutation is None and res.stats["truncated"]

    def test_truncated_search_stops_at_node_limit(self, monkeypatch):
        f, h = single_edge(), complete(12, 3)
        res = find_factor(f, h, cap=30)
        assert res.stats["truncated"] and not res.stats["node_limit_hit"] and res.stats["nodes"] > 1
        for limit in range(res.stats["nodes"]):
            monkeypatch.setattr(verification, "TRUNCATED_NODE_LIMIT", limit)
            res = find_factor(f, h, cap=30)
            assert res.status == "inconclusive" and res.certificate is None
            assert res.stats["nodes"] == limit and res.stats["node_limit_hit"]
            # a complete listing is searched to the end whatever the limit
            res = find_factor(f, h)
            assert res.status == "found" and not res.stats["node_limit_hit"]


class TestParityOnShadowDisjoint:
    def test_k222_copies_meet_sides_evenly(self):
        # K222 with X = one of its parts is vacuously 2-shadow disjoint and
        # hosts exactly one copy image whose X-intersection is even.
        host = k222()
        x_mask = 0b11
        images, _ = copy_images(k222(), host)
        assert images
        for mask in images:
            assert (x_mask & mask).bit_count() % 2 == 0


class TestDenseness:
    def test_edgeless_worst_deficit_is_p(self):
        est = exact_denseness_small(Hypergraph(3, 7, []), 0.42)
        assert est.worst_deficit == pytest.approx(0.42, abs=1e-12)

    def test_sampled_edgeless_deficit_is_p_times_volume(self):
        n, p, seed = 6, 0.42, 3
        est = estimate_denseness(Hypergraph(3, n, []), p, 20, seed=seed)
        volumes = []
        rng = np.random.default_rng(seed)
        for _ in range(20):
            volumes.append(np.prod([int((rng.random(n) < 0.5).sum()) for _ in range(3)]))
        assert est.worst_deficit == pytest.approx(p * max(volumes) / n**3, abs=1e-12)
        assert est.worst_deficit > 0

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

    @pytest.mark.parametrize("p", [1.5, -0.25, float("nan"), float("inf"), -float("inf")])
    def test_every_denseness_function_refuses_p_outside_unit_interval(self, p):
        h = complete(6, 3)
        for call in (lambda: exact_denseness_small(h, p), lambda: estimate_denseness(h, p, 10, seed=1),
                     lambda: estimate_S_denseness(h, p, [[1], [2, 3]], 10, seed=1)):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                call()

    def test_proofs_hosts_build_the_sorted_table_on_few_sets(self, monkeypatch):
        """The row bound leaves the sorted bound table a few dozen sets on
        all but one of the 18 exhaustive hosts of three ``proofs`` passes,
        and at most 5% of a pass's 13,312 sets (54, 20 and 621 at these
        seeds).  The one is an n = 11 host at seed 19 that keeps 605: the
        best pair of its top-U row, the whole set with itself, scans 99
        against a worst deficit of 122."""
        widths = []

        def spy(counts, columns, sizes, p):
            widths.append(len(columns))
            return bounds_by_size(counts, columns, sizes, p)

        bounds_by_size = verification._bounds_by_size
        monkeypatch.setattr(verification, "_bounds_by_size", spy)
        passes = []
        for seed in (1, 2, 19):
            widths.clear()
            for h in proofs_exhaustive_hosts(seed):
                exact_denseness_small(h, 0.5)
            assert len(widths) == 6 and sum(widths) <= 13312 // 20, (seed, widths)
            passes += widths
        assert sorted(passes)[-2] <= 50, passes

    def test_exhaustive_refused_for_large_hosts(self):
        with pytest.raises(ValueError):
            exact_denseness_small(Hypergraph(3, 13, []), 0.5)
        with pytest.raises(ValueError):
            exact_denseness_small(Hypergraph(4, 8, [(0, 1, 2, 3)]), 0.5)

    def test_sampled_refuses_uniformity_above_six_before_drawing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        for h in (Hypergraph(7, 7, [tuple(range(7))]), Hypergraph(12, 12, [])):
            with pytest.raises(ValueError, match="k!"):
                estimate_denseness(h, 0.5, 1000, seed=0)

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

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_shared_positions_family_matches_brute_force(self, n):
        # The family {12, 13, 23} of Reiher-Rodl-Schacht: its three tables meet
        # pairwise on one axis.  Draw them from one stream seeded by seed, a
        # sample at a time in canonical family order, and count over V^3
        # directly.
        family = [[1, 2], [1, 3], [2, 3]]
        for seed, p in ((n, 0.3), (n + 10, 0.6)):
            h = random_uniform_hypergraph(n, 3, 0.6, seed)
            edges = set(h.edges)
            deficits = []
            rng = np.random.default_rng(seed)
            for _ in range(12):
                t12, t13, t23 = ((rng.random(n * n) < 0.5).reshape(n, n).tolist() for _ in family)
                allowed = [x for x in product(range(n), repeat=3)
                           if t12[x[0]][x[1]] and t13[x[0]][x[2]] and t23[x[1]][x[2]]]
                count = sum(tuple(sorted(x)) in edges for x in allowed)
                deficits.append((p * len(allowed) - count) / n**3)
            assert estimate_S_denseness(h, p, family, 12, seed=seed).worst_deficit == max(deficits)

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



def reference_sample_deficits(h, p, family, count, seed):
    """Deficits of samples 0..count-1, one sample at a time from one stream
    seeded by ``seed``: the plain loop the batched estimators replaced.
    ``family=None`` draws k vertex masks and counts edges over all k!
    orderings of the masks; a family draws its tables in canonical order and
    counts against the dense n^k edge tensor."""
    n, k = h.n, h.k
    edges = np.array(h.edges, dtype=np.int64).reshape(-1, k)
    tensor = np.zeros((n,) * k, dtype=bool)
    for e in h.edges:
        for order in permutations(e):
            tensor[order] = True
    deficits = []
    rng = np.random.default_rng(seed)
    for _ in range(count):
        if family is None:
            masks = [rng.random(n) < 0.5 for _ in range(k)]
            allowed = 1
            for mask in masks:
                allowed *= int(mask.sum())
            hits = 0
            for order in permutations(range(k)):
                sel = np.ones(len(edges), dtype=bool)
                for pos, col in enumerate(order):
                    sel &= masks[pos][edges[:, col]]
                hits += int(sel.sum())
        else:
            table = np.ones((n,) * k, dtype=bool)
            for s in canonical_family(family):
                table &= (rng.random(n ** len(s)) < 0.5).reshape([n if pos in s else 1 for pos in range(1, k + 1)])
            allowed, hits = int(table.sum()), int((table & tensor).sum())
        deficits.append((p * allowed - hits) / n**k)
    return deficits


def drawn_host(k, n, m, seed):
    """m distinct k-sets of range(n), drawn by a generator seeded by ``seed``."""
    rng = np.random.default_rng(seed)
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.choice(n, k, replace=False).tolist())))
    return Hypergraph(k, n, edges)


def sweep_families(k):
    """The directed families of the bit-identity sweep that fit uniformity k."""
    families = [None, [[pos] for pos in range(1, k + 1)], [[1, 2], [3]], [list(range(1, k + 1))],
                [[1, 2], [1, 3], [2, 3]], [], [[1], [1], [2, k], [k, 2]]]
    return [f for f in families if f is None or all(pos <= k for s in f for pos in s)]


class TestBatchedSampling:
    """Samples are drawn and counted in batches of up to 64; every report is
    bit-identical to the plain per-sample loop above."""

    COUNTS = (1, 63, 64, 65, 130)

    @staticmethod
    def estimate(h, p, family, count, seed):
        if family is None:
            return estimate_denseness(h, p, count, seed)
        return estimate_S_denseness(h, p, family, count, seed)

    @pytest.mark.parametrize("k, n", [(2, 12), (3, 9), (4, 7), (5, 7), (6, 7)])
    def test_matches_the_per_sample_loop(self, k, n):
        h = random_uniform_hypergraph(n, k, 0.5, 40 + k)
        assert h.edges
        for family in sweep_families(k):
            deficits = reference_sample_deficits(h, 0.43, family, max(self.COUNTS), k)
            for count in self.COUNTS:
                est = self.estimate(h, 0.43, family, count, k)
                assert type(est.worst_deficit) is float
                assert est.worst_deficit == max(deficits[:count]), (family, count)

    @pytest.mark.parametrize("h", [Hypergraph(3, 8, []), Hypergraph(3, 1, []), Hypergraph(2, 1, [])],
                             ids=["edgeless", "one-vertex-3", "one-vertex-2"])
    def test_edgeless_and_one_vertex_hosts(self, h):
        for family in sweep_families(h.k):
            deficits = reference_sample_deficits(h, 0.3, family, 65, 5)
            for count in (1, 65):
                assert self.estimate(h, 0.3, family, count, 5).worst_deficit == max(deficits[:count])

    # Singleton families count edges through the (k-1)-sets' completion
    # masks, held as 64-bit words, where the sets average four completions
    # per word: seeded hosts on each side of one and two words, all dense
    # enough.  In the matching host most (k-1)-sets have one completion, and
    # {0, 1} and {63, 64} have one in each word: it counts the edges.  The
    # clique-and-star host is K_64 plus 130's edges to 5 and 64..127, so
    # {130} is the last set with a completion in word 0 and the first with
    # one in word 1: its two words are adjacent entries.
    BOUNDARY_HOSTS = {
        **{f"{k}-{n}": lambda k=k, n=n, m=m: drawn_host(k, n, m, n + k) for k, n, m in
           [(3, 63, 12000), (3, 64, 12000), (3, 65, 12000), (3, 130, 40000), (2, 64, 1000), (2, 65, 1000),
            (2, 200, 6000)]},
        "edgeless-65": lambda: Hypergraph(3, 65, []),
        "matching-66": lambda: Hypergraph(3, 66, [(i, i + 1, i + 2) for i in range(0, 66, 3)] + [(0, 1, 65),
                                                                                                  (2, 63, 64)]),
        "clique-star-131": lambda: Hypergraph(2, 131, [*combinations(range(64), 2), (5, 130),
                                                       *((v, 130) for v in range(64, 128))]),
    }

    @pytest.mark.parametrize("name", BOUNDARY_HOSTS)
    def test_matches_the_per_sample_loop_across_word_boundaries(self, name, monkeypatch):
        h, grouped = self.BOUNDARY_HOSTS[name](), []
        group = verification._completion_words
        monkeypatch.setattr(verification, "_completion_words", lambda edges, n: grouped.append(n) or group(edges, n))
        for family in sweep_families(h.k):
            deficits = reference_sample_deficits(h, 0.41, family, 65, 3)
            for count in (1, 2, 3, 4, 65):
                assert self.estimate(h, 0.41, family, count, 3).worst_deficit == max(deficits[:count]), family
        assert bool(grouped) == (name not in ("edgeless-65", "matching-66"))

    @pytest.mark.parametrize("count", [1, 65, 300])
    def test_one_generator_per_call(self, monkeypatch, count):
        # Every sample is drawn from the stream of one generator seeded by
        # seed, whatever the sample count and however many batches it takes.
        h = random_uniform_hypergraph(10, 3, 0.5, 11)
        seeds = []
        real = np.random.default_rng

        def counted(*args, **kwargs):
            seeds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted)
        for family in (None, [[1, 2], [3]]):
            seeds.clear()
            self.estimate(h, 0.5, family, count, 9)
            assert seeds == [(9,)], family

    def test_batch_of_one_gives_the_same_deficits(self, monkeypatch):
        # With DENSE_CELL_LIMIT at n^3, every batch holds one sample: a
        # sample's draws alone fill the limit for the full-position families,
        # and the uniform estimator gets no room at all.
        h = random_uniform_hypergraph(5, 3, 0.5, 8)
        runs = [(None, 1), ([[1, 2, 3]], 5**3), ([[1], [1, 2, 3]], 5**3)]
        wide = [self.estimate(h, 0.5, family, 70, 2).worst_deficit for family, _ in runs]
        widths = []
        counter = verification._edge_tuple_counts

        def spy(rows, tables, n, width, weights=None):
            widths.append(width)
            return counter(rows, tables, n, width, weights)

        monkeypatch.setattr(verification, "_edge_tuple_counts", spy)
        for (family, limit), deficit in zip(runs, wide):
            monkeypatch.setattr(verification, "DENSE_CELL_LIMIT", limit)
            assert self.estimate(h, 0.5, family, 70, 2).worst_deficit == deficit
        assert widths == [1] * (70 * len(runs))

    def test_batch_of_one_on_grouped_rows(self, monkeypatch):
        # The 5-vertex host above is too sparse for completion words; a
        # G(70, 0.5) counts its samples through two words per (k-1)-set, and
        # with DENSE_CELL_LIMIT at 1 every such batch holds one sample.
        h = random_uniform_hypergraph(70, 3, 0.5, 8)
        wide = estimate_denseness(h, 0.5, 70, 2).worst_deficit
        calls = []
        counter = verification._edge_tuple_counts

        def spy(rows, tables, n, width, weights=None):
            calls.append((width, weights is not None))
            return counter(rows, tables, n, width, weights)

        monkeypatch.setattr(verification, "_edge_tuple_counts", spy)
        monkeypatch.setattr(verification, "DENSE_CELL_LIMIT", 1)
        assert estimate_denseness(h, 0.5, 70, 2).worst_deficit == wide
        assert calls == [(1, True)] * 70


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

    def test_hosts_past_14_vertices_match_factor_oracle(self):
        # Only the copy cap bounds the host; the oracle decides each W over
        # induced subgraphs.
        rng = np.random.default_rng(76)
        cherry = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
        counts = []
        for f, n, p in [(single_edge(), 20, 0.25), (cherry, 16, 0.2), (loose_path(), 15, 0.15)]:
            h = random_graph(rng, n, p)
            expected = sum(
                all(factor_oracle(f, h.induced((x,) + ws)[0]) for x in (0, 1))
                for ws in combinations(range(2, h.n), f.n - 1)
            )
            counts.append(count_reachable_sets(h, f, 0, 1))
            assert counts[-1] == expected
        assert all(counts)

    def test_more_copies_than_the_cap_refused(self, monkeypatch):
        # K6^(3) holds 20 copies of an edge; a cap of 19 leaves no exact count.
        listing = verification.copy_images
        monkeypatch.setattr(verification, "copy_images", lambda f, h: listing(f, h, 19))
        with pytest.raises(ValueError, match="copies"):
            count_reachable_sets(complete(6, 3), single_edge(), 0, 1)


class TestEdgeCases:
    """Empty patterns and hosts, patterns larger than the host, and the
    refusals of the counting and sampling entry points."""

    def test_factor_of_the_empty_host(self):
        res = find_factor(single_edge(), Hypergraph(3, 0, []))
        assert (res.status, res.certificate, res.stats) == ("found", [], {
            "nodes": 0, "copies": None, "truncated": False, "node_limit_hit": False})

    def test_pattern_larger_than_host(self):
        f, h = Hypergraph(3, 4, [(0, 1, 2)]), single_edge()
        assert list(iter_embeddings(f, h)) == [] and list(iter_embeddings(f, h, per_copy=True)) == []
        assert copy_images(f, h) == ({}, False)

    def test_empty_pattern_has_one_embedding(self):
        empty = Hypergraph(3, 0, [])
        for h in (empty, single_edge()):
            assert list(iter_embeddings(empty, h)) == [()]

    @pytest.mark.parametrize("f, u, v", [
        (single_edge(), 1, 1), (single_edge(), 0, 5), (single_edge(), -1, 0), (Hypergraph(3, 0, []), 0, 1),
    ], ids=["u-is-v", "v-out-of-range", "u-negative", "empty-pattern"])
    def test_reachability_refusals(self, f, u, v):
        with pytest.raises(ValueError, match="distinct host vertices|at least one vertex"):
            count_reachable_sets(complete(5, 3), f, u, v)

    def test_estimators_refuse_zero_samples(self):
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_denseness(complete(4, 3), 0.5, 0, seed=1)
        with pytest.raises(ValueError, match="at least one sample"):
            estimate_S_denseness(complete(4, 3), 0.5, [[1], [2], [3]], 0, seed=1)

    def test_directed_denseness_refuses_the_empty_host(self):
        with pytest.raises(ValueError, match="at least one vertex"):
            estimate_S_denseness(Hypergraph(3, 0, []), 0.5, [[1], [2], [3]], 5, seed=1)


class TestUniformityMismatch:
    """A pattern and a host of different uniformity get an error, not an answer."""

    def test_factor_refused(self):
        for f, h in [(Hypergraph(4, 2, []), Hypergraph(3, 4, [(0, 1, 2)])),
                     (Hypergraph(4, 4, [(0, 1, 2, 3)]), Hypergraph(3, 5, [(0, 1, 2)]))]:
            with pytest.raises(ValueError, match="uniformity mismatch"):
                find_factor(f, h)

    def test_cover_refused(self):
        with pytest.raises(ValueError, match="uniformity mismatch"):
            find_cover(Hypergraph(4, 4, [(0, 1, 2, 3)]), Hypergraph(3, 0, []))

    def test_validators_reject(self):
        f, h = Hypergraph(4, 2, []), Hypergraph(3, 4, [(0, 1, 2)])
        assert not validate_embedding(f, h, (0, 1))
        assert not validate_factor_certificate(f, h, [(0, 1), (2, 3)])
        # The empty certificate covers the empty host: only the uniformity differs.
        assert not validate_factor_certificate(Hypergraph(4, 4, [(0, 1, 2, 3)]), Hypergraph(3, 0, []), [])
