import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
    PreconditionError,
    decide_factor_3,
    decide_trans,
    enumerate_shadow_disjoint_bipartitions,
    lattice_combination,
    lattice_contains,
    lattice_from_generators,
    size_generators,
)
from factorlab.corpus import k222, single_edge
from factorlab.hypergraph import PartAssignments
from factorlab.lattice import bipartition_sizes, shared_sum_contains
from factorlab.oracles import bounded_combination_oracle
from alarm import within
from relabelling import relabel

TWO_SHARED = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])

# Coefficient bound of the brute-force search: it reaches every combination
# of the random targets below, which use coefficients in [-2, 2].
BRUTE_BOUND = 4


def random_generators(rng):
    """1 to 3 generators in Z^1..Z^4 with entries in [-3, 3]."""
    dim, count = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    return [tuple(int(v) for v in rng.integers(-3, 4, size=dim)) for _ in range(count)]


def brute_force_bipartitions(f, s):
    """Raw-definition filter over all 2^n bipartitions."""
    good = []
    for sides in product((0, 1), repeat=f.n):
        a = {v for v in range(f.n) if sides[v] == 0}
        ok = True
        for e, e2 in combinations(f.edges, 2):
            if len(set(e) & a) != len(set(e2) & a) and len(set(e) & set(e2)) >= s:
                ok = False
                break
        if ok:
            good.append(frozenset(a))
    return good


def blocks(copies, pad=0):
    """``copies`` blocks {b, b+1, b+2, b+3}, {b, b+1, b+4, b+5} of a 4-graph,
    each pair meeting in two vertices, then ``pad`` vertices in disjoint
    edges: one 2-class per block, but two 3-classes."""
    n = 6 * copies
    edges = [e for b in range(0, n, 6) for e in ((b, b + 1, b + 2, b + 3), (b, b + 1, b + 4, b + 5))]
    return Hypergraph(4, n + pad, edges + [tuple(range(v, v + 4)) for v in range(n, n + pad, 4)])


def random_linear(rng, k, n, tries):
    """Edges drawn at random, each kept when it meets every kept edge in at
    most one vertex."""
    edges = []
    for _ in range(tries):
        e = set(int(v) for v in rng.choice(n, k, replace=False))
        if all(len(e.intersection(d)) <= 1 for d in edges):
            edges.append(e)
    return Hypergraph(k, n, edges)


@pytest.fixture
def walks(monkeypatch):
    """The ``fixed`` map of every part-assignment walk started from now on."""
    started = []
    original = PartAssignments.__iter__

    def spy(self):
        started.append(dict(self.fixed))
        return original(self)

    monkeypatch.setattr(PartAssignments, "__iter__", spy)
    return started


@pytest.fixture
def no_walk(monkeypatch):
    def refuse(self):
        raise AssertionError("a bipartition walk was started")

    monkeypatch.setattr(PartAssignments, "__iter__", refuse)


class TestBipartitions:
    def test_single_edge_all_bipartitions(self):
        assert len(enumerate_shadow_disjoint_bipartitions(single_edge(), 2)) == 8

    def test_k222_parts_stay_monochromatic(self):
        bips = enumerate_shadow_disjoint_bipartitions(k222(), 2)
        assert sorted({len(bp.parts[0]) for bp in bips}) == [0, 2, 4, 6]
        for bp in bips:
            a = set(bp.parts[0])
            for part in ({0, 1}, {2, 3}, {4, 5}):
                assert part <= a or not (part & a)

    def test_two_shared_edges(self):
        bips = enumerate_shadow_disjoint_bipartitions(TWO_SHARED, 2)
        assert len(bips) == len(brute_force_bipartitions(TWO_SHARED, 2)) == 8
        for bp in bips:
            assert (2 in bp.parts[0]) == (3 in bp.parts[0])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(202)
        triples = list(combinations(range(6), 3))
        for _ in range(30):
            mask = rng.random(len(triples)) < 0.3
            f = Hypergraph(3, 6, [t for t, m in zip(triples, mask) if m])
            got = {frozenset(bp.parts[0]) for bp in enumerate_shadow_disjoint_bipartitions(f, 2)}
            assert got == set(brute_force_bipartitions(f, 2))

    def test_listing_order_is_the_plain_filter_order(self):
        """The listing equals, in order, the brute-force filter of all 2^n
        A-first assignments (vertex 0 decided first, A before B)."""
        rng = np.random.default_rng(205)
        for k, n in ((3, 6), (3, 7), (4, 6), (4, 7)):
            sets = list(combinations(range(n), k))
            for p in (0.15, 0.3, 0.5):
                f = Hypergraph(k, n, [e for e, keep in zip(sets, rng.random(len(sets)) < p) if keep])
                for s in range(2, k):
                    want = [(tuple(sorted(a)), tuple(v for v in range(n) if v not in a))
                            for a in brute_force_bipartitions(f, s)]
                    got = [(bp.parts[0], bp.parts[1]) for bp in enumerate_shadow_disjoint_bipartitions(f, s)]
                    assert got == want

    def test_complement_symmetry(self):
        rng = np.random.default_rng(203)
        triples = list(combinations(range(6), 3))
        for _ in range(10):
            mask = rng.random(len(triples)) < 0.3
            f = Hypergraph(3, 6, [t for t, m in zip(triples, mask) if m])
            sides = {(bp.parts[0], bp.parts[1]) for bp in enumerate_shadow_disjoint_bipartitions(f, 2)}
            assert all((b, a) in sides for a, b in sides)

    def test_monotone_in_s(self):
        rng = np.random.default_rng(204)
        quads = list(combinations(range(6), 4))
        for _ in range(10):
            mask = rng.random(len(quads)) < 0.3
            f = Hypergraph(4, 6, [q for q, m in zip(quads, mask) if m])
            gens2 = set(map(tuple, size_generators(f, 2)))
            gens3 = set(map(tuple, size_generators(f, 3)))
            assert gens2 <= gens3

    def test_s_out_of_range(self):
        with pytest.raises(ValueError):
            enumerate_shadow_disjoint_bipartitions(single_edge(), 1)
        with pytest.raises(ValueError):
            enumerate_shadow_disjoint_bipartitions(single_edge(), 3)

    def test_size_counts_match_the_listing(self, walks):
        """The counts per |A| are the listing's and the brute force's, for
        every s, also with isolated vertices and relabelled: in closed form,
        with no walk, exactly when the s- and (k-1)-overlap classes are as
        many, and otherwise from one walk that fixes every vertex outside
        the s-classes of two or more edges."""
        rng = np.random.default_rng(206)
        routes = Counter()
        for k, n in ((3, 6), (3, 8), (4, 7), (4, 8), (5, 7), (5, 8)):
            sets = list(combinations(range(n), k))
            for p in (0.05, 0.15, 0.3):
                f = Hypergraph(k, n, [e for e, keep in zip(sets, rng.random(len(sets)) < p) if keep])
                padded = relabel(Hypergraph(k, n + 2, f.edges), [int(v) for v in rng.permutation(n + 2)])
                for g, s in product((f, padded), range(2, k)):
                    bips = enumerate_shadow_disjoint_bipartitions(g, s)
                    del walks[:]
                    sizes = bipartition_sizes(g, s)
                    assert sizes == Counter(len(bp.parts[0]) for bp in bips)
                    assert sizes == Counter(map(len, brute_force_bipartitions(g, s)))
                    assert list(sizes) == sorted(sizes) and sum(sizes.values()) == len(bips)
                    closed = len(g.overlap_classes(s)) == len(g.overlap_classes(k - 1))
                    bound = {v for c in g.overlap_classes(s) if len(c) > 1 for i in c for v in g.edges[i]}
                    assert walks == ([] if closed else [{v: 0 for v in range(g.n) if v not in bound}])
                    routes[closed, g is padded] += 1
        assert set(routes) == set(product((False, True), repeat=2))

    def test_same_side_classes_walk_nothing(self, no_walk):
        """At s = k-1, and wherever the s- and (k-1)-classes agree, the counts
        come from the same-side classes alone."""
        assert bipartition_sizes(k222(), 2) == {0: 1, 2: 3, 4: 3, 6: 1}
        assert bipartition_sizes(single_edge(), 2) == {0: 1, 1: 3, 2: 3, 3: 1}
        rng = np.random.default_rng(207)
        for k, n in ((3, 7), (4, 7), (5, 8)):
            sets = list(combinations(range(n), k))
            for p in (0.1, 0.3, 0.6):
                f = Hypergraph(k, n, [e for e, keep in zip(sets, rng.random(len(sets)) < p) if keep])
                assert bipartition_sizes(f, k - 1) == Counter(map(len, brute_force_bipartitions(f, k - 1)))

    def test_deciders_share_one_build_of_the_classes(self, monkeypatch):
        """factor3 and then trans at s = 2 on one graph read one cached
        union-find: cover-partition builds it, the counts reuse it."""
        builds = []
        cached = Hypergraph._cached

        def spy(self, key, compute):
            return cached(self, key, lambda: builds.append(key) or compute())

        monkeypatch.setattr(Hypergraph, "_cached", spy)
        f = Hypergraph(3, 7, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 2, 3)])
        assert decide_factor_3(f).witness["cover-partition"]["vstar"] == 1
        assert builds.count("same_side_classes") == 1
        assert decide_trans(f, 2).verdict
        # The classes are {0, 3} and five singletons: (1 + x^2)(1 + x)^5.
        assert bipartition_sizes(f, 2) == {0: 1, 1: 5, 2: 11, 3: 15, 4: 15, 5: 11, 6: 5, 7: 1}
        assert builds.count("same_side_classes") == 1

    def test_blocks_meeting_in_two_vertices_are_walked(self, walks):
        """Three blocks of two 4-edges meeting in a pair, at s = 2: each keeps
        as many of its own pairs in A, 24 ways per block.  Four vertices in a
        disjoint edge stay out of the walk and double the count four times."""
        assert sum(bipartition_sizes(blocks(3), 2).values()) == 24 ** 3 == 13824
        assert sum(bipartition_sizes(blocks(3, pad=4), 2).values()) == 13824 * 16
        assert walks == [{}, dict.fromkeys(range(18, 22), 0)]

    def test_disjoint_edges_are_counted_not_walked(self):
        """85 disjoint edges on 255 vertices: every bipartition qualifies."""
        f = Hypergraph(3, 255, [(v, v + 1, v + 2) for v in range(0, 255, 3)])
        assert within(1, bipartition_sizes, f, 2) == {a: comb(255, a) for a in range(256)}
        assert within(1, decide_trans, f, 2).verdict is True

    def test_isolated_vertices_are_counted_not_walked(self):
        """One edge on 40 vertices: 37 isolated vertices join either side of
        each of the edge's 8 bipartitions, 2^40 in all."""
        f = Hypergraph(3, 40, [(0, 1, 2)])
        assert within(1, bipartition_sizes, f, 2) == {a: comb(40, a) for a in range(41)}

    def test_sizes_hold_no_bipartition(self):
        """The 2^12 bipartitions of one edge on 12 vertices are counted, not kept."""
        f = Hypergraph(3, 12, [(0, 1, 2)])
        tracemalloc.start()
        try:
            gens = size_generators(f, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gens == [(a, 12 - a) for a in range(13)]
        assert peak < 64 * 1024


class TestLattice2:
    def test_k222_generators_exclude_transferral(self):
        lat = lattice_from_generators([(0, 6), (2, 4), (4, 2), (6, 0)])
        assert not lattice_contains(lat, (1, -1))
        assert lattice_contains(lat, (2, -2))
        assert lattice_contains(lat, (2, 4))

    def test_single_generator(self):
        lat = lattice_from_generators([(3, 0)])
        assert lattice_contains(lat, (6, 0))
        assert not lattice_contains(lat, (3, 1))
        assert not lattice_contains(lat, (1, 0))

    def test_explicit_combination(self):
        lat = lattice_from_generators([(1, 2), (2, 1)])
        assert lattice_contains(lat, (1, -1))  # (2,1) - (1,2)

    def test_zero_vector_always_contained(self):
        for gens in ([(5, 7)], [(0, 3), (2, 2)], [(0, 0)]):
            assert lattice_contains(lattice_from_generators(gens), (0, 0))

    def test_empty_generators_rejected(self):
        with pytest.raises(ValueError):
            lattice_from_generators([])

    def test_ragged_generators_rejected(self):
        with pytest.raises(ValueError):
            lattice_from_generators([(1, 2), (3,)])
        with pytest.raises(ValueError):
            lattice_from_generators([(1,), (2, 0, 1)])
        with pytest.raises(ValueError):
            lattice_contains(lattice_from_generators([(1, 2)]), (1, 2, 0))

    def test_pinned_bases(self):
        assert lattice_from_generators(size_generators(k222(), 2)).basis == ((2, 4), (0, 6))
        assert lattice_from_generators(size_generators(single_edge(), 2)).basis == ((1, 2), (0, 3))

    def test_echelon_form(self):
        # Positive pivots in strictly increasing columns, entries above each
        # pivot in [0, pivot), and each row is its combination of generators.
        rng = np.random.default_rng(305)
        for _ in range(200):
            gens = random_generators(rng)
            lat = lattice_from_generators(gens)
            cols = [next(i for i, c in enumerate(row) if c) for row in lat.basis]
            assert cols == sorted(set(cols))
            for i, (row, col) in enumerate(zip(lat.basis, cols)):
                assert row[col] > 0
                assert all(0 <= above[col] < row[col] for above in lat.basis[:i])
            for row, combo in zip(lat.basis, lat.combinations):
                assert tuple(int(v) for v in np.array(combo) @ np.array(gens)) == row

    def test_basis_independent_of_generator_order(self):
        rng = np.random.default_rng(303)
        for _ in range(200):
            gens = random_generators(rng)
            basis = lattice_from_generators(gens).basis
            for _ in range(3):
                shuffled = [gens[i] for i in rng.permutation(len(gens))]
                assert lattice_from_generators(shuffled).basis == basis

    def test_agrees_with_bounded_brute_force_in_dimensions_1_to_4(self):
        rng = np.random.default_rng(304)
        for _ in range(150):
            gens = random_generators(rng)
            dim, m = len(gens[0]), len(gens)
            grid = np.array(list(product(range(-BRUTE_BOUND, BRUTE_BOUND + 1), repeat=m)))
            reachable = set(map(tuple, (grid @ np.array(gens)).tolist()))
            lat = lattice_from_generators(gens)
            targets = [(0,) * dim, (1,) + (0,) * (dim - 1)]
            targets += [tuple(int(v) for v in rng.integers(-2, 3, size=m) @ np.array(gens))
                        for _ in range(3)]
            targets += [tuple(int(v) for v in rng.integers(-4, 5, size=dim)) for _ in range(3)]
            for target in targets:
                # A hit of the bounded search proves membership; a member the
                # search misses must still come with a combination that
                # re-evaluates to it.
                contained = lattice_contains(lat, target)
                assert contained or target not in reachable
                coeffs = lattice_combination(lat, target)
                assert (coeffs is not None) == contained
                if contained:
                    reached = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim))
                    assert reached == target

    def test_agrees_with_bounded_brute_force(self):
        rng = np.random.default_rng(301)
        for _ in range(100):
            total = int(rng.integers(1, 13))
            count = int(rng.integers(1, 6))
            firsts = sorted(set(int(rng.integers(0, total + 1)) for _ in range(count)))
            gens = [(a, total - a) for a in firsts]
            lat = lattice_from_generators(gens)
            targets = [(1, -1), (0, 0), (1, 0)]
            for _ in range(3):
                coeffs = rng.integers(-2, 3, size=len(gens))
                targets.append(
                    (
                        int(sum(c * g[0] for c, g in zip(coeffs, gens))),
                        int(sum(c * g[1] for c, g in zip(coeffs, gens))),
                    )
                )
            for target in targets:
                got = lattice_contains(lat, target)
                assert got == shared_sum_contains(gens, target)
                assert got == (bounded_combination_oracle(gens, target) is not None)

    @pytest.mark.parametrize("gens, message", [([], "empty generator set"),
                                               ([(1, 2), (2, 2)], "do not share a coordinate sum")])
    def test_shared_sum_refusals(self, gens, message):
        with pytest.raises(ValueError, match=message):
            shared_sum_contains(gens, (1, -1))

    def test_combination_reevaluates_exactly(self):
        rng = np.random.default_rng(302)
        for _ in range(50):
            total = int(rng.integers(1, 13))
            firsts = sorted(set(int(rng.integers(0, total + 1)) for _ in range(4)))
            gens = [(a, total - a) for a in firsts]
            lat = lattice_from_generators(gens)
            coeffs = lattice_combination(lat, (1, -1))
            assert (coeffs is not None) == shared_sum_contains(gens, (1, -1))
            if coeffs is not None:
                x = sum(c * g[0] for c, g in zip(coeffs, gens))
                y = sum(c * g[1] for c, g in zip(coeffs, gens))
                assert (x, y) == (1, -1)


class TestDecideTrans:
    def test_k222_not_a_member(self):
        report = decide_trans(k222(), 2)
        assert not report.verdict
        assert report.stats["generators"] == [[0, 6], [2, 4], [4, 2], [6, 0]]
        assert report.stats["first-coordinate-difference-gcd"] == 2

    def test_single_edge_member(self):
        report = decide_trans(single_edge(), 2)
        assert report.verdict
        gens = [tuple(g) for g in report.stats["generators"]]
        assert (0, 3) in gens and (1, 2) in gens

    def test_two_shared_edges_member(self):
        report = decide_trans(TWO_SHARED, 2)
        assert report.verdict
        combo = report.witness["combination"]
        x = sum(c * g[0] for c, g in combo)
        y = sum(c * g[1] for c, g in combo)
        assert (x, y) == (1, -1)

    def test_s_guard(self):
        with pytest.raises(PreconditionError):
            decide_trans(single_edge(), 1)

    def test_linear_patterns_are_members(self, no_walk):
        """Two edges of a linear pattern meet in at most one vertex, so every
        bipartition qualifies and the sizes 0..v(F) give (1, -1)."""
        rng = np.random.default_rng(208)
        for k, n in ((3, 7), (3, 12), (4, 9), (4, 13)):
            for _ in range(5):
                f = random_linear(rng, k, n, 3 * n)
                for s in range(2, k):
                    report = decide_trans(f, s)
                    assert report.verdict is True
                    assert report.stats["generators"] == [[a, n - a] for a in range(n + 1)]

    def test_empty_graph(self):
        # One bipartition, both sides empty: the generators sum to 0.
        report = decide_trans(Hypergraph(3, 0, []), 2)
        assert report.verdict is False and report.witness is None
        assert report.stats["generators"] == [[0, 0]] and report.stats["basis"] == []
        assert report.stats["first-coordinate-difference-gcd"] == 0

    def test_zero_sum_route_agrees_with_echelon(self):
        box = [(x, y) for x in range(-5, 6) for y in range(-5, 6)]
        for gens in ([(0, 0)], [(2, -2)], [(2, -2), (3, -3)], [(0, 0), (-4, 4), (6, -6)]):
            lat = lattice_from_generators(gens)
            for vector in box:
                assert shared_sum_contains(gens, vector) == (lattice_combination(lat, vector) is not None)
