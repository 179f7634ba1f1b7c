import random
import tracemalloc
from itertools import combinations, product
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest

from factorlab import Hypergraph, Partition, constructions
from factorlab.constructions import (
    ConstructionParams,
    construct_partite_coloring,
    construct_shadow_disjoint,
    default_partite_sizes,
    partite_structure_ok,
    random_uniform_hypergraph,
    shadow_disjoint_ok,
)
from factorlab.corpus import complete


def crossing_index_vectors(k):
    """Non-negative k-vectors with coordinate sum k and last digit 0, in
    lexicographic order: a filter of all of {0..k}^(k-1), independent of the
    builder's palette."""
    return [v + (0,) for v in product(range(k + 1), repeat=k - 1) if sum(v) == k]


def replayed_colours(n, s, palette, seed):
    """The colour of each s-set of ``range(n)``, in lexicographic order, from
    a replay of the seeded draw of a colouring build with ``palette`` colours."""
    colours = constructions._seeded_draw(comb(n, s), seed, lambda rng, count: rng.integers(0, palette, size=count))
    return dict(zip(combinations(range(n), s), colours))


def _partite_reference(built, n, k, seed):
    """The plain per-k-set filter: keep e when every pair of e has the colour
    matched to e's index vector: 0 for the all-ones vector, then 1, 2, ...
    for the crossing vectors in lexicographic order."""
    color_of_vector = {(1,) * k: 0}
    for j, vec in enumerate(crossing_index_vectors(k), start=1):
        color_of_vector[vec] = j
    colour_of = replayed_colours(n, 2, built.palette_size, seed)
    expected = []
    for e in combinations(range(n), k):
        j = color_of_vector.get(built.partition.index_vector(e))
        if j is not None and all(colour_of[p] == j for p in combinations(e, 2)):
            expected.append(e)
    return expected


def mostly_rainbow(monkeypatch, by_seed=False):
    """Seeded colourings keep almost no edge at k >= 4 on small hosts, so give
    each base s-set a favoured colour with probability 0.9 and a uniform
    colour from the seeded stream otherwise: a k-set of that colour then
    survives with probability 0.9^C(k, s).  The favoured colour is 0 (the
    all-ones index vector in lemma51), or ``seed % palette`` when
    ``by_seed``, so that each seed keeps edges of another colour."""
    real = np.random.default_rng

    def rng(seed):
        gen = real(seed)
        return SimpleNamespace(integers=lambda lo, hi, size: np.where(
            gen.random(size) < 0.9, seed % hi if by_seed else 0, gen.integers(lo, hi, size)))

    monkeypatch.setattr(np.random, "default_rng", rng)


class TestIndexVectors:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_count_and_shape(self, k):
        vecs = crossing_index_vectors(k)
        assert len(vecs) == comb(2 * k - 2, k)
        assert vecs == sorted(vecs)
        for v in vecs:
            assert len(v) == k and v[-1] == 0 and sum(v) == k and min(v) >= 0
        built = construct_partite_coloring(ConstructionParams(n=k * (k - 1) + 1, k=k, seed=k))
        assert built.palette_size == len(vecs) + 1

    @pytest.mark.parametrize("k, colours", [(3, range(5)), (4, range(16)), (5, (0, 1, 2, 28, 56))])
    def test_each_colour_keeps_the_k_sets_of_its_index_vector(self, k, colours, monkeypatch):
        # Seeded colourings keep no edge at k >= 4 on small hosts, so every
        # pair gets colour j instead; parts of k vertices realise every vector.
        n = k * (k - 1) + 1
        sizes = (k,) * (k - 1) + (1,)
        for j in colours:
            monkeypatch.setattr(np.random, "default_rng",
                                lambda seed: SimpleNamespace(integers=lambda lo, hi, size: np.full(size, j)))
            built = construct_partite_coloring(ConstructionParams(n=n, k=k, seed=0, part_sizes=sizes))
            assert built.hypergraph.edges and built.hypergraph.edges == tuple(_partite_reference(built, n, k, 0))

    def test_k3_palette(self):
        built = construct_partite_coloring(ConstructionParams(n=9, k=3, seed=0))
        assert built.palette_size == 5  # comb(4, 3) + 1


class TestPartSizes:
    def test_defaults(self):
        assert default_partite_sizes(12, 3) == (6, 5, 1)
        assert default_partite_sizes(3, 3) == (1, 1, 1)
        assert default_partite_sizes(21, 3) == (10, 10, 1)

    def test_infeasible_defaults(self):
        with pytest.raises(ValueError):
            default_partite_sizes(4, 3)

    def test_explicit_sizes_validated(self):
        with pytest.raises(ValueError):
            construct_partite_coloring(ConstructionParams(n=9, k=3, seed=0, part_sizes=(4, 4, 2)))
        with pytest.raises(ValueError):
            construct_partite_coloring(ConstructionParams(n=9, k=3, seed=0, part_sizes=(5, 4, 1)))
        # the ceil(n/k) floor binds defaults only; lopsided explicit sizes are fine
        built = construct_partite_coloring(ConstructionParams(n=9, k=3, seed=0, part_sizes=(6, 2, 1)))
        assert partite_structure_ok(built.hypergraph, built.z, built.partition)


class TestPartiteColoring:
    def test_k_below_3_refused(self):
        with pytest.raises(ValueError, match="requires k >= 3"):
            construct_partite_coloring(ConstructionParams(n=6, k=2, seed=0))

    def test_deterministic_per_seed(self):
        params = ConstructionParams(n=20, k=3, seed=1)
        assert construct_partite_coloring(params).hypergraph == construct_partite_coloring(params).hypergraph
        other = construct_partite_coloring(ConstructionParams(n=20, k=3, seed=2))
        assert other.hypergraph != construct_partite_coloring(params).hypergraph

    def test_structural_guarantee(self):
        for seed in (1, 9):
            built = construct_partite_coloring(ConstructionParams(n=12, k=3, seed=seed))
            assert partite_structure_ok(built.hypergraph, built.z, built.partition)

    def test_special_vertex_is_last_and_link_crosses(self):
        built = construct_partite_coloring(ConstructionParams(n=15, k=3, seed=3))
        assert built.z == 14
        parts = built.partition.parts
        assert parts[-1] == (14,)
        for rest in built.hypergraph.link((built.z,)):
            assert len(set(rest) & set(parts[0])) == 1
            assert len(set(rest) & set(parts[1])) == 1

    def test_degenerate_one_per_part(self):
        built = construct_partite_coloring(ConstructionParams(n=3, k=3, seed=5))
        through_z = [e for e in built.hypergraph.edges if built.z in e]
        assert len(through_z) <= 1

    def test_k4(self, monkeypatch):
        mostly_rainbow(monkeypatch)
        built = construct_partite_coloring(ConstructionParams(n=12, k=4, seed=2))
        assert built.palette_size == comb(6, 4) + 1
        assert built.hypergraph.edges and any(built.z in e for e in built.hypergraph.edges)
        assert partite_structure_ok(built.hypergraph, built.z, built.partition)

    def test_edge_set_rederives_from_base_colors(self, monkeypatch):
        cases = [(14, 3, None), (20, 3, (12, 7, 1)), (45, 3, None), (36, 3, (22, 13, 1)), (13, 4, None),
                 (15, 4, (2, 6, 6, 1)), (20, 4, (5, 9, 5, 1)), (13, 5, None), (14, 5, (4, 1, 3, 5, 1)),
                 (16, 5, (3, 6, 2, 4, 1))]
        for n, k, sizes in cases:
            # the k = 3 cases keep edges under the seeded stream itself
            for by_seed in (False,) if k == 3 else (False, True):
                with monkeypatch.context() as patch:
                    if k >= 4:
                        mostly_rainbow(patch, by_seed)
                    seeds_kept, colours_kept = 0, set()
                    for seed in range(10):
                        built = construct_partite_coloring(ConstructionParams(n=n, k=k, seed=seed, part_sizes=sizes))
                        assert built.hypergraph.edges == tuple(_partite_reference(built, n, k, seed))
                        seeds_kept += bool(built.hypergraph.edges)
                        colour_of = replayed_colours(n, 2, built.palette_size, seed)
                        colours_kept.update(colour_of[e[:2]] for e in built.hypergraph.edges)
                    # the by-seed stream keeps edges of colours other than 0
                    assert len(colours_kept) > 1 if by_seed else seeds_kept >= 7


class TestShadowDisjoint:
    def test_bipartition_is_shadow_disjoint(self):
        for seed in (7, 8):
            built = construct_shadow_disjoint(ConstructionParams(n=12, k=3, seed=seed, s=2))
            x_side = built.partition.parts[0]
            assert shadow_disjoint_ok(built.hypergraph, x_side, 2)

    def test_palette_size(self):
        built = construct_shadow_disjoint(ConstructionParams(n=9, k=3, seed=0, s=2))
        assert built.palette_size == 4

    def test_explicit_odd_x(self):
        built = construct_shadow_disjoint(ConstructionParams(n=12, k=3, seed=1, s=2, part_sizes=(5, 7)))
        assert built.partition.parts[0] == tuple(range(5))

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            construct_shadow_disjoint(ConstructionParams(n=12, k=3, seed=1, s=2, part_sizes=(12, 0)))

    def test_s_guard(self):
        with pytest.raises(ValueError):
            construct_shadow_disjoint(ConstructionParams(n=12, k=3, seed=1, s=3))

    @pytest.mark.parametrize("sizes", [(4, 4, 4), (12,), (6, 5), (6, 7)])
    def test_sizes_must_be_two_summing_to_n(self, sizes):
        with pytest.raises(ValueError, match="summing to 12"):
            construct_shadow_disjoint(ConstructionParams(n=12, k=3, seed=1, s=2, part_sizes=sizes))

    def test_edge_set_rederives_from_base_colors(self, monkeypatch):
        cases = [(12, 3, 2, None), (16, 3, 2, (7, 9)), (45, 3, 2, None), (12, 4, 2, None), (22, 4, 2, (8, 14)),
                 (13, 4, 3, (5, 8)), (22, 4, 3, None), (17, 5, 2, (6, 11)), (11, 5, 3, None), (17, 5, 3, (11, 6)),
                 (12, 5, 4, (6, 6)), (16, 5, 4, None)]
        for n, k, s, sizes in cases:
            for by_seed in (False, True):
                with monkeypatch.context() as patch:
                    if by_seed:
                        mostly_rainbow(patch, by_seed)
                    colours_kept = set()
                    for seed in range(10):
                        built = construct_shadow_disjoint(ConstructionParams(n=n, k=k, seed=seed, s=s, part_sizes=sizes))
                        colour_of = replayed_colours(n, s, k + 1, seed)
                        n1 = len(built.partition.parts[0])
                        expected = [
                            e
                            for e in combinations(range(n), k)
                            if all(colour_of[b] == sum(1 for v in e if v < n1) for b in combinations(e, s))
                        ]
                        assert built.hypergraph.edges == tuple(expected)
                        colours_kept.update(colour_of[e[:s]] for e in built.hypergraph.edges)
                    assert len(colours_kept) > 1 or not by_seed

    def test_k_above_n_builds_no_slots(self, monkeypatch):
        # No k-set exists, and the (k + 1) x k slot table is not bounded by
        # the C(3, 2) = 3 accepted draws: nothing is drawn, and the part
        # tuples stay unread.
        def unread():
            raise AssertionError("read the part tuples")
            yield

        def refuse(*args):
            raise AssertionError("drew with no k-set to keep")

        monkeypatch.setattr(constructions, "_seeded_draw", refuse)
        assert constructions._colouring("obs62", 3, 10**6, 2, 10**6 + 1, 1, (1, 2), unread()) == []
        built = construct_shadow_disjoint(ConstructionParams(n=3, k=10**6, s=2, seed=1))
        assert built.hypergraph.edges == () and built.palette_size == 10**6 + 1

    def test_s_near_n_masks_only_sets_below_a_vertex(self):
        # C(447, 446) = 447 draws; an (s-1)-set ending at n - 1 has no vertex
        # above it, and keying all C(447, 445) = 99,681 of them took ~355 MB.
        tracemalloc.start()
        try:
            built = construct_shadow_disjoint(ConstructionParams(n=447, k=447, s=446, seed=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert built.hypergraph.edges == () and peak < 40 * 2**20


class TestMonochromaticCliques:
    """The clique listing both builders share, on small palettes where many
    k-sets are monochromatic."""

    @pytest.mark.parametrize("n,k,s,palette", [(9, 3, 2, 2), (10, 4, 2, 2), (9, 5, 2, 1), (10, 4, 3, 2),
                                               (10, 5, 3, 2), (9, 5, 4, 3), (3, 3, 2, 1), (4, 3, 2, 5)])
    def test_matches_per_kset_definition(self, n, k, s, palette):
        for seed in range(3):
            colours = np.random.default_rng(seed).integers(0, palette, size=comb(n, s)).tolist()
            colour_of = dict(zip(combinations(range(n), s), colours))
            expected = []
            for e in combinations(range(n), k):
                seen = {colour_of[b] for b in combinations(e, s)}
                if len(seen) == 1:
                    expected.append((e, seen.pop()))
            slots = [[(1 << n) - 1] * k] * palette
            assert sorted(constructions._monochromatic_cliques(n, k, s, colours, slots)) == expected

    @pytest.mark.parametrize("n,k,s,palette", [(9, 3, 2, 2), (10, 4, 2, 2), (9, 5, 2, 1), (10, 4, 3, 2),
                                               (10, 5, 3, 2), (9, 5, 4, 3), (3, 3, 2, 1), (4, 3, 2, 5)])
    def test_slots_match_per_kset_filter(self, n, k, s, palette):
        # Random slot masks, each vertex in a slot with probability 0.7: e is
        # listed in colour j exactly when all its s-subsets have colour j and
        # e[i] lies in slots[j][i].
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            colours = rng.integers(0, palette, size=comb(n, s)).tolist()
            colour_of = dict(zip(combinations(range(n), s), colours))
            slots = [[sum(1 << v for v in range(n) if rng.random() < 0.7) for _ in range(k)] for _ in range(palette)]
            expected = sorted(
                (e, j)
                for e in combinations(range(n), k)
                for j in range(palette)
                if all(colour_of[b] == j for b in combinations(e, s)) and all(slots[j][i] >> v & 1 for i, v in enumerate(e))
            )
            assert sorted(constructions._monochromatic_cliques(n, k, s, colours, slots)) == expected


class TestDrawLimit:
    """Every seeded build refuses more than MAX_DRAWS draws before drawing."""

    def test_limit_is_inclusive(self):
        assert comb(447, 2) <= constructions.MAX_DRAWS < comb(448, 2)
        assert len(random_uniform_hypergraph(447, 2, 0.0, 1).edges) == 0
        with pytest.raises(ValueError, match="exceeds the limit"):
            random_uniform_hypergraph(448, 2, 0.0, 1)

    @pytest.mark.parametrize("params", [
        ConstructionParams(n=448, k=3, seed=1),
        ConstructionParams(n=10**12, k=3, seed=1),
        ConstructionParams(n=40, k=11, seed=1),  # palette C(20, 11) + 1
        ConstructionParams(n=448, k=3, seed=1, s=2),
        ConstructionParams(n=86, k=4, seed=1, s=3),
        ConstructionParams(n=10**9, k=10**6, seed=1, s=10**5),
        ConstructionParams(n=20000, k=20000, seed=1, s=19999),  # 20,000 draws keying 4 * 10^8 vertices
    ])
    def test_colourings_refused(self, params):
        build = construct_partite_coloring if params.s is None else construct_shadow_disjoint
        with pytest.raises(ValueError, match="exceeds the limit"):
            build(params)

    def test_key_limit_is_inclusive(self):
        # obs62 at k = n and s = n - 1 draws only n colours but keys the
        # C(n - 1, n - 2) sets of n - 2 vertices below n - 1.
        assert comb(1000, 999) * 999 <= constructions.MAX_KEY_ENTRIES < comb(1001, 1000) * 1000
        assert construct_shadow_disjoint(ConstructionParams(n=1001, k=1001, s=1000, seed=1)).hypergraph.edges == ()
        with pytest.raises(ValueError, match=r"keys of 1000 vertices: C\(1001, 1000\) exceeds the limit"):
            construct_shadow_disjoint(ConstructionParams(n=1002, k=1002, s=1001, seed=1))

    def test_gnp_refused_for_huge_k(self):
        with pytest.raises(ValueError, match="exceeds the limit"):
            random_uniform_hypergraph(10**18, 10**9, 0.5, 1)

    @pytest.mark.parametrize("build, args", [
        (construct_partite_coloring, (ConstructionParams(n=448, k=3, seed=1),)),
        (construct_partite_coloring, (ConstructionParams(n=10**12, k=3, seed=1),)),
        (construct_partite_coloring, (ConstructionParams(n=10**400, k=3, seed=1),)),  # n / k overflows a float
        (construct_partite_coloring, (ConstructionParams(n=40, k=11, seed=1),)),
        (construct_shadow_disjoint, (ConstructionParams(n=448, k=3, seed=1, s=2),)),
        (construct_shadow_disjoint, (ConstructionParams(n=86, k=4, seed=1, s=3),)),
        (construct_shadow_disjoint, (ConstructionParams(n=10**9, k=10**6, seed=1, s=10**5),)),
        (random_uniform_hypergraph, (448, 2, 0.0, 1)),
        (random_uniform_hypergraph, (10**18, 10**9, 0.5, 1)),
        (construct_shadow_disjoint, (ConstructionParams(n=20000, k=20000, seed=1, s=19999),)),
    ])
    def test_refused_before_drawing(self, build, args, monkeypatch):
        def refuse(seed):
            raise AssertionError("drew before the refusal")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        with pytest.raises(ValueError, match="exceeds the limit"):
            build(*args)


class TestDrawContract:
    """Every seeded build draws one number per r-set, in lexicographic order,
    from ``default_rng(seed)``."""

    @pytest.mark.parametrize("n, k, s, sizes", [(15, 3, None, None), (20, 3, None, (12, 7, 1)), (13, 5, None, None),
                                                (12, 3, 2, None), (16, 3, 2, (7, 9)), (13, 4, 3, (5, 8)),
                                                (20, 4, None, (5, 9, 5, 1)), (22, 4, 2, None), (16, 5, 4, (6, 10))])
    def test_base_colors_are_the_seeded_stream(self, n, k, s, sizes, monkeypatch):
        # What the build draws, recorded at _seeded_draw, and the tests'
        # replay of that draw are both the plain stream.
        r, palette = (2, comb(2 * k - 2, k) + 1) if s is None else (s, k + 1)
        build = construct_partite_coloring if s is None else construct_shadow_disjoint
        drawn = []
        real = constructions._seeded_draw
        monkeypatch.setattr(constructions, "_seeded_draw", lambda *args: drawn.append(real(*args)) or drawn[-1])
        for seed in range(10):
            drawn.clear()
            build(ConstructionParams(n=n, k=k, seed=seed, s=s, part_sizes=sizes))
            colours = np.random.default_rng(seed).integers(0, palette, size=comb(n, r)).tolist()
            assert drawn == [colours]
            assert replayed_colours(n, r, palette, seed) == dict(zip(combinations(range(n), r), colours))

    @pytest.mark.parametrize("n, k, p", [(10, 3, 0.3), (12, 4, 0.5), (30, 2, 0.1)])
    def test_gnp_edges_are_the_plain_filter(self, n, k, p):
        for seed in range(3):
            flips = np.random.default_rng(seed).random(comb(n, k))
            expected = [e for e, u in zip(combinations(range(n), k), flips) if u < p]
            assert random_uniform_hypergraph(n, k, p, seed).edges == tuple(expected)


class TestRandomUniform:
    def test_extreme_probabilities(self):
        assert random_uniform_hypergraph(7, 3, 0.0, 1).edges == ()
        assert random_uniform_hypergraph(7, 3, 1.0, 1) == complete(7, 3)

    def test_edge_count_within_four_sigma(self):
        h = random_uniform_hypergraph(20, 3, 0.5, 3)
        mean = 0.5 * comb(20, 3)
        sigma = (comb(20, 3) * 0.25) ** 0.5
        assert abs(len(h.edges) - mean) <= 4 * sigma

    def test_deterministic(self):
        assert random_uniform_hypergraph(10, 3, 0.3, 42) == random_uniform_hypergraph(10, 3, 0.3, 42)

    def test_probability_guard(self):
        with pytest.raises(ValueError):
            random_uniform_hypergraph(5, 3, 1.5, 0)


class TestCanonicalOutput:
    """Each builder hands Hypergraph canonical edges, which it keeps as they
    are: the result equals the hypergraph built from the same edges
    shuffled and each reversed, which takes the per-edge loop."""

    def test_builds_equal_the_checked_form(self):
        rng = random.Random(11)
        builds = [construct_partite_coloring(ConstructionParams(n=n, k=3, seed=seed)).hypergraph
                  for n, seed in ((12, 1), (30, 2), (45, 3))]
        builds += [construct_shadow_disjoint(ConstructionParams(n=n, k=k, s=s, seed=seed)).hypergraph
                   for n, k, s, seed in ((12, 3, 2, 1), (30, 3, 2, 4), (22, 4, 3, 5))]
        builds += [random_uniform_hypergraph(n, k, p, seed) for n, k, p, seed in ((12, 3, 0.3, 1), (16, 4, 0.2, 2))]
        assert sum(len(h.edges) for h in builds) > 500
        for h in builds:
            edges = [e[::-1] for e in h.edges]
            rng.shuffle(edges)
            assert Hypergraph(h.k, h.n, edges).edges == h.edges
            assert all(type(e) is tuple for e in h.edges)


class TestStructuralChecks:
    """The checks agree with their pair-loop definitions and run on every build."""

    def test_checks_match_pair_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            p = rng.choice([0.05, 0.15, 0.3])
            h = Hypergraph(3, 7, [e for e in combinations(range(7), 3) if rng.random() < p])
            a_side = [v for v in range(7) if rng.random() < 0.5]
            a = set(a_side)
            expected = all(
                len(set(e) & set(f)) < 2 or len(a & set(e)) == len(a & set(f))
                for e, f in combinations(h.edges, 2)
            )
            assert shadow_disjoint_ok(h, a_side, 2) == expected

            split = int(rng.integers(1, 6))
            partition = Partition((tuple(range(split)), tuple(range(split, 6)), (6,)))
            head = partition.parts[:-1]
            expected = all(
                all(len((set(e) - {6}) & set(part)) == 1 for part in head)
                for e in h.edges
                if 6 in e
            ) and all(
                len(set(e) & set(f)) < 2 or partition.index_vector(e) == partition.index_vector(f)
                for e, f in combinations(h.edges, 2)
            )
            assert partite_structure_ok(h, 6, partition) == expected

    def test_chain_of_overlaps_with_one_odd_label(self):
        # e1, e2 share {1, 2} and e2, e3 share {2, 3}; e1, e3 share one vertex.
        # Labels e1 = e3 != e2 break the predicate, whichever pair is compared.
        h = Hypergraph(3, 6, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        assert not constructions._constant_on_overlaps(h, 2, [0, 1, 0])
        assert constructions._constant_on_overlaps(h, 2, [1, 1, 1])
        assert not shadow_disjoint_ok(h, (0, 4), 2)  # |e ∩ A| = 1, 0, 1
        assert not partite_structure_ok(h, 5, Partition(((0, 4), (1, 2, 3), (5,))))
        # Three edges through the pair {0, 1}: the last one's label differs.
        fan = Hypergraph(3, 5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])
        assert not constructions._constant_on_overlaps(fan, 2, [0, 0, 1])

    def test_lemma51_checked_above_old_limit(self, monkeypatch):
        monkeypatch.setattr(constructions, "partite_structure_ok", lambda *args: False)
        with pytest.raises(RuntimeError):
            construct_partite_coloring(ConstructionParams(n=45, k=3, seed=1))

    def test_obs62_checked_above_old_limit(self, monkeypatch):
        monkeypatch.setattr(constructions, "shadow_disjoint_ok", lambda *args: False)
        with pytest.raises(RuntimeError):
            construct_shadow_disjoint(ConstructionParams(n=60, k=3, seed=1, s=2))
