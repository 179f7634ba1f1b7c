from itertools import combinations, permutations, product

import numpy as np
import pytest

from factorlab import (
    Hypergraph,
    PreconditionError,
    build_compatible_enumeration,
    decide_cover_partition_3,
    decide_factor_3,
    decide_linkdisjoint_kpartite,
    decide_partition_condition_k,
    decide_turan_zero_3,
    forced_coloring,
    validate_cover_witness,
    validate_partition_witness,
    validate_shadow_coloring,
    validate_turan_zero_refutation,
)
from factorlab.deciders import BLUE, GREEN, RED
from factorlab.corpus import cherry, k4, k4_minus, k222, loose_path, single_edge
from factorlab.deciders import _two_sides, blocked_vertices, coloring_from_witness
from factorlab.oracles import (
    cover_partition_oracle,
    partition_condition_oracle,
    turan_zero_oracle,
)
from factorlab.verification import validate_embedding, validate_factor_certificate
from alarm import within

TWO_EDGES = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])


def random_kgraphs(rng, count, n, k, p=0.5):
    ksets = list(combinations(range(n), k))
    for _ in range(count):
        mask = rng.random(len(ksets)) < p
        yield Hypergraph(k, n, [t for t, keep in zip(ksets, mask) if keep])


def random_3graphs(rng, count, n, p=0.5):
    return random_kgraphs(rng, count, n, 3, p)


def all_3graphs(n):
    triples = list(combinations(range(n), 3))
    for mask in range(1 << len(triples)):
        yield Hypergraph(3, n, [t for i, t in enumerate(triples) if mask >> i & 1])


# A perfect matching whose vertex 0 also has the odd cycle 42-43-44 in its
# link: vstar = 0 fails, but only once 44 is placed, after 3..41 are free.
MATCHING_ODD_LINK = Hypergraph(
    3, 45, [(i, i + 1, i + 2) for i in range(0, 42, 3)] + [(0, 42, 43), (0, 42, 44), (0, 43, 44)])
# One component: with vstar = 0, each of 1..40 must differ from 41, and
# link(0) also holds the odd cycle 41-42-43; every vstar fails.
STAR_ODD_LINK = Hypergraph(
    3, 44, [(0, i, 41) for i in range(1, 41)] + [(0, 41, 42), (0, 41, 43), (0, 42, 43)])


class TestForcedColoring:
    def test_single_edge_identity(self):
        assert forced_coloring(single_edge(), [0, 1, 2]) == {
            (0, 1): "red",
            (0, 2): "blue",
            (1, 2): "green",
        }

    def test_k4_minus_identity_conflicts(self):
        # {0,1,2} forces pair (0,2) blue while {0,2,3} forces it red.
        assert forced_coloring(k4_minus(), [0, 1, 2, 3]) is None

    def test_edgeless(self):
        assert forced_coloring(Hypergraph(3, 4, []), [2, 0, 3, 1]) == {}

    def test_rejects_non_3_graphs_and_bad_orderings(self):
        with pytest.raises(PreconditionError):
            forced_coloring(Hypergraph(4, 4, [(0, 1, 2, 3)]), [0, 1, 2, 3])
        with pytest.raises(ValueError):
            forced_coloring(single_edge(), [0, 1, 1])


class TestTuranZero:
    def test_single_edge(self):
        report = decide_turan_zero_3(single_edge())
        assert report.verdict and report.witness["ordering"] == [0, 1, 2]

    def test_k4_minus_false_all_orderings(self):
        assert not decide_turan_zero_3(k4_minus()).verdict
        consistent = sum(
            forced_coloring(k4_minus(), list(p)) is not None
            for p in permutations(range(4))
        )
        assert consistent == 0

    def test_two_disjoint_edges(self):
        report = decide_turan_zero_3(TWO_EDGES)
        assert report.verdict
        assert validate_shadow_coloring(
            TWO_EDGES, report.witness["ordering"], coloring_from_witness(report.witness)
        )

    def test_pruned_search_matches_exhaustive_scan(self):
        rng = np.random.default_rng(101)
        for f in random_3graphs(rng, 150, 5):
            assert decide_turan_zero_3(f).verdict == turan_zero_oracle(f)

    def test_witness_validates(self):
        rng = np.random.default_rng(41)
        for f in random_3graphs(rng, 60, 5):
            report = decide_turan_zero_3(f)
            if report.verdict:
                coloring = coloring_from_witness(report.witness)
                assert validate_shadow_coloring(f, report.witness["ordering"], coloring)


def has_k4_minus(f):
    """Do some four vertices span three or more edges (plain scan)?"""
    return any(sum(frozenset(t) in f.edge_set for t in combinations(quad, 3)) >= 3
               for quad in combinations(range(f.n), 4))


# The 3-graph perfect matching on 0..8 plus a K4⁻ through vertex 0.
MATCHING_K4_MINUS = Hypergraph(
    3, 12, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 9, 10), (0, 9, 11), (0, 10, 11)])


class TestTuranZeroRefutation:
    def test_k4_minus_answered_without_a_search(self):
        report = decide_turan_zero_3(k4_minus())
        assert not report.verdict and report.witness is None and report.stats["nodes"] == 0
        assert report.refutation == {"kind": "k4-minus", "edges": [[0, 1, 2], [0, 1, 3], [0, 2, 3]]}
        assert report.to_json_obj()["refutation"] == report.refutation

    def test_refutation_exactly_when_a_k4_minus_exists(self):
        rng = np.random.default_rng(131)
        hits = 0
        for n in (4, 5, 6, 7):
            for f in random_3graphs(rng, 80, n, p=0.3):
                report = decide_turan_zero_3(f)
                assert (report.refutation is not None) == has_k4_minus(f)
                if report.refutation is not None:
                    hits += 1
                    assert not report.verdict and report.stats["nodes"] == 0
                    assert validate_turan_zero_refutation(f, report.refutation)
        assert hits > 50

    def test_k4_minus_free_verdicts_match_exhaustive_scan(self):
        # The scan answers most negatives, so the search's own "false" path
        # is checked on graphs without a K4⁻.
        rng = np.random.default_rng(137)
        verdicts = []
        for n, p, count in ((5, 0.4, 120), (6, 0.35, 120), (7, 0.3, 300)):
            for f in random_3graphs(rng, count, n, p):
                if has_k4_minus(f):
                    continue
                report = decide_turan_zero_3(f)
                assert report.verdict == turan_zero_oracle(f) and report.refutation is None
                assert report.stats["nodes"] > 0
                verdicts.append(report.verdict)
        assert verdicts.count(False) >= 10 and verdicts.count(True) >= 50

    def test_factor3_passes_the_refutation_through(self):
        report = decide_factor_3(MATCHING_K4_MINUS)
        assert report.refutation == decide_turan_zero_3(MATCHING_K4_MINUS).refutation
        assert report.stats["condition_i"] is False and report.stats["condition_ii"] is True
        assert report.refutation == {"kind": "k4-minus", "edges": [[0, 9, 10], [0, 9, 11], [0, 10, 11]]}
        assert decide_factor_3(k222()).refutation is None  # condition (i) holds

    def test_validator_rejects_corruption(self):
        rng = np.random.default_rng(139)
        checked = 0
        for f in random_3graphs(rng, 40, 7, p=0.3):
            ref = decide_turan_zero_3(f).refutation
            if ref is None:
                continue
            assert validate_turan_zero_refutation(f, ref)
            edges = ref["edges"]
            quad = set().union(*edges)
            non_edge = next(list(t) for t in combinations(range(f.n), 3) if t not in f.edges)
            beyond = [list(e) for e in f.edges if not set(e) <= quad]
            corrupt = [{"kind": "k4", "edges": edges}, {"edges": edges}, {**ref, "note": 0},
                       {"kind": "k4-minus", "edges": [*edges, edges[0]]}]
            for i in range(3):
                rest = edges[:i] + edges[i + 1:]
                corrupt.append({"kind": "k4-minus", "edges": rest})  # an edge dropped
                corrupt.append({"kind": "k4-minus", "edges": [*rest, rest[0]]})  # an edge repeated
                corrupt.append({"kind": "k4-minus", "edges": [*rest, non_edge]})
                corrupt.extend({"kind": "k4-minus", "edges": [*rest, e]} for e in beyond[:2])  # a fifth vertex
            for bad in corrupt:
                assert not validate_turan_zero_refutation(f, bad)
            checked += len(corrupt)
        assert checked > 100

    @pytest.mark.parametrize("f, ref", [
        (single_edge(), {"kind": "k4-minus", "edges": [[0, 1, 2]] * 3}),
        (k4_minus(), {"kind": "k4-minus", "edges": [[0, 1, 2], [0, 1, 3], [True, 2, 3]]}),
        (k4_minus(), {"kind": "k4-minus", "edges": ((0, 1, 2), (0, 1, 3), (0, 2, 3))}),
        (k4_minus(), {"kind": "k4-minus", "edges": [[0, 1, 2], [0, 1, 3], None]}),
        (k4_minus(), [[0, 1, 2], [0, 1, 3], [0, 2, 3]]),
        (Hypergraph(4, 5, [(0, 1, 2, 3), (0, 1, 2, 4)]), {"kind": "k4-minus", "edges": [[0, 1, 2]] * 3}),
    ])
    def test_validator_refuses_malformed(self, f, ref):
        assert validate_turan_zero_refutation(f, ref) is False

    def test_validator_reads_no_incidence_index(self, monkeypatch):
        # The scan reads subset_edges(2); the validator must not check
        # itself through it.
        rng = np.random.default_rng(149)
        refuted = [(f, report.refutation) for f in random_3graphs(rng, 30, 6, p=0.4)
                   for report in [decide_turan_zero_3(f)] if report.refutation is not None]

        def refuse(*args):
            raise AssertionError("the validator read the incidence index")

        monkeypatch.setattr(Hypergraph, "subset_edges", refuse)
        assert len(refuted) > 10
        for f, ref in refuted:
            assert validate_turan_zero_refutation(Hypergraph(f.k, f.n, f.edges), ref)

    @pytest.mark.parametrize("f", [
        pytest.param(Hypergraph(3, 11, k4_minus().edges), id="k4-minus-plus-7-isolated"),
        pytest.param(MATCHING_K4_MINUS, id="matching-plus-k4-minus"),
    ])
    def test_k4_minus_with_free_vertices_answers_at_once(self, f):
        # The ordering search alone backtracks over every ordering of the
        # vertices outside the K4⁻: over 10 s on each of these graphs.
        report = within(1, decide_turan_zero_3, f)
        assert not report.verdict and validate_turan_zero_refutation(f, report.refutation)

    def test_factor3_on_a_45_vertex_graph_answers_at_once(self):
        report = within(1, decide_factor_3, MATCHING_ODD_LINK)
        assert not report.verdict and report.stats["condition_i"] is False
        assert validate_turan_zero_refutation(MATCHING_ODD_LINK, report.refutation)


class TestDeepPatterns:
    def test_3000_vertex_matching_meets_no_recursion_limit(self):
        # The ordering search is one loop: 3000 vertices placed, none withdrawn.
        n = 3000
        f = Hypergraph(3, n, [(v, v + 1, v + 2) for v in range(0, n, 3)])

        def answer():
            cover = decide_cover_partition_3(f).witness
            return (decide_turan_zero_3(f), decide_factor_3(f),
                    build_compatible_enumeration(f, cover["vstar"], cover["X"], cover["Y"])[0])

        turan, factor, ordering = within(5, answer)
        assert turan.verdict and turan.witness["ordering"] == list(range(n)) and turan.stats["nodes"] == n
        assert validate_shadow_coloring(f, turan.witness["ordering"], coloring_from_witness(turan.witness))
        assert factor.verdict
        assert sorted(ordering) == list(range(n))


class TestCoverPartition:
    def test_single_edge(self):
        report = decide_cover_partition_3(single_edge())
        assert report.verdict and report.witness == {"vstar": 0, "X": [1], "Y": [2]}

    def test_k222_false(self):
        report = decide_cover_partition_3(k222())
        assert not report.verdict and report.witness is None
        assert cover_partition_oracle(k222()) is None

    def test_cherry(self):
        report = decide_cover_partition_3(cherry())
        assert report.witness == {"vstar": 0, "X": [1, 3], "Y": [2, 4]}
        assert validate_cover_witness(cherry(), 0, [1, 3], [2, 4])

    def test_reduction_matches_brute_force(self):
        rng = np.random.default_rng(77)
        for f in random_3graphs(rng, 200, 5):
            assert decide_cover_partition_3(f).verdict == (cover_partition_oracle(f) is not None)

    def test_witness_validates(self):
        rng = np.random.default_rng(78)
        for f in random_3graphs(rng, 80, 5):
            report = decide_cover_partition_3(f)
            if report.verdict:
                w = report.witness
                assert validate_cover_witness(f, w["vstar"], w["X"], w["Y"])

    def test_validator_rejects_corruption(self):
        assert not validate_cover_witness(cherry(), 0, [1, 2], [3, 4])
        assert not validate_cover_witness(cherry(), 0, [1, 3], [4])
        assert not validate_cover_witness(cherry(), 1, [0, 2], [3, 4])

    def test_isolated_vertices_flagged_and_accepted(self):
        f = Hypergraph(3, 4, [(0, 1, 2)])
        report = decide_cover_partition_3(f)
        assert report.verdict and "isolated-vertices" in report.flags

    def test_no_backtracking_over_free_vertices(self):
        # A search placing vertices one by one tries about 2^39 assignments
        # on each graph before it moves on from vstar = 0.
        report = within(2, decide_cover_partition_3, MATCHING_ODD_LINK)
        assert report.witness == {"vstar": 1, "X": [0, *range(3, 45)], "Y": [2]}
        assert validate_cover_witness(MATCHING_ODD_LINK, 1, [0, *range(3, 45)], [2])
        assert not within(2, decide_cover_partition_3, STAR_ODD_LINK).verdict


class TestFactor3:
    def test_single_edge_true(self):
        report = decide_factor_3(single_edge())
        assert report.verdict
        assert set(report.witness) == {"ordering-coloring", "cover-partition"}

    def test_k222_false_via_condition_ii(self):
        report = decide_factor_3(k222())
        assert not report.verdict
        assert report.stats["condition_ii"] is False
        assert "condition-ii-failed" in report.flags

    def test_k4_minus_false_via_condition_i(self):
        report = decide_factor_3(k4_minus())
        assert not report.verdict
        assert report.stats["condition_i"] is False
        assert "condition-i-failed" in report.flags

    def test_verdicts_invariant_under_relabeling(self):
        from factorlab import decide_trans

        rng = np.random.default_rng(55)
        for f in random_3graphs(rng, 30, 5):
            perm = list(int(v) for v in rng.permutation(5))
            g = f.relabel(perm)
            assert decide_factor_3(g).verdict == decide_factor_3(f).verdict
            assert decide_turan_zero_3(g).verdict == decide_turan_zero_3(f).verdict
            assert decide_cover_partition_3(g).verdict == decide_cover_partition_3(f).verdict
            assert decide_partition_condition_k(g).verdict == decide_partition_condition_k(f).verdict
            assert decide_trans(g, 2).verdict == decide_trans(f, 2).verdict
            fp = f.is_k_partite()
            if fp is not None and g.is_k_partite() is not None:
                assert (
                    decide_linkdisjoint_kpartite(g).verdict
                    == decide_linkdisjoint_kpartite(f).verdict
                )


class TestLinkDisjointKPartite:
    def test_single_edge(self):
        assert decide_linkdisjoint_kpartite(single_edge()).witness["vstar"] == 0

    def test_loose_path(self):
        report = decide_linkdisjoint_kpartite(loose_path())
        assert report.verdict and report.witness["vstar"] == 0
        # check the pair condition directly for the returned vertex
        v = report.witness["vstar"]
        f = loose_path()
        for e in f.edges:
            for e2 in f.edges:
                if v in e and v not in e2:
                    assert len(set(e) & set(e2)) <= 1

    def test_k222_false_scan_all_candidates(self):
        f = k222()
        assert not decide_linkdisjoint_kpartite(f).verdict
        for vstar in range(6):
            bad = any(
                len(set(e) & set(e2)) > 1
                for e in f.edges
                if vstar in e
                for e2 in f.edges
                if vstar not in e2
            )
            assert bad

    def test_non_partite_inputs_refused(self):
        with pytest.raises(PreconditionError):
            decide_linkdisjoint_kpartite(k4())
        with pytest.raises(PreconditionError, match="not k-partite"):
            decide_linkdisjoint_kpartite(Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]))

    def test_matching_plus_triangle_refused_at_once(self):
        # The triangle's last vertex sends is_k_partite's search back within
        # the triangle alone.  A search stepping back one vertex at a time
        # retries every colouring of the matching before the triangle fails:
        # 0.68 s at 35 vertices, doubling per matching edge.
        f = Hypergraph(2, 39, [(2 * i, 2 * i + 1) for i in range(18)] + [(36, 37), (36, 38), (37, 38)])
        assert within(1, Hypergraph.is_k_partite, f) is None
        with pytest.raises(PreconditionError, match="not k-partite"):
            within(1, decide_linkdisjoint_kpartite, f)

    def test_two_graph_path(self):
        f = Hypergraph(2, 3, [(0, 1), (1, 2)])
        report = decide_linkdisjoint_kpartite(f)
        assert report.verdict
        parts = [set(p) for p in report.witness["partition"]]
        assert sorted(v for p in parts for v in p) == [0, 1, 2]
        assert all(len(set(e) & p) == 1 for e in f.edges for p in parts)
        v = report.witness["vstar"]
        assert all(
            len(set(e) & set(e2)) <= 1
            for e in f.edges if v in e
            for e2 in f.edges if v not in e2
        )


class TestBlockedVertices:
    def test_matches_definition(self):
        rng = np.random.default_rng(61)
        graphs = [*random_kgraphs(rng, 60, 6, 3, p=0.2), *random_kgraphs(rng, 40, 7, 4, p=0.1),
                  *random_kgraphs(rng, 30, 7, 5, p=0.15), Hypergraph(2, 3, [(0, 1), (1, 2)])]
        outcomes = set()
        for f in graphs:
            expected = {
                v for v in range(f.n)
                if any(len(set(e) & set(e2)) >= 2
                       for e in f.edges if v in e for e2 in f.edges if v not in e2)
            }
            assert blocked_vertices(f) == expected
            outcomes.add(bool(expected))
        assert outcomes == {False, True}


class TestPartitionConditionK:
    def test_single_edge_any_k(self):
        assert decide_partition_condition_k(single_edge()).verdict
        f4 = Hypergraph(4, 4, [(0, 1, 2, 3)])
        report = decide_partition_condition_k(f4)
        assert report.verdict and "conjectural-for-k>=4" in report.flags

    def test_k222_false_matches_cover_partition(self):
        assert not decide_partition_condition_k(k222()).verdict
        assert partition_condition_oracle(k222()) is None

    def test_cherry_witness(self):
        report = decide_partition_condition_k(cherry())
        assert report.witness == {"vstar": 0, "parts": [[1, 3], [2, 4]]}
        assert validate_partition_witness(cherry(), 0, [[1, 3], [2, 4]])

    def test_requires_k_at_least_3(self):
        with pytest.raises(PreconditionError):
            decide_partition_condition_k(Hypergraph(2, 3, [(0, 1)]))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(99)
        graphs = [*random_3graphs(rng, 120, 5),
                  *random_kgraphs(rng, 40, 5, 4, p=0.4), *random_kgraphs(rng, 30, 6, 4, p=0.25)]
        outcomes = set()
        for f in graphs:
            report = decide_partition_condition_k(f)
            # Both return the first vstar and its lexicographically first parts.
            expected = partition_condition_oracle(f)
            assert report.verdict == (expected is not None)
            if expected is not None:
                assert report.witness == {"vstar": expected[0], "parts": expected[1]}
            outcomes.add((f.k, report.verdict))
        assert outcomes == {(3, False), (3, True), (4, False), (4, True)}

    def test_matching_plus_unrainbow_link_answers_at_once(self):
        # link(0) holds {1, 2, 3} and the four triples of {44..47}, which no
        # three parts make rainbow, and that shows only once 47 is placed.
        # The search jumps back within 0's component; stepping back one
        # vertex at a time retries the colourings of the matching on 4..43
        # first, for over 20 s.
        edges = [tuple(range(i, i + 4)) for i in range(0, 44, 4)]
        edges += [(0, *t) for t in combinations(range(44, 48), 3)]
        report = within(1, decide_partition_condition_k, Hypergraph(4, 48, edges))
        assert report.verdict
        assert report.witness == {"vstar": 1, "parts": [[0, *range(4, 48)], [2], [3]]}

    def test_odd_cycle_of_classes_refused(self):
        # Vertex 0 is unblocked, but the classes {2, 3}, {4, 5} and {6, 1}
        # form a triangle under its link, which no 2-colouring splits.
        f = Hypergraph(3, 13, [(0, 1, 2), (0, 3, 4), (0, 5, 6), (7, 8, 2), (7, 8, 3),
                               (9, 10, 4), (9, 10, 5), (11, 12, 6), (11, 12, 1)])
        assert 0 not in blocked_vertices(f)
        assert f.same_side_classes() == (0, 1, 2, 2, 4, 4, 1, 7, 8, 9, 10, 11, 12)
        assert _two_sides(f, 0) == (None, 1)
        parts = [[0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 12], [8]]
        assert partition_condition_oracle(f) == (7, parts)
        assert cover_partition_oracle(f) == (7, *parts)
        assert decide_partition_condition_k(f).witness == {"vstar": 7, "parts": parts}
        assert decide_cover_partition_3(f).witness == {"vstar": 7, "X": parts[0], "Y": parts[1]}

    def test_all_blocked_builds_no_classes(self, monkeypatch):
        # Every vertex of K4^(3) is blocked, so no vstar reaches _two_sides.
        def refuse(self):
            raise AssertionError("same-side classes built")

        monkeypatch.setattr(Hypergraph, "same_side_classes", refuse)
        assert blocked_vertices(k4()) == {0, 1, 2, 3}
        report = decide_partition_condition_k(k4())
        assert not report.verdict and report.stats["nodes"] == 0
        assert not decide_cover_partition_3(k4()).verdict

    def test_cover_partition_is_partition_condition_at_k3(self):
        # decide_cover_partition_3 answers through the partition condition;
        # the two definitions agree, witness and all, by brute force alone.
        rng = np.random.default_rng(17)
        graphs = [*all_3graphs(4), *all_3graphs(5), *random_3graphs(rng, 200, 6, p=0.25)]
        positives = 0
        for f in graphs:
            cover = cover_partition_oracle(f)
            partition = partition_condition_oracle(f)
            if partition is not None:
                vstar, (x_side, y_side) = partition
                partition = vstar, x_side, y_side
                positives += 1
            assert cover == partition
        assert 0 < positives < len(graphs)


class TestCompatibleEnumeration:
    def test_single_edge(self):
        ordering, coloring = build_compatible_enumeration(single_edge(), 0, [1], [2])
        assert ordering == [0, 1, 2]
        assert coloring == {(0, 1): "red", (0, 2): "blue", (1, 2): "green"}

    def test_cherry_block_structure(self):
        ordering, coloring = build_compatible_enumeration(cherry(), 0, [1, 3], [2, 4])
        assert ordering[0] == 0
        assert set(ordering[1:3]) == {1, 3} and set(ordering[3:]) == {2, 4}
        assert validate_shadow_coloring(cherry(), ordering, coloring)

    def test_k222_has_no_witness_to_start_from(self):
        with pytest.raises(PreconditionError):
            build_compatible_enumeration(k222(), 0, [1, 2, 4], [3, 5])

    def test_invalid_witness_rejected(self):
        with pytest.raises(PreconditionError):
            build_compatible_enumeration(cherry(), 0, [1, 2], [3, 4])

    def test_triple_cherry_f7(self):
        f = Hypergraph(3, 7, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
        report = decide_factor_3(f)
        assert report.verdict
        w = report.witness["cover-partition"]
        ordering, coloring = build_compatible_enumeration(f, w["vstar"], w["X"], w["Y"])
        assert ordering[0] == w["vstar"]
        assert validate_shadow_coloring(f, ordering, coloring)

    def test_random_positive_instances(self):
        rng = np.random.default_rng(23)
        hits = 0
        for f in random_3graphs(rng, 150, 5):
            report = decide_cover_partition_3(f)
            if not (report.verdict and decide_turan_zero_3(f).verdict):
                continue
            hits += 1
            w = report.witness
            ordering, coloring = build_compatible_enumeration(f, w["vstar"], w["X"], w["Y"])
            assert ordering[0] == w["vstar"]
            assert validate_shadow_coloring(f, ordering, coloring)
        assert hits > 5

    def test_block_ordering_from_every_consistent_ordering(self):
        # The argument in build_compatible_enumeration's docstring: every
        # valid witness, with its sides ordered by any consistent ordering,
        # gives a consistent block ordering.
        rng = np.random.default_rng(29)
        checked = 0
        for n in (3, 4, 5):
            for f in random_3graphs(rng, 60, n, p=0.3):
                taus = [t for t in permutations(range(n)) if forced_coloring(f, t) is not None]
                for vstar in range(n):
                    rest = [v for v in range(n) if v != vstar]
                    for sides in product((0, 1), repeat=n - 1):
                        x = [v for v, side in zip(rest, sides) if side == 0]
                        y = [v for v, side in zip(rest, sides) if side == 1]
                        if not validate_cover_witness(f, vstar, x, y):
                            continue
                        for tau in taus:
                            pos = {v: i for i, v in enumerate(tau)}
                            block = [vstar, *sorted(x, key=pos.__getitem__),
                                     *sorted(y, key=pos.__getitem__)]
                            assert forced_coloring(f, block) is not None
                            checked += 1
        assert checked > 1000

    def test_valid_witness_without_a_consistent_ordering_refused(self):
        # A valid cover witness does not make the shadow orderable: this graph
        # has one, and turan-zero is False.
        f = Hypergraph(3, 6, [(0, 1, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (2, 4, 5)])
        assert validate_cover_witness(f, 0, [1, 2, 4], [3, 5])
        assert not decide_turan_zero_3(f).verdict
        with pytest.raises(PreconditionError) as exc:
            build_compatible_enumeration(f, 0, [1, 2, 4], [3, 5])
        assert str(exc.value) == "graph admits no consistent ordering"


def link_chain_free_reference(f, ordering):
    """The cubic scan: no vertex v and position j with edges {v, v_i, v_j}
    and {v, v_j, v_k} for some i < j < k, every triple probed as a set."""
    seq = list(ordering)
    for v in range(f.n):
        for j, mid in enumerate(seq):
            if mid == v:
                continue
            before = any(frozenset((v, seq[i], mid)) in f.edge_set for i in range(j) if seq[i] != v)
            after = any(frozenset((v, mid, seq[i])) in f.edge_set for i in range(j + 1, len(seq)) if seq[i] != v)
            if before and after:
                return False
    return True


def random_orderings(seed, graphs):
    """Seeded 3-graphs on 3-8 vertices, sparse enough to have consistent
    orderings, each with a few random orderings."""
    rng = np.random.default_rng(seed)
    for _ in range(graphs):
        n = int(rng.integers(3, 9))
        f = next(random_3graphs(rng, 1, n, p=float(rng.uniform(0.05, 0.4))))
        for _ in range(10):
            yield f, [int(v) for v in rng.permutation(n)]


class TestLinkChainFree:
    def test_every_chain_makes_the_ordering_inconsistent(self):
        # A chain is a vertex v and positions i < j < k with edges
        # {v, v_i, v_j} and {v, v_j, v_k}.  v_j lies between v_i and v_k,
        # the third vertices of the pair {v, v_j}, so they fall in two of the
        # regions before, between and after the pair.  A pair's forced colour
        # is fixed by that region, so the pair gets two colours.
        chains = 0
        for f, ordering in random_orderings(38, 300):
            if not link_chain_free_reference(f, ordering):
                chains += 1
                assert forced_coloring(f, ordering) is None
        assert chains >= 1000


def positive_witnesses(decide, graphs):
    """The witness of each graph the decider accepts."""
    for f in graphs:
        report = decide(f)
        if report.verdict:
            yield f, report.witness


def moved(parts, u, to):
    """``parts`` with vertex u moved into part ``to``."""
    return [[v for v in part if v != u] + ([u] if i == to else []) for i, part in enumerate(parts)]


class TestValidatorsReject:
    """Each decider's witness, corrupted one way at a time, is rejected."""

    def test_shadow_coloring(self):
        rng = np.random.default_rng(41)
        checked = 0
        for f, w in positive_witnesses(decide_turan_zero_3, random_3graphs(rng, 40, 6, p=0.15)):
            ordering, coloring = w["ordering"], coloring_from_witness(w)
            assert validate_shadow_coloring(f, ordering, coloring)
            corrupt = [(ordering[:-1], coloring), (ordering[:-1] + ordering[:1], coloring)]
            for pair, col in coloring.items():
                for other in {RED, BLUE, GREEN} - {col}:
                    corrupt.append((ordering, {**coloring, pair: other}))
                corrupt.append((ordering, {q: c for q, c in coloring.items() if q != pair}))
            missing = next((q for q in combinations(range(f.n), 2) if q not in coloring), None)
            if missing is not None:
                corrupt.append((ordering, {**coloring, missing: RED}))
            for bad_ordering, bad_coloring in corrupt:
                assert not validate_shadow_coloring(f, bad_ordering, bad_coloring)
            checked += len(corrupt)
        assert checked > 200

    def test_cover_witness(self):
        rng = np.random.default_rng(43)
        graphs = [cherry(), *random_3graphs(rng, 60, 7, p=0.15)]
        checked = intersecting = 0
        for f, w in positive_witnesses(decide_cover_partition_3, graphs):
            vstar, sides = w["vstar"], [w["X"], w["Y"]]
            assert validate_cover_witness(f, vstar, *sides)
            corrupt = [[sides[0] + [vstar], sides[1]], [sides[0], sides[1] + [vstar]]]
            for u in sides[0] + sides[1]:
                corrupt.append([sides[0] + [u], sides[1] + [u]])
                corrupt.append([[v for v in side if v != u] for side in sides])
            for e in f.edges:
                if vstar in e:
                    a, b = (u for u in e if u != vstar)
                    corrupt.append(moved(sides, b, 0 if a in sides[0] else 1))
            for pair, members in f.subset_edges(2).items():
                if len(members) > 1:
                    # Third vertices of one pair share a side; moving one
                    # makes a cross pair with intersecting links.
                    u = next(v for v in f.edges[members[0]] if v not in pair)
                    corrupt.append(moved(sides, u, 1 if u in sides[0] else 0))
                    intersecting += 1
            for x_side, y_side in corrupt:
                assert not validate_cover_witness(f, vstar, x_side, y_side)
            checked += len(corrupt)
        assert checked > 100 and intersecting > 5
        assert not validate_cover_witness(Hypergraph(4, 4, [(0, 1, 2, 3)]), 0, [1], [2, 3])

    def test_partition_witness(self):
        rng = np.random.default_rng(47)
        graphs = [cherry(), *random_3graphs(rng, 40, 7, p=0.15),
                  *random_kgraphs(rng, 40, 7, 4, p=0.06)]
        checked = 0
        seen_k = set()
        for f, w in positive_witnesses(decide_partition_condition_k, graphs):
            vstar, parts = w["vstar"], w["parts"]
            assert validate_partition_witness(f, vstar, parts)
            corrupt = [parts[:-1], parts + [[]], [parts[0] + [vstar], *parts[1:]]]
            for i, part in enumerate(parts):
                for u in part:
                    dropped = [[v for v in q if v != u] for q in parts]
                    corrupt.append(dropped)
                    corrupt.extend(parts[:j] + [parts[j] + [u]] + parts[j + 1:]
                                   for j in range(len(parts)) if j != i)
            part_of = {v: i for i, part in enumerate(parts) for v in part}
            for rest in f.link((vstar,)):
                # Two vertices of one edge through vstar in one part.
                corrupt.append(moved(parts, rest[1], part_of[rest[0]]))
            for i, e in enumerate(f.edges):
                for e2 in f.edges[i + 1:]:
                    if len(set(e) & set(e2)) >= 2:
                        # Moving a vertex of e alone changes e's index vector only.
                        u = next(v for v in e if v not in e2)
                        corrupt.append(moved(parts, u, (part_of[u] + 1) % len(parts)))
            for bad in corrupt:
                assert not validate_partition_witness(f, vstar, bad)
            checked += len(corrupt)
            seen_k.add(f.k)
        assert checked > 200 and seen_k == {3, 4}


@pytest.mark.parametrize("check", [
    pytest.param(lambda: validate_shadow_coloring(
        single_edge(), [0, 1, 2], [[0, 1, RED], [0, 2, BLUE], [1, 2, GREEN]]), id="coloring-as-json-list"),
    pytest.param(lambda: validate_shadow_coloring(
        single_edge(), [True, 0, 2], {(0, 1): RED, (1, 2): BLUE, (0, 2): GREEN}), id="ordering-with-true"),
    pytest.param(lambda: validate_shadow_coloring(single_edge(), None, {}), id="ordering-none"),
    pytest.param(lambda: validate_embedding(single_edge(), single_edge(), ["0", 1, 2]), id="embedding-str"),
    pytest.param(lambda: validate_embedding(single_edge(), single_edge(), None), id="embedding-none"),
    pytest.param(lambda: validate_factor_certificate(single_edge(), single_edge(), None), id="factor-none"),
    pytest.param(lambda: validate_cover_witness(single_edge(), 0.0, [1], [2]), id="cover-float-vstar"),
    pytest.param(lambda: validate_cover_witness(single_edge(), 0, [True], [2]), id="cover-true-side"),
    pytest.param(lambda: validate_cover_witness(single_edge(), 0, None, [2]), id="cover-none-side"),
    pytest.param(lambda: validate_partition_witness(single_edge(), True, [[0], [2]]), id="partition-true-vstar"),
    pytest.param(lambda: validate_partition_witness(single_edge(), 0, None), id="partition-none"),
    pytest.param(lambda: validate_partition_witness(single_edge(), 0, [[1.0], [2]]), id="partition-float-part"),
])
def test_malformed_witness_refused(check):
    """Vertex ids are plain ints inside lists or tuples, as in
    ``validate_refutation``: anything else gives False, never an exception
    and never a bool read as vertex 1."""
    assert check() is False
