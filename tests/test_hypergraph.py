import json
from collections import namedtuple
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import FormatError, Hypergraph, load_hypergraph
from factorlab.corpus import complete, k4, k222, single_edge
from factorlab.hypergraph import PartAssignments
from factorlab.verification import _edge_tuple_counts, _edges_array
from relabelling import relabel

K222_TEXT = "3 6 8\n" + "\n".join(
    " ".join(map(str, sorted((a, b, c)))) for a, b, c in product((0, 1), (2, 3), (4, 5))
) + "\n"


def random_graph(rng, n, k=3, p=0.4):
    edges = [e for e in combinations(range(n), k) if rng.random() < p]
    return Hypergraph(k, n, edges)


def first_rainbow_colouring(f):
    """Parts of the first colouring in ``product(range(k), repeat=n)`` order
    that gives every edge k colours, or None."""
    for colour in product(range(f.k), repeat=f.n):
        if all(len({colour[v] for v in e}) == f.k for e in f.edges):
            return tuple(tuple(v for v in range(f.n) if colour[v] == c) for c in range(f.k))
    return None


def shuffled_union(rng, k, sizes):
    """Random k-graphs on ``sizes`` vertices side by side, with the vertices
    shuffled, so the components interleave in vertex order."""
    edges, start = [], 0
    for size in sizes:
        part = random_graph(rng, size, k, 0.5)
        edges += [tuple(start + v for v in e) for e in part.edges]
        start += size
    return relabel(Hypergraph(k, start, edges), [int(v) for v in rng.permutation(start)])


def assignment_ok(f, conflicts, classes, part_of):
    """No two placed vertices in conflict share a part, and the fully placed
    edges of each class have one sorted part vector (-1 marks unplaced)."""
    placed = [v for v in range(f.n) if part_of[v] >= 0]
    if any(conflicts[v] >> u & 1 and part_of[u] == part_of[v] for v in placed for u in placed):
        return False
    return all(
        len({tuple(sorted(part_of[u] for u in f.edges[i])) for i in cls
             if min(part_of[u] for u in f.edges[i]) >= 0}) <= 1
        for cls in classes
    )


class TestLoading:
    def test_smallest_valid_input(self):
        h = load_hypergraph("3 3 1\n0 1 2")
        assert (h.k, h.n, h.edges) == (3, 3, ((0, 1, 2),))

    def test_k222_text(self):
        assert load_hypergraph(K222_TEXT) == k222()

    def test_comments_and_blank_lines(self):
        h = load_hypergraph("# header comment\n3 3 1\n\n0 1 2\n# trailing\n")
        assert h == single_edge()

    def test_bytes_and_stream(self, tmp_path):
        assert load_hypergraph(b"3 3 1\n0 1 2") == single_edge()
        path = tmp_path / "edge.hg"
        path.write_text("3 3 1\n0 1 2\n")
        with open(path) as handle:
            assert load_hypergraph(handle) == single_edge()

    @pytest.mark.parametrize(
        "text, fragment, line",
        [
            ("3 3 1\n0 1 1", "repeated vertex", 2),
            ("3 3 1\n0 1 5", "out of range", 2),
            ("3 3 1\n0 1", "expected 3", 2),
            ("3 3 1\n0 1 x", "non-integer", 2),
            ("3 3 1\n2 1 0", "strictly increasing", 2),
            ("3 4 2\n0 1 2\n0 1 2", "duplicate edge", 3),
            ("3 3\n0 1 2", "header", 1),
            ("1 3 0", "uniformity", 1),
        ],
    )
    def test_malformed_inputs_mention_line(self, text, fragment, line):
        with pytest.raises(FormatError) as err:
            load_hypergraph(text)
        assert fragment in str(err.value)
        assert f"line {line}" in str(err.value)

    def test_edge_count_mismatch(self):
        with pytest.raises(FormatError, match="expected 2 edge lines"):
            load_hypergraph("3 4 2\n0 1 2")

    def test_json_mirror(self):
        h = load_hypergraph(json.dumps({"k": 3, "n": 6, "edges": k222().to_json_obj()["edges"]}))
        assert h == k222()

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ({"k": 3, "n": 3, "edges": [[0, 1.5, 2]]}, "vertex ids must be integers, got 1.5"),
            ({"k": 3, "n": 3, "edges": [[0, True, 2]]}, "vertex ids must be integers, got true"),
            ({"k": 3.0, "n": 3, "edges": []}, '"k" must be an integer, got 3.0'),
            ({"k": True, "n": 3, "edges": []}, '"k" must be an integer, got true'),
            ({"k": 3, "n": 3.0, "edges": []}, '"n" must be an integer, got 3.0'),
            ({"k": 3, "n": False, "edges": []}, '"n" must be an integer, got false'),
        ],
    )
    def test_json_numbers_must_be_plain_ints(self, obj, fragment):
        with pytest.raises(FormatError) as err:
            load_hypergraph(json.dumps(obj))
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ({"k": 3, "n": 3, "edges": {"0": [0, 1, 2]}}, '"edges" must be a list of edges'),
            ({"k": 3, "n": 3, "edges": "0 1 2"}, '"edges" must be a list of edges'),
            ({"k": 3, "n": 3, "edges": [7]}, "an edge must be a list of vertex ids, got 7"),
            ({"k": 3, "n": 3, "edges": [{"a": 0}]}, 'an edge must be a list of vertex ids, got {"a": 0}'),
        ],
    )
    def test_json_edges_must_be_lists(self, obj, fragment):
        with pytest.raises(FormatError) as err:
            load_hypergraph(json.dumps(obj))
        assert fragment in str(err.value)

    @pytest.mark.parametrize(
        "source, fragment",
        [
            (b"\x80", "not UTF-8"),
            ('{"k": 1' + "0" * 5000 + ', "n": 3, "edges": []}', "invalid JSON"),
            ('{"k": ' + "[" * 100000 + "]" * 100000 + "}", "invalid JSON"),
        ],
    )
    def test_unreadable_inputs_are_format_errors(self, source, fragment):
        with pytest.raises(FormatError, match=fragment):
            load_hypergraph(source)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = random_graph(rng, int(rng.integers(3, 9)))
            assert load_hypergraph(h.to_text()) == h
            assert load_hypergraph(json.dumps(h.to_json_obj())) == h


def plain_canonical(k, n, edges):
    """The edges a Hypergraph stores, by the plain per-edge loop, or the text
    of the ValueError it raises."""
    canon = []
    for e in edges:
        t = tuple(sorted(e))
        if len(t) != k:
            return f"edge {t} does not have {k} vertices"
        if len(set(t)) != k:
            return f"edge {t} has a repeated vertex"
        if t[0] < 0 or t[-1] >= n:
            return f"edge {t} has a vertex outside [0, {n})"
        canon.append(t)
    canon.sort()
    for a, b in zip(canon, canon[1:]):
        if a == b:
            return f"duplicate edge {a}"
    return tuple(canon)


def constructed(k, n, edges):
    """``Hypergraph(k, n, edges).edges``, or the text of its ValueError."""
    try:
        return Hypergraph(k, n, edges).edges
    except ValueError as exc:
        return str(exc)


EDGE_FORMS = {
    "tuple": tuple,
    "sorted": lambda e: tuple(sorted(e)),
    "reversed": lambda e: tuple(sorted(e, reverse=True)),
    "list": list,
    "generator": lambda e: (v for v in e),
}
LIST_FORMS = {
    "list": list,
    "tuple": tuple,
    "sorted": sorted,
    "reversed": lambda edges: edges[::-1],
    "generator": lambda edges: (e for e in edges),
    "set": set,
}


@st.composite
def edge_inputs(draw):
    """(k, n, vertex lists, edge form, list form): ascending k-subsets of
    range(n) in any order, repeats allowed or not, and at times one edge with
    a wrong length, a repeated vertex or a vertex outside [0, n) among them.
    Lists of up to 20 edges reach both sides of the 8-edge cut."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(0, 9))
    ksets = list(combinations(range(n), k))
    if ksets:
        if draw(st.booleans()):  # distinct edges
            chosen = draw(st.permutations(ksets))[:draw(st.integers(0, 20))]
        else:
            chosen = draw(st.lists(st.sampled_from(ksets), min_size=draw(st.sampled_from([0, 9])), max_size=20))
        edges = [list(e) for e in chosen]
    else:
        edges = []
    if draw(st.booleans()):
        vertex_lists = st.lists(st.integers(-1, n), min_size=k - 1, max_size=k + 1)
        noisy = draw(st.one_of(vertex_lists.map(sorted), vertex_lists))
        edges.insert(draw(st.integers(0, len(edges))), noisy)
    # ascending tuples, the form kept as it is, half the time
    edge_form = draw(st.sampled_from(["tuple"] * 4 + sorted(EDGE_FORMS)))
    return k, n, edges, edge_form, draw(st.sampled_from(sorted(LIST_FORMS)))


class TestConstructor:
    """Canonical edge lists are kept as they are, and every input gives the
    edges, or the ValueError text, of the plain per-edge loop."""

    @settings(max_examples=1000, deadline=None)
    @given(edge_inputs())
    def test_matches_plain_canonicaliser(self, case):
        k, n, edges, edge_form, list_form = case
        if (edge_form, list_form) in (("list", "set"), ("generator", "set"), ("generator", "sorted")):
            list_form = "list"  # a set holds only hashable edges, and generators do not compare

        def make():
            return LIST_FORMS[list_form]([EDGE_FORMS[edge_form](e) for e in edges])

        assert constructed(k, n, make()) == plain_canonical(k, n, make())

    @pytest.mark.parametrize("edges", [
        [],
        [(0, 1, 2)],
        [(0, 1, 2), (0, 1, 2)],
        [(1, 2, 3), (0, 1, 2), (1, 2, 3)],
        [(0, 1, 2), (0, 1)],
        [(0, 1, 2), (0, 1, 2, 3)],
        [(0, 1, 1)],
        [(0, 2, 1)],
        [(-1, 0, 1)],
        [(2, 3, 6)],
        [(0, 1, 2.5)],
        [(False, True, 2), (0, 1, 2)],
    ])
    def test_each_error_and_edge_list(self, edges):
        # each case alone, and before and after nine ascending triples, past
        # the 8-edge cut
        nine = [*combinations(range(6), 3)][-9:]
        for case in (edges, nine + edges, edges + nine):
            assert constructed(3, 6, case) == plain_canonical(3, 6, case)
            assert constructed(3, 6, iter(case)) == plain_canonical(3, 6, case)

    def test_list_order_subclasses_and_incomparable_vertices(self):
        # Ascending tuples in any list order come out sorted; an edge of a
        # tuple subclass, or of vertices that do not compare, takes the loop.
        ksets = [*combinations(range(6), 3)]
        assert Hypergraph(3, 6, ksets[::-1]).edges == tuple(ksets)
        Edge = namedtuple("Edge", "a b c")
        h = Hypergraph(3, 6, ksets[1:] + [Edge(0, 1, 2)])
        assert h.edges == tuple(ksets) and all(type(e) is tuple for e in h.edges)
        for odd in ((0, 1, "a"), (None, 1, 2)):
            edges = ksets[1:] + [odd]
            with pytest.raises(TypeError) as got:
                Hypergraph(3, 6, edges)
            with pytest.raises(TypeError) as want:
                plain_canonical(3, 6, edges)
            assert str(got.value) == str(want.value)


class TestShadowLinkDegree:
    def test_shadow_of_one_edge(self):
        assert single_edge().subset_edges(2).keys() == frozenset({(0, 1), (0, 2), (1, 2)})

    def test_k222_shadow_has_only_cross_pairs(self):
        pairs = k222().subset_edges(2).keys()
        assert len(pairs) == 12
        assert not any({(0, 1), (2, 3), (4, 5)} & pairs)

    def test_empty_shadow(self):
        assert Hypergraph(3, 5, []).subset_edges(2).keys() == frozenset()

    def test_shadow_out_of_range(self):
        with pytest.raises(ValueError):
            single_edge().subset_edges(3)

    def test_shadow_downward_closure(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_graph(rng, 8, k=4, p=0.3)
            sh3, sh2 = h.subset_edges(3).keys(), h.subset_edges(2).keys()
            for triple in sh3:
                for pair in combinations(triple, 2):
                    assert pair in sh2

    def test_links(self):
        assert single_edge().link((0,)) == frozenset({(1, 2)})
        assert k222().link((0,)) == frozenset({(2, 4), (2, 5), (3, 4), (3, 5)})
        assert k222().link((0, 1)) == frozenset()
        with pytest.raises(ValueError):
            single_edge().link((0, 1, 2))

    def test_links_are_not_cached(self):
        h = k222()
        h.subset_edges(2)
        before = dict(h._cache)
        for v in range(h.n):
            h.link((v,))
        assert h._cache == before

    def test_min_degrees(self):
        assert k222().min_s_degree(1) == 4
        assert single_edge().min_s_degree(2) == 1
        assert Hypergraph(3, 6, []).min_s_degree(2) == 0


def classes_by_definition(h, s):
    """Components of the plain pair loop "share >= s vertices", each ascending,
    ordered by smallest member."""
    m = len(h.edges)
    adj = [
        [j for j in range(m) if j != i and len(set(h.edges[i]) & set(h.edges[j])) >= s]
        for i in range(m)
    ]
    seen: set[int] = set()
    out = []
    for i in range(m):
        if i in seen:
            continue
        comp, stack = {i}, [i]
        while stack:
            for j in adj[stack.pop()]:
                if j not in comp:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        out.append(tuple(sorted(comp)))
    return tuple(out)


def seeded_graphs():
    """Random 3- and 4-graphs on 0-8 vertices over a spread of densities."""
    rng = np.random.default_rng(17)
    for k in (3, 4):
        for n in range(9):
            for p in (0.1, 0.3, 0.6):
                yield random_graph(rng, n, k, p)


class TestOverlaps:
    def test_subset_edges_match_definition(self):
        for h in seeded_graphs():
            for s in range(1, h.k):
                expected = {}
                for c in combinations(range(h.n), s):
                    members = tuple(i for i, e in enumerate(h.edges) if set(c) <= set(e))
                    if members:
                        expected[c] = members
                assert h.subset_edges(s) == expected

    def test_overlap_classes_match_pair_loop(self):
        for h in seeded_graphs():
            for s in range(1, h.k):
                assert h.overlap_classes(s) == classes_by_definition(h, s)

    def test_min_s_degree_matches_count(self):
        for h in seeded_graphs():
            for s in range(1, h.k):
                expected = min(
                    (sum(1 for e in h.edges if set(c) <= set(e)) for c in combinations(range(h.n), s)),
                    default=0,
                )
                assert h.min_s_degree(s) == expected

    def test_small_cases(self):
        h = k222()
        assert h.subset_edges(2)[(0, 2)] == (0, 1)
        assert h.overlap_classes(2) == (tuple(range(8)),)
        assert single_edge().overlap_classes(2) == ((0,),)
        assert Hypergraph(3, 2, []).min_s_degree(2) == 0
        assert Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]).overlap_classes(1) == ((0,), (1,))
        assert Hypergraph(3, 5, [(0, 1, 2), (0, 3, 4), (1, 2, 3)]).overlap_classes(2) == ((0, 2), (1,))

    def test_derived_data_is_cached(self):
        h = k4()
        assert h.subset_edges(2) is h.subset_edges(2)
        assert h.overlap_classes(2) is h.overlap_classes(2)
        assert h.same_side_classes() is h.same_side_classes()

    def test_same_side_classes_match_plain_closure(self):
        """Per vertex, the smallest vertex of its class under the closure of
        "x ~ y when T+x and T+y are edges for one (k-1)-set T"."""
        rng = np.random.default_rng(19)
        graphs = [*seeded_graphs(), *(random_graph(rng, n, 5, p) for n in range(10) for p in (0.05, 0.2, 0.5)),
                  Hypergraph(3, 0, []), Hypergraph(4, 6, []), Hypergraph(3, 8, [(1, 2, 3), (1, 2, 5)]),
                  Hypergraph(5, 12, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 9), (0, 1, 2, 9, 11)])]
        isolated = 0
        for h in graphs:
            mates = [[] for _ in range(h.n)]
            for x, y in combinations(range(h.n), 2):
                rest = [v for v in range(h.n) if v not in (x, y)]
                if any({*t, x} in h.edge_set and {*t, y} in h.edge_set for t in combinations(rest, h.k - 1)):
                    mates[x].append(y)
                    mates[y].append(x)
            expected = list(range(h.n))
            for v in range(h.n):
                stack = [v]
                while stack:
                    for u in mates[stack.pop()]:
                        if expected[u] > v:
                            expected[u] = v
                            stack.append(u)
            assert h.same_side_classes() == tuple(expected)
            isolated += sum(not any(v in e for e in h.edges) for v in range(h.n))
        assert graphs[-1].same_side_classes() == (0, 1, 2, 3, 4, 5, 6, 7, 8, 4, 10, 3)
        assert isolated > 50

    def test_embedding_masks_match_plain_rebuild(self):
        graphs = list(seeded_graphs()) + [Hypergraph(3, 0, []), Hypergraph(3, 6, [(0, 2, 4)]),
                                          Hypergraph(4, 9, [(1, 2, 3, 5), (2, 3, 5, 8)])]
        for h in graphs:
            completion = {}
            for sub, members in h.subset_edges(h.k - 1).items():
                completion[sum(1 << v for v in sub)] = sum(1 << v for i in members for v in h.edges[i]
                                                           if v not in sub)
            neighbours = tuple(sum(1 << w for w in {w for e in h.edges if v in e for w in e} - {v})
                               for v in range(h.n))
            degrees = tuple(sum(v in e for e in h.edges) for v in range(h.n))
            at_least = tuple(sum(1 << v for v in range(h.n) if degrees[v] >= d)
                             for d in range(max(degrees, default=0) + 1))
            masks = h.embedding_masks()
            assert masks.completion == completion
            assert masks.neighbours == neighbours
            assert masks.degrees == degrees and masks.at_least == at_least

    def test_degrees_match_plain_count(self):
        graphs = list(seeded_graphs()) + [Hypergraph(3, 0, []), Hypergraph(3, 6, [(0, 2, 4)])]
        for h in graphs:
            degrees = h.degrees()
            assert degrees == tuple(sum(v in e for e in h.edges) for v in range(h.n))
            assert degrees is h.embedding_masks().degrees
        fresh = Hypergraph(3, 6, [(0, 2, 4), (1, 2, 5)])
        assert fresh.embedding_masks().degrees is fresh.degrees()

    @pytest.mark.parametrize("s", [0, 3])
    def test_order_out_of_range(self, s):
        for method in ("subset_edges", "overlap_classes", "min_s_degree"):
            with pytest.raises(ValueError):
                getattr(k4(), method)(s)


def tuple_count(h, sets):
    """Ordered-tuple count through the denseness estimators' counter: one
    single-sample joint table per position, the vertex set's mask."""
    tables = []
    for pos, x in enumerate(sets, 1):
        mask = np.zeros((h.n, 1), dtype=bool)
        mask[list(x)] = True
        tables.append(([pos], mask))
    (count,) = _edge_tuple_counts(_edges_array(h), tables, h.n, 1)
    return count


class TestTupleCounting:
    def test_complete_all_vertices(self):
        assert tuple_count(complete(5, 3), [range(5)] * 3) == 60

    def test_single_edge_singletons(self):
        assert tuple_count(single_edge(), [{0}, {1}, {2}]) == 1

    def test_overlapping_sets(self):
        # Oracle: enumerate the 2*2*1 tuples directly.
        h = single_edge()
        sets = [{0, 1}, {0, 1}, {2}]
        expected = sum(
            1
            for t in product(*sets)
            if len(set(t)) == 3 and frozenset(t) in h.edge_set
        )
        assert expected == 2
        assert tuple_count(h, sets) == 2

    def test_all_vertex_count_is_k_factorial_times_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            h = random_graph(rng, 7)
            assert tuple_count(h, [range(7)] * 3) == 6 * len(h.edges)


class TestStructure:
    def test_k222_is_3_partite(self):
        parts = {frozenset(p) for p in k222().is_k_partite().parts}
        assert parts == {frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})}

    def test_k4_is_not_3_partite(self):
        assert k4().is_k_partite() is None

    def test_single_edge_partition(self):
        parts = single_edge().is_k_partite().parts
        assert sorted(v for p in parts for v in p) == [0, 1, 2]
        assert all(len(p) == 1 for p in parts)

    def test_two_graphs_are_bipartite_or_not(self):
        path = Hypergraph(2, 3, [(0, 1), (1, 2)])
        assert path.is_k_partite().parts == ((0, 2), (1,))
        assert Hypergraph(2, 3, [(0, 1), (0, 2), (1, 2)]).is_k_partite() is None

    def test_is_k_partite_is_the_first_rainbow_colouring(self):
        rng = np.random.default_rng(12)
        answers = []
        for k, n in ((2, 0), (2, 7), (3, 6), (3, 7), (4, 6)):
            for p in (0.1, 0.3, 0.6):
                f = random_graph(rng, n, k, p)
                got = f.is_k_partite()
                want = first_rainbow_colouring(f)
                assert (None if got is None else got.parts) == want
                answers.append(want is None)
        assert True in answers and False in answers

    def test_components(self):
        f = Hypergraph(3, 8, [(0, 4, 6), (1, 2, 5), (4, 6, 7)])
        assert f.components() == ((0, 4, 6, 7), (1, 2, 5), (3,))
        assert f.components() is f.components()
        assert Hypergraph(2, 0, []).components() == ()

    def test_is_k_partite_per_component_is_the_first_colouring(self):
        # Disjoint unions with their vertices shuffled, so the components
        # interleave in vertex order and some hold no edge.
        rng = np.random.default_rng(13)
        answers = []
        for k, sizes in ((2, (3, 3, 2)), (2, (4, 3, 1)), (3, (4, 3, 1)), (3, (5, 3))):
            for _ in range(12):
                f = shuffled_union(rng, k, sizes)
                got = f.is_k_partite()
                want = first_rainbow_colouring(f)
                assert (None if got is None else got.parts) == want
                answers.append((len(f.components()) > 1, want is None))
        assert {(True, True), (True, False)} <= set(answers)

    def test_part_assignments_list_every_answer_in_order(self):
        # Until its first answer the search jumps back within a component;
        # from then on it steps back one vertex, or it would skip answers
        # that differ only in the components it jumped over.  The conflicts
        # join random pairs inside edges.
        rng = np.random.default_rng(14)
        stuck = set()
        for k, sizes, parts, s in ((2, (4, 3, 1), 2, None), (3, (4, 3, 1), 2, None),
                                   (3, (5, 3), 2, 2), (4, (5, 3), 3, 2)):
            for _ in range(15):
                f = shuffled_union(rng, k, sizes)
                conflicts = [0] * f.n
                for e in f.edges:
                    a, b = (int(v) for v in rng.choice(e, 2, replace=False))
                    conflicts[a] |= 1 << b
                    conflicts[b] |= 1 << a
                classes = [] if s is None else f.overlap_classes(s)
                listing = [list(a) for a in PartAssignments(f, parts, conflicts, s=s)]
                want = [list(a) for a in product(range(parts), repeat=f.n)
                        if assignment_ok(f, conflicts, classes, a)]
                assert listing == want
                # Does the first-fit descent get stuck before the first answer?
                part_of = [-1] * f.n
                for v in range(f.n):
                    part_of[v] = next((p for p in range(parts) if assignment_ok(
                        f, conflicts, classes, part_of[:v] + [p] + part_of[v + 1:])), -1)
                    if part_of[v] < 0:
                        stuck.add((k, bool(want)))
                        break
        assert {(2, True), (3, True), (4, True), (3, False)} <= stuck
        # With no answer the jumps end the listing at the dead component: a
        # triangle after a matching on 0..23 fails within itself, without
        # the matching's 2^12 colourings being retried.
        f = Hypergraph(2, 27, [(2 * i, 2 * i + 1) for i in range(12)] + [(24, 25), (24, 26), (25, 26)])
        search = PartAssignments(f, 2, f.embedding_masks().neighbours)
        assert list(search) == [] and search.nodes < 100

    def test_part_assignments_refuse_a_class_edge_with_no_free_vertex(self):
        f = Hypergraph(3, 7, [(0, 1, 2), (0, 1, 3), (4, 5, 6)])
        with pytest.raises(ValueError, match=r"^overlap-class edge \(0, 1, 2\) has no free vertex$"):
            PartAssignments(f, 2, [0] * f.n, s=2, fixed={0: 0, 1: 0, 2: 1})
        # an edge alone in its class may be fixed whole, a class edge may keep one free vertex
        search = PartAssignments(f, 2, [0] * f.n, s=2, fixed={0: 0, 1: 0, 4: 0, 5: 1, 6: 1})
        assert [part_of[2:4] for part_of in search] == [[0, 0], [1, 1]]

    def test_empty_parts_allowed(self):
        h = Hypergraph(3, 3, [(0, 1, 2)])
        sub = Hypergraph(3, 2, [])  # subgraph of a 3-partite graph
        assert h.is_k_partite() is not None
        assert sub.is_k_partite() is not None

    def test_hash_and_repr_follow_the_canonical_edges(self):
        a = Hypergraph(3, 5, [(2, 3, 4), (0, 1, 2)])
        b = Hypergraph(3, 5, [(1, 0, 2), (4, 2, 3)])
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert repr(a) == "Hypergraph(k=3, n=5, m=2)"

    def test_induced_and_relabel(self):
        h = k222()
        sub, remap = h.induced([0, 2, 4])
        assert sub.edges == ((0, 1, 2),) and remap == {0: 0, 2: 1, 4: 2}
        perm = [5, 4, 3, 2, 1, 0]
        assert relabel(relabel(h, perm), perm) == h

    @pytest.mark.parametrize("k, n, fragment", [(1, 3, "k must be >= 2"), (3, -1, "must be >= 0")])
    def test_constructor_refuses_k_and_n(self, k, n, fragment):
        with pytest.raises(ValueError, match=fragment):
            Hypergraph(k, n, [])

    @pytest.mark.parametrize("vertices", [[0, 6], [-1, 2]])
    def test_induced_refuses_outside_vertices(self, vertices):
        with pytest.raises(ValueError, match="outside"):
            k222().induced(vertices)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            Hypergraph(3, 3, [(0, 1)])
        with pytest.raises(ValueError):
            Hypergraph(3, 3, [(0, 1, 1)])
        with pytest.raises(ValueError):
            Hypergraph(3, 3, [(0, 1, 3)])
        with pytest.raises(ValueError):
            Hypergraph(3, 4, [(0, 1, 2), (2, 1, 0)])
