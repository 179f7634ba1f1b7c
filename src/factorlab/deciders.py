"""Deciders for the finite factor/cover criteria of small uniform hypergraphs.

Each decider returns a :class:`DecisionReport` whose witness re-validates
against the raw definitions through the ``validate_*`` functions at the bottom
of this module; the validators share no machinery with the searches.

Searches iterate candidates in ascending vertex-id order, so witnesses are
deterministic and lexicographically smallest.

A false turan-zero verdict found from a K4⁻ (three edges on four vertices)
carries that K4⁻ as its ``refutation``, checked by
:func:`validate_turan_zero_refutation`.  It is a proof because consistency
is monotone: an ordering of F with a consistent forced colouring restricts
to one of every F′ ⊆ F, and no ordering of K4⁻ has one.

The cover-partition condition for 3-graphs is the partition condition at
k = 3, so both deciders run one search per candidate vstar: a 2-colouring at
k = 3, with no backtracking, and a part-assignment search at k >= 4.  No
vertex of :func:`blocked_vertices` is a candidate there, nor in the k-partite
link-disjointness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .hypergraph import Hypergraph, PartAssignments, Partition, is_vertex_list

RED, BLUE, GREEN = "red", "blue", "green"

PairColoring = dict[tuple[int, int], str]


class PreconditionError(ValueError):
    """The input does not satisfy a decider's applicability requirements."""


@dataclass
class DecisionReport:
    """Boolean verdict plus a machine-checkable witness and search statistics."""

    property_name: str
    verdict: bool
    witness: dict | None
    flags: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    refutation: dict | None = None  # a false verdict's checkable reason, if it has one

    def to_json_obj(self) -> dict:
        return {
            "property": self.property_name,
            "verdict": self.verdict,
            "witness": self.witness,
            "refutation": self.refutation,
            "flags": self.flags,
            "stats": self.stats,
        }


def _base_flags(f: Hypergraph) -> list[str]:
    covered = {v for e in f.edges for v in e}
    if len(covered) < f.n:
        # Isolated vertices have empty links and pass every disjointness
        # condition vacuously; callers are warned rather than rejected.
        return ["isolated-vertices"]
    return []


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------------
# ordering / shadow colouring
# ---------------------------------------------------------------------------


def forced_coloring(f: Hypergraph, ordering: list[int] | tuple[int, ...]) -> PairColoring | None:
    """Pair colouring of the shadow forced by a vertex ordering, if consistent.

    For each edge, the pair of its two ordering-smallest vertices is red, the
    smallest+largest pair blue, and the two largest green.  Returns None as
    soon as one pair is forced to two distinct colours.
    """
    if f.k != 3:
        raise PreconditionError(f"forced colourings are defined for 3-graphs, got k={f.k}")
    if sorted(ordering) != list(range(f.n)):
        raise ValueError("ordering is not a permutation of the vertex set")
    pos = {v: i for i, v in enumerate(ordering)}
    colors: PairColoring = {}
    for e in f.edges:
        a, b, c = sorted(e, key=pos.__getitem__)
        for pair, col in ((_pair(a, b), RED), (_pair(a, c), BLUE), (_pair(b, c), GREEN)):
            prev = colors.get(pair)
            if prev is None:
                colors[pair] = col
            elif prev != col:
                return None
    return colors


def _k4_minus(f: Hypergraph) -> list[list[int]] | None:
    """The first K4⁻ of a 3-graph, as its three edges, or None.

    A K4⁻ is a pair {a, b} in two edges abc and abd, with acd or bcd an edge
    too.  Pairs are scanned in the order of ``subset_edges(2)`` (by the
    first edge holding them, edges in lexicographic order), the two edges
    through a pair by ascending index (i before j, then j ascending), and
    the third edge is the lowest-index edge on {c, d} through a or b.  The
    answer lists the edges in that order: abc, abd, then the third.
    """
    pairs = f.subset_edges(2)
    edges = f.edges
    for (a, b), members in pairs.items():
        if len(members) < 2:
            continue
        thirds = [sum(edges[i]) - a - b for i in members]
        for i in range(len(members) - 1):
            c = thirds[i]
            for j in range(i + 1, len(members)):
                d = thirds[j]
                for h in pairs.get((c, d) if c < d else (d, c), ()):
                    if a in edges[h] or b in edges[h]:
                        return [list(edges[members[i]]), list(edges[members[j]]), list(edges[h])]
    return None


def decide_turan_zero_3(f: Hypergraph) -> DecisionReport:
    """Is some vertex ordering's forced shadow colouring consistent?

    First, :func:`_k4_minus` looks for three edges on four vertices.  On a
    hit the answer is False, with ``nodes`` 0 and the K4⁻ as a ``k4-minus``
    refutation.  That is sound:

    * three edges on four vertices form a K4⁻, {abc, abd, acd} up to names;
    * no ordering of K4⁻ is consistent.  A pair's forced colour is fixed by
      where its third vertex falls: before, between or after the pair.  With
      u the middle one of b, c, d in the ordering, the pair au lies in two
      edges, and their third vertices fall on either side of u, so in two
      of those regions;
    * an ordering of F with a consistent forced colouring restricts to one
      of every F′ ⊆ F, since each edge's colours depend only on the order
      of its own vertices.

    Otherwise one loop, whose depth is the number of vertices placed (at
    most v(F)), backtracks over orderings in lexicographic order, checking
    forward: an edge's three colours are fixed once two of its vertices are
    placed.  Placing v assigns, for each edge {v, x, y} through it:

    * neither x nor y placed: both come after v, so xy is green;
    * x placed, y not: x comes first and y last, so xv is red and xy blue
      (vy turned green when x was placed);
    * both placed: nothing new.

    A pair already holding another colour prunes the placement; colours are
    indexed by ``subset_edges(2)`` position and undone from a trail.  Every
    colour assigned is one that each completion of the prefix forces, so no
    prefix with a consistent completion is pruned: the first complete
    ordering is the lexicographically smallest consistent one (the oracle in
    tests scans all f! orderings), and the colouring held then is its forced
    colouring.  ``nodes`` counts the placements tried.
    """
    if f.k != 3:
        raise PreconditionError(f"applicable to 3-graphs only, got k={f.k}")
    t0 = time.perf_counter()
    k4_minus = _k4_minus(f)
    if k4_minus is not None:
        stats = {"nodes": 0, "time_s": time.perf_counter() - t0}
        return DecisionReport("turan-zero", False, None, _base_flags(f), stats,
                              {"kind": "k4-minus", "edges": k4_minus})
    n = f.n
    pairs = f.subset_edges(2)
    pair_id = dict(zip(pairs, range(len(pairs))))
    # through[v]: (x, y, id of vx, id of vy, id of xy) for each edge {v, x, y}
    through: list[list[tuple[int, int, int, int, int]]] = [[] for _ in range(n)]
    for a, b, c in f.edges:
        ab, ac, bc = pair_id[a, b], pair_id[a, c], pair_id[b, c]
        through[a].append((b, c, ab, ac, bc))
        through[b].append((a, c, ab, bc, ac))
        through[c].append((a, b, ac, bc, ab))
    color: list[str | None] = [None] * len(pairs)
    trail: list[int] = []
    placed = [False] * (n + 1)  # placed[n] stays False, to end each scan
    order: list[int] = []  # the placed vertices, in order
    marks: list[int] = []  # the trail's length before each placed vertex
    nodes = 0

    def force(p: int, col: str) -> bool:
        cur = color[p]
        if cur is None:
            color[p] = col
            trail.append(p)
            return True
        return cur == col

    def place(v: int) -> bool:
        for x, y, vx, vy, xy in through[v]:
            if placed[x]:
                if placed[y]:
                    continue
                ok = force(vx, RED) and force(xy, BLUE)
            elif placed[y]:
                ok = force(vy, RED) and force(xy, BLUE)
            else:
                ok = force(xy, GREEN)
            if not ok:
                return False
        return True

    v = 0  # the next vertex to try at depth len(order)
    while len(order) < n:
        v = placed.index(False, v)
        if v < n:
            nodes += 1
            mark = len(trail)
            if place(v):
                placed[v] = True
                order.append(v)
                marks.append(mark)
                v = 0
                continue
        elif not order:
            break
        else:  # withdraw the last placed vertex
            v = order.pop()
            placed[v] = False
            mark = marks.pop()
        for p in trail[mark:]:  # undo v's colours, then resume after v
            color[p] = None
        del trail[mark:]
        v += 1
    found = len(order) == n
    stats = {"nodes": nodes, "time_s": time.perf_counter() - t0}
    witness = None
    if found:
        witness = {"ordering": order, "coloring": [[u, w, col] for (u, w), col in sorted(zip(pairs, color))]}
    return DecisionReport("turan-zero", found, witness, _base_flags(f), stats)


def build_compatible_enumeration(
    f: Hypergraph, vstar: int, x_side: list[int] | tuple[int, ...], y_side: list[int] | tuple[int, ...]
) -> tuple[list[int], PairColoring]:
    """Block-structured ordering (vstar, X..., Y...) with a consistent forced colouring.

    Requires a valid cover-partition witness and a graph whose shadow is
    orderable at all; both failures raise :class:`PreconditionError`.  X and
    Y sorted by any consistent base ordering tau always work, since a pair's
    colour depends only on where each of its third vertices falls: before,
    between or after the pair's two vertices.

    * A pair through vstar gets one colour: link(vstar) crosses X and Y, so
      its third vertex lies on the other side.
    * The third vertices of any other pair lie on one side, since two on
      opposite sides would have intersecting links across X and Y.  The one
      exception is vstar, whose link meets no other; it is then the only one.
    * Each side keeps tau's order, under which the third vertices all fall
      alike; so they fall alike about a pair vertex on their own side, and a
      pair vertex on the other side comes before all or after all of them.
    """
    if not validate_cover_witness(f, vstar, x_side, y_side):
        raise PreconditionError("not a valid cover-partition witness for this graph")
    base = decide_turan_zero_3(f)
    if not base.verdict:
        raise PreconditionError("graph admits no consistent ordering")
    tau = base.witness["ordering"]
    pos = {v: i for i, v in enumerate(tau)}
    candidate = [vstar] + sorted(x_side, key=pos.__getitem__) + sorted(y_side, key=pos.__getitem__)
    colors = forced_coloring(f, candidate)
    if colors is None:
        raise RuntimeError("block ordering is inconsistent; compatibility guarantee violated")
    return candidate, colors


# ---------------------------------------------------------------------------
# cover-partition condition for 3-graphs
# ---------------------------------------------------------------------------


def decide_cover_partition_3(f: Hypergraph) -> DecisionReport:
    """Is there a vertex vstar and bipartition {X, Y} of the rest such that
    every pair in link(vstar) crosses X and Y, and links of cross pairs and of
    vstar are pairwise disjoint?

    This is the partition condition at k = 3, with parts (X, Y).  Both ask
    link(vstar) to cross X and Y.  Two edges sharing a pair have equal index
    vectors w.r.t. (X, Y, {vstar}) exactly when their third vertices lie in
    one part (see :meth:`Hypergraph.same_side_classes`).  Third vertices u
    and w of one pair make that pair a member of link(u) ∩ link(w), and
    every member arises so.  Equal vectors on all such edges therefore say
    that cross links are disjoint and that link(vstar) meets no other link.
    So the answer is that of :func:`decide_partition_condition_k`,
    relabelled, with its ``nodes`` and flags, plus "same-side-links-intersect"
    on a true verdict when some pair lies in two edges.
    """
    if f.k != 3:
        raise PreconditionError(f"applicable to 3-graphs only, got k={f.k}")
    report = decide_partition_condition_k(f)
    witness = None
    if report.verdict:
        x_side, y_side = report.witness["parts"]
        witness = {"vstar": report.witness["vstar"], "X": x_side, "Y": y_side}
        if any(len(members) > 1 for members in f.subset_edges(2).values()):
            # The third vertices of that pair lie on one side, with
            # intersecting links; the condition constrains cross pairs only,
            # so same-side overlaps are permitted and merely reported.
            report.flags.append("same-side-links-intersect")
    return DecisionReport("cover-partition", report.verdict, witness, report.flags, report.stats)


def decide_factor_3(f: Hypergraph) -> DecisionReport:
    """Both the orderable-colouring condition and the cover-partition condition.

    When condition (i) fails, turan-zero's refutation is the report's.
    """
    first = decide_turan_zero_3(f)
    second = decide_cover_partition_3(f)
    verdict = first.verdict and second.verdict
    flags = _base_flags(f)
    if not first.verdict:
        flags.append("condition-i-failed")
    if not second.verdict:
        flags.append("condition-ii-failed")
    for sub in (first, second):
        for extra in sub.flags:
            if extra not in flags:
                flags.append(extra)
    witness = None
    if verdict:
        witness = {"ordering-coloring": first.witness, "cover-partition": second.witness}
    stats = {
        "condition_i": first.verdict,
        "condition_ii": second.verdict,
        "nodes": first.stats["nodes"] + second.stats["nodes"],
        "time_s": first.stats["time_s"] + second.stats["time_s"],
    }
    return DecisionReport("factor3", verdict, witness, flags, stats, first.refutation)


# ---------------------------------------------------------------------------
# k-partite link-disjointness
# ---------------------------------------------------------------------------


def blocked_vertices(f: Hypergraph) -> set[int]:
    """Vertices v with an edge through v and an edge avoiding v that share
    two or more vertices.

    Such edges share a pair, and v lies in some but not all edges through
    that pair; so v is read off ``subset_edges(2)``.  No such v can be the
    vstar of the link-disjointness or of the partition condition.
    """
    blocked: set[int] = set()
    for members in (f.subset_edges(2) if f.k > 2 else {}).values():
        if len(members) > 1:
            through = [set(f.edges[i]) for i in members]
            blocked |= set.union(*through) - set.intersection(*through)
    return blocked


def decide_linkdisjoint_kpartite(f: Hypergraph) -> DecisionReport:
    """Is there a vertex vstar with |e ∩ e'| <= 1 whenever vstar ∈ e, vstar ∉ e'?

    Only characterizes membership for k-partite inputs, so anything else is
    refused rather than answered.
    """
    t0 = time.perf_counter()
    partition = f.is_k_partite()
    if partition is None:
        raise PreconditionError("input is not k-partite; this criterion does not apply")
    blocked = blocked_vertices(f)
    vstar = next((v for v in range(f.n) if v not in blocked), None)
    stats = {"nodes": f.n if vstar is None else vstar + 1, "time_s": time.perf_counter() - t0}
    witness = None if vstar is None else {"vstar": vstar, "partition": partition.to_json_obj()}
    return DecisionReport("kpartite-link", witness is not None, witness, _base_flags(f), stats)


# ---------------------------------------------------------------------------
# partition condition for general k
# ---------------------------------------------------------------------------


def decide_partition_condition_k(f: Hypergraph) -> DecisionReport:
    """Is there vstar and a (k-1)-part partition of the rest with rainbow
    link(vstar) and equal index vectors on every pair of edges sharing >= 2
    vertices?

    Edges sharing >= 2 vertices form ``overlap_classes(2)``, each of which
    must have one index vector.  A vertex of :func:`blocked_vertices` is
    skipped without a search: its edge through it and its edge avoiding it
    differ in the {vstar} coordinate.  Every other vstar goes in part k-1,
    and the first assignment of the rest to parts 0..k-2 is the witness.  At
    k = 3 :func:`_two_sides` finds it in linear time, as a 2-colouring of
    the classes of :meth:`Hypergraph.same_side_classes` (the argument is in
    that method's docstring), built at the first unblocked vstar.  At k >= 4 a
    :class:`PartAssignments` search finds it, with two vertices sharing an
    edge through vstar in conflict (so link(vstar) is rainbow).  ``nodes``
    counts the choices made over the vstars searched: components coloured at
    k = 3, part choices tried at k >= 4.
    """
    if f.k < 3:
        raise PreconditionError(f"requires k >= 3, got k={f.k}")
    t0 = time.perf_counter()
    k, n, edges = f.k, f.n, f.edges
    flags = _base_flags(f)
    if k >= 4:
        # The characterization is proven for k = 3 and conjectured beyond.
        flags.append("conjectural-for-k>=4")
    blocked = blocked_vertices(f)
    nodes = 0
    for vstar in range(n):
        if vstar in blocked:
            continue
        if k == 3:
            part_of, choices = _two_sides(f, vstar)
            nodes += choices
        else:
            mates = [0] * n
            for i in f.subset_edges(1).get((vstar,), ()):
                rest = [u for u in edges[i] if u != vstar]
                bits = sum(1 << u for u in rest)
                for u in rest:
                    mates[u] |= bits ^ (1 << u)
            search = PartAssignments(f, k - 1, mates, s=2, fixed={vstar: k - 1})
            part_of = next(iter(search), None)
            nodes += search.nodes
        if part_of is not None:
            stats = {"nodes": nodes, "time_s": time.perf_counter() - t0}
            witness = {"vstar": vstar, "parts": Partition.from_assignment(part_of, k).to_json_obj()[:-1]}
            return DecisionReport("partition-k", True, witness, flags, stats)
    stats = {"nodes": nodes, "time_s": time.perf_counter() - t0}
    return DecisionReport("partition-k", False, None, flags, stats)


def _two_sides(f: Hypergraph, vstar: int) -> tuple[list[int] | None, int]:
    """The first partition-k assignment at k = 3 for an unblocked vstar, or
    None; and the number of components coloured.

    Two edges sharing a pair have equal index vectors exactly when their
    third vertices share a part, so each class of ``f.same_side_classes()``
    lies in one part (the argument is in that method's docstring).  vstar is
    unblocked, so its class is {vstar}.  An edge through vstar asks its
    other two classes to differ, so the rest is a 2-colouring of the
    classes.  Each component takes part 0 at its smallest vertex, and that
    one choice fixes the component.  So the colouring found is the
    lexicographically first, as a part-assignment search would find it.
    """
    class_of = f.same_side_classes()
    differ: dict[int, list[int]] = {}
    for i in f.subset_edges(1).get((vstar,), ()):
        a, b = (class_of[u] for u in f.edges[i] if u != vstar)
        if a == b:
            return None, 0
        differ.setdefault(a, []).append(b)
        differ.setdefault(b, []).append(a)
    side = {vstar: f.k - 1}
    components = 0
    for u in range(f.n):
        if class_of[u] in side:
            continue
        components += 1
        side[class_of[u]] = 0
        stack = [class_of[u]]
        while stack:
            cur = stack.pop()
            for nxt in differ.get(cur, ()):
                if nxt not in side:
                    side[nxt] = 1 - side[cur]
                    stack.append(nxt)
                elif side[nxt] == side[cur]:
                    return None, components
    return [side[class_of[u]] for u in range(f.n)], components


# ---------------------------------------------------------------------------
# independent witness validators (no shared search machinery)
# ---------------------------------------------------------------------------


def validate_shadow_coloring(
    f: Hypergraph, ordering: list[int] | tuple[int, ...], coloring: PairColoring
) -> bool:
    """Is ``coloring`` the consistent colouring :func:`forced_coloring` gives
    ``ordering``?  The search of :func:`decide_turan_zero_3` colours pairs on
    its own trail and never calls it."""
    if f.k != 3 or not is_vertex_list(ordering) or sorted(ordering) != list(range(f.n)):
        return False
    return isinstance(coloring, dict) and forced_coloring(f, ordering) == coloring


def validate_turan_zero_refutation(f: Hypergraph, refutation) -> bool:
    """Does ``refutation`` prove that no ordering of f is consistent?

    A ``k4-minus`` refutation names three distinct edges of f on four
    vertices, which form a K4⁻; see :func:`decide_turan_zero_3` for why that
    is a proof.  The edges are compared as plain sets, never through
    ``subset_edges``, which the search's scan reads.
    """
    if f.k != 3 or not isinstance(refutation, dict) or refutation.keys() != {"kind", "edges"}:
        return False
    named = refutation["edges"]
    if refutation["kind"] != "k4-minus" or not isinstance(named, list) or len(named) != 3:
        return False
    if not all(map(is_vertex_list, named)):
        return False
    triples = {frozenset(e) for e in named}
    own = {frozenset(e) for e in f.edges}
    return len(triples) == 3 and triples <= own and len(frozenset().union(*triples)) == 4


def coloring_from_witness(witness: dict) -> PairColoring:
    return {_pair(u, v): col for u, v, col in witness["coloring"]}


def validate_cover_witness(f, vstar, x_side, y_side) -> bool:
    """Check a (vstar, X, Y) triple against the raw cover-partition condition."""
    if f.k != 3 or type(vstar) is not int or not (is_vertex_list(x_side) and is_vertex_list(y_side)):
        return False
    xs, ys = set(x_side), set(y_side)
    if xs & ys or vstar in xs or vstar in ys:
        return False
    if xs | ys | {vstar} != set(range(f.n)):
        return False
    for e in f.edges:
        if vstar in e:
            a, b = (u for u in e if u != vstar)
            if not ((a in xs and b in ys) or (a in ys and b in xs)):
                return False
    links: list[set[tuple[int, int]]] = [set() for _ in range(f.n)]
    for a, b, c in f.edges:
        links[a].add((b, c))
        links[b].add((a, c))
        links[c].add((a, b))
    link_star = links[vstar]
    for x in xs:
        lx = links[x]
        for y in ys:
            ly = links[y]
            if lx & ly or lx & link_star or ly & link_star:
                return False
    return True


def validate_partition_witness(f, vstar, parts) -> bool:
    """Check a (vstar, X_1..X_{k-1}) witness against the raw partition condition."""
    if f.k < 3 or type(vstar) is not int or not isinstance(parts, (list, tuple)):
        return False
    if len(parts) != f.k - 1 or not all(map(is_vertex_list, parts)):
        return False
    sets = [set(p) for p in parts]
    union: set[int] = set()
    for p in sets:
        if union & p:
            return False
        union |= p
    if vstar in union or union | {vstar} != set(range(f.n)):
        return False
    for rest in f.link((vstar,)):
        if any(len(set(rest) & p) != 1 for p in sets):
            return False
    full = sets + [{vstar}]
    for i, e in enumerate(f.edges):
        for e2 in f.edges[i + 1 :]:
            if len(set(e) & set(e2)) >= 2:
                iv1 = tuple(len(set(e) & p) for p in full)
                iv2 = tuple(len(set(e2) & p) for p in full)
                if iv1 != iv2:
                    return False
    return True
