"""Canonical k-uniform hypergraphs over dense integer vertex ids.

A :class:`Hypergraph` is immutable after construction: edges are stored as
lexicographically sorted tuples of strictly increasing vertex ids, which is
the canonical form used for equality and serialization.  A list of more
than 8 edges handed over in that form (k-tuples, each strictly ascending
inside ``[0, n)``, as the loaders, the seeded builders and ``induced`` give
them) is kept without sorting or re-checking each edge: a C-level pass over
each pair of neighbouring columns tells it apart.  Any other input, and any
shorter list, where the loop costs no more than those passes, is
canonicalised edge by edge.  Either way the edge list is then sorted and
checked for duplicates, so every input gives the same edges and errors.
Derived data is computed lazily and cached.  Instances can be shared across
threads without a lock: a value is stored whole, after it is computed, so a
reader sees it complete or not at all, and a race at worst computes an equal
value twice:

* ``subset_edges(s)``: each s-set lying in some edge, mapped to the ascending
  indices of the edges containing it, built in one pass over the edges.  It is
  the one incidence index, and its keys are the s-shadow, the s-sets lying in
  some edge;
* ``overlap_classes(s)``: the classes of edge indices under the transitive
  closure of "share >= s vertices", read off ``subset_edges(s)``.  Every
  criterion beyond a colouring rests on this relation;
* ``same_side_classes()``: per vertex, the smallest vertex of its class in
  the union-find joining x and y whenever T+x and T+y are edges, read off
  ``subset_edges(k-1)``; partition-k at k = 3 and the bipartition counts
  read it;
* ``components()``: the vertex sets of the connected components, from one
  union-find pass over the edges; the part-assignment search jumps by them;
* ``embedding_masks()``: vertex bitmasks for copy searches (which vertices
  complete a (k-1)-set to an edge, which share an edge with a vertex, which
  have at least a given degree), built in one pass over the edges' bitmasks.

``link(S)``, the (k-|S|)-sets completing S to an edge, is a plain scan and is
not cached, since each set S asked about would add an entry.

:class:`PartAssignments`, the one search placing vertices in parts, serves the
partition condition, the shadow-disjoint bipartitions and ``is_k_partite``;
it checks each overlap class against one leading edge, so it keeps no undo
trail, and until its first answer it backjumps within components.

Vertex subsets handed to operations may be any iterable of ints; results use
sorted tuples.  A :class:`Partition` (ordered disjoint parts covering
``range(n)``) is read off a part assignment by ``from_assignment`` alone; the
index vector of a set S w.r.t. it is the tuple of intersection sizes, one per part.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress
from math import comb
from operator import eq, lt
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

# Largest vertex count, and uniformity, the loaders accept: derived data and
# the deciders allocate O(n) and O(k) per graph, so a header may not ask for
# more.
MAX_VERTICES = 10**6

# Most copies a copy search lists (one per Aut(F) class) or labelled
# embeddings it counts per root before its answer is truncated or
# inconclusive.  It lives here, in the module every command loads, so the
# command line's ``--cap`` default reads it without loading the searches.
DEFAULT_CAP = 10**6


class FormatError(ValueError):
    """Malformed hypergraph input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Partition:
    """Ordered partition of ``range(n)`` into (possibly empty) ascending parts."""

    parts: tuple[tuple[int, ...], ...]

    @classmethod
    def from_assignment(cls, part_of: Sequence[int], count: int) -> "Partition":
        """Parts ``0..count-1`` of ``part_of`` (vertex -> part), the one reader of an assignment."""
        return cls(tuple([tuple([v for v, p in enumerate(part_of) if p == c]) for c in range(count)]))

    @cached_property
    def _parts_of(self) -> dict[int, list[int]]:
        """Vertex -> the indices of the parts holding it, built once."""
        parts_of: dict[int, list[int]] = {}
        for p, part in enumerate(self.parts):
            for v in set(part):
                parts_of.setdefault(v, []).append(p)
        return parts_of

    def index_vector(self, vertices: Iterable[int]) -> tuple[int, ...]:
        """|vertices ∩ P| for each part P, at the cost of the vertices, not
        of the parts."""
        vec = [0] * len(self.parts)
        parts_of = self._parts_of
        for v in set(vertices):
            for p in parts_of.get(v, ()):
                vec[p] += 1
        return tuple(vec)

    def to_json_obj(self) -> list[list[int]]:
        return [list(p) for p in self.parts]


def is_vertex_list(ids) -> bool:
    """Is ``ids`` a list or tuple of plain ints (no JSON floats or booleans)?"""
    return isinstance(ids, (list, tuple)) and all(type(v) is int for v in ids)


class UnionFind:
    """Disjoint sets over ``0..size-1``; each root is its set's smallest member."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


class EmbeddingMasks(NamedTuple):
    """Bitmask view of a hypergraph for copy searches (bit w is vertex w)."""

    completion: dict[int, int]  # mask of a (k-1)-set -> vertices completing it to an edge
    neighbours: tuple[int, ...]  # vertex -> vertices sharing an edge with it
    degrees: tuple[int, ...]  # vertex -> number of edges containing it
    at_least: tuple[int, ...]  # d -> vertices of degree >= d, for d up to the largest degree


class Hypergraph:
    """Immutable k-uniform hypergraph on vertices ``0..n-1``."""

    def __init__(self, k: int, n: int, edges: Iterable[Iterable[int]]):
        if k < 2:
            raise ValueError(f"uniformity k must be >= 2, got {k}")
        if n < 0:
            raise ValueError(f"vertex count must be >= 0, got {n}")
        canon = list(edges)
        kept = False
        # Canonical edges (strictly ascending k-tuples inside [0, n)) are kept
        # as they are, checked by columns: one C-level pass per column pair.
        # On 8 edges or fewer the per-edge loop below costs no more.
        if len(canon) > 8 and {*map(type, canon)} == {tuple} and {*map(len, canon)} == {k}:
            columns = zip(*canon)
            first = low = next(columns)
            try:
                for high in columns:
                    if not all(map(lt, low, high)):
                        break
                    low = high
                else:
                    kept = min(first) >= 0 and max(low) < n
            except TypeError:  # vertices that do not compare: the loop below raises as it always has
                pass
        if not kept:
            given, canon = canon, []
            for e in given:
                t = tuple(sorted(e))
                if len(t) != k:
                    raise ValueError(f"edge {t} does not have {k} vertices")
                if len(set(t)) != k:
                    raise ValueError(f"edge {t} has a repeated vertex")
                if t[0] < 0 or t[-1] >= n:
                    raise ValueError(f"edge {t} has a vertex outside [0, {n})")
                canon.append(t)
        canon.sort()
        dup = next(compress(canon, map(eq, canon, canon[1:])), None)
        if dup is not None:
            raise ValueError(f"duplicate edge {dup}")
        self.k = k
        self.n = n
        self.edges: tuple[tuple[int, ...], ...] = tuple(canon)
        self._cache: dict = {}

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.k == other.k
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.k, self.n, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(k={self.k}, n={self.n}, m={len(self.edges)})"

    def _cached(self, key, compute):
        cache = self._cache
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    @property
    def edge_set(self) -> frozenset[frozenset[int]]:
        return self._cached("edge_set", lambda: frozenset(map(frozenset, self.edges)))

    # -- links, degrees ----------------------------------------------------

    def link(self, vertices: Iterable[int]) -> frozenset[tuple[int, ...]]:
        """Neighbourhood of a set S: the (k-|S|)-sets completing S to an edge."""
        s = set(vertices)
        if len(s) >= self.k:
            raise ValueError(f"link requires |S| < k, got |S|={len(s)}")
        return frozenset([tuple([v for v in e if v not in s]) for e in self.edges if s.issubset(e)])

    def min_s_degree(self, s: int) -> int:
        """Smallest number of edges containing an s-set of ``range(n)``."""
        buckets = self.subset_edges(s)
        if len(buckets) < comb(self.n, s):
            return 0  # some s-set lies in no edge
        return min(map(len, buckets.values()), default=0)

    # -- overlaps -------------------------------------------------------------

    def subset_edges(self, s: int) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Each s-set lying in some edge -> ascending indices of the edges containing it."""
        if not 1 <= s < self.k:
            raise ValueError(f"subset order s must satisfy 1 <= s < k, got {s}")

        def compute():
            buckets: dict[tuple[int, ...], list[int]] = {}
            for i, e in enumerate(self.edges):
                for sub in combinations(e, s):
                    buckets.setdefault(sub, []).append(i)
            return {sub: tuple(members) for sub, members in buckets.items()}

        return self._cached(("subset_edges", s), compute)

    def overlap_classes(self, s: int) -> tuple[tuple[int, ...], ...]:
        """Classes of edge indices under the transitive closure of "share >= s
        vertices": each ascending, ordered by smallest member, singletons kept."""
        def compute():
            buckets = self.subset_edges(s)
            uf = UnionFind(len(self.edges))
            for members in buckets.values():
                for i in members[1:]:
                    uf.union(members[0], i)
            classes: dict[int, list[int]] = {}
            for i in range(len(self.edges)):
                classes.setdefault(uf.find(i), []).append(i)
            return tuple(map(tuple, classes.values()))

        return self._cached(("overlap_classes", s), compute)

    def same_side_classes(self) -> tuple[int, ...]:
        """Per vertex, the smallest vertex of its class in the union-find
        joining x and y whenever T+x and T+y are edges (T a (k-1)-set).

        The argument its readers rest on: T+x and T+y agree on T, so w.r.t.
        any partition their index vectors are equal exactly when x and y lie
        in one part.  So a partition gives each class of
        ``overlap_classes(k-1)`` one index vector exactly when each
        same-side class lies within one part.
        """
        def compute():
            uf = UnionFind(self.n)
            for sub, members in self.subset_edges(self.k - 1).items():
                if len(members) > 1:
                    # each edge of the bucket is sub plus the vertex its sum exceeds sub's by
                    rest = sum(sub)
                    first = sum(self.edges[members[0]]) - rest
                    for i in members[1:]:
                        uf.union(first, sum(self.edges[i]) - rest)
            return tuple(map(uf.find, range(self.n)))

        return self._cached("same_side_classes", compute)

    def embedding_masks(self) -> EmbeddingMasks:
        """Completion masks, neighbour masks and degrees, built in one pass
        over the edges' bitmasks."""

        def compute():
            completion: dict[int, int] = {}
            neighbours = [0] * self.n
            degrees = [0] * self.n
            for e in self.edges:
                bits = 0
                for v in e:
                    bits |= 1 << v
                for v in e:
                    key = bits ^ 1 << v
                    completion[key] = completion.get(key, 0) | 1 << v
                    neighbours[v] |= key
                    degrees[v] += 1
            at_least = [0] * (max(degrees, default=0) + 1)
            for w, d in enumerate(degrees):
                at_least[d] |= 1 << w
            for d in range(len(at_least) - 2, -1, -1):
                at_least[d] |= at_least[d + 1]
            return EmbeddingMasks(completion, tuple(neighbours), tuple(degrees), tuple(at_least))

        return self._cached("embedding_masks", compute)

    # -- structure ----------------------------------------------------------

    def components(self) -> tuple[tuple[int, ...], ...]:
        """The vertex sets of the connected components, each ascending and
        ordered by smallest vertex; an isolated vertex is its own."""

        def compute():
            uf = UnionFind(self.n)
            for e in self.edges:
                for v in e[1:]:
                    uf.union(e[0], v)
            comps: dict[int, list[int]] = {}
            for v in range(self.n):
                comps.setdefault(uf.find(v), []).append(v)
            return tuple(map(tuple, comps.values()))

        return self._cached("components", compute)

    def is_k_partite(self) -> Partition | None:
        """A k-part partition with every edge rainbow, or None.

        The first answer of :class:`PartAssignments` with k parts, where each
        vertex must take another part than every vertex sharing an edge with
        it; empty parts are allowed so subgraphs of k-partite graphs validate,
        and an isolated vertex takes part 0.  A component that cannot be
        coloured ends the search without retrying the others.
        """
        first = next(iter(PartAssignments(self, self.k, self.embedding_masks().neighbours)), None)
        return None if first is None else Partition.from_assignment(first, self.k)

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Induced subgraph on the given vertices, relabelled to 0..m-1."""
        keep = sorted(set(vertices))
        if keep and (keep[0] < 0 or keep[-1] >= self.n):
            raise ValueError("induced vertex outside [0, n)")
        remap = {v: i for i, v in enumerate(keep)}
        ks = set(keep)
        edges = [tuple(remap[v] for v in e) for e in self.edges if ks.issuperset(e)]
        return Hypergraph(self.k, len(keep), edges), remap

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.k} {self.n} {len(self.edges)}"]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"k": self.k, "n": self.n, "edges": [list(e) for e in self.edges]}


class PartAssignments:
    """Assignments of the vertices of ``f`` to parts, by backtracking.

    Vertices in ``fixed`` keep the parts it gives; the free ones are placed in
    ascending order, each trying parts ``0..parts-1`` in ascending order.  A
    part is refused to v when it holds a vertex set in ``conflicts[v]`` (the
    bitmask of the vertices that must take another part than v), or when,
    with ``s`` given, an edge of an ``overlap_classes(s)`` class of two or
    more edges has its last free vertex at v and another index vector than
    its class's leading edge, the one whose last free vertex comes first
    (ties to the lower edge index).  An edge's sorted parts give its index
    vector and are compared in its place; the leading edge stores its own
    whenever its last free vertex is placed, so backtracking undoes nothing
    but parts.  Both checks read only placed vertices, so every valid
    assignment is yielded, in lexicographic order, and nothing else.  Each
    is ``part_of`` (vertex -> part), one list reused throughout, which
    :meth:`Partition.from_assignment` reads into parts; ``nodes`` counts the
    part choices tried.  Every class edge needs a free vertex (``__init__``
    refuses one without with a ``ValueError``), and ``conflicts`` may only
    join vertices sharing an edge, so no check crosses components of ``f``: a
    vertex left without a part failed on the placed vertices of its own
    component (fixed ones never move).  Until the first answer the search
    jumps back to the previous free vertex of that component, withdrawing
    those between, or stops; from then on it steps back one vertex, so no
    later answer is skipped.
    """

    def __init__(self, f: Hypergraph, parts: int, conflicts: Sequence[int],
                 s: int | None = None, fixed: dict[int, int] | None = None):
        self.f, self.parts, self.conflicts, self.s = f, parts, conflicts, s
        self.fixed = fixed or {}
        self.nodes = 0
        if s is not None and self.fixed:
            stuck = next((f.edges[ei] for cls in f.overlap_classes(s) if len(cls) > 1 for ei in cls
                          if self.fixed.keys() >= set(f.edges[ei])), None)
            if stuck is not None:
                raise ValueError(f"overlap-class edge {stuck} has no free vertex")

    def __iter__(self) -> Iterator[list[int]]:
        f, parts, conflicts, fixed = self.f, self.parts, self.conflicts, self.fixed
        part_of = [-1] * f.n
        for v, p in fixed.items():
            part_of[v] = p
        free = [v for v in range(f.n) if part_of[v] < 0]
        classes = [] if self.s is None else [m for m in f.overlap_classes(self.s) if len(m) > 1]
        # closing[v]: (edge, class id, leads) for each class edge whose last
        # free vertex is v, a class's leading edge first
        closing: list[list[tuple[tuple[int, ...], int, bool]]] = [[] for _ in range(f.n)]
        for ci, cls in enumerate(classes):
            last = sorted((next(u for u in reversed(f.edges[ei]) if part_of[u] < 0), ei) for ei in cls)
            for u, ei in last:
                closing[u].append((f.edges[ei], ci, (u, ei) == last[0]))
        members = [0] * parts  # bitmask of the free vertices placed in each part
        vector: list[list[int]] = [[] for _ in classes]  # sorted parts of each leading edge
        nodes = self.nodes
        back, answered = None, False
        depth = 0
        while depth >= 0:
            if depth == len(free):
                self.nodes = nodes
                yield part_of
                answered = True
                depth -= 1
                continue
            v = free[depth]
            p = part_of[v]
            if p >= 0:  # back from a deeper level: withdraw v before its next part
                members[p] ^= 1 << v
            for p in range(p + 1, parts):
                nodes += 1
                if members[p] & conflicts[v]:
                    continue
                part_of[v] = p
                for e, ci, leads in closing[v]:
                    vec = sorted([part_of[u] for u in e])
                    if leads:
                        vector[ci] = vec
                    elif vector[ci] != vec:
                        break
                else:
                    members[p] |= 1 << v
                    depth += 1
                    break
            else:
                part_of[v] = -1
                if answered:  # from the first answer on, step back one
                    depth -= 1
                    continue
                if back is None:  # depth -> depth of the previous free vertex of its component
                    back, at = [-1] * len(free), {u: d for d, u in enumerate(free)}
                    for comp in f.components():
                        ds = [at[u] for u in comp if u in at]
                        for a, b in zip(ds, ds[1:]):
                            back[b] = a
                target = back[depth]
                while depth > target + 1:  # withdraw other components' vertices
                    depth -= 1
                    u = free[depth]
                    members[part_of[u]] ^= 1 << u
                    part_of[u] = -1
                depth = target
        self.nodes = nodes


def _parse_int(token: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FormatError(f"non-integer token {token!r}", line) from None


def _parse_text(text: str) -> Hypergraph:
    data_lines: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        data_lines.append((lineno, stripped))
    if not data_lines:
        raise FormatError("empty input, expected a 'k n m' header")
    head_no, head = data_lines[0]
    tokens = head.split()
    if len(tokens) != 3:
        raise FormatError(f"header must be 'k n m', got {head!r}", head_no)
    k, n, m = (_parse_int(t, head_no) for t in tokens)
    if k < 2:
        raise FormatError(f"uniformity k must be >= 2, got {k}", head_no)
    if n < 0 or m < 0:
        raise FormatError("n and m must be non-negative", head_no)
    for what, value in (("vertex count", n), ("uniformity", k)):
        if value > MAX_VERTICES:
            raise FormatError(f"{what} {value} exceeds the limit of {MAX_VERTICES}", head_no)
    body = data_lines[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    seen: set[tuple[int, ...]] = set()
    for lineno, line in body:
        toks = line.split()
        if len(toks) != k:
            raise FormatError(f"edge has {len(toks)} vertices, expected {k}", lineno)
        edge = tuple(_parse_int(t, lineno) for t in toks)
        for v in edge:
            if v < 0 or v >= n:
                raise FormatError(f"vertex {v} out of range [0, {n})", lineno)
        for a, b in zip(edge, edge[1:]):
            if a == b:
                raise FormatError(f"repeated vertex {a} in edge", lineno)
            if a > b:
                raise FormatError("edge vertices must be strictly increasing", lineno)
        if edge in seen:
            raise FormatError(f"duplicate edge {' '.join(toks)}", lineno)
        seen.add(edge)
        edges.append(edge)
    return Hypergraph(k, n, edges)


def _parse_json(text: str) -> Hypergraph:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, over-long ints, deep nesting
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or not {"k", "n", "edges"}.issubset(obj):
        raise FormatError('JSON hypergraph must have keys "k", "n", "edges"')
    # JSON numbers may be floats and true/false are not counts: only plain ints pass.
    for key, what in (("k", "uniformity"), ("n", "vertex count")):
        if type(obj[key]) is not int:
            raise FormatError(f'"{key}" must be an integer, got {json.dumps(obj[key])}')
        if obj[key] > MAX_VERTICES:
            raise FormatError(f"{what} {obj[key]} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(obj["edges"], list):
        raise FormatError('"edges" must be a list of edges')
    for e in obj["edges"]:
        if not isinstance(e, list):
            raise FormatError(f"an edge must be a list of vertex ids, got {json.dumps(e)}")
        for v in e:
            if type(v) is not int:
                raise FormatError(f"vertex ids must be integers, got {json.dumps(v)}")
    try:
        return Hypergraph(obj["k"], obj["n"], map(tuple, obj["edges"]))  # tuples, so canonical edges are kept
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def load_hypergraph(source: str | bytes | IO) -> Hypergraph:
    """Parse a hypergraph from text, bytes, or a readable stream.

    Accepts the line format (``k n m`` header then one sorted edge per line,
    ``#`` comments allowed) or its JSON mirror ``{"k":…, "n":…, "edges":…}``.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from None
    stripped = source.lstrip()
    if stripped.startswith("{"):
        return _parse_json(source)
    return _parse_text(source)

