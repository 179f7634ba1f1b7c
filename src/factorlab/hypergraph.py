"""Canonical k-uniform hypergraphs over dense integer vertex ids.

A :class:`Hypergraph` is immutable after construction: edges are stored as
lexicographically sorted tuples of strictly increasing vertex ids, which is
the canonical form used for equality and serialization.  Derived data is
computed lazily and cached under a lock so instances can be shared across
threads:

* ``shadow(r)``: the r-sets lying in some edge;
* ``link(S)``: the (k-|S|)-sets completing S to an edge;
* ``subset_edges(s)``: each s-set lying in some edge, mapped to the ascending
  indices of the edges containing it, built in one pass over the edges;
* ``overlap_classes(s)``: the classes of edge indices under the transitive
  closure of "share >= s vertices", read off ``subset_edges(s)``.  Every
  criterion beyond a colouring rests on this relation;
* ``embedding_masks()``: vertex bitmasks for copy searches (which vertices
  complete a (k-1)-set to an edge, which share an edge with a vertex, which
  have at least a given degree), read off ``subset_edges``.

Vertex subsets handed to operations may be any iterable of ints; results use
sorted tuples.  Partitions are ordered lists of disjoint parts covering
``range(n)``; the index vector of a set S w.r.t. a partition is the tuple of
intersection sizes, one per part.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import IO, Iterable, NamedTuple, Sequence

# Largest vertex count the loaders accept: derived data and the deciders
# allocate O(n) per graph, so a header may not ask for more.
MAX_VERTICES = 10**6


class FormatError(ValueError):
    """Malformed hypergraph input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class DensenessParams:
    """Definitional parameters of the quantified denseness property.

    The target density and slack both live strictly inside (0, 1).
    """

    p: float
    mu: float

    def __post_init__(self):
        if not 0 < self.p < 1:
            raise ValueError(f"target density must lie in (0, 1), got {self.p}")
        if not 0 < self.mu < 1:
            raise ValueError(f"slack must lie in (0, 1), got {self.mu}")


@dataclass(frozen=True)
class Partition:
    """Ordered partition of ``range(n)`` into (possibly empty) parts."""

    parts: tuple[tuple[int, ...], ...]

    @classmethod
    def from_parts(cls, parts: Iterable[Iterable[int]], n: int) -> "Partition":
        norm = tuple(tuple(sorted(set(p))) for p in parts)
        seen: set[int] = set()
        for part in norm:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two parts")
                seen.add(v)
        if seen != set(range(n)):
            raise ValueError("parts do not cover the vertex set exactly")
        return cls(norm)

    def index_vector(self, vertices: Iterable[int]) -> tuple[int, ...]:
        vs = set(vertices)
        return tuple(len(vs.intersection(part)) for part in self.parts)

    def part_of(self, v: int) -> int:
        for i, part in enumerate(self.parts):
            if v in part:
                return i
        raise ValueError(f"vertex {v} not in partition")

    def to_json_obj(self) -> list[list[int]]:
        return [list(p) for p in self.parts]


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
        canon = []
        for e in edges:
            t = tuple(sorted(e))
            if len(t) != k:
                raise ValueError(f"edge {t} does not have {k} vertices")
            if len(set(t)) != k:
                raise ValueError(f"edge {t} has a repeated vertex")
            if t[0] < 0 or t[-1] >= n:
                raise ValueError(f"edge {t} has a vertex outside [0, {n})")
            canon.append(t)
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        self.k = k
        self.n = n
        self.edges: tuple[tuple[int, ...], ...] = tuple(canon)
        self._cache: dict = {}
        # Reentrant, so a compute function may read other cached values.
        self._lock = threading.RLock()

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
        # Double-checked so concurrent readers never observe partial values.
        cache = self._cache
        if key in cache:
            return cache[key]
        with self._lock:
            if key not in cache:
                cache[key] = compute()
            return cache[key]

    @property
    def edge_set(self) -> frozenset[frozenset[int]]:
        return self._cached("edge_set", lambda: frozenset(map(frozenset, self.edges)))

    # -- shadows, links, degrees -------------------------------------------

    def shadow(self, r: int) -> frozenset[tuple[int, ...]]:
        """All r-subsets of the vertex set contained in at least one edge."""
        if not 1 <= r < self.k:
            raise ValueError(f"shadow order r must satisfy 1 <= r < k, got {r}")

        def compute():
            out: set[tuple[int, ...]] = set()
            for e in self.edges:
                out.update(combinations(e, r))
            return frozenset(out)

        return self._cached(("shadow", r), compute)

    def link(self, vertices: Iterable[int]) -> frozenset[tuple[int, ...]]:
        """Neighbourhood of a set S: the (k-|S|)-sets completing S to an edge."""
        s = tuple(sorted(set(vertices)))
        if len(s) >= self.k:
            raise ValueError(f"link requires |S| < k, got |S|={len(s)}")

        def compute():
            ss = set(s)
            out = []
            for e in self.edges:
                if ss.issubset(e):
                    out.append(tuple(v for v in e if v not in ss))
            return frozenset(out)

        return self._cached(("link", s), compute)

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

    def embedding_masks(self) -> EmbeddingMasks:
        """Completion, neighbour and degree masks, read off ``subset_edges``."""

        def compute():
            bits = [sum(1 << v for v in e) for e in self.edges]
            completion = {}
            for sub, members in self.subset_edges(self.k - 1).items():
                key = sum(1 << v for v in sub)
                mask = 0
                for i in members:
                    mask |= bits[i]
                completion[key] = mask ^ key
            neighbours = [0] * self.n
            degrees = [0] * self.n
            for (w,), members in self.subset_edges(1).items():
                mask = 0
                for i in members:
                    mask |= bits[i]
                neighbours[w] = mask ^ (1 << w)
                degrees[w] = len(members)
            at_least = [0] * (max(degrees, default=0) + 1)
            for w, d in enumerate(degrees):
                at_least[d] |= 1 << w
            for d in range(len(at_least) - 2, -1, -1):
                at_least[d] |= at_least[d + 1]
            return EmbeddingMasks(completion, tuple(neighbours), tuple(degrees), tuple(at_least))

        return self._cached("embedding_masks", compute)

    # -- structure ----------------------------------------------------------

    def is_k_partite(self) -> Partition | None:
        """A k-part partition with every edge rainbow, or None.

        Equivalent to properly k-colouring the pair shadow (for k = 2, the
        edges themselves); empty parts are allowed so subgraphs of k-partite
        graphs validate.
        """
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges if self.k == 2 else self.shadow(2):
            adj[u].add(v)
            adj[v].add(u)
        color = [-1] * self.n

        def assign(v: int) -> bool:
            if v == self.n:
                return True
            taken = {color[u] for u in adj[v] if color[u] >= 0}
            for c in range(self.k):
                if c not in taken:
                    color[v] = c
                    if assign(v + 1):
                        return True
            color[v] = -1
            return False

        if not assign(0):
            return None
        parts = [tuple(v for v in range(self.n) if color[v] == c) for c in range(self.k)]
        return Partition(tuple(parts))

    def induced(self, vertices: Iterable[int]) -> tuple["Hypergraph", dict[int, int]]:
        """Induced subgraph on the given vertices, relabelled to 0..m-1."""
        keep = sorted(set(vertices))
        if keep and (keep[0] < 0 or keep[-1] >= self.n):
            raise ValueError("induced vertex outside [0, n)")
        remap = {v: i for i, v in enumerate(keep)}
        ks = set(keep)
        edges = [tuple(remap[v] for v in e) for e in self.edges if ks.issuperset(e)]
        return Hypergraph(self.k, len(keep), edges), remap

    def relabel(self, perm: Sequence[int]) -> "Hypergraph":
        """Apply a vertex permutation (``perm[old] = new``)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        return Hypergraph(self.k, self.n, [tuple(perm[v] for v in e) for e in self.edges])

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{self.k} {self.n} {len(self.edges)}"]
        lines.extend(" ".join(map(str, e)) for e in self.edges)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {"k": self.k, "n": self.n, "edges": [list(e) for e in self.edges]}


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
    if n > MAX_VERTICES:
        raise FormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}", head_no)
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
    for key in ("k", "n"):
        if type(obj[key]) is not int:
            raise FormatError(f'"{key}" must be an integer, got {json.dumps(obj[key])}')
    if obj["n"] > MAX_VERTICES:
        raise FormatError(f"vertex count {obj['n']} exceeds the limit of {MAX_VERTICES}")
    if not isinstance(obj["edges"], list):
        raise FormatError('"edges" must be a list of edges')
    for e in obj["edges"]:
        if not isinstance(e, list):
            raise FormatError(f"an edge must be a list of vertex ids, got {json.dumps(e)}")
        for v in e:
            if type(v) is not int:
                raise FormatError(f"vertex ids must be integers, got {json.dumps(v)}")
    try:
        return Hypergraph(obj["k"], obj["n"], obj["edges"])
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

