"""Randomized hypergraph constructions with seeded, portable determinism.

Both colouring-based builders follow the same recipe: colour a complete base
graph (pairs, or s-sets) uniformly at random, then keep exactly the k-sets
whose base clique is monochromatic in the one colour matched to the k-set's
index vector.  The colour/index correspondence makes two structural
guarantees hold deterministically, not just with high probability, and both
are re-checked after every build, at every n:

* partite variant: the special vertex's link crosses the parts, and any two
  edges sharing >= 2 vertices have equal index vectors;
* bipartition variant: the bipartition is s-shadow disjoint.

All randomness comes from numpy's PCG64 stream seeded with the given 64-bit
seed; colours are drawn by index in lexicographic base-edge order, so equal
parameters yield bit-identical hypergraphs on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, ceil

import numpy as np

from .hypergraph import Hypergraph, Partition


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    k: int
    seed: int
    s: int | None = None
    part_sizes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class PartiteConstruction:
    hypergraph: Hypergraph
    z: int
    partition: Partition
    palette_size: int
    base_colors: dict  # pair of the complete base graph -> colour index


@dataclass(frozen=True)
class BipartiteConstruction:
    hypergraph: Hypergraph
    partition: Partition  # two parts (X, Y)
    palette_size: int
    base_colors: dict  # s-set of the complete base s-graph -> colour index


def crossing_index_vectors(k: int) -> list[tuple[int, ...]]:
    """Non-negative k-vectors with coordinate sum k and last digit 0, in
    lexicographic order.  There are C(2k-2, k) of them."""
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...], left: int) -> None:
        if len(prefix) == k - 1:
            if left == 0:
                out.append(prefix + (0,))
            return
        for c in range(left + 1):
            extend(prefix + (c,), left - c)

    extend((), k)
    return out


def default_partite_sizes(n: int, k: int) -> tuple[int, ...]:
    """(n_1, ..., n_{k-1}, 1) as equal as possible with every n_i >= ceil(n/k)."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    base, extra = divmod(n - 1, k - 1)
    sizes = tuple(base + (1 if i < extra else 0) for i in range(k - 1))
    floor_req = ceil(n / k)
    if min(sizes) < floor_req:
        raise ValueError(
            f"default part sizes {sizes} cannot all reach the required minimum {floor_req}"
        )
    return sizes + (1,)


def _blocks(sizes: tuple[int, ...]) -> list[tuple[int, ...]]:
    parts, start = [], 0
    for size in sizes:
        parts.append(tuple(range(start, start + size)))
        start += size
    return parts


def construct_partite_coloring(params: ConstructionParams) -> PartiteConstruction:
    """Keep the k-sets whose pair clique is monochromatic in the colour
    matched to their index vector w.r.t. (V_1, ..., V_{k-1}, {z}).

    The palette has C(2k-2, k) + 1 colours: one per crossing index vector
    (last digit 0) plus one for the all-ones vector, the only admissible
    vector through the special vertex z (placed last).
    """
    n, k = params.n, params.k
    if k < 3:
        raise ValueError(f"requires k >= 3, got k={k}")
    sizes = params.part_sizes or default_partite_sizes(n, k)
    if len(sizes) != k or sizes[-1] != 1:
        raise ValueError(f"part sizes must be (n_1..n_{k-1}, 1), got {sizes}")
    if sum(sizes) != n or min(sizes) < 1:
        raise ValueError(f"part sizes {sizes} do not form a partition of {n} vertices")
    parts = _blocks(sizes)
    partition = Partition(tuple(parts))
    z = n - 1

    vectors = crossing_index_vectors(k)
    color_of_vector = {(1,) * k: 0}
    for j, vec in enumerate(vectors, start=1):
        color_of_vector[vec] = j
    palette = len(vectors) + 1  # == comb(2k-2, k) + 1

    rng = np.random.default_rng(params.seed)
    pair_color = rng.integers(0, palette, size=comb(n, 2))
    pair_index = {p: i for i, p in enumerate(combinations(range(n), 2))}

    edges = []
    for e in combinations(range(n), k):
        j = color_of_vector.get(partition.index_vector(e))
        if j is None:
            continue
        if all(pair_color[pair_index[p]] == j for p in combinations(e, 2)):
            edges.append(e)
    h = Hypergraph(k, n, edges)
    if not partite_structure_ok(h, z, partition):
        raise RuntimeError("structural guarantee violated by construction output")
    colors = {p: int(pair_color[i]) for p, i in pair_index.items()}
    return PartiteConstruction(h, z, partition, palette, colors)


def partite_structure_ok(h: Hypergraph, z: int, partition: Partition) -> bool:
    """Exhaustive check: link(z) crosses the parts, and edges sharing >= 2
    vertices have equal index vectors."""
    head = partition.parts[:-1]
    for e in h.edges:
        if z in e:
            rest = set(e) - {z}
            if any(len(rest & set(p)) != 1 for p in head):
                return False
    return _constant_on_overlaps(h, 2, [partition.index_vector(e) for e in h.edges])


def construct_shadow_disjoint(params: ConstructionParams) -> BipartiteConstruction:
    """Colour all s-sets with k+1 colours and keep the k-sets whose s-sets are
    monochromatic in colour |e ∩ X|, for a bipartition (X, Y) with both sides
    of size >= n/3."""
    n, k, s = params.n, params.k, params.s
    if s is None or not 2 <= s <= k - 1:
        raise ValueError(f"requires 2 <= s <= k-1, got s={s}")
    if params.part_sizes is not None:
        if len(params.part_sizes) != 2 or sum(params.part_sizes) != n:
            raise ValueError(f"bipartition sizes must be (n_1, n_2) summing to {n}")
        n1, n2 = params.part_sizes
    else:
        n1 = n // 2
        n2 = n - n1
    if 3 * n1 < n or 3 * n2 < n:
        raise ValueError(f"both sides must have at least n/3 vertices, got ({n1}, {n2})")
    x_side = tuple(range(n1))
    y_side = tuple(range(n1, n))
    partition = Partition((x_side, y_side))

    palette = k + 1
    rng = np.random.default_rng(params.seed)
    base_color = rng.integers(0, palette, size=comb(n, s))
    base_index = {b: i for i, b in enumerate(combinations(range(n), s))}

    edges = []
    for e in combinations(range(n), k):
        j = sum(1 for v in e if v < n1)
        if all(base_color[base_index[b]] == j for b in combinations(e, s)):
            edges.append(e)
    h = Hypergraph(k, n, edges)
    if not shadow_disjoint_ok(h, x_side, s):
        raise RuntimeError("s-shadow disjointness violated by construction output")
    colors = {b: int(base_color[i]) for b, i in base_index.items()}
    return BipartiteConstruction(h, partition, palette, colors)


def shadow_disjoint_ok(h: Hypergraph, a_side, s: int) -> bool:
    """Exhaustive check: edges with different |e ∩ A| share fewer than s vertices."""
    a = set(a_side)
    return _constant_on_overlaps(h, s, [len(a.intersection(e)) for e in h.edges])


def _constant_on_overlaps(h: Hypergraph, s: int, labels: list) -> bool:
    """Edges sharing >= s vertices carry equal labels, i.e. every overlap
    class of ``h`` is labelled by one value."""
    return all(len({labels[i] for i in members}) == 1 for members in h.overlap_classes(s))


def random_uniform_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Each k-set is an edge independently with probability p (binomial model)."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = np.random.default_rng(seed)
    draws = rng.random(comb(n, k))
    edges = [e for e, u in zip(combinations(range(n), k), draws) if u < p]
    return Hypergraph(k, n, edges)
