"""Randomized hypergraph constructions with seeded, portable determinism.

Both colouring builders follow one recipe: colour every s-set of ``range(n)``
(pairs for the partite variant) uniformly from a palette, then keep each
k-set whose s-sets all carry the colour its label picks: the colour keyed by
its sorted part tuple (its index vector) in the partite variant, |e ∩ X| in
the bipartition variant.  The colour/label correspondence makes two
structural guarantees hold deterministically, not just with high
probability, and both are re-checked after every build, at every n:

* partite variant: the special vertex's link crosses the parts, and any two
  edges sharing >= 2 vertices have equal index vectors;
* bipartition variant: the bipartition is s-shadow disjoint.

The recipe never scans all k-sets.  It lists the k-sets whose s-sets all
carry one colour j, growing cliques in increasing vertex order, where the
candidates for the next vertex are one int, the AND of the colour-j masks of
the clique's (s-1)-subsets; so the work follows the monochromatic partial
cliques, not the C(n, k) k-sets.

Every seeded build, the binomial model's too, draws one number per r-set
(colour per s-set, coin flip per k-set) in lexicographic order from numpy's
PCG64 stream seeded with the given 64-bit seed, so equal parameters yield
bit-identical hypergraphs on every platform.  A build that would draw more
than ``MAX_DRAWS`` numbers is refused with ``ValueError`` before anything is
drawn.  numpy is imported at the draw, because it is most of the package's
import time and no other CLI command needs it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, combinations, combinations_with_replacement
from typing import Callable, Iterator

from .hypergraph import Hypergraph, Partition

# Most random draws one seeded build may make: C(n, s) colours (C(n, k)
# coin flips for the binomial model), and at most this many colours in a
# palette.  Checked before anything is drawn or listed.  At the limit a
# colouring keeps up to a few hundred thousand edges: lemma51 at n = 447
# and obs62 (k = 3, s = 2) at n = 447 are the largest builds allowed.
MAX_DRAWS = 10**5


@dataclass(frozen=True)
class ConstructionParams:
    n: int
    k: int
    seed: int
    s: int | None = None
    part_sizes: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Construction:
    """A colouring build.  The partite variant has its special vertex ``z``
    and parts (V_1, ..., V_{k-1}, {z}); the bipartition variant has
    ``z = None`` and two parts (X, Y)."""

    hypergraph: Hypergraph
    z: int | None
    partition: Partition
    palette_size: int
    base_colors: dict  # s-set of the complete base s-graph (pairs for lemma51) -> colour index


def default_partite_sizes(n: int, k: int) -> tuple[int, ...]:
    """(n_1, ..., n_{k-1}, 1) as equal as possible with every n_i >= ceil(n/k)."""
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    base, extra = divmod(n - 1, k - 1)
    sizes = tuple(base + (1 if i < extra else 0) for i in range(k - 1))
    floor_req = -(-n // k)
    if min(sizes) < floor_req:
        raise ValueError(
            f"default part sizes {sizes} cannot all reach the required minimum {floor_req}"
        )
    return sizes + (1,)


def _bounded_comb(n: int, r: int, what: str) -> int:
    """C(n, r), refused with ValueError once it passes ``MAX_DRAWS``.

    Counts up one factor at a time, so a huge n and r never build a huge
    integer before the refusal.
    """
    if n < 0 or r < 0:
        raise ValueError(f"{what}: need n >= 0 and r >= 0, got n={n}, r={r}")
    count = 1 if r <= n else 0
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count > MAX_DRAWS:
            raise ValueError(f"{what}: C({n}, {r}) exceeds the limit of {MAX_DRAWS}")
    return count


def _seeded_draw(n: int, r: int, seed: int, what: str, draw: Callable) -> list:
    """``draw(rng, count)`` as a list, one value per r-set of ``range(n)`` in
    lexicographic order, ``rng`` being PCG64 seeded with ``seed``; refused,
    naming ``what``, before numpy is imported once C(n, r) passes MAX_DRAWS."""
    count = _bounded_comb(n, r, what)
    import numpy as np

    return draw(np.random.default_rng(seed), count).tolist()


def _monochromatic_cliques(n: int, k: int, s: int, colours: list[int]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(e, j) for each k-set e of ``range(n)`` whose s-subsets all have colour j.

    ``colours`` holds the colour of every s-set in lexicographic order.  The
    mask of an (s-1)-set T and colour j holds each v > max(T) with colour
    j on T ∪ {v}.  A clique grows in increasing vertex order, and its next
    vertex comes from one int: the AND of the masks of all its (s-1)-subsets,
    scanned low bit first.
    """
    masks: dict[tuple[tuple[int, ...], int], int] = {}
    for b, j in zip(combinations(range(n), s), colours):
        key = (b[:-1], j)
        masks[key] = masks.get(key, 0) | 1 << b[-1]

    def extend(clique: tuple[int, ...], cand: int, j: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # cand: the vertices above clique[-1] that extend it in colour j
        need = k - len(clique) - 1  # vertices still missing after the next
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            e = clique + (v,)
            if not need:
                yield e, j
                continue
            nxt = cand
            for t in combinations(clique, s - 2):
                nxt &= masks.get((t + (v,), j), 0)
            if nxt.bit_count() >= need:
                yield from extend(e, nxt, j)

    for (t, j), cand in masks.items():
        yield from extend(t, cand, j)


def _colouring(name: str, n: int, k: int, s: int, palette: int, seed: int, label: Callable) -> tuple[list, dict]:
    """The kept k-sets, ascending, and the base colour of every s-set: each
    s-set gets a colour drawn uniformly from ``range(palette)``, and a k-set
    e is kept when all its s-sets have colour ``label(e)``."""
    colours = _seeded_draw(n, s, seed, f"{name} colour draws",
                           lambda rng, count: rng.integers(0, palette, size=count))
    edges = [e for e, j in _monochromatic_cliques(n, k, s, colours) if label(e) == j]
    return edges, dict(zip(combinations(range(n), s), colours))


def construct_partite_coloring(params: ConstructionParams) -> Construction:
    """Keep the k-sets whose pair clique is monochromatic in the colour
    matched to their index vector w.r.t. (V_1, ..., V_{k-1}, {z}).

    The palette is keyed by a k-set's sorted tuple of parts: colour 0 is
    (0, 1, ..., k-1), the all-ones vector, the only admissible one through
    the special vertex z (placed last); colours 1..C(2k-2, k) are the
    k-multisets of parts 0..k-2 in reverse lexicographic order, which is the
    lexicographic order of their (crossing) index vectors.
    """
    n, k = params.n, params.k
    if k < 3:
        raise ValueError(f"requires k >= 3, got k={k}")
    _bounded_comb(2 * k - 2, k, "lemma51 palette")
    sizes = params.part_sizes or default_partite_sizes(n, k)
    if len(sizes) != k or sizes[-1] != 1:
        raise ValueError(f"part sizes must be (n_1..n_{k-1}, 1), got {sizes}")
    if sum(sizes) != n or min(sizes) < 1:
        raise ValueError(f"part sizes {sizes} do not form a partition of {n} vertices")

    crossing = reversed(list(combinations_with_replacement(range(k - 1), k)))
    color_of_parts = {parts: j for j, parts in enumerate([tuple(range(k)), *crossing])}
    palette = len(color_of_parts)  # == comb(2k-2, k) + 1
    # The parts are consecutive blocks ending at ``ends``, so a vertex's part
    # is the number of ends at or below it; e ascends, so the parts of its
    # vertices, in order, are its sorted part tuple.
    ends = list(accumulate(sizes))
    part_of = partial(bisect_right, ends)
    edges, colors = _colouring("lemma51", n, k, 2, palette, params.seed,
                               lambda e: color_of_parts.get(tuple(map(part_of, e))))
    h = Hypergraph(k, n, edges)
    z = n - 1
    partition = Partition(tuple(tuple(range(end - size, end)) for size, end in zip(sizes, ends)))
    if not partite_structure_ok(h, z, partition):
        raise RuntimeError("structural guarantee violated by construction output")
    return Construction(h, z, partition, palette, colors)


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


def construct_shadow_disjoint(params: ConstructionParams) -> Construction:
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

    edges, colors = _colouring("obs62", n, k, s, k + 1, params.seed,
                               lambda e: sum(1 for v in e if v < n1))
    h = Hypergraph(k, n, edges)
    x_side = tuple(range(n1))
    if not shadow_disjoint_ok(h, x_side, s):
        raise RuntimeError("s-shadow disjointness violated by construction output")
    return Construction(h, None, Partition((x_side, tuple(range(n1, n)))), k + 1, colors)


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
    flips = _seeded_draw(n, k, seed, "gnp coin flips", lambda rng, count: rng.random(count))
    return Hypergraph(k, n, [e for e, u in zip(combinations(range(n), k), flips) if u < p])
