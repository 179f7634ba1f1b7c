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

The recipe never scans all k-sets.  The parts are consecutive blocks of
vertices (V_1, ..., V_{k-1}, {z}) or (X, Y), and each colour's label fixes
the block of every position of an ascending kept k-set: colour j's sorted
part tuple in the partite variant, j vertices of X then k - j of Y in the
bipartition variant.  So each colour holds k vertex masks ("slots"), and
the recipe grows cliques of colour j in increasing vertex order, taking
the i-th vertex from slot i and from the candidates, one int: the AND of
the colour-j masks of the clique's (s-1)-subsets.  The work follows the
partial cliques the labels keep, not the C(n, k) k-sets, nor the
monochromatic cliques of other colours.

Every seeded build, the binomial model's too, draws one number per r-set
(colour per s-set, coin flip per k-set) in lexicographic order from numpy's
PCG64 stream seeded with the given 64-bit seed, so equal parameters yield
bit-identical hypergraphs on every platform.  A build that would draw more
than ``MAX_DRAWS`` numbers, or key more than ``MAX_KEY_ENTRIES`` vertices
for its cliques, is refused with ``ValueError`` before anything is drawn.
numpy is imported at the draw, because it is most of the package's import
time and no other CLI command needs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations, combinations_with_replacement, compress
from typing import Callable, Iterable, Iterator

from .hypergraph import Hypergraph, Partition

# Most random draws one seeded build may make: C(n, s) colours (C(n, k)
# coin flips for the binomial model), and at most this many colours in a
# palette.  Checked before anything is drawn or listed.  At the limit a
# colouring keeps up to a few hundred thousand edges: lemma51 at n = 447
# and obs62 (k = 3, s = 2) at n = 447 are the largest builds allowed.  At
# seed 5 they keep 117,530 and 229,573 edges in 0.8-1.1 s and 0.9-1.5 s,
# with peak RSS 92 and 118 MB (2-vCPU Xeon, Python 3.11).
MAX_DRAWS = 10**5

# Most vertex entries in the keys of one colouring's clique growth: C(n - 1,
# s - 1) (s-1)-sets of s - 1 vertices each, checked before the draw.  The
# draw limit alone lets obs62 at k = n and s = n - 1 key about n^2 entries
# for n up to MAX_DRAWS.  obs62 at n = k = 447 and s = 446 keys 198,470;
# at n = k = 1001 and s = 1000, the largest such build allowed, it keys
# 999,000 and builds in 0.2 s with peak RSS 50 MB (2-vCPU Xeon, Python 3.11).
MAX_KEY_ENTRIES = 10**6


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


def _bounded_comb(n: int, r: int, what: str, limit: int = MAX_DRAWS) -> int:
    """C(n, r), refused with ValueError once it passes ``limit``.

    Counts up one factor at a time, so a huge n and r never build a huge
    integer before the refusal.
    """
    if n < 0 or r < 0:
        raise ValueError(f"{what}: need n >= 0 and r >= 0, got n={n}, r={r}")
    count = 1 if r <= n else 0
    for i in range(min(r, n - r)):
        count = count * (n - i) // (i + 1)
        if count > limit:
            raise ValueError(f"{what}: C({n}, {r}) exceeds the limit of {limit}")
    return count


def _seeded_draw(count: int, seed: int, draw: Callable) -> list:
    """``draw(rng, count)`` as a list, ``rng`` being PCG64 seeded with
    ``seed``: one value per r-set of ``range(n)`` in lexicographic order, for
    the ``count`` = C(n, r) that :func:`_bounded_comb` accepted."""
    import numpy as np

    return draw(np.random.default_rng(seed), count).tolist()


def _monochromatic_cliques(n: int, k: int, s: int, colours: list[int],
                           slots: list[list[int]]) -> Iterator[tuple[tuple[int, ...], int]]:
    """(e, j) for each ascending k-set e of ``range(n)`` whose s-subsets all
    have colour j and whose i-th vertex lies in the mask ``slots[j][i]``.

    ``colours`` holds the colour of every s-set in lexicographic order, so the
    s-sets T ∪ {v}, v > max(T), of one (s-1)-set T come in one run.  The
    mask of T in colour j holds each such v with colour j on T ∪ {v}.  A
    clique starts from an (s-1)-set that fits its slots and grows in
    increasing vertex order.  Its candidates are one int, the AND of the
    masks of all its (s-1)-subsets; the next vertex is scanned, low bit
    first, from the candidates in its slot, and the candidates above that
    vertex, unmasked by the slot, pass to the next level.
    """
    masks: dict[tuple[int, ...], dict[int, int]] = {}  # (s-1)-set -> colour -> mask
    run = iter(colours)
    for t in combinations(range(n - 1), s - 1):  # n - 1 is below no vertex
        masks[t] = by_colour = {}
        for v, j in zip(range(t[-1] + 1, n), run):
            by_colour[j] = by_colour.get(j, 0) | 1 << v

    def extend(clique: tuple[int, ...], cand: int, j: int) -> Iterator[tuple[tuple[int, ...], int]]:
        # cand: the vertices above clique[-1] that extend it in colour j
        need = k - len(clique) - 1  # vertices still missing after the next
        pick = cand & slots[j][len(clique)]
        while pick:
            low = pick & -pick
            pick ^= low
            v = low.bit_length() - 1
            e = clique + (v,)
            if not need:
                yield e, j
                continue
            nxt = cand  # the mask of (..., v) holds only vertices above v
            for t in combinations(clique, s - 2):
                nxt &= masks.get(t + (v,), {}).get(j, 0)
            if nxt.bit_count() >= need:
                yield from extend(e, nxt, j)

    for t, by_colour in masks.items():
        for j, cand in by_colour.items():
            if all(slot >> v & 1 for slot, v in zip(slots[j], t)):
                yield from extend(t, cand, j)


def _colouring(name: str, n: int, k: int, s: int, palette: int, seed: int,
               sizes: tuple[int, ...], parts_of_colour: Iterable[tuple[int, ...]]) -> list:
    """The kept k-sets: each s-set gets a colour drawn uniformly from
    ``range(palette)``, and an ascending k-set e is kept in colour j when all
    its s-sets have colour j and each e[i] lies in part
    ``parts_of_colour[j][i]`` of the consecutive blocks of ``sizes``.

    The C(n, s) draws are checked against ``MAX_DRAWS`` first.  When k > n
    no k-set exists, and nothing more is checked, drawn or read.  Otherwise
    the C(n - 1, s - 1) (s-1)-sets that :func:`_monochromatic_cliques` keys,
    of s - 1 vertices each, are checked against ``MAX_KEY_ENTRIES`` before
    the draw.  Only then is ``parts_of_colour`` (one part tuple per colour)
    read into slot masks of ``1 << n`` bits.  obs62's slots are a table of
    (k + 1) * k references to its two block masks, and at k <= n the two
    limits keep n <= 447, or n <= 1001 when s = n - 1.
    """
    count = _bounded_comb(n, s, f"{name} colour draws")
    if k > n:
        return []
    _bounded_comb(n - 1, s - 1, f"{name} clique keys of {s - 1} vertices", MAX_KEY_ENTRIES // (s - 1))
    colours = _seeded_draw(count, seed, lambda rng, size: rng.integers(0, palette, size=size))
    ends = list(accumulate(sizes))
    blocks = [(1 << end) - (1 << (end - size)) for size, end in zip(sizes, ends)]
    slots = [[blocks[p] for p in parts] for parts in parts_of_colour]
    return [e for e, _ in _monochromatic_cliques(n, k, s, colours, slots)]


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
    parts_of_colour = [tuple(range(k)), *crossing]
    palette = len(parts_of_colour)  # == comb(2k-2, k) + 1
    h = Hypergraph(k, n, _colouring("lemma51", n, k, 2, palette, params.seed, sizes, parts_of_colour))
    z = n - 1
    partition = Partition(tuple(tuple(range(end - size, end)) for size, end in zip(sizes, accumulate(sizes))))
    if not partite_structure_ok(h, z, partition):
        raise RuntimeError("structural guarantee violated by construction output")
    return Construction(h, z, partition, palette)


def partite_structure_ok(h: Hypergraph, z: int, partition: Partition) -> bool:
    """Exhaustive check: link(z) crosses the parts, and edges sharing >= 2
    vertices have equal index vectors."""
    crossing = (1,) * (len(partition.parts) - 1)
    if any(z in e and partition.index_vector(set(e) - {z})[:-1] != crossing for e in h.edges):
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

    # |e ∩ X| = j for an ascending e exactly when its first j vertices lie in X
    h = Hypergraph(k, n, _colouring("obs62", n, k, s, k + 1, params.seed, (n1, n2),
                                    ((0,) * j + (1,) * (k - j) for j in range(k + 1))))
    x_side = tuple(range(n1))
    if not shadow_disjoint_ok(h, x_side, s):
        raise RuntimeError("s-shadow disjointness violated by construction output")
    return Construction(h, None, Partition((x_side, tuple(range(n1, n)))), k + 1)


def shadow_disjoint_ok(h: Hypergraph, a_side, s: int) -> bool:
    """Exhaustive check: edges with different |e ∩ A| share fewer than s vertices."""
    a = set(a_side)
    return _constant_on_overlaps(h, s, [len(a.intersection(e)) for e in h.edges])


def _constant_on_overlaps(h: Hypergraph, s: int, labels: list) -> bool:
    """Edges sharing >= s vertices carry equal labels.

    Two such edges share an s-set, so they lie in one bucket of
    ``h.subset_edges(s)``, and the edges of a bucket share its s-set; so the
    predicate is exactly that each bucket carries one label.  It is pairwise,
    and equality is transitive, so the closure of the buckets into overlap
    classes would add nothing.
    """
    return all(len({labels[i] for i in members}) == 1 for members in h.subset_edges(s).values())


def random_uniform_hypergraph(n: int, k: int, p: float, seed: int) -> Hypergraph:
    """Each k-set is an edge independently with probability p (binomial model)."""
    if not 0 <= p <= 1:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    kept = _seeded_draw(_bounded_comb(n, k, "gnp coin flips"), seed, lambda rng, count: rng.random(count) < p)
    return Hypergraph(k, n, compress(combinations(range(n), k), kept))
