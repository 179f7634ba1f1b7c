"""Desk-scale ground truth: embedding enumeration, exact-cover factor search,
denseness estimation, and reachable-set counting.

Copies are non-induced: an embedding is an injection of the pattern's
vertices such that every pattern edge maps onto a host edge; a copy is an
embedding up to automorphisms of the pattern.  One backtracking search over
host bitmasks answers every copy question: it fixes pattern vertices in a
static order and draws each vertex's candidates from one int, scanned in
ascending vertex order, so every listing is deterministic.  Labelled
listings (``enumerate_copies``, ``rooted_copies``, ``find_cover``) see every
embedding; ``copy_images`` adds symmetry-breaking order constraints and sees
one embedding per copy, so its ``cap`` (and ``find_factor``'s) counts copies.
The factor solver collapses copies to their vertex images (one witness
embedding per image) and runs a complete exact-cover search, so "absent"
results are proofs, not heuristics — unless the copy cap was hit, in which
case the result is explicitly inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, permutations
from typing import Iterator

import numpy as np

from .hypergraph import Hypergraph

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def _embedding_order(f: Hypergraph, root: int | None) -> list[int]:
    """Static search order: root first, then vertices attached to the chosen
    prefix by as many edges as possible (ties: higher degree, lower id)."""
    degs = f.embedding_masks().degrees
    chosen: list[int] = []
    in_chosen = [False] * f.n
    if root is not None:
        chosen.append(root)
        in_chosen[root] = True
    while len(chosen) < f.n:
        best_key, best_v = None, -1
        for v in range(f.n):
            if in_chosen[v]:
                continue
            attach = sum(1 for e in f.edges if v in e and any(in_chosen[u] for u in e))
            key = (-attach, -degs[v], v)
            if best_key is None or key < best_key:
                best_key, best_v = key, v
        chosen.append(best_v)
        in_chosen[best_v] = True
    return chosen


# One step per pattern vertex in search order: (vertex, the other k-1
# vertices of each edge it completes, earlier neighbours not in those edges,
# its degree).
_Plan = tuple[tuple[int, tuple[tuple[int, ...], ...], tuple[int, ...], int], ...]


def _plan(f: Hypergraph, root: int | None) -> _Plan:
    """The search plan along ``_embedding_order``, cached per (f, root)."""

    def compute() -> _Plan:
        masks = f.embedding_masks()
        order = _embedding_order(f, root)
        rank = {v: i for i, v in enumerate(order)}
        ready: list[list[tuple[int, ...]]] = [[] for _ in order]
        for e in f.edges:
            last = max(e, key=rank.__getitem__)
            ready[rank[last]].append(tuple(v for v in e if v != last))
        steps = []
        for i, u in enumerate(order):
            in_ready = {v for rest in ready[i] for v in rest}
            earlier = tuple(v for v in order[:i] if masks.neighbours[u] >> v & 1 and v not in in_ready)
            steps.append((u, tuple(ready[i]), earlier, masks.degrees[u]))
        return tuple(steps)

    return f._cached(("embedding_plan", root), compute)


def _class_floors(f: Hypergraph) -> tuple[tuple[int, ...], ...]:
    """Symmetry-breaking constraints for the root-less plan: for each step,
    the earlier vertices whose images its image must exceed.

    Along the search order o_0, o_1, ..., the image of o_j must be smaller
    than the image of every other vertex of its orbit under the automorphisms
    fixing o_0..o_{j-1} (Grochow-Kellis).  Exactly one embedding of each
    Aut(F) class meets all of them: the one whose images, read in search
    order, are lexicographically smallest, which is the first of its class
    the search reaches.  Orbits are found with the same search, embedding f
    into f with vertices pinned.
    """

    def compute() -> tuple[tuple[int, ...], ...]:
        order = [step[0] for step in _plan(f, None)]
        degs = f.embedding_masks().degrees
        floors: list[list[int]] = [[] for _ in order]
        for j, a in enumerate(order):
            fixed = {b: b for b in order[:j]}
            for i in range(j + 1, len(order)):
                v = order[i]
                if degs[v] == degs[a] and next(_search(f, f, {**fixed, a: v}), None) is not None:
                    floors[i].append(a)
        return tuple(map(tuple, floors))

    return f._cached("class_floors", compute)


def _search(
    f: Hypergraph, h: Hypergraph, pre: dict[int, int], floors: tuple[tuple[int, ...], ...] | None = None
) -> Iterator[tuple[int, ...]]:
    """Embeddings of f into h in search order; host vertices ascending at each step.

    A step's candidates are one int: the degree mask, AND the completion mask
    of each edge the step closes, AND the neighbour mask of each earlier
    neighbour's image, less the used vertices and the images pinned by
    ``pre`` for other vertices (and, with ``floors``, less the vertices up to
    the largest image of the step's floor vertices).
    """
    if f.n == 0:
        yield ()
        return
    masks = h.embedding_masks()
    completion, neighbours, at_least = masks.completion, masks.neighbours, masks.at_least
    pinned = 0
    for w in pre.values():
        pinned |= 1 << w
    steps = []
    for i, (u, ready, earlier, degree) in enumerate(_plan(f, min(pre) if pre else None)):
        start = at_least[degree] if degree < len(at_least) else 0
        start &= (1 << pre[u]) if u in pre else ~pinned
        steps.append((u, start, ready, earlier, floors[i] if floors else ()))
    last = len(steps) - 1
    image = [0] * f.n
    bit = [0] * f.n

    def rec(i: int, used: int) -> Iterator[tuple[int, ...]]:
        u, cand, ready, earlier, below = steps[i]
        cand &= ~used
        for rest in ready:
            key = 0
            for v in rest:
                key |= bit[v]
            cand &= completion.get(key, 0)
        for v in earlier:
            cand &= neighbours[image[v]]
        if below:
            floor = max(image[v] for v in below) + 1
            cand = cand >> floor << floor
        while cand:
            low = cand & -cand
            cand ^= low
            image[u] = low.bit_length() - 1
            bit[u] = low
            if i == last:
                yield tuple(image)
            else:
                yield from rec(i + 1, used | low)

    yield from rec(0, 0)


def iter_embeddings(
    f: Hypergraph, h: Hypergraph, pre: dict[int, int] | None = None, *, per_copy: bool = False
) -> Iterator[tuple[int, ...]]:
    """Labelled embeddings of f into h in deterministic order.

    ``pre`` pins pattern vertices to host vertices before the search starts.
    With ``per_copy`` (no ``pre``) only the first embedding of each copy,
    that is of each Aut(f) class, is yielded; the order is unchanged.
    """
    if f.k != h.k:
        raise ValueError(f"uniformity mismatch: pattern k={f.k}, host k={h.k}")
    pre = pre or {}
    for u, w in pre.items():
        if not 0 <= u < f.n:
            raise ValueError(f"pattern vertex {u} out of range")
        if not 0 <= w < h.n:
            raise ValueError(f"host vertex {w} out of range")
    if per_copy and pre:
        raise ValueError("per_copy listing takes no pinned vertices")
    if f.n > h.n:
        return
    yield from _search(f, h, pre, _class_floors(f) if per_copy else None)


@dataclass
class CopyEnumeration:
    embeddings: list[tuple[int, ...]]
    truncated: bool


def enumerate_copies(f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP) -> CopyEnumeration:
    """Up to ``cap`` labelled embeddings; ``truncated`` flags a hit cap."""
    out = list(islice(iter_embeddings(f, h), cap + 1))
    if len(out) > cap:
        return CopyEnumeration(out[:cap], True)
    return CopyEnumeration(out, False)


@dataclass
class RootedCount:
    count: int
    truncated: bool


def rooted_copies(
    f: Hypergraph, vstar: int, h: Hypergraph, w: int, cap: int = DEFAULT_CAP
) -> RootedCount:
    """Number (capped) of labelled embeddings sending ``vstar`` to ``w``."""
    if not 0 <= vstar < f.n:
        raise ValueError(f"pattern vertex {vstar} out of range")
    if not 0 <= w < h.n:
        raise ValueError(f"host vertex {w} out of range")
    count = 0
    for _ in islice(iter_embeddings(f, h, {vstar: w}), cap + 1):
        count += 1
    if count > cap:
        return RootedCount(cap, True)
    return RootedCount(count, False)


def validate_embedding(f: Hypergraph, h: Hypergraph, phi: tuple[int, ...]) -> bool:
    if len(phi) != f.n or len(set(phi)) != f.n:
        return False
    if any(w < 0 or w >= h.n for w in phi):
        return False
    return all(frozenset(phi[v] for v in e) in h.edge_set for e in f.edges)


# ---------------------------------------------------------------------------
# covers and factors
# ---------------------------------------------------------------------------


@dataclass
class CoverReport:
    covered: list[bool]
    witnesses: list[tuple[int, ...] | None]
    verdict: bool


def find_cover(f: Hypergraph, h: Hypergraph) -> CoverReport:
    """Per-vertex: is the vertex contained in some copy of f?  The aggregate
    verdict is the conjunction."""
    covered = [False] * h.n
    witnesses: list[tuple[int, ...] | None] = [None] * h.n
    for w in range(h.n):
        if covered[w]:
            continue
        for u in range(f.n):
            phi = next(iter_embeddings(f, h, {u: w}), None)
            if phi is not None:
                for target in phi:
                    if not covered[target]:
                        covered[target] = True
                        witnesses[target] = phi
                break
    return CoverReport(covered, witnesses, all(covered) if h.n else True)


@dataclass
class FactorSearchResult:
    status: str  # "found" | "absent" | "inconclusive"
    certificate: list[tuple[int, ...]] | None
    stats: dict = field(default_factory=dict)


def copy_images(
    f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP
) -> tuple[dict[frozenset[int], tuple[int, ...]], bool]:
    """Distinct copy images, each with the first embedding onto it in search
    order as its witness.

    One embedding is listed per copy (per Aut(f) class), so ``cap`` counts
    copies; ``truncated`` flags that more than ``cap`` copies exist.
    """
    images: dict[frozenset[int], tuple[int, ...]] = {}
    for count, phi in enumerate(iter_embeddings(f, h, per_copy=True)):
        if count == cap:
            return images, True
        images.setdefault(frozenset(phi), phi)
    return images, False


def find_factor(f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP) -> FactorSearchResult:
    """Complete exact-cover search for vertex-disjoint copies covering V(H).

    Branches on the uncovered vertex with the fewest admissible copies
    (ties: smallest id).  Divisibility is checked first.  ``cap`` bounds the
    copies listed by :func:`copy_images`; a hit cap downgrades "absent" to
    "inconclusive".
    """
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    if h.n % f.n != 0:
        return FactorSearchResult("absent", None, {"reason": "divisibility", "nodes": 0})
    if h.n == 0:
        return FactorSearchResult("found", [], {"nodes": 0})
    if not f.edges:
        blocks = [tuple(range(i, i + f.n)) for i in range(0, h.n, f.n)]
        return FactorSearchResult("found", blocks, {"reason": "edgeless-pattern", "nodes": 0})

    images, truncated = copy_images(f, h, cap)
    image_list = sorted(images, key=sorted)
    masks = [sum(1 << v for v in img) for img in image_list]
    at_vertex: list[list[int]] = [[] for _ in range(h.n)]
    for idx, img in enumerate(image_list):
        for v in img:
            at_vertex[v].append(idx)

    full = (1 << h.n) - 1
    chosen: list[int] = []
    nodes = 0

    def rec(used: int) -> bool:
        nonlocal nodes
        if used == full:
            return True
        best_v, best_opts = -1, None
        for v in range(h.n):
            if used >> v & 1:
                continue
            opts = [i for i in at_vertex[v] if masks[i] & used == 0]
            if best_opts is None or len(opts) < len(best_opts):
                best_v, best_opts = v, opts
                if not opts:
                    return False
        for i in best_opts:
            nodes += 1
            chosen.append(i)
            if rec(used | masks[i]):
                return True
            chosen.pop()
        return False

    if rec(0):
        certificate = [images[image_list[i]] for i in chosen]
        return FactorSearchResult(
            "found", certificate, {"nodes": nodes, "copies": len(image_list), "truncated": truncated}
        )
    status = "inconclusive" if truncated else "absent"
    return FactorSearchResult(status, None, {"nodes": nodes, "copies": len(image_list), "truncated": truncated})


def validate_factor_certificate(
    f: Hypergraph, h: Hypergraph, copies: list[tuple[int, ...]]
) -> bool:
    seen: set[int] = set()
    for phi in copies:
        if not validate_embedding(f, h, phi):
            return False
        img = set(phi)
        if img & seen:
            return False
        seen |= img
    return seen == set(range(h.n))


# ---------------------------------------------------------------------------
# denseness
# ---------------------------------------------------------------------------


@dataclass
class DensenessEstimate:
    p: float
    samples: int
    worst_deficit: float
    mode: str  # "sampled" | "exhaustive"
    seed: int | None = None
    family: list[list[int]] | None = None

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "samples": self.samples,
            "worst_deficit": self.worst_deficit,
            "mode": self.mode,
            "seed": self.seed,
            "family": self.family,
        }


def _deficit(p: float, tuple_family_size: int, edge_tuple_count: int, n_pow_k: int) -> float:
    return (p * tuple_family_size - edge_tuple_count) / n_pow_k


def _edges_array(h: Hypergraph) -> np.ndarray:
    if not h.edges:
        return np.empty((0, h.k), dtype=np.int64)
    return np.array(h.edges, dtype=np.int64)


def _ordered_tuple_count(edges_arr: np.ndarray, masks: list[np.ndarray]) -> int:
    """Ordered tuples drawn from the masked sets whose underlying set is an edge."""
    if edges_arr.shape[0] == 0:
        return 0
    k = edges_arr.shape[1]
    total = 0
    for perm in permutations(range(k)):
        sel = np.ones(edges_arr.shape[0], dtype=bool)
        for pos, col in enumerate(perm):
            sel &= masks[pos][edges_arr[:, col]]
        total += int(sel.sum())
    return total


def estimate_denseness(
    h: Hypergraph, p: float, sample_count: int, seed: int, workers: int = 1
) -> DensenessEstimate:
    """Worst deficit p·|X_1|···|X_k| - e(X_1..X_k), normalized by n^k, over
    uniformly sampled subset tuples.

    Sample i draws its subsets from an independent stream seeded by
    (seed, i).  Samples run one after another on the calling thread and only
    the running maximum is kept, so memory does not grow with
    ``sample_count``.  ``workers`` is accepted and ignored.  A sampled report
    is a lower bound on the slack a denseness verdict would need, never a
    verdict itself.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if h.n == 0:
        raise ValueError("sampled denseness needs a host with at least one vertex")
    edges_arr = _edges_array(h)
    n_pow_k = h.n**h.k

    def one(i: int) -> float:
        rng = np.random.default_rng([seed, i])
        masks = [rng.random(h.n) < 0.5 for _ in range(h.k)]
        sizes = 1
        for m in masks:
            sizes *= int(m.sum())
        count = _ordered_tuple_count(edges_arr, masks)
        return _deficit(p, sizes, count, n_pow_k)

    worst = max(one(i) for i in range(sample_count))
    return DensenessEstimate(p, sample_count, worst, "sampled", seed)


# Most cells of one dense n^k array (the edge tensor and each sample's
# allowed tuples, ten million cells, about 10 MB as booleans; the largest
# family draw holds as many 8-byte floats).
DENSE_CELL_LIMIT = 10**7


def _edge_tensor(h: Hypergraph) -> np.ndarray:
    if h.n**h.k > DENSE_CELL_LIMIT:
        raise ValueError(
            f"a dense n^k array for n={h.n}, k={h.k} has {h.n**h.k} cells; "
            f"more than {DENSE_CELL_LIMIT} are refused")
    tensor = np.zeros((h.n,) * h.k, dtype=bool)
    for e in h.edges:
        for perm in permutations(e):
            tensor[perm] = True
    return tensor


def canonical_family(family) -> tuple[tuple[int, ...], ...]:
    """Sorted, deduplicated index sets; ``family`` must be a list of
    non-empty lists of ints."""
    if not isinstance(family, (list, tuple)):
        raise ValueError(f"family must be a list of index lists, got {family!r}")
    for s in family:
        if not isinstance(s, (list, tuple)) or not s or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in s
        ):
            raise ValueError(f"family member {s!r} is not a non-empty list of ints")
    canon = sorted({tuple(sorted(set(s))) for s in family})
    return tuple(canon)


def estimate_S_denseness(
    h: Hypergraph,
    p: float,
    family,
    sample_count: int,
    seed: int,
    workers: int = 1,
) -> DensenessEstimate:
    """Worst sampled deficit p·|K_k(G)| - e(G) for directed constraint
    families G = {G_S ⊆ V^S : S in family}.

    Each G_S is a uniform subset of V^S (elements drawn in lexicographic
    order), sharing the sample streams of :func:`estimate_denseness`; with the
    singleton family {{1},...,{k}} the two estimators agree bit for bit under
    equal seeds.  As there, samples run on the calling thread, keeping only
    the running maximum, and ``workers`` is accepted and ignored.  Each
    sample holds dense n^k arrays, so hosts with more than
    ``DENSE_CELL_LIMIT`` cells are refused with ``ValueError``.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if h.n == 0:
        raise ValueError("sampled denseness needs a host with at least one vertex")
    fam = canonical_family(family)
    for s in fam:
        if any(i < 1 or i > h.k for i in s):
            raise ValueError(f"family member {s} is not a subset of 1..{h.k}")
    edge_tensor = _edge_tensor(h)
    n_pow_k = h.n**h.k

    def one(i: int) -> float:
        rng = np.random.default_rng([seed, i])
        allowed = np.ones((h.n,) * h.k, dtype=bool)
        for s in fam:
            draw = rng.random(h.n ** len(s)) < 0.5
            shape = [1] * h.k
            for pos in s:
                shape[pos - 1] = h.n
            allowed &= draw.reshape(shape)
        kk = int(allowed.sum())
        count = int((allowed & edge_tensor).sum())
        return _deficit(p, kk, count, n_pow_k)

    worst = max(one(i) for i in range(sample_count))
    return DensenessEstimate(p, sample_count, worst, "sampled", seed, [list(s) for s in fam])


EXHAUSTIVE_LIMIT = 12


def exact_denseness_small(h: Hypergraph, p: float) -> DensenessEstimate:
    """Exact worst deficit over all subset tuples, for 3-graphs with n <= 12.

    Scans all (X_1, X_2) pairs up to swap symmetry; the optimal X_3 for a
    fixed pair keeps exactly the vertices with a positive marginal deficit,
    which removes the third exponential factor.
    """
    if h.k != 3:
        raise ValueError("exhaustive mode is implemented for 3-graphs only")
    if h.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode refused for n > {EXHAUSTIVE_LIMIT}")
    n = h.n
    if n == 0:
        return DensenessEstimate(p, 1, 0.0, "exhaustive")
    tensor = _edge_tensor(h).astype(np.float64)
    count = 1 << n
    subsets = ((np.arange(count)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    sizes = subsets.sum(axis=1)
    partial = np.tensordot(subsets, tensor, axes=([1], [0]))  # (2^n, n, n)
    worst = 0.0
    for i in range(count):
        rows = subsets[i:]
        pair_counts = rows @ partial[i]  # (count - i, n)
        thresholds = p * sizes[i] * sizes[i:]
        terms = thresholds[:, None] - pair_counts
        np.maximum(terms, 0.0, out=terms)
        best = float(terms.sum(axis=1).max())
        if best > worst:
            worst = best
    return DensenessEstimate(p, count**3, worst / n**3, "exhaustive")


# ---------------------------------------------------------------------------
# reachability counting
# ---------------------------------------------------------------------------

REACHABLE_HOST_LIMIT = 14


def count_reachable_sets(h: Hypergraph, f: Hypergraph, u: int, v: int) -> int:
    """Number of (v(F)-1)-sets W avoiding {u, v} such that both {u} ∪ W and
    {v} ∪ W span factor-patterned subgraphs.

    A host on v(F) vertices has an F-factor exactly when its vertex set is a
    copy image, so one listing of the copy images of f in h decides every W.
    """
    if h.n > REACHABLE_HOST_LIMIT:
        raise ValueError(f"host too large for exact reachability count (n > {REACHABLE_HOST_LIMIT})")
    if u == v or not (0 <= u < h.n and 0 <= v < h.n):
        raise ValueError("u and v must be distinct host vertices")
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    images, truncated = copy_images(f, h)
    if truncated:
        raise ValueError(f"more than {DEFAULT_CAP} copies: no exact reachability count")
    masks = {sum(1 << w for w in img) for img in images}
    bu, bv = 1 << u, 1 << v
    return sum(1 for m in masks if m & bu and not m & bv and m ^ bu | bv in masks)
