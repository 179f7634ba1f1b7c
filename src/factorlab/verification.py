"""Desk-scale ground truth: embedding enumeration, exact-cover factor search,
denseness estimation, and reachable-set counting.

Copies are non-induced: an embedding is an injection of the pattern's
vertices such that every pattern edge maps onto a host edge.  The factor
solver collapses embeddings to their vertex images (one witness embedding per
image) and runs a complete exact-cover search, so "absent" results are
proofs, not heuristics — unless the copy-enumeration cap was hit, in which
case the result is explicitly inconclusive.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import combinations, islice, permutations
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import Hypergraph

DEFAULT_CAP = 10**6


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


def _embedding_order(f: Hypergraph, root: int | None) -> list[int]:
    """Static search order: root first, then vertices attached to the chosen
    prefix by as many edges as possible (ties: higher degree, lower id)."""
    degs = [f.degree((v,)) for v in range(f.n)]
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


def iter_embeddings(
    f: Hypergraph, h: Hypergraph, pre: dict[int, int] | None = None
) -> Iterator[tuple[int, ...]]:
    """All labelled embeddings of f into h in deterministic order.

    ``pre`` pins pattern vertices to host vertices before the search starts.
    """
    if f.k != h.k:
        raise ValueError(f"uniformity mismatch: pattern k={f.k}, host k={h.k}")
    if f.n > h.n:
        return
    pre = pre or {}
    root = min(pre) if pre else None
    order = _embedding_order(f, root)
    # edges checkable once the i-th vertex of the order is mapped
    rank = {v: i for i, v in enumerate(order)}
    edges_ready: list[list[tuple[int, ...]]] = [[] for _ in order]
    for e in f.edges:
        edges_ready[max(rank[v] for v in e)].append(e)
    f_degs = [f.degree((v,)) for v in range(f.n)]
    h_degs = [h.degree((w,)) for w in range(h.n)]
    edge_set = h.edge_set

    assignment: dict[int, int] = {}
    used: set[int] = set()

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == f.n:
            yield tuple(assignment[v] for v in range(f.n))
            return
        u = order[i]
        candidates: Iterable[int]
        if u in pre:
            candidates = (pre[u],)
        else:
            candidates = range(h.n)
        for w in candidates:
            if w in used or h_degs[w] < f_degs[u]:
                continue
            assignment[u] = w
            used.add(w)
            if all(
                frozenset(assignment[v] for v in e) in edge_set for e in edges_ready[i]
            ):
                yield from rec(i + 1)
            used.discard(w)
            del assignment[u]

    yield from rec(0)


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
    """Distinct copy images with one witness embedding each (automorphism
    classes collapsed)."""
    enum = enumerate_copies(f, h, cap)
    images: dict[frozenset[int], tuple[int, ...]] = {}
    for phi in enum.embeddings:
        images.setdefault(frozenset(phi), phi)
    return images, enum.truncated


def find_factor(f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP) -> FactorSearchResult:
    """Complete exact-cover search for vertex-disjoint copies covering V(H).

    Branches on the uncovered vertex with the fewest admissible copies
    (ties: smallest id).  Divisibility is checked first; a hit enumeration cap
    downgrades "absent" to "inconclusive".
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


def _map_samples(fn, sample_count: int, workers: int) -> list[float]:
    if workers > 1 and sample_count > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(sample_count)))
    return [fn(i) for i in range(sample_count)]


def estimate_denseness(
    h: Hypergraph, p: float, sample_count: int, seed: int, workers: int = 1
) -> DensenessEstimate:
    """Worst deficit p·|X_1|···|X_k| - e(X_1..X_k), normalized by n^k, over
    uniformly sampled subset tuples.

    Sample i draws its subsets from an independent stream seeded by
    (seed, i), so results do not depend on worker count.  A sampled report is
    a lower bound on the slack a denseness verdict would need, never a
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

    deficits = _map_samples(one, sample_count, workers)
    return DensenessEstimate(p, sample_count, max(deficits), "sampled", seed)


def _edge_tensor(h: Hypergraph) -> np.ndarray:
    tensor = np.zeros((h.n,) * h.k, dtype=bool)
    for e in h.edges:
        for perm in permutations(e):
            tensor[perm] = True
    return tensor


def canonical_family(family) -> tuple[tuple[int, ...], ...]:
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
    equal seeds.
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

    deficits = _map_samples(one, sample_count, workers)
    return DensenessEstimate(
        p, sample_count, max(deficits), "sampled", seed, [list(s) for s in fam]
    )


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
    {v} ∪ W span factor-patterned subgraphs."""
    if h.n > REACHABLE_HOST_LIMIT:
        raise ValueError(f"host too large for exact reachability count (n > {REACHABLE_HOST_LIMIT})")
    if u == v or not (0 <= u < h.n and 0 <= v < h.n):
        raise ValueError("u and v must be distinct host vertices")
    rest = [w for w in range(h.n) if w != u and w != v]
    count = 0
    for witness_set in combinations(rest, f.n - 1):
        sub_u, _ = h.induced((u,) + witness_set)
        if find_factor(f, sub_u).status != "found":
            continue
        sub_v, _ = h.induced((v,) + witness_set)
        if find_factor(f, sub_v).status == "found":
            count += 1
    return count
