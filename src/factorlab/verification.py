"""Desk-scale ground truth: embedding enumeration, exact-cover factor search,
denseness estimation, and reachable-set counting.

Copies are non-induced: an embedding is an injection of the pattern's
vertices such that every pattern edge maps onto a host edge; a copy is an
embedding up to automorphisms of the pattern.  One backtracking search over
host bitmasks answers every copy question: it fixes pattern vertices in a
static order and draws each vertex's candidates from one int, scanned in
ascending vertex order, so every listing is deterministic.  The search is
iterative, one loop over an explicit stack, and is prepared once per
(pattern, host, root) as a list of steps; ``find_cover`` reuses each root's
steps for every host vertex, and tries one root per Aut(f) orbit.  It
hands over each last step whole, as the other steps' images and mask and
the last step's candidate int, which ``iter_embeddings`` expands low bit
first, ``rooted_copies`` counts, ``find_cover`` reads once and
``copy_images`` keys as the mask plus one bit.
Labelled listings (``iter_embeddings``, ``rooted_copies``, ``find_cover``)
see every embedding; ``copy_images`` adds symmetry-breaking order
constraints and sees one embedding per copy, so its ``cap`` (and
``find_factor``'s) counts copies.  A one-edge pattern's copies are the
host's edges, listed with no search.
The factor solver collapses copies to their vertex images, each an int host
bitmask (bit w is host vertex w) keyed to one witness embedding.  It tries,
in order: divisibility; a small vertex set meeting every host edge, and so
every copy (a space barrier, found before any copy is listed); the copy
listing; a parity vector that every image meets evenly (a lattice barrier
mod 2); a small vertex set meeting every image (a space barrier seen only on
the images); and the exact cover.  A refuted "absent" carries its
certificate in ``refutation``, and :func:`validate_refutation` re-checks it
against copy images listed by a plain search of its own.  Every other
answer comes from a complete exact-cover search over the image masks, so
its "absent" is a proof through that search, not a heuristic — unless the
copy cap was hit, in which case the result is explicitly inconclusive.
That search is iterative and keeps the options of each vertex and the live
options as ints over option ids.  Its options are the images in the order
of their sorted vertex tuples.  Every image has v(F) vertices, so of two
images the one holding the smallest vertex where they differ comes first;
that is the descending order of the masks' little-endian bytes with the
bits of every byte reversed, which one bytes sort gives, and each vertex's
option int is read off one transposition of those bytes.  numpy is
imported only inside the denseness functions and their array helpers, so
the copy, cover and factor searches never pay its import time.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import reduce
from heapq import heapify, heappop, heappush
from itertools import chain, pairwise, permutations
from math import comb, factorial
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator

from .hypergraph import DEFAULT_CAP, Hypergraph, UnionFind, is_vertex_list

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

def _embedding_order(f: Hypergraph, root: int | None) -> list[int]:
    """Static search order: root first, then vertices attached to the chosen
    prefix by as many edges as possible (ties: higher degree, lower id).

    The next vertex is popped from a heap keyed (-attach, -degree, id); a
    vertex gains an entry each time its attach count grows, and entries of
    chosen vertices or of older counts are skipped."""
    degs = f.embedding_masks().degrees
    through = f.subset_edges(1)
    attach = [0] * f.n  # vertex -> edges through it that meet the chosen prefix
    reached = [False] * len(f.edges)
    chosen: list[int] = []
    placed = [False] * f.n
    heap = [(0, -d, u) for u, d in enumerate(degs)]
    heapify(heap)
    while len(chosen) < f.n:
        if root is not None and not chosen:
            v = root
        else:
            count, _, v = heappop(heap)
            while placed[v] or -count != attach[v]:
                count, _, v = heappop(heap)
        chosen.append(v)
        placed[v] = True
        for i in through.get((v,), ()):
            if not reached[i]:
                reached[i] = True
                for u in f.edges[i]:
                    attach[u] += 1
                    if not placed[u]:
                        heappush(heap, (-attach[u], -degs[u], u))
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
            around = masks.neighbours[u]
            earlier = sorted((v for v in range(around.bit_length()) if around >> v & 1
                              and rank[v] < i and v not in in_ready), key=rank.__getitem__)
            steps.append((u, tuple(ready[i]), tuple(earlier), masks.degrees[u]))
        return tuple(steps)

    return f._cached(("embedding_plan", root), compute)


# Per step of the root-less plan: the vertex whose image its image must
# exceed (-1 for none), and how many later steps take images above its own.
_Floors = tuple[tuple[int, int], ...]


def _class_floors(f: Hypergraph) -> _Floors:
    """Symmetry-breaking constraints for the root-less plan, one floor per
    step.

    Along the search order o_0, o_1, ..., let O_j be the orbit of o_j under
    the automorphisms fixing o_0..o_{j-1}: the image of o_j must be smaller
    than the image of every other vertex of O_j (Grochow-Kellis).  Exactly
    one embedding of each Aut(F) class meets all of them: the one whose
    images, read in search order, are lexicographically smallest, which is
    the first of its class the search reaches.  Step i's floor is o_j for the
    latest j < i with o_i in O_j.  Any j' < j with o_i in O_j' follows along
    the chain: the automorphisms fixing o_0..o_{j-1} fix o_0..o_{j'-1}, so o_j
    lies in o_i's orbit O_j', and step j's chain enforces o_j' < o_j < o_i.
    Orbits are found with the same search, embedding f into f with vertices
    pinned.  A step's ``need`` is its number of descendants in the forest of
    floors: each of them takes its own host vertex above the step's image.
    """

    def compute() -> _Floors:
        order = [step[0] for step in _plan(f, None)]
        degs = f.embedding_masks().degrees
        floors = [-1] * len(order)  # per step: the step of its floor
        for i, v in enumerate(order):
            for j in range(i - 1, -1, -1):
                a = order[j]
                if degs[a] != degs[v]:
                    continue
                # Swapping two isolated vertices fixes every other vertex, so
                # only a vertex on an edge needs a pinned search.
                if degs[a]:
                    pins = {b: b for b in order[:j]} | {a: v}
                    if next(_walk(f, _steps(f, f, None, pins)), None) is None:
                        continue
                floors[i] = j
                break
        need = [0] * len(order)
        for i in range(len(order) - 1, 0, -1):
            if floors[i] >= 0:
                need[floors[i]] += need[i] + 1
        return tuple((order[j] if j >= 0 else -1, n) for j, n in zip(floors, need))

    return f._cached("class_floors", compute)


def _root_classes(f: Hypergraph) -> tuple[int, ...]:
    """Per vertex of f, the smallest vertex of its orbit under Aut(f).

    Composing with an automorphism that sends u to u' turns an embedding
    sending u' to w into one sending u to w, so vertices of one orbit are
    roots through the same host vertices.  Orbits are found with the same
    pinned search as :func:`_class_floors`; isolated vertices share one
    orbit without a search."""

    def compute() -> tuple[int, ...]:
        degs = f.embedding_masks().degrees
        classes = list(range(f.n))
        for u in range(f.n):
            for a in range(u):
                if classes[a] != a or degs[a] != degs[u]:
                    continue
                if not degs[a] or next(_walk(f, _steps(f, f, None, {a: u})), None) is not None:
                    classes[u] = a
                    break
        return tuple(classes)

    return f._cached("root_classes", compute)


# A prepared search step: (vertex, start mask, ready keys, earlier
# neighbours, floor vertex or -1, need).
_Step = tuple[int, int, tuple[tuple[int, ...], ...], tuple[int, ...], int, int]


def _steps(
    f: Hypergraph, h: Hypergraph, root: int | None, pre: dict[int, int] | None = None,
    floors: _Floors | None = None,
) -> list[_Step]:
    """The steps of a search for f in h along ``_plan(f, root)``.

    A step's start mask is the host's mask of vertices of at least its
    vertex's degree, narrowed to its image when ``pre`` pins it and less the
    images ``pre`` pins for other vertices; floor and need come from
    ``floors`` (see :func:`_class_floors`), and are -1 and 0 without it.
    """
    at_least = h.embedding_masks().at_least
    pre = pre or {}
    pinned = 0
    for w in pre.values():
        pinned |= 1 << w
    steps = []
    for i, (u, ready, earlier, degree) in enumerate(_plan(f, root)):
        start = at_least[degree] if degree < len(at_least) else 0
        start &= (1 << pre[u]) if u in pre else ~pinned
        below, need = floors[i] if floors else (-1, 0)
        steps.append((u, start, ready, earlier, below, need))
    return steps


def _walk(h: Hypergraph, steps: list[_Step]) -> Iterator[tuple[list[int], int, int, int]]:
    """The embeddings into h along ``steps`` (not empty), one step per
    pattern vertex, handed over one last-step frame at a time:
    ``(image, u, cand, used)``.  ``image`` holds the images of every pattern
    vertex but u, the last step's; each bit of ``cand`` (never 0) completes
    one embedding as ``image[u]``; ``used`` is the mask of the other images.
    Candidates read low bit first, frame after frame, give the embeddings in
    search order, host vertices ascending at each step.  ``image`` is
    reused: a caller reads a frame before the next and may write
    ``image[u]``.

    A step's candidates are one int: its start mask, AND the completion mask
    of each edge the step closes, AND the neighbour mask of each earlier
    neighbour's image, less the used vertices (and, with a floor, less the
    vertices up to its image, which exceeds every image along its chain).  A
    candidate is cut when fewer unused host vertices lie above it than the
    step's ``need``; later candidates are larger, so the step is done.  The
    last step's ``need`` is 0, so none of its candidates is cut.

    The search is one loop over an explicit stack (``left[i]``: the untried
    candidates of step i), like the exact cover's trail, so its depth is not
    bounded by the interpreter's recursion limit and each frame resumes this
    one loop.
    """
    masks = h.embedding_masks()
    completion, neighbours = masks.completion, masks.neighbours
    everything = (1 << h.n) - 1
    last = len(steps) - 1
    image = [0] * len(steps)
    bit = [0] * len(steps)
    left = [0] * len(steps)
    i = used = 0
    u, cand, _, _, _, need = steps[0]  # the first step closes no edge and has no floor
    if not last:
        if cand:
            yield image, u, cand, used
        return
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            w = low.bit_length() - 1
            if need and ((everything ^ used) >> w + 1).bit_count() < need:
                cand = 0
                continue
            image[u] = w
            bit[u] = low
            left[i] = cand
            used |= low
            i += 1
            u, cand, ready, earlier, below, need = steps[i]
            cand &= ~used
            for rest in ready:
                key = 0
                for v in rest:
                    key |= bit[v]
                cand &= completion.get(key, 0)
            for v in earlier:
                cand &= neighbours[image[v]]
            if below >= 0:
                floor = image[below] + 1
                cand = cand >> floor << floor
            if i == last:
                if cand:
                    yield image, u, cand, used
                cand = 0
        elif i:
            i -= 1
            u, need = steps[i][0], steps[i][5]
            used ^= bit[u]
            cand = left[i]
        else:
            return


def _check_uniformity(f: Hypergraph, h: Hypergraph) -> None:
    if f.k != h.k:
        raise ValueError(f"uniformity mismatch: pattern k={f.k}, host k={h.k}")


def _frames(
    f: Hypergraph, h: Hypergraph, pre: dict[int, int] | None = None, per_copy: bool = False
) -> Iterator[tuple[list[int], int, int, int]]:
    """The last-step frames (see :func:`_walk`) of the listing that
    :func:`iter_embeddings` expands, after its checks of the arguments; a
    pattern without vertices has none."""
    _check_uniformity(f, h)
    pre = pre or {}
    for u, w in pre.items():
        if not 0 <= u < f.n:
            raise ValueError(f"pattern vertex {u} out of range")
        if not 0 <= w < h.n:
            raise ValueError(f"host vertex {w} out of range")
    if per_copy and pre:
        raise ValueError("per_copy listing takes no pinned vertices")
    if 0 < f.n <= h.n:
        floors = _class_floors(f) if per_copy else None
        yield from _walk(h, _steps(f, h, min(pre) if pre else None, pre, floors))


def iter_embeddings(
    f: Hypergraph, h: Hypergraph, pre: dict[int, int] | None = None, *, per_copy: bool = False
) -> Iterator[tuple[int, ...]]:
    """Labelled embeddings of f into h in deterministic order.

    ``pre`` pins pattern vertices to host vertices before the search starts.
    With ``per_copy`` (no ``pre``) only the first embedding of each copy,
    that is of each Aut(f) class, is yielded; the order is unchanged.  A
    pattern without vertices has one embedding, the empty one.
    """
    for image, u, cand, _ in _frames(f, h, pre, per_copy):
        while cand:
            low = cand & -cand
            cand ^= low
            image[u] = low.bit_length() - 1
            yield tuple(image)
    if not f.n:
        yield ()


@dataclass
class RootedCount:
    count: int
    truncated: bool


def rooted_copies(
    f: Hypergraph, vstar: int, h: Hypergraph, w: int, cap: int = DEFAULT_CAP
) -> RootedCount:
    """Number (capped) of labelled embeddings sending ``vstar`` to ``w``:
    each last-step frame adds its candidates' count, and a total above a
    non-negative ``cap`` answers ``(cap, truncated)``."""
    count = 0
    for _, _, cand, _ in _frames(f, h, {vstar: w}):
        count += cand.bit_count()
        if 0 <= cap < count:
            return RootedCount(cap, True)
    return RootedCount(count, False)


def validate_embedding(f: Hypergraph, h: Hypergraph, phi: tuple[int, ...]) -> bool:
    if f.k != h.k or not is_vertex_list(phi) or len(phi) != f.n or len(set(phi)) != f.n:
        return False
    if any(w < 0 or w >= h.n for w in phi):
        return False
    return all(frozenset(phi[v] for v in e) in h.edge_set for e in f.edges)


# ---------------------------------------------------------------------------
# covers and factors
# ---------------------------------------------------------------------------


@dataclass
class CoverReport:
    witnesses: list[tuple[int, ...] | None]  # per host vertex: a copy through it, or None

    @property
    def covered(self) -> list[bool]:
        return [phi is not None for phi in self.witnesses]

    @property
    def verdict(self) -> bool:
        return None not in self.witnesses


def find_cover(f: Hypergraph, h: Hypergraph) -> CoverReport:
    """Per-vertex: is the vertex contained in some copy of f?  The aggregate
    verdict is the conjunction.

    Host vertex w's witness is the first embedding, over pattern roots u in
    ascending order, that sends u to w (as ``iter_embeddings(f, h, {u: w})``
    would list it), unless an earlier witness already covers w.  Only the
    smallest root of each Aut(f) orbit is tried (see :func:`_root_classes`):
    another root of the orbit has a copy through w exactly when the smallest
    does, and is reached only after the smallest found none.  The steps
    rooted at u are prepared once; each w only narrows the root's start mask
    to w, since every later step already avoids the used w.
    """
    _check_uniformity(f, h)
    witnesses: list[tuple[int, ...] | None] = [None] * h.n
    if f.n > h.n:
        return CoverReport(witnesses)
    roots = [u for u, a in enumerate(_root_classes(f)) if a == u]
    rooted: list[tuple[list[_Step], _Step]] = []  # per tried root: its steps and its own first step
    for w in range(h.n):
        if witnesses[w] is not None:
            continue
        for i, u in enumerate(roots):
            if i == len(rooted):
                steps = _steps(f, h, u)
                rooted.append((steps, steps[0]))
            steps, first = rooted[i]
            if not first[1] >> w & 1:
                continue  # w has a lower degree than u
            steps[0] = (u, 1 << w) + first[2:]
            frame = next(_walk(h, steps), None)
            if frame is not None:
                image, last, cand, _ = frame
                image[last] = (cand & -cand).bit_length() - 1
                phi = tuple(image)
                for target in phi:
                    if witnesses[target] is None:
                        witnesses[target] = phi
                break
    return CoverReport(witnesses)


@dataclass
class FactorSearchResult:
    status: str  # "found" | "absent" | "inconclusive"
    certificate: list[tuple[int, ...]] | None
    stats: dict = field(default_factory=dict)
    refutation: dict | None = None  # an "absent" answer's checkable reason, if it has one


def _is_one_edge(f: Hypergraph) -> bool:
    """Is f a single edge on its k vertices?  Its copies are the host's
    edges."""
    return f.n == f.k and len(f.edges) == 1


def _edge_masks(h: Hypergraph) -> list[int]:
    """The host's edges as int bitmasks, in edge order, cached on h; each
    edge column's bits are added in one C-level pass."""

    def compute() -> list[int]:
        bits = [1 << v for v in range(h.n)]
        masks = [0] * len(h.edges)
        for column in zip(*h.edges):
            masks = list(map(add, masks, map(bits.__getitem__, column)))
        return masks

    return h._cached("edge_masks", compute)


def copy_images(
    f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP
) -> tuple[dict[int, tuple[int, ...]], bool]:
    """Distinct copy images, keyed by their host bitmask (bit w is host
    vertex w), each with the first embedding onto it in search order as its
    witness; keys are in the order their images were first reached.

    One embedding is listed per copy (per Aut(f) class), so ``cap`` counts
    copies; ``truncated`` flags that more than ``cap`` copies exist.  Each
    last-step candidate w (see :func:`_walk`) keys the image
    ``used | 1 << w``, and only a new key builds a witness tuple.  A one-edge
    pattern's copies are the host's edges, listed with no search: its plan
    visits the vertices in order and the floors chain them, so each copy's
    first embedding is its ascending edge, reached in sorted edge order.
    """
    _check_uniformity(f, h)
    if _is_one_edge(f):
        listed = h.edges[:cap] if cap >= 0 else h.edges
        return dict(zip(_edge_masks(h), listed)), len(listed) < len(h.edges)
    if not f.n:  # one copy, the empty embedding
        return ({}, True) if cap == 0 else ({0: ()}, False)
    images: dict[int, tuple[int, ...]] = {}
    count = 0
    for image, u, cand, used in _frames(f, h, per_copy=True):
        while cand:
            if count == cap:
                return images, True
            count += 1
            low = cand & -cand
            cand ^= low
            key = used | low
            if key not in images:
                image[u] = low.bit_length() - 1
                images[key] = tuple(image)
    return images, False


# Most options the exact cover may try after a truncated copy listing.  Such
# a search can only end "found" or "inconclusive", so past this many it stops
# as "inconclusive" with ``stats["node_limit_hit"]`` set.  K222 into a
# G(30, 0.8) host (305,786 images listed at the copy cap) tries about 20,000
# options a second (2-vCPU Xeon, Python 3.11).
TRUNCATED_NODE_LIMIT = 10**5

# Most nodes the search for a space certificate may visit before it leaves
# the question to the exact cover.
SPACE_NODE_LIMIT = 10**4


# A byte with its bits reversed, as a ``bytes.translate`` table.
_REVERSED = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))

# Per bit b, a table taking a byte of ``_rows`` to the digit b"0" or b"1" of
# its vertex 8j + b, the byte's bit 7 - b: over the bytes 0..255 in order,
# bit p is 2^p zeros then 2^p ones, repeated.
_DIGITS = [(b"0" * (128 >> b) + b"1" * (128 >> b)) * (1 << b) for b in range(8)]


def _rows(masks: Iterable[int], n: int) -> list[bytes]:
    """Each mask of vertices below n as ``(n + 7) // 8`` bytes listing its
    vertices from 0 up: byte j holds vertices 8j..8j+7, vertex 8j at its top
    bit (the mask's little-endian bytes, each with its bits reversed)."""
    width = (n + 7) >> 3
    return [m.to_bytes(width, "little").translate(_REVERSED) for m in masks]


def _transpose(rows: list[bytes], n: int) -> list[int]:
    """Per vertex v < n, the int whose bit i is set when ``rows[i]`` (of
    :func:`_rows`) holds v: byte v // 8 of every row, one C-level slice of
    the joined rows, is translated to the digits of v and read, reversed, as
    a base-2 int."""
    width = (n + 7) >> 3
    blob = b"".join(rows)
    at_vertex: list[int] = []
    for j in range(width):
        column = blob[j::width]
        at_vertex += [int(column.translate(digits)[::-1] or b"0", 2) for digits in _DIGITS[:n - 8 * j]]
    return at_vertex


def _parity_refutation(masks: list[int], n: int) -> list[int] | None:
    """A 0/1 vector w of odd weight that meets every mask in an even number
    of vertices, or None when the all-ones vector lies in the GF(2) span of
    the masks.

    The masks go into an xor basis keyed by top bit, which stops once its
    rank is n.  Reducing the all-ones vector by it leaves a residual on the
    non-pivot columns; when that is nonzero, with c its lowest bit, w is the
    null vector that is 1 at c and 0 at every other non-pivot column.  Its
    pivot bits follow in ascending order, each making its basis row meet w
    evenly, and its weight has the parity of the residual's bit c.
    """
    basis: dict[int, int] = {}
    for m in masks:
        while m:
            top = m.bit_length() - 1
            if top not in basis:
                basis[top] = m
                break
            m ^= basis[top]
        if len(basis) == n:
            return None
    pivots = sorted(basis)
    residual = (1 << n) - 1
    for p in reversed(pivots):
        if residual >> p & 1:
            residual ^= basis[p]
    if not residual:
        return None
    w = residual & -residual
    for p in pivots:
        if (basis[p] & w).bit_count() & 1:
            w |= 1 << p
    return [w >> v & 1 for v in range(n)]


def _space_refutation(masks: list[int], at_vertex: list[int], size: int) -> list[int] | None:
    """A host vertex set of at most ``size`` vertices meeting every mask, or
    None when there is none or ``SPACE_NODE_LIMIT`` nodes found none.

    Depth first: a node branches on the vertices of its lowest unhit mask, in
    ascending order, and is cut when the ``left`` vertices that hit the most
    unhit masks together hit fewer than all of them.
    """
    stack: list[tuple[tuple[int, ...], int]] = [((), (1 << len(masks)) - 1)]
    for _ in range(SPACE_NODE_LIMIT):
        if not stack:
            return None
        chosen, unhit = stack.pop()
        if not unhit:
            return sorted(chosen)
        left = size - len(chosen)
        if not left:
            continue
        counts = sorted(((at & unhit).bit_count() for at in at_vertex), reverse=True)
        if sum(counts[:left]) < unhit.bit_count():
            continue
        first = masks[(unhit & -unhit).bit_length() - 1]
        for w in reversed([w for w in range(first.bit_length()) if first >> w & 1]):
            stack.append((chosen + (w,), unhit & ~at_vertex[w]))
    return None


def _image_refutation(masks: list[int], at_vertex: list[int], n: int, size: int, space: bool) -> dict | None:
    """A lattice or else, with ``space``, a space certificate that no
    ``size``-vertex images among ``masks`` partition the n host vertices, or
    None."""
    w = _parity_refutation(masks, n)
    if w is not None:
        return {"kind": "lattice", "q": 2, "w": w}
    side = _space_refutation(masks, at_vertex, (n - 1) // size) if space else None
    return None if side is None else {"kind": "space", "A": side}


def _edge_refutation(h: Hypergraph, size: int) -> list[int] | None:
    """At most ``size`` host vertices meeting every edge of h, or None.

    Every copy of a pattern with an edge holds a host edge, so such a set
    meets every copy image.  When the ``size`` largest degrees sum to less
    than e(H), no such set exists and no search runs.  It reads
    ``h.degrees()`` and the cached edge masks, never the embedding masks."""
    if sum(sorted(h.degrees(), reverse=True)[:size]) < len(h.edges):
        return None
    masks = _edge_masks(h)
    return _space_refutation(masks, _transpose(_rows(masks, h.n), h.n), size)


def _options(
    f: Hypergraph, h: Hypergraph, cap: int
) -> tuple[list[int], list[tuple[int, ...]], list[int], bool]:
    """The exact-cover options: the copy-image masks ordered by their sorted
    vertices, their witness embeddings, ``at_vertex[v]`` (the int of the
    options containing host vertex v) and whether the listing was truncated.

    Every image has v(F) vertices, so of two images the one holding the
    smallest vertex where they differ has the smaller sorted vertex tuple:
    below that vertex the tuples agree, and the other image's next vertex is
    larger.  Its row (:func:`_rows`) is the larger one, since a row lists the
    vertices from 0 up, most significant bit first; so the options are the
    rows in descending order, sorted as bytes, and ``at_vertex`` is their
    transpose.  A one-edge pattern's images are the host's first edges,
    which ``h.edges`` holds sorted, so they come in option order and are
    taken as they are."""
    images, truncated = copy_images(f, h, cap)
    if _is_one_edge(f):
        masks = list(images)
        return masks, list(images.values()), _transpose(_rows(masks, h.n), h.n), truncated
    keyed = sorted(zip(_rows(images, h.n), images), reverse=True)
    masks = [m for _, m in keyed]
    at_vertex = _transpose([row for row, _ in keyed], h.n)
    return masks, list(map(images.__getitem__, masks)), at_vertex, truncated


def _exact_cover(
    n: int, witnesses: list[tuple[int, ...]], at_vertex: list[int], truncated: bool
) -> tuple[list[tuple[int, ...]] | None, int, bool]:
    """Complete exact-cover search of the n host vertices by the options:
    the certificate (None when there is none), the options tried, and
    whether the search stopped at ``TRUNCATED_NODE_LIMIT``.

    ``live`` is the int of the options disjoint from the covered vertices.
    The search branches on the uncovered vertex with the fewest live options
    (ties: smallest id) and tries them in ascending id.  Choosing an option
    removes the live options it meets; the removed bits go on a trail and
    come back on backtrack, as in Algorithm X (Knuth, "Dancing Links",
    2000).  The search runs on that trail, not on the Python stack, so its
    depth is bounded only by v(H) / v(F).

    After a truncated listing the search stops at ``TRUNCATED_NODE_LIMIT``
    options tried.
    """
    covered = bytearray(n)

    def options(live: int) -> int:
        """The live options of the uncovered vertex with the fewest."""
        best, best_v = len(witnesses) + 1, -1
        for v in range(n):
            if not covered[v]:
                count = (at_vertex[v] & live).bit_count()
                if count < best:
                    best, best_v = count, v
                    if not count:
                        return 0
        return at_vertex[best_v] & live

    limit = TRUNCATED_NODE_LIMIT if truncated else -1
    uncovered, live = n, (1 << len(witnesses)) - 1
    trail: list[tuple[int, int, int]] = []  # per choice: option, options its frame has left, live ones it removed
    nodes = 0
    cand = options(live)
    while True:
        if cand:
            if nodes == limit:
                return None, nodes, True
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            nodes += 1
            gone = 0
            for v in witnesses[i]:
                gone |= at_vertex[v]
                covered[v] = 1
            gone &= live
            live ^= gone
            uncovered -= len(witnesses[i])
            trail.append((i, cand, gone))
            if not uncovered:
                return [witnesses[i] for i, _, _ in trail], nodes, False
            cand = options(live)
        elif trail:
            i, cand, gone = trail.pop()
            live |= gone
            uncovered += len(witnesses[i])
            for v in witnesses[i]:
                covered[v] = 0
        else:
            return None, nodes, False


def find_factor(f: Hypergraph, h: Hypergraph, cap: int = DEFAULT_CAP) -> FactorSearchResult:
    """Complete search for vertex-disjoint copies of f covering V(H).

    The options are the host bitmasks of the copy images, ordered by their
    sorted vertices; each option's vertices are read from its witness
    embedding.  Before the exact cover (:func:`_exact_cover`), refutations
    may answer "absent" with a certificate in ``refutation`` that
    :func:`validate_refutation` checks without this search:

    * ``{"kind": "divisibility"}``: v(F) does not divide v(H).
    * ``{"kind": "lattice", "q": 2, "w": [...]}``: a 0/1 vector of odd
      weight that every copy image meets evenly, so no disjoint images sum
      to the all-ones vector (a divisibility barrier).
    * ``{"kind": "space", "A": [...]}``: host vertices meeting every copy
      image with v(F)·|A| < v(H), so fewer than v(H)/v(F) copies can be
      disjoint (a space barrier).  Its search stops at
      ``SPACE_NODE_LIMIT`` nodes.

    The tries run in this order: divisibility; the space search on the host
    edges (:func:`_edge_refutation`), since a set meeting every edge meets
    every copy; the copy listing; parity and then the space search on the
    copy images; the exact cover.  A single edge's images are the host's
    edges, which :func:`copy_images` lists with no search, so it skips the
    image space search, a repeat of the edge try.
    The edge try runs whatever ``cap``, and an answer from it lists no copy
    (``stats["copies"]`` None).  The image refutations are tried only when
    the copy listing is complete, since a sub-family proves nothing.
    Whatever they leave goes to the exact cover, whose "absent" is a proof
    only through that search and carries no ``refutation``; a refuted
    answer has ``stats["nodes"]`` 0.  ``cap`` bounds the copies listed by
    :func:`copy_images`; a hit cap downgrades "absent" to "inconclusive".

    Every answer's ``stats`` holds ``nodes`` (exact-cover options tried),
    ``copies`` (copy images listed, None when no listing ran),
    ``truncated`` (the listing hit ``cap``) and ``node_limit_hit``; the
    edgeless-pattern answer adds its ``reason``.
    """
    _check_uniformity(f, h)
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    stats: dict = {"nodes": 0, "copies": None, "truncated": False, "node_limit_hit": False}
    if h.n % f.n != 0:
        return FactorSearchResult("absent", None, stats, {"kind": "divisibility"})
    if h.n == 0:
        return FactorSearchResult("found", [], stats)
    if not f.edges:
        stats["reason"] = "edgeless-pattern"
        blocks = [tuple(range(i, i + f.n)) for i in range(0, h.n, f.n)]
        return FactorSearchResult("found", blocks, stats)

    side = _edge_refutation(h, (h.n - 1) // f.n)
    if side is not None:
        return FactorSearchResult("absent", None, stats, {"kind": "space", "A": side})
    masks, witnesses, at_vertex, truncated = _options(f, h, cap)
    stats.update(copies=len(masks), truncated=truncated)
    refutation = None if truncated else _image_refutation(masks, at_vertex, h.n, f.n, not _is_one_edge(f))
    if refutation is not None:
        return FactorSearchResult("absent", None, stats, refutation)
    certificate, stats["nodes"], stats["node_limit_hit"] = _exact_cover(h.n, witnesses, at_vertex, truncated)
    if certificate is not None:
        return FactorSearchResult("found", certificate, stats)
    return FactorSearchResult("inconclusive" if truncated else "absent", None, stats)


def _plain_images(f: Hypergraph, h: Hypergraph) -> set[int]:
    """Host bitmasks of the copy images of f, by a plain search: pattern
    vertices in order of first appearance in the sorted edge list (isolated
    ones last), each pattern edge checked against h once its last vertex is
    placed."""
    order = list(dict.fromkeys([v for e in sorted(f.edges) for v in e] + list(range(f.n))))
    closing: list[list[tuple[int, ...]]] = [[] for _ in order]
    rank = {v: i for i, v in enumerate(order)}
    for e in f.edges:
        closing[max(rank[v] for v in e)].append(e)
    phi = [0] * f.n
    images: set[int] = set()

    def place(i: int, used: int) -> None:
        if i == len(order):
            images.add(used)
            return
        for w in range(h.n):
            if not used >> w & 1:
                phi[order[i]] = w
                if all(frozenset(phi[v] for v in e) in h.edge_set for e in closing[i]):
                    place(i + 1, used | 1 << w)

    place(0, 0)
    return images


def validate_refutation(f: Hypergraph, h: Hypergraph, cert) -> bool:
    """Does ``cert`` prove that h has no f-factor?  The copy images are
    listed by :func:`_plain_images`, not by the search of :func:`find_factor`."""
    if f.k != h.k or f.n == 0 or not isinstance(cert, dict):
        return False
    kind = cert.get("kind")
    if kind == "divisibility":
        return cert == {"kind": kind} and h.n % f.n != 0
    if kind == "space":
        side = cert.get("A")
        if cert.keys() != {"kind", "A"} or not isinstance(side, list):
            return False
        if not all(type(v) is int and 0 <= v < h.n for v in side) or len(set(side)) != len(side):
            return False
        if f.n * len(side) >= h.n:
            return False
        hit = sum(1 << v for v in side)
        return all(img & hit for img in _plain_images(f, h))
    if kind == "lattice":
        q, w = cert.get("q"), cert.get("w")
        if cert.keys() != {"kind", "q", "w"} or type(q) is not int or q != 2:
            return False
        if not isinstance(w, list) or len(w) != h.n or not all(type(x) is int and x in (0, 1) for x in w):
            return False
        if sum(w) % 2 != 1:
            return False
        odd = sum(1 << v for v, x in enumerate(w) if x)
        return all((img & odd).bit_count() % 2 == 0 for img in _plain_images(f, h))
    return False


def validate_factor_certificate(
    f: Hypergraph, h: Hypergraph, copies: list[tuple[int, ...]]
) -> bool:
    if f.k != h.k or not isinstance(copies, (list, tuple)):
        return False
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
        return asdict(self)


def _deficit(p: float, tuple_family_size: int, edge_tuple_count: int, n_pow_k: int) -> float:
    return (p * tuple_family_size - edge_tuple_count) / n_pow_k


def _check_p(p: float) -> None:
    """Refuse a target density outside [0, 1]; NaN fails both comparisons."""
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")


def _edges_array(h: Hypergraph) -> np.ndarray:
    import numpy as np

    flat = np.fromiter(chain.from_iterable(h.edges), dtype=np.int64, count=len(h.edges) * h.k)
    return flat.reshape(-1, h.k)


# Largest uniformity sampled denseness accepts: a batch sums over the k!
# orderings of the edges, or the (k-1)! of their (k-1)-sets where
# _sampled_worst groups them.  A one-edge k-graph on k vertices takes about
# 0.005 ms per sample at k = 4, 0.023 ms at k = 5 and 0.15-0.19 ms at k = 6;
# the complete k-graph on 12 vertices, grouped, 0.0035, 0.017-0.021 and
# 0.11-0.13 ms (640 samples, best of 7, 2-vCPU Xeon, Python 3.11).  k = 7
# would add a factor 7.  The singleton family of estimate_S_denseness gives
# the same deficit.
_SAMPLED_K_LIMIT = 6

# Most cells n^k of a host that directed-family sampling accepts (ten
# million): a sample's joint tables hold up to n^k cells.  A sampling batch
# of B samples holds B times the cells of one sample, and that too stays
# within this limit; so do its draws, one float64 array of B times the cells.
DENSE_CELL_LIMIT = 10**7

# Most samples drawn and counted together.
_SAMPLE_BATCH = 64


def _completion_words(edges: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Group the pairs (T, v) of ``edges``, T a (k-1)-set and T + v an edge,
    by v's 64-bit word and by T: one int64 key each, (word, T in base n,
    v & 63), and one sort.  The caller checks that the keys fit.

    Returns (sets, bits, bounds): entry j is T = ``sets[j]`` with the bits
    v & 63 of its completions v in one word set in ``bits[j]``; word w's
    entries are ``bounds[w]:bounds[w + 1]``.
    """
    import numpy as np

    k = edges.shape[1]
    radix = n ** np.arange(k - 2, -1, -1)
    keys = [((edges[:, j] >> 6) * n ** (k - 1) + np.delete(edges, j, axis=1) @ radix) << 6 | edges[:, j] & 63
            for j in range(k)]
    keys = np.sort(np.concatenate(keys))
    words_sets = keys >> 6
    new = np.ones(len(keys), dtype=bool)
    new[1:] = words_sets[1:] != words_sets[:-1]
    entries = np.flatnonzero(new)
    bits = np.bitwise_or.reduceat(np.left_shift(np.uint64(1), (keys & 63).astype(np.uint64)), entries)
    words, code = np.divmod(words_sets[entries], n ** (k - 1))
    sets = np.empty((len(entries), k - 1), dtype=np.int64)
    for col in range(k - 2, -1, -1):
        code, sets[:, col] = np.divmod(code, n)
    return sets, bits, np.searchsorted(words, np.arange(-(-n // 64) + 1))


def _edge_tuple_counts(rows: np.ndarray, tables: list, n: int, width: int,
                       weights: np.ndarray | None = None) -> np.ndarray:
    """Per sample, the ordered tuples of distinct vertices that every joint
    table allows and whose vertices form an edge.

    ``tables`` holds pairs (axes, table): ``table`` has one row per cell
    of V^axes in lexicographic order and one column per sample.  Each
    ordering of the columns of ``rows`` puts one row vertex at each
    position; the tables' rows at the rows' cells are gathered, ANDed and
    added to an int16 tally, which is summed once.  The rows are the edges,
    or (k-1)-sets T with tables over positions 1..k-1 and ``weights[T, s]``
    the vertices completing T that sample s allows at the position left
    out, which weight the tally.  A tally cell gains at most k! <= 7!: a
    host with an edge has n >= k, and the estimators refuse k > 6 or
    n^k > ``DENSE_CELL_LIMIT``.
    """
    import numpy as np

    m = len(rows)
    tally = np.zeros((m, width), dtype=np.int16)
    hit = np.empty((m, width), dtype=bool)
    gathered = np.empty((m, width), dtype=bool)
    for perm in permutations(rows.T) if m else ():  # perm[pos - 1]: the vertices at position pos
        for t, (axes, table) in enumerate(tables):
            cell = perm[axes[0] - 1]
            for pos in axes[1:]:
                cell = cell * n + perm[pos - 1]
            np.take(table, cell, axis=0, out=gathered if t else hit)
            if t:
                hit &= gathered
        tally += hit if tables else 1
    if weights is None:
        return tally.sum(axis=0)
    # a weight is one word's popcount, at most 64
    wide = m * 64 * factorial(rows.shape[1]) >= 2**31
    return np.einsum("ij,ij->j", tally, weights, dtype=np.int64 if wide else np.int32)


def _sampled_worst(h: Hypergraph, p: float, fam, sample_count: int, seed: int) -> float:
    """Worst deficit over samples 0..sample_count-1 of the canonical family
    ``fam``.

    One generator seeded by ``seed`` serves the whole call: sample i takes
    the i-th block of ``cells`` draws of its stream, which fills the
    members' tables in family order, and a cell is allowed when its draw is
    below 1/2.  Up to ``_SAMPLE_BATCH`` samples are drawn by one call into
    one float64 array, with B times the cells one sample holds (its draws,
    its joint tables and a tally cell per counted row) within
    ``DENSE_CELL_LIMIT`` unless one sample alone holds more.  Members that
    share positions are ANDed into one joint table over the union of their
    positions.  A sample's allowed-tuple count is the product, in Python
    ints, of its joint tables' counts and n per free position; the edge
    count reads each joint table transposed to (cells, B).

    When a position q is a member alone and the host is dense enough (see
    ``grouped``), the edges are grouped once by their (k-1)-sets T, and per
    batch N[T, s] is the popcount of T's completion words ANDed with sample
    s's packed table at q: the counter then takes the (k-1)! orderings of
    the T rows, weighted by N, in place of the k! orderings of the edges.
    Each deficit goes through :func:`_deficit` with the same ints as one
    sample at a time would give it, so neither the batch width, nor
    ``sample_count``, nor the rows counted change any sample's deficit.
    """
    import numpy as np

    n, k = h.n, h.k
    tables_of, cells = {}, 0
    for s in fam:
        tables_of[s] = slice(cells, cells + n ** len(s))
        cells += n ** len(s)
    shared = UnionFind(k + 1)
    for s in fam:
        for pos in s[1:]:
            shared.union(s[0], pos)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for s in fam:
        groups.setdefault(shared.find(s[0]), []).append(s)
    joints = [(sorted({pos for s in members for pos in s}), members) for members in groups.values()]
    free = n ** (k - sum(len(axes) for axes, _ in joints))
    rows = _edges_array(h)
    # Completion words pay off where the (k-1)-sets average four completions
    # per word, so that they give at most a quarter of the k·m rows the edges
    # give; every key of _completion_words must also fit an int64.
    words = -(-n // 64)
    grouped = 0 < 4 * comb(n, k - 1) * words <= k * len(rows) and words * 64 * n ** (k - 1) <= 2**63
    q = next((axes[0] for axes, _ in joints if len(axes) == 1), None) if grouped else None
    place = list(range(k + 1))  # position -> the counter's position
    if q is not None:
        rows, bits, bounds = _completion_words(rows, n)
        place = [pos - (pos > q) for pos in place]
    held = cells + sum(n ** len(axes) for axes, _ in joints) + len(rows)
    width = max(1, min(_SAMPLE_BATCH, DENSE_CELL_LIMIT // max(1, held)))
    n_pow_k = n**k
    rng = np.random.default_rng(seed)
    draws = np.empty((width, cells))
    drawn = np.empty((width, cells), dtype=bool)
    if q is not None:  # reused by every batch: fresh arrays per batch cost page faults
        packed = np.zeros((width, 8 * words), dtype=np.uint8)
        selected = np.empty((len(rows), width), dtype=np.uint64)
        popcounts = np.empty((len(rows), width), dtype=np.uint8)
    worst = float("-inf")
    for start in range(0, sample_count, width):
        size = min(width, sample_count - start)
        rng.random(out=draws[:size])
        samples = np.less(draws[:size], 0.5, out=drawn[:size])
        allowed = [free] * size
        tables, weights = [], None
        for axes, members in joints:
            joint = reduce(np.logical_and, [
                samples[:, tables_of[s]].reshape([size] + [n if pos in s else 1 for pos in axes])
                for s in members]).reshape(size, -1)
            allowed = [a * c for a, c in zip(allowed, np.count_nonzero(joint, axis=1).tolist())]
            if axes == [q]:
                masks = np.packbits(joint, axis=1, bitorder="little")
                packed[:size, :masks.shape[1]] = masks
                xq = packed[:size].view("<u8")
                for w, (lo, hi) in enumerate(pairwise(bounds)):
                    np.bitwise_and(bits[lo:hi, None], xq[:, w], out=selected[lo:hi, :size])
                weights = np.bitwise_count(selected[:, :size], out=popcounts[:, :size])
            else:
                tables.append(([place[pos] for pos in axes], np.ascontiguousarray(joint.T)))
        counts = _edge_tuple_counts(rows, tables, n, size, weights).tolist()
        worst = max(worst, *(_deficit(p, a, c, n_pow_k) for a, c in zip(allowed, counts)))
    return worst


def estimate_denseness(
    h: Hypergraph, p: float, sample_count: int, seed: int, workers: int = 1
) -> DensenessEstimate:
    """Worst deficit p·|X_1|···|X_k| - e(X_1..X_k), normalized by n^k, over
    uniformly sampled subset tuples.

    One generator seeded by ``seed`` draws every sample: sample i takes the
    next k·n draws of its stream, one vertex mask per position, so the first
    samples of a longer run are the samples of a shorter one.  Samples are
    drawn, by one call per batch, and counted in batches of up to 64 on the
    calling thread, and only the worst deficit so far is kept, so memory is
    bounded by the batch, not by ``sample_count``.  Where the (k-1)-sets
    average four completions per 64-bit word, a batch counts the edges
    through those words: per sample, the popcount of a set's words within
    X_1 weights the set's (k-1)! orderings over X_2..X_k.  ``workers`` is
    accepted and ignored.
    A sampled report is a lower bound on the slack a denseness verdict would
    need, never a verdict itself.
    """
    _check_p(p)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if h.n == 0:
        raise ValueError("sampled denseness needs a host with at least one vertex")
    if h.k > _SAMPLED_K_LIMIT:
        raise ValueError(f"sampled denseness sums k! orderings per sample; k={h.k} is above "
                         f"{_SAMPLED_K_LIMIT} (the family [[1], ..., [k]] gives the same deficit)")
    singletons = tuple((pos,) for pos in range(1, h.k + 1))
    worst = _sampled_worst(h, p, singletons, sample_count, seed)
    return DensenessEstimate(p, sample_count, worst, "sampled", seed)


def _edge_tensor(h: Hypergraph) -> np.ndarray:
    import numpy as np

    tensor = np.zeros((h.n,) * h.k, dtype=bool)
    columns = _edges_array(h).T
    for order in permutations(range(h.k)):
        tensor[tuple(columns[list(order)])] = True
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
    order).  As in :func:`estimate_denseness`, one generator seeded by
    ``seed`` draws every sample, sample i taking the next Σ_S n^|S| draws of
    its stream for the members in canonical order; with the singleton family
    {{1},...,{k}} the two estimators agree bit for bit under equal seeds.
    As there, samples are drawn and counted in batches of up to 64 on the
    calling thread, keeping only the worst deficit so far, and ``workers``
    is accepted and ignored.  A sample holds its tables (n^|S| cells each)
    and, for members that share positions, one joint table of up to n^k
    cells, so hosts with more than ``DENSE_CELL_LIMIT`` cells are refused
    with ``ValueError``.
    """
    _check_p(p)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    if h.n == 0:
        raise ValueError("sampled denseness needs a host with at least one vertex")
    fam = canonical_family(family)
    for s in fam:
        if any(i < 1 or i > h.k for i in s):
            raise ValueError(f"family member {s} is not a subset of 1..{h.k}")
    cells = 1
    for _ in range(h.k):  # n^k counted up, so a huge k never builds a huge int
        cells *= h.n
        if cells > DENSE_CELL_LIMIT:
            raise ValueError(f"a dense n^k array for n={h.n}, k={h.k} has more than "
                             f"{DENSE_CELL_LIMIT} cells, the limit")
    worst = _sampled_worst(h, p, fam, sample_count, seed)
    return DensenessEstimate(p, sample_count, worst, "sampled", seed, [list(s) for s in fam])


EXHAUSTIVE_LIMIT = 12


def _vertex_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of the rows of ``terms``, a (v, ...) float array with 1 <= v <= 128,
    added in the order ``ndarray.sum(axis=1)`` adds one contiguous row of
    length v, so ``_vertex_sum(a)`` equals ``a.T.copy().sum(axis=1)`` bit for
    bit.  That order is numpy's pairwise block: below 8 rows, left to right;
    from 8, eight running partial sums over whole blocks of 8 rows, combined
    as ((0+1)+(2+3))+((4+5)+(6+7)), and then the leftover rows left to right.
    Either way the sum starts from +0.0, numpy's identity for add, so a sum
    of negative zeros is +0.0 as there.
    """
    count = len(terms)
    if count < 8:
        total = 0.0 + terms[0]
        for row in terms[1:]:
            total += row
        return total
    tail = count - count % 8
    partial = terms[:8]
    for start in range(8, tail, 8):
        partial = partial + terms[start:start + 8]
    pairs = partial[0::2] + partial[1::2]
    total = 0.0 + ((pairs[0] + pairs[1]) + (pairs[2] + pairs[3]))
    for row in terms[tail:]:
        total += row
    return total


def _pair_counts(tensor: np.ndarray) -> np.ndarray:
    """(n, n, 2^n) array of exact counts: entry [u, v, X] is M_X[u, v], the
    number of x in X with {x, u, v} an edge, for every set X (the masks
    0..2^n-1 in order).  It is built by doubling: the sets whose top vertex
    is j, the block [2^j, 2^(j+1)), are the sets below 2^j plus j, so
    M_X = M_{X-j} + T[j] is one ``np.add`` per vertex.  The tensor is
    symmetric, so row u of M_X is also its column u.  The dtype is the
    smallest that holds (n-1)(n-2), the largest sum of a column of M_X."""
    import numpy as np

    n = len(tensor)
    dtype = np.min_scalar_type((n - 1) * (n - 2))
    byte_tensor = tensor.astype(dtype)
    counts = np.zeros((n, n, 1 << n), dtype=dtype)
    for j in range(n):
        np.add(counts[:, :, :1 << j], byte_tensor[j][:, :, None], out=counts[:, :, 1 << j:2 << j])
    return counts


def _row_bounds(counts: np.ndarray, sizes: np.ndarray, p: float) -> np.ndarray:
    """U[X] = the sum over u, v of max(0, p|X| - M_X[u, v]), for every set X
    of :func:`_pair_counts`, with ``sizes`` the set sizes as floats.

    With t = p|X|, the entries below t are the integers at most ceil(t) - 1,
    so U = t·(their number) - (their sum): one byte compare, one byte
    multiply and integer sums, first over v (a row of M_X sums to at most
    (n-1)(n-2), which the dtype holds) and then over u.  No sort and no
    float pass over the counts."""
    import numpy as np

    n = len(counts)
    t = p * sizes
    held = np.less(counts, np.ceil(t).astype(counts.dtype)).view(counts.dtype)
    wide = np.min_scalar_type(n * (n - 1) * (n - 2))

    def total(a: np.ndarray) -> np.ndarray:
        return np.add.reduce(np.add.reduce(a, axis=1, dtype=counts.dtype), axis=0, dtype=wide)

    number = total(held)
    np.multiply(held, counts, out=held)
    return t * number - total(held)


def _bounds_by_size(counts: np.ndarray, columns: np.ndarray, sizes: np.ndarray, p: float) -> np.ndarray:
    """(n+1, m) table for the m sets X at ``columns`` of :func:`_pair_counts`,
    whose sizes are ``sizes``: entry [b, j] bounds from above the pair
    deficit of X = columns[j] with any set of b vertices, taken either way
    round.

    The pair counts of X with a b-set Y are, per vertex v, sums over Y of
    column v of M_X, so each is at least the sum L_b(v) of that column's b
    smallest entries.  The counts of the m sets are gathered vertex-major
    into one (n+1, n, m) array ``least[b, v, j]``: plane u+1 holds row u of
    every M_X, and plane 0 stays zero, as L_0.  An odd-even transposition
    network sorts planes 1..n, comparing whole (n, m) planes per step, and
    running sums turn them into L_1..L_n in place; L_n is at most
    (n-1)(n-2), which the dtype holds.  Thresholds are the larger of
    (p·|X|)·b and (p·b)·|X| in floating point, so one table bounds the pair
    as the scan computes it with X first or with Y first.  The scan sums
    each pair's n clipped terms as one contiguous row, and a bound one ulp
    below that sum would prune a pair that ties the worst; so the n vertex
    rows of each size's terms are added by :func:`_vertex_sum`, in that row
    sum's own order, and each entry equals the sum of X's n terms taken as
    a row.
    """
    import numpy as np

    n = len(counts)
    least = np.zeros((n + 1, n, len(columns)), dtype=counts.dtype)
    planes = least[1:]
    np.take(counts, columns, axis=2, out=planes)
    for step in range(n):
        low, high = planes[step % 2:n - 1:2], planes[step % 2 + 1:n:2]
        smaller = np.minimum(low, high)
        np.maximum(low, high, out=high)
        low[...] = smaller
    for b in range(2, n + 1):
        np.add(least[b], least[b - 1], out=least[b])
    by_size = np.empty((n + 1, len(columns)))
    b = np.arange(n + 1.0)[:, None]
    width = 256
    for start in range(0, len(columns), width):
        part = slice(start, start + width)
        block = sizes[part]
        terms = np.empty((n, n + 1, len(block)))
        np.copyto(terms, least[:, :, part].transpose(1, 0, 2))
        np.subtract(np.maximum(p * block * b, p * b * block), terms, out=terms)
        np.maximum(terms, 0.0, out=terms)
        by_size[:, part] = _vertex_sum(terms)
    return by_size


def exact_denseness_small(h: Hypergraph, p: float) -> DensenessEstimate:
    """Exact worst deficit over all subset tuples, for 3-graphs with n <= 12.

    For a pair (X_1, X_2) the optimal X_3 keeps exactly the vertices v whose
    pair count c(v) is below p|X_1||X_2|, so the pair's deficit is
    sum_v max(0, p|X_1||X_2| - c(v)); each unordered pair is scanned once,
    with X_1 the lower bitmask, its n terms summed as one row.  Most pairs
    are never scanned.  Both tiers of bounds read the (n, n) count matrix
    M_X of every set X (M_X[u, v] counts the x in X with {x, u, v} an edge),
    built in bytes by :func:`_pair_counts`; c(v) is the sum over y in X_2 of
    M_{X_1}[y, v], and, the count being symmetric in the two sets, the sum
    over y in X_1 of M_{X_2}[y, v].

    * Tier 1, a sort-free row bound (:func:`_row_bounds`).  With a = |X|,
      U[X] = sum over u, v of max(0, p·a - M_X[u, v]).  The pair term at v
      with |X_2| = b is max(0, sum over y in X_2 of (p·a - M_X[y, v])), at
      most sum over y of max(0, p·a - M_X[y, v]); summed over v, every
      deficit of X with any set, in either role, is at most U[X].  (U
      swaps the column-minimum bound's max over b with the sum over v.)
      The row of the set with the largest U is scanned first, over the X_2
      at or above it, and its best pair is the starting worst.  A set whose
      U is at most that worst less a slack is dead: no pair it is in can
      beat the worst.  The slack, 1e-12·p·n^3, is far above the rounding of
      either side (about n·2^-53 times p·n^3, the scale of every deficit
      and of U), which is real: on the edgeless 6-vertex host at p = 0.01,
      ({0..4}, V) scans 1.8000000000000003 where U of {0..4} is 1.8.
    * Tier 2, the column-minimum bound, on the live sets only.  With
      |X_1| = a, c(v) for any b-set X_2 is at least the sum of the b
      smallest entries of column v of M_{X_1}, so replacing c(v) by that sum
      bounds every X_2 of size b at once.  The comparison and the clipping
      are monotone in floating point and the n terms are added in the same
      order, so the bound is never below the scanned value, not even by one
      ulp on a pair that ties the worst.  The bound of X_2 with |X_1|
      bounds the same pair.  :func:`_bounds_by_size` builds it for the live
      sets as (n+1, m) columns: their byte counts sorted by a network of
      whole-plane min/max steps and summed in place, then a float pass over
      every size at once per block of 256 sets that adds the n vertex rows
      in the order the scan's ``.sum(axis=1)`` adds a row.
    * Best-first rows.  Live X_1 rows are visited in stable descending
      order of their largest bound, and the scan stops at the first row
      whose bound is at most the running worst.  Within a row only the
      live X_2 above it whose two bounds both exceed the worst are scanned,
      in one matmul.  A pair with a dead side, or skipped, has a deficit at
      most the worst at the time, and the worst only grows, so skipping
      never changes the maximum, which is bit-identical to the full scan.
      Sums are screened in any order first, with a relative slack of 1e-12
      (far above the n·2^-53 either order can lose), and only rows that can
      beat the worst are summed again in the scan's own order.

    Memory is O(2^n · n) floats (the subsets) plus O(2^n · n²) bytes (the
    counts and U's compare mask, 590 KB each at n = 12, and the sorted
    counts of the live sets); no (2^n, n, n) float array is built.
    """
    _check_p(p)
    if h.k != 3:
        raise ValueError("exhaustive mode is implemented for 3-graphs only")
    if h.n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive mode refused for n > {EXHAUSTIVE_LIMIT}")
    n = h.n
    if n == 0:
        return DensenessEstimate(p, 1, 0.0, "exhaustive")
    import numpy as np

    count = 1 << n
    subsets = np.empty((count, n))  # row X holds the 0/1 members of X, doubled like the counts
    subsets[0] = 0.0
    for j in range(n):
        block = subsets[1 << j:2 << j]
        block[...] = subsets[:1 << j]
        block[:, j] = 1.0
    ones = np.ones(n)
    sizes = subsets @ ones
    size_index = sizes.astype(np.intp)
    counts = _pair_counts(_edge_tensor(h))

    def scan(i: int, columns: np.ndarray, worst: float) -> float:
        """The larger of ``worst`` and the deficits of set i with the sets at
        ``columns``, all at or above i, each summed as one row."""
        pair_counts = np.take(subsets, columns, axis=0) @ counts[:, :, i].astype(np.float64)
        terms = (p * sizes[i] * sizes[columns])[:, None] - pair_counts
        np.maximum(terms, 0.0, out=terms)
        close = terms @ ones > worst * (1 - 1e-12)
        if close.any():
            worst = max(worst, float(terms[close].sum(axis=1).max()))
        return worst

    row_bound = _row_bounds(counts, sizes, p)
    top = int(np.argmax(row_bound))
    worst = scan(top, np.arange(top, count), 0.0)
    live = np.flatnonzero(row_bound > worst - 1e-12 * p * n**3)
    by_size = _bounds_by_size(counts, live, sizes[live], p)
    bounds = by_size.T
    row_best = by_size.max(axis=0)
    live_size = size_index[live]
    for r in np.argsort(-row_best, kind="stable"):
        if row_best[r] <= worst:
            break
        i = live[r]
        alive = (bounds[r] > worst)[live_size[r:]] & (by_size[size_index[i], r:] > worst)
        if alive.any():
            worst = scan(i, live[r:][alive], worst)
    return DensenessEstimate(p, count**3, worst / n**3, "exhaustive")


# ---------------------------------------------------------------------------
# reachability counting
# ---------------------------------------------------------------------------

def count_reachable_sets(h: Hypergraph, f: Hypergraph, u: int, v: int) -> int:
    """Number of (v(F)-1)-sets W avoiding {u, v} such that both {u} ∪ W and
    {v} ∪ W span factor-patterned subgraphs.

    A host on v(F) vertices has an F-factor exactly when its vertex set is a
    copy image, so one listing of the copy images of f in h decides every W:
    {v} ∪ W is tested as a lookup of its bitmask among the image keys.  Only
    the copy cap bounds the host: past ``DEFAULT_CAP`` copies it raises.
    """
    if u == v or not (0 <= u < h.n and 0 <= v < h.n):
        raise ValueError("u and v must be distinct host vertices")
    if f.n == 0:
        raise ValueError("pattern must have at least one vertex")
    images, truncated = copy_images(f, h)
    if truncated:
        raise ValueError(f"more than {DEFAULT_CAP} copies: no exact reachability count")
    bu, bv = 1 << u, 1 << v
    return sum(1 for m in images if m & bu and not m & bv and m ^ bu | bv in images)
