"""Shadow-disjoint bipartitions, the 2-dimensional integer lattice they
generate, and the resulting transferral membership test.

A bipartition {A, B} of the vertex set is s-shadow disjoint when any two
edges whose index vectors w.r.t. {A, B} differ meet in fewer than s vertices.
The size vectors (|A|, |B|) of all such bipartitions generate a lattice in
Z^2; membership of (1, -1) is the decided property.

Membership is computed twice on every decision — once through an integer
echelon basis and once through a gcd shortcut valid because all generators
share the coordinate sum v(F) — and the two must agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .deciders import DecisionReport, PreconditionError, _base_flags
from .hypergraph import Hypergraph


@dataclass(frozen=True)
class Bipartition:
    """Ordered bipartition (A, B); either side may be empty."""

    a: tuple[int, ...]
    b: tuple[int, ...]


@dataclass(frozen=True)
class Lattice2:
    """Integer lattice in Z^2 with an echelon basis of at most two vectors."""

    generators: tuple[tuple[int, int], ...]
    basis: tuple[tuple[int, int], ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x*a + y*b == g == gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def enumerate_shadow_disjoint_bipartitions(f: Hypergraph, s: int) -> list[Bipartition]:
    """All bipartitions {A, B} such that edges with different index vectors
    meet in fewer than s vertices.

    Backtracking over vertices with the contrapositive propagated: edges
    sharing >= s vertices are merged into classes that must agree on |e ∩ A|,
    pruned through per-class intervals of achievable counts.
    """
    if not 2 <= s <= f.k - 1:
        raise ValueError(f"shadow order must satisfy 2 <= s <= k-1, got s={s}")
    m = len(f.edges)
    multi = [members for members in f.overlap_classes(s) if len(members) > 1]

    in_a = [False] * f.n
    assigned_a = [0] * m  # per edge: chosen vertices currently in A
    remaining = [f.k] * m  # per edge: vertices not yet assigned
    out: list[Bipartition] = []

    def feasible() -> bool:
        for members in multi:
            lo = max(assigned_a[i] for i in members)
            hi = min(assigned_a[i] + remaining[i] for i in members)
            if lo > hi:
                return False
        return True

    incident = [[] for _ in range(f.n)]
    for i, e in enumerate(f.edges):
        for v in e:
            incident[v].append(i)

    def assign(v: int) -> None:
        if v == f.n:
            out.append(
                Bipartition(
                    tuple(u for u in range(f.n) if in_a[u]),
                    tuple(u for u in range(f.n) if not in_a[u]),
                )
            )
            return
        for choice in (True, False):
            in_a[v] = choice
            for i in incident[v]:
                remaining[i] -= 1
                if choice:
                    assigned_a[i] += 1
            if feasible():
                assign(v + 1)
            for i in incident[v]:
                remaining[i] += 1
                if choice:
                    assigned_a[i] -= 1
        in_a[v] = False

    assign(0)
    return out


def size_generators(f: Hypergraph, s: int) -> list[tuple[int, int]]:
    """Deduplicated (|A|, f-|A|) vectors over all s-shadow-disjoint bipartitions."""
    sizes = sorted({len(bp.a) for bp in enumerate_shadow_disjoint_bipartitions(f, s)})
    return [(a, f.n - a) for a in sizes]


def lattice_from_generators(gens) -> Lattice2:
    """Echelon basis of the lattice spanned by 2d integer generators."""
    gens = tuple((int(x), int(y)) for x, y in gens)
    if not gens:
        raise ValueError("empty generator set")
    row0: tuple[int, int] | None = None  # pivot in the first coordinate
    tail = 0  # gcd of second coordinates of (0, y) rows
    for x, y in gens:
        if x != 0:
            if row0 is None:
                row0 = (x, y)
            else:
                a0, b0 = row0
                g, u, w = _xgcd(a0, x)
                leftover = (a0 // g) * y - (x // g) * b0
                row0 = (g, u * b0 + w * y)
                tail = gcd(tail, leftover)
            x, y = 0, 0
        tail = gcd(tail, y)
    basis = []
    if row0 is not None:
        a0, b0 = row0
        if a0 < 0:
            a0, b0 = -a0, -b0
        if tail:
            b0 %= tail
        basis.append((a0, b0))
    if tail:
        basis.append((0, tail))
    return Lattice2(gens, tuple(basis))


def lattice_contains(lat: Lattice2, vector) -> bool:
    """Exact membership of an integer vector via the echelon basis."""
    x, y = (int(c) for c in vector)
    rows = list(lat.basis)
    if rows and rows[0][0] != 0:
        a0, b0 = rows.pop(0)
        if x % a0 != 0:
            return False
        y -= (x // a0) * b0
        x = 0
    if x != 0:
        return False
    if rows:
        return y % rows[0][1] == 0
    return y == 0


def shared_sum_contains(gens, vector) -> bool:
    """Membership shortcut for generators that all share one coordinate sum.

    Writing generators as (a_i, t - a_i), a combination with coefficient sum m
    hits (x, y) iff m = (x+y)/t is an integer and gcd{a_i - a_0} divides
    x - m*a_0.
    """
    gens = [(int(a), int(b)) for a, b in gens]
    if not gens:
        raise ValueError("empty generator set")
    sums = {a + b for a, b in gens}
    if len(sums) != 1:
        raise ValueError("generators do not share a coordinate sum")
    total = sums.pop()
    x, y = (int(c) for c in vector)
    if total == 0:
        # Degenerate: all generators lie on the line u + v = 0.
        g = 0
        for a, _ in gens:
            g = gcd(g, a)
        if x + y != 0:
            return False
        return x == 0 if g == 0 else x % g == 0
    if (x + y) % total != 0:
        return False
    m = (x + y) // total
    a0 = gens[0][0]
    g = 0
    for a, _ in gens[1:]:
        g = gcd(g, a - a0)
    target = x - m * a0
    return target == 0 if g == 0 else target % g == 0


def shared_sum_combination(gens, vector) -> list[int] | None:
    """Integer coefficients over ``gens`` reaching ``vector``, or None.

    Valid only for generators sharing a coordinate sum; the returned
    combination re-evaluates to the target exactly.
    """
    gens = [(int(a), int(b)) for a, b in gens]
    if not shared_sum_contains(gens, vector):
        return None
    x, y = (int(c) for c in vector)
    total = gens[0][0] + gens[0][1]
    if total == 0:
        # Reach (x, -x) with multiples of the first coordinates alone.
        g, coeffs = 0, [0] * len(gens)
        for i, (a, _) in enumerate(gens):
            g2, u, w = _xgcd(g, a)
            coeffs = [c * u for c in coeffs]
            coeffs[i] = w
            g = g2
        scale = 0 if g == 0 else x // g
        coeffs = [c * scale for c in coeffs]
    else:
        m = (x + y) // total
        a0 = gens[0][0]
        # Combine differences a_i - a_0 to reach x - m*a_0, then fix the sum.
        g, diff_coeffs = 0, [0] * len(gens)
        for i, (a, _) in enumerate(gens[1:], start=1):
            g2, u, w = _xgcd(g, a - a0)
            diff_coeffs = [c * u for c in diff_coeffs]
            diff_coeffs[i] = w
            g = g2
        target = x - m * a0
        scale = 0 if g == 0 else target // g
        coeffs = [c * scale for c in diff_coeffs]
        coeffs[0] = m - sum(coeffs)
    check = (
        sum(c * a for c, (a, _) in zip(coeffs, gens)),
        sum(c * b for c, (_, b) in zip(coeffs, gens)),
    )
    if check != (x, y):
        raise RuntimeError(f"combination {coeffs} re-evaluates to {check}, expected {(x, y)}")
    return coeffs


def decide_trans(f: Hypergraph, s: int) -> DecisionReport:
    """Does (1, -1) lie in the lattice of s-shadow-disjoint bipartition sizes?

    The witness is an explicit integer combination of the generators; a
    refusal reports the gcd of first-coordinate differences, which exceeds 1
    exactly when the vector is missing.
    """
    if not 2 <= s <= f.k - 1:
        raise PreconditionError(f"shadow order must satisfy 2 <= s <= k-1, got s={s}")
    t0 = time.perf_counter()
    gens = size_generators(f, s)
    lat = lattice_from_generators(gens)
    target = (1, -1)
    via_basis = lattice_contains(lat, target)
    via_gcd = shared_sum_contains(gens, target)
    if via_basis != via_gcd:
        raise RuntimeError(
            f"membership cross-check failed: basis route {via_basis}, gcd route {via_gcd}"
        )
    a0 = gens[0][0]
    diff_gcd = 0
    for a, _ in gens[1:]:
        diff_gcd = gcd(diff_gcd, a - a0)
    stats = {
        "s": s,
        "generators": [list(g) for g in gens],
        "basis": [list(b) for b in lat.basis],
        "first-coordinate-difference-gcd": diff_gcd,
        "time_s": time.perf_counter() - t0,
    }
    if via_basis:
        coeffs = shared_sum_combination(gens, target)
        witness = {
            "combination": [
                [c, list(g)] for c, g in zip(coeffs, gens) if c != 0
            ],
            "target": [1, -1],
        }
        return DecisionReport("trans", True, witness, _base_flags(f), stats)
    return DecisionReport("trans", False, None, _base_flags(f), stats)
