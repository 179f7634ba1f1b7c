"""Shadow-disjoint bipartitions, the integer lattice they generate, and the
resulting transferral membership test.

A bipartition {A, B} of the vertex set is s-shadow disjoint when any two
edges whose index vectors w.r.t. {A, B} differ meet in fewer than s vertices.
The size vectors (|A|, |B|) of all such bipartitions generate a lattice in
Z^2; membership of (1, -1) is the decided property.  The bipartitions are
the two-part assignments, A as part 0, of the part-assignment search shared
with the deciders, :class:`factorlab.hypergraph.PartAssignments`.  The
answers read only their sizes, so one walk counts the bipartitions by |A|
and holds none of them; the listing is kept for callers that want the sides.

Membership is computed twice on every decision — once through an integer
echelon form over Z^d, which also gives the witness combination, and once
through a gcd shortcut valid because all generators share the coordinate sum
v(F) — and the two must agree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import gcd

from .deciders import DecisionReport, PreconditionError, _base_flags
from .hypergraph import Hypergraph, PartAssignments, Partition


@dataclass(frozen=True)
class Lattice:
    """Lattice spanned by ``generators`` in Z^d.  ``basis`` is its echelon
    form: positive pivots in strictly increasing columns, entries above a
    pivot in [0, pivot).  ``combinations[i]`` yields ``basis[i]`` from the
    generators."""

    generators: tuple[tuple[int, ...], ...]
    basis: tuple[tuple[int, ...], ...]
    combinations: tuple[tuple[int, ...], ...]


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


def _check_shadow_order(f: Hypergraph, s: int) -> None:
    if not 2 <= s <= f.k - 1:
        raise PreconditionError(f"shadow order must satisfy 2 <= s <= k-1, got s={s}")


def enumerate_shadow_disjoint_bipartitions(f: Hypergraph, s: int) -> list[Partition]:
    """All bipartitions (A, B), as two-part :class:`Partition` objects, such
    that edges with different index vectors meet in fewer than s vertices, in
    lexicographic order with A first.

    These are the answers of :class:`PartAssignments` with two parts, part 0
    being A: each class of ``overlap_classes(s)`` keeps one index vector.
    """
    _check_shadow_order(f, s)
    return [Partition.from_assignment(part_of, 2) for part_of in PartAssignments(f, 2, [0] * f.n, s=s)]


def bipartition_sizes(f: Hypergraph, s: int) -> dict[int, int]:
    """|A| -> number of s-shadow-disjoint bipartitions (A, B), by ascending
    |A|, from one walk that reads each assignment in place and keeps none."""
    _check_shadow_order(f, s)
    counts = [0] * (f.n + 1)
    for part_of in PartAssignments(f, 2, [0] * f.n, s=s):
        counts[part_of.count(0)] += 1
    return {a: c for a, c in enumerate(counts) if c}


def size_generators(f: Hypergraph, s: int) -> list[tuple[int, int]]:
    """Deduplicated (|A|, f-|A|) vectors over all s-shadow-disjoint bipartitions."""
    return [(a, f.n - a) for a in bipartition_sizes(f, s)]


def lattice_from_generators(gens) -> Lattice:
    """Echelon form of the lattice spanned by integer generators in Z^d.

    Column by column, the extended gcd folds every pending row into one pivot
    row; the leftovers, zero in that column, go on to the next column.
    """
    gens = tuple(tuple(map(int, g)) for g in gens)
    if not gens:
        raise ValueError("empty generator set")
    if len({len(g) for g in gens}) != 1:
        raise ValueError("generators differ in length")
    dim, m = len(gens[0]), len(gens)
    # A row is a lattice vector followed by its combination of the generators,
    # at first a unit vector.
    pending = [[*g, *[0] * i, 1, *[0] * (m - 1 - i)] for i, g in enumerate(gens)]
    rows: list[list[int]] = []
    for col in range(dim):
        pivot = None
        rest = []
        for row in pending:
            b = row[col]
            if b == 0:
                rest.append(row)
            elif pivot is None:
                pivot = row
            elif b % pivot[col] == 0:  # the pivot stays; no gcd step needed
                q = b // pivot[col]
                rest.append([r - q * p for p, r in zip(pivot, row)])
            else:
                a = pivot[col]
                g, u, w = _xgcd(a, b)
                rest.append([(a // g) * r - (b // g) * p for p, r in zip(pivot, row)])
                pivot = [u * p + w * r for p, r in zip(pivot, row)]
        pending = rest
        if pivot is None:
            continue
        if pivot[col] < 0:
            pivot = [-c for c in pivot]
        for row in rows:
            q = row[col] // pivot[col]
            row[:] = [r - q * p for r, p in zip(row, pivot)]
        rows.append(pivot)
    return Lattice(gens, tuple(tuple(r[:dim]) for r in rows), tuple(tuple(r[dim:]) for r in rows))


def lattice_combination(lat: Lattice, vector) -> list[int] | None:
    """Integer coefficients over ``lat.generators`` reaching ``vector``, or
    None when it lies outside the lattice.  The target is reduced down the
    basis, and is a member when nothing is left; the combination is
    re-evaluated exactly against the generators."""
    target = tuple(int(c) for c in vector)
    dim = len(lat.generators[0])
    if len(target) != dim:
        raise ValueError(f"vector has {len(target)} coordinates, the lattice lives in Z^{dim}")
    rest = list(target)
    coeffs = [0] * len(lat.generators)
    for row, combo in zip(lat.basis, lat.combinations):
        col = next(i for i, c in enumerate(row) if c)
        q = rest[col] // row[col]
        rest = [t - q * b for t, b in zip(rest, row)]
        coeffs = [c + q * k for c, k in zip(coeffs, combo)]
    if any(rest):
        return None
    check = tuple(sum(c * g[i] for c, g in zip(coeffs, lat.generators)) for i in range(dim))
    if check != target:
        raise RuntimeError(f"combination {coeffs} re-evaluates to {check}, expected {target}")
    return coeffs


def lattice_contains(lat: Lattice, vector) -> bool:
    """Exact membership of an integer vector via the echelon basis."""
    return lattice_combination(lat, vector) is not None


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


def decide_trans(f: Hypergraph, s: int) -> DecisionReport:
    """Does (1, -1) lie in the lattice of s-shadow-disjoint bipartition sizes?

    The witness is an explicit integer combination of the generators; a
    refusal reports the gcd of first-coordinate differences, which is not 1
    exactly when the vector is missing.
    """
    t0 = time.perf_counter()
    gens = size_generators(f, s)
    lat = lattice_from_generators(gens)
    target = (1, -1)
    coeffs = lattice_combination(lat, target)
    via_gcd = shared_sum_contains(gens, target)
    if (coeffs is not None) != via_gcd:
        raise RuntimeError(
            f"membership cross-check failed: basis route {coeffs is not None}, gcd route {via_gcd}"
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
    if coeffs is not None:
        witness = {
            "combination": [
                [c, list(g)] for c, g in zip(coeffs, gens) if c != 0
            ],
            "target": [1, -1],
        }
        return DecisionReport("trans", True, witness, _base_flags(f), stats)
    return DecisionReport("trans", False, None, _base_flags(f), stats)
