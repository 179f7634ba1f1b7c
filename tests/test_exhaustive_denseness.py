"""The exhaustive denseness scan against the full pair scan it replaced,
bit for bit, and against a brute force over every subset triple."""

import random
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorlab import Hypergraph, exact_denseness_small
from factorlab.corpus import complete
from factorlab.verification import _bounds_by_size, _vertex_sum

FUZZ = settings(derandomize=True, max_examples=40, deadline=None)


def _dense_tensor(h: Hypergraph) -> np.ndarray:
    tensor = np.zeros((h.n,) * 3)
    for e in h.edges:
        for perm in permutations(e):
            tensor[perm] = 1.0
    return tensor


def reference_worst_deficit(h: Hypergraph, p: float) -> float:
    """The scan of every (X_1, X_2) pair up to swap symmetry, with the optimal
    X_3 read off per vertex, as ``exact_denseness_small`` computed it before
    its rows were bounded."""
    n = h.n
    if n == 0:
        return 0.0
    tensor = _dense_tensor(h)
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
    return worst / n**3


def brute_force_worst_deficit(h: Hypergraph, p: float) -> float:
    """max over all (X_1, X_2, X_3) of p|X_1||X_2||X_3| - e(X_1, X_2, X_3),
    over n^3, with e counting ordered triples whose set is an edge."""
    n = h.n
    if n == 0:
        return 0.0
    subsets = np.array([[(mask >> v) & 1 for v in range(n)] for mask in range(1 << n)], dtype=np.int64)
    counts = np.einsum("ai,bj,ck,ijk->abc", subsets, subsets, subsets,
                       _dense_tensor(h).astype(np.int64), optimize=True)
    sizes = subsets.sum(axis=1)
    volumes = sizes[:, None, None] * sizes[None, :, None] * sizes[None, None, :]
    return float((p * volumes - counts).max()) / n**3


def _random_host(rng: random.Random, n: int, density: float) -> Hypergraph:
    return Hypergraph(3, n, [e for e in combinations(range(n), 3) if rng.random() < density])


DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9)
PS = (0.01, 0.05, 0.1, 0.5, 0.9)
# Seeded cases per host size, 200 in all with the one at n = 12 below: few at
# n >= 10, where one reference scan takes 0.06-0.8 s.
SWEEP = {6: 70, 7: 65, 8: 45, 9: 15, 10: 3, 11: 1}


def sweep_cases(n: int) -> list[tuple[Hypergraph, float]]:
    """Every other case takes p below the density, where the most pairs
    survive the bound."""
    rng = random.Random(2016 + n)
    cases = []
    for i in range(SWEEP[n]):
        density = rng.choice(DENSITIES)
        p = rng.choice([p for p in PS if p < density] if i % 2 == 0 else PS)
        cases.append((_random_host(rng, n, density), p))
    return cases


@pytest.mark.parametrize("n", sorted(SWEEP))
def test_matches_full_scan_bitwise(n):
    mismatches = [(h.edges, p) for h, p in sweep_cases(n)
                  if exact_denseness_small(h, p).worst_deficit != reference_worst_deficit(h, p)]
    assert mismatches == []


def test_matches_full_scan_bitwise_at_twelve_vertices():
    h = _random_host(random.Random(12), 12, 0.1)
    assert exact_denseness_small(h, 0.05).worst_deficit == reference_worst_deficit(h, 0.05)


@pytest.mark.parametrize("n", range(7))
def test_matches_brute_force_over_triples(n):
    rng = random.Random(600 + n)
    for density in (0.0, 0.2, 0.5, 0.8, 1.0):
        h = _random_host(rng, n, density)
        for p in (0.0, 0.05, 0.3, 0.5, 0.9, 1.0):
            assert exact_denseness_small(h, p).worst_deficit == pytest.approx(
                brute_force_worst_deficit(h, p), rel=1e-12, abs=1e-12)


EDGE_HOSTS = [Hypergraph(3, n, []) for n in (0, 1, 2, 9)] + [complete(n, 3) for n in (3, 9)]


@pytest.mark.parametrize("h", EDGE_HOSTS, ids=lambda h: f"n{h.n}-{len(h.edges)}edges")
@pytest.mark.parametrize("p", [0.0, 0.37, 1.0])
def test_edge_inputs_match_full_scan(h, p):
    est = exact_denseness_small(h, p)
    assert est.worst_deficit == reference_worst_deficit(h, p)
    assert (est.p, est.samples, est.mode) == (p, max(1, (1 << h.n) ** 3), "exhaustive")


@st.composite
def hosts(draw) -> Hypergraph:
    n = draw(st.integers(min_value=0, max_value=9))
    triples = list(combinations(range(n), 3))
    edges = draw(st.sets(st.sampled_from(triples))) if triples else set()
    if draw(st.booleans()):
        edges = set(triples) - edges
    return Hypergraph(3, n, sorted(edges))


@FUZZ
@given(hosts(), st.floats(min_value=0.0, max_value=1.0))
def test_any_host_matches_full_scan(h, p):
    assert exact_denseness_small(h, p).worst_deficit == reference_worst_deficit(h, p)


def _subsets(n: int) -> np.ndarray:
    return ((np.arange(1 << n)[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)


def reference_bounds(h: Hypergraph, p: float) -> np.ndarray:
    """The (n+1, 2^n) bound table built one X at a time: sort each column of
    X's (n, n) count matrix, take its prefix sums, subtract them from the
    thresholds of each size b, clip at 0 and sum over the columns."""
    n = h.n
    tensor = _dense_tensor(h)
    subsets = _subsets(n)
    table = np.empty((n + 1, len(subsets)))
    b = np.arange(n + 1, dtype=np.float64)
    for x, row in enumerate(subsets):
        counts = np.sort(np.tensordot(row, tensor, axes=1), axis=0)
        least = np.vstack([np.zeros(n), np.cumsum(counts, axis=0)])
        a = row.sum()
        terms = np.maximum(p * a * b, p * b * a)[:, None] - least
        np.maximum(terms, 0.0, out=terms)
        table[:, x] = terms.sum(axis=1)
    return table


def bound_table(h: Hypergraph, p: float) -> np.ndarray:
    subsets = _subsets(h.n)
    return _bounds_by_size(_dense_tensor(h), subsets, subsets.sum(axis=1), p)


# The n = 12 cases compare the doubling blocks of vertices 9-11 entry by
# entry; K_12^(3) at p = 0.5 has 990 entries that tie its worst deficit.
BOUND_CASES = [case for n in sorted(SWEEP) if n <= 9 for case in sweep_cases(n)] + [
    (h, p) for h in EDGE_HOSTS if h.n for p in (0.0, 0.37, 1.0)] + [
    (complete(12, 3), 0.5), (_random_host(random.Random(1212), 12, 0.45), 0.37)]


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
def test_vertex_sum_adds_rows_in_numpy_row_sum_order(scale):
    """The bound table adds its n vertex rows as the scan's ``.sum(axis=1)``
    adds one row of n terms; if numpy changes that order, this fails before
    a bound can end up one ulp below a scanned tie."""
    rng = np.random.default_rng(128)
    mismatches = []
    for n in range(1, 129):
        a = (rng.random((n, 64)) - 0.25) * scale
        a[:, 0] = -0.0
        if _vertex_sum(a).tobytes() != a.T.copy().sum(axis=1).tobytes():
            mismatches.append(n)
    assert mismatches == []


def test_bound_table_matches_per_set_reference():
    mismatches = [(h.n, h.edges, p) for h, p in BOUND_CASES
                  if not np.array_equal(bound_table(h, p), reference_bounds(h, p))]
    assert mismatches == []


def test_bound_table_bounds_every_scanned_pair():
    """The property the pruning rests on: the deficit of (X_1, X_2), as the
    scan computes it with X_1 first, is at most the bound of X_1 at size
    |X_2| and the bound of X_2 at size |X_1|."""
    for h, p in BOUND_CASES:
        if h.n > 6:
            continue
        tensor = _dense_tensor(h)
        subsets = _subsets(h.n)
        sizes = subsets.sum(axis=1).astype(np.intp)
        table = bound_table(h, p)
        for i, row in enumerate(subsets):
            pair_counts = subsets @ np.tensordot(row, tensor, axes=1)
            terms = (p * sizes[i] * sizes)[:, None] - pair_counts
            np.maximum(terms, 0.0, out=terms)
            deficits = terms.sum(axis=1)
            assert (deficits <= table[sizes, i]).all(), (h.edges, p, i)
            assert (deficits <= table[sizes[i]]).all(), (h.edges, p, i)


@pytest.mark.parametrize("p, deficit", [(1.0, 408), (1 - 2**-10, 406.3125)])
def test_complete_host_fills_every_column(p, deficit):
    """K_12^(3) puts n-2 = 10 in every off-diagonal count and (n-1)(n-2) = 110
    in the longest prefix sum, the most the byte table must hold.  With all
    three sets V, 12^3 - 12·11·10 = 408 ordered triples repeat a vertex and
    1,320 do not, and at p near 1 dropping any vertex from a set loses more
    than it saves."""
    h = complete(12, 3)
    assert exact_denseness_small(h, p).worst_deficit == deficit / 12**3
