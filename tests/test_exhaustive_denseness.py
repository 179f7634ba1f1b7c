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
