"""Vertex permutations, for the tests that check an answer does not depend
on how the vertices are numbered."""

from factorlab import Hypergraph


def relabel(h, perm):
    """h with each vertex v renamed ``perm[v]``, a permutation of 0..n-1."""
    return Hypergraph(h.k, h.n, [tuple(perm[v] for v in e) for e in h.edges])
