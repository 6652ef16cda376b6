"""Numbering, pruning, trees and bases of core graphs against the two-table reference.

Each case is a folded connected graph given as raw edges with a basepoint:
a random cover with its vertices renamed and its basepoint moved, the fold
of random generators (which leaves trees hanging), the unpruned fiber
product of two such folds, and sparse copies of these in rank 10^8.
Kernels onto Z/p, numbered by the walk over residues, are checked against
the edge list they were built from before.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    InfiniteIndexError,
    NotInSubgroupError,
    Word,
    apply_hom,
    from_generators,
    kernel_mod_p,
)
from freecomm.stallings import _adjacency, _component, _graph, _walk
from support import (
    _fold_letter_by_letter,
    basis_by_two_tables,
    canonical_by_two_tables,
    express_in_basis_by_two_tables,
    fiber_product_edges,
    kernel_by_edge_list,
    make_subgroup_by_edge_sets,
    random_cover,
    random_word,
    tree_by_two_tables,
)

seeds = st.integers(min_value=0, max_value=10 ** 6)
HUGE_RANK = 10 ** 8


def rename(rng, base, edges):
    """The same graph on random vertex names, with the basepoint anywhere."""
    vertices = sorted({x for u, _, v in edges for x in (u, v)} | {base})
    names = dict(zip(vertices, rng.sample(range(10 ** 9), len(vertices))))
    return rng.choice(list(names.values())), [(names[u], l, names[v]) for u, l, v in edges]


def cover_case(rng, rank):
    graph = random_cover(rng, rank, rng.randrange(1, 13)).graph
    return rename(rng, 0, graph.edges)


def fold_case(rng, rank):
    gens = [random_word(rng, rank) for _ in range(rng.randrange(1, 4))]
    return rename(rng, *_fold_letter_by_letter(gens, False).folded_edges(0))


def fiber_case(rng, rank):
    h, k = (from_generators(rank, [random_word(rng, rank) for _ in range(3)]) for _ in "hk")
    return rename(rng, 0, fiber_product_edges(h.graph, k.graph))


def sparse(rng, case):
    """A case on a few labels spread out over rank 10^8."""
    base, edges = case(rng, rng.choice((2, 3)))
    labels = dict(zip((1, 2, 3), sorted(rng.sample(range(1, HUGE_RANK + 1), 3))))
    return base, [(u, labels[l], v) for u, l, v in edges], sorted(labels.values())


def words_over(rng, labels, count):
    pool = [a for l in labels for a in (l, -l)]
    return [Word(rng.choice(pool) for _ in range(rng.randrange(9))) for _ in range(count)]


def check(rng, rank, base, edges, labels):
    table = _adjacency(base, edges)
    _, rows = _walk(base, table.__getitem__)
    assert _graph(rank, rows) == canonical_by_two_tables(rank, base, edges)
    h = _component(rank, base, table.__getitem__)
    assert h.graph == make_subgroup_by_edge_sets(rank, base, edges)
    paths, tree, off_tree = tree_by_two_tables(h.graph)
    assert h.basis.elements == basis_by_two_tables(h.graph)
    # the crossing table: the halves of the i-th off-tree edge carry i and -i, a tree half 0
    number = {e: i for i, e in enumerate(off_tree, start=1)}
    for u, row in enumerate(h._tree[1]):
        assert list(row) == list(h.graph.adj[u])
        for a, (v, i) in row.items():
            assert v == h.graph.adj[u][a]
            edge = (u, a, v) if a > 0 else (v, -a, u)
            assert i == (0 if edge in tree else number[edge] if a > 0 else -number[edge])
    if h.graph.is_cover():
        assert h.coset_representatives() == tuple(paths[v] for v in range(len(paths)))
    else:
        with pytest.raises(InfiniteIndexError):
            h.coset_representatives()
    basis = h.basis.elements
    if rank == len(labels):
        # the tree potentials map the basis as apply_hom maps each element
        images = [random_word(rng, rank, 4) for _ in range(rank)]
        assert list(h._hom_on_basis(images)) == [apply_hom(images, b) for b in basis]
    members = [apply_hom(basis, v) for v in words_over(rng, range(1, len(basis) + 1), 5 if basis else 0)]
    for w in members + words_over(rng, labels, 10):
        expected = express_in_basis_by_two_tables(h.graph, w)
        if expected is None:
            with pytest.raises(NotInSubgroupError):
                h.express_in_basis(w)
        else:
            assert h.express_in_basis(w) == expected


@given(seeds, st.sampled_from((cover_case, fold_case, fiber_case)), st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=300)
def test_core_graphs_match_two_table_reference(seed, case, rank):
    rng = random.Random(seed)
    base, edges = case(rng, rank)
    check(rng, rank, base, edges, range(1, rank + 1))


@given(seeds, st.sampled_from((cover_case, fold_case, fiber_case)))
@settings(deadline=None, max_examples=100)
def test_sparse_core_graphs_of_huge_rank_match_reference(seed, case):
    rng = random.Random(seed)
    base, edges, labels = sparse(rng, case)
    check(rng, HUGE_RANK, base, edges, labels)


@pytest.mark.parametrize("weights", [(1, 0), (1, 1), (1, 2, 0)])
def test_kernels_match_edge_list(weights):
    for p in range(2, 61):
        h = kernel_mod_p(len(weights), weights, p)
        assert h == kernel_by_edge_list(len(weights), weights, p)
        assert h.basis.elements == basis_by_two_tables(h.graph)
