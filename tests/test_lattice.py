"""The overgroup lattice: overgroups and subindex against the folding
reference and against the queue enumeration with its minimax over every
containment, the quotient covers against their edge sets, and join against
the wedge folded by the two-table reference folder."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    IndexCapError,
    InfiniteIndexError,
    from_generators,
    intersect,
    join,
    kernel_mod_p,
    overgroups,
    parse_word,
    subindex,
    whole_group,
)
from freecomm.stallings import _block_systems
from support import (
    abelian_kernel,
    block_systems_by_queue,
    join_by_wedge,
    lattice_by_joins,
    overgroups_by_quotient_edges,
    random_cover,
    random_word,
    subindex_by_subset_tests,
)


def assert_matches_reference(h):
    lattice, reference_subindex = lattice_by_joins(h)
    assert overgroups(h) == lattice == overgroups_by_quotient_edges(h)
    assert subindex(h) == reference_subindex


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=40)
def test_random_covers_match_reference(seed):
    rng = random.Random(seed)
    assert_matches_reference(random_cover(rng, rng.choice((2, 3)), rng.randrange(1, 13)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_elementary_abelian_kernels_match_reference(k):
    h = abelian_kernel((2,) * k)
    assert h.index() == 2 ** k
    assert_matches_reference(h)


def assert_matches_queue_reference(h):
    systems, rows = _block_systems(h.graph)
    assert len(set(systems)) == len(systems)
    assert set(systems) == set(block_systems_by_queue(h.graph).values())
    # each join goes to a strictly coarser system
    for labels, row in zip(systems, rows):
        assert all(systems[j].count(0) > labels.count(0) for j in row.values())
    assert subindex(h) == subindex_by_subset_tests(h)
    assert overgroups(h) == overgroups_by_quotient_edges(h)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=60)
def test_random_covers_match_queue_reference(seed):
    rng = random.Random(seed)
    assert_matches_queue_reference(random_cover(rng, rng.choice((2, 3)), rng.randrange(1, 13)))


@pytest.mark.parametrize("moduli", [(2,) * k for k in range(1, 6)] + [(6, 12), (2, 12)])
def test_abelian_kernels_match_queue_reference(moduli):
    assert_matches_queue_reference(abelian_kernel(moduli))


def test_cyclic_kernels_match_queue_reference():
    for p in range(2, 61):
        assert_matches_queue_reference(kernel_mod_p(2, (1, 0), p))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=60)
def test_intersections_match_queue_reference(seed):
    # random actions of large degree are almost always primitive; H meet K
    # at composite index up to 60 has H and K among its overgroups
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    a = rng.randrange(2, 9)
    b = rng.randrange(2, 60 // a + 1)
    h = random_cover(rng, rank, a)
    if rng.random() < 0.5:
        k = random_cover(rng, rank, b)
    else:
        weights = [rng.randrange(b) for _ in range(rank)]
        weights[rng.randrange(rank)] = 1
        k = kernel_mod_p(rank, weights, b)
    m = intersect(h, k)
    assert_matches_queue_reference(m)
    lattice = overgroups(m)
    assert h in lattice and k in lattice


def assert_block_system(graph, labels):
    """labels names each coset's class, and every label maps classes to classes."""
    for l in range(1, graph.rank + 1):
        image = {}
        for v in range(graph.num_vertices):
            assert image.setdefault(labels[v], labels[graph.adj[v][l]]) == labels[graph.adj[v][l]]


def test_composite_index_abandons_joins_to_smaller_classes():
    # Z/2018 acts regularly, so its block systems are its four subgroups.
    # The trivial system keeps one join per coarser system, the least coset
    # of its block, not all 2,017; the other two have a prime number of
    # classes and join once each
    h = kernel_mod_p(2, (1, 0), 2018)
    systems, rows = _block_systems(h.graph)
    assert sum(map(len, rows)) == 5
    assert sorted(labels.count(0) for labels in systems) == [1, 2, 1009, 2018]
    for labels in systems:
        assert_block_system(h.graph, labels)
    h = kernel_mod_p(2, (1, 0), 1018)
    start = time.perf_counter()
    assert subindex(h) == 509
    assert [g.index() for g in overgroups(h)] == [1, 2, 509, 1018]
    assert time.perf_counter() - start < 3


def test_prime_index_joins_once():
    # a cover of prime index is primitive: its lattice is H and the whole group
    h = kernel_mod_p(2, (1, 0), 2003)
    start = time.perf_counter()
    assert subindex(h) == 2003
    assert overgroups(h) == [whole_group(2), h]
    assert time.perf_counter() - start < 1


def test_block_systems_are_held_to_the_cap(monkeypatch):
    h = abelian_kernel((2,) * 5)  # 374 block systems
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "374")
    assert len(overgroups(h)) == 374
    assert subindex(h) == 2
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "373")
    message = r"an index-32 subgroup has more overgroups than the vertex cap \(373\); 373 found"
    for call in (overgroups, subindex):
        with pytest.raises(IndexCapError, match=message):
            call(h)


def test_infinite_index_is_rejected():
    h = from_generators(2, [parse_word("aa")])
    with pytest.raises(InfiniteIndexError):
        overgroups(h)
    with pytest.raises(InfiniteIndexError):
        subindex(h)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=60)
def test_join_matches_wedge_then_fold(seed):
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    h = random_cover(rng, rank, rng.randrange(1, 13))
    k = random_cover(rng, rank, rng.randrange(1, 13))
    # and a subgroup of infinite index, whose graph is not a cover
    g = from_generators(rank, [random_word(rng, rank) for _ in range(rng.randrange(1, 4))])
    for a, b in ((h, k), (k, h), (h, g), (g, h), (g, g)):
        assert join(a, b) == join_by_wedge(a, b)


def test_join_of_large_kernels_stays_under_the_cap(monkeypatch):
    # the wedge of the two graphs has 10,005 vertices; their join is one
    monkeypatch.delenv("FREECOMM_INDEX_CAP", raising=False)
    h = kernel_mod_p(2, (1, 0), 5003)
    k = kernel_mod_p(2, (0, 1), 5003)
    assert join(h, k) == whole_group(2)
    # a vertex reached along an edge already there costs no allocation, so
    # joining a graph with itself fits a cap of exactly its size
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "60")
    h = kernel_mod_p(2, (1, 1), 60)
    assert join(h, h) == h
    assert join(h, whole_group(2)) == whole_group(2)
