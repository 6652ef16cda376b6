"""The overgroup lattice: overgroups and subindex against the folding reference."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    InfiniteIndexError,
    from_generators,
    intersect,
    kernel_mod_p,
    overgroups,
    parse_word,
    subindex,
    whole_group,
)
from support import lattice_by_joins, random_cover


def elementary_abelian_kernel(k):
    """Kernel of F_k -> (Z/2)^k sending generator i to the i-th unit vector."""
    h = whole_group(k)
    for i in range(k):
        h = intersect(h, kernel_mod_p(k, [int(j == i) for j in range(k)], 2))
    return h


def assert_matches_reference(h):
    lattice, reference_subindex = lattice_by_joins(h)
    assert overgroups(h) == lattice
    assert subindex(h) == reference_subindex


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=40)
def test_random_covers_match_reference(seed):
    rng = random.Random(seed)
    assert_matches_reference(random_cover(rng, rng.choice((2, 3)), rng.randrange(1, 13)))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_elementary_abelian_kernels_match_reference(k):
    h = elementary_abelian_kernel(k)
    assert h.index() == 2 ** k
    assert_matches_reference(h)


def test_infinite_index_is_rejected():
    h = from_generators(2, [parse_word("aa")])
    with pytest.raises(InfiniteIndexError):
        overgroups(h)
    with pytest.raises(InfiniteIndexError):
        subindex(h)
