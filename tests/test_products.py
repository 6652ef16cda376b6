"""Products of graphs against their own searches.

intersect and the pull-back (Subgroup._preimage, which compose and
transfer_to_subgroup call) walk one component of a product graph with
one shared walk, and extend_pair reads its coset
representatives off the intersection of the two domains.  tests/support.py
keeps the searches each of them ran before; both must give the same
subgroups, the same maps and the same vertex cap errors.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    IndexCapError,
    embed_aut,
    extend_pair,
    from_generators,
    intersect,
    restrict,
)
from support import (
    extend_pair_by_coset_search,
    intersect_by_own_search,
    pull_back_by_own_search,
    random_aut_images,
    random_cover,
    random_restriction_iso,
    random_tiny_domain,
    random_tiny_iso,
    random_word,
)

seeds = st.integers(min_value=0, max_value=10 ** 6)


def covers_and_non_covers(rng, rank):
    """Two random covers and the fold of random words, whose graph is not a cover."""
    h = random_cover(rng, rank, rng.randrange(1, 13))
    k = random_cover(rng, rank, rng.randrange(1, 13))
    g = from_generators(rank, [random_word(rng, rank) for _ in range(rng.randrange(1, 4))])
    return [(h, k), (k, h), (h, g), (g, h), (g, g)]


def pull_back_cases(rng, rank):
    """(alpha, K) with K of finite index: inside alpha's codomain, the
    codomain cut by the other domain of a pair of tiny isos or by a random
    cover; and, as compose and transfer_to_subgroup pull back, K not
    inside it, the domain of a random restriction iso and a kernel onto
    Z/2 or Z/3."""
    alpha, beta = random_tiny_iso(rng, rank), random_tiny_iso(rng, rank)
    cover = random_cover(rng, rank, rng.randrange(1, 13))
    inside = [(alpha, intersect(alpha.codomain, k)) for k in (beta.domain, cover)]
    outside = (random_restriction_iso(rng, rank).domain, random_tiny_domain(rng, rank))
    return inside + [(alpha, k) for k in outside]


def pull_back(alpha, k):
    return alpha.domain._preimage(alpha.images, k)


def same_outcome(run, reference):
    """Both calls give the same value, or raise IndexCapError with one message."""
    try:
        expected = reference()
    except IndexCapError as exc:
        with pytest.raises(IndexCapError) as raised:
            run()
        assert str(raised.value) == str(exc)
        return
    assert run() == expected


@given(seeds, st.sampled_from((1, 2, 3)))
@settings(deadline=None, max_examples=60)
def test_intersect_matches_own_search(seed, rank):
    rng = random.Random(seed)
    for a, b in covers_and_non_covers(rng, rank):
        assert intersect(a, b) == intersect_by_own_search(a, b)


@given(seeds, st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=40)
def test_pull_back_matches_own_search(seed, rank):
    rng = random.Random(seed)
    for alpha, k in pull_back_cases(rng, rank):
        assert pull_back(alpha, k) == pull_back_by_own_search(alpha, k)


@pytest.mark.parametrize("cap", ["1", "3", "7", "20"])
def test_cap_errors_match_own_search(monkeypatch, cap):
    rng = random.Random(int(cap))
    ranks = [rng.choice((2, 3)) for _ in range(8)]
    products = [pair for rank in ranks for pair in covers_and_non_covers(rng, rank)]
    pull_backs = [case for rank in ranks for case in pull_back_cases(rng, rank)]
    monkeypatch.setenv("FREECOMM_INDEX_CAP", cap)
    for a, b in products:
        same_outcome(lambda: intersect(a, b), lambda: intersect_by_own_search(a, b))
    for alpha, k in pull_backs:
        same_outcome(lambda: pull_back(alpha, k), lambda: pull_back_by_own_search(alpha, k))


@given(seeds, st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=40)
def test_extend_pair_matches_coset_search(seed, rank):
    rng = random.Random(seed)
    aut = embed_aut(random_aut_images(rng, rank, num_moves=2))
    # the second domain is a kernel onto Z/2 or Z/3, hence normal
    h1 = rng.choice((random_tiny_domain(rng, rank), random_cover(rng, rank, rng.randrange(1, 9))))
    phi1, phi2 = restrict(aut, h1), restrict(aut, random_tiny_domain(rng, rank))
    glued, ref = extend_pair(phi1, phi2), extend_pair_by_coset_search(phi1, phi2)
    assert glued.domain == ref.domain
    assert glued.codomain == ref.codomain
    assert glued.images == ref.images
