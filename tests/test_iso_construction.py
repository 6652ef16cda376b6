"""Isomorphisms built by construction, against the validated reference calculus.

The library builds compose, invert_iso and transfer_to_subgroup through the
private constructor _iso, and pulls a subgroup back through the action of
the domain on its cosets.  tests/support.py keeps the calculus that
validated every map with make_iso and inverted the whole map to pull a
subgroup back; both must give the same domain, codomain and images.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    IndexCapError,
    InvalidIsoError,
    Word,
    compose,
    embed_aut,
    from_generators,
    identity_iso,
    intersect,
    invert_iso,
    is_identity_class,
    join,
    kernel_mod_p,
    make_iso,
    parse_word,
    restrict,
    transfer_to_overgroup,
    transfer_to_subgroup,
    whole_group,
)
from freecomm import commensurator
from support import (
    compose_by_inversion,
    invert_iso_by_make_iso,
    random_aut_images,
    random_restriction_iso,
    random_small_domain,
    random_tiny_iso,
    transfer_to_subgroup_by_inversion,
)

seeds = st.integers(min_value=0, max_value=10 ** 6)


def cyclic(m):
    """The index-m subgroup of the free group of rank 1."""
    return from_generators(1, [Word((1,) * m)])


def assert_same_iso(phi, ref):
    assert phi.domain == ref.domain
    assert phi.codomain == ref.codomain
    assert phi.images == ref.images


def compose_chain(links):
    """Left-to-right composites of both calculi, compared at every step."""
    phi = ref = links[0]
    for link in links[1:]:
        phi, ref = compose(phi, link), compose_by_inversion(ref, link)
        assert_same_iso(phi, ref)
    return phi


@given(seeds, st.sampled_from((2, 3)), st.integers(min_value=1, max_value=6))
@settings(deadline=None, max_examples=60)
def test_tiny_chains_match_reference(seed, rank, depth):
    rng = random.Random(seed)
    phi = compose_chain([random_tiny_iso(rng, rank) for _ in range(depth)])
    assert_same_iso(invert_iso(phi), invert_iso_by_make_iso(phi))


@pytest.mark.parametrize("seed", range(8))
def test_benchmark_style_chains_match_reference(seed):
    # depth-8 chains in rank 2 whose links are two Nielsen moves restricted
    # to an index-2 or index-3 kernel, followed by the chain's inverse
    rng = random.Random(seed)
    phi = compose_chain([random_tiny_iso(rng, 2) for _ in range(8)])
    inverse = invert_iso(phi)
    assert_same_iso(inverse, invert_iso_by_make_iso(phi))
    round_trip = compose(phi, inverse)
    assert_same_iso(round_trip, compose_by_inversion(phi, inverse))
    assert is_identity_class(round_trip)


@pytest.mark.parametrize("rank", (2, 3))
def test_compose_shortcuts_match_reference(rank):
    # K = codomain(alpha) ∩ domain(beta) is codomain(alpha) when beta is an
    # automorphism, domain(beta) when alpha is one, and both for phi followed
    # by its inverse; a random pair of restrictions mostly takes neither.  A
    # skipped pull-back keeps alpha's domain, a skipped fold beta's codomain.
    rng = random.Random(rank)
    taken = {}
    for _ in range(12):
        phi, psi = random_restriction_iso(rng, rank), random_restriction_iso(rng, rank)
        aut = embed_aut(random_aut_images(rng, rank))
        for alpha, beta in ((phi, psi), (aut, phi), (phi, aut), (aut, aut), (phi, invert_iso(phi))):
            composite = compose(alpha, beta)
            assert_same_iso(composite, compose_by_inversion(alpha, beta))
            k = intersect(alpha.codomain, beta.domain)
            expected = (k == alpha.codomain, k == beta.domain)
            assert (composite.domain is alpha.domain, composite.codomain is beta.codomain) == expected
            taken[expected] = taken.get(expected, 0) + 1
    # neither, the pull-back skipped, the fold skipped, both
    assert set(taken) == {(False, False), (True, False), (False, True), (True, True)}, taken


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.sampled_from((1, -1)),
    st.sampled_from((1, -1)),
)
@settings(deadline=None, max_examples=60)
def test_rank_one_maps_between_different_indices_match_reference(m, n, p, q, s, t):
    # in rank 1 every nontrivial subgroup has rank 1, so a map may join
    # subgroups of different index: a^m -> a^(s n), then a^p -> a^(t q)
    alpha = make_iso(cyclic(m), cyclic(n), [Word((s,) * n)])
    beta = make_iso(cyclic(p), cyclic(q), [Word((t,) * q)])
    assert_same_iso(compose(alpha, beta), compose_by_inversion(alpha, beta))
    assert_same_iso(compose(beta, alpha), compose_by_inversion(beta, alpha))


def test_pull_back_respects_the_vertex_cap(monkeypatch):
    # the preimage of a^400 under a^50 -> a^2 is a^10000, of index 10000
    alpha = make_iso(cyclic(50), cyclic(2), [Word((1, 1))])
    beta = identity_iso(cyclic(400))
    assert compose(alpha, beta).domain == cyclic(10000)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "9999")
    with pytest.raises(
        IndexCapError,
        match=r"^pull-back: the preimage of an index-400 subgroup in an index-50 domain "
        r"would exceed the vertex cap \(9999\)",
    ):
        compose(alpha, beta)


@given(seeds, st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=25)
def test_transfer_to_subgroup_matches_reference(seed, rank):
    rng = random.Random(seed)
    alpha = random_restriction_iso(rng, rank)
    h = random_small_domain(rng, rank)
    assert_same_iso(transfer_to_subgroup(alpha, h), transfer_to_subgroup_by_inversion(alpha, h))


@given(seeds, st.sampled_from((2, 3)))
@settings(deadline=None, max_examples=25)
def test_transfer_to_an_overgroup_of_the_codomain_matches_reference(seed, rank):
    # H contains codomain(alpha), so the pull-back of codomain(alpha) ∩ H is
    # alpha's domain, which the pull-back returns as it is
    rng = random.Random(seed)
    alpha = random_restriction_iso(rng, rank)
    h = rng.choice(
        (alpha.codomain, whole_group(rank), join(alpha.codomain, random_small_domain(rng, rank)))
    )
    pulled = []
    pull_back = commensurator._pull_back

    def watched(phi, k):
        pre = pull_back(phi, k)
        pulled.append(pre is phi.domain)
        return pre

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commensurator, "_pull_back", watched)
        transfer = transfer_to_subgroup(alpha, h)
    assert pulled == [True]
    assert_same_iso(transfer, transfer_to_subgroup_by_inversion(alpha, h))


def test_constructor_rejects_rank_drop_as_make_iso_does():
    # aab, b and a generate the whole group of rank 2, not a rank-3 subgroup
    domain = kernel_mod_p(2, (1, 0), 2)
    images = [parse_word(t) for t in ("aab", "b", "a")]
    with pytest.raises(InvalidIsoError, match="rank drop: domain has rank 3 but codomain has rank 2"):
        commensurator._iso(domain, images)
    with pytest.raises(InvalidIsoError, match="rank drop: domain has rank 3 but codomain has rank 2"):
        make_iso(domain, whole_group(2), images)


def test_builders_reject_infinite_index_as_make_iso_does():
    # <a, bab^-1> has rank 2 and infinite index in the free group of rank 2
    thin = from_generators(2, [parse_word("a"), parse_word("baB")])
    whole = identity_iso(whole_group(2))
    message = "domain and codomain must have finite index"
    with pytest.raises(InvalidIsoError, match=message):
        identity_iso(thin)
    with pytest.raises(InvalidIsoError, match=message):
        restrict(whole, thin)
    with pytest.raises(InvalidIsoError, match=message):
        transfer_to_overgroup(whole, thin)
    with pytest.raises(InvalidIsoError, match=message):
        make_iso(thin, thin, thin.basis.elements)
