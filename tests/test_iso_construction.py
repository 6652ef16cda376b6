"""Isomorphisms built by construction, against the validated reference calculus.

The library builds compose, invert_iso and both transfers through the
private constructor _iso, and pulls a subgroup back through the action of
the domain on its cosets.  tests/support.py keeps the calculus that
validated every map with make_iso, inverted the whole map to pull a
subgroup back and folded the lifted basis of transfer_to_overgroup; both
must give the same domain, codomain and images.
"""

import json
import random
from functools import partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    IndexCapError,
    InvalidIsoError,
    NotInSubgroupError,
    NoExtension,
    PartialIso,
    Subgroup,
    Word,
    apply,
    apply_hom,
    compose,
    compose_many,
    compute_extension,
    concat,
    embed_aut,
    from_generators,
    identity_iso,
    intersect,
    invert_iso,
    is_identity_class,
    invert,
    iso_to_document,
    join,
    kernel_mod_p,
    make_iso,
    parse_word,
    restrict,
    transfer_to_overgroup,
    transfer_to_subgroup,
    whole_group,
    WorkLimitError,
)
from freecomm import commensurator, stallings, words
from freecomm.stallings import VERTEX_CAP_ENV
from support import (
    compose_by_inversion,
    invert_iso_by_make_iso,
    keeping_images,
    make_iso_by_contains_and_fold,
    outcome,
    random_aut_images,
    random_cover,
    random_nonextending_iso,
    random_nontrivial_word,
    random_word,
    random_restriction_iso,
    random_small_domain,
    random_tiny_iso,
    transfer_to_overgroup_by_fold,
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
def test_maps_that_do_not_extend_invert_as_the_witness_reference(rank):
    # the general path of invert_iso, on swaps and twists composed with
    # restrictions; refusals come at a root or, later, where the forced
    # automorphism disagrees with the map on the basis
    rng = random.Random(40 + rank)
    refused = set()
    for _ in range(30):
        phi = random_nonextending_iso(rng, rank)
        extension = compute_extension(phi)
        assert isinstance(extension, NoExtension)
        refused.add("no root" if extension.exponent else extension.reason)
        assert_same_iso(invert_iso(phi), invert_iso_by_make_iso(phi))
    late = "the forced candidate automorphism does not agree with the map on "
    assert "no root" in refused and any(reason.startswith(late) for reason in refused), refused


def seed_7_chain():
    """Three seed-7 restrictions in rank 2, composed: the domain has index 60."""
    rng = random.Random(7)
    return compose_many([random_restriction_iso(rng, 2) for _ in range(3)])


def test_an_extending_map_is_inverted_without_folding_its_images(monkeypatch):
    # the witness fold of the 1,204 image letters passes a cap of 60 with 63
    # live vertices; the inverse through the extension builds the codomain,
    # of index 60, by a pull-back that a cap of 59 refuses, and no fold of
    # phi's images, and leaves that codomain on phi as the inverse's domain,
    # both when phi holds the automorphism and when compute_extension finds it
    ref = invert_iso_by_make_iso(seed_7_chain())
    held = seed_7_chain()
    maps = (held, keeping_images(held))  # each keeps its images alive, so no id is reused
    folded = []
    build = stallings._build_bouquet

    def spied(rank, gens, witness):
        folded.extend(map(id, gens))
        return build(rank, gens, witness)

    monkeypatch.setattr(stallings, "_build_bouquet", spied)
    for phi in maps:
        folded.clear()  # the two maps share their image words, which the reference folds
        monkeypatch.setenv(VERTEX_CAP_ENV, "59")
        with pytest.raises(IndexCapError, match=r"^pull-back: the preimage of an index-60 subgroup "
                           r"in an index-1 domain would exceed the vertex cap \(59\)"):
            invert_iso(phi)
        monkeypatch.setenv(VERTEX_CAP_ENV, "60")
        inverse = invert_iso(phi)
        assert_same_iso(inverse, ref)
        if "_aut" in vars(phi):  # it keeps the pull-back, the inverse's domain
            assert vars(phi)["codomain"] is inverse.domain
        else:  # the twin leaves its codomain, the fold of its images, unread
            assert "codomain" not in vars(phi)
        assert not set(folded) & set(map(id, phi.images))
        assert outcome(invert_iso_by_make_iso, phi) == (
            IndexCapError,
            "witness_expresser: the folded graph would exceed the vertex cap (60) with 63 live "
            f"vertices (68 allocated); raise {VERTEX_CAP_ENV} to allow larger graphs",
        )


@pytest.mark.parametrize(
    "build, extension_letters, ours, theirs",
    [
        # the inverse through the extension writes at most 98 letters to a
        # word, all of them in compute_extension; the witness path 212.  The
        # chain holds its automorphism, so compute_extension of it writes
        # nothing: the map that keeps its images finds it by its roots
        (lambda: keeping_images(seed_7_chain()), 98, 98, 212),
        # refused at a root, after writing 1,272 letters for the image of
        # a^30; below that the witness path, which writes at most 292
        # letters to a word, is taken as it is
        (lambda: random_nonextending_iso(random.Random(10), 2), 1272, 292, 292),
    ],
    ids=["extending", "not extending"],
)
def test_the_letter_limit_refuses_an_inverse_only_where_the_witness_path_does(
    monkeypatch, build, extension_letters, ours, theirs
):
    # invert_iso fits under a letter limit from `ours` on, the witness path
    # from `theirs` on and compute_extension from `extension_letters` on;
    # when both paths are refused, they are refused with the same error
    phi = build()
    expected = invert_iso_by_make_iso(phi)
    for limit in sorted({n - d for n in (extension_letters, ours, theirs) for d in (0, 1)}):
        monkeypatch.setattr(words, "LETTER_LIMIT", limit)
        got, ref = outcome(invert_iso, phi), outcome(invert_iso_by_make_iso, phi)
        assert (got[0], ref[0]) == (
            PartialIso if limit >= ours else WorkLimitError,
            PartialIso if limit >= theirs else WorkLimitError,
        )
        if limit < ours:
            assert got == ref
        else:
            assert_same_iso(got[1], expected)
        extended = outcome(compute_extension, phi)[0] is not WorkLimitError
        assert extended == (limit >= extension_letters)


# Maps that hold an automorphism A (embed_aut's, their restrictions, their
# products and inverses) against twins that make_iso builds from their images,
# which keep them, hold no automorphism and take the general path.


def held_chain(seed):
    """Restricted automorphisms of rank 2 or 3, in a chain of random_tiny_iso or
    random_restriction_iso links, or in rank 2 mixed with a map that extends
    to none."""
    rng = random.Random(seed)
    rank, kind = 2 + seed % 2, seed % 3
    if kind == 0:
        return [random_tiny_iso(rng, rank) for _ in range(rng.randint(2, 4))]
    if kind == 1:
        return [random_restriction_iso(rng, rank) for _ in range(rng.randint(1, 5 - rank))]
    links = [random_nonextending_iso(rng, 2), random_tiny_iso(rng, 2)]
    rng.shuffle(links)
    return links


def twins(links):
    return [make_iso(phi.domain, phi.codomain, phi.images) for phi in links]


def calculus_results(links, k, other):
    """The chain's product, its restriction to k, its inverse, its products
    with a link and with the inverse, and both products with other, a map
    that keeps its images."""
    phi = compose_many(links)
    fresh = restrict(phi, phi.domain)  # a second map that holds A, for the general path to read
    inverse = invert_iso(phi)
    return [
        phi,
        restrict(phi, k),
        inverse,
        compose(links[0], phi),
        compose(phi, inverse),
        compose(inverse, phi),
        compose(other, fresh),
        compose(fresh, other),
    ]


@pytest.mark.parametrize("seed", range(12))
def test_maps_that_hold_an_automorphism_match_their_make_iso_twins(seed):
    links, ref_links = held_chain(seed), twins(held_chain(seed))
    rank, held = links[0].rank, seed % 3 != 2
    k = intersect(compose_many(ref_links).domain, kernel_mod_p(rank, (1,) + (0,) * (rank - 1), 2))
    got = calculus_results(links, k, ref_links[-1])
    want = calculus_results(ref_links, k, ref_links[-1])
    rng = random.Random(seed)
    for i, (phi, ref) in enumerate(zip(got, want)):
        # a map that holds A builds no images until they are read; the
        # automorphism and the identity test do not read them.  Products
        # with a map that keeps its images take the general path.
        lazy = held and i < 6
        assert lazy == ("_aut" in vars(phi)) == ("images" not in vars(phi))
        assert outcome(compute_extension, phi) == outcome(compute_extension, ref)
        assert is_identity_class(phi) == is_identity_class(ref) == (i in (4, 5))
        assert ("images" not in vars(phi)) == lazy
        assert phi == ref and hash(phi) == hash(ref)
        assert_same_iso(phi, ref)
        assert json.dumps(iso_to_document(phi)) == json.dumps(iso_to_document(ref))
        basis = phi.domain.basis.elements
        products = tuple(apply_hom(basis, random_word(rng, len(basis))) for _ in range(3))
        for w in basis[:3] + products:
            assert apply(phi, w) == apply(ref, w)


def test_held_maps_build_no_basis_tree_or_walk_they_would_discard(monkeypatch):
    # restrict of a map that holds A tests K <= domain by a map of graphs
    # and builds neither K's basis nor its spanning tree; apply traces a
    # word in the domain's graph and builds no tree; and phi followed by
    # its inverse, whose domain invert_iso leaves on phi as its codomain,
    # is taken on phi's domain with no pull-back walk
    rng = random.Random(3)
    phi = compose_many([random_tiny_iso(rng, 2) for _ in range(4)])
    k = intersect(phi.domain, kernel_mod_p(2, (1, 1), 2))
    cut = restrict(phi, k)
    assert cut.domain is k and not {"basis", "_tree"} & set(vars(k))
    for w in Subgroup(k.graph).basis.elements:  # a copy's basis, so k builds none
        assert apply(cut, w) == apply_hom(phi._aut, w)
    assert not {"basis", "_tree", "images"} & (set(vars(k)) | set(vars(cut)))
    with pytest.raises(NotInSubgroupError, match=r"^'a' is not in the subgroup$"):
        apply(cut, parse_word("a"))  # refused by the basis expression, which builds the tree
    inverse = invert_iso(phi)
    assert vars(phi)["codomain"] is inverse.domain
    walks = []
    component = stallings._component

    def spied(*args):
        walks.append(args)
        return component(*args)

    monkeypatch.setattr(stallings, "_component", spied)
    round_trip = compose(phi, inverse)
    assert walks == [] and round_trip.domain is round_trip.codomain is phi.domain
    assert is_identity_class(round_trip)


def chain_pipeline(links):
    """iso-chain's calls on a chain, and the documents of its product and inverse."""
    phi = compose_many(links)
    inverse = invert_iso(phi)
    return is_identity_class(compose(phi, inverse)), iso_to_document(phi), iso_to_document(inverse)


def pipeline_outcomes(seed):
    """The outcome of building held_chain(seed) and running chain_pipeline on
    it, and on the chain's maps as the library built them before they held
    automorphisms, which wrote their images where they were built."""
    return (
        outcome(lambda: chain_pipeline(held_chain(seed))),
        outcome(lambda: chain_pipeline([keeping_images(phi) for phi in held_chain(seed)])),
    )


def fold_refusal(op, cap, live, allocated):
    """The outcome of a fold that meets the vertex cap."""
    return IndexCapError, (
        f"{op}: the folded graph would exceed the vertex cap ({cap}) with {live} live vertices "
        f"({allocated} allocated); raise {VERTEX_CAP_ENV} to allow larger graphs"
    )


@pytest.mark.parametrize(
    "seed, ours, theirs, allocated",
    [(1, 6, 9, 11), (6, 13, 40, 40), (10, 18, 26, 36), (5, 13, 13, None), (11, 63, 63, None)],
)
def test_maps_that_hold_an_automorphism_meet_the_cap_where_their_twins_do(
    monkeypatch, seed, ours, theirs, allocated
):
    # the least cap at which the pipeline runs on the held chain (ours) and
    # on its twins, which keep their images (theirs), each found by trying
    # every cap from 1 on.  A held product reads its codomain as the
    # pull-back that invert_iso leaves on it, where a twin folds its
    # images, and composed with its inverse it walks no pull-back; just
    # below theirs, a twin is refused by the fold of its images with
    # theirs live vertices, as before.  Chains mixed with a map that extends
    # to none (seeds 5 and 11) take the general path.  Below both caps both
    # are refused with the same message, but for a held chain of seed 6:
    # the witness fold that inverts A meets the cap at as many live
    # vertices as its twin's fold of the images.
    assert ours <= theirs
    for cap in sorted({ours - 1, ours, theirs - 1, theirs}):
        monkeypatch.setenv(VERTEX_CAP_ENV, str(cap))
        got, ref = pipeline_outcomes(seed)
        assert (got[0], ref[0]) == (
            tuple if cap >= ours else IndexCapError,
            tuple if cap >= theirs else IndexCapError,
        )
        if cap >= theirs or cap < ours and seed != 6:
            assert got == ref
        if cap == theirs - 1 >= ours:
            assert ref == fold_refusal("from_generators", cap, theirs, allocated)
        if cap < ours and seed == 6:
            assert (got, ref) == (
                fold_refusal("witness_expresser", cap, ours, ours),
                fold_refusal("from_generators", cap, ours, ours),
            )


def rank_two_chain(n, kind):
    """n random_tiny_iso links of rank 2, drawn from the seed n: as they hold
    their automorphisms (kind 0), as twins that keep their images (kind 1),
    or with one link swapped for a map that extends to none (kind 2)."""
    rng = random.Random(n)
    links = [random_tiny_iso(rng, 2) for _ in range(n)]
    if kind == 1:
        links = [keeping_images(phi) for phi in links]
    if kind == 2:
        links[rng.randrange(n)] = random_nonextending_iso(rng, 2)
    return links


@pytest.mark.parametrize("n", range(1, 10))
def test_compose_many_matches_composing_left_to_right(monkeypatch, n):
    # compose_many composes adjacent pairs, carrying the last map of an odd
    # round to the next; associativity makes its product the left-to-right
    # one, which holds the same automorphism where the links hold theirs.
    # Under the caps of the pipeline test both orders are refused, or both
    # answer: the message may differ, as it names the graph that met the
    # cap, and the graphs on the way differ.
    left_to_right = partial(reduce, compose)
    refused = set()
    for kind in range(3):
        got, want = compose_many(rank_two_chain(n, kind)), left_to_right(rank_two_chain(n, kind))
        assert ("_aut" in vars(got)) == (kind == 0)
        assert vars(got).get("_aut") == vars(want).get("_aut")
        assert got == want
        assert_same_iso(got, want)
        for cap in (8, 9, 12, 13, 25, 26, 39, 40, 62, 63):
            links, ref_links = rank_two_chain(n, kind), rank_two_chain(n, kind)
            monkeypatch.setenv(VERTEX_CAP_ENV, str(cap))
            got, want = outcome(compose_many, links), outcome(left_to_right, ref_links)
            monkeypatch.delenv(VERTEX_CAP_ENV)
            assert got[0] is want[0] and (got == want or got[0] is IndexCapError)
            refused.add(got[0] is IndexCapError)
    assert refused == {False, n > 1}


@pytest.mark.parametrize(
    "seed, ours, theirs",
    [(1, 12, 44), (6, 111, 333), (7, 21, 73), (10, 32, 122), (5, 110, 110), (11, 105, 105)],
)
def test_maps_that_hold_an_automorphism_refuse_for_the_letter_limit_only_where_their_twins_do(
    monkeypatch, seed, ours, theirs
):
    # the least letter limit at which the pipeline runs on the held chain
    # (ours) and on its twins, which keep their images (theirs): a held
    # chain writes no word of compute_extension, applies A to the words it
    # maps and builds only the images that are read, each off a spanning
    # tree.  Chains mixed with a map that extends to none (seeds 5 and 11)
    # take the general path.
    assert ours <= theirs
    for limit in sorted({ours - 1, ours, theirs - 1, theirs}):
        monkeypatch.setattr(words, "LETTER_LIMIT", limit)
        got, ref = pipeline_outcomes(seed)
        assert (got[0], ref[0]) == (
            tuple if limit >= ours else WorkLimitError,
            tuple if limit >= theirs else WorkLimitError,
        )
        assert got == ref or limit < theirs


@pytest.mark.parametrize("rank", (2, 3))
def test_compose_shortcuts_match_reference(rank):
    # K = codomain(alpha) ∩ domain(beta) is codomain(alpha) when beta is an
    # automorphism, domain(beta) when alpha is one, and both for phi followed
    # by its inverse; a random pair of restrictions mostly takes neither.  A
    # skipped pull-back keeps alpha's domain, a skipped fold beta's codomain,
    # which beta, when built without one, folds here on this first read.
    rng = random.Random(rank)
    taken = {}
    for _ in range(12):
        phi, psi = random_restriction_iso(rng, rank), random_restriction_iso(rng, rank)
        aut = embed_aut(random_aut_images(rng, rank))
        for alpha, beta in ((phi, psi), (aut, phi), (phi, aut), (aut, aut), (phi, invert_iso(phi))):
            assert beta.codomain.rank == rank
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
    # H contains codomain(alpha), so the pull-back of H is alpha's domain,
    # which the pull-back returns as it is; the second pull-back, over
    # basis(H), returns its whole group when H lies in that domain
    rng = random.Random(seed)
    alpha = random_restriction_iso(rng, rank)
    h = rng.choice(
        (alpha.codomain, whole_group(rank), join(alpha.codomain, random_small_domain(rng, rank)))
    )
    pulled = []
    pull_back = Subgroup._preimage

    def watched(self, images, k):
        pre = pull_back(self, images, k)
        pulled.append(pre is self)
        return pre

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Subgroup, "_preimage", watched)
        transfer = transfer_to_subgroup(alpha, h)
    inside = all(alpha.domain.contains(b) for b in h.basis.elements)
    assert pulled == [True, inside]
    assert_same_iso(transfer, transfer_to_subgroup_by_inversion(alpha, h))


@given(seeds, st.sampled_from((1, 2, 3)))
@settings(deadline=None, max_examples=25)
def test_compose_and_transfer_build_no_intersection(seed, rank):
    # both pull a subgroup back through a map; neither builds the
    # intersection of codomain(alpha) with it, nor any other
    rng = random.Random(seed)
    alpha, beta = random_restriction_iso(rng, rank), random_restriction_iso(rng, rank)
    h = random_small_domain(rng, rank)
    expected = compose_by_inversion(alpha, beta), transfer_to_subgroup_by_inversion(alpha, h)
    called = []

    def spied(*args):
        called.append(args)
        return intersect(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commensurator, "intersect", spied)
        mp.setattr(stallings, "intersect", spied)
        got = compose(alpha, beta), transfer_to_subgroup(alpha, h)
    assert called == []
    for phi, ref in zip(got, expected):
        assert_same_iso(phi, ref)


def overgroup_transfer_case(rng):
    """H, a random small domain or a Z/p kernel in rank 2 or 3, and beta, a
    random restriction over the free group on basis(H)."""
    rank = rng.choice((2, 3))
    if rng.randrange(2):
        h = random_small_domain(rng, rank)
    else:
        p = rng.choice((2, 3, 5, 7))
        h = kernel_mod_p(rank, [1] + [rng.randrange(p) for _ in range(rank - 1)], p)
    return h, random_restriction_iso(rng, len(h.basis.elements))


@given(seeds)
@settings(deadline=None, max_examples=25)
def test_transfer_to_overgroup_matches_the_fold(seed):
    # the lifted domain is pulled back, and no word is folded; under a cap
    # the pull-back refuses exactly the lifts whose own graph passes it, and
    # the fold, whose live vertices end as that graph, refuses them too
    rng = random.Random(seed)
    h, beta = overgroup_transfer_case(rng)
    ref = transfer_to_overgroup_by_fold(beta, h)
    folds, built = [], []

    def spied(*args):
        folds.append(args)
        return from_generators(*args)

    # _iso, the transfer's last step, is run once the spy is gone, as the
    # session fixture's make_iso check folds the images' expressions
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(commensurator, "from_generators", spied)
        mp.setattr(stallings, "from_generators", spied)
        mp.setattr(commensurator, "_iso", lambda *args: built.append(args))
        transfer_to_overgroup(beta, h)
    assert folds == []
    assert_same_iso(commensurator._iso(*built[0]), ref)
    n = ref.domain.index()
    cap = rng.randrange(max(1, n - 3), n + 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(VERTEX_CAP_ENV, str(cap))
        got = outcome(transfer_to_overgroup, beta, h)
        folded = outcome(transfer_to_overgroup_by_fold, beta, h)
    if n > cap:
        assert got == (
            IndexCapError,
            f"pull-back: the preimage of an index-{beta.domain.index()} subgroup in an "
            f"index-{h.index()} domain would exceed the vertex cap ({cap}); "
            f"raise {VERTEX_CAP_ENV} to allow larger graphs",
        )
        assert folded[0] is IndexCapError
    else:
        assert got[0] is PartialIso
        assert (got[1].domain, got[1].images) == (ref.domain, ref.images)
        assert folded[0] is IndexCapError or folded[1] == ref


def test_compose_is_held_only_to_the_graphs_it_builds(monkeypatch):
    # a -> a^150 then a^300 -> a: the pull-back of a^300 has index 2 and
    # the product is a^2 -> a, onto the whole group; the intersection
    # a^150 ∩ a^300, with its 300 vertices, is not built
    alpha = make_iso(whole_group(1), cyclic(150), [Word((1,) * 150)])
    beta = make_iso(cyclic(300), whole_group(1), [Word((1,))])
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "100")
    phi = compose(alpha, beta)
    assert (phi.domain.index(), phi.codomain.index()) == (2, 1)
    assert (phi.domain, phi.codomain, phi.images) == (cyclic(2), whole_group(1), (Word((1,)),))


def test_over_cap_compose_and_transfer_are_refused_by_the_pull_back(monkeypatch):
    # at rank 2 the product of index-7 and index-5 kernels has 35 vertices
    alpha = identity_iso(kernel_mod_p(2, (1, 0), 7))
    h = kernel_mod_p(2, (0, 1), 5)
    beta = identity_iso(h)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "30")
    message = (
        r"^pull-back: the preimage of an index-5 subgroup in an index-7 domain would "
        r"exceed the vertex cap \(30\); raise FREECOMM_INDEX_CAP to allow larger graphs$"
    )
    with pytest.raises(IndexCapError, match=message):
        compose(alpha, beta)
    with pytest.raises(IndexCapError, match=message):
        transfer_to_subgroup(alpha, h)
    # the Z/5 kernel of the free group on the 8-element basis of the Z/7
    # kernel lifts to an index-35 subgroup of F_2; the identity of that
    # free group lifts to the Z/7 kernel itself, held to the cap as it is
    h7 = alpha.domain
    lift = identity_iso(kernel_mod_p(8, (1,) + (0,) * 7, 5))
    with pytest.raises(IndexCapError, match=message):
        transfer_to_overgroup(lift, h7)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "6")
    with pytest.raises(IndexCapError, match=r"^pull-back: the preimage of an index-1 subgroup "
                       r"in an index-7 domain would exceed the vertex cap \(6\)"):
        transfer_to_overgroup(identity_iso(whole_group(8)), h7)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "35")
    assert compose(alpha, beta).domain.index() == 35
    assert transfer_to_overgroup(lift, h7).domain.index() == 35


def test_constructor_rejects_rank_drop_as_make_iso_does():
    # aab, b and a generate the whole group of rank 2, not a rank-3 subgroup;
    # _iso folds nothing, so the check comes when the codomain is read, and
    # comes again on a second read, as nothing is cached
    domain = kernel_mod_p(2, (1, 0), 2)
    images = [parse_word(t) for t in ("aab", "b", "a")]
    phi = commensurator._iso(domain, images)
    for _ in range(2):
        with pytest.raises(InvalidIsoError, match="rank drop: domain has rank 3 but codomain has rank 2"):
            phi.codomain
    with pytest.raises(InvalidIsoError, match="rank drop: domain has rank 3 but codomain has rank 2"):
        make_iso(domain, whole_group(2), images)


def test_a_chain_folds_no_codomain_until_it_is_read(monkeypatch):
    # compose_many of eight links, an onto product, a restriction and a
    # transfer build their maps with no fold; a codomain fold is told by
    # its argument, the map's own images, which the check of the session
    # fixture never hands to the module's from_generators.  The first three
    # hold their automorphisms, and read their codomains by pull-back with
    # no fold at all; the transfer holds none and folds its images
    rng = random.Random(24)
    links = [random_tiny_iso(rng, 2) for _ in range(8)]
    aut = embed_aut(random_aut_images(rng, 2))
    folded, built = [], []
    fold, build = commensurator.from_generators, commensurator._iso

    def spied_fold(rank, gens):
        folded.append(gens)
        return fold(rank, gens)

    def spied_build(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(commensurator, "from_generators", spied_fold)
    monkeypatch.setattr(commensurator, "_iso", spied_build)
    chain = compose_many(links)
    onto = compose(aut, links[0])
    cut = restrict(chain, intersect(chain.domain, kernel_mod_p(2, (1, 1), 2)))
    moved = transfer_to_subgroup(chain, kernel_mod_p(2, (0, 1), 2))

    def codomain_folds():
        return [gens for gens in folded if any(gens is phi.images for phi in built + links)]

    assert len(built) == 10 and codomain_folds() == []
    assert onto.domain.index() == links[0].domain.index() > 1
    for phi, held in ((chain, True), (onto, True), (cut, True), (moved, False)):
        assert ("_aut" in vars(phi)) == held
        before = len(folded)
        codomain = phi.codomain
        assert phi.codomain is codomain and len(folded) == before + (not held)
        assert held or folded[-1] is phi.images
        assert codomain == fold(phi.rank, phi.images)


def index_rule_maps(rng, rank):
    """Maps of the kinds a chain is made of: a restriction of a random
    automorphism, the identity of a kernel, and a chain of two links."""
    p = rng.choice((2, 3, 5))
    weights = [1] + [rng.randrange(p) for _ in range(rank - 1)]
    rng.shuffle(weights)
    return (
        random_restriction_iso(rng, rank),
        identity_iso(kernel_mod_p(rank, weights, p)),
        compose_many([random_tiny_iso(rng, rank) for _ in range(2)]),
    )


@pytest.mark.parametrize("rank", (2, 3))
def test_onto_by_index_matches_the_folded_codomains(rank):
    # above rank 1 _codomain_index reads the domain's index; the onto
    # decision it gives compose must be the one the folded codomain gives
    rng = random.Random(10 + rank)
    decided = set()
    for _ in range(4):
        maps = index_rule_maps(rng, rank) + index_rule_maps(rng, rank)
        for alpha in maps:
            assert commensurator._codomain_index(alpha) == from_generators(rank, alpha.images).index()
            for beta in maps:
                dom = alpha.domain._preimage(alpha.images, beta.domain)
                rhs = alpha.domain.index() * beta.domain.index()
                onto = commensurator._codomain_index(alpha) * dom.index() == rhs
                assert onto == (alpha.codomain.index() * dom.index() == rhs)
                decided.add(onto)
                assert_same_iso(compose(alpha, beta), compose_by_inversion(alpha, beta))
    assert decided == {True, False}


def test_a_lazy_codomain_meets_the_cap_where_it_is_read(monkeypatch):
    # σ⁵ (a → ab, b → a, five times) after the identity of an index-5
    # kernel: the product keeps the kernel as its domain, under the cap of
    # 20, but the fold of its images passes 20 live vertices on the way to
    # its 5 and raises, with the message compose raised when it folded.
    # The restriction of σ⁵ to the kernel holds it and pulls the kernel back
    # through σ⁻⁵, which the witness fold of σ⁵'s 21 letters, 13 live
    # vertices, inverts: its codomain is read from a cap of 13 on
    images = [parse_word("a"), parse_word("b")]
    for _ in range(5):
        images = [concat(images[0], images[1]), images[0]]
    k = kernel_mod_p(2, (1, 0), 5)
    alpha, sigma = identity_iso(k), embed_aut(images)
    message = (
        r"^{}: the folded graph would exceed the vertex cap \({}\) with {} live "
        r"vertices \({} allocated\); raise FREECOMM_INDEX_CAP to allow larger graphs$"
    )
    for phi, op, cap, live in ((compose(alpha, sigma), "from_generators", 20, 29),
                               (restrict(sigma, k), "witness_expresser", 12, 13)):
        assert phi.domain == k
        monkeypatch.setenv("FREECOMM_INDEX_CAP", str(cap))
        for _ in range(2):
            with pytest.raises(IndexCapError, match=message.format(op, cap, live, live)):
                phi.codomain
        monkeypatch.setenv("FREECOMM_INDEX_CAP", str(live))
        assert phi.codomain == k


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


def validator_sides(rng, kind):
    """A domain and a codomain of equal rank: a random cover with itself or
    with another cover of its index, a Z/p kernel with itself, or the two
    sides of a short chain of restricted automorphisms."""
    rank = rng.choice((2, 3))
    if kind == "cover":
        n = rng.randrange(1, 9)
        h = random_cover(rng, rank, n)
        return h, rng.choice((h, random_cover(rng, rank, n)))
    if kind == "kernel":
        p = rng.randrange(2, 12)
        h = kernel_mod_p(rank, [1] + [rng.randrange(p) for _ in range(rank - 1)], p)
        return h, h
    phi = compose_many([random_restriction_iso(rng, 2) for _ in range(rng.randrange(1, 3))])
    return phi.domain, phi.codomain


def nielsen_images(rng, basis):
    """The basis, shuffled and moved by a few Nielsen moves: it generates
    what the basis generates."""
    images = list(basis)
    rng.shuffle(images)
    for _ in range(rng.randrange(4)):
        i = rng.randrange(len(images))
        j = rng.choice([j for j in range(len(images)) if j != i] or [i])
        if j == i:
            images[i] = invert(images[i])
        else:
            images[i] = concat(images[i], rng.choice((images[j], invert(images[j]))))
    return images


def spoil(rng, variant, rank, codomain, images):
    """images as the variant leaves them: valid, or wrong in one way."""
    if variant == "outside" and codomain.index() > 1:
        outsiders = [random_nontrivial_word(rng, rank, 4) for _ in range(20)]
        outsider = next((w for w in outsiders if not codomain.contains(w)), None)
        if outsider is not None:
            images[rng.randrange(len(images))] = outsider
    elif variant == "squares":
        images = [concat(w, w) for w in images]
    elif variant == "fewer":
        images = images[:-1]
    elif variant == "more":
        images = images + [images[0]]
    elif variant == "past rank":
        i = rng.randrange(len(images))
        images[i] = concat(images[i], Word((rank + 1,)))
    return images


@given(
    seeds,
    st.sampled_from(("cover", "kernel", "chain")),
    st.sampled_from(("valid", "outside", "squares", "fewer", "more", "past rank", "overgroup")),
)
@settings(deadline=None, max_examples=150)
def test_make_iso_validates_as_the_contains_and_fold_reference(seed, kind, variant):
    # make_iso folds the images' expressions over the codomain's basis; the
    # reference tests each image with contains and folds the images themselves
    rng = random.Random(seed)
    domain, codomain = validator_sides(rng, kind)
    rank, size = domain.rank, len(domain.basis.elements)
    if variant == "overgroup":
        # the generators and other words, one per domain basis element, onto
        # the whole group: a rank drop unless the domain is the whole group
        codomain = whole_group(rank)
        images = [Word((i,)) for i in range(1, rank + 1)]
        images = (images + [random_nontrivial_word(rng, rank, 4) for _ in range(size)])[:size]
    else:
        images = spoil(rng, variant, rank, codomain, nielsen_images(rng, codomain.basis.elements))
    expected = outcome(make_iso_by_contains_and_fold, domain, codomain, images)
    assert outcome(make_iso, domain, codomain, images) == expected

