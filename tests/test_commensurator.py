"""Partial isomorphisms: validation, calculus, equivalence, transfers."""

import random
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    DocumentError,
    InfiniteIndexError,
    InvalidIsoError,
    NoExtension,
    NotInSubgroupError,
    PartialIso,
    RankMismatchError,
    Word,
    WordError,
    WorkLimitError,
    apply,
    apply_hom,
    compose,
    compose_many,
    compute_extension,
    embed_aut,
    equivalent,
    equivalent_bruteforce,
    extendAB_certificate,
    extend_pair,
    from_generators,
    identity_iso,
    intersect,
    invert_iso,
    is_identity_class,
    iso_from_document,
    iso_to_document,
    kernel_mod_p,
    make_iso,
    parse_word,
    power,
    restrict,
    subgroup_from_document,
    subindex_of_iso,
    transfer_to_overgroup,
    transfer_to_subgroup,
    whole_group,
    word_to_text,
    words,
)
from freecomm import commensurator
from support import (
    apply_by_expression,
    compose_images,
    keeping_images,
    outcome,
    random_aut_images,
    random_nonextending_iso,
    random_restriction_iso,
    random_small_domain,
    random_tiny_domain,
    random_tiny_iso,
    tree_by_two_tables,
)

words2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(Word)
seeds = st.integers(min_value=0, max_value=10 ** 6)


def kernel_swap_iso():
    """Automorphism of the index-3 kernel exchanging the basis words aaa and b."""
    k = kernel_mod_p(2, (1, 0), 3)
    basis = k.basis.elements
    images = list(basis)
    i, j = basis.index(parse_word("aaa")), basis.index(parse_word("b"))
    images[i], images[j] = images[j], images[i]
    return make_iso(k, k, images)


def test_make_iso_identity_and_swap():
    rose = whole_group(2)
    ident = make_iso(rose, rose, rose.basis.elements)
    assert ident.rank == 2
    swap = kernel_swap_iso()
    assert swap.domain == swap.codomain


def test_make_iso_rejects_rank_drop():
    rose = whole_group(2)
    with pytest.raises(InvalidIsoError):
        make_iso(rose, rose, [parse_word("a"), parse_word("a")])
    # images that do reach the whole codomain but collapse the rank
    k = kernel_mod_p(2, (1, 0), 2)
    with pytest.raises(InvalidIsoError) as info:
        make_iso(k, rose, [parse_word("a"), parse_word("b"), parse_word("ab")])
    assert "rank" in str(info.value)


def test_make_iso_rejects_wrong_image_subgroup():
    rose = whole_group(2)
    k = kernel_mod_p(2, (1, 0), 2)
    with pytest.raises(InvalidIsoError):
        make_iso(rose, k, [parse_word("b"), parse_word("aa")])
    with pytest.raises(InvalidIsoError):
        make_iso(k, k, [parse_word("a"), parse_word("b"), parse_word("ab")])


def test_make_iso_rejects_infinite_index():
    with pytest.raises(InvalidIsoError):
        make_iso(
            from_generators(2, [parse_word("aa")]),
            whole_group(2),
            [parse_word("a")],
        )


def test_apply_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    ident = identity_iso(k)
    assert apply(ident, parse_word("abA")) == parse_word("abA")
    swap = kernel_swap_iso()
    assert apply(swap, parse_word("aaa")) == parse_word("b")
    assert apply(swap, parse_word("b")) == parse_word("aaa")
    assert apply(swap, parse_word("Aba")) == parse_word("Aba")


def test_apply_rejects_outsiders():
    with pytest.raises(NotInSubgroupError):
        apply(kernel_swap_iso(), parse_word("a"))


# spoilers spliced into a word of the domain: letters that leave it, a
# cancelling pair, and what only a sequence that is not a Word can hold
SPOILERS = [[1], [-2], [2, -2], [-1, 1], [3], [-3], [0], [1.0]]


@given(seeds, st.data())
@settings(deadline=None, max_examples=200)
def test_apply_refuses_as_the_expression_path_does(seed, data):
    # apply must give what apply_by_expression gives, on input the rest of
    # the suite does not reach: sequences that are not Words, words outside
    # the domain or past the rank, and the letter limit's boundary, where a
    # word outside the domain is refused for that first
    phi = random_restriction_iso(random.Random(seed), 2)
    basis = phi.domain.basis.elements
    expr = data.draw(st.lists(st.sampled_from(range(-len(basis), len(basis) + 1)), max_size=5))
    letters = list(apply_hom(basis, Word(a for a in expr if a)))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(letters)))
        letters[at:at] = data.draw(st.sampled_from(SPOILERS))
    kinds = [tuple, list]
    if all(type(a) is int and a for a in letters):
        kinds.append(Word)
    w = data.draw(st.sampled_from(kinds))(letters)
    written = sum(len(phi.images[abs(i) - 1]) for i in Word(a for a in expr if a))
    limit = data.draw(st.sampled_from([None, 0, written - 1, written, written + 1]))
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(words, "LETTER_LIMIT", limit)
        assert outcome(apply, phi, w) == outcome(apply_by_expression, phi, w)


def test_apply_checks_rank_and_membership_before_the_letter_limit(monkeypatch):
    swap = kernel_swap_iso()  # b -> aaa on the index-3 kernel of a
    monkeypatch.setattr(words, "LETTER_LIMIT", 3)
    assert apply(swap, parse_word("b")) == parse_word("aaa")
    with pytest.raises(
        WorkLimitError, match=r"^apply_hom: 6 letters written from 4 images exceed the letter limit \(3\)$"
    ):
        apply(swap, parse_word("bbbb"))
    with pytest.raises(NotInSubgroupError, match=r"^'bbbbA' is not in the subgroup$"):
        apply(swap, parse_word("bbbbA"))
    with pytest.raises(RankMismatchError, match=r"^word 'bbbbc' exceeds rank 2$"):
        apply(swap, parse_word("bbbbc"))


def test_a_held_map_builds_its_images_only_for_a_word_that_needs_them(monkeypatch):
    # b -> a, a -> ab restricted to the index-3 kernel of a: the images are
    # built on the first read, whose longest piece, aaa -> (ab)^3, writes 6
    # letters; below that every read of them is refused, and nothing is cached
    phi = restrict(embed_aut([parse_word("ab"), parse_word("a")]), kernel_mod_p(2, (1, 0), 3))
    monkeypatch.setattr(words, "LETTER_LIMIT", 2)
    assert apply(phi, parse_word("")) == parse_word("")
    with pytest.raises(RankMismatchError, match=r"^word 'c' exceeds rank 2$"):
        apply(phi, parse_word("c"))
    with pytest.raises(NotInSubgroupError, match=r"^'a' is not in the subgroup$"):
        apply(phi, parse_word("a"))
    refusal = r"^apply_hom: 6 letters written from 2 images exceed the letter limit \(2\)$"
    for read in (lambda: apply(phi, parse_word("b")), lambda: hash(phi), lambda: repr(phi)):
        with pytest.raises(WorkLimitError, match=refusal):
            read()
    assert set(vars(phi)) == {"domain", "_aut"}
    monkeypatch.undo()
    assert hash(phi) == hash(make_iso(phi.domain, phi.codomain, phi.images))


def test_apply_checks_plain_sequences_as_words():
    # a float letter equal to 1 is not the letter a, and 0 is no letter
    phi = identity_iso(kernel_mod_p(2, (1, 0), 3))
    for letters in ([1.0], (0,), [1.0, 1.0, 1.0]):
        with pytest.raises(WordError):
            apply(phi, letters)
    assert apply(phi, [1, 1, 1]) == parse_word("aaa")


@given(seeds, st.data())
@settings(deadline=None, max_examples=50)
def test_apply_and_apply_hom_share_the_letter_limit(seed, data):
    # at, just under and just over the letters written, the map of a word
    # and the map of its basis expression return, or fail, alike
    phi = random_restriction_iso(random.Random(seed), 2)
    basis = phi.domain.basis.elements
    signed = [i for k in range(1, len(basis) + 1) for i in (k, -k)]
    expr = data.draw(st.lists(st.sampled_from(signed), max_size=6).map(Word).filter(len))
    w = apply_hom(basis, expr)
    written = sum(len(phi.images[abs(i) - 1]) for i in expr)
    for limit in (written - 1, written, written + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words, "LETTER_LIMIT", limit)
            got = outcome(apply, phi, w)
            assert got == outcome(apply_hom, phi.images, expr)
        assert (got[0] is WorkLimitError) == (limit < written), got


def test_one_map_inverts_each_image_once(monkeypatch):
    # apply fills the map's inverse images, each once across its calls; the
    # pull-back, which walks here, builds its own and leaves the map's as
    # it found them
    phi = random_restriction_iso(random.Random(3), 2)
    inverse_basis = [b.inverse() for b in phi.domain.basis.elements]
    k = intersect(phi.codomain, kernel_mod_p(2, (1, 1), 2))
    assert k != phi.codomain
    inverted = []

    def counted(w):
        inverted.append(w)
        return Word(-a for a in reversed(w))

    monkeypatch.setattr(words, "invert", counted)
    for _ in range(2):
        before = list(phi._inverses)
        assert phi.domain._preimage(phi.images, k) != phi.domain
        assert phi._inverses == before
        for b in inverse_basis:
            apply(phi, b)
    assert sorted(inverted) == sorted(phi.images)
    assert None not in phi._inverses


def potential_letters(h, images):
    """The most letters one word built from h's tree potentials is made of:
    P(parent) and the image of the letter that finds a vertex, or P(u),
    image(l) and P(v) across an off-tree edge u -l-> v, where P(v) is the
    image of v's tree path."""
    paths, _, off_tree = tree_by_two_tables(h.graph)
    pot = {v: apply_hom(images, w) for v, w in paths.items()}
    found = [len(apply_hom(images, w[:-1])) + len(images[abs(w[-1]) - 1]) for w in paths.values() if w]
    crossed = [len(pot[u]) + len(images[l - 1]) + len(pot[v]) for u, l, v in off_tree]
    return max(found + crossed)


@given(seeds)
@settings(deadline=None, max_examples=25)
def test_tree_potentials_hold_each_word_to_the_letter_limit(seed):
    # at, one under and one over the most letters one word is built from
    rng = random.Random(seed)
    h, images = random_small_domain(rng, 2), random_aut_images(rng, 2)
    expected = [apply_hom(images, b) for b in h.basis.elements]
    written = potential_letters(h, images)
    for limit in (written - 1, written, written + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(words, "LETTER_LIMIT", limit)
            if limit < written:
                with pytest.raises(
                    WorkLimitError,
                    match=rf"^apply_hom: {written} letters written from 2 images "
                    rf"exceed the letter limit \({limit}\)$",
                ):
                    list(h._hom_on_basis(images))
            else:
                assert list(h._hom_on_basis(images)) == expected


def test_make_iso_of_the_kernel_swap_folds_one_letter_per_image(monkeypatch):
    # each image is one basis element, so its expression is one letter, and
    # the fold reads p + 1 letters where the images have about p²/2
    p = 97
    h = kernel_mod_p(2, (1, 0), p)
    basis = h.basis.elements
    images = list(basis)
    i, j = basis.index(power(Word((1,)), p)), basis.index(Word((2,)))
    images[i], images[j] = images[j], images[i]
    folded = []
    fold = commensurator.from_generators

    def spied(rank, gens):
        gens = list(gens)
        folded.append((rank, gens))
        return fold(rank, gens)

    monkeypatch.setattr(commensurator, "from_generators", spied)
    swap = make_iso(h, h, images)
    assert swap.images == tuple(images)
    assert [(rank, len(gens)) for rank, gens in folded] == [(p + 1, p + 1)]
    assert all(len(w) == 1 for w in folded[0][1])


def test_invert_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    assert equivalent(invert_iso(identity_iso(k)), identity_iso(k))
    swap = kernel_swap_iso()
    assert equivalent(invert_iso(swap), swap)
    flip = embed_aut([parse_word("b"), parse_word("a")])
    assert equivalent(invert_iso(flip), flip)


@given(seeds, words2)
@settings(deadline=None, max_examples=40)
def test_invert_round_trip(seed, w):
    rng = random.Random(seed)
    phi = random_restriction_iso(rng, 2)
    loop = w
    if not phi.domain.contains(loop):
        loop = power(w, phi.domain.index())
    if phi.domain.contains(loop):
        assert apply(invert_iso(phi), apply(phi, loop)) == loop


def test_compose_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    swap = kernel_swap_iso()
    ident_rose = identity_iso(whole_group(2))
    assert equivalent(compose(ident_rose, swap), swap)
    assert is_identity_class(compose(swap, invert_iso(swap)))
    twice = compose(swap, swap)
    assert is_identity_class(twice)
    assert equivalent(twice, identity_iso(k))


@given(seeds)
@settings(deadline=None, max_examples=25)
def test_compose_is_pointwise_composition(seed):
    rng = random.Random(seed)
    alpha = random_restriction_iso(rng, 2)
    beta = random_restriction_iso(rng, 2)
    prod = compose(alpha, beta)
    for b in prod.domain.basis.elements:
        assert apply(prod, b) == apply(beta, apply(alpha, b))


@given(seeds)
@settings(deadline=None, max_examples=20)
def test_groupoid_laws_up_to_equivalence(seed):
    rng = random.Random(seed)
    alpha = random_tiny_iso(rng, 2)
    beta = random_tiny_iso(rng, 2)
    gamma = random_tiny_iso(rng, 2)
    assert equivalent(
        compose(alpha, compose(beta, gamma)), compose(compose(alpha, beta), gamma)
    )
    assert equivalent(compose(identity_iso(whole_group(2)), alpha), alpha)
    assert is_identity_class(compose(alpha, invert_iso(alpha)))


def test_equivalent_examples():
    swap = kernel_swap_iso()
    assert equivalent(swap, swap)
    assert equivalent(
        identity_iso(whole_group(2)), identity_iso(kernel_mod_p(2, (1, 0), 3))
    )
    assert not equivalent(swap, identity_iso(swap.domain))


@given(seeds)
@settings(deadline=None, max_examples=20)
def test_equivalent_symmetric_and_respects_restriction(seed):
    rng = random.Random(seed)
    phi = random_restriction_iso(rng, 2)
    sub = intersect(phi.domain, random_small_domain(rng, 2))
    narrowed = restrict(phi, sub)
    assert equivalent(phi, narrowed)
    assert equivalent(narrowed, phi)


@given(seeds)
@settings(deadline=None, max_examples=10)
def test_equivalence_is_congruence(seed):
    rng = random.Random(seed)
    alpha = random_tiny_iso(rng, 2)
    beta = random_tiny_iso(rng, 2)
    alpha2 = restrict(alpha, intersect(alpha.domain, random_tiny_domain(rng, 2)))
    beta2 = restrict(beta, intersect(beta.domain, random_tiny_domain(rng, 2)))
    assert equivalent(compose(alpha, beta), compose(alpha2, beta2))


def test_bruteforce_oracle_examples():
    swap = kernel_swap_iso()
    assert equivalent_bruteforce(swap, swap, 9)
    assert not equivalent_bruteforce(swap, identity_iso(swap.domain), 36)
    sub = intersect(swap.domain, kernel_mod_p(2, (1, 1), 2))
    assert equivalent_bruteforce(swap, restrict(swap, sub), 36)
    for bound in (0, -1):
        with pytest.raises(ValueError, match="max_index must be positive"):
            equivalent_bruteforce(swap, swap, bound)


def test_bruteforce_refuses_a_bound_that_is_not_an_int():
    # True would act as 1 and 2.5 as 2.5, each answering False for a map
    # against itself; both are refused before the bound is compared
    swap = kernel_swap_iso()
    for bound, shown in ((True, "True"), (False, "False"), (2.5, "2.5"), (36.0, "36.0")):
        with pytest.raises(ValueError, match=rf"^max_index must be an int, got {shown}$"):
            equivalent_bruteforce(swap, swap, bound)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_bruteforce_builds_each_kernel_once(rank, monkeypatch):
    built = []
    real = commensurator.kernel_mod_p

    def spy(r, weights, p):
        built.append((p, tuple(weights)))
        return real(r, weights, p)

    monkeypatch.setattr(commensurator, "kernel_mod_p", spy)
    # inverting a agrees with the identity nowhere, so every candidate is tried
    moved = embed_aut([Word((-1,))] + [Word((j,)) for j in range(2, rank + 1)])
    assert not equivalent_bruteforce(moved, identity_iso(whole_group(rank)), 36)
    assert built and len(built) == len(set(built))


@given(seeds)
@settings(deadline=None, max_examples=15)
def test_equivalent_matches_bruteforce(seed):
    # two held maps, one that keeps its images and one that extends to no
    # automorphism, each pair in both orders, and a held map against its
    # image-keeping twin; the oracle searches to three times the index of
    # the domains' intersection, which reaches the hundreds
    rng = random.Random(seed)
    held = random_restriction_iso(rng, 2)
    held2 = random_restriction_iso(rng, 2)
    kept = keeping_images(random_restriction_iso(rng, 2))
    twin = keeping_images(held)
    pairs = list(permutations([held, held2, kept, random_nonextending_iso(rng, 2)], 2))
    for alpha, beta in pairs + [(held, twin), (twin, held)]:
        max_index = 3 * intersect(alpha.domain, beta.domain).index()
        assert equivalent(alpha, beta) == equivalent_bruteforce(alpha, beta, max_index)
    assert equivalent(held, twin) and equivalent(twin, held)


def test_restrict_examples():
    rose = whole_group(2)
    k = kernel_mod_p(2, (1, 0), 3)
    down = restrict(identity_iso(rose), k)
    assert down.domain == k and down.codomain == k
    assert is_identity_class(down)
    swap = kernel_swap_iso()
    assert restrict(swap, swap.domain) == swap
    sub = intersect(swap.domain, kernel_mod_p(2, (1, 1), 2))
    assert equivalent(restrict(swap, sub), swap)


def test_restrict_requires_containment():
    with pytest.raises(NotInSubgroupError):
        restrict(kernel_swap_iso(), kernel_mod_p(2, (1, 1), 2))


def test_embed_aut_examples():
    flip = embed_aut([parse_word("b"), parse_word("a")])
    assert flip.domain.index() == 1
    assert not is_identity_class(flip)
    nielsen = embed_aut([parse_word("ab"), parse_word("b")])
    assert apply(nielsen, parse_word("a")) == parse_word("ab")
    with pytest.raises(InvalidIsoError):
        embed_aut([parse_word("aa"), parse_word("b")])


def test_is_identity_class_examples():
    assert is_identity_class(identity_iso(kernel_mod_p(2, (1, 1), 2)))
    assert not is_identity_class(kernel_swap_iso())
    inner = embed_aut([parse_word("a"), parse_word("Aba")])
    assert not is_identity_class(restrict(inner, kernel_mod_p(2, (1, 0), 3)))


def test_compute_extension_round_trip():
    images = (parse_word("ab"), parse_word("b"))
    phi = restrict(embed_aut(list(images)), kernel_mod_p(2, (1, 1), 2))
    assert compute_extension(phi) == images


def test_compute_extension_inner():
    inner = embed_aut([parse_word("a"), parse_word("Aba")])
    phi = restrict(inner, kernel_mod_p(2, (1, 0), 3))
    assert compute_extension(phi) == (parse_word("a"), parse_word("Aba"))


def test_transfer_and_extension_refuse_infinite_index():
    thin = from_generators(2, [parse_word("a"), parse_word("baB")])
    with pytest.raises(InvalidIsoError, match="transfer needs a finite-index subgroup"):
        transfer_to_subgroup(identity_iso(whole_group(2)), thin)
    # make_iso refuses such a map, so it is built directly
    bare = PartialIso(thin, thin, thin.basis.elements)
    with pytest.raises(InvalidIsoError, match="extension analysis needs finite index on both sides"):
        compute_extension(bare)


def test_the_pull_back_refuses_an_infinite_index_subgroup():
    # thin's graph is no cover: tracing into it raised a bare TypeError
    # (tuple indices must be integers or slices, not NoneType)
    message = r"^pull-back: the subgroup pulled back has infinite index$"
    thin = from_generators(2, [parse_word("a"), parse_word("baB")])
    with pytest.raises(InfiniteIndexError, match=message):
        compose(identity_iso(whole_group(2)), PartialIso(thin, thin, thin.basis.elements))
    # and so does the lift of a map over such a domain, which make_iso refuses
    thin3 = from_generators(3, [parse_word("a"), parse_word("baB")])
    bare = PartialIso(thin3, thin3, thin3.basis.elements)
    with pytest.raises(InfiniteIndexError, match=message):
        transfer_to_overgroup(bare, kernel_mod_p(2, (1, 0), 2))


def test_compute_extension_folds_only_its_candidates(monkeypatch):
    # the map holds no codomain, so checking its index folds nothing: the
    # one fold is the two candidate images; the restriction of the same
    # automorphism holds it, and compute_extension returns it with no fold
    sigma = embed_aut([parse_word("ab"), parse_word("a")])
    k = kernel_mod_p(2, (1, 0), 7)
    phi = restrict(make_iso(sigma.domain, sigma.codomain, sigma.images), k)
    held = restrict(sigma, k)
    assert "codomain" not in vars(phi) and "_aut" not in vars(phi)
    folds = []

    def spied(rank, gens):
        folds.append((rank, list(gens)))
        return from_generators(rank, gens)

    monkeypatch.setattr(commensurator, "from_generators", spied)
    assert compute_extension(phi) == sigma.images
    assert folds == [(2, list(sigma.images))]
    assert compute_extension(held) == sigma.images and len(folds) == 1
    assert "codomain" not in vars(phi) and not {"codomain", "images"} & set(vars(held))


def test_compute_extension_obstruction():
    verdict = compute_extension(kernel_swap_iso())
    assert isinstance(verdict, NoExtension)
    assert verdict.generator == 1
    assert verdict.exponent == 3
    assert verdict.word == parse_word("b")
    assert "root" in verdict.reason


def test_compute_extension_refuses_candidates_of_a_proper_subgroup():
    # rank 1: a² -> a⁴ forces a -> a², which generates only <a²>
    phi = make_iso(
        from_generators(1, [parse_word("aa")]),
        from_generators(1, [parse_word("aaaa")]),
        [parse_word("aaaa")],
    )
    assert compute_extension(phi) == NoExtension(
        "the forced candidate images do not generate the whole group"
    )


@given(seeds)
@settings(deadline=None, max_examples=25)
def test_compute_extension_recovers_random_automorphisms(seed):
    rng = random.Random(seed)
    images = random_aut_images(rng, 2)
    phi = restrict(embed_aut(images), random_small_domain(rng, 2))
    assert compute_extension(phi) == images


def test_extendAB_examples():
    a = from_generators(2, [parse_word("a")])
    b = from_generators(2, [parse_word("b")])
    k = kernel_mod_p(2, (1, 0), 3)
    assert not extendAB_certificate(identity_iso(k), a, b)
    assert not extendAB_certificate(kernel_swap_iso(), a, b)
    # fix the basis words inside A and B, conjugate the rest by b
    basis = k.basis.elements
    images = [
        w if a.contains(w) or b.contains(w) else parse_word("B") * w * parse_word("b")
        for w in basis
    ]
    twist = make_iso(k, k, images)
    assert extendAB_certificate(twist, a, b)
    assert isinstance(compute_extension(twist), NoExtension)


def test_extendAB_requires_generating_pair():
    k = kernel_mod_p(2, (1, 0), 3)
    a = from_generators(2, [parse_word("aa")])
    b = from_generators(2, [parse_word("b")])
    with pytest.raises(ValueError):
        extendAB_certificate(identity_iso(k), a, b)


def test_extend_pair_identity_case():
    h1 = intersect(kernel_mod_p(2, (1, 1), 2), kernel_mod_p(2, (1, 0), 2))
    h2 = kernel_mod_p(2, (0, 1), 3)
    glued = extend_pair(identity_iso(h1), identity_iso(h2))
    assert is_identity_class(glued)
    assert glued.domain == intersect(h1, h2) or glued.domain.index() <= max(
        h1.index(), h2.index()
    )


def test_extend_pair_inner_round_trip():
    inner = embed_aut([parse_word("Bab"), parse_word("b")])
    h1 = intersect(kernel_mod_p(2, (1, 0), 2), kernel_mod_p(2, (0, 1), 2))
    h2 = kernel_mod_p(2, (1, 2), 3)
    glued = extend_pair(restrict(inner, h1), restrict(inner, h2))
    wide = restrict(inner, glued.domain)
    for w in glued.domain.basis.elements:
        assert apply(glued, w) == apply(wide, w)


def test_extend_pair_requires_normal_second_domain():
    s3 = {
        "rank": 2,
        "basepoint": 0,
        "edges": [[0, 1, 1], [1, 0, 1], [2, 2, 1], [0, 2, 2], [2, 0, 2], [1, 1, 2]],
    }
    stab = subgroup_from_document(s3)
    with pytest.raises(InvalidIsoError):
        extend_pair(identity_iso(whole_group(2)), identity_iso(stab))


def test_extend_pair_requires_agreement():
    k = kernel_mod_p(2, (1, 0), 2)
    flip = embed_aut([parse_word("b"), parse_word("a")])
    with pytest.raises(InvalidIsoError):
        extend_pair(restrict(flip, k), identity_iso(kernel_mod_p(2, (0, 1), 2)))


@given(seeds)
@settings(deadline=None, max_examples=20)
def test_extend_pair_restricts_to_inputs(seed):
    rng = random.Random(seed)
    images = random_aut_images(rng, 2)
    aut = embed_aut(images)
    phi1 = restrict(aut, random_small_domain(rng, 2))
    phi2 = restrict(aut, kernel_mod_p(2, (1, rng.randrange(3)), 3))
    glued = extend_pair(phi1, phi2)
    for w in phi1.domain.basis.elements:
        assert apply(glued, w) == apply(phi1, w)
    for w in phi2.domain.basis.elements:
        assert apply(glued, w) == apply(phi2, w)


def test_transfer_identity():
    h = kernel_mod_p(2, (1, 0), 2)
    down = transfer_to_subgroup(identity_iso(whole_group(2)), h)
    assert down.rank == len(h.basis.elements)
    assert is_identity_class(down)
    up = transfer_to_overgroup(identity_iso(whole_group(3)), h)
    assert up.rank == 2
    assert is_identity_class(up)


@given(seeds)
@settings(deadline=None, max_examples=15)
def test_transfer_round_trips(seed):
    rng = random.Random(seed)
    h = kernel_mod_p(2, (1, rng.randrange(2)), 2)
    alpha = random_restriction_iso(rng, 2)
    again = transfer_to_overgroup(transfer_to_subgroup(alpha, h), h)
    assert equivalent(again, alpha)
    beta = random_restriction_iso(rng, 3)
    back = transfer_to_subgroup(transfer_to_overgroup(beta, h), h)
    assert equivalent(back, beta)


def test_subindex_of_iso_examples():
    assert subindex_of_iso(identity_iso(whole_group(2))) == 1
    assert subindex_of_iso(kernel_swap_iso()) == 3
    a = restrict(
        embed_aut([parse_word("ab"), parse_word("b")]), kernel_mod_p(2, (1, 0), 2)
    )
    b = restrict(
        embed_aut([parse_word("b"), parse_word("a")]), kernel_mod_p(2, (1, 1), 2)
    )
    assert subindex_of_iso(a) <= 2 and subindex_of_iso(b) <= 2
    assert subindex_of_iso(compose(a, b)) <= 2


def test_compose_many_chains():
    swap = kernel_swap_iso()
    triple = compose_many([swap, swap, swap])
    assert equivalent(triple, swap)
    assert compose_many(iter([swap, swap, swap])) == triple
    assert compose_many(swap for _ in range(3)) == triple
    assert compose_many(iter([swap])) is swap
    for empty in ([], (), iter([]), (swap for _ in range(0))):
        with pytest.raises(ValueError, match="^compose_many needs at least one map$"):
            compose_many(empty)


def test_iso_document_round_trip():
    swap = kernel_swap_iso()
    doc = iso_to_document(swap)
    assert doc["rank"] == 2
    assert isinstance(doc["images"], list)
    assert all(isinstance(s, str) for s in doc["images"])
    back = iso_from_document(doc)
    assert back.domain == swap.domain
    assert back.codomain == swap.codomain
    assert equivalent(back, swap)
    for w in swap.domain.basis.elements:
        assert apply(back, w) == apply(swap, w)


def test_iso_document_images_follow_basis_order():
    k = kernel_mod_p(2, (1, 0), 3)
    doc = iso_to_document(identity_iso(k))
    assert doc["images"] == [word_to_text(w) for w in k.basis.elements]


def test_iso_document_rejects_garbage():
    swap = kernel_swap_iso()
    doc = iso_to_document(swap)
    for breakage in (
        lambda d: d.pop("images"),
        lambda d: d.__setitem__("images", d["images"][:-1]),
        lambda d: d.__setitem__("images", ["a?"] + d["images"][1:]),
        lambda d: d.__setitem__("images", ["a"] + d["images"][1:]),
        lambda d: d.__setitem__("rank", 0),
    ):
        broken = {k: (list(v) if isinstance(v, list) else v) for k, v in doc.items()}
        breakage(broken)
        with pytest.raises(DocumentError):
            iso_from_document(broken)


def test_iso_document_rejects_boolean_rank():
    doc = iso_to_document(identity_iso(whole_group(1)))
    assert iso_from_document(doc).rank == 1
    with pytest.raises(DocumentError):
        iso_from_document({**doc, "rank": True})


def test_nielsen_products_embed_faithfully():
    ident = (parse_word("a"), parse_word("b"))
    flip = (parse_word("b"), parse_word("a"))
    push = (parse_word("ab"), parse_word("b"))
    pull = (parse_word("aB"), parse_word("b"))
    assert is_identity_class(embed_aut(compose_images(flip, flip)))
    assert is_identity_class(embed_aut(compose_images(pull, push)))
    assert not is_identity_class(embed_aut(compose_images(push, flip)))
    assert compose_images(pull, push) == ident
