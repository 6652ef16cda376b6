"""Core graphs: folding, membership, bases, lattice operations, documents."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    DocumentError,
    EPSILON,
    IndexCapError,
    InfiniteIndexError,
    NotInSubgroupError,
    Subgroup,
    Word,
    WordError,
    apply_hom,
    bs_image_index,
    bs_report,
    compose,
    concat,
    conjugate,
    conjugate_subgroup,
    express_over,
    free_product_twist,
    from_generators,
    graph_from_document,
    graph_to_document,
    graph_to_dot,
    intersect,
    identity_iso,
    invert,
    is_normal,
    join,
    kernel_mod_p,
    kernel_swap,
    make_iso,
    overgroups,
    parse_word,
    power,
    rewrite_over_basis,
    subgroup_from_document,
    subindex,
    whole_group,
    witness_expresser,
    word_to_text,
)
from freecomm import stallings
from support import random_aut_images, random_cover, random_word

words2 = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=10).map(Word)

# index-3 point stabilizer of a non-abelian action: the standard non-normal case
S3_STAB_DOC = {
    "rank": 2,
    "basepoint": 0,
    "edges": [[0, 1, 1], [1, 0, 1], [2, 2, 1], [0, 2, 2], [2, 0, 2], [1, 1, 2]],
}


def test_from_generators_rose():
    rose = from_generators(2, [parse_word("a"), parse_word("b")])
    assert rose.index() == 1
    assert rose.graph.num_vertices == 1
    assert rose == whole_group(2)


def test_from_generators_index_two():
    h = from_generators(2, [parse_word("aa"), parse_word("b"), parse_word("Aba")])
    assert h.graph.num_vertices == 2
    assert h.index() == 2


def test_from_generators_infinite_index():
    h = from_generators(2, [parse_word("aa")])
    assert h.graph.num_vertices == 2
    assert h.index() == math.inf
    assert not h.contains(parse_word("a"))
    assert h.contains(parse_word("aaaa"))


def test_contains_examples():
    rose = whole_group(2)
    assert rose.contains(parse_word("aBaab"))
    k = kernel_mod_p(2, (1, 0), 3)
    assert k.contains(parse_word("Aba"))
    assert not k.contains(parse_word("a"))


def test_contains_checks_plain_sequences_as_words():
    # a float or bool letter equal to 1 is not the letter a, and 0 is no letter
    k = kernel_mod_p(2, (1, 0), 3)
    for letters in ([1.0] * 3, [True] * 3, (0,)):
        with pytest.raises(WordError):
            k.contains(letters)
    assert k.contains([1, 2, -2, 1, 1])


def test_index_examples():
    assert whole_group(2).index() == 1
    assert kernel_mod_p(2, (1, 0), 3).index() == 3


def test_basis_examples():
    assert [word_to_text(b) for b in whole_group(2).basis.elements] == ["a", "b"]
    k = kernel_mod_p(2, (1, 0), 3)
    elements = k.basis.elements
    assert len(elements) == 4
    listed = [parse_word(t) for t in ("aaa", "b", "Aba", "AAbaa")]
    assert from_generators(2, elements) == from_generators(2, listed)
    h = from_generators(2, [parse_word("aa"), parse_word("b"), parse_word("Aba")])
    assert len(h.basis.elements) == 3


def test_canonical_kernel_basis_frozen():
    k = kernel_mod_p(2, (1, 0), 3)
    assert [word_to_text(b) for b in k.basis.elements] == ["b", "aaa", "abA", "Aba"]


def test_express_in_basis_examples():
    rose = whole_group(2)
    assert rose.express_in_basis(parse_word("ab")) == Word((1, 2))
    k = kernel_mod_p(2, (1, 0), 3)
    assert k.express_in_basis(parse_word("aaa")) == Word((2,))
    assert k.express_in_basis(EPSILON) == EPSILON


def test_express_in_basis_rejects_outsiders():
    k = kernel_mod_p(2, (1, 0), 3)
    with pytest.raises(NotInSubgroupError):
        k.express_in_basis(parse_word("a"))


@given(words2)
@settings(deadline=None)
def test_basis_round_trip(w):
    k = kernel_mod_p(2, (1, 1), 2)
    loop = power(w, 2)
    # any square lands in the kernel of a mod-2 map
    assert k.contains(loop)
    assert apply_hom(k.basis.elements, k.express_in_basis(loop)) == loop


def test_intersect_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    assert intersect(k, k) == k
    assert intersect(whole_group(2), k) == k
    a2 = kernel_mod_p(2, (1, 0), 2)
    b2 = kernel_mod_p(2, (0, 1), 2)
    assert intersect(a2, b2).index() == 4


def test_join_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    assert join(k, whole_group(2)) == whole_group(2)
    assert join(k, k) == k
    a2 = kernel_mod_p(2, (1, 0), 2)
    b2 = kernel_mod_p(2, (0, 1), 2)
    assert join(a2, b2) == whole_group(2)


@given(st.integers(min_value=0, max_value=10 ** 6), words2)
@settings(deadline=None, max_examples=50)
def test_membership_conjunction(seed, w):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(2, 5))
    k = random_cover(rng, 2, rng.randrange(2, 5))
    m = intersect(h, k)
    assert m.contains(w) == (h.contains(w) and k.contains(w))
    assert join(h, k).contains(w) or not h.contains(w)


@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=60)
def test_the_whole_group_test_reads_the_fold_as_the_comparison_does(seed, rank):
    # _is_whole_group answers from the fold; the reference folds the same
    # words into a core graph and compares it with the rose.  A Nielsen
    # image of the generators generates the whole group, and so it does with
    # empty and redundant words added, or conjugated by a word, whose hair
    # folds away; without a generator, with one squared, or as a cover's
    # basis it may not
    rng = random.Random(seed)
    images = list(random_aut_images(rng, rank))
    g = random_word(rng, rank)
    sets = [
        images,
        images + [EPSILON, random_word(rng, rank), EPSILON],
        [conjugate(w, g) for w in images],
        [EPSILON] + [conjugate(w, g) for w in images[1:]],
        images[1:],
        [power(images[0], 2)] + images[1:],
        list(random_cover(rng, rank, rng.randrange(1, 5)).basis.elements),
        [random_word(rng, rank) for _ in range(rng.randrange(4))],
        [EPSILON],
        [],
    ]
    for gens in sets:
        expected = from_generators(rank, gens) == whole_group(rank)
        assert stallings._is_whole_group(rank, gens) == expected, gens


def test_the_whole_group_test_meets_the_cap_as_the_fold_does(monkeypatch):
    # a^30 grows a 30-vertex loop, which a folds to one vertex after
    gens = [power(parse_word("a"), 30), parse_word("a"), parse_word("b")]
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "29")
    with pytest.raises(IndexCapError) as fold:
        from_generators(2, gens)
    with pytest.raises(IndexCapError) as test:
        stallings._is_whole_group(2, gens)
    assert str(test.value) == str(fold.value)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "30")
    assert stallings._is_whole_group(2, gens)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=60)
def test_containment_by_a_map_of_graphs_matches_the_basis(seed):
    # K <= H exactly when K's graph maps into H's from basepoint to
    # basepoint (stallings._morphism); the reference tests K's basis
    # element by element.  Pairs of random subgroups of finite or infinite
    # index, their intersection and their join, in both directions
    rng = random.Random(seed)
    rank = rng.choice((1, 2, 3))

    def subgroup():
        if rng.random() < 0.5:
            return random_cover(rng, rank, rng.randrange(1, 7))
        return from_generators(rank, [random_word(rng, rank) for _ in range(rng.randrange(4))])

    h, g = subgroup(), subgroup()
    seen = set()
    for a, b in ((h, g), (intersect(h, g), h), (intersect(h, g), g), (h, join(h, g))):
        for k, top in ((a, b), (b, a)):
            contained = all(top.contains(w) for w in k.basis.elements)
            assert (stallings._morphism(k.graph.adj, top.graph.adj, 0) is not None) == contained
            seen.add(contained)
    assert seen == {True, False} or h == g


def test_conjugate_and_normality_examples():
    rose = whole_group(2)
    assert conjugate_subgroup(rose, parse_word("bA")) == rose
    assert is_normal(kernel_mod_p(2, (1, 0), 3))
    # folding x, y^-1 x y, y^2 gives the mod-2 kernel in y: normal
    h = from_generators(2, [parse_word("a"), parse_word("Bab"), parse_word("bb")])
    assert h.index() == 2
    assert is_normal(h)
    assert h == kernel_mod_p(2, (0, 1), 2)


def test_point_stabilizer_not_normal():
    s = subgroup_from_document(S3_STAB_DOC)
    assert s.index() == 3
    assert not is_normal(s)
    moved = conjugate_subgroup(s, parse_word("a"))
    assert moved != s
    assert moved.index() == 3


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=60)
def test_is_normal_matches_conjugation_by_the_generators(seed):
    # normal exactly when each generator conjugates H to itself: covers of
    # small index, a kernel onto Z/m, which is normal, and their meet
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    cover = random_cover(rng, rank, rng.randrange(1, 9))
    kernel = kernel_mod_p(rank, [1] + [rng.randrange(6) for _ in range(rank - 1)], rng.randrange(2, 9))
    for h in (cover, kernel, intersect(cover, kernel)):
        assert is_normal(h) == all(conjugate_subgroup(h, (i,)) == h for i in range(1, rank + 1))


def test_is_normal_needs_finite_index():
    with pytest.raises(InfiniteIndexError):
        is_normal(from_generators(2, [parse_word("aa")]))


@given(st.integers(min_value=0, max_value=10 ** 6), words2, words2)
@settings(deadline=None, max_examples=50)
def test_conjugation_transports_membership(seed, w, g):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(1, 5))
    moved = conjugate_subgroup(h, g)
    assert moved.index() == h.index()
    assert moved.contains(conjugate(w, g)) == h.contains(w)


def test_conjugate_subgroup_when_g_leaves_the_graph():
    # g is not a path of H's graph, so the conjugated basis is folded afresh
    h = from_generators(2, [parse_word("aa"), parse_word("baB")])
    g = parse_word("bba")
    assert h.graph.trace(0, g) is None
    moved = conjugate_subgroup(h, g)
    assert all(moved.contains(conjugate(b, g)) for b in h.basis.elements)
    assert all(h.contains(conjugate(b, invert(g))) for b in moved.basis.elements)
    assert moved != h and moved.index() == math.inf


def test_kernel_mod_p_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    assert k.index() == 3
    assert len(k.basis.elements) == 4
    k11 = kernel_mod_p(2, (1, 1), 2)
    assert k11.index() == 2
    assert k11.contains(parse_word("aB"))
    assert k11.contains(parse_word("aa"))
    big = kernel_mod_p(3, (1, 0, 0), 5)
    assert big.index() == 5
    assert len(big.basis.elements) == 11


def test_kernel_mod_p_rejects_trivial_map():
    with pytest.raises(ValueError):
        kernel_mod_p(2, (2, 4), 2)


def test_kernel_mod_p_refuses_a_modulus_or_weight_that_is_not_an_int():
    # a float modulus once gave index 7, and a float weight a 2-vertex graph
    for p in (3.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match=r"^modulus must be an int, got "):
            kernel_mod_p(2, (1, 0), p)
    for weights in ((1.5, 0), (1, 0.0), (True, 0)):
        with pytest.raises(ValueError, match=r"^weights must be ints, got "):
            kernel_mod_p(2, weights, 3)
    with pytest.raises(ValueError, match=r"^modulus must be >= 2, got 1$"):
        kernel_mod_p(2, (1, 0), 1)


def test_constructions_refuse_a_rank_that_is_not_an_int():
    builds = (
        whole_group,
        lambda rank: from_generators(rank, [Word((1,))]),
        lambda rank: kernel_mod_p(rank, (1,), 3),
        # the witness fold once took a rank of 0 or True, and a string rank
        # raised a bare TypeError
        lambda rank: witness_expresser(rank, [Word((1,))]),
        lambda rank: express_over(rank, [Word((1,))], Word((1, 1))),
    )
    for build in builds:
        for rank in (True, 1.0, "1"):
            with pytest.raises(ValueError, match=r"^rank must be an int, got "):
                build(rank)
        with pytest.raises(ValueError, match=r"^rank must be >= 1, got 0$"):
            build(0)


def test_kernel_mod_p_imperfect_image():
    # weights generating a proper subgroup of Z/4: index is the image size
    k = kernel_mod_p(2, (2, 0), 4)
    assert k.index() == 2
    assert k.contains(parse_word("aa"))
    assert k.contains(parse_word("b"))
    assert not k.contains(parse_word("a"))
    # negative weights with gcd(p, weights) = 2: the image is 2Z/6Z, of size 3
    k = kernel_mod_p(2, (-2, 4), 6)
    assert k.index() == 3
    assert k.contains(parse_word("aaa")) and k.contains(parse_word("aab"))
    assert not k.contains(parse_word("b"))
    assert k == from_generators(2, k.basis.elements)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=30)
def test_kernels_are_normal(seed):
    rng = random.Random(seed)
    p = rng.choice((2, 3, 5))
    weights = [rng.randrange(p) for _ in range(2)]
    if all(x % p == 0 for x in weights):
        weights[0] = 1
    assert is_normal(kernel_mod_p(2, weights, p))


def test_equals_examples():
    k = kernel_mod_p(2, (1, 0), 3)
    assert k == k
    assert from_generators(2, k.basis.elements) == k
    assert kernel_mod_p(2, (1, 0), 2) != kernel_mod_p(2, (0, 1), 2)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=30)
def test_fold_order_invariance(seed):
    # one subgroup, two shuffles of the generating set: same canonical graph
    rng = random.Random(seed)
    gens = [random_word(rng, 2) for _ in range(rng.randrange(1, 5))]
    shuffled = list(gens)
    rng.shuffle(shuffled)
    extra = gens + [concat(gens[0], gens[-1])] if gens else gens
    assert from_generators(2, gens) == from_generators(2, shuffled)
    if gens:
        assert from_generators(2, gens) == from_generators(2, extra)


def test_coset_representatives_examples():
    assert whole_group(2).coset_representatives() == (EPSILON,)
    k = kernel_mod_p(2, (1, 0), 3)
    assert [word_to_text(r) for r in k.coset_representatives()] == ["1", "a", "A"]
    k11 = kernel_mod_p(2, (1, 1), 2)
    assert [word_to_text(r) for r in k11.coset_representatives()] == ["1", "a"]


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=30)
def test_coset_representatives_hit_every_coset(seed):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(1, 6))
    reps = h.coset_representatives()
    assert len(reps) == h.index()
    assert reps[0] == EPSILON
    for i, u in enumerate(reps):
        for v in reps[i + 1:]:
            assert not h.contains(concat(u, invert(v)))


def test_coset_representatives_need_finite_index():
    with pytest.raises(InfiniteIndexError):
        from_generators(2, [parse_word("aa")]).coset_representatives()


def test_overgroups_and_subindex_examples():
    assert subindex(whole_group(2)) == 1
    assert subindex(kernel_mod_p(2, (1, 0), 3)) == 3
    assert subindex(kernel_mod_p(2, (1, 0), 5)) == 5
    assert subindex(kernel_mod_p(2, (1, 0), 4)) == 2


def test_overgroup_lattice_frozen():
    m = intersect(kernel_mod_p(2, (1, 0), 2), kernel_mod_p(2, (0, 1), 3))
    assert m.index() == 6
    assert len(m.basis.elements) == 7
    assert sorted(k.index() for k in overgroups(m)) == [1, 2, 3, 6]
    assert subindex(m) == 3


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=25)
def test_overgroups_contain_and_bound(seed):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(1, 7))
    ladder = overgroups(h)
    assert any(k == h for k in ladder)
    assert any(k == whole_group(2) for k in ladder)
    for k in ladder:
        for b in h.basis.elements:
            assert k.contains(b)
    # chain bound: one realized chain can never beat the computed minimax
    s = subindex(h)
    idx = h.index()
    assert 1 <= s <= max(idx, 1)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=20)
def test_subindex_monotone_bound(seed):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(2, 5))
    f = intersect(h, kernel_mod_p(2, (1, rng.randrange(2)), 2))
    inner = subindex(rewrite_over_basis(h, f))
    assert subindex(f) <= max(subindex(h), inner)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=40)
def test_nielsen_schreier_on_random_covers(seed):
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    idx = rng.randrange(1, 9)
    h = random_cover(rng, rank, idx)
    assert h.index() == idx
    assert len(h.basis.elements) == 1 + idx * (rank - 1)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=25)
def test_index_multiplicativity(seed):
    rng = random.Random(seed)
    h = random_cover(rng, 2, rng.randrange(1, 5))
    f = intersect(h, random_cover(rng, 2, rng.randrange(1, 5)))
    assert f.index() == h.index() * rewrite_over_basis(h, f).index()


@given(st.integers(min_value=0, max_value=10 ** 6), words2)
@settings(deadline=None, max_examples=50)
def test_express_over_round_trip(seed, w):
    rng = random.Random(seed)
    gens = [random_word(rng, 2) for _ in range(rng.randrange(1, 4))]
    expr = express_over(2, gens, w)
    if expr is not None:
        assert apply_hom([g for g in gens], expr) == w
    express = witness_expresser(2, gens)
    again = express(w)
    assert (again is None) == (expr is None)
    if again is not None:
        assert apply_hom([g for g in gens], again) == w


def test_document_round_trip():
    k = kernel_mod_p(2, (1, 0), 3)
    doc = graph_to_document(k.graph)
    assert doc["rank"] == 2
    assert doc["basepoint"] == 0
    assert all(len(e) == 3 for e in doc["edges"])
    assert subgroup_from_document(doc) == k
    assert graph_from_document(doc) == k.graph


def test_document_rejects_unfolded():
    doc = {"rank": 2, "basepoint": 0, "edges": [[0, 1, 1], [0, 2, 1], [1, 0, 2], [2, 0, 2]]}
    with pytest.raises(DocumentError) as info:
        graph_from_document(doc)
    assert "not folded" in str(info.value)


def test_document_rejects_disconnected():
    doc = {"rank": 1, "basepoint": 0, "edges": [[0, 0, 1], [1, 1, 1]]}
    with pytest.raises(DocumentError) as info:
        graph_from_document(doc)
    assert "not connected" in str(info.value)


def test_document_rejects_non_core():
    doc = {"rank": 2, "basepoint": 0, "edges": [[0, 0, 1], [0, 1, 2]]}
    with pytest.raises(DocumentError) as info:
        graph_from_document(doc)
    assert "not a core graph" in str(info.value)


def test_document_rejects_bad_shapes():
    for doc in (
        [],
        {"rank": 2, "edges": []},
        {"rank": 0, "basepoint": 0, "edges": []},
        {"rank": 2, "basepoint": 0, "edges": [[0, 0]]},
        {"rank": 2, "basepoint": 0, "edges": [[0, 0, 7]]},
        {"rank": 2, "basepoint": 5, "edges": [[0, 0, 1], [0, 0, 2]]},
    ):
        with pytest.raises(DocumentError):
            graph_from_document(doc)


def test_document_rejects_booleans():
    good = {"rank": 1, "basepoint": 0, "edges": [[0, 0, 1]]}
    assert graph_from_document(good) == whole_group(1).graph
    for field, value in (("rank", True), ("basepoint", False)):
        with pytest.raises(DocumentError):
            graph_from_document({**good, field: value})
    for i, value in enumerate((False, False, True)):
        row = [0, 0, 1]
        row[i] = value
        with pytest.raises(DocumentError):
            graph_from_document({**good, "edges": [row]})


def test_document_is_held_to_the_vertex_cap(monkeypatch):
    # a rank-1 cycle: the subgroup generated by a^20001, of index 20001
    n = 20_001
    doc = {"rank": 1, "basepoint": 0, "edges": [[v, (v + 1) % n, 1] for v in range(n)]}
    monkeypatch.delenv("FREECOMM_INDEX_CAP", raising=False)
    with pytest.raises(IndexCapError, match=r"^graph document: 20001 vertices exceed the vertex cap \(10000\)"):
        graph_from_document(doc)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", str(n - 1))
    with pytest.raises(IndexCapError):
        graph_from_document(doc)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", str(n))
    assert Subgroup(graph_from_document(doc)).index() == n


def test_dot_export_marks_basepoint():
    dot = graph_to_dot(kernel_mod_p(2, (1, 0), 2).graph)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot
    assert 'label="a"' in dot and 'label="b"' in dot


def test_vertex_cap_guard(monkeypatch):
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "8")
    with pytest.raises(IndexCapError):
        intersect(kernel_mod_p(2, (1, 0), 5), kernel_mod_p(2, (0, 1), 7))
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "100")
    assert intersect(kernel_mod_p(2, (1, 0), 5), kernel_mod_p(2, (0, 1), 7)).index() == 35


def test_cap_errors_name_the_operation_and_sizes(monkeypatch):
    h, k = kernel_mod_p(2, (1, 0), 5), kernel_mod_p(2, (0, 1), 7)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "8")
    with pytest.raises(
        IndexCapError,
        match=r"^intersect: the fiber product of graphs with 5 and 7 vertices would "
        r"exceed the vertex cap \(8\) after 8 pairs; raise FREECOMM_INDEX_CAP",
    ):
        intersect(h, k)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "50")
    with pytest.raises(
        IndexCapError,
        match=r"^kernel_mod_p: modulus 53 exceeds the vertex cap \(50\); raise FREECOMM_INDEX_CAP",
    ):
        kernel_mod_p(2, (1, 0), 53)


def test_every_cap_path_ends_with_the_shared_tail(monkeypatch):
    def cyclic(n):
        return from_generators(1, [Word((1,) * n)])

    h, k = kernel_mod_p(2, (1, 0), 2), kernel_mod_p(2, (0, 1), 3)
    # a^2 -> a pulls a^3 back to a^6, while the intersection a^3 fits
    alpha = make_iso(cyclic(2), cyclic(1), [Word((1,))])
    beta = identity_iso(cyclic(3))
    six_cycle = {"rank": 1, "basepoint": 0, "edges": [[v, (v + 1) % 6, 1] for v in range(6)]}
    paths = {
        "from_generators": lambda: from_generators(1, [Word((1,) * 6)]),
        "intersect": lambda: intersect(h, k),
        "pull-back": lambda: compose(alpha, beta),
        "kernel_mod_p": lambda: kernel_mod_p(2, (1, 0), 7),
        "graph document": lambda: graph_from_document(six_cycle),
        "kernel_swap": lambda: kernel_swap(2, 7),
        "free_product_twist": lambda: free_product_twist(2, 7),
        "bs_report": lambda: bs_report(2, 7, samples=10),
        "bs_image_index": lambda: bs_image_index(2, 7),
    }
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "5")
    for op, call in paths.items():
        with pytest.raises(IndexCapError) as caught:
            call()
        message = str(caught.value)
        assert message.startswith(f"{op}: "), message
        assert "vertex cap (5)" in message, message
        assert message.endswith("; raise FREECOMM_INDEX_CAP to allow larger graphs"), message


def test_sparse_document_of_huge_rank_loads_fast():
    # the canonical scan visits the labels present, not every label up to the rank
    doc = {"rank": 100_000_000, "basepoint": 0, "edges": [[0, 0, 1]]}
    start = time.perf_counter()
    g = graph_from_document(doc)
    assert time.perf_counter() - start < 1
    assert g.edges == ((0, 1, 0),)
    assert Subgroup(g).index() is math.inf
    assert Subgroup(g).basis.elements == (parse_word("a"),)


def test_canonical_form_is_stable():
    g = kernel_mod_p(2, (1, 1), 3).graph
    assert graph_from_document(graph_to_document(g)) == g
    relabeled = {
        "rank": 2,
        "basepoint": 7,
        "edges": [[7, 3, 1], [3, 9, 1], [9, 7, 1], [7, 3, 2], [3, 9, 2], [9, 7, 2]],
    }
    assert graph_from_document(relabeled) == g
