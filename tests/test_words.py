"""Word arithmetic: reduction, powers, roots, homomorphisms, abelianization."""

import time
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    EPSILON,
    FreecommError,
    RankMismatchError,
    Word,
    WordError,
    WorkLimitError,
    abelianize,
    apply,
    apply_hom,
    concat,
    conjugate,
    conjugate_subgroup,
    cyclic_split,
    embed_aut,
    express_over,
    free_product_twist,
    from_generators,
    imprimitivity_certificate,
    invert,
    kernel_mod_p,
    make_iso,
    nth_root,
    parse_word,
    power,
    reduce,
    word_to_text,
    words,
)

letters2 = st.sampled_from([1, -1, 2, -2])
words2 = st.lists(letters2, max_size=12).map(Word)
words3 = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=12).map(Word)


def test_reduce_examples():
    assert reduce([1, 2, -2, 1]) == Word((1, 1))
    assert reduce([]) == EPSILON
    assert reduce([1, -1, 2, -2]) == EPSILON


def test_reduce_validates_rank():
    with pytest.raises(RankMismatchError):
        reduce([3], 2)


def test_constructor_reduces_eagerly():
    # equality is plain sequence comparison on the reduced form
    assert Word((1, 2, -2)) == Word((1,))
    assert tuple(Word((1, -1))) == ()


@given(st.lists(letters2, max_size=20))
def test_reduce_idempotent(letters):
    once = reduce(letters)
    assert reduce(once) == once


def test_concat_examples():
    assert concat(Word((1,)), Word((-1,))) == EPSILON
    assert concat(parse_word("ab"), parse_word("Bc")) == parse_word("ac")
    w = parse_word("aBa")
    assert concat(w, EPSILON) == w


@given(words2, words2)
def test_concat_length_bound(u, v):
    assert len(concat(u, v)) <= len(u) + len(v)


def test_invert_power_conjugate_examples():
    assert invert(parse_word("ab")) == parse_word("BA")
    assert power(parse_word("ab"), 3) == parse_word("ababab")
    assert power(parse_word("aB"), 0) == EPSILON
    assert conjugate(parse_word("b"), parse_word("a")) == parse_word("Aba")


@given(words3, words3)
def test_word_fast_paths_match_full_reduction(u, v):
    # concat of two Words cancels only at the seam, invert skips reduction
    for result, full in (
        (concat(u, v), Word(tuple(u) + tuple(v))),
        (u * v, Word(tuple(u) + tuple(v))),
        (invert(u), Word(-a for a in reversed(u))),
    ):
        assert type(result) is Word
        assert tuple(result) == tuple(full)
    assert concat(tuple(u), tuple(v)) == concat(u, v)


def _built_reduced(result, letters):
    """result is a Word, reduced, and equal to what Word(letters) reduces to."""
    assert type(result) is Word
    assert tuple(result) == tuple(Word(result)) == tuple(Word(letters))


@given(words3, words3, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4))
def test_words_from_reduced_parts_match_full_reduction(w, g, n, m):
    # conjugate, power, nth_root and cyclic_split build from reduced parts
    # without the checked constructor; each must be what Word would reduce
    _built_reduced(conjugate(w, g), tuple(invert(g)) + tuple(w) + tuple(g))
    _built_reduced(power(w, n), tuple(w) * n if n >= 0 else tuple(invert(w)) * -n)
    u, c = cyclic_split(w)
    _built_reduced(u, w[len(w) - len(u) :])
    _built_reduced(c, w[len(u) : len(w) - len(u)])
    _built_reduced(nth_root(power(w, m), m), w)
    root = nth_root(w, m)
    if root is not None:
        _built_reduced(root, root)
        assert power(root, m) == w


@pytest.mark.parametrize(
    "bad, message",
    [(0, "letters must be nonzero"), (True, "letters must be nonzero"), (1.5, "letters must be nonzero"),
     (27, "at most 26 generators"), (-27, "at most 26 generators")],
)
def test_word_to_text_refuses_a_bad_letter(bad, message):
    for letters in ((bad,), (1, bad), [2, -2, bad]):
        with pytest.raises(WordError, match=message):
            word_to_text(letters)


def test_word_to_text_reads_the_letters_as_given():
    assert word_to_text((1, -1, 2, 26, -26)) == "aAbzZ"
    assert word_to_text([3, -2, 2]) == "cBb"
    assert word_to_text(()) == word_to_text(EPSILON) == "1"
    assert word_to_text(Word((1, 2, -2, -3))) == "aC"


def test_unreduced_inputs_take_the_validating_path():
    with pytest.raises(WordError):
        concat((1,), (0,))
    with pytest.raises(WordError):
        invert((1, 0))
    assert concat((1, 2), (-2, -1)) == EPSILON
    for build in (
        lambda: conjugate((1, 0), Word((2,))),
        lambda: conjugate(Word((1,)), [2, 1.0]),
        lambda: power([1, 0], 2),
        lambda: nth_root((0,), 2),
        lambda: cyclic_split([1, 0, -1]),
    ):
        with pytest.raises(WordError):
            build()
    assert power([1, 2, -2], 2) == Word((1, 1))
    assert conjugate([2, -2, 1], (-1,)) == Word((1,))
    assert nth_root([1, 2, -2, 1], 2) == Word((1,))
    assert cyclic_split([-1, 2, 1]) == (Word((1,)), Word((2,)))


@given(words2)
def test_invert_involution(w):
    assert invert(invert(w)) == w
    assert concat(w, invert(w)) == EPSILON


@given(words2, st.integers(min_value=-4, max_value=4))
def test_power_matches_iterated_concat(w, n):
    expected = EPSILON
    step = w if n >= 0 else invert(w)
    for _ in range(abs(n)):
        expected = concat(expected, step)
    assert power(w, n) == expected


def test_nth_root_examples():
    xy = parse_word("ab")
    assert nth_root(power(xy, 3), 3) == xy
    assert nth_root(parse_word("b"), 3) is None
    assert nth_root(parse_word("Ababaa"), 2) == parse_word("Abaa")
    assert power(parse_word("Abaa"), 2) == parse_word("Ababaa")
    assert nth_root(parse_word("Ababaa"), 1) == parse_word("Ababaa")
    assert nth_root(EPSILON, 5) == EPSILON


@given(words2, st.integers(min_value=1, max_value=5))
def test_unique_root_round_trip(w, n):
    assert nth_root(power(w, n), n) == w


@given(words2, st.integers(min_value=1, max_value=5))
def test_root_implies_power(w, n):
    v = nth_root(w, n)
    if v is not None:
        assert power(v, n) == w


@given(words2)
def test_cyclic_split_reassembles(w):
    u, c = cyclic_split(w)
    assert concat(concat(invert(u), c), u) == w
    if len(c) > 1:
        assert c[0] != -c[-1]


def test_cyclic_split_of_a_long_stem_is_linear():
    # popping the stem's front letter one at a time took 12 s for this word
    stem = Word([1, 2] * 100_000)
    w = concat(concat(invert(stem), parse_word("b")), stem)
    start = time.perf_counter()
    assert cyclic_split(w) == (stem, parse_word("b"))
    assert nth_root(w, 3) is None  # the core b has length 1
    assert time.perf_counter() - start < 1


def test_power_holds_its_letters_to_the_limit(monkeypatch):
    # Bab splits as b⁻¹·a·b, so its n-th power has 2 + n letters
    w = parse_word("Bab")
    monkeypatch.setattr(words, "LETTER_LIMIT", 8)
    assert power(w, 6) == parse_word("Baaaaaab")
    assert power(w, -6) == parse_word("BAAAAAAb")
    for n in (7, -7):
        with pytest.raises(WorkLimitError, match=r"^power: 9 letters exceed the letter limit \(8\)$"):
            power(w, n)


def test_power_refuses_a_huge_exponent_before_building():
    start = time.perf_counter()
    with pytest.raises(WorkLimitError, match=r"^power: 1000000000000 letters exceed"):
        power(parse_word("a"), 10 ** 12)
    assert time.perf_counter() - start < 0.1


def test_exponents_must_be_ints():
    w = parse_word("ab")
    for n in (2.0, True):
        with pytest.raises(WordError, match=r"^exponent must be an int"):
            power(w, n)
        with pytest.raises(WordError, match=r"^exponent must be an int"):
            w ** n
        with pytest.raises(WordError, match=r"^root exponent must be an int"):
            nth_root(w, n)
    with pytest.raises(WordError, match=r"^root exponent must be >= 1, got 0$"):
        nth_root(w, 0)


def test_apply_hom_examples():
    x, y = parse_word("a"), parse_word("b")
    assert apply_hom([x, x], parse_word("ab")) == parse_word("aa")
    assert apply_hom([x, y], parse_word("aBab")) == parse_word("aBab")
    assert apply_hom([y, x], parse_word("aB")) == parse_word("bA")


def test_apply_hom_validates_rank():
    with pytest.raises(RankMismatchError):
        apply_hom([parse_word("a")], parse_word("ab"))


def test_apply_hom_holds_the_letters_written_to_the_limit(monkeypatch):
    # the letters count before reduction: abab writes ab·Ba·ab·Ba and keeps aaaa
    images = [parse_word("ab"), parse_word("Ba")]
    monkeypatch.setattr(words, "LETTER_LIMIT", 8)
    assert apply_hom(images, parse_word("abab")) == parse_word("aaaa")
    with pytest.raises(
        WorkLimitError, match=r"^apply_hom: 10 letters written from 2 images exceed the letter limit \(8\)$"
    ):
        apply_hom(images, parse_word("ababa"))


def test_plain_sequences_are_checked_as_words():
    # a tuple or list of letters passes through Word, which refuses 0 and non-integers
    with pytest.raises(WordError):
        apply_hom([Word((1,)), Word((2,))], (0,))
    with pytest.raises(WordError):
        apply_hom([Word((1,))], (1.0,))
    with pytest.raises(WordError):
        abelianize((0,), 2)
    assert apply_hom([Word((1,)), Word((2,))], [1, 2, -2]) == Word((1,))
    assert abelianize([1, 2, -2, 1], 2) == (2, 0)


def test_apply_hom_cancels_across_several_seams():
    # c's image bBBA, a plain tuple, reduces to BA and cancels the images of a and b
    images = [parse_word("a"), parse_word("b"), (2, -2, -2, -1)]
    assert apply_hom(images, parse_word("abc")) == EPSILON
    assert apply_hom(images, parse_word("abcb")) == parse_word("b")
    assert apply_hom(images, parse_word("Cab")) == parse_word("abab")


def _laid_end_to_end(images, w) -> Word:
    """The images w names, inverted for a negative letter, reduced as one Word."""
    pieces = (
        tuple(images[a - 1]) if a > 0 else tuple(-b for b in reversed(images[-a - 1]))
        for a in Word(w)
    )
    return Word(chain.from_iterable(pieces))


@given(st.lists(st.lists(letters2, max_size=4), min_size=1, max_size=3), st.data())
def test_apply_hom_matches_the_images_laid_end_to_end(raw, data):
    # short images over two letters, some plain tuples that are not reduced,
    # make a word's images cancel across several seams
    images = [data.draw(st.sampled_from([tuple, Word]))(img) for img in raw]
    signed = [i for k in range(1, len(images) + 1) for i in (k, -k)]
    w = data.draw(st.sampled_from([list, Word]))(data.draw(st.lists(st.sampled_from(signed), max_size=10)))
    got = apply_hom(images, w)
    assert type(got) is Word and got == _laid_end_to_end(images, w)


@given(words2, words2)
def test_apply_hom_distributes_over_concat(u, v):
    images = [parse_word("ab"), parse_word("B")]
    assert apply_hom(images, concat(u, v)) == concat(
        apply_hom(images, u), apply_hom(images, v)
    )


@given(words2)
def test_apply_hom_commutes_with_invert(w):
    images = [parse_word("ba"), parse_word("a")]
    assert apply_hom(images, invert(w)) == invert(apply_hom(images, w))


def test_abelianize_refuses_a_rank_that_is_not_an_int():
    # True counted as rank 1, and 2.0 raised a bare TypeError from [0] * rank
    for rank in (True, 2.0):
        with pytest.raises(WordError, match=rf"^rank must be an int, got {rank!r}$"):
            abelianize(Word((1,)), rank)
    with pytest.raises(WordError, match=r"^rank must be >= 0, got -1$"):
        abelianize(EPSILON, -1)


def test_abelianize_examples():
    assert abelianize(parse_word("aaa"), 2) == (3, 0)
    assert abelianize(parse_word("Aba"), 2) == (0, 1)
    assert abelianize(EPSILON, 2) == (0, 0)


@given(words3, words3)
def test_abelianize_additive(u, v):
    au = abelianize(u, 3)
    av = abelianize(v, 3)
    assert abelianize(concat(u, v), 3) == tuple(a + b for a, b in zip(au, av))
    assert abelianize(invert(u), 3) == tuple(-a for a in au)


def test_imprimitivity_examples():
    assert imprimitivity_certificate(parse_word("aaa"), 2) == 3
    assert imprimitivity_certificate(parse_word("a"), 2) is None
    # commutator: zero exponent vector carries no gcd certificate
    assert imprimitivity_certificate(parse_word("ABab"), 2) is None


def test_imprimitivity_rejects_identity():
    with pytest.raises(WordError):
        imprimitivity_certificate(EPSILON, 2)


@given(words2, st.integers(min_value=2, max_value=5))
def test_proper_powers_are_imprimitive(w, n):
    if w:
        if abelianize(w, 2) != (0, 0):
            d = imprimitivity_certificate(power(w, n), 2)
            assert d is not None and d % n == 0


def test_parse_word_examples():
    assert parse_word("aBBa") == Word((1, -2, -2, 1))
    assert parse_word("1") == EPSILON
    assert parse_word("") == EPSILON
    assert parse_word("abA") == Word((1, 2, -1))


def test_parse_word_errors():
    with pytest.raises(WordError):
        parse_word("a?b")
    with pytest.raises(RankMismatchError):
        parse_word("c", rank=2)


def test_word_to_text_identity():
    assert word_to_text(EPSILON) == "1"


@given(words3)
def test_text_round_trip(w):
    assert parse_word(word_to_text(w)) == w


# ---------------------------------------------------------------------------
# one door: every public entry that takes a word checks it with Word()

_KERNEL = kernel_mod_p(2, (1, 0), 3)
_SWAP_IMAGES = [parse_word(t) for t in ("aaa", "b", "abA", "Aba")]
_SWAP = make_iso(_KERNEL, _KERNEL, _SWAP_IMAGES)
_INFINITE = from_generators(2, [parse_word("aa"), parse_word("baB")])

# public name (and what it is given) -> (call on a sequence s, a word the call accepts)
BOUNDARY_ENTRIES = {
    "abelianize": (lambda s: abelianize(s, 2), "aab"),
    "apply_hom": (lambda s: apply_hom([parse_word("ab"), parse_word("B")], s), "abA"),
    "apply_hom image": (lambda s: apply_hom([s, parse_word("b")], (1, -2, -1)), "ab"),
    "concat": (lambda s: (concat(s, (2, 1)), concat((-1,), s)), "aB"),
    "conjugate": (lambda s: (conjugate(s, (1,)), conjugate((2,), s)), "ab"),
    "cyclic_split": (cyclic_split, "Abaa"),
    "imprimitivity_certificate": (lambda s: imprimitivity_certificate(s, 2), "aaa"),
    "invert": (invert, "aB"),
    "nth_root": (lambda s: [nth_root(s, n) for n in (1, 2, 3)], "Ababaa"),
    "power": (lambda s: [power(s, n) for n in (-2, 0, 3)], "Bab"),
    "reduce": (lambda s: reduce(s, 2), "ab"),
    "contains": (_KERNEL.contains, "abA"),
    "express_in_basis": (_KERNEL.express_in_basis, "aaab"),
    "express_over word": (lambda s: express_over(2, _SWAP_IMAGES, s), "abAb"),
    "express_over generator": (lambda s: express_over(2, [s, (2,)], (2, 1, 1, -2)), "aa"),
    "from_generators": (lambda s: from_generators(2, [s, (1, 1, 1)]), "b"),
    "conjugate_subgroup": (lambda s: conjugate_subgroup(_INFINITE, s), "bba"),
    "make_iso image": (lambda s: make_iso(_KERNEL, _KERNEL, [s, *_SWAP_IMAGES[1:]]), "aaa"),
    "embed_aut image": (lambda s: embed_aut([s, (2,)]), "ab"),
    "apply": (lambda s: apply(_SWAP, s), "aaab"),
    "free_product_twist b": (lambda s: free_product_twist(2, 3, s), "b"),
}
# names in words.__all__ that take no word to check: a constant, the check
# itself, a generator index, and the helpers that read letters as given
WORDS_EXEMPT = {"EPSILON", "Word", "generator", "max_generator", "parse_word", "word_to_text"}

_bases = st.builds(
    lambda u, w, k: concat(concat(invert(u), power(w, k)), u),
    words2,
    words2,
    st.integers(min_value=1, max_value=3),
)


@st.composite
def _unreduced(draw, base: Word) -> list:
    """Letters that Word reduces to base: cancelling pairs put in at random places."""
    letters = list(base)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        i = draw(st.integers(min_value=0, max_value=len(letters)))
        a = draw(st.sampled_from([1, -1, 2, -2]))
        letters[i:i] = [a, -a]
    return letters


def _outcome(call, s):
    try:
        return "returned", call(s)
    except (FreecommError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", sorted(BOUNDARY_ENTRIES))
@given(data=st.data())
@settings(deadline=None, max_examples=20)
def test_every_word_entry_checks_its_input_as_a_word(name, data):
    call, text = BOUNDARY_ENTRIES[name]
    base = data.draw(st.one_of(st.just(parse_word(text)), _bases))
    s = data.draw(_unreduced(base))
    assert Word(s) == base
    assert _outcome(call, s) == _outcome(call, base)
    bad = data.draw(st.sampled_from([0, True, 1.5]))
    i = data.draw(st.integers(min_value=0, max_value=len(s)))
    with pytest.raises(WordError, match=r"^letters must be nonzero integers"):
        call(s[:i] + [bad] + s[i:])


def test_every_words_name_is_covered_or_exempt():
    covered = {name.split()[0] for name in BOUNDARY_ENTRIES}
    names = set(words.__all__)
    assert names - covered - WORDS_EXEMPT == set()
    assert WORDS_EXEMPT <= names and not WORDS_EXEMPT & covered


def test_a_word_passes_through_word_unchanged():
    w = parse_word("aBa")
    assert Word(w) is w
    assert Word((1, -2, 2, -2, 1)) == w


def test_unreduced_sequences_get_the_answer_for_the_reduced_word(monkeypatch):
    # each of these was traced as it stood: the old answer is on its right
    root = nth_root((2, 1, 2, -2, -1), 1)
    assert type(root) is Word and root == parse_word("b")  # (2, 1, 2, -2, -1)
    assert nth_root((1, 5, 5, -1, 2, -2), 2) == Word((1, 5, -1))  # None
    assert cyclic_split((1, -1, -1, -1)) == (EPSILON, parse_word("AA"))  # (A, AA)
    assert cyclic_split((1, 5, -1, 2, -2)) == (parse_word("A"), parse_word("e"))  # (1, aeA)
    assert express_over(2, [(1, -1, 2)], (2,)) == parse_word("a")  # None
    assert express_over(2, [parse_word("aa"), parse_word("b")], (2, 1, 2, -2, -1)) == parse_word("b")  # None
    report = free_product_twist(2, 3, (2, 2, -2))
    assert report.parameters["b"] == "b" and report == free_product_twist(2, 3)  # "bbB"
    monkeypatch.setattr(words, "LETTER_LIMIT", 8)
    assert power((1, 5, -1, 2, -2), 3) == Word((1, 5, 5, 5, -1))  # refused for 9 letters


def test_bad_letters_are_refused_at_every_entry():
    for call in (
        lambda: nth_root((1, 0), 1),  # returned (1, 0)
        lambda: express_over(2, [(0,)], (1,)),  # None
        lambda: express_over(2, [(True,)], (1,)),  # Word('a')
        lambda: invert((True,)),  # Word('A'): the flip made True an int
        lambda: power((True,), -1),  # Word('a')
        lambda: power((0,), 0),  # EPSILON
    ):
        with pytest.raises(WordError, match=r"^letters must be nonzero integers"):
            call()
    with pytest.raises(ValueError, match=r"nontrivial member of the kernel's B-part, got '1'$"):
        free_product_twist(2, 3, (2, -2))  # built a report whose checks failed
