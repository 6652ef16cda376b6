"""Read-before-write folding on one signed-letter table against the
letter-by-letter fold of the two-table reference folder, and the vertex cap
on the folded graph."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    EPSILON,
    IndexCapError,
    Word,
    apply_hom,
    compose,
    compute_extension,
    from_generators,
    identity_iso,
    kernel_mod_p,
    witness_expresser,
)
from freecomm.stallings import _FoldGraph
from support import (
    expresser_by_letters,
    from_generators_by_letters,
    random_tiny_iso,
    random_word,
)


def assert_expresses(gens, expr, w):
    assert expr is not None
    assert apply_hom(gens, expr) == w


def test_a_petal_shares_the_empty_witness_of_its_middle_edges():
    # only the first edge of a petal carries its witness, and the rest carry
    # the empty word both ways, one object rather than one per letter
    fg = _FoldGraph("test", witness=True)
    fg.add_loop(fg._grow(1), Word((1, 2) * 50), Word((1,)))
    halves = [w for row in fg.adj for _, w in row.values()]
    assert len(halves) == 200
    assert sorted(map(len, halves)).count(0) == 198
    assert all(w is EPSILON for w in halves if not w)
    assert fg.express(0, Word((1, 2) * 50)) == Word((1,))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(deadline=None, max_examples=1000)
def test_random_generator_sets_match_reference(seed):
    rng = random.Random(seed)
    rank = rng.choice((2, 3))
    gens = [random_word(rng, rank, rng.choice((4, 10))) for _ in range(rng.randrange(1, 5))]
    h = from_generators(rank, gens)
    assert h == from_generators_by_letters(rank, gens)
    express = witness_expresser(rank, gens)
    reference = expresser_by_letters(rank, gens)
    inside = [
        apply_hom(gens, random_word(rng, len(gens), 6)) for _ in range(8)
    ] + list(gens)
    for w in inside:
        assert_expresses(gens, express(w), w)
        assert_expresses(gens, reference(w), w)
    for _ in range(8):
        w = random_word(rng, rank, 8)
        expr = express(w)
        assert (expr is None) == (reference(w) is None) == (not h.contains(w))
        if expr is not None:
            assert_expresses(gens, expr, w)


@pytest.mark.parametrize("rank, weights", [(2, (1, 0)), (2, (1, 1)), (3, (1, 2, 0))])
def test_kernel_bases_refold_like_reference(rank, weights):
    for p in range(2, 41):
        if all(w % p == 0 for w in weights):
            continue
        h = kernel_mod_p(rank, weights, p)
        basis = h.basis.elements
        assert from_generators(rank, basis) == h == from_generators_by_letters(rank, basis)
        express = witness_expresser(rank, basis)
        for i, b in enumerate(basis, start=1):
            assert express(b) == Word((i,))


def test_identity_extension_past_the_letter_count():
    # the basis spells 10 222 letters; the folded graph has 141 vertices
    h = kernel_mod_p(2, (1, 0), 141)
    images = compute_extension(identity_iso(h))
    assert images == (Word((1,)), Word((2,)))


@pytest.mark.parametrize("seed", range(6))
def test_tiny_iso_chains_reach_depth_eight(seed):
    rng = random.Random(seed)
    start = time.perf_counter()
    phi = random_tiny_iso(rng, 3)
    for _ in range(7):
        phi = compose(phi, random_tiny_iso(rng, 3))
    assert phi.domain.index() in (72, 216)
    assert time.perf_counter() - start < 10


def test_cap_counts_the_folded_graph(monkeypatch):
    h = kernel_mod_p(2, (1, 0), 60)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "60")
    assert from_generators(2, h.basis.elements) == h
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "50")
    with pytest.raises(IndexCapError, match=r"from_generators: .*\(50\).*live vertices"):
        from_generators(2, h.basis.elements)
    with pytest.raises(IndexCapError, match=r"witness_expresser: "):
        witness_expresser(2, h.basis.elements)
