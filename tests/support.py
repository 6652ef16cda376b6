"""Shared generators for randomized tests: words, covers, automorphisms."""

from __future__ import annotations

import heapq
import random
from typing import Sequence

from freecomm import (
    EPSILON,
    PartialIso,
    RankMismatchError,
    Subgroup,
    Word,
    apply,
    apply_hom,
    embed_aut,
    from_generators,
    generator,
    image_subgroup,
    intersect,
    invert,
    join,
    kernel_mod_p,
    make_iso,
    restrict,
    rewrite_over_basis,
    subgroup_from_document,
    whole_group,
    witness_expresser,
)
from freecomm.stallings import _FoldGraph, _make_subgroup


def random_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    letters = []
    pool = [i for i in range(1, rank + 1)] + [-i for i in range(1, rank + 1)]
    for _ in range(rng.randrange(max_len + 1)):
        letters.append(rng.choice(pool))
    return Word(letters)


def random_nontrivial_word(rng: random.Random, rank: int, max_len: int = 8) -> Word:
    while True:
        w = random_word(rng, rank, max_len)
        if w:
            return w


def _random_transitive_action(rng: random.Random, rank: int, degree: int):
    """One permutation of range(degree) per generator, jointly transitive."""
    while True:
        perms = [rng.sample(range(degree), degree) for _ in range(rank)]
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for perm in perms:
                for u in (perm[v], perm.index(v)):
                    if u not in seen:
                        seen.add(u)
                        frontier.append(u)
        if len(seen) == degree:
            return perms


def random_cover(rng: random.Random, rank: int, index: int) -> Subgroup:
    """Point stabilizer of a random transitive action: a subgroup of that index.

    Built through the document loader so the tests exercise the public
    constructor on graphs that are covers by construction.
    """
    perms = _random_transitive_action(rng, rank, index)
    edges = []
    for label, perm in enumerate(perms, start=1):
        for v in range(index):
            edges.append([v, perm[v], label])
    doc = {"rank": rank, "basepoint": 0, "edges": edges}
    return subgroup_from_document(doc)


IDENTITY_IMAGES = {
    rank: tuple(generator(i) for i in range(1, rank + 1)) for rank in (2, 3, 4, 5)
}


def nielsen_moves(rank: int) -> list[tuple[Word, ...]]:
    """Elementary Nielsen transformations as generator image tuples."""
    moves = []
    ident = tuple(generator(i) for i in range(1, rank + 1))
    for i in range(rank):
        flipped = list(ident)
        flipped[i] = ident[i].inverse()
        moves.append(tuple(flipped))
        for j in range(rank):
            if i == j:
                continue
            swapped = list(ident)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            moves.append(tuple(swapped))
            for sign in (1, -1):
                pushed = list(ident)
                pushed[i] = ident[i] * (ident[j] if sign > 0 else ident[j].inverse())
                moves.append(tuple(pushed))
    return moves


def compose_images(
    outer: Sequence[Word], inner: Sequence[Word]
) -> tuple[Word, ...]:
    """Images of the composite sending g first through inner, then outer."""
    return tuple(apply_hom(outer, w) for w in inner)


def random_aut_images(
    rng: random.Random, rank: int, num_moves: int = 4
) -> tuple[Word, ...]:
    moves = nielsen_moves(rank)
    images = tuple(generator(i) for i in range(1, rank + 1))
    for _ in range(num_moves):
        images = compose_images(rng.choice(moves), images)
    return images


def random_small_domain(rng: random.Random, rank: int) -> Subgroup:
    """A subgroup of index at most 6, mixing kernels and random covers."""
    kind = rng.randrange(3)
    if kind == 0:
        p = rng.choice((2, 3, 5))
        weights = [rng.randrange(p) for _ in range(rank)]
        if all(w % p == 0 for w in weights):
            weights[rng.randrange(rank)] = 1
        return kernel_mod_p(rank, weights, p)
    if kind == 1:
        a = kernel_mod_p(rank, [1] + [rng.randrange(2) for _ in range(rank - 1)], 2)
        b = kernel_mod_p(rank, [rng.randrange(3) for _ in range(rank - 1)] + [1], 3)
        return intersect(a, b)
    return random_cover(rng, rank, rng.randrange(2, 7))


def random_restriction_iso(rng: random.Random, rank: int) -> PartialIso:
    """Restriction of a random automorphism to a random small domain."""
    aut = embed_aut(random_aut_images(rng, rank))
    return restrict(aut, random_small_domain(rng, rank))


def random_tiny_domain(rng: random.Random, rank: int) -> Subgroup:
    """Index 2 or 3, short basis words: safe for nested compositions."""
    p = rng.choice((2, 3))
    weights = [rng.randrange(p) for _ in range(rank)]
    if all(w % p == 0 for w in weights):
        weights[rng.randrange(rank)] = 1
    return kernel_mod_p(rank, weights, p)


def random_tiny_iso(rng: random.Random, rank: int) -> PartialIso:
    aut = embed_aut(random_aut_images(rng, rank, num_moves=2))
    return restrict(aut, random_tiny_domain(rng, rank))


def lattice_by_joins(h: Subgroup) -> tuple[list[Subgroup], int]:
    """Reference overgroups and subindex of a finite-index H, by folding.

    Every overgroup is generated by H and the coset representatives it
    contains, so the joins of H with each representative, closed under
    pairwise joins, are the whole interval.  The subindex is a minimax
    path over it, with containment tested on bases.  Slow, and independent
    of the block systems of the coset action that the library enumerates.
    """
    members = {join(h, from_generators(h.rank, [w])) for w in h.coset_representatives()}
    members.add(h)
    todo = list(members)
    for a in todo:  # grows while it is read
        for b in list(members):
            j = join(a, b)
            if j not in members:
                members.add(j)
                todo.append(j)
    lattice = sorted(members, key=lambda s: (s.index(), s.graph.edges))
    whole = whole_group(h.rank)
    best = {h: 1}
    heap = [(1, 0, h)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if u == whole:
            return lattice, d
        if d > best[u]:
            continue
        for i, v in enumerate(lattice):
            if v.index() < u.index() and all(v.contains(b) for b in u.basis.elements):
                nd = max(d, u.index() // v.index())
                if nd < best.get(v, nd + 1):
                    best[v] = nd
                    heapq.heappush(heap, (nd, i, v))
    raise AssertionError("the minimax search never reached the whole group")


def _fold_letter_by_letter(rank: int, gens: Sequence[Word], witness: bool) -> _FoldGraph:
    """Reference bouquet fold: one fresh vertex per letter, folded edge by edge.

    This is how the library folded before it read each generator against
    the graph built so far; generator i carries the witness Word((i + 1,)).
    """
    fg = _FoldGraph(rank, "letter-by-letter reference", witness)
    base = fg.new_vertex()
    for i, w in enumerate(gens):
        pos = base
        for k, a in enumerate(w):
            nxt = base if k == len(w) - 1 else fg.new_vertex()
            aux = (Word((i + 1,)) if k == 0 else EPSILON) if witness else None
            if a > 0:
                fg.add_edge(pos, a, nxt, aux)
            else:
                fg.add_edge(nxt, -a, pos, invert(aux) if witness else None)
            pos = nxt
    return fg


def from_generators_by_letters(rank: int, gens: Sequence[Word]) -> Subgroup:
    """Reference from_generators over the letter-by-letter fold."""
    base, edges = _fold_letter_by_letter(rank, gens, False).folded_edges(0)
    return _make_subgroup(rank, base, edges)


def expresser_by_letters(rank: int, gens: Sequence[Word]):
    """Reference witness_expresser over the letter-by-letter fold."""
    fg = _fold_letter_by_letter(rank, gens, True)
    return lambda w: fg.express(0, w)


def join_by_wedge(h: Subgroup, k: Subgroup) -> Subgroup:
    """Reference join: wedge both graphs at the basepoint, then fold.

    This is how the library joined before it placed K's vertices as it
    read K's edges; it allocates every vertex of both graphs up front.
    """
    fg = _FoldGraph(h.rank, "wedge reference")
    ids_h = [fg.new_vertex() for _ in range(h.graph.num_vertices)]
    ids_k = [ids_h[0] if v == 0 else fg.new_vertex() for v in range(k.graph.num_vertices)]
    for u, l, v in h.graph.edges:
        fg.add_edge(ids_h[u], l, ids_h[v])
    for u, l, v in k.graph.edges:
        fg.add_edge(ids_k[u], l, ids_k[v])
    base, edges = fg.folded_edges(ids_h[0])
    return _make_subgroup(h.rank, base, edges)


# Reference iso calculus: every map is validated by make_iso, and pulling a
# subgroup back through alpha inverts the whole of alpha first.  This is
# how the library built maps before it built them by construction.


def invert_iso_by_make_iso(phi: PartialIso) -> PartialIso:
    express = witness_expresser(phi.rank, phi.images)
    preimages = [
        apply_hom(phi.domain.basis.elements, express(c)) for c in phi.codomain.basis.elements
    ]
    return make_iso(phi.codomain, phi.domain, preimages)


def compose_by_inversion(alpha: PartialIso, beta: PartialIso) -> PartialIso:
    if alpha.rank != beta.rank:
        raise RankMismatchError(f"mixed ambient ranks {alpha.rank} and {beta.rank}")
    mid = intersect(alpha.codomain, beta.domain)
    dom = image_subgroup(invert_iso_by_make_iso(alpha), mid)
    images = [apply(beta, apply(alpha, b)) for b in dom.basis.elements]
    return make_iso(dom, from_generators(alpha.rank, images), images)


def transfer_to_subgroup_by_inversion(alpha: PartialIso, h: Subgroup) -> PartialIso:
    h_basis = h.basis.elements
    pre = image_subgroup(invert_iso_by_make_iso(alpha), intersect(alpha.codomain, h))
    dom = rewrite_over_basis(h, intersect(pre, h))
    images = [h.express_in_basis(apply(alpha, apply_hom(h_basis, c))) for c in dom.basis.elements]
    return make_iso(dom, from_generators(len(h_basis), images), images)
