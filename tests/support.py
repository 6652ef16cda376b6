"""Shared generators for randomized tests: words, covers, automorphisms."""

from __future__ import annotations

import heapq
import math
import random
from collections import deque
from functools import lru_cache
from itertools import accumulate, chain
from typing import Iterable, Optional, Sequence

from freecomm import (
    EPSILON,
    CoreGraph,
    IndexCapError,
    InvalidIsoError,
    NotInSubgroupError,
    PartialIso,
    RankMismatchError,
    Subgroup,
    Word,
    WorkLimitError,
    apply,
    apply_hom,
    compose_many,
    embed_aut,
    from_generators,
    concat,
    conjugate,
    generator,
    intersect,
    invert,
    join,
    kernel_mod_p,
    make_iso,
    power,
    restrict,
    rewrite_over_basis,
    subgroup_from_document,
    whole_group,
    witness_expresser,
    words,
)
from freecomm import commensurator
from freecomm.stallings import VERTEX_CAP_ENV, vertex_cap
from freecomm.words import _quoted


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


def permutation_cayley_document(gens: Sequence[Sequence[int]]) -> dict:
    """The graph document of the permutation group the given permutations
    generate, acting on itself by right multiplication: one vertex per
    element, the identity at 0, and the l-labeled edge g -> g·s_l, the
    permutation that applies g and then s_l.  Its subgroup is the kernel of
    F_rank onto that group, so it is normal and its action is regular."""
    identity = tuple(range(len(gens[0])))
    number, elements, edges = {identity: 0}, [identity], []
    for g in elements:  # grows while it is read
        for l, s in enumerate(gens, start=1):
            h = tuple(s[i] for i in g)
            if h not in number:
                number[h] = len(elements)
                elements.append(h)
            edges.append([number[g], number[h], l])
    return {"rank": len(gens), "basepoint": 0, "edges": edges}


def abelian_kernel(moduli: Sequence[int]) -> Subgroup:
    """Kernel of F_k -> Z/m_1 x ... x Z/m_k sending generator i to the i-th
    unit vector, for the k moduli given."""
    k = len(moduli)
    h = whole_group(k)
    for i, m in enumerate(moduli):
        h = intersect(h, kernel_mod_p(k, [int(j == i) for j in range(k)], m))
    return h


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


def random_nonextending_iso(rng: random.Random, rank: int) -> PartialIso:
    """A map that extends to no automorphism of F_rank, rank at least 2.

    Its core is the kernel swap or the free product twist of the Z/p
    kernel on the first generator a, p in (2, 3, 5), composed with a
    random restriction before it, after it, on both sides or on neither.
    The swap exchanges the basis elements a^p and b, so compute_extension
    refuses it at its first root.  The twist conjugates by b every basis
    element outside <a> and <b, ...>; its forced candidates are a and b,
    which generate F, so it is refused late, where the basis is compared,
    at the first twisted element.  The composite extends exactly when the
    core does, as the restrictions extend.
    """
    p = rng.choice((2, 3, 5))
    h = kernel_mod_p(rank, (1,) + (0,) * (rank - 1), p)
    images = list(h.basis.elements)
    if rng.randrange(2):
        i, j = images.index(power(generator(1), p)), images.index(generator(2))
        images[i], images[j] = images[j], images[i]
    else:
        images = [
            w if len({abs(x) == 1 for x in w}) == 1 else conjugate(w, generator(2))
            for w in images
        ]
    links = [make_iso(h, h, images)]
    side = rng.randrange(4)
    if side & 1:
        links.insert(0, random_restriction_iso(rng, rank))
    if side & 2:
        links.append(random_restriction_iso(rng, rank))
    return compose_many(links)


def keeping_images(phi: PartialIso) -> PartialIso:
    """phi, built as the library built maps before they held automorphisms:
    it keeps its images and the codomain phi holds, and no automorphism."""
    return commensurator._iso(phi.domain, phi.images, vars(phi).get("codomain"))


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


# Reference folder: two tables per root, out[root][label] = (target id,
# witness) and inc[root][label] = source id, with a mirrored branch per
# direction in each helper.  This is how the library folded before it kept
# one table keyed by signed letters; the letter-by-letter fold and the
# wedge join below run on it, so the tests compare the two folders.


class TwoTableFoldGraph:
    def __init__(self, op: str, witness: bool = False):
        self.op = op  # named by the vertex cap error
        self.witness = witness
        self.cap = vertex_cap()
        self.live = 0  # union-find roots, the vertices of the folded graph
        self.parent: list[int] = []
        self.pot: list[Optional[Word]] = []
        self.out: list[dict] = []  # per root: label -> (target id, witness)
        self.inc: list[dict] = []  # per root: label -> source id
        self.pending: deque = deque()

    # -- union-find with potentials

    def _grow(self, count: int) -> int:
        """Allocate count fresh root vertices; returns the first id."""
        if self.live + count > self.cap:
            raise IndexCapError(
                f"{self.op}: the folded graph would exceed the vertex cap ({self.cap}) "
                f"with {self.live + count} live vertices ({len(self.parent) + count} "
                f"allocated); raise {VERTEX_CAP_ENV} to allow larger graphs"
            )
        first = len(self.parent)
        self.live += count
        self.parent.extend(range(first, first + count))
        self.pot.extend([EPSILON if self.witness else None] * count)
        self.out.extend({} for _ in range(count))
        self.inc.extend({} for _ in range(count))
        return first

    def new_vertex(self) -> int:
        return self._grow(1)

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def find_pot(self, x: int) -> tuple[int, Word]:
        """Root of x and the witness relating x's frame to the root's."""
        chain = []
        while self.parent[x] != x:
            chain.append(x)
            x = self.parent[x]
        root = x
        for y in reversed(chain):
            p = self.parent[y]
            if p != root:
                self.pot[y] = concat(self.pot[y], self.pot[p])
                self.parent[y] = root
        return root, (self.pot[chain[0]] if chain else EPSILON)

    def _pot_of(self, x: int) -> tuple[int, Word]:
        if self.witness:
            return self.find_pot(x)
        return self.find(x), EPSILON

    # -- edge insertion and folding

    def add_edge(self, u: int, letter: int, v: int, aux: Optional[Word] = None) -> None:
        if self.witness and aux is None:
            aux = EPSILON
        self.pending.append(("e", u, letter, v, aux))
        self._drain()

    def _drain(self) -> None:
        while self.pending:
            item = self.pending.popleft()
            if item[0] == "e":
                self._insert(*item[1:])
            else:
                self._merge(*item[1:])

    def _insert(self, u: int, letter: int, v: int, aux: Optional[Word]) -> None:
        ur, pu = self._pot_of(u)
        vr, pv = self._pot_of(v)
        if self.witness:
            eff = concat(concat(invert(pu), aux), pv)
        else:
            eff = None
        cur = self.out[ur].get(letter)
        if cur is not None:
            t_id, a1 = cur
            t1r, pt = self._pot_of(t_id)
            alpha = concat(a1, pt) if self.witness else None
            self.out[ur][letter] = (t1r, alpha)
            if t1r == vr:
                return  # parallel duplicate; the stored witness stays
            # fold the two targets together
            gamma = concat(invert(eff), alpha) if self.witness else None
            self.pending.append(("m", vr, t1r, gamma))
            return
        cin = self.inc[vr].get(letter)
        if cin is not None:
            s1r, ps = self._pot_of(cin)
            self.inc[vr][letter] = s1r
            entry = self.out[s1r][letter]
            t_id, a1 = entry
            if self.witness:
                _, pt = self._pot_of(t_id)
                alpha = concat(a1, pt)
            else:
                alpha = None
            if s1r == ur:
                return  # same edge slot; nothing new
            # fold the two sources together
            gamma = concat(eff, invert(alpha)) if self.witness else None
            self.pending.append(("m", ur, s1r, gamma))
            return
        self.out[ur][letter] = (vr, eff)
        self.inc[vr][letter] = ur

    def _merge(self, x: int, y: int, gamma: Optional[Word]) -> None:
        xr, px = self._pot_of(x)
        yr, py = self._pot_of(y)
        if xr == yr:
            return
        g = concat(concat(invert(px), gamma), py) if self.witness else None
        # keep the vertex with more edges live
        if len(self.out[xr]) + len(self.inc[xr]) > len(self.out[yr]) + len(self.inc[yr]):
            xr, yr = yr, xr
            g = invert(g) if self.witness else None
        # detach the dead vertex's edges (both sides) before re-rooting,
        # while find() still reports xr as its own root
        dead_out = self.out[xr]
        dead_inc = self.inc[xr]
        self.out[xr] = {}
        self.inc[xr] = {}
        ginv = invert(g) if self.witness else None
        requeue = []
        for l, (t_id, a) in dead_out.items():
            tr = self.find(t_id)
            if tr != xr:
                back = self.inc[tr].get(l)
                if back is not None and self.find(back) == xr:
                    del self.inc[tr][l]
            requeue.append(("e", yr, l, t_id, concat(ginv, a) if self.witness else None))
        for l, s_id in dead_inc.items():
            sr = self.find(s_id)
            if sr == xr:
                continue  # self-loop, already queued above
            entry = self.out[sr].pop(l, None)
            if entry is None:
                continue
            t_id, a = entry
            requeue.append(("e", sr, l, t_id, a))
        self.parent[xr] = yr
        self.live -= 1
        if self.witness:
            self.pot[xr] = g
        self.pending.extend(requeue)

    def folded_edges(self, base: int) -> tuple[int, set]:
        roots = [v for v in range(len(self.parent)) if self.find(v) == v]
        edges = set()
        for r in roots:
            for l, (t_id, _a) in self.out[r].items():
                edges.add((r, l, self.find(t_id)))
        return self.find(base), edges

    # -- witness tracing

    def _walk(self, pos: int, letters: Iterable[int], acc: list) -> tuple[int, int]:
        """Follow letters from pos until an edge is missing (witness mode).

        Returns the root reached and the number of letters read; acc gets
        the witness from pos's frame to that root's frame, unreduced.
        """
        read = 0
        for a in letters:
            r, pp = self.find_pot(pos)
            l = abs(a)
            if a > 0:
                entry = self.out[r].get(l)
                if entry is None:
                    break
                t_id, ea = entry
                acc.extend(pp)
                acc.extend(ea)
                pos = t_id
            else:
                s_id = self.inc[r].get(l)
                if s_id is None:
                    break
                sr, _ = self.find_pot(s_id)
                t_id, ea = self.out[sr][l]
                _, pt = self.find_pot(t_id)
                # step backward: undo the edge witness, land in the source frame
                acc.extend(pp)
                acc.extend(invert(concat(ea, pt)))
                pos = sr
            read += 1
        r, pp = self.find_pot(pos)
        acc.extend(pp)
        return r, read

    def express(self, base: int, w: Word) -> Optional[Word]:
        """A word over the generator alphabet mapping onto w, or None.

        Requires witness mode.  Returns None when w is not in the
        subgroup the folded graph represents.
        """
        acc: list[int] = []
        end, read = self._walk(base, w, acc)
        br, pb = self.find_pot(base)
        if read < len(w) or end != br:
            return None
        return concat(Word(acc), invert(pb))


def _fold_letter_by_letter(gens: Sequence[Word], witness: bool) -> TwoTableFoldGraph:
    """Reference bouquet fold: one fresh vertex per letter, folded edge by edge.

    This is how the library folded before it read each generator against
    the graph built so far; generator i carries the witness Word((i + 1,)).
    """
    fg = TwoTableFoldGraph("letter-by-letter reference", witness)
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
    base, edges = _fold_letter_by_letter(gens, False).folded_edges(0)
    return Subgroup(make_subgroup_by_edge_sets(rank, base, edges))


def expresser_by_letters(rank: int, gens: Sequence[Word]):
    """Reference witness_expresser over the letter-by-letter fold."""
    fg = _fold_letter_by_letter(gens, True)
    return lambda w: fg.express(0, w)


def join_by_wedge(h: Subgroup, k: Subgroup) -> Subgroup:
    """Reference join: wedge both graphs at the basepoint, then fold.

    This is how the library joined before it placed K's vertices as it
    read K's edges; it allocates every vertex of both graphs up front.
    """
    fg = TwoTableFoldGraph("wedge reference")
    ids_h = [fg.new_vertex() for _ in range(h.graph.num_vertices)]
    ids_k = [ids_h[0] if v == 0 else fg.new_vertex() for v in range(k.graph.num_vertices)]
    for u, l, v in h.graph.edges:
        fg.add_edge(ids_h[u], l, ids_h[v])
    for u, l, v in k.graph.edges:
        fg.add_edge(ids_k[u], l, ids_k[v])
    base, edges = fg.folded_edges(ids_h[0])
    return Subgroup(make_subgroup_by_edge_sets(h.rank, base, edges))


# Reference iso calculus: every map is validated by make_iso, and pulling a
# subgroup back through alpha inverts the whole of alpha first.  This is
# how the library built maps before it built them by construction.


def apply_by_expression(phi: PartialIso, w: Word) -> Word:
    """apply by the two-table rewrite: w is checked as a Word and refused
    for a letter past the rank, then for membership, then for the letter
    limit; otherwise the pieces are laid end to end and reduced as one
    Word.  The pieces of a map that holds an automorphism A are A's
    generator images over w's letters, and phi.images is never read, as
    that read would fill the cache the laziness tests inspect; those of
    any other map are the images that w's basis expression names."""
    w = Word(w)
    if max(map(abs, w), default=0) > phi.rank:
        raise RankMismatchError(f"word {_quoted(w)} exceeds rank {phi.rank}")
    expr = express_in_basis_by_two_tables(phi.domain.graph, w)
    if expr is None:
        raise NotInSubgroupError(f"{_quoted(w)} is not in the subgroup")
    images, letters = (phi._aut, w) if phi._aut else (phi.images, expr)
    pieces = [images[i - 1] if i > 0 else invert(images[-i - 1]) for i in letters]
    limit = words.LETTER_LIMIT
    for written in accumulate(map(len, pieces)):
        if written > limit:
            raise WorkLimitError(
                f"apply_hom: {written} letters written from {len(images)} images "
                f"exceed the letter limit ({limit})"
            )
    return Word(chain.from_iterable(pieces))


def outcome(fn, *args):
    """What a call gives: its result with its type, or its exception's type and message."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), result


def make_iso_by_contains_and_fold(
    domain: Subgroup, codomain: Subgroup, images: Sequence[Word]
) -> PartialIso:
    """make_iso as it validated before it folded basis expressions: each
    image passes contains, then the images themselves are folded and the
    fold is compared with the codomain."""
    if domain.rank != codomain.rank:
        raise RankMismatchError(f"mixed ambient ranks {domain.rank} and {codomain.rank}")
    if math.inf in (domain.index(), codomain.index()):
        raise InvalidIsoError("domain and codomain must have finite index")
    images = tuple(Word(w) for w in images)
    size = len(domain.basis.elements)
    if len(images) != size:
        raise InvalidIsoError(
            f"expected {size} images (one per domain basis element), got {len(images)}"
        )
    for w in images:
        if not codomain.contains(w):
            raise InvalidIsoError(f"image {_quoted(w)} lies outside the codomain")
    if from_generators(domain.rank, images) != codomain:
        raise InvalidIsoError("images generate a proper subgroup of the codomain")
    g = codomain.graph
    r = len(g.edges) - g.num_vertices + 1
    if size != r:
        raise InvalidIsoError(
            f"rank drop: domain has rank {size} but codomain has rank {r}; "
            "the map cannot be injective"
        )
    return PartialIso(domain=domain, codomain=codomain, images=images)


def image_subgroup(phi: PartialIso, k: Subgroup) -> Subgroup:
    return from_generators(phi.rank, [apply(phi, b) for b in k.basis.elements])


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


def transfer_to_overgroup_by_fold(beta: PartialIso, h: Subgroup) -> PartialIso:
    """transfer_to_overgroup as it built its domain before it pulled it back:
    the basis of domain(beta), lifted through basis(H), is folded."""
    h_basis = h.basis.elements
    if beta.rank != len(h_basis):
        raise RankMismatchError(
            f"the map is over rank {beta.rank} but H has basis size {len(h_basis)}"
        )
    if h.index() is math.inf:
        raise InvalidIsoError("domain and codomain must have finite index")
    dom = from_generators(h.rank, [apply_hom(h_basis, b) for b in beta.domain.basis.elements])
    images = [apply_hom(h_basis, apply(beta, h.express_in_basis(b))) for b in dom.basis.elements]
    return make_iso(dom, from_generators(h.rank, images), images)


# Reference core-graph routines: two tables per graph, out[v][label] and
# inc[v][label], and a pass over edge sets that prunes hanging trees.  This
# is how the library numbered, pruned and read its graphs before it kept one
# table keyed by signed letters.


def _bfs_two_tables(base, out: dict, inc: dict):
    """Canonical BFS: labels ascending at each vertex, outgoing before incoming.

    Returns (numbering, visit sequence, parents) where parents[v] =
    (parent, label, direction) describes the discovering tree edge.
    """
    number = {base: 0}
    seq = [base]
    parents: dict = {}
    i = 0
    while i < len(seq):
        v = seq[i]
        i += 1
        ov = out.get(v, {})
        iv = inc.get(v, {})
        for l in sorted(ov.keys() | iv.keys()):
            w = ov.get(l)
            if w is not None and w not in number:
                number[w] = len(seq)
                seq.append(w)
                parents[w] = (v, l, 1)
            w = iv.get(l)
            if w is not None and w not in number:
                number[w] = len(seq)
                seq.append(w)
                parents[w] = (v, l, -1)
    return number, seq, parents


def _two_tables(edges) -> tuple[dict, dict]:
    out: dict = {}
    inc: dict = {}
    for u, l, v in edges:
        out.setdefault(u, {})[l] = v
        inc.setdefault(v, {})[l] = u
    return out, inc


def canonical_by_two_tables(rank: int, base, edges) -> CoreGraph:
    """Reference renumbering of a folded connected graph into canonical form."""
    out, inc = _two_tables(edges)
    number, _, _ = _bfs_two_tables(base, out, inc)
    vertices = set(out) | set(inc) | {base}
    if len(number) < len(vertices):
        raise ValueError("graph is not connected from the basepoint")
    new_edges = tuple(sorted((number[u], l, number[v]) for u, l, v in edges))
    return CoreGraph(rank=rank, edges=new_edges)


def _core_by_edge_sets(base, edges) -> set:
    """Drop trees hanging off the graph; the basepoint survives regardless."""
    edges = set(edges)
    deg: dict = {}
    incident: dict = {}
    for e in edges:
        u, _, v = e
        for x in (u, v):
            deg[x] = deg.get(x, 0) + 1
            incident.setdefault(x, set()).add(e)
    stack = [v for v, d in deg.items() if d <= 1 and v != base]
    while stack:
        v = stack.pop()
        if v == base or deg.get(v, 0) > 1:
            continue
        for e in list(incident.get(v, ())):
            if e not in edges:
                continue
            edges.discard(e)
            u, _, w2 = e
            for x in (u, w2):
                deg[x] -= 1
                if x != v and x != base and deg[x] <= 1:
                    stack.append(x)
        incident.get(v, set()).clear()
    return edges


def make_subgroup_by_edge_sets(rank: int, base, edges) -> CoreGraph:
    """Reference core graph of a folded connected graph: prune, then renumber."""
    return canonical_by_two_tables(rank, base, _core_by_edge_sets(base, edges))


def tree_by_two_tables(graph: CoreGraph):
    """(paths, tree edges, off-tree edges) of a canonical graph's spanning tree.

    paths[v] is the word along the tree from the basepoint to v; the
    off-tree edges are listed in sorted order, one per basis element.
    """
    out, inc = _two_tables(graph.edges)
    _, seq, parents = _bfs_two_tables(0, out, inc)
    paths = {0: EPSILON}
    for v in seq[1:]:
        p, l, direction = parents[v]
        paths[v] = concat(paths[p], Word((l * direction,)))
    tree = {(p, l, v) if d > 0 else (v, l, p) for v, (p, l, d) in parents.items()}
    return paths, frozenset(tree), [e for e in sorted(graph.edges) if e not in tree]


def basis_by_two_tables(graph: CoreGraph) -> tuple[Word, ...]:
    paths, _, off = tree_by_two_tables(graph)
    return tuple(concat(concat(paths[u], Word((l,))), invert(paths[v])) for u, l, v in off)


@lru_cache(maxsize=64)
def _rewrite_tables(graph: CoreGraph) -> tuple[dict, dict, dict]:
    """The two tables of a graph and the number of each edge off its tree,
    kept for the graphs of the last maps applied."""
    out, inc = _two_tables(graph.edges)
    return out, inc, {e: i for i, e in enumerate(tree_by_two_tables(graph)[2])}


def express_in_basis_by_two_tables(graph: CoreGraph, w: Word) -> Optional[Word]:
    """Reference rewrite of w over the canonical basis; None when w is not a member."""
    out, inc, index = _rewrite_tables(graph)
    pos = 0
    letters = []
    for a in w:
        if a > 0:
            nxt = out.get(pos, {}).get(a)
            edge, sign = (pos, a, nxt), 1
        else:
            nxt = inc.get(pos, {}).get(-a)
            edge, sign = (nxt, -a, pos), -1
        if nxt is None:
            return None
        if edge in index:
            letters.append(sign * (index[edge] + 1))
        pos = nxt
    return Word(letters) if pos == 0 else None


def fiber_product_edges(ga: CoreGraph, gb: CoreGraph) -> set:
    """Edges of the component of (0, 0) in the product of two graphs, unpruned."""
    out_a, inc_a = _two_tables(ga.edges)
    out_b, inc_b = _two_tables(gb.edges)
    seen = {(0, 0): 0}
    queue = [(0, 0)]
    edges = set()
    for a, b in queue:  # grows while it is read
        pid = seen[a, b]
        for forward, ta, tb in (
            (True, out_a.get(a, {}), out_b.get(b, {})),
            (False, inc_a.get(a, {}), inc_b.get(b, {})),
        ):
            for l, x in ta.items():
                y = tb.get(l)
                if y is None:
                    continue
                if (x, y) not in seen:
                    seen[x, y] = len(seen)
                    queue.append((x, y))
                nid = seen[x, y]
                edges.add((pid, l, nid) if forward else (nid, l, pid))
    return edges


# Reference products: the fiber product, the pull-back through an iso and
# the coset search of extend_pair, each with its own breadth-first search.
# This is how the library built them before intersect and the pull-back
# shared one component walk and extend_pair read its cosets off the
# intersection of the two domains.


def intersect_by_own_search(h: Subgroup, k: Subgroup) -> Subgroup:
    ga, gb = h.graph, k.graph
    cap = vertex_cap()
    seen = {(0, 0): 0}
    queue = [(0, 0)]
    edges = []
    for u, v in queue:  # grows while it is read
        pid = seen[u, v]
        next_b = gb.adj[v]
        for a, x in ga.adj[u].items():  # the letters both vertices carry
            y = next_b.get(a)
            if y is None:
                continue
            nid = seen.get((x, y))
            if nid is None:
                if len(seen) >= cap:
                    raise IndexCapError(
                        f"intersect: the fiber product of graphs with {ga.num_vertices} "
                        f"and {gb.num_vertices} vertices would exceed the vertex cap "
                        f"({cap}) after {len(seen)} pairs; raise {VERTEX_CAP_ENV} "
                        "to allow larger graphs"
                    )
                nid = seen[x, y] = len(seen)
                queue.append((x, y))
            if a > 0:
                edges.append((pid, a, nid))
    return Subgroup(make_subgroup_by_edge_sets(h.rank, 0, edges))


def pull_back_by_own_search(alpha: PartialIso, k: Subgroup) -> Subgroup:
    """The preimage under alpha of a finite-index K."""
    g, kg = alpha.domain.graph, k.graph
    _, _, off_tree = tree_by_two_tables(g)
    index = {(u, l): i for i, (u, l, _) in enumerate(off_tree, start=1)}
    cap = vertex_cap()
    seen = {(0, 0): 0}
    queue = [(0, 0)]
    edges = []
    for v, c in queue:  # grows while it is read
        pid = seen[v, c]
        for l in range(1, alpha.rank + 1):
            i = index.get((v, l))
            pair = (g.adj[v][l], c if i is None else kg.trace(c, alpha.images[i - 1]))
            nid = seen.get(pair)
            if nid is None:
                if len(seen) >= cap:
                    raise IndexCapError(
                        f"pull-back: the preimage of an index-{k.index()} subgroup in an "
                        f"index-{g.num_vertices} domain would exceed the vertex cap ({cap}); "
                        f"raise {VERTEX_CAP_ENV} to allow larger graphs"
                    )
                nid = seen[pair] = len(seen)
                queue.append(pair)
            edges.append((pid, l, nid))
    return Subgroup(canonical_by_two_tables(alpha.rank, 0, edges))


def extend_pair_by_coset_search(phi1: PartialIso, phi2: PartialIso) -> PartialIso:
    """The common extension of two compatible maps, domain(phi2) normal.

    Reaches every coset of domain(phi2) that the join meets by tracing
    the basis words of domain(phi1), and builds a representative of each
    by concatenating them.
    """
    h1, h2 = phi1.domain, phi2.domain
    j = join(h1, h2)
    graph2 = h2.graph
    reach = {0: EPSILON}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for b in h1.basis.elements:
                t = graph2.trace(v, b)
                if t not in reach:
                    reach[t] = concat(reach[v], b)
                    nxt.append(t)
        frontier = nxt
    images = []
    for w in j.basis.elements:
        rep = reach[graph2.trace(0, w)]
        images.append(concat(apply(phi1, rep), apply(phi2, concat(invert(rep), w))))
    return make_iso(j, from_generators(j.rank, images), images)


# Reference covers: the edge lists kernel_mod_p and overgroups built before
# they walked the residues and the blocks, pruned and renumbered by the
# two-table reference.


def kernel_by_edge_list(rank: int, weights: Sequence[int], p: int) -> Subgroup:
    """The kernel onto Z/p: the i-labeled edge r -> r + weights[i-1] on the
    residues divisible by gcd(p, weights), the component of 0."""
    edges = [
        (r, i, (r + w) % p)
        for r in range(0, p, math.gcd(p, *weights))
        for i, w in enumerate(weights, start=1)
    ]
    return Subgroup(make_subgroup_by_edge_sets(rank, 0, edges))


def overgroups_by_quotient_edges(h: Subgroup) -> list[Subgroup]:
    """The quotients of H's cover by each block system, as edge sets."""
    g = h.graph
    members = [
        Subgroup(make_subgroup_by_edge_sets(g.rank, 0, {(labels[u], l, labels[v]) for u, l, v in g.edges}))
        for labels in block_systems_by_queue(g).values()
    ]
    return sorted(members, key=lambda s: (s.index(), s.graph.edges))


# Reference lattice: the block systems as the library enumerated them with
# its own queue and a dict keyed by the block of the base coset, and the
# subindex as a minimax over every containment of two blocks, before both
# read the walk of block systems and its joins.


@lru_cache(maxsize=4)
def block_systems_by_queue(graph: CoreGraph) -> dict:
    """Every block system of the coset action: the block of the base coset
    to the labelling of all cosets by the least member of their block.
    Kept for the last graphs read, as each of the three lattice references
    reads it; callers do not change the dict."""
    n = graph.num_vertices
    perms = [[graph.adj[v][l] for v in range(n)] for l in range(1, graph.rank + 1)]

    def coarsen(labels, v):
        parent = list(labels)

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        pairs = [(0, v)]
        while pairs:
            x, y = pairs.pop()
            x, y = find(x), find(y)
            if x != y:
                parent[max(x, y)] = min(x, y)
                pairs.extend((s[x], s[y]) for s in perms)
        labels = tuple(map(find, range(n)))
        return frozenset(x for x in range(n) if labels[x] == 0), labels

    systems = {frozenset([0]): tuple(range(n))}
    queue = list(systems.values())
    for labels in queue:  # grows while it is read
        for v in set(labels) - {0}:
            block, joined = coarsen(labels, v)
            if block not in systems:
                systems[block] = joined
                queue.append(joined)
    return systems


def subindex_by_subset_tests(h: Subgroup) -> int:
    """The minimax over the blocks in order of size, each settled from every
    smaller block it contains."""
    blocks = sorted(block_systems_by_queue(h.graph), key=len)
    best = [1]
    for b in blocks[1:]:
        best.append(min(max(d, len(b) // len(a)) for a, d in zip(blocks, best) if a < b))
    return best[-1]


def bs_image_index_by_frontier(k: int, p: int) -> int:
    """The orbit of 0 under r -> r + 1 and r -> k·r mod p, level by level."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for r in frontier:
            for s in ((r + 1) % p, (r * k) % p):
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return len(seen)
