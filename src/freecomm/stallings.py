"""Core graphs for finitely generated subgroups of free groups.

A subgroup H of the free group F_rank is represented by its folded core
graph: a based, edge-labeled digraph in which words trace paths (letter
+l follows the l-labeled edge forward, -l backward) and membership in H
is "traces a closed loop at the basepoint".  Every walk reads one table:
adj[v][a] is where the signed letter a leads from v, listed at each
vertex in scan order +1, -1, +2, -2, ...  The folder keeps the same
table on its union-find roots (see _FoldGraph), so a finished fold hands
it straight to the walk.  The graph is kept in canonical form
(breadth-first numbering from the basepoint, in scan order), so two
subgroups are equal exactly when their graphs compare equal.  One walk
numbers every graph built here (a fold, a product of two graphs, the
residues of a kernel, the blocks of a quotient, a document): it reads
each state's letters in scan order, so it finds the states in canonical
order and its rows are the table.  Only a graph with hanging trees is
pruned and walked once more.  It is the package's one search: the block
systems of a cover are its states too.  As the table
is canonical, one pass over it, row by row, gives the spanning tree and
the crossing table: the same table, with each half marked by the
off-tree edge it crosses.  The free basis, basis expressions, the
tree potentials that map the basis and the pull-back of a subgroup
through a map of the basis (Subgroup._preimage) read it.

Finite index corresponds to the graph being a cover (every vertex has
all 2·rank letters); the index is then the vertex count.  Graph
constructions fail fast once the graph they build would exceed a
configurable vertex cap (FREECOMM_INDEX_CAP, default 10 000); folding
counts the live vertices of the folded graph, and a graph document and
the number of block systems are held to the cap too.

Folding optionally carries witness words: each vertex and edge remembers
how it was reached as a product of the input generators (the two halves
of an edge carry inverse witnesses), which yields, for any word of the
subgroup, an explicit expression over the original generating set.  This
uses a weighted union-find, so corrections from vertex identifications
compose automatically; a plain fold's weights are empty words.

All public objects are immutable; operations return new values.
"""

from __future__ import annotations

import math
import os
from collections import deque
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    DocumentError,
    IndexCapError,
    InfiniteIndexError,
    NotInSubgroupError,
    RankMismatchError,
)
from .record import Record
from .words import (
    EPSILON, Word, _is_int, _product, _quoted, _require_rank, concat, conjugate, invert
)

__all__ = [
    "Basis",
    "CoreGraph",
    "Subgroup",
    "conjugate_subgroup",
    "express_over",
    "from_generators",
    "graph_from_document",
    "graph_to_document",
    "graph_to_dot",
    "intersect",
    "is_normal",
    "join",
    "kernel_mod_p",
    "overgroups",
    "rewrite_over_basis",
    "subgroup_from_document",
    "subindex",
    "vertex_cap",
    "whole_group",
    "witness_expresser",
]

DEFAULT_VERTEX_CAP = 10_000
VERTEX_CAP_ENV = "FREECOMM_INDEX_CAP"

Edge = tuple[int, int, int]  # (source, label, target)


def vertex_cap() -> int:
    """Current vertex cap; the FREECOMM_INDEX_CAP env var overrides the default."""
    raw = os.environ.get(VERTEX_CAP_ENV)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise IndexCapError(f"{VERTEX_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise IndexCapError(f"{VERTEX_CAP_ENV} must be positive, got {cap}")
    return cap


def _cap_error(what: str) -> IndexCapError:
    """The error for a graph past the vertex cap: what names the operation
    and its sizes, and the tail says how to allow larger graphs."""
    return IndexCapError(f"{what}; raise {VERTEX_CAP_ENV} to allow larger graphs")


def _require_modulus_under_cap(op: str, p: int) -> None:
    """A modulus p asks for p cosets, so it is held to the vertex cap; one
    that is not an int is refused before any arithmetic."""
    if not _is_int(p):
        raise ValueError(f"{op}: modulus must be an int, got {p!r}")
    cap = vertex_cap()
    if p > cap:
        raise _cap_error(f"{op}: modulus {p} exceeds the vertex cap ({cap})")


def _require_ambient_rank(rank: int) -> None:
    """The ambient rank of a graph built from scratch: an int, at least 1."""
    if not _is_int(rank):
        raise ValueError(f"rank must be an int, got {rank!r}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")


def _is_prime(n: int) -> bool:
    """Trial division: every caller holds n to the vertex cap first, so
    this makes at most √cap divisions, fewer than the n-vertex work after."""
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


# ---------------------------------------------------------------------------
# graphs


class CoreGraph(Record):
    """A folded, based, edge-labeled graph with non-negative integer vertices.

    Instances produced by this module are canonical: the basepoint is 0,
    vertices are numbered in canonical BFS order and edges are sorted.
    """

    def __init__(self, rank: int, edges: tuple[Edge, ...]):
        self.__dict__.update(rank=rank, edges=edges)

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @cached_property
    def adj(self) -> tuple[dict, ...]:
        """adj[v][a] = where the signed letter a leads from v, if anywhere;
        each dict lists its letters in scan order +1, -1, +2, -2, ..."""
        table = _adjacency(0, self.edges)
        return tuple(table.get(v, {}) for v in range(max(table) + 1))

    def trace(self, vertex: int, w: Word) -> Optional[int]:
        """Endpoint of the path spelling w from vertex, or None if it leaves."""
        adj = self.adj
        pos: Optional[int] = vertex
        for a in w:
            pos = adj[pos].get(a)
            if pos is None:
                return None
        return pos

    def is_cover(self) -> bool:
        """True when every vertex has a full set of edges both ways."""
        return self._cover

    @cached_property
    def _cover(self) -> bool:
        """is_cover, read once per graph: Subgroup.index asks it on every call."""
        return all(len(letters) == 2 * self.rank for letters in self.adj)


def _adjacency(base, edges) -> dict:
    """adj[v][a] = where the signed letter a leads from v; the basepoint is a
    vertex even when no edge meets it.

    Each vertex's dict is written in scan order +1, -1, +2, -2, ...: the
    edges are grouped by label, and each label writes its outgoing
    entries before its incoming ones.
    """
    by_label: dict = {}
    for e in edges:
        by_label.setdefault(e[1], []).append(e)
    adj: dict = {base: {}}
    for l in sorted(by_label):
        group = by_label[l]
        for u, _, v in group:
            adj.setdefault(u, {})[l] = v
        for u, _, v in group:
            adj.setdefault(v, {})[-l] = u
    return adj


def _walk(start, step, too_big=None):
    """Number the states reachable from start, breadth first.

    step(state) maps each signed letter that leads from state to the next
    state.  Returns (states, rows): the states in the order found, from
    start at 0, and rows[i], mapping the i-th state's letters, in step's
    order, to numbers.  When step lists letters in scan order, rows is the
    canonical table (a coset table standardised as in Sims 1994).  With
    too_big, a state past the vertex cap raises IndexCapError, which
    too_big(count, cap) words for the operation, count being the states
    found so far.
    """
    cap = vertex_cap() if too_big else math.inf
    number = {start: 0}
    states, rows = [start], []
    for state in states:  # grows while it is read
        row = {}
        for a, nxt in step(state).items():
            n = number.get(nxt)
            if n is None:
                if len(states) >= cap:
                    raise _cap_error(too_big(len(states), cap))
                n = number[nxt] = len(states)
                states.append(nxt)
            row[a] = n
        rows.append(row)
    return states, rows


def _graph(rank: int, rows: list) -> CoreGraph:
    """The graph whose canonical table is rows, as _walk numbers it: the
    positive halves, read row by row, are its sorted edges."""
    edges = tuple((u, a, v) for u, row in enumerate(rows) for a, v in row.items() if a > 0)
    g = CoreGraph(rank, edges)
    g.__dict__["adj"] = tuple(rows)  # fill the cache
    return g


# ---------------------------------------------------------------------------
# folding

# The folder identifies vertices until no vertex has two edges under one
# signed letter.  It keeps the core-graph table on its union-find roots:
# adj[r][a] = (target, witness), and the half under -a at the target carries
# the inverse witness.  Every half names a live root: a merge takes all the
# halves of the dead root, and their mirrors, out of the table and puts each
# back at the live root, so a target is read as it stands.  Only ids held
# outside the table (the basepoint, a queued merge, join's placed vertices)
# go through find_pot.  The basepoint is vertex 0, the first one grown.
# Merges are the only queued work.  With witness
# tracking on, every vertex carries a "potential" word over the generator
# alphabet relating it to its union-find parent, so identifications need no
# global rewriting; a plain fold's potentials stay empty.


class _FoldGraph:
    def __init__(self, op: str, witness: bool = False):
        self.op = op  # named by the vertex cap error
        self.witness = witness
        self.cap = vertex_cap()
        self.live = 0  # union-find roots, the vertices of the folded graph
        self.parent: list[int] = []
        self.pot: list[Word] = []
        self.adj: list[dict] = []  # per root: signed letter -> (target root, witness)
        self.pending: deque = deque()  # merges (x, y, witness from x's frame to y's)

    # -- union-find with potentials

    def _grow(self, count: int) -> int:
        """Allocate count fresh root vertices; returns the first id."""
        if self.live + count > self.cap:
            raise _cap_error(
                f"{self.op}: the folded graph would exceed the vertex cap ({self.cap}) "
                f"with {self.live + count} live vertices ({len(self.parent) + count} allocated)"
            )
        first = len(self.parent)
        self.live += count
        self.parent.extend(range(first, first + count))
        self.pot.extend([EPSILON] * count)
        self.adj.extend({} for _ in range(count))
        return first

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

    # -- edge insertion and folding

    def add_edge(self, u: int, a: int, v: int, aux: Optional[Word] = None) -> None:
        """Add the edge u -a-> v between roots, witness aux, and fold."""
        self._insert(u, a, v, aux)
        self._fold()

    def _fold(self) -> None:
        """Run the queued merges, first in first out, until none is left."""
        while self.pending:
            self._merge(*self.pending.popleft())

    def _insert(self, u: int, a: int, v: int, aux: Optional[Word]) -> None:
        """Write the halves (u, a) and (v, -a) of an edge between roots; a
        slot that is taken queues a merge of its target with ours instead."""
        back = invert(aux) if aux else aux  # EPSILON and None as they are
        for x, b, y, e in ((u, a, v, aux), (v, -a, u, back)):
            cur = self.adj[x].get(b)
            if cur is not None:
                t, w = cur
                if t != y:  # else a parallel duplicate; the stored witness stays
                    self.pending.append((y, t, concat(invert(e), w) if self.witness else None))
                return
        self.adj[u][a] = (v, aux)
        self.adj[v][-a] = (u, back)

    def _merge(self, x: int, y: int, gamma: Optional[Word]) -> None:
        xr, px = self.find_pot(x)
        yr, py = self.find_pot(y)
        if xr == yr:
            return
        witness, adj = self.witness, self.adj
        g = concat(concat(invert(px), gamma), py) if witness else None
        # keep the vertex with more edges live
        if len(adj[xr]) > len(adj[yr]):
            xr, yr = yr, xr
            g = invert(g) if witness else None
        # no half may name xr once it is dead; a loop's mirror is in dead, so it goes once
        dead, halves = adj[xr], []
        while dead:
            b, (t, w) = dead.popitem()
            del adj[t][-b]
            halves.append((b, t, w))
        self.parent[xr] = yr
        self.live -= 1
        if witness:
            self.pot[xr] = g
            ginv = invert(g)
        for b, t, w in halves:
            if witness:
                w = concat(ginv, concat(w, g) if t == xr else w)
            self._insert(yr, b, yr if t == xr else t, w)

    # -- building blocks

    def add_loop(self, w: Word, seed: Optional[Word] = None) -> None:
        """Attach a petal spelling w at the basepoint; its witness is seed.

        Reads before it writes: w is traced forward from the basepoint and
        its inverse backward, each up to a missing edge, and only
        the unread middle gets fresh vertices.  The middle folds with
        nothing, as each trace stopped at a free slot, unless its two ends
        are one vertex and its first and last letters are inverse.  When
        the traces meet, their two ends are merged instead.  Folding is
        confluent, so the result is the graph that attaching the whole
        petal and folding it would give.
        """
        n = len(w)
        if not n:
            return
        acc_f: list[int] = []  # basepoint frame -> frame of u
        acc_b: list[int] = []  # basepoint frame -> frame of v, along w backward
        u, i = self._follow(w, acc_f)
        v, read = self._follow((-a for a in reversed(w[i:])), acc_b)
        j = n - read
        # the middle runs from u's frame to v's, so the petal reads seed
        mid = Word([-a for a in reversed(acc_f)] + list(seed) + acc_b) if self.witness else None
        if i == j:
            if u != v:
                self.pending.append((u, v, mid))
                self._fold()
            return
        first = self._grow(j - i - 1)
        pos, adj = u, self.adj
        for k in range(i, j - 1):
            a = w[k]
            nxt = first + k - i
            aux = (mid if k == i else EPSILON) if self.witness else None
            adj[pos][a] = (nxt, aux)
            adj[nxt][-a] = (pos, invert(aux) if aux else aux)
            pos = nxt
        # the last edge goes through the folder, for that one case
        aux = (mid if j - i == 1 else EPSILON) if self.witness else None
        self.add_edge(pos, w[j - 1], v, aux)

    def root_table(self):
        """(root of the basepoint, step): the folded graph as _component
        reads it; step(r) lists root r's halves in scan order."""
        adj = self.adj

        def step(r):
            halves = adj[r]
            order = sorted(halves, key=lambda a: (abs(a), -a))  # +1, -1, +2, -2, ...
            return {a: halves[a][0] for a in order}

        return self.find_pot(0)[0], step

    def _follow(self, letters: Iterable[int], acc: list) -> tuple[int, int]:
        """Follow letters from the basepoint until an edge is missing.

        Returns the root reached and the number of letters read; in witness
        mode acc gets the witness from the basepoint's frame to that root's
        frame, unreduced.
        """
        pos, pp = self.find_pot(0)
        adj, witness = self.adj, self.witness
        acc.extend(pp)
        read = 0
        for a in letters:
            entry = adj[pos].get(a)
            if entry is None:
                break
            pos, ea = entry
            if witness:
                acc.extend(ea)
            read += 1
        return pos, read

    def express(self, w: Word) -> Optional[Word]:
        """A word over the generator alphabet mapping onto w, or None.

        Requires witness mode.  Returns None when w is not in the
        subgroup the folded graph represents at the basepoint.
        """
        acc: list[int] = []
        end, read = self._follow(w, acc)
        br, pb = self.find_pot(0)
        if read < len(w) or end != br:
            return None
        return concat(Word(acc), invert(pb))


def _build_bouquet(rank: int, gens: Iterable[Word], witness: bool) -> _FoldGraph:
    fg = _FoldGraph("witness_expresser" if witness else "from_generators", witness)
    fg._grow(1)
    for i, g in enumerate(gens):
        g = Word(g)
        _require_rank(g, rank, "generator")
        fg.add_loop(g, Word((i + 1,)) if witness else None)
    return fg


def _is_whole_group(rank: int, gens: Iterable[Word]) -> bool:
    """from_generators(rank, gens) == whole_group(rank) for a rank of at
    least 1, as every caller has, read off the fold (the same fold, held to
    the cap with the same message): the words generate the whole group
    exactly when it is one vertex with all 2·rank halves, a loop under each
    letter."""
    fg = _build_bouquet(rank, gens, witness=False)
    return fg.live == 1 and len(fg.adj[fg.find_pot(0)[0]]) == 2 * rank


def express_over(rank: int, gens: Sequence[Word], w: Word) -> Optional[Word]:
    """Express w as a word in the given generators, or None if impossible.

    The result v satisfies apply_hom(gens, v) == w whenever it exists; it
    is one valid expression, not a canonical one.
    """
    return witness_expresser(rank, gens)(w)


def witness_expresser(rank: int, gens: Sequence[Word]):
    """express_over, reusable for many words over one generating set; all checked as Words."""
    _require_ambient_rank(rank)
    fg = _build_bouquet(rank, gens, witness=True)

    def express(w: Word) -> Optional[Word]:
        w = Word(w)
        _require_rank(w, rank, "word")
        return fg.express(w)

    return express


# ---------------------------------------------------------------------------
# subgroups


class Basis(Record):
    """A free basis read off a core graph's canonical spanning tree."""

    def __init__(self, elements: tuple[Word, ...]):
        self.__dict__.update(elements=elements)


class Subgroup(Record):
    """A finitely generated subgroup of F_rank, held as a canonical core graph."""

    def __init__(self, graph: CoreGraph):
        self.__dict__.update(graph=graph)

    @property
    def rank(self) -> int:
        """Ambient rank (of the whole free group, not of this subgroup)."""
        return self.graph.rank

    def contains(self, w: Word) -> bool:
        """Whether w lies in this subgroup; w is checked as a Word."""
        w = Word(w)
        _require_rank(w, self.rank, "word")
        return self.graph.trace(0, w) == 0

    def index(self):
        """Index in the ambient free group: an int, or math.inf."""
        return self.graph.num_vertices if self.graph.is_cover() else math.inf

    @cached_property
    def _tree(self):
        """(paths, steps), read in one pass over the canonical table.

        paths[v] is the base-to-v word along the edge by which the walk
        found v: the table is canonical, so that edge is the half where v
        first appears, row by row.  steps[v][a] = (w, i): the signed letter
        a leads from v to w, across the i-th off-tree edge (backward when
        i < 0), or along the tree when i = 0, in the table's scan order.
        A half (u, a) with a > 0 is off the tree unless it finds a new
        vertex or leads back along u's tree edge; numbered row by row, the
        off-tree edges are in sorted order.  The edges a path crosses spell
        its word over the basis (Stallings 1983).
        """
        adj = self.graph.adj
        paths: list[Word] = [EPSILON]
        back = [None]  # back[v] = the letter from v back along its tree edge
        steps = [{a: (v, 0) for a, v in row.items()} for row in adj]
        i = 0
        for u, row in enumerate(adj):
            assert u < len(paths), "graph not in canonical form"
            for a, v in row.items():
                if v >= len(paths):
                    assert v == len(paths), "graph not in canonical form"
                    # a tree path in a folded graph never backtracks, so it is reduced
                    paths.append(tuple.__new__(Word, paths[u] + (a,)))
                    back.append(-a)
                elif a > 0 and a != back[u]:
                    i += 1  # rewriting a key keeps its place in the row
                    steps[u][a] = (v, i)
                    steps[v][-a] = (u, -i)
        return tuple(paths), tuple(steps)

    @cached_property
    def basis(self) -> Basis:
        """Canonical free basis; its size is the rank of the subgroup.

        Element i runs the tree path to u, the i-th off-tree edge u -l-> v
        and the tree path back from v.  Neither seam can cancel, as the
        edge would then be the tree edge at u or at v, so it is reduced.
        """
        paths, steps = self._tree
        elements = tuple(
            tuple.__new__(Word, paths[u] + (l,) + invert(paths[v]))
            for u, row in enumerate(steps)
            for l, (v, i) in row.items()
            if i > 0
        )
        return Basis(elements=elements)

    def _hom_on_basis(self, images: Sequence[Word]):
        """Yield apply_hom(images, b) for each basis element b, in basis order.

        images holds one Word per generator.  The potential P(v), the image
        of v's tree path, is built once per vertex as P(parent)·image(a),
        and so is its inverse; the element across the off-tree edge
        u -l-> v maps to P(u)·image(l)·P(v)⁻¹.  Each word is a few tuple
        concatenations, held to the letter limit by the letters of its
        pieces (_product).  P(v) is read only in row v and dropped at its
        end.  P(v)⁻¹ is read up to the last row with an off-tree edge into
        v; those rows are the targets of row v's backward halves (i < 0),
        so the one pass over the table files P(v)⁻¹ at the end of row v
        under the latest of them, or row v itself, and drops it at the end
        of that row.
        """
        steps = self._tree[1]
        dropped_after = [[] for _ in steps]
        inverses = [invert(w) for w in images]
        potentials, back = [EPSILON], [EPSILON]  # P(v) and P(v)⁻¹
        for u, row in enumerate(steps):
            for a, (v, i) in row.items():
                if v == len(potentials):  # the tree edge that finds v
                    image = images[a - 1] if a > 0 else inverses[-a - 1]
                    inverse = inverses[a - 1] if a > 0 else images[-a - 1]
                    potentials.append(_product(images, potentials[u], image))
                    back.append(_product(images, inverse, back[u]))
                elif i > 0:
                    yield _product(images, potentials[u], images[a - 1], back[v])
            potentials[u] = None
            dropped_after[max([u] + [v for v, i in row.values() if i < 0])].append(u)
            for v in dropped_after[u]:
                back[v] = None

    def express_in_basis(self, w: Word) -> Word:
        """Rewrite w (which must lie in this subgroup) over the canonical basis.

        w is checked as a Word.  The result v satisfies
        apply_hom(basis.elements, v) == w: it lists the off-tree edges that
        w's path crosses, and a reduced path cannot cross one edge back and
        forth with only tree edges between, so it is reduced as read.  A
        path that leaves the graph, or does not end at the basepoint, is
        refused for a letter past the rank first, then for membership.
        """
        w = Word(w)
        steps = self._tree[1]
        pos: Optional[int] = 0
        letters: list[int] = []
        try:
            for a in w:
                pos, i = steps[pos][a]
                if i:
                    letters.append(i)
        except KeyError:
            pos = None
        if pos != 0:
            _require_rank(w, self.rank, "word")
            raise NotInSubgroupError(f"{_quoted(w)} is not in the subgroup")
        return tuple.__new__(Word, letters)

    def _preimage(self, images: Optional[Sequence], k: Subgroup, letters=False) -> Subgroup:
        """The preimage of a finite-index K under the map sending basis
        element i to images[i-1].  compose, invert_iso and both transfers
        derive their domains here; an infinite index K is refused first
        (InfiniteIndexError).

        The subgroup acts on the cosets of K through the map: crossing the
        i-th off-tree edge moves a coset along image i (back along its
        inverse), and a tree edge leaves it in place.  With letters, images
        are those of the generators, and every half-edge under a, tree
        edges included, moves a coset along the image of a.  The preimage is the
        stabilizer of K's base coset, so its graph is the component of
        (0, 0) in the product of this graph with that action: the walk of
        intersect, with the second coordinate twisted.  K's graph is a
        cover, so K need not hold the images, and when a leads from (v, c)
        to (w, d), -a leads back: that is recorded, not traced.  When K
        holds every image, this subgroup is returned as it is, held to the
        cap as the walk would hold it, and so it is when images is None: the
        caller knows K is this subgroup's image, as compose knows it for a
        map followed by its inverse.  With letters it is also returned when
        the preimage has its index, so that the two share their tree caches
        and a composite's domain is its first map's, as the compose tests
        pin.
        Only a walk inverts the images, into a list of its own per call.
        """
        if not k.graph.is_cover():
            raise InfiniteIndexError("pull-back: the subgroup pulled back has infinite index")
        g, trace = self.graph, k.graph.trace

        def too_big(count, cap):
            return (
                f"pull-back: the preimage of an index-{k.index()} subgroup in an "
                f"index-{g.num_vertices} domain would exceed the vertex cap ({cap})"
            )

        if images is None or all(trace(0, img) == 0 for img in images):
            cap = vertex_cap()
            if g.num_vertices > cap:
                raise _cap_error(too_big(g.num_vertices, cap))
            return self
        steps = self._tree[1]
        inverses = [invert(w) for w in images]
        back = {}  # (w, -a, d) -> c, for each crossing from (v, c) under a to (w, d)

        def step(pair):
            v, c = pair
            row = {}
            for a, (w, i) in steps[v].items():
                d = back.pop((v, a, c), None)
                if d is None:
                    i = a if letters else i
                    d = trace(c, images[i - 1] if i > 0 else inverses[-i - 1]) if i else c
                    back[w, -a, d] = c
                row[a] = (w, d)
            return row

        pre = _component(self.rank, (0, 0), step, too_big)
        return self if letters and pre.index() == g.num_vertices else pre

    def coset_representatives(self) -> tuple[Word, ...]:
        """Spanning-tree transversal words, one per vertex, in canonical order."""
        if not self.graph.is_cover():
            raise InfiniteIndexError("coset representatives need finite index")
        return self._tree[0]


def whole_group(rank: int) -> Subgroup:
    """The full free group as a subgroup of itself (a one-vertex rose)."""
    _require_ambient_rank(rank)
    return Subgroup(CoreGraph(rank=rank, edges=tuple((0, l, 0) for l in range(1, rank + 1))))


def from_generators(rank: int, gens: Iterable[Word]) -> Subgroup:
    """Fold the given words into the core graph of the subgroup they generate."""
    _require_ambient_rank(rank)
    return _component(rank, *_build_bouquet(rank, gens, witness=False).root_table())


def _require_same_rank(h, k) -> int:
    """The common ambient rank of two subgroups or maps."""
    if h.rank != k.rank:
        raise RankMismatchError(f"mixed ambient ranks {h.rank} and {k.rank}")
    return h.rank


def _component(rank: int, start, step, too_big=None) -> Subgroup:
    """The subgroup whose graph is the component of start in a folded graph.

    step lists each state's letters in scan order, so the rows of _walk
    (step, too_big) are the canonical table, unless a state but start has
    at most one letter.  Then each such leaf is pruned, and so is the
    mirror of its half-edge at its neighbour, until none is left, and the
    rest is walked once more.
    """
    _, rows = _walk(start, step, too_big)
    leaves = [v for v in range(1, len(rows)) if len(rows[v]) <= 1]
    if leaves:
        while leaves:
            v = leaves.pop()
            for a, w in rows[v].items():
                letters = rows[w]
                del letters[-a]
                if len(letters) == 1 and w != 0:
                    leaves.append(w)
        _, rows = _walk(0, rows.__getitem__)
    return Subgroup(_graph(rank, rows))


def intersect(h: Subgroup, k: Subgroup) -> Subgroup:
    """Intersection via the fiber product of the two core graphs: a pair
    moves along the letters both of its vertices carry."""
    rank = _require_same_rank(h, k)
    adj_h, adj_k = h.graph.adj, k.graph.adj

    def step(pair):
        u, v = pair
        next_k = adj_k[v]
        return {a: (x, y) for a, x in adj_h[u].items() if (y := next_k.get(a)) is not None}

    return _component(
        rank,
        (0, 0),
        step,
        lambda count, cap: (
            f"intersect: the fiber product of graphs with {h.graph.num_vertices} and "
            f"{k.graph.num_vertices} vertices would exceed the vertex cap ({cap}) "
            f"after {count} pairs"
        ),
    )


def join(h: Subgroup, k: Subgroup) -> Subgroup:
    """Smallest subgroup containing both: fold K's graph onto H's as it is read.

    H's graph is folded already and goes in as it stands.  K's vertices
    are placed in canonical order, which is breadth first: one reached
    along an edge the folded graph already has takes that edge's endpoint,
    and only one reached along a missing edge gets a fresh vertex, so the
    live count follows the folded join rather than the wedge of the two.
    """
    rank = _require_same_rank(h, k)
    fg = _FoldGraph("join")
    fg._grow(h.graph.num_vertices)
    for halves, letters in zip(fg.adj, h.graph.adj):
        halves.update((a, (v, None)) for a, v in letters.items())
    gk = k.graph
    place = [0] + [None] * (gk.num_vertices - 1)  # vertex of K -> vertex of the fold
    for x, letters in enumerate(gk.adj):  # canonical, so x was placed already
        for a, y in letters.items():
            u = fg.find_pot(place[x])[0]
            if place[y] is None:
                e = fg.adj[u].get(a)
                place[y] = fg._grow(1) if e is None else e[0]
                if e is not None:
                    continue  # the edge is there already
            fg.add_edge(u, a, fg.find_pot(place[y])[0])
    return _component(rank, *fg.root_table())


def conjugate_subgroup(h: Subgroup, g: Word) -> Subgroup:
    """The subgroup g⁻¹·H·g; g is checked as a Word."""
    g = Word(g)
    _require_rank(g, h.rank, "word")
    t = h.graph.trace(0, g)
    if t is not None:
        # same graph, basepoint moved to the endpoint of g
        return _component(h.rank, t, h.graph.adj.__getitem__)
    return from_generators(h.rank, [conjugate(b, g) for b in h.basis.elements])


def _morphism(src, dst, t):
    """The label-preserving map of graphs from the canonical table src to
    the table dst that takes 0 to t, as a list read along src, or None
    when there is none.  On a cover (dst is src) it is the left translation
    by the coset at t, which exists when t's stabilizer is 0's; between
    folded graphs with t = 0 it exists exactly when src's subgroup lies in
    dst's (Kapovich and Myasnikov, J. Algebra 248, 2002)."""
    image = [t]
    for u, row in enumerate(src):
        to = dst[image[u]]
        for a, v in row.items():
            w = to.get(a)
            if w is None:
                return None
            if v == len(image):
                image.append(w)
            elif image[v] != w:
                return None
    return image


def is_normal(h: Subgroup) -> bool:
    """Normality in the ambient group; requires finite index.  H is normal
    when each generator a has a left translation, as a⁻¹Ha is then H."""
    if not h.graph.is_cover():
        raise InfiniteIndexError("normality test needs finite index")
    adj = h.graph.adj
    return all(_morphism(adj, adj, adj[0][l]) is not None for l in range(1, h.rank + 1))


def kernel_mod_p(rank: int, weights: Sequence[int], p: int) -> Subgroup:
    """Kernel of the map to Z/p sending generator i to weights[i-1].

    The coset graph has the residues as vertices and the i-labeled edge
    r -> r + weights[i-1]; the walk from 0 numbers its component, the
    kernel's core graph.
    """
    _require_ambient_rank(rank)
    if not _is_int(p):
        raise ValueError(f"modulus must be an int, got {p!r}")
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if len(weights) != rank:
        raise RankMismatchError(f"expected {rank} weights, got {len(weights)}")
    if not all(map(_is_int, weights)):
        raise ValueError(f"weights must be ints, got {list(weights)!r}")
    if all(w % p == 0 for w in weights):
        raise ValueError("all weights vanish mod p; the kernel is the whole group")
    _require_modulus_under_cap("kernel_mod_p", p)
    moves = [(s * i, s * w) for i, w in enumerate(weights, start=1) for s in (1, -1)]
    return _component(rank, 0, lambda r: {a: (r + w) % p for a, w in moves})


def rewrite_over_basis(h: Subgroup, k: Subgroup) -> Subgroup:
    """K <= H, expressed as a subgroup of the free group on basis(H)."""
    _require_same_rank(h, k)
    m = len(h.basis.elements)
    if m == 0:
        raise ValueError("cannot rewrite over the basis of the trivial subgroup")
    return from_generators(m, [h.express_in_basis(b) for b in k.basis.elements])


def _block_systems(graph: CoreGraph):
    """Every block system of the coset action of a finite-index subgroup.

    Label l permutes the n cosets (vertices) by v -> adj[v][l].  A system
    labels every coset by the least member of its block; the walk starts
    from the finest one and joins each system with cosets v of its other
    classes: the finest coarser system with 0 ~ v, abandoned if its
    0-block holds a class u with 0 < u < v.  Any B < B' has classes in
    B'∖B, and the join with the least, v, lies in B' and is kept; so every
    system is reached, and each B < B' has a join to some C with B < C <=
    B', which is all subindex needs.  When H is normal, the graph is the
    Cayley graph of G = F/H, and a system is the cosets of its 0-block K.
    If K is normal in G, the join with v is ⟨K, g_v⟩ <= B', its classes
    the orbits of left translation by g_v on K's; each generator of
    ⟨g_vK⟩ gives it, so the least v of each cyclic subgroup of G/K is
    tried (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005).  Otherwise coarsen closes 0 ~ v by union-find (Atkinson, Math.
    Comp. 1975).  A system with a prime number of classes, primitive on
    them, tries one v by coarsen first (index 2,003 took 2 s without
    this rule), and needs none of the translations, built on first use.
    Returns (systems, rows): rows[i] maps each class representative v of
    system i whose join was kept to the number of the system it joins
    into.  More systems than the vertex cap raise IndexCapError.
    """
    if not graph.is_cover():
        raise InfiniteIndexError("block systems need finite index")
    adj, n = graph.adj, graph.num_vertices
    perms = [[adj[v][l] for v in range(n)] for l in range(1, graph.rank + 1)]
    shifts = back = None

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
            if x > y:
                x, y = y, x
            if x < y:
                if x == 0 and y < v:
                    return None  # joining y first reaches this system
                parent[y] = x
                pairs.extend((s[x], s[y]) for s in perms)
        return tuple(map(find, range(n)))

    def cyclic_joins(labels):
        reps, done, out = sorted(set(labels)), set(), {}
        for v in reps[1:]:
            if v in done:
                continue
            image = [v] + [0] * (n - 1)  # left translation by g_v, on the classes
            for r in reps[1:]:
                b = back[r]
                image[r] = labels[adj[image[labels[adj[r][b]]]][-b]]
            orbit = [0]  # the cyclic subgroup of g_vK
            while image[orbit[-1]]:
                orbit.append(image[orbit[-1]])
            done.update(x for k, x in enumerate(orbit) if math.gcd(k, len(orbit)) == 1)
            if min(orbit[1:]) == v:
                new = [None] * n
                for r in reps:
                    x = r
                    while new[x] is None:
                        new[x], x = r, image[x]
                out[v] = tuple(map(new.__getitem__, labels))
        return out

    def joins(labels):
        nonlocal shifts, back
        others = set(labels) - {0}
        if _is_prime(len(others) + 1):
            others = {min(others)}
        elif others:
            if shifts is None:  # the translations by the generators, if H is normal, and
                # the letter from v back along the tree edge that finds it: the first half into v
                shifts = [_morphism(adj, adj, s[0]) for s in perms]
                back = {v: -a for row in reversed(adj) for a, v in reversed(row.items())}
            if None not in shifts:
                block = [x for x, c in enumerate(labels) if not c]
                if all(len({labels[s[x]] for x in block}) == 1 for s in shifts):  # aK = Ka
                    return cyclic_joins(labels)
        return {v: s for v in others if (s := coarsen(labels, v))}

    return _walk(
        tuple(range(n)),
        joins,
        lambda count, cap: (
            f"block systems: an index-{n} subgroup has more overgroups than the vertex cap "
            f"({cap}); {count} found so far"
        ),
    )


def overgroups(h: Subgroup) -> list[Subgroup]:
    """All subgroups between H and the whole group (H has finite index).

    They are the stabilizers of the blocks containing the base coset, one
    per block system of the coset action; the core graph of each is the
    quotient of H's cover by the system's classes: a block, named by its
    least coset, moves where that coset does.
    """
    g = h.graph
    members = [
        _component(g.rank, 0, lambda b: {a: labels[v] for a, v in g.adj[b].items()})
        for labels in _block_systems(g)[0]
    ]
    return sorted(members, key=lambda s: (s.index(), s.graph.edges))


def subindex(h: Subgroup) -> int:
    """Smallest n admitting a chain from H to the whole group with all
    relative indices <= n.

    A minimax path weight over the overgroup interval, which suffices
    because any chain can be intersected down into it.  Overgroups are the
    blocks B of the base coset, and K <= K' is B <= B' with [K' : K] =
    |B'|/|B|.  The joins of _block_systems are enough edges: each B < B'
    has one to a block C with B < C <= B', so the chain built so has every
    step at most |B'|/|B|.  One pass in order of size, relaxing along the
    joins, settles each block from the smaller ones.
    """
    systems, rows = _block_systems(h.graph)
    size = [labels.count(0) for labels in systems]
    best = [1] + [math.inf] * (len(systems) - 1)
    for i in sorted(range(len(systems)), key=size.__getitem__):
        for j in rows[i].values():
            best[j] = min(best[j], max(best[i], size[j] // size[i]))
    return best[i]  # the last system in order of size is the whole group


# ---------------------------------------------------------------------------
# serialization


def graph_to_document(g: CoreGraph) -> dict:
    """Plain-data form: rank, basepoint, and [source, target, label] rows."""
    return {
        "rank": g.rank,
        "basepoint": 0,
        "edges": [[u, v, l] for u, l, v in g.edges],
    }


def graph_from_document(doc) -> CoreGraph:
    """Validate and canonicalize a graph document.

    Raises DocumentError naming the violated invariant: malformed rows,
    labels out of range, unfolded or disconnected graphs, and dangling
    non-basepoint vertices are all rejected.  A graph with more vertices
    than the vertex cap raises IndexCapError.
    """
    if not isinstance(doc, dict):
        raise DocumentError("graph document must be an object")
    try:
        rank = doc["rank"]
        basepoint = doc["basepoint"]
        rows = doc["edges"]
    except (KeyError, TypeError) as exc:
        raise DocumentError(f"graph document missing field: {exc}") from exc
    if not _is_int(rank) or rank < 1:
        raise DocumentError(f"rank must be a positive integer, got {rank!r}")
    if not _is_int(basepoint) or basepoint < 0:
        raise DocumentError(f"basepoint must be a non-negative integer, got {basepoint!r}")
    if not isinstance(rows, list):
        raise DocumentError("edges must be a list of [source, target, label] rows")
    edges = set()
    for row in rows:
        if (
            not isinstance(row, list)
            or len(row) != 3
            or not all(_is_int(x) for x in row)
        ):
            raise DocumentError(f"bad edge row {row!r}: expected [source, target, label]")
        s, t, l = row
        if s < 0 or t < 0:
            raise DocumentError(f"bad edge row {row!r}: vertices are non-negative")
        if not 1 <= l <= rank:
            raise DocumentError(f"bad edge row {row!r}: label out of range 1..{rank}")
        edges.add((s, l, t))
    half_edges = set()
    for u, l, v in edges:
        if (u, l) in half_edges:
            raise DocumentError(f"not folded: vertex {u} has two outgoing edges labeled {l}")
        if (v, -l) in half_edges:
            raise DocumentError(f"not folded: vertex {v} has two incoming edges labeled {l}")
        half_edges.update(((u, l), (v, -l)))
    adj = _adjacency(basepoint, edges)
    cap = vertex_cap()
    if len(adj) > cap:
        raise _cap_error(f"graph document: {len(adj)} vertices exceed the vertex cap ({cap})")
    _, rows = _walk(basepoint, adj.__getitem__)
    if len(rows) < len(adj):
        raise DocumentError("not connected: some vertex is unreachable from the basepoint")
    for v in sorted(adj):
        if len(adj[v]) <= 1 and v != basepoint:
            raise DocumentError(f"not a core graph: vertex {v} has degree {len(adj[v])}")
    return _graph(rank, rows)


def subgroup_from_document(doc) -> Subgroup:
    return Subgroup(graph_from_document(doc))


def _letter_name(l: int) -> str:
    return chr(ord("a") + l - 1) if l <= 26 else f"x{l}"


def graph_to_dot(g: CoreGraph) -> str:
    """Graphviz text; the basepoint 0 is drawn with a double circle."""
    lines = ["digraph stallings {", "  rankdir=LR;"]
    for v in range(g.num_vertices):
        shape = "doublecircle" if v == 0 else "circle"
        lines.append(f'  {v} [shape={shape}];')
    for u, l, v in g.edges:
        lines.append(f'  {u} -> {v} [label="{_letter_name(l)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
