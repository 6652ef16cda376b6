"""Partial isomorphisms between finite-index subgroups of a free group.

A PartialIso maps one finite-index subgroup onto another, specified by
the images of the domain's canonical basis.  Two such maps are
equivalent when they agree on a common finite-index subgroup; since
free groups have the unique root property, agreement on the
intersection of the domains decides this, so the equivalence classes
carry a well-defined composition: these classes form the abstract
commensurator of the free group.

Everything here is exact.  Validation of bijectivity leans on free
groups being hopfian: a map onto a free group of the same finite rank
from a free group of that rank is automatically injective, so checking
"images generate the codomain" plus "ranks agree" certifies an
isomorphism.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    DocumentError,
    InvalidIsoError,
    NotInSubgroupError,
    RankMismatchError,
    WorkLimitError,
)
from .record import Record
from .stallings import (
    Subgroup,
    _is_whole_group,
    _morphism,
    _require_same_rank,
    from_generators,
    graph_from_document,
    graph_to_document,
    intersect,
    is_normal,
    join,
    kernel_mod_p,
    subindex,
    whole_group,
    witness_expresser,
)
from .words import (
    Word,
    _is_int,
    _quoted,
    _require_rank,
    _substitute,
    apply_hom,
    concat,
    invert,
    nth_root,
    parse_word,
    power,
    word_to_text,
)

__all__ = [
    "NoExtension",
    "PartialIso",
    "apply",
    "compose",
    "compose_many",
    "compute_extension",
    "embed_aut",
    "equivalent",
    "equivalent_bruteforce",
    "extendAB_certificate",
    "extend_pair",
    "identity_iso",
    "invert_iso",
    "is_identity_class",
    "iso_from_document",
    "iso_to_document",
    "make_iso",
    "restrict",
    "subindex_of_iso",
    "transfer_to_overgroup",
    "transfer_to_subgroup",
]


class PartialIso(Record):
    """An isomorphism between two finite-index subgroups.

    images[i] is the image of the i-th canonical basis element of the
    domain, written in the ambient generators.  Instances are built by
    make_iso (and embed_aut, iso_from_document), which validate their
    input at the boundary, and by _iso inside the library, where the
    images are correct by construction, and fold into a codomain when
    it is first read if _iso was not given one.  A map that restricts an
    automorphism A the library knows keeps A's generator images as the
    entry _aut, which is no field; its images are A on the domain's
    basis, read off the spanning tree when they are first read, as
    equality, hashing and repr read them.  The class declares _aut as
    None, the value of every map that holds no automorphism.  A map that
    holds A reads its codomain, A(domain), as the domain pulled back
    through A⁻¹, and invert_iso leaves the one it builds on the map, as
    the inverse's domain.
    """

    _aut = None

    def __init__(self, domain: Subgroup, codomain: Optional[Subgroup],
                 images: Optional[tuple[Word, ...]]):
        self.__dict__["domain"] = domain
        if codomain is not None:
            self.__dict__["codomain"] = codomain
        if images is not None:
            self.__dict__["images"] = images

    @property
    def rank(self) -> int:
        return self.domain.rank

    @cached_property
    def images(self) -> tuple[Word, ...]:
        """The held automorphism on the domain's basis (Subgroup._hom_on_basis)."""
        return tuple(self.domain._hom_on_basis(self._aut))

    @cached_property
    def codomain(self) -> Subgroup:
        """A held automorphism A's image of the domain, which is the domain
        pulled back through A⁻¹; or, past the letter limit there or for a
        map that holds none, the fold of the images, held to the rank check
        of _iso."""
        if aut := self._aut:
            with suppress(WorkLimitError):
                return whole_group(self.rank)._preimage(_inverse_images(aut), self.domain)
        codomain = from_generators(self.rank, self.images)
        _require_equal_rank(len(self.images), codomain)
        return codomain

    @cached_property
    def _inverses(self) -> list:
        """_inverses[i] is the inverse of the i-th word apply substitutes,
        once apply has used it: a generator image of the held automorphism,
        or else images[i].  Only apply writes it, so a map applied to many
        words, as compose applies it, inverts each word once: a list per
        call made the compose of maps that keep their images 1.17× slower."""
        return [None] * len(self._aut or self.images)


class NoExtension(Record):
    """Certificate that a partial isomorphism extends to no ambient automorphism."""

    def __init__(self, reason: str, generator: Optional[int] = None,
                 exponent: Optional[int] = None, word: Optional[Word] = None):
        self.__dict__.update(reason=reason, generator=generator, exponent=exponent, word=word)


def make_iso(domain: Subgroup, codomain: Subgroup, images: Sequence[Word]) -> PartialIso:
    """Validate and build a PartialIso.

    Rejects images outside the codomain, images that generate a proper
    subgroup of the codomain, and rank mismatches between the two sides
    (a rank-preserving surjection between free groups of equal finite
    rank is an isomorphism, so these checks certify bijectivity).

    Each image is expressed over the codomain's basis by the walk that
    tests its membership.  The basis makes the codomain a free group F_m,
    so the images generate it exactly when the expressions, never longer
    than the images, fold to the whole of F_m.
    """
    _require_same_rank(domain, codomain)
    _require_finite_index(domain)
    _require_finite_index(codomain)
    images = tuple(Word(w) for w in images)
    n = _free_rank(domain)
    if len(images) != n:
        raise InvalidIsoError(
            f"expected {n} images (one per domain basis element), "
            f"got {len(images)}"
        )
    expressions = []
    for w in images:
        try:
            expressions.append(codomain.express_in_basis(w))
        except NotInSubgroupError:
            raise InvalidIsoError(f"image {_quoted(w)} lies outside the codomain") from None
    if not _is_whole_group(_free_rank(codomain), expressions):
        raise InvalidIsoError("images generate a proper subgroup of the codomain")
    _require_equal_rank(n, codomain)
    return PartialIso(domain=domain, codomain=codomain, images=images)


def _free_rank(h: Subgroup) -> int:
    """The rank of h as a free group: the edges off a spanning tree."""
    return len(h.graph.edges) - h.graph.num_vertices + 1


def _require_equal_rank(m: int, codomain: Subgroup) -> None:
    r = _free_rank(codomain)
    if m != r:
        raise InvalidIsoError(
            f"rank drop: domain has rank {m} but codomain has rank {r}; "
            "the map cannot be injective"
        )


def _require_finite_index(h: Subgroup) -> None:
    if h.index() is math.inf:
        raise InvalidIsoError("domain and codomain must have finite index")


def _iso(domain: Subgroup, images: Optional[Sequence[Word]], codomain: Optional[Subgroup] = None,
         aut: Optional[tuple[Word, ...]] = None) -> PartialIso:
    """A PartialIso built inside the library, correct by construction.

    The caller guarantees that both sides have finite index and that the
    codomain, when given, is the subgroup the images generate; otherwise
    the images are folded when the codomain is first read.  The map onto
    it is an isomorphism exactly when the ranks agree (free groups are
    hopfian), so that is the one check, made here or at that read.  With
    aut, the generator images of an automorphism A, the map is A on the
    domain, which it holds, and images may be None until they are read.
    """
    if codomain is not None:
        _require_equal_rank(_free_rank(domain), codomain)
    phi = PartialIso(domain, codomain, None if images is None else tuple(images))
    if aut is not None:
        phi.__dict__["_aut"] = aut
    return phi


def identity_iso(h: Subgroup) -> PartialIso:
    """The identity map of a finite-index subgroup."""
    _require_finite_index(h)
    return _iso(h, h.basis.elements, h)


def apply(phi: PartialIso, w: Word) -> Word:
    """Image of w (which must lie in the domain) under the map.

    w's basis expression (Subgroup.express_in_basis, which checks w as a
    Word and refuses it for a letter past the rank, then for membership)
    is written first, except by a map that holds an automorphism A: it
    traces w in the domain's graph, writes the expression only to refuse
    w, and maps w itself through A's generator images, with no basis
    image and no spanning tree.  Any other map maps the expression
    through its images.  Either way the words are substituted as
    apply_hom substitutes them, and phi keeps the inverses it writes, for
    its later calls.
    """
    if (aut := phi._aut) and phi.domain.graph.trace(0, w := Word(w)) == 0:
        return _substitute(aut, phi._inverses, w)
    expr = phi.domain.express_in_basis(w)  # which refuses w, if a held map's trace did
    return _substitute(phi.images, phi._inverses, expr) if expr else expr


def invert_iso(phi: PartialIso) -> PartialIso:
    """The inverse map, through the automorphism phi restricts when there is one.

    phi⁻¹ is A⁻¹ on codomain(phi) = A(domain) for the A that phi holds,
    or that compute_extension finds (unique roots force it).  A is
    inverted over its r letters by witness folding, and the codomain, if
    phi does not hold it, is the domain pulled back through A⁻¹; a phi
    that holds A keeps it, so that phi and its inverse share one Subgroup.
    The inverse holds A⁻¹; its images, the reduced words of unique elements
    as on the general path, are read off its domain's spanning tree when
    first read, or at once for a found A, so that a word past the letter
    limit there, or in compute_extension, leads to the general path.
    That path, also taken on a NoExtension, witness folds phi's images
    and writes each codomain basis element's expression over the
    domain's basis; invert_iso refuses for the limit only where it does.
    """
    try:
        extension = compute_extension(phi)
        if not isinstance(extension, NoExtension):
            r, inverse = phi.rank, _inverse_images(extension)
            codomain = vars(phi).get("codomain") or whole_group(r)._preimage(inverse, phi.domain)
            if phi._aut:  # the codomain it would pull back itself
                phi.__dict__["codomain"] = codomain
            images = None if phi._aut else tuple(codomain._hom_on_basis(inverse))
            return _iso(codomain, images, phi.domain, inverse)
    except WorkLimitError:
        pass
    express = witness_expresser(phi.rank, phi.images)
    basis = phi.domain.basis.elements
    inverses = [None] * len(basis)
    preimages = []
    for c in phi.codomain.basis.elements:
        expr = express(c)
        assert expr is not None, "codomain basis element missed the image fold"
        preimages.append(_substitute(basis, inverses, expr))
    return _iso(phi.codomain, preimages, phi.domain)


def _inverse_images(aut: Sequence[Word]) -> tuple[Word, ...]:
    """The generator images of A⁻¹, for A's, by witness folding A's images."""
    express = witness_expresser(len(aut), aut)
    return tuple(express(Word((i,))) for i in range(1, len(aut) + 1))


def compose(alpha: PartialIso, beta: PartialIso) -> PartialIso:
    """The product map: first alpha, then beta.

    Defined on the preimage of domain(beta) under alpha, which alpha maps
    onto K = codomain(alpha) ∩ domain(beta); K itself is never built.
    When alpha holds domain(beta) as its codomain, as invert_iso leaves a
    map and its inverse, the preimage is domain(alpha), with no walk and
    no trace, held to the cap as Subgroup._preimage holds it.  When both
    maps hold automorphisms A and B, the preimage is pulled back through A
    one letter at a time, and the product holds B∘A, its images unbuilt.
    Otherwise two cases skip work:

    - alpha's images lie in domain(beta): the preimage is domain(alpha),
      with no walk, and its images are alpha.images as they stand;
    - K is domain(beta), as the indices tell, for [codomain(alpha) : K] =
      [domain(alpha) : preimage]: beta(K) is codomain(beta), kept if
      beta has folded it, so the images are not folded.  They generate it,
      and a map onto a free group of the same finite rank is an
      isomorphism (free groups are Hopfian), so the rank check of _iso is
      all that is left.  Above rank 1 no codomain is read (_codomain_index).
    """
    _require_same_rank(alpha, beta)
    a, b = alpha._aut, beta._aut
    images = aut = None
    known = vars(alpha).get("codomain") is beta.domain
    if a and b:
        dom = alpha.domain._preimage(None if known else a, beta.domain, letters=True)
        aut = tuple(apply_hom(b, w) for w in a)
    else:
        dom = alpha.domain._preimage(None if known else alpha.images, beta.domain)
        if dom is alpha.domain:
            middle = alpha.images
        else:
            middle = [apply(alpha, w) for w in dom.basis.elements]
        images = [apply(beta, w) for w in middle]
    onto = _codomain_index(alpha) * dom.index() == alpha.domain.index() * beta.domain.index()
    return _iso(dom, images, vars(beta).get("codomain") if onto else None, aut)


def _codomain_index(phi: PartialIso) -> int:
    """Above rank 1 the domain's index: phi keeps the rank n(r - 1) + 1 of
    an index-n subgroup of F_r (Schreier).  In rank 1 it reads the codomain."""
    return phi.domain.index() if phi.rank > 1 else phi.codomain.index()


def compose_many(isos: Iterable[PartialIso]) -> PartialIso:
    """Composition of a non-empty iterable, its first map applied first,
    in balanced order: adjacent pairs are composed until one map is left,
    and a map without a partner waits for the next round.  Composition of
    maps on their largest domains is associative, which makes it the same
    map as composing left to right, but no side of a compose is the
    product of a long prefix."""
    isos = list(isos)
    if not isos:
        raise ValueError("compose_many needs at least one map")
    while len(isos) > 1:
        pairs = zip(isos[::2], isos[1::2])
        isos = [compose(a, b) for a, b in pairs] + isos[len(isos) // 2 * 2:]
    return isos[0]


def equivalent(alpha: PartialIso, beta: PartialIso) -> bool:
    """Agreement on a common finite-index subgroup.

    Tested on the intersection of the two domains; by the unique root
    property this is equivalent to agreement on any smaller
    finite-index subgroup.
    """
    _require_same_rank(alpha, beta)
    common = intersect(alpha.domain, beta.domain)
    return all(apply(alpha, b) == apply(beta, b) for b in common.basis.elements)


def _candidate_subgroups(rank: int, top: Subgroup, max_index: int):
    """Finite-index subgroups of `top` with ambient index <= max_index.

    Yields `top` itself plus its intersections with a family of mod-p
    kernels.  Used by the brute-force equivalence oracle: agreement on
    any member certifies equivalence, and agreement anywhere implies
    agreement on `top` (raise each element to the power landing in the
    witness subgroup and extract unique roots), so the family loses no
    decisions.
    """
    seen = set()
    top_index = top.index()
    if top_index <= max_index:
        seen.add(top)
        yield top
    weight_sets = {
        2: [(1,), (0, 1), (1, 1)],
        3: [(1,), (0, 1), (1, 1), (1, 2)],
    }
    for p, weight_rows in weight_sets.items():
        if top_index * p > max_index:
            continue
        # rows cut to rank 1 coincide: build each kernel once
        for weights in dict.fromkeys((row + (0,) * rank)[:rank] for row in weight_rows):
            if all(w % p == 0 for w in weights):
                continue
            ker = kernel_mod_p(rank, weights, p)
            cand = intersect(top, ker)
            if cand.index() <= max_index and cand not in seen:
                seen.add(cand)
                yield cand


def equivalent_bruteforce(alpha: PartialIso, beta: PartialIso, max_index: int) -> bool:
    """Search for a finite-index subgroup on which the two maps agree.

    Checks basis-by-basis agreement on candidate subgroups of the
    domain intersection whose ambient index is at most max_index; no
    shortcut through the restriction argument is taken on any single
    candidate.  Candidates are independent, so evaluation order cannot
    change the answer.
    """
    if not _is_int(max_index):
        raise ValueError(f"max_index must be an int, got {max_index!r}")
    if max_index < 1:
        raise ValueError(f"max_index must be positive, got {max_index}")
    _require_same_rank(alpha, beta)
    hs = _candidate_subgroups(alpha.rank, intersect(alpha.domain, beta.domain), max_index)
    return any(all(apply(alpha, b) == apply(beta, b) for b in h.basis.elements) for h in hs)


def restrict(phi: PartialIso, k: Subgroup) -> PartialIso:
    """The same map with its domain cut down to K <= domain, which holds
    when K's graph maps onto the domain's (stallings._morphism); K's basis
    is built only to name the first element that escapes.  A held
    automorphism is kept, and nothing is applied until the images are read."""
    _require_same_rank(k, phi)
    if _morphism(k.graph.adj, phi.domain.graph.adj, 0) is None:
        b = next(b for b in k.basis.elements if not phi.domain.contains(b))
        raise NotInSubgroupError(
            f"restriction target is not contained in the domain ({_quoted(b)} escapes)"
        )
    _require_finite_index(k)
    if aut := phi._aut:
        return _iso(k, None, None, aut)
    return _iso(k, [apply(phi, b) for b in k.basis.elements])


def embed_aut(images: Sequence[Word]) -> PartialIso:
    """An ambient automorphism, given by generator images, as a PartialIso.

    The domain and codomain are the whole group; images must define an
    automorphism (their fold is the whole group; hopfian gives
    injectivity).  The map holds them as its automorphism.
    """
    images = tuple(Word(w) for w in images)
    rank = len(images)
    if rank < 1:
        raise InvalidIsoError("an automorphism needs at least one generator image")
    rose = whole_group(rank)
    for w in images:
        _require_rank(w, rank, "image")
    if not _is_whole_group(rank, images):
        raise InvalidIsoError(
            "images do not generate the whole group, so this is not an automorphism"
        )
    return _iso(rose, images, rose, images)


def is_identity_class(phi: PartialIso) -> bool:
    """Whether the map is equivalent to the identity.  They agree on the
    intersection of their domains, phi's own, when phi fixes its basis,
    or, when phi holds an automorphism, when that fixes the generators
    (unique roots: A(g)^m = g^m forces A(g) = g)."""
    if aut := phi._aut:
        return all(w == (i,) for i, w in enumerate(aut, 1))
    return phi.images == phi.domain.basis.elements


def compute_extension(phi: PartialIso) -> Union[tuple[Word, ...], NoExtension]:
    """Extend a partial isomorphism to an ambient automorphism, if possible.

    For each ambient generator g, the smallest power g^m lying in the
    domain is mapped through phi and an m-th root extracted; unique
    roots make the candidate image forced, so failure of any root, or
    of the validation of the assembled candidate, certifies that no
    extension exists.  The candidate is compared with the map on the
    domain's basis, read off the spanning tree (Subgroup._hom_on_basis),
    up to the first element where they differ.  Returns the generator
    images of the unique extension, or a NoExtension certificate; a map
    that holds its automorphism returns it.  The codomain's index is
    checked only when phi holds its codomain, which is not folded for
    the check.
    """
    codomain = vars(phi).get("codomain")
    if phi.domain.index() is math.inf or (codomain is not None and codomain.index() is math.inf):
        raise InvalidIsoError("extension analysis needs finite index on both sides")
    if aut := phi._aut:
        return aut
    rank = phi.rank
    graph = phi.domain.graph
    candidates = []
    for i in range(1, rank + 1):
        # order of the basepoint in the coset action of generator i
        m = 1
        v = graph.adj[0][i]
        while v != 0:
            v = graph.adj[v][i]
            m += 1
        mapped = apply(phi, power(Word((i,)), m))
        root = nth_root(mapped, m)
        if root is None:
            return NoExtension(
                reason=f"the image of generator {i} raised to {m} has no root "
                f"of exponent {m}, so no automorphism can extend the map",
                generator=i,
                exponent=m,
                word=mapped,
            )
        candidates.append(root)
    if not _is_whole_group(rank, candidates):
        return NoExtension(
            reason="the forced candidate images do not generate the whole group"
        )
    extended = phi.domain._hom_on_basis(candidates)
    for b, img, got in zip(phi.domain.basis.elements, phi.images, extended):
        if got != img:
            return NoExtension(
                reason="the forced candidate automorphism does not agree with "
                f"the map on {_quoted(b)}"
            )
    return tuple(candidates)


def extendAB_certificate(phi: PartialIso, a: Subgroup, b: Subgroup) -> bool:
    """Non-extendability certificate relative to a generating pair A, B.

    Requires join(A, B) to be the whole group and phi to be a self-map
    of its domain.  True when phi is not the identity class yet fixes
    the intersection of its domain with A and with B elementwise: any
    ambient automorphism extending phi would then fix A and B, hence
    everything, contradicting phi ≠ id.
    """
    if a.rank != phi.rank or b.rank != phi.rank:
        raise RankMismatchError("ambient ranks of the subgroups do not match the map")
    if join(a, b) != whole_group(phi.rank):
        raise ValueError("the two subgroups do not generate the whole group")
    if phi.domain != phi.codomain:
        raise InvalidIsoError("certificate applies to self-maps only")
    if is_identity_class(phi):
        return False
    for part in (intersect(phi.domain, a), intersect(phi.domain, b)):
        for w in part.basis.elements:
            if apply(phi, w) != w:
                return False
    return True


def extend_pair(phi1: PartialIso, phi2: PartialIso) -> PartialIso:
    """Common extension of two maps to the join of their domains.

    Requires domain(phi2) normal in the ambient group and agreement of
    the two maps on the intersection of the domains.  Every element of
    the join factors as h1·h2 (h1 from domain(phi1), h2 from
    domain(phi2)); the extension maps it to phi1(h1)·phi2(h2), so its
    image is the join of the two codomains.
    """
    _require_same_rank(phi1, phi2)
    h1, h2 = phi1.domain, phi2.domain
    if not is_normal(h2):
        raise InvalidIsoError("the second map's domain must be normal")
    common = intersect(h1, h2)
    for w in common.basis.elements:
        if apply(phi1, w) != apply(phi2, w):
            raise InvalidIsoError(
                "the maps disagree on the intersection of their domains "
                f"(at {_quoted(w)})"
            )
    j = join(h1, h2)
    # the cosets of the normal H2 that the join meets are those of H1's
    # elements; H1 ∩ H2 is a cover whose tree paths in H1 reach each of them
    graph2 = h2.graph
    reach = {graph2.trace(0, p): p for p in common.coset_representatives() if h1.contains(p)}
    images = []
    for w in j.basis.elements:
        v = graph2.trace(0, w)
        rep = reach.get(v)
        assert rep is not None, "join element escaped the reachable cosets"
        tail = concat(invert(rep), w)
        images.append(concat(apply(phi1, rep), apply(phi2, tail)))
    return _iso(j, images, join(phi1.codomain, phi2.codomain))


def transfer_to_subgroup(alpha: PartialIso, h: Subgroup) -> PartialIso:
    """View an ambient-group map as one over the free group on basis(H).

    The new domain is the part of H whose image stays in H; all words
    are rewritten over the canonical basis of H, whose letters are the
    generators of the new ambient free group: it is the preimage, under
    the map onto basis(H), of the preimage of H under alpha.
    """
    _require_same_rank(h, alpha)
    if h.index() is math.inf:
        raise InvalidIsoError("transfer needs a finite-index subgroup")
    pre = alpha.domain._preimage(alpha.images, h)
    h_basis = h.basis.elements
    dom = whole_group(len(h_basis))._preimage(h_basis, pre)
    images = [h.express_in_basis(apply(alpha, w)) for w in dom._hom_on_basis(h_basis)]
    return _iso(dom, images)


def transfer_to_overgroup(beta: PartialIso, h: Subgroup) -> PartialIso:
    """Inverse direction: lift a map over the free group on basis(H) back
    to the ambient group of H.

    beta's ambient rank must equal the rank of H as a free group; its
    words are read as products of basis(H) elements.  The new domain,
    domain(beta) with its basis lifted through basis(H), is the preimage
    of domain(beta) under the map sending basis element i of H to the
    letter i, so it is pulled back (Subgroup._preimage) and nothing is
    folded.
    """
    h_basis = h.basis.elements
    if beta.rank != len(h_basis):
        raise RankMismatchError(
            f"the map is over rank {beta.rank} but H has basis size {len(h_basis)}"
        )
    _require_finite_index(h)
    dom = h._preimage(whole_group(beta.rank).basis.elements, beta.domain)
    images = []
    for b in dom.basis.elements:
        d = h.express_in_basis(b)
        images.append(apply_hom(h_basis, apply(beta, d)))
    return _iso(dom, images)


def subindex_of_iso(alpha: PartialIso) -> int:
    """Larger of the subindices of the domain and the codomain."""
    return max(subindex(alpha.domain), subindex(alpha.codomain))


# ---------------------------------------------------------------------------
# serialization


def iso_to_document(phi: PartialIso) -> dict:
    """Plain-data form; image order follows the domain's canonical basis."""
    return {
        "rank": phi.rank,
        "domain": graph_to_document(phi.domain.graph),
        "codomain": graph_to_document(phi.codomain.graph),
        "images": [word_to_text(w) for w in phi.images],
    }


def iso_from_document(doc) -> PartialIso:
    """Validate and build a PartialIso from its plain-data form."""
    if not isinstance(doc, dict):
        raise DocumentError("iso document must be an object")
    for field in ("rank", "domain", "codomain", "images"):
        if field not in doc:
            raise DocumentError(f"iso document missing field {field!r}")
    rank = doc["rank"]
    if not _is_int(rank) or rank < 1:
        raise DocumentError(f"rank must be a positive integer, got {rank!r}")
    domain = Subgroup(graph_from_document(doc["domain"]))
    codomain = Subgroup(graph_from_document(doc["codomain"]))
    if domain.rank != rank or codomain.rank != rank:
        raise DocumentError("domain/codomain rank disagrees with the document rank")
    raw_images = doc["images"]
    if not isinstance(raw_images, list) or not all(isinstance(s, str) for s in raw_images):
        raise DocumentError("images must be a list of word strings")
    try:
        images = [parse_word(s, rank=rank) for s in raw_images]
    except Exception as exc:
        raise DocumentError(f"bad image word: {exc}") from exc
    try:
        return make_iso(domain, codomain, images)
    except (InvalidIsoError, RankMismatchError) as exc:
        raise DocumentError(f"invalid iso document: {exc}") from exc
