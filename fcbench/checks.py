"""Independent reference computations and the answer checks built on them.

Nothing here imports freecomm.  Words are plain tuples of nonzero ints
(+i is the i-th generator, -i its inverse) or letter-syntax text; every
expected value is computed here from the workload's plain inputs or
follows from a proved property, never from saved program output.

Each check_* function takes the program's answer as plain data and raises
CheckFailed with a message naming the check when the answer is wrong.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence


class CheckFailed(Exception):
    """A program answer disagreed with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# free-group arithmetic


def free_reduce(letters: Iterable[int]) -> tuple[int, ...]:
    stack: list[int] = []
    for a in letters:
        if stack and stack[-1] == -a:
            stack.pop()
        else:
            stack.append(a)
    return tuple(stack)


def inverse(word: Sequence[int]) -> tuple[int, ...]:
    return tuple(-a for a in reversed(word))


def substitute(images: Sequence[Sequence[int]], word: Sequence[int]) -> tuple[int, ...]:
    """Image of word under the homomorphism sending generator i to images[i-1]."""
    out: list[int] = []
    for a in word:
        img = images[abs(a) - 1]
        out.extend(img if a > 0 else inverse(img))
    return free_reduce(out)


def exponent_sums(word: Sequence[int], rank: int) -> tuple[int, ...]:
    sums = [0] * rank
    for a in word:
        sums[abs(a) - 1] += 1 if a > 0 else -1
    return tuple(sums)


def text_to_word(text: str) -> tuple[int, ...]:
    if text in ("", "1"):
        return ()
    return free_reduce(
        ord(ch) - ord("a") + 1 if ch.islower() else -(ord(ch) - ord("A") + 1) for ch in text
    )


def word_to_text(word: Sequence[int]) -> str:
    if not word:
        return "1"
    return "".join(chr(ord("a") + a - 1) if a > 0 else chr(ord("A") - a - 1) for a in word)


def generators(rank: int) -> list[tuple[int, ...]]:
    return [(i,) for i in range(1, rank + 1)]


# ---------------------------------------------------------------------------
# finite abelian quotients


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def largest_prime_factor(n: int) -> int:
    return max(d for d in range(2, n + 1) if n % d == 0 and is_prime(d))


def count_subgroups(moduli: Sequence[int]) -> int:
    """Number of subgroups of Z/m1 x ... x Z/mk, found by adding one element at a time."""
    elements = list(product(*(range(m) for m in moduli)))
    number = {x: i for i, x in enumerate(elements)}
    table = [[number[tuple((a + b) % m for a, b, m in zip(x, y, moduli))] for y in elements] for x in elements]

    def extend(h: frozenset, g: int) -> frozenset:
        """The subgroup generated by h and g: the cosets h + k*g."""
        result = set(h)
        y = g
        while y not in result:
            row = table[y]
            result.update(row[x] for x in h)
            y = table[y][g]
        return frozenset(result)

    found = {frozenset([0])}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in range(len(elements)):
            if g not in h:
                k = extend(h, g)
                if k not in found:
                    found.add(k)
                    frontier.append(k)
    return len(found)


def cayley_document(moduli: Sequence[int], images: Sequence[Sequence[int]]) -> dict:
    """Graph document of the kernel of F_rank -> prod Z/m sending generator l to images[l-1].

    The vertices are the group elements in mixed radix, so a surjective map
    gives a cover whose basepoint 0 is the identity.
    """
    elements = list(product(*(range(m) for m in moduli)))
    number = {x: i for i, x in enumerate(elements)}
    edges = []
    for x in elements:
        for label, img in enumerate(images, start=1):
            y = tuple((a + b) % m for a, b, m in zip(x, img, moduli))
            edges.append([number[x], number[y], label])
    return {"rank": len(images), "basepoint": 0, "edges": edges}


def permutation_document(perms: Sequence[Sequence[int]]) -> dict:
    """Graph document of the point stabilizer of a transitive permutation action."""
    edges = [[v, perm[v], label] for label, perm in enumerate(perms, start=1) for v in range(len(perm))]
    return {"rank": len(perms), "basepoint": 0, "edges": edges}


def schreier_generators(perms: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Generators of the stabilizer of 0, read off a breadth-first spanning tree."""
    degree = len(perms[0])
    inverse_perms = []
    for perm in perms:
        inv = [0] * degree
        for v, w in enumerate(perm):
            inv[w] = v
        inverse_perms.append(inv)
    path: dict[int, tuple[int, ...]] = {0: ()}
    queue = [0]
    for v in queue:
        for label, (perm, inv) in enumerate(zip(perms, inverse_perms), start=1):
            for w, letter in ((perm[v], label), (inv[v], -label)):
                if w not in path:
                    path[w] = path[v] + (letter,)
                    queue.append(w)
    gens = []
    for label, perm in enumerate(perms, start=1):
        for v in range(degree):
            g = free_reduce(path[v] + (label,) + inverse(path[perm[v]]))
            if g:
                gens.append(g)
    return gens


# ---------------------------------------------------------------------------
# checks


def check_equal(name: str, expected, actual) -> None:
    require(expected == actual, f"{name}: expected {expected!r}, got {actual!r}")


def check_kernel_basis(rank: int, p: int, basis: Sequence[Sequence[int]]) -> None:
    """Schreier rank formula, and every element maps to 0 in Z/p."""
    check_equal(f"basis size of the Z/{p} kernel in rank {rank}", 1 + p * (rank - 1), len(basis))
    for w in basis:
        require(
            exponent_sums(w, rank)[0] % p == 0,
            f"basis word {word_to_text(w)} has exponent sum in generator 1 not divisible by {p}",
        )


def check_swap_certificate(p: int, generator, exponent) -> None:
    check_equal(f"kernel swap certificate generator at p={p}", 1, generator)
    check_equal(f"kernel swap certificate exponent at p={p}", p, exponent)


def check_report(doc: dict) -> None:
    failing = [row["name"] for row in doc["checks"] if not row["pass"]]
    require(doc["ok"] is True and not failing, f"{doc['scenario']} report not ok: {failing}")


def check_hnn(n: int, pairs: Iterable[Sequence[int]]) -> None:
    """The unit power-sum solutions are exactly {(1,-1), (-1,1)} for odd n, none for even n."""
    expected = {(1, -1), (-1, 1)} if n % 2 else set()
    check_equal(f"hnn solution set at n={n}", sorted(expected), sorted(tuple(x) for x in pairs))


def check_overgroups(moduli: Sequence[int], overgroup_indices: Sequence[int]) -> None:
    """Overgroups of the kernel correspond to subgroups of the quotient."""
    order = math.prod(moduli)
    check_equal(f"overgroup count for {moduli}", count_subgroups(moduli), len(overgroup_indices))
    for idx in overgroup_indices:
        require(order % idx == 0, f"overgroup index {idx} does not divide {order} for {moduli}")


def check_subindex(moduli: Sequence[int], subindex: int) -> None:
    """An abelian quotient has a chain with prime steps, and some step must be
    divisible by the largest prime dividing its order."""
    check_equal(f"subindex for {moduli}", largest_prime_factor(math.prod(moduli)), subindex)
