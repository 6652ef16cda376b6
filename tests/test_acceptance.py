"""Acceptance gate: one verdict line per criterion, exact values, pinned timings.

Each test prints "ACCEPTANCE <n>: PASS" or "... FAIL" before asserting, so a
full run shows the scoreboard regardless of which criteria hold.
"""

import random
import time

from freecomm import (
    NoExtension,
    Word,
    apply,
    bs_report,
    compose,
    compute_extension,
    conjugate,
    embed_aut,
    equivalent,
    equivalent_bruteforce,
    extend_pair,
    from_generators,
    hnn_obstruction,
    intersect,
    is_identity_class,
    is_normal,
    kernel_mod_p,
    kernel_swap,
    power,
    restrict,
    subindex_of_iso,
    transfer_to_overgroup,
    transfer_to_subgroup,
    whole_group,
)
from support import (
    compose_images,
    nielsen_moves,
    random_aut_images,
    random_cover,
    random_restriction_iso,
    random_small_domain,
    random_tiny_domain,
)


def verdict(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail or f"criterion {criterion} failed"


def test_criterion_1_nielsen_schreier():
    rng = random.Random(101)
    start = time.monotonic()
    failures = []
    for trial in range(200):
        rank = 2 if trial % 2 == 0 else 3
        index = rng.randrange(1, 13)
        h = random_cover(rng, rank, index)
        if h.index() != index or len(h.basis.elements) != 1 + index * (rank - 1):
            failures.append((rank, index))
    elapsed = time.monotonic() - start
    verdict(1, not failures and elapsed < 10.0, f"failures={failures} time={elapsed:.1f}s")


def test_criterion_2_kernel_fidelity():
    bad = []
    for rank in (2, 3):
        for p in (2, 3, 5, 7):
            x = Word((1,))
            listed = [power(x, p)] + [
                conjugate(Word((j,)), power(x, i))
                for j in range(2, rank + 1)
                for i in range(p)
            ]
            folded = from_generators(rank, listed)
            kernel = kernel_mod_p(rank, (1,) + (0,) * (rank - 1), p)
            if not (
                folded == kernel
                and kernel.index() == p
                and is_normal(kernel)
            ):
                bad.append((rank, p))
    verdict(2, not bad, f"mismatched grid points: {bad}")


def test_criterion_3_swap_obstruction():
    bad = []
    for rank in (2, 3):
        for p in (2, 3, 5, 7):
            report = kernel_swap(rank, p)
            rows = {c.name: c for c in report.checks}
            if not (
                report.ok
                and rows["failing generator"].actual == 1
                and rows["failing root exponent"].actual == p
                and rows["root-free image word"].actual == "b"
                and rows["power is imprimitive in the ambient group with certificate"].actual == p
            ):
                bad.append((rank, p))
    verdict(3, not bad, f"bad grid points: {bad}")


def test_criterion_4_equivalence_oracle_agreement():
    rng = random.Random(404)
    start = time.monotonic()
    disagreements = 0
    for trial in range(100):
        alpha = random_restriction_iso(rng, 2)
        kind = trial % 3
        if kind == 0:
            beta = random_restriction_iso(rng, 2)
        elif kind == 1:
            beta = restrict(alpha, intersect(alpha.domain, random_small_domain(rng, 2)))
        else:
            aut = compute_extension(alpha)
            beta = (
                restrict(embed_aut(aut), random_small_domain(rng, 2))
                if not isinstance(aut, NoExtension)
                else restrict(alpha, alpha.domain)
            )
        if equivalent(alpha, beta) != equivalent_bruteforce(alpha, beta, 36):
            disagreements += 1
    elapsed = time.monotonic() - start
    verdict(
        4,
        disagreements == 0 and elapsed < 120.0,
        f"disagreements={disagreements} time={elapsed:.1f}s",
    )


def test_criterion_5_extend_pair():
    rng = random.Random(505)
    bad = 0
    for _ in range(50):
        images = random_aut_images(rng, 2)
        aut = embed_aut(images)
        h1 = random_small_domain(rng, 2)
        p = rng.choice((2, 3))
        weights = [rng.randrange(p), rng.randrange(p)]
        if all(w % p == 0 for w in weights):
            weights[0] = 1
        h2 = kernel_mod_p(2, weights, p)
        phi1, phi2 = restrict(aut, h1), restrict(aut, h2)
        glued = extend_pair(phi1, phi2)
        for w in phi1.domain.basis.elements:
            if apply(glued, w) != apply(phi1, w):
                bad += 1
        for w in phi2.domain.basis.elements:
            if apply(glued, w) != apply(phi2, w):
                bad += 1
    verdict(5, bad == 0, f"{bad} basis elements moved differently")


def test_criterion_6_subindex_bound():
    rng = random.Random(606)
    pool = []
    attempts = 0
    while len(pool) < 10 and attempts < 200:
        attempts += 1
        choice = rng.randrange(3)
        if choice == 0:
            dom = random_tiny_domain(rng, 2)
        elif choice == 1:
            dom = intersect(random_tiny_domain(rng, 2), random_tiny_domain(rng, 2))
        else:
            dom = kernel_mod_p(2, (1, rng.randrange(4)), 4)
        phi = restrict(embed_aut(random_aut_images(rng, 2, num_moves=2)), dom)
        if phi.domain.index() <= 9 and subindex_of_iso(phi) <= 3:
            pool.append(phi)
    bad = []
    for trial in range(50):
        product = compose(rng.choice(pool), rng.choice(pool))
        if subindex_of_iso(product) > 3:
            bad.append(trial)
    verdict(
        6,
        len(pool) == 10 and not bad,
        f"pool={len(pool)} products above the bound at trials {bad}",
    )


def test_criterion_7_transfer_identities():
    rng = random.Random(707)
    bad = 0
    sampled = 0
    for p in (2, 3):
        h = kernel_mod_p(2, (1, 0), p)
        for _ in range(6):
            alpha = random_restriction_iso(rng, 2)
            sampled += 1
            if not equivalent(
                transfer_to_overgroup(transfer_to_subgroup(alpha, h), h), alpha
            ):
                bad += 1
        sub_rank = len(h.basis.elements)
        for _ in range(6):
            beta = random_restriction_iso(rng, sub_rank)
            sampled += 1
            if not equivalent(
                transfer_to_subgroup(transfer_to_overgroup(beta, h), h), beta
            ):
                bad += 1
    verdict(7, sampled >= 20 and bad == 0, f"{bad} of {sampled} classes not fixed")


def test_criterion_8_aut_embedding_injectivity():
    rng = random.Random(808)
    ident = tuple(Word((i,)) for i in (1, 2))
    moves = nielsen_moves(2)
    cases = []
    for _ in range(20):
        images = ident
        for _ in range(rng.randrange(0, 4)):
            images = compose_images(rng.choice(moves), images)
        cases.append(images)
    flip = (Word((2,)), Word((1,)))
    push, pull = (Word((1, 2)), Word((2,))), (Word((1, -2)), Word((2,)))
    cases.append(compose_images(flip, flip))
    cases.append(compose_images(pull, push))
    bad = []
    for images in cases:
        if is_identity_class(embed_aut(images)) != (images == ident):
            bad.append(images)
    verdict(8, len(cases) >= 20 and not bad, f"mismatches: {bad}")


def test_criterion_9_bs_grid():
    start = time.monotonic()
    bad = []
    for k, p in ((2, 3), (2, 5), (3, 5), (6, 7), (-2, 3)):
        report = bs_report(k, p, samples=1000, seed=99)
        rows = {c.name: c for c in report.checks}
        if not (report.ok and rows["image index"].actual == p):
            bad.append((k, p))
    elapsed = time.monotonic() - start
    verdict(9, not bad and elapsed < 5.0, f"bad={bad} time={elapsed:.1f}s")


def test_criterion_10_hnn_solution_set():
    # Exact solution sets, proved for n >= 3 and any bound >= 1.
    # Even n: the sum is (l + r) * sum_{j < n/2} l^(n-2-2j) r^(2j), and the
    # second factor is a sum of n/2 >= 2 positive terms, so |sum| is 0 when
    # r = -l and at least 2 otherwise: no solutions.
    # Odd n: the sum is 1 at (1, -1) and (-1, 1).  For any other coprime
    # pair with opposite signs it is (|l|^n + |r|^n) / (|l| + |r|) > 1; with
    # equal signs and |l| != |r| every term is positive, so it is at least
    # n >= 3; and at l = r = +-1 it is n.
    expected = {n: [(-1, 1), (1, -1)] if n % 2 else [] for n in (3, 4, 5, 6, 7, 8)}
    start = time.monotonic()
    mismatches = {}
    for n in (3, 4, 5, 6, 7, 8):
        found = hnn_obstruction(n, 30)
        if found != expected[n]:
            mismatches[n] = found
    elapsed = time.monotonic() - start
    verdict(
        10,
        not mismatches and elapsed < 5.0,
        f"solution sets differing from {expected}: {mismatches} time={elapsed:.1f}s",
    )


def test_criterion_11_extension_round_trip():
    rng = random.Random(1111)
    bad = []
    for trial in range(50):
        images = random_aut_images(rng, 2)
        h = random_small_domain(rng, 2)
        recovered = compute_extension(restrict(embed_aut(images), h))
        if recovered != images:
            bad.append(trial)
    verdict(11, not bad, f"round trips failing at trials {bad}")
