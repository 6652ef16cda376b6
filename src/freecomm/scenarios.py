"""End-to-end constructions with self-checking reports.

Each scenario builds concrete objects (kernels, automorphisms of
subgroups, exact Baumslag-Solitar elements), runs the checks that make
the construction meaningful, and returns a ScenarioReport holding the
parameters, the constructed objects in their serialized form, and one
(name, expected, actual) row per check.  A report is `ok` when every
check passed; the CLI turns that into its exit status.

The Baumslag-Solitar group BS(1,k) is handled in its normal form
Z[1/k] ⋊ ⟨t⟩: an element is an exact k-adic rational together with a
t-exponent, multiplying by (x, i)·(y, j) = (x + k^i·y, i + j).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from .commensurator import (
    NoExtension,
    apply,
    compute_extension,
    extendAB_certificate,
    is_identity_class,
    iso_to_document,
    make_iso,
)
from .errors import WorkLimitError
from .record import Record
from .stallings import (
    _is_prime,
    _require_modulus_under_cap,
    _walk,
    from_generators,
    graph_to_document,
    is_normal,
    kernel_mod_p,
)
from .words import (
    Word,
    _is_int,
    _require_letters_under_limit,
    conjugate,
    imprimitivity_certificate,
    power,
    word_to_text,
)

__all__ = [
    "BSElement",
    "Check",
    "ScenarioReport",
    "bs_element",
    "bs_image_index",
    "bs_inv",
    "bs_mul",
    "bs_psi",
    "bs_report",
    "free_product_twist",
    "hnn_obstruction",
    "hnn_report",
    "kernel_swap",
    "report_to_document",
]


# The most work one scenario scan may ask for: power-sum terms of
# hnn_obstruction, random samples of bs_report.  At the limit, bs_report
# takes a few seconds and hnn_report a fraction of one.
WORK_LIMIT = 100_000


def _require_work_under_limit(op: str, asked: str, count: int) -> None:
    if count > WORK_LIMIT:
        raise WorkLimitError(f"{op}: {asked} exceed the work limit ({WORK_LIMIT})")


def _require_ints(op: str, **values) -> None:
    """Refuse a count or parameter that is not an int, or is a bool, before
    any arithmetic reads it."""
    for name, value in values.items():
        if not _is_int(value):
            raise ValueError(f"{op}: {name} must be an int, got {value!r}")


def _require_prime(op: str, p: int) -> None:
    """The modulus guard of the scenarios: p is held to the vertex cap first,
    which bounds the work it asks for, the primality test's included."""
    _require_modulus_under_cap(op, p)
    if not _is_prime(p):
        raise ValueError(f"expected a prime, got {p}")


def _swap_kernel(op: str, rank: int, p: int, twist_letters: int = 0):
    """The Z/p kernel on the first generator that kernel_swap and
    free_product_twist start from.  Its basis, about (rank - 1)·p² letters,
    and the twist_letters that each of its (rank - 1)·(p - 1) twisted
    images gains are held to the letter limit first."""
    _require_ints(op, rank=rank)
    if rank < 2:
        raise ValueError(f"rank must be at least 2, got {rank}")
    _require_prime(op, p)
    _require_letters_under_limit(op, (rank - 1) * p * p + (rank - 1) * (p - 1) * twist_letters)
    return kernel_mod_p(rank, (1,) + (0,) * (rank - 1), p)


# ---------------------------------------------------------------------------
# reports


class Check(Record):
    """One verified assertion: a name, what was expected, what happened."""

    def __init__(self, name: str, expected: object, actual: object):
        self.__dict__.update(name=name, expected=expected, actual=actual)

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


class ScenarioReport(Record):
    def __init__(self, scenario: str, parameters: dict, objects: dict, checks: tuple[Check, ...]):
        self.__dict__.update(
            scenario=scenario, parameters=parameters, objects=objects, checks=checks
        )

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)


def _plain(value):
    if isinstance(value, BSElement):
        return {name: getattr(value, name) for name in value._fields}
    if isinstance(value, Word):
        return word_to_text(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def report_to_document(report: ScenarioReport) -> dict:
    """Serialized report with a stable field order."""
    return {
        "scenario": report.scenario,
        "parameters": _plain(report.parameters),
        "objects": _plain(report.objects),
        "checks": [
            {
                "name": c.name,
                "expected": _plain(c.expected),
                "actual": _plain(c.actual),
                "pass": c.passed,
            }
            for c in report.checks
        ],
        "ok": report.ok,
    }


# ---------------------------------------------------------------------------
# kernel swap


def kernel_swap(rank: int, p: int) -> ScenarioReport:
    """Swap two basis elements of a mod-p kernel and certify non-extendability.

    H is the kernel of F_rank -> Z/p sending the first generator to 1
    and the rest to 0.  Its canonical basis contains both the p-th
    power of the first generator and the second generator; the
    automorphism of H exchanging them (fixing the rest) extends to no
    automorphism of the ambient group, and compute_extension certifies
    this with a concrete root failure.
    """
    h = _swap_kernel("kernel_swap", rank, p)
    x = Word((1,))
    y = Word((2,))
    xp = power(x, p)
    basis = h.basis.elements
    i_xp = basis.index(xp)
    i_y = basis.index(y)
    images = list(basis)
    images[i_xp], images[i_y] = images[i_y], images[i_xp]
    swap = make_iso(h, h, images)
    # the unfolded generating set: the power plus all shifted conjugates
    unfolded = [xp] + [
        conjugate(Word((j,)), power(x, i))
        for j in range(2, rank + 1)
        for i in range(p)
    ]
    refolded = from_generators(rank, unfolded)
    extension = compute_extension(swap)
    no_ext = isinstance(extension, NoExtension)
    checks = [
        Check("kernel index", p, h.index()),
        Check("kernel is normal", True, is_normal(h)),
        Check("kernel rank", 1 + p * (rank - 1), len(basis)),
        Check("conjugate generating set folds to the kernel", True, refolded == h),
        Check(
            "swap is an automorphism of the kernel",
            True,
            swap.domain == h and swap.codomain == h,
        ),
        Check("swap image of the power", word_to_text(y), word_to_text(apply(swap, xp))),
        Check("swap is the identity class", False, is_identity_class(swap)),
        Check("ambient extension exists", False, not no_ext),
        Check("failing generator", 1, extension.generator if no_ext else None),
        Check("failing root exponent", p, extension.exponent if no_ext else None),
        Check(
            "root-free image word",
            word_to_text(y),
            word_to_text(extension.word) if no_ext and extension.word else None,
        ),
        Check(
            "power is imprimitive in the ambient group with certificate",
            p,
            imprimitivity_certificate(xp, rank),
        ),
        Check("power is a basis element of the kernel", True, xp in basis),
    ]
    return ScenarioReport(
        scenario="kernel-swap",
        parameters={"rank": rank, "prime": p},
        objects={
            "kernel": graph_to_document(h.graph),
            "swap": iso_to_document(swap),
        },
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# free product twist


def free_product_twist(rank: int, p: int, b: Optional[Word] = None) -> ScenarioReport:
    """Twist a mod-p kernel by an inner piece invisible to a free splitting.

    With A generated by the first generator and B by the rest, H is the
    kernel of F_rank -> Z/p killing B and sending A's generator to 1.
    The canonical basis of H splits into the piece inside A, the piece
    inside B, and the rest C; the map fixing the first two pieces and
    conjugating C by an element b of H ∩ B is an automorphism of H that
    fixes H ∩ A and H ∩ B elementwise without being the identity class,
    so it extends to no ambient automorphism.
    """
    b = Word((2,) if b is None else b)
    # each twisted image gains b and its inverse
    h = _swap_kernel("free_product_twist", rank, p, 2 * len(b))
    a_sub = from_generators(rank, [Word((1,))])
    b_sub = from_generators(rank, [Word((j,)) for j in range(2, rank + 1)])
    if not (b_sub.contains(b) and h.contains(b) and len(b) > 0):
        raise ValueError(
            f"the twisting element must be a nontrivial member of the kernel's "
            f"B-part, got {word_to_text(b)!r}"
        )
    basis = h.basis.elements
    a_part = [w for w in basis if a_sub.contains(w)]
    b_part = [w for w in basis if b_sub.contains(w)]
    c_part = [w for w in basis if w not in a_part and w not in b_part]
    images = [w if w in a_part or w in b_part else conjugate(w, b) for w in basis]
    twist = make_iso(h, h, images)
    extension = compute_extension(twist)
    checks = [
        Check("kernel index", p, h.index()),
        Check("kernel rank", 1 + p * (rank - 1), len(basis)),
        Check("basis elements inside the cyclic factor", 1, len(a_part)),
        Check("basis elements inside the complementary factor", rank - 1, len(b_part)),
        Check("twisted basis elements", (p - 1) * (rank - 1), len(c_part)),
        Check(
            "twist is an automorphism of the kernel",
            True,
            twist.domain == h and twist.codomain == h,
        ),
        Check("twist is the identity class", False, is_identity_class(twist)),
        Check(
            "non-extendability certificate against the splitting",
            True,
            extendAB_certificate(twist, a_sub, b_sub),
        ),
        Check(
            "ambient extension exists",
            False,
            not isinstance(extension, NoExtension),
        ),
    ]
    return ScenarioReport(
        scenario="free-product-twist",
        parameters={"rank": rank, "prime": p, "b": word_to_text(b)},
        objects={
            "kernel": graph_to_document(h.graph),
            "twist": iso_to_document(twist),
        },
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# Baumslag-Solitar arithmetic


class BSElement(Record):
    """Element (num / k^denom_exp, t^texp) of Z[1/k] ⋊ ⟨t⟩, normalized."""

    def __init__(self, num: int, denom_exp: int, texp: int, k: int):
        if abs(k) < 2:
            raise ValueError(f"|k| must be at least 2, got {k}")
        if denom_exp < 0:
            raise ValueError("denominator exponent must be non-negative")
        if denom_exp > 0 and num % k == 0:  # zero with a denominator included
            raise ValueError("not normalized: numerator divisible by k")
        self.__dict__.update(num=num, denom_exp=denom_exp, texp=texp, k=k)


def bs_element(num: int, denom_exp: int, texp: int, k: int) -> BSElement:
    """Normalizing constructor; accepts negative denom_exp as k-powers."""
    _require_ints("bs_element", num=num, denom_exp=denom_exp, texp=texp, k=k)
    if abs(k) < 2:
        raise ValueError(f"|k| must be at least 2, got {k}")
    if denom_exp < 0:
        num *= k ** (-denom_exp)
        denom_exp = 0
    if num == 0:
        return BSElement(0, 0, texp, k)
    while denom_exp > 0 and num % k == 0:
        num //= k
        denom_exp -= 1
    return BSElement(num, denom_exp, texp, k)


def _require_same_k(a: BSElement, b: BSElement) -> int:
    if a.k != b.k:
        raise ValueError(f"mixed parameters k={a.k} and k={b.k}")
    return a.k


def bs_mul(a: BSElement, b: BSElement) -> BSElement:
    """(x, i)·(y, j) = (x + k^i·y, i+j), exactly."""
    k = _require_same_k(a, b)
    # k^i·y = b.num / k^(b.denom_exp - i); bring both to a common k-power
    e2 = b.denom_exp - a.texp
    d = max(a.denom_exp, e2, 0)
    num = a.num * k ** (d - a.denom_exp) + b.num * k ** (d - e2)
    return bs_element(num, d, a.texp + b.texp, k)


def bs_inv(a: BSElement) -> BSElement:
    """(x, i)⁻¹ = (−k^(−i)·x, −i)."""
    return bs_element(-a.num, a.denom_exp + a.texp, -a.texp, a.k)


def bs_psi(a: BSElement, p: int) -> BSElement:
    """The endomorphism multiplying the Z[1/k] part by p, fixing t."""
    return bs_element(a.num * p, a.denom_exp, a.texp, a.k)


def bs_image_index(k: int, p: int) -> int:
    """Index of the image of bs_psi(·, p): coset count by orbit enumeration.

    Cosets are tracked by residues mod p; the two generators act by
    r -> r+1 and r -> k·r.  Requires gcd(p, k) = 1, which makes the
    k-action invertible mod p.  The walk visits all p residues, so p is
    held to the vertex cap.
    """
    _require_ints("bs_image_index", k=k)
    if abs(k) < 2:
        raise ValueError(f"|k| must be at least 2, got {k}")
    _require_modulus_under_cap("bs_image_index", p)
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if math.gcd(p, k) != 1:
        raise ValueError(f"p={p} shares a factor with k={k}; the index is not defined here")
    return len(_walk(0, lambda r: {1: (r + 1) % p, 2: r * k % p})[0])


def _bs_sample(rng: random.Random, k: int) -> BSElement:
    return bs_element(rng.randint(-99, 99), rng.randint(0, 4), rng.randint(-3, 3), k)


def bs_report(k: int, p: int, samples: int = 1000, seed: int = 0) -> ScenarioReport:
    """Exact checks of the BS(1,k) arithmetic and the index-p self-embedding,
    on 1 to WORK_LIMIT random samples."""
    _require_ints("bs_report", k=k, samples=samples)
    if abs(k) < 2:
        raise ValueError(f"|k| must be at least 2, got {k}")
    if samples < 1:
        raise ValueError(f"samples must be positive, got {samples}")
    _require_work_under_limit("bs_report", f"{samples} samples", samples)
    _require_prime("bs_report", p)
    if math.gcd(p, k) != 1:
        raise ValueError(f"p={p} shares a factor with k={k}")
    a = bs_element(1, 0, 0, k)
    t = bs_element(0, 0, 1, k)
    relation = bs_mul(bs_mul(t, a), bs_inv(t))
    a_to_k = bs_element(k, 0, 0, k)
    rng = random.Random(seed)
    hom_failures = 0
    inv_failures = 0
    assoc_failures = 0
    inj_failures = 0
    for _ in range(samples):
        x = _bs_sample(rng, k)
        y = _bs_sample(rng, k)
        z = _bs_sample(rng, k)
        if bs_psi(bs_mul(x, y), p) != bs_mul(bs_psi(x, p), bs_psi(y, p)):
            hom_failures += 1
        if bs_mul(x, bs_inv(x)) != bs_element(0, 0, 0, k):
            inv_failures += 1
        if bs_mul(bs_mul(x, y), z) != bs_mul(x, bs_mul(y, z)):
            assoc_failures += 1
        if (bs_psi(x, p) == bs_psi(y, p)) != (x == y):
            inj_failures += 1
    checks = [
        Check("defining relation t·a·t⁻¹ = a^k", a_to_k, relation),
        Check("multiplicative failures", 0, hom_failures),
        Check("inverse failures", 0, inv_failures),
        Check("associativity failures", 0, assoc_failures),
        Check("injectivity failures", 0, inj_failures),
        Check("image index", p, bs_image_index(k, p)),
    ]
    return ScenarioReport(
        scenario="bs",
        parameters={"k": k, "p": p, "samples": samples, "seed": seed},
        objects={},
        checks=tuple(checks),
    )


# ---------------------------------------------------------------------------
# HNN obstruction arithmetic


def hnn_obstruction(n: int, bound: int) -> list[tuple[int, int]]:
    """Coprime nonzero pairs (l, r) with |l^(n-1) + l^(n-2)·r + … + r^(n-1)| = 1.

    Exhaustive exact scan over 1 <= |l|, |r| <= bound, which evaluates
    (2·bound)²·n power-sum terms, at most WORK_LIMIT.  Pairs with a zero
    component are excluded, as are non-coprime pairs.

    For n >= 3 and any bound >= 1 the result is [(-1, 1), (1, -1)] when n
    is odd and [] when n is even.  For even n the sum factors as
    (l + r) * (l^(n-2) + l^(n-4)·r^2 + … + r^(n-2)), whose second factor
    has n/2 >= 2 positive terms, so |sum| is 0 or at least 2.  For odd n
    and opposite signs the sum is (|l|^n + |r|^n) / (|l| + |r|), which is 1
    only at l = -r = ±1; for equal signs all n terms are positive, so the
    sum is at least n.
    """
    _require_ints("hnn_obstruction", n=n, bound=bound)
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    if bound < 1:
        raise ValueError(f"bound must be positive, got {bound}")
    terms = (2 * bound) ** 2 * n
    asked = f"{terms} power-sum terms (n={n}, bound {bound})"
    _require_work_under_limit("hnn_obstruction", asked, terms)
    solutions = []
    for l in range(-bound, bound + 1):
        if l == 0:
            continue
        for r in range(-bound, bound + 1):
            if r == 0 or math.gcd(l, r) != 1:
                continue
            total = sum(l ** (n - 1 - i) * r**i for i in range(n))
            if abs(total) == 1:
                solutions.append((l, r))
    return sorted(solutions)


def hnn_report(n: int, bound: int) -> ScenarioReport:
    """Self-validating report over the hnn_obstruction scan."""
    solutions = hnn_obstruction(n, bound)

    def closed_form(l: int, r: int) -> int:
        if l == r:
            return n * l ** (n - 1)
        return (l**n - r**n) // (l - r)

    found = set(solutions)
    checks = [
        Check(
            "every reported pair is coprime",
            True,
            all(math.gcd(l, r) == 1 for l, r in solutions),
        ),
        Check(
            "every reported pair has unit sum (closed form)",
            True,
            all(abs(closed_form(l, r)) == 1 for l, r in solutions),
        ),
        Check(
            "no excluded pair has unit sum",
            True,
            all(
                abs(closed_form(l, r)) != 1
                for l in range(-bound, bound + 1)
                for r in range(-bound, bound + 1)
                if l and r and math.gcd(l, r) == 1 and (l, r) not in found
            ),
        ),
        Check(
            "solution set closed under simultaneous negation",
            True,
            all((-l, -r) in found for l, r in solutions),
        ),
    ]
    return ScenarioReport(
        scenario="hnn",
        parameters={"n": n, "bound": bound},
        objects={"solutions": [[l, r] for l, r in solutions]},
        checks=tuple(checks),
    )
