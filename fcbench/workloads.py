"""The four workloads: plain inputs made from a seed, and one pass of operations.

make_inputs(seed, workdir) builds plain data only (ints, letter-syntax
words, JSON documents) without touching freecomm.  operations(fc, inputs,
env) returns the pass as a list of Op; every Op builds its library
objects afresh from the plain inputs, so the cached basis and tree of
every Subgroup start empty, and checks each answer with the checks module.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple, Optional, Sequence

from checks import (
    cayley_document,
    check_equal,
    check_hnn,
    check_kernel_basis,
    check_overgroups,
    check_report,
    check_subindex,
    check_swap_certificate,
    exponent_sums,
    free_reduce,
    generators,
    is_prime,
    permutation_document,
    require,
    schreier_generators,
    substitute,
    text_to_word,
    word_to_text,
)


@dataclass
class Op:
    """One timed operation of a pass.

    run performs the library calls and their checks.  replay, set only for
    the cli workload, repeats the same call in-process so that the traced
    run can see inside it; it is never part of the timed pass.
    """

    name: str
    run: Callable[[], None]
    replay: Optional[Callable[[], None]] = None


def _words(fc, texts: Sequence[str], rank: int):
    return [fc.parse_word(t, rank) for t in texts]


def _plain(words) -> list[tuple[int, ...]]:
    return [tuple(w) for w in words]


# ---------------------------------------------------------------------------
# kernels: Z/p kernels with weights (1, 0, ...), long basis words


# One modulus is drawn from each band, and the largest modulus each
# operation handles under the default vertex cap is always included.  The
# bands keep the pass's cost nearly the same for every seed.
KERNEL_BANDS = {
    2: ((2, 20), (21, 40), (41, 60), (61, 80), (81, 100), (101, 120), (121, 139)),
    3: ((2, 20), (21, 40), (41, 60), (61, 80), (81, 98)),
}
KERNEL_TOP = {2: 140, 3: 99}
REPORT_BANDS = {2: ((2, 31), (37, 61), (67, 89)), 3: ((2, 23), (29, 47), (53, 61))}
REPORT_TOP = {2: 97, 3: 67}


def _draw(rng: random.Random, bands, top: int, keep=lambda m: True) -> list[int]:
    return [rng.choice([m for m in range(lo, hi + 1) if keep(m)]) for lo, hi in bands] + [top]


def kernels_inputs(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    return {
        "identity": [(rank, p) for rank in (2, 3) for p in _draw(rng, KERNEL_BANDS[rank], KERNEL_TOP[rank])],
        "reports": [
            (rank, p) for rank in (2, 3) for p in _draw(rng, REPORT_BANDS[rank], REPORT_TOP[rank], is_prime)
        ],
    }


def _kernel_identity(fc, rank: int, p: int) -> None:
    h = fc.kernel_mod_p(rank, (1,) + (0,) * (rank - 1), p)
    check_equal(f"index of the Z/{p} kernel", p, h.index())
    basis = h.basis.elements
    check_kernel_basis(rank, p, _plain(basis))
    require(fc.from_generators(rank, basis) == h, f"refolded basis differs from the Z/{p} kernel")
    extension = fc.compute_extension(fc.identity_iso(h))
    require(not isinstance(extension, fc.NoExtension), f"identity of the Z/{p} kernel did not extend")
    check_equal(f"extension of the identity at p={p}", generators(rank), _plain(extension))


def _row(doc: dict, name: str):
    return next(row["actual"] for row in doc["checks"] if row["name"] == name)


def _kernel_reports(fc, rank: int, p: int) -> None:
    swap = fc.report_to_document(fc.kernel_swap(rank, p))
    check_report(swap)
    check_swap_certificate(p, _row(swap, "failing generator"), _row(swap, "failing root exponent"))
    check_report(fc.report_to_document(fc.free_product_twist(rank, p)))


def kernels_operations(fc, inputs: dict, env) -> list[Op]:
    ops = [Op(f"identity r{r} p{p}", lambda r=r, p=p: _kernel_identity(fc, r, p)) for r, p in inputs["identity"]]
    ops += [Op(f"reports r{r} p{p}", lambda r=r, p=p: _kernel_reports(fc, r, p)) for r, p in inputs["reports"]]
    return ops


# ---------------------------------------------------------------------------
# iso-chain: depth-8 compositions of restricted automorphisms in rank 2


CHAIN_DEPTH = 8
# Elementary Nielsen moves of F_2 as generator images.
NIELSEN_MOVES = (
    ((-1,), (2,)),
    ((1,), (-2,)),
    ((2,), (1,)),
    ((1, 2), (2,)),
    ((1, -2), (2,)),
    ((1,), (2, 1)),
    ((1,), (2, -1)),
)
# The cost of one chain varies tenfold with the draw.  Each seed draws a
# fixed number of candidate chains, so set-up does the same work for every
# seed.  Candidates are taken in order while their summed cost estimate
# stays within the budget, until it is within CHAIN_SLACK of it; candidates
# above the cap are skipped.  This keeps the work of a pass nearly the same
# for every seed.
CHAIN_CANDIDATES = 120
CHAIN_BUDGET = 8000
CHAIN_CAP = 320
CHAIN_SLACK = 150
BATCH_SIZE = 6


def _random_link(rng: random.Random):
    """Two Nielsen moves, restricted to a random index-2 or index-3 kernel."""
    images = generators(2)
    for _ in range(2):
        move = rng.choice(NIELSEN_MOVES)
        images = [substitute(move, w) for w in images]
    p = rng.choice((2, 3))
    weights = [rng.randrange(p) for _ in range(2)]
    if all(w % p == 0 for w in weights):
        weights[rng.randrange(2)] = 1
    return images, p, tuple(weights)


def composite_images(links) -> list[tuple[int, ...]]:
    """Generator images of the automorphism the chain restricts: first link first."""
    images = generators(2)
    for link_images, _, _ in links:
        images = [substitute(link_images, w) for w in images]
    return images


def _prefix_profile(links) -> list[tuple[int, int]]:
    """(domain index, composite image length) of each prefix of the chain.

    A word x lies in the domain when, for every link k, the composite of the
    earlier links maps x into link k's kernel.  Each condition only sees x
    modulo 6 in Z^2, so the index is the number of distinct condition
    vectors over (Z/6)^2.
    """
    vectors = list(product(range(6), repeat=2))
    keys = [()] * len(vectors)
    prefix = generators(2)
    profile = []
    for link_images, p, weights in links:
        sums = [exponent_sums(w, 2) for w in prefix]
        for i, (x, y) in enumerate(vectors):
            image = [sums[0][j] * x + sums[1][j] * y for j in range(2)]
            keys[i] += ((image[0] * weights[0] + image[1] * weights[1]) % p,)
        prefix = [substitute(link_images, w) for w in prefix]
        profile.append((len(set(keys)), sum(len(w) for w in prefix)))
    return profile


def chain_domain_index(links) -> int:
    """Index of the chain's domain, from the abelian conditions that define it."""
    return _prefix_profile(links)[-1][0]


def chain_cost_estimate(links) -> float:
    """Estimated cost of a chain, in units of about half a millisecond on the reference host.

    Sums, over the chain's prefixes, the squared domain index times the
    length of the composite's generator images, and takes the 0.55th power.
    On 120 random chains, each timed twice in a fresh process, it predicted
    the time within a log-residual of 0.17; the repeats alone differed by 0.08.
    """
    return sum(index**2 * length for index, length in _prefix_profile(links)) ** 0.55


def _batch_word(rng: random.Random) -> tuple[int, ...]:
    """A random word whose exponent sums are divisible by 6.

    Every chain domain contains the kernel of F_2 -> (Z/6)^2 (see
    chain_domain_index), so these words lie in every domain.
    """
    while True:
        w = free_reduce(rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(4, 11)))
        s = exponent_sums(w, 2)
        w = free_reduce(w + (1,) * (-s[0] % 6) + (2,) * (-s[1] % 6))
        if w:
            return w


def iso_chain_inputs(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    candidates = [[_random_link(rng) for _ in range(CHAIN_DEPTH)] for _ in range(CHAIN_CANDIDATES)]
    chains = []
    total = 0.0
    for links, cost in zip(candidates, [chain_cost_estimate(links) for links in candidates]):
        if CHAIN_BUDGET - total <= CHAIN_SLACK:
            break
        if cost > CHAIN_CAP or total + cost > CHAIN_BUDGET:
            continue
        total += cost
        chains.append(
            {
                "links": [([word_to_text(w) for w in imgs], p, list(weights)) for imgs, p, weights in links],
                "composite": [word_to_text(w) for w in composite_images(links)],
                "batch": [word_to_text(_batch_word(rng)) for _ in range(BATCH_SIZE)],
            }
        )
    if CHAIN_BUDGET - total > CHAIN_SLACK:
        raise ValueError(f"seed {seed}: {CHAIN_CANDIDATES} candidate chains do not fill the budget")
    return {"chains": chains}


def _iso_chain(fc, chain: dict) -> None:
    isos = [
        fc.restrict(fc.embed_aut(_words(fc, images, 2)), fc.kernel_mod_p(2, weights, p))
        for images, p, weights in chain["links"]
    ]
    phi = fc.compose_many(isos)
    inverse = fc.invert_iso(phi)
    expected = [text_to_word(t) for t in chain["composite"]]
    extension = fc.compute_extension(phi)
    require(not isinstance(extension, fc.NoExtension), "chain of automorphisms did not extend")
    check_equal("extension of the chain", expected, _plain(extension))
    batch = _words(fc, chain["batch"], 2)
    for w in list(phi.domain.basis.elements) + batch:
        check_equal("chain applied to a domain word", substitute(expected, w), tuple(fc.apply(phi, w)))
    require(fc.is_identity_class(fc.compose(phi, inverse)), "chain composed with its inverse is not the identity")
    for w in batch:
        check_equal("inverse after chain", tuple(w), tuple(fc.apply(inverse, fc.apply(phi, w))))


def iso_chain_operations(fc, inputs: dict, env) -> list[Op]:
    return [Op(f"chain {i}", lambda c=c: _iso_chain(fc, c)) for i, c in enumerate(inputs["chains"])]


# ---------------------------------------------------------------------------
# lattice: overgroups and subindex of kernels onto finite abelian groups


# Each quotient is given by invariant factors, and the kernel is always that
# of the standard map sending generator i to the i-th unit vector.  Kernels
# of other maps onto the same group cost up to four times as much, so a
# per-seed map would swamp the seed-to-seed spread; the seed instead
# composes the standard map with a random automorphism of the quotient,
# which changes the document the program reads but not the subgroup.
LATTICE_GROUPS = (
    (2, 2, 2),
    (2, 2, 2, 2),
    (2, 4),
    (3, 3),
    (2, 6),
    (4, 4),
    (3, 6),
    (2, 12),
    (6, 12),
)


def _automorphic_images(rng: random.Random, moduli: Sequence[int]) -> list[tuple[int, ...]]:
    """Images of the unit vectors under a random automorphism of prod Z/m.

    Coordinate j of the image of unit vector i must be killed by m_i, so it
    is a multiple of m_j / gcd(m_i, m_j); a map whose images generate the
    group is onto, hence an automorphism.
    """
    order = math.prod(moduli)
    while True:
        images = [
            tuple(rng.randrange(m_j) * (m_j // math.gcd(m_i, m_j)) % m_j for m_j in moduli) for m_i in moduli
        ]
        reached = {tuple(0 for _ in moduli)}
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for g in images:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) == order:
            return images


def lattice_inputs(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    return {
        "groups": [
            {"moduli": list(moduli), "document": cayley_document(moduli, _automorphic_images(rng, moduli))}
            for moduli in LATTICE_GROUPS
        ]
    }


def _overgroups(fc, group: dict) -> None:
    h = fc.subgroup_from_document(group["document"])
    check_overgroups(group["moduli"], [g.index() for g in fc.overgroups(h)])


def _subindex(fc, group: dict) -> None:
    check_subindex(group["moduli"], fc.subindex(fc.subgroup_from_document(group["document"])))


def lattice_operations(fc, inputs: dict, env) -> list[Op]:
    ops = []
    for g in inputs["groups"]:
        ops.append(Op(f"overgroups {g['moduli']}", lambda g=g: _overgroups(fc, g)))
        ops.append(Op(f"subindex {g['moduli']}", lambda g=g: _subindex(fc, g)))
    return ops


# ---------------------------------------------------------------------------
# cli: sequential `python -m freecomm.cli` calls


CLI_PRIMES = (5, 7, 11, 13, 17, 19, 23)  # p + 1 <= 26 keeps `iso transfer` in letter syntax
COVER_DEGREE = 6


def _random_transitive_action(rng: random.Random, degree: int) -> list[list[int]]:
    while True:
        perms = [rng.sample(range(degree), degree) for _ in range(2)]
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


def cli_inputs(seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    p, q = rng.sample(CLI_PRIMES, 2)
    perms = _random_transitive_action(rng, COVER_DEGREE)
    cover = os.path.join(workdir, "cover.json")
    with open(cover, "w", encoding="utf-8") as fh:
        json.dump(permutation_document(perms), fh)
    return {
        "p": p,
        "q": q,
        "cover": cover,
        "cover_gens": [word_to_text(w) for w in schreier_generators(perms)],
        "workdir": workdir,
    }


def document_index(doc: dict) -> Optional[int]:
    """Vertex count of a graph document when it is a cover, else None."""
    rank = doc["rank"]
    vertices = {v for s, t, _ in doc["edges"] for v in (s, t)} | {doc["basepoint"]}
    out = {(s, label) for s, _, label in doc["edges"]}
    inc = {(t, label) for _, t, label in doc["edges"]}
    full = len(out) == len(inc) == len(doc["edges"]) == rank * len(vertices)
    return len(vertices) if full else None


@dataclass
class CliCall:
    """One command line.

    argv is a list, or a function giving the list when it depends on an
    earlier call's output.  stdin and save_as name files in the work
    directory: a document fed on standard input, and the place where the
    call's output is kept for later calls.  check(code, stdout) raises
    CheckFailed on a wrong answer.
    """

    argv: object
    check: Callable[[int, str], None]
    stdin: Optional[str] = None
    save_as: Optional[str] = None

    def arguments(self) -> list:
        return self.argv() if callable(self.argv) else self.argv


def cli_calls(inputs: dict) -> list[CliCall]:
    """The pass's command lines, in order; later calls read what earlier ones saved."""
    p, q, work = inputs["p"], inputs["q"], inputs["workdir"]
    kp, kq, gens, swap, inv = (
        os.path.join(work, name) for name in ("kp.json", "kq.json", "gens.json", "swap.json", "inv.json")
    )
    state: dict = {}

    def status(expected: int, code: int) -> None:
        check_equal("exit status", expected, code)

    def document(check: Callable[[dict], None]):
        def run(code: int, out: str) -> None:
            status(0, code)
            check(json.loads(out))

        return run

    def printed(expected: str):
        def run(code: int, out: str) -> None:
            status(0, code)
            check_equal("printed answer", expected, out.strip())

        return run

    def basis(code: int, out: str) -> None:
        status(0, code)
        state["basis"] = out.split()
        check_equal(f"basis size of the Z/{p} kernel", 1 + p, len(state["basis"]))

    def swap_argv() -> list:
        images = list(state["basis"])
        i, j = images.index("a" * p), images.index("b")
        images[i], images[j] = images[j], images[i]
        state["swap"] = images
        return ["iso", "make", "--domain", kp, "--codomain", kp, "--images", ",".join(images)]

    def extend_ambient(code: int, out: str) -> None:
        status(1, code)
        doc = json.loads(out)
        require(doc["extends"] is False, "the basis swap was reported to extend")
        check_swap_certificate(p, doc["generator"], doc["exponent"])

    def transfer(doc: dict) -> None:
        check_equal("rank of the transferred swap", 1 + p, doc["rank"])
        letters = [text_to_word(t) for t in doc["images"]]
        require(all(len(w) == 1 and w[0] > 0 for w in letters), "transferred swap is not a permutation")
        moved = [i for i, w in enumerate(letters, start=1) if w[0] != i]
        require(
            len(moved) == 2 and sorted(letters[i - 1][0] for i in moved) == moved,
            "transferred swap is not a transposition",
        )

    def hnn(n: int):
        return document(lambda doc: (check_report(doc), check_hnn(n, doc["objects"]["solutions"])))

    def dot(code: int, out: str) -> None:
        status(0, code)
        check_equal("edges in the dot rendering", 2 * p, out.count(" -> "))
        check_equal("vertices in the dot rendering", p, out.count("shape="))
        require("0 [shape=doublecircle]" in out, "basepoint not double-circled")

    def index_of(name: str, expected: int):
        return document(lambda doc: check_equal(name, expected, document_index(doc)))

    def images_of(name: str, key: str):
        return document(lambda doc: check_equal(name, state[key], doc["images"]))

    kernel = ["subgroup", "kernel", "--rank", "2", "--weights"]
    return [
        CliCall(kernel + ["1,0", "--p", str(p)], index_of(f"index of the Z/{p} kernel", p), save_as=kp),
        CliCall(["subgroup", "index", "-"], printed(str(p)), stdin=kp),
        CliCall(["subgroup", "basis", "-"], basis, stdin=kp),
        CliCall(["subgroup", "normal", "-"], printed("true"), stdin=kp),
        CliCall(["subgroup", "subindex", "-"], printed(str(p)), stdin=kp),
        CliCall(kernel + ["0,1", "--p", str(q)], index_of(f"index of the Z/{q} kernel", q), save_as=kq),
        CliCall(["subgroup", "gens", "--rank", "2"] + inputs["cover_gens"], document(lambda doc: None), save_as=gens),
        CliCall(["subgroup", "equals", gens, inputs["cover"]], printed("true")),
        CliCall(["subgroup", "intersect", kp, kq], index_of("index of the intersection", p * q)),
        CliCall(["subgroup", "join", kp, kq], index_of("index of the join", 1)),
        CliCall(swap_argv, images_of("images of the swap", "swap"), save_as=swap),
        CliCall(["iso", "apply", swap, "a" * p], printed("b")),
        CliCall(["iso", "invert", swap], images_of("images of the inverse swap", "swap"), save_as=inv),
        CliCall(["iso", "compose", swap, swap], images_of("images of the swap squared", "basis")),
        CliCall(["iso", "equiv", swap, inv], printed("true")),
        CliCall(["iso", "extend-ambient", swap], extend_ambient),
        CliCall(["iso", "transfer", swap, "--down", kp], document(transfer)),
        CliCall(["paper", "kernel-swap", "--rank", "2", "--prime", "3"], document(check_report)),
        CliCall(["paper", "twist", "--rank", "2", "--prime", "3", "--b", "bb"], document(check_report)),
        CliCall(["paper", "bs", "--k", "2", "--p", "5", "--samples", "1000"], document(check_report)),
        CliCall(["paper", "hnn", "--n", "3", "--bound", "20"], hnn(3)),
        CliCall(["paper", "hnn", "--n", "4", "--bound", "20"], hnn(4)),
        CliCall(["export", "dot", kp], dot),
    ]


def _finish(call: CliCall, code: int, out: str) -> None:
    if call.save_as:
        with open(call.save_as, "w", encoding="utf-8") as fh:
            fh.write(out)
    call.check(code, out)


def _read(path: Optional[str]) -> Optional[str]:
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def run_child(call: CliCall, env) -> None:
    """The call as a user makes it: a fresh interpreter running the module.

    The child's own peak resident memory, which the childhook on its path
    writes to FCBENCH_PEAK_FILE at exit, goes into env.peak_rss_kb.
    """
    peak_file = env.cli_env["FCBENCH_PEAK_FILE"]
    with contextlib.suppress(FileNotFoundError):
        os.remove(peak_file)
    done = subprocess.run(
        [sys.executable, "-m", "freecomm.cli", *call.arguments()],
        input=_read(call.stdin),
        capture_output=True,
        text=True,
        cwd=env.root,
        env=env.cli_env,
        timeout=120,
    )
    with open(peak_file, encoding="ascii") as fh:
        env.peak_rss_kb = max(env.peak_rss_kb, int(fh.read()))
    _finish(call, done.returncode, done.stdout)


def replay_in_process(call: CliCall, run) -> None:
    """The same call through freecomm.cli.run in this process, for tracing."""
    out = io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(_read(call.stdin) or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(call.arguments())
    finally:
        sys.stdin = stdin
    _finish(call, code, out.getvalue())


def cli_operations(fc, inputs: dict, env) -> list[Op]:
    ops = []
    for call in cli_calls(inputs):
        name = " ".join(call.argv[:2]) if isinstance(call.argv, list) else "iso make"
        replay = None
        if env.cli is not None:
            replay = lambda c=call: replay_in_process(c, env.cli.run)
        ops.append(Op(name, lambda c=call: run_child(c, env), replay))
    return ops


class Workload(NamedTuple):
    make_inputs: Callable
    operations: Callable
    # Operations that call the library run in a forked child each, so that
    # every one starts from the same heap; the cli workload's calls are
    # fresh processes already, and it keeps to one child process at a time.
    fork_operations: bool


WORKLOADS = {
    "kernels": Workload(kernels_inputs, kernels_operations, True),
    "iso-chain": Workload(iso_chain_inputs, iso_chain_operations, True),
    "lattice": Workload(lattice_inputs, lattice_operations, True),
    "cli": Workload(cli_inputs, cli_operations, False),
}
