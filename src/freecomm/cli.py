"""Command-line interface.

Graphs and isos travel as JSON documents (see the stallings and
commensurator modules for the formats); words use the letter syntax of
the words module.  A path argument of "-" reads the document from
stdin, so commands compose in shell pipelines.

Exit codes: 0 for success (and for predicates that answer true), 1 for
a false predicate, a failed scenario check or a standard output closed
before the answer was written, 2 for usage errors and malformed
documents.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

from .commensurator import (
    NoExtension,
    apply,
    compose,
    compute_extension,
    equivalent,
    equivalent_bruteforce,
    extend_pair,
    invert_iso,
    iso_from_document,
    iso_to_document,
    make_iso,
    restrict,
    transfer_to_overgroup,
    transfer_to_subgroup,
)
from .errors import FreecommError
from .scenarios import (
    bs_report,
    free_product_twist,
    hnn_report,
    kernel_swap,
    report_to_document,
)
from .stallings import (
    Subgroup,
    from_generators,
    graph_from_document,
    graph_to_document,
    graph_to_dot,
    intersect,
    is_normal,
    join,
    kernel_mod_p,
    subgroup_from_document,
    subindex,
)
from .words import parse_word, word_to_text

__all__ = ["main", "run"]


class _CliError(Exception):
    """User-facing failure mapped to exit code 2."""


def _read_json(path: str):
    if path == "-" and sys.stdin is None:
        raise _CliError("-: standard input is closed")
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise _CliError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise _CliError(f"{path}: not valid JSON: nested too deeply") from exc
    except OSError as exc:
        raise _CliError(f"{path}: {exc.strerror or exc}") from exc


def _load_subgroup(path: str) -> Subgroup:
    return subgroup_from_document(_read_json(path))


def _load_iso(path: str):
    return iso_from_document(_read_json(path))


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2))


def _emit_bool(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _check_rank(rank: int) -> int:
    if not 1 <= rank <= 26:
        raise _CliError(f"rank must be between 1 and 26 for text I/O, got {rank}")
    return rank


def _parse_words(texts: Sequence[str], rank: int):
    return [parse_word(t, rank=rank) for t in texts]


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise _CliError(f"--weights expects comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_subgroup(args) -> int:
    op = args.op
    if op == "gens":
        rank = _check_rank(args.rank)
        h = from_generators(rank, _parse_words(args.words, rank))
        _emit(graph_to_document(h.graph))
        return 0
    if op == "kernel":
        rank = _check_rank(args.rank)
        weights = _parse_weights(args.weights)
        h = kernel_mod_p(rank, weights, args.p)
        _emit(graph_to_document(h.graph))
        return 0
    if op == "index":
        idx = _load_subgroup(args.graph).index()
        print("infinite" if idx is math.inf else idx)
        return 0
    if op == "basis":
        for w in _load_subgroup(args.graph).basis.elements:
            print(word_to_text(w))
        return 0
    if op == "normal":
        return _emit_bool(is_normal(_load_subgroup(args.graph)))
    if op == "subindex":
        print(subindex(_load_subgroup(args.graph)))
        return 0
    if op == "intersect":
        h = intersect(_load_subgroup(args.left), _load_subgroup(args.right))
        _emit(graph_to_document(h.graph))
        return 0
    if op == "join":
        h = join(_load_subgroup(args.left), _load_subgroup(args.right))
        _emit(graph_to_document(h.graph))
        return 0
    # equals, the last operation the parser admits
    return _emit_bool(_load_subgroup(args.left) == _load_subgroup(args.right))


def _cmd_iso(args) -> int:
    op = args.op
    if op == "make":
        domain = _load_subgroup(args.domain)
        codomain = _load_subgroup(args.codomain)
        images = _parse_words(args.images.split(","), domain.rank)
        _emit(iso_to_document(make_iso(domain, codomain, images)))
        return 0
    if op == "apply":
        phi = _load_iso(args.iso)
        print(word_to_text(apply(phi, parse_word(args.word, rank=phi.rank))))
        return 0
    if op == "compose":
        _emit(iso_to_document(compose(_load_iso(args.left), _load_iso(args.right))))
        return 0
    if op == "invert":
        _emit(iso_to_document(invert_iso(_load_iso(args.iso))))
        return 0
    if op == "equiv":
        a, b = _load_iso(args.left), _load_iso(args.right)
        if args.bruteforce is not None:
            return _emit_bool(equivalent_bruteforce(a, b, args.bruteforce))
        return _emit_bool(equivalent(a, b))
    if op == "restrict":
        phi = _load_iso(args.iso)
        _emit(iso_to_document(restrict(phi, _load_subgroup(args.to))))
        return 0
    if op == "extend-pair":
        _emit(iso_to_document(extend_pair(_load_iso(args.left), _load_iso(args.right))))
        return 0
    if op == "extend-ambient":
        result = compute_extension(_load_iso(args.iso))
        if isinstance(result, NoExtension):
            _emit(
                {
                    "extends": False,
                    "reason": result.reason,
                    "generator": result.generator,
                    "exponent": result.exponent,
                    "word": word_to_text(result.word) if result.word is not None else None,
                }
            )
            return 1
        _emit({"extends": True, "images": [word_to_text(w) for w in result]})
        return 0
    # transfer, the last operation the parser admits
    phi = _load_iso(args.iso)
    if (args.down is None) == (args.up is None):
        raise _CliError("transfer needs exactly one of --down or --up")
    if args.down is not None:
        _emit(iso_to_document(transfer_to_subgroup(phi, _load_subgroup(args.down))))
    else:
        _emit(iso_to_document(transfer_to_overgroup(phi, _load_subgroup(args.up))))
    return 0


def _cmd_paper(args) -> int:
    op = args.op
    if op == "kernel-swap":
        report = kernel_swap(_check_rank(args.rank), args.prime)
    elif op == "twist":
        rank = _check_rank(args.rank)
        b = parse_word(args.b, rank=rank) if args.b is not None else None
        report = free_product_twist(rank, args.prime, b)
    elif op == "bs":
        report = bs_report(args.k, args.p, args.samples, args.seed)
    else:  # hnn, the last scenario the parser admits
        report = hnn_report(args.n, args.bound)
    _emit(report_to_document(report))
    return 0 if report.ok else 1


def _cmd_export(args) -> int:
    graph = graph_from_document(_read_json(args.graph))
    if args.format == "dot":
        sys.stdout.write(graph_to_dot(graph))
    else:
        _emit(graph_to_document(graph))
    return 0


# ---------------------------------------------------------------------------
# parser


def _subgroup_ops(sub_ops) -> None:
    p = sub_ops.add_parser("gens", help="fold generators into a subgroup")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("words", nargs="*", help="generator words (letter syntax)")
    p = sub_ops.add_parser("kernel", help="kernel of a mod-p weight map")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--p", type=int, required=True)
    for name, help_text in (
        ("index", "index in the ambient group"),
        ("basis", "canonical basis, one word per line"),
        ("normal", "normality in the ambient group"),
        ("subindex", "minimal chain bound to the ambient group"),
    ):
        p = sub_ops.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?", default="-", help="graph document ('-' = stdin)")
    for name in ("intersect", "join", "equals"):
        p = sub_ops.add_parser(name)
        p.add_argument("left")
        p.add_argument("right")


def _iso_ops(iso_ops) -> None:
    p = iso_ops.add_parser("make", help="build and validate an iso")
    p.add_argument("--domain", required=True)
    p.add_argument("--codomain", required=True)
    p.add_argument("--images", required=True, help="comma-separated words, basis order")
    p = iso_ops.add_parser("apply")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("word")
    for name in ("compose", "extend-pair"):
        p = iso_ops.add_parser(name)
        p.add_argument("left")
        p.add_argument("right")
    p = iso_ops.add_parser("invert")
    p.add_argument("iso", nargs="?", default="-")
    p = iso_ops.add_parser("equiv")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bruteforce", type=int, default=None, metavar="MAX_INDEX")
    p = iso_ops.add_parser("restrict")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("--to", required=True, help="graph document for the smaller domain")
    p = iso_ops.add_parser("extend-ambient")
    p.add_argument("iso", nargs="?", default="-")
    p = iso_ops.add_parser("transfer")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("--down", help="graph document: view the iso over this subgroup")
    p.add_argument("--up", help="graph document: lift the iso along this subgroup")


def _paper_ops(paper_ops) -> None:
    p = paper_ops.add_parser("kernel-swap")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p = paper_ops.add_parser("twist")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--b", default=None, help="twisting element (default: second generator)")
    p = paper_ops.add_parser("bs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p = paper_ops.add_parser("hnn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)


def _export_ops(exp_ops) -> None:
    p = exp_ops.add_parser("dot")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--format", choices=("dot", "text"), default="dot")


# group -> (help text, the function adding its operations, handler)
_GROUPS = {
    "subgroup": ("core graph operations", _subgroup_ops, _cmd_subgroup),
    "iso": ("partial isomorphism operations", _iso_ops, _cmd_iso),
    "paper": ("scenario reports", _paper_ops, _cmd_paper),
    "export": ("render a graph document", _export_ops, _cmd_export),
}


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """Every group, but only the operations of the group argv names: the
    first argument without a leading dash, as the program's only option is -h."""
    parser = argparse.ArgumentParser(
        prog="freecomm",
        description="Exact computation with subgroups of free groups and "
        "partial isomorphisms between them.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for name, (help_text, add_ops, _) in _GROUPS.items():
        group = top.add_parser(name, help=help_text)
        if name == named:
            add_ops(group.add_subparsers(dest="op", required=True))
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and execute one invocation; returns the exit status."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _GROUPS[args.command][2](args)
    except (_CliError, FreecommError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    closed = sys.stdout is None  # started with standard output closed
    if closed:
        sys.stdout = open(os.devnull, "w")
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early.  Point stdout at devnull so that the flush
        # at exit cannot fail again (the "Note on SIGPIPE" in the Python
        # signal documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(max(code, 1) if closed else code)


if __name__ == "__main__":
    main()
