"""Command-line interface.

Graphs and isos travel as JSON documents (see the stallings and
commensurator modules for the formats); words use the letter syntax of
the words module.  A path argument of "-" reads the document from
stdin, so commands compose in shell pipelines.

Each operation is declared once, in its group's builder in `_GROUPS`:
its arguments, then its action, bound with `set_defaults(run=...)`.

Exit codes: 0 for success (and for predicates that answer true), 1 for
a false predicate, a failed scenario check or a standard output closed
before the answer was written, 2 for usage errors and malformed
documents, with one line `error: <message>` on stderr, which for a
resource limit (IndexCapError, WorkLimitError) also names the operation.
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
from .errors import FreecommError, IndexCapError, WorkLimitError
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


def _read_json(path: str):
    if path == "-" and sys.stdin is None:
        raise ValueError("-: standard input is closed")
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: not valid JSON: nested too deeply") from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc


def _load_subgroup(path: str) -> Subgroup:
    return subgroup_from_document(_read_json(path))


def _load_iso(path: str):
    return iso_from_document(_read_json(path))


def _emit(doc) -> int:
    print(json.dumps(doc, indent=2))
    return 0


def _emit_lines(lines) -> int:
    for line in lines:
        print(line)
    return 0


def _emit_graph(h: Subgroup) -> int:
    return _emit(graph_to_document(h.graph))


def _emit_iso(phi) -> int:
    return _emit(iso_to_document(phi))


def _emit_report(report) -> int:
    _emit(report_to_document(report))
    return 0 if report.ok else 1


def _emit_bool(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _check_rank(rank: int) -> int:
    if not 1 <= rank <= 26:
        raise ValueError(f"rank must be between 1 and 26 for text I/O, got {rank}")
    return rank


def _parse_words(texts: Sequence[str], rank: int):
    return [parse_word(t, rank=rank) for t in texts]


def _parse_weights(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--weights expects comma-separated integers, got {text!r}") from exc


# ---------------------------------------------------------------------------
# operations: each group's actions of more than one step, then its builder


def _index(args) -> int:
    idx = _load_subgroup(args.graph).index()
    return _emit_lines(["infinite" if idx is math.inf else idx])


def _subgroup_ops(sub_ops) -> None:
    p = sub_ops.add_parser("gens", help="fold generators into a subgroup")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("words", nargs="*", help="generator words (letter syntax)")
    p.set_defaults(run=lambda a: _emit_graph(
        from_generators(a.rank, _parse_words(a.words, _check_rank(a.rank)))))
    p = sub_ops.add_parser("kernel", help="kernel of a mod-p weight map")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--weights", required=True, help="comma-separated integers")
    p.add_argument("--p", type=int, required=True)
    p.set_defaults(run=lambda a: _emit_graph(
        kernel_mod_p(_check_rank(a.rank), _parse_weights(a.weights), a.p)))
    for name, help_text, action in (
        ("index", "index in the ambient group", _index),
        ("basis", "canonical basis, one word per line",
         lambda a: _emit_lines(map(word_to_text, _load_subgroup(a.graph).basis.elements))),
        ("normal", "normality in the ambient group",
         lambda a: _emit_bool(is_normal(_load_subgroup(a.graph)))),
        ("subindex", "minimal chain bound to the ambient group",
         lambda a: _emit_lines([subindex(_load_subgroup(a.graph))])),
    ):
        p = sub_ops.add_parser(name, help=help_text)
        p.add_argument("graph", nargs="?", default="-", help="graph document ('-' = stdin)")
        p.set_defaults(run=action)
    for name, action in (
        ("intersect",
         lambda a: _emit_graph(intersect(_load_subgroup(a.left), _load_subgroup(a.right)))),
        ("join", lambda a: _emit_graph(join(_load_subgroup(a.left), _load_subgroup(a.right)))),
        ("equals", lambda a: _emit_bool(_load_subgroup(a.left) == _load_subgroup(a.right))),
    ):
        p = sub_ops.add_parser(name)
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(run=action)


def _make(args) -> int:
    domain = _load_subgroup(args.domain)
    codomain = _load_subgroup(args.codomain)
    images = _parse_words(args.images.split(","), domain.rank)
    return _emit_iso(make_iso(domain, codomain, images))


def _apply(args) -> int:
    phi = _load_iso(args.iso)
    return _emit_lines([word_to_text(apply(phi, parse_word(args.word, rank=phi.rank)))])


def _equiv(args) -> int:
    a, b = _load_iso(args.left), _load_iso(args.right)
    if args.bruteforce is not None:
        return _emit_bool(equivalent_bruteforce(a, b, args.bruteforce))
    return _emit_bool(equivalent(a, b))


def _extend_ambient(args) -> int:
    result = compute_extension(_load_iso(args.iso))
    if isinstance(result, NoExtension):
        word = word_to_text(result.word) if result.word is not None else None
        _emit({"extends": False, "reason": result.reason, "generator": result.generator,
               "exponent": result.exponent, "word": word})
        return 1
    return _emit({"extends": True, "images": [word_to_text(w) for w in result]})


def _transfer(args) -> int:
    phi = _load_iso(args.iso)
    if (args.down is None) == (args.up is None):
        raise ValueError("transfer needs exactly one of --down or --up")
    if args.down is not None:
        return _emit_iso(transfer_to_subgroup(phi, _load_subgroup(args.down)))
    return _emit_iso(transfer_to_overgroup(phi, _load_subgroup(args.up)))


def _iso_ops(iso_ops) -> None:
    p = iso_ops.add_parser("make", help="build and validate an iso")
    p.add_argument("--domain", required=True)
    p.add_argument("--codomain", required=True)
    p.add_argument("--images", required=True, help="comma-separated words, basis order")
    p.set_defaults(run=_make)
    p = iso_ops.add_parser("apply")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("word")
    p.set_defaults(run=_apply)
    for name, action in (
        ("compose", lambda a: _emit_iso(compose(_load_iso(a.left), _load_iso(a.right)))),
        ("extend-pair", lambda a: _emit_iso(extend_pair(_load_iso(a.left), _load_iso(a.right)))),
    ):
        p = iso_ops.add_parser(name)
        p.add_argument("left")
        p.add_argument("right")
        p.set_defaults(run=action)
    p = iso_ops.add_parser("invert")
    p.add_argument("iso", nargs="?", default="-")
    p.set_defaults(run=lambda a: _emit_iso(invert_iso(_load_iso(a.iso))))
    p = iso_ops.add_parser("equiv")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--bruteforce", type=int, default=None, metavar="MAX_INDEX")
    p.set_defaults(run=_equiv)
    p = iso_ops.add_parser("restrict")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("--to", required=True, help="graph document for the smaller domain")
    p.set_defaults(run=lambda a: _emit_iso(restrict(_load_iso(a.iso), _load_subgroup(a.to))))
    p = iso_ops.add_parser("extend-ambient")
    p.add_argument("iso", nargs="?", default="-")
    p.set_defaults(run=_extend_ambient)
    p = iso_ops.add_parser("transfer")
    p.add_argument("iso", nargs="?", default="-")
    p.add_argument("--down", help="graph document: view the iso over this subgroup")
    p.add_argument("--up", help="graph document: lift the iso along this subgroup")
    p.set_defaults(run=_transfer)


def _twist(args) -> int:
    rank = _check_rank(args.rank)
    b = parse_word(args.b, rank=rank) if args.b is not None else None
    return _emit_report(free_product_twist(rank, args.prime, b))


def _paper_ops(paper_ops) -> None:
    p = paper_ops.add_parser("kernel-swap")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(run=lambda a: _emit_report(kernel_swap(_check_rank(a.rank), a.prime)))
    p = paper_ops.add_parser("twist")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--b", default=None, help="twisting element (default: second generator)")
    p.set_defaults(run=_twist)
    p = paper_ops.add_parser("bs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(run=lambda a: _emit_report(bs_report(a.k, a.p, a.samples, a.seed)))
    p = paper_ops.add_parser("hnn")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(run=lambda a: _emit_report(hnn_report(a.n, a.bound)))


def _export_dot(args) -> int:
    graph = graph_from_document(_read_json(args.graph))
    if args.format == "dot":
        sys.stdout.write(graph_to_dot(graph))
        return 0
    return _emit(graph_to_document(graph))


def _export_ops(exp_ops) -> None:
    p = exp_ops.add_parser("dot")
    p.add_argument("graph", nargs="?", default="-")
    p.add_argument("--format", choices=("dot", "text"), default="dot")
    p.set_defaults(run=_export_dot)


# group -> (help text, the function adding its operations)
_GROUPS = {
    "subgroup": ("core graph operations", _subgroup_ops),
    "iso": ("partial isomorphism operations", _iso_ops),
    "paper": ("scenario reports", _paper_ops),
    "export": ("render a graph document", _export_ops),
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
    for name, (help_text, add_ops) in _GROUPS.items():
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
        return args.run(args)
    except (FreecommError, ValueError) as exc:
        if isinstance(exc, (IndexCapError, WorkLimitError)):  # the library names only its step
            exc = f"{args.command} {args.op}: {exc}"
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
