"""Per-layer spans recorded from outside the program.

Tracer.install wraps each layer's public functions at run time, in every
freecomm module that imported them, so calls between freecomm modules are
seen as well as the benchmark's own calls.  Each call records a span: its
layer, start, end and parent span.  Spans are kept in flat arrays in
memory and written out when the run ends.  The benchmark opens one root
span around each timed operation; a layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter

# Layer name -> (module, public function names).  "Subgroup.x" names a
# method or cached property of Subgroup.
LAYERS = {
    "words": (
        "freecomm.words",
        ("concat", "invert", "power", "conjugate", "nth_root", "apply_hom", "parse_word", "word_to_text", "reduce"),
    ),
    "stallings.fold": ("freecomm.stallings", ("from_generators", "join", "witness_expresser", "express_over")),
    "stallings.intersect": ("freecomm.stallings", ("intersect",)),
    "stallings.basis": (
        "freecomm.stallings",
        ("Subgroup.basis", "Subgroup.express_in_basis", "Subgroup.coset_representatives", "rewrite_over_basis"),
    ),
    "stallings.lattice": ("freecomm.stallings", ("overgroups", "subindex")),
    "stallings.documents": (
        "freecomm.stallings",
        ("graph_from_document", "graph_to_document", "subgroup_from_document"),
    ),
    "commensurator.make_iso": ("freecomm.commensurator", ("make_iso",)),
    "commensurator": ("freecomm.commensurator", None),  # every other public function
    "scenarios": (
        "freecomm.scenarios",
        ("kernel_swap", "free_product_twist", "bs_report", "hnn_report", "report_to_document"),
    ),
    "cli": ("freecomm.cli", ("run",)),
}
ROOT = "op"


class Tracer:
    def __init__(self) -> None:
        self.names = [ROOT] + list(LAYERS)
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.letters_in = 0
        self.roots: list[tuple[int, int, float]] = []  # (span, pass number, correction factor)

    # -- recording

    def _wrap(self, layer: str, fn, count_letters=None, wrap_result=False):
        lid = self.names.index(layer)
        layers, parents, starts, ends, stack = self.layer, self.parent, self.start, self.end, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_letters is not None:
                args = count_letters(self, *args)
            i = len(layers)
            layers.append(lid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            return self._wrap(layer, result) if wrap_result else result

        return traced

    def root(self, pass_number: int, fn):
        """Run fn inside a root span for one timed operation."""
        i = len(self.layer)
        self.layer.append(0)
        self.parent.append(-1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        try:
            return fn()
        finally:
            self.end[i] = perf_counter()
            self.stack.pop()
            self.roots.append((i, pass_number, 1.0))

    def set_factor(self, factor: float) -> None:
        """Correction factor of the operation whose root span closed last."""
        i, pass_number, _ = self.roots[-1]
        self.roots[-1] = (i, pass_number, factor)

    def absorb(self, other: "Tracer") -> None:
        """Append another tracer's spans, as recorded by an operation process."""
        offset = len(self.layer)
        self.layer.extend(other.layer)
        self.parent.extend(array("i", (p + offset if p >= 0 else -1 for p in other.parent)))
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.roots.extend((span + offset, number, factor) for span, number, factor in other.roots)
        self.letters_in += other.letters_in

    # -- installation

    def install(self) -> None:
        """Wrap every layer's functions wherever freecomm modules hold them."""
        importlib.import_module("freecomm.cli")
        modules = [m for name, m in sys.modules.items() if name == "freecomm" or name.startswith("freecomm.")]
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules[module_name]
            if names is None:
                taken = {n for _, ns in LAYERS.values() if ns for n in ns}
                names = [n for n in module.__all__ if inspect.isfunction(getattr(module, n)) and n not in taken]
            for name in names:
                if name.startswith("Subgroup."):
                    self._wrap_member(layer, module.Subgroup, name.split(".", 1)[1])
                    continue
                original = getattr(module, name)
                traced = self._wrap(
                    layer, original, _LETTER_COUNTERS.get(name), wrap_result=name == "witness_expresser"
                )
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)

    def _wrap_member(self, layer: str, cls, name: str) -> None:
        member = cls.__dict__[name]
        if isinstance(member, functools.cached_property):
            wrapped = functools.cached_property(self._wrap(layer, member.func))
            wrapped.__set_name__(cls, name)
            setattr(cls, name, wrapped)
        else:
            setattr(cls, name, self._wrap(layer, member))

    # -- results

    def per_pass(self, passes: int) -> dict:
        """Per-layer calls and corrected self seconds, one list entry per pass."""
        n = len(self.layer)
        layers, parents, starts, ends = self.layer, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        root_of = array("i", bytes(4 * n))
        for i in range(n):
            p = parents[i]
            root_of[i] = i if p < 0 else root_of[p]
        where = {span: (pass_number, factor) for span, pass_number, factor in self.roots}
        calls = [[0] * passes for _ in self.names]
        self_s = [[0.0] * passes for _ in self.names]
        for i in range(n):
            pass_number, factor = where[root_of[i]]
            calls[layers[i]][pass_number] += 1
            self_s[layers[i]][pass_number] += (ends[i] - starts[i] - child[i]) * factor
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_s)),
        }

    def write(self, stem: str) -> None:
        """stem.json describes the spans; stem.bin holds them as four native arrays
        of len(layer) items each, in this order: layer id (int32), parent span
        (int32, -1 for a root), start and end (float64 seconds of perf_counter)."""
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump({"layers": self.names, "spans": len(self.layer), "roots": self.roots}, fh)
        with open(stem + ".bin", "wb") as fh:
            for column in (self.layer, self.parent, self.start, self.end):
                column.tofile(fh)


def _letters_of_gens(tracer: Tracer, rank, gens, *rest):
    gens = list(gens)
    tracer.letters_in += sum(len(g) for g in gens)
    return (rank, gens, *rest)


def _letters_of_join(tracer: Tracer, h, k):
    tracer.letters_in += len(h.graph.edges) + len(k.graph.edges)
    return (h, k)


# Letters handed to the folder: generator words, or the edges of the two
# graphs a join wedges together.  express_over reaches the folder through
# witness_expresser, which counts for it.
_LETTER_COUNTERS = {
    "from_generators": _letters_of_gens,
    "witness_expresser": _letters_of_gens,
    "join": _letters_of_join,
}
