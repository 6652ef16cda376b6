"""Malformed graph and iso documents load or raise DocumentError, and quickly.

The documents mix wrong types and booleans, negative and huge integers,
duplicate and unfolded rows, disconnected and non-core graphs, ranks up
to 10^8, iso documents whose sides have different ranks, and bad image
strings, among valid kernels and covers.
"""

import random
import time

from hypothesis import given, settings, strategies as st

from freecomm import (
    DocumentError,
    graph_to_document,
    iso_from_document,
    kernel_mod_p,
    subgroup_from_document,
    word_to_text,
)
from support import random_cover

HUGE = 10 ** 8

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.integers(min_value=-(10 ** 30), max_value=10 ** 30),
    st.sampled_from((-1, 0, HUGE, HUGE + 1, 2 ** 63)),
    st.lists(st.integers(min_value=-1, max_value=3), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
vertex = st.one_of(st.integers(min_value=0, max_value=5), st.sampled_from((-1, HUGE, 10 ** 20)), junk)
label = st.one_of(st.integers(min_value=1, max_value=3), st.sampled_from((0, -1, 4, HUGE, HUGE + 1)), junk)
row = st.one_of(st.tuples(vertex, vertex, label).map(list), junk)
small_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 3)).map(list), max_size=12
)


@st.composite
def valid_graph(draw):
    """A kernel or random cover document of rank 2 or 3, or a sparse one of rank 10^8."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    rank = draw(st.sampled_from((2, 3)))
    if draw(st.booleans()):
        p = rng.choice((2, 3, 5))
        doc = graph_to_document(kernel_mod_p(rank, [1] + [rng.randrange(p) for _ in range(rank - 1)], p).graph)
    else:
        doc = graph_to_document(random_cover(rng, rank, rng.randrange(1, 7)).graph)
    if draw(st.booleans()):
        spread = dict(zip((1, 2, 3), sorted(rng.sample(range(1, HUGE + 1), 3))))
        doc = {**doc, "rank": HUGE, "edges": [[s, t, spread[l]] for s, t, l in doc["edges"]]}
    return doc


@st.composite
def spoiled(draw, doc):
    """doc with rows dropped, duplicated, added or renamed, or a field replaced."""
    rows = [list(r) for r in doc["edges"]]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("drop", "duplicate", "add", "rename", "field")))
        triples = [r for r in rows if isinstance(r, list) and len(r) == 3]
        if kind == "drop" and rows:
            rows.pop(draw(st.integers(0, len(rows) - 1)))
        elif kind == "duplicate" and triples:
            rows.append(list(draw(st.sampled_from(triples))))
        elif kind == "add":
            rows.append(draw(row))
        elif kind == "rename" and triples:
            r = draw(st.sampled_from(triples))
            r[draw(st.integers(0, 1))] = draw(vertex)
        elif kind == "field":
            doc = {**doc, draw(st.sampled_from(("rank", "basepoint", "edges"))): draw(junk)}
    return {**doc, "edges": rows} if isinstance(doc.get("edges"), list) else doc


graph_docs = st.one_of(
    junk,
    st.fixed_dictionaries(
        {},
        optional={
            "rank": st.one_of(st.integers(1, 3), st.just(HUGE), junk),
            "basepoint": st.one_of(st.integers(0, 4), vertex),
            "edges": st.one_of(small_rows, st.lists(row, max_size=8), junk),
        },
    ),
    valid_graph(),
    valid_graph().flatmap(spoiled),
)

image_text = st.one_of(
    st.text(alphabet="abcABC1 xZ!", max_size=8),
    st.sampled_from(("aaa", "b", "abA", "Aba", "", "1", "c", "aA")),
)
iso_docs = st.one_of(
    junk,
    st.fixed_dictionaries(
        {},
        optional={
            "rank": st.one_of(st.integers(1, 3), st.just(HUGE), junk),
            "domain": graph_docs,
            "codomain": graph_docs,
            "images": st.one_of(st.lists(st.one_of(image_text, junk), max_size=6), junk),
        },
    ),
)


def loads_or_rejects(load, doc):
    start = time.perf_counter()
    try:
        load(doc)
    except DocumentError:
        pass
    assert time.perf_counter() - start < 1


def kernel_swap_document():
    k = graph_to_document(kernel_mod_p(2, (1, 0), 3).graph)
    return {"rank": 2, "domain": k, "codomain": k, "images": ["aaa", "b", "abA", "Aba"]}


@given(graph_docs)
@settings(deadline=None, max_examples=400)
def test_graph_documents_load_or_raise_document_error(doc):
    loads_or_rejects(subgroup_from_document, doc)


@given(iso_docs)
@settings(deadline=None, max_examples=300)
def test_iso_documents_load_or_raise_document_error(doc):
    loads_or_rejects(iso_from_document, doc)


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_spoiled_iso_documents_load_or_raise_document_error(data):
    doc = kernel_swap_document()
    field = data.draw(st.sampled_from(("rank", "domain", "codomain", "images")))
    if field == "images":
        value = data.draw(st.lists(image_text, max_size=6))
    elif field == "rank":
        value = data.draw(st.one_of(st.integers(1, 4), junk))
    else:
        value = data.draw(graph_docs)
    doc[field] = value
    loads_or_rejects(iso_from_document, doc)


def test_unspoiled_iso_document_loads():
    phi = iso_from_document(kernel_swap_document())
    assert [word_to_text(w) for w in phi.images] == ["aaa", "b", "abA", "Aba"]
