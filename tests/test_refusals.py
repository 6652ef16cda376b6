"""Typed refusals: each guard raises its own error type with its own message."""

import pytest

from freecomm import (
    DocumentError,
    IndexCapError,
    InvalidIsoError,
    RankMismatchError,
    WordError,
    bs_element,
    bs_image_index,
    bs_mul,
    bs_report,
    embed_aut,
    extendAB_certificate,
    from_generators,
    generator,
    identity_iso,
    intersect,
    iso_from_document,
    iso_to_document,
    kernel_mod_p,
    parse_word,
    restrict,
    transfer_to_overgroup,
    whole_group,
)
from freecomm.stallings import graph_from_document, vertex_cap


def _kernel():
    return kernel_mod_p(2, (1, 0), 3)


def _generators():
    return from_generators(2, [parse_word("a")]), from_generators(2, [parse_word("b")])


def _iso_document_with_images(images):
    doc = iso_to_document(identity_iso(_kernel()))
    doc["images"] = images
    return doc


# (what is refused, call, cap setting or None, error type, message)
REFUSALS = [
    (
        "mixed ambient ranks",
        lambda: intersect(whole_group(2), whole_group(3)),
        None,
        RankMismatchError,
        r"^mixed ambient ranks 2 and 3$",
    ),
    (
        "a weight count that is not the rank",
        lambda: kernel_mod_p(2, (1,), 3),
        None,
        RankMismatchError,
        r"^expected 2 weights, got 1$",
    ),
    (
        "a graph document with two outgoing edges under one label",
        lambda: graph_from_document({"rank": 2, "basepoint": 0, "edges": [[0, 1, 1], [0, 2, 1]]}),
        None,
        DocumentError,
        r"^not folded: vertex 0 has two outgoing edges labeled 1$",
    ),
    (
        "a cap that is not an integer",
        vertex_cap,
        "ten",
        IndexCapError,
        r"^FREECOMM_INDEX_CAP must be an integer, got 'ten'$",
    ),
    ("a cap of zero", vertex_cap, "0", IndexCapError, r"^FREECOMM_INDEX_CAP must be positive, got 0$"),
    (
        "a negative cap",
        vertex_cap,
        "-5",
        IndexCapError,
        r"^FREECOMM_INDEX_CAP must be positive, got -5$",
    ),
    (
        "an automorphism with no images",
        lambda: embed_aut([]),
        None,
        InvalidIsoError,
        r"^an automorphism needs at least one generator image$",
    ),
    (
        "a certificate over subgroups of another rank",
        lambda: extendAB_certificate(identity_iso(_kernel()), whole_group(3), _generators()[1]),
        None,
        RankMismatchError,
        r"^ambient ranks of the subgroups do not match the map$",
    ),
    (
        "a certificate for a map that is not a self-map",
        lambda: extendAB_certificate(
            restrict(embed_aut([parse_word("b"), parse_word("a")]), _kernel()), *_generators()
        ),
        None,
        InvalidIsoError,
        r"^certificate applies to self-maps only$",
    ),
    (
        "a transfer over a basis of another size",
        lambda: transfer_to_overgroup(identity_iso(whole_group(2)), _kernel()),
        None,
        RankMismatchError,
        r"^the map is over rank 2 but H has basis size 4$",
    ),
    (
        "iso document images that are not strings",
        lambda: iso_from_document(_iso_document_with_images([1, 2, 3, 4])),
        None,
        DocumentError,
        r"^images must be a list of word strings$",
    ),
    (
        "a product of BS elements with mixed k",
        lambda: bs_mul(bs_element(1, 0, 0, 2), bs_element(1, 0, 0, 3)),
        None,
        ValueError,
        r"^mixed parameters k=2 and k=3$",
    ),
    (
        "a BS image index with |k| < 2",
        lambda: bs_image_index(-1, 3),
        None,
        ValueError,
        r"^\|k\| must be at least 2, got -1$",
    ),
    (
        "a BS image index with p < 2",
        lambda: bs_image_index(2, 1),
        None,
        ValueError,
        r"^p must be at least 2, got 1$",
    ),
    (
        "a BS report with |k| < 2",
        lambda: bs_report(1, 3),
        None,
        ValueError,
        r"^\|k\| must be at least 2, got 1$",
    ),
    ("generator 0", lambda: generator(0), None, WordError, r"^generator index must be >= 1, got 0$"),
]


@pytest.mark.parametrize("what, call, cap, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_typed_refusal(monkeypatch, what, call, cap, error, message):
    if cap is not None:
        monkeypatch.setenv("FREECOMM_INDEX_CAP", cap)
    with pytest.raises(error, match=message) as caught:
        call()
    assert type(caught.value) is error
