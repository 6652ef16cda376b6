"""Exact computation with finite-index subgroups of free groups and the
partial isomorphisms between them.

The words module handles freely reduced words; stallings builds folded
core graphs for subgroup algebra; commensurator works with isomorphisms
between finite-index subgroups up to agreement on a common subgroup;
scenarios packages complete constructions as self-checking reports; cli
exposes everything to the shell.
"""

from .errors import (
    DocumentError,
    FreecommError,
    IndexCapError,
    InfiniteIndexError,
    InvalidIsoError,
    NotInSubgroupError,
    RankMismatchError,
    WordError,
)
from .words import (
    EPSILON,
    Word,
    abelianize,
    apply_hom,
    concat,
    conjugate,
    cyclic_split,
    generator,
    imprimitivity_certificate,
    invert,
    max_generator,
    nth_root,
    parse_word,
    power,
    reduce,
    word_to_text,
)
from .stallings import (
    Basis,
    CoreGraph,
    Subgroup,
    canonical_form,
    conjugate_subgroup,
    equals,
    express_over,
    from_generators,
    graph_from_document,
    graph_to_document,
    graph_to_dot,
    intersect,
    is_normal,
    join,
    kernel_mod_p,
    overgroups,
    rewrite_over_basis,
    subgroup_from_document,
    subindex,
    vertex_cap,
    whole_group,
    witness_expresser,
)
from .commensurator import (
    NoExtension,
    PartialIso,
    apply,
    compose,
    compose_many,
    compute_extension,
    embed_aut,
    equivalent,
    equivalent_bruteforce,
    extendAB_certificate,
    extend_pair,
    identity_iso,
    invert_iso,
    is_identity_class,
    iso_from_document,
    iso_to_document,
    make_iso,
    restrict,
    subindex_of_iso,
    transfer_to_overgroup,
    transfer_to_subgroup,
)
from .scenarios import (
    BSElement,
    Check,
    ScenarioReport,
    bs_element,
    bs_image_index,
    bs_inv,
    bs_mul,
    bs_psi,
    bs_report,
    free_product_twist,
    hnn_obstruction,
    hnn_report,
    kernel_swap,
    report_to_document,
)

__version__ = "0.1.0"
