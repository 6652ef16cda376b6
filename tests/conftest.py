"""Test-wide fixtures."""

import sys

import pytest

from freecomm import EPSILON, Word, commensurator, stallings
from freecomm.errors import FreecommError
from support import apply_by_expression


@pytest.fixture(autouse=True, scope="session")
def validate_internal_isos():
    """Check every isomorphism the library builds inside against make_iso.

    _iso trusts its callers (the images generate the codomain, both sides
    have finite index); here each result is rebuilt through the full
    validator, so a constructor that broke that trust fails the test that
    reached it.  A rejection by make_iso becomes an AssertionError rather
    than the error the library would raise, so the wrapper only checks
    and never changes what a test sees.

    A map built without a codomain folds it when it is first read, and a
    map that holds an automorphism A builds its images when they are
    first read.  The check builds its own copies, with the fold it took
    when the session began, on its own copy of the domain, so the caches
    of the map and of its domain stay empty and a spy set later on
    from_generators sees no codomain fold for the check.  It runs under
    the default vertex cap, or the test's when that is larger, so that a
    low cap a test sets for the library does not refuse the check's own
    folds.  When that fold, its rank check or the images raise, the map
    is left unchecked: the same error is the one the first read raises.
    For a map that holds A, compute_extension of the rebuilt map, which
    holds nothing, must find A by its roots and basis comparison.
    """
    built = commensurator._iso
    fold = stallings.from_generators
    extension = commensurator.compute_extension

    def checked(domain, images, codomain=None, aut=None):
        phi = built(domain, images, codomain, aut)
        try:
            cap = max(stallings.vertex_cap(), stallings.DEFAULT_VERTEX_CAP)
        except FreecommError:
            return phi
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv(stallings.VERTEX_CAP_ENV, str(cap))
            _check_iso(phi, stallings.Subgroup(domain.graph), images, codomain, aut)
        return phi

    def _check_iso(phi, domain, images, codomain, aut):
        try:
            if images is None:
                images = tuple(domain._hom_on_basis(aut))
            if codomain is None:
                codomain = fold(domain.rank, images)
                commensurator._require_equal_rank(len(images), codomain)
        except FreecommError:
            return
        try:
            rebuilt = commensurator.make_iso(domain, codomain, images)
        except FreecommError as exc:
            raise AssertionError(f"_iso accepted what make_iso rejects: {exc}") from exc
        assert (rebuilt.domain, rebuilt.images) == (phi.domain, vars(phi).get("images", images)), (
            "_iso and make_iso built different maps"
        )
        if aut is not None:
            found, error = _outcome(extension, rebuilt)
            assert isinstance(error, FreecommError) or found == aut, (
                "the held automorphism is not the one compute_extension finds"
            )

    commensurator._iso = checked
    yield
    commensurator._iso = built


def _root_and_potential(fg, x):
    """Root of x and the letters of its potential, read without compressing."""
    letters = []
    while fg.parent[x] != x:
        if fg.witness:
            letters.extend(fg.pot[x])
        x = fg.parent[x]
    return x, letters


def _check_fold_table(fg):
    roots = [r for r in range(len(fg.parent)) if fg.parent[r] == r]
    assert fg.live == len(roots), f"live is {fg.live} with {len(roots)} roots"
    for r, halves in enumerate(fg.adj):
        assert not halves or fg.parent[r] == r, f"vertex {r} is no root but keeps halves"
        for a, (t, w) in halves.items():
            assert fg.parent[t] == t, f"half ({r}, {a}) names {t}, which is no root"
            tr, pt = _root_and_potential(fg, t)
            mirror = fg.adj[tr].get(-a)
            assert mirror is not None, f"half ({r}, {a}) has no mirror at {tr}"
            s, w2 = mirror
            sr, ps = _root_and_potential(fg, s)
            assert sr == r, f"the mirror of half ({r}, {a}) leads to {sr}"
            if fg.witness:
                loop = Word(list(w) + pt + list(w2) + ps)
                assert loop == EPSILON, f"the witnesses of half ({r}, {a}) do not cancel"


@pytest.fixture(autouse=True, scope="session")
def check_fold_tables():
    """Check the folder's table whenever a fold is finished or handed to the walk.

    Every half adj[r][a] = (t, w) names a root t and has its mirror at t
    under -a, leading back to a vertex whose root is r; in witness mode
    the two witnesses, joined by the potentials of their targets, reduce
    to the empty word; and live counts the roots.  Potentials are read without
    path compression, so the check changes no state of the fold.
    """
    build = stallings._build_bouquet
    hand_off = stallings._FoldGraph.root_table

    def checked_build(rank, gens, witness):
        fg = build(rank, gens, witness)
        _check_fold_table(fg)
        return fg

    def checked_hand_off(fg):
        _check_fold_table(fg)
        return hand_off(fg)

    stallings._build_bouquet = checked_build
    stallings._FoldGraph.root_table = checked_hand_off
    yield
    stallings._build_bouquet = build
    stallings._FoldGraph.root_table = hand_off


@pytest.fixture(autouse=True, scope="session")
def check_walk_tables():
    """Check the table of every graph built from a walk against its edges.

    _graph takes the rows of a walk as the canonical table, which they are
    only when each step listed its letters in scan order.  Every row must
    equal, item by item and in order, the row _adjacency(0, edges) builds
    from the graph's edges, so a step out of scan order fails the test
    that reached it.
    """
    build = stallings._graph

    def checked(rank, rows):
        g = build(rank, rows)
        table = stallings._adjacency(0, g.edges)
        assert list(g.edges) == sorted(g.edges), "the edges are not sorted"
        assert g.num_vertices == len(table), f"{g.num_vertices} rows for {len(table)} vertices"
        for v, row in enumerate(g.adj):
            assert list(row.items()) == list(table[v].items()), f"row {v} is out of scan order"
        return g

    stallings._graph = checked
    yield
    stallings._graph = build


def _outcome(fn, *args):
    """(result, None) when fn returns, (None, the exception) when it raises."""
    try:
        return fn(*args), None
    except Exception as exc:
        return None, exc


@pytest.fixture(autouse=True, scope="session")
def check_iso_apply():
    """Check every apply against the two-table reference.

    apply maps the basis expression the domain's table reads, or, for a
    map that holds an automorphism A, the word itself by A; the reference
    rewrites the word over the basis by its own two tables to check it,
    and reduces the images that expression names, or A's images over the
    word's letters, as one Word.
    Each call must return the same Word, or raise an exception of the same
    type with the same message.  apply is replaced in every module that
    holds it, the tests' own included, so the CLI's calls and the tests'
    are checked as well as the library's.
    """
    walk = commensurator.apply

    def checked(phi, w):
        got, error = _outcome(walk, phi, w)
        expected, expected_error = _outcome(apply_by_expression, phi, w)
        if expected_error is None:
            assert error is None, f"apply raised {error!r} where the reference returned"
            assert type(got) is Word and got == expected, "apply and the reference differ"
            return got
        assert (type(error), str(error)) == (type(expected_error), str(expected_error)), (
            f"apply gave {error!r} where the reference raised {expected_error!r}"
        )
        raise error

    holders = [
        (module, name)
        for module in list(sys.modules.values())
        for name, value in list(vars(module).items())
        if value is walk
    ]
    for module, name in holders:
        setattr(module, name, checked)
    yield
    for module, name in holders:
        setattr(module, name, walk)
