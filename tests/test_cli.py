"""Command-line front door: documents in, documents out, exit codes."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import freecomm
from freecomm import (
    WorkLimitError,
    apply_hom,
    compose,
    embed_aut,
    graph_from_document,
    graph_to_document,
    graph_to_dot,
    identity_iso,
    iso_from_document,
    iso_to_document,
    kernel_mod_p,
    parse_word,
    whole_group,
    word_to_text,
    words,
)
from freecomm import cli
from freecomm.cli import run
from support import abelian_kernel


def invoke(*argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def kernel_file(tmp_path, name, rank, weights, p):
    doc = graph_to_document(kernel_mod_p(rank, weights, p).graph)
    return write_doc(tmp_path / name, doc)


def identity_iso_file(tmp_path, name="ident.json"):
    code, out, _ = invoke(
        "iso",
        "make",
        "--domain",
        kernel_file(tmp_path, "dom.json", 2, (1, 0), 3),
        "--codomain",
        kernel_file(tmp_path, "cod.json", 2, (1, 0), 3),
        "--images",
        "b,aaa,abA,Aba",
    )
    assert code == 0
    (tmp_path / name).write_text(out)
    return str(tmp_path / name)


def swap_iso_file(tmp_path, name="swap.json"):
    code, out, _ = invoke(
        "iso",
        "make",
        "--domain",
        kernel_file(tmp_path, "dom.json", 2, (1, 0), 3),
        "--codomain",
        kernel_file(tmp_path, "cod.json", 2, (1, 0), 3),
        "--images",
        "aaa,b,abA,Aba",
    )
    assert code == 0
    (tmp_path / name).write_text(out)
    return str(tmp_path / name)


def test_gens_kernel_index_pipeline(tmp_path):
    code, out, _ = invoke("subgroup", "kernel", "--rank", "2", "--weights", "1,0", "--p", "3")
    assert code == 0
    staged = write_doc(tmp_path / "k.json", json.loads(out))
    code, out, _ = invoke("subgroup", "index", staged)
    assert code == 0
    assert out.strip() == "3"


def test_gens_and_infinite_index(tmp_path):
    code, out, _ = invoke("subgroup", "gens", "--rank", "2", "aa")
    assert code == 0
    staged = write_doc(tmp_path / "sq.json", json.loads(out))
    code, out, _ = invoke("subgroup", "index", staged)
    assert code == 0
    assert out.strip() == "infinite"


def test_basis_lists_words(tmp_path):
    staged = kernel_file(tmp_path, "k.json", 2, (1, 0), 3)
    code, out, _ = invoke("subgroup", "basis", staged)
    assert code == 0
    assert out.split() == ["b", "aaa", "abA", "Aba"]


def test_normal_exit_codes(tmp_path):
    staged = kernel_file(tmp_path, "k.json", 2, (1, 0), 3)
    code, out, _ = invoke("subgroup", "normal", staged)
    assert (code, out.strip()) == (0, "true")
    stab = write_doc(
        tmp_path / "stab.json",
        {
            "rank": 2,
            "basepoint": 0,
            "edges": [[0, 1, 1], [1, 0, 1], [2, 2, 1], [0, 2, 2], [2, 0, 2], [1, 1, 2]],
        },
    )
    code, out, _ = invoke("subgroup", "normal", stab)
    assert (code, out.strip()) == (1, "false")


def test_subindex_command(tmp_path):
    staged = kernel_file(tmp_path, "k4.json", 2, (1, 0), 4)
    code, out, _ = invoke("subgroup", "subindex", staged)
    assert code == 0
    assert out.strip() == "2"


def test_intersect_join_equals(tmp_path):
    a = kernel_file(tmp_path, "a.json", 2, (1, 0), 2)
    b = kernel_file(tmp_path, "b.json", 2, (0, 1), 2)
    code, out, _ = invoke("subgroup", "intersect", a, b)
    assert code == 0
    meet = write_doc(tmp_path / "meet.json", json.loads(out))
    code, out, _ = invoke("subgroup", "index", meet)
    assert out.strip() == "4"
    code, out, _ = invoke("subgroup", "join", a, b)
    assert code == 0
    joined = write_doc(tmp_path / "join.json", json.loads(out))
    rose = write_doc(tmp_path / "rose.json", graph_to_document(whole_group(2).graph))
    code, out, _ = invoke("subgroup", "equals", joined, rose)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = invoke("subgroup", "equals", a, b)
    assert (code, out.strip()) == (1, "false")


def test_iso_make_and_apply(tmp_path):
    swap = swap_iso_file(tmp_path)
    code, out, _ = invoke("iso", "apply", swap, "aaa")
    assert (code, out.strip()) == (0, "b")
    code, out, _ = invoke("iso", "apply", swap, "Aba")
    assert (code, out.strip()) == (0, "Aba")


def test_iso_make_rejects_bad_images(tmp_path):
    dom = kernel_file(tmp_path, "dom.json", 2, (1, 0), 3)
    code, _, err = invoke(
        "iso", "make", "--domain", dom, "--codomain", dom, "--images", "b,aaa,abA,abA"
    )
    assert code == 2
    assert "error:" in err
    code, _, err = invoke(
        "iso", "make", "--domain", dom, "--codomain", dom, "--images", "a,aaa,abA,Aba"
    )
    assert code == 2
    assert "codomain" in err


def test_iso_compose_invert_equiv(tmp_path):
    swap = swap_iso_file(tmp_path)
    ident = identity_iso_file(tmp_path)
    code, out, _ = invoke("iso", "compose", swap, swap)
    assert code == 0
    squared = write_doc(tmp_path / "sq.json", json.loads(out))
    code, out, _ = invoke("iso", "equiv", squared, ident)
    assert (code, out.strip()) == (0, "true")
    code, out, _ = invoke("iso", "equiv", swap, ident)
    assert (code, out.strip()) == (1, "false")
    code, out, _ = invoke("iso", "equiv", "--bruteforce", "36", swap, ident)
    assert (code, out.strip()) == (1, "false")
    code, out, err = invoke("iso", "equiv", swap, swap, "--bruteforce", "-1")
    assert (code, out) == (2, "")
    assert "max_index must be positive, got -1" in err
    code, out, _ = invoke("iso", "invert", swap)
    assert code == 0
    inverted = write_doc(tmp_path / "inv.json", json.loads(out))
    code, out, _ = invoke("iso", "equiv", inverted, swap)
    assert (code, out.strip()) == (0, "true")


def sigma_power_images(n):
    """The images of a and b under σ^n, where σ is the automorphism a → ab, b → a."""
    images = [parse_word("a"), parse_word("b")]
    for _ in range(n):
        images = [apply_hom(images, parse_word("ab")), apply_hom(images, parse_word("a"))]
    return images


def sigma_power_file(tmp_path, n):
    doc = iso_to_document(embed_aut(sigma_power_images(n)))
    return write_doc(tmp_path / f"sigma{n}.json", doc)


def test_iso_compose_of_automorphisms_folds_no_images(tmp_path):
    # σ^12 after σ^12 is σ^24, whose images total 196,418 letters: folding
    # them would take 121,393 vertices, past the default cap, but the
    # codomain is known to be the rose.  A subprocess keeps the suite's
    # make_iso re-check, which folds them, out of the way.
    sigma = sigma_power_file(tmp_path, 12)
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {k: v for k, v in os.environ.items() if k != "FREECOMM_INDEX_CAP"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "freecomm.cli", "iso", "compose", sigma, sigma]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["codomain"] == graph_to_document(whole_group(2).graph)
    assert doc["images"] == [word_to_text(w) for w in sigma_power_images(24)]
    assert sum(map(len, doc["images"])) == 196_418


def test_letter_limit_refuses_a_long_composite_at_once(tmp_path, monkeypatch):
    # σ^14 after σ^14 would write 832,040 letters for the image of a alone
    sigma = sigma_power_file(tmp_path, 14)
    phi = iso_from_document(json.loads(Path(sigma).read_text()))
    monkeypatch.setattr(words, "LETTER_LIMIT", 100_000)
    start = time.perf_counter()
    with pytest.raises(
        WorkLimitError,
        match=r"^apply_hom: \d+ letters written from 2 images exceed the letter limit \(100000\)$",
    ):
        compose(phi, phi)
    assert time.perf_counter() - start < 1
    code, out, err = invoke("iso", "compose", sigma, sigma)
    assert (code, out) == (2, "")
    assert err.startswith("error: iso compose: apply_hom: ") and "the letter limit (100000)" in err
    assert "Traceback" not in err


def test_resource_errors_name_the_operation(tmp_path, monkeypatch):
    # the library names only the step that met the cap; other errors keep their line
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "40")
    whole = write_doc(tmp_path / "f2.json", graph_to_document(whole_group(2).graph))
    images = ",".join(word_to_text(w) for w in sigma_power_images(8))
    assert invoke("iso", "make", "--domain", whole, "--codomain", whole, "--images", images) == (
        2,
        "",
        "error: iso make: from_generators: the folded graph would exceed the vertex cap (40) "
        "with 55 live vertices (55 allocated); raise FREECOMM_INDEX_CAP to allow larger graphs\n",
    )
    assert invoke("subgroup", "kernel", "--rank", "2", "--weights", "1,0", "--p", "41") == (
        2,
        "",
        "error: subgroup kernel: kernel_mod_p: modulus 41 exceeds the vertex cap (40); "
        "raise FREECOMM_INDEX_CAP to allow larger graphs\n",
    )
    assert invoke("paper", "kernel-swap", "--rank", "2", "--prime", "4") == (
        2,
        "",
        "error: expected a prime, got 4\n",
    )


def test_a_codomain_past_the_cap_is_refused_when_the_document_is_written(tmp_path, monkeypatch):
    # σ⁵ on the index-5 kernel of a: compose and restrict build the map
    # under the cap of 20, and the fold of its images, when the document
    # reads the codomain, passes it with the line compose and restrict gave
    # when they folded at once
    k = kernel_mod_p(2, (1, 0), 5)
    ident = write_doc(tmp_path / "ident5.json", iso_to_document(identity_iso(k)))
    kernel = write_doc(tmp_path / "k5.json", graph_to_document(k.graph))
    sigma = sigma_power_file(tmp_path, 5)
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "20")
    line = (
        "from_generators: the folded graph would exceed the vertex cap (20) with 29 live "
        "vertices (29 allocated); raise FREECOMM_INDEX_CAP to allow larger graphs\n"
    )
    assert invoke("iso", "compose", ident, sigma) == (2, "", "error: iso compose: " + line)
    assert invoke("iso", "restrict", sigma, "--to", kernel) == (2, "", "error: iso restrict: " + line)


def test_a_lift_past_the_cap_is_refused_by_the_pull_back(tmp_path, monkeypatch):
    # the Z/5 kernel of the free group on the 8-element basis of the Z/7
    # kernel lifts to an index-35 subgroup of F_2
    h = write_doc(tmp_path / "h7.json", graph_to_document(kernel_mod_p(2, (1, 0), 7).graph))
    beta = identity_iso(kernel_mod_p(8, (1,) + (0,) * 7, 5))
    lift = write_doc(tmp_path / "lift.json", iso_to_document(beta))
    monkeypatch.setenv("FREECOMM_INDEX_CAP", "30")
    assert invoke("iso", "transfer", lift, "--up", h) == (
        2,
        "",
        "error: iso transfer: pull-back: the preimage of an index-5 subgroup in an index-7 "
        "domain would exceed the vertex cap (30); raise FREECOMM_INDEX_CAP to allow larger graphs\n",
    )


def test_scenario_letters_are_held_to_the_letter_limit(monkeypatch):
    # rank 26 at p = 9973 passes the cap and primality, and would write
    # 25·9973² letters, tens of GB
    start = time.perf_counter()
    assert invoke("paper", "kernel-swap", "--rank", "26", "--prime", "9973") == (
        2,
        "",
        "error: paper kernel-swap: kernel_swap: 2486518225 letters exceed the letter limit (10000000)\n",
    )
    assert time.perf_counter() - start < 1
    # at rank 2 and p = 7 the kernel's basis counts 7² = 49 letters, and
    # the twist's six conjugated images 2·6·len(b) more
    monkeypatch.setattr(words, "LETTER_LIMIT", 49)
    assert invoke("paper", "kernel-swap", "--rank", "2", "--prime", "7")[0] == 0
    assert invoke("paper", "kernel-swap", "--rank", "2", "--prime", "11") == (
        2,
        "",
        "error: paper kernel-swap: kernel_swap: 121 letters exceed the letter limit (49)\n",
    )
    assert invoke("paper", "twist", "--rank", "2", "--prime", "7") == (
        2,
        "",
        "error: paper twist: free_product_twist: 61 letters exceed the letter limit (49)\n",
    )
    monkeypatch.setattr(words, "LETTER_LIMIT", 61)
    assert invoke("paper", "twist", "--rank", "2", "--prime", "7")[0] == 0
    code, out, err = invoke("paper", "twist", "--rank", "2", "--prime", "7", "--b", "bb")
    assert (code, out) == (2, "")
    assert err == "error: paper twist: free_product_twist: 73 letters exceed the letter limit (61)\n"


def test_iso_restrict(tmp_path):
    swap = swap_iso_file(tmp_path)
    code, out, _ = invoke("subgroup", "kernel", "--rank", "2", "--weights", "1,1", "--p", "2")
    other = write_doc(tmp_path / "other.json", json.loads(out))
    code, out, _ = invoke("subgroup", "intersect", kernel_file(tmp_path, "k3.json", 2, (1, 0), 3), other)
    sub = write_doc(tmp_path / "sub.json", json.loads(out))
    code, out, _ = invoke("iso", "restrict", swap, "--to", sub)
    assert code == 0
    narrowed = write_doc(tmp_path / "narrowed.json", json.loads(out))
    code, out, _ = invoke("iso", "equiv", narrowed, swap)
    assert (code, out.strip()) == (0, "true")
    code, _, err = invoke("iso", "restrict", swap, "--to", other)
    assert code == 2


def test_iso_extend_ambient(tmp_path):
    swap = swap_iso_file(tmp_path)
    code, out, _ = invoke("iso", "extend-ambient", swap)
    verdict = json.loads(out)
    assert code == 1
    assert verdict["extends"] is False
    assert verdict["generator"] == 1
    assert verdict["exponent"] == 3
    assert verdict["word"] == "b"
    ident = identity_iso_file(tmp_path)
    code, out, _ = invoke("iso", "extend-ambient", ident)
    verdict = json.loads(out)
    assert code == 0
    assert verdict == {"extends": True, "images": ["a", "b"]}


def test_iso_extend_pair(tmp_path):
    inner_images = "Bab,b"
    rose = write_doc(tmp_path / "rose.json", graph_to_document(whole_group(2).graph))
    code, out, _ = invoke(
        "iso", "make", "--domain", rose, "--codomain", rose, "--images", inner_images
    )
    aut = write_doc(tmp_path / "aut.json", json.loads(out))
    h1 = kernel_file(tmp_path, "h1.json", 2, (1, 0), 2)
    h2 = kernel_file(tmp_path, "h2.json", 2, (1, 1), 3)
    code, out, _ = invoke("iso", "restrict", aut, "--to", h1)
    f1 = write_doc(tmp_path / "f1.json", json.loads(out))
    code, out, _ = invoke("iso", "restrict", aut, "--to", h2)
    f2 = write_doc(tmp_path / "f2.json", json.loads(out))
    code, out, _ = invoke("iso", "extend-pair", f1, f2)
    assert code == 0
    glued = write_doc(tmp_path / "glued.json", json.loads(out))
    code, out, _ = invoke("iso", "equiv", glued, aut)
    assert (code, out.strip()) == (0, "true")


def test_iso_transfer_directions(tmp_path):
    swap = swap_iso_file(tmp_path)
    h = kernel_file(tmp_path, "h.json", 2, (1, 0), 2)
    code, out, _ = invoke("iso", "transfer", swap, "--down", h)
    assert code == 0
    down = write_doc(tmp_path / "down.json", json.loads(out))
    assert json.loads((tmp_path / "down.json").read_text())["rank"] == 3
    code, out, _ = invoke("iso", "transfer", down, "--up", h)
    assert code == 0
    back = write_doc(tmp_path / "back.json", json.loads(out))
    code, out, _ = invoke("iso", "equiv", back, swap)
    assert (code, out.strip()) == (0, "true")
    code, _, err = invoke("iso", "transfer", swap)
    assert code == 2
    assert "exactly one" in err
    code, _, err = invoke("iso", "transfer", swap, "--down", h, "--up", h)
    assert code == 2


def test_iso_builders_reject_infinite_index(tmp_path):
    swap = swap_iso_file(tmp_path)
    code, out, _ = invoke("subgroup", "gens", "--rank", "2", "aaa")
    cyclic = write_doc(tmp_path / "cyclic.json", json.loads(out))
    code, _, err = invoke("iso", "restrict", swap, "--to", cyclic)
    assert code == 2
    assert "finite index" in err
    code, _, err = invoke("iso", "transfer", swap, "--down", cyclic)
    assert code == 2
    assert "transfer needs a finite-index subgroup" in err
    assert "Traceback" not in err
    code, out, _ = invoke("subgroup", "gens", "--rank", "2", "a", "baB")
    thin = write_doc(tmp_path / "thin.json", json.loads(out))
    whole = write_doc(tmp_path / "whole.json", iso_to_document(identity_iso(whole_group(2))))
    code, _, err = invoke("iso", "transfer", whole, "--up", thin)
    assert code == 2
    assert "finite index" in err


def test_paper_commands(tmp_path):
    code, out, _ = invoke("paper", "kernel-swap", "--rank", "2", "--prime", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    code, out, _ = invoke("paper", "twist", "--rank", "2", "--prime", "2")
    assert code == 0
    code, out, _ = invoke("paper", "bs", "--k", "2", "--p", "3", "--samples", "50")
    assert code == 0
    code, out, _ = invoke("paper", "hnn", "--n", "3", "--bound", "20")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["objects"]["solutions"] == [[-1, 1], [1, -1]]


def test_paper_parameter_validation():
    code, _, err = invoke("paper", "kernel-swap", "--rank", "2", "--prime", "4")
    assert code == 2
    assert "prime" in err
    code, _, err = invoke("paper", "bs", "--k", "6", "--p", "3")
    assert code == 2
    code, _, err = invoke("paper", "hnn", "--n", "2", "--bound", "10")
    assert code == 2
    code, out, err = invoke("paper", "bs", "--k", "2", "--p", "5", "--samples", "-5")
    assert (code, out) == (2, "")
    assert "samples must be positive" in err


def test_scenario_work_is_refused_at_once():
    for argv, asked in (
        (("paper", "hnn", "--n", "3", "--bound", "100000"), "120000000000 power-sum terms"),
        (("paper", "bs", "--k", "2", "--p", "5", "--samples", "100000000"), "100000000 samples"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(*argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert asked in err and "exceed the work limit (100000)" in err


def test_export_dot_and_text(tmp_path):
    staged = kernel_file(tmp_path, "k.json", 2, (1, 0), 2)
    code, out, _ = invoke("export", "dot", staged)
    assert code == 0
    assert out.startswith("digraph")
    assert "doublecircle" in out
    code, out, _ = invoke("export", "dot", staged, "--format", "text")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_malformed_documents_name_the_invariant(tmp_path):
    unfolded = write_doc(
        tmp_path / "bad.json",
        {"rank": 2, "basepoint": 0, "edges": [[0, 1, 1], [0, 2, 1], [1, 0, 2], [2, 0, 2]]},
    )
    code, _, err = invoke("subgroup", "index", unfolded)
    assert code == 2
    assert "not folded" in err
    garbage = tmp_path / "broken.json"
    garbage.write_text("{nope")
    code, _, err = invoke("subgroup", "index", str(garbage))
    assert code == 2
    code, _, err = invoke("subgroup", "index", str(tmp_path / "missing.json"))
    assert code == 2


def test_deeply_nested_documents_exit_2(tmp_path, monkeypatch):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (("subgroup", "index", str(path)), ("iso", "invert", str(path))):
        assert invoke(*argv) == (2, "", f"error: {path}: not valid JSON: nested too deeply\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    assert invoke("subgroup", "index", "-") == (2, "", "error: -: not valid JSON: nested too deeply\n")


def test_undecodable_document_names_its_path(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"rank": "\xe9"}')
    code, out, err = invoke("subgroup", "index", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON: 'utf-8' codec can't decode")


def test_boolean_document_fields_exit_2(tmp_path):
    graph = write_doc(tmp_path / "g.json", {"rank": True, "basepoint": 0, "edges": [[0, 0, True]]})
    code, out, err = invoke("subgroup", "index", graph)
    assert (code, out) == (2, "")
    assert "rank" in err
    doc = iso_to_document(identity_iso(whole_group(1)))
    iso = write_doc(tmp_path / "i.json", {**doc, "rank": True})
    code, out, err = invoke("iso", "invert", iso)
    assert (code, out) == (2, "")
    assert "rank" in err


def test_modulus_is_checked_against_the_cap_first():
    # 10**30 is past the range of the primality test, which would raise
    for huge in ("1000000000000000003", str(10**30)):
        for argv in (
            ("subgroup", "kernel", "--rank", "2", "--weights", "1,0", "--p", huge),
            ("paper", "kernel-swap", "--rank", "2", "--prime", huge),
            ("paper", "twist", "--rank", "2", "--prime", huge),
        ):
            start = time.perf_counter()
            code, out, err = invoke(*argv)
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert "vertex cap (10000)" in err


def test_kernel_accepts_a_composite_modulus(tmp_path):
    code, out, err = invoke("subgroup", "kernel", "--rank", "2", "--weights", "1,0", "--p", "4")
    assert (code, err) == (0, "")
    assert json.loads(out) == graph_to_document(kernel_mod_p(2, (1, 0), 4).graph)
    staged = write_doc(tmp_path / "k4.json", json.loads(out))
    assert invoke("subgroup", "index", staged) == (0, "4\n", "")


def test_bs_modulus_is_checked_against_the_cap():
    # bs_image_index walks all p cosets, so a prime past the cap is refused
    start = time.perf_counter()
    code, out, err = invoke("paper", "bs", "--k", "2", "--p", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert "vertex cap (10000)" in err
    code, out, _ = invoke("paper", "bs", "--k", "2", "--p", "9973", "--samples", "5")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_sparse_graph_of_huge_rank_from_stdin(monkeypatch):
    doc = {"rank": 100_000_000, "basepoint": 0, "edges": [[0, 0, 1]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    start = time.perf_counter()
    code, out, err = invoke("subgroup", "index", "-")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "infinite\n", "")


def test_one_edge_document_of_rank_10_to_the_21(tmp_path):
    # each per-rank loop runs only after a cover check, which this graph fails
    rank = 10**21
    doc = {"rank": rank, "basepoint": 0, "edges": [[0, 0, rank]]}
    staged = write_doc(tmp_path / "huge.json", doc)
    for argv, expected in (
        (("subgroup", "index", staged), (0, "infinite\n", "")),
        (("subgroup", "basis", staged), (2, "", "error: text form supports at most 26 generators\n")),
        (("subgroup", "intersect", staged, staged), (0, json.dumps(doc, indent=2) + "\n", "")),
        (("subgroup", "join", staged, staged), (0, json.dumps(doc, indent=2) + "\n", "")),
        (("export", "dot", staged), (0, graph_to_dot(graph_from_document(doc)), "")),
    ):
        start = time.perf_counter()
        assert invoke(*argv) == expected
        assert time.perf_counter() - start < 1


def test_closed_stdout_exits_quietly():
    # the document (about 0.5 MB) outgrows the pipe buffer, so the writer
    # is still writing when the reader closes its end
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    argv = ["subgroup", "kernel", "--rank", "2", "--weights", "1,0", "--p", "4999"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "freecomm.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=30) == 1
    assert err == b""


def run_in_shell(command, tmp_path):
    """Run `freecomm <command>` under sh, so the command may close a stream."""
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    line = f"{shlex.quote(sys.executable)} -m freecomm.cli {command}"
    return subprocess.run(
        ["sh", "-c", line], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=30
    )


def test_closed_stdin_is_a_document_error(tmp_path):
    proc = run_in_shell("subgroup index - <&-", tmp_path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: -: standard input is closed\n"


@pytest.mark.parametrize("command", ["subgroup basis k.json", "export dot k.json"])
def test_closed_stdout_from_the_start_exits_1_quietly(command, tmp_path):
    kernel_file(tmp_path, "k.json", 2, (1, 0), 3)
    proc = run_in_shell(f"{command} >&-", tmp_path)
    assert (proc.returncode, proc.stderr) == (1, "")


def test_graph_documents_are_held_to_the_cap(tmp_path):
    n = 20_001
    cycle = {"rank": 1, "basepoint": 0, "edges": [[v, (v + 1) % n, 1] for v in range(n)]}
    big = write_doc(tmp_path / "big.json", cycle)
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {k: v for k, v in os.environ.items() if k != "FREECOMM_INDEX_CAP"}
    env["PYTHONPATH"] = src
    argv = [sys.executable, "-m", "freecomm.cli", "subgroup", "index", big]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "graph document: 20001 vertices exceed the vertex cap (10000)" in proc.stderr
    assert "Traceback" not in proc.stderr
    env["FREECOMM_INDEX_CAP"] = str(n)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "20001\n", "")


def test_block_systems_are_held_to_the_cap(tmp_path):
    # the kernel onto (Z/2)^6 has index 64 and 2,825 block systems
    staged = write_doc(tmp_path / "z2_6.json", graph_to_document(abelian_kernel((2,) * 6).graph))
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {**os.environ, "PYTHONPATH": src, "FREECOMM_INDEX_CAP": "500"}
    argv = [sys.executable, "-m", "freecomm.cli", "subgroup", "subindex", staged]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=30)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "block systems: an index-64 subgroup has more overgroups than the vertex cap (500)" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_kernel_rejects_trivial_weights():
    code, _, err = invoke("subgroup", "kernel", "--rank", "2", "--weights", "2,4", "--p", "2")
    assert code == 2
    assert "weights" in err


@pytest.mark.parametrize("group", list(cli._GROUPS))
def test_every_operation_has_an_action(group):
    parser = cli._build_parser([group])
    (groups,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    group_parser = groups.choices[group]
    (ops,) = [a for a in group_parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert ops.choices
    for name, op_parser in ops.choices.items():
        assert callable(op_parser.get_default("run")), f"{group} {name} has no action"


def test_usage_errors():
    code, _, _ = invoke()
    assert code == 2
    code, _, _ = invoke("subgroup")
    assert code == 2
    code, _, _ = invoke("subgroup", "kernel", "--rank", "0", "--weights", "1", "--p", "2")
    assert code == 2
    code, _, _ = invoke("subgroup", "kernel", "--rank", "2", "--weights", "x,y", "--p", "2")
    assert code == 2


# argv joined by spaces -> [exit status, stdout, stderr], as argparse words
# them at 80 columns under Python 3.11: help for the program, each group and
# each operation, and the usage errors of missing and unknown arguments
PINNED_USAGE = json.loads(Path(__file__).with_name("cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("line", list(PINNED_USAGE))
def test_help_and_usage_texts_are_pinned(line, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert list(invoke(*line.split())) == PINNED_USAGE[line]


def test_cli_import_leaves_out_dataclasses_and_inspect():
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    probe = "import freecomm.cli, sys; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=30
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_stdin_documents(tmp_path, monkeypatch):
    doc = json.dumps(graph_to_document(kernel_mod_p(2, (1, 0), 3).graph))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = invoke("subgroup", "index", "-")
    assert (code, out.strip()) == (0, "3")


def test_repeated_invocations_are_byte_identical(tmp_path):
    args = ("paper", "kernel-swap", "--rank", "2", "--prime", "3")
    first = invoke(*args)
    second = invoke(*args)
    assert first == second
    staged = kernel_file(tmp_path, "k.json", 2, (1, 1), 3)
    assert invoke("subgroup", "basis", staged) == invoke("subgroup", "basis", staged)


def test_document_round_trip_by_equals(tmp_path):
    staged = kernel_file(tmp_path, "k.json", 2, (1, 2), 3)
    code, out, _ = invoke("export", "dot", staged, "--format", "text")
    assert code == 0
    again = write_doc(tmp_path / "again.json", json.loads(out))
    code, out, _ = invoke("subgroup", "equals", staged, again)
    assert (code, out.strip()) == (0, "true")


def readme_commands():
    """[command, printed lines] for each `$` line in the README's sh blocks.

    A line ending in a backslash continues on the next; the lines up to
    the next `$` line or the end of the block, less trailing blank ones,
    are what the command prints.
    """
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S):
        listed: list = []
        for line in block.splitlines():
            if line.startswith("$ "):
                listed.append([line[2:], []])
            elif listed and listed[-1][0].endswith("\\") and not listed[-1][1]:
                listed[-1][0] += "\n" + line
            elif listed:
                listed[-1][1].append(line)
        for command, printed in listed:
            while printed and not printed[-1].strip():
                printed.pop()
        commands += listed
    return commands


def test_readme_cli_examples(tmp_path):
    # freecomm is the console script; /tmp becomes the test's own directory
    src = os.path.dirname(os.path.dirname(freecomm.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    prelude = f'freecomm() {{ {shlex.quote(sys.executable)} -m freecomm.cli "$@"; }}\n'
    commands = readme_commands()
    assert len(commands) >= 12
    for command, printed in commands:
        script = prelude + command.replace("/tmp/", f"{tmp_path}/")
        result = subprocess.run(
            ["bash", "-c", script], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        if printed:
            assert result.stdout.splitlines() == printed, command
        else:
            # the README's silent commands write a file or pass every check
            assert result.returncode == 0, (command, result.stderr)
