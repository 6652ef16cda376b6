"""Tests of the benchmark's own checks: each wrong answer must be caught.

    python3 -m pytest fcbench/test_checks.py -q

These need no freecomm import and run no workload.
"""

import gc
import json

import pytest

from checks import (
    CheckFailed,
    check_equal,
    check_hnn,
    check_kernel_basis,
    check_overgroups,
    check_subindex,
    count_subgroups,
    schreier_generators,
    substitute,
    text_to_word,
    word_to_text,
)
from hostspeed import reference_loop
from workloads import chain_domain_index, cli_calls, cli_inputs, composite_images, iso_chain_inputs


def test_subgroup_counts_match_the_known_values():
    assert count_subgroups((2, 2, 2)) == 16
    assert count_subgroups((2, 2, 2, 2)) == 67
    assert count_subgroups((6, 12)) == 48


def test_one_overgroup_too_few_fails():
    # (Z/2)^2 has the trivial subgroup, three of order 2 and itself.
    indices = [4, 2, 2, 2, 1]
    check_overgroups((2, 2), indices)
    with pytest.raises(CheckFailed, match="overgroup count"):
        check_overgroups((2, 2), indices[:-1])


def test_wrong_subindex_or_overgroup_index_fails():
    check_subindex((2, 6), 3)
    with pytest.raises(CheckFailed, match="subindex"):
        check_subindex((2, 6), 2)
    with pytest.raises(CheckFailed, match="does not divide"):
        check_overgroups((2, 2), [4, 2, 2, 3, 1])


def test_two_generator_images_swapped_fails():
    links = [([(1, 2), (2,)], 2, (1, 0)), ([(2,), (1,)], 3, (0, 1))]
    expected = composite_images(links)
    assert expected == [substitute([(2,), (1,)], (1, 2)), (1,)]
    check_equal("extension of the chain", expected, list(expected))
    with pytest.raises(CheckFailed, match="extension of the chain"):
        check_equal("extension of the chain", expected, [expected[1], expected[0]])


def test_odd_hnn_set_for_even_n_fails():
    odd = [(-1, 1), (1, -1)]
    check_hnn(3, odd)
    check_hnn(4, [])
    with pytest.raises(CheckFailed, match="n=4"):
        check_hnn(4, odd)
    with pytest.raises(CheckFailed, match="n=5"):
        check_hnn(5, [])


def test_index_off_by_one_fails(tmp_path):
    inputs = cli_inputs(3, str(tmp_path))
    p = inputs["p"]
    index = cli_calls(inputs)[1]
    assert index.arguments() == ["subgroup", "index", "-"]
    index.check(0, f"{p}\n")
    with pytest.raises(CheckFailed, match="printed answer"):
        index.check(0, f"{p + 1}\n")


def test_hnn_cli_check_rejects_the_odd_set(tmp_path):
    calls = cli_calls(cli_inputs(3, str(tmp_path)))
    even = next(c for c in calls if isinstance(c.argv, list) and c.argv[:4] == ["paper", "hnn", "--n", "4"])
    doc = {"scenario": "hnn", "ok": True, "checks": [], "objects": {"solutions": []}}
    even.check(0, json.dumps(doc))
    doc["objects"]["solutions"] = [[-1, 1], [1, -1]]
    with pytest.raises(CheckFailed, match="n=4"):
        even.check(0, json.dumps(doc))


def test_kernel_basis_missing_an_element_fails():
    basis = [(2,), (1, 1, 1), (1, 2, -1), (-1, 2, 1)]  # Z/3 kernel of F_2
    check_kernel_basis(2, 3, basis)
    with pytest.raises(CheckFailed, match="basis size"):
        check_kernel_basis(2, 3, basis[:-1])
    with pytest.raises(CheckFailed, match="not divisible"):
        check_kernel_basis(2, 3, basis[:-1] + [(1, 1)])


def test_chain_domain_index_of_known_chains():
    identity = [(1,), (2,)]
    assert chain_domain_index([(identity, 2, (1, 0))]) == 2
    assert chain_domain_index([(identity, 2, (1, 0)), (identity, 3, (0, 1))]) == 6
    swap = [(2,), (1,)]
    # the second link's condition, pulled back through the swap, repeats the first
    assert chain_domain_index([(swap, 2, (1, 0)), (identity, 2, (0, 1))]) == 2


def test_batch_words_lie_in_the_mod_6_kernel():
    for chain in iso_chain_inputs(4, "")["chains"]:
        for text in chain["batch"]:
            w = text_to_word(text)
            assert sum(1 if a == 1 else -1 for a in w if abs(a) == 1) % 6 == 0
            assert sum(1 if a == 2 else -1 for a in w if abs(a) == 2) % 6 == 0


def test_schreier_generators_have_the_rank_of_the_cover():
    perms = [[1, 2, 0], [0, 2, 1]]
    gens = schreier_generators(perms)
    assert len(gens) == 1 + 3 * (2 - 1)
    assert all(word_to_text(g) for g in gens)


def test_reference_loop_allocates_no_containers():
    gc.disable()
    try:
        before = gc.get_count()[0]
        reference_loop()
        assert gc.get_count()[0] == before
    finally:
        gc.enable()
