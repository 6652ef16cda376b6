"""Scenario reports: kernel swap, free product twist, BS arithmetic, HNN scan."""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from freecomm import (
    BSElement,
    IndexCapError,
    WorkLimitError,
    bs_element,
    bs_image_index,
    bs_inv,
    bs_mul,
    bs_psi,
    bs_report,
    free_product_twist,
    hnn_obstruction,
    hnn_report,
    iso_from_document,
    kernel_swap,
    parse_word,
    report_to_document,
    subgroup_from_document,
)
from support import bs_image_index_by_frontier

PAIR_SET = [(-1, 1), (1, -1)]


def check_row(report, name):
    for check in report.checks:
        if check.name == name:
            return check
    raise AssertionError(f"no check named {name!r}")


def test_kernel_swap_small():
    report = kernel_swap(2, 3)
    assert report.ok
    assert check_row(report, "failing generator").actual == 1
    assert check_row(report, "failing root exponent").actual == 3
    assert check_row(report, "root-free image word").actual == "b"
    assert check_row(report, "power is imprimitive in the ambient group with certificate").actual == 3


def test_kernel_swap_even_prime():
    report = kernel_swap(2, 2)
    assert report.ok
    assert check_row(report, "kernel index").actual == 2


def test_kernel_swap_rank_three():
    report = kernel_swap(3, 5)
    assert report.ok
    assert check_row(report, "kernel rank").actual == 11


def test_kernel_swap_validates_parameters():
    with pytest.raises(ValueError):
        kernel_swap(1, 3)
    with pytest.raises(ValueError):
        kernel_swap(2, 4)


def test_scenarios_refuse_a_modulus_that_is_not_an_int():
    # each once raised a bare TypeError from math.isqrt or math.gcd
    runs = {
        "kernel_swap": lambda p: kernel_swap(2, p),
        "free_product_twist": lambda p: free_product_twist(2, p),
        "bs_report": lambda p: bs_report(2, p),
        "bs_image_index": lambda p: bs_image_index(2, p),
    }
    for op, run in runs.items():
        for p in (3.0, True):
            with pytest.raises(ValueError, match=rf"^{op}: modulus must be an int, got {p!r}$"):
                run(p)
    # and so are the other counts and parameters, before any arithmetic
    # (math.gcd, a tuple times a float and range() raised bare TypeErrors,
    # and bs_element built an element with k=2.0, or with denom_exp=0.5,
    # which bs_mul then refused as a negative denominator exponent)
    calls = [
        ("kernel_swap", "rank", lambda x: kernel_swap(x, 3)),
        ("free_product_twist", "rank", lambda x: free_product_twist(x, 3)),
        ("bs_image_index", "k", lambda x: bs_image_index(x, 3)),
        ("bs_report", "k", lambda x: bs_report(x, 3)),
        ("bs_report", "samples", lambda x: bs_report(2, 3, x)),
        ("bs_element", "k", lambda x: bs_element(1, 0, 0, x)),
        ("bs_element", "num", lambda x: bs_element(x, 0, 0, 2)),
        ("bs_element", "denom_exp", lambda x: bs_element(1, x, 0, 2)),
        ("bs_element", "texp", lambda x: bs_element(1, 0, x, 2)),
        ("hnn_obstruction", "n", lambda x: hnn_obstruction(x, 2)),
        ("hnn_obstruction", "bound", lambda x: hnn_obstruction(3, x)),
        ("hnn_obstruction", "n", lambda x: hnn_report(x, 2)),
    ]
    for op, name, run in calls:
        for x in (2.0, 3.0, True, "3"):
            with pytest.raises(ValueError, match=rf"^{op}: {name} must be an int, got {x!r}$"):
                run(x)
    with pytest.raises(ValueError, match=r"^bs_element: denom_exp must be an int, got 0\.5$"):
        bs_element(1, 0.5, 0, 2)


def test_kernel_swap_objects_revalidate():
    report = kernel_swap(2, 3)
    kernel = subgroup_from_document(report.objects["kernel"])
    assert kernel.index() == 3
    swap = iso_from_document(report.objects["swap"])
    assert swap.domain == kernel


def test_twist_small():
    report = free_product_twist(2, 3)
    assert report.ok
    assert check_row(report, "twisted basis elements").actual == 2
    assert check_row(
        report, "non-extendability certificate against the splitting"
    ).actual is True


def test_twist_even_prime():
    assert free_product_twist(2, 2).ok


def test_twist_rank_three():
    report = free_product_twist(3, 3)
    assert report.ok
    assert check_row(report, "twisted basis elements").actual == 4


def test_twist_custom_b():
    report = free_product_twist(2, 3, b=parse_word("bb"))
    assert report.ok
    assert report.parameters["b"] == "bb"


def test_twist_rejects_bad_b():
    with pytest.raises(ValueError):
        free_product_twist(2, 3, b=parse_word("a"))
    with pytest.raises(ValueError):
        free_product_twist(2, 3, b=parse_word(""))


def test_bs_element_normalization():
    assert bs_element(4, 2, 0, 2) == bs_element(1, 0, 0, 2)
    assert bs_element(6, 1, 2, 2) == bs_element(3, 0, 2, 2)
    assert bs_element(0, 3, 1, 5) == bs_element(0, 0, 1, 5)
    assert bs_element(1, -2, 0, 3) == bs_element(9, 0, 0, 3)
    with pytest.raises(ValueError, match=r"^\|k\| must be at least 2, got 1$"):
        bs_element(1, 0, 0, 1)


def test_bs_defining_relation():
    for k in (2, 3, 6, -2):
        a = bs_element(1, 0, 0, k)
        t = bs_element(0, 0, 1, k)
        assert bs_mul(bs_mul(t, a), bs_inv(t)) == bs_element(k, 0, 0, k)


def test_bs_psi_examples():
    assert bs_psi(bs_element(1, 0, 0, 2), 3) == bs_element(3, 0, 0, 2)
    assert bs_image_index(2, 5) == 5
    assert bs_image_index(3, 7) == 7
    with pytest.raises(ValueError):
        bs_image_index(2, 6)
    with pytest.raises(ValueError):
        bs_image_index(6, 3)


@pytest.mark.parametrize("k", [s * m for m in range(2, 8) for s in (1, -1)])
def test_bs_image_index_matches_frontier_reference(k):
    for p in range(2, 61):
        if math.gcd(p, k) == 1:
            assert bs_image_index(k, p) == bs_image_index_by_frontier(k, p)


bs_nums = st.integers(min_value=-200, max_value=200)
bs_exps = st.integers(min_value=0, max_value=5)
bs_ts = st.integers(min_value=-4, max_value=4)


@st.composite
def bs_elements(draw, k):
    return bs_element(draw(bs_nums), draw(bs_exps), draw(bs_ts), k)


@given(bs_elements(k=2), bs_elements(k=2), bs_elements(k=2))
def test_bs_group_laws(x, y, z):
    e = bs_element(0, 0, 0, 2)
    assert bs_mul(bs_mul(x, y), z) == bs_mul(x, bs_mul(y, z))
    assert bs_mul(x, bs_inv(x)) == e
    assert bs_mul(bs_inv(x), x) == e
    assert bs_mul(e, x) == x and bs_mul(x, e) == x


@given(bs_elements(k=-3), bs_elements(k=-3))
def test_bs_psi_homomorphism_negative_k(x, y):
    assert bs_psi(bs_mul(x, y), 5) == bs_mul(bs_psi(x, 5), bs_psi(y, 5))
    if x != y:
        assert bs_psi(x, 5) != bs_psi(y, 5)


def test_bs_report_examples():
    report = bs_report(2, 5, samples=200)
    assert report.ok
    assert check_row(report, "image index").actual == 5
    assert bs_report(-2, 3, samples=100).ok


def test_hnn_odd_solutions_frozen():
    assert hnn_obstruction(3, 20) == PAIR_SET
    assert hnn_obstruction(5, 20) == PAIR_SET
    assert hnn_obstruction(7, 12) == PAIR_SET


def test_hnn_even_solutions_frozen():
    # for even n the sum is (l + r) * (l^(n-2) + l^(n-4) r^2 + ... + r^(n-2));
    # the second factor has n/2 >= 2 positive terms, so |sum| is 0 or >= 2
    assert hnn_obstruction(4, 50) == []
    assert hnn_obstruction(6, 30) == []
    assert hnn_obstruction(8, 30) == []


def test_hnn_validates_parameters():
    with pytest.raises(ValueError):
        hnn_obstruction(2, 10)
    with pytest.raises(ValueError):
        hnn_obstruction(3, 0)


def test_hnn_matches_closed_form_oracle():
    # independent evaluation through the geometric-series closed form
    for n in (3, 4, 5, 6):
        expected = []
        for l in range(-12, 13):
            for r in range(-12, 13):
                if l == 0 or r == 0 or math.gcd(l, r) != 1:
                    continue
                total = n * l ** (n - 1) if l == r else (l**n - r**n) // (l - r)
                if abs(total) == 1:
                    expected.append((l, r))
        assert hnn_obstruction(n, 12) == sorted(expected)


@given(st.integers(min_value=3, max_value=9), st.integers(min_value=1, max_value=15))
@settings(deadline=None, max_examples=40)
def test_hnn_negation_symmetry(n, bound):
    found = set(hnn_obstruction(n, bound))
    assert found == {(-l, -r) for l, r in found}


def test_hnn_report_is_self_validating():
    assert hnn_report(3, 20).ok
    assert hnn_report(4, 20).ok


def test_report_document_shape():
    report = kernel_swap(2, 3)
    doc = report_to_document(report)
    assert list(doc.keys()) == ["scenario", "parameters", "objects", "checks", "ok"]
    assert doc["ok"] is True
    for row in doc["checks"]:
        assert list(row.keys()) == ["name", "expected", "actual", "pass"]
    # serializable and deterministic
    assert json.dumps(doc) == json.dumps(report_to_document(kernel_swap(2, 3)))


def test_report_document_serializes_bs_values():
    doc = report_to_document(bs_report(2, 3, samples=10))
    text = json.dumps(doc)
    assert "denom_exp" in text
    reloaded = json.loads(text)
    assert reloaded["ok"] is True


def test_bs_modulus_past_the_cap_is_refused_at_once(monkeypatch):
    # the image index walks all p cosets, so the walk is held to the cap
    monkeypatch.delenv("FREECOMM_INDEX_CAP", raising=False)
    p = 10**18 + 3
    refusal = rf"modulus {p} exceeds the vertex cap \(10000\)"
    for call in (lambda: bs_report(2, p, samples=10), lambda: bs_image_index(2, p)):
        start = time.perf_counter()
        with pytest.raises(IndexCapError, match=refusal):
            call()
        assert time.perf_counter() - start < 1


def test_prime_test_matches_trial_division():
    from freecomm.scenarios import _is_prime

    for n in range(-3, 5000):
        expected = n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert _is_prime(n) == expected
    # strong pseudoprimes to the first 4 and 11 prime bases
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_scans_are_held_to_the_work_limit():
    from freecomm.scenarios import WORK_LIMIT

    assert hnn_obstruction(4, 50) == []  # the largest scan of this suite
    for call, refusal in (
        (lambda: hnn_obstruction(3, 10**5), r"hnn_obstruction: 120000000000 power-sum terms \(n=3, bound 100000\)"),
        (lambda: hnn_report(3, 10**5), r"hnn_obstruction: 120000000000 power-sum terms"),
        (lambda: bs_report(2, 5, samples=10**8), r"bs_report: 100000000 samples"),
        (lambda: bs_report(2, 5, samples=WORK_LIMIT + 1), rf"bs_report: {WORK_LIMIT + 1} samples"),
    ):
        start = time.perf_counter()
        with pytest.raises(WorkLimitError, match=refusal + rf".* exceed the work limit \({WORK_LIMIT}\)"):
            call()
        assert time.perf_counter() - start < 1


def test_bs_report_needs_a_sample():
    for samples in (-5, 0):
        with pytest.raises(ValueError, match="samples must be positive"):
            bs_report(2, 5, samples=samples)
