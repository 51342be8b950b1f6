"""The closed-form rank path against the per-multidegree enumeration, and
the consistency checks that guard it."""

import itertools
import sys
from math import factorial

import pytest

from linkrank import ranks
from linkrank.errors import InternalConsistencyError
from linkrank.framed import framed_rank, fully_framed_is_infinite
from linkrank.liedim import _multiplicity, _solutions
from linkrank.oracle import verify_range
from linkrank.ranks import (brunnian_is_infinite, brunnian_rank, equal_dim_rank,
                            link_is_infinite, link_rank)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# enumeration cost grows with the number of solutions; this keeps each
# example well under a second
MAX_SOLUTIONS = 5000


def _solution_count(weights, target):
    ways = [1] + [0] * target
    for a in weights:
        for t in range(a, target + 1):
            ways[t] += ways[t - a]
    return ways[target]


@st.composite
def link_problems(draw):
    m = draw(st.integers(4, 30))
    r = draw(st.integers(1, 5))
    dims = tuple(draw(st.lists(st.integers(1, m - 3), min_size=r, max_size=r)))
    hypothesis.assume(_solution_count([m - p - 2 for p in dims], m - 3) <= MAX_SOLUTIONS)
    return m, dims


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(link_problems())
def test_closed_form_equals_enumeration(problem):
    m, dims = problem
    report = link_rank(m, dims)
    correction = sum(report.knot_ranks) - sum(ranks._delta(m, p) for p in dims)
    assert report.total_rank == sum(v for _, v in report.contributions) + correction
    if len(dims) >= 2:
        brunnian = brunnian_rank(m, dims)
        assert brunnian.rank == sum(v for _, v in brunnian.contributions)
        assert all(min(x) >= 1 for x, _ in brunnian.contributions)
        assert report.brunnian_rank == brunnian.rank


@st.composite
def mixed_parity_problems(draw):
    m, dims = draw(link_problems())
    hypothesis.assume(len({(m - p) % 2 for p in dims}) == 2)
    return m, dims


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.example((8, (3, 4, 5)))
@hypothesis.given(mixed_parity_problems())
def test_contributions_equal_the_unshared_multiplicities(problem):
    # the cross-check of one multiplicity per parity class: every term
    # against its own kernel call.  (8; 3, 4, 5) has weights (3, 2, 1), where
    # (0, 2, 1) and (1, 0, 2) are one class only if the parities are ignored
    m, dims = problem
    weights = tuple(m - p - 2 for p in dims)
    parities = tuple(a % 2 for a in weights)
    for lower, report in ((0, link_rank(m, dims)), (1, brunnian_rank(m, dims))):
        # x = y + lower for the solutions y >= 0 of what the bound leaves
        unshared = [(x, _multiplicity(parities, x))
                    for x in (tuple(v + lower for v in y)
                              for y in _solutions(weights, m - 3 - lower * sum(weights)))]
        assert list(report.contributions) == unshared


@st.composite
def wide_problems(draw):
    m = draw(st.integers(4, 40))
    r = draw(st.integers(1, 8))
    return m, tuple(draw(st.lists(st.integers(1, m - 3), min_size=r, max_size=r)))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(wide_problems())
def test_criteria_equal_the_walk_over_every_subset(problem):
    # the reference is the plain loop over all 2^r - 1 subsets, fitting or not
    m, dims = problem
    sublink = any(ranks._subsequence_infinite(tuple(m - p - 2 for p in subset), m - 3)
                  for size in range(2, len(dims) + 1)
                  for subset in itertools.combinations(dims, size))
    knot = any((p + 1) % 4 == 0 and 2 * m < 3 * p + 4 for p in dims)
    full = any((p + 1) % 4 == 0 or ((m + 1) % 4 == 0 and m + 1 == 2 * p + 2)
               for p in dims)
    assert link_is_infinite(m, dims) == (knot or sublink)
    assert fully_framed_is_infinite(m, dims) == (full or sublink)


@pytest.fixture
def cold_caches(clear_caches):
    # the checks run only when a value is computed, not on a cache hit, and
    # a report cached by an earlier test would skip them: every cache in
    # the package is cleared
    clear_caches()
    yield
    clear_caches()


def test_contributions_check_fires(cold_caches, monkeypatch):
    # one kernel call per parity class, but every term takes its class's
    # value: the 4 terms of the link (2 classes) and the 2 Brunnian terms
    # (1 class) are each 1 too high
    real = ranks._multiplicity
    monkeypatch.setattr(ranks, "_multiplicity", lambda parities, x: real(parities, x) + 1)
    with pytest.raises(InternalConsistencyError, match=r"^the 4 enumerated contributions add "
                       r"up to 8 but the Witt formula gives 4 for m=6, p=\(3, 3\)$"):
        link_rank(6, (3, 3)).contributions
    with pytest.raises(InternalConsistencyError, match=r"^the 2 enumerated contributions add "
                       r"up to 4 but the Witt formula gives 2 for m=6, p=\(3, 3\)$"):
        brunnian_rank(6, (3, 3)).contributions


def test_contributions_take_one_multiplicity_per_parity_class(cold_caches, monkeypatch):
    # weights (1, 1, 2) against target 7: x and (x_2, x_1, x_3) share a
    # class; weights (1, 1, 1) against 5: one class per partition of 5
    calls = []
    real = ranks._multiplicity

    def counting(parities, x):
        calls.append(x)
        return real(parities, x)

    monkeypatch.setattr(ranks, "_multiplicity", counting)
    for report, terms, classes in ((link_rank(10, (7, 7, 6)), 20, 10),
                                   (brunnian_rank(10, (7, 7, 6)), 6, 3),
                                   (link_rank(8, (5, 5, 5)), 21, 5),
                                   (brunnian_rank(8, (5, 5, 5)), 6, 2)):
        calls.clear()
        assert len(report.contributions) == terms
        assert len(calls) == classes


def test_contributions_count_check_fires(cold_caches, monkeypatch):
    real = ranks._count_solutions
    monkeypatch.setattr(ranks, "_count_solutions", lambda *args: real(*args) + 1)
    with pytest.raises(InternalConsistencyError,
                       match=r"^enumerated 4 solutions but counted 5 for m=6, p=\(3, 3\)$"):
        link_rank(6, (3, 3)).contributions
    with pytest.raises(InternalConsistencyError,
                       match=r"^enumerated 2 solutions but counted 3 for m=6, p=\(3, 3\)$"):
        brunnian_rank(6, (3, 3)).contributions


def test_subset_split_check_fires(cold_caches, monkeypatch):
    # (6; 3, 3) has delta = 1 for each component; dropping it leaves the
    # closed formula two above the split
    monkeypatch.setattr(ranks, "_delta", lambda m, p: 0)
    with pytest.raises(InternalConsistencyError, match=r"^closed formula gives 4 beyond the "
                       r"knot ranks but the subset splitting gives 2 for m=6, weights \(1, 1\)$"):
        link_rank(6, (3, 3))


def test_criterion_checks_fire(cold_caches, monkeypatch):
    monkeypatch.setattr(ranks, "_subsequence_infinite", lambda weights, target: False)
    with pytest.raises(InternalConsistencyError, match=r"^Brunnian criterion says False but "
                       r"the rank is 6 for m=8, p=\(5, 5, 5\)$"):
        brunnian_is_infinite(8, (5, 5, 5))
    with pytest.raises(InternalConsistencyError, match=r"^finiteness criterion says False but "
                       r"the rank is 6 for m=8, p=\(5, 5, 5\)$"):
        link_rank(8, (5, 5, 5))


def test_dropped_fitting_subset_is_caught(cold_caches, monkeypatch):
    # weights (1, 1, 1) against target 5: the last fitting sub-multiset is
    # the whole link, whose Brunnian rank is positive; the family is built
    # whole and its last entry dropped from the result
    real = ranks._brunnian_ranks
    monkeypatch.setattr(ranks, "_brunnian_ranks",
                        lambda weights, target: dict(list(real(weights, target).items())[:-1]))
    with pytest.raises(InternalConsistencyError, match="subset splitting"):
        link_rank(8, (5, 5, 5))
    with pytest.raises(InternalConsistencyError, match="Brunnian criterion"):
        brunnian_is_infinite(8, (5, 5, 5))


def test_equal_weights_take_one_multiplicity_sum_per_size(cold_caches, monkeypatch):
    # sublinks are keyed by their weights: 18 equal components need one sum
    # per size 1..18 plus the link total, not one per component subset
    calls = []
    real = ranks._multiplicity_sum

    def counting(weights, target):
        calls.append(weights)
        return real(weights, target)

    monkeypatch.setattr(ranks, "_multiplicity_sum", counting)
    assert link_rank(60, (57,) * 18).total_rank == equal_dim_rank(60, 57, 18)
    assert len(calls) <= 19
    assert link_rank(6, (3,) * 200).total_rank == equal_dim_rank(6, 3, 200) == 1353400


def test_equal_dim_check_fires(cold_caches, monkeypatch):
    monkeypatch.setattr(ranks, "witt_super", lambda t, s, r: 0)
    with pytest.raises(InternalConsistencyError, match="^equal-dimension form gives 0 but the "
                       "general formula gives 4 for m=6, p=3, r=2$"):
        equal_dim_rank(6, 3, 2)


def test_subsets_too_heavy_for_a_positive_solution_have_rank_zero():
    # weights 9, 8, 7 against target 17: every pair fits, the triple does not
    report = link_rank(20, (9, 10, 11))
    split = report.subset_decomposition
    assert split[(1, 2, 3)] == 0
    assert brunnian_rank(20, (9, 10, 11)).rank == 0
    assert brunnian_rank(20, (9, 10, 11)).contributions == ()
    for pair in ((1, 2), (1, 3), (2, 3)):
        dims = tuple((9, 10, 11)[k - 1] for k in pair)
        assert split[pair] == brunnian_rank(20, dims).rank
    assert sum(split.values()) == report.total_rank


@st.composite
def links_at_their_weight_sum(draw):
    # two to nine components of weights 1..8, repeats and mixed parities
    # allowed, in the degree m - 3 equal to the sum of their weights
    weights = draw(st.lists(st.integers(1, 8), min_size=2, max_size=9))
    m = sum(weights) + 3
    return m, tuple(m - a - 2 for a in weights)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.example((5, (2, 2)))
@hypothesis.example((47, tuple(45 - a for a in (1, 2, 3, 4, 5, 6, 7, 8, 8))))
@hypothesis.given(links_at_their_weight_sum())
def test_a_link_at_its_weight_sum_has_the_multilinear_brunnian_rank(problem):
    # at m - 3 = sum a_k the one positive solution is x = (1, ..., 1): the
    # multilinear part of the free Lie superalgebra has dimension (r - 1)!
    # at every parity, so the multiplicity is r (r - 2)! - (r - 1)! = (r - 2)!
    m, dims = problem
    r = len(dims)
    expected = r * factorial(r - 2) - factorial(r - 1)
    assert expected == factorial(r - 2)
    brunnian = brunnian_rank(m, dims)
    assert (brunnian.rank, brunnian.infinite) == (expected, True)
    report = link_rank(m, dims)
    assert (report.brunnian_rank, report.infinite) == (expected, True)


# the public entry points that validate their arguments; the library's own
# code reaches their unvalidated cores instead
VALIDATING = ("weighted_dim_sums", "multiplicity",
              "fcs_contains", "knot_rank", "lie_component_dim", "stiefel_rank")


def _cold_results(clear_caches):
    clear_caches()
    results = []
    for m, dims in ((10, (7,)), (6, (3, 3)), (9, (5, 6)), (8, (5, 5, 5)),
                    (20, (9, 10, 11)), (14, (9, 10, 8, 11))):
        report = link_rank(m, dims)
        results.append((report, report.contributions, dict(report.subset_decomposition),
                        framed_rank(m, tuple((p, m - p) for p in dims)),
                        fully_framed_is_infinite(m, dims)))
        if len(dims) >= 2:
            brunnian = brunnian_rank(m, dims)
            results.append((brunnian, brunnian.contributions, brunnian_is_infinite(m, dims)))
    results.append(verify_range(2, 2, 4))
    return results


def test_arguments_are_validated_once(clear_caches, monkeypatch):
    before = _cold_results(clear_caches)

    def refuse(*args, **kwargs):
        raise AssertionError("internal code called a validating entry point")

    modules = [module for name, module in list(sys.modules.items())
               if name == "linkrank" or name.startswith("linkrank.")]
    for module in modules:
        for name in VALIDATING:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert _cold_results(clear_caches) == before
