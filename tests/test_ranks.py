import copy
import gc
import itertools
import pickle
import sys
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from linkrank import liedim, ranks
from linkrank.errors import (InternalConsistencyError, InvalidInputError, ResourceLimitError,
                             _shown)
from linkrank.framed import framed_rank, fully_framed_is_infinite, handlebody_report
from linkrank.ranks import (
    brunnian_is_infinite,
    brunnian_rank,
    equal_dim_rank,
    knot_rank,
    link_is_infinite,
    link_rank,
)


def test_link_problem_validation():
    assert link_rank(6, [3, 3]).p == (3, 3)
    with pytest.raises(InvalidInputError, match="^codimension must exceed 2: component "
                       "dimension 3 inside ambient dimension 5$"):
        link_rank(5, (3, 3))
    with pytest.raises(InvalidInputError, match="^component dimensions must be >= 1, got 0$"):
        link_rank(6, (0, 3))
    with pytest.raises(InvalidInputError, match="^a link needs at least one component$"):
        link_rank(6, ())


_DUPLICATES = (lambda report: pickle.loads(pickle.dumps(report)), copy.deepcopy)


@pytest.mark.parametrize("make, text, computed", [
    (lambda: link_rank(6, (3, 3)),
     "RankReport(m=6, p=(3, 3), total_rank=4, brunnian_rank=2, knot_ranks=(1, 1), "
     "infinite=True)", ("contributions", "subset_decomposition")),
    (lambda: brunnian_rank(6, (3, 3)),
     "BrunnianRank(m=6, p=(3, 3), rank=2, infinite=True)", ("contributions",)),
    (lambda: framed_rank(6, ((3, 3),)),
     "FramedRankReport(m=6, p=(3,), l=(3,), total_rank=2, link_report=RankReport("
     "m=6, p=(3,), total_rank=1, brunnian_rank=None, knot_ranks=(1,), infinite=True), "
     "stiefel_ranks=(1,), infinite=True)", ()),
    (lambda: handlebody_report(9, (6, 6)),
     "HandlebodyReport(m_plus_1=9, handle_dims=(6, 6), weak_conditions_hold=True, "
     "strict_conditions_hold=True, sets_finite=True, group_rank=0)", ()),
], ids=["RankReport", "BrunnianRank", "FramedRankReport", "HandlebodyReport"])
def test_report_contract(clear_caches, make, text, computed):
    # a report is read-only, as link_rank hands one cached report to every
    # caller; each computed attribute is built again on every read, equal
    # each time, and the report pickles and deep-copies as its fields
    report = make()
    assert repr(report) == text
    clear_caches()
    assert make() == report
    for name in report._fields + ("note",):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    for name in computed:
        value = getattr(report, name)
        assert getattr(report, name) == value
        with pytest.raises(AttributeError):
            setattr(report, name, None)
        with pytest.raises(AttributeError):
            delattr(report, name)
        assert getattr(report, name) == value
    for duplicate in _DUPLICATES:
        assert duplicate(report) == report
    if "subset_decomposition" in computed:
        assert isinstance(report.subset_decomposition, MappingProxyType)


def _read_every_attribute(report):
    # every public attribute, computed ones included, and those of a report
    # that is a field of this one
    for name in dir(report):
        if not name.startswith("_"):
            value = getattr(report, name)
            if hasattr(value, "_fields"):
                _read_every_attribute(value)


@pytest.mark.parametrize("make", [
    lambda: link_rank(6, (3, 3)),
    lambda: brunnian_rank(6, (3, 3)),
    lambda: framed_rank(8, ((5, 3), (5, 3))),
    lambda: handlebody_report(9, (6, 6)),
], ids=["RankReport", "BrunnianRank", "FramedRankReport", "HandlebodyReport"])
def test_a_read_report_still_pickles_and_copies(make):
    # a read leaves nothing behind on the report: it holds its fields only
    report = make()
    _read_every_attribute(report)
    assert not hasattr(report, "__dict__")
    for duplicate in _DUPLICATES:
        assert duplicate(report) == report


def test_the_report_cache_keeps_no_listing(clear_caches):
    # link_rank caches its reports, so a listing kept on a report would live
    # as long as the cache: (30; 27^5) alone lists 31 465 terms
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        for m in range(30, 35):
            report = link_rank(m, (m - 3,) * 5)
            report.contributions, report.subset_decomposition
        del report
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, f"{held} bytes stay traced"


def test_link_problem_rejects_non_integers():
    # floats used to be truncated, so (6.9; 3.5, 3) answered for (6; 3, 3)
    for m, dims in [(6.9, (3, 3)), (6, (3.5, 3)), (6.0, (3, 3)), (6, (True, 3)),
                    (True, (1,)), ("6", (3, 3)), (6, ("3", 3))]:
        with pytest.raises(InvalidInputError):
            link_rank(m, dims)
    with pytest.raises(InvalidInputError):
        knot_rank(6, 3.0)
    with pytest.raises(InvalidInputError):
        equal_dim_rank(6, 3, 2.0)


def test_knot_rank_values():
    assert knot_rank(10, 7) == 1
    assert knot_rank(13, 7) == 0
    assert knot_rank(9, 5) == 0
    assert knot_rank(6, 3) == 1
    with pytest.raises(InvalidInputError):
        knot_rank(5, 3)


def test_knot_rank_is_zero_or_one():
    for m in range(4, 25):
        for p in range(1, m - 2):
            assert knot_rank(m, p) in (0, 1)


def test_brunnian_rank_values():
    assert brunnian_rank(5, (2, 2)).rank == 1
    assert brunnian_rank(8, (5, 5)).rank == 0
    assert brunnian_rank(6, (3, 3, 3)).rank == 1
    assert brunnian_rank(10, (5, 7)).rank == 1
    assert brunnian_rank(6, (3, 3)).rank == 2


def test_brunnian_contributions_sum_to_rank():
    report = brunnian_rank(6, (3, 3))
    assert sum(v for _, v in report.contributions) == report.rank
    assert all(min(x) >= 1 for x, _ in report.contributions)


def test_brunnian_rejects_single_component():
    for call in (brunnian_rank, brunnian_is_infinite):
        with pytest.raises(InvalidInputError, match="^Brunnian rank needs at least two "
                           "components; use knot_rank for one$"):
            call(6, (3,))


def test_link_rank_reports():
    report = link_rank(6, (3, 3))
    assert report.total_rank == 4
    assert report.brunnian_rank == 2
    assert report.knot_ranks == (1, 1)
    assert report.infinite is True
    assert link_rank(8, (5, 5)).total_rank == 0
    assert link_rank(11, (5, 5)).brunnian_rank == 1


def test_link_rank_single_component_matches_knot_rank():
    for m in range(4, 16):
        for p in range(1, m - 2):
            report = link_rank(m, (p,))
            assert report.total_rank == knot_rank(m, p)
            assert report.brunnian_rank is None


def test_two_component_rank_splits_into_brunnian_plus_knots():
    for m in range(5, 17):
        for p1 in range(1, m - 2):
            for p2 in range(p1, m - 2):
                report = link_rank(m, (p1, p2))
                expected = (brunnian_rank(m, (p1, p2)).rank
                            + knot_rank(m, p1) + knot_rank(m, p2))
                assert report.total_rank == expected


def test_subset_decomposition_sums_to_total():
    # (10; 7, 7, 6, 6, 7) repeats weights, so distinct subsets share an entry
    for m, dims in [(6, (3, 3)), (8, (5, 5, 5)), (9, (3, 4, 5)), (12, (3, 5, 7, 9)),
                    (10, (7, 7, 6, 6, 7))]:
        report = link_rank(m, dims)
        assert sum(report.subset_decomposition.values()) == report.total_rank
        assert set(report.subset_decomposition) == {
            subset
            for size in range(1, len(dims) + 1)
            for subset in itertools.combinations(range(1, len(dims) + 1), size)
        }
        for subset, value in report.subset_decomposition.items():
            if len(subset) >= 2:
                assert value == brunnian_rank(m, tuple(dims[k - 1] for k in subset)).rank


def test_subset_decomposition_is_read_only():
    # a report is immutable, and so is the mapping it lists
    report = link_rank(6, (3, 3))
    with pytest.raises(TypeError):
        report.subset_decomposition[(1,)] = 99
    assert sum(link_rank(6, (3, 3)).subset_decomposition.values()) == 4


def _tuple_brunnian_ranks(weights, target):
    # the tuple-keyed inversion that the coded one replaced, kept as its
    # reference: the family as sorted tuples, each after its sub-multisets,
    # and pass j of weight a dropping one copy of a from each sublink holding
    # more than j copies, supersets first
    family = [((), 0)]
    for a in sorted(set(weights)):
        count = weights.count(a)
        family = [(t + (a,) * j, total + j * a) for t, total in family
                  for j in range(count + 1) if total + j * a <= target]
    values = {(): 0}
    for t, _ in family[1:]:
        values[t] = ranks._multiplicity_sum(t, target)
    for a in set(weights):
        for j in range(weights.count(a)):
            for t in reversed(values):
                if t.count(a) > j:
                    i = t.index(a)
                    values[t] -= values[t[:i] + t[i + 1:]]
    return values


@st.composite
def links_with_repeated_weights(draw):
    # up to seven components drawing their weights from at most four values
    m = draw(st.integers(6, 30))
    pool = draw(st.lists(st.integers(1, m - 3), min_size=1, max_size=4, unique=True))
    weights = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=7))
    return m, tuple(m - a - 2 for a in weights)


@settings(max_examples=200, deadline=None)
@given(links_with_repeated_weights())
def test_the_coded_inversion_is_the_alternating_sum_over_component_subsets(case):
    # every Brunnian rank against sum_{U within S} (-1)^|S - U| M(U) over the
    # component subsets U, each M(U) from the weights of U alone; a subset
    # whose weights add up to more than m - 3 must give 0 both ways
    m, dims = case
    target = m - 3
    weights = [m - v - 2 for v in dims]
    sums = {(): 0}

    def alternating(subset):
        total = 0
        for size in range(len(subset) + 1):
            for part in itertools.combinations(subset, size):
                key = tuple(sorted(weights[k] for k in part))
                if key not in sums:
                    sums[key] = ranks._multiplicity_sum(key, target)
                total += (-1) ** (len(subset) - size) * sums[key]
        return total

    for subset, value in link_rank(m, dims).subset_decomposition.items():
        members = [k - 1 for k in subset]
        if len(members) == 1:
            assert value == knot_rank(m, dims[members[0]])
            continue
        expected = alternating(members)
        if sum(weights[k] for k in members) > target:
            assert expected == 0
        assert value == expected, subset
    assert brunnian_rank(m, dims).rank == alternating(range(len(dims)))
    # the core takes the whole link and keeps its paired prefix itself: the
    # weights a with a + a_min <= m - 3, or none when fewer than two remain
    key = tuple(sorted(weights))
    paired = tuple(a for a in key if a + key[0] <= target)
    coded = ranks._brunnian_ranks(key, target)
    expected = _tuple_brunnian_ranks(paired if len(paired) > 1 else (), target)
    assert list(coded.items()) == list(expected.items())


@st.composite
def links_with_unpaired_components(draw):
    # a least weight a_min <= N / 2 for N = m - 3, two or three copies of one
    # weight anywhere in [a_min, N], up to two components of weight N - a_min
    # (each pairs only with a_min, at equality) and up to three whose weight
    # plus a_min exceeds N (they pair with none), in a shuffled order
    m = draw(st.integers(6, 30))
    target = m - 3
    least = draw(st.integers(1, target // 2))
    repeated = [draw(st.integers(least, target))] * draw(st.integers(2, 3))
    equal = [target - least] * draw(st.integers(0, 2))
    lonely = draw(st.lists(st.integers(target - least + 1, target), max_size=3))
    weights = draw(st.permutations([least] + repeated + equal + lonely))
    return m, tuple(m - a - 2 for a in weights)


def _report_over_every_weight(m, dims):
    # the link report and decomposition rebuilt from the tuple-keyed
    # Brunnian ranks of the family over all the weights, singletons of
    # unpaired components included, as reference for the report built on
    # the paired prefix
    target = m - 3
    weights = [m - v - 2 for v in dims]
    family = _tuple_brunnian_ranks(tuple(sorted(weights)), target)
    knot_ranks = tuple(knot_rank(m, v) for v in dims)
    decomposition = {}
    for size in range(1, len(dims) + 1):
        for subset in itertools.combinations(range(len(dims)), size):
            decomposition[tuple(k + 1 for k in subset)] = (
                knot_ranks[subset[0]] if size == 1
                else family.get(tuple(sorted(weights[k] for k in subset)), 0))
    infinite = any(knot_ranks) or any(
        ranks._subsequence_infinite(t, target) for t in family if len(t) >= 2)
    report = ranks.RankReport(
        m=m, p=dims, total_rank=sum(decomposition.values()),
        brunnian_rank=family.get(tuple(sorted(weights)), 0) if len(dims) >= 2 else None,
        knot_ranks=knot_ranks, infinite=infinite)
    return report, decomposition


@settings(max_examples=200, deadline=None)
@given(links_with_unpaired_components())
def test_the_paired_prefix_keeps_every_field_and_subset(case):
    m, dims = case
    expected, decomposition = _report_over_every_weight(m, dims)
    report = link_rank(m, dims)
    assert report == expected
    assert list(report.subset_decomposition.items()) == list(decomposition.items())


def test_a_link_whose_components_pair_with_none_sums_once(clear_caches, monkeypatch):
    # weights 21..40 against m - 3 = 40: the least two add up to 41, so no
    # sublink of two or more fits and only M(all) is summed, not one M per
    # component
    clear_caches()
    calls = []
    real = ranks._multiplicity_sum

    def counting(weights, target):
        calls.append(weights)
        return real(weights, target)

    monkeypatch.setattr(ranks, "_multiplicity_sum", counting)
    report = link_rank(43, tuple(range(1, 21)))
    assert calls == [tuple(range(21, 41))]
    assert (report.total_rank, report.brunnian_rank, report.infinite) == (0, 0, False)


def test_contributions_walk_needs_no_deep_stack():
    # 1099 components of weight 19 and one of weight 37 against target 37:
    # one solution, found 1100 coordinates deep, and a walk recursing once
    # per component would overflow the stack
    assert link_rank(40, (19,) * 1099 + (1,)).contributions == (
        ((0,) * 1099 + (1,), 0),)


def test_contributions_and_decomposition_over_the_cap_are_refused():
    # (60; 57^6) has C(62, 5) terms of x >= 0 and C(56, 5) of x >= 1; the
    # ranks themselves stay closed-form and fast
    report = link_rank(60, (57,) * 6)
    assert report.total_rank > 0
    with pytest.raises(ResourceLimitError, match=r"^m=60, p=\(57, 57, 57, 57, 57, 57\) has "
                       r"6471002 contributions, over the cap of 200000$"):
        report.contributions
    with pytest.raises(ResourceLimitError, match=r"^m=60, p=\(57, 57, 57, 57, 57, 57\) has "
                       r"3819816 contributions, over the cap of 200000$"):
        brunnian_rank(60, (57,) * 6).contributions
    # 18 components: 1140 terms, but 2^18 - 1 component subsets
    report = link_rank(6, (3,) * 18)
    assert len(report.contributions) == 1140
    with pytest.raises(ResourceLimitError, match=r"^the decomposition of m=6, p=\((3, ){17}3\) "
                       r"lists 262143 component subsets, over the cap of 200000$"):
        report.subset_decomposition


@pytest.mark.parametrize("read, size", [
    (lambda: link_rank(6, (3, 3)).contributions, 4),
    (lambda: brunnian_rank(6, (3, 3)).contributions, 2),
    (lambda: link_rank(6, (3, 3)).subset_decomposition, 3),
], ids=["contributions", "brunnian contributions", "decomposition"])
def test_the_cap_admits_exactly_its_size(monkeypatch, read, size):
    # each read lists afresh, so a cached report is held to the cap in force
    monkeypatch.setattr(ranks, "_MAX_TERMS", size)
    assert len(read()) == size
    monkeypatch.setattr(ranks, "_MAX_TERMS", size - 1)
    with pytest.raises(ResourceLimitError, match=f"over the cap of {size - 1}"):
        read()


# links whose weights m - p - 2 stay fixed as m moves, so that each sublink
# recurs at many targets m - 3
_SWEEP = [(m, tuple(m - 2 - a for a in weights))
          for m in range(6, 21)
          for weights in ((1,), (1, 2), (2, 1, 3), (1, 1, 2, 4), (3, 3), (2, 2, 5, 1))
          if max(weights) <= m - 3]


def test_sweep_solves_each_sublink_once_per_longer_target(clear_caches, monkeypatch):
    cold = {}
    for link in _SWEEP:
        clear_caches()
        report = ranks._link_report(*link)
        cold[link] = (report, dict(report.subset_decomposition))

    requested = defaultdict(set)
    solves = Counter()
    real_sums, real_solve = liedim._weighted_dim_sums, liedim._solve_dim_sums

    def sums(weights, n):
        requested[weights].add(n)
        return real_sums(weights, n)

    def solve(weights, n):
        solves[weights] += 1
        return real_solve(weights, n)

    monkeypatch.setattr(liedim, "_weighted_dim_sums", sums)
    monkeypatch.setattr(liedim, "_solve_dim_sums", solve)

    def sweep(links):
        # past the report cache, so that every link reads its Witt sums again
        for link in links:
            report = ranks._link_report.__wrapped__(*link)
            assert (report, dict(report.subset_decomposition)) == cold[link], link

    clear_caches()
    sweep(sorted(_SWEEP, reverse=True))
    # descending, a sublink is first met at its largest target: one solve each
    assert solves and set(solves.values()) == {1}
    sweep(sorted(_SWEEP))
    assert set(solves.values()) == {1}

    clear_caches()
    solves.clear()
    sweep(sorted(_SWEEP))
    # ascending, a sublink is solved once per target it is met at, so never
    # more often than there are distinct targets
    assert solves == {weights: len(targets) for weights, targets in requested.items()}
    assert 1 < max(solves.values()) <= len({m - 3 for m, _ in _SWEEP})


def _fields_but_order(report):
    # every field of a link report that does not list the components in order
    return {name: value for name, value in report._asdict().items()
            if name not in ("p", "knot_ranks")}


def test_each_order_of_a_link_builds_its_family_once(clear_caches, monkeypatch):
    # rank, Brunnian rank and verdict depend on the weights as a multiset,
    # but the report cache is keyed by the dims in their order: each order
    # builds the sublink family once, a repeated call builds none, and the
    # framed report reads the link report of its order from that cache
    clear_caches()
    calls = []
    real = ranks._brunnian_ranks

    def counting(weights, target):
        calls.append(weights)
        return real(weights, target)

    monkeypatch.setattr(ranks, "_brunnian_ranks", counting)
    dims = (7, 9, 10, 11)
    forward, backward = link_rank(14, dims), link_rank(14, dims[::-1])
    assert calls == [(1, 2, 3, 5)] * 2
    assert (link_rank(14, dims), link_rank(14, dims[::-1])) == (forward, backward)
    components = ((7, 7), (9, 5), (10, 4), (11, 3))
    framed = [framed_rank(14, components), framed_rank(14, components[::-1])]
    infinite = [fully_framed_is_infinite(14, order) for order in (dims, dims[::-1])]
    assert calls == [(1, 2, 3, 5)] * 2
    assert (forward.p, backward.p) == (dims, dims[::-1])
    assert (forward.knot_ranks, backward.knot_ranks) == ((0, 0, 0, 1), (1, 0, 0, 0))
    assert _fields_but_order(forward) == _fields_but_order(backward)
    assert (forward.total_rank, forward.brunnian_rank, forward.infinite) == (22, 2, True)
    assert [report.link_report for report in framed] == [forward, backward]
    assert framed[0].total_rank == framed[1].total_rank == 23
    assert framed[0].infinite is framed[1].infinite is True
    assert infinite == [True, True]


@st.composite
def permuted_links(draw):
    m = draw(st.integers(6, 24))
    dims = draw(st.lists(st.integers(1, m - 3), min_size=2, max_size=5))
    return m, tuple(dims), tuple(draw(st.permutations(dims)))


@settings(max_examples=100, deadline=None)
@given(permuted_links())
def test_a_permuted_link_from_the_core_equals_its_cold_report(clear_caches, case):
    # a permuted link computes its own report, whatever the cache holds for
    # the original order: the two computations of that order, after the
    # original and from cold caches, give the same report
    m, dims, permuted = case
    clear_caches()
    link_rank(m, dims)
    warm = link_rank(m, permuted)
    clear_caches()
    assert warm == link_rank(m, permuted)


def test_a_brunnian_link_whose_weights_overflow_builds_no_family(clear_caches, monkeypatch):
    # weights 9, 8, 7 add up to more than m - 3 = 17: no positive solution,
    # rank 0 without the sublink family, and the verdict is still checked
    clear_caches()

    def refuse(weights, target):
        raise AssertionError(f"built the sublink family of {weights}")

    monkeypatch.setattr(ranks, "_brunnian_ranks", refuse)
    report = brunnian_rank(20, (9, 10, 11))
    assert report.rank == 0
    assert report.infinite is False
    assert brunnian_is_infinite(20, (11, 10, 9)) is False
    monkeypatch.setattr(ranks, "_subsequence_infinite", lambda weights, target: True)
    with pytest.raises(InternalConsistencyError, match="Brunnian criterion says True"):
        brunnian_rank(20, (9, 10, 11))


def test_the_brunnian_verdict_is_decided_once_per_build(clear_caches, monkeypatch):
    # brunnian_rank runs the criterion once and stores its checked verdict;
    # reading the field runs nothing
    calls = []
    real = ranks._subsequence_infinite

    def counting(weights, target):
        calls.append(weights)
        return real(weights, target)

    clear_caches()
    monkeypatch.setattr(ranks, "_subsequence_infinite", counting)
    for m, dims in [(6, (3, 3)), (8, (5, 5, 5)), (20, (9, 10, 11)), (14, (7, 9, 10, 11))]:
        del calls[:]
        report = brunnian_rank(m, dims)
        assert calls == [tuple(sorted(m - v - 2 for v in dims))]
        for _ in range(3):
            assert report.infinite is (report.rank > 0)
        assert len(calls) == 1
        assert brunnian_is_infinite(m, dims) is report.infinite
        assert len(calls) == 2


@pytest.fixture
def no_walk_of_three(clear_caches, monkeypatch):
    # three or more weights are decided by the count and listed only when
    # it is nonzero: the count is the independent check the walk is held
    # to, so a verdict or an empty listing must not rest on the walk
    real = ranks._solutions

    def walk(weights, target):
        if len(weights) >= 3:
            raise AssertionError(f"walked the solutions for weights {weights}")
        return real(weights, target)

    clear_caches()
    monkeypatch.setattr(ranks, "_solutions", walk)
    yield
    clear_caches()


@pytest.mark.parametrize("m, dims", [
    (200, (196,) * 5), (200, (196,) * 6), (300, (296,) * 6), (120, (116,) * 8),
])
def test_links_without_a_solution_are_decided_without_a_walk(no_walk_of_three, m, dims):
    # every weight even and m - 3 odd: no solution, rank 0, and no sublink
    # of three or more components is walked
    report = link_rank(m, dims)
    assert (report.total_rank, report.infinite) == (0, False)


def test_dead_brunnian_verdict_and_empty_details_take_no_walk(no_walk_of_three):
    assert brunnian_rank(300, (296,) * 6).infinite is False
    assert link_rank(300, (296,) * 6).contributions == ()
    assert brunnian_rank(300, (296,) * 6).contributions == ()


def test_finiteness_examples(no_walk_of_three):
    # the three-component verdicts are counted, the two-component ones walked
    assert brunnian_is_infinite(8, (5, 5)) is False
    assert brunnian_is_infinite(8, (5, 5, 5)) is True
    assert brunnian_is_infinite(9, (6, 6)) is True
    assert link_is_infinite(8, (5, 5, 5)) is True
    assert link_is_infinite(10, (7,)) is True
    assert link_is_infinite(8, (5, 5)) is False


def test_brunnian_verdicts_past_ten_thousand(no_walk_of_three):
    # verdicts of three components that only the solution count decides,
    # at a degree past 10 000: weights 1 with y = x - 1 in degree 10 004,
    # and weights 2 with the odd m - 3 = 20 007, which none reaches
    assert brunnian_rank(10010, (10007,) * 3).infinite is True
    finite = brunnian_rank(20010, (20006,) * 3)
    assert (finite.rank, finite.infinite) == (0, False)


def test_a_failed_check_on_a_huge_rank_names_its_size(monkeypatch):
    # the Brunnian rank of (10010; 10007^3) has 15 835 bits, more digits
    # than the interpreter turns into a string by default, and 20 000
    # components have 2^20000 - 1 subsets: each message names the number
    # by its size instead of raising ValueError
    with pytest.raises(ResourceLimitError, match="lists <number of 20000 bits> component subsets"):
        link_rank(8, (5,) * 20000).subset_decomposition
    brunnian_rank(10010, (10007,) * 3)  # fills the Witt-sum cells
    monkeypatch.setattr(ranks, "_subsequence_infinite", lambda weights, target: False)
    with pytest.raises(InternalConsistencyError, match="^Brunnian criterion says False "
                       "but the rank is <number of 15835 bits> for m=10010,"):
        brunnian_rank(10010, (10007,) * 3)
    assert _shown(2 ** 2000 - 1) == str(2 ** 2000 - 1)
    assert _shown(-2 ** 2000) == _shown(1, 2 ** 2000) == "<number of 2001 bits>"
    assert _shown(6, 4) == "3/2"


def test_refusals_of_huge_inputs_are_typed():
    # each message formats an input of 5 001 digits, past the interpreter's
    # default cap of 4 300 on converting an int to a string, which stays in
    # force in library use: it names the number by its size instead
    import linkrank as lr
    huge = 10 ** 5000
    calls = [
        lambda: lr.witt(huge, 2), lambda: lr.witt(0, huge), lambda: lr.witt_super(3, -huge, 2),
        lambda: lr.link_rank(huge, (huge,)), lambda: lr.link_rank(10, (-huge,)),
        lambda: lr.equal_dim_rank(10, 3, -huge),
        lambda: lr.framed_rank(10, ((3, huge),)), lambda: lr.framed_knot_is_infinite(10, 3, -huge),
        lambda: lr.handlebody_report(10, (-huge,)),
        lambda: lr.fcs_enumerate(1, 1, huge, huge), lambda: lr.fcs_contains(1, 1, -huge, 1),
        lambda: lr.stiefel_rank(-huge, 3, 2),
        lambda: lr.weighted_dim_sums((1,), -huge), lambda: lr.lie_component_dim((-huge,), (1,)),
        lambda: lr.lie_component_dim((1,), (huge, 2)),
        lambda: lr.component_dim_bruteforce((1,), (huge,)),
        lambda: lr.component_dim_bruteforce((1,), (-huge,)),
        lambda: lr.verify_range(huge, 1, 1),
        # a rejected value that holds a huge int, not only a huge int
        lambda: lr.link_rank(Fraction(huge, 3), (3,)), lambda: lr.link_rank(6, huge),
        lambda: lr.framed_rank(10, ((3, huge, 1),)),
        lambda: lr.fcs_contains(Fraction(huge, 3), 1, 1, 1),
        lambda: lr.component_dim_bruteforce((1,), (1,), budget=Fraction(huge, 3)),
        lambda: lr.left_normed_bracket((huge,), (1,)),
        lambda: lr.super_bracket({(huge,): 1}, {}, (1,)),
        lambda: lr.super_bracket([huge], {}, (1,)),
    ]
    cap = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(4300)
    try:
        for call in calls:
            with pytest.raises((InvalidInputError, ResourceLimitError),
                               match="<number of 16610 bits>"):
                call()
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)
    assert _shown((huge, -3)) == "(<number of 16610 bits>, -3)"
    assert _shown((5,)) == str((5,)) and _shown(()) == str(())
    # a small rejected value is named as repr names it
    for value, text in [(6.9, "got 6.9"), ("6", "got '6'"), (Fraction(10, 3), "got Fraction")]:
        with pytest.raises(InvalidInputError, match=f"^the ambient dimension must be an "
                           f"integer, {text}"):
            lr.link_rank(value, (3,))
    assert _shown(Fraction(10, 3)) == "Fraction(10, 3)" and _shown([1, "a"]) == "[1, 'a']"
    if cap is not None:
        sys.set_int_max_str_digits(4300)
        try:
            assert _shown([huge, 2]) == "[<number of 16610 bits>, 2]"
            assert _shown(Fraction(huge, 3)) == "Fraction(<number of 16610 bits>, 3)"
            assert _shown({huge}) == "<set>"
        finally:
            sys.set_int_max_str_digits(cap)


def test_huge_witt_tables_are_refused_before_any_solve(clear_caches, monkeypatch):
    # each of these valid links needs the Witt sums far past the cap on
    # their two tables: refused from the estimate, never allocated
    import linkrank as lr

    def refuse(weights, n):
        raise AssertionError(f"solved the Witt sums of {weights} to degree {n}")

    clear_caches()
    monkeypatch.setattr(liedim, "_solve_dim_sums", refuse)
    huge = 10 ** 5000
    calls = [
        lambda: lr.link_rank(10 ** 20, (10 ** 20 - 3,)),
        lambda: lr.brunnian_rank(10 ** 20, (10 ** 20 - 3,) * 2),
        lambda: lr.fully_framed_is_infinite(10 ** 20, (10 ** 20 - 3,)),
        lambda: lr.weighted_dim_sums((1,), 10 ** 20),
        lambda: lr.equal_dim_rank(huge, 3, 2),
        lambda: lr.handlebody_report(huge, (3,)),
        lambda: lr.link_is_infinite(10 ** 12, (10 ** 12 - 3,)),
        lambda: lr.link_rank(100003, (100000,) * 3),
    ]
    for call in calls:
        with pytest.raises(ResourceLimitError, match="^the Witt sums of weights .* over the "
                           f"cap of {liedim._MAX_DIM_SUMS_BITS}$"):
            call()


def test_brunnian_report_ignores_component_order():
    for m in range(5, 15):
        for size in (2, 3):
            for dims in itertools.combinations(range(1, m - 2), size):
                forward, backward = brunnian_rank(m, dims), brunnian_rank(m, dims[::-1])
                assert (forward.rank, forward.infinite) == (backward.rank, backward.infinite)


def test_two_component_equal_dims_integer_ratio_criterion():
    # with both dimensions equal the verdict reduces to an integer test on
    # (m-3)/(m-p-2), with a short list of excluded values per parity
    for m in range(5, 43):
        for p in range(2, m - 2):
            t = Fraction(m - 3, m - p - 2)
            forbidden = {5} if (m - p) % 2 == 1 else {3, 5, 7}
            expected = t.denominator == 1 and int(t) not in forbidden
            assert brunnian_is_infinite(m, (p, p)) == expected


def test_equal_dim_rank_examples():
    assert equal_dim_rank(6, 3, 2) == 4
    assert equal_dim_rank(7, 4, 2) == 1
    assert equal_dim_rank(12, 3, 2) == 0


def test_equal_dim_rank_many_components_matches_general_formula():
    # six components in S^60: 6.5 million multidegrees, out of reach term by term
    assert link_rank(60, (57,) * 6).total_rank == equal_dim_rank(60, 57, 6)


def test_equal_dim_rank_rejects_p_one():
    with pytest.raises(InvalidInputError,
                       match="^the equal-dimension form needs p > 1, got p=1$"):
        equal_dim_rank(6, 1, 2)
    with pytest.raises(InvalidInputError, match="^need at least one component, got r=0$"):
        equal_dim_rank(6, 3, 0)


def test_equal_dim_rank_refuses_more_components_than_the_cap(monkeypatch):
    # m and p are checked first, so a bad p is still invalid input; then
    # r over the cap is refused before any link of r components is built
    monkeypatch.setattr(ranks, "_MAX_TERMS", 5)
    assert equal_dim_rank(6, 3, 5) == link_rank(6, (3,) * 5).total_rank
    with pytest.raises(ResourceLimitError, match="^equal_dim_rank of r=6 components is "
                       "over the cap of 5$"):
        equal_dim_rank(6, 3, 6)
    for r, shown in [(2 ** 63, str(2 ** 63)), (10 ** 5000, "<number of 16610 bits>")]:
        with pytest.raises(ResourceLimitError, match=f"r={shown} components"):
            equal_dim_rank(6, 3, r)
        with pytest.raises(InvalidInputError, match="codimension must exceed 2"):
            equal_dim_rank(6, 4, r)


def test_brunnian_rank_grows_with_dimension():
    low = brunnian_rank(15, (12, 12)).rank
    high = brunnian_rank(30, (27, 27)).rank
    assert high > low

