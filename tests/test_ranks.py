import itertools
from collections import Counter, defaultdict
from fractions import Fraction
from types import MappingProxyType

import pytest

from linkrank import liedim, ranks
from linkrank.errors import InvalidInputError, ResourceLimitError
from linkrank.framed import framed_rank, handlebody_report
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
    with pytest.raises(InvalidInputError):
        link_rank(5, (3, 3))
    with pytest.raises(InvalidInputError):
        link_rank(6, (0, 3))
    with pytest.raises(InvalidInputError):
        link_rank(6, ())


@pytest.mark.parametrize("make, text, cached", [
    (lambda: link_rank(6, (3, 3)),
     "RankReport(m=6, p=(3, 3), total_rank=4, brunnian_rank=2, knot_ranks=(1, 1), "
     "infinite=True)", ("contributions", "subset_decomposition")),
    (lambda: brunnian_rank(6, (3, 3)),
     "BrunnianRank(m=6, p=(3, 3), rank=2)", ("contributions", "infinite")),
    (lambda: framed_rank(6, ((3, 3),)),
     "FramedRankReport(m=6, p=(3,), l=(3,), total_rank=2, link_report=RankReport("
     "m=6, p=(3,), total_rank=1, brunnian_rank=None, knot_ranks=(1,), infinite=True), "
     "stiefel_ranks=(1,), infinite=True)", ()),
    (lambda: handlebody_report(9, (6, 6)),
     "HandlebodyReport(m_plus_1=9, handle_dims=(6, 6), weak_conditions_hold=True, "
     "strict_conditions_hold=True, sets_finite=True, group_rank=0)", ()),
], ids=["RankReport", "BrunnianRank", "FramedRankReport", "HandlebodyReport"])
def test_report_contract(clear_caches, make, text, cached):
    # a report is read-only: link_rank hands one cached report to every
    # caller, and each attribute cached on first access is handed out as is
    report = make()
    assert repr(report) == text
    clear_caches()
    assert make() == report
    for name in report._fields + ("note",):
        with pytest.raises(AttributeError):
            setattr(report, name, None)
    for name in cached:
        value = getattr(report, name)
        assert getattr(report, name) is value
        with pytest.raises(AttributeError):
            setattr(report, name, None)
        with pytest.raises(AttributeError):
            delattr(report, name)
        assert getattr(report, name) is value
    if "subset_decomposition" in cached:
        assert isinstance(report.subset_decomposition, MappingProxyType)


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
    with pytest.raises(InvalidInputError):
        brunnian_rank(6, (3,))
    with pytest.raises(InvalidInputError):
        brunnian_is_infinite(6, (3,))


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
    # the report is cached: a caller writing into it would change every
    # later answer for the same problem
    report = link_rank(6, (3, 3))
    with pytest.raises(TypeError):
        report.subset_decomposition[(1,)] = 99
    assert sum(link_rank(6, (3, 3)).subset_decomposition.values()) == 4


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
    with pytest.raises(ResourceLimitError, match="has 6471002 contributions"):
        report.contributions
    with pytest.raises(ResourceLimitError, match="has 3819816 contributions"):
        brunnian_rank(60, (57,) * 6).contributions
    # 18 components: 1140 terms, but 2^18 - 1 component subsets
    report = link_rank(6, (3,) * 18)
    assert len(report.contributions) == 1140
    with pytest.raises(ResourceLimitError, match="lists 262143 component subsets"):
        report.subset_decomposition


@pytest.mark.parametrize("read, size", [
    (lambda: link_rank(6, (3, 3)).contributions, 4),
    (lambda: brunnian_rank(6, (3, 3)).contributions, 2),
    (lambda: link_rank(6, (3, 3)).subset_decomposition, 3),
], ids=["contributions", "brunnian contributions", "decomposition"])
def test_the_cap_admits_exactly_its_size(monkeypatch, read, size):
    # a report keeps what it has listed, so each cap reads a fresh one
    monkeypatch.setattr(ranks, "_MAX_TERMS", size)
    ranks._link_report.cache_clear()
    assert len(read()) == size
    monkeypatch.setattr(ranks, "_MAX_TERMS", size - 1)
    ranks._link_report.cache_clear()
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
    real_sums, real_solve = ranks._weighted_dim_sums, liedim._solve_dim_sums

    def sums(weights, n):
        requested[weights].add(n)
        return real_sums(weights, n)

    def solve(weights, n):
        solves[weights] += 1
        return real_solve(weights, n)

    monkeypatch.setattr(ranks, "_weighted_dim_sums", sums)
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


@pytest.fixture
def no_walk_of_three(clear_caches, monkeypatch):
    # three or more weights are decided by the count and listed only when
    # it is nonzero: the count is the independent check the walk is held
    # to, so a verdict or an empty listing must not rest on the walk
    real = ranks._solutions

    def walk(weights, target, lower_bounds):
        if len(weights) >= 3:
            raise AssertionError(f"walked the solutions for weights {weights}")
        return real(weights, target, lower_bounds)

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
    with pytest.raises(InvalidInputError):
        equal_dim_rank(6, 1, 2)
    with pytest.raises(InvalidInputError):
        equal_dim_rank(6, 3, 0)


def test_brunnian_rank_grows_with_dimension():
    low = brunnian_rank(15, (12, 12)).rank
    high = brunnian_rank(30, (27, 27)).rank
    assert high > low

