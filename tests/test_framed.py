import pytest
from hypothesis import given, settings, strategies as st

from linkrank import cli, framed
from linkrank.errors import InternalConsistencyError, InvalidInputError
from linkrank.framed import (
    framed_knot_is_infinite,
    framed_rank,
    fully_framed_is_infinite,
    handlebody_report,
    mcg_finite_index,
)
from linkrank.ranks import link_rank


def test_framed_problem_validation():
    fp = framed_rank(8, ((5, 3), (5, 3)))
    assert fp.p == (5, 5)
    assert fp.l == (3, 3)
    for components in (((6, 1),), ((5, 4),), ((5, -1),)):
        with pytest.raises(InvalidInputError):
            framed_rank(8, components)
        with pytest.raises(InvalidInputError):
            framed_knot_is_infinite(8, *components[0])
    with pytest.raises(InvalidInputError):
        framed_rank(8, ())


def test_framed_rank_examples():
    assert framed_rank(6, ((3, 0), (3, 0))).total_rank == 4
    assert framed_rank(6, ((3, 3),)).total_rank == 2
    assert framed_rank(8, ((5, 3), (5, 3))).total_rank == 0


def test_framed_rank_report_fields():
    report = framed_rank(6, ((3, 3),))
    assert report.stiefel_ranks == (1,)
    assert report.link_report.total_rank == 1
    assert report.total_rank == report.link_report.total_rank + sum(report.stiefel_ranks)
    assert report.infinite is True


def test_unframed_components_reduce_to_link_rank():
    for m in range(5, 13):
        for p1 in range(1, m - 2):
            for p2 in range(p1, m - 2):
                framed = framed_rank(m, ((p1, 0), (p2, 0)))
                assert framed.total_rank == link_rank(m, (p1, p2)).total_rank
                assert framed.stiefel_ranks == (0, 0)


def test_framed_knot_verdicts():
    assert framed_knot_is_infinite(7, 3, 1) is True
    assert framed_knot_is_infinite(8, 5, 3) is False
    with pytest.raises(InvalidInputError):
        framed_knot_is_infinite(8, 4, 0)
    with pytest.raises(InvalidInputError):
        framed_knot_is_infinite(7, 5, 1)


def test_fully_framed_verdicts():
    assert fully_framed_is_infinite(8, (5, 5)) is False
    assert fully_framed_is_infinite(8, (5, 5, 5)) is True
    assert fully_framed_is_infinite(7, (3,)) is True


def test_full_framing_check_fires(monkeypatch):
    # (9; 3): link rank 0, framed rank 1 from stiefel_rank(3, 6, 6); only a
    # framed-knot bullet makes the verdict infinite, and without them the
    # criterion says finite, against that rank
    assert link_rank(9, (3,)).total_rank == 0
    assert framed_rank(9, ((3, 6),)).total_rank == 1
    assert fully_framed_is_infinite(9, (3,)) is True
    assert handlebody_report(10, (4,)).sets_finite is None
    monkeypatch.setattr(framed, "_framed_knot_infinite", lambda m, p, l: False)
    with pytest.raises(InternalConsistencyError, match=r"^framed criterion says False "
                       r"but the framed rank is 1 for m=9, p=\(3,\), l=\(6,\)$"):
        fully_framed_is_infinite(9, (3,))
    # the handlebody of one 4-handle in dimension 10 induces the same (9; 3)
    with pytest.raises(InternalConsistencyError, match=r"^framed criterion says False "
                       r"but the framed rank is 1 for m=9, p=\(3,\), l=\(6,\)$"):
        handlebody_report(10, (4,))


def test_framed_knot_check_fires(monkeypatch):
    # (7; 3, 1): framed rank 1, so the criterion must say infinite
    assert framed_rank(7, ((3, 1),)).total_rank == 1
    monkeypatch.setattr(framed, "_framed_knot_infinite", lambda m, p, l: False)
    with pytest.raises(InternalConsistencyError, match=r"^framed criterion says False "
                       r"but the framed rank is 1 for m=7, p=\(3,\), l=\(1,\)$"):
        framed_knot_is_infinite(7, 3, 1)


def test_every_framed_report_checks_its_verdict(monkeypatch, capsys):
    # framed_rank and the CLI's framed command read the verdict of the one
    # framed criterion, checked against the framed rank 1 of (7; 3, 1)
    monkeypatch.setattr(framed, "_framed_knot_infinite", lambda m, p, l: False)
    with pytest.raises(InternalConsistencyError, match="^framed criterion says False"):
        framed_rank(7, ((3, 1),))
    assert cli.main(["framed", "7", "3:1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("internal consistency failure: framed criterion says False")


@settings(max_examples=200, deadline=None)
@given(st.integers(-2, 40), st.lists(st.integers(1, 40), min_size=1, max_size=6))
def test_handlebody_regime_matches_the_pairwise_conditions(m_plus_1, handle_dims):
    # the reference: both conditions on 2a - b over every pair of dims
    m = m_plus_1 - 1
    dims = [v - 1 for v in handle_dims]
    weak = all(2 * a - b + 2 <= m and 2 * a - b >= 1 for a in dims for b in dims)
    strict = all(2 * a - b + 2 < m and 2 * a - b > 1 for a in dims for b in dims)
    report = handlebody_report(m_plus_1, handle_dims)
    assert report.weak_conditions_hold is weak
    assert report.strict_conditions_hold is strict
    if not strict:
        assert report.group_rank is None


def test_a_handlebody_of_many_handles_answers():
    # the regime is read from the smallest and largest handle; (8; 5^20000)
    # is infinite, with its framed rank as the group rank
    report = handlebody_report(9, (6,) * 20000)
    assert report.strict_conditions_hold is True
    assert report.sets_finite is None
    assert report.group_rank == 159999998000000004000


def test_handlebody_reports():
    finite = handlebody_report(9, (6, 6))
    assert finite.weak_conditions_hold is True
    assert finite.strict_conditions_hold is True
    assert finite.sets_finite is True
    assert finite.group_rank == 0

    ranked = handlebody_report(7, (4, 4))
    assert ranked.strict_conditions_hold is True
    assert ranked.sets_finite is None
    assert ranked.group_rank == framed_rank(6, ((3, 3), (3, 3))).total_rank

    # handles of dimensions 5 and 6 in dimension 9, the framed link (8; 4, 5):
    # 2 * 5 - 4 + 2 = 8 meets the weak bound but not the strict one, so the
    # sets are finite, with no group rank
    weak = handlebody_report(9, (5, 6))
    assert weak.weak_conditions_hold is True
    assert weak.strict_conditions_hold is False
    assert weak.sets_finite is True
    assert weak.group_rank is None

    single = handlebody_report(14, (8,))
    assert single.group_rank == framed_rank(13, ((7, 6),)).total_rank
    assert single.group_rank == 1


def test_handlebody_out_of_regime_is_inconclusive():
    report = handlebody_report(12, (3, 9))
    assert report.weak_conditions_hold is False
    assert report.sets_finite is None
    assert report.group_rank is None


def test_framed_non_integer_inputs_are_rejected():
    for bad in (8.0, 5.5, True, "5"):
        for m, p, l in ((bad, 5, 3), (8, bad, 3), (8, 5, bad)):
            with pytest.raises(InvalidInputError):
                framed_rank(m, ((p, l),))
            with pytest.raises(InvalidInputError):
                framed_knot_is_infinite(m, p, l)
        with pytest.raises(InvalidInputError):
            handlebody_report(bad, (6, 6))
        with pytest.raises(InvalidInputError):
            handlebody_report(9, (6, bad))


def test_mcg_verdicts():
    assert mcg_finite_index(8, (5, 5)) is True
    # the parameters are named as in link_rank(m, dims)
    assert mcg_finite_index(m=8, dims=(5, 5)) is True
    assert mcg_finite_index(8, (5, 5, 5)) is False
    assert mcg_finite_index(4, (2, 2)) is None
    assert mcg_finite_index(9, (3, 5)) is None
    # every p >= m // 2, but 6 breaks the codimension rule p < m - 2
    assert mcg_finite_index(8, (6, 5)) is None
