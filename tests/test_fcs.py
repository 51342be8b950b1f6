import pytest

from linkrank import fcs
from linkrank.errors import InvalidInputError, ResourceLimitError
from linkrank.fcs import fcs_contains, fcs_enumerate
from linkrank.liedim import multiplicity

PARITY_WEIGHT = {"even": 2, "odd": 1}


def test_membership_examples():
    assert fcs_contains("even", "even", 1, 1) is True
    assert fcs_contains("even", "even", 2, 3) is False
    assert fcs_contains("odd", "even", 2, 3) is True
    assert fcs_contains("odd", "odd", 2, 6) is True


def test_parity_accepts_integers():
    assert fcs_contains(4, 7, 2, 3) == fcs_contains("even", "odd", 2, 3)
    assert fcs_contains(3, 3, 1, 1) is True


def test_reflection_symmetry():
    for x in range(1, 13):
        for y in range(1, 13):
            assert fcs_contains("even", "odd", x, y) == fcs_contains(
                "odd", "even", y, x
            )


def test_membership_matches_positive_multiplicity():
    # the set is exactly the positivity locus of the two-generator
    # multiplicity, which only sees weight parities
    for i in ("even", "odd"):
        for j in ("even", "odd"):
            weights = (PARITY_WEIGHT[i], PARITY_WEIGHT[j])
            for x in range(1, 9):
                for y in range(1, 9):
                    member = fcs_contains(i, j, x, y)
                    assert member == (multiplicity(weights, (x, y)) > 0)


def test_enumerate_boxes():
    assert set(fcs_enumerate("even", "even", 3, 3)) == {(1, 1), (2, 2), (3, 3)}
    assert set(fcs_enumerate("odd", "odd", 2, 2)) == {(1, 1), (1, 2), (2, 1), (2, 2)}
    for i, j in (("even", "even"), ("even", "odd"), ("odd", "even"), ("odd", "odd")):
        assert set(fcs_enumerate(i, j, 1, 1)) == {(1, 1)}


def test_enumerate_is_deterministic_and_sorted():
    points = fcs_enumerate("odd", "even", 10, 10)
    assert points == sorted(points)
    assert points == fcs_enumerate("odd", "even", 10, 10)
    assert all(fcs_contains("odd", "even", x, y) for x, y in points)


def test_invalid_inputs():
    for args, message in (
            (("even", "even", 0, 1), "membership is defined for x, y >= 1, got (0, 1)"),
            (("even", "even", 1, -2), "membership is defined for x, y >= 1, got (1, -2)"),
            (("sideways", "even", 1, 1),
             "parity must be an integer or 'even'/'odd', got 'sideways'"),
            ((("even",), 1, 1, 1), "a parity index must be an integer, got ('even',)")):
        with pytest.raises(InvalidInputError) as caught:
            fcs_contains(*args)
        assert str(caught.value) == message


def test_a_box_over_the_cap_is_refused_before_any_point(monkeypatch):
    # 100 000 x 100 000 is 10^10 points, which no list holds: the box is
    # refused by its size before a single point is tested
    def member(*args):
        raise AssertionError("a point of an over-cap box was tested")

    monkeypatch.setattr(fcs, "_member", member)
    with pytest.raises(ResourceLimitError, match=r"the box 100000 x 100000 holds "
                       r"10000000000 points, over the cap of 250000"):
        fcs_enumerate("odd", "even", 100_000, 100_000)
    with pytest.raises(ResourceLimitError):
        fcs_enumerate("odd", "even", 1, fcs._MAX_BOX + 1)


def test_the_box_cap_admits_exactly_its_size():
    # the even-even family meets the row y = 1 only at x = 1
    assert fcs_enumerate("even", "even", fcs._MAX_BOX, 1) == [(1, 1)]
