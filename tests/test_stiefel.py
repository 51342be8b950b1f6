import pytest

from linkrank.errors import InvalidInputError
from linkrank.stiefel import so_rank, stiefel_rank


def test_so_rank_values():
    assert so_rank(3, 4) == 2
    assert so_rank(7, 6) == 1
    assert so_rank(5, 6) == 1
    assert so_rank(2, 5) == 0
    assert so_rank(5, 8) == 0
    assert so_rank(7, 8) == 2


def test_so_rank_degenerate_arguments_give_zero():
    assert so_rank(0, 5) == 0
    assert so_rank(3, 1) == 0
    assert so_rank(-1, 4) == 0


def test_stiefel_rank_values():
    assert stiefel_rank(3, 4, 2) == 2
    assert stiefel_rank(3, 4, 1) == 1
    assert stiefel_rank(2, 3, 1) == 1
    assert stiefel_rank(4, 3, 1) == 0


def test_stiefel_rank_zero_frames_is_zero():
    for p in range(1, 10):
        for q in range(1, 10):
            assert stiefel_rank(p, q, 0) == 0


def test_stiefel_rank_invalid_inputs():
    for args, shown in (((3, 4, 5), "p=3, q=4, l=5"), ((3, 4, -1), "p=3, q=4, l=-1"),
                        ((0, 4, 1), "p=0, q=4, l=1"),
                        ((3, 4, 10 ** 5000), "p=3, q=4, l=<number of 16610 bits>")):
        with pytest.raises(InvalidInputError) as caught:
            stiefel_rank(*args)
        assert str(caught.value) == f"need p >= 1, q >= 1 and 0 <= l <= q, got {shown}"


def test_rank_bounded_by_fibration_neighbours():
    for p in range(1, 21):
        for q in range(1, 21):
            for l in range(0, q + 1):
                value = stiefel_rank(p, q, l)
                assert value in (0, 1, 2)
                assert value <= so_rank(p, q) + so_rank(p - 1, q - l)


def _so_generator_degrees(q):
    # rational generators of SO(q): degree 4i - 1 for 1 <= i < q/2, and
    # the Euler class in degree q - 1 when q is even
    degrees = [4 * i - 1 for i in range(1, (q + 1) // 2)]
    return degrees + [q - 1] if q % 2 == 0 else degrees


def test_so_rank_is_the_stiefel_rank_of_q_minus_one_frames():
    for p in range(1, 80):
        for q in range(2, 80):
            value = so_rank(p, q)
            assert value == _so_generator_degrees(q).count(p)
            assert value == stiefel_rank(p, q, q - 1)
