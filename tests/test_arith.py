import math

import pytest
from hypothesis import given, strategies as st

from linkrank.arith import _squarefree_divisors, as_integer, divisors, moebius, multinomial
from linkrank.errors import InvalidInputError
from linkrank.fcs import fcs_contains, fcs_enumerate
from linkrank.framed import (framed_knot_is_infinite, framed_rank, fully_framed_is_infinite,
                             handlebody_report, mcg_finite_index)
from linkrank.liedim import lie_component_dim, multiplicity, witt, witt_super
from linkrank.oracle import (component_dim_bruteforce, left_normed_bracket, super_bracket,
                             verify_range)
from linkrank.ranks import brunnian_rank, link_rank
from linkrank.stiefel import so_rank, stiefel_rank


def test_moebius_small_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 36: 0, 210: 1}
    for n, mu in expected.items():
        assert moebius(n) == mu


def test_moebius_divisor_sum_identity():
    # sum of mu over the divisors of n vanishes for every n > 1
    for n in range(2, 301):
        assert sum(moebius(d) for d in divisors(n)) == 0
    assert sum(moebius(d) for d in divisors(1)) == 1


def test_moebius_rejects_nonpositive():
    with pytest.raises(InvalidInputError):
        moebius(0)
    with pytest.raises(InvalidInputError):
        moebius(-4)


def test_divisors_sorted_and_complete():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]
    for n in range(1, 200):
        ds = divisors(n)
        assert ds == sorted(ds)
        assert len(ds) == len(set(ds))
        assert all(n % d == 0 for d in ds)
        assert all(d in ds for d in range(1, n + 1) if n % d == 0)


def test_squarefree_divisors_are_the_divisors_with_nonzero_moebius():
    # the one trial division agrees with listing every divisor and factoring
    # each one again, (1, 1) first and no divisor twice
    for n in range(1, 5001):
        pairs = _squarefree_divisors(n)
        assert pairs[0] == (1, 1)
        assert len(pairs) == len(dict(pairs))
        assert dict(pairs) == {d: moebius(d) for d in divisors(n) if moebius(d)}


def test_multinomial_values():
    assert multinomial([0]) == 1
    assert multinomial([3]) == 1
    assert multinomial([1, 1]) == 2
    assert multinomial([2, 1]) == 3
    assert multinomial([2, 2]) == 6
    assert multinomial([1, 1, 1]) == 6
    assert multinomial([4, 3, 2]) == 1260


def test_multinomial_matches_factorial_quotient():
    parts = [3, 1, 4, 1, 5]
    total = sum(parts)
    denom = 1
    for part in parts:
        denom *= math.factorial(part)
    assert multinomial(parts) == math.factorial(total) // denom


@given(st.lists(st.integers(0, 60), max_size=8))
def test_multinomial_is_the_factorial_quotient(parts):
    assert multinomial(parts) == (math.factorial(sum(parts))
                                  // math.prod(map(math.factorial, parts)))


def test_multinomial_of_a_huge_part_builds_no_factorial():
    # a running product of binomials: one part is C(n, n), and (1, n) is
    # C(1, 1) C(n + 1, n)
    assert multinomial([10**6]) == 1
    assert multinomial([1, 10**6]) == 10**6 + 1


def test_multinomial_order_invariant():
    assert multinomial([2, 5, 1]) == multinomial([5, 1, 2])


def test_multinomial_rejects_negative_part():
    with pytest.raises(InvalidInputError):
        multinomial([2, -1])


def test_as_integer_rejects_non_integers():
    assert as_integer(7, "n") == 7
    for bad in (7.0, 6.9, True, False, "7", None):
        with pytest.raises(InvalidInputError):
            as_integer(bad, "n")
    # public entry points that used to truncate, coerce or raise a bare TypeError
    for call in (lambda: lie_component_dim((1, 1), (1.9, 1)),
                 lambda: multiplicity((1, 1), (1.9, 1)),
                 lambda: witt(4.0, 2),
                 lambda: witt("4", 2),
                 lambda: witt_super(6, 3.0, 2),
                 lambda: witt_super(6.0, 3, 2),
                 lambda: witt_super("6", 3, 2),
                 lambda: so_rank(3.0, 4),
                 lambda: stiefel_rank(3.0, 4, 2),
                 lambda: stiefel_rank("3", 4, 2),
                 lambda: framed_knot_is_infinite(8, 5, "a"),
                 lambda: fcs_contains(True, 0, 1, 1),
                 lambda: verify_range(1.9, 1.9, 3.7),
                 lambda: component_dim_bruteforce((1, 1), (1, 1), budget=2.5),
                 # malformed shapes, that used to raise a bare TypeError or ValueError
                 lambda: link_rank(8, 5),
                 lambda: brunnian_rank(8, None),
                 lambda: fully_framed_is_infinite(8, 5),
                 lambda: framed_rank(8, 5),
                 lambda: framed_rank(8, (5, 3)),
                 lambda: framed_rank(8, ((5,),)),
                 lambda: lie_component_dim(5, (1,)),
                 lambda: multiplicity((1,), 3),
                 lambda: handlebody_report(9, 5),
                 lambda: mcg_finite_index(8, 5),
                 lambda: multinomial(5),
                 # number theory that used to read 2.5 as having no divisors,
                 # True as 1 or 6.0 as 6, or raise a bare TypeError
                 lambda: divisors(2.5),
                 lambda: divisors(True),
                 lambda: moebius(6.0),
                 lambda: moebius("6"),
                 lambda: multinomial([1.5, 2]),
                 lambda: multinomial([True, 2]),
                 # oracle brackets that used to raise a bare TypeError or
                 # AttributeError
                 lambda: left_normed_bracket((0,), "3"),
                 lambda: left_normed_bracket(None, (1,)),
                 lambda: left_normed_bracket((0,), ((3, 3),)),
                 lambda: super_bracket((), (), (1,)),
                 lambda: super_bracket({(0,): 1}, {(1,): 1}, None),
                 lambda: super_bracket({(0,): "a"}, {(1,): 1}, (1, 1)),
                 lambda: super_bracket({frozenset({0}): 1}, {(1,): 1}, (1, 1))):
        with pytest.raises(InvalidInputError):
            call()


def test_entry_points_reject_out_of_range_values():
    # integers of the right shape outside the domain of the entry point
    for call in (lambda: divisors(0),
                 lambda: fcs_enumerate("odd", "even", 0, 5),
                 lambda: handlebody_report(9, ()),
                 lambda: handlebody_report(9, (0, 6)),
                 lambda: mcg_finite_index(8, ()),
                 lambda: lie_component_dim((1, 2), (1,)),
                 lambda: witt(0, 2),
                 lambda: witt_super(2, 0, 2),
                 lambda: component_dim_bruteforce((1,), (1,), budget=0),
                 lambda: component_dim_bruteforce((1,), (-1,)),
                 lambda: left_normed_bracket((), (1,)),
                 lambda: verify_range(0, 1, 1)):
        with pytest.raises(InvalidInputError):
            call()
