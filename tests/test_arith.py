import enum
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from linkrank.arith import _multinomial, _squarefree_divisors, as_integer, as_integers
from linkrank.errors import InvalidInputError, _shown
from linkrank.fcs import fcs_contains, fcs_enumerate
from linkrank.framed import (framed_knot_is_infinite, framed_rank, fully_framed_is_infinite,
                             handlebody_report, mcg_finite_index)
from linkrank.liedim import lie_component_dim, multiplicity, witt, witt_super
from linkrank.oracle import (component_dim_bruteforce, left_normed_bracket, super_bracket,
                             verify_range)
from linkrank.ranks import brunnian_rank, link_rank
from linkrank.stiefel import so_rank, stiefel_rank


def _divisors(n):
    # every divisor of n, each d <= sqrt(n) with its cofactor n // d
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return {*small, *(n // d for d in small)}


def _moebius(n):
    # mu(n) by factoring n: 0 at a square factor, else (-1)^(number of primes)
    sign = 1
    d = 2
    while n > 1:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            sign = -sign
        d += 1
    return sign


def test_moebius_small_values():
    expected = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0,
                10: 1, 12: 0, 30: -1, 36: 0, 210: 1}
    for n, mu in expected.items():
        assert dict(_squarefree_divisors(n)).get(n, 0) == mu


def test_moebius_divisor_sum_identity():
    # sum of mu over the divisors of n vanishes for every n > 1, both for the
    # signs _squarefree_divisors lists and for the factoring reference
    for n in range(2, 301):
        assert sum(_moebius(d) for d in _divisors(n)) == 0
        assert sum(mu for _, mu in _squarefree_divisors(n)) == 0
    assert sum(_moebius(d) for d in _divisors(1)) == 1
    assert sum(mu for _, mu in _squarefree_divisors(1)) == 1


def test_squarefree_divisors_are_the_divisors_with_nonzero_moebius():
    # the one trial division agrees with listing every divisor and factoring
    # each one again, (1, 1) first and no divisor twice; the signs sum to
    # [n == 1], the Moebius divisor-sum identity
    for n in range(1, 5001):
        pairs = _squarefree_divisors(n)
        assert pairs[0] == (1, 1)
        assert len(pairs) == len(dict(pairs))
        assert dict(pairs) == {d: _moebius(d) for d in _divisors(n) if _moebius(d)}
        assert sum(mu for _, mu in pairs) == (n == 1)


def test_squarefree_divisors_are_cached_tuples(clear_caches):
    # each n is trial-divided once per process: a repeated n returns the
    # same tuple of (d, mu(d)) pairs, which no caller can change, and
    # clearing the package's caches empties this one
    clear_caches()
    assert _squarefree_divisors.cache_info().currsize == 0
    # primes above 10^6, prime powers past 10^6, and a product of both kinds
    large = (1_000_003, 1_000_033, 2 ** 21, 3 ** 13, 1009 ** 2, 101 ** 3 * 7)
    for n in (*range(1, 3001), *large):
        pairs = _squarefree_divisors(n)
        assert type(pairs) is tuple and all(type(pair) is tuple for pair in pairs)
        assert dict(pairs) == {d: _moebius(d) for d in _divisors(n) if _moebius(d)}, n
        assert _squarefree_divisors(n) is pairs
    clear_caches()
    assert _squarefree_divisors.cache_info().currsize == 0


def test_multinomial_values():
    assert _multinomial([0]) == 1
    assert _multinomial([3]) == 1
    assert _multinomial([1, 1]) == 2
    assert _multinomial([2, 1]) == 3
    assert _multinomial([2, 2]) == 6
    assert _multinomial([1, 1, 1]) == 6
    assert _multinomial([4, 3, 2]) == 1260


def test_multinomial_matches_factorial_quotient():
    parts = [3, 1, 4, 1, 5]
    total = sum(parts)
    denom = 1
    for part in parts:
        denom *= math.factorial(part)
    assert _multinomial(parts) == math.factorial(total) // denom


@given(st.lists(st.integers(0, 60), max_size=8))
def test_multinomial_is_the_factorial_quotient(parts):
    assert _multinomial(parts) == (math.factorial(sum(parts))
                                   // math.prod(map(math.factorial, parts)))


def test_multinomial_of_a_huge_part_builds_no_factorial():
    # a running product of binomials: one part is C(n, n), and (1, n) is
    # C(1, 1) C(n + 1, n)
    assert _multinomial([10**6]) == 1
    assert _multinomial([1, 10**6]) == 10**6 + 1


def test_multinomial_order_invariant():
    assert _multinomial([2, 5, 1]) == _multinomial([5, 1, 2])


def test_as_integer_returns_exact_ints():
    # an int is handed back as it is; an int subclass (bool aside) and an
    # __index__ object come back as plain ints, which the caches key on
    class Count(enum.IntEnum):
        FIVE = 5

    class Index:
        def __index__(self):
            return 5

    huge = 10**50
    assert as_integer(huge, "n") is huge
    for value in (Count.FIVE, Index()):
        result = as_integer(value, "n")
        assert type(result) is int and result == 5
    assert link_rank(8, (Count.FIVE, Index())) == link_rank(8, (5, 5))


def test_as_integer_rejects_non_integers():
    assert as_integer(7, "n") == 7
    for bad, shown in ((7.0, "7.0"), (6.9, "6.9"), (True, "True"), (False, "False"),
                       ("7", "'7'"), (None, "None")):
        with pytest.raises(InvalidInputError) as caught:
            as_integer(bad, "n")
        assert str(caught.value) == f"n must be an integer, got {shown}"
    # public entry points that used to truncate, coerce or raise a bare TypeError
    for call, message in (
            (lambda: lie_component_dim((1, 1), (1.9, 1)),
             "a multidegree entry must be an integer, got 1.9"),
            (lambda: multiplicity((1, 1), (1.9, 1)),
             "a multidegree entry must be an integer, got 1.9"),
            (lambda: witt(4.0, 2), "the necklace length t must be an integer, got 4.0"),
            (lambda: witt("4", 2), "the necklace length t must be an integer, got '4'"),
            (lambda: witt_super(6, 3.0, 2), "the parity carrier s must be an integer, got 3.0"),
            (lambda: witt_super(6.0, 3, 2),
             "the degree t, unless a Fraction, must be an integer, got 6.0"),
            (lambda: witt_super("6", 3, 2),
             "the degree t, unless a Fraction, must be an integer, got '6'"),
            (lambda: so_rank(3.0, 4), "the homotopy degree p must be an integer, got 3.0"),
            (lambda: stiefel_rank(3.0, 4, 2), "the homotopy degree p must be an integer, got 3.0"),
            (lambda: stiefel_rank("3", 4, 2), "the homotopy degree p must be an integer, got '3'"),
            (lambda: framed_knot_is_infinite(8, 5, "a"), "a frame count must be an integer, got 'a'"),
            (lambda: fcs_contains(True, 0, 1, 1), "a parity index must be an integer, got True"),
            (lambda: verify_range(1.9, 1.9, 3.7), "max_r must be an integer, got 1.9"),
            (lambda: component_dim_bruteforce((1, 1), (1, 1), budget=2.5),
             "the letter budget must be an integer, got 2.5"),
            # malformed shapes, that used to raise a bare TypeError or ValueError
            (lambda: link_rank(8, 5), "component dimensions must be a sequence of integers, got 5"),
            (lambda: brunnian_rank(8, None),
             "component dimensions must be a sequence of integers, got None"),
            (lambda: fully_framed_is_infinite(8, 5),
             "component dimensions must be a sequence of integers, got 5"),
            (lambda: framed_rank(8, 5), "a framed link is a sequence of (p, l) pairs, got 5"),
            (lambda: framed_rank(8, (5, 3)),
             "a framed link is a sequence of (p, l) pairs, got (5, 3)"),
            (lambda: framed_rank(8, ((5,),)),
             "a framed link is a sequence of (p, l) pairs, got ((5,),)"),
            (lambda: lie_component_dim(5, (1,)),
             "generator weights must be a sequence of integers, got 5"),
            (lambda: multiplicity((1,), 3), "a multidegree must be a sequence of integers, got 3"),
            (lambda: handlebody_report(9, 5),
             "handle dimensions must be a sequence of integers, got 5"),
            (lambda: mcg_finite_index(8, 5),
             "component dimensions must be a sequence of integers, got 5"),
            # oracle brackets that used to raise a bare TypeError or
            # AttributeError
            (lambda: left_normed_bracket((0,), "3"), "a parity must be an integer, got '3'"),
            (lambda: left_normed_bracket(None, (1,)),
             "a word must be a sequence of integers, got None"),
            (lambda: left_normed_bracket((0,), ((3, 3),)),
             "a parity must be an integer, got (3, 3)"),
            (lambda: super_bracket((), (), (1,)),
             "a polynomial must be a dict word -> coefficient, got ()"),
            (lambda: super_bracket({(0,): 1}, {(1,): 1}, None),
             "parities must be a sequence of integers, got None"),
            (lambda: super_bracket({(0,): "a"}, {(1,): 1}, (1, 1)),
             "a coefficient must be an integer, got 'a'"),
            (lambda: super_bracket({frozenset({0}): 1}, {(1,): 1}, (1, 1)),
             "a word must be a tuple of letters, got frozenset({0})")):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message


class _Count(enum.IntEnum):
    TWO = 2
    THREE = 3


class _Index:
    # an __index__ object; its value may be a non-int, which index rejects
    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def _as_integers_reference(values, what, whole):
    # as_integers entry by entry: each entry through as_integer, a values
    # that is not iterable named as `whole`
    try:
        return tuple(as_integer(v, what) for v in values)
    except TypeError:
        raise InvalidInputError(
            f"{whole} must be a sequence of integers, got {_shown(values)}") from None


def _outcome(call):
    # a result entry by entry with each entry's type, or an exception's type
    # and message
    try:
        result = call()
    except Exception as exc:
        return type(exc), str(exc)
    return type(result), [(type(v), v) for v in result]


_ENTRIES = st.one_of(
    st.integers(), st.integers(-10**700, 10**700), st.booleans(), st.sampled_from(_Count),
    st.builds(_Index, st.one_of(st.integers(), st.floats(allow_nan=False), st.none())),
    st.floats(), st.text(max_size=3), st.fractions(), st.none())


@given(st.lists(st.one_of(st.integers(), _ENTRIES), max_size=6),
       st.sampled_from(["tuple", "list", "generator", "dict", "str"]), st.text(max_size=4))
@example([3, True], "tuple", "")
@example([3, _Count.TWO, _Index(4)], "generator", "")
@example([3, _Index(2.0)], "list", "")
@example([], "str", "12")
def test_as_integers_equals_the_entry_by_entry_reference(entries, shape, text):
    # exact ints pass in one pass; anything else is converted or rejected
    # entry by entry, with the message the reference gives
    make = {"tuple": lambda: tuple(entries), "list": lambda: list(entries),
            "generator": lambda: (v for v in entries),
            "dict": lambda: dict.fromkeys(entries), "str": lambda: text}[shape]
    assert (_outcome(lambda: as_integers(make(), "an entry", "entries"))
            == _outcome(lambda: _as_integers_reference(make(), "an entry", "entries")))


@pytest.mark.parametrize("values", [(), 7, 10**700, None, 2.5, Fraction(1, 3)])
def test_as_integers_of_an_empty_or_non_iterable_values(values):
    assert (_outcome(lambda: as_integers(values, "an entry", "entries"))
            == _outcome(lambda: _as_integers_reference(values, "an entry", "entries")))


def test_entry_points_reject_out_of_range_values():
    # integers of the right shape outside the domain of the entry point, each
    # rejection naming the values it was given
    for call, message in (
            (lambda: fcs_enumerate("odd", "even", 0, 5), "box bounds must be >= 1, got (0, 5)"),
            (lambda: handlebody_report(9, ()), "need at least one handle"),
            (lambda: handlebody_report(9, (0, 6)), "handle dimensions must be >= 1, got (0, 6)"),
            (lambda: mcg_finite_index(8, ()), "need at least one component"),
            (lambda: lie_component_dim((1, 2), (1,)),
             "multidegree (1,) has 1 entries but the system has 2 generators"),
            (lambda: witt(0, 2), "witt(t, r) needs t >= 1 and r >= 1, got t=0, r=2"),
            (lambda: witt_super(2, 0, 2), "witt_super needs s >= 1 and r >= 1, got s=0, r=2"),
            (lambda: component_dim_bruteforce((1,), (1,), budget=0),
             "the letter budget must be >= 1, got 0"),
            (lambda: component_dim_bruteforce((1,), (-1,)),
             "multidegree entries must be >= 0, got (-1,)"),
            (lambda: left_normed_bracket((), (1,)), "the empty word has no bracket"),
            (lambda: verify_range(0, 1, 1),
             "need max_r, max_degree, max_letters >= 1, got (0, 1, 1)"),
            # exact ints that fail a range check name the first offender or
            # the whole weights
            (lambda: link_rank(6, (5, 0)),
             "codimension must exceed 2: component dimension 5 inside ambient dimension 6"),
            (lambda: link_rank(6, (0, 5)), "component dimensions must be >= 1, got 0"),
            (lambda: lie_component_dim((1, 0), (1, 1)),
             "generator weights must be positive, got (1, 0)"),
            (lambda: framed_rank(8, ((5, 9), (0, 1))),
             "component dimensions must be >= 1, got 0"),
            (lambda: framed_rank(8, ((5, 3), (5, 4), (3, -1))),
             "frame count must satisfy 0 <= l <= m - p, got l=4 for p=5, m=8")):
        with pytest.raises(InvalidInputError) as caught:
            call()
        assert str(caught.value) == message
