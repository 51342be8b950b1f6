import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from linkrank import liedim
from linkrank.arith import multinomial
from linkrank.errors import InternalConsistencyError, InvalidInputError
from linkrank.liedim import (
    _count_solutions,
    _dim,
    _multiplicity,
    _reach,
    _solutions,
    enumerate_diophantine,
    lie_component_dim,
    multiplicity,
    weighted_dim_sums,
    witt,
    witt_super,
)


def test_generator_system_validation():
    assert lie_component_dim((3, 1), (1, 1)) == 1
    for call in (lie_component_dim, multiplicity):
        with pytest.raises(InvalidInputError):
            call((), ())
        with pytest.raises(InvalidInputError):
            call((2, 0), (1, 1))


def test_component_dim_small_cases():
    assert lie_component_dim((1,), (2,)) == 1
    assert lie_component_dim((2,), (2,)) == 0
    assert lie_component_dim((1, 1), (2, 1)) == 1
    assert lie_component_dim((4, 7), (0, 0)) == 1
    assert lie_component_dim((1, 1), (-1, 2)) == 0


def test_component_dim_invariant_under_appended_zeros():
    for weights, x in [((1,), (3,)), ((2, 1), (2, 2)), ((3,), (4,))]:
        padded_w = weights + (5,)
        padded_x = x + (0,)
        assert lie_component_dim(padded_w, padded_x) == lie_component_dim(weights, x)


def test_dim_and_multiplicity_permutation_invariant():
    weights = (1, 2, 3)
    x = (2, 1, 3)
    base_d = lie_component_dim(weights, x)
    base_m = multiplicity(weights, x)
    for perm in itertools.permutations(range(3)):
        w2 = tuple(weights[i] for i in perm)
        x2 = tuple(x[i] for i in perm)
        assert lie_component_dim(w2, x2) == base_d
        assert multiplicity(w2, x2) == base_m


def test_dim_depends_only_on_weight_parity():
    for x in [(2, 1), (3, 3), (1, 4)]:
        assert lie_component_dim((1, 2), x) == lie_component_dim((3, 4), x)
        assert multiplicity((1, 2), x) == multiplicity((5, 2), x)


@st.composite
def parity_preserving_permutations(draw):
    # weights, x, and x with its entries moved by a permutation that sends
    # each coordinate to one whose weight has the same parity
    r = draw(st.integers(1, 5))
    weights = tuple(draw(st.lists(st.integers(1, 6), min_size=r, max_size=r)))
    x = tuple(draw(st.lists(st.integers(0, 6), min_size=r, max_size=r)))
    moved = [None] * r
    for parity in (0, 1):
        places = [k for k in range(r) if weights[k] % 2 == parity]
        for k, j in zip(places, draw(st.permutations(places))):
            moved[j] = x[k]
    return weights, x, tuple(moved)


@settings(max_examples=300, deadline=None)
@given(parity_preserving_permutations())
def test_swaps_within_a_parity_keep_dim_and_multiplicity(case):
    # the premise of ranks._contributions computing one multiplicity per
    # parity class of multidegrees
    weights, x, moved = case
    parities = tuple(a % 2 for a in weights)
    assert _dim(parities, moved) == _dim(parities, x)
    assert _multiplicity(parities, moved) == _multiplicity(parities, x)


def test_multiplicity_table_entries():
    assert multiplicity((2, 2), (4, 4)) == 2
    assert multiplicity((1, 2), (2, 3)) == 1
    assert multiplicity((1, 1), (2, 2)) == 1
    assert multiplicity((1, 1), (1, 1)) == 1


def test_single_generator_multiplicity_is_a_delta():
    # one generator: the only surviving component sits at 2 (even weight)
    # or 3 (odd weight)
    for a in range(1, 5):
        for t in range(1, 9):
            expected = 1 if t == (3 if a % 2 else 2) else 0
            assert multiplicity((a,), (t,)) == expected


def _moebius(n):
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


def _reference_dim(weights, x):
    # (-1)^deg(x) / |x| * sum over every divisor i of gcd(x) of
    # mu(i) (-1)^deg(x/i) |x/i|! / prod_k (x_k/i)!, in Fractions
    if min(x) < 0:
        return 0
    if max(x) == 0:
        return 1

    def sign(y):
        return (-1) ** sum(a * v for a, v in zip(weights, y))

    g = math.gcd(*x)
    acc = Fraction(0)
    for i in range(1, g + 1):
        if g % i == 0:
            xi = [v // i for v in x]
            term = Fraction(math.factorial(sum(xi)))
            for v in xi:
                term /= math.factorial(v)
            acc += _moebius(i) * sign(xi) * term
    value = sign(x) * acc / sum(x)
    assert value.denominator == 1 and value >= 0
    return int(value)


@st.composite
def weights_and_multidegrees(draw):
    # half the draws are g * y with g >= 2, so that gcd(x) > 1 and
    # gcd(x - e_k) > 1 both occur
    r = draw(st.integers(1, 6))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)))
    if draw(st.booleans()):
        g = draw(st.integers(2, 6))
        ys = draw(st.lists(st.integers(0, 12 // g), min_size=r, max_size=r))
        return weights, tuple(g * y for y in ys)
    return weights, tuple(draw(st.lists(st.integers(-1, 12), min_size=r, max_size=r)))


@settings(max_examples=300, deadline=None)
@given(weights_and_multidegrees())
def test_kernel_matches_the_full_divisor_sum(case):
    weights, x = case
    dim = _reference_dim(weights, x)
    assert lie_component_dim(weights, x) == dim
    below = sum(_reference_dim(weights, x[:k] + (x[k] - 1,) + x[k + 1:])
                for k in range(len(x)))
    assert multiplicity(weights, x) == below - dim
    if min(x) >= 0:
        # a product of binomials: choose the places of each letter in turn
        expected, placed = 1, 0
        for v in x:
            placed += v
            expected *= math.comb(placed, v)
        assert multinomial(x) == expected


@st.composite
def parities_and_multidegrees(draw):
    # each draw one of: x = 0, a negative entry, gcd(x) > 1, gcd(x - e_k) > 1
    # for a chosen k, or entries 0-12; r = 1 is one of the six lengths
    r = draw(st.integers(1, 6))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    kind = draw(st.sampled_from(("zero", "negative", "gcd of x", "gcd of x - e_k", "plain")))
    if kind == "zero":
        return parities, (0,) * r
    if kind == "plain":
        return parities, tuple(draw(st.lists(st.integers(0, 12), min_size=r, max_size=r)))
    k = draw(st.integers(0, r - 1))
    if kind == "negative":
        x = draw(st.lists(st.integers(-2, 12), min_size=r, max_size=r))
        x[k] = draw(st.integers(-3, -1))
        return parities, tuple(x)
    g = draw(st.integers(2, 6))
    x = [g * y for y in draw(st.lists(st.integers(0, 12 // g), min_size=r, max_size=r))]
    if kind == "gcd of x - e_k":
        x[k] += 1
    return parities, tuple(x)


@settings(max_examples=500, deadline=None)
@given(parities_and_multidegrees())
def test_multiplicity_matches_its_definition(case):
    # the cross-check of the one-multinomial kernel: its definition from
    # r + 1 dimensions, sum_{k: x_k > 0} dim(x - e_k) - dim(x)
    parities, x = case
    below = sum(_dim(parities, x[:k] + (v - 1,) + x[k + 1:]) for k, v in enumerate(x) if v > 0)
    assert _multiplicity(parities, x) == below - _dim(parities, x)


@pytest.mark.parametrize("x, error, what", [
    # (2, 2) has gcd 2, while (1, 2) and (2, 1) have gcd 1
    ((2, 2), 1, "dimension formula"),
    ((2, 2), -4 * 10**6, "dimension formula"),
    # of (3, 1), only x - e_2 = (3, 0) has a gcd above 1
    ((3, 1), 1, "summed dimensions"),
    ((3, 1), -3 * 10**6, "summed dimensions"),
])
def test_multiplicity_checks_both_numerators(monkeypatch, x, error, what):
    # a divisor correction off by a non-multiple of the denominator, or
    # by a multiple large enough to make the quotient negative
    real = liedim._divisor_terms
    monkeypatch.setattr(liedim, "_divisor_terms",
                        lambda parities, y, g: real(parities, y, g) + error)
    with pytest.raises(InternalConsistencyError, match=what):
        _multiplicity((1, 0), x)


def test_failed_quotient_checks_render_the_reduced_fraction(monkeypatch):
    # each check formats numerator / denominator as a Fraction, imported
    # only when the check fails; force each raise site once
    def message(call, *args):
        with pytest.raises(InternalConsistencyError) as info:
            call(*args)
        return str(info.value)

    assert message(liedim._exact_quotient, 7, 2, "check", (1,), (7,)) == (
        "check gave 7/2 for parities (1,) and multidegree (7,)")
    assert message(liedim._exact_quotient, -6, 4, "check", (0,), (4,)) == (
        "check gave -3/2 for parities (0,) and multidegree (4,)")
    real = liedim._divisor_terms
    monkeypatch.setattr(liedim, "_divisor_terms",
                        lambda parities, y, g: real(parities, y, g) + 1)
    assert message(_multiplicity, (1, 0), (2, 2)) == (
        "dimension formula gave 9/4 for parities (1, 0) and multidegree (2, 2)")
    assert message(_multiplicity, (1, 0), (3, 1)) == (
        "the summed dimensions of the x - e_k gave 4/3 for parities (1, 0) "
        "and multidegree (3, 1)")
    monkeypatch.setattr(liedim, "_moebius", lambda i: 1)
    assert message(witt, 4, 2) == "necklace count gave 11/2 for t=4, r=2"
    # a remainder reported at d = 2, where b[2] = 2: the message shows 2/2 as 1
    monkeypatch.setattr(liedim, "divmod", lambda a, b: (a // b, 1) if b == 2 else divmod(a, b),
                        raising=False)
    assert message(liedim._solve_dim_sums, (1,), 3) == (
        "weight-graded Witt formula gave 1 in degree 2 for weights (1,)")


def test_witt_values():
    assert witt(1, 5) == 5
    assert witt(2, 2) == 1
    assert witt(3, 2) == 2
    assert witt(6, 2) == 9


def test_witt_super_values():
    assert witt_super(2, 3, 2) == 3
    assert witt_super(4, 3, 2) == 3
    assert witt_super(6, 3, 2) == 11
    assert witt_super(6, 2, 2) == 9


def test_witt_super_non_integral_or_nonpositive_degree():
    assert witt_super(Fraction(5, 2), 3, 2) == 0
    assert witt_super(Fraction(1, 3), 1, 4) == 0
    assert witt_super(0, 3, 2) == 0
    assert witt_super(-2, 3, 2) == 0


def test_witt_super_matches_dimension_sum():
    for s in (1, 2, 3):
        for r in (1, 2):
            weights = (s,) * r
            for t in range(1, 6):
                total = 0
                for x in itertools.product(range(t + 1), repeat=r):
                    if sum(x) == t:
                        total += lie_component_dim(weights, x)
                assert total == witt_super(t, s, r)


def test_enumerate_diophantine_examples():
    assert enumerate_diophantine((1, 1), 2, (1, 1)) == [(1, 1)]
    assert enumerate_diophantine((3, 1), 7, (1, 1)) == [(1, 4), (2, 1)]
    assert enumerate_diophantine((2,), 3, (1,)) == []
    assert enumerate_diophantine((2, 3), 0, (0, 0)) == [(0, 0)]
    assert enumerate_diophantine((2,), -1, (0,)) == []


def test_enumerate_diophantine_order_and_bounds():
    sols = enumerate_diophantine((1, 1, 1), 4, (1, 1, 1))
    assert sols == sorted(sols)
    assert all(sum(x) == 4 and min(x) >= 1 for x in sols)
    assert len(sols) == 3
    with pytest.raises(InvalidInputError):
        enumerate_diophantine((1, 1), 4, (1, 2))
    with pytest.raises(InvalidInputError):
        enumerate_diophantine((0, 1), 4, (1, 1))


def test_weighted_dim_sums_match_component_sums():
    # degrees up to 24 reach divisors such as 12, 18 and 24, where the sign of
    # an odd degree under an even quotient compounds
    for weights in [(1,), (2,), (1, 1), (1, 2), (2, 3), (1, 1, 2), (3, 1, 4, 1),
                    (1, 2, 3), (2, 3, 5), (1, 1, 1, 2)]:
        sums = weighted_dim_sums(weights, 24)
        assert sums[0] == 1
        for d in range(1, 25):
            expected = sum(lie_component_dim(weights, x)
                           for x in enumerate_diophantine(weights, d, (0,) * len(weights)))
            assert sums[d] == expected, (weights, d)


def test_weighted_dim_sums_equal_weights_are_super_necklace_counts():
    # with r letters of one weight s, degree t*s holds witt_super(t, s, r)
    for s in (1, 2, 3):
        for r in (1, 2, 3):
            sums = weighted_dim_sums((s,) * r, 8 * s)
            for t in range(1, 9):
                assert sums[t * s] == witt_super(t, s, r), (s, r, t)


def test_weighted_dim_sums_input_checks():
    assert weighted_dim_sums((2, 1), 3) == weighted_dim_sums((1, 2), 3)
    with pytest.raises(InvalidInputError):
        weighted_dim_sums((0, 1), 3)
    with pytest.raises(InvalidInputError):
        weighted_dim_sums((1, 1), -1)
    with pytest.raises(InvalidInputError):
        weighted_dim_sums((1.5, 1), 3)


_DEGREES = st.lists(st.integers(0, 40), min_size=1, max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=5).map(sorted).map(tuple),
       st.one_of(_DEGREES, _DEGREES.map(sorted),
                 _DEGREES.map(lambda degrees: sorted(degrees, reverse=True))))
def test_weighted_dim_sums_answer_degrees_in_any_order(clear_caches, weights, degrees):
    # one cache entry per weight tuple serves every degree up to the longest
    # solved, and a longer degree replaces it; each answer, in ascending,
    # descending or mixed order, is what a fresh solve of its degree gives
    clear_caches()
    for n in degrees:
        assert weighted_dim_sums(weights, n) == liedim._solve_dim_sums(weights, n)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 1)), min_size=1, max_size=6),
       st.integers(-3, 40))
def test_solution_count_matches_the_walk(pairs, target):
    # each lower bound 0 or 1, drawn per coordinate, so both uniform cases
    # and mixed ones occur
    weights, bounds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    assert _count_solutions(weights, target, bounds) == len(
        list(_solutions(weights, target, bounds)))


def unpruned_solutions(weights, target, lower_bounds):
    # The reference for _solutions: a depth-first walk without a
    # reachability table, which extends every prefix that leaves room for
    # the bounds after it and finds a prefix dead only when it solves the
    # last coordinate.
    r = len(weights)
    # tail_min[k] = least weight the coordinates from k on must consume
    tail_min = [0] * (r + 1)
    for k in range(r - 1, -1, -1):
        tail_min[k] = tail_min[k + 1] + weights[k] * lower_bounds[k]
    last = r - 1
    x = list(lower_bounds)
    left = [target] * r
    k = 0
    while True:
        if k == last:
            v, rest = divmod(left[k], weights[k])
            if not rest and v >= lower_bounds[k]:
                x[k] = v
                yield tuple(x)
        elif weights[k] * x[k] + tail_min[k + 1] <= left[k]:
            left[k + 1] = left[k] - weights[k] * x[k]
            k += 1
            x[k] = lower_bounds[k]
            continue
        k -= 1
        if k < 0:
            return
        x[k] += 1


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 1)), min_size=1, max_size=7),
       st.integers(-3, 60))
def test_pruned_walk_matches_the_unpruned_walk(pairs, target):
    # the same tuples in the same order; cases whose unpruned walk would
    # visit more than 20 000 prefixes of r - 1 coordinates are skipped (a
    # slack coordinate of weight 1 counts the prefixes that fit in target)
    weights, bounds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    prefixes = _count_solutions(weights[:-1] + (1,), target - weights[-1] * bounds[-1],
                                bounds[:-1] + (0,))
    assume(prefixes <= 20_000)
    assert list(_solutions(weights, target, bounds)) == list(
        unpruned_solutions(weights, target, bounds))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 1)), min_size=1, max_size=7),
       st.integers(-3, 60))
def test_reach_bits_are_the_reachable_sums(pairs, target):
    # bit v of reach[k] is set exactly when the coordinates k.. add up to v
    # under their bounds, for 1 <= k <= r - 2; the other entries are None
    weights, bounds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    r = len(weights)
    reach = _reach(weights, target, bounds)
    assert len(reach) == r
    sums = {0}
    for k in range(r - 1, 0, -1):
        sums = {s + weights[k] * v for s in sums
                for v in range(bounds[k], target // weights[k] + 1)
                if s + weights[k] * v <= target}
        if k < r - 1:
            assert reach[k] == sum(1 << v for v in sums), k
    assert reach[0] is None and reach[-1] is None


def test_walk_extends_only_live_prefixes():
    # A walk that extends dead prefixes still lists the right solutions, only
    # slowly, so its work is counted, not timed: line events inside
    # _solutions, stopped at about ten times the 7 000 the pruned walk takes
    # here.  Six weights 2 and one 295 reach 297 only as 2 + 295, yet an
    # unpruned walk would try the ~10^10 prefixes of the six weights 2.
    code = liedim._solutions.__code__
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
            if steps > 70_000:
                raise AssertionError("the walk passed 70 000 line events")
        return count

    def enter(frame, event, arg):
        return count if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        found = list(_solutions((2,) * 6 + (295,), 297, (0,) * 7))
    finally:
        sys.settrace(previous)
    assert found == [tuple(int(j == i) for j in range(6)) + (1,) for i in range(5, -1, -1)]


@pytest.mark.parametrize("fake", [
    lambda a, b: (a // b, 1),  # a remainder: D(d) not an integer
    lambda a, b: (-1, 0),      # D(d) negative
], ids=["remainder", "negative"])
def test_weighted_dim_sums_checks_each_quotient(clear_caches, monkeypatch, fake):
    # divmod appears in the Witt-sum solve only in the check of
    # D(d) = b[d] / d, which the fake fails at d = 1; the caches are cleared
    # on both sides so that no faulty value outlives the test
    clear_caches()
    assert weighted_dim_sums((1, 2), 2) == (1, 1, 2)
    monkeypatch.setattr(liedim, "divmod", fake, raising=False)
    try:
        with pytest.raises(InternalConsistencyError, match=r"weight-graded Witt formula "
                           r"gave 1 in degree 1 for weights \(1, 2\)"):
            weighted_dim_sums((1, 2), 4)
        # the failed longer solve left the shorter entry in place: it answers
        # without a solve, which the fake would fail
        assert weighted_dim_sums((1, 2), 2) == (1, 1, 2)
        assert weighted_dim_sums((2, 1), 1) == (1, 1)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert weighted_dim_sums((1, 2), 4) == (1, 1, 2, 1, 1)


def test_solutions_are_lazy():
    # 12 letters of weight 1 in degree 60: far too many solutions to list;
    # the generator hands out the first without the rest, as the
    # two-component criterion needs to stop at its first witness
    solutions = _solutions((1,) * 12, 60, (1,) * 12)
    assert next(solutions) == (1,) * 11 + (49,)


def test_non_integer_inputs_are_rejected():
    for bad in (1.0, 2.5, True, "2"):
        with pytest.raises(InvalidInputError):
            lie_component_dim((bad, 1), (1, 1))
        with pytest.raises(InvalidInputError):
            multiplicity((bad, 1), (1, 1))
        with pytest.raises(InvalidInputError):
            enumerate_diophantine((bad, 1), 4, (0, 0))
        with pytest.raises(InvalidInputError):
            enumerate_diophantine((1, 1), bad, (0, 0))
        with pytest.raises(InvalidInputError):
            enumerate_diophantine((1, 1), 4, (0, bad))
