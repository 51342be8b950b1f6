import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from linkrank import errors, liedim
from linkrank.arith import _multinomial
from linkrank.errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from linkrank.liedim import (
    _count_solutions,
    _multiplicity,
    _multiplicity_sum,
    _reach,
    _solutions,
    lie_component_dim,
    multiplicity,
    weighted_dim_sums,
    witt,
    witt_super,
)


def test_generator_system_validation():
    assert lie_component_dim((3, 1), (1, 1)) == 1
    for call in (lie_component_dim, multiplicity):
        with pytest.raises(InvalidInputError,
                           match="^a generator system needs at least one generator$"):
            call((), ())
        with pytest.raises(InvalidInputError,
                           match=r"^generator weights must be positive, got \(2, 0\)$"):
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
@example(((1, 2, 4), (0, 0, 0), (0, 0, 0)))
def test_swaps_within_a_parity_keep_dim_and_multiplicity(case):
    # the premise of ranks._contributions computing one multiplicity per
    # parity class of multidegrees
    weights, x, moved = case
    parities = tuple(a % 2 for a in weights)
    assert lie_component_dim(weights, moved) == lie_component_dim(weights, x)
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


def test_single_generator_dim_sums_are_one_zero_and_an_odd_square(clear_caches):
    # one generator of weight a: D(0) = 1, D(a) = 1 for the generator, D(2a)
    # = 1 for [P, P] exactly when a is odd, and 0 at every other degree; a
    # reference for the one-weight Witt sums, for every 1 <= a <= 300
    clear_caches()
    for a in range(1, 301):
        expected = [0] * 301
        expected[0] = expected[a] = 1
        if 2 * a <= 300:
            expected[2 * a] = a % 2
        assert weighted_dim_sums((a,), 300) == tuple(expected), a


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
        assert _multinomial(x) == expected


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
    # r + 1 dimensions, sum_{k: x_k > 0} dim(x - e_k) - dim(x), each from
    # lie_component_dim with its conventions for x = 0 and a negative entry,
    # against multiplicity on every draw and the core, which takes x >= 0
    # only, on the draws it admits
    parities, x = case
    weights = tuple(2 - p for p in parities)
    below = sum(lie_component_dim(weights, x[:k] + (v - 1,) + x[k + 1:])
                for k, v in enumerate(x) if v > 0)
    expected = below - lie_component_dim(weights, x)
    assert multiplicity(weights, x) == expected
    if min(x) >= 0:
        assert _multiplicity(parities, x) == expected


def test_multiplicity_matches_its_definition_on_every_small_class(monkeypatch):
    # every parity vector and multidegree with r <= 3 and entries 0..9, and
    # with r = 4 and entries 0..5, against sum_k dim(x - e_k) - dim(x) from
    # the full divisor sum, so a correction skipped for any k shows; the
    # kernel must ask _divisor_terms for x and for each x - e_k whose gcd
    # exceeds 1, with that gcd, and for nothing else
    real = liedim._divisor_terms
    asked = []

    def divisor_terms(parities, y, g):
        asked.append((y, g))
        return real(parities, y, g)

    monkeypatch.setattr(liedim, "_divisor_terms", divisor_terms)
    dims = {}

    def dim(parities, y):
        if (parities, y) not in dims:
            dims[parities, y] = _reference_dim(parities, y)
        return dims[parities, y]

    for r, top in ((1, 9), (2, 9), (3, 9), (4, 5)):
        for parities in itertools.product((0, 1), repeat=r):
            for x in itertools.product(range(top + 1), repeat=r):
                lowered = [x[:k] + (v - 1,) + x[k + 1:] for k, v in enumerate(x)]
                expected = sum(dim(parities, y) for y in lowered) - dim(parities, x)
                asked.clear()
                assert _multiplicity(parities, x) == expected, (parities, x)
                wanted = ([(y, math.gcd(*y)) for y in lowered if min(y) >= 0]
                          + [(x, math.gcd(*x))] if sum(x) >= 2 else [])
                assert sorted(asked) == sorted(yg for yg in wanted if yg[1] > 1), (parities, x)


def test_divisor_terms_match_the_multinomial_of_each_quotient():
    # the per-divisor loop of _divisor_terms, which forms each multinomial
    # itself, against arith._multinomial of y / i, a factoring mu and the
    # sign (-1)^(deg(y) + deg(y/i)) taken as written: every parity vector
    # and every y with r <= 3, entries 0..12 and gcd(y) > 1
    def deg(parities, y):
        return sum(p * v for p, v in zip(parities, y))

    for r in (1, 2, 3):
        for parities in itertools.product((0, 1), repeat=r):
            for y in itertools.product(range(13), repeat=r):
                g = math.gcd(*y)
                if g < 2:
                    continue
                expected = 0
                for i in range(2, g + 1):
                    if g % i == 0:
                        quotient = [v // i for v in y]
                        expected += (_moebius(i) * _multinomial(quotient)
                                     * (-1) ** (deg(parities, y) + deg(parities, quotient)))
                assert liedim._divisor_terms(parities, y, g) == expected, (parities, y)


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
    # only when the check fails; force each raise site once: _dim_formula
    # with a given multinomial, n and gcd of 1
    def message(call, *args):
        with pytest.raises(InternalConsistencyError) as info:
            call(*args)
        return str(info.value)

    assert message(liedim._dim_formula, (1,), (7,), 2, 7, 1) == (
        "dimension formula gave 7/2 for parities (1,) and multidegree (7,)")
    assert message(liedim._dim_formula, (0,), (4,), 4, -6, 1) == (
        "dimension formula gave -3/2 for parities (0,) and multidegree (4,)")
    real = liedim._divisor_terms
    monkeypatch.setattr(liedim, "_divisor_terms",
                        lambda parities, y, g: real(parities, y, g) + 1)
    assert message(_multiplicity, (1, 0), (2, 2)) == (
        "dimension formula gave 9/4 for parities (1, 0) and multidegree (2, 2)")
    assert message(_multiplicity, (1, 0), (3, 1)) == (
        "the summed dimensions of the x - e_k gave 4/3 for parities (1, 0) "
        "and multidegree (3, 1)")
    # every divisor of 4 with sign +1: 2^4 + 2^2 + 2^1 = 22 over t = 4
    monkeypatch.setattr(liedim, "_squarefree_divisors",
                        lambda n: [(d, 1) for d in range(1, n + 1) if n % d == 0])
    assert message(witt, 4, 2) == "necklace count gave 11/2 for t=4, r=2"
    # unsorted weights start the push at the wrong least weight: b[1]
    # pushes nothing, and b[2] comes to degree 2 as 3 instead of 4
    assert message(liedim._solve_dim_sums, (2, 1), 3) == (
        "weight-graded Witt formula gave 3/2 in degree 2 for weights (2, 1)")
    # a remainder reported at d = 2, where b[2] = 2, by the sieve's inline
    # test and by the _exact it raises through: the message shows 2/2 as 1
    def lying(a, b):
        return (a // b, 1) if b == 2 else divmod(a, b)

    monkeypatch.setattr(liedim, "divmod", lying, raising=False)
    monkeypatch.setattr(errors, "divmod", lying, raising=False)
    assert message(liedim._solve_dim_sums, (1,), 3) == (
        "weight-graded Witt formula gave 1 in degree 2 for weights (1,)")


def test_the_witt_sum_estimate_bounds_what_a_solve_allocates():
    # the estimate behind the cap is an upper bound on the traced peak; two
    # weights of weight 1 fill ceil(log2 r) bits a degree exactly, so (1, 1)
    # is the tightest case and is also tried at n = 8 000
    cases = [(w, n) for w in ((1,), (1, 1), (1, 1, 1), (1, 2, 3)) for n in (0, 1, 5, 100, 1000)]
    for weights, n in cases + [((1, 1), 8000)]:
        # tracemalloc would also count what a line tracer (a coverage run)
        # allocates, so the solve runs untraced
        trace = sys.gettrace()
        sys.settrace(None)
        tracemalloc.start()
        try:
            liedim._solve_dim_sums(weights, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.settrace(trace)
        assert 8 * peak <= liedim._dim_sums_bits(weights, n), (weights, n)


def test_witt_values():
    assert witt(1, 5) == 5
    assert witt(2, 2) == 1
    assert witt(3, 2) == 2
    assert witt(6, 2) == 9


def test_witt_over_the_cap_is_refused_before_any_divisor(monkeypatch):
    real = liedim._squarefree_divisors

    def squarefree_divisors(n):
        raise AssertionError("the divisors of an over-cap witt were walked")

    monkeypatch.setattr(liedim, "_squarefree_divisors", squarefree_divisors)
    with pytest.raises(ResourceLimitError, match=r"^witt\(100000000, 3\) would cost about "
                       r"200010000 bits of r\^t and trial divisions, over the cap of 1048576$"):
        witt(100_000_000, 3)
    # a huge index and its cost are named by their sizes
    with pytest.raises(ResourceLimitError, match=r"^witt\(<number of 16610 bits>, 3\) would cost "
                       r"about <number of 16611 bits> bits of r\^t and trial divisions, over "
                       r"the cap of 1048576$"):
        witt(10 ** 5000, 3)
    # r = 1 costs no bits, only the isqrt(t) = 2^20 + 1 trial divisions
    with pytest.raises(ResourceLimitError):
        witt((1 << 20 | 1) ** 2, 1)
    with pytest.raises(ResourceLimitError):
        witt_super(100_000_002, 1, 3)
    # t + isqrt(t) = 1047553 + 1023 is exactly the cap, one more is over it
    with pytest.raises(ResourceLimitError):
        witt(1_047_554, 2)
    monkeypatch.setattr(liedim, "_squarefree_divisors", real)
    assert liedim._MAX_WITT_COST == 1_047_553 + 1023
    assert witt(1_047_553, 2).bit_length() == 1_047_534


def test_the_witt_sum_cap_admits_exactly_its_estimate(monkeypatch, clear_caches):
    bits = liedim._dim_sums_bits((1, 3), 12)
    monkeypatch.setattr(liedim, "_MAX_DIM_SUMS_BITS", bits)
    clear_caches()
    assert weighted_dim_sums((1, 3), 12) == (1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 5, 6, 7)
    monkeypatch.setattr(liedim, "_MAX_DIM_SUMS_BITS", bits - 1)
    clear_caches()
    with pytest.raises(ResourceLimitError, match=rf"^the Witt sums of weights \(1, 3\) to degree "
                       rf"12 would take about {bits} bits, over the cap of {bits - 1}$"):
        weighted_dim_sums((1, 3), 12)


def test_witt_over_the_cap_is_refused_without_a_huge_isqrt(monkeypatch):
    # isqrt is superlinear in the bits of t: past 4 000 bits the refusal
    # takes no isqrt at all, so it costs time linear in the input
    real = liedim.isqrt

    def isqrt(n):
        if n.bit_length() > 4000:
            raise AssertionError("the isqrt of a huge witt index was taken")
        return real(n)

    monkeypatch.setattr(liedim, "isqrt", isqrt)
    for t, r in ((1 << 40_000_000, 2), (10 ** 10 ** 6, 1), ((1 << 4000) - 1, 1)):
        with pytest.raises(ResourceLimitError):
            witt(t, r)


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


def bounded_solutions(weights, target, bounds):
    # the solutions x >= bounds of sum(a_k x_k) = target, in lexicographic
    # order: x = y + bounds for the walk's solutions y >= 0 of what the
    # bounds leave of target
    rest = target - sum(a * b for a, b in zip(weights, bounds))
    return [tuple(v + b for v, b in zip(y, bounds)) for y in _solutions(weights, rest)]


def test_solution_examples():
    assert bounded_solutions((1, 1), 2, (1, 1)) == [(1, 1)]
    assert bounded_solutions((3, 1), 7, (1, 1)) == [(1, 4), (2, 1)]
    assert bounded_solutions((2,), 3, (1,)) == []
    assert list(_solutions((2, 3), 0)) == [(0, 0)]
    assert list(_solutions((2,), -1)) == []
    # the bounds shift the target: below zero nothing is left, one
    # coordinate included
    assert bounded_solutions((3,), 0, (1,)) == []
    assert list(_solutions((3,), -3)) == []
    sols = bounded_solutions((1, 1, 1), 4, (1, 1, 1))
    assert sols == sorted(sols)
    assert all(sum(x) == 4 and min(x) >= 1 for x in sols)
    assert len(sols) == 3


def test_weighted_dim_sums_match_component_sums():
    # degrees up to 24 reach divisors such as 12, 18 and 24, where the sign of
    # an odd degree under an even quotient compounds
    for weights in [(1,), (2,), (1, 1), (1, 2), (2, 3), (1, 1, 2), (3, 1, 4, 1),
                    (1, 2, 3), (2, 3, 5), (1, 1, 1, 2)]:
        sums = weighted_dim_sums(weights, 24)
        assert sums[0] == 1
        for d in range(1, 25):
            expected = sum(lie_component_dim(weights, x) for x in _solutions(weights, d))
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
    with pytest.raises(InvalidInputError,
                       match=r"^generator weights must be positive, got \(0, 1\)$"):
        weighted_dim_sums((0, 1), 3)
    with pytest.raises(InvalidInputError, match="^the degree bound must be >= 0, got -1$"):
        weighted_dim_sums((1, 1), -1)
    with pytest.raises(InvalidInputError,
                       match="^the degree bound must be >= 0, got <number of 16610 bits>$"):
        weighted_dim_sums((1, 1), -10 ** 5000)
    with pytest.raises(InvalidInputError,
                       match=r"^a generator weight must be an integer, got 1\.5$"):
        weighted_dim_sums((1.5, 1), 3)


def sieve_dim_sums(weights, n):
    # The reference for liedim._solve_dim_sums: the same logarithm and
    # divisor sieve, stepped through every degree 1..n, reachable by a sum
    # of weights or not.
    counts = {}
    for a in weights:
        if a <= n:
            counts[a] = counts.get(a, 0) + 1
    terms = sorted(counts.items())
    b = [0] * (n + 1)
    for j in range(1, n + 1):
        acc = j * counts.get(j, 0)
        for a, c in terms:
            if a >= j:
                break
            acc += c * b[j - a]
        b[j] = acc
    out = [1]
    for d in range(1, n + 1):
        value, remainder = divmod(b[d], d)
        assert not remainder and value >= 0, (weights, d)
        out.append(value)
        if d % 2:
            for j in range(2 * d, n + 1, 2 * d):
                b[j] += b[d]
            for j in range(3 * d, n + 1, 2 * d):
                b[j] -= b[d]
        else:
            for j in range(2 * d, n + 1, d):
                b[j] -= b[d]
    return tuple(out)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(st.integers(1, 15), min_size=1, max_size=6),
                 # large weights only, so that most degrees are unreachable
                 st.lists(st.integers(9, 15), min_size=1, max_size=6))
       .map(sorted).map(tuple),
       st.integers(0, 80))
# beyond the degrees drawn: sparse weights, and weights sharing a factor,
# so that most b[d] are 0 and the sieve skips most passes
@example((2, 4, 6), 400)
@example((30, 45, 70), 600)
@example((100, 150), 900)
@example((2,) * 6 + (295,), 700)
# weights over n / 2, which push nothing; a least weight that reaches n in
# one step; a repeated weight, so that a count c > 1 is pushed
@example(tuple(range(201, 401)), 400)
@example((1, 397), 400)
@example((150,) * 3 + (151, 152), 460)
def test_solve_matches_the_full_sieve(weights, n):
    assert liedim._solve_dim_sums(weights, n) == sieve_dim_sums(weights, n)


def test_solve_pushes_only_from_reached_degrees():
    # A solve that pulls every weight below each degree gives the same table,
    # only slowly, so its work is counted, not timed: line events inside
    # _solve_dim_sums for the 200 weights 201..400 to degree 400.  The push
    # form takes about 3 900, as no degree i has i + 201 <= 400, and a pull
    # over every fitting weight below each degree about 65 600.
    code = liedim._solve_dim_sums.__code__
    steps = 0

    def count(frame, event, arg):
        nonlocal steps
        if event == "line":
            steps += 1
            if steps > 12_000:
                raise AssertionError("the solve passed 12 000 line events")
        return count

    def enter(frame, event, arg):
        return count if frame.f_code is code else None

    weights = tuple(range(201, 401))
    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        sums = liedim._solve_dim_sums(weights, 400)
    finally:
        sys.settrace(previous)
    assert sums == (1,) + (0,) * 200 + (1,) * 200


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
@given(st.lists(st.integers(1, 9), min_size=1, max_size=5).map(sorted).map(tuple).flatmap(
           lambda weights: st.tuples(st.just(weights), st.integers(weights[-1], 40))),
       st.integers(1, 20))
@example(((2, 3), 3), 1)
def test_multiplicity_sum_adds_the_multiplicities_of_its_degree(clear_caches, case, beyond):
    # M(T) from the Witt sums is the sum of the per-multidegree kernel over
    # the solutions of its degree, read from a cold cell and from a cell
    # already solved past target, which must be indexed, not measured
    weights, target = case
    parities = tuple(a % 2 for a in weights)
    expected = sum(_multiplicity(parities, x) for x in _solutions(weights, target))
    clear_caches()
    assert _multiplicity_sum(weights, target) == expected
    clear_caches()
    liedim._weighted_dim_sums(weights, target + beyond)
    assert len(liedim._dim_sums_cell(weights)[0]) > target + 1
    assert _multiplicity_sum(weights, target) == expected


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 9), st.integers(0, 1)), min_size=1, max_size=6),
       st.integers(-3, 40))
def test_solution_count_matches_the_walk(pairs, target):
    # each lower bound 0 or 1, drawn per coordinate, so both uniform cases
    # and mixed ones occur; the count takes what the bounds leave of target
    weights, bounds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    assert _count_solutions(weights, target - sum(a * b for a, b in pairs)) == len(
        bounded_solutions(weights, target, bounds))


def test_solution_count_past_ten_thousand():
    # closed forms at targets past 10 000: r weights 1 have C(N + r - 1, r - 1)
    # solutions, and coprime weights a, b have N/ab - {b'N/a} - {a'N/b} + 1
    # (Popoviciu), with b' b = 1 mod a, a' a = 1 mod b and {} the fractional part
    for target in (10_001, 12_345, 20_001):
        for r in range(1, 5):
            assert _count_solutions((1,) * r, target) == math.comb(target + r - 1, r - 1)
        for a, b in ((2, 3), (7, 11), (13, 1000), (97, 101)):
            count = (Fraction(target, a * b) - Fraction(pow(b, -1, a) * target % a, a)
                     - Fraction(pow(a, -1, b) * target % b, b) + 1)
            assert _count_solutions((a, b), target) == count


def unpruned_solutions(weights, target, lower_bounds):
    # The reference for bounded_solutions, whose walk _solutions takes
    # no bounds: a depth-first walk with its bounds and without a
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
    # slack coordinate of weight 1 counts the prefixes that fit in what the
    # bounds leave of target)
    weights, bounds = tuple(a for a, _ in pairs), tuple(b for _, b in pairs)
    prefixes = _count_solutions(weights[:-1] + (1,), target - sum(a * b for a, b in pairs))
    assume(prefixes <= 20_000)
    assert bounded_solutions(weights, target, bounds) == list(
        unpruned_solutions(weights, target, bounds))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=7).map(tuple),
       st.integers(-3, 60))
def test_reach_bits_are_the_reachable_sums(weights, target):
    # bit v of reach[k] is set exactly when the coordinates k.. add up to v,
    # for 1 <= k <= r - 2; the other entries are None
    r = len(weights)
    reach = _reach(weights, target)
    assert len(reach) == r
    sums = {0}
    for k in range(r - 1, 0, -1):
        sums = {s + weights[k] * v for s in sums
                for v in range(target // weights[k] + 1)
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
        found = list(_solutions((2,) * 6 + (295,), 297))
    finally:
        sys.settrace(previous)
    assert found == [tuple(int(j == i) for j in range(6)) + (1,) for i in range(5, -1, -1)]


@pytest.mark.parametrize("fake", [
    lambda a, b: (a // b, 1),  # a remainder: D(d) not an integer
    lambda a, b: (-1, 0),      # D(d) negative
], ids=["remainder", "negative"])
def test_weighted_dim_sums_checks_each_quotient(clear_caches, monkeypatch, fake):
    # divmod appears in the Witt-sum solve only in the check of
    # D(d) = b[d] / d and in the errors._exact that the check raises
    # through, both of which the fake fails at d = 1: a degree the weights
    # (1, 2) reach, and one the weights (2, 3) do not, where b[1] = 0 is
    # still checked.  The caches are cleared on both sides so that no
    # faulty value outlives the test.
    clear_caches()
    assert weighted_dim_sums((1, 2), 2) == (1, 1, 2)
    monkeypatch.setattr(liedim, "divmod", fake, raising=False)
    monkeypatch.setattr(errors, "divmod", fake, raising=False)
    try:
        with pytest.raises(InternalConsistencyError, match=r"weight-graded Witt formula "
                           r"gave 1 in degree 1 for weights \(1, 2\)"):
            weighted_dim_sums((1, 2), 4)
        # the failed longer solve left the shorter entry in place: it answers
        # without a solve, which the fake would fail
        assert weighted_dim_sums((1, 2), 2) == (1, 1, 2)
        assert weighted_dim_sums((2, 1), 1) == (1, 1)
        with pytest.raises(InternalConsistencyError, match=r"weight-graded Witt formula "
                           r"gave 0 in degree 1 for weights \(2, 3\)"):
            weighted_dim_sums((2, 3), 4)
    finally:
        monkeypatch.undo()
        clear_caches()
    assert weighted_dim_sums((1, 2), 4) == (1, 1, 2, 1, 1)


def test_solutions_are_lazy():
    # 12 letters of weight 1 in degree 48: far too many solutions to list;
    # the generator hands out the first without the rest, as the
    # two-component criterion needs to stop at its first witness
    solutions = _solutions((1,) * 12, 48)
    assert next(solutions) == (0,) * 11 + (48,)


def test_non_integer_inputs_are_rejected():
    for bad in (1.0, 2.5, True, "2"):
        with pytest.raises(InvalidInputError):
            lie_component_dim((bad, 1), (1, 1))
        with pytest.raises(InvalidInputError):
            multiplicity((bad, 1), (1, 1))
