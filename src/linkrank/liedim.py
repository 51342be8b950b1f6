"""Dimensions of multigraded components of a free graded Lie superalgebra
over the rationals, the derived bracket-map multiplicities, necklace (Witt)
counts, the weight-graded Witt sums the ranks are computed from, and the
Diophantine enumerations (and their counts) behind the per-multidegree
cross-checks.

Conventions used throughout the package:

* a generator system is a tuple of positive integer weights, one per
  generator; a generator is odd or even according to its weight parity,
  and only those parities influence dimensions;
* dimensions and multiplicities are invariant under relabelling the
  generators of one parity: for fixed parities, permuting the entries of x
  among coordinates of equal parity leaves them unchanged, so ranks
  computes one multiplicity per such class of contributions;
* a multidegree x is an integer tuple of the same length counting how many
  times each generator occurs;
* the component of the all-zero multidegree has dimension 1 by convention,
  and any negative coordinate gives dimension 0.

Each public function validates its arguments once (the weights through
_as_weights) and then calls an unvalidated core named with a leading
underscore; the rank layer calls the cores only.

The dimension of a component is a sum over the divisors of the gcd of its
multidegree (the divisor-sum form of the super Witt formula): |x| dim(x)
is the divisor-1 term, one multinomial coefficient, plus the terms of the
divisors i > 1, which _divisor_terms sums and which exist only when the
gcd exceeds 1.  Most multidegrees met in a rank have gcd 1.  This formula
is written once, in _dim_formula, which takes the multinomial and the gcd
from its caller; _dim (through the cache _dim_by_parity) and _multiplicity
both call it.

A bracket-map multiplicity sum_k dim(x - e_k) - dim(x) needs r + 1
dimensions, but by Pascal's rule the multinomials of the x - e_k add up to
the multinomial of x.  So the kernel computes one multinomial M and
  |x| dim(x) = M + the i > 1 terms of x,
  (|x| - 1) sum_k dim(x - e_k) = M + the i > 1 terms of each x - e_k.

The solutions of sum a_k x_k = n with x >= the lower bounds are walked by
_solutions in lexicographic order, pruned by reachability: _reach keeps,
for each suffix of coordinates, the set of sums it can make as a bitset
(the coin-problem table; Ramirez Alfonsin, The Diophantine Frobenius
Problem, 2005), so the walk extends only prefixes that end in a solution,
and it solves the last two coordinates together from one modular inverse.
So its cost follows the solutions it lists, times at most target / a_k
value tests at each coordinate it steps through, and not the number of
dead prefixes, which can be exponential in r.
_count_solutions counts the same solutions by a generating function that
shares nothing with the walk or with the Witt sums, so the rank layer
holds the walk to the count and the sum of its terms to the Witt sums.

All arithmetic is exact.  Each of these numerators is asserted to be a
nonnegative multiple of its denominator; a failure of that assertion is an
internal bug, not bad input.
"""

from functools import lru_cache
from math import gcd

from .arith import _divisors, _moebius, _multinomial, as_integer, as_integers
from .errors import InternalConsistencyError, InvalidInputError


def _as_weights(weights):
    # the one check of a weights tuple: nonempty, positive integers
    weights = as_integers(weights, "a generator weight", "generator weights")
    if not weights:
        raise InvalidInputError("a generator system needs at least one generator")
    if any(a < 1 for a in weights):
        raise InvalidInputError(f"generator weights must be positive, got {weights}")
    return weights


def _parities(weights):
    return tuple(a % 2 for a in weights)


def _as_multidegree(weights, x):
    x = as_integers(x, "a multidegree entry", "a multidegree")
    if len(x) != len(weights):
        raise InvalidInputError(
            f"multidegree {x} has {len(x)} entries but the system has "
            f"{len(weights)} generators")
    return x


def _divisor_terms(parities, y, g):
    # The divisor-sum terms of the divisors i > 1 of g = gcd(y) > 1, for y
    # with nonnegative entries:
    #   sum_i mu(i) (-1)^(deg(y) + deg(y/i)) multinomial(y/i).
    # deg(y) = i deg(y/i), so the sign is + for odd i and (-1)^deg(y/i) for
    # even i.  Zero entries contribute nothing to the gcd, the multinomial
    # or the sign.
    acc = 0
    for i in _divisors(g)[1:]:
        mu = _moebius(i)
        if mu:
            yi = tuple(v // i for v in y)
            if i % 2 == 0 and sum(p * v for p, v in zip(parities, yi)) % 2:
                mu = -mu
            acc += mu * _multinomial(yi)
    return acc


def _exact_quotient(numerator, n, what, parities, x):
    # numerator / n, which must come out a nonnegative integer
    value, remainder = divmod(numerator, n)
    if remainder or value < 0:
        from fractions import Fraction
        raise InternalConsistencyError(
            f"{what} gave {Fraction(numerator, n)} for parities {parities} "
            f"and multidegree {x}")
    return value


def _dim_formula(parities, x, n, multinomial, g):
    # Divisor-sum dimension count of x >= 0 with n = |x| >= 1, given
    # multinomial = multinomial(x) and g = gcd(x), over the divisors i of g:
    #   (-1)^deg(x) / n * sum_i mu(i) (-1)^deg(x/i) multinomial(x/i).
    # The i = 1 term has the sign (-1)^deg(x) twice, so it enters as
    # +multinomial; for most x, g = 1 and it is the only term.
    if g > 1:
        multinomial += _divisor_terms(parities, x, g)
    return _exact_quotient(multinomial, n, "dimension formula", parities, x)


@lru_cache(maxsize=1 << 18)
def _dim_by_parity(parities, x):
    # _dim_formula behind a cache, for x >= 0 with at least one positive
    # entry; only lie_component_dim and the oracle's verify_range reach it,
    # and bench/ reports its hit ratio as liedim.dim_cache_hit_ratio
    return _dim_formula(parities, x, sum(x), _multinomial(x), gcd(*x))


def _dim(parities, x):
    # lie_component_dim on an already validated multidegree
    if min(x) < 0:
        return 0
    if max(x) == 0:
        return 1
    return _dim_by_parity(parities, x)


def lie_component_dim(weights, x):
    """Dimension of the multidegree-x component of the free Lie superalgebra.

    Example: one generator of odd weight, x = (2,) -> 1, the self-bracket.
    """
    weights = _as_weights(weights)
    return _dim(_parities(weights), _as_multidegree(weights, x))


def multiplicity(weights, x):
    """sum_k dim(x - e_k) minus dim(x): the corank of the bracket-with-a-
    generator map landing in the multidegree-x component."""
    weights = _as_weights(weights)
    return _multiplicity(_parities(weights), _as_multidegree(weights, x))


def _multiplicity(parities, x):
    # The two divided sums of the module docstring, for n = |x| >= 2.  An
    # x - e_k with x_k = 0 has a negative entry, dimension 0 and multinomial 0.
    if min(x) < 0:
        return 0
    n = sum(x)
    if n < 2:
        # x = 0 gives -dim(0) = -1, and x = e_k gives dim(0) - dim(e_k) = 0
        return n - 1
    multinomial = below = _multinomial(x)
    for k, v in enumerate(x):
        if v:
            y = x[:k] + (v - 1,) + x[k + 1:]
            h = gcd(*y)
            if h > 1:
                below += _divisor_terms(parities, y, h)
    return (_exact_quotient(below, n - 1, "the summed dimensions of the x - e_k",
                            parities, x)
            - _dim_formula(parities, x, n, multinomial, gcd(*x)))


def witt(t, r):
    """Necklace count (1/t) sum_{i|t} mu(i) r^(t/i) for t, r >= 1."""
    t = as_integer(t, "the necklace length t")
    r = as_integer(r, "the letter count r")
    if t < 1 or r < 1:
        raise InvalidInputError(f"witt(t, r) needs t >= 1 and r >= 1, got t={t}, r={r}")
    acc = 0
    for i in _divisors(t):
        mu = _moebius(i)
        if mu:
            acc += mu * r ** (t // i)
    value, remainder = divmod(acc, t)
    if remainder or value < 0:
        from fractions import Fraction
        raise InternalConsistencyError(f"necklace count gave {Fraction(acc, t)} for t={t}, r={r}")
    return value


def witt_super(t, s, r):
    """Super variant of the necklace count.

    t is an int or a Fraction; a non-integral or nonpositive t
    contributes 0.
    For odd s and t congruent to 2 mod 4 the count picks up the extra
    witt(t/2, r) term coming from the odd part of the grading.
    """
    from fractions import Fraction
    if not isinstance(t, Fraction):
        t = as_integer(t, "the degree t, unless a Fraction,")
    s = as_integer(s, "the parity carrier s")
    r = as_integer(r, "the letter count r")
    if s < 1 or r < 1:
        raise InvalidInputError(f"witt_super needs s >= 1 and r >= 1, got s={s}, r={r}")
    if t.denominator != 1 or t < 1:
        return 0
    t = int(t)
    if s % 2 == 1 and t % 4 == 2:
        return witt(t, r) + witt(t // 2, r)
    return witt(t, r)


def enumerate_diophantine(weights, target, lower_bounds):
    """All solutions x of sum(weights[k] * x[k]) == target with
    x[k] >= lower_bounds[k], in lexicographic order.

    weights must be positive; each lower bound is 0 or 1.

    Example: weights (3, 1), target 7, bounds (1, 1) -> [(1, 4), (2, 1)].
    """
    weights = _as_weights(weights)
    lower_bounds = as_integers(lower_bounds, "a lower bound", "lower bounds")
    if len(lower_bounds) != len(weights):
        raise InvalidInputError(
            f"{len(lower_bounds)} lower bounds for {len(weights)} weights")
    if any(b not in (0, 1) for b in lower_bounds):
        raise InvalidInputError(f"lower bounds must each be 0 or 1, got {lower_bounds}")
    return list(_solutions(weights, as_integer(target, "the target"), lower_bounds))


def _reach(weights, target, lower_bounds):
    # reach[k], for 1 <= k <= r - 2, is a bitset as an int: bit v is set when
    # the coordinates k.. can add up to v <= target under their lower bounds
    # (the coin-problem table of the suffix); the other entries are None, so
    # r <= 2 builds nothing.  Each coordinate ors in its multiples of a_k by
    # doubling the shift, O(log(target / a_k)) big-int steps.
    r = len(weights)
    reach = [None] * r
    if r < 3:
        return reach
    mask = (1 << max(target + 1, 0)) - 1
    bits = 1 & mask
    for k in range(r - 1, 0, -1):
        a = weights[k]
        shift = a
        while shift <= target:
            bits = (bits | bits << shift) & mask
            shift <<= 1
        bits = bits << a * lower_bounds[k] & mask
        if k < r - 1:
            reach[k] = bits
    return reach


def _solutions(weights, target, lower_bounds):
    # The solutions of enumerate_diophantine, in the same order, as a
    # generator, so that the two-component criterion stops at its first
    # witness.  Each coordinate k < r - 2 steps only to the values that
    # leave a sum the coordinates after it can reach (_reach), and the last
    # two are solved together, so every prefix the walk extends ends in a
    # solution and its cost follows its output.
    # The walk keeps its own stack: x[:k] is the fixed prefix and left[k]
    # what it leaves of target.
    r = len(weights)
    if r == 1:
        v, rest = divmod(target, weights[0])
        if not rest and v >= lower_bounds[0]:
            yield (v,)
        return
    # a u + b v = n for the last two: u is fixed mod b / g, and each step of
    # u by stride = b / g lowers v by drop = a / g
    last = r - 2
    a, b = weights[last], weights[last + 1]
    low_u, low_v = lower_bounds[last], lower_bounds[last + 1]
    g = gcd(a, b)
    stride, drop = b // g, a // g
    inverse = pow(drop, -1, stride)
    reach = _reach(weights, target, lower_bounds)
    x = list(lower_bounds)
    left = [target] * (last + 1)
    k = 0
    while True:
        if k == last:
            n = left[k]
            # a u may use at most what the bound of v leaves
            top = n - b * low_v
            if not n % g and top >= a * low_u:
                u = n // g * inverse % stride
                if u < low_u:
                    u += (low_u - u + stride - 1) // stride * stride
                v = (n - a * u) // b
                prefix = tuple(x[:last])
                while a * u <= top:
                    yield prefix + (u, v)
                    u += stride
                    v -= drop
        else:
            a_k, bits = weights[k], reach[k + 1]
            rest = left[k] - a_k * x[k]
            while rest >= 0 and not bits >> rest & 1:
                rest -= a_k
                x[k] += 1
            if rest >= 0:
                left[k + 1] = rest
                k += 1
                x[k] = lower_bounds[k]
                continue
        # every value of coordinate k is spent: step the one before it
        k -= 1
        if k < 0:
            return
        x[k] += 1


def _count_solutions(weights, target, lower_bounds):
    # The number of solutions _solutions walks, without walking them: the
    # coefficient of t^n in prod_k 1/(1 - t^(a_k)), where n is what the lower
    # bounds leave of target, in O(r n) integer steps.
    n = target - sum(a * b for a, b in zip(weights, lower_bounds))
    if n < 0:
        return 0
    ways = [1] + [0] * n
    for a in weights:
        for t in range(a, n + 1):
            ways[t] += ways[t - a]
    return ways[n]


def weighted_dim_sums(weights, n):
    """(D(0), ..., D(n)): D(d) is the summed dimension of all components
    whose multidegree x has weighted degree sum(weights[k] * x[k]) == d,
    with D(0) = 1 for the empty bracket.

    This is the weight-graded form of the super Witt formula (Kang-Kim
    1996, Petrogradsky 2003).  A component of weighted degree d has
    parity d, so with f(t) = sum_k t^(a_k) the Poincare-Birkhoff-Witt
    theorem for Lie superalgebras reads
      1/(1 - f(t)) = prod_{d even} (1 - t^d)^(-D(d)) prod_{d odd} (1 + t^d)^D(d),
    and its logarithm, with b_j = j [t^j] -log(1 - f(t)), is
      b_j = sum_{d|j} eps d D(d),  eps = -1 if d is odd and j/d even, else 1,
    which is solved for D(1), D(2), ... in turn.
    The sums are cached by the sorted weights alone: the longest D(0..n')
    solved so far answers every n <= n', and a longer n is solved afresh.

    Example: weights (1, 1), n = 2 -> (1, 2, 3): two odd letters in
    degree 1, and in degree 2 the three self- and cross-brackets.
    """
    weights = tuple(sorted(_as_weights(weights)))
    n = as_integer(n, "the degree bound")
    if n < 0:
        raise InvalidInputError(f"the degree bound must be >= 0, got {n}")
    return _weighted_dim_sums(weights, n)[:n + 1]


def _weighted_dim_sums(weights, n):
    # D(0..n') for some n' >= n, for sorted weights: the cell of the weights
    # keeps the longest solve so far, and a failed solve leaves it as it was;
    # the run read or solved here is returned, not the cell, which another
    # thread may have refilled with a shorter run in between
    cell = _dim_sums_cell(weights)
    sums = cell[0]
    if len(sums) <= n:
        sums = cell[0] = _solve_dim_sums(weights, n)
    return sums


@lru_cache(maxsize=1 << 12)
def _dim_sums_cell(weights):
    # a one-element list per sorted weight tuple, never handed out; weights
    # sorted, so that a permutation shares the cell
    return [()]


def _solve_dim_sums(weights, n):
    # D(0..n) for sorted weights, each D(d) checked to be a whole count
    counts = {}
    for a in weights:
        if a <= n:
            counts[a] = counts.get(a, 0) + 1
    terms = sorted(counts.items())
    # b[j] = j [t^j] -log(1 - f(t)) from t f' = (1 - f) t (-log(1 - f))'
    b = [0] * (n + 1)
    for j in range(1, n + 1):
        acc = j * counts.get(j, 0)
        for a, c in terms:
            if a >= j:
                break
            acc += c * b[j - a]
        b[j] = acc
    # b[j] = sum_{d|j} eps d D(d): once D(d) is solved, eps d D(d) leaves
    # the b of each multiple j = k d, so b[d] = d D(d) when d is reached;
    # for odd d, eps = -1 at even k
    out = [1]
    for d in range(1, n + 1):
        value, remainder = divmod(b[d], d)
        if remainder or value < 0:
            from fractions import Fraction
            raise InternalConsistencyError(
                f"weight-graded Witt formula gave {Fraction(b[d], d)} in degree {d} "
                f"for weights {weights}")
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
