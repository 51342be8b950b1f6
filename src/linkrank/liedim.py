"""Dimensions of multigraded components of a free graded Lie superalgebra
over the rationals, the derived bracket-map multiplicities, necklace (Witt)
counts, the weight-graded Witt sums and the summed multiplicities M(T) the
ranks are computed from, and the Diophantine enumerations (and their
counts) behind the per-multidegree cross-checks.

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
_as_weights, a multidegree with its weights through _as_system) and then
calls an unvalidated core named with a leading underscore; the rank
layer, the CLI's tables and the oracle's verify_range call the cores
only.

The dimension of a component is a sum over the divisors of the gcd of its
multidegree (the divisor-sum form of the super Witt formula): |x| dim(x)
is the divisor-1 term, one multinomial coefficient, plus the terms of the
divisors i > 1, which _divisor_terms sums and which exist only when the
gcd exceeds 1.  Most multidegrees met in a rank have gcd 1.  This formula
is written once, in _dim_formula, which takes the multinomial and the gcd
from its caller; _dim_by_parity, the cached dimension of a validated
multidegree (0 for a negative entry, 1 for x = 0), and _multiplicity both
call it.

A bracket-map multiplicity sum_k dim(x - e_k) - dim(x) needs r + 1
dimensions, but by Pascal's rule the multinomials of the x - e_k add up to
the multinomial of x.  So the kernel computes one multinomial M and
  |x| dim(x) = M + the i > 1 terms of x,
  (|x| - 1) sum_k dim(x - e_k) = M + the i > 1 terms of each x - e_k.
It takes |x|, M and gcd(x) from one pass over the nonzero entries of x.
An x - e_k has i > 1 terms only when its gcd exceeds 1, so for each k
with x_k > 0 the kernel screens that gcd first: it folds gcd over the
entries of x - e_k, read from x, and stops at the first 1.  Only an
x - e_k whose gcd passes the screen is built as a tuple and handed to
_divisor_terms, which forms each y / i, its multinomial and the parity of
its degree in one loop.

A rank needs these multiplicities summed over a whole weighted degree, not
one by one: for a set T of generators (sorted weights, each at most N),
the multiplicities of all x >= 0 of weighted degree N add up to
  M(T) = sum_{k in T} D_T(N - a_k) - D_T(N),
with D_T the Witt sums below, since the x - e_k with no negative entry run
over the multidegrees of weighted degree N - a_k as x runs over those of
degree N.  _multiplicity_sum computes M(T) from the cached table
D_T(0..n'), n' >= N, indexing it at N and each N - a_k, so the rank layer
reads no Witt table itself.

The Diophantine cores _solutions, _reach and _count_solutions take
(weights, target) and solve sum a_k x_k = target for x >= 0 only; a
negative target has no solution.  They have no public wrapper: the
listing a user reads is a rank report's contributions.  A lower bound L
is one change of variables at the caller: the solutions x >= L are
x = y + L for the solutions y >= 0 at target - sum a_k L_k, so the rank
layer shifts by 1 for x >= 1.

_solutions walks the solutions in lexicographic order, pruned by
reachability: _reach keeps, for each suffix of coordinates, the set of
sums it can make as a bitset (the coin-problem table; Ramirez Alfonsin,
The Diophantine Frobenius Problem, 2005), so the walk extends only
prefixes that end in a solution, and it solves the last two coordinates
together from one modular inverse.  So its cost follows the solutions it
lists, times at most target / a_k value tests at each coordinate it steps
through, and not the number of dead prefixes, which can be exponential
in r.  _count_solutions counts the same solutions by a generating
function that shares nothing with the walk or with the Witt sums, so the
rank layer holds the walk to the count and the sum of its terms to the
Witt sums.

weighted_dim_sums solves the weight-graded Witt formula for D(0..n) in
two passes over one table b.  The first builds b_j = j c_j +
sum_a c_a b_(j-a), c_a the number of weights equal to a, in push form:
b[a] starts at a c_a, and each nonzero b[i], final once the loop comes
to it, adds c_a b[i] to b[i + a] over the sorted weights, up to the first
with i + a > n.  So a degree no sum of weights reaches costs one test,
and the pass does one step per reached degree and weight that fits, not
one per degree and weight below it.  The second is a Moebius sieve: it
checks every D(d) = b[d] / d, and takes only a nonzero b[d] from the b of
the multiples of d.

All arithmetic is exact.  Each of these numerators is asserted to be a
nonnegative multiple of its denominator through errors._exact, which
returns the quotient; a failure of that assertion is an internal bug, not
bad input.  The sieve, _multiplicity (the summed dimensions of the
x - e_k) and _dim_formula (the dimension) test their quotients inline
with divmod and call _exact only to raise, with the message it formats,
so that a passing quotient makes no Python call; witt returns through
_exact.  The caps admit
through errors._within, and the cross-checks of the rank layer hold
through errors._agree; this module raises no error of a check or a cap
by hand.
"""

from functools import lru_cache
from itertools import repeat
from math import comb, gcd, isqrt
from operator import mod

from .arith import _multinomial, _squarefree_divisors, as_integer, as_integers
from .errors import _exact, _reject, _within

# witt(t, r) costs about t * (r - 1).bit_length() bits for r^t plus isqrt(t)
# trial divisions for the squarefree divisors of t.  The cap also bounds the
# CLI's quadratic int-to-decimal conversion: witt(500000, 3), under it, has
# 238 556 digits, printed in 1.3 s by CPython 3.11 on a 2-core x86-64 VM.
_MAX_WITT_COST = 1 << 20

# A solve of D(0..n) for r fitting weights, the least of them a, holds b
# and D, two tables with b_j <= j r^(j / a) and D(j) <= b_j / j: together
# at most n^2 ceil(log2 r) / a bits of values, which CPython stores as
# 30-bit digits in 32-bit words.  Each degree adds two int headers of 192
# bits, up to 32 bits of a last digit to each, and 256 bits of slots in
# the lists b and D and the tuple returned (one weight, with no int
# allocated, took 195 bits a degree under tracemalloc), 704 bits in all;
# dicts and frames add at most 4 096 bits a solve (3 200 at n = 1).  So
# _dim_sums_bits is an upper bound: (1, 1) at n = 8 000 peaked at 9 154
# bits a degree against 9 237 estimated (CPython 3.11).  Under the cap,
# (50003; 50000^3), estimated at 5.4e9 bits, answers in 4.1 s and 613 MB
# peak RSS (a 2-core x86-64 VM); over it, (100003; 100000^3), at 2.1e10
# bits, took 15 s and 2.4 GB uncapped.
_MAX_DIM_SUMS_BITS = 1 << 33


def _as_weights(weights):
    # the one check of a weights tuple: nonempty, positive integers
    weights = as_integers(weights, "a generator weight", "generator weights")
    if not weights:
        _reject("a generator system needs at least one generator")
    if min(weights) < 1:
        _reject("generator weights must be positive, got {}", weights)
    return weights


def _parities(weights):
    return tuple(map(mod, weights, repeat(2)))


def _as_system(weights, x):
    # the parities of checked weights and x checked against them: the one
    # check of a (weights, multidegree) pair
    weights = _as_weights(weights)
    x = as_integers(x, "a multidegree entry", "a multidegree")
    if len(x) != len(weights):
        _reject("multidegree {} has {} entries but the system has {} generators",
                x, len(x), len(weights))
    return _parities(weights), x


def _divisor_terms(parities, y, g):
    # The divisor-sum terms of the divisors i > 1 of g = gcd(y) > 1, for y
    # with nonnegative entries:
    #   sum_i mu(i) (-1)^(deg(y) + deg(y/i)) multinomial(y/i).
    # deg(y) = i deg(y/i), so the sign is + for odd i and (-1)^deg(y/i) for
    # even i.  Zero entries contribute nothing to the gcd, the multinomial
    # or the sign, and only a squarefree i has mu(i) != 0.  One loop per i
    # forms y/i, its multinomial as a running product of binomials and the
    # parity of deg(y/i).
    acc = 0
    for i, mu in _squarefree_divisors(g)[1:]:
        total, term, odd = 0, 1, 0
        for p, v in zip(parities, y):
            if v:
                v //= i
                total += v
                term *= comb(total, v)
                odd ^= p & v
        if odd and i % 2 == 0:
            term = -term
        acc += mu * term
    return acc


def _dim_formula(parities, x, n, multinomial, g):
    # Divisor-sum dimension count of x >= 0 with n = |x| >= 1, given
    # multinomial = multinomial(x) and g = gcd(x), over the divisors i of g:
    #   (-1)^deg(x) / n * sum_i mu(i) (-1)^deg(x/i) multinomial(x/i).
    # The i = 1 term has the sign (-1)^deg(x) twice, so it enters as
    # +multinomial; for most x, g = 1 and it is the only term.
    if g > 1:
        multinomial += _divisor_terms(parities, x, g)
    # tested inline, so that a passing quotient makes no Python call;
    # _exact only raises here
    dim, remainder = divmod(multinomial, n)
    if remainder or dim < 0:
        _exact(multinomial, n, "dimension formula gave {} for parities {} and multidegree {}",
               parities, x)
    return dim


@lru_cache(maxsize=1 << 18)
def _dim_by_parity(parities, x):
    # lie_component_dim on an already validated multidegree: 0 for a
    # negative entry, 1 for x = 0, else _dim_formula; only lie_component_dim
    # and the oracle's verify_range reach it, and bench/ reports the hit
    # ratio of its cache as liedim.dim_cache_hit_ratio
    if min(x) < 0:
        return 0
    if not any(x):
        return 1
    return _dim_formula(parities, x, sum(x), _multinomial(x), gcd(*x))


def lie_component_dim(weights, x):
    """Dimension of the multidegree-x component of the free Lie superalgebra.

    Example: one generator of odd weight, x = (2,) -> 1, the self-bracket.
    """
    return _dim_by_parity(*_as_system(weights, x))


def multiplicity(weights, x):
    """sum_k dim(x - e_k) minus dim(x): the corank of the bracket-with-a-
    generator map landing in the multidegree-x component."""
    return _multiplicity(*_as_system(weights, x))


def _multiplicity(parities, x):
    # The two divided sums of the module docstring, for n = |x| >= 2, from
    # one pass over x for n, multinomial(x) and gcd(x).  An x - e_k with
    # x_k = 0 has a negative entry, dimension 0 and multinomial 0; for each
    # other k, gcd(x - e_k) is folded over the entries of x - e_k up to the
    # first 1, and only a gcd above 1 builds x - e_k for its i > 1 terms.
    n, multinomial, g = 0, 1, 0
    for v in x:
        if v:
            if v < 0:
                return 0
            n += v
            multinomial *= comb(n, v)
            g = gcd(g, v)
    if n < 2:
        # x = 0 gives -dim(0) = -1, and x = e_k gives dim(0) - dim(e_k) = 0
        return n - 1
    below = multinomial
    r = len(x)
    for k, v in enumerate(x):
        if v:
            h = 0
            for j in range(r):
                h = gcd(h, x[j] - (j == k))
                if h == 1:
                    break
            else:
                # no 1 met: as n >= 2, x - e_k != 0 and h = gcd(x - e_k) > 1
                below += _divisor_terms(parities, x[:k] + (v - 1,) + x[k + 1:], h)
    # tested inline, so that a passing quotient makes no Python call;
    # _exact only raises here
    summed, remainder = divmod(below, n - 1)
    if remainder or summed < 0:
        _exact(below, n - 1, "the summed dimensions of the x - e_k gave {} for parities {} "
               "and multidegree {}", parities, x)
    return summed - _dim_formula(parities, x, n, multinomial, g)


def witt(t, r):
    """Necklace count (1/t) sum_{i|t} mu(i) r^(t/i) for t, r >= 1.

    Refuses with ResourceLimitError, before any power or divisor is
    computed, when t * (r - 1).bit_length() + isqrt(t) exceeds 2^20.
    """
    t = as_integer(t, "the necklace length t")
    r = as_integer(r, "the letter count r")
    if t < 1 or r < 1:
        _reject("witt(t, r) needs t >= 1 and r >= 1, got t={}, r={}", t, r)
    # isqrt(t) is superlinear in the bits of t, and past 4 000 bits the cost
    # is far over the cap: there the power of two of its bit length stands
    # in, so that a refusal at any size takes linear time
    root = isqrt(t) if t.bit_length() <= 4000 else 1 << (t.bit_length() - 1) // 2
    cost = t * (r - 1).bit_length() + root
    _within(cost, _MAX_WITT_COST, "witt({}, {}) would cost about {} bits of r^t and trial "
            "divisions, over the cap of {}", t, r, cost, _MAX_WITT_COST)
    acc = 0
    for i, mu in _squarefree_divisors(t):
        acc += mu * r ** (t // i)
    return _exact(acc, t, "necklace count gave {} for t={}, r={}", t, r)


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
        _reject("witt_super needs s >= 1 and r >= 1, got s={}, r={}", s, r)
    if t.denominator != 1 or t < 1:
        return 0
    t = int(t)
    if s % 2 == 1 and t % 4 == 2:
        return witt(t, r) + witt(t // 2, r)
    return witt(t, r)


def _reach(weights, target):
    # reach[k], for 1 <= k <= r - 2, is a bitset as an int: bit v is set when
    # the coordinates k.. can add up to v <= target (the coin-problem table
    # of the suffix); the other entries are None, so r <= 2 builds nothing.
    # Each coordinate adds its multiples by doubling the shift, in
    # O(log(target / a_k)) big-int steps.
    r = len(weights)
    reach = [None] * r
    if r < 3:
        return reach
    mask = (1 << max(target + 1, 0)) - 1
    bits = 1 & mask
    for k in range(r - 1, 0, -1):
        shift = weights[k]
        while shift <= target:
            bits = (bits | bits << shift) & mask
            shift <<= 1
        if k < r - 1:
            reach[k] = bits
    return reach


def _solutions(weights, target):
    # The solutions x >= 0 of sum(a_k x_k) = target in lexicographic order,
    # as a generator, so that the two-component criterion stops at its first
    # witness; a negative target has none.  Each coordinate k < r - 2 steps
    # only to the values that leave a sum the coordinates after it can reach
    # (_reach), and the last two are solved together, so every prefix the
    # walk extends ends in a solution and its cost follows its output.
    # The walk keeps its own stack: x[:k] is the fixed prefix and left[k]
    # what it leaves of target.
    r = len(weights)
    if target < 0:
        return
    if r == 1:
        v, rest = divmod(target, weights[0])
        if not rest:
            yield (v,)
        return
    # a u + b v = n for the last two: u is fixed mod b / g, its least value
    # is found from one modular inverse, and each step of u by stride = b / g
    # lowers v by drop = a / g
    last = r - 2
    a, b = weights[last], weights[last + 1]
    g = gcd(a, b)
    stride, drop = b // g, a // g
    inverse = pow(drop, -1, stride)
    reach = _reach(weights, target)
    x = [0] * r
    left = [target] * (last + 1)
    k = 0
    while True:
        if k == last:
            n = left[k]
            if not n % g:
                u = n // g * inverse % stride
                v = (n - a * u) // b
                prefix = tuple(x[:last])
                while v >= 0:
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
                x[k] = 0
                continue
        # every value of coordinate k is spent: step the one before it
        k -= 1
        if k < 0:
            return
        x[k] += 1


def _count_solutions(weights, target):
    # The number of solutions _solutions walks, without walking them: the
    # coefficient of t^target in prod_k 1/(1 - t^(a_k)), in O(r target)
    # integer steps.
    if target < 0:
        return 0
    ways = [1] + [0] * target
    for a in weights:
        for t in range(a, target + 1):
            ways[t] += ways[t - a]
    return ways[target]


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
    which is solved for D(1), D(2), ... in turn.  The b_j come from
    b_j = j c_j + sum_a c_a b_(j-a), c_a the number of weights a, pushed
    forward: each nonzero b_i adds c_a b_i to b_(i+a) for the weights
    a <= n - i, so degrees no sum of weights reaches push nothing, and
    2 000 weights 2 001..4 000 at n = 4 000 push nothing at all.  Only a
    nonzero D(d) is taken from the b of its multiples; every D(d) is still
    checked to be a nonnegative integer.
    The sums are cached by the sorted weights alone: the longest D(0..n')
    solved so far answers every n <= n', and a longer n is solved afresh,
    or refused with ResourceLimitError, before any table is allocated, when
    its two tables would take more than about 2^33 bits (1 GiB).

    Example: weights (1, 1), n = 2 -> (1, 2, 3): two odd letters in
    degree 1, and in degree 2 the three self- and cross-brackets.
    """
    weights = tuple(sorted(_as_weights(weights)))
    n = as_integer(n, "the degree bound")
    if n < 0:
        _reject("the degree bound must be >= 0, got {}", n)
    return _weighted_dim_sums(weights, n)[:n + 1]


def _weighted_dim_sums(weights, n):
    # D(0..n') for some n' >= n, for sorted weights: the cell of the weights
    # keeps the longest solve so far, a solve over _MAX_DIM_SUMS_BITS is
    # refused before it starts, and a failed solve leaves the cell as it was;
    # the run read or solved here is returned, not the cell, which another
    # thread may have refilled with a shorter run in between
    cell = _dim_sums_cell(weights)
    sums = cell[0]
    if len(sums) <= n:
        bits = _dim_sums_bits(weights, n)
        _within(bits, _MAX_DIM_SUMS_BITS, "the Witt sums of weights {} to degree {} would "
                "take about {} bits, over the cap of {}", weights, n, bits, _MAX_DIM_SUMS_BITS)
        sums = cell[0] = _solve_dim_sums(weights, n)
    return sums


def _multiplicity_sum(weights, target):
    # M(T): the multiplicities of all x >= 0 of weighted degree target; every
    # caller passes sorted weights, the key of the Witt-sum cache, whose
    # D(0..n') may run past target, so it is indexed, never measured
    dims = _weighted_dim_sums(weights, target)
    total = -dims[target]
    for a in weights:
        if a > target:
            break
        total += dims[target - a]
    return total


def _dim_sums_bits(weights, n):
    # an upper bound on the bits a solve of D(0..n) for sorted weights
    # allocates (see _MAX_DIM_SUMS_BITS)
    value_bits = n * (sum(a <= n for a in weights) - 1).bit_length() // weights[0]
    return n * (value_bits * 32 // 30 + 704) + 4096


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
    # b[j] = j [t^j] -log(1 - f(t)) from t f' = (1 - f) t (-log(1 - f))',
    # so b[j] = j c_j + sum_a c_a b[j - a], pushed forward from each nonzero
    # b[i], which is final once the loop reaches i, so a degree no sum of
    # weights reaches costs one test and pushes nothing
    b = [0] * (n + 1)
    for a, c in terms:
        b[a] = a * c
    for i in range(weights[0], n - weights[0] + 1):
        bi = b[i]
        if bi:
            for a, c in terms:
                j = i + a
                if j > n:
                    break
                b[j] += c * bi
    # b[j] = sum_{d|j} eps d D(d): once D(d) is solved, eps d D(d) leaves
    # the b of each multiple j = k d, so b[d] = d D(d) once the loop comes
    # to d; for odd d, eps = -1 at even k.  Every D(d) is checked, but only
    # a nonzero b[d] is taken from its multiples.
    out = [1]
    for d in range(1, n + 1):
        bd = b[d]
        # tested inline, so that a passing degree makes no Python call;
        # _exact only raises here
        value, remainder = divmod(bd, d)
        if remainder or value < 0:
            _exact(bd, d, "weight-graded Witt formula gave {} in degree {} for weights {}",
                   d, weights)
        out.append(value)
        if bd:
            if d % 2:
                for j in range(2 * d, n + 1, 2 * d):
                    b[j] += bd
                for j in range(3 * d, n + 1, 2 * d):
                    b[j] -= bd
            else:
                for j in range(2 * d, n + 1, d):
                    b[j] -= bd
    return tuple(out)
