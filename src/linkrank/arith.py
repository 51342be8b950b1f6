"""Exact elementary number theory: Moebius function, divisor lists and
multinomial coefficients.

Each public function checks its arguments (through as_integer or
as_integers) and then calls an unvalidated core named with a leading
underscore; liedim calls the cores _squarefree_divisors and _multinomial
directly on integers it has already checked.  Its divisor sums read only
the divisors with mu != 0, so _squarefree_divisors lists those with their
signs from one trial division, without factoring any divisor again.

Everything here is plain integer arithmetic; no floats anywhere.
"""

from math import comb
from operator import index

from .errors import InvalidInputError, _shown


def as_integer(value, what):
    """value as an exact int.  Floats, strings and bools are rejected rather
    than truncated or read as 0/1; anything with __index__ is accepted."""
    if isinstance(value, bool):
        raise InvalidInputError(f"{what} must be an integer, got {_shown(value)}")
    try:
        return index(value)
    except TypeError:
        raise InvalidInputError(f"{what} must be an integer, got {_shown(value)}") from None


def as_integers(values, what, whole):
    """values as a tuple of exact ints, each checked by as_integer as `what`;
    a values that is not a sequence is rejected, naming it as `whole`."""
    try:
        return tuple(as_integer(v, what) for v in values)
    except TypeError:
        raise InvalidInputError(
            f"{whole} must be a sequence of integers, got {_shown(values)}") from None


def moebius(n):
    """Moebius mu(n): (-1)^k for a product of k distinct primes, else 0."""
    n = as_integer(n, "the argument of moebius")
    if n < 1:
        raise InvalidInputError(f"moebius(n) needs n >= 1, got {_shown(n)}")
    return _moebius(n)


def _moebius(n):
    # moebius on an int n >= 1
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n):
    """All positive divisors of n in increasing order."""
    n = as_integer(n, "the argument of divisors")
    if n < 1:
        raise InvalidInputError(f"divisors(n) needs n >= 1, got {_shown(n)}")
    return _divisors(n)


def _divisors(n):
    # divisors on an int n >= 1
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    small.extend(reversed(large))
    return small


def _squarefree_divisors(n):
    # (d, mu(d)) over the squarefree divisors d of an int n >= 1, (1, 1)
    # first: each prime p of n doubles the list with the signs flipped
    pairs = [(1, 1)]
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            while n % p == 0:
                n //= p
            pairs += [(d * p, -mu) for d, mu in pairs]
        p += 1
    if n > 1:
        pairs += [(d * n, -mu) for d, mu in pairs]
    return pairs


def multinomial(parts):
    """(sum parts)! / prod(part!) for nonnegative integer parts."""
    parts = as_integers(parts, "a multinomial part", "the multinomial parts")
    if any(p < 0 for p in parts):
        raise InvalidInputError(
            f"multinomial takes nonnegative integers, got {_shown(parts)}")
    return _multinomial(parts)


def _multinomial(parts):
    # multinomial on parts already known to be nonnegative integers, as the
    # running product prod_k C(p_1 + ... + p_k, p_k): no factorial of the
    # whole sum is built, so one large part costs a binomial, not two
    # factorials
    total, result = 0, 1
    for p in parts:
        total += p
        result *= comb(total, p)
    return result
