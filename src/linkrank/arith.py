"""Exact integer helpers: the argument checks every entry point runs, and
the two number-theoretic cores the dimension layer and the oracle call.

as_integer and as_integers turn an argument into exact ints or reject it
with InvalidInputError.  as_integers passes a sequence of exact ints
with no Python call per entry, by testing the set of entry types once; a
sequence with any other entry is converted or rejected one entry at a
time, and a rejection names the first offender.  The cores take integers
already checked: _squarefree_divisors lists the divisors d of n with
mu(d) != 0, each with its sign, from one trial division, which is all a
Moebius divisor sum reads; _multinomial is a multinomial coefficient as
a running product of binomials.

Everything here is plain integer arithmetic; no floats anywhere.
"""

from math import comb
from operator import index

from .errors import _reject


def as_integer(value, what):
    """value as an exact int.  Floats, strings and bools are rejected rather
    than truncated or read as 0/1; anything with __index__ is accepted."""
    if type(value) is int:
        return value
    if isinstance(value, bool):
        _reject(what + " must be an integer, got {}", value)
    try:
        return index(value)
    except TypeError:
        _reject(what + " must be an integer, got {}", value)


def as_integers(values, what, whole):
    """values as a tuple of exact ints; a values that is not a sequence is
    rejected, naming it as `whole`.  Exact ints pass with no Python call per
    entry; any other entries are converted or rejected one by one by
    as_integer, each as `what`, so a rejection names the first offender."""
    try:
        values = tuple(values)
    except TypeError:
        _reject(whole + " must be a sequence of integers, got {}", values)
    if set(map(type, values)) <= {int}:
        return values
    return tuple(as_integer(v, what) for v in values)


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


def _multinomial(parts):
    # (sum parts)! / prod(part!) for parts already known to be nonnegative
    # integers, as the running product prod_k C(p_1 + ... + p_k, p_k): no
    # factorial of the whole sum is built, so one large part costs a
    # binomial, not two factorials
    total, result = 0, 1
    for p in parts:
        total += p
        result *= comb(total, p)
    return result
