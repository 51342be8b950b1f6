"""Exception hierarchy shared by every module in the package; _shown,
through which their messages format every number and every rejected
value; and the four helpers that raise them:

* _agree, through which every cross-check of ranks and framed, and the
  failure count of the CLI's oracle verify, holds two routes to one value
  and raises InternalConsistencyError when they differ;
* _exact, through which every division of liedim that must come out a
  nonnegative whole number (the dimension formula, the summed dimensions
  of a multiplicity, the necklace count and the Witt-sum sieve) returns
  its quotient or raises InternalConsistencyError;
* _within, through which every resource cap of fcs, liedim, oracle and
  ranks admits an estimated cost or raises ResourceLimitError;
* _reject, through which every argument check of arith, cli, fcs, framed,
  liedim, oracle, ranks and stiefel raises InvalidInputError.

So this module raises every error the package raises, and no other
module catches one but the CLI, which turns each into its exit code."""


class LinkRankError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(LinkRankError, ValueError):
    """Arguments fall outside the domain of the requested operation."""


class InternalConsistencyError(LinkRankError):
    """Two independent computations of the same quantity disagree.

    This always indicates a bug in the library (or a broken invariant),
    never bad user input.
    """


class ResourceLimitError(LinkRankError):
    """A brute-force computation would exceed its configured size budget."""


def _shown(value, denominator=1):
    """value as repr writes it, except that an int of more than 2 000 bits
    is written as its size, as in "<number of 14263 bits>".  An int, a tuple
    or a list is written so entry by entry; any other value by repr, unless
    repr fails on such an int inside it: then a Fraction (any value with a
    denominator) is written from its two parts, and anything else by its
    type alone.  With a denominator, the int quotient value / denominator is
    written as str(Fraction) writes it.

    A size has at most 603 digits, under the least limit that
    sys.set_int_max_str_digits accepts (640).  So a message that formats
    each value it names through _shown, inputs as well as ranks, counts and
    quotients, never raises ValueError, and it names a small value as repr
    does."""
    if isinstance(value, (tuple, list)):
        entries = ", ".join(map(_shown, value))
        if isinstance(value, list):
            return f"[{entries}]"
        return f"({entries},)" if len(value) == 1 else f"({entries})"
    if not isinstance(value, int):
        try:
            return repr(value)
        except ValueError:  # an int past the interpreter's digit cap inside
            if not hasattr(value, "denominator"):
                return f"<{type(value).__name__}>"
            return f"{type(value).__name__}{_shown((value.numerator, value.denominator))}"
    bits = max(value.bit_length(), denominator.bit_length())
    if bits > 2000:
        return f"<number of {bits} bits>"
    if denominator == 1:
        return str(value)
    from fractions import Fraction
    return str(Fraction(value, denominator))


def _agree(left, right, message, *values):
    """Return when left == right, else raise InternalConsistencyError with
    message formatted by the values, each through _shown.  A check passes
    only values it has computed already, so it costs one call when it
    holds."""
    if left != right:
        raise InternalConsistencyError(message.format(*map(_shown, values)))


def _within(cost, cap, message, *values):
    """Return when cost <= cap, else raise ResourceLimitError with message
    formatted by the values, each through _shown.  A cap passes only values
    it has computed already, so it costs one call when it admits."""
    if cost > cap:
        raise ResourceLimitError(message.format(*map(_shown, values)))


def _reject(message, *values):
    """Raise InvalidInputError with message formatted by the values, each
    through _shown, and from None: a rejection raised while handling a
    failed conversion shows the rejection alone.  A check calls it only on
    its failing branch, so an admitted argument costs no call."""
    raise InvalidInputError(message.format(*map(_shown, values))) from None


def _exact(numerator, denominator, message, *values):
    """Return numerator // denominator when numerator / denominator is a
    nonnegative whole number, else raise InternalConsistencyError with
    message formatted by that quotient, written as _shown writes it, and
    then by the values, each through _shown.  A check passes only values it
    has computed already, so it costs one call when it holds."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder or quotient < 0:
        raise InternalConsistencyError(
            message.format(_shown(numerator, denominator), *map(_shown, values)))
    return quotient
