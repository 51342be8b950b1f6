"""Exception hierarchy shared by every module in the package; _shown,
through which their messages format every number and every rejected
value; and _agree, through which every cross-check of ranks and framed
holds two routes to one value and raises InternalConsistencyError when
they differ."""


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
