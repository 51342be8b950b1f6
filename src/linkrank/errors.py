"""Exception hierarchy shared by every module in the package, and _shown,
through which their messages format every number."""


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


def _shown(numerator, denominator=1):
    """numerator / denominator as str(Fraction) writes it, while both have
    at most 2 000 bits, else its size, as in "<number of 14263 bits>"; a
    tuple of ints as str(tuple) writes it, each entry written so.  Such a
    number has at most 603 digits, under the least limit that
    sys.set_int_max_str_digits accepts (640), so a message that formats
    its numbers through _shown, inputs as well as ranks, counts and
    quotients, never raises ValueError."""
    if isinstance(numerator, tuple):
        entries = ", ".join(map(_shown, numerator))
        return f"({entries},)" if len(numerator) == 1 else f"({entries})"
    bits = max(numerator.bit_length(), denominator.bit_length())
    if bits > 2000:
        return f"<number of {bits} bits>"
    if denominator == 1:
        return str(numerator)
    from fractions import Fraction
    return str(Fraction(numerator, denominator))
