"""Membership tests for the four parity-indexed families of lattice points
(x, y) at which the two-generator multidegree component carries positive
multiplicity.  Only the parities of the two arguments i and j matter.

The families are given by explicit congruence bullets; the equivalence
"member <=> multiplicity > 0" is exercised wholesale by the test suite.
"""

from .arith import as_integer
from .errors import _reject, _within

# the most points fcs_enumerate tests: a 500 x 500 box takes 0.11-0.13 s
# in-process and 0.6 s (text) to 1.7 s (json) through `linkrank fcs` on
# Python 3.11, 2-core x86-64 VM
_MAX_BOX = 250_000


def _parity(value):
    if isinstance(value, str):
        word = value.strip().lower()
        if word == "even":
            return 0
        if word == "odd":
            return 1
        _reject("parity must be an integer or 'even'/'odd', got {}", value)
    return as_integer(value, "a parity index") % 2


def fcs_contains(i, j, x, y):
    """Whether the lattice point (x, y), x, y >= 1, belongs to the family
    indexed by the parities of (i, j).

    i and j may be integers or the strings 'even'/'odd'.
    Example: fcs_contains("odd", "even", 2, 3) -> True.
    """
    x = as_integer(x, "the x coordinate")
    y = as_integer(y, "the y coordinate")
    if x < 1 or y < 1:
        _reject("membership is defined for x, y >= 1, got ({}, {})", x, y)
    return _member(_parity(i), _parity(j), x, y)


def _member(pi, pj, x, y):
    if pi == 0 and pj == 0:
        return (
            (x == 1 and y == 1)
            or (x == 2 and y % 2 == 0)
            or (x == 3 and y == 3)
            or (x == 3 and y >= 5)
            or (x >= 4 and y >= 4)
            or (x % 2 == 0 and y == 2)
            or (x >= 5 and y == 3)
        )
    if pi == 1 and pj == 0:
        return (
            (x == 1 and y == 1)
            or (x == 2 and (y + 1) % 2 == 0)
            or (x == 3 and y >= 2)
            or (x >= 4 and y >= 4)
            or (x % 4 == 0 and y == 2)
            or ((x + 1) % 4 == 0 and y == 2)
            or (x >= 5 and y == 3)
        )
    if pi == 1 and pj == 1:
        return (
            (x == 1 and y == 1)
            or (x == 2 and (y + 2) % 4 == 0)
            or (x == 2 and (y + 3) % 4 == 0)
            or (x >= 3 and y >= 3)
            or ((x + 2) % 4 == 0 and y == 2)
            or ((x + 3) % 4 == 0 and y == 2)
        )
    # (even, odd) is the (odd, even) family reflected across the diagonal
    return _member(pj, pi, y, x)


def fcs_enumerate(i, j, x_max, y_max):
    """All member points in the box 1 <= x <= x_max, 1 <= y <= y_max,
    in lexicographic order, for the family indexed by the parities of
    (i, j) as in fcs_contains.  Refused with ResourceLimitError when the
    box holds more than _MAX_BOX points."""
    x_max = as_integer(x_max, "the box bound x_max")
    y_max = as_integer(y_max, "the box bound y_max")
    if x_max < 1 or y_max < 1:
        _reject("box bounds must be >= 1, got ({}, {})", x_max, y_max)
    pi, pj = _parity(i), _parity(j)
    points = x_max * y_max
    _within(points, _MAX_BOX, "the box {} x {} holds {} points, over the cap of {}",
            x_max, y_max, points, _MAX_BOX)
    return [
        (x, y)
        for x in range(1, x_max + 1)
        for y in range(1, y_max + 1)
        if _member(pi, pj, x, y)
    ]
