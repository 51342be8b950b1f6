"""Rational homotopy ranks of special orthogonal groups and of Stiefel
manifolds of orthonormal l-frames in q-space.

Both functions return the rank (0, 1 or 2) of the relevant homotopy group
tensored with the rationals.  Degenerate arguments where the group vanishes
(p < 1, or a target space that is a point) give 0 rather than an error.
"""

from .arith import as_integer
from .errors import _reject


def so_rank(p, q):
    """Rank of the p-th homotopy group of SO(q), rationally."""
    p = as_integer(p, "the homotopy degree p")
    q = as_integer(q, "the dimension q")
    if p < 1 or q < 2:
        # SO(0) and SO(1) are points, and there is no homotopy below p = 1
        return 0
    # SO(q) is the Stiefel manifold of (q - 1)-frames in q-space
    return _stiefel_rank(p, q, q - 1)


def stiefel_rank(p, q, l):
    """Rank of the p-th homotopy group of the Stiefel manifold of
    orthonormal l-frames in q-space, rationally.

    Needs integers p >= 1, q >= 1 and 0 <= l <= q.  l = 0 gives the
    one-point manifold, hence 0.
    """
    p = as_integer(p, "the homotopy degree p")
    q = as_integer(q, "the dimension q")
    l = as_integer(l, "the frame count l")
    if p < 1 or q < 1 or l < 0 or l > q:
        _reject("need p >= 1, q >= 1 and 0 <= l <= q, got p={}, q={}, l={}", p, q, l)
    return _stiefel_rank(p, q, l)


def _stiefel_rank(p, q, l):
    if l == 0:
        return 0
    if p % 4 == 3:
        if p + 1 == q:
            # the frame count decides whether both generators survive
            return 2 if q <= 2 * l else 1
        # p/2 + 1 < q < l + p/2 + 1, cleared of halves
        return 1 if p + 2 < 2 * q < 2 * l + p + 2 else 0
    if p % 4 == 1:
        return 1 if p + 1 == q else 0
    # p even
    return 1 if p == q - l else 0
