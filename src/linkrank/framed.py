"""Framed links (each component a sphere with a trivialized normal
l-plane bundle), their ranks and finiteness criteria, and the two
applications: thickenings/handlebody embedding sets and the mapping class
question for fully framed links.

The framed rank is the plain link rank plus one Stiefel-manifold summand
per component.  A "full framing" means l_k = m - p_k for every k.

Every framed verdict is decided once, in _framed_rank, by the framed
criterion: the link is infinite, or a component with l_k >= 1 meets a
framed-knot bullet.  _framed_rank checks it against framed rank > 0, so
framed_rank, framed_knot_is_infinite, fully_framed_is_infinite,
handlebody_report, mcg_finite_index and the CLI's framed command all
report a checked verdict.

The entry points check the frame counts 0 <= l_k <= m - p_k and leave the
link itself, m and the p_k, to ranks._as_link.  handlebody_report and
mcg_finite_index check their own regime and answer None outside it.
"""

from operator import itemgetter
from typing import NamedTuple, Optional

from .arith import as_integer, as_integers
from .errors import _agree, _reject
from .ranks import RankReport, _as_link, _link_report
from .stiefel import _stiefel_rank


def _as_framed(m, components):
    # each component a pair (p_k, l_k); the link check of ranks._as_link on
    # the p_k, then 0 <= l_k <= m - p_k
    try:
        components = tuple((p, l) for p, l in components)
    except (TypeError, ValueError):
        _reject("a framed link is a sequence of (p, l) pairs, got {}", components)
    m, dims = _as_link(m, map(itemgetter(0), components))
    frames = as_integers(map(itemgetter(1), components), "a frame count", "frame counts")
    for p, l in zip(dims, frames):
        if l < 0 or l > m - p:
            _reject("frame count must satisfy 0 <= l <= m - p, got l={} for p={}, m={}", l, p, m)
    return m, dims, frames


class FramedRankReport(NamedTuple):
    m: int
    p: tuple
    l: tuple
    total_rank: int
    link_report: RankReport
    stiefel_ranks: tuple
    infinite: bool


def framed_rank(m, components):
    """Rank report for a framed link with (p_k, l_k) components in R^m: the
    underlying link rank plus one Stiefel summand stiefel_rank(p_k, m - p_k,
    l_k) per component."""
    return _framed_rank(*_as_framed(m, components))


def _framed_rank(m, dims, frames):
    link_report = _link_report(m, dims)
    stiefel_ranks = tuple(_stiefel_rank(p, m - p, l) for p, l in zip(dims, frames))
    total = link_report.total_rank + sum(stiefel_ranks)
    # a framed-knot bullet holds exactly when knot_rank + stiefel_rank > 0
    # for l >= 1, and a knot rank of 1 already makes the link infinite
    infinite = link_report.infinite or any(
        _framed_knot_infinite(m, p, l) for p, l in zip(dims, frames) if l)
    _agree(infinite, total > 0, "framed criterion says {} but the framed rank is {} "
           "for m={}, p={}, l={}", infinite, total, m, dims, frames)
    return FramedRankReport(
        m=m,
        p=dims,
        l=frames,
        total_rank=total,
        link_report=link_report,
        stiefel_ranks=stiefel_ranks,
        infinite=infinite,
    )


def framed_knot_is_infinite(m, p, l):
    """Finiteness criterion for a single framed sphere, 1 <= l <= m - p,
    asserted against the computed framed rank."""
    m, (p,), (l,) = _as_framed(m, ((p, l),))
    if l < 1:
        _reject("the criterion needs l >= 1, got l={}", l)
    return _framed_rank(m, (p,), (l,)).infinite


def _framed_knot_infinite(m, p, l):
    return ((p + 1) % 4 == 0 and 2 * m < 3 * p + 2 * l + 2
            or (p + 1) % 2 == 0 and m == 2 * p + 1
            or p % 2 == 0 and m == 2 * p + l)


def _fully_framed(m, dims):
    return _framed_rank(m, dims, tuple(m - v for v in dims))


def fully_framed_is_infinite(m, dims):
    """Finiteness verdict for the link with every component fully framed
    (l_k = m - p_k), asserted against the computed framed rank."""
    return _fully_framed(*_as_link(m, dims)).infinite


class HandlebodyReport(NamedTuple):
    """Findings for thickenings of a wedge of spheres and for embeddings of
    the corresponding handlebody, both in dimension m_plus_1.

    sets_finite is True when the finiteness conditions are established and
    None when the criteria do not apply (inconclusive).  group_rank is the
    rank of the thickening group when it is known to be finitely generated
    abelian, else None.
    """

    m_plus_1: int
    handle_dims: tuple
    weak_conditions_hold: bool
    strict_conditions_hold: bool
    sets_finite: Optional[bool]
    group_rank: Optional[int]


def handlebody_report(m_plus_1, handle_dims):
    """Analyze thickenings/handlebody embeddings with handles of dimensions
    handle_dims inside dimension m_plus_1.

    The induced framed-link data lives one dimension down: m = m_plus_1 - 1,
    sphere dimensions p_k = handle_dim_k - 1, full framings l_k = m - p_k.
    """
    m_plus_1 = as_integer(m_plus_1, "the dimension m + 1")
    handle_dims = as_integers(handle_dims, "a handle dimension", "handle dimensions")
    if not handle_dims:
        _reject("need at least one handle")
    if any(v < 1 for v in handle_dims):
        _reject("handle dimensions must be >= 1, got {}", handle_dims)
    m = m_plus_1 - 1
    dims = tuple(v - 1 for v in handle_dims)

    # the conditions bound 2a - b over all pairs (a, b) of dims, and it
    # spans [2 lo - hi, 2 hi - lo]
    lo, hi = min(dims), max(dims)
    weak = 2 * hi - lo + 2 <= m and 2 * lo - hi >= 1
    strict = 2 * hi - lo + 2 < m and 2 * lo - hi > 1
    codim_ok = 1 <= lo and hi < m - 2

    sets_finite = None
    group_rank = None
    if codim_ok and weak:  # strict implies weak
        report = _fully_framed(m, dims)
        if not report.infinite:
            sets_finite = True
        if strict:
            group_rank = report.total_rank
    return HandlebodyReport(
        m_plus_1=m_plus_1,
        handle_dims=handle_dims,
        weak_conditions_hold=weak,
        strict_conditions_hold=strict,
        sets_finite=sets_finite,
        group_rank=group_rank,
    )


def mcg_finite_index(m, dims):
    """Whether the image of the relevant mapping class group action has
    finite index: True/False inside the applicable regime (m >= 5 and every
    component dimension at least floor(m/2)), None when inconclusive."""
    m = as_integer(m, "the ambient dimension")
    dims = as_integers(dims, "a component dimension", "component dimensions")
    if not dims:
        _reject("need at least one component")
    # from m = 5 on, every v >= m // 2 is at least 1
    if m < 5 or min(dims) < m // 2 or max(dims) >= m - 2:
        return None
    return not _fully_framed(m, dims).infinite
