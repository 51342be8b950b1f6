"""Ranks of the groups of smooth isotopy classes of links of spheres in
codimension greater than two: single knots, Brunnian links (every proper
sublink trivial) and general links, together with the matching finiteness
criteria.

A link is an ambient dimension m plus component sphere dimensions
p = (p_1, ..., p_r) with every p_k < m - 2.  The attached generator system
has weights a_k = m - p_k - 2, and every rank is a sum of component
multiplicities over the multidegrees x of weighted degree N = m - 3.

Those sums are taken in closed form, not term by term.  For a set T of
components, the multiplicities of all x >= 0 supported on T add up to
M(T) = sum_{k in T} D_T(N - a_k) - D_T(N), where D_T(n) is the summed
component dimension in weighted degree n given by the weight-graded Witt
formula (liedim.weighted_dim_sums).  The Brunnian rank of S, the sum over
x >= 1 on S, is sum_{T within S} (-1)^|S - T| M(T); it is 0 whenever the
weights of S add up to more than N.  The link rank is M(all components)
plus the knot ranks minus the delta corrections.

A sublink enters every rank and criterion only through its weights, so it
is keyed by their sorted tuple.  _sublinks lists those whose weights fit in
N, each after its sub-multisets; the rest have rank 0.  The inversion
removes one copy of a weight per pass, as the transform over subsets removes
one component.  The link criterion walks the same family, and the split
check weighs each multiset t by its number of component subsets,
prod_a C(count of a in the link, count of a in t).  The fully framed
criterion (framed) adds the framed-knot bullets and walks no sublinks.

Each public function validates its arguments once, through _as_link,
which writes the rule 1 <= p_k < m - 2 (framed_rank and
fully_framed_is_infinite call it too; framed.handlebody_report and
framed.mcg_finite_index write the rule again, as they answer None outside
it instead of raising); _link_report(m, dims), the one cached core, and
brunnian_rank take the validated integers and call only the unvalidated
cores of liedim and fcs.

A report is a read-only tuple of its fields (typing.NamedTuple); a
subclass adds the attributes computed on first access as cached_property
values, which live in the instance __dict__.

Every finiteness verdict is the `infinite` field of the report that holds
the rank; the Brunnian one is decided and checked on first access.  The
criteria never read the Witt sums.  A Brunnian sublink of three or more
components is infinite exactly when sum a_k x_k = m - 3 has a solution
x >= 1, and liedim._count_solutions counts those solutions in
O(r (m - 3)) steps without listing them.  One of two components is
infinite when such a solution lies in the membership family of fcs, and
the walk of liedim._solutions stops at the first one that does.  For two
weights the walk builds no table: it finds x_1 mod a_2 / gcd(a_1, a_2)
from one modular inverse and then steps x_1 by that stride, so it visits
only solutions, at most (m - 3) / lcm(a_1, a_2) + 1 of them.  A link is
infinite when one of its knot ranks is 1 or one of its fitting sublinks
of two or more components is infinite.

Independent checks raise InternalConsistencyError on a mismatch:

* the per-multidegree terms (`contributions`) are counted by a generating
  function, refused over _MAX_TERMS, and enumerated on first access, each
  listed with its own x; the multiplicity is computed once per parity class
  (the x that differ by swapping entries at coordinates whose weights have
  one parity), with its two exact-quotient checks, and every member of the
  class takes it; there must be as many terms as counted, and they must add
  up to the closed-form value;
* the link rank must equal its split into knot ranks plus one Brunnian
  rank per component subset, which tests the delta terms and the subsets
  left out as having no positive solution;
* each finiteness verdict, decided by the solvability criteria, must
  agree with rank > 0;
* equal_dim_rank must agree with its one-weight closed form.
"""

from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, prod
from operator import add
from types import MappingProxyType
from typing import NamedTuple, Optional

from .arith import as_integer, as_integers
from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .fcs import _member
from .liedim import (_count_solutions, _multiplicity, _parities, _solutions,
                     _weighted_dim_sums, witt_super)

# the most entries contributions or subset_decomposition lists; it admits
# the 31 465 terms of (30; 27^5) and the benchmark's guard of 32 000
_MAX_TERMS = 200_000


def _as_link(m, dims):
    # the one check of a link: integers m and p_k, at least one component,
    # every 1 <= p_k < m - 2
    m = as_integer(m, "the ambient dimension")
    dims = as_integers(dims, "a component dimension", "component dimensions")
    if not dims:
        raise InvalidInputError("a link needs at least one component")
    for v in dims:
        if v < 1:
            raise InvalidInputError(f"component dimensions must be >= 1, got {v}")
        if v >= m - 2:
            raise InvalidInputError(
                f"codimension must exceed 2: component dimension {v} "
                f"inside ambient dimension {m}")
    return m, dims


def _contributions(m, dims, lower, expected):
    # (x, multiplicity) over the solutions x >= lower of sum(a_k x_k) = m - 3,
    # counted before they are enumerated, and checked against the count and
    # the closed-form sum
    weights = tuple(m - v - 2 for v in dims)
    bounds = (lower,) * len(dims)
    count = _count_solutions(weights, m - 3, bounds)
    if count > _MAX_TERMS:
        raise ResourceLimitError(
            f"m={m}, p={dims} has {count} contributions, over the cap of {_MAX_TERMS}")
    parities = _parities(weights)
    # a multiplicity is unchanged by swapping entries of x at coordinates of
    # one parity, so the kernel runs once per class of x: its sorted entries
    # when the weights share one parity, else the sorted odd-weight entries
    # then the sorted even-weight ones, which the shift by m - 2 (more than
    # any entry) keeps apart in one sort
    shift = [0 if p else m - 2 for p in parities] if 0 < sum(parities) < len(dims) else None
    values = {}
    terms = []
    # a count of 0 lists nothing, so it skips the walk and its reachability
    # table; a link with no solution is then decided by the count alone
    for x in (_solutions(weights, m - 3, bounds) if count else ()):
        key = tuple(sorted(x if shift is None else map(add, x, shift)))
        value = values.get(key)
        if value is None:
            value = values[key] = _multiplicity(parities, x)
        terms.append((x, value))
    terms = tuple(terms)
    if len(terms) != count:
        raise InternalConsistencyError(
            f"enumerated {len(terms)} solutions but counted {count} for m={m}, p={dims}")
    total = sum(value for _, value in terms)
    if total != expected:
        raise InternalConsistencyError(
            f"the {len(terms)} enumerated contributions add up to {total} but the "
            f"Witt formula gives {expected} for m={m}, p={dims}")
    return terms


class _ReadOnly:
    # cached_property writes into the instance __dict__ itself; every other
    # assignment is refused, as _link_report hands one report to all callers
    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__


class _BrunnianFields(NamedTuple):
    m: int
    p: tuple
    rank: int


class BrunnianRank(_ReadOnly, _BrunnianFields):
    @cached_property
    def contributions(self):
        """((multidegree, multiplicity), ...) over the positive solutions,
        enumerated on first access and checked against rank; refused with
        ResourceLimitError when there are more than _MAX_TERMS."""
        return _contributions(self.m, self.p, 1, self.rank)

    @cached_property
    def infinite(self):
        """Finiteness verdict from the solvability criterion, decided on first
        access and checked against rank."""
        verdict = _subsequence_infinite(
            tuple(sorted(self.m - v - 2 for v in self.p)), self.m - 3)
        if verdict != (self.rank > 0):
            raise InternalConsistencyError(
                f"Brunnian criterion says {verdict} but the rank is {self.rank} "
                f"for m={self.m}, p={self.p}")
        return verdict


class _RankFields(NamedTuple):
    m: int
    p: tuple
    total_rank: int
    brunnian_rank: Optional[int]  # None when r = 1
    knot_ranks: tuple
    infinite: bool


class RankReport(_ReadOnly, _RankFields):
    @cached_property
    def subset_decomposition(self):
        """Read-only map from every nonempty 1-based component subset, by
        size and then lexicographically, to its Brunnian rank (its knot
        rank for a single component), built on first access.  Refused with
        ResourceLimitError when there are more than _MAX_TERMS subsets."""
        subsets = 2 ** len(self.p) - 1
        if subsets > _MAX_TERMS:
            raise ResourceLimitError(
                f"the decomposition of m={self.m}, p={self.p} lists {subsets} component "
                f"subsets, over the cap of {_MAX_TERMS}")
        weights = [self.m - v - 2 for v in self.p]
        ranks = _brunnian_ranks(tuple(sorted(weights)), self.m - 3)
        split = {}
        for size in range(1, len(self.p) + 1):
            for subset in combinations(range(len(self.p)), size):
                split[tuple(k + 1 for k in subset)] = (
                    self.knot_ranks[subset[0]] if size == 1
                    else ranks.get(tuple(sorted(weights[k] for k in subset)), 0))
        return MappingProxyType(split)

    @cached_property
    def contributions(self):
        """((multidegree, multiplicity), ...) over x >= 0, enumerated on first
        access and checked against total_rank; refused with
        ResourceLimitError when there are more than _MAX_TERMS."""
        expected = (self.total_rank - sum(self.knot_ranks)
                    + sum(_delta(self.m, v) for v in self.p))
        return _contributions(self.m, self.p, 0, expected)


def knot_rank(m, p):
    """Rank of the group of knots S^p in R^m (0 or 1)."""
    m, (p,) = _as_link(m, (p,))
    return _knot_rank(m, p)


def _knot_rank(m, p):
    return 1 if (p + 1) % 4 == 0 and 2 * m < 3 * p + 4 else 0


def _delta(m, p):
    # 1 exactly when 2(m-3)/(m-p-2) equals 4 (m-p even) or 6 (m-p odd);
    # _as_link makes m - p - 2 >= 1, so the test clears that denominator
    target = 4 if (m - p) % 2 == 0 else 6
    return 1 if 2 * (m - 3) == target * (m - p - 2) else 0


def _multiplicity_sum(weights, target):
    # M(T): the multiplicities of all x >= 0 of weighted degree target; every
    # caller passes sorted weights, the key of the Witt-sum cache, whose
    # D(0..n') may run past target, so it is indexed, never measured
    dims = _weighted_dim_sums(weights, target)
    return sum(dims[target - a] for a in weights if a <= target) - dims[target]


def _sublinks(weights, target):
    """Sorted sub-multisets of the sorted weights adding up to at most target,
    the empty one first and each after its own.  Only these sublinks have a
    solution x >= 1 of sum(a_k x_k) = target."""
    family = [((), 0)]
    for a in sorted(set(weights)):
        count = weights.count(a)
        family = [(t + (a,) * j, total + j * a) for t, total in family
                  for j in range(count + 1) if total + j * a <= target]
    return [t for t, _ in family]


def _brunnian_ranks(weights, target):
    """Brunnian rank of every sublink in _sublinks(weights, target), keyed by
    its sorted weights; the others have rank 0.  The family is closed under
    taking sub-multisets, so the Moebius transform never reads outside it."""
    ranks = {(): 0}
    for t in _sublinks(weights, target)[1:]:
        ranks[t] = _multiplicity_sum(t, target)
    # pass j of weight a stands for its j-th component: it drops one copy of
    # a from each sublink with more than j, supersets first to read old values
    for a in set(weights):
        for j in range(weights.count(a)):
            for t in reversed(ranks):
                if t.count(a) > j:
                    i = t.index(a)
                    ranks[t] -= ranks[t[:i] + t[i + 1:]]
    return ranks


def brunnian_rank(m, dims):
    """Rank of the group of Brunnian links; needs at least two components.

    Example: brunnian_rank(5, (2, 2)).rank -> 1.
    """
    m, dims = _as_link(m, dims)
    if len(dims) < 2:
        raise InvalidInputError(
            "Brunnian rank needs at least two components; use knot_rank for one")
    weights = tuple(sorted(m - v - 2 for v in dims))
    return BrunnianRank(m, dims, _brunnian_ranks(weights, m - 3).get(weights, 0))


def _subsequence_infinite(weights, target):
    # three or more components: any positive solution at all, counted;
    # two: a positive solution lying in the membership family, walked up to
    # the first witness.  The family index m - p_k = a_k + 2 has the parity
    # of a_k.
    if len(weights) > 2:
        return _count_solutions(weights, target, (1,) * len(weights)) > 0
    pi, pj = weights[0] % 2, weights[1] % 2
    return any(_member(pi, pj, x, y) for x, y in _solutions(weights, target, (1, 1)))


def brunnian_is_infinite(m, dims):
    """Finiteness verdict for the Brunnian group: brunnian_rank(m, dims).infinite."""
    return brunnian_rank(m, dims).infinite


@lru_cache(maxsize=2 ** 14)
def _link_report(m, dims):
    if m - 3 < 1:
        raise InternalConsistencyError(f"degree target m - 3 = {m - 3} is not positive")
    knot_ranks = tuple(_knot_rank(m, v) for v in dims)
    weights = tuple(sorted(m - v - 2 for v in dims))
    total = (_multiplicity_sum(weights, m - 3)
             + sum(knot_ranks) - sum(_delta(m, v) for v in dims))

    # the same total split into the knot ranks plus one Brunnian summand per
    # subset of two or more components; the sublinks that do not fit add 0
    ranks = _brunnian_ranks(weights, m - 3)
    split_total = sum(knot_ranks) + sum(
        value * prod(comb(weights.count(a), t.count(a)) for a in set(t))
        for t, value in ranks.items() if len(t) >= 2)
    if split_total != total:
        raise InternalConsistencyError(
            f"closed formula gives rank {total} but the subset splitting gives "
            f"{split_total} for m={m}, p={dims}")

    # is some sublink of two or more components infinite?  one per multiset
    infinite = any(knot_ranks) or any(
        _subsequence_infinite(t, m - 3) for t in ranks if len(t) >= 2)
    if infinite != (total > 0):
        raise InternalConsistencyError(
            f"finiteness criterion says {infinite} but the rank is {total} "
            f"for m={m}, p={dims}")

    return RankReport(
        m=m, p=dims, total_rank=total,
        brunnian_rank=ranks.get(weights, 0) if len(dims) >= 2 else None,
        knot_ranks=knot_ranks, infinite=infinite)


def link_rank(m, dims):
    """Full rank report for the group of links of spheres of dimensions
    dims in R^m."""
    return _link_report(*_as_link(m, dims))


def link_is_infinite(m, dims):
    """Finiteness verdict for the whole link group (some subsequence of
    components already carries rank)."""
    return link_rank(m, dims).infinite


def equal_dim_rank(m, p, r):
    """Closed form for the rank when all r components have equal dimension
    p > 1, cross-checked against the general formula."""
    r = as_integer(r, "the number of components")
    if r < 1:
        raise InvalidInputError(f"need at least one component, got r={r}")
    m, dims = _as_link(m, (p,) * r)
    p = dims[0]
    if p <= 1:
        raise InvalidInputError(f"the equal-dimension form needs p > 1, got p={p}")
    from fractions import Fraction
    s = m - p
    t = Fraction(m - 3, m - p - 2)
    c = _knot_rank(m, p)
    value = r * (witt_super(t - 1, s, r) + c - _delta(m, p)) - witt_super(t, s, r)
    check = _link_report(m, dims).total_rank
    if value != check:
        raise InternalConsistencyError(
            f"equal-dimension form gives {value} but the general formula gives "
            f"{check} for m={m}, p={p}, r={r}")
    return value
