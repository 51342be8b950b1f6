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
formula (liedim.weighted_dim_sums); liedim._multiplicity_sum computes it,
so this module reads no Witt table.  The Brunnian rank of S, the sum over
x >= 1 on S, is sum_{T within S} (-1)^|S - T| M(T); it is 0 whenever the
weights of S add up to more than N.  The link rank is M(all components)
plus the knot ranks minus the delta corrections.

A sublink enters every rank and criterion only through its weights, so it
is keyed by their sorted tuple.  _brunnian_ranks is the one builder of the
sublink family and takes the sorted weights of the whole link.  It first
keeps their paired prefix: the weights a <= N - a_min, or none when fewer
than two remain.  The least weight pairs with each of them, and a
component whose weight plus the least other weight exceeds N is in no
fitting sublink of two or more components.  Such a component adds only
its own singleton, which neither the split check, nor the sublink
criterion, nor the decomposition reads (it lists the knot rank of a
singleton), so it costs no Witt sum and no inversion pass.  M(all) still
comes from its own Witt sums, over every weight.

On the prefix, _brunnian_ranks lays out one axis per distinct weight: its
count and its stride, the product of (count + 1) over the smaller
distinct weights.  It lists the sub-multisets whose weights fit in N,
each after its sub-multisets and with its mixed-radix code, whose digit
on an axis is the count of that weight; the rest have rank 0.  The
sub-multisets form a product of chains, one per axis, so the inversion
is one finite difference per axis, run on the codes: pass j of a weight
subtracts the value at code - stride from each code whose digit exceeds
j, as the transform over subsets removes one component.  The link
criterion walks the same family, and the split check weighs each
multiset t by its number of component subsets, prod_a C(count of a in
the link, count of a in t), a factor taken only for a weight the link
repeats.  The framed criterion (framed._framed_rank) adds the
framed-knot bullets to the link verdict and walks no sublinks.

So a link's rank less its knot ranks, its Brunnian rank and its sublink
verdict depend only on N and its weights as a multiset (delta too is a
function of N and a_k).  Still, the one rank cache, _link_report(m, dims),
is keyed by the dims in their order, and a report is computed once per
key: the sorted weights and the knot ranks, M(all) - sum delta, the family
inversion, the split check, the sublink criterion and the check of the
verdict against the rank.  A reordering of a link is a new key and
computes its report again.

brunnian_rank builds no family when the weights add up to more than N:
the rank is then 0.  Weights that fit, two or more of them, are their
own paired prefix.  It decides the verdict and checks it against the
rank, as _link_report does.

Each public function validates its arguments once, through _as_link,
which writes the rule 1 <= p_k < m - 2 (framed_rank,
framed_knot_is_infinite and fully_framed_is_infinite call it too;
framed.handlebody_report and framed.mcg_finite_index write the rule
again, as they answer None outside it instead of raising); _link_report
and brunnian_rank take the validated integers and call only the
unvalidated cores of liedim and fcs.

A report is a typing.NamedTuple of its fields and holds nothing else: it
is immutable, compares and pickles as its fields, and _link_report can
hand one to every caller.  Its listings (contributions,
subset_decomposition) are properties computed on each read; neither is
kept, so a caller that reads a listing twice keeps its own copy.

Every finiteness verdict is the `infinite` field of the report that holds
the rank, decided and checked once, when the report is built; every
framed one in framed._framed_rank.  The
criteria never read the Witt sums.  A Brunnian sublink of three or more
components is infinite exactly when sum a_k x_k = m - 3 has a solution
x >= 1.  The cores of liedim solve y >= 0 only, so the criteria ask for
y = x - 1 in degree n = m - 3 - sum a_k: liedim._count_solutions counts
those solutions in O(r n) steps without listing them.  One of two
components is infinite when some x = y + 1 lies in the membership family
of fcs, and the walk of liedim._solutions stops at the first y that
does.  For two weights the walk builds no table: it finds y_1 mod
a_2 / gcd(a_1, a_2) from one modular inverse and then steps y_1 by that
stride, so it visits only solutions, at most n / lcm(a_1, a_2) + 1 of
them.  A link is infinite when one of its knot ranks is 1 or one of its
fitting sublinks of two or more components is infinite; every such
sublink lies in the paired prefix.

Independent checks raise InternalConsistencyError on a mismatch, each
through errors._agree, and the caps raise ResourceLimitError, each
through errors._within; both format the values they name through _shown,
as errors._exact does for the exact quotients of liedim:

* the per-multidegree terms (`contributions`) are counted by a generating
  function, refused over _MAX_TERMS, and enumerated on each read, each
  listed with its own x; the multiplicity is computed once per parity class
  (the x that differ by swapping entries at coordinates whose weights have
  one parity), with its two exact-quotient checks, each through
  errors._exact in liedim, and every member of the class takes it; there must be as many terms as counted, and they must add
  up to the closed-form value;
* the link rank must equal its split into knot ranks plus one Brunnian
  rank per component subset, which tests the delta terms and the subsets
  left out as having no positive solution; the knot ranks are on both
  sides, so the check leaves them out;
* each finiteness verdict, decided by the solvability criteria, must
  agree with rank > 0;
* equal_dim_rank must agree with its one-weight closed form.
"""

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import comb
from operator import add
from types import MappingProxyType
from typing import NamedTuple, Optional

from .arith import as_integer, as_integers
from .errors import _agree, _reject, _within
from .fcs import _member
from .liedim import (_count_solutions, _multiplicity, _multiplicity_sum, _parities,
                     _solutions, witt_super)

# the most entries contributions or subset_decomposition lists; it admits
# the 31 465 terms of (30; 27^5) and the benchmark's guard of 32 000.  It is
# also the most components equal_dim_rank takes: its cost grows by about
# 1.3 us a component, so it answers at the cap in well under a second
_MAX_TERMS = 200_000


def _as_link(m, dims):
    # the one check of a link: integers m and p_k, at least one component,
    # every 1 <= p_k < m - 2
    m = as_integer(m, "the ambient dimension")
    dims = as_integers(dims, "a component dimension", "component dimensions")
    if not dims:
        _reject("a link needs at least one component")
    for v in dims:
        if v < 1:
            _reject("component dimensions must be >= 1, got {}", v)
        if v >= m - 2:
            _reject("codimension must exceed 2: component dimension {} inside ambient "
                    "dimension {}", v, m)
    return m, dims


def _contributions(m, dims, lower, expected):
    # (x, multiplicity) over the solutions x >= lower of sum(a_k x_k) = m - 3,
    # counted before they are enumerated, and checked against the count and
    # the closed-form sum; they are x = y + lower for the solutions y >= 0
    # in degree n = m - 3 - lower * sum(a_k)
    weights = tuple(m - v - 2 for v in dims)
    n = m - 3 - lower * sum(weights)
    count = _count_solutions(weights, n)
    _within(count, _MAX_TERMS, "m={}, p={} has {} contributions, over the cap of {}",
            m, dims, count, _MAX_TERMS)
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
    for y in (_solutions(weights, n) if count else ()):
        x = tuple(v + lower for v in y) if lower else y
        key = tuple(sorted(x if shift is None else map(add, x, shift)))
        value = values.get(key)
        if value is None:
            value = values[key] = _multiplicity(parities, x)
        terms.append((x, value))
    terms = tuple(terms)
    _agree(len(terms), count, "enumerated {} solutions but counted {} for m={}, p={}",
           len(terms), count, m, dims)
    total = sum(value for _, value in terms)
    _agree(total, expected, "the {} enumerated contributions add up to {} but the Witt "
           "formula gives {} for m={}, p={}", len(terms), total, expected, m, dims)
    return terms


class BrunnianRank(NamedTuple):
    m: int
    p: tuple
    rank: int
    infinite: bool

    @property
    def contributions(self):
        """((multidegree, multiplicity), ...) over the positive solutions,
        enumerated on each read and checked against rank; refused with
        ResourceLimitError when there are more than _MAX_TERMS."""
        return _contributions(self.m, self.p, 1, self.rank)


class RankReport(NamedTuple):
    m: int
    p: tuple
    total_rank: int
    brunnian_rank: Optional[int]  # None when r = 1
    knot_ranks: tuple
    infinite: bool

    @property
    def subset_decomposition(self):
        """Read-only map from every nonempty 1-based component subset, by
        size and then lexicographically, to its Brunnian rank (its knot
        rank for a single component), built on each read.  Refused with
        ResourceLimitError when there are more than _MAX_TERMS subsets."""
        subsets = 2 ** len(self.p) - 1
        _within(subsets, _MAX_TERMS, "the decomposition of m={}, p={} lists {} component "
                "subsets, over the cap of {}", self.m, self.p, subsets, _MAX_TERMS)
        weights = [self.m - v - 2 for v in self.p]
        ranks = _brunnian_ranks(tuple(sorted(weights)), self.m - 3)
        split = {}
        for size in range(1, len(self.p) + 1):
            for subset in combinations(range(len(self.p)), size):
                split[tuple(k + 1 for k in subset)] = (
                    self.knot_ranks[subset[0]] if size == 1
                    else ranks.get(tuple(sorted(weights[k] for k in subset)), 0))
        return MappingProxyType(split)

    @property
    def contributions(self):
        """((multidegree, multiplicity), ...) over x >= 0, enumerated on each
        read and checked against total_rank; refused with
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


def _brunnian_ranks(weights, target):
    """Brunnian rank of every sub-multiset of the paired prefix of these
    sorted link weights that adds up to at most target, keyed by its sorted
    weights, the empty one first and each after its sub-multisets; every
    other sublink of two or more components has rank 0.  The family is
    closed under taking sub-multisets, so the inversion never reads
    outside it."""
    # the paired prefix: the weights a <= target - a_min, or none when fewer
    # than two remain, as the least weight pairs with each of them and a
    # larger weight plus any other adds up to more than target
    weights = weights[:bisect_right(weights, target - weights[0])]
    if len(weights) < 2:
        weights = ()
    # one axis per distinct weight a: its count and the stride of its digit
    # in the mixed-radix code, the product of (count + 1) below it
    axes = []
    stride = 1
    for a in sorted(set(weights)):
        count = weights.count(a)
        axes.append((a, count, stride))
        stride *= count + 1
    family = [((), 0, 0)]
    for a, count, stride in axes:
        grown = []
        for t, total, code in family:
            grown.append((t, total, code))
            for _ in range(count):
                total += a
                if total > target:
                    break
                t += (a,)
                code += stride
                grown.append((t, total, code))
        family = grown
    values = {0: 0}
    for t, _, code in family[1:]:
        values[code] = _multiplicity_sum(t, target)
    # on a product of chains the Moebius inversion is one finite difference
    # per axis: pass j of weight a stands for its j-th component and drops
    # one copy of a from each code whose digit exceeds j, supersets first
    # (reverse family order) so that each reads the value before the pass;
    # no digit exceeds target // a, so the passes past it would change nothing
    codes = [code for _, _, code in reversed(family)]
    for a, count, stride in axes:
        for j in range(min(count, target // a)):
            for code in codes:
                if code // stride % (count + 1) > j:
                    values[code] -= values[code - stride]
    return {t: values[code] for t, _, code in family}


def brunnian_rank(m, dims):
    """Rank of the group of Brunnian links, with its finiteness verdict
    checked against it; needs at least two components.

    Example: brunnian_rank(5, (2, 2)).rank -> 1.
    """
    m, dims = _as_link(m, dims)
    if len(dims) < 2:
        _reject("Brunnian rank needs at least two components; use knot_rank for one")
    weights = tuple(sorted(m - v - 2 for v in dims))
    # weights adding up to more than m - 3 leave no positive solution: rank
    # 0, and no sublink family to build
    rank = 0 if sum(weights) > m - 3 else _brunnian_ranks(weights, m - 3).get(weights, 0)
    infinite = _subsequence_infinite(weights, m - 3)
    _agree(infinite, rank > 0, "Brunnian criterion says {} but the rank is {} for m={}, p={}",
           infinite, rank, m, dims)
    return BrunnianRank(m, dims, rank, infinite)


def _subsequence_infinite(weights, target):
    # three or more components: any positive solution at all, counted;
    # two: a positive solution lying in the membership family, walked up to
    # the first witness.  A positive solution is x = y + 1 for a solution
    # y >= 0 in degree target - sum(a_k).  The family index m - p_k = a_k + 2
    # has the parity of a_k.
    target -= sum(weights)
    if len(weights) > 2:
        return _count_solutions(weights, target) > 0
    pi, pj = weights[0] % 2, weights[1] % 2
    return any(_member(pi, pj, x + 1, y + 1) for x, y in _solutions(weights, target))


def brunnian_is_infinite(m, dims):
    """Finiteness verdict for the Brunnian group: brunnian_rank(m, dims).infinite."""
    return brunnian_rank(m, dims).infinite


@lru_cache(maxsize=2 ** 14)
def _link_report(m, dims):
    # the rank less the knot ranks, M(all) - sum delta, depends only on the
    # sorted weights and target = m - 3; the subset split checks it with the
    # knot ranks left out of both sides; every caller passes a checked link,
    # 1 <= p_k < m - 2, so target = m - 3 >= 1
    target = m - 3
    weights = tuple(sorted(m - v - 2 for v in dims))
    knot_ranks = tuple(_knot_rank(m, v) for v in dims)
    rest = _multiplicity_sum(weights, target) - sum(_delta(m, v) for v in dims)

    # the same rank split into one Brunnian summand per subset of two or
    # more components; the sublinks outside the family add 0.  A multiset t
    # stands for prod_a C(count of a in the link, count of a in t) component
    # subsets, a factor above 1 only for a weight the link repeats.
    ranks = _brunnian_ranks(weights, target)
    repeated = [(a, count) for a, count in Counter(weights).items() if count > 1]
    split = 0
    for t, value in ranks.items():
        if len(t) >= 2:
            for a, count in repeated:
                value *= comb(count, t.count(a))
            split += value
    _agree(split, rest, "closed formula gives {} beyond the knot ranks but the subset "
           "splitting gives {} for m={}, weights {}", rest, split, m, weights)

    # infinite when a knot rank is 1 or a sublink of two or more components is
    infinite = any(knot_ranks) or any(
        _subsequence_infinite(t, target) for t in ranks if len(t) >= 2)
    total = rest + sum(knot_ranks)
    _agree(infinite, total > 0, "finiteness criterion says {} but the rank is {} for m={}, p={}",
           infinite, total, m, dims)
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
        _reject("need at least one component, got r={}", r)
    m, (p,) = _as_link(m, (p,))
    if p <= 1:
        _reject("the equal-dimension form needs p > 1, got p={}", p)
    _within(r, _MAX_TERMS, "equal_dim_rank of r={} components is over the cap of {}",
            r, _MAX_TERMS)
    from fractions import Fraction
    s = m - p
    t = Fraction(m - 3, m - p - 2)
    c = _knot_rank(m, p)
    value = r * (witt_super(t - 1, s, r) + c - _delta(m, p)) - witt_super(t, s, r)
    check = _link_report(m, (p,) * r).total_rank
    _agree(value, check, "equal-dimension form gives {} but the general formula gives {} "
           "for m={}, p={}, r={}", value, check, m, p, r)
    return value
