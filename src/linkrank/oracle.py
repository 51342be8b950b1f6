"""Brute-force ground truth for the dimension and multiplicity formulas.

Multigraded components of the free graded Lie superalgebra are realized
inside the free associative algebra on the same letters: a polynomial is a
dict mapping words (tuples of generator indices) to integer coefficients,
the bracket is the supercommutator [u, v] = uv - (-1)^(|u| |v|) vu, where
|w| is the total weight of the word w modulo 2, extended bilinearly.  The
dimension of a component is the rank of a spanning family of it.

The family is the left-normed brackets of the words of multidegree x that
begin with its rarest letter k (the lowest index with the least positive
x_k).  They span: the multilinear component on n distinct letters
y_1..y_n has dimension (n - 1)!, and the brackets [y_1, y_s2, ..., y_sn]
are a basis of it, since each holds the word y_1 y_s2...y_sn with
coefficient 1 and no other of them holds that word.  Substituting letters
of x for the y_i, with y_1 -> k, keeps parities and maps that basis onto
this family, so it spans the x component (Reutenauer, Free Lie Algebras,
1993, for the even case; the signs carry over verbatim).  The family has
multinomial(x) * x_k / |x| members, and when x_k = 1 they are independent,
so no row is eliminated to zero.

A left-normed bracket is built by steps [u, P_k], one sign per step,
since all words of a homogeneous bracket have one parity.  Inside the
brute force a word on the letters range(r) is packed into one int, a
field of max(1, (r - 1).bit_length()) bits per letter, the first letter
highest: appending k to w is w << shift | k, and prepending k to a word
of length L is w | k << shift * L.  All words of one bracket, and all rows
of one elimination, have the same length, so the packing is one-to-one
where it is used, a leading letter 0 included.  The words are walked in
lexicographic order, each prefix bracketed once; a prefix whose bracket
is 0 ends its branch, since every word extending it brackets to 0, so
no row of the walk is empty.  Each bracket streams into the elimination
as a sparse integer row keyed by its packed words, with no table of
columns.  It is reduced by the kept rows in the order they were kept (no
back substitution), divided by its content, and kept with a +-1 pivot if
it has one (the first in row order), exactly when it is independent of
the rows before it.  No fraction, float or closed-form dimension is
used.  The public super_bracket and left_normed_bracket take and return
polynomials keyed by tuple words: super_bracket checks its arguments and
runs one unchecked supercommutator, and left_normed_bracket checks its
word and folds that supercommutator over the word's letters.

Both brute-force functions take a generator system as a tuple of
positive weights.  A single computation may touch at most a budget of
letters (default 8, overridable per call with budget=) and a component of
1500 words, counted as multinomial(x) and not as the smaller family walked.
Past 1500 letters of two or more kinds the word cap refuses by the letter
count, before the multinomial is built, since such an x spans
multinomial(x) >= C(|x|, x_k) >= |x| words; one kind spans one word.
One helper, _admit, runs every check of a call, each cap through
errors._within, and returns the key of the kept answers.  `verify_range`
sets the budget to its max_letters and admits its whole range once,
before any check: it refuses more than 20 000 (system, multidegree)
pairs, then a largest multidegree over the word cap, named by its
arguments as verify_range(max_r, max_degree, max_letters), and asks the
kept answers directly, since no call of an admitted range can be
refused.  Each of these limits raises ResourceLimitError.

The answers depend on a generator system only up to relabelling its
letters with their parities.  A permutation of the letters that keeps
their parities is an automorphism of the free associative superalgebra:
it maps the x component onto the permuted one and commutes with
bracketing by a generator.  A letter with x_k = 0 occurs in no word of
the component, and its block of the bracket map is empty, as there is no
component at x - e_k.  So rank, dimension and kernel are those of the
multiset of (parity, x_k) pairs with x_k > 0, and _canonical keys both
kept answers by that multiset, sorted: each is computed once per process
and kept, up to 32 768 entries for each of the two functions.  The
checks run on the input as given, before the kept answers are consulted,
so whether a call is refused never depends on what was asked before, and
a refused call keeps nothing.  The kept answers are an int and a
WhiteheadAnalysis, both immutable.
"""

from functools import lru_cache, reduce
from itertools import product
from math import comb, gcd
from operator import itemgetter
from typing import NamedTuple

from .arith import _multinomial, as_integer, as_integers
from .errors import ResourceLimitError, _reject, _shown, _within
from .liedim import _as_system, _dim_by_parity, _multiplicity, _parities, _solutions

_DEFAULT_BUDGET = 8
_MAX_WORDS = 1500
_MAX_PAIRS = 20_000
_MEMO_SIZE = 1 << 15  # above _MAX_PAIRS: verify_range computes each key once


def _canonical(parities, x):
    # the key of a memoized core: the (parity, x_k) pairs with x_k > 0,
    # sorted, as the two tuples (parities, x); a relabelling of the letters
    # that keeps their parities, or a letter that does not occur, changes no
    # rank, dimension or kernel (see the module docstring)
    return tuple(zip(*sorted(filter(itemgetter(1), zip(parities, x)))))


def _admit(weights, x, budget):
    # the canonical key of a memoized core, once every check of one call has
    # passed on the input as given: x >= 0 with at least one letter
    parities, x = _as_system(weights, x)
    if min(x) < 0:
        _reject("multidegree entries must be >= 0, got {}", x)
    total = sum(x)
    if total < 1:
        _reject("the oracle needs at least one letter, got multidegree {}", x)
    limit = _DEFAULT_BUDGET if budget is None else as_integer(budget, "the letter budget")
    if limit < 1:
        _reject("the letter budget must be >= 1, got {}", limit)
    _within(total, limit, "multidegree {} has {} letters, over the budget of {}; pass a "
            "larger budget", x, total, limit)
    # letters of two or more kinds span multinomial(x) >= C(total, x_k) >=
    # total words, for any 0 < x_k < total: past the word cap in letters,
    # refuse by that count before the multinomial is built; the letter count
    # is tested first, so that a call under the cap never takes max(x)
    if total > _MAX_WORDS and max(x) < total:
        _within(total, _MAX_WORDS, "multidegree {} spans at least {} words, over the hard "
                "cap of {}", x, total, _MAX_WORDS)
    n_words = _multinomial(x)
    _within(n_words, _MAX_WORDS, "multidegree {} spans {} words, over the hard cap of {}",
            x, n_words, _MAX_WORDS)
    return _canonical(parities, x)


def _check_letters(words, parities):
    # the parities as a tuple of ints, once every word is a tuple of int
    # letters in range(len(parities))
    parities = as_integers(parities, "a parity", "parities")
    for word in words:
        if not isinstance(word, tuple):
            _reject("a word must be a tuple of letters, got {}", word)
        for k in word:
            if not 0 <= as_integer(k, "a letter") < len(parities):
                _reject("letter {} of the word {} is not in range({})", k, word, len(parities))
    return parities


def _supercommutator(u, v, parities):
    # [u, v] of polynomials keyed by tuple words whose letters index parities
    odd = {w: sum(parities[k] for k in w) % 2 for w in [*u, *v]}
    out = {}
    for wu, cu in u.items():
        for wv, cv in v.items():
            c = cu * cv
            uv, vu = wu + wv, wv + wu
            out[uv] = out.get(uv, 0) + c
            out[vu] = out.get(vu, 0) + (c if odd[wu] and odd[wv] else -c)
    return {w: c for w, c in out.items() if c}


def super_bracket(u, v, parities):
    """Supercommutator of two polynomials (dicts word -> coefficient)."""
    for poly in (u, v):
        if not isinstance(poly, dict):
            _reject("a polynomial must be a dict word -> coefficient, got {}", poly)
        as_integers(poly.values(), "a coefficient", "coefficients")
    return _supercommutator(u, v, _check_letters([*u, *v], parities))


def left_normed_bracket(word, parities):
    """[[...[[P_w0, P_w1], P_w2], ...], P_wn] as a polynomial."""
    word = as_integers(word, "a letter", "a word")
    if not word:
        _reject("the empty word has no bracket")
    parities = _check_letters((word,), parities)
    return reduce(lambda poly, k: _supercommutator(poly, {(k,): 1}, parities),
                  word[1:], {word[:1]: 1})


def _field(r):
    # bits per letter of a packed word on the letters range(r)
    return max(1, (r - 1).bit_length())


def _bracket_step(u, letter, odd, shift, high):
    """[u, P_letter] for a homogeneous polynomial u (no zero coefficients)
    of packed words; odd says whether u and the letter are both odd, and
    high is the letter moved past the words of u, letter << shift * len."""
    out = {w << shift | letter: c for w, c in u.items()}
    for w, c in u.items():
        w |= high
        c = out.get(w, 0) + (c if odd else -c)
        if c:
            out[w] = c
        else:
            del out[w]
    return out


def _prefix_brackets(x, parities):
    """The nonzero left-normed brackets of the words of multidegree x
    (parities 0/1) that begin with its rarest letter, in lexicographic word
    order, keyed by packed words of the field _field(len(x)).  Each prefix
    is bracketed once, and a prefix whose bracket is 0 ends its branch, as
    every word extending it brackets to 0.  They span the component (see
    the module docstring).  The walk keeps its own stack, so a word may be
    of any length."""
    counts, r = list(x), len(x)
    shift = _field(r)
    first = min((v, k) for k, v in enumerate(x) if v)[1]  # least positive x_k, lowest k
    counts[first] -= 1
    tail = sum(counts)  # letters after the first
    if not tail:
        yield {first: 1}
        return
    # one frame per prefix: [its bracket, its parity, its last letter,
    # the next letter to try appending]; frame i holds i + 1 letters
    stack = [[{first: 1}, parities[first], first, 0]]
    while stack:
        frame = stack[-1]
        prefix, parity, last, k = frame
        while k < r and not counts[k]:
            k += 1
        if k == r:
            stack.pop()
            counts[last] += 1
            continue
        frame[3] = k + 1
        poly = _bracket_step(prefix, k, parity & parities[k], shift, k << shift * len(stack))
        if not poly:
            continue  # every word extending a zero prefix brackets to zero
        if len(stack) == tail:
            yield poly
        else:
            counts[k] -= 1
            stack.append([poly, parity ^ parities[k], k, 0])


def _primitive(row):
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _eliminator():
    """add(poly) reduces the row of poly by the rows kept before it, in the
    order they were kept, keeps what is left and says whether it kept it."""
    kept = []  # (pivot word, positive pivot value, row)

    def add(poly):
        row = dict(poly)  # a copy: the caller may bracket poly further
        for word, pv, base in kept:
            c = row.get(word)
            if c is None:
                continue
            if pv != 1:
                g = gcd(pv, c)
                a, c = pv // g, c // g
                row = {j: a * v for j, v in row.items()}
            for j, b in base.items():
                v = row.get(j, 0) - c * b
                if v:
                    row[j] = v
                else:
                    del row[j]
            if pv != 1 and row:
                row = _primitive(row)
        if not row:
            return False
        pivot = next((j for j, v in row.items() if v == 1 or v == -1), None)
        if pivot is None:
            row = _primitive(row)
            pivot = min(row, key=lambda j: abs(row[j]))
        if row[pivot] < 0:
            row = {j: -v for j, v in row.items()}
        kept.append((pivot, row[pivot], row))
        return True

    return add


def component_dim_bruteforce(weights, x, budget=None):
    """Dimension of the multidegree-x component, computed from scratch as
    the rank of the spanning family of left-normed brackets."""
    return _span_rank(*_admit(weights, x, budget))


@lru_cache(maxsize=_MEMO_SIZE)
def _span_rank(parities, x):
    return sum(map(_eliminator(), _prefix_brackets(x, parities)))


class WhiteheadAnalysis(NamedTuple):
    rank: int
    kernel_dim: int


def whitehead_map_analysis(weights, x, budget=None):
    """Rank and kernel dimension of the assembled bracket-with-a-generator
    map into the multidegree-x component (every x_k >= 0, at least one
    letter).

    The domain block for generator k is a basis of the component at
    x - e_k, the left-normed brackets chosen greedily in word order; each
    basis element u maps to [u, P_k].  When x - e_k is all zeros the block
    is the formal one-dimensional piece mapping onto P_k, and when x_k = 0
    the block is empty.
    """
    return _map_analysis(*_admit(weights, x, budget))


@lru_cache(maxsize=_MEMO_SIZE)
def _map_analysis(parities, x):
    shift = _field(len(x))
    add = _eliminator()
    rank = domain_dim = 0
    for k in range(len(x)):
        lowered = x[:k] + (x[k] - 1,) + x[k + 1:]
        n = sum(lowered)
        if n == 0:
            images = [{k: 1}]
        else:
            odd = parities[k] & sum(p * v for p, v in zip(parities, lowered)) % 2
            images = (_bracket_step(u, k, odd, shift, k << shift * n) for u in
                      filter(_eliminator(), _prefix_brackets(lowered, parities)))
        for image in images:
            domain_dim += 1
            rank += add(image)
    return WhiteheadAnalysis(rank=rank, kernel_dim=domain_dim - rank)


class VerificationRecord(NamedTuple):
    weights: tuple
    multidegree: tuple
    check: str  # "dimension" | "map rank" | "map kernel"
    expected: int
    actual: int

    @property
    def ok(self):
        return self.expected == self.actual


class VerificationReport(NamedTuple):
    records: tuple

    @property
    def instances(self):
        return len(self.records)

    @property
    def failures(self):
        return tuple(rec for rec in self.records if not rec.ok)

    @property
    def ok(self):
        return all(rec.ok for rec in self.records)


def verify_range(max_r, max_degree, max_letters):
    """Check the closed-form dimension against the brute force for every
    generator system with at most max_r generators of weight <= max_degree
    and every multidegree with 1 <= total <= max_letters, with a letter
    budget of max_letters; on all-positive multidegrees also check the
    bracket-map rank and kernel against the closed forms.  Returns a report
    with one record per comparison.  The map records stay on all-positive
    multidegrees: a zero letter's record would read the memo entry of the
    smaller system without that letter, which the range already checks,
    and keeping them there keeps the output of `linkrank oracle verify`
    byte for byte as pinned.  The whole range is admitted once,
    before any check: more than 20 000 (system, multidegree) pairs, or a
    largest multidegree that spans more than 1500 words, raise
    ResourceLimitError, each message led by verify_range(max_r,
    max_degree, max_letters).  The loop then calls the memoized cores
    directly, keyed by the multiset of (parity, positive count) pairs of
    each pair; the memo holds up to 32 768 immutable answers per core, more
    than the pair cap, so one call computes each multiset once.  Each
    record compares that answer with the closed forms at the record's own
    weights and multidegree."""
    max_r = as_integer(max_r, "max_r")
    max_degree = as_integer(max_degree, "max_degree")
    max_letters = as_integer(max_letters, "max_letters")
    arguments = (max_r, max_degree, max_letters)
    if max_r < 1 or max_degree < 1 or max_letters < 1:
        _reject("need max_r, max_degree, max_letters >= 1, got {}", arguments)
    pairs = 0  # max_degree^r systems times C(max_letters + r, r) - 1 multidegrees
    for r in range(1, max_r + 1):
        pairs += max_degree ** r * (comb(max_letters + r, r) - 1)
        more = "" if r == max_r else "more than "
        _within(pairs, _MAX_PAIRS, "verify_range{} would check " + more + "{} (system, "
                "multidegree) pairs, over the cap of {}", arguments, pairs, _MAX_PAIRS)
    # the range's largest call: max_letters split as evenly as possible over
    # max_r entries, since fewer letters, a zero entry or an uneven split span
    # fewer words; under the budget of max_letters only the word cap can
    # refuse it, and every call of the range spans at most its words
    q, s = divmod(max_letters, max_r)
    try:
        _admit((1,) * max_r, (q + 1,) * s + (q,) * (max_r - s), max_letters)
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"verify_range{_shown(arguments)}: {exc}") from None
    records = []
    # the brute force sees a pair only through its multiset of (parity,
    # positive count) pairs, so every reordering of the letters, and every
    # letter of count 0, shares one answer: each core reads its memo of up
    # to 32 768 immutable answers, each computed once per process; one call
    # asks at most _MAX_PAIRS keys, so none is evicted before it is reused
    for r in range(1, max_r + 1):
        for weights in product(range(1, max_degree + 1), repeat=r):
            parities = _parities(weights)
            # the nonzero x with sum(x) <= max_letters, lexicographic: a last
            # weight-1 coordinate takes up the letters x leaves unused
            for x in filter(any, (y[:-1] for y in _solutions((1,) * (r + 1), max_letters))):
                dim = _dim_by_parity(parities, x)
                key = _canonical(parities, x)
                checks = [("dimension", dim, _span_rank(*key))]
                if all(x):
                    rank, kernel = _map_analysis(*key)
                    checks += [("map rank", dim, rank),
                               ("map kernel", _multiplicity(parities, x), kernel)]
                records += [VerificationRecord(weights, x, *check) for check in checks]
    return VerificationReport(records=tuple(records))
