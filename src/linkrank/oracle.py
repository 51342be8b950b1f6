"""Brute-force ground truth for the dimension and multiplicity formulas.

Multigraded components of the free graded Lie superalgebra are realized
inside the free associative algebra on the same letters: a polynomial is a
dict mapping words (tuples of generator indices) to integer coefficients,
the bracket is the supercommutator

    [u, v] = uv - (-1)^(|u| |v|) vu,

where |w| is the total weight of the word w modulo 2, extended bilinearly.
Each component is spanned by the left-normed brackets of all words of the
given multidegree (symmetry plus the Jacobi identity rewrite any bracket
into such), so its dimension is the rank of the matrix of those spanning
vectors.  Ranks are computed over the rationals by fraction-free integer
elimination; no floating point is involved anywhere.

The number of letters a single computation may touch is capped by a budget
(default 8, overridable per call or with the LINKRANK_ORACLE_BUDGET
environment variable), because the word count grows as a multinomial.
"""

import os
from math import gcd
from typing import NamedTuple

from .arith import as_integer, multinomial
from .errors import InvalidInputError, ResourceLimitError
from .liedim import _as_multidegree, _as_system, lie_component_dim, multiplicity

_BUDGET_ENV = "LINKRANK_ORACLE_BUDGET"
_DEFAULT_BUDGET = 8
_MAX_WORDS = 1500


def _resolve_budget(budget):
    if budget is not None:
        budget = as_integer(budget, "the letter budget")
    else:
        raw = os.environ.get(_BUDGET_ENV)
        if raw is None:
            return _DEFAULT_BUDGET
        try:
            budget = int(raw)
        except ValueError:
            raise InvalidInputError(f"{_BUDGET_ENV} must be an integer, got {raw!r}")
    if budget < 1:
        raise InvalidInputError(f"the letter budget must be >= 1, got {budget}")
    return budget


def _check_size(x, budget):
    total = sum(x)
    if total < 1:
        raise InvalidInputError(
            f"the oracle needs at least one letter, got multidegree {x}")
    limit = _resolve_budget(budget)
    if total > limit:
        raise ResourceLimitError(
            f"multidegree {x} has {total} letters, over the budget of {limit}; "
            f"pass a larger budget or set {_BUDGET_ENV}")
    n_words = multinomial(x)
    if n_words > _MAX_WORDS:
        raise ResourceLimitError(
            f"multidegree {x} spans {n_words} words, over the hard cap of {_MAX_WORDS}")
    return n_words


def _word_parity(word, parities):
    return sum(parities[k] for k in word) % 2


def super_bracket(u, v, parities):
    """Supercommutator of two polynomials (dicts word -> coefficient)."""
    out = {}
    for wu, cu in u.items():
        pu = _word_parity(wu, parities)
        for wv, cv in v.items():
            c = cu * cv
            uv = wu + wv
            vu = wv + wu
            out[uv] = out.get(uv, 0) + c
            if pu and _word_parity(wv, parities):
                out[vu] = out.get(vu, 0) + c
            else:
                out[vu] = out.get(vu, 0) - c
    return {w: c for w, c in out.items() if c}


def left_normed_bracket(word, parities):
    """[[...[[P_w0, P_w1], P_w2], ...], P_wn] as a polynomial."""
    if not word:
        raise InvalidInputError("the empty word has no bracket")
    poly = {(word[0],): 1}
    for letter in word[1:]:
        poly = super_bracket(poly, {(letter,): 1}, parities)
    return poly


def _words(x):
    # all words with letter k occurring x[k] times, lexicographic order
    total = sum(x)
    counts = list(x)
    out = []
    word = []

    def build():
        if len(word) == total:
            out.append(tuple(word))
            return
        for k in range(len(counts)):
            if counts[k]:
                counts[k] -= 1
                word.append(k)
                build()
                word.pop()
                counts[k] += 1

    build()
    return out


def _independent_rows(rows):
    """Indices of a maximal linearly independent subset, chosen greedily in
    row order.  Fraction-free: echelon rows are kept integral and mutually
    reduced, so every echelon row is zero at the other pivot columns."""
    echelon = []  # (pivot_col, reduced_row)
    chosen = []
    for idx, original in enumerate(rows):
        row = list(original)
        for pivot_col, base in echelon:
            c = row[pivot_col]
            if c:
                pv = base[pivot_col]
                row = [a * pv - b * c for a, b in zip(row, base)]
        g = 0
        for v in row:
            g = gcd(g, v)
        if g > 1:
            row = [v // g for v in row]
        pivot_col = -1
        for j, v in enumerate(row):
            if v:
                pivot_col = j
                break
        if pivot_col < 0:
            continue
        for k, (pc, base) in enumerate(echelon):
            c = base[pivot_col]
            if c:
                pv = row[pivot_col]
                new = [a * pv - b * c for a, b in zip(base, row)]
                g = 0
                for v in new:
                    g = gcd(g, v)
                if g > 1:
                    new = [v // g for v in new]
                echelon[k] = (pc, new)
        echelon.append((pivot_col, row))
        chosen.append(idx)
    return chosen


def _bracket_rows(words, parities, target_index):
    rows = []
    for w in words:
        poly = left_normed_bracket(w, parities)
        row = [0] * len(target_index)
        for word, coeff in poly.items():
            row[target_index[word]] = coeff
        rows.append(row)
    return rows


def component_dim_bruteforce(gs, x, budget=None):
    """Dimension of the multidegree-x component, computed from scratch as
    the rank of the spanning family of left-normed brackets."""
    gs = _as_system(gs)
    x = _as_multidegree(gs, x)
    if any(v < 0 for v in x):
        raise InvalidInputError(f"multidegree entries must be >= 0, got {x}")
    _check_size(x, budget)
    words = _words(x)
    index = {w: i for i, w in enumerate(words)}
    rows = _bracket_rows(words, gs.parities(), index)
    return len(_independent_rows(rows))


class WhiteheadAnalysis(NamedTuple):
    rank: int
    kernel_dim: int


def whitehead_map_analysis(gs, x, budget=None):
    """Rank and kernel dimension of the assembled bracket-with-a-generator
    map into the multidegree-x component (every x_k >= 1).

    The domain block for generator k is a basis of the component at
    x - e_k; each basis element u maps to [u, P_k].  When x - e_k is all
    zeros the block is the formal one-dimensional piece mapping onto P_k.
    """
    gs = _as_system(gs)
    x = _as_multidegree(gs, x)
    if any(v < 1 for v in x):
        raise InvalidInputError(
            f"the bracket-map analysis needs every coordinate positive, got {x}")
    _check_size(x, budget)
    parities = gs.parities()
    target_words = _words(x)
    index = {w: i for i, w in enumerate(target_words)}

    rows = []
    domain_dim = 0
    for k in range(len(x)):
        lowered = x[:k] + (x[k] - 1,) + x[k + 1:]
        if sum(lowered) == 0:
            sources = [()]
        else:
            src_words = _words(lowered)
            src_index = {w: i for i, w in enumerate(src_words)}
            src_rows = _bracket_rows(src_words, parities, src_index)
            sources = [src_words[i] for i in _independent_rows(src_rows)]
        for w in sources:
            poly = left_normed_bracket(w + (k,), parities)
            row = [0] * len(target_words)
            for word, coeff in poly.items():
                row[index[word]] = coeff
            rows.append(row)
            domain_dim += 1
    rank = len(_independent_rows(rows))
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


def verify_range(max_r, max_degree, max_letters, budget=None):
    """Check the closed-form dimension against the brute force for every
    generator system with at most max_r generators of weight <= max_degree
    and every multidegree with 1 <= total <= max_letters; on all-positive
    multidegrees also check the bracket-map rank and kernel against the
    closed forms.  Returns a report with one record per comparison."""
    max_r = as_integer(max_r, "max_r")
    max_degree = as_integer(max_degree, "max_degree")
    max_letters = as_integer(max_letters, "max_letters")
    if max_r < 1 or max_degree < 1 or max_letters < 1:
        raise InvalidInputError(
            f"need max_r, max_degree, max_letters >= 1, got "
            f"({max_r}, {max_degree}, {max_letters})")
    if budget is None:
        budget = max_letters

    def multidegrees(r, total_max):
        # all x >= 0 with 1 <= sum(x) <= total_max, lexicographic
        def rec(k, prefix, remaining):
            if k == r:
                if sum(prefix) >= 1:
                    yield tuple(prefix)
                return
            for v in range(remaining + 1):
                yield from rec(k + 1, prefix + [v], remaining - v)

        yield from rec(0, [], total_max)

    def systems(r, degree_max):
        def rec(k, prefix):
            if k == r:
                yield tuple(prefix)
                return
            for a in range(1, degree_max + 1):
                yield from rec(k + 1, prefix + [a])

        yield from rec(0, [])

    records = []
    for r in range(1, max_r + 1):
        for weights in systems(r, max_degree):
            for x in multidegrees(r, max_letters):
                expected = lie_component_dim(weights, x)
                actual = component_dim_bruteforce(weights, x, budget=budget)
                records.append(VerificationRecord(
                    weights=weights, multidegree=x, check="dimension",
                    expected=expected, actual=actual))
                if all(v >= 1 for v in x):
                    analysis = whitehead_map_analysis(weights, x, budget=budget)
                    records.append(VerificationRecord(
                        weights=weights, multidegree=x, check="map rank",
                        expected=lie_component_dim(weights, x),
                        actual=analysis.rank))
                    records.append(VerificationRecord(
                        weights=weights, multidegree=x, check="map kernel",
                        expected=multiplicity(weights, x),
                        actual=analysis.kernel_dim))
    return VerificationReport(records=tuple(records))
