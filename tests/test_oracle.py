import functools
import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from linkrank import cli, liedim, oracle
from linkrank.errors import InvalidInputError, ResourceLimitError
from linkrank.liedim import lie_component_dim, multiplicity
from linkrank.oracle import (
    VerificationRecord,
    WhiteheadAnalysis,
    _eliminator,
    _prefix_brackets,
    component_dim_bruteforce,
    left_normed_bracket,
    super_bracket,
    verify_range,
    whitehead_map_analysis,
)


def poly_sum(a, b, sign=1):
    out = dict(a)
    for word, coeff in b.items():
        out[word] = out.get(word, 0) + sign * coeff
        if out[word] == 0:
            del out[word]
    return out


def word_parity(word, parities):
    return sum(parities[k] for k in word) % 2


def test_bracket_of_two_odd_generators():
    parities = (1, 1)
    result = super_bracket({(0,): 1}, {(1,): 1}, parities)
    assert result == {(0, 1): 1, (1, 0): 1}


def test_square_of_generator():
    assert left_normed_bracket((0, 0), (1,)) == {(0, 0): 2}
    assert left_normed_bracket((0, 0), (0,)) == {}


def test_bracket_antisymmetry_and_jacobi():
    parities = (1, 0, 1)
    rng = random.Random(91)
    words = [tuple(rng.randrange(3) for _ in range(rng.randint(1, 3)))
             for _ in range(12)]
    for u, v, w in itertools.islice(itertools.product(words, repeat=3), 80):
        pu = {u: 1}
        pv = {v: 1}
        pw = {w: 1}
        su = word_parity(u, parities)
        sv = word_parity(v, parities)
        sign = -1 if su and sv else 1
        uv = super_bracket(pu, pv, parities)
        vu = super_bracket(pv, pu, parities)
        assert poly_sum(uv, vu, sign=sign) == {}
        left = super_bracket(pu, super_bracket(pv, pw, parities), parities)
        right = poly_sum(
            super_bracket(uv, pw, parities),
            super_bracket(pv, super_bracket(pu, pw, parities), parities),
            sign=sign,
        )
        assert left == right


def test_bruteforce_dimension_matches_closed_form():
    cases = [(1,), (2,), (1, 1), (1, 2), (2, 2)]
    for weights in cases:
        r = len(weights)
        for x in itertools.product(range(5), repeat=r):
            if not 1 <= sum(x) <= 4:
                continue
            assert component_dim_bruteforce(weights, x) == lie_component_dim(weights, x)


def test_whitehead_analysis_examples():
    analysis = whitehead_map_analysis((1, 1), (1, 1))
    assert analysis.rank == 1
    assert analysis.kernel_dim == 1
    analysis = whitehead_map_analysis((1, 1), (2, 1))
    assert analysis.kernel_dim == multiplicity((1, 1), (2, 1))


def test_whitehead_rank_hits_target_dimension():
    for weights in [(1, 1), (1, 2), (2, 2)]:
        for x in itertools.product(range(1, 4), repeat=2):
            if sum(x) > 5:
                continue
            analysis = whitehead_map_analysis(weights, x)
            assert analysis.rank == lie_component_dim(weights, x)
            assert analysis.kernel_dim == multiplicity(weights, x)


def test_budget_enforcement():
    for call in (component_dim_bruteforce, whitehead_map_analysis):
        with pytest.raises(ResourceLimitError,
                           match=r"^multidegree \(5, 5\) has 10 letters, over the budget of 8;"):
            call((1, 1), (5, 5))
        with pytest.raises(ResourceLimitError, match="has 6 letters, over the budget of 4;"):
            call((1, 1), (3, 3), budget=4)
        with pytest.raises(InvalidInputError, match="letter budget must be >= 1, got 0$"):
            call((1, 1), (3, 3), budget=0)
        # letter budget fine, word count past the cap
        with pytest.raises(ResourceLimitError,
                           match=r"\(4, 4, 4\) spans 34650 words, over the hard cap of 1500$"):
            call((1, 1, 1), (4, 4, 4), budget=12)


def test_empty_multidegree_rejected():
    for call in (component_dim_bruteforce, whitehead_map_analysis):
        with pytest.raises(InvalidInputError,
                           match=r"oracle needs at least one letter, got multidegree \(0, 0\)$"):
            call((1, 1), (0, 0))
        with pytest.raises(InvalidInputError,
                           match=r"multidegree entries must be >= 0, got \(-1, 2\)$"):
            call((1, 1), (-1, 2))
    # a zero entry with a letter beside it is a component like any other
    assert whitehead_map_analysis((1, 1), (0, 2)) == (
        lie_component_dim((1, 1), (0, 2)), multiplicity((1, 1), (0, 2)))


@st.composite
def systems_with_a_zero_letter(draw):
    """(weights, x): 2-4 generators of weight 1-4 (one generator cannot hold
    a zero and a positive entry), x >= 0 with at least one entry of each
    kind, at most 8 letters and 1500 words."""
    r = draw(st.integers(2, 4))
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)))
    x = draw(st.lists(st.integers(0, 8), min_size=r, max_size=r))
    x[draw(st.integers(0, r - 1))] = 0
    assume(any(x) and sum(x) <= 8 and _multinomial(x) <= oracle._MAX_WORDS)
    return weights, tuple(x)


@settings(max_examples=80, deadline=None)
@given(systems_with_a_zero_letter())
@example(((1, 1), (0, 2)))
@example(((2, 1, 3), (0, 1, 0)))  # the one letter left is the whole component
@example(((1, 2, 1, 2), (3, 0, 3, 2)))
def test_a_zero_letter_leaves_the_map_analysis_of_the_rest(clear_caches, case):
    # a letter of count 0 adds an empty block to the map and occurs in no
    # word of the target: the answer is the closed forms at x, and the
    # analysis of the system without that letter, computed afresh
    weights, x = case
    clear_caches()
    analysis = whitehead_map_analysis(weights, x)
    assert analysis == (lie_component_dim(weights, x), multiplicity(weights, x))
    kept = [(a, v) for a, v in zip(weights, x) if v]
    clear_caches()
    assert analysis == whitehead_map_analysis(*map(tuple, zip(*kept)))


def test_verify_range_smoke():
    report = verify_range(2, 2, 4)
    assert report.ok
    assert report.instances > 0
    assert report.failures == ()
    kinds = {record.check for record in report.records}
    assert kinds == {"dimension", "map rank", "map kernel"}


def test_bracket_letters_are_validated():
    with pytest.raises(InvalidInputError):
        left_normed_bracket((0, 5), (1,))
    with pytest.raises(InvalidInputError):
        left_normed_bracket((0, -1), (1, 0))
    with pytest.raises(InvalidInputError):
        left_normed_bracket((0, True), (1, 0))
    with pytest.raises(InvalidInputError):
        left_normed_bracket((0, 1.0), (1, 0))
    with pytest.raises(InvalidInputError):
        super_bracket({(0,): 1}, {(1,): 1}, (1,))
    with pytest.raises(InvalidInputError):
        super_bracket({(0, -1): 1}, {(1,): 1}, (1, 0))


def test_verify_range_refuses_too_many_pairs_before_it_starts():
    with pytest.raises(ResourceLimitError, match="more than 380050"):
        verify_range(6, 50, 1)
    # 5 * 8 + 25 * (C(10, 2) - 1) + 125 * (C(11, 3) - 1) pairs, all counted
    with pytest.raises(ResourceLimitError, match=r"check 21640 \("):
        verify_range(3, 5, 8)


def test_a_range_refused_by_the_word_cap_names_itself(capsys):
    # the cap refuses the range's largest multidegree, max_letters split
    # over max_r entries, and the message leads with the range
    message = (r"verify_range\(2, 1, 60\): multidegree \(30, 30\) spans "
               r"118264581564861424 words, over the hard cap of 1500")
    with pytest.raises(ResourceLimitError, match=f"^{message}$"):
        verify_range(2, 1, 60)
    argv = ["oracle", "verify", "--max-r", "2", "--max-degree", "1", "--max-letters", "60"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(f"resource limit: {message}\n", err)


def test_verify_range_pair_count_is_exact(monkeypatch):
    # 3 * 4 + 9 * (C(6, 2) - 1) = 138 (system, multidegree) pairs
    report = verify_range(2, 3, 4)
    pairs = {(rec.weights, rec.multidegree) for rec in report.records}
    assert len(pairs) == 138
    monkeypatch.setattr(oracle, "_MAX_PAIRS", 138)
    assert verify_range(2, 3, 4) == report
    monkeypatch.setattr(oracle, "_MAX_PAIRS", 137)
    with pytest.raises(ResourceLimitError, match="check 138 "):
        verify_range(2, 3, 4)


def _most_words(max_r, max_letters):
    # the most words any multidegree of the range spans, by brute force over
    # its multidegrees up to order (a multinomial ignores the order)
    return max(math.factorial(sum(x)) // math.prod(map(math.factorial, x))
               for r in range(1, max_r + 1)
               for x in itertools.combinations_with_replacement(range(max_letters + 1), r)
               if 1 <= sum(x) <= max_letters)


def _small_ranges():
    # every range with max_r <= 5, max_degree <= 2, max_letters <= 10 that
    # the pair cap admits
    for max_r, max_degree, max_letters in itertools.product(
            range(1, 6), range(1, 3), range(1, 11)):
        pairs = sum(max_degree ** r * (math.comb(max_letters + r, r) - 1)
                    for r in range(1, max_r + 1))
        if pairs <= oracle._MAX_PAIRS:
            yield max_r, max_degree, max_letters


class _Admitted(Exception):
    pass


def test_verify_range_admission_is_exact(monkeypatch, clear_caches):
    # refused exactly when a multidegree of the range spans more words than
    # the cap, and then before any brute force; an admitted range stops at
    # its first closed-form dimension, where its loop begins
    def admitted(*args):
        raise _Admitted

    monkeypatch.setattr(oracle, "_dim_by_parity", admitted)
    ranges = {args: _most_words(args[0], args[2]) for args in _small_ranges()}
    for args, most in ranges.items():
        for cap in (6, 30, 90, 1500, most - 1, most):
            monkeypatch.setattr(oracle, "_MAX_WORDS", cap)
            clear_caches()
            with pytest.raises(ResourceLimitError if most > cap else _Admitted,
                               match=f"over the hard cap of {cap}$" if most > cap else None):
                verify_range(*args)
            assert oracle._span_rank.cache_info().misses == 0
            assert oracle._map_analysis.cache_info().misses == 0


def test_one_verify_range_computes_each_key_once():
    # the pair cap is below the memo bound, so no key of one call is
    # evicted before it is reused
    assert oracle._MAX_PAIRS < oracle._MEMO_SIZE


def _unshared_records(max_r, max_degree, max_letters, clear_caches):
    # verify_range's records with the brute force run once per weight
    # vector, from an empty memo each time
    records = []
    for r in range(1, max_r + 1):
        for weights in itertools.product(range(1, max_degree + 1), repeat=r):
            for x in itertools.product(range(max_letters + 1), repeat=r):
                if not 1 <= sum(x) <= max_letters:
                    continue
                dim = lie_component_dim(weights, x)
                clear_caches()
                records.append(VerificationRecord(
                    weights, x, "dimension", dim,
                    component_dim_bruteforce(weights, x, budget=max_letters)))
                if all(x):
                    rank, kernel = whitehead_map_analysis(weights, x, budget=max_letters)
                    records.append(VerificationRecord(weights, x, "map rank", dim, rank))
                    records.append(VerificationRecord(
                        weights, x, "map kernel", multiplicity(weights, x), kernel))
    return tuple(records)


def _relabelling_classes(max_r, max_degree, max_letters):
    # the multisets of (parity, positive count) pairs that the range's
    # (weights, multidegree) pairs fall into, each as a sorted tuple: all of
    # them for the dimension, those of all-positive multidegrees for the map
    spans, maps = set(), set()
    for r in range(1, max_r + 1):
        for weights in itertools.product(range(1, max_degree + 1), repeat=r):
            for x in itertools.product(range(max_letters + 1), repeat=r):
                if 1 <= sum(x) <= max_letters:
                    key = tuple(sorted((a % 2, v) for a, v in zip(weights, x) if v))
                    spans.add(key)
                    if all(x):
                        maps.add(key)
    return spans, maps


def test_verify_range_shares_the_brute_force_across_a_relabelling_class(clear_caches):
    # each core runs once per relabelling class of the range: for (3, 3, 5),
    # 54 classes against 3*5 + 9*20 + 27*55 = 1680 (weights, multidegree)
    # pairs; a class with a zero count is the class of a shorter positive
    # multidegree, so both cores see the same 54
    for args in ((3, 3, 5), (2, 3, 6), (4, 1, 3)):
        expected = _unshared_records(*args, clear_caches)
        spans, maps = _relabelling_classes(*args)
        clear_caches()
        assert verify_range(*args).records == expected
        assert oracle._span_rank.cache_info().misses == len(spans)
        assert oracle._map_analysis.cache_info().misses == len(maps)


def _multinomial(counts):
    return math.factorial(sum(counts)) // math.prod(map(math.factorial, counts))


@st.composite
def relabelled_systems(draw):
    """(parities, x) pairs of one relabelling class: 1-4 letters with
    positive counts, at most 7 letters and 1500 words, the same under a
    joint permutation of its (parity, count) pairs, and that again with 0-2
    letters of count 0 put in."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 4)),
                          min_size=1, max_size=4))
    counts = [v for _, v in pairs]
    assume(sum(counts) <= 7 and _multinomial(counts) <= oracle._MAX_WORDS)
    permuted = [pairs[i] for i in draw(st.permutations(range(len(pairs))))]
    padded = list(permuted)
    for parity in draw(st.lists(st.integers(0, 1), max_size=2)):
        padded.insert(draw(st.integers(0, len(padded))), (parity, 0))
    return [tuple(map(tuple, zip(*system))) for system in (pairs, permuted, padded)]


@settings(max_examples=60, deadline=None)
@given(relabelled_systems())
@example([((0, 1), (4, 2))] * 3)  # (4, 2) and (2, 4) differ: the pairs stay together
@example([((0, 1), (2, 1))] * 3)  # the map kernel of (2, 1) and (1, 2) differ
@example([((0, 0), (1, 1)), ((0, 0), (1, 1)), ((1, 0, 0), (0, 1, 1))])
def test_a_relabelling_keeps_every_answer_of_the_unmemoized_cores(systems):
    # the memo key of a relabelled input is the key of the original, and the
    # cores answer on the key as they answer on the input itself
    (parities, x), permuted, padded = systems
    key = oracle._canonical(parities, x)
    assert oracle._canonical(*permuted) == oracle._canonical(*padded) == key
    span_rank, map_analysis = oracle._span_rank.__wrapped__, oracle._map_analysis.__wrapped__
    assert span_rank(*padded) == span_rank(*permuted) == span_rank(*key)
    assert map_analysis(*permuted) == map_analysis(*key)


def _fraction_rank(rows):
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@st.composite
def integer_matrices(draw):
    width = draw(st.integers(1, 6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -4, 6, 9])
    rows = []
    for _ in range(draw(st.integers(0, 9))):
        if rows and draw(st.booleans()):
            # an earlier row again, a multiple of it or a sum of two
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            rows.append([s * u + t * v for u, v in zip(a, b)])
        else:
            rows.append(draw(st.lists(entry, min_size=width, max_size=width)))
    return rows


@settings(max_examples=300, deadline=None)
@given(integer_matrices())
def test_independent_rows_match_a_fraction_rank(rows):
    expected = [i for i in range(len(rows))
                if _fraction_rank(rows[:i + 1]) > _fraction_rank(rows[:i])]
    sparse = [dict(enumerate(row)) for row in rows]
    add = _eliminator()
    assert [i for i, row in enumerate(sparse)
            if add({j: v for j, v in row.items() if v})] == expected
    assert sparse == [dict(enumerate(row)) for row in rows]


@st.composite
def systems_and_multidegrees(draw):
    r = draw(st.integers(1, 4))
    parities = tuple(draw(st.lists(st.integers(0, 1), min_size=r, max_size=r)))
    x = tuple(draw(st.lists(st.integers(0, 3), min_size=r, max_size=r)))
    assume(1 <= sum(x) <= 6)
    return parities, x


def words_of(x):
    """Every word of multidegree x, in lexicographic order."""
    return sorted(set(itertools.permutations(
        [k for k, n in enumerate(x) for _ in range(n)])))


def full_word_dim(parities, x):
    """The cross-check of the oracle's spanning family: the rank of the
    left-normed brackets of every word of multidegree x, not only of the
    words that begin with the rarest letter."""
    return sum(map(_eliminator(), (left_normed_bracket(w, parities) for w in words_of(x))))


def unpacked_prefix_brackets(x, parities):
    """_prefix_brackets(x, parities) with each packed word read back as a
    tuple: sum(x) fields of max(1, (r - 1).bit_length()) bits, the first
    letter in the highest field."""
    shift, n = max(1, (len(x) - 1).bit_length()), sum(x)
    return [{tuple(w >> shift * (n - 1 - i) & (1 << shift) - 1 for i in range(n)): c
             for w, c in poly.items()}
            for poly in _prefix_brackets(x, parities)]


def check_prefix_brackets(parities, x):
    rarest = min(k for k in range(len(x)) if x[k] == min(filter(None, x)))
    words = [w for w in words_of(x) if w[0] == rarest]
    shared = unpacked_prefix_brackets(x, parities)
    # the walk lists the nonzero brackets only: a zero prefix ends its branch
    assert shared == list(filter(None, (left_normed_bracket(w, parities) for w in words)))
    # the same brackets folded from the general supercommutator
    assert shared == list(filter(None, (functools.reduce(
        lambda poly, k: super_bracket(poly, {(k,): 1}, parities), w[1:], {w[:1]: 1})
        for w in words)))


@settings(max_examples=150, deadline=None)
@given(systems_and_multidegrees())
@example(((0, 0, 0), (2, 2, 2)))  # [P0, P0] = 0, past it the 6 words that begin 00
def test_prefix_brackets_equal_left_normed_brackets(case):
    check_prefix_brackets(*case)


def test_five_generators_pack_letters_into_three_bits():
    # r = 5 is the first system whose letters need a 3-bit field; every
    # case holds the top letter 4
    cases = [((1, 2, 1, 2, 1), (1, 1, 1, 1, 1)), ((2, 2, 1, 1, 1), (1, 1, 1, 1, 2)),
             ((1, 1, 1, 1, 1), (2, 1, 1, 1, 1)), ((2, 1, 2, 1, 2), (1, 1, 1, 1, 3)),
             ((1, 2, 2, 2, 1), (0, 1, 0, 2, 2)), ((1, 1, 2, 1, 2), (0, 0, 0, 1, 4))]
    for weights, x in cases:
        dim = lie_component_dim(weights, x)
        assert component_dim_bruteforce(weights, x) == dim
        if all(x):
            assert whitehead_map_analysis(weights, x) == (dim, multiplicity(weights, x))
        check_prefix_brackets(liedim._parities(weights), x)
    # [[P4, P0], P4] = [40 - 04, P4] = 404 - 044 + 440 - 404, 4 odd and 0 even
    assert left_normed_bracket((4, 0, 4), (0, 0, 0, 0, 1)) == {(0, 4, 4): -1, (4, 4, 0): 1}


@settings(max_examples=100, deadline=None)
@given(systems_and_multidegrees())
def test_rarest_letter_family_spans_like_every_word(case):
    parities, x = case
    weights = tuple(2 - p for p in parities)
    dim = full_word_dim(parities, x)
    assert component_dim_bruteforce(weights, x) == dim
    if all(x):
        # the domain blocks are bases of the components at x - e_k, or
        # the formal piece that maps onto P_k when x - e_k is all zeros
        lowered = [x[:k] + (v - 1,) + x[k + 1:] for k, v in enumerate(x)]
        domain = sum(full_word_dim(parities, y) if any(y) else 1 for y in lowered)
        analysis = whitehead_map_analysis(weights, x)
        assert analysis.rank == dim
        assert analysis.rank + analysis.kernel_dim == domain


def test_rarest_letter_family_wastes_no_rows_on_a_single_letter(monkeypatch, clear_caches):
    rows = []

    def counted():
        add = _eliminator()

        def noted(poly):
            rows.append(add(poly))
            return rows[-1]
        return noted

    monkeypatch.setattr(oracle, "_eliminator", counted)
    # a memoized answer would count no row
    clear_caches()
    # the rarest letter twice in seven: 210 * 2 / 7 words; the core's key
    # puts the even letter of weight 2 first, and the 10 words that begin
    # with it twice are past the zero bracket [P, P], so 50 rows, 30 kept
    assert component_dim_bruteforce((1, 2, 3), (2, 2, 3)) == 30
    assert (len(rows), sum(rows)) == (50, 30)
    # the rarest letter once: each bracket holds one word that begins with
    # it, its own, so the rows are independent and every one is kept
    for weights, x in [((1,), (1,)), ((2, 1), (1, 3)), ((1, 1, 2), (3, 1, 2)),
                       ((1, 2, 1, 2), (2, 2, 1, 2)), ((2, 2, 2, 2), (1, 1, 1, 1))]:
        rows.clear()
        dim = component_dim_bruteforce(weights, x)
        assert rows == [True] * (oracle._multinomial(x) // sum(x))
        assert dim == len(rows)


def test_oracle_consults_no_closed_form(monkeypatch, clear_caches):
    cases = [((1, 2, 1), (2, 2, 1)), ((1, 1), (3, 2)), ((2,), (2,)), ((3, 2), (1, 1))]
    before = [(component_dim_bruteforce(w, x), whitehead_map_analysis(w, x))
              for w, x in cases]
    # the second pass runs the brute force again, not the memo of the first
    clear_caches()

    def refuse(*args, **kwargs):
        raise AssertionError("the oracle consulted a closed form")

    for name in ("lie_component_dim", "multiplicity", "_multiplicity", "weighted_dim_sums",
                 "_weighted_dim_sums", "_multiplicity_sum", "_dim_sums_cell", "_solve_dim_sums",
                 "_dim_by_parity", "_dim_formula", "witt", "witt_super"):
        monkeypatch.setattr(liedim, name, refuse)
    for name in ("_dim_by_parity", "_multiplicity"):
        monkeypatch.setattr(oracle, name, refuse)
    after = [(component_dim_bruteforce(w, x), whitehead_map_analysis(w, x))
             for w, x in cases]
    assert after == before


def test_a_zero_prefix_is_bracketed_no_further(monkeypatch, clear_caches):
    # for one odd letter [P0, P0] = 2 P0 P0 and [[P0, P0], P0] = 0: the walk
    # stops stepping there, and the branch ends with no bracket listed
    steps = []
    real = oracle._bracket_step

    def counting(*args):
        steps.append(args[1])
        return real(*args)

    monkeypatch.setattr(oracle, "_bracket_step", counting)
    clear_caches()
    assert component_dim_bruteforce((1,), (40,), budget=40) == lie_component_dim((1,), (40,))
    assert len(steps) <= 2


def test_largest_admitted_multidegree():
    # 1120 words: the most the default budget admits with at most four generators
    weights, x = (1, 2, 1, 2), (3, 3, 1, 1)
    analysis = whitehead_map_analysis(weights, x)
    assert component_dim_bruteforce(weights, x) == lie_component_dim(weights, x)
    assert analysis.rank == lie_component_dim(weights, x)
    assert analysis.kernel_dim == multiplicity(weights, x)


def test_long_words_need_no_deep_stack(clear_caches, monkeypatch):
    # words of 1100 letters; one letter alone stops within two bracket
    # steps, as [P, P] or [[P, P], P] is zero
    for weights in ((1,), (2,)):
        x = (1100,)
        dim = lie_component_dim(weights, x)
        assert component_dim_bruteforce(weights, x, budget=1100) == dim
        analysis = whitehead_map_analysis(weights, x, budget=1100)
        assert analysis == (dim, multiplicity(weights, x))
    # an odd letter bracketed 1099 times by an even one never reaches zero,
    # so the walk holds a prefix of every length up to 1100, far past the
    # interpreter's recursion limit of 1000
    clear_caches()
    steps = []
    real = oracle._bracket_step

    def counting(*args):
        steps.append(args[1])
        return real(*args)

    monkeypatch.setattr(oracle, "_bracket_step", counting)
    weights, x = (2, 1), (1099, 1)
    assert component_dim_bruteforce(weights, x, budget=1100) == 1 == lie_component_dim(weights, x)
    assert len(steps) >= 1099
    steps.clear()
    analysis = whitehead_map_analysis(weights, x, budget=1100)
    assert analysis == (1, 0) == (1, multiplicity(weights, x))
    assert len(steps) >= 1099


def test_a_memoized_answer_is_still_refused_over_a_smaller_budget(clear_caches):
    # six letters: inside the default budget of 8, over a budget of 5
    clear_caches()
    for call in (component_dim_bruteforce, whitehead_map_analysis):
        call((1, 1), (3, 3))
        with pytest.raises(ResourceLimitError, match="over the budget of 5"):
            call((1, 1), (3, 3), budget=5)


def test_a_refused_call_leaves_no_memo_entry(clear_caches):
    clear_caches()
    for call in (component_dim_bruteforce, whitehead_map_analysis):
        with pytest.raises(ResourceLimitError):
            call((1, 1), (3, 3), budget=5)
        with pytest.raises(ResourceLimitError, match="hard cap"):
            call((1,) * 7, (1,) * 7)  # 5040 words, yet cheap to compute
        with pytest.raises(InvalidInputError):
            call((1, 1), (0, 0))
    assert oracle._span_rank.cache_info().currsize == 0
    assert oracle._map_analysis.cache_info().currsize == 0


def test_weights_of_one_parity_pattern_share_one_memo_entry(clear_caches):
    clear_caches()
    for core, call in ((oracle._span_rank, component_dim_bruteforce),
                       (oracle._map_analysis, whitehead_map_analysis)):
        first = call((1, 2), (2, 1))
        assert call((3, 4), (2, 1)) == first
        assert core.cache_info()[:2] == (1, 1)  # hits, misses
        call((2, 1), (2, 1))
        assert core.cache_info().currsize == 2


@settings(max_examples=60, deadline=None)
@given(systems_and_multidegrees())
def test_a_memoized_answer_equals_a_fresh_one(clear_caches, case):
    parities, x = case
    calls = [component_dim_bruteforce] + ([whitehead_map_analysis] if all(x) else [])
    # two weight vectors of one parity pattern: the second reads the memo
    for call in calls:
        call(tuple(2 - p for p in parities), x)
    other = tuple(4 - p for p in parities)
    memoized = [call(other, x) for call in calls]
    clear_caches()
    assert memoized == [call(other, x) for call in calls]


@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 3)), min_size=1, max_size=7)
       .filter(lambda pairs: any(v for _, v in pairs)))
def test_the_memo_key_is_the_sorted_pairs_of_positive_count(pairs):
    # small ranges give zero entries and ties in parity and count alike
    parities, x = map(tuple, zip(*pairs))
    kept = sorted((p, v) for p, v in pairs if v)
    assert oracle._canonical(parities, x) == (tuple(p for p, _ in kept),
                                              tuple(v for _, v in kept))


def test_the_memo_returns_an_int_and_a_whitehead_analysis(clear_caches):
    clear_caches()
    for _ in range(2):  # computed, then read from the memo
        assert type(component_dim_bruteforce((1, 2), (2, 2))) is int
        assert type(whitehead_map_analysis((1, 2), (2, 2))) is WhiteheadAnalysis
