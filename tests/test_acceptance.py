"""Acceptance suite: sixteen numbered criteria, one test each.

Every comparison is exact integer equality.  Each test prints a single
"criterion NN: PASS/FAIL" line so a full run reads as a checklist.
"""

import contextlib
import itertools
import json
import random
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

from linkrank.fcs import fcs_contains
from linkrank.framed import (
    framed_knot_is_infinite,
    framed_rank,
    fully_framed_is_infinite,
    handlebody_report,
)
from linkrank.liedim import lie_component_dim, multiplicity, witt_super
from linkrank.oracle import verify_range
from linkrank.ranks import (
    brunnian_rank,
    equal_dim_rank,
    knot_rank,
    link_is_infinite,
    link_rank,
)
from linkrank.stiefel import stiefel_rank

GOLDEN = Path(__file__).parent / "golden"


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} ({label}): FAIL", flush=True)
        raise
    print(f"criterion {number:02d} ({label}): PASS", flush=True)


# Two-component ranks by component dimension p (1..5), framing column l,
# and dimension gap k; the cell at (p, k, l) is the rank for the problem
# with m = p + k + l and dimensions (p, p + k).  The last column of each
# row is an "every larger l" column, rechecked at threshold + 3; the last
# row covers every k >= 3 and is rechecked at k = 5.
TABLE2_L = {
    1: [3],
    2: [3, 4],
    3: [3, 4, 5],
    4: [3, 4, 5, 6],
    5: [3, 4, 5, 6, 7],
}
TABLE2 = {
    0: {1: [0], 2: [1, 0], 3: [2, 1, 0], 4: [1, 0, 1, 0], 5: [0, 0, 0, 1, 0]},
    1: {1: [0], 2: [1, 0], 3: [1, 1, 0], 4: [0, 0, 1, 0], 5: [0, 0, 0, 1, 0]},
    2: {1: [0], 2: [1, 0], 3: [1, 1, 0], 4: [0, 0, 1, 0], 5: [1, 0, 0, 1, 0]},
    3: {1: [0], 2: [1, 0], 3: [1, 1, 0], 4: [0, 0, 1, 0], 5: [0, 0, 0, 1, 0]},
}

# Two-generator multiplicities by weight parity class; row y runs 5 down
# to 1, column x runs 1 to 5.
TABLE3 = {
    (2, 2): [[0, 0, 1, 1, 3],
             [0, 1, 0, 2, 1],
             [0, 0, 1, 0, 1],
             [0, 1, 0, 1, 0],
             [1, 0, 0, 0, 0]],
    (1, 2): [[0, 1, 1, 1, 3],
             [0, 0, 1, 2, 1],
             [0, 1, 1, 0, 1],
             [0, 0, 1, 1, 0],
             [1, 1, 0, 0, 0]],
    (1, 1): [[0, 1, 1, 1, 3],
             [0, 0, 1, 2, 1],
             [0, 0, 1, 1, 1],
             [1, 1, 0, 0, 1],
             [1, 1, 0, 0, 0]],
}


def test_criterion_01_two_component_rank_table():
    with criterion(1, "two-component rank table"):
        start = time.perf_counter()
        for k in (0, 1, 2, 3, 5):
            row = TABLE2[min(k, 3)]
            for p, expected in row.items():
                columns = TABLE2_L[p]
                listed = list(zip(columns[:-1], expected[:-1]))
                threshold = columns[-1]
                tail = expected[-1]
                listed += [(threshold, tail), (threshold + 3, tail)]
                for l, value in listed:
                    m = p + k + l
                    assert brunnian_rank(m, (p, p + k)).rank == value, (p, k, l)
        assert time.perf_counter() - start < 5.0


def test_criterion_02_multiplicity_table():
    with criterion(2, "two-generator multiplicity table"):
        start = time.perf_counter()
        for weights, block in TABLE3.items():
            for row, y in zip(block, range(5, 0, -1)):
                for x, expected in zip(range(1, 6), row):
                    assert multiplicity(weights, (x, y)) == expected, (weights, x, y)
        assert time.perf_counter() - start < 1.0


def test_criterion_03_five_sphere_pairs_in_eight_space():
    with criterion(3, "(8; 5,5) family verdicts"):
        assert brunnian_rank(8, (5, 5)).rank == 0
        assert link_is_infinite(8, (5, 5)) is False
        assert link_is_infinite(8, (5, 5, 5)) is True
        assert brunnian_rank(8, (5, 5, 5)).rank >= 1


def test_criterion_04_borromean_family():
    with criterion(4, "three-component rank-one family"):
        for k in range(2, 7):
            assert brunnian_rank(3 * k, (2 * k - 1,) * 3).rank == 1


@lru_cache(maxsize=1)
def _oracle_reports():
    start = time.perf_counter()
    reports = (
        verify_range(1, 4, 4),
        verify_range(2, 3, 6),
        verify_range(3, 3, 5),
    )
    return time.perf_counter() - start, reports


def test_criterion_05_bruteforce_matches_dimension_formula():
    with criterion(5, "brute force = dimension formula"):
        elapsed, reports = _oracle_reports()
        for report in reports:
            assert report.instances > 0
            assert report.failures == ()
            assert report.ok
        assert elapsed < 120.0


def test_criterion_06_whitehead_rank_and_kernel():
    with criterion(6, "attaching-map rank and kernel"):
        _, reports = _oracle_reports()
        checked = 0
        for report in reports:
            oracle_dim = {
                (rec.weights, rec.multidegree): rec.actual
                for rec in report.records
                if rec.check == "dimension"
            }
            for rec in report.records:
                key = (rec.weights, rec.multidegree)
                if rec.check == "map rank":
                    assert rec.actual == oracle_dim[key], key
                    checked += 1
                elif rec.check == "map kernel":
                    assert rec.actual == multiplicity(rec.weights, rec.multidegree), key
                    checked += 1
        assert checked > 0


def test_criterion_07_witt_sum_identity():
    with criterion(7, "dimension sums match necklace counts"):
        for s in range(1, 5):
            for r in range(1, 4):
                weights = (s,) * r
                for t in range(1, 7):
                    total = sum(
                        lie_component_dim(weights, x)
                        for x in itertools.product(range(t + 1), repeat=r)
                        if sum(x) == t
                    )
                    assert total == witt_super(t, s, r), (s, r, t)


def test_criterion_08_membership_equals_positivity():
    with criterion(8, "membership family = positivity locus"):
        checked = 0
        for wi in (1, 2):
            for wj in (1, 2):
                for x in range(1, 13):
                    for y in range(1, 13):
                        member = fcs_contains(wi, wj, x, y)
                        assert member == (multiplicity((wi, wj), (x, y)) > 0)
                        checked += 1
        assert checked == 576


def test_criterion_09_positivity_for_three_or_more_generators():
    with criterion(9, "positivity beyond two generators"):
        for r, cap in ((3, 10), (4, 8)):
            for weights in itertools.product((1, 2), repeat=r):
                for x in itertools.product(range(1, cap - r + 2), repeat=r):
                    if sum(x) <= cap:
                        assert multiplicity(weights, x) > 0, (weights, x)


def test_criterion_10_equal_dimension_closed_form():
    with criterion(10, "equal-dimension closed form"):
        for p in range(2, 28):
            for m in range(p + 3, min(3 * p + 2, 30) + 1):
                for r in range(1, 6):
                    assert equal_dim_rank(m, p, r) == link_rank(m, (p,) * r).total_rank


def test_criterion_11_subset_splitting():
    with criterion(11, "rank splits over component subsets"):
        rng = random.Random(20260819)
        for _ in range(50):
            m = rng.randint(5, 25)
            r = rng.randint(1, 4)
            dims = tuple(rng.randint(1, m - 3) for _ in range(r))
            total = 0
            for size in range(1, r + 1):
                for subset in itertools.combinations(range(r), size):
                    chosen = tuple(dims[k] for k in subset)
                    if size == 1:
                        total += knot_rank(m, chosen[0])
                    else:
                        # the closed form against the per-multidegree terms
                        result = brunnian_rank(m, chosen)
                        assert result.rank == sum(v for _, v in result.contributions)
                        total += result.rank
            assert total == link_rank(m, dims).total_rank, (m, dims)


def test_criterion_12_single_frame_sphere_oracle():
    with criterion(12, "single-frame sphere cross-check"):
        # one frame vector: the target is the (q-1)-sphere, rationally one
        # class in degree q-1 plus one in degree 2q-3 when q-1 is even
        for p in range(1, 41):
            for q in range(2, 41):
                n = q - 1
                expected = 1 if (p == n or (n % 2 == 0 and p == 2 * n - 1)) else 0
                assert stiefel_rank(p, q, 1) == expected, (p, q)


def test_criterion_13_framed_finiteness_equivalences():
    with criterion(13, "framed verdicts = framed ranks"):
        for m in range(4, 21):
            for p in range(1, m - 2):
                for l in range(1, m - p + 1):
                    single = framed_rank(m, ((p, l),)).total_rank
                    assert framed_knot_is_infinite(m, p, l) == (single > 0), (m, p, l)
        for m in range(4, 21):
            for r in range(1, 4):
                for dims in itertools.combinations_with_replacement(range(1, m - 2), r):
                    full = framed_rank(m, tuple((p, m - p) for p in dims)).total_rank
                    assert fully_framed_is_infinite(m, dims) == (full > 0), (m, dims)


def test_criterion_14_double_six_handlebody():
    with criterion(14, "(9; 6,6) handlebody finiteness"):
        report = handlebody_report(9, (6, 6))
        assert report.sets_finite is True
        assert report.group_rank == 0


def test_criterion_15_weight_shift_invariance():
    with criterion(15, "multiplicity sees only weight parity"):
        for wi in (1, 2):
            for wj in (1, 2):
                for x in range(1, 13):
                    for y in range(1, 13):
                        assert multiplicity((wi, wj), (x, y)) == multiplicity(
                            (wi + 2, wj + 2), (x, y)
                        )


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "linkrank", *args],
        capture_output=True,
        check=False,
    )


def test_criterion_16_cli_golden_outputs():
    with criterion(16, "golden command outputs"):
        cases = [
            (("rank", "6", "3", "3", "--format", "json", "--details"),
             "rank_6_3_3.json"),
            (("framed", "8", "5:3", "5:3", "--format", "json"),
             "framed_8_53_53.json"),
            (("tables", "table2", "--format", "csv"), "table2.csv"),
            (("tables", "table3", "--format", "csv"), "table3.csv"),
        ]
        for args, fixture in cases:
            result = _run_cli(*args)
            assert result.returncode == 0, args
            assert result.stdout == (GOLDEN / fixture).read_bytes(), args
        payload = json.loads((GOLDEN / "rank_6_3_3.json").read_bytes())
        assert payload["rank"] == 4
