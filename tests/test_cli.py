import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from linkrank import cli, fcs, liedim, oracle
from linkrank.oracle import VerificationRecord, VerificationReport
from linkrank.ranks import brunnian_rank, link_rank


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "linkrank", *args],
        capture_output=True,
    )


def test_rank_text_output():
    result = run_cli("rank", "6", "3", "3")
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "rank: 4" in text
    assert "brunnian rank: 2" in text
    assert "infinite: yes" in text


def test_rank_json_without_details():
    result = run_cli("rank", "8", "5", "5", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["rank"] == 0
    assert payload["infinite"] is False
    assert "decomposition" not in payload


def test_witt_values():
    assert run_cli("witt", "6", "3", "2").stdout.strip() == b"11"
    assert run_cli("witt", "5/2", "3", "2").stdout.strip() == b"0"


def test_stiefel_value():
    assert run_cli("stiefel", "3", "4", "2").stdout.strip() == b"2"


def test_fcs_box():
    result = run_cli("fcs", "even", "odd", "--xmax", "3", "--ymax", "3")
    assert result.returncode == 0
    points = [tuple(map(int, line.split())) for line in result.stdout.decode().split("\n") if line]
    assert points == sorted(points)
    assert (1, 1) in points


def test_oracle_verify_runs_clean():
    result = run_cli("oracle", "verify", "--max-r", "2", "--max-degree", "2",
                     "--max-letters", "4")
    assert result.returncode == 0
    assert b"128 checks" in result.stdout


def test_invalid_input_exits_two():
    assert run_cli("rank", "5", "3", "3").returncode == 2
    assert run_cli("rank", "6", "3", "--brunnian").returncode == 2
    assert run_cli("rank", "6").returncode == 2


@pytest.mark.parametrize("t", ["1/0", "half", "1e3", "0.5"])
def test_witt_rejects_a_non_rational_index(capsys, t):
    assert cli.main(["witt", t, "3", "2"]) == 2
    assert capsys.readouterr().err == (
        f"error: expected an integer or a fraction a/b, got {t!r}\n")


@pytest.mark.parametrize("component, message", [
    ("5", "framed component must look like p:l, got '5'"),
    ("a:3", "framed component must be two integers p:l, got 'a:3'"),
])
def test_framed_rejects_a_malformed_component(capsys, component, message):
    assert cli.main(["framed", "8", component]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_oversized_oracle_range_exits_three():
    result = run_cli("oracle", "verify", "--max-r", "6", "--max-degree", "50",
                     "--max-letters", "1")
    assert result.returncode == 3
    assert b"more than 380050 (system, multidegree) pairs" in result.stderr


def test_fcs_over_the_box_cap_exits_three(capsys, monkeypatch):
    def member(*args):
        raise AssertionError("a point of an over-cap box was tested")

    monkeypatch.setattr(fcs, "_member", member)
    argv = ["fcs", "odd", "even", "--xmax", "100000", "--ymax", "100000"]
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", "resource limit: the box 100000 x 100000 holds "
                                   "10000000000 points, over the cap of 250000\n")


def test_witt_over_the_cap_exits_three(capsys, monkeypatch):
    def squarefree_divisors(n):
        raise AssertionError("the divisors of an over-cap witt were walked")

    monkeypatch.setattr(liedim, "_squarefree_divisors", squarefree_divisors)
    assert cli.main(["witt", "100000000", "1", "3"]) == 3
    assert capsys.readouterr() == ("", "resource limit: witt(100000000, 3) would cost about "
                                   "200010000 bits of r^t and trial divisions, over the "
                                   "cap of 1048576\n")


def test_help_exits_zero():
    assert run_cli("--help").returncode == 0
    assert run_cli("rank", "--help").returncode == 0


def test_error_messages_go_to_stderr():
    result = run_cli("rank", "5", "3", "3")
    assert result.stdout == b""
    assert b"error" in result.stderr.lower()


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_answers_past_the_default_digit_cap_print_in_full(capsys, fmt):
    # 4 764-digit ranks: past the interpreter's default cap of 4 300 digits
    # on converting an int to a string
    argv = ["rank", "10003", "10000", "10000", "10000", "--format", fmt]
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (0, b"")
    report = link_rank(10003, (10000,) * 3)
    ranks = (report.total_rank, report.brunnian_rank)
    printed = re.findall(rb"[0-9]{4300,}", result.stdout)
    # JSON sorts its keys, so brunnian_rank comes first there
    assert len(printed) == 2
    for digits, value in zip(printed, ranks[::-1] if fmt == "json" else ranks):
        assert 10 ** (len(digits) - 1) <= value < 10 ** len(digits)
        assert int(digits[-18:]) == value % 10 ** 18
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode() == result.stdout
    if cap is not None:
        assert sys.get_int_max_str_digits() == cap


# 4 401-digit arguments: past the interpreter's default cap of 4 300 digits
# on converting a string to an int, which the CLI lifts before it parses
_HUGE_M, _HUGE_P = "1" + "0" * 4399 + "3", "1" + "0" * 4400


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_fcs_reads_an_index_past_the_digit_cap(capsys, fmt):
    box = ["--xmax", "4", "--ymax", "4", "--format", fmt]
    assert cli.main(["fcs", _HUGE_P, "3", *box]) == 0
    huge = capsys.readouterr().out
    assert cli.main(["fcs", "4", "3", *box]) == 0
    assert capsys.readouterr().out == huge


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this interpreter has no int digit cap")
def test_huge_arguments_are_read_and_the_digit_cap_restored(capsys):
    # the link of a huge m and p is read, then refused at its Witt-sum cap;
    # the cap on digits is back after an answer, a refusal and a bad argument
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for argv, code, err in [(["fcs", _HUGE_P, "3", "--xmax", "4", "--ymax", "4"], 0, ""),
                                (["rank", _HUGE_M, _HUGE_P], 3, "resource limit: the Witt sums"),
                                (["rank", _HUGE_M, "x"], 2, "argument p: invalid int value: 'x'")]:
            assert cli.main(argv) == code
            assert sys.get_int_max_str_digits() == 4300
            out = capsys.readouterr()
            assert (out.out == "") is (code != 0)
            assert err in out.err
    finally:
        sys.set_int_max_str_digits(cap)


class Sha256(str):
    """Expected stdout given by the hex digest of its bytes."""


# Exact stdout of outputs the goldens do not cover; the long ones by digest.
PINNED = [
    (["rank", "6", "3", "3", "--details"],
     "m = 6, p = (3, 3)\nrank: 4\nbrunnian rank: 2\ninfinite: yes\ncontributions:\n"
     "  (0, 3): 1\n  (1, 2): 1\n  (2, 1): 1\n  (3, 0): 1\ndecomposition:\n"
     "  components {1}: 1\n  components {2}: 1\n  components {1,2}: 2\n"),
    # one component: no Brunnian line
    (["rank", "6", "3"], "m = 6, p = (3)\nrank: 1\ninfinite: yes\n"),
    (["rank", "6", "3", "--format", "csv"],
     "m,p,rank,brunnian_rank,infinite\n6,3,1,,True\n"),
    (["rank", "6", "3", "--format", "json"],
     '{\n  "infinite": true,\n  "m": 6,\n  "p": [\n    3\n  ],\n  "rank": 1\n}\n'),
    (["rank", "8", "5", "5", "5", "--brunnian"],
     "m = 8, p = (5, 5, 5)\nbrunnian rank: 6\ninfinite: yes\n"),
    (["rank", "8", "5", "5", "5", "--brunnian", "--format", "csv"],
     "m,p,rank,brunnian_rank,infinite\n8,5 5 5,6,6,True\n"),
    (["rank", "8", "5", "5", "5", "--brunnian", "--details"],
     "m = 8, p = (5, 5, 5)\nbrunnian rank: 6\ninfinite: yes\ncontributions:\n"
     "  (1, 1, 3): 1\n  (1, 2, 2): 1\n  (1, 3, 1): 1\n  (2, 1, 2): 1\n"
     "  (2, 2, 1): 1\n  (3, 1, 1): 1\n"),
    (["rank", "8", "5", "5", "5", "--brunnian", "--details", "--format", "json"],
     Sha256("55fce2821990ef04708be435a642b180d5bb639ee1f8ae96cdf1673e573d0434")),
    # one component: each multidegree prints as a one-entry tuple
    (["rank", "9", "5", "--details"],
     "m = 9, p = (5)\nrank: 0\ninfinite: no\ncontributions:\n  (3,): 0\ndecomposition:\n"
     "  components {1}: 0\n"),
    (["rank", "9", "5", "--details", "--format", "json"],
     '{\n  "contributions": [\n    {\n      "multidegree": [\n        3\n      ],\n'
     '      "multiplicity": 0\n    }\n  ],\n  "decomposition": {\n    "1": 0\n  },\n'
     '  "infinite": false,\n  "m": 9,\n  "p": [\n    5\n  ],\n  "rank": 0\n}\n'),
    # no solution: an empty listing, and 63 subsets of rank 0
    (["rank", "300", *["296"] * 6, "--details"],
     Sha256("0bc6815dae142eea04595b5cd1ff103ed3b15019a0225edd4948b95de5ece172")),
    (["rank", "300", *["296"] * 6, "--details", "--format", "json"],
     Sha256("007b96d8054bfcf238981f6b9404cc2d18342a6844c9d3cf3a31807b7bf3c4b9")),
    (["framed", "8", "5:3", "5:3"],
     "m = 8, components p:l = 5:3, 5:3\nframed rank: 0\nlink rank: 0\n"
     "stiefel ranks: (0, 0)\ninfinite: no\n"),
    (["framed", "8", "5:3", "5:3", "--format", "csv"],
     "m,p,l,rank,link_rank,stiefel_ranks,infinite\n8,5 5,3 3,0,0,0 0,False\n"),
    # weights 2, 2, 2, 3, 3, 4: the inversion repeats on two axes; 536
    # terms, Brunnian rank 1080
    (["rank", "24", "20", "20", "20", "19", "19", "18", "--details"],
     Sha256("0380552c98fac4741874c5200139f8247daae743e620fde7caeebd99cb00f395")),
    (["rank", "24", "20", "20", "20", "19", "19", "18", "--details", "--format", "json"],
     Sha256("905589817788f9f239c9591573c57ded4137440d7f863383fa4663b6e265bc68")),
    # weights 2, 2, 3, 20 at m - 3 = 21: the weight-20 component pairs with
    # none, and weight 2 repeats
    (["rank", "24", "20", "20", "19", "2", "--details"],
     Sha256("d6be12f2582839fb76a102ce562d6f56c240ef2a1b0d460d59b4febb93838c99")),
    (["rank", "24", "20", "20", "19", "2", "--details", "--format", "json"],
     Sha256("bacefbbdb17c8c243e22204ecc95f28bb5a686e93c15a2793e8d437827fb9bd3")),
    (["tables", "table2"],
     Sha256("c2fc656855897c56397f816805ed27220b93d6d1990fed6c4ac04ed73ad98831")),
    (["tables", "table2", "--format", "json"],
     Sha256("e5e24e6dc16374ef4ed1bd5e3b016d045a8e1bfb937fae503e2bf04de2ce416a")),
    (["tables", "table3"],
     Sha256("edfe81be6d126609eb7fa93e1c8c677a625a08632ec509181beb0c762c0b4783")),
    (["tables", "table3", "--format", "json"],
     Sha256("3c0d5d30d8600a5317b25dbd8245d76a843390e1526352b8a687ca59676ec831")),
    (["fcs", "even", "odd", "--xmax", "3", "--ymax", "3"],
     "1 1\n1 2\n2 3\n3 2\n3 3\n"),
    (["fcs", "even", "odd", "--xmax", "3", "--ymax", "3", "--format", "json"],
     Sha256("504648093cf376c9bffc428027fd2ea105cc02f6d28d09e351e744e7975e09ce")),
    (["fcs", "even", "odd", "--xmax", "3", "--ymax", "3", "--format", "csv"],
     "x,y\n1,1\n1,2\n2,3\n3,2\n3,3\n"),
    (["witt", "5/2", "3", "2"], "0\n"),
    (["witt", "5/2", "3", "2", "--format", "json"],
     '{\n  "r": 2,\n  "s": 3,\n  "t": "5/2",\n  "value": 0\n}\n'),
    (["witt", "5/2", "3", "2", "--format", "csv"], "t,s,r,value\n5/2,3,2,0\n"),
    (["stiefel", "3", "4", "2"], "2\n"),
    (["stiefel", "3", "4", "2", "--format", "json"],
     '{\n  "l": 2,\n  "p": 3,\n  "q": 4,\n  "rank": 2\n}\n'),
    (["stiefel", "3", "4", "2", "--format", "csv"], "p,q,l,rank\n3,4,2,2\n"),
    (["oracle", "verify", "--max-letters", "4"], "all 128 checks pass\n"),
    (["oracle", "verify", "--max-letters", "4", "--format", "csv"],
     Sha256("15a58483937f6771a4e9049abd7f3ee6181c126f9e2694cfae6c3e9c32f0a039")),
    # 31 465 terms, many of them with a divisor correction
    (["rank", "30", "27", "27", "27", "27", "27", "--details", "--format", "json"],
     Sha256("688275cdc830a5685c10d90f4797e3b2c8e08b7d670f7bd54e8169512e14f830")),
    # the same terms as text lines, written from one template per width
    (["rank", "30", "27", "27", "27", "27", "27", "--details"],
     Sha256("26dedc142a9b130f62e56c38059eb70826060eca138b84dbd6aef5e5ebb1133d")),
    # weights of both parities and three distinct values, so the walk steps
    # its last two coordinates by a stride and classes mix parities
    (["rank", "20", "17", "16", "15", "17", "--details"],
     Sha256("756da08b889e169827cbb4c5593ca9d4b8130d7303bbd3596513a01a9bc523c3")),
    (["rank", "20", "17", "16", "15", "17", "--details", "--format", "json"],
     Sha256("f3d288df2796cfd0feaeaffb96c716d62c959d6b8fdee1d8fadd159fa31fc45a")),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_pinned_output(capsys, argv, expected):
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if isinstance(expected, Sha256):
        assert hashlib.sha256(out.encode()).hexdigest() == expected
    else:
        assert out == expected


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_fcs_accepts_integer_parities(capsys, fmt):
    assert cli.main(["fcs", "even", "odd", "--format", fmt]) == 0
    by_word = capsys.readouterr().out
    assert cli.main(["fcs", "4", "7", "--format", fmt]) == 0
    assert capsys.readouterr().out == by_word


def test_fcs_rejects_a_non_integer_parity(capsys):
    assert cli.main(["fcs", "4.5", "odd"]) == 2
    assert capsys.readouterr() == (
        "", "error: parity must be an integer or 'even'/'odd', got '4.5'\n")


@pytest.mark.parametrize("fmt, expected", [
    ("text", "FAIL weights=(1, 2) x=(1, 1) dimension: expected 1, got 2\n"
             "1 of 2 checks fail\n"),
    ("json", '"failures": [\n    {\n      "actual": 2,\n      "check": "dimension",\n'),
    ("csv", "1 2,1 1,dimension,1,2,False\n"),
])
def test_oracle_failure_prints_then_exits_one(capsys, monkeypatch, fmt, expected):
    report = VerificationReport((
        VerificationRecord((1, 2), (1, 1), "dimension", 1, 2),
        VerificationRecord((1,), (1,), "dimension", 1, 1),
    ))
    monkeypatch.setattr(oracle, "verify_range", lambda *args, **kwargs: report)
    assert cli.main(["oracle", "verify", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert expected in captured.out
    assert captured.err == (
        "internal consistency failure: 1 oracle checks disagree with the closed formulas\n")


def test_closed_pipe_exits_141_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "linkrank", "tables", "table3"],
                                stdout=write_end, stderr=subprocess.PIPE)
    finally:
        os.close(write_end)
    assert result.stderr == b""
    assert result.returncode == 141


def test_details_over_the_term_cap_exits_three(capsys):
    # C(62, 5) = 6 471 002 terms: counted and refused, never listed
    argv = ["rank", "60", *["57"] * 6]
    start = time.perf_counter()
    assert cli.main([*argv, "--details"]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("resource limit: m=60, p=(57, 57, 57, 57, 57, 57) has 6471002 "
                            "contributions, over the cap of 200000\n")
    assert cli.main(argv) == 0
    assert "rank: " in capsys.readouterr().out


def test_details_refuses_the_decomposition_of_18_components(capsys):
    # 1 140 terms, but 2^18 - 1 component subsets; --brunnian lists no subsets
    argv = ["rank", "6", *["3"] * 18, "--details"]
    assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"resource limit: the decomposition of m=6, p=({'3, ' * 17}3) lists "
                            "262143 component subsets, over the cap of 200000\n")
    assert cli.main([*argv, "--brunnian"]) == 0
    assert capsys.readouterr().out.endswith("contributions:\n")


def reference_json(payload):
    """The cross-check of the JSON writer: the standard encoder, on the
    payload with each (multidegree, multiplicity) term spelled out."""
    if "contributions" in payload:
        payload = {**payload, "contributions": [
            {"multidegree": list(x), "multiplicity": value}
            for x, value in payload["contributions"]]}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


big = st.integers(-10 ** 40, 10 ** 40)


@st.composite
def rank_payloads(draw):
    # the key sets of rank --format json: brunnian_rank for r >= 2 only,
    # contributions with --details, decomposition with --details unless
    # --brunnian; entries of any size or sign, decomposition keys any text
    r = draw(st.integers(1, 4))
    ints = st.lists(big, min_size=r, max_size=r)
    payload = {"m": draw(big), "p": draw(ints), "rank": draw(big),
               "infinite": draw(st.booleans())}
    if r >= 2:
        payload["brunnian_rank"] = draw(big)
    if draw(st.booleans()):
        payload["contributions"] = tuple(draw(st.lists(
            st.tuples(ints.map(tuple), big), max_size=5)))
        if r == 1 or draw(st.booleans()):
            payload["decomposition"] = draw(st.dictionaries(st.text(), big, max_size=4))
    return payload


@settings(max_examples=300, deadline=None)
@given(rank_payloads())
@example({"brunnian_rank": 1, "contributions": ()})  # no key sorts after contributions
def test_json_matches_the_standard_encoder(payload):
    expected = reference_json(payload)
    kept = dict(payload)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        cli._emit("json", lambda: payload, None, None)
    assert buffer.getvalue() == expected
    assert payload == kept


@st.composite
def small_links(draw):
    # m <= 24 and r <= 5, every component of codimension above 2, and
    # --brunnian drawn for r >= 2
    m = draw(st.integers(6, 24))
    r = draw(st.integers(1, 5))
    dims = draw(st.lists(st.integers(1, m - 3), min_size=r, max_size=r))
    return m, dims, r >= 2 and draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(small_links())
@example((9, [5], False))  # one component: (v,)
@example((24, [20, 20, 19], True))
def test_text_details_list_the_contributions(link):
    # the text listing against lines built here from the library's terms
    m, dims, brunnian = link
    argv = ["rank", str(m), *map(str, dims), "--details", *["--brunnian"] * brunnian]
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(argv) == 0
    report = brunnian_rank(m, tuple(dims)) if brunnian else link_rank(m, tuple(dims))
    listing = buffer.getvalue().split("contributions:\n", 1)[1]
    if not brunnian:
        listing = listing.split("decomposition:\n", 1)[0]
    assert listing == "".join(f"  {x}: {value}\n" for x, value in report.contributions)
