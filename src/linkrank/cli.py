"""Command line interface.

Subcommands:

    rank M P...          rank report for a link (--brunnian for the
                         Brunnian group, --details for contributions)
    framed M P:L...      rank report for a framed link
    tables table2|table3 reference tables recomputed from scratch
    fcs I J              membership family for the parities of I, J
                         (each an integer or even/odd)
    witt T S R           super necklace count (T may be a fraction a/b)
    stiefel P Q L        rational homotopy rank of a Stiefel manifold
    oracle verify        brute-force cross-check of the closed formulas

Every subcommand takes --format text|json|csv.  CSV is a header line and
then rows; rank, framed, witt and stiefel give one row, with lists joined
by spaces and an empty brunnian_rank for a one-component link.  json and
csv are imported by the first call that writes that format, and fractions
by the witt index parser, so a text-format call loads none of them.  Exit
codes: 0 success, 2 invalid input, 3 resource limit exceeded, 1 internal
consistency failure, 141 stdout closed early (a closed pipe).
"""

import argparse
import io
import os
import sys
from itertools import chain

from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .fcs import _parity, fcs_enumerate
from .framed import framed_rank
from .liedim import multiplicity, witt_super
from .oracle import verify_range
from .ranks import brunnian_rank, link_rank
from .stiefel import stiefel_rank


def _json(payload):
    """json.dumps(payload, indent=2, sort_keys=True), where an optional
    "contributions" key holds (multidegree, multiplicity) pairs, each to be
    written as {"multidegree": [...], "multiplicity": ...}.

    With an indent the standard encoder is pure Python, and a rank can have
    hundreds of thousands of terms.  So each term is written from one
    template, and the list is set in its sorted-key place: just before the
    line of the next key, which is at a two-space indent (every deeper key
    is indented further, and a JSON string holds no raw newline).
    """
    import json
    rest = dict(payload)
    terms = rest.pop("contributions", None)
    out = json.dumps(rest, indent=2, sort_keys=True)
    if terms is None:
        return out
    sep = ",\n        "
    entries = ",\n".join(
        f'    {{\n      "multidegree": [\n        {sep.join(map(str, x))}\n      ],\n'
        f'      "multiplicity": {value}\n    }}' for x, value in terms)
    listing = f"[\n{entries}\n  ]" if terms else "[]"
    following = min(key for key in rest if key > "contributions")
    at = out.index(f"\n  {json.dumps(following)}: ")
    return f'{out[:at]}\n  "contributions": {listing},{out[at:]}'


def _emit(fmt, payload, table, text):
    """Print payload as JSON, table as CSV or text (an iterable of lines) as
    lines; the only stdout writer."""
    if fmt == "json":
        out = _json(payload) + "\n"
    elif fmt == "csv":
        import csv
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table)
        out = buffer.getvalue()
    else:
        out = "".join(f"{line}\n" for line in text)
    sys.stdout.write(out)
    sys.stdout.flush()


def _record(fields):
    """The JSON object (None fields dropped) and one-row CSV table of a field dict."""
    payload = {key: value for key, value in fields.items() if value is not None}
    row = ["" if value is None else " ".join(map(str, value)) if isinstance(value, list)
           else value for value in fields.values()]
    return payload, [list(fields), row]


def _cmd_rank(args):
    if args.brunnian:
        report = brunnian_rank(args.m, args.p)
        rank = brunnian = report.rank
    else:
        report = link_rank(args.m, args.p)
        rank, brunnian = report.total_rank, report.brunnian_rank
    infinite = report.infinite
    payload, table = _record({"m": report.m, "p": list(report.p), "rank": rank,
                              "brunnian_rank": brunnian, "infinite": infinite})
    text = [f"m = {report.m}, p = ({', '.join(map(str, report.p))})"]
    if not args.brunnian:
        text.append(f"rank: {rank}")
    if brunnian is not None:
        text.append(f"brunnian rank: {brunnian}")
    text.append(f"infinite: {'yes' if infinite else 'no'}")
    if args.details:
        # the term and subset lines are generators, formatted only when the
        # text format prints them
        terms = report.contributions
        payload["contributions"] = terms
        text = chain(text, ["contributions:"], (f"  {x}: {value}" for x, value in terms))
        if not args.brunnian:
            split = {",".join(map(str, subset)): value
                     for subset, value in report.subset_decomposition.items()}
            payload["decomposition"] = split
            text = chain(text, ["decomposition:"],
                         (f"  components {{{key}}}: {value}" for key, value in split.items()))
    _emit(args.format, payload, table, text)


def _parse_component(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"framed component must look like p:l, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"framed component must be two integers p:l, got {text!r}")


def _cmd_framed(args):
    report = framed_rank(args.m, tuple(_parse_component(item) for item in args.component))
    link = report.link_report.total_rank
    payload, table = _record({
        "m": report.m, "p": list(report.p), "l": list(report.l),
        "rank": report.total_rank, "link_rank": link,
        "stiefel_ranks": list(report.stiefel_ranks), "infinite": report.infinite})
    pairs = ", ".join(f"{p}:{l}" for p, l in zip(report.p, report.l))
    _emit(args.format, payload, table, [
        f"m = {report.m}, components p:l = {pairs}",
        f"framed rank: {report.total_rank}",
        f"link rank: {link}",
        f"stiefel ranks: ({', '.join(map(str, report.stiefel_ranks))})",
        f"infinite: {'yes' if report.infinite else 'no'}"])


def _table2():
    rows = [["k", "p", "l", "rank"]]
    for k_label, k in (("0", 0), ("1", 1), ("2", 2), (">=3", 3)):
        for p in range(1, 6):
            columns = [(str(l), l) for l in range(3, p + 2)]
            columns.append((f">={p + 2}", p + 2))
            for l_label, l in columns:
                value = brunnian_rank(p + l + k, (p, p + k)).rank
                rows.append([k_label, p, l_label, value])
    return rows


def _table3():
    rows = [["i_parity", "j_parity", "x", "y", "multiplicity"]]
    blocks = (
        ("even", "even", (2, 2)),
        ("odd", "even", (1, 2)),
        ("odd", "odd", (1, 1)),
    )
    for pi, pj, weights in blocks:
        for y in range(1, 6):
            for x in range(1, 6):
                rows.append([pi, pj, x, y, multiplicity(weights, (x, y))])
    return rows


def _cmd_tables(args):
    table = _table2() if args.which == "table2" else _table3()
    header, *rows = table
    widths = [max(len(str(value)) for value in column) for column in zip(*table)]
    _emit(args.format, {"rows": [dict(zip(header, row)) for row in rows]}, table,
          ["  ".join(str(value).ljust(width) for value, width in zip(row, widths))
           for row in table])


def _parity_arg(text):
    """A decimal integer index as an int; anything else goes to fcs as typed."""
    try:
        return int(text)
    except ValueError:
        return text


def _cmd_fcs(args):
    points = [list(point) for point in fcs_enumerate(args.i, args.j, args.xmax, args.ymax)]
    names = ("even", "odd")
    payload = {"i_parity": names[_parity(args.i)], "j_parity": names[_parity(args.j)],
               "x_max": args.xmax, "y_max": args.ymax, "points": points}
    _emit(args.format, payload, [["x", "y"], *points], [f"{x} {y}" for x, y in points])


def _parse_rational(text):
    from fractions import Fraction
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"expected an integer or a fraction a/b, got {text!r}")


def _cmd_witt(args):
    t = _parse_rational(args.t)
    value = witt_super(t, args.s, args.r)
    _emit(args.format, *_record({"t": str(t), "s": args.s, "r": args.r, "value": value}),
          [value])


def _cmd_stiefel(args):
    value = stiefel_rank(args.p, args.q, args.l)
    _emit(args.format, *_record({"p": args.p, "q": args.q, "l": args.l, "rank": value}),
          [value])


def _cmd_oracle_verify(args):
    report = verify_range(args.max_r, args.max_degree, args.max_letters)
    failures = report.failures
    payload = {
        "instances": report.instances,
        "ok": report.ok,
        "failures": [
            {"weights": list(rec.weights), "multidegree": list(rec.multidegree),
             "check": rec.check, "expected": rec.expected, "actual": rec.actual}
            for rec in failures
        ],
    }
    table = [["weights", "multidegree", "check", "expected", "actual", "ok"]]
    table += [[" ".join(map(str, rec.weights)), " ".join(map(str, rec.multidegree)),
               rec.check, rec.expected, rec.actual, rec.ok] for rec in report.records]
    text = [f"FAIL weights={rec.weights} x={rec.multidegree} "
            f"{rec.check}: expected {rec.expected}, got {rec.actual}" for rec in failures]
    text.append(f"{len(failures)} of {report.instances} checks fail" if failures
                else f"all {report.instances} checks pass")
    _emit(args.format, payload, table, text)
    if failures:
        raise InternalConsistencyError(
            f"{len(failures)} oracle checks disagree with the closed formulas")


def _add_format(parser):
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output format (default text)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="linkrank",
        description="Exact ranks of link groups in codimension greater than two.")
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank of a link group")
    rank.add_argument("m", type=int, help="ambient dimension")
    rank.add_argument("p", type=int, nargs="+", help="component sphere dimensions")
    rank.add_argument("--brunnian", action="store_true",
                      help="report the Brunnian group instead (needs >= 2 components)")
    rank.add_argument("--details", action="store_true",
                      help="include per-multidegree contributions and the subset split")
    _add_format(rank)
    rank.set_defaults(func=_cmd_rank)

    framed = sub.add_parser("framed", help="rank of a framed link group")
    framed.add_argument("m", type=int, help="ambient dimension")
    framed.add_argument("component", nargs="+",
                        help="components as p:l (sphere dimension : frame count)")
    _add_format(framed)
    framed.set_defaults(func=_cmd_framed)

    tables = sub.add_parser("tables", help="recompute a reference table")
    tables.add_argument("which", choices=("table2", "table3"))
    _add_format(tables)
    tables.set_defaults(func=_cmd_tables)

    fcs = sub.add_parser("fcs", help="enumerate a membership family")
    fcs.add_argument("i", type=_parity_arg, help="first index (integer or even/odd)")
    fcs.add_argument("j", type=_parity_arg, help="second index (integer or even/odd)")
    fcs.add_argument("--xmax", type=int, default=12)
    fcs.add_argument("--ymax", type=int, default=12)
    _add_format(fcs)
    fcs.set_defaults(func=_cmd_fcs)

    witt = sub.add_parser("witt", help="super necklace count")
    witt.add_argument("t", help="index, an integer or a fraction a/b")
    witt.add_argument("s", type=int, help="parity carrier (odd s activates the extra term)")
    witt.add_argument("r", type=int, help="number of letters")
    _add_format(witt)
    witt.set_defaults(func=_cmd_witt)

    stiefel = sub.add_parser("stiefel", help="rational homotopy rank of a Stiefel manifold")
    stiefel.add_argument("p", type=int)
    stiefel.add_argument("q", type=int)
    stiefel.add_argument("l", type=int)
    _add_format(stiefel)
    stiefel.set_defaults(func=_cmd_stiefel)

    oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    verify = oracle_sub.add_parser("verify", help="compare formulas with brute force")
    verify.add_argument("--max-r", type=int, default=2, dest="max_r")
    verify.add_argument("--max-degree", type=int, default=2, dest="max_degree")
    verify.add_argument("--max-letters", type=int, default=5, dest="max_letters")
    _add_format(verify)
    verify.set_defaults(func=_cmd_oracle_verify)

    return parser


# built once per process: parse_args keeps no state between calls
_PARSER = _build_parser()


def main(argv=None):
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    # an exact answer may have more digits than the interpreter converts to
    # a string by default; lift that cap for this call only
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        args.func(args)
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader is gone; keep the interpreter's final flush silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
