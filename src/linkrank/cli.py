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
csv are imported by the first call that writes that format, fractions by
the witt index parser and the brute-force oracle by oracle verify, so a
text-format rank call loads none of them.  Exit
codes: 0 success, 2 invalid input, 3 resource limit exceeded, 1 internal
consistency failure, 141 stdout closed early (a closed pipe).

A call is parsed once, by the parser of the command its first argument
names.  The full parser, which holds every command, reads only what that
one pass cannot: no arguments, a first argument that names no command
(--help, a typo) and arguments the command's parser leaves over.  So help,
usage and error texts and their exit codes are those of the full parser.

One rendering rule: a command first computes its data and runs every check
and refusal on it (the report, a table, the --details listings, the fcs
box, the verify range and its failures), whatever the format, so its exit
code never depends on --format.  It then hands _emit three zero-argument
builders, one per format, and _emit calls only the one --format names; the
other renderings are never built.  The tables ask liedim's unvalidated
_multiplicity with each block's parities, as verify_range does.
"""

import argparse
import io
import os
import sys

from .errors import (InternalConsistencyError, InvalidInputError, ResourceLimitError, _agree,
                     _reject)
from .fcs import _parity, fcs_enumerate
from .framed import framed_rank
from .liedim import _multiplicity, witt_super
from .ranks import brunnian_rank, link_rank
from .stiefel import stiefel_rank


def _listing(terms, head, sep, tail, joint):
    """The nonempty (multidegree, multiplicity) terms of a rank report
    joined by joint, each written from one %-template: head, the entries of
    its multidegree joined by sep, then tail around the multiplicity.  Every
    multidegree of a report has one width, that of its link, so the first
    term's width gives the template."""
    template = head + sep.join(["%d"] * len(terms[0][0])) + tail
    return joint.join([template % (x + (value,)) for x, value in terms])


def _json(payload):
    """json.dumps(payload, indent=2, sort_keys=True), where an optional
    "contributions" key holds (multidegree, multiplicity) pairs, each to be
    written as {"multidegree": [...], "multiplicity": ...}.

    With an indent the standard encoder is pure Python, and a rank can have
    hundreds of thousands of terms.  So the terms are written from one
    template for the width of their multidegrees, and the encoder writes
    the list's place as the value 0: its line, at a two-space indent, is
    the only one that reads '\n  "contributions": 0' (every deeper key is
    indented further, and a JSON string holds no raw newline).  The text is
    cut there and the list written in that place, so the listing is copied
    once, into the result.
    """
    import json
    if "contributions" not in payload:
        return json.dumps(payload, indent=2, sort_keys=True)
    terms = payload["contributions"]
    key = '\n  "contributions": '
    head, _, tail = json.dumps({**payload, "contributions": 0}, indent=2,
                               sort_keys=True).partition(f"{key}0")
    if not terms:
        return f"{head}{key}[]{tail}"
    entries = _listing(terms, '    {\n      "multidegree": [\n        ', ",\n        ",
                       '\n      ],\n      "multiplicity": %d\n    }', ",\n")
    return f"{head}{key}[\n{entries}\n  ]{tail}"


def _emit(fmt, payload, table, text):
    """Print one rendering, built by the zero-argument builder that fmt
    names: payload() the JSON payload, table() the CSV rows, text() the
    lines; the other two builders are never called.  The only stdout writer."""
    if fmt == "json":
        out = _json(payload()) + "\n"
    elif fmt == "csv":
        import csv
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator="\n").writerows(table())
        out = buffer.getvalue()
    else:
        out = "".join(f"{line}\n" for line in text())
    sys.stdout.write(out)
    sys.stdout.flush()


def _record(fields):
    """Builders of the JSON object (None fields dropped) and of the one-row
    CSV table of a field dict."""
    return (lambda: {key: value for key, value in fields.items() if value is not None},
            lambda: [list(fields), ["" if value is None else " ".join(map(str, value))
                                    if isinstance(value, list) else value
                                    for value in fields.values()]])


def _cmd_rank(args):
    if args.brunnian:
        report = brunnian_rank(args.m, args.p)
        rank = brunnian = report.rank
    else:
        report = link_rank(args.m, args.p)
        rank, brunnian = report.total_rank, report.brunnian_rank
    infinite = report.infinite
    # the listings are read, so checked or refused, whatever the format
    terms = report.contributions if args.details else None
    split = report.subset_decomposition if args.details and not args.brunnian else None
    record, table = _record({"m": report.m, "p": list(report.p), "rank": rank,
                             "brunnian_rank": brunnian, "infinite": infinite})

    def payload():
        out = record()
        if terms is not None:
            out["contributions"] = terms
        if split is not None:
            out["decomposition"] = {",".join(map(str, subset)): value
                                    for subset, value in split.items()}
        return out

    def text():
        yield f"m = {report.m}, p = ({', '.join(map(str, report.p))})"
        if not args.brunnian:
            yield f"rank: {rank}"
        if brunnian is not None:
            yield f"brunnian rank: {brunnian}"
        yield f"infinite: {'yes' if infinite else 'no'}"
        if terms is not None:
            yield "contributions:"
            if terms:
                # one block of lines from one template for the link's
                # width; a one-entry multidegree prints as (v,), as a
                # tuple does
                tail = "): %d" if len(report.p) > 1 else ",): %d"
                yield _listing(terms, "  (", ", ", tail, "\n")
        if split is not None:
            yield "decomposition:"
            yield from (f"  components {{{','.join(map(str, subset))}}}: {value}"
                        for subset, value in split.items())

    _emit(args.format, payload, table, text)


def _parse_component(text):
    parts = text.split(":")
    if len(parts) != 2:
        _reject("framed component must look like p:l, got {}", text)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        _reject("framed component must be two integers p:l, got {}", text)


def _cmd_framed(args):
    report = framed_rank(args.m, tuple(_parse_component(item) for item in args.component))
    link = report.link_report.total_rank
    payload, table = _record({
        "m": report.m, "p": list(report.p), "l": list(report.l),
        "rank": report.total_rank, "link_rank": link,
        "stiefel_ranks": list(report.stiefel_ranks), "infinite": report.infinite})

    def text():
        pairs = ", ".join(f"{p}:{l}" for p, l in zip(report.p, report.l))
        return [f"m = {report.m}, components p:l = {pairs}",
                f"framed rank: {report.total_rank}",
                f"link rank: {link}",
                f"stiefel ranks: ({', '.join(map(str, report.stiefel_ranks))})",
                f"infinite: {'yes' if report.infinite else 'no'}"]

    _emit(args.format, payload, table, text)


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
        ("even", "even", (0, 0)),
        ("odd", "even", (1, 0)),
        ("odd", "odd", (1, 1)),
    )
    for pi, pj, parities in blocks:
        for y in range(1, 6):
            for x in range(1, 6):
                rows.append([pi, pj, x, y, _multiplicity(parities, (x, y))])
    return rows


def _cmd_tables(args):
    table = _table2() if args.which == "table2" else _table3()

    def payload():
        header, *rows = table
        return {"rows": [dict(zip(header, row)) for row in rows]}

    def text():
        widths = [max(len(str(value)) for value in column) for column in zip(*table)]
        return ["  ".join(str(value).ljust(width) for value, width in zip(row, widths))
                for row in table]

    _emit(args.format, payload, lambda: table, text)


def _parity_arg(text):
    """A decimal integer index as an int; anything else goes to fcs as typed."""
    try:
        return int(text)
    except ValueError:
        return text


def _cmd_fcs(args):
    points = fcs_enumerate(args.i, args.j, args.xmax, args.ymax)

    def payload():
        names = ("even", "odd")
        return {"i_parity": names[_parity(args.i)], "j_parity": names[_parity(args.j)],
                "x_max": args.xmax, "y_max": args.ymax, "points": points}

    _emit(args.format, payload, lambda: [("x", "y"), *points],
          lambda: [f"{x} {y}" for x, y in points])


def _parse_rational(text):
    # an integer or a/b, each part read by int() as argparse reads M and P;
    # Fraction(text) would also read 1e1000000000 and build its huge int
    from fractions import Fraction
    num, slash, den = text.partition("/")
    try:
        return Fraction(int(num), int(den) if slash else 1)
    except (ValueError, ZeroDivisionError):
        _reject("expected an integer or a fraction a/b, got {}", text)


def _cmd_witt(args):
    t = _parse_rational(args.t)
    value = witt_super(t, args.s, args.r)
    _emit(args.format, *_record({"t": str(t), "s": args.s, "r": args.r, "value": value}),
          lambda: [value])


def _cmd_stiefel(args):
    value = stiefel_rank(args.p, args.q, args.l)
    _emit(args.format, *_record({"p": args.p, "q": args.q, "l": args.l, "rank": value}),
          lambda: [value])


def _cmd_oracle_verify(args):
    from .oracle import verify_range
    report = verify_range(args.max_r, args.max_degree, args.max_letters)
    failures = report.failures

    def payload():
        return {"instances": report.instances, "ok": report.ok, "failures": [
            {"weights": list(rec.weights), "multidegree": list(rec.multidegree),
             "check": rec.check, "expected": rec.expected, "actual": rec.actual}
            for rec in failures]}

    def table():
        yield ["weights", "multidegree", "check", "expected", "actual", "ok"]
        for rec in report.records:
            yield [" ".join(map(str, rec.weights)), " ".join(map(str, rec.multidegree)),
                   rec.check, rec.expected, rec.actual, rec.ok]

    def text():
        for rec in failures:
            yield (f"FAIL weights={rec.weights} x={rec.multidegree} "
                   f"{rec.check}: expected {rec.expected}, got {rec.actual}")
        yield (f"{len(failures)} of {report.instances} checks fail" if failures
               else f"all {report.instances} checks pass")

    _emit(args.format, payload, table, text)
    _agree(len(failures), 0, "{} oracle checks disagree with the closed formulas", len(failures))


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

    framed = sub.add_parser("framed", help="rank of a framed link group")
    framed.add_argument("m", type=int, help="ambient dimension")
    framed.add_argument("component", nargs="+",
                        help="components as p:l (sphere dimension : frame count)")

    tables = sub.add_parser("tables", help="recompute a reference table")
    tables.add_argument("which", choices=("table2", "table3"))

    fcs = sub.add_parser("fcs", help="enumerate a membership family")
    fcs.add_argument("i", type=_parity_arg, help="first index (integer or even/odd)")
    fcs.add_argument("j", type=_parity_arg, help="second index (integer or even/odd)")
    fcs.add_argument("--xmax", type=int, default=12)
    fcs.add_argument("--ymax", type=int, default=12)

    witt = sub.add_parser("witt", help="super necklace count")
    witt.add_argument("t", help="index, an integer or a fraction a/b")
    witt.add_argument("s", type=int, help="parity carrier (odd s activates the extra term)")
    witt.add_argument("r", type=int, help="number of letters")

    stiefel = sub.add_parser("stiefel", help="rational homotopy rank of a Stiefel manifold")
    stiefel.add_argument("p", type=int)
    stiefel.add_argument("q", type=int)
    stiefel.add_argument("l", type=int)

    oracle = sub.add_parser("oracle", help="brute-force cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    verify = oracle_sub.add_parser("verify", help="compare formulas with brute force")
    verify.add_argument("--max-r", type=int, default=2, dest="max_r")
    verify.add_argument("--max-degree", type=int, default=2, dest="max_degree")
    verify.add_argument("--max-letters", type=int, default=5, dest="max_letters")

    # every command takes --format, after its own arguments, and a _cmd_ handler
    for command, func in ((rank, _cmd_rank), (framed, _cmd_framed), (tables, _cmd_tables),
                          (fcs, _cmd_fcs), (witt, _cmd_witt), (stiefel, _cmd_stiefel),
                          (verify, _cmd_oracle_verify)):
        command.add_argument("--format", choices=("text", "json", "csv"),
                             default="text", help="output format (default text)")
        command.set_defaults(func=func)
    return parser, sub.choices


# built once per process: parse_args keeps no state between calls;
# _COMMANDS maps each command name to its own parser
_PARSER, _COMMANDS = _build_parser()


def main(argv=None):
    # an exact answer or an argument may have more digits than the
    # interpreter converts between int and string by default; lift that cap
    # for this call only, parsing included
    digits = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        command = _COMMANDS.get(argv[0]) if argv else None
        if command is not None:
            args, rest = command.parse_known_args(argv[1:])
        if command is None or rest:
            # no command, or arguments left over: the full parser prints
            # the usage, help or error text and exits as it always has
            args = _PARSER.parse_args(argv)
        args.func(args)
        return 0
    except SystemExit as exc:
        # only argparse exits: 0 after --help, 2 on a bad argument
        return 0 if exc.code in (0, None) else 2
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
