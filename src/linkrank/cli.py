"""Command line interface.

Subcommands:

    rank M P...          rank report for a link (--brunnian for the
                         Brunnian group, --details for contributions)
    framed M P:L...      rank report for a framed link
    tables table2|table3 reference tables recomputed from scratch
    fcs I J              membership family for the given parities
    witt T S R           super necklace count (T may be a fraction a/b)
    stiefel P Q L        rational homotopy rank of a Stiefel manifold
    oracle verify        brute-force cross-check of the closed formulas

Every subcommand takes --format text|json|csv.  Exit codes: 0 success,
2 invalid input, 3 resource limit exceeded, 1 internal consistency failure.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .errors import InternalConsistencyError, InvalidInputError, ResourceLimitError
from .fcs import _parity, fcs_enumerate
from .framed import framed_rank
from .liedim import multiplicity, witt_super
from .oracle import verify_range
from .ranks import brunnian_is_infinite, brunnian_rank, link_rank
from .stiefel import stiefel_rank


def _print_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    sys.stdout.write(buffer.getvalue())


def _subset_key(subset):
    return ",".join(str(k) for k in subset)


def _cmd_rank(args):
    if args.brunnian:
        report = brunnian_rank(args.m, args.p)
        rank = report.rank
        infinite = brunnian_is_infinite(args.m, args.p)
        brunnian = rank
        contributions = report.contributions
        decomposition = None
    else:
        report = link_rank(args.m, args.p)
        rank = report.total_rank
        infinite = report.infinite
        brunnian = report.brunnian_rank
        contributions = report.contributions
        decomposition = report.subset_decomposition

    if args.format == "json":
        payload = {
            "m": report.m,
            "p": list(report.p),
            "rank": rank,
            "infinite": infinite,
        }
        if brunnian is not None:
            payload["brunnian_rank"] = brunnian
        if args.details:
            payload["contributions"] = [
                {"multidegree": list(x), "multiplicity": value}
                for x, value in contributions
            ]
            if decomposition is not None:
                payload["decomposition"] = {
                    _subset_key(subset): value
                    for subset, value in decomposition.items()
                }
        _print_json(payload)
    elif args.format == "csv":
        _print_csv(
            ["m", "p", "rank", "brunnian_rank", "infinite"],
            [[report.m, " ".join(map(str, report.p)), rank,
              "" if brunnian is None else brunnian, infinite]])
    else:
        print(f"m = {report.m}, p = ({', '.join(map(str, report.p))})")
        if args.brunnian:
            print(f"brunnian rank: {rank}")
        else:
            print(f"rank: {rank}")
            if brunnian is not None:
                print(f"brunnian rank: {brunnian}")
        print(f"infinite: {'yes' if infinite else 'no'}")
        if args.details:
            print("contributions:")
            for x, value in contributions:
                print(f"  {x}: {value}")
            if decomposition is not None:
                print("decomposition:")
                for subset, value in decomposition.items():
                    print(f"  components {{{_subset_key(subset)}}}: {value}")
    return 0


def _parse_component(text):
    parts = text.split(":")
    if len(parts) != 2:
        raise InvalidInputError(f"framed component must look like p:l, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidInputError(f"framed component must be two integers p:l, got {text!r}")


def _cmd_framed(args):
    components = tuple(_parse_component(item) for item in args.component)
    report = framed_rank(args.m, components)
    if args.format == "json":
        _print_json({
            "m": report.m,
            "p": list(report.p),
            "l": list(report.l),
            "rank": report.total_rank,
            "link_rank": report.link_report.total_rank,
            "stiefel_ranks": list(report.stiefel_ranks),
            "infinite": report.infinite,
        })
    elif args.format == "csv":
        _print_csv(
            ["m", "p", "l", "rank", "link_rank", "stiefel_ranks", "infinite"],
            [[report.m, " ".join(map(str, report.p)), " ".join(map(str, report.l)),
              report.total_rank, report.link_report.total_rank,
              " ".join(map(str, report.stiefel_ranks)), report.infinite]])
    else:
        pairs = ", ".join(f"{p}:{l}" for p, l in zip(report.p, report.l))
        print(f"m = {report.m}, components p:l = {pairs}")
        print(f"framed rank: {report.total_rank}")
        print(f"link rank: {report.link_report.total_rank}")
        print(f"stiefel ranks: ({', '.join(map(str, report.stiefel_ranks))})")
        print(f"infinite: {'yes' if report.infinite else 'no'}")
    return 0


def _table2_rows():
    rows = []
    for k_label, k in (("0", 0), ("1", 1), ("2", 2), (">=3", 3)):
        for p in range(1, 6):
            columns = [(str(l), l) for l in range(3, p + 2)]
            columns.append((f">={p + 2}", p + 2))
            for l_label, l in columns:
                value = brunnian_rank(p + l + k, (p, p + k)).rank
                rows.append([k_label, p, l_label, value])
    return rows


def _table3_rows():
    rows = []
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
    if args.which == "table2":
        header = ["k", "p", "l", "rank"]
        rows = _table2_rows()
    else:
        header = ["i_parity", "j_parity", "x", "y", "multiplicity"]
        rows = _table3_rows()
    if args.format == "json":
        _print_json({"rows": [dict(zip(header, row)) for row in rows]})
    elif args.format == "csv":
        _print_csv(header, rows)
    else:
        widths = [max(len(str(head)), max(len(str(row[i])) for row in rows))
                  for i, head in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def _parity_name(value):
    return "odd" if _parity(value) else "even"


def _cmd_fcs(args):
    points = fcs_enumerate(args.i, args.j, args.xmax, args.ymax)
    if args.format == "json":
        _print_json({
            "i_parity": _parity_name(args.i),
            "j_parity": _parity_name(args.j),
            "x_max": args.xmax,
            "y_max": args.ymax,
            "points": [list(point) for point in points],
        })
    elif args.format == "csv":
        _print_csv(["x", "y"], [list(point) for point in points])
    else:
        for x, y in points:
            print(f"{x} {y}")
    return 0


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInputError(f"expected an integer or a fraction a/b, got {text!r}")


def _cmd_witt(args):
    t = _parse_rational(args.t)
    value = witt_super(t, args.s, args.r)
    if args.format == "json":
        _print_json({"t": str(t), "s": args.s, "r": args.r, "value": value})
    elif args.format == "csv":
        _print_csv(["t", "s", "r", "value"], [[str(t), args.s, args.r, value]])
    else:
        print(value)
    return 0


def _cmd_stiefel(args):
    value = stiefel_rank(args.p, args.q, args.l)
    if args.format == "json":
        _print_json({"p": args.p, "q": args.q, "l": args.l, "rank": value})
    elif args.format == "csv":
        _print_csv(["p", "q", "l", "rank"], [[args.p, args.q, args.l, value]])
    else:
        print(value)
    return 0


def _cmd_oracle_verify(args):
    report = verify_range(args.max_r, args.max_degree, args.max_letters,
                          budget=args.budget)
    if args.format == "json":
        _print_json({
            "instances": report.instances,
            "ok": report.ok,
            "failures": [
                {"weights": list(rec.weights), "multidegree": list(rec.multidegree),
                 "check": rec.check, "expected": rec.expected, "actual": rec.actual}
                for rec in report.failures
            ],
        })
    elif args.format == "csv":
        _print_csv(
            ["weights", "multidegree", "check", "expected", "actual", "ok"],
            [[" ".join(map(str, rec.weights)), " ".join(map(str, rec.multidegree)),
              rec.check, rec.expected, rec.actual, rec.ok]
             for rec in report.records])
    else:
        if report.ok:
            print(f"all {report.instances} checks pass")
        else:
            for rec in report.failures:
                print(f"FAIL weights={rec.weights} x={rec.multidegree} "
                      f"{rec.check}: expected {rec.expected}, got {rec.actual}")
            print(f"{len(report.failures)} of {report.instances} checks fail")
    if not report.ok:
        raise InternalConsistencyError(
            f"{len(report.failures)} oracle checks disagree with the closed formulas")
    return 0


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
    fcs.add_argument("i", help="first index (integer or even/odd)")
    fcs.add_argument("j", help="second index (integer or even/odd)")
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
    verify.add_argument("--budget", type=int, default=None,
                        help="letter budget (default: max letters)")
    _add_format(verify)
    verify.set_defaults(func=_cmd_oracle_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
