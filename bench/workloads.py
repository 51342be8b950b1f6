"""The four benchmark workloads: seeded op streams, how each op is run, and
how its output is checked.

Every workload is a closed loop with one client: the next op is issued
only after the previous one has returned.  An op stream is an endless,
deterministic function of the seed.  Ops are drawn in rounds with a fixed
mix of size classes, so that every seed sees the same cost profile and the
median and 90th percentile fall inside a class rather than on a class
boundary.

A workload exposes

    ops_per_s               its rate when the benchmark was defined; a run
                            performs ops_per_s * --seconds ops
    ops(seed)               endless iterator of ops (plain tuples)
    run(api, op)            performs the op through the linkrank package
                            (timed)
    observe(op, result)     compact record of the output (untimed, no
                            library calls, so tracing and caches are
                            untouched)
    check(api, op, record)  list of problems found in an op that returned
                            (untimed, after the loop, with tracing
                            removed and every cache cleared)
    answer(op, record)      short string compared with the answers
                            recorded for the default seed
"""

import contextlib
import hashlib
import io
import json
import math
import random
from itertools import combinations

from paths import GOLDEN

# Admission limit for every generated link problem: the number of
# solutions x >= 0 of sum(a_k x_k) = m - 3, which is the number of
# multidegrees the enumeration path visits.  It admits the (30; 27^5)
# class (31 465 solutions) and nothing that runs unbounded, such as
# (60; 57^6).
SOLUTION_GUARD = 32000

# The oracle ops stay inside the library's default letter budget (8) and
# its 1500-word cap.
ORACLE_MAX_LETTERS = 8
ORACLE_MAX_WORDS = 1500


def solution_count(weights, target):
    """Number of x >= 0 with sum(weights[k] * x[k]) == target."""
    ways = [1] + [0] * target
    for a in weights:
        for t in range(a, target + 1):
            ways[t] += ways[t - a]
    return ways[target]


def multinomial(parts):
    out = math.factorial(sum(parts))
    for p in parts:
        out //= math.factorial(p)
    return out


def _rounds(rng, schedule, draw):
    # one round = every class of the schedule once, in a shuffled order
    while True:
        order = list(schedule)
        rng.shuffle(order)
        for cls in order:
            yield draw(rng, cls)


def _log_uniform(rng, lo, hi):
    return max(lo, min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))))


def _subset_split(api, m, dims):
    """Rank recomputed as knot ranks plus one Brunnian rank per subset of
    two or more components."""
    total = sum(api.knot_rank(m, p) for p in dims)
    for size in range(2, len(dims) + 1):
        for subset in combinations(dims, size):
            total += api.brunnian_rank(m, subset).rank
    return total


class RankSweep:
    name = "rank_sweep"
    why = ("link_rank/brunnian_is_infinite, m 6-34, r 1-5, weights 1..m-3, warm caches: "
           "enumeration and multiplicity do the work. Guard: <=32000 solutions of "
           "sum a_k x_k = m-3")
    cold = False
    ops_per_s = 260
    # size classes by solution count.  A Brunnian verdict costs a small
    # fraction of a link report of the same size, so the kind is part of
    # the schedule too.  Per round of ten: the four cheap ops, then three
    # small and three mid link reports, so p50 falls inside the small link
    # class and p90 inside the mid one.
    classes = ((1, 10), (11, 100), (150, 450))
    schedule = (("brunnian", 0), ("brunnian", 1), ("brunnian", 2), ("link", 0),
                ("link", 1), ("link", 1), ("link", 1), ("link", 2), ("link", 2), ("link", 2))
    sample_every = 5

    def ops(self, seed):
        return _rounds(random.Random(f"{self.name}:{seed}"), self.schedule, self._draw)

    def _draw(self, rng, cls):
        kind, size = cls
        lo, hi = self.classes[size]
        while True:
            m = rng.randint(6, 34)
            r = rng.randint(1 if kind == "link" else 2, 5)
            weights = [_log_uniform(rng, 1, m - 3) for _ in range(r)]
            count = solution_count(weights, m - 3)
            if lo <= count <= hi and count <= SOLUTION_GUARD:
                return (kind, m, tuple(m - a - 2 for a in weights))

    def run(self, api, op):
        kind, m, dims = op
        if kind == "link":
            return api.link_rank(m, dims)
        return api.brunnian_is_infinite(m, dims)

    def observe(self, op, result):
        if op[0] == "link":
            return (result.total_rank, result.brunnian_rank, result.infinite)
        return result

    def check(self, api, op, record, index):
        kind, m, dims = op
        problems = []
        if kind == "link":
            total, brunnian, infinite = record
            if infinite != (total > 0):
                problems.append(f"verdict {infinite} but rank {total}")
            if len(dims) >= 2 and brunnian != api.brunnian_rank(m, dims).rank:
                problems.append(f"brunnian rank {brunnian} disagrees with brunnian_rank")
            if index % self.sample_every == 0:
                split = _subset_split(api, m, dims)
                if split != total:
                    problems.append(f"rank {total} but the subset split gives {split}")
        else:
            rank = api.brunnian_rank(m, dims).rank
            if record != (rank > 0):
                problems.append(f"verdict {record} but Brunnian rank {rank}")
        return problems

    def answer(self, op, record):
        if op[0] == "link":
            total, brunnian, infinite = record
            return f"{total},{brunnian},{int(infinite)}"
        return str(int(record))


class WideLinks:
    name = "wide_links"
    why = ("link_rank, fully_framed_is_infinite, framed_rank on r 6-12 with large weights: "
           "the 2^r subset loops do the work. Guard: r <= 12, <=32000 solutions")
    cold = False
    ops_per_s = 35
    # one op per component count per round.  Family 0 draws finite
    # problems, so every criterion loop runs to its end and the cost
    # depends on r alone; family 1 mixes in infinite ones.  p50 falls in
    # the middle of (9, 0) and p90 inside (12, 0).
    schedule = ((6, 1), (7, 1), (8, 1), (9, 0), (10, 1), (11, 1), (12, 0))
    sample_every = 10

    def ops(self, seed):
        return _rounds(random.Random(f"{self.name}:{seed}"), self.schedule, self._draw)

    def _draw(self, rng, cls):
        r, family = cls
        while True:
            m = rng.randint(12, 40)
            target = m - 3
            if family == 0:
                # every weight above target/2: no Brunnian sublink has a
                # solution; dimensions avoid 3 mod 4 so framings add nothing
                weights = [rng.randint(target // 2 + 1, target) for _ in range(r)]
            else:
                weights = [rng.randint(max(1, target // 3), target) for _ in range(r)]
            dims = tuple(m - a - 2 for a in weights)
            if family == 1 or all(p % 4 != 3 for p in dims):
                if solution_count(weights, target) <= SOLUTION_GUARD:
                    return (m, dims)

    def run(self, api, op):
        m, dims = op
        report = api.link_rank(m, dims)
        verdict = api.fully_framed_is_infinite(m, dims)
        framed = api.framed_rank(m, tuple((p, m - p) for p in dims))
        return report, verdict, framed

    def observe(self, op, result):
        report, verdict, framed = result
        return (report.total_rank, report.infinite, verdict, framed.total_rank,
                framed.stiefel_ranks)

    def check(self, api, op, record, index):
        m, dims = op
        total, infinite, verdict, framed_total, stiefel = record
        problems = []
        if infinite != (total > 0):
            problems.append(f"link verdict {infinite} but rank {total}")
        if verdict != (framed_total > 0):
            problems.append(f"full-framing verdict {verdict} but framed rank {framed_total}")
        expected = tuple(api.stiefel_rank(p, m - p, m - p) for p in dims)
        if stiefel != expected or framed_total != total + sum(expected):
            problems.append(f"framed rank {framed_total} is not {total} + {expected}")
        if index % self.sample_every == 0:
            split = _subset_split(api, m, dims)
            if split != total:
                problems.append(f"rank {total} but the subset split gives {split}")
        return problems

    def answer(self, op, record):
        total, infinite, verdict, framed_total, _ = record
        return f"{total},{int(infinite)},{int(verdict)},{framed_total}"


# the commands behind tests/golden, as tests/test_cli.py runs them
GOLDEN_ARGV = {
    "rank_6_3_3.json": ("rank", "6", "3", "3", "--format", "json", "--details"),
    "framed_8_53_53.json": ("framed", "8", "5:3", "5:3", "--format", "json"),
    "table2.csv": ("tables", "table2", "--format", "csv"),
    "table3.csv": ("tables", "table3", "--format", "csv"),
}


class CliDetails:
    name = "cli_details"
    why = ("cli.main: rank --details text/json, --brunnian, framed, tables; renders every "
           "term; goldens byte-compared; cold caches per op. Guard: <=2000 solutions per rank")
    cold = True
    ops_per_s = 78
    # per round of forty: each golden command, brunnian and framed five
    # times, and five each of details-text and details-json, sized by
    # solution count as 1 small : 3 mid : 1 large.  The details ops are a
    # quarter of all ops and the slowest, so p90 falls at their 60th
    # percentile, two thirds into the narrow mid class.
    detail_sizes = ((200, 350), (420, 520), (700, 2000))
    schedule = (5 * (("golden:rank_6_3_3.json", None), ("golden:framed_8_53_53.json", None),
                     ("golden:table2.csv", None), ("golden:table3.csv", None),
                     ("brunnian", None), ("framed", None))
                + tuple((kind, size) for kind in ("details-text", "details-json")
                        for size in (0, 1, 1, 1, 2)))

    def __init__(self):
        self.goldens = {}

    def load_goldens(self):
        for name in GOLDEN_ARGV:
            self.goldens[name] = (GOLDEN / name).read_bytes()

    def ops(self, seed):
        return _rounds(random.Random(f"{self.name}:{seed}"), self.schedule, self._draw)

    def _problem(self, rng, lo, hi, r_lo, r_hi):
        while True:
            m = rng.randint(12, 34)
            r = rng.randint(r_lo, r_hi)
            weights = [_log_uniform(rng, 1, m - 3) for _ in range(r)]
            if lo <= solution_count(weights, m - 3) <= hi:
                return m, [m - a - 2 for a in weights]

    def _draw(self, rng, entry):
        cls, size = entry
        if cls.startswith("golden:"):
            return (cls, GOLDEN_ARGV[cls.split(":", 1)[1]])
        if cls in ("details-text", "details-json"):
            # hundreds to thousands of contributions
            m, dims = self._problem(rng, *self.detail_sizes[size], 2, 5)
            argv = ["rank", str(m), *map(str, dims), "--details"]
            if cls == "details-json":
                argv += ["--format", "json"]
            return (cls, tuple(argv))
        if cls == "brunnian":
            m, dims = self._problem(rng, 20, 400, 2, 4)
            return (cls, ("rank", str(m), *map(str, dims), "--brunnian", "--format", "json"))
        m, dims = self._problem(rng, 10, 400, 1, 4)
        comps = [f"{p}:{rng.randint(0, m - p)}" for p in dims]
        return (cls, ("framed", str(m), *comps))

    def run(self, api, op):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = api.cli.main(list(op[1]))
        return code, buffer.getvalue()

    def observe(self, op, result):
        code, text = result
        cls = op[0]
        data = text.encode()
        record = {"code": code, "digest": hashlib.sha256(data).hexdigest()[:16]}
        if code != 0:
            return record
        if cls.startswith("golden:"):
            record["golden"] = data == self.goldens[cls.split(":", 1)[1]]
        elif cls == "details-json":
            payload = json.loads(text)
            record.update(rank=payload["rank"], infinite=payload["infinite"],
                          brunnian=payload.get("brunnian_rank"),
                          terms=len(payload["contributions"]),
                          term_sum=sum(c["multiplicity"] for c in payload["contributions"]),
                          split=sum(payload["decomposition"].values()))
        elif cls == "details-text":
            record.update(_parse_rank_text(text))
        elif cls == "brunnian":
            payload = json.loads(text)
            record.update(rank=payload["rank"], infinite=payload["infinite"])
        else:
            lines = dict(line.split(": ", 1) for line in text.splitlines()[1:])
            record.update(rank=int(lines["framed rank"]), link=int(lines["link rank"]),
                          stiefel=lines["stiefel ranks"], infinite=lines["infinite"] == "yes")
        return record

    def check(self, api, op, record, index):
        cls, argv = op
        if cls.startswith("golden:"):
            return [] if record["golden"] else ["stdout differs from tests/golden"]
        problems = []
        if record["infinite"] != (record["rank"] > 0):
            problems.append(f"verdict {record['infinite']} but rank {record['rank']}")
        if cls in ("details-json", "details-text"):
            m, dims = int(argv[1]), tuple(int(v) for v in argv[2:argv.index("--details")])
            report = api.link_rank(m, dims)
            if record["split"] != record["rank"]:
                problems.append(f"decomposition sums to {record['split']}, rank {record['rank']}")
            expected = (report.total_rank, report.brunnian_rank, len(report.contributions),
                        sum(v for _, v in report.contributions))
            got = (record["rank"], record["brunnian"], record["terms"], record["term_sum"])
            if got != expected:
                problems.append(f"rank, brunnian, terms, term sum {got} != library {expected}")
        elif cls == "brunnian":
            m, dims = int(argv[1]), tuple(int(v) for v in argv[2:argv.index("--brunnian")])
            if record["rank"] != api.brunnian_rank(m, dims).rank:
                problems.append(f"brunnian rank {record['rank']} disagrees with the library")
        else:
            m = int(argv[1])
            comps = [tuple(int(v) for v in c.split(":")) for c in argv[2:]]
            stiefel = tuple(api.stiefel_rank(p, m - p, l) for p, l in comps)
            link = api.link_rank(m, tuple(p for p, _ in comps)).total_rank
            if (record["link"], record["rank"]) != (link, link + sum(stiefel)):
                problems.append(f"framed {record['rank']} / link {record['link']} "
                                f"but library gives {link} + {stiefel}")
        return problems

    def answer(self, op, record):
        return f"{record['code']}:{record['digest']}"


def _parse_rank_text(text):
    lines = text.splitlines()
    fields = {}
    section = None
    terms = term_sum = split = 0
    for line in lines[1:]:
        if line in ("contributions:", "decomposition:"):
            section = line[:-1]
        elif line.startswith("  "):
            value = int(line.rsplit(": ", 1)[1])
            if section == "contributions":
                terms += 1
                term_sum += value
            else:
                split += value
        else:
            key, value = line.split(": ", 1)
            fields[key] = value
    return {"rank": int(fields["rank"]),
            "brunnian": int(fields["brunnian rank"]) if "brunnian rank" in fields else None,
            "infinite": fields["infinite"] == "yes",
            "terms": terms, "term_sum": term_sum, "split": split}


class OracleVerify:
    name = "oracle_verify"
    why = ("single brute-force dimension and bracket-map calls, r 1-4, weights 1-4: word "
           "building and exact elimination do the work. Guard: <=8 letters, <=240 words")
    cold = False
    ops_per_s = 123
    # size classes by word count = multinomial(x); per round of twenty,
    # for each kind 3 tiny, 4 small, 3 mid.  The narrow small and mid
    # classes hold p50 and p90.  The kind is scheduled too: a mid-size
    # dimension costs more than a bracket map of the same size, so a drawn
    # kind would move p90 with the seed.
    classes = ((1, 30), (40, 80), (150, 240))
    schedule = tuple((kind, size) for kind in ("dim", "map")
                     for size in (0, 0, 0, 1, 1, 1, 1, 2, 2, 2))

    def ops(self, seed):
        return _rounds(random.Random(f"{self.name}:{seed}"), self.schedule, self._draw)

    def _draw(self, rng, cls):
        kind, size = cls
        lo, hi = self.classes[size]
        low = 1 if kind == "map" else 0
        while True:
            r = rng.randint(1, 4)
            weights = tuple(rng.randint(1, 4) for _ in range(r))
            x = tuple(rng.randint(low, 4) for _ in range(r))
            words = multinomial(x)
            if 1 <= sum(x) <= ORACLE_MAX_LETTERS and lo <= words <= min(hi, ORACLE_MAX_WORDS):
                return (kind, weights, x)

    def run(self, api, op):
        kind, weights, x = op
        if kind == "dim":
            return api.component_dim_bruteforce(weights, x)
        return api.whitehead_map_analysis(weights, x)

    def observe(self, op, result):
        if op[0] == "dim":
            return result
        return (result.rank, result.kernel_dim)

    def check(self, api, op, record, index):
        kind, weights, x = op
        dim = api.lie_component_dim(weights, x)
        if kind == "dim":
            return [] if record == dim else [f"brute force {record}, closed form {dim}"]
        expected = (dim, api.multiplicity(weights, x))
        return [] if record == expected else [f"rank, kernel {record}, closed forms {expected}"]

    def answer(self, op, record):
        if op[0] == "dim":
            return str(record)
        return f"{record[0]},{record[1]}"


WORKLOADS = {w.name: w for w in (RankSweep(), WideLinks(), CliDetails(), OracleVerify())}
