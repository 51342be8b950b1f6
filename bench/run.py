#!/usr/bin/env python3
"""Benchmark of the linkrank library and CLI.

    python3 bench/run.py --workload rank_sweep --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all

Runs from the root of a source checkout; needs only the standard library.
Each workload runs as a closed loop with one client in a fresh child
process (child.py).  With --trace 0 it prints the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  A wrong answer makes the exit code
1; a missing source tree or any other setup failure makes it 2.

Full records (workload reason, seed, Python version, nproc, raw and
rescaled timings, per-status op counts) go to bench/results/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import PROBE_REF
from paths import ANSWERS, DEFAULT_SEED, GOLDEN, RESULTS, SRC
from workloads import WORKLOADS

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORKLOAD_NAMES = tuple(WORKLOADS)
SETUP_RUNS = 11  # fresh interpreters timing the import, plus the workload's own
MIN_OPS = 100  # p90 needs at least ten samples beyond it
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("liedim.enumerate_diophantine.calls", "count"),
    ("liedim.enumerate_diophantine.solutions", "count"),
    ("liedim.multiplicity.calls", "count"),
    ("liedim.lie_component_dim.calls", "count"),
    ("liedim.nonzero_multiplicity_ratio", "ratio"),
    ("liedim.dim_cache_hit_ratio", "ratio"),
    ("liedim.self_s", "s"),
    ("arith.calls", "count"),
    ("arith.self_s", "s"),
    ("ranks.link_rank.calls", "count"),
    ("ranks.brunnian_rank.calls", "count"),
    ("ranks.brunnian_is_infinite.calls", "count"),
    ("ranks.report_cache_hit_ratio", "ratio"),
    ("ranks.self_s", "s"),
    ("fcs.fcs_contains.calls", "count"),
    ("fcs.self_s", "s"),
    ("framed.framed_rank.calls", "count"),
    ("framed.fully_framed_is_infinite.calls", "count"),
    ("framed.self_s", "s"),
    ("stiefel.stiefel_rank.calls", "count"),
    ("stiefel.self_s", "s"),
    ("oracle.calls", "count"),
    ("oracle.words", "count"),
    ("oracle.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; nothing is printed on stdout."""


def child(args, deadline):
    env = {k: v for k, v in os.environ.items() if k != "LINKRANK_ORACLE_BUDGET"}
    env["PYTHONHASHSEED"] = "0"
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run([sys.executable, CHILD, *map(str, args)], env=env,
                              stdout=subprocess.PIPE, timeout=remaining, check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child {args[:2]} did not finish in time")
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def scaled_import(sample):
    return sample["import_s"] * PROBE_REF / sample["probe_s"]


def op_count(workload, seconds):
    """The fixed number of ops of a run: --seconds of op time at the rate
    the workload ran at when the benchmark was defined."""
    return max(MIN_OPS, round(WORKLOADS[workload].ops_per_s * seconds))


def quantiles(latencies):
    if len(latencies) < MIN_OPS:
        raise BenchError(f"only {len(latencies)} ops; p90 needs at least {MIN_OPS}")
    return statistics.median(latencies), statistics.quantiles(latencies, n=10)[8]


def end_to_end(workload, seed, seconds, deadline):
    setups = [child(["setup"], deadline) for _ in range(SETUP_RUNS)]
    run = child(["run", workload, seed, op_count(workload, seconds), 0, "-"], deadline)
    setups.append(run)
    latency = run["latency_s"]
    p50, p90 = quantiles(latency)
    raw_p50, raw_p90 = quantiles(run["raw_latency_s"])
    ok = run["statuses"].count("ok")
    metrics = {
        "setup_s": statistics.median(scaled_import(s) for s in setups),
        "ops_per_s": len(latency) / sum(latency),
        "op_ms_p50": p50 * 1e3,
        "op_ms_p90": p90 * 1e3,
        "ok_frac": ok / len(latency),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    raw = {
        "setup_s": statistics.median(s["import_wall_s"] for s in setups),
        "ops_per_s": len(latency) / sum(run["raw_latency_s"]),
        "op_ms_p50": raw_p50 * 1e3,
        "op_ms_p90": raw_p90 * 1e3,
    }
    return metrics, raw, [run]


def per_layer(workload, seed, seconds, deadline):
    n_ops = op_count(workload, seconds)
    RESULTS.mkdir(exist_ok=True)
    spans = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
    traced = child(["run", workload, seed, n_ops, 1, spans], deadline)
    plain = child(["run", workload, seed, n_ops, 0, "-"], deadline)
    trace = traced["trace"]
    calls = trace["calls"]

    def layer_calls(layer):
        return sum(n for name, n in calls.items() if name.startswith(layer + "."))

    metrics = {}
    for name, _ in PER_LAYER:
        parts = name.split(".")
        if name.endswith(".self_s"):
            metrics[name] = trace["self_s"].get(parts[0], 0.0)
        elif len(parts) == 3 and parts[2] == "calls":
            metrics[name] = calls.get(f"{parts[0]}.{parts[1]}", 0)
    multiplicity_calls = calls.get("liedim.multiplicity", 0)
    metrics.update({
        "liedim.enumerate_diophantine.solutions": trace["counts"]["solutions"],
        "liedim.nonzero_multiplicity_ratio":
            trace["counts"]["nonzero"] / multiplicity_calls if multiplicity_calls else 0.0,
        "arith.calls": layer_calls("arith"),
        "oracle.calls": calls.get("oracle.component_dim_bruteforce", 0)
        + calls.get("oracle.whitehead_map_analysis", 0),
        "oracle.words": trace["counts"]["words"],
        "cli.stdout_bytes": trace["stdout_bytes"],
        "trace.wall_s": trace["wall_s"],
        "trace.overhead_ratio": sum(traced["latency_s"]) / sum(plain["latency_s"]),
    })
    # absent when the library no longer has that cache
    for name, cache in (("liedim.dim_cache_hit_ratio", "liedim._dim_by_parity"),
                        ("ranks.report_cache_hit_ratio", "ranks._link_report")):
        if cache in trace["cache_hit_ratio"]:
            metrics[name] = trace["cache_hit_ratio"][cache]
    metrics = {name: metrics[name] for name, _ in PER_LAYER if name in metrics}
    raw = {"self_s_sum": sum(trace["self_s"].values()),
           "spans_kept": trace["spans_kept"], "spans_dropped": trace["spans_dropped"],
           "spans_file": str(spans)}
    return metrics, raw, [traced, plain]


def run_workload(workload, seed, seconds, trace, deadline):
    measure = per_layer if trace else end_to_end
    metrics, raw, runs = measure(workload, seed, seconds, deadline)
    units = dict(PER_LAYER if trace else END_TO_END)
    main_run = runs[0]
    statuses = main_run["statuses"]
    wrong = [w for r in runs for w in r["wrong"]]
    result = {
        "correct": all(r["wrong_count"] == 0 for r in runs),
        "attempted": len(statuses),
        "failed": len(statuses) - statuses.count("ok"),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    record = {
        "workload": workload, "why": WORKLOADS[workload].why, "seed": seed,
        "seconds": seconds, "trace": trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "result": result, "raw": raw,
        "statuses": {s: statuses.count(s) for s in sorted(set(statuses))},
        "wrong": wrong, "recorded_answers_compared": main_run["recorded_compared"],
        "wall_s": [r["wall_s"] for r in runs], "check_s": [r["check_s"] for r in runs],
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for line in wrong:
        print(f"wrong answer: {line}", file=sys.stderr)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "linkrank" / "__init__.py", GOLDEN, ANSWERS) if not p.exists()]
    if missing:
        print(f"benchmark: not a linkrank source checkout, missing {missing[0]}",
              file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         deadline)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:14s} {metric:40s} {entry['value']:.6g} {entry['unit']}")
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": e for w, r in results.items()
                        for m, e in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
