"""One fresh benchmark process: times the import of linkrank, then runs one
workload as a closed loop and checks every output.  Started by run.py;
prints one JSON object as its last line.

    child.py setup
    child.py run WORKLOAD SEED OPS TRACE SPANS_PATH

A run performs exactly OPS ops, so every commit does the same work from
the same cache state whatever its speed.  Only a run that exceeds
WALL_CAP_S stops early.

Wall-clock times on a shared machine drift with the speed of the CPU, so
the loop runs a fixed pure-Python probe every PROBE_EVERY seconds of op
time.  Each op's time is rescaled by PROBE_REF / (the mean of the probes
just before and after it): the result is the time the op would take on a
machine where the probe takes exactly PROBE_REF seconds.  Raw times are
reported next to the rescaled ones.
"""

import os
import sys
import time

# pathlib would pull in modules that linkrank imports too, so the path is
# built with os.path to keep the timed import honest
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

PROBE_REF = 0.0004
PROBE_EVERY = 0.05
WALL_CAP_S = 120.0


def _probe_kernel():
    acc = 0
    table = {}
    for i in range(1500):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + acc
        acc = (acc * 31 + i) % 1000003
    return acc


def probe(clock=time.perf_counter):
    """Fastest of three runs of the probe kernel, in seconds of clock."""
    best = None
    for _ in range(3):
        start = clock()
        _probe_kernel()
        elapsed = clock() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def timed_import():
    """CPU seconds of the import, the probe in CPU seconds around it, and
    the import's wall seconds.  CPU time leaves out waiting for files: on a
    shared 2-core Linux VM the import's wall time once rose by half for a
    quarter of an hour while the probe's did not."""
    sys.path.insert(0, SRC)
    before = probe(time.process_time)
    start_wall = time.perf_counter()
    start = time.process_time()
    import linkrank  # noqa: F401
    import linkrank.cli  # noqa: F401
    elapsed = time.process_time() - start
    wall = time.perf_counter() - start_wall
    return {"import_s": elapsed, "probe_s": (before + probe(time.process_time)) / 2,
            "import_wall_s": wall}


def main(argv):
    setup = timed_import()
    import json

    if argv[0] == "setup":
        print(json.dumps(setup))
        return 0
    _, workload, seed, n_ops, trace, spans_path = argv
    result = run_loop(workload, int(seed), int(n_ops), trace == "1", spans_path)
    result.update(setup)
    print(json.dumps(result))
    return 0


def _status(exc):
    from linkrank.errors import (InternalConsistencyError, InvalidInputError,
                                 ResourceLimitError)
    if isinstance(exc, InvalidInputError):
        return "invalid"
    if isinstance(exc, ResourceLimitError):
        return "refused"
    if isinstance(exc, InternalConsistencyError):
        return "internal"
    return "other"


CLI_STATUS = {0: "ok", 2: "invalid", 3: "refused", 1: "internal"}


def run_loop(workload_name, seed, n_ops, trace, spans_path):
    import resource
    import linkrank.cli
    from tracer import CacheStats, Tracer, clear_caches, find_caches
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if hasattr(workload, "load_goldens"):
        workload.load_goldens()
    caches = find_caches()
    tracer = Tracer(keep_spans=50000) if trace else None
    cache_stats = CacheStats(caches) if trace else None
    if trace:
        tracer.install()
    is_cli = workload_name == "cli_details"

    ops = []
    records = []
    statuses = []
    raw = []
    probe_marks = [(0, probe())]  # (index of the next op, probe seconds)
    since_probe = 0.0
    stdout_bytes = 0
    stream = workload.ops(seed)
    wall_start = time.perf_counter()
    for index in range(n_ops):
        if time.perf_counter() - wall_start > WALL_CAP_S:
            break
        op = next(stream)
        if workload.cold:
            clear_caches(caches)
        if trace:
            cache_stats.start()
            tracer.begin_op(index)
        status = "ok"
        result = None
        start = time.perf_counter()
        try:
            result = workload.run(linkrank, op)
        except Exception as exc:  # classified below; the loop must go on
            status = _status(exc)
        elapsed = time.perf_counter() - start
        if trace:
            tracer.end_op()
            cache_stats.stop()
        if is_cli and status == "ok":
            status = CLI_STATUS.get(result[0], "other")
            stdout_bytes += len(result[1].encode())
        ops.append(op)
        raw.append(elapsed)
        statuses.append(status)
        records.append(workload.observe(op, result) if result is not None else None)
        since_probe += elapsed
        if since_probe >= PROBE_EVERY:
            probe_marks.append((len(ops), probe()))
            since_probe = 0.0
    probe_marks.append((len(ops), probe()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    scaled = []
    for (first, before), (last, after) in zip(probe_marks, probe_marks[1:]):
        factor = PROBE_REF / ((before + after) / 2)
        scaled.extend(t * factor for t in raw[first:last])

    out = {
        "ops": len(ops), "statuses": statuses, "latency_s": scaled, "raw_latency_s": raw,
        "probes": len(probe_marks), "peak_rss_mb": peak_rss_mb,
        "wall_s": time.perf_counter() - wall_start,
    }
    if trace:
        tracer.uninstall()
        calls, self_s, wall = tracer.layer_metrics()
        out["trace"] = {
            "calls": calls, "self_s": self_s, "wall_s": wall,
            "counts": tracer.counts, "stdout_bytes": stdout_bytes,
            "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
            "cache_hit_ratio": cache_stats.hit_ratios(),
        }
        tracer.write_spans(spans_path)
    # the reference values are computed from cold caches, independently of
    # the cache state the timed run left behind
    clear_caches(caches)
    check_start = time.perf_counter()
    out.update(check_outputs(workload, linkrank, seed, ops, records, statuses))
    out["check_s"] = time.perf_counter() - check_start
    return out


def check_outputs(workload, api, seed, ops, records, statuses):
    """Invariant checks on every op plus, for the default seed, the
    answers recorded from the reference commit.  Every generated op is
    valid and inside the library's limits, so an op that failed, whatever
    its status, is a wrong answer too."""
    from paths import ANSWERS, DEFAULT_SEED
    import json

    wrong = []
    recorded = []
    if seed == DEFAULT_SEED and ANSWERS.exists():
        recorded = json.loads(ANSWERS.read_text()).get(workload.name, [])
    compared = 0
    for index, (op, record, status) in enumerate(zip(ops, records, statuses)):
        if status != "ok":
            problems = [f"failed ({status})"]
        else:
            try:
                problems = workload.check(api, op, record, index)
            except Exception as exc:  # a reference computation failed: report, go on
                problems = [f"check raised {exc!r}"]
        if index < len(recorded):
            compared += 1
            got = workload.answer(op, record) if record is not None else f"failed ({status})"
            if got != recorded[index]:
                problems.append(f"answer {got} differs from the recorded {recorded[index]}")
        wrong.extend(f"op {index} {op}: {p}" for p in problems)
    return {"wrong": wrong[:20], "wrong_count": len(wrong), "recorded_compared": compared}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
