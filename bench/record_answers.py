#!/usr/bin/env python3
"""Writes bench/answers.json: the answers of the first ops of every
workload for the default seed, as computed by the current library.  Run it
only at a commit whose answers are trusted; run.py compares later runs of
the default seed against the file.

    python3 bench/record_answers.py
"""

import json
import sys

from paths import ANSWERS, DEFAULT_SEED, SRC

# more ops than a run of 15 s performs (ops_per_s * 15), so that every op
# of such a run is compared
COUNTS = {"rank_sweep": 8000, "wide_links": 1200, "cli_details": 3000, "oracle_verify": 3000}


def main():
    sys.path.insert(0, str(SRC))
    import linkrank.cli
    from workloads import WORKLOADS

    answers = {}
    for name, count in COUNTS.items():
        workload = WORKLOADS[name]
        if hasattr(workload, "load_goldens"):
            workload.load_goldens()
        stream = workload.ops(DEFAULT_SEED)
        out = []
        for _ in range(count):
            op = next(stream)
            out.append(workload.answer(op, workload.observe(op, workload.run(linkrank, op))))
        answers[name] = out
        print(f"{name}: {count} answers", file=sys.stderr)
    ANSWERS.write_text(json.dumps({"seed": DEFAULT_SEED, **answers}, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
