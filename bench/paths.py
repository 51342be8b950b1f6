"""Locations the benchmark reads and writes, relative to the checkout."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
ANSWERS = BENCH / "answers.json"
RESULTS = BENCH / "results"
DEFAULT_SEED = 0
