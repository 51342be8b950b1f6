"""What importing the package loads.  The standard-library modules that only
some calls need stay out of sys.modules until such a call runs: fractions
for a rational argument or a failed exact-quotient check, json and csv for
their output formats, and dataclasses never.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("dataclasses", "fractions", "json", "csv")

# run in a fresh interpreter without site (-S), so that no .pth file of the
# environment loads a module first; prints {step: loaded deferred modules}
PROBE = f"""
import contextlib, io, sys
import linkrank, linkrank.cli

def loaded():
    return [name for name in {DEFERRED!r} if name in sys.modules]

steps = {{"import": loaded()}}
for argv in (["rank", "6", "3", "3"], ["rank", "6", "3", "3", "--format", "json"],
             ["witt", "1/2", "3", "2"], ["tables", "table2", "--format", "csv"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert linkrank.cli.main(argv) == 0
    steps[" ".join(argv)] = loaded()
print(steps)
"""


def test_modules_load_on_demand():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                            capture_output=True, text=True, check=True)
    assert ast.literal_eval(result.stdout) == {
        "import": [],
        "rank 6 3 3": [],
        "rank 6 3 3 --format json": ["json"],
        "witt 1/2 3 2": ["fractions", "json"],
        "tables table2 --format csv": ["fractions", "json", "csv"],
    }
