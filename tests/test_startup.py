"""What importing the package loads.  The modules that only some calls need
stay out of sys.modules until such a call runs: fractions for a rational
argument or a failed exact-quotient check, json and csv for their output
formats, the brute-force oracle (linkrank.oracle) for its own names and
oracle verify, and dataclasses never.
"""

import ast
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFERRED = ("dataclasses", "fractions", "json", "csv", "linkrank.oracle")

# run in a fresh interpreter without site (-S), so that no .pth file of the
# environment loads a module first; prints {step: loaded deferred modules}
PROBE = f"""
import contextlib, io, sys
import linkrank, linkrank.cli

def loaded():
    return [name for name in {DEFERRED!r} if name in sys.modules]

steps = {{"import": loaded()}}
for argv in (["rank", "6", "3", "3"], ["rank", "6", "3", "3", "--format", "json"],
             ["witt", "1/2", "3", "2"], ["tables", "table2", "--format", "csv"],
             ["oracle", "verify", "--max-r", "1", "--max-degree", "1"]):
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
        "oracle verify --max-r 1 --max-degree 1": ["fractions", "json", "csv",
                                                   "linkrank.oracle"],
    }


# the exported names a fresh import of the package leaves unbound
UNBOUND = """
import linkrank
print(sorted(set(linkrank.__all__) - set(vars(linkrank))))
"""


def test_every_exported_name_resolves():
    # the names a fresh import leaves unbound are exactly the exported ones
    # the oracle defines, and each resolves, on first use, to the oracle's own
    import linkrank
    from linkrank import oracle
    lazy = set()
    for name in linkrank.__all__:
        value = getattr(linkrank, name)
        if getattr(value, "__module__", None) == oracle.__name__:
            assert value is getattr(oracle, name)
            lazy.add(name)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-S", "-c", UNBOUND], env=env,
                            capture_output=True, text=True, check=True)
    assert lazy and set(ast.literal_eval(result.stdout)) == lazy
    with pytest.raises(AttributeError, match="no_such_name"):
        linkrank.no_such_name
    # the exported functions are the calls the README's Library list names,
    # so that an export nobody documented fails here
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    bullets = re.search(r"The main entry points.*\n\n((?:[- ] .*\n)+)", library).group(1)
    documented = set(re.findall(r"`(\w+)\(", bullets))
    exported = {name for name in linkrank.__all__
                if inspect.isfunction(getattr(linkrank, name))}
    assert exported == documented
