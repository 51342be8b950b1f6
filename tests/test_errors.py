"""The four helpers of errors, and the rule that no other module raises
a check's, a cap's or a rejection's error by hand."""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from linkrank.errors import InternalConsistencyError, InvalidInputError, _exact, _reject

SRC = Path(__file__).resolve().parent.parent / "src" / "linkrank"

# small values, and values on both sides of the 2 000 bits past which a
# number is written as its size
numbers = st.one_of(st.integers(-10 ** 6, 10 ** 6), st.integers(-2 ** 2100, 2 ** 2100))


def _quotient_text(numerator, denominator):
    # the quotient as a failed check must write it: reduced, a whole
    # quotient as an int, and past 2 000 bits by its size
    bits = max(numerator.bit_length(), denominator.bit_length())
    return f"<number of {bits} bits>" if bits > 2000 else str(Fraction(numerator, denominator))


@given(st.integers(0, 2 ** 2100), st.integers(1, 2 ** 2100))
@example(0, 5)
@example(1, 1)
def test_exact_returns_a_whole_nonnegative_quotient(quotient, denominator):
    assert _exact(quotient * denominator, denominator, "unused {}") == quotient


@given(numbers, st.integers(1, 2 ** 2100), st.integers(0, 2 ** 2100))
@example(-1, 2, 0)  # -2/2, written -1
@example(-2, 4, 2)  # -6/4, written -3/2
@example(3, 2, 1)  # 7/2
@example(2 ** 1999, 2, 1)  # 2^2000 + 1 over 2: 2 001 bits
def test_exact_raises_for_a_remainder_or_a_negative_quotient(quotient, denominator, remainder):
    remainder %= denominator
    numerator = quotient * denominator + remainder
    if not remainder and quotient >= 0:
        assert _exact(numerator, denominator, "unused {}") == quotient
        return
    with pytest.raises(InternalConsistencyError) as info:
        _exact(numerator, denominator, "check gave {} for {} and {}", (1, -2), 10 ** 700)
    assert str(info.value) == (f"check gave {_quotient_text(numerator, denominator)} "
                               f"for (1, -2) and <number of 2326 bits>")


def test_reject_names_each_value_through_shown():
    with pytest.raises(InvalidInputError, match="^nothing to name$") as info:
        _reject("nothing to name")
    assert info.value.__cause__ is None
    # raised while a failed conversion is handled, the rejection shows alone
    try:
        int("5-3")
    except ValueError:
        with pytest.raises(InvalidInputError) as info:
            _reject("got {}, then {} and {}", "5-3", (1, -2), -10 ** 700)
    assert str(info.value) == "got '5-3', then (1, -2) and <number of 2326 bits>"
    assert isinstance(info.value.__context__, ValueError)
    assert info.value.__cause__ is None and info.value.__suppress_context__


def _raised(tree):
    # (innermost enclosing function, exception name) of each raise of a
    # named exception, in source order
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name):
                    found.append((function, exc.id))
            visit(child, function)

    visit(tree, None)
    return found


_PACKAGE_ERRORS = {"InvalidInputError", "ResourceLimitError", "InternalConsistencyError",
                   "LinkRankError"}


def _names(node):
    # every identifier a node names: a bare name, an attribute or an import
    return ({child.id for child in ast.walk(node) if isinstance(child, ast.Name)}
            | {child.attr for child in ast.walk(node) if isinstance(child, ast.Attribute)}
            | {alias.name for child in ast.walk(node)
               if isinstance(child, (ast.Import, ast.ImportFrom)) for alias in child.names})


def test_only_errors_raises_the_check_and_cap_errors():
    # every check, cap and rejection raises through _agree, _within, _exact
    # or _reject, with its message written through _shown; the package
    # exports the errors and the CLI catches them, and no other module
    # imports, catches or re-raises one
    raised = {}
    imported = {}
    named = {}
    caught = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for function, name in _raised(tree):
            raised.setdefault(name, []).append((path.stem, function))
        imported[path.stem] = {alias.name for node in ast.walk(tree)
                               if isinstance(node, (ast.Import, ast.ImportFrom))
                               for alias in node.names}
        named[path.stem] = _names(tree)
        caught[path.stem] = set().union(*(_names(node.type) for node in ast.walk(tree)
                                          if isinstance(node, ast.ExceptHandler) and node.type))
    assert raised["InternalConsistencyError"] == [("errors", "_agree"), ("errors", "_exact")]
    assert raised["ResourceLimitError"] == [("errors", "_within")]
    assert raised["InvalidInputError"] == [("errors", "_reject")]
    assert {error: {stem for stem, names in imported.items() if error in names}
            for error in _PACKAGE_ERRORS} == {
        "InvalidInputError": {"__init__", "cli"}, "ResourceLimitError": {"__init__", "cli"},
        "InternalConsistencyError": {"__init__", "cli"}, "LinkRankError": {"__init__"}}
    assert {stem for stem, names in named.items() if "_shown" in names} == {"errors"}
    assert {stem for stem, names in caught.items() if names & _PACKAGE_ERRORS} == {"cli"}
