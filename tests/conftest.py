"""Fixtures shared by the test modules."""

import sys

import pytest


def _clear_package_caches():
    # every functools cache in the package, found by its cache_clear and
    # cache_info methods rather than by name, so that a cache which moves or
    # is renamed is still cleared
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "linkrank" or name.startswith("linkrank.")):
            continue
        for value in vars(module).values():
            if (callable(getattr(value, "cache_clear", None))
                    and callable(getattr(value, "cache_info", None))
                    and getattr(value, "__module__", None) == name):
                value.cache_clear()


@pytest.fixture(scope="session")
def clear_caches():
    """A function that empties every cache in the package.  Session scoped,
    as it holds no state, so that hypothesis tests may take it too."""
    return _clear_package_caches
