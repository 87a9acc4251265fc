"""Run the executable examples embedded in docstrings.

Every ``repro`` module with at least one example that is not marked
``+SKIP`` is collected (the quickstart snippets of the README mirror some
of them); this keeps them honest.
"""

import doctest
import importlib
import pkgutil

import pytest

import repro


def doctest_modules():
    """The ``repro`` modules carrying a runnable example, by name."""
    finder = doctest.DocTestFinder()
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith(".__main__"):
            continue  # importing it runs the command line
        try:
            module = importlib.import_module(info.name)
        except ModuleNotFoundError as exc:
            if (exc.name or "").split(".")[0] == "repro":
                raise
            continue  # an optional dependency (numpy) is absent
        if any(not example.options.get(doctest.SKIP)
               for test in finder.find(module)
               for example in test.examples):
            modules.append(module)
    return modules


MODULES = doctest_modules()


@pytest.mark.parametrize(
    "module", MODULES, ids=[m.__name__ for m in MODULES]
)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest(s) failed"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
