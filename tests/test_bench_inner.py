"""The traced benchmark rebinds library names listed in `bench/tracing.py`'s
`INNER`; a name that moves or disappears breaks `bench/run.py --trace 1`
without failing anything else, so each one is checked here."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture(scope="module")
def inner():
    sys.path.insert(0, BENCH)
    try:
        return importlib.import_module("tracing").INNER
    finally:
        sys.path.remove(BENCH)


def test_inner_names_resolve_to_callables(inner):
    assert inner
    for modname, attr, _span in inner:
        module = importlib.import_module(f"hilbchow.{modname}")
        assert callable(getattr(module, attr, None)), f"hilbchow.{modname}.{attr}"
