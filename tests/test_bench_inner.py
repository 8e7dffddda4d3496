"""The traced benchmark rebinds library names listed in `bench/tracing.py`'s
`INNER` and counts the calls made through them; a name that moves or
disappears, a call count that changes, or a layer that its probe requests
no longer reach breaks `bench/run.py --trace 1` without failing anything
else, so all three are checked here, as is every name that `bench/`
imports from `hilbchow`."""

import ast
import glob
import importlib
import os
import random
import sys
from collections import Counter

import pytest

from hilbchow import GF, QQ, RepPoint, det_point, hc_point, invariant_table

from oracles import rand_free_cyclic_point, rand_matrix, seeded

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


def _resolves(module, name):
    "`from module import name` would succeed: an attribute or a submodule."
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_bench_imports_from_hilbchow_resolve():
    # read, not run: `run.micro_kernels` imports inside its body, which only
    # a traced run reaches
    seen, missing = set(), []
    for path in sorted(glob.glob(os.path.join(BENCH, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and not node.level and node.module
                    and node.module.split(".")[0] == "hilbchow"):
                for alias in node.names:
                    where = (os.path.basename(path), node.module, alias.name)
                    seen.add(where)
                    if not _resolves(node.module, alias.name):
                        missing.append(where)
    assert not missing
    assert {("run.py", "hilbchow", "berkowitz_coeffs"),
            ("run.py", "hilbchow.repvariety", "RepPoint"),
            ("tracing.py", "hilbchow", "enumerate_points")} <= seen


# The traced run marks a run incorrect unless `linalg.det` is entered once
# per word of the norm-point table and m times per invariant table, and it
# divides by the number of `word_matrices` spans.

@pytest.fixture
def calls(monkeypatch):
    import hilbchow.normpoints
    import hilbchow.repvariety
    counts = Counter()
    for module in (hilbchow.normpoints, hilbchow.repvariety):
        for attr in ("det", "word_matrices"):
            def counted(*args, _fn=getattr(module, attr),
                        _key=f"{module.__name__}.{attr}", **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, attr, counted)
    return counts


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
@pytest.mark.parametrize("max_len", [None, 2])
def test_norm_points_call_det_once_per_word(calls, field, max_len):
    pt = rand_free_cyclic_point(field, 2, 3, seeded("bench-calls"))
    words = sum(2 ** k for k in range((max_len or 5) + 1))
    for fn, arg in ((det_point, pt.rep), (hc_point, pt)):
        calls.clear()
        fn(arg, max_len)
        assert calls == {"hilbchow.normpoints.det": words,
                         "hilbchow.normpoints.word_matrices": 1}


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=["Q", "F3"])
def test_invariant_table_calls_det_once_per_generator(calls, field):
    rng = seeded("bench-calls")
    rep = RepPoint(field, tuple(rand_matrix(field, 2, rng) for _ in range(3)))
    invariant_table(rep)
    assert calls == {"hilbchow.repvariety.det": 3,
                     "hilbchow.repvariety.word_matrices": 1}


def test_probe_reaches_every_span_metric():
    # `run.traced_run` reads a layer the workload does not reach from a probe
    # (these requests) and divides by the probe's calls of the layer's span,
    # so a span that no probe request enters makes `--trace 1` crash
    sys.path.insert(0, BENCH)
    try:
        run, tracing, workloads = map(importlib.import_module,
                                      ("run", "tracing", "workloads"))
    finally:
        sys.path.remove(BENCH)
    reqs = [r for name, count in (("normmap", 3), ("ideal", 7), ("divpow", 3))
            for r in workloads.BUILDERS[name](random.Random(0), 1)[:count]]
    reqs += [r for r in workloads.build_sweep(random.Random(0))
             if r.meta == {"m": 2, "n": 2, "q": 2} and "rel" not in r.opts["presentation"]]
    tracer = tracing.Tracer()
    with tracer.tracing():
        for req in reqs:
            tracing.compose(req, tracer)
    stats = tracer.stats()
    assert [span for span, _, _ in run.SPAN_METRICS.values()
            if not stats.get(span, (0,))[0]] == []
