"""Every benchmark workload, issued once at both seeds, must pass its own
checks and print exactly the stdout whose digest `bench/golden.json`
stores, so a change to any printed byte fails here and not only in a
benchmark run."""

import importlib
import os

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


@pytest.fixture
def bench(monkeypatch):
    # `Runner` imports `tracing` from the benchmark directory when built
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("run"), importlib.import_module("workloads")


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["normmap", "ideal", "sweep", "divpow"])
def test_workload_stdout_matches_golden_digest(bench, workload, seed):
    run, workloads = bench
    requests = workloads.build(workload, seed)
    runner = run.Runner(requests)
    outs = []
    for i in range(len(requests)):
        code, out, _, error = runner.issue(i)
        assert code == 0, f"request {i}: {error}"
        outs.append(out)
    assert run.check_outputs(requests, outs) == {}
    assert run.digest(outs) == run.golden_digest(workload, seed)
