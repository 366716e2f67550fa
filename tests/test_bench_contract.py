"""The benchmark's hold on the library: an API change that the tracer in
``perfbench/`` can no longer wrap, or that stops a workload from reaching a
layer the benchmark measures, fails here instead of in the benchmark.

The benchmark's files are imported and run, never changed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
from pathlib import Path

import pytest

from groupcodes import cli
from groupcodes import ideals_codes as ic
from groupcodes import linalg

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# small runs of the commands the workloads run: css-search stands for
# census-d10 and css-d16, verify for verify-matrix, whose matrix holds one
# quaternion system
RUNS = {
    ("census-d10", "css-d16"): [
        ["css-search", "--q", "4", "--n", "7", "--metric", "hermitian",
         "--limit", "3"]],
    ("verify-matrix",): [
        ["verify", "--q", "4", "--n", "7", "--metric", "hermitian",
         "--limit", "2"],
        ["verify", "--q", "3", "--n", "5", "--group", "quaternion",
         "--limit", "2"]],
}


@pytest.fixture
def perfbench(monkeypatch):
    """The tracer and the layers selftest.py expects of each workload."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return (importlib.import_module("tracer"),
            importlib.import_module("selftest").EXPECTED)


def test_install_binds_every_layer_and_uninstall_restores(perfbench):
    tracer, _ = perfbench
    originals = (cli.main, ic.ideal_to_code, linalg.rref)
    tr = tracer.install()   # raises when a wrapped name has no binding site
    try:
        assert cli.main is not originals[0]
        assert ic.ideal_to_code is not originals[1]
    finally:
        tr.uninstall()
    assert (cli.main, ic.ideal_to_code, linalg.rref) == originals


@pytest.mark.parametrize("workloads", sorted(RUNS))
def test_traced_runs_reach_the_expected_layers(perfbench, workloads):
    tracer, expected = perfbench
    tr = tracer.install()
    try:
        for argv in RUNS[workloads]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    calls = {name: span["calls"] for name, span in tr.per_span().items()}
    for workload in workloads:
        missing = [layer for layer in expected[workload]
                   if calls.get(layer, 0) < 1]
        assert not missing, f"{workload}: no call recorded for {missing}"
