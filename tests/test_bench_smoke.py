"""One pass of fcbench's library workloads, checked by fcbench's own checks.

fcbench/workloads.py builds each workload's operations from a seed and
checks every answer with fcbench/checks.py.  Running one pass here means a
library change that would fail a benchmark check fails this suite first.
The cli workload starts fresh processes and is left to tests/test_cli.py.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import freecomm

FCBENCH = Path(__file__).resolve().parent.parent / "fcbench"


def load_workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(FCBENCH))  # workloads.py imports checks by name
    spec = importlib.util.spec_from_file_location("fcbench_workloads", FCBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["kernels", "iso-chain", "lattice"])
def test_one_pass_passes_the_benchmark_checks(name, monkeypatch, tmp_path):
    monkeypatch.delenv("FREECOMM_INDEX_CAP", raising=False)  # the workloads assume the default cap
    workload = load_workloads(monkeypatch)[name]
    for op in workload.operations(freecomm, workload.make_inputs(1, str(tmp_path)), None):
        op.run()
