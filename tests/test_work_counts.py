"""The benchmark's exact work counts: one traced pass of each workload, run
by ``perfbench/run.py``'s own child runner in a fresh interpreter, gives the
counts and stdout digests recorded in ``perfbench/reference.json``.  A change
that moves a count fails here, not only in a manual ``run.py --trace 1``.
Reads the benchmark's files only; a pass without ``--spans`` writes nothing.
"""
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling modules by name
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("workload", sorted(REFERENCE["workloads"]))
def test_traced_pass_repeats_the_reference_counts(run, workload):
    seed = REFERENCE["laws_reference_seed"]
    args = ["--workload", workload, "--seed", str(seed), "--trace"]
    result = run.run_child(args, time.monotonic() + run.CHILD_TIMEOUT_S)
    counts = run.pass_counts(result)
    assert {k: counts[k] for k in run.EXACT_COUNTS} == REFERENCE["workloads"][workload]["counts"]
    checker = run.Checker(workload, REFERENCE)
    checker.check_pass(result, seed)
    assert checker.failed == 0, checker.problems
