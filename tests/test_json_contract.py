"""The JSON output contract: the ``catalog`` benchmark workload's commands,
run through ``permpat.cli.main``, give the exit codes and stdout digests
recorded in ``perfbench/reference.json``.  Reads those files only."""
import importlib.util
import json
from pathlib import Path

from permpat.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_catalog_workload_output_matches_the_reference(capsys):
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    recorded = reference["workloads"]["catalog"]["commands"]
    argvs = workloads.commands("catalog", reference["laws_reference_seed"])
    assert [r["argv"] for r in recorded] == argvs
    for argv, r in zip(argvs, recorded):
        code = main(list(argv))
        out = capsys.readouterr().out
        assert code == r["exit"], argv
        assert workloads.stdout_digest(out) == r["digest"], argv
