"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
from run import host_scale, scaled_median
from spans import layer_metrics
from workloads import WORKLOADS, stdout_digest

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text())
COUNTS = {name: w["counts"] for name, w in REFERENCE["workloads"].items()}

#: Number of subgroups of the symmetric group S_n, OEIS A005432.
A005432 = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156, 6: 1455}


def test_reference_holds_the_known_counts():
    for counts in COUNTS.values():
        for n, found in counts["groups.subgroups_by_degree"].items():
            assert found == [A005432[int(n)]]
    assert COUNTS["oracle-large"]["galois.max_level_words"] == 362880  # |S9|
    assert COUNTS["catalog"]["groups.subgroups_found"] == 30 + 156
    assert COUNTS["catalog"]["verify.checks"] == 2 * (30 + 156)
    assert COUNTS["laws"]["verify.checks"] == 24


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_work_counts_repeat_in_a_fresh_traced_pass(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", "0", "--trace"],
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    counts = dict(result["counts"])
    counts["verify.checks"] = sum(sum(c["statuses"].values()) for c in result["commands"])
    assert counts == COUNTS[workload]
    digests = [c["digest"] for c in REFERENCE["workloads"][workload]["commands"]]
    assert [c["digest"] for c in result["commands"]] == digests


def test_stdout_digest_ignores_only_elapsed_ms():
    a = '{"check_id":"x","status":"pass","elapsed_ms":3}\n'
    b = '{"check_id":"x","status":"pass","elapsed_ms":7}\n'
    c = '{"check_id":"x","status":"skipped","elapsed_ms":3}\n'
    assert stdout_digest(a) == stdout_digest(b) != stdout_digest(c)


def test_hostspeed_kernel_does_fixed_work():
    assert hostspeed.kernel() == hostspeed.CHECKSUM
    assert len(hostspeed.samples(2)) == 2


def test_sampler_interrupts_the_code_it_runs_around():
    sampler = hostspeed.Sampler()
    with sampler:
        deadline = time.perf_counter() + 4 * hostspeed.PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(sampler.times) >= 2
    assert sum(sampler.times) <= sampler.spent < 4 * hostspeed.PERIOD_S


def test_each_child_is_scaled_by_its_own_kernel_times():
    ref = hostspeed.REFERENCE_S
    children = [
        {"wall_s": 3.0, "hostspeed_s": [ref, 2 * ref, 3 * ref]},  # 2x slow: 1.5 s
        {"wall_s": 1.0, "hostspeed_s": [ref]},  # 1.0 s
        {"wall_s": 1.0, "hostspeed_s": [ref / 2]},  # 2x fast: 2.0 s
    ]
    assert host_scale(children[0]) == 0.5
    assert scaled_median(children, "wall_s") == 1.5


def test_self_time_subtracts_direct_children_and_inclusive_counts_outermost():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "0.0"),
        ("verify.verify_group", 1.0, 9.0, 0, "0.0"),
        ("classify.predict_level", 2.0, 5.0, 1, "0.0"),
        ("classify.predict_level", 3.0, 4.0, 2, "0.0"),
        ("galois._comp_step", 6.0, 8.0, 1, "0.0"),
    ]
    m = layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["verify.self_s"] == 3.0
    assert m["classify.self_s"] == 3.0
    assert m["classify.predict_s"] == 3.0
    assert m["classify.predict_calls"] == 2
    assert m["galois.comp_s"] == 2.0
    assert m["galois.comp_calls"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
