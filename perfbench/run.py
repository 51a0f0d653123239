"""permpat benchmark: time the CLI commands users run and check their output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the repository root.  Each pass of a workload runs in a fresh
interpreter (child.py) with one worker, as a CLI user's calls do, and passes
repeat until ``--seconds`` have gone by.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates plain and traced passes and reports the
per-layer metrics and the tracing overhead.  End-to-end times are scaled to a
reference host speed measured during each pass (hostspeed.py).  Every
command's exit code and stdout digest is checked against reference.json;
``--record`` rewrites that file from the program as it stands.

Human-readable lines come first; the last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with an environment fingerprint, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from workloads import LAWS_REFERENCE_SEED, WORKLOADS, pass_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src" / "permpat"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_SAMPLES = 11
#: Plain passes a --trace 0 run makes at least, even past --seconds, so that
#: wall_s is never one pass.  Not more: on a slow host three oracle-large
#: passes would take over a minute a run.
MIN_PASSES = 2
#: No pass starts after this many seconds, so a run ends well within 180 s.
LAST_START_S = 120.0
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
#: Counts that must repeat exactly: at the reference seed they equal
#: reference.json, at any other seed they are the same in every traced pass
#: with that seed.
EXACT_COUNTS = (
    "galois.level_words",
    "galois.level_candidates",
    "galois.max_level_words",
    "groups.from_words_elements",
    "groups.subgroups_found",
    "groups.subgroups_by_degree",
    "verify.checks",
)


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERMPAT_")}
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"pass {args} timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"pass {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_counts(result: dict) -> dict:
    counts = dict(result["counts"])
    counts["verify.checks"] = sum(sum(c["statuses"].values()) for c in result["commands"])
    return counts


class Checker:
    """Compares passes with the reference and tallies operations and failures."""

    def __init__(self, workload: str, reference: dict):
        self.workload = workload
        self.ref = reference["workloads"][workload]
        self.attempted = self.failed = self.checks = self.skipped = 0
        self.first_counts: dict[int, dict] = {}
        self.problems: list[str] = []

    def _by_digest(self, seed: int) -> bool:
        return self.workload != "laws" or seed == LAWS_REFERENCE_SEED

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check_pass(self, result: dict, seed: int) -> None:
        by_digest = self._by_digest(seed)
        for got, want in zip(result["commands"], self.ref["commands"], strict=True):
            statuses = got["statuses"]
            n_checks = sum(statuses.values())
            self.attempted += 1 + n_checks
            self.checks += n_checks
            self.skipped += statuses.get("skipped", 0)
            name = " ".join(got["argv"])
            for _ in range(statuses.get("fail", 0)):
                self._fail(f"{name}: failed check")
            if got["exit"] != want["exit"]:
                self._fail(f"{name}: exit {got['exit']}, expected {want['exit']}")
            elif by_digest and got["digest"] != want["digest"]:
                self._fail(f"{name}: stdout digest differs from the reference")
            elif not by_digest and (
                got["check_ids"] != want["check_ids"]
                or statuses.get("pass", 0) != len(want["check_ids"])
            ):
                self._fail(f"{name}: not every law suite ran and passed: {statuses}")

    def check_counts(self, result: dict, seed: int) -> None:
        all_counts = pass_counts(result)
        counts = {k: all_counts[k] for k in EXACT_COUNTS}
        if self._by_digest(seed):
            want = self.ref["counts"]
        else:
            want = self.first_counts.setdefault(seed, counts)
        self.attempted += 1
        if counts != want:
            self._fail(f"work counts {counts} differ from {want}")


def measure(workload: str, seed: int, seconds: int, trace: bool, checker: Checker) -> dict:
    start = time.monotonic()
    deadline = start + CHILD_TIMEOUT_S
    spans_path = OUT / f"spans-{workload}.jsonl"
    if trace:
        spans_path.unlink(missing_ok=True)
    setup = [] if trace else [run_child(["--import-only"], deadline) for _ in range(SETUP_SAMPLES)]
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        begun = time.monotonic()
        seed_i = pass_seed(seed, len(plain))
        args = ["--workload", workload, "--seed", str(seed_i), "--pass-index", str(len(plain))]
        plain.append(run_child(args, deadline))
        checker.check_pass(plain[-1], seed_i)
        if trace:
            traced.append(run_child([*args, "--trace", "--spans", str(spans_path)], deadline))
            checker.check_pass(traced[-1], seed_i)
            checker.check_counts(traced[-1], seed_i)
        now = time.monotonic()
        done = now - start >= seconds and (trace or len(plain) >= MIN_PASSES)
        if done or now + (now - begun) - start > LAST_START_S:
            break
    return {"setup": setup, "plain": plain, "traced": traced, "seconds": time.monotonic() - start}


def host_scale(child: dict) -> float:
    """Factor that turns a child's times into reference-host times."""
    return hostspeed.REFERENCE_S / statistics.median(child["hostspeed_s"])


def scaled_median(children: list[dict], key: str) -> float:
    """Median over children of ``child[key]``, each scaled by its own host speed."""
    return statistics.median(child[key] * host_scale(child) for child in children)


def end_to_end_metrics(run: dict) -> dict:
    plain = run["plain"]
    return {
        "wall_s": scaled_median(plain, "wall_s"),
        "setup_s": scaled_median(run["setup"], "import_s"),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def unscaled_times(run: dict) -> dict:
    """The end-to-end times as measured, and the median host-speed scale of each."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in run["plain"]),
        "wall_scale": statistics.median(host_scale(p) for p in run["plain"]),
        "setup_s": statistics.median(s["import_s"] for s in run["setup"]),
        "setup_scale": statistics.median(host_scale(s) for s in run["setup"]),
    }


def per_layer_metrics(run: dict) -> dict:
    traced = run["traced"]
    first = traced[0]
    counts = pass_counts(first)
    out = {}
    for key in first["layers"]:
        values = [t["layers"][key] for t in traced]
        out[key] = statistics.median(values) if key.endswith("_s") else values[0]
    out.update(
        {k: v for k, v in counts.items() if isinstance(v, (int, float))}
    )
    candidates = counts["galois.level_candidates"]
    out["galois.survival_ratio"] = counts["galois.level_words"] / candidates if candidates else 0.0
    out["verify.checks_skipped"] = sum(
        c["statuses"].get("skipped", 0) for c in first["commands"]
    )
    out["cli.stdout_bytes"] = sum(c["stdout_bytes"] for c in first["commands"])
    plain_wall = statistics.median(p["wall_s"] for p in run["plain"])
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - plain_wall
    return out


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "seed": seed,
    }


def record() -> int:
    """Rewrite reference.json from one plain and one traced pass of each workload."""
    def outputs(result: dict) -> list[dict]:
        return [{k: c[k] for k in ("argv", "exit", "digest", "check_ids")} for c in result["commands"]]

    deadline = time.monotonic() + 10 * CHILD_TIMEOUT_S
    workloads = {}
    for name in WORKLOADS:
        args = ["--workload", name, "--seed", str(LAWS_REFERENCE_SEED)]
        plain = run_child(args, deadline)
        traced = run_child([*args, "--trace"], deadline)
        if outputs(plain) != outputs(traced):
            print(f"error: {name}: traced output differs from plain output", file=sys.stderr)
            return 1
        counts = pass_counts(traced)
        workloads[name] = {"commands": outputs(plain), "counts": {k: counts[k] for k in EXACT_COUNTS}}
        print(f"{name}: {json.dumps(workloads[name]['counts'])}")
    env = environment(LAWS_REFERENCE_SEED)
    reference = {
        "recorded_at": {"git_sha": env["git_sha"], "src_sha256": env["src_sha256"]},
        "laws_reference_seed": LAWS_REFERENCE_SEED,
        "workloads": workloads,
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args()
    if not (SRC / "cli.py").is_file():
        print(f"error: {SRC / 'cli.py'} not found; run from a permpat checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record:
        return record()
    if args.workload is None or args.seconds < 1:
        parser.error("--workload and --seconds >= 1 are required")
    reference = json.loads(REFERENCE.read_text())

    env = environment(args.seed)
    env["loadavg_1m_before"] = os.getloadavg()[0]
    checker = Checker(args.workload, reference)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), checker)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_1m_after"] = os.getloadavg()[0]

    if args.trace:
        metrics = per_layer_metrics(run)
        units = {k: "s" if k.endswith("_s") else "ratio" if k.endswith("_ratio") else "count" for k in metrics}
        units["cli.stdout_bytes"] = "bytes"
    else:
        metrics = end_to_end_metrics(run)
        units = END_TO_END_UNITS
    error_ratio = checker.failed / checker.attempted
    skipped_ratio = checker.skipped / checker.checks if checker.checks else 0.0

    passes = len(run["plain"])
    print(
        f"permpat benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}: "
        f"{passes} plain and {len(run['traced'])} traced passes in {run['seconds']:.1f} s"
    )
    for key, value in metrics.items():
        print(f"  {key:28s} {value:>16.6g} {units[key]}")
    print(f"  {'error_ratio':28s} {error_ratio:>16.6g} ratio ({checker.failed} of {checker.attempted} operations)")
    print(f"  {'skipped_ratio':28s} {skipped_ratio:>16.6g} ratio ({checker.skipped} of {checker.checks} checks)")
    if args.trace:
        print(f"  times are medians over {len(run['traced'])} traced passes")
    else:
        raw = unscaled_times(run)
        print(f"  wall_s and peak_rss_mb are medians over {passes} passes, "
              f"setup_s over {len(run['setup'])} fresh-interpreter imports")
        print(f"  each pass's and import's time is scaled to a host where the host-speed kernel "
              f"takes {hostspeed.REFERENCE_S} s; unscaled medians: wall_s {raw['wall_s']:.6g} s "
              f"(median scale {raw['wall_scale']:.4f}), setup_s {raw['setup_s']:.6g} s "
              f"(median scale {raw['setup_scale']:.4f})")
    for problem in checker.problems:
        print(f"  FAILED: {problem}")
    print(f"  env: {json.dumps(env)}")

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {
        **result,
        "error_ratio": error_ratio,
        "skipped_ratio": skipped_ratio,
        "problems": checker.problems,
        "env": env,
        "unscaled": None if args.trace else unscaled_times(run),
        "setup_samples": [s["import_s"] for s in run["setup"]],
        "setup_hostspeed_s": [s["hostspeed_s"] for s in run["setup"]],
        "pass_seeds": [pass_seed(args.seed, i) for i in range(passes)],
        "pass_wall_s": [p["wall_s"] for p in run["plain"]],
        "pass_hostspeed_s": [p["hostspeed_s"] for p in run["plain"]],
        "traced_pass_wall_s": [t["wall_s"] for t in run["traced"]],
    }
    out_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
