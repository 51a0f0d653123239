"""The benchmark's workloads: the permpat CLI commands one pass runs, in order.

Why each workload exists, and which layers it loads, is in README.md.
"""
from __future__ import annotations

import hashlib
import json

#: ``laws`` output is checked by digest at this seed, and by "every suite
#: passes" at any other seed.
LAWS_REFERENCE_SEED = 0

#: The law suites' random inputs change their work from one seed to the next
#: (five consecutive seeds took 4.7-7.7 s), so a run cycles its passes through
#: this many seeds and its median is not one seed's draw.
SEEDS_PER_RUN = 5

WORKLOADS = {
    "oracle-large": lambda seed: [
        ["levels", "--group", "S:6", "--depth", "3"],
        ["levels", "--group", "A:8", "--depth", "1"],
        ["comp", "--group", "A:7", "--to", "9"],
    ],
    "catalog": lambda seed: [
        ["verify", "--catalog", "5", "--depth", "3"],
        ["verify", "--catalog", "4", "--depth", "4"],
    ],
    "laws": lambda seed: [
        ["verify", "--laws", "--seed", str(seed)],
    ],
}


def pass_seed(seed: int, index: int) -> int:
    """The seed pass ``index`` of a run with ``--seed seed`` gives its commands."""
    return seed * SEEDS_PER_RUN + index % SEEDS_PER_RUN


def commands(workload: str, seed: int) -> list[list[str]]:
    """The argument vectors ``permpat.cli.main`` gets for one pass."""
    return [["--format", "json", *argv] for argv in WORKLOADS[workload](seed)]


def stdout_digest(stdout: str) -> str:
    """SHA-256 of JSON-mode stdout with ``elapsed_ms``, its only varying field, removed."""
    lines = []
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            lines.append(line)
            continue
        if isinstance(obj, dict):
            obj.pop("elapsed_ms", None)
        lines.append(json.dumps(obj, separators=(",", ":")))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
