"""One pass of a workload in a fresh interpreter, as a CLI user would run it.

    python3 perfbench/child.py --import-only
    python3 perfbench/child.py --workload NAME --seed N [--trace --spans PATH --pass-index K]

Imports ``permpat.cli`` from the checkout's ``src/`` first and times the
import, which every CLI call pays.  Then calls ``permpat.cli.main`` once per
command of the workload, capturing stdout and stderr, and prints one JSON line:
import time, per-command exit code, time, stdout digest and check statuses, the
pass's wall time and peak resident memory, and either the host-speed kernel's
times from during the commands (see hostspeed.py) or, with ``--trace``, the
per-layer metrics and work counts (see spans.py).  Command times leave out the
kernel's interruptions.
"""
import os
import sys
import time

#: Host-speed kernel calls timed after the import in an import-only child, and
#: the fewest a plain pass reports (it tops up after its commands if they were
#: too short to be interrupted that often).
HOSTSPEED_SAMPLES = 9


def _import_cli():
    # timed before anything else is imported, so modules the CLI needs are not preloaded
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import permpat.cli

    return permpat.cli, time.perf_counter() - start


def _run_command(cli, argv: list[str], sampler) -> dict:
    import contextlib
    import io
    import json
    import traceback

    from workloads import stdout_digest

    out, err = io.StringIO(), io.StringIO()
    spent = sampler.spent if sampler else 0.0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), sampler or contextlib.nullcontext():
        try:
            code = cli.main(argv)  # looked up per call: the tracer replaces it
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, reported by the parent
            traceback.print_exc(file=sys.__stderr__)
            code = "exception"
    seconds = time.perf_counter() - start - ((sampler.spent - spent) if sampler else 0.0)
    stdout = out.getvalue()
    statuses: dict[str, int] = {}
    check_ids = set()
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "check_id" in obj:
            statuses[obj["status"]] = statuses.get(obj["status"], 0) + 1
            check_ids.add(obj["check_id"])
    return {
        "argv": argv,
        "exit": code,
        "seconds": seconds,
        "digest": stdout_digest(stdout),
        "stdout_bytes": len(stdout.encode()),
        "statuses": statuses,
        "check_ids": sorted(check_ids),
    }


def main() -> int:
    cli, import_s = _import_cli()
    import argparse
    import json
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--import-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="append the spans to this file")
    parser.add_argument("--pass-index", type=int, default=0)
    args = parser.parse_args()
    import hostspeed

    if args.import_only:
        print(json.dumps({"import_s": import_s, "hostspeed_s": hostspeed.samples(HOSTSPEED_SAMPLES)}))
        return 0

    from spans import Tracer, layer_metrics
    from workloads import commands

    tracer = sampler = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        sampler = hostspeed.Sampler()
    results = []
    for i, argv in enumerate(commands(args.workload, args.seed)):
        if tracer is not None:
            tracer.run_id = f"{args.pass_index}.{i}"
        results.append(_run_command(cli, argv, sampler))
    out = {
        "import_s": import_s,
        "wall_s": sum(r["seconds"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "commands": results,
    }
    if sampler is not None:
        short = HOSTSPEED_SAMPLES - len(sampler.times)
        out["hostspeed_s"] = sampler.times + hostspeed.samples(max(0, short))
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        out["counts"] = tracer.counts.to_json()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
