"""Benchmark for ontovsm: one workload, one seed, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload compare-2k --seed 7 --seconds 40 --trace 0

It generates the workload's inputs from the seed with ``tests/corpusgen.py``,
drives the package in ``src/`` through its public functions and
``ontovsm.cli.main`` with one closed-loop client, checks every output, and
prints one line per metric followed by a JSON result as the last line. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` they are
the per-layer ones from a traced run, whose spans are also written to
``.perfbench/traces/``. Scratch files live under ``.perfbench/work/`` and are
removed at exit. See ``perfbench/README.md`` for the metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 7


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40, help="how long to repeat the operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "ontovsm" / "__init__.py", ROOT / "tests" / "corpusgen.py"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (expected one of: {known})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    bench = workloads.Bench(work, args.seconds, tracer)
    try:
        sizes = workloads.WORKLOADS[args.workload](bench, args.seed)
    except Exception as exc:  # the run still reports, with the failure counted
        bench.record([f"{args.workload}: {exc!r}"])
        sizes = (0.0, 0.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        values = workloads.end_to_end_metrics(bench, *sizes)
        units = workloads.END_TO_END_UNITS
    else:
        values = workloads.layer_metrics(bench)
        units = workloads.per_layer_units()
        trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"# spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")

    for problem in bench.problems[:20]:
        print(f"# check failed: {problem}")
    if tracer is None:
        print(f"# search samples: {len(bench.samples['search_s'])}")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
