"""Benchmark pairs: perfbench on a base revision and on this checkout, alternately.

Usage, from the root of a checkout:

    python3 tools/ab.py --base REV --workload compare-2k --pairs 10 --seconds 40 --seed 7 --label compare-2k

``perfbench/run.py`` measures the ``src/`` of the checkout it sits in. So the
base side runs REV's own ``run.py`` in a git worktree under ``.perfbench/ab/``,
removed at exit, and the change side runs this checkout's, uncommitted edits
included. Both sides must run one harness on one set of inputs, so the tool
refuses to run when ``perfbench/``, ``BENCHMARK.json`` or ``tests/corpusgen.py``
differ from REV's. ``tests/oracle.py`` may differ: perfbench uses it only in
untimed checks.

Each pair runs both sides once, and the side that goes first flips from one
pair to the next. For each end-to-end metric that ``BENCHMARK.json`` lists, it
prints each side's median, the base's quartiles, the pairs the change won
(ties count for neither side), the median of the per-pair ratios, change over
base, and a verdict, ``gain`` or ``worse``, as ``summarize`` defines them. It
writes ``BENCH_<label>.json`` with every raw result line, both
commit ids, ``os.cpu_count()`` and the Python version, and exits 1 if any run
was not ``correct``, had failed operations or printed no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The files whose differences would make the two sides two benchmarks.
HARNESS = ("perfbench", "BENCHMARK.json", "tests/corpusgen.py")
# What a perfbench run reads: edits to these make the change side differ from its commit.
MEASURED = ("src", "perfbench", "tests", "BENCHMARK.json")
SIDES = ("base", "change")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--label", help="names BENCH_<label>.json; the workload by default")
    return parser.parse_args(argv)


def pair_order(pairs: int) -> list[tuple[int, str]]:
    """(pair, side) in run order: base first in even pairs, change first in odd ones."""
    order = []
    for pair in range(pairs):
        sides = SIDES if pair % 2 == 0 else SIDES[::-1]
        order.extend((pair, side) for side in sides)
    return order


def run_problems(runs: list[dict]) -> list[str]:
    """One line per run that printed no result, was not correct or failed operations."""
    problems = []
    for run in runs:
        where = f"pair {run['pair']} {run['side']}"
        result = run["result"]
        if result is None:
            problems.append(f"{where}: no result line")
        elif result.get("correct") is not True or result.get("failed") != 0:
            problems.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    return problems


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict[str, dict]:
    """Per metric: each side's median, the base's quartiles, the pairs the change
    won and the median change/base ratio, over the pairs in which both sides
    printed a result. Two flags give the verdict: ``gain`` when the change won at
    least nine tenths of the pairs and its median beats the base's by more than
    the base's q1-q3 spread, and ``worse`` when its median is worse than the
    base's by more than the metric's ``bound``, a fraction of the base's median."""
    by_pair: dict[int, dict[str, dict]] = {}
    for run in runs:
        if run["result"] is not None:
            by_pair.setdefault(run["pair"], {})[run["side"]] = run["result"]["metrics"]
    complete = [sides for _, sides in sorted(by_pair.items()) if len(sides) == 2]
    if not complete:
        return {}
    summary = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [sides["base"][name]["value"] for sides in complete]
        change = [sides["change"][name]["value"] for sides in complete]
        won = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ratios = [c / b if b else (1.0 if c == b else float("inf")) for b, c in zip(base, change)]
        base_median, change_median = statistics.median(base), statistics.median(change)
        q1, q3 = _quartiles(base)
        better_by = base_median - change_median if lower else change_median - base_median
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "pairs": len(complete),
            "base_median": base_median,
            "base_quartiles": (q1, q3),
            "change_median": change_median,
            "won": won,
            "median_ratio": statistics.median(ratios),
            "gain": 10 * won >= 9 * len(complete) and better_by > q3 - q1,
            "worse": -better_by > metric["bound"] * base_median,
        }
    return summary


def format_summary(summary: dict[str, dict]) -> str:
    lines = [
        f"{'metric':<16}{'base':>12}{'base q1-q3':>22}{'change':>12}{'won':>8}{'ratio':>8}"
        "  verdict"
    ]
    for name, s in summary.items():
        quartiles = "{:.5g}-{:.5g}".format(*s["base_quartiles"])
        won = f"{s['won']}/{s['pairs']}"
        verdict = "gain" if s["gain"] else "worse" if s["worse"] else "-"
        lines.append(
            f"{name:<16}{s['base_median']:>12.5g}{quartiles:>22}"
            f"{s['change_median']:>12.5g}{won:>8}{s['median_ratio']:>8.3f}  {verdict}"
        )
    return "\n".join(lines)


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _perfbench(checkout: Path, args: argparse.Namespace) -> dict | None:
    """One perfbench run in ``checkout``; its JSON result line, or None."""
    command = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    label = args.label or args.workload
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    try:
        base_commit = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        change_commit = _git("rev-parse", "HEAD")
        uncommitted = bool(_git("status", "--porcelain", "--", *MEASURED))
        differs = _git("diff", "--name-only", base_commit, "--", *HARNESS)
    except subprocess.CalledProcessError as exc:
        print(f"error: {' '.join(exc.cmd)}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    if differs:
        print(f"error: the benchmark differs from {args.base}'s: {differs.split()}", file=sys.stderr)
        return 2
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    worktree = ROOT / ".perfbench" / "ab" / f"{label}-{os.getpid()}"
    _git("worktree", "add", "--detach", str(worktree), base_commit)
    runs = []
    try:
        checkouts = {"base": worktree, "change": ROOT}
        for pair, side in pair_order(args.pairs):
            result = _perfbench(checkouts[side], args)
            runs.append({"pair": pair, "side": side, "result": result})
            print(f"# pair {pair} {side}: {'no result' if result is None else 'done'}", flush=True)
    finally:
        _git("worktree", "remove", "--force", str(worktree))

    summary = summarize(runs, metrics)
    print(format_summary(summary))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": change_commit, "uncommitted_edits": uncommitted},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "runs": runs,
        "summary": summary,
    }
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"# wrote {out.relative_to(ROOT)}")
    problems = run_problems(runs)
    for problem in problems:
        print(f"# run failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
