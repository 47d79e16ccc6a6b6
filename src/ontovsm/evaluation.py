"""Ranked-run evaluation: 11-point interpolated precision and F-measure.

A run is walked from the top; each rank contributes one (recall, precision)
point. Points are interpolated to the eleven standard recall levels 0%, 10%,
..., 100% and averaged arithmetically over queries, F values separately from
precisions. Only the points at relevant ranks can set an interpolated value,
so ``evaluate_runs`` builds just those, plus one (0, 0) point when a non-empty
run does not open with a relevant document. Two interpolation modes exist:
STANDARD takes the ceiling max over all points at or beyond a level; WINDOWED
takes the max inside [r_j, r_j+1] and falls back to STANDARD when the window
holds no point, so sparse runs never produce spurious zeros.
"""
from __future__ import annotations

import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import IO, Mapping, Sequence

from .corpus import is_plain_id
from .errors import EvalError
from .ontology import read_lines

RECALL_LEVELS = tuple(j / 10 for j in range(11))

# One ranked document list per query, in rank order.
Run = Mapping[str, Sequence[str]]

# Relevance judgments keyed by query, then document.
Qrels = Mapping[str, Mapping[str, bool]]


class InterpMode(enum.Enum):
    STANDARD = "standard"
    WINDOWED = "windowed"


def load_qrels(path: str | Path) -> Qrels:
    """Judgment lines ``<query_id> 0 <doc_id> <0|1>``; duplicates are an error."""
    judgments: dict[str, dict[str, bool]] = {}
    for lineno, line in read_lines(path, EvalError):
        fields = line.split()
        if len(fields) != 4 or fields[3] not in ("0", "1"):
            raise EvalError(f"{path}, line {lineno}: malformed qrels line {line!r}")
        query_id, _, doc_id, flag = fields
        if doc_id in judgments.get(query_id, {}):
            raise EvalError(f"{path}, line {lineno}: duplicate judgment for ({query_id}, {doc_id})")
        judgments.setdefault(query_id, {})[doc_id] = flag == "1"
    return judgments


def write_run_file(
    runs: Mapping[str, Sequence[tuple[str, float]]], model_tag: str, out: IO[str] | str | Path
) -> dict[str, list[str]]:
    """TREC run lines ``<query_id> Q0 <doc_id> <rank> <score> <tag>`` from ranked
    (doc id, score) pairs. Returns the run as ``load_run_file`` reads it back.

    The tag and every query id must be plain ids (``corpus.is_plain_id``), as
    ``load_run_file`` splits its lines on whitespace; both index builders check
    the doc ids. Nothing is written otherwise.
    """
    if not is_plain_id(model_tag):
        raise EvalError(f"run tag {model_tag!r} is empty or holds whitespace")
    for query_id in runs:
        if not is_plain_id(query_id):
            raise EvalError(f"query id {query_id!r} is empty or holds whitespace")
    if isinstance(out, (str, Path)):
        with open(out, "w", encoding="utf-8") as fh:
            return write_run_file(runs, model_tag, fh)
    # One write per query, from a %-template with the query id and tag baked in.
    tag = model_tag.replace("%", "%%")
    ranked = {}
    for query_id, results in runs.items():
        line = query_id.replace("%", "%%") + " Q0 %s %d %.6f " + tag + "\n"
        out.write("".join([line % (d, rank, s) for rank, (d, s) in enumerate(results, 1)]))
        if results:  # a query without results writes no line
            ranked[query_id] = [d for d, _ in results]
    return ranked


def load_run_file(path: str | Path) -> dict[str, list[str]]:
    """Read a TREC run file back into per-query ranked document lists.

    Each query's lines must be in rank order, ranked 1, 2, 3, ..., and every
    score must be a finite number.
    """
    runs: dict[str, dict[str, None]] = {}  # per query, its doc ids in rank order
    for lineno, line in read_lines(path, EvalError):
        fields = line.split()
        if len(fields) != 6:
            raise EvalError(f"{path}, line {lineno}: malformed run line {line!r}")
        query_id, _, doc_id, rank, score, _ = fields
        try:
            value = float(score)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise EvalError(f"{path}, line {lineno}: bad score {score!r}")
        ranked = runs.setdefault(query_id, {})
        if rank != str(len(ranked) + 1):
            raise EvalError(
                f"{path}, line {lineno}: rank {rank!r} for {query_id!r}, "
                f"expected {len(ranked) + 1}"
            )
        if doc_id in ranked:
            raise EvalError(
                f"{path}, line {lineno}: document {doc_id!r} listed twice for {query_id!r}"
            )
        ranked[doc_id] = None
    return {query_id: list(ranked) for query_id, ranked in runs.items()}


def interpolate_11pt(
    points: Sequence[tuple[float, float]], mode: InterpMode = InterpMode.STANDARD
) -> tuple[float, ...]:
    """Interpolated precision at the eleven standard recall levels.

    ``points`` must be in rank order, top to bottom. Recall never decreases
    down a ranking, so the points at or beyond a level are a suffix and the
    points inside a window a slice, both found by bisection.
    """
    recalls = [r for r, _ in points]
    precisions = [p for _, p in points]
    # ceiling[i]: the best precision at rank i + 1 or below it.
    ceiling = list(accumulate(reversed(precisions), max))[::-1] + [0.0]
    standard = tuple(ceiling[bisect_left(recalls, level)] for level in RECALL_LEVELS)
    if mode is InterpMode.STANDARD:
        return standard
    windowed = []
    for j, level in enumerate(RECALL_LEVELS):
        upper = RECALL_LEVELS[min(j + 1, 10)]
        window = precisions[bisect_left(recalls, level) : bisect_right(recalls, upper)]
        windowed.append(max(window) if window else standard[j])
    return tuple(windowed)


def f_measure(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; 0 when both are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class PRCurve:
    """Eleven precision and F values, one per standard recall level."""

    precisions: tuple[float, ...]
    f_values: tuple[float, ...]

    def __post_init__(self):
        if len(self.precisions) != 11 or len(self.f_values) != 11:
            raise EvalError("a curve holds exactly eleven precision and F values")


def curve_from_points(
    points: Sequence[tuple[float, float]], mode: InterpMode = InterpMode.STANDARD
) -> PRCurve:
    precisions = interpolate_11pt(points, mode)
    f_values = tuple(f_measure(p, level) for p, level in zip(precisions, RECALL_LEVELS))
    return PRCurve(precisions, f_values)


def average(curves: Sequence[PRCurve]) -> PRCurve:
    """Arithmetic mean per level; F averaged from per-query F, not recomputed."""
    if not curves:
        raise EvalError("cannot average zero curves")
    n = len(curves)
    precisions = tuple(sum(c.precisions[j] for c in curves) / n for j in range(11))
    f_values = tuple(sum(c.f_values[j] for c in curves) / n for j in range(11))
    return PRCurve(precisions, f_values)


@dataclass(frozen=True)
class EvalReport:
    """Averaged curves per model label, over a common query set."""

    query_count: int
    curves: dict[str, PRCurve]


def evaluate_runs(
    runs_by_model: Mapping[str, Run], qrels: Qrels, mode: InterpMode = InterpMode.STANDARD
) -> EvalReport:
    """Average every model over the judged queries with at least one relevant doc.

    A judged query missing from a run counts as an all-zero curve; a run query
    missing from the qrels is an error.
    """
    eval_ids = sorted(q for q, judged in qrels.items() if any(judged.values()))
    if not eval_ids:
        raise EvalError("qrels contain no query with a relevant document")
    for label, run in runs_by_model.items():
        for query_id in run:
            if query_id not in qrels:
                raise EvalError(f"run {label!r} references unjudged query {query_id!r}")
    relevant = {q: {d for d, flag in qrels[q].items() if flag} for q in eval_ids}
    curves: dict[str, PRCurve] = {}
    for label, run in runs_by_model.items():
        per_query = [
            curve_from_points(_relevant_points(run.get(q, ()), relevant[q]), mode)
            for q in eval_ids
        ]
        curves[label] = average(per_query)
    return EvalReport(query_count=len(eval_ids), curves=curves)


def _relevant_points(
    ranked_doc_ids: Sequence[str], relevant: set[str]
) -> list[tuple[float, float]]:
    """The per-rank (recall, precision) points that interpolation can read: those
    at relevant ranks, led by (0, 0) when rank 1 is not relevant.

    Down to the next relevant rank, precision only falls at a constant recall,
    so no other point sets a level's maximum. The (0, 0) point stands for the
    ranks above the first relevant one, which can fill WINDOWED's first window.
    """
    ranks = [rank for rank, doc_id in enumerate(ranked_doc_ids, 1) if doc_id in relevant]
    total = len(relevant)
    points = [(seen / total, seen / rank) for seen, rank in enumerate(ranks, 1)]
    if ranked_doc_ids and ranked_doc_ids[0] not in relevant:
        points.insert(0, (0.0, 0.0))
    return points


def write_report(report: EvalReport, out_dir: str | Path) -> None:
    """Two percentage tables plus one plottable curve file per model."""
    for label in report.curves:
        # A label starts a CSV row and names a curve file.
        if not is_plain_id(label) or "," in label:
            raise EvalError(f"model label {label!r} is not an id without whitespace or commas")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "model," + ",".join(str(round(level * 100)) for level in RECALL_LEVELS) + "\n"

    for name, values in (("precision.csv", "precisions"), ("f_measure.csv", "f_values")):
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            fh.write(header)
            for label, curve in report.curves.items():
                row = ",".join(f"{value * 100:.2f}" for value in getattr(curve, values))
                fh.write(f"{label},{row}\n")

    curve_dir = out_dir / "curves"
    curve_dir.mkdir(exist_ok=True)
    for label, curve in report.curves.items():
        with open(curve_dir / f"{label}.csv", "w", encoding="utf-8") as fh:
            fh.write("recall,precision,f_measure\n")
            for level, p, f in zip(RECALL_LEVELS, curve.precisions, curve.f_values):
                fh.write(f"{round(level * 100)},{p:.6f},{f:.6f}\n")
