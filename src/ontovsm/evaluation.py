"""Ranked-run evaluation: 11-point interpolated precision and F-measure.

A run is walked from the top; each rank contributes one (recall, precision)
point. Points are interpolated to the eleven standard recall levels 0%, 10%,
..., 100% and averaged arithmetically over queries, F values separately from
precisions. Two interpolation modes exist: STANDARD takes the ceiling max
over all points at or beyond a level; WINDOWED takes the max inside
[r_j, r_j+1] and falls back to STANDARD when the window holds no point, so
sparse runs never produce spurious zeros.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import EvalError

RECALL_LEVELS = tuple(j / 10 for j in range(11))

# One ranked document list per query, in rank order.
Run = Mapping[str, Sequence[str]]


class InterpMode(enum.Enum):
    STANDARD = "standard"
    WINDOWED = "windowed"


class Qrels:
    """Relevance judgments keyed by query, then document."""

    def __init__(self, judgments: Mapping[str, Mapping[str, bool]]):
        self._judgments = {q: dict(docs) for q, docs in judgments.items()}

    @property
    def query_ids(self) -> list[str]:
        return list(self._judgments)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._judgments

    def relevant_count(self, query_id: str) -> int:
        return sum(self._judgments.get(query_id, {}).values())

    def is_relevant(self, query_id: str, doc_id: str) -> bool:
        return self._judgments.get(query_id, {}).get(doc_id, False)


def load_qrels(path: str | Path) -> Qrels:
    """Judgment lines ``<query_id> 0 <doc_id> <0|1>``; duplicates are an error."""
    judgments: dict[str, dict[str, bool]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 4 or fields[3] not in ("0", "1"):
                raise EvalError(f"{path}, line {lineno}: malformed qrels line {line.rstrip()!r}")
            query_id, _, doc_id, flag = fields
            if doc_id in judgments.get(query_id, {}):
                raise EvalError(
                    f"{path}, line {lineno}: duplicate judgment for ({query_id}, {doc_id})"
                )
            judgments.setdefault(query_id, {})[doc_id] = flag == "1"
    return Qrels(judgments)


def load_run_file(path: str | Path) -> dict[str, list[str]]:
    """Read a TREC run file back into per-query ranked document lists."""
    runs: dict[str, list[str]] = {}
    listed: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split()
            if len(fields) != 6:
                raise EvalError(f"{path}, line {lineno}: malformed run line {line.rstrip()!r}")
            query_id, _, doc_id, _, score, _ = fields
            try:
                float(score)
            except ValueError:
                raise EvalError(f"{path}, line {lineno}: bad score {score!r}") from None
            seen = listed.setdefault(query_id, set())
            if doc_id in seen:
                raise EvalError(
                    f"{path}, line {lineno}: document {doc_id!r} listed twice for {query_id!r}"
                )
            seen.add(doc_id)
            runs.setdefault(query_id, []).append(doc_id)
    return runs


def pr_points(
    query_id: str, ranked_doc_ids: Sequence[str], qrels: Qrels
) -> list[tuple[float, float]]:
    """One (recall, precision) point per rank position, top to bottom."""
    if query_id not in qrels:
        raise EvalError(f"query {query_id!r} has no relevance judgments")
    total = qrels.relevant_count(query_id)
    if total == 0:
        raise EvalError(f"query {query_id!r} has no relevant documents")
    points = []
    seen = 0
    for rank, doc_id in enumerate(ranked_doc_ids, start=1):
        if qrels.is_relevant(query_id, doc_id):
            seen += 1
        points.append((seen / total, seen / rank))
    return points


def interpolate_11pt(
    points: Sequence[tuple[float, float]], mode: InterpMode = InterpMode.STANDARD
) -> tuple[float, ...]:
    """Interpolated precision at the eleven standard recall levels."""
    standard = tuple(
        max((p for r, p in points if r >= level), default=0.0) for level in RECALL_LEVELS
    )
    if mode is InterpMode.STANDARD:
        return standard
    windowed = []
    for j, level in enumerate(RECALL_LEVELS):
        upper = RECALL_LEVELS[min(j + 1, 10)]
        window = [p for r, p in points if level <= r <= upper]
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
    eval_ids = sorted(q for q in qrels.query_ids if qrels.relevant_count(q) > 0)
    if not eval_ids:
        raise EvalError("qrels contain no query with a relevant document")
    for label, run in runs_by_model.items():
        for query_id in run:
            if query_id not in qrels:
                raise EvalError(f"run {label!r} references unjudged query {query_id!r}")
    curves: dict[str, PRCurve] = {}
    for label, run in runs_by_model.items():
        per_query = [
            curve_from_points(pr_points(q, run.get(q, []), qrels), mode) for q in eval_ids
        ]
        curves[label] = average(per_query)
    return EvalReport(query_count=len(eval_ids), curves=curves)


def write_report(report: EvalReport, out_dir: str | Path) -> None:
    """Two percentage tables plus one plottable curve file per model."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    header = "model," + ",".join(str(round(level * 100)) for level in RECALL_LEVELS) + "\n"

    with open(out_dir / "precision.csv", "w", encoding="utf-8") as fh:
        fh.write(header)
        for label, curve in report.curves.items():
            row = ",".join(f"{value * 100:.2f}" for value in curve.precisions)
            fh.write(f"{label},{row}\n")
    with open(out_dir / "f_measure.csv", "w", encoding="utf-8") as fh:
        fh.write(header)
        for label, curve in report.curves.items():
            row = ",".join(f"{value * 100:.2f}" for value in curve.f_values)
            fh.write(f"{label},{row}\n")

    curve_dir = out_dir / "curves"
    curve_dir.mkdir(exist_ok=True)
    for label, curve in report.curves.items():
        with open(curve_dir / f"{label}.csv", "w", encoding="utf-8") as fh:
            fh.write("recall,precision,f_measure\n")
            for level, p, f in zip(RECALL_LEVELS, curve.precisions, curve.f_values):
                fh.write(f"{round(level * 100)},{p:.6f},{f:.6f}\n")


def report(
    runs_by_model: Mapping[str, Run],
    qrels: Qrels,
    out_dir: str | Path,
    mode: InterpMode = InterpMode.STANDARD,
) -> EvalReport:
    """Evaluate and write in one step."""
    result = evaluate_runs(runs_by_model, qrels, mode)
    write_report(result, out_dir)
    return result
