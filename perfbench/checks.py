"""Output checks, all made outside the timed regions.

Each function returns a list of problems; an empty list means the output
passed. The caller counts an operation with any problem as failed.
"""
from __future__ import annotations

import io

from oracle import Oracle
from ontovsm import (
    ALL_MODELS,
    EmptyQueryError,
    build_index,
    filter_documents,
    search,
    write_run_file,
)
from ontovsm.corpus import ingest_document, query_from_record
from ontovsm.ontology import load_knowledge_base, load_taxonomy

from inputs import Dataset

# Scores closer than this are ties in exact arithmetic that float rounding
# split, so their order must fall back to ascending doc id.
TIE_EPSILON = 1e-12
ORACLE_TOLERANCE = 1e-9


def ranking_problems(results, top_k: int, candidates: set[str]) -> list[str]:
    """Scores in [0, 1] and non-increasing, no repeats, at most top_k, all candidates."""
    problems = []
    if len(results) > top_k:
        problems.append(f"{len(results)} results exceed top_k {top_k}")
    if len({r.doc_id for r in results}) != len(results):
        problems.append("a document is listed twice")
    if any(not 0.0 <= r.score <= 1.0 for r in results):
        problems.append("a score lies outside [0, 1]")
    if any(b.score > a.score for a, b in zip(results, results[1:])):
        problems.append("scores increase down the ranking")
    if any(r.doc_id not in candidates for r in results):
        problems.append("a result is not in the filter's candidate set")
    return problems


def tie_inversions(results) -> int:
    """Adjacent pairs that tie within TIE_EPSILON but break against doc id order."""
    return sum(
        1
        for a, b in zip(results, results[1:])
        if abs(a.score - b.score) < TIE_EPSILON and a.doc_id > b.doc_id
    )


def run_text(runs, tag: str) -> str:
    out = io.StringIO()
    write_run_file(runs, tag, out)
    return out.getvalue()


def oracle_problems(data: Dataset) -> tuple[int, list[str]]:
    """Engine scores against the brute-force oracle, by doc id, on a small dataset.

    Returns the number of (query, model) searches compared and the problems.
    """
    taxonomy = load_taxonomy(data.taxonomy)
    kb = load_knowledge_base(data.kb, taxonomy)
    index = build_index([ingest_document(r, kb, taxonomy) for r in data.docs], kb, taxonomy)
    oracle = Oracle(data.taxonomy, data.kb, data.docs)
    problems, compared = [], 0
    for record in data.queries:
        query = query_from_record(record, kb, taxonomy)
        for model in ALL_MODELS:
            compared += 1
            try:
                engine = {r.doc_id: r.score for r in search(index, query, model)}
            except EmptyQueryError:
                continue
            except Exception as exc:  # any other exception fails the comparison
                problems.append(f"{record['query_id']} {model.value}: {exc!r}")
                continue
            reference = dict(oracle.search(record, model.value))
            if engine.keys() != reference.keys():
                problems.append(f"{record['query_id']} {model.value}: result set differs")
            elif any(abs(s - reference[d]) > ORACLE_TOLERANCE for d, s in engine.items()):
                problems.append(f"{record['query_id']} {model.value}: scores differ")
            elif filter_documents(index, query, model) != oracle.filter(record, model.value):
                problems.append(f"{record['query_id']} {model.value}: candidates differ")
    return compared, problems
