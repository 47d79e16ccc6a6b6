"""Acceptance gate: nine end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; each check prints ``criterion N (<name>): PASS`` or ``FAIL``.
"""
import time

import pytest

import corpusgen
from oracle import Oracle, pr_points
from ontovsm.cli import main
from ontovsm.corpus import ingest_document, query_from_record, tokenize
from ontovsm.errors import EmptyQueryError
from ontovsm.evaluation import evaluate_runs, f_measure, interpolate_11pt
from ontovsm.index import build_index, load_index, save_index
from ontovsm.ontology import load_knowledge_base, load_taxonomy
from ontovsm.retrieval import (
    ALL_MODELS,
    ModelConfig,
    ModelKind,
    filter_documents,
    score,
    search,
)
from ontovsm.termspace import (
    Term,
    query_terms_nonoverlapped,
    query_terms_overlapped,
)

from conftest import write_jsonl

NE_AWARE_MODELS = tuple(m for m in ALL_MODELS if m is not ModelKind.KW)


class _criterion:
    """Prints one PASS/FAIL line per acceptance check."""

    def __init__(self, number, name):
        self.label = f"criterion {number} ({name})"

    def __enter__(self):
        self.started = time.perf_counter()
        return self

    @property
    def elapsed(self):
        return time.perf_counter() - self.started

    def __exit__(self, exc_type, exc, tb):
        print(f"{self.label}: {'PASS' if exc_type is None else 'FAIL'}")
        return False


def _load(records):
    taxonomy = load_taxonomy(records["taxonomy"])
    kb = load_knowledge_base(records["kb"], taxonomy)
    docs = [ingest_document(r, kb, taxonomy) for r in records["docs"]]
    index = build_index(docs, kb, taxonomy)
    queries = [query_from_record(r, kb, taxonomy) for r in records["queries"]]
    return taxonomy, kb, index, queries


def _write_dataset(data, out_dir):
    write_jsonl(out_dir / "taxonomy.jsonl", data["taxonomy"])
    write_jsonl(out_dir / "kb.jsonl", data["kb"])
    write_jsonl(out_dir / "docs.jsonl", data["docs"])
    write_jsonl(out_dir / "queries.jsonl", data["queries"])
    (out_dir / "qrels.txt").write_text("".join(corpusgen.qrels_lines(data["qrels"])))


def _compare_args(data_dir, out_dir):
    return [
        "compare",
        "--taxonomy", str(data_dir / "taxonomy.jsonl"),
        "--kb", str(data_dir / "kb.jsonl"),
        "--corpus", str(data_dir / "docs.jsonl"),
        "--queries", str(data_dir / "queries.jsonl"),
        "--qrels", str(data_dir / "qrels.txt"),
        "--out", str(out_dir),
    ]


def test_criterion_1_query_term_extraction(taxonomy, kb, un_query):
    """A two-entity query yields exactly five overlapped and two most-specific terms."""
    with _criterion(1, "query term extraction") as check:
        overlapped = set()
        nonoverlapped = set()
        for annotation in un_query.annotations:
            overlapped |= query_terms_overlapped(annotation, kb)
            nonoverlapped |= query_terms_nonoverlapped(annotation)
        assert overlapped == {
            Term("C", "Country"),
            Term("N", "united nations"),
            Term("C", "InternationalOrganization"),
            Term("NC", "united nations", "InternationalOrganization"),
            Term("I", "e4"),
        }
        assert nonoverlapped == {Term("C", "Country"), Term("I", "e4")}
        assert check.elapsed < 1.0


def test_criterion_2_reference_scorer_agreement():
    """Engine filter sets and scores match the naive scorer on a random corpus."""
    with _criterion(2, "reference scorer agreement") as check:
        data = corpusgen.synthetic_dataset(seed=0)
        _, _, index, queries = _load(data)
        oracle = Oracle(data["taxonomy"], data["kb"], data["docs"])
        assert index.n_docs >= 20 and len(queries) >= 10
        for record, query in zip(data["queries"], queries):
            for model in ALL_MODELS:
                engine_set = filter_documents(index, query, model)
                assert engine_set == oracle.filter(record, model.value)
                engine = {r.doc_id: r.score for r in search(index, query, model)}
                reference = dict(oracle.search(record, model.value))
                assert engine.keys() == reference.keys()
                for doc_id, got in engine.items():
                    assert got == pytest.approx(reference[doc_id], abs=1e-9)
        assert check.elapsed < 10.0


def _search_or_empty(index, query, model):
    try:
        return search(index, query, model)
    except EmptyQueryError:
        return []


def _check_against_oracle(data, tmp_path):
    """Every (query, model) list at the default ``top_k``: the oracle's exact
    ranked list, scores within 1e-9, the same results from a saved and reloaded
    index, and ``score`` equal under ``==`` to the first ten results' scores.
    The oracle rounds as the engine does, so its order is the ranked order:
    rounded score, then ascending doc id."""
    _, _, index, queries = _load(data)
    save_index(index, tmp_path / "ix")
    loaded = load_index(tmp_path / "ix")
    oracle = Oracle(data["taxonomy"], data["kb"], data["docs"])
    for record, query in zip(data["queries"], queries):
        for model in ALL_MODELS:
            results = _search_or_empty(index, query, model)
            expected = oracle.search(record, model.value)
            assert [r.doc_id for r in results] == [doc_id for doc_id, _ in expected]
            for result, (_, expected_score) in zip(results, expected):
                assert result.score == pytest.approx(expected_score, abs=1e-9)
            assert _search_or_empty(loaded, query, model) == results
            for doc_id, got in results[:10]:
                assert score(index, query, doc_id, model) == got


def test_ranked_order_matches_oracle_at_scale(tmp_path):
    """At 200 documents float rounding splits exact ties; the ranked order
    must still follow the rounded oracle scores, then ascending doc id, and
    a saved and reloaded index must rank identically."""
    _check_against_oracle(corpusgen.synthetic_dataset(seed=7, n_docs=200, n_queries=12), tmp_path)


def test_oracle_agrees_at_2k_documents(tmp_path):
    """Ten times the documents of the check above, with lists of up to 982
    results at seed 7: every list must still match the oracle's."""
    _check_against_oracle(corpusgen.synthetic_dataset(seed=7, n_docs=2000, n_queries=10), tmp_path)


@pytest.mark.scale
@pytest.mark.parametrize("seed", [5, 11])
def test_oracle_agrees_at_10k_documents(tmp_path, seed):
    """The 2k check at 10,000 documents; run with ``-m scale``."""
    _check_against_oracle(
        corpusgen.synthetic_dataset(seed=seed, n_docs=10_000, n_queries=10), tmp_path
    )


def test_criterion_3_reduction_identities():
    """Blended models collapse to the keyword cosine at alpha 0; without
    annotations the unified model is the keyword model."""
    with _criterion(3, "reduction identities"):
        data = corpusgen.synthetic_dataset(seed=1)
        _, _, index, queries = _load(data)
        oracle = Oracle(data["taxonomy"], data["kb"], data["docs"])
        config = ModelConfig(alpha=0.0)
        blended = (
            ModelKind.KW_AND_NE_O,
            ModelKind.KW_OR_NE_O,
            ModelKind.KW_AND_NE_N,
            ModelKind.KW_OR_NE_N,
        )
        for record, query in zip(data["queries"], queries):
            for model in blended:
                for doc_id in filter_documents(index, query, model):
                    assert score(index, query, doc_id, model, config) == pytest.approx(
                        oracle.keyword_cosine(record, doc_id), abs=1e-12
                    )

        stripped = dict(data)
        stripped["docs"] = [
            {"doc_id": d["doc_id"], "text": d["text"], "annotations": []}
            for d in data["docs"]
        ]
        _, _, bare_index, bare_queries = _load(stripped)
        for query in bare_queries:
            unified = search(bare_index, query, ModelKind.KW_PLUS_NE)
            keyword = search(bare_index, query, ModelKind.KW)
            assert [(r.doc_id, r.score) for r in unified] == [
                (r.doc_id, r.score) for r in keyword
            ]


def test_criterion_4_alias_matching(taxonomy, kb):
    """An entity query reaches a document that uses a different alias; the
    keyword model cannot."""
    with _criterion(4, "alias matching"):
        docs = [ingest_document(r, kb, taxonomy) for r in corpusgen.ALIAS_DOC_RECORDS]
        index = build_index(docs, kb, taxonomy)
        assert "saigon" not in tokenize(docs[0].text)

        entity_query = query_from_record(corpusgen.ALIAS_ENTITY_QUERY, kb, taxonomy)
        for model in NE_AWARE_MODELS:
            results = search(index, entity_query, model)
            assert [r.doc_id for r in results] == ["a1"]
            assert results[0].score > 0.0

        keyword_query = query_from_record(corpusgen.ALIAS_KEYWORD_QUERY, kb, taxonomy)
        assert search(index, keyword_query, ModelKind.KW) == []


def test_criterion_5_subclass_matching():
    """A class-level query reaches documents about a subclass entity whose
    class name never occurs as a token."""
    with _criterion(5, "subclass matching"):
        taxonomy = load_taxonomy(corpusgen.PERSON_TAXONOMY_RECORDS)
        kb = load_knowledge_base(corpusgen.PERSON_ENTITY_RECORDS, taxonomy)
        docs = [ingest_document(r, kb, taxonomy) for r in corpusgen.PERSON_DOC_RECORDS]
        index = build_index(docs, kb, taxonomy)
        assert "person" not in tokenize(docs[0].text)

        class_query = query_from_record(corpusgen.PERSON_CLASS_QUERY, kb, taxonomy)
        for model in NE_AWARE_MODELS:
            results = search(index, class_query, model)
            assert [r.doc_id for r in results] == ["s1"]
            assert results[0].score > 0.0

        keyword_query = query_from_record(corpusgen.PERSON_KEYWORD_QUERY, kb, taxonomy)
        assert search(index, keyword_query, ModelKind.KW) == []


def test_criterion_6_filter_set_laws():
    """Intersections nest within unions for every random query."""
    with _criterion(6, "filter set laws"):
        checked = 0
        for seed in (101, 202, 303, 404):
            data = corpusgen.synthetic_dataset(seed=seed, n_queries=25)
            _, _, index, queries = _load(data)
            for query in queries:
                sets = {m: filter_documents(index, query, m) for m in ALL_MODELS}
                assert sets[ModelKind.NE_O] <= sets[ModelKind.NE_N]
                assert sets[ModelKind.KW_AND_NE_O] <= sets[ModelKind.KW_OR_NE_O]
                assert sets[ModelKind.KW_AND_NE_N] <= sets[ModelKind.KW_OR_NE_N]
                checked += 1
        assert checked == 100


def test_criterion_7_evaluation_kernel():
    """The hand-worked curve comes out exactly, and F at recall 0 is always 0."""
    with _criterion(7, "evaluation kernel"):
        qrels = {"q1": {"r1": True, "n1": False, "r2": True}}
        points = pr_points("q1", ["r1", "n1", "r2"], qrels)
        assert interpolate_11pt(points) == (1.0,) * 6 + (2.0 / 3.0,) * 5
        assert f_measure(1.0, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-9)

        data = corpusgen.synthetic_dataset(seed=2)
        _, _, index, queries = _load(data)
        runs = {
            model.value: {
                q.query_id: [r.doc_id for r in search(index, q, model)] for q in queries
            }
            for model in ALL_MODELS
        }
        result = evaluate_runs(runs, data["qrels"])
        assert len(result.curves) == 8
        for curve in result.curves.values():
            assert curve.f_values[0] == 0.0


def test_criterion_8_comparison_table_shape(tmp_path):
    """The comparison pipeline emits 8 model rows by 11 recall columns, twice."""
    with _criterion(8, "comparison table shape"):
        data = corpusgen.synthetic_dataset(seed=4)
        _write_dataset(data, tmp_path)
        out_dir = tmp_path / "report"
        assert main(_compare_args(tmp_path, out_dir)) == 0

        for table in ("precision.csv", "f_measure.csv"):
            lines = (out_dir / table).read_text().splitlines()
            assert len(lines) == 9
            assert all(len(line.split(",")) == 12 for line in lines)
            assert {line.split(",")[0] for line in lines[1:]} == {
                m.value for m in ALL_MODELS
            }
        curve_files = sorted(p.name for p in (out_dir / "curves").glob("*.csv"))
        assert curve_files == sorted(f"{m.value}.csv" for m in ALL_MODELS)


def test_criterion_9_determinism_and_speed(tmp_path):
    """Two full pipeline runs finish inside a minute and agree byte for byte."""
    with _criterion(9, "determinism and speed") as check:
        data = corpusgen.synthetic_dataset(seed=5)
        _write_dataset(data, tmp_path)
        snapshots = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            assert main(_compare_args(tmp_path, out_dir)) == 0
            files = sorted(p.relative_to(out_dir) for p in out_dir.rglob("*") if p.is_file())
            assert files, "pipeline produced no output"
            snapshots.append({str(p): (out_dir / p).read_bytes() for p in files})
        assert snapshots[0] == snapshots[1]
        assert check.elapsed < 60.0
