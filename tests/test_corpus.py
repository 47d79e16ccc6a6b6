"""Tokenization, document/query ingestion, and the gazetteer annotator."""
import pytest

import corpusgen
from conftest import write_jsonl
from ontovsm.corpus import (
    Annotation,
    GazetteerAnnotator,
    annotation_from_record,
    annotation_to_record,
    document_to_record,
    gazetteer_annotate,
    ingest_document,
    load_corpus,
    load_queries,
    load_stopword_file,
    query_from_record,
    tokenize,
    tokenize_with_spans,
)
from ontovsm.errors import CorpusError


class TestTokenize:
    def test_case_folding(self):
        assert tokenize("Ho Chi Minh CITY") == ["ho", "chi", "minh", "city"]

    def test_punctuation_splits(self):
        assert tokenize("rivers, cities; towns.") == ["rivers", "cities", "towns"]

    def test_underscore_splits(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("route 66") == ["route", "66"]

    def test_empty(self):
        assert tokenize("") == []
        assert tokenize("...") == []

    def test_stopwords_removed(self):
        assert tokenize("the river flows", {"the"}) == ["river", "flows"]

    def test_spans(self):
        assert tokenize_with_spans("the Saigon") == [("the", 0, 3), ("saigon", 4, 10)]

    def test_no_stemming(self):
        assert tokenize("growing cities") == ["growing", "cities"]


def test_stopword_file(tmp_path):
    path = tmp_path / "stop.txt"
    path.write_text("The\n\nof\n")
    assert load_stopword_file(path) == {"the", "of"}


class TestAnnotationRecords:
    def test_star_means_unspecified(self):
        a = annotation_from_record({"name": "*", "class": "City", "id": "*"})
        assert a.name is None and a.identifier is None
        assert a.class_id == "City"

    def test_missing_means_unspecified(self):
        a = annotation_from_record({"class": "City"})
        assert a.name is None and a.identifier is None

    def test_span_needs_both_ends(self):
        with pytest.raises(CorpusError, match="both start and end"):
            annotation_from_record({"name": "x", "start": 0})

    def test_empty_string_rejected(self):
        with pytest.raises(CorpusError):
            annotation_from_record({"name": ""})

    def test_round_trip(self):
        record = {"start": 3, "end": 9, "name": "Saigon", "class": "City", "id": "e1"}
        assert annotation_to_record(annotation_from_record(record)) == record


class TestIngestDocument:
    def test_keywords_exclude_annotated_spans(self, kb, taxonomy):
        doc = ingest_document(corpusgen.CITY_DOC_RECORDS[0], kb, taxonomy)
        assert doc.keyword_tokens == ("is", "growing", "fast")

    def test_partially_covered_token_excluded(self, kb, taxonomy):
        # The span cuts into "Saigon"; a partly annotated token is not a keyword.
        record = {
            "doc_id": "x",
            "text": "Saigon flows",
            "annotations": [{"start": 0, "end": 3, "name": "Sai"}],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert doc.keyword_tokens == ("flows",)
        # Spans are half-open: "flows" ends where the gap span starts and
        # "into" starts where it ends, so both stay keywords; the last span
        # cuts into both "Hanoi" and "and".
        record = {
            "doc_id": "y",
            "text": "Saigon flows into Hanoi and Paris",
            "annotations": [
                {"start": 20, "end": 26, "name": "noi an"},
                {"start": 0, "end": 3, "name": "Sai"},
                {"start": 12, "end": 13, "name": "gap"},
            ],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert doc.keyword_tokens == ("flows", "into", "paris")

    def test_no_annotations(self, kb, taxonomy):
        doc = ingest_document(corpusgen.CITY_DOC_RECORDS[2], kb, taxonomy)
        assert doc.annotations == ()
        assert doc.keyword_tokens == ("growing", "cities")

    def test_stopwords_applied(self, kb, taxonomy):
        doc = ingest_document(corpusgen.CITY_DOC_RECORDS[1], kb, taxonomy, {"the"})
        assert doc.keyword_tokens == ("flows",)

    def test_annotations_sorted_by_span(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Vietnam and the United Nations",
            "annotations": [
                {"start": 16, "end": 30, "name": "United Nations"},
                {"start": 0, "end": 7, "name": "Vietnam"},
            ],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert [a.start for a in doc.annotations] == [0, 16]

    def test_overlapping_spans_rejected(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Saigon River",
            "annotations": [
                {"start": 0, "end": 12, "name": "Saigon River"},
                {"start": 7, "end": 12, "name": "River"},
            ],
        }
        with pytest.raises(CorpusError, match="overlapping"):
            ingest_document(record, kb, taxonomy)

    def test_span_out_of_bounds(self, kb, taxonomy):
        record = {"doc_id": "x", "text": "short", "annotations": [{"start": 0, "end": 99, "name": "s"}]}
        with pytest.raises(CorpusError, match="out of bounds"):
            ingest_document(record, kb, taxonomy)

    def test_span_required_on_documents(self, kb, taxonomy):
        record = {"doc_id": "x", "text": "Saigon", "annotations": [{"name": "Saigon"}]}
        with pytest.raises(CorpusError, match="span"):
            ingest_document(record, kb, taxonomy)

    def test_featureless_annotation_rejected(self, kb, taxonomy):
        record = {"doc_id": "x", "text": "Saigon", "annotations": [{"start": 0, "end": 6}]}
        with pytest.raises(CorpusError, match="neither"):
            ingest_document(record, kb, taxonomy)

    def test_unknown_class_rejected(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Saigon",
            "annotations": [{"start": 0, "end": 6, "class": "Galaxy"}],
        }
        with pytest.raises(CorpusError, match="Galaxy"):
            ingest_document(record, kb, taxonomy)

    def test_unknown_entity_rejected(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Saigon",
            "annotations": [{"start": 0, "end": 6, "id": "e99"}],
        }
        with pytest.raises(CorpusError, match="e99"):
            ingest_document(record, kb, taxonomy)

    def test_class_contradicting_entity_rejected(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Saigon",
            "annotations": [{"start": 0, "end": 6, "class": "River", "id": "e1"}],
        }
        with pytest.raises(CorpusError, match="contradicts"):
            ingest_document(record, kb, taxonomy)

    def test_name_not_an_alias_rejected(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "Hanoi",
            "annotations": [{"start": 0, "end": 5, "name": "Hanoi", "id": "e1"}],
        }
        with pytest.raises(CorpusError, match="alias"):
            ingest_document(record, kb, taxonomy)

    def test_alias_match_is_case_insensitive(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "SAIGON",
            "annotations": [{"start": 0, "end": 6, "name": "SAIGON", "id": "e1"}],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert doc.annotations[0].identifier == "e1"

    def test_missing_doc_id(self, kb, taxonomy):
        with pytest.raises(CorpusError, match="doc_id"):
            ingest_document({"text": "x"}, kb, taxonomy)

    def test_record_round_trip(self, kb, taxonomy, un_docs):
        for doc in un_docs:
            again = ingest_document(document_to_record(doc), kb, taxonomy)
            assert again == doc


class TestQueries:
    def test_keywords_tokenized(self, kb, taxonomy):
        q = query_from_record(
            {"query_id": "q", "keywords": ["United Nations", "JOINED"], "entities": []},
            kb,
            taxonomy,
        )
        assert q.keywords == ("united", "nations", "joined")

    def test_entities_validated(self, kb, taxonomy):
        record = {"query_id": "q", "keywords": [], "entities": [{"id": "e99"}]}
        with pytest.raises(CorpusError, match="e99"):
            query_from_record(record, kb, taxonomy)

    def test_spans_forbidden(self, kb, taxonomy):
        record = {
            "query_id": "q",
            "keywords": [],
            "entities": [{"start": 0, "end": 6, "name": "Saigon"}],
        }
        with pytest.raises(CorpusError, match="span"):
            query_from_record(record, kb, taxonomy)

    def test_empty_query_rejected(self, kb, taxonomy):
        with pytest.raises(CorpusError, match="neither"):
            query_from_record({"query_id": "q", "keywords": [], "entities": []}, kb, taxonomy)

    def test_stopword_only_keywords_leave_entities(self, kb, taxonomy):
        record = {"query_id": "q", "keywords": ["the"], "entities": [{"class": "City"}]}
        q = query_from_record(record, kb, taxonomy, {"the"})
        assert q.keywords == ()
        assert len(q.annotations) == 1

    def test_missing_query_id(self, kb, taxonomy):
        with pytest.raises(CorpusError, match="query_id"):
            query_from_record({"keywords": ["x"]}, kb, taxonomy)


class TestFileLoading:
    def test_load_corpus(self, tmp_path, kb, taxonomy):
        path = write_jsonl(tmp_path / "corpus.jsonl", corpusgen.CITY_DOC_RECORDS)
        docs = load_corpus(path, kb, taxonomy)
        assert [d.doc_id for d in docs] == ["d1", "d2", "d3"]

    def test_duplicate_doc_id(self, tmp_path, kb, taxonomy):
        records = [corpusgen.CITY_DOC_RECORDS[2], corpusgen.CITY_DOC_RECORDS[2]]
        path = write_jsonl(tmp_path / "corpus.jsonl", records)
        with pytest.raises(CorpusError, match="d3"):
            load_corpus(path, kb, taxonomy)

    def test_error_carries_record_number(self, tmp_path, kb, taxonomy):
        records = [corpusgen.CITY_DOC_RECORDS[2], {"doc_id": "bad", "text": 7}]
        path = write_jsonl(tmp_path / "corpus.jsonl", records)
        with pytest.raises(CorpusError, match="record 2"):
            load_corpus(path, kb, taxonomy)

    def test_load_queries(self, tmp_path, kb, taxonomy):
        path = write_jsonl(tmp_path / "queries.jsonl", [corpusgen.UN_QUERY_RECORD])
        queries = load_queries(path, kb, taxonomy)
        assert queries[0].query_id == "q1"
        assert queries[0].keywords == ("joined", "newly")

    def test_duplicate_query_id(self, tmp_path, kb, taxonomy):
        path = write_jsonl(
            tmp_path / "queries.jsonl", [corpusgen.UN_QUERY_RECORD, corpusgen.UN_QUERY_RECORD]
        )
        with pytest.raises(CorpusError, match="q1"):
            load_queries(path, kb, taxonomy)


class TestGazetteer:
    def test_longest_match_wins(self, kb):
        annotations = gazetteer_annotate("Saigon River flows", kb)
        assert len(annotations) == 1
        a = annotations[0]
        assert (a.name, a.class_id, a.identifier) == ("Saigon River", "River", "e2")
        assert (a.start, a.end) == (0, 12)

    def test_ambiguous_alias_gives_name_only(self, kb):
        annotations = gazetteer_annotate("Saigon is growing", kb)
        assert len(annotations) == 1
        a = annotations[0]
        assert a.name == "Saigon"
        assert a.class_id is None and a.identifier is None

    def test_unambiguous_alias_fills_class_and_id(self, kb):
        annotations = gazetteer_annotate("visit Ho Chi Minh City", kb)
        assert len(annotations) == 1
        a = annotations[0]
        assert (a.class_id, a.identifier) == ("City", "e1")

    def test_case_insensitive(self, kb):
        annotations = gazetteer_annotate("THE UNITED NATIONS", kb)
        assert annotations[0].identifier == "e4"
        assert annotations[0].name == "United Nations"

    def test_no_matches(self, kb):
        assert gazetteer_annotate("nothing to see here", kb) == []

    def test_matches_do_not_overlap(self, kb):
        # After "Saigon River" is consumed, scanning resumes at "flows".
        annotations = gazetteer_annotate("Saigon River Saigon", kb)
        assert [(a.start, a.end) for a in annotations] == [(0, 12), (13, 19)]
        assert annotations[0].identifier == "e2"
        assert annotations[1].identifier is None

    def test_spans_index_original_text(self, kb):
        text = "in Vietnam, the UN convened"
        annotations = gazetteer_annotate(text, kb)
        assert [text[a.start : a.end] for a in annotations] == ["Vietnam", "UN"]

    def test_output_ingests_cleanly(self, kb, taxonomy):
        text = "the Saigon River meets Ho Chi Minh City"
        record = {
            "doc_id": "g1",
            "text": text,
            "annotations": [annotation_to_record(a) for a in gazetteer_annotate(text, kb)],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert len(doc.annotations) == 2
        assert doc.keyword_tokens == ("the", "meets")

    def test_reusable_annotator(self, kb):
        annotator = GazetteerAnnotator(kb)
        assert annotator.annotate("Vietnam")[0].identifier == "e5"
        assert annotator.annotate("Hanoi University of Technology")[0].identifier == "e3"


def test_annotation_has_span_property():
    assert Annotation(name="x", start=0, end=1).has_span
    assert not Annotation(name="x").has_span
