"""Tokenization, document/query ingestion, and the gazetteer annotator."""
import pytest

import corpusgen
from conftest import write_jsonl
from ontovsm import corpus
from ontovsm.corpus import (
    Annotation,
    GazetteerAnnotator,
    annotation_from_record,
    annotation_to_record,
    document_record,
    ingest_document,
    load_corpus,
    load_queries,
    load_stopword_file,
    query_from_record,
    tokenize,
    tokenize_with_spans,
)
from ontovsm.errors import CorpusError
from ontovsm.ontology import load_knowledge_base, load_taxonomy


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
    path.write_text("The\n\nof\nStraße\n", encoding="utf-8")
    assert load_stopword_file(path) == {"the", "of", "strasse"}


@pytest.mark.parametrize("line", ["new york", "vietnam's", "_x"])
def test_stopword_file_rejects_non_token_line(tmp_path, line):
    # No token could ever equal such a line, so it would drop nothing.
    path = tmp_path / "stop.txt"
    path.write_text(f"the\n\n{line}\n", encoding="utf-8")
    with pytest.raises(CorpusError) as excinfo:
        load_stopword_file(path)
    assert f"line 3: stopword {line!r} is not a single token" in str(excinfo.value)


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


# Validation checks each distinct mention once; a record still fails on its
# first invalid annotation, whether that mention repeats or follows a repeated
# valid one.
REPEATED_MENTIONS = [
    pytest.param(
        {
            "doc_id": "x",
            "text": "Saigon Saigon",
            "annotations": [
                {"start": 0, "end": 6, "class": "Galaxy"},
                {"start": 7, "end": 13, "class": "Galaxy"},
            ],
        },
        "annotation names unknown class 'Galaxy'",
        id="repeated-invalid",
    ),
    pytest.param(
        {
            "doc_id": "x",
            "text": "Saigon Saigon Hanoi",
            "annotations": [
                {"start": 0, "end": 6, "name": "Saigon", "id": "e1"},
                {"start": 7, "end": 13, "name": "Saigon", "id": "e1"},
                {"start": 14, "end": 19, "name": "Hanoi", "id": "e1"},
            ],
        },
        "annotation name 'Hanoi' is not an alias of entity 'e1'",
        id="valid-then-invalid",
    ),
]


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

    @pytest.mark.parametrize("span", [(True, 6), (0, True), (False, 6)])
    def test_bool_span_offsets_rejected(self, kb, taxonomy, span):
        start, end = span
        record = {
            "doc_id": "x",
            "text": "Saigon",
            "annotations": [{"start": start, "end": end, "name": "Saigon"}],
        }
        with pytest.raises(CorpusError, match="span must be integers"):
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

    @pytest.mark.parametrize("record, message", REPEATED_MENTIONS)
    def test_repeated_mentions_fail_on_first_invalid(self, kb, taxonomy, record, message):
        with pytest.raises(CorpusError) as err:
            ingest_document(record, kb, taxonomy)
        assert str(err.value) == f"document 'x': {message}"

    def test_alias_match_is_case_insensitive(self, kb, taxonomy):
        record = {
            "doc_id": "x",
            "text": "SAIGON",
            "annotations": [{"start": 0, "end": 6, "name": "SAIGON", "id": "e1"}],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert doc.annotations[0].identifier == "e1"

    @pytest.mark.parametrize("value", ["abc", 3, None, [3], [{"name": "Saigon"}, "x"]], ids=repr)
    def test_annotations_must_be_list_of_objects(self, kb, taxonomy, value):
        record = {"doc_id": "x", "text": "Saigon", "annotations": value}
        with pytest.raises(CorpusError, match="annotations must be a list of objects"):
            ingest_document(record, kb, taxonomy)

    def test_annotation_record_errors_name_the_document(self, kb, taxonomy):
        record = {"doc_id": "x", "text": "Saigon", "annotations": [{"name": "x", "start": 0}]}
        with pytest.raises(CorpusError, match="^document 'x': annotation span needs both"):
            ingest_document(record, kb, taxonomy)

    def test_missing_doc_id(self, kb, taxonomy):
        with pytest.raises(CorpusError, match="doc_id"):
            ingest_document({"text": "x"}, kb, taxonomy)

    def test_record_round_trip(self, kb, taxonomy, un_docs):
        for doc in un_docs:
            again = ingest_document(
                document_record(doc.doc_id, doc.text, doc.annotations), kb, taxonomy
            )
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

    @pytest.mark.parametrize("value", ["abc", 3, None, [3]], ids=repr)
    def test_keywords_must_be_list_of_strings(self, kb, taxonomy, value):
        record = {"query_id": "q", "keywords": value, "entities": [{"id": "e1"}]}
        with pytest.raises(CorpusError, match="^query 'q' has a malformed keywords list"):
            query_from_record(record, kb, taxonomy)

    @pytest.mark.parametrize("value", ["abc", 3, None, [3], [{"class": "City"}, []]], ids=repr)
    def test_entities_must_be_list_of_objects(self, kb, taxonomy, value):
        record = {"query_id": "q", "keywords": ["x"], "entities": value}
        with pytest.raises(CorpusError, match="^query 'q': entities must be a list of objects"):
            query_from_record(record, kb, taxonomy)

    def test_entity_record_errors_name_the_query(self, kb, taxonomy):
        record = {"query_id": "q", "keywords": [], "entities": [{"class": ""}]}
        with pytest.raises(CorpusError, match="^query 'q': annotation field must be"):
            query_from_record(record, kb, taxonomy)

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
            list(load_corpus(path, kb, taxonomy))

    def test_error_carries_record_number(self, tmp_path, kb, taxonomy):
        records = [corpusgen.CITY_DOC_RECORDS[2], {"doc_id": "bad", "text": 7}]
        path = write_jsonl(tmp_path / "corpus.jsonl", records)
        with pytest.raises(CorpusError, match="record 2"):
            list(load_corpus(path, kb, taxonomy))

    def test_first_fault_in_file_order_is_reported(self, tmp_path, kb, taxonomy):
        # A bad record comes before a line that is not JSON.
        path = write_jsonl(tmp_path / "corpus.jsonl", [{"doc_id": "bad", "text": 7}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json\n")
        with pytest.raises(CorpusError, match="record 1"):
            list(load_corpus(path, kb, taxonomy))

    @pytest.mark.parametrize("record, message", REPEATED_MENTIONS)
    def test_repeated_mentions_fail_with_record_number(
        self, tmp_path, kb, taxonomy, record, message
    ):
        path = write_jsonl(tmp_path / "corpus.jsonl", [corpusgen.CITY_DOC_RECORDS[2], record])
        with pytest.raises(CorpusError) as err:
            list(load_corpus(path, kb, taxonomy))
        assert str(err.value) == f"{path}, record 2: document 'x': {message}"

    @pytest.fixture
    def validated(self, monkeypatch):
        """The (name, class, id) of every ``validate_annotation`` call, in order."""
        calls = []
        real = corpus.validate_annotation

        def counting(a, kb, taxonomy):
            calls.append((a.name, a.class_id, a.identifier))
            real(a, kb, taxonomy)

        monkeypatch.setattr(corpus, "validate_annotation", counting)
        return calls

    def test_one_validation_per_distinct_mention_per_load(
        self, tmp_path, kb, taxonomy, validated
    ):
        valid = {"start": 0, "end": 6, "name": "Saigon", "id": "e1"}
        invalid = {"start": 0, "end": 6, "name": "Saigon", "id": "e99"}
        records = [
            {"doc_id": "d1", "text": "Saigon", "annotations": [valid]},
            {"doc_id": "d2", "text": "Saigon", "annotations": [valid]},
            {
                "doc_id": "d3",
                "text": "Saigon Saigon",
                "annotations": [invalid, dict(invalid, start=7, end=13)],
            },
        ]
        path = write_jsonl(tmp_path / "corpus.jsonl", records[:2])
        assert len(list(load_corpus(path, kb, taxonomy))) == 2
        assert validated == [("Saigon", None, "e1")]
        validated.clear()
        path = write_jsonl(tmp_path / "corpus.jsonl", records)
        with pytest.raises(CorpusError) as err:
            list(load_corpus(path, kb, taxonomy))
        assert str(err.value) == (
            f"{path}, record 3: document 'd3': annotation names unknown entity 'e99'"
        )
        assert validated == [("Saigon", None, "e1"), ("Saigon", None, "e99")]

    def test_queries_validate_each_distinct_mention_once(self, tmp_path, kb, taxonomy, validated):
        second = dict(corpusgen.UN_QUERY_RECORD, query_id="q2")
        path = write_jsonl(tmp_path / "queries.jsonl", [corpusgen.UN_QUERY_RECORD, second])
        assert len(load_queries(path, kb, taxonomy)) == 2
        assert validated == [
            (None, "Country", None),
            ("United Nations", "InternationalOrganization", "e4"),
        ]

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
        annotations = GazetteerAnnotator(kb).annotate("Saigon River flows")
        assert len(annotations) == 1
        a = annotations[0]
        assert (a.name, a.class_id, a.identifier) == ("Saigon River", "River", "e2")
        assert (a.start, a.end) == (0, 12)

    def test_ambiguous_alias_gives_name_only(self, kb):
        annotations = GazetteerAnnotator(kb).annotate("Saigon is growing")
        assert len(annotations) == 1
        a = annotations[0]
        assert a.name == "Saigon"
        assert a.class_id is None and a.identifier is None

    def test_unambiguous_alias_fills_class_and_id(self, kb):
        annotations = GazetteerAnnotator(kb).annotate("visit Ho Chi Minh City")
        assert len(annotations) == 1
        a = annotations[0]
        assert (a.class_id, a.identifier) == ("City", "e1")

    def test_case_insensitive(self, kb):
        annotations = GazetteerAnnotator(kb).annotate("THE UNITED NATIONS")
        assert annotations[0].identifier == "e4"
        assert annotations[0].name == "United Nations"

    def test_no_matches(self, kb):
        assert GazetteerAnnotator(kb).annotate("nothing to see here") == []

    def test_matches_do_not_overlap(self, kb):
        # After "Saigon River" is consumed, scanning resumes at "flows".
        annotations = GazetteerAnnotator(kb).annotate("Saigon River Saigon")
        assert [(a.start, a.end) for a in annotations] == [(0, 12), (13, 19)]
        assert annotations[0].identifier == "e2"
        assert annotations[1].identifier is None

    def test_spans_index_original_text(self, kb):
        text = "in Vietnam, the UN convened"
        annotations = GazetteerAnnotator(kb).annotate(text)
        assert [text[a.start : a.end] for a in annotations] == ["Vietnam", "UN"]

    def test_output_ingests_cleanly(self, kb, taxonomy):
        text = "the Saigon River meets Ho Chi Minh City"
        record = {
            "doc_id": "g1",
            "text": text,
            "annotations": [annotation_to_record(a) for a in GazetteerAnnotator(kb).annotate(text)],
        }
        doc = ingest_document(record, kb, taxonomy)
        assert len(doc.annotations) == 2
        assert doc.keyword_tokens == ("the", "meets")

    def test_alias_spellings_and_sharing(self):
        # e1's first two aliases tokenize alike, so the first spelling names
        # them; "saigon" is shared three ways under case folding, and "!!!"
        # has no token to match.
        taxonomy = load_taxonomy([{"class": "City"}, {"class": "River"}])
        kb = load_knowledge_base(
            [
                {
                    "id": "e1",
                    "class": "City",
                    "names": ["Ho Chi Minh City", "Ho-Chi-Minh City", "Saigon"],
                },
                {"id": "e2", "class": "River", "names": ["SAIGON", "!!!"]},
                {"id": "e3", "class": "City", "names": ["saigon"]},
            ],
            taxonomy,
        )
        annotations = GazetteerAnnotator(kb).annotate("ho-chi-minh city and Saigon and !!!")
        assert annotations == [
            ("Ho Chi Minh City", "City", "e1", 0, 16),
            ("Saigon", None, None, 21, 27),
        ]

    def test_reusable_annotator(self, kb):
        annotator = GazetteerAnnotator(kb)
        assert annotator.annotate("Vietnam")[0].identifier == "e5"
        assert annotator.annotate("Hanoi University of Technology")[0].identifier == "e3"


def test_annotation_has_span_property():
    assert Annotation(name="x", start=0, end=1).has_span
    assert not Annotation(name="x").has_span
