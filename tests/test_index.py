"""Index construction, statistics, persistence, and dumping."""
import io
import math

import pytest

import corpusgen
from ontovsm.corpus import ingest_document
from ontovsm.errors import IndexFormatError
from ontovsm.index import build_index, dump_index, load_index, save_index
from ontovsm.termspace import class_term, identifier_term, keyword_term, name_term

LN4 = math.log(4.0)
LN2_5 = math.log(2.5)


class TestBuild:
    def test_doc_count(self, city_index):
        assert city_index.n_docs == 3
        assert city_index.doc_ids == ["d1", "d2", "d3"]

    def test_term_counts_per_space(self, city_index):
        assert city_index.term_count("N") == 4
        assert city_index.term_count("C") == 3
        assert city_index.term_count("NC") == 9
        assert city_index.term_count("I") == 2
        assert city_index.term_count("KW") == 6
        assert city_index.term_count("KW_FULL") == 12
        assert city_index.term_count("UNIFIED") == 24

    def test_document_frequencies(self, city_index):
        assert city_index.df(class_term("Location")) == 2
        assert city_index.df(name_term("Saigon")) == 2
        assert city_index.df(keyword_term("growing")) == 2
        assert city_index.df(identifier_term("e1")) == 1

    def test_unseen_term(self, city_index):
        assert city_index.df(keyword_term("paris")) == 0
        assert city_index.idf(keyword_term("paris")) == 0.0

    def test_idf_formula(self, city_index):
        # ln(1 + 3/2) for df=2, ln(1 + 3/1) for df=1.
        assert city_index.idf(class_term("Location")) == pytest.approx(LN2_5)
        assert city_index.idf(identifier_term("e1")) == pytest.approx(LN4)

    def test_full_keyword_space_sees_annotated_tokens(self, city_index):
        # "city" occurs only inside an annotation span; the partitioned
        # keyword space never sees it, the full-text space does.
        assert city_index.df(keyword_term("city"), "KW") == 0
        assert city_index.df(keyword_term("city"), "KW_FULL") == 1
        assert city_index.df(keyword_term("saigon"), "KW") == 0
        assert city_index.df(keyword_term("saigon"), "KW_FULL") == 1

    def test_postings(self, city_index):
        assert city_index.postings(name_term("Saigon")) == {"d1": 1, "d2": 1}
        assert set(city_index.postings(keyword_term("growing"))) == {"d1", "d3"}
        assert city_index.postings(keyword_term("paris")) == {}

    def test_terms_sorted(self, city_index):
        for space in ("N", "C", "NC", "I", "KW", "KW_FULL"):
            terms = city_index.terms(space)
            assert terms == sorted(terms)


class TestDocVectors:
    def test_identifier_vector(self, city_index):
        assert city_index.doc_vector("d1", "I") == {identifier_term("e1"): pytest.approx(LN4)}

    def test_empty_vector_for_unannotated_doc(self, city_index):
        assert city_index.doc_vector("d3", "I") == {}
        assert city_index.doc_vector("d3", "N") == {}

    def test_class_vector(self, city_index):
        vec = city_index.doc_vector("d1", "C")
        assert set(vec) == {class_term("City"), class_term("Location")}
        assert vec[class_term("City")] == pytest.approx(LN4)
        assert vec[class_term("Location")] == pytest.approx(LN2_5)

    def test_unified_merges_partitioned_spaces(self, city_index):
        unified = city_index.doc_vector("d1", "UNIFIED")
        for space in ("N", "C", "NC", "I", "KW"):
            for term, weight in city_index.doc_vector("d1", space).items():
                assert unified[term] == weight
        assert len(unified) == sum(
            len(city_index.doc_vector("d1", s)) for s in ("N", "C", "NC", "I", "KW")
        )

    def test_full_vector_covers_whole_text(self, city_index):
        assert len(city_index.doc_vector("d1", "KW_FULL")) == 7

    def test_unknown_doc(self, city_index):
        with pytest.raises(KeyError):
            city_index.doc_vector("d9", "N")

    def test_unknown_space(self, city_index):
        with pytest.raises(ValueError):
            city_index.doc_vector("d1", "XX")
        with pytest.raises(ValueError):
            city_index.term_count("XX")


class TestPersistence:
    def test_round_trip_statistics(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        assert loaded.doc_ids == city_index.doc_ids
        assert loaded.stopwords == city_index.stopwords
        for space in ("N", "C", "NC", "I", "KW", "KW_FULL"):
            assert loaded.terms(space) == city_index.terms(space)
            for term in loaded.terms(space):
                assert loaded.postings(term, space) == city_index.postings(term, space)

    def test_round_trip_vectors_bit_identical(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        for doc_id in city_index.doc_ids:
            for space in ("N", "C", "NC", "I", "KW", "KW_FULL", "UNIFIED"):
                assert loaded.doc_vector(doc_id, space) == city_index.doc_vector(doc_id, space)

    def test_round_trip_preserves_kb(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        assert loaded.kb.resolve("e4").canonical_name == "United Nations"
        assert loaded.taxonomy.ancestors("City") == {"City", "Location"}

    def test_save_load_save_byte_identical(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "a")
        save_index(load_index(tmp_path / "a"), tmp_path / "b")
        for name in ("stats.json", "terms.jsonl", "postings.jsonl", "taxonomy.jsonl", "kb.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stopwords_round_trip(self, tmp_path, kb, taxonomy):
        docs = [
            ingest_document(r, kb, taxonomy, {"the"}) for r in corpusgen.CITY_DOC_RECORDS
        ]
        index = build_index(docs, kb, taxonomy, {"the"})
        assert index.df(keyword_term("the"), "KW") == 0
        assert index.df(keyword_term("the"), "KW_FULL") == 0
        save_index(index, tmp_path / "ix")
        assert load_index(tmp_path / "ix").stopwords == {"the"}

    def test_missing_directory(self, tmp_path):
        with pytest.raises(IndexFormatError, match="stats.json"):
            load_index(tmp_path / "nope")

    def test_wrong_format_marker(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        stats = tmp_path / "ix" / "stats.json"
        stats.write_text(stats.read_text().replace("ontovsm-index", "something-else"))
        with pytest.raises(IndexFormatError, match="not a"):
            load_index(tmp_path / "ix")

    def test_unsupported_version(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        stats = tmp_path / "ix" / "stats.json"
        stats.write_text(stats.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(tmp_path / "ix")

    def test_posting_with_unknown_term_id(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        with open(tmp_path / "ix" / "postings.jsonl", "a", encoding="utf-8") as fh:
            fh.write('{"tid": 9999, "postings": [["d1", 1]]}\n')
        with pytest.raises(IndexFormatError, match="malformed posting"):
            load_index(tmp_path / "ix")

    def test_posting_with_unknown_doc(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "postings.jsonl"
        path.write_text(path.read_text().replace('"d1"', '"d9"'))
        with pytest.raises(IndexFormatError, match="unknown document"):
            load_index(tmp_path / "ix")

    def test_corrupt_stats_json(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        (tmp_path / "ix" / "stats.json").write_text("{broken")
        with pytest.raises(IndexFormatError):
            load_index(tmp_path / "ix")


class TestDump:
    def test_dump_lists_partitioned_spaces(self, city_index):
        out = io.StringIO()
        dump_index(city_index, out)
        text = out.getvalue()
        assert "documents: 3" in text
        assert "space N: 4 terms" in text
        assert "space KW: 6 terms" in text
        assert "N:saigon  df=2  d1:1 d2:1" in text
        assert "I:e1  df=1  d1:1" in text
