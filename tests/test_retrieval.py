"""Filtering, scoring, ranking, and run file output for the eight models."""
import dataclasses
import io
import math

import pytest

import corpusgen
from conftest import round_canonical
from oracle import Oracle
from ontovsm import retrieval
from ontovsm.corpus import Annotation, Query, ingest_document, query_from_record
from ontovsm.errors import ConfigError, EmptyQueryError
from ontovsm.evaluation import write_run_file
from ontovsm.index import build_index, load_index, save_index
from ontovsm.ontology import load_knowledge_base, load_taxonomy
from ontovsm.retrieval import (
    ALL_MODELS,
    SCORE_DECIMALS,
    ModelConfig,
    ModelKind,
    RankedResult,
    filter_documents,
    rank,
    score,
    search,
)
from ontovsm.termspace import keyword_term, query_terms

SQRT2 = math.sqrt(2.0)
# All entity terms of the three-document fixture have df=2, so every idf
# cancels out of the cosines and the per-space values are pure geometry.
EQ1_D1 = 0.25 * (0.5 + 1 / SQRT2 + 1 / math.sqrt(8.0) + 1 / SQRT2)
EQ1_D2 = 0.25 * (1 / SQRT2 + 0.5 + 0.5 + 1.0)


def entity_only_query():
    return Query("qe", (), (Annotation(identifier="e4"),))


def keyword_only_query():
    return Query("qk", ("joined",), ())


class TestModelKind:
    def test_parse_by_cli_name(self):
        assert ModelKind("kw") is ModelKind.KW
        assert ModelKind("kw-or-ne-n") is ModelKind.KW_OR_NE_N
        with pytest.raises(ValueError):
            ModelKind("tfidf")

    def test_all_models_complete(self):
        assert len(ALL_MODELS) == 8
        assert len(set(ALL_MODELS)) == 8

    def test_flags(self):
        assert ModelKind.NE_O.overlapped and not ModelKind.NE_N.overlapped
        assert not ModelKind.KW_PLUS_NE.overlapped
        assert ModelKind.KW_AND_NE_O.conjunctive
        assert not ModelKind.KW_OR_NE_O.conjunctive


class TestModelConfig:
    def test_defaults_valid(self):
        config = ModelConfig()
        assert config.alpha == 0.5
        assert sum(config.space_weights.values()) == 1.0

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigError, match="sum"):
            ModelConfig(w_n=0.5, w_c=0.5, w_nc=0.5, w_i=0.5)

    def test_tiny_imbalance_tolerated(self):
        ModelConfig(w_n=0.25 + 1e-12, w_c=0.25, w_nc=0.25, w_i=0.25)

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            ModelConfig(w_n=-0.5, w_c=0.5, w_nc=0.5, w_i=0.5)

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError, match="alpha"):
            ModelConfig(alpha=1.5)
        with pytest.raises(ConfigError, match="alpha"):
            ModelConfig(alpha=-0.1)
        ModelConfig(alpha=0.0)
        ModelConfig(alpha=1.0)


class TestFilter:
    def test_entity_intersection(self, un_index, un_query):
        assert filter_documents(un_index, un_query, ModelKind.NE_O) == {"d1", "d2"}

    def test_entity_union(self, un_index, un_query):
        assert filter_documents(un_index, un_query, ModelKind.NE_N) == {"d1", "d2", "d3"}

    def test_intersection_within_union(self, un_index, un_query):
        assert filter_documents(un_index, un_query, ModelKind.NE_O) <= filter_documents(
            un_index, un_query, ModelKind.NE_N
        )

    def test_keyword_filter_uses_full_text(self, un_index, un_query):
        # "joined" matches d1 only; "newly" matches nothing.
        assert filter_documents(un_index, un_query, ModelKind.KW) == {"d1"}

    def test_keyword_filter_no_matches(self, city_index, kb, taxonomy):
        q = query_from_record({"query_id": "q", "keywords": ["paris"]}, kb, taxonomy)
        assert filter_documents(city_index, q, ModelKind.KW) == set()

    def test_combined_intersection_and_union(self, un_index, un_query):
        assert filter_documents(un_index, un_query, ModelKind.KW_AND_NE_O) == {"d1"}
        assert filter_documents(un_index, un_query, ModelKind.KW_OR_NE_O) == {"d1", "d2"}
        assert filter_documents(un_index, un_query, ModelKind.KW_AND_NE_N) == {"d1"}
        assert filter_documents(un_index, un_query, ModelKind.KW_OR_NE_N) == {"d1", "d2", "d3"}

    def test_combined_keyword_side_is_partitioned(self, city_index, kb, taxonomy):
        # "city" only occurs inside an annotation, so the combined models'
        # keyword side cannot see it while the full-text baseline can.
        record = {"query_id": "q", "keywords": ["city"], "entities": [{"class": "City"}]}
        q = query_from_record(record, kb, taxonomy)
        assert filter_documents(city_index, q, ModelKind.KW) == {"d1"}
        assert filter_documents(city_index, q, ModelKind.KW_AND_NE_O) == set()
        assert filter_documents(city_index, q, ModelKind.KW_OR_NE_O) == {"d1"}

    def test_unpopulated_side_drops_out(self, un_index):
        # No keywords: the conjunction must not be emptied by the absent side.
        ne = filter_documents(un_index, entity_only_query(), ModelKind.NE_O)
        assert filter_documents(un_index, entity_only_query(), ModelKind.KW_AND_NE_O) == ne
        assert filter_documents(un_index, entity_only_query(), ModelKind.KW_OR_NE_O) == ne
        kw = {"d1"}
        assert filter_documents(un_index, keyword_only_query(), ModelKind.KW_AND_NE_N) == kw
        assert filter_documents(un_index, keyword_only_query(), ModelKind.KW_OR_NE_N) == kw

    def test_unified_filter_unions_home_spaces(self, un_index, un_query):
        assert filter_documents(un_index, un_query, ModelKind.KW_PLUS_NE) == {"d1", "d2", "d3"}

    def test_empty_query_errors(self, un_index):
        with pytest.raises(EmptyQueryError, match="keyword"):
            filter_documents(un_index, entity_only_query(), ModelKind.KW)
        for model in (ModelKind.NE_O, ModelKind.NE_N):
            with pytest.raises(EmptyQueryError, match="annotation"):
                filter_documents(un_index, keyword_only_query(), model)
        bare = Query("q0", (), ())
        for model in (ModelKind.KW_AND_NE_O, ModelKind.KW_OR_NE_N, ModelKind.KW_PLUS_NE):
            with pytest.raises(EmptyQueryError):
                filter_documents(un_index, bare, model)


class TestScore:
    def test_entity_score_matches_hand_geometry(self, un_index, un_query):
        assert score(un_index, un_query, "d1", ModelKind.NE_O) == pytest.approx(
            EQ1_D1, abs=1e-12
        )
        assert score(un_index, un_query, "d2", ModelKind.NE_O) == pytest.approx(
            EQ1_D2, abs=1e-12
        )

    def test_identical_keyword_profile_scores_one(self, city_index, kb, taxonomy):
        q = query_from_record(
            {"query_id": "q", "keywords": ["growing", "cities"]}, kb, taxonomy
        )
        assert score(city_index, q, "d3", ModelKind.KW) == pytest.approx(1.0, abs=1e-12)

    def test_single_space_match_earns_its_weight(self, un_index):
        # The query matches d2 only in the identifier space; cos=1 there.
        q = Query("q", (), (Annotation(identifier="e4"),))
        assert score(un_index, q, "d2", ModelKind.NE_N) == pytest.approx(0.25, abs=1e-12)

    def test_proportional_vectors_score_one(self, kb, taxonomy):
        record = {
            "doc_id": "solo",
            "text": "United Nations",
            "annotations": [{"start": 0, "end": 14, "id": "e4"}],
        }
        index = build_index([ingest_document(record, kb, taxonomy)], kb, taxonomy)
        q = Query("q", (), (Annotation(identifier="e4"),))
        # Overlapped terms align with the expanded document in all four spaces
        # except N and NC, where the document carries both aliases.
        assert score(index, q, "solo", ModelKind.NE_O) <= 1.0
        assert score(index, q, "solo", ModelKind.NE_O) == pytest.approx(
            0.25 * (1 / SQRT2 + 1 / SQRT2 + 0.5 + 1.0), abs=1e-12
        )

    def test_alpha_zero_reduces_to_keyword_cosine(self, un_index, un_query):
        config = ModelConfig(alpha=0.0)
        ln4, ln2_5 = math.log(4.0), math.log(2.5)
        expected_d1 = ln4 / math.sqrt(ln4 * ln4 + ln2_5 * ln2_5)
        for model in (ModelKind.KW_AND_NE_O, ModelKind.KW_OR_NE_N):
            assert score(un_index, un_query, "d1", model, config) == pytest.approx(
                expected_d1, abs=1e-12
            )
            assert score(un_index, un_query, "d2", model, config) == 0.0

    def test_alpha_one_reduces_to_entity_score(self, un_index, un_query):
        config = ModelConfig(alpha=1.0)
        assert score(un_index, un_query, "d1", ModelKind.KW_AND_NE_O, config) == score(
            un_index, un_query, "d1", ModelKind.NE_O
        )

    def test_blend_is_linear_in_alpha(self, un_index, un_query):
        s0 = score(un_index, un_query, "d1", ModelKind.KW_OR_NE_O, ModelConfig(alpha=0.0))
        s1 = score(un_index, un_query, "d1", ModelKind.KW_OR_NE_O, ModelConfig(alpha=1.0))
        s = score(un_index, un_query, "d1", ModelKind.KW_OR_NE_O, ModelConfig(alpha=0.3))
        assert s == pytest.approx(0.3 * s1 + 0.7 * s0, abs=1e-12)

    def test_keyword_baseline_scores_full_text(self, un_index, un_query):
        ln4, ln2_5 = math.log(4.0), math.log(2.5)
        expected = ln4 / math.sqrt(2 * ln4 * ln4 + 3 * ln2_5 * ln2_5)
        assert score(un_index, un_query, "d1", ModelKind.KW) == pytest.approx(
            expected, abs=1e-12
        )
        assert score(un_index, un_query, "d2", ModelKind.KW) == 0.0

    def test_score_defined_outside_filter_set(self, un_index, un_query):
        # d3 shares the Country class, so its entity score is positive even
        # though the conjunctive filter excludes it from the results.
        assert score(un_index, un_query, "d3", ModelKind.NE_O) > 0.0
        assert "d3" not in [r.doc_id for r in search(un_index, un_query, ModelKind.NE_O)]

    def test_termless_document_scores_zero(self, kb, taxonomy):
        # An empty or stopword-only text has no term, hence a zero norm in every space.
        records = [
            {"doc_id": "x", "text": "alpha beta", "annotations": []},
            {"doc_id": "empty", "text": "", "annotations": []},
            {"doc_id": "stop", "text": "the", "annotations": []},
        ]
        docs = [ingest_document(r, kb, taxonomy, {"the"}) for r in records]
        index = build_index(docs, kb, taxonomy, {"the"})
        q = Query("q", ("alpha",), ())
        for model in (ModelKind.KW, ModelKind.KW_PLUS_NE):
            assert score(index, q, "empty", model) == 0.0
            assert score(index, q, "stop", model) == 0.0
        for missing in ("a", "missing", "zzz"):  # before, between and after the ids
            with pytest.raises(KeyError):
                score(index, q, missing, ModelKind.KW)

    def test_pair_walk_reads_no_tf_as_a_doc_number(self, kb, taxonomy):
        # "x"'s list is (0, 2), (2, 1): _scores walks it pair by pair, so the
        # tf 2 of document 0 must not be read as doc number 2.
        records = [
            {"doc_id": "d0", "text": "x x z", "annotations": []},
            {"doc_id": "d1", "text": "y", "annotations": []},
            {"doc_id": "d2", "text": "x w", "annotations": []},
        ]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        assert list(index.posting_list(keyword_term("x"), "KW_FULL")) == [0, 2, 2, 1]
        q = Query("q", ("x",), ())
        ranked = {r.doc_id: r.score for r in search(index, q, ModelKind.KW)}
        assert set(ranked) == {"d0", "d2"} and ranked["d2"] < 1.0
        for doc_id, expected in ranked.items():
            assert score(index, q, doc_id, ModelKind.KW) == expected

    def test_scale_invariance(self, kb, taxonomy):
        once = {"doc_id": "x", "text": "alpha beta", "annotations": []}
        thrice = {"doc_id": "x", "text": "alpha beta " * 3, "annotations": []}
        q = Query("q", ("alpha",), ())
        scores = []
        for record in (once, thrice):
            index = build_index([ingest_document(record, kb, taxonomy)], kb, taxonomy)
            scores.append(score(index, q, "x", ModelKind.KW))
        assert scores[0] == pytest.approx(scores[1], abs=1e-12)

    def test_scores_stay_in_unit_interval(self):
        data = corpusgen.synthetic_dataset(seed=3)
        taxonomy = load_taxonomy(data["taxonomy"])
        kb = load_knowledge_base(data["kb"], taxonomy)
        docs = [ingest_document(r, kb, taxonomy) for r in data["docs"]]
        index = build_index(docs, kb, taxonomy)
        queries = [query_from_record(r, kb, taxonomy) for r in data["queries"][:4]]
        for query in queries:
            for model in ALL_MODELS:
                for result in search(index, query, model):
                    assert 0.0 <= result.score <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def synthetic_200():
    """corpusgen's 200-document collection at seed 7, indexed, with its 12 queries."""
    data = corpusgen.synthetic_dataset(seed=7, n_docs=200, n_queries=12)
    taxonomy = load_taxonomy(data["taxonomy"])
    kb = load_knowledge_base(data["kb"], taxonomy)
    index = build_index([ingest_document(r, kb, taxonomy) for r in data["docs"]], kb, taxonomy)
    return index, [query_from_record(r, kb, taxonomy) for r in data["queries"]]


class TestRank:
    @pytest.mark.parametrize("top_k", [1000, 10, 0])
    def test_pairs_equal_search_results(self, synthetic_200, top_k):
        index, queries = synthetic_200
        for query in queries:
            for model in ALL_MODELS:
                try:
                    results = search(index, query, model, top_k=top_k)
                except EmptyQueryError:
                    with pytest.raises(EmptyQueryError):
                        rank(index, query, model, top_k=top_k)
                    continue
                pairs = rank(index, query, model, top_k=top_k)
                assert pairs == [tuple(r) for r in results]
                assert all(type(r) is RankedResult for r in results)
                assert all(type(p) is tuple for p in pairs)

    def test_negative_top_k_rejected(self, un_index, un_query):
        with pytest.raises(ValueError):
            rank(un_index, un_query, ModelKind.NE_N, top_k=-1)


class TestSearch:
    def test_ranked_output_matches_reference(self, un_index, un_query, kb, taxonomy):
        # The naive scorer arbitrates the d1/d2 order.
        reference = Oracle(
            corpusgen.TAXONOMY_RECORDS, corpusgen.ENTITY_RECORDS, corpusgen.UN_DOC_RECORDS
        )
        expected = reference.search(corpusgen.UN_QUERY_RECORD, "ne-o")
        results = search(un_index, un_query, ModelKind.NE_O)
        assert [r.doc_id for r in results] == [doc_id for doc_id, _ in expected]
        for result, (_, expected_score) in zip(results, expected):
            assert result.score == pytest.approx(expected_score, abs=1e-12)

    def test_entity_ranking_on_fixture(self, un_index, un_query):
        # d2 matches the identifier space perfectly; d1 spreads its weight
        # over more entity occurrences per space.
        results = search(un_index, un_query, ModelKind.NE_O)
        assert [r.doc_id for r in results] == ["d2", "d1"]
        assert results[0].score == pytest.approx(EQ1_D2, abs=1e-12)
        assert results[1].score == pytest.approx(EQ1_D1, abs=1e-12)

    def test_truncation(self, un_index, un_query):
        assert search(un_index, un_query, ModelKind.NE_N, top_k=0) == []
        assert len(search(un_index, un_query, ModelKind.NE_N, top_k=2)) == 2
        with pytest.raises(ValueError):
            search(un_index, un_query, ModelKind.NE_N, top_k=-1)

    def test_ties_break_by_doc_id(self, kb, taxonomy):
        records = [
            {"doc_id": "db", "text": "alpha beta", "annotations": []},
            {"doc_id": "da", "text": "alpha beta", "annotations": []},
        ]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        results = search(index, Query("q", ("alpha",), ()), ModelKind.KW)
        assert [r.doc_id for r in results] == ["da", "db"]
        assert results[0].score == results[1].score

    @pytest.mark.parametrize("loaded", [False, True], ids=["built", "loaded"])
    def test_ties_rank_by_doc_id_not_corpus_order(self, kb, taxonomy, tmp_path, loaded):
        # Documents are numbered by doc id, "d10" < "d2" < "d9", not in the
        # order the corpus lists them.
        entity = {"name": "Ho Chi Minh City", "class": "City", "id": "e1"}
        text = "Ho Chi Minh City is growing fast"
        mention = dict(entity, start=0, end=16)
        records = [
            {"doc_id": d, "text": text, "annotations": [mention]} for d in ("d10", "d9", "d2")
        ]
        records.append({"doc_id": "d1", "text": "growing cities", "annotations": []})
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        if loaded:
            save_index(index, tmp_path / "ix")
            index = load_index(tmp_path / "ix")
        query = query_from_record(
            {"query_id": "q", "keywords": ["growing"], "entities": [entity]}, kb, taxonomy
        )
        for model in ALL_MODELS:
            results = search(index, query, model)
            ranked = [r.doc_id for r in results]
            tied = results[ranked.index("d10") :][:3]
            assert [r.doc_id for r in tied] == ["d10", "d2", "d9"], model
            assert tied[0].score == tied[1].score == tied[2].score
            assert results == sorted(results, key=lambda r: (-r.score, r.doc_id))
            for r in results:
                assert score(index, query, r.doc_id, model) == r.score, (model, r.doc_id)

    def test_scores_non_increasing(self, un_index, un_query):
        for model in ALL_MODELS:
            results = search(un_index, un_query, model)
            scores = [r.score for r in results]
            assert scores == sorted(scores, reverse=True)


class TestQueryMemo:
    """A query expands its terms once per knowledge base and mode; the memo is
    not part of its value."""

    def test_all_models_expand_once_per_mode(self, monkeypatch, un_index, kb, taxonomy):
        calls = []

        def counted(query, kb, overlapped):
            calls.append(overlapped)
            return query_terms(query, kb, overlapped)

        monkeypatch.setattr(retrieval, "query_terms", counted)
        query = query_from_record(corpusgen.UN_QUERY_RECORD, kb, taxonomy)
        for model in ALL_MODELS:
            search(un_index, query, model)
            rank(un_index, query, model)
            score(un_index, query, "d1", model)
            filter_documents(un_index, query, model)
        assert sorted(calls) == [False, True]

    def test_each_knowledge_base_gets_its_own_expansion(self):
        # e1's canonical name differs between the two KBs, so the overlapped
        # expansion of the identifier-only mention differs too.
        taxonomy = load_taxonomy([{"class": "City"}])
        records = [
            {"doc_id": "d1", "text": "x", "annotations": [{"id": "e1", "start": 0, "end": 1}]},
            {"doc_id": "d2", "text": "Hanoi", "annotations": [
                {"name": "Hanoi", "class": "City", "start": 0, "end": 5},
            ]},
        ]
        indexes = []
        for name in ("Hanoi", "Saigon"):
            kb = load_knowledge_base([{"id": "e1", "class": "City", "names": [name]}], taxonomy)
            docs = [ingest_document(r, kb, taxonomy) for r in records]
            indexes.append(build_index(docs, kb, taxonomy))
        query = Query("q", ("hanoi",), (Annotation(identifier="e1"),))
        for index in (*indexes, *indexes):
            for model in ALL_MODELS:
                fresh = Query("q", ("hanoi",), (Annotation(identifier="e1"),))
                assert search(index, query, model) == search(index, fresh, model)
        kbs = [index.kb for index in indexes]
        assert query_terms(query, kbs[0], True) != query_terms(query, kbs[1], True)
        assert len(query._terms) == 4  # two knowledge bases, two modes

    def test_memo_is_not_part_of_the_value(self, un_index, kb, taxonomy):
        searched = query_from_record(corpusgen.UN_QUERY_RECORD, kb, taxonomy)
        twin = query_from_record(corpusgen.UN_QUERY_RECORD, kb, taxonomy)
        for model in ALL_MODELS:
            search(un_index, searched, model)
        assert searched._terms and not twin._terms
        assert searched == twin and hash(searched) == hash(twin)
        assert repr(searched) == repr(twin)
        copy = dataclasses.replace(searched)
        assert copy == searched and copy._terms == {}


class TestCanonical:
    """Scores are rounded to 12 decimals in float arithmetic, exactly as ``round``
    rounds them; the property and the sweeps are in test_properties.py."""

    def test_nan_gives_one(self):
        assert retrieval._canonical(math.nan) == 1.0

    def test_scale_fits_the_proof(self):
        # _canonical's proof needs s * 10**SCORE_DECIMALS below 2**40 for s < 1.
        assert 10 ** SCORE_DECIMALS < 2 ** 40

    def test_search_and_rank_equal_the_round_reference(self, monkeypatch):
        data = corpusgen.synthetic_dataset(seed=7, n_docs=300, n_queries=12)
        taxonomy = load_taxonomy(data["taxonomy"])
        kb = load_knowledge_base(data["kb"], taxonomy)
        docs = [ingest_document(r, kb, taxonomy) for r in data["docs"]]
        index = build_index(docs, kb, taxonomy)
        queries = [query_from_record(r, kb, taxonomy) for r in data["queries"]]

        def all_results():
            found = {}
            for query in queries:
                for model in ALL_MODELS:
                    try:
                        for call in (search, rank):
                            results = call(index, query, model)
                            found[call, query.query_id, model] = [
                                (doc_id, s.hex()) for doc_id, s in results
                            ]
                    except EmptyQueryError:
                        pass
            return found

        fast = all_results()
        monkeypatch.setattr(retrieval, "_canonical", round_canonical)
        assert all_results() == fast
        assert sum(map(len, fast.values())) > 10_000


class TestRunFile:
    def test_format(self, un_index, un_query):
        results = search(un_index, un_query, ModelKind.NE_O)
        out = io.StringIO()
        write_run_file({"q1": results}, "ne-o", out)
        lines = out.getvalue().splitlines()
        assert lines[0] == f"q1 Q0 d2 1 {results[0].score:.6f} ne-o"
        assert lines[1] == f"q1 Q0 d1 2 {results[1].score:.6f} ne-o"

    def test_percent_signs_written_verbatim(self):
        # Lines come from a %-template, so ids and tags must not act as directives.
        out = io.StringIO()
        write_run_file({"q%d": [RankedResult("d%s", 0.5)]}, "m%%", out)
        assert out.getvalue() == "q%d Q0 d%s 1 0.500000 m%%\n"

    def test_empty_result_writes_no_lines(self):
        out = io.StringIO()
        write_run_file({"q1": []}, "kw", out)
        assert out.getvalue() == ""

    def test_path_and_stream_writes_agree(self, tmp_path):
        runs = {"q1": [RankedResult("d1", 0.5), RankedResult("d2", 0.25)]}
        out = io.StringIO()
        write_run_file(runs, "kw", out)
        path = tmp_path / "kw.run"
        write_run_file(runs, "kw", path)
        assert path.read_text() == out.getvalue()
