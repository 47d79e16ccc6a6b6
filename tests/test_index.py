"""Index construction, statistics, persistence, and dumping."""
import builtins
import dataclasses
import hashlib
import io
import json
import math
import re
import sys
from array import array
from itertools import combinations
from pathlib import Path

import pytest

import corpusgen
from conftest import INDEX_CORRUPTIONS, narrowest_typecode, restamp, write_version_1_index
from ontovsm.cli import main
from ontovsm.corpus import ingest_document
from ontovsm.errors import CorpusError, IndexFormatError
from ontovsm.index import (
    MAX_TF,
    STORED_SPACES,
    TYPECODE,
    InvertedIndex,
    build_index,
    dump_index,
    idf_weight,
    load_index,
    save_index,
)
from ontovsm.ontology import KnowledgeBase, load_knowledge_base, load_taxonomy
from ontovsm.retrieval import ModelKind, score
from ontovsm.termspace import (
    Term,
    class_term,
    format_term,
    identifier_term,
    keyword_term,
    name_term,
)

LN4 = math.log(4.0)
LN2_5 = math.log(2.5)


def idf(index, term, space):
    return idf_weight(index.n_docs, len(index.postings(term, space)))


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

    def test_document_frequencies(self, city_index):
        assert len(city_index.postings(class_term("Location"), "C")) == 2
        assert len(city_index.postings(name_term("Saigon"), "N")) == 2
        assert len(city_index.postings(keyword_term("growing"), "KW")) == 2
        assert len(city_index.postings(identifier_term("e1"), "I")) == 1

    def test_unseen_term(self, city_index):
        assert len(city_index.postings(keyword_term("paris"), "KW")) == 0
        assert idf(city_index, keyword_term("paris"), "KW") == 0.0

    def test_idf_formula(self, city_index):
        # ln(1 + 3/2) for df=2, ln(1 + 3/1) for df=1.
        assert idf(city_index, class_term("Location"), "C") == pytest.approx(LN2_5)
        assert idf(city_index, identifier_term("e1"), "I") == pytest.approx(LN4)

    def test_full_keyword_space_sees_annotated_tokens(self, city_index):
        # "city" occurs only inside an annotation span; the partitioned
        # keyword space never sees it, the full-text space does.
        assert len(city_index.postings(keyword_term("city"), "KW")) == 0
        assert len(city_index.postings(keyword_term("city"), "KW_FULL")) == 1
        assert len(city_index.postings(keyword_term("saigon"), "KW")) == 0
        assert len(city_index.postings(keyword_term("saigon"), "KW_FULL")) == 1

    def test_postings(self, city_index):
        assert city_index.postings(name_term("Saigon"), "N") == {"d1": 1, "d2": 1}
        assert set(city_index.postings(keyword_term("growing"), "KW")) == {"d1", "d3"}
        assert city_index.postings(keyword_term("paris"), "KW") == {}

    def test_terms_sorted(self, city_index):
        for space in ("N", "C", "NC", "I", "KW", "KW_FULL"):
            terms = city_index.terms(space)
            assert terms == sorted(terms)

    def test_duplicate_doc_id_rejected(self, city_docs, kb, taxonomy):
        # Two documents under one id would count it twice in every idf.
        with pytest.raises(CorpusError, match="'d1'"):
            build_index([city_docs[0], city_docs[1], city_docs[0]], kb, taxonomy)

    @pytest.mark.parametrize("doc_id", ["d 1", "", "d\t1", 7])
    def test_id_the_loaders_reject_refused(self, city_docs, kb, taxonomy, doc_id):
        # load_index and load_run_file refuse such an id, so the build must too.
        doc = dataclasses.replace(city_docs[0], doc_id=doc_id)
        with pytest.raises(CorpusError, match="document id"):
            build_index([city_docs[1], doc], kb, taxonomy)

    @pytest.mark.parametrize(
        "doc_ids, message", [(["d 1"], "document id 'd 1'"), (["d1", "d1"], "'d1' indexed twice")]
    )
    def test_constructor_checks_doc_ids(self, kb, taxonomy, doc_ids, message):
        # The constructor numbers the documents, so a direct construction is checked too.
        with pytest.raises(CorpusError, match=message):
            InvertedIndex(doc_ids, {s: {} for s in STORED_SPACES}, kb, taxonomy)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([1, 1, 0, 1], "do not ascend: 0 follows 1"),
            ([0, 1, 0, 2], "lists a document twice: doc number 0"),
            ([0, 0], "term frequency 0"),
            ([0, 1, 1], "lists of one length"),
            ([], "lists no documents"),
            ([5, 1], "unknown document number 5"),
        ],
    )
    def test_constructor_refuses_lists_a_load_would_refuse(self, kb, taxonomy, pairs, message):
        # Each list saved, and then failed to load, before the constructor checked it.
        postings = {s: {} for s in STORED_SPACES}
        postings["KW"][keyword_term("growing")] = array(TYPECODE, pairs)
        with pytest.raises(CorpusError, match=rf"KW:growing in space KW .*{message}"):
            InvertedIndex(["d1", "d2"], postings, kb, taxonomy)

    @pytest.mark.parametrize(
        "space, term, fault",
        [
            # Before the constructor checked terms, each of these saved and then
            # loaded as another term, or failed to save or to load.
            ("N", Term("C", "City"), "belongs to space 'C'"),
            ("KW_FULL", Term("KW_FULL", "city"), "belongs to space 'KW_FULL'"),
            ("KW", Term("KW", 5), "is not a Term of three strings"),
            ("KW", ("KW", "city", ""), "is not a Term of three strings"),
            ("KW", "city", "is not a Term of three strings"),
            ("KW", Term("KW", "city", "Extra"), "carries class 'Extra' outside NC"),
        ],
        ids=["C-in-N", "KW_FULL-in-KW_FULL", "int-keyword", "tuple", "str", "class-in-KW"],
    )
    def test_constructor_refuses_terms_a_load_would_refuse(self, kb, taxonomy, space, term, fault):
        # Beside a valid term of the space, which a bad one may not sort against.
        postings = {s: {} for s in STORED_SPACES}
        valid = Term("KW" if space == "KW_FULL" else space, "growing")
        postings[space] = {valid: array(TYPECODE, [0, 1]), term: array(TYPECODE, [0, 1])}
        with pytest.raises(CorpusError, match=rf"term .* in space {space} {re.escape(fault)}"):
            InvertedIndex(["d1", "d2"], postings, kb, taxonomy)

    @pytest.mark.parametrize("item", [True, "x", 1.0])
    def test_constructor_refuses_a_doc_number_that_is_not_an_int(self, kb, taxonomy, item):
        # A plain list can hold what an array cannot; True must not pass as doc number 1.
        postings = {s: {} for s in STORED_SPACES}
        postings["KW"][keyword_term("growing")] = [0, 1, item, 1]
        with pytest.raises(CorpusError, match=f"unknown document number {item!r};"):
            InvertedIndex(["d1", "d2"], postings, kb, taxonomy)

    def test_constructor_rebuilds_a_direct_callers_lists(self, kb, taxonomy, tmp_path):
        given = array(TYPECODE, [0, 2, 1, 1])
        postings = {s: {} for s in STORED_SPACES}
        postings["KW"][keyword_term("growing")] = given
        postings["KW_FULL"][keyword_term("growing")] = array(TYPECODE, [0, 2, 1, 1])
        index = InvertedIndex(["d1", "d2"], postings, kb, taxonomy)
        held = index.posting_list(keyword_term("growing"), "KW")
        assert held == given and held is not given
        assert index.posting_list(keyword_term("growing"), "KW_FULL") is held
        save_index(index, tmp_path / "ix")
        assert load_index(tmp_path / "ix").postings(keyword_term("growing"), "KW") == {
            "d1": 2,
            "d2": 1,
        }

    def test_documents_numbered_by_doc_id(self, kb, taxonomy):
        ids = ["d9", "d10", "d2"]
        records = [dict(r, doc_id=d) for r, d in zip(corpusgen.CITY_DOC_RECORDS, ids)]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        assert index.doc_ids == ids
        assert index.ids == ["d10", "d2", "d9"]
        assert index.postings(keyword_term("growing"), "KW") == {"d9": 1, "d2": 1}
        assert list(index.posting_list(keyword_term("growing"), "KW")) == [1, 1, 2, 1]


@pytest.fixture(params=["built", "loaded"])
def mixed_index(request, kb, taxonomy, tmp_path):
    """The keyword "growing" never falls inside a mention. "saigon" does once
    of its two times in d1 and not in d2, so its KW and KW_FULL lists differ."""
    records = [
        {
            "doc_id": "d1",
            "text": "Saigon is growing near saigon",
            "annotations": [{"start": 0, "end": 6, "name": "Saigon"}],
        },
        {"doc_id": "d2", "text": "saigon keeps growing", "annotations": []},
    ]
    index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
    if request.param == "loaded":
        save_index(index, tmp_path / "ix")
        index = load_index(tmp_path / "ix")
    return index


class TestSharedKeywordLists:
    def test_keyword_outside_mentions_has_one_list(self, mixed_index):
        growing = keyword_term("growing")
        assert mixed_index.postings(growing, "KW") == {"d1": 1, "d2": 1}
        full = mixed_index.posting_list(growing, "KW_FULL")
        assert full is mixed_index.posting_list(growing, "KW")
        for term in mixed_index.terms("KW_FULL"):
            kw = mixed_index.posting_list(term, "KW")
            full = mixed_index.posting_list(term, "KW_FULL")
            assert (full is kw) == (full == kw), term

    def test_differing_lists_stay_apart(self, mixed_index):
        saigon = keyword_term("saigon")
        assert mixed_index.postings(saigon, "KW") == {"d1": 1, "d2": 1}
        assert mixed_index.postings(saigon, "KW_FULL") == {"d1": 2, "d2": 1}
        full = mixed_index.posting_list(saigon, "KW_FULL")
        assert full is not mixed_index.posting_list(saigon, "KW")

    def test_a_list_is_shared_exactly_when_equal(self, mixed_index):
        # In any two spaces: the name "saigon" and the keyword "is" each occur
        # once, in d1 alone.
        plists = [
            mixed_index.posting_list(t, s) for s in STORED_SPACES for t in mixed_index.terms(s)
        ]
        for a, b in combinations(plists, 2):
            assert (a is b) == (a == b), (a, b)
        saigon = mixed_index.posting_list(name_term("Saigon"), "N")
        assert saigon is mixed_index.posting_list(keyword_term("is"), "KW")
        assert saigon is mixed_index.posting_list(keyword_term("is"), "KW_FULL")

    def test_direct_constructor_shares_equal_lists(self, kb, taxonomy):
        postings = {s: {} for s in STORED_SPACES}
        postings["N"][name_term("Saigon")] = array(TYPECODE, [0, 1, 1, 2])
        postings["C"][class_term("City")] = array(TYPECODE, [0, 1, 1, 2])
        postings["I"][identifier_term("e1")] = array(TYPECODE, [0, 1, 1, 1])
        index = InvertedIndex(["d1", "d2"], postings, kb, taxonomy)
        saigon = index.posting_list(name_term("Saigon"), "N")
        assert index.posting_list(class_term("City"), "C") is saigon
        assert index.posting_list(identifier_term("e1"), "I") is not saigon

    @pytest.mark.parametrize("held", ["built", "loaded"])
    def test_an_entitys_expansion_holds_one_array(self, tmp_path, held):
        # Two aliases and a class two levels below the root: every N, NC and I
        # term of the entity, and the classes no other entity has, name d1 alone.
        taxonomy = load_taxonomy([
            {"class": "Agent"},
            {"class": "Person", "parents": ["Agent"]},
            {"class": "Politician", "parents": ["Person"]},
        ])
        kb = load_knowledge_base(
            [
                {"id": "p1", "class": "Politician", "names": ["Ada Quang", "President Quang"]},
                {"id": "a1", "class": "Agent", "names": ["Syndicate"]},
            ],
            taxonomy,
        )
        records = [
            {
                "doc_id": "d1",
                "text": "Ada Quang spoke",
                "annotations": [{"start": 0, "end": 9, "id": "p1"}],
            },
            {
                "doc_id": "d2",
                "text": "Syndicate spoke",
                "annotations": [{"start": 0, "end": 9, "id": "a1"}],
            },
        ]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        if held == "loaded":
            save_index(index, tmp_path / "ix")
            index = load_index(tmp_path / "ix")
        shared = index.posting_list(identifier_term("p1"), "I")
        assert list(shared) == [0, 1]
        holders = {
            (s, format_term(t)) for s in STORED_SPACES for t in index.terms(s)
            if index.posting_list(t, s) is shared
        }
        names, classes = ("ada quang", "president quang"), ("Politician", "Person", "Agent")
        assert holders == {
            *(("N", f"N:{name}") for name in names),
            ("C", "C:Politician"),
            ("C", "C:Person"),
            *(("NC", f"NC:{name}/{c}") for name in names for c in classes),
            ("I", "I:p1"),
            ("KW_FULL", "KW:ada"),
            ("KW_FULL", "KW:quang"),
        }
        # C:Agent names both documents, as the keyword "spoke" does.
        agent = index.posting_list(class_term("Agent"), "C")
        assert agent is not shared and agent is index.posting_list(keyword_term("spoke"), "KW")


def weights(index, doc_id, space):
    """tf.idf weights of one document in one stored space."""
    return {
        t: index.postings(t, space)[doc_id] * idf(index, t, space)
        for t in index.terms(space)
        if doc_id in index.postings(t, space)
    }


def norm(index, doc_id, space):
    """A document's vector length in a space; norms are indexed by doc number."""
    return index.norms[space][index.ids.index(doc_id)]


class TestDocVectors:
    def test_identifier_vector(self, city_index):
        assert weights(city_index, "d1", "I") == {identifier_term("e1"): pytest.approx(LN4)}

    def test_empty_vector_for_unannotated_doc(self, city_index):
        assert weights(city_index, "d3", "I") == {}
        assert weights(city_index, "d3", "N") == {}
        assert norm(city_index, "d3", "I") == 0.0 and norm(city_index, "d3", "N") == 0.0

    def test_class_vector(self, city_index):
        vec = weights(city_index, "d1", "C")
        assert set(vec) == {class_term("City"), class_term("Location")}
        assert vec[class_term("City")] == pytest.approx(LN4)
        assert vec[class_term("Location")] == pytest.approx(LN2_5)
        assert norm(city_index, "d1", "C") == pytest.approx(math.hypot(LN4, LN2_5))

    def test_unified_merges_partitioned_spaces(self, city_index):
        for doc_id in city_index.doc_ids:
            squares = sum(
                w * w
                for s in ("N", "C", "NC", "I", "KW")
                for w in weights(city_index, doc_id, s).values()
            )
            assert norm(city_index, doc_id, "UNIFIED") == pytest.approx(math.sqrt(squares))

    def test_full_vector_covers_whole_text(self, city_index):
        assert len(weights(city_index, "d1", "KW_FULL")) == 7

    def test_unknown_doc(self, city_index, un_query):
        assert "d9" not in city_index.ids
        assert all(len(norms) == city_index.n_docs for norms in city_index.norms.values())
        with pytest.raises(KeyError):
            score(city_index, un_query, "d9", ModelKind.NE_O)

    def test_unknown_space(self, city_index):
        for space in ("XX", "UNIFIED"):
            with pytest.raises(ValueError):
                city_index.terms(space)
            with pytest.raises(ValueError):
                city_index.term_count(space)
        with pytest.raises(ValueError):
            city_index.postings(keyword_term("growing"), "XX")


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
        assert loaded.norms == city_index.norms

    def test_loaded_postings_share_doc_id_strings(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        # Looking an id up returns the very string that doc_ids holds: ids
        # holds those strings, and postings() maps doc numbers back to them.
        listed = {doc_id: doc_id for doc_id in loaded.doc_ids}
        keys = [d for s in STORED_SPACES for t in loaded.terms(s) for d in loaded.postings(t, s)]
        assert loaded.ids == sorted(loaded.doc_ids)
        assert keys and all(d is listed[d] for d in [*loaded.ids, *keys])

    def test_duplicate_parents_saved_once(self, tmp_path):
        taxonomy = load_taxonomy([{"class": "A"}, {"class": "B", "parents": ["A", "A"]}])
        save_index(build_index([], KnowledgeBase([], taxonomy), taxonomy), tmp_path / "ix")
        rows = (tmp_path / "ix" / "taxonomy.jsonl").read_text().splitlines()
        assert [json.loads(row) for row in rows] == [
            {"class": "A", "parents": []},
            {"class": "B", "parents": ["A"]},
        ]

    def test_round_trip_preserves_kb(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        assert loaded.kb.resolve("e4").canonical_name == "United Nations"
        assert loaded.taxonomy.ancestors("City") == {"City", "Location"}

    def test_saved_files_store_each_term_once(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        names = sorted(p.name for p in (tmp_path / "ix").iterdir())
        assert names == ["kb.jsonl", "postings.jsonl", "stats.json", "taxonomy.jsonl"]
        lines = (tmp_path / "ix" / "postings.jsonl").read_text().splitlines()
        rows = [json.loads(line) for line in lines]
        # One row per distinct list, naming each stored term once.
        assert len(rows) == city_index.list_count() == 5
        named = [entry for row in rows for entry in row["terms"]]
        assert sorted(named) == sorted(
            [s, t.primary, t.secondary] for s in STORED_SPACES for t in city_index.terms(s)
        )
        assert len(named) == sum(city_index.term_count(s) for s in STORED_SPACES)
        saigon = [["N", "saigon", ""], ["C", "Location", ""], ["NC", "saigon", "Location"]]
        assert {"terms": saigon, "docs": [0, 1], "tfs": [1, 1]} in rows
        assert ["KW_FULL", "city", ""] in rows[0]["terms"] and rows[0]["docs"] == [0]
        # Terms follow STORED_SPACES order, then term order, within a row and by a row's first.
        def order(entry):
            return STORED_SPACES.index(entry[0]), entry[1], entry[2]

        firsts = [order(row["terms"][0]) for row in rows]
        assert firsts == sorted(firsts)
        for row in rows:
            assert row["terms"] == sorted(row["terms"], key=order)

    def test_stats_describe_the_saved_files(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        stats = json.loads((tmp_path / "ix" / "stats.json").read_text())
        assert stats["version"] == 5
        assert stats["terms"] == {s: city_index.term_count(s) for s in STORED_SPACES}
        assert stats["lists"] == city_index.list_count() == 5
        assert stats["postings"] == {
            s: sum(len(city_index.postings(t, s)) for t in city_index.terms(s))
            for s in STORED_SPACES
        }
        assert stats["postings"]["N"] == 5
        for name in ("postings.jsonl", "taxonomy.jsonl", "kb.jsonl"):
            data = (tmp_path / "ix" / name).read_bytes()
            assert stats["files"][name] == {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        assert sorted(stats["files"]) == ["kb.jsonl", "postings.jsonl", "taxonomy.jsonl"]

    def test_rows_saved_in_ascending_doc_numbers(self, tmp_path, kb, taxonomy):
        # The corpus comes in d9, d10, d2, yet the built list, the saved row and
        # the list loaded from it all ascend by doc number.
        ids = ["d9", "d10", "d2"]
        records = [dict(r, doc_id=d) for r, d in zip(corpusgen.CITY_DOC_RECORDS, ids)]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        growing = keyword_term("growing")
        assert list(index.posting_list(growing, "KW")) == [1, 1, 2, 1]
        save_index(index, tmp_path / "a")
        lines = (tmp_path / "a" / "postings.jsonl").read_text().splitlines()
        # Doc numbers 1 and 2, saved as the first and its gap, without spaces.
        assert (
            '{"terms":[["KW","growing",""],["KW_FULL","growing",""]],"docs":[1,1],"tfs":[1,1]}'
            in lines
        )
        rows = [json.loads(line) for line in lines]
        assert all(gap > 0 for row in rows for gap in row["docs"][1:])
        loaded = load_index(tmp_path / "a")
        assert list(loaded.posting_list(growing, "KW")) == [1, 1, 2, 1]
        assert loaded.norms == index.norms
        save_index(loaded, tmp_path / "b")
        for name in ("stats.json", "postings.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_built_index_holds_what_its_saved_copy_loads(self, tmp_path):
        data = corpusgen.synthetic_dataset(seed=7, n_docs=200, n_queries=1)
        taxonomy = load_taxonomy(data["taxonomy"])
        kb = load_knowledge_base(data["kb"], taxonomy)
        index = build_index([ingest_document(r, kb, taxonomy) for r in data["docs"]], kb, taxonomy)
        save_index(index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        for space in STORED_SPACES:
            assert index.terms(space) == loaded.terms(space)
            for term in index.terms(space):
                built, saved = index.posting_list(term, space), loaded.posting_list(term, space)
                assert built == saved, (space, term)
                assert built.typecode == saved.typecode, (space, term)
                assert sys.getsizeof(built) == sys.getsizeof(saved), (space, term)
        assert index.norms == loaded.norms

    def test_built_and_loaded_lists_take_the_narrowest_typecode(self, tmp_path, kb, taxonomy):
        # 257 documents, so "growing" reaches doc number 256; "beta" has a tf
        # of 256, "alpha" one of 255 and "gamma" doc number 255 alone.
        records = [{"doc_id": f"d{n:03d}", "text": "growing"} for n in range(257)]
        records[0]["text"] += " alpha" * 255
        records[1]["text"] += " beta" * 256
        records[255]["text"] += " gamma"
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        save_index(index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        typecodes = {"growing": "H", "alpha": "B", "beta": "H", "gamma": "B"}
        for held in (index, loaded):
            for space in STORED_SPACES:
                for term in held.terms(space):
                    plist = held.posting_list(term, space)
                    assert plist.typecode == narrowest_typecode(plist), (space, term)
            for token, typecode in typecodes.items():
                assert held.posting_list(keyword_term(token), "KW").typecode == typecode
        assert index.postings(keyword_term("beta"), "KW") == {"d001": 256}

    @pytest.mark.parametrize(
        "doc, tf, typecode",
        [
            (0, 255, "B"),
            (0, 256, "H"),
            (255, 1, "B"),
            (256, 1, "H"),
            (0, 65535, "H"),
            (0, 65536, "I"),
            (256, MAX_TF, "I"),
        ],
    )
    def test_rows_at_typecode_boundaries_round_trip(
        self, tmp_path, kb, taxonomy, capsys, doc, tf, typecode
    ):
        postings = {s: {} for s in STORED_SPACES}
        postings["KW"][keyword_term("growing")] = array(TYPECODE, [doc, tf])
        index = InvertedIndex([f"d{n:03d}" for n in range(257)], postings, kb, taxonomy)
        save_index(index, tmp_path / "ix")
        loaded = load_index(tmp_path / "ix")
        for held in (index, loaded):
            plist = held.posting_list(keyword_term("growing"), "KW")
            assert (plist.typecode, list(plist)) == (typecode, [doc, tf])
        assert loaded.norms == index.norms
        built = io.StringIO()
        dump_index(index, built)
        assert f"KW:growing  df=1  d{doc:03d}:{tf}\n" in built.getvalue()
        assert main(["dump-index", "--index", str(tmp_path / "ix")]) == 0
        assert capsys.readouterr().out == built.getvalue()

    def test_save_reads_none_of_its_files(self, tmp_path, city_index, monkeypatch):
        # stats.json's sizes and digests come from the bytes as they are written.
        opened = []
        real_open, real_path_open = io.open, Path.open

        def recording_open(file, mode="r", *args, **kwargs):
            opened.append((Path(file).name, mode))
            return real_open(file, mode, *args, **kwargs)

        def recording_path_open(path, mode="r", *args, **kwargs):
            # Python 3.10's pathlib holds its own reference to io.open.
            opened.append((path.name, mode))
            return real_path_open(path, mode, *args, **kwargs)

        monkeypatch.setattr(io, "open", recording_open)
        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(Path, "open", recording_path_open)
        save_index(city_index, tmp_path / "ix")
        monkeypatch.undo()
        assert sorted(name for name, _ in opened) == [
            "kb.jsonl", "postings.jsonl", "stats.json", "taxonomy.jsonl"
        ]
        assert all(set(mode).isdisjoint("r+") for _, mode in opened), opened

    def test_save_load_save_byte_identical(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "a")
        save_index(load_index(tmp_path / "a"), tmp_path / "b")
        for name in ("stats.json", "postings.jsonl", "taxonomy.jsonl", "kb.jsonl"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_stopwords_round_trip(self, tmp_path, kb, taxonomy):
        docs = [
            ingest_document(r, kb, taxonomy, {"the"}) for r in corpusgen.CITY_DOC_RECORDS
        ]
        index = build_index(docs, kb, taxonomy, {"the"})
        assert len(index.postings(keyword_term("the"), "KW")) == 0
        assert len(index.postings(keyword_term("the"), "KW_FULL")) == 0
        save_index(index, tmp_path / "ix")
        assert load_index(tmp_path / "ix").stopwords == {"the"}

    def test_stopwords_apply_at_ingest_only(self, city_docs, kb, taxonomy):
        # The documents were ingested without stopwords, so build_index's set
        # filters nothing; it is only recorded for the queries.
        index = build_index(city_docs, kb, taxonomy, stopwords={"flows"})
        assert index.postings(keyword_term("flows"), "KW_FULL") == {"d2": 1}
        assert index.stopwords == {"flows"}

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
        stats.write_text(json.dumps({**json.loads(stats.read_text()), "version": 99}))
        with pytest.raises(IndexFormatError, match="version"):
            load_index(tmp_path / "ix")

    def test_version_1_directory_rejected(self, tmp_path):
        write_version_1_index(tmp_path / "ix")
        with pytest.raises(IndexFormatError, match="unsupported index version 1"):
            load_index(tmp_path / "ix")

    def test_posting_with_malformed_term(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "postings.jsonl"
        saved = path.read_text()
        for entry in (
            ["NC", "saigon"], ["NC", "saigon", "City", ""], ["NC", "saigon", 7], "abc", None
        ):
            row = {"terms": [entry], "docs": [0], "tfs": [1]}
            path.write_text(saved + json.dumps(row) + "\n")
            restamp(tmp_path / "ix", "postings.jsonl")
            with pytest.raises(IndexFormatError, match="is not three strings"):
                load_index(tmp_path / "ix")
        for terms in ("NC", None, {"NC": "saigon"}):
            row = {"terms": terms, "docs": [0], "tfs": [1]}
            path.write_text(saved + json.dumps(row) + "\n")
            restamp(tmp_path / "ix", "postings.jsonl")
            with pytest.raises(IndexFormatError, match="malformed posting row"):
                load_index(tmp_path / "ix")

    def test_posting_in_unknown_space(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        row = {"terms": [["UNIFIED", "saigon", ""]], "docs": [0], "tfs": [1]}
        with open(tmp_path / "ix" / "postings.jsonl", "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        restamp(tmp_path / "ix", "postings.jsonl")
        with pytest.raises(IndexFormatError, match="unknown term space 'UNIFIED'"):
            load_index(tmp_path / "ix")

    def test_posting_with_unknown_doc(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "postings.jsonl"
        saved = path.read_text()
        for doc in (-1, 3, 2**40, 1.0, "0", None):
            row = {"terms": [["KW", "unheard", ""]], "docs": [0, doc], "tfs": [1, 1]}
            path.write_text(saved + json.dumps(row) + "\n")
            restamp(tmp_path / "ix", "postings.jsonl")
            with pytest.raises(
                IndexFormatError,
                match=f"row for KW:unheard in space KW names unknown document number {doc!r}",
            ):
                load_index(tmp_path / "ix")

    def test_lists_count_names_both_counts(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "stats.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "lists": 4}))
        with pytest.raises(
            IndexFormatError, match="stats.json's lists count 4 does not match the 5 posting rows"
        ):
            load_index(tmp_path / "ix")

    def test_row_errors_name_the_rows_first_term(self, tmp_path, city_index):
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "postings.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[1]["tfs"][0] = 0
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        restamp(tmp_path / "ix", "postings.jsonl")
        with pytest.raises(
            IndexFormatError, match="row for N:saigon in space N gives doc number 0 term frequency 0"
        ):
            load_index(tmp_path / "ix")

    @pytest.mark.parametrize("bad_id", ["d 1", "d1\n", "", 7, None])
    def test_malformed_doc_id_in_stats(self, tmp_path, city_index, bad_id):
        # Run and qrels lines split at whitespace, so such an id could not be read back.
        save_index(city_index, tmp_path / "ix")
        path = tmp_path / "ix" / "stats.json"
        stats = json.loads(path.read_text())
        stats["doc_ids"][0] = bad_id
        path.write_text(json.dumps(stats))
        with pytest.raises(IndexFormatError, match=r"stats\.json: document id ") as caught:
            load_index(tmp_path / "ix")
        assert repr(bad_id) in str(caught.value)
        assert ("whitespace" in str(caught.value)) == isinstance(bad_id, str)

    @pytest.mark.parametrize("corrupt, message", INDEX_CORRUPTIONS)
    def test_corrupt_index_rejected(self, tmp_path, city_index, corrupt, message):
        save_index(city_index, tmp_path / "ix")
        corrupt(tmp_path / "ix")
        with pytest.raises(IndexFormatError, match=message):
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

    def test_built_and_loaded_index_dump_alike(self, tmp_path, kb, taxonomy):
        # The corpus comes in d9, d10, d2, not in doc-id order.
        ids = ["d9", "d10", "d2"]
        records = [dict(r, doc_id=d) for r, d in zip(corpusgen.CITY_DOC_RECORDS, ids)]
        index = build_index([ingest_document(r, kb, taxonomy) for r in records], kb, taxonomy)
        save_index(index, tmp_path / "ix")
        built, loaded = io.StringIO(), io.StringIO()
        dump_index(index, built)
        dump_index(load_index(tmp_path / "ix"), loaded)
        assert "KW:growing  df=2  d2:1 d9:1" in built.getvalue()
        assert built.getvalue() == loaded.getvalue()
