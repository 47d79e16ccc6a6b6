"""Shared fixtures: loaded ontologies, ingested corpora, built indexes."""
import json

import pytest
from hypothesis import settings

import corpusgen
from ontovsm.corpus import ingest_document, query_from_record
from ontovsm.index import build_index
from ontovsm.ontology import load_knowledge_base, load_taxonomy

# Shared hosts can run several times slower for a while, so a per-example
# deadline would fail tests on timing alone.
settings.register_profile("ontovsm", deadline=None)
settings.load_profile("ontovsm")


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def write_version_1_index(path):
    """A one-document index in the retired version-1 layout, written by hand.

    Version 1 kept each term in terms.jsonl under a numeric ``tid``, with its
    ``df``, and joined it to postings.jsonl by that id.
    """
    path.mkdir(parents=True)
    write_jsonl(path / "taxonomy.jsonl", [{"class": "City", "parents": []}])
    write_jsonl(path / "kb.jsonl", [{"id": "e1", "class": "City", "names": ["Saigon"]}])
    write_jsonl(
        path / "terms.jsonl",
        [
            {"tid": 0, "space": "I", "term": ["I", "e1", ""], "df": 1},
            {"tid": 1, "space": "KW", "term": ["KW", "grows", ""], "df": 1},
        ],
    )
    write_jsonl(
        path / "postings.jsonl",
        [{"tid": 0, "postings": [["d1", 1]]}, {"tid": 1, "postings": [["d1", 1]]}],
    )
    stats = {
        "format": "ontovsm-index",
        "version": 1,
        "doc_count": 1,
        "doc_ids": ["d1"],
        "stopwords": [],
        "terms": {"N": 0, "C": 0, "NC": 0, "I": 1, "KW": 1, "KW_FULL": 0},
    }
    (path / "stats.json").write_text(json.dumps(stats, indent=2) + "\n")
    return path


def _rewrite_first_posting_row(change):
    def corrupt(index_dir):
        path = index_dir / "postings.jsonl"
        first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
        row = json.loads(first)
        change(row)
        path.write_text(json.dumps(row) + "\n" + "".join(rest), encoding="utf-8")

    return corrupt


def _set_first_tf(tf):
    def change(row):
        row["postings"][0][1] = tf

    return _rewrite_first_posting_row(change)


def _repeat_first_row(index_dir):
    path = index_dir / "postings.jsonl"
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(path.read_text(encoding="utf-8").splitlines(keepends=True)[0])


def _rewrite_stats(change):
    def corrupt(index_dir):
        path = index_dir / "stats.json"
        stats = json.loads(path.read_text(encoding="utf-8"))
        change(stats)
        path.write_text(json.dumps(stats), encoding="utf-8")

    return corrupt


def _set_stopwords(value):
    return _rewrite_stats(lambda stats: stats.update(stopwords=value))


def _repeat_first_doc_id(stats):
    stats["doc_ids"].append(stats["doc_ids"][0])
    stats["doc_count"] += 1


def _miscount_first_space(stats):
    space = next(iter(stats["terms"]))
    stats["terms"][space] += 1


def _write_non_utf8_stats(index_dir):
    (index_dir / "stats.json").write_bytes(b'{"format": "\xff"}\n')


# Damage that a saved index must be rejected for: (corrupt(index_dir), the
# phrase the IndexFormatError names it by).
INDEX_CORRUPTIONS = [
    pytest.param(_repeat_first_row, "two posting rows", id="term-in-two-rows"),
    pytest.param(
        _rewrite_first_posting_row(lambda row: row["postings"].append(row["postings"][0])),
        "lists a document twice",
        id="doc-twice-in-row",
    ),
    *(
        pytest.param(_set_first_tf(tf), "term frequency", id=f"tf-{tf!r}")
        for tf in (True, 1.5, 0, -2, "3", 2**40)
    ),
    *(
        pytest.param(_set_stopwords(value), "stopwords", id=f"stopwords-{value!r}")
        for value in ("the", 3, ["the", 3])
    ),
    pytest.param(
        _rewrite_first_posting_row(lambda row: row["postings"].clear()),
        "lists no documents",
        id="row-without-documents",
    ),
    pytest.param(
        _rewrite_stats(_repeat_first_doc_id), "lists document 'd1' twice", id="doc-id-twice"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.pop("doc_ids")), "lacks a doc_ids list", id="no-doc-ids"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.update(doc_count=stats["doc_count"] + 1)),
        "doc_count",
        id="doc-count-mismatch",
    ),
    pytest.param(_rewrite_stats(_miscount_first_space), "term counts", id="term-count-mismatch"),
    pytest.param(_write_non_utf8_stats, "codec can't decode", id="stats-not-utf8"),
    pytest.param(
        _rewrite_stats(lambda stats: stats["doc_ids"].append("d\ud800")),
        "surrogates not allowed",
        id="stats-lone-surrogate",
    ),
]


@pytest.fixture(scope="session")
def taxonomy():
    return load_taxonomy(corpusgen.TAXONOMY_RECORDS)


@pytest.fixture(scope="session")
def kb(taxonomy):
    return load_knowledge_base(corpusgen.ENTITY_RECORDS, taxonomy)


@pytest.fixture(scope="session")
def city_docs(kb, taxonomy):
    return [ingest_document(r, kb, taxonomy) for r in corpusgen.CITY_DOC_RECORDS]


@pytest.fixture(scope="session")
def city_index(city_docs, kb, taxonomy):
    return build_index(city_docs, kb, taxonomy)


@pytest.fixture(scope="session")
def un_docs(kb, taxonomy):
    return [ingest_document(r, kb, taxonomy) for r in corpusgen.UN_DOC_RECORDS]


@pytest.fixture(scope="session")
def un_index(un_docs, kb, taxonomy):
    return build_index(un_docs, kb, taxonomy)


@pytest.fixture(scope="session")
def un_query(kb, taxonomy):
    return query_from_record(corpusgen.UN_QUERY_RECORD, kb, taxonomy)
