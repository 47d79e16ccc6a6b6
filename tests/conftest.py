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
