"""Property tests: interpolation against its per-level definition, document
terms against per-occurrence expansion, the score range, and save/load/search
identity, on generated rankings and corpora."""
import tempfile
from collections import Counter

from hypothesis import given
from hypothesis import strategies as st

import corpusgen
from ontovsm.corpus import ingest_document, query_from_record
from ontovsm.errors import EmptyQueryError
from ontovsm.evaluation import RECALL_LEVELS, InterpMode, Qrels, interpolate_11pt, pr_points
from ontovsm.index import build_index, load_index, save_index
from ontovsm.ontology import load_knowledge_base, load_taxonomy
from ontovsm.retrieval import ALL_MODELS, ModelConfig, search
from ontovsm.termspace import TERM_SPACES, document_terms, expand_annotation, keyword_term

TAXONOMY = load_taxonomy(corpusgen.SYNTH_TAXONOMY_RECORDS)
KB = load_knowledge_base(corpusgen.SYNTH_ENTITY_RECORDS, TAXONOMY)
FEATURE_SETS = [
    ("name",), ("class",), ("id",),
    ("name", "class"), ("name", "id"), ("class", "id"), ("name", "class", "id"),
]


def reference_11pt(points, mode):
    """Interpolation by its definition: one scan of all points per level."""
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


@st.composite
def judged_rankings(draw):
    """Judgments with at least one relevant document, and a ranking over a
    pool that also holds unjudged documents."""
    pool = [f"d{i}" for i in range(draw(st.integers(1, 30)))]
    judged = draw(st.dictionaries(st.sampled_from(pool), st.booleans(), min_size=1))
    judged[next(iter(judged))] = True
    ranking = draw(st.lists(st.sampled_from(pool), unique=True))
    return Qrels({"q": judged}), ranking


@given(judged_rankings(), st.sampled_from(list(InterpMode)))
def test_interpolation_matches_definition(case, mode):
    qrels, ranking = case
    points = pr_points("q", ranking, qrels)
    assert interpolate_11pt(points, mode) == reference_11pt(points, mode)


@st.composite
def annotations(draw, start=None):
    entity = draw(st.sampled_from(corpusgen.SYNTH_ENTITY_RECORDS))
    alias = draw(st.sampled_from(entity["names"]))
    values = {"name": alias, "class": entity["class"], "id": entity["id"]}
    record = {f: values[f] for f in draw(st.sampled_from(FEATURE_SETS))}
    if start is not None:
        record.update(start=start, end=start + len(alias))
    return alias, record


@st.composite
def documents(draw, doc_id):
    parts, records, pos = [], [], 0
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.booleans()):
            word, record = draw(annotations(start=pos))
            records.append(record)
        else:
            word = draw(st.sampled_from(corpusgen.VOCAB))
        parts.append(word)
        pos += len(word) + 1
    return {"doc_id": doc_id, "text": " ".join(parts), "annotations": records}


@st.composite
def mentions(draw):
    """An annotation record and the text it spans, its alias in any letter case."""
    alias, record = draw(annotations())
    word = draw(st.sampled_from([str, str.upper, str.lower, str.swapcase]))(alias)
    if "name" in record:
        record["name"] = word
    return word, record


@st.composite
def repetitive_documents(draw):
    """Documents that draw their mentions from one small pool, so the same
    mention recurs within and across documents."""
    pool = draw(st.lists(mentions(), min_size=1, max_size=4))
    docs = []
    for i in range(draw(st.integers(1, 5))):
        parts, records, pos = [], [], 0
        for _ in range(draw(st.integers(0, 12))):
            if draw(st.booleans()):
                word, record = draw(st.sampled_from(pool))
                records.append(dict(record, start=pos, end=pos + len(word)))
            else:
                word = draw(st.sampled_from(corpusgen.VOCAB))
            parts.append(word)
            pos += len(word) + 1
        record = {"doc_id": f"d{i}", "text": " ".join(parts), "annotations": records}
        docs.append(ingest_document(record, KB, TAXONOMY))
    return docs


def reference_document_terms(doc):
    """Every annotation expanded on its own, plus one count per keyword token."""
    counts = Counter()
    for annotation in doc.annotations:
        counts.update(expand_annotation(annotation, KB, TAXONOMY))
    for token in doc.keyword_tokens:
        counts[keyword_term(token)] += 1
    return dict(counts)


@given(repetitive_documents())
def test_document_terms_match_per_occurrence_expansion(docs):
    index = build_index(docs, KB, TAXONOMY)
    indexed = {doc.doc_id: {} for doc in docs}
    for space in TERM_SPACES:
        for term in index.terms(space):
            for doc_id, tf in index.postings(term, space).items():
                indexed[doc_id][term] = tf
    for doc in docs:
        expected = reference_document_terms(doc)
        assert document_terms(doc, KB, TAXONOMY) == expected
        assert indexed[doc.doc_id] == expected


@st.composite
def queries(draw, query_id):
    keywords = draw(st.lists(st.sampled_from(corpusgen.QUERY_VOCAB), max_size=3))
    entities = [record for _, record in draw(st.lists(annotations(), max_size=2))]
    if not keywords and not entities:
        keywords = [draw(st.sampled_from(corpusgen.QUERY_VOCAB))]
    return {"query_id": query_id, "keywords": keywords, "entities": entities}


@st.composite
def collections(draw):
    n_docs = draw(st.integers(1, 8))
    docs = [ingest_document(draw(documents(f"d{i}")), KB, TAXONOMY) for i in range(n_docs)]
    records = [draw(queries(f"q{j}")) for j in range(draw(st.integers(1, 3)))]
    return build_index(docs, KB, TAXONOMY), [query_from_record(r, KB, TAXONOMY) for r in records]


@st.composite
def configs(draw):
    parts = draw(st.lists(st.integers(0, 4), min_size=4, max_size=4).filter(any))
    total = sum(parts)
    w_n, w_c, w_nc, w_i = (p / total for p in parts)
    alpha = draw(st.floats(0.0, 1.0))
    return ModelConfig(w_n=w_n, w_c=w_c, w_nc=w_nc, w_i=w_i, alpha=alpha)


def all_runs(index, query_list, config):
    runs = {}
    for query in query_list:
        for model in ALL_MODELS:
            try:
                runs[query.query_id, model] = search(index, query, model, config)
            except EmptyQueryError:
                pass
    return runs


@given(collections(), configs())
def test_scores_stay_in_unit_interval(collection, config):
    for results in all_runs(*collection, config).values():
        assert all(0.0 <= r.score <= 1.0 for r in results)


@given(collections(), configs())
def test_save_load_search_identical(collection, config):
    index, query_list = collection
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        reloaded = load_index(tmp)
    assert all_runs(reloaded, query_list, config) == all_runs(index, query_list, config)
