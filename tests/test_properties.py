"""Property tests: interpolation against its per-level definition, evaluation
against curves over every rank, document terms against per-occurrence
expansion, ingest's single token pass against tokenize and the per-token span
rule, query terms nested in document terms, the filter-set laws, the score
range, score rounding against ``round``, search against a per-use reference
scorer, filter, search and score
raising on the same queries and agreeing on scores, save/load/search identity,
one array and one saved row for each distinct posting list, saved doc-number
gaps loading back as the lists saved, loaders and subcommands fed fuzzed
input files, and a fuzzed index file refused or loaded into an index that
re-saves the records read."""
import contextlib
import copy
import dataclasses
import functools
import io
import itertools
import json
import math
import operator
import random
import tempfile
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpusgen
from conftest import narrowest_typecode, restamp, round_canonical
from oracle import pr_points
from ontovsm import retrieval
from ontovsm.cli import main
from ontovsm.corpus import (
    annotation_from_record,
    ingest_document,
    load_corpus,
    load_queries,
    load_stopword_file,
    query_from_record,
    tokenize,
    tokenize_with_spans,
)
from ontovsm.errors import EmptyQueryError, IndexFormatError, OntoVsmError
from ontovsm.evaluation import (
    RECALL_LEVELS,
    InterpMode,
    average,
    curve_from_points,
    evaluate_runs,
    interpolate_11pt,
    load_qrels,
    load_run_file,
)
from ontovsm.index import (
    MAX_TF,
    STORED_SPACES,
    TYPECODE,
    InvertedIndex,
    build_index,
    idf_weight,
    load_index,
    save_index,
)
from ontovsm.ontology import (
    load_knowledge_base,
    load_taxonomy,
    parse_json,
    read_jsonl,
    read_kb_file,
    read_taxonomy_file,
)
from ontovsm.retrieval import (
    ALL_MODELS,
    ModelConfig,
    ModelKind,
    filter_documents,
    score,
    search,
)
from ontovsm.termspace import (
    ENTITY_SPACES,
    TERM_SPACES,
    Term,
    document_terms,
    expand_annotation,
    keyword_term,
    query_terms,
    query_terms_nonoverlapped,
    query_terms_overlapped,
)

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
    return {"q": judged}, ranking


@given(judged_rankings(), st.sampled_from(list(InterpMode)))
def test_interpolation_matches_definition(case, mode):
    qrels, ranking = case
    points = pr_points("q", ranking, qrels)
    assert interpolate_11pt(points, mode) == reference_11pt(points, mode)


@st.composite
def judged_runs(draw):
    """Judgments of several queries, and runs of several models in which a
    judged query may be missing, empty, without a relevant document, or led
    by one."""
    pool = [f"d{i}" for i in range(draw(st.integers(1, 12)))]
    judgments = {
        f"q{j}": draw(st.dictionaries(st.sampled_from(pool), st.booleans(), min_size=1))
        for j in range(draw(st.integers(1, 4)))
    }
    judgments["q0"][next(iter(judgments["q0"]))] = True
    runs = {}
    for m in range(draw(st.integers(1, 3))):
        run = {}
        for q, judged in judgments.items():
            relevant = [d for d, flag in judged.items() if flag]
            shape = draw(st.sampled_from(["missing", "empty", "no relevant", "relevant first", "any"]))
            ranking = draw(st.lists(st.sampled_from(pool), unique=True))
            if shape == "missing":
                continue
            if shape == "empty":
                ranking = []
            elif shape == "no relevant":
                ranking = [d for d in ranking if d not in relevant]
            elif shape == "relevant first" and relevant:
                first = draw(st.sampled_from(relevant))
                ranking = [first] + [d for d in ranking if d != first]
            run[q] = ranking
        runs[f"m{m}"] = run
    return judgments, runs


@given(judged_runs(), st.sampled_from(list(InterpMode)))
def test_evaluation_matches_curves_over_every_rank(case, mode):
    qrels, runs = case
    eval_ids = sorted(q for q, judged in qrels.items() if any(judged.values()))
    report = evaluate_runs(runs, qrels, mode)
    for label, run in runs.items():
        curves = [curve_from_points(pr_points(q, run.get(q, []), qrels), mode) for q in eval_ids]
        assert report.curves[label] == average(curves)


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


@given(mentions())
def test_query_terms_nest_in_document_terms(mention):
    """Each side of the term lattice contains the narrower one, and a document
    expansion names each term once."""
    annotation = annotation_from_record(mention[1])
    expansion = expand_annotation(annotation, KB, TAXONOMY)
    assert set(expansion.values()) == {1}
    overlapped = query_terms_overlapped(annotation, KB)
    assert query_terms_nonoverlapped(annotation) <= overlapped <= expansion.keys()


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


# "ß" and "İ" change length when case-folded; "_" and "." split tokens.
SPAN_TEXT = st.text(st.sampled_from("ab ßİ_.1"), max_size=24)


@st.composite
def spanned_texts(draw):
    """A text cut into consecutive segments, some of them annotated: so spans
    start and end mid-word, touch each other and sit at either end."""
    text = draw(SPAN_TEXT)
    inner = st.sets(st.integers(1, len(text) - 1)) if len(text) > 1 else st.just(set())
    bounds = sorted({0, len(text), *draw(inner)})
    records = [
        {"start": s, "end": e, "name": "x"}
        for s, e in zip(bounds, bounds[1:])
        if draw(st.booleans())
    ]
    tokens = tokenize(text)
    stopwords = draw(st.none() | st.sets(st.sampled_from(tokens))) if tokens else None
    return {"doc_id": "d", "text": text, "annotations": records}, stopwords


def reference_keyword_tokens(doc, stopwords):
    """The per-token rule: a token is a keyword unless the first span ending
    after its start, found by bisection, begins before the token ends."""
    starts = [a.start for a in doc.annotations]
    ends = [a.end for a in doc.annotations]
    kept = []
    for tok, ts, te in tokenize_with_spans(doc.text):
        i = bisect_right(ends, ts)
        if (i == len(ends) or te <= starts[i]) and not (stopwords and tok in stopwords):
            kept.append(tok)
    return tuple(kept)


@given(spanned_texts())
def test_single_pass_matches_tokenize_and_span_rule(case):
    record, stopwords = case
    doc = ingest_document(record, KB, TAXONOMY, stopwords)
    assert doc.tokens == tuple(tokenize(record["text"], stopwords))
    assert doc.keyword_tokens == reference_keyword_tokens(doc, stopwords)


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


# Each pair's first model admits a subset of what its second admits.
FILTER_LAWS = [
    (ModelKind.NE_O, ModelKind.NE_N),
    (ModelKind.KW_AND_NE_O, ModelKind.KW_OR_NE_O),
    (ModelKind.KW_AND_NE_N, ModelKind.KW_OR_NE_N),
]


@given(collections(), configs())
def test_filter_set_laws(collection, config):
    index, query_list = collection
    runs = all_runs(index, query_list, config)
    for query in query_list:
        sets = {}
        for model in ALL_MODELS:
            try:
                sets[model] = filter_documents(index, query, model)
            except EmptyQueryError:
                pass
        for narrow, wide in FILTER_LAWS:
            if narrow in sets and wide in sets:
                assert sets[narrow] <= sets[wide]
        for model in ALL_MODELS:
            results = runs.get((query.query_id, model))
            assert (results is None) == (model not in sets)
            assert {r.doc_id for r in results or ()} <= sets.get(model, set())


def reference_candidates(index, terms, model):
    """The filter as it read the index term by term, sides present by terms."""
    by_space = {}
    for term in terms:
        by_space.setdefault(term.space, []).append(term)
    sides = []
    if model.keyword_space is not None and "KW" in by_space:
        sides.append(set().union(*(index.postings(t, model.keyword_space) for t in by_space["KW"])))
    entity = [
        set().union(*(index.postings(t, s) for t in by_space[s]))
        for s in ENTITY_SPACES
        if model.entity_side and s in by_space
    ]
    if entity:
        sides.append(set.intersection(*entity) if model.overlapped else set.union(*entity))
    if not sides:
        return set()
    return set.intersection(*sides) if model.conjunctive else set.union(*sides)


def stored(term, space):
    return term.space if space == "UNIFIED" else space


def reference_search(index, query, model, config, top_k):
    """Search with one ``index.postings`` call per use: each space sorts the
    query terms, weighs those of its home space, and adds c * tf / |d| term by
    term in the same order as ``search``. ``UNIFIED`` reads a term in its home
    space."""
    terms = query_terms(query, KB, overlapped=model.overlapped)
    scores = dict.fromkeys(reference_candidates(index, terms, model), 0.0)
    if model.score == "entity":
        weights = config.space_weights
    elif model.score == "blend":
        weights = {s: config.alpha * w for s, w in config.space_weights.items()}
        weights["KW"] = 1.0 - config.alpha
    else:
        weights = {model.score: 1.0}
    for space, weight in weights.items():
        home = "KW" if space == "KW_FULL" else space
        idfs = [
            (t, idf_weight(index.n_docs, len(index.postings(t, stored(t, space)))))
            for t in sorted(terms)
            if space == "UNIFIED" or t.space == home
        ]
        idfs = [(t, w) for t, w in idfs if w > 0.0]
        query_norm = math.sqrt(sum(w * w for _, w in idfs))
        for t, w in idfs:
            c = weight * w * w / query_norm
            for doc_id, tf in index.postings(t, stored(t, space)).items():
                if doc_id in scores:
                    scores[doc_id] += c * tf / index.norms[space][index.ids.index(doc_id)]
    rounded = {d: round_canonical(v) for d, v in scores.items()}
    return sorted(rounded.items(), key=lambda item: (-item[1], item[0]))[:top_k]


@given(
    collections(),
    configs(),
    st.sampled_from([None, 0.0, 1.0]),
    st.sampled_from([0, 1, 3, 1000]),
)
def test_search_matches_per_use_reference(collection, config, alpha, top_k):
    """Queries draw keywords from QUERY_VOCAB, which holds two words no
    document has: such a keyword still empties an AND."""
    index, query_list = collection
    if alpha is not None:
        config = dataclasses.replace(config, alpha=alpha)
    for query in query_list:
        for model in ALL_MODELS:
            try:
                results = search(index, query, model, config, top_k)
            except EmptyQueryError:
                continue
            terms = query_terms(query, KB, overlapped=model.overlapped)
            assert filter_documents(index, query, model) == reference_candidates(index, terms, model)
            assert results == reference_search(index, query, model, config, top_k)


def ulps_from(s, steps):
    """The double ``steps`` ulps above ``s``, or below it when ``steps`` is negative."""
    toward = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        s = math.nextafter(s, toward)
    return s


def exact_half(k):
    """The double nearest (k + 1/2) / 10**12, a tie of ``round``'s decimal step."""
    return (k + 0.5) / 10**12


near_halves = st.builds(
    lambda k, steps: ulps_from(exact_half(k), steps),
    st.integers(0, 10**12 - 1),
    st.integers(-3, 3),
)


@given(
    st.one_of(
        st.floats(0.0, 1.0),
        near_halves,
        st.sampled_from([0.0, 1.0, 1 + 2**-52, math.nextafter(1.0, 0.0)]),
    )
)
def test_canonical_score_is_round(s):
    assert retrieval._canonical(s).hex() == round_canonical(s).hex()


@pytest.mark.scale
def test_canonical_score_sweep():
    """``_canonical`` against ``round`` on 2,000,000 seeded floats in [0, 1), and
    on the doubles within 3 ulps of 100,000 random exact halves; run with
    ``-m scale``."""
    rng = random.Random(2024)
    canonical = retrieval._canonical
    uniform = (rng.random() for _ in range(2_000_000))
    halves = (
        ulps_from(half, steps)
        for half in (exact_half(rng.randrange(10**12)) for _ in range(100_000))
        for steps in range(-3, 4)
    )
    mismatches = [
        s
        for s in itertools.chain(uniform, halves)
        if canonical(s).hex() != round_canonical(s).hex()
    ]
    assert mismatches == []


def empty_query_error(call, *args):
    """The message of the ``EmptyQueryError`` that ``call`` raises, or None."""
    try:
        call(*args)
    except EmptyQueryError as exc:
        return str(exc)
    return None


@given(collections(), configs())
def test_filter_search_and_score_share_one_read(collection, config):
    """The three entry points raise the same error on the same (query, model)
    pairs, and ``score`` gives every ranked document its ``search`` score."""
    index, query_list = collection
    for query in query_list:
        for model in ALL_MODELS:
            errors = {
                empty_query_error(filter_documents, index, query, model),
                empty_query_error(search, index, query, model, config),
                empty_query_error(score, index, query, index.doc_ids[0], model, config),
            }
            assert len(errors) == 1
            if errors == {None}:
                for r in search(index, query, model, config, index.n_docs):
                    assert score(index, query, r.doc_id, model, config) == r.score


@given(collections(), configs())
def test_save_load_search_identical(collection, config):
    index, query_list = collection
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        reloaded = load_index(tmp)
    assert all_runs(reloaded, query_list, config) == all_runs(index, query_list, config)


@given(collections())
def test_a_list_is_shared_exactly_when_equal(collection):
    index, _ = collection
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp) / "a", Path(tmp) / "b"
        save_index(index, a)
        loaded = load_index(a)
        save_index(loaded, b)
        rows = (a / "postings.jsonl").read_text(encoding="utf-8").splitlines()
        for name in ("stats.json", "postings.jsonl"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    for held in (index, loaded):
        plists = [held.posting_list(t, s) for s in STORED_SPACES for t in held.terms(s)]
        for first, second in itertools.combinations(plists, 2):
            assert (first is second) == (first == second)
        assert len(rows) == len({id(plist) for plist in plists})


@st.composite
def ascending_lists(draw):
    """A collection size and up to one posting list per stored space, each drawn
    as a first doc number and the gaps after it, so that a first doc 0, gaps of 1
    and a list that ends on the last document are all common."""
    drawn = draw(
        st.lists(
            st.tuples(st.integers(0, 2), st.lists(st.integers(1, 3), max_size=6)),
            min_size=1,
            max_size=len(STORED_SPACES),
        )
    )
    lists = [list(accumulate([first, *gaps])) for first, gaps in drawn]
    n_docs = max(docs[-1] for docs in lists) + 1 + draw(st.integers(0, 1))
    tfs = st.integers(1, MAX_TF)
    return n_docs, [
        (docs, draw(st.lists(tfs, min_size=len(docs), max_size=len(docs)))) for docs in lists
    ]


@given(ascending_lists())
@example((3, [([0, 1, 2], [1, MAX_TF, 1])]))
@example((3, [([0, 2], [1, 1]), ([1], [2]), ([0, 2], [1, 1]), ([1], [2])]))
def test_saved_gaps_load_as_the_lists_saved(case):
    n_docs, lists = case
    postings = {space: {} for space in STORED_SPACES}
    for space, (docs, tfs) in zip(STORED_SPACES, lists):
        term = Term("KW" if space == "KW_FULL" else space, "t", "")
        postings[space][term] = array(TYPECODE, [n for pair in zip(docs, tfs) for n in pair])
    index = InvertedIndex([f"d{n:02d}" for n in range(n_docs)], postings, KB, TAXONOMY)
    with tempfile.TemporaryDirectory() as tmp:
        save_index(index, tmp)
        rows = (Path(tmp) / "postings.jsonl").read_text(encoding="utf-8").splitlines()
        loaded = load_index(tmp)
    saved = [json.loads(row) for row in rows]
    # One row per distinct list, in the order of its first space, naming each space that has it.
    distinct = [drawn for at, drawn in enumerate(lists) if drawn not in lists[:at]]
    assert [(list(accumulate(row["docs"])), row["tfs"]) for row in saved] == distinct
    assert [row["terms"] for row in saved] == [
        [[space, "t", ""] for space, drawn in zip(STORED_SPACES, lists) if drawn == kept]
        for kept in distinct
    ]
    for space in STORED_SPACES:
        assert loaded.terms(space) == index.terms(space)
        for term in index.terms(space):
            built, saved = index.posting_list(term, space), loaded.posting_list(term, space)
            assert saved == built
            assert saved.typecode == built.typecode == narrowest_typecode(built)
    assert loaded.norms == index.norms


# Fuzzed input files. Each starts as a valid file of a small dataset. Its
# contents become arbitrary bytes, or the valid records with up to three parts,
# at any depth, replaced by a JSON value of any type or removed. Loaders may
# only raise OntoVsmError, and a subcommand ends in exit 0, or in exit 2 with
# one error line.

DATASET = corpusgen.synthetic_dataset(seed=3, n_docs=6, n_queries=2)
INDEX_FILES = ("ix/stats.json", "ix/postings.jsonl", "ix/taxonomy.jsonl", "ix/kb.jsonl")
INDEX_JSONL = [Path(name).name for name in INDEX_FILES[1:]]


def jsonl(records):
    return "".join(json.dumps(record) + "\n" for record in records).encode()


def text_lines(lines):
    # A lone surrogate becomes bytes that are not UTF-8.
    return "\n".join(" ".join(tokens) for tokens in lines).encode("utf-8", "surrogatepass")


def _saved_index():
    docs = [ingest_document(record, KB, TAXONOMY) for record in DATASET["docs"]]
    with tempfile.TemporaryDirectory() as tmp:
        save_index(build_index(docs, KB, TAXONOMY), tmp)
        return {f"ix/{p.name}": p.read_bytes() for p in Path(tmp).iterdir()}


VALID_FILES = {
    "taxonomy.jsonl": jsonl(DATASET["taxonomy"]),
    "kb.jsonl": jsonl(DATASET["kb"]),
    "corpus.jsonl": jsonl(DATASET["docs"]),
    "queries.jsonl": jsonl(DATASET["queries"]),
    "qrels.txt": "".join(corpusgen.qrels_lines(DATASET["qrels"])).encode(),
    "stop.txt": b"the\nharbor\n",
    "kw.run": b"q01 Q0 d01 1 0.500000 kw\nq01 Q0 d02 2 0.250000 kw\n",
    **_saved_index(),
}
# Whitespace splits ids, "*" means unspecified, and a lone surrogate survives
# JSON escaping but cannot be written as UTF-8.
ODD_TEXT = st.text(st.sampled_from(" \t\n\x00*_\u00e9\ud800\udc00") | st.characters(), max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | ODD_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(ODD_TEXT, inner, max_size=3),
    max_leaves=6,
)
TOKENS = sorted({token for name in ("qrels.txt", "kw.run") for token in VALID_FILES[name].split()})
TEXT_VALUES = ODD_TEXT | st.sampled_from([token.decode() for token in TOKENS] + ["nan", "-1"])
REMOVE = object()


def paths(value, prefix=()):
    """The path to every part of ``value`` below its root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def mutated(draw, value, replacements):
    """A copy of ``value`` with up to three of its parts replaced or removed."""
    value = copy.deepcopy(value)
    for _ in range(draw(st.integers(0, 3))):
        choices = list(paths(value))
        if not choices:
            break
        *parents, key = draw(st.sampled_from(choices))
        container = functools.reduce(operator.getitem, parents, value)
        # A string is often swapped for odd text, so that the record stays valid
        # around it; any part may become any value or be removed.
        like = ODD_TEXT if isinstance(container[key], str) else st.nothing()
        replacement = draw(like | replacements | st.just(REMOVE))
        if replacement is REMOVE:
            del container[key]
        else:
            container[key] = replacement
    return value


def file_contents(name):
    valid = VALID_FILES[name]
    if name.endswith(".jsonl"):
        records = [json.loads(line) for line in valid.splitlines()]
        shaped = mutated(records, JSON_VALUES).map(jsonl)
    elif name.endswith(".json"):
        shaped = mutated(json.loads(valid), JSON_VALUES).map(lambda v: json.dumps(v).encode())
    else:
        lines = [line.split() for line in valid.decode().splitlines()]
        shaped = mutated(lines, TEXT_VALUES).map(text_lines)
    return st.binary(max_size=40) | shaped


def write_inputs(directory, name, contents):
    """Write the valid files with ``contents`` as ``name``. A mutated index file
    is restamped in stats.json, so that it reaches the checks behind the digest."""
    (directory / "ix").mkdir()
    for valid_name, valid in VALID_FILES.items():
        (directory / valid_name).write_bytes(contents if valid_name == name else valid)
    if name in INDEX_FILES and name != "ix/stats.json":
        restamp(directory / "ix", Path(name).name)


LOADERS = {
    "taxonomy.jsonl": read_taxonomy_file,
    "kb.jsonl": lambda path: read_kb_file(path, TAXONOMY),
    "corpus.jsonl": lambda path: list(load_corpus(path, KB, TAXONOMY)),
    "queries.jsonl": lambda path: load_queries(path, KB, TAXONOMY),
    "stop.txt": load_stopword_file,
    "qrels.txt": load_qrels,
    "kw.run": load_run_file,
    **{name: lambda path: load_index(path.parent) for name in INDEX_FILES},
}


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=60)
@given(data=st.data())
def test_loaders_raise_only_package_errors(name, data):
    contents = data.draw(file_contents(name), label="contents")
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), name, contents)
        try:
            LOADERS[name](Path(tmp) / name)
        except OntoVsmError:
            pass


def saved_records(index_dir):
    """Each file of an index directory as its reader parses it: a JSONL file's
    records, in order, and stats.json without its files map, whose digests follow
    the bytes, of which a \\u escape and a space after a separator are spellings."""
    records = {name: list(read_jsonl(index_dir / name, ValueError)) for name in INDEX_JSONL}
    stats = parse_json((index_dir / "stats.json").read_text(encoding="utf-8"))
    return {**records, "stats.json": {k: v for k, v in stats.items() if k != "files"}}


def reloads_exactly_or_is_refused(name, data):
    contents = data.draw(file_contents(name), label="contents")
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), name, contents)
        try:
            index = load_index(Path(tmp) / "ix")
        except IndexFormatError:
            return
        save_index(index, Path(tmp) / "resaved")
        assert saved_records(Path(tmp) / "resaved") == saved_records(Path(tmp) / "ix")


@pytest.mark.parametrize("name", INDEX_FILES)
@settings(max_examples=60)
@given(data=st.data())
def test_a_loaded_index_resaves_as_read(name, data):
    """Property B: a mutated index file, restamped unless it is stats.json, is
    refused, or loads an index whose save writes the records read, file for file."""
    reloads_exactly_or_is_refused(name, data)


@pytest.mark.scale
@pytest.mark.parametrize("name", INDEX_FILES)
@settings(max_examples=2000)
@given(data=st.data())
def test_a_loaded_index_resaves_as_read_sweep(name, data):
    """Property B at 2,000 examples for each index file; run with ``-m scale``."""
    reloads_exactly_or_is_refused(name, data)


def command_line(command, d):
    sources = [
        "--taxonomy", str(d / "taxonomy.jsonl"),
        "--kb", str(d / "kb.jsonl"),
        "--corpus", str(d / "corpus.jsonl"),
    ]
    queries = ["--queries", str(d / "queries.jsonl")]
    return {
        "build-index": [
            "build-index", *sources, "--stopwords", str(d / "stop.txt"),
            "--index", str(d / "built"),
        ],
        "annotate": ["annotate", *sources, "--out", str(d / "annotated.jsonl")],
        "search": ["search", "--index", str(d / "ix"), *queries, "--out", str(d / "runs")],
        "eval": [
            "eval", str(d / "kw.run"), "--qrels", str(d / "qrels.txt"), "--out", str(d / "ev"),
        ],
        "compare": [
            "compare", *sources, *queries, "--stopwords", str(d / "stop.txt"),
            "--qrels", str(d / "qrels.txt"), "--out", str(d / "cmp"),
        ],
        "dump-index": ["dump-index", "--index", str(d / "ix")],
    }[command]


COMMAND_INPUTS = {
    "build-index": ["taxonomy.jsonl", "kb.jsonl", "corpus.jsonl", "stop.txt"],
    "annotate": ["taxonomy.jsonl", "kb.jsonl", "corpus.jsonl"],
    "search": [*INDEX_FILES, "queries.jsonl"],
    "eval": ["kw.run", "qrels.txt"],
    "compare": [
        "taxonomy.jsonl", "kb.jsonl", "corpus.jsonl", "stop.txt", "queries.jsonl", "qrels.txt",
    ],
    "dump-index": list(INDEX_FILES),
}


@pytest.mark.parametrize("command", COMMAND_INPUTS)
@settings(max_examples=50)
@given(data=st.data())
def test_subcommands_exit_0_or_2_with_one_error_line(command, data):
    name = data.draw(st.sampled_from(COMMAND_INPUTS[command]), label="fuzzed file")
    contents = data.draw(file_contents(name), label="contents")
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp), name, contents)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(command_line(command, Path(tmp)))
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if not line.startswith("warning:")]
    assert (rc, len(errors)) in ((0, 0), (2, 1))
    assert rc == 0 or lines[-1].startswith("error:")
