"""Inverted index over the partitioned term spaces.

Six stored spaces: the five partitioned spaces (N, C, NC, I, KW) plus
``KW_FULL``, which counts ingest's whole token stream with annotations ignored
and backs the keyword-only baseline. ``UNIFIED`` is a seventh, derived space:
the five partitioned spaces merged into one vector, with each term keeping the
document frequency of its home space.

Term weights are tf.idf with idf(t) = ln(1 + N/df(t)) for a collection of N
documents; a term that occurs nowhere gets weight zero. All per-space term
maps iterate in sorted term order so that scores and serialized files are
reproducible byte for byte.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path
from typing import IO, Iterable, Mapping

from .corpus import AnnotatedDocument, is_plain_id
from .errors import CorpusError, IndexFormatError
from .ontology import (
    ClassTaxonomy,
    KnowledgeBase,
    knowledge_base_records,
    load_knowledge_base,
    load_taxonomy,
    parse_json,
    read_jsonl,
    taxonomy_records,
    write_jsonl,
)
from .termspace import TERM_SPACES, Term, document_terms, format_term, keyword_term

STORED_SPACES = ("N", "C", "NC", "I", "KW", "KW_FULL")
VECTOR_SPACES = STORED_SPACES + ("UNIFIED",)

INDEX_FORMAT = "ontovsm-index"
INDEX_VERSION = 2

Postings = Mapping[str, Mapping[Term, dict[str, int]]]


def idf_weight(n_docs: int, df: int) -> float:
    """ln(1 + N/df) for a collection of ``n_docs`` documents; 0 for a term in none."""
    return math.log(1.0 + n_docs / df) if df else 0.0


class InvertedIndex:
    """Per-space term statistics for a fixed document collection.

    It answers stored-space lookups only: ``postings``, ``terms`` and
    ``term_count`` raise ``ValueError`` for any other space, ``UNIFIED``
    included, which exists only in ``norms``. A term's df in a space is the
    length of its postings there; ``retrieval._read`` decides which space a
    query term is read in.

    The knowledge base and taxonomy that produced the expansion travel with
    the index, as does the stopword set, so queries can be interpreted against
    exactly the vocabulary the documents were indexed with.

    The index keeps the posting lists it is given, uncopied: ``postings`` must
    hold every stored space, and its lists must not change afterwards. Both
    builders key every posting on the string in ``doc_ids``, so each id is held once.
    A ``KW_FULL`` list equal to the ``KW`` list of its term, in order, is that list.
    """

    def __init__(
        self,
        doc_ids: Iterable[str],
        postings: Postings,
        kb: KnowledgeBase,
        taxonomy: ClassTaxonomy,
        stopwords: Iterable[str] = (),
    ):
        self.doc_ids = list(doc_ids)
        self.kb = kb
        self.taxonomy = taxonomy
        self.stopwords = frozenset(stopwords)
        # Normalize to sorted term order here so the build and load paths
        # produce identical iteration order, hence identical float sums.
        self._postings: dict[str, dict[Term, dict[str, int]]] = {
            space: {t: postings[space][t] for t in sorted(postings[space])}
            for space in STORED_SPACES
        }
        kw, kw_full = self._postings["KW"], self._postings["KW_FULL"]
        for term, plist in kw_full.items():
            if kw.get(term) == plist and list(kw[term]) == list(plist):
                kw_full[term] = kw[term]  # an existing key: the map does not resize
        # Each document's tf.idf vector length per vector space, absent where it has
        # no term. Squares sum in sorted term order, UNIFIED running on through the
        # partitioned spaces in TERM_SPACES order; each sum is then rooted in place.
        sumsq: dict[str, dict[str, float]] = {s: {} for s in VECTOR_SPACES}
        for space, sp in self._postings.items():
            accs = (sumsq[space], sumsq["UNIFIED"]) if space in TERM_SPACES else (sumsq[space],)
            for term, plist in sp.items():
                idf = idf_weight(self.n_docs, len(plist))
                for doc_id, tf in plist.items():
                    weight = tf * idf
                    for acc in accs:
                        acc[doc_id] = acc.get(doc_id, 0.0) + weight * weight
        for acc in sumsq.values():
            for doc_id, v in acc.items():
                acc[doc_id] = math.sqrt(v)
        self.norms = sumsq

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def _stored(self, space: str) -> dict[Term, dict[str, int]]:
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        return self._postings[space]

    def term_count(self, space: str) -> int:
        return len(self._stored(space))

    def terms(self, space: str) -> list[Term]:
        return list(self._stored(space))

    def postings(self, term: Term, space: str) -> dict[str, int]:
        return self._stored(space).get(term, {})


def build_index(
    docs: Iterable[AnnotatedDocument],
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Iterable[str] = (),
) -> InvertedIndex:
    """Index a collection; pass the stopword set the documents were loaded with.

    Ingest has already dropped the stopwords from every token stream, so the
    set is only recorded here, for the queries.
    """
    doc_ids: dict[str, None] = {}
    raw: dict[str, dict[Term, dict[str, int]]] = {s: {} for s in STORED_SPACES}
    # Shared by every document of this build: each distinct mention is
    # expanded once, however often the collection repeats it.
    expansions: dict = {}
    for doc in docs:
        # load_index and load_run_file reject any other id.
        if not is_plain_id(doc.doc_id):
            raise CorpusError(f"document id {doc.doc_id!r} is empty or holds whitespace")
        if doc.doc_id in doc_ids:
            raise CorpusError(f"document {doc.doc_id!r} indexed twice")
        doc_ids[doc.doc_id] = None
        for term, tf in document_terms(doc, kb, taxonomy, expansions).items():
            raw[term.space].setdefault(term, {})[doc.doc_id] = tf
        # The keyword baseline sees the whole text as keywords, annotated or not.
        for token, tf in Counter(doc.tokens).items():
            raw["KW_FULL"].setdefault(keyword_term(token), {})[doc.doc_id] = tf
    return InvertedIndex(doc_ids, raw, kb, taxonomy, stopwords)


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write an index directory that ``load_index`` restores exactly."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    write_jsonl(
        path / "postings.jsonl",
        (
            {
                "space": space,
                "term": [term.primary, term.secondary],
                "postings": [[d, tf] for d, tf in plist.items()],
            }
            for space in STORED_SPACES
            for term, plist in index._postings[space].items()
        ),
    )
    write_jsonl(path / "taxonomy.jsonl", taxonomy_records(index.taxonomy))
    write_jsonl(path / "kb.jsonl", knowledge_base_records(index.kb))
    stats = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.n_docs,
        "doc_ids": index.doc_ids,
        "stopwords": sorted(index.stopwords),
        "terms": {space: index.term_count(space) for space in STORED_SPACES},
    }
    with open(path / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def load_index(path: str | Path) -> InvertedIndex:
    path = Path(path)
    try:
        stats = parse_json((path / "stats.json").read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise IndexFormatError(f"{path} is not an index directory (no stats.json)") from None
    except (ValueError, RecursionError) as exc:  # JSON and UTF-8 errors
        raise IndexFormatError(f"{path / 'stats.json'}: {exc}") from None
    if not isinstance(stats, dict) or stats.get("format") != INDEX_FORMAT:
        raise IndexFormatError(f"{path}: not a {INDEX_FORMAT} directory")
    if stats.get("version") != INDEX_VERSION:
        raise IndexFormatError(
            f"{path}: unsupported index version {stats.get('version')!r}"
        )

    taxonomy = load_taxonomy(read_jsonl(path / "taxonomy.jsonl", IndexFormatError))
    kb = load_knowledge_base(read_jsonl(path / "kb.jsonl", IndexFormatError), taxonomy)

    doc_ids = stats.get("doc_ids")
    if not isinstance(doc_ids, list):
        raise IndexFormatError(f"{path}: stats.json lacks a doc_ids list")
    # Each id maps to itself, so every posting can key on this one string.
    known: dict[str, str] = {}
    for doc_id in doc_ids:
        if not is_plain_id(doc_id):
            raise IndexFormatError(f"{path}: stats.json has a malformed doc id {doc_id!r}")
        if doc_id in known:
            raise IndexFormatError(f"{path}: stats.json lists document {doc_id!r} twice")
        known[doc_id] = doc_id
    if stats.get("doc_count") != len(doc_ids):
        raise IndexFormatError(
            f"{path}: stats.json's doc_count {stats.get('doc_count')!r} "
            f"does not match its {len(doc_ids)} doc ids"
        )
    stopwords = stats.get("stopwords", [])
    if not (isinstance(stopwords, list) and all(isinstance(w, str) for w in stopwords)):
        raise IndexFormatError(f"{path}: stats.json's stopwords is not a list of strings")

    postings: dict[str, dict[Term, dict[str, int]]] = {s: {} for s in STORED_SPACES}
    for row in read_jsonl(path / "postings.jsonl", IndexFormatError):
        try:
            space, term, entries = row["space"], row["term"], row["postings"]
            plist = {known.get(doc, doc): tf for doc, tf in entries}
        except (KeyError, TypeError, ValueError):
            raise IndexFormatError(f"{path}: malformed posting row {row!r}") from None
        if not (
            isinstance(term, list) and len(term) == 2 and all(isinstance(p, str) for p in term)
        ):
            raise IndexFormatError(f"{path}: malformed posting row {row!r}")
        if space not in STORED_SPACES:
            raise IndexFormatError(f"{path}: unknown term space {space!r}")
        if not plist:
            raise IndexFormatError(f"{path}: posting row lists no documents: {row!r}")
        if len(plist) != len(entries):
            raise IndexFormatError(f"{path}: posting row lists a document twice: {row!r}")
        for doc, tf in plist.items():
            if doc not in known:
                raise IndexFormatError(f"{path}: posting names unknown document {doc!r}")
            # bool is an int subclass, so JSON true would pass isinstance.
            if type(tf) is not int or tf < 1:
                raise IndexFormatError(
                    f"{path}: posting of document {doc!r} has term frequency {tf!r}, "
                    "not a positive integer"
                )
        # A KW_FULL row holds a KW term.
        key = Term("KW" if space == "KW_FULL" else space, *term)
        if key in postings[space]:
            raise IndexFormatError(
                f"{path}: two posting rows for term {format_term(key)} in space {space}"
            )
        postings[space][key] = plist
    counts = {space: len(postings[space]) for space in STORED_SPACES}
    if stats.get("terms") != counts:
        raise IndexFormatError(
            f"{path}: stats.json's term counts {stats.get('terms')!r} do not match "
            f"the postings' {counts!r}"
        )

    return InvertedIndex(doc_ids, postings, kb, taxonomy, stopwords)


def dump_index(index: InvertedIndex, out: IO[str]) -> None:
    """Human-readable listing of the five partitioned term spaces."""
    out.write(f"documents: {index.n_docs}\n")
    for space in TERM_SPACES:
        out.write(f"space {space}: {index.term_count(space)} terms\n")
        for term in index.terms(space):
            plist = index.postings(term, space)
            occurrences = " ".join(f"{doc}:{tf}" for doc, tf in plist.items())
            out.write(f"  {format_term(term)}  df={len(plist)}  {occurrences}\n")
