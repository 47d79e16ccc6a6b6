"""Inverted index over the partitioned term spaces.

Six stored spaces: the five partitioned spaces (N, C, NC, I, KW) plus
``KW_FULL``, which tokenizes the whole text with annotations ignored and backs
the keyword-only baseline. ``UNIFIED`` is a seventh, derived space: the five
partitioned spaces merged into one vector, with each term keeping the document
frequency of its home space.

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

from .corpus import AnnotatedDocument, tokenize
from .errors import IndexFormatError
from .ontology import (
    ClassTaxonomy,
    KnowledgeBase,
    load_knowledge_base,
    load_taxonomy,
    read_jsonl,
)
from .termspace import TERM_SPACES, Term, document_terms, format_term, keyword_term

STORED_SPACES = ("N", "C", "NC", "I", "KW", "KW_FULL")
VECTOR_SPACES = STORED_SPACES + ("UNIFIED",)

INDEX_FORMAT = "ontovsm-index"
INDEX_VERSION = 1

Postings = Mapping[str, Mapping[Term, Mapping[str, int]]]


class InvertedIndex:
    """Per-space term statistics for a fixed document collection.

    The knowledge base and taxonomy that produced the expansion travel with
    the index, as does the stopword set, so queries can be interpreted against
    exactly the vocabulary the documents were indexed with.
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
        self.doc_set = frozenset(self.doc_ids)
        # Normalize to sorted term order here so the build and load paths
        # produce identical iteration order, hence identical float sums.
        self._postings: dict[str, dict[Term, dict[str, int]]] = {
            space: {t: dict(sp[t]) for t in sorted(sp)}
            for space, sp in ((s, postings.get(s, {})) for s in STORED_SPACES)
        }
        # Each document's tf.idf vector length per vector space, absent where
        # it has no term. Squares are summed in sorted term order, and UNIFIED
        # runs on through the partitioned spaces in TERM_SPACES order.
        sumsq: dict[str, dict[str, float]] = {s: {} for s in VECTOR_SPACES}
        for space, sp in self._postings.items():
            accs = (sumsq[space], sumsq["UNIFIED"]) if space in TERM_SPACES else (sumsq[space],)
            for term, plist in sp.items():
                idf = self.idf(term, space)
                for doc_id, tf in plist.items():
                    weight = tf * idf
                    for acc in accs:
                        acc[doc_id] = acc.get(doc_id, 0.0) + weight * weight
        self.norms = {s: {d: math.sqrt(v) for d, v in acc.items()} for s, acc in sumsq.items()}

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def _space_of(self, term: Term, space: str | None) -> str:
        # UNIFIED holds no terms of its own; statistics come from the term's
        # home space, which is what merging disjoint partitions preserves.
        if space is None or space == "UNIFIED":
            return term.space
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        return space

    def term_count(self, space: str) -> int:
        if space == "UNIFIED":
            return sum(len(self._postings[s]) for s in TERM_SPACES)
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        return len(self._postings[space])

    def terms(self, space: str) -> list[Term]:
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        return list(self._postings[space])

    def df(self, term: Term, space: str | None = None) -> int:
        sp = self._space_of(term, space)
        return len(self._postings[sp].get(term, ()))

    def idf(self, term: Term, space: str | None = None) -> float:
        d = self.df(term, space)
        if d == 0:
            return 0.0
        return math.log(1.0 + self.n_docs / d)

    def postings(self, term: Term, space: str | None = None) -> dict[str, int]:
        sp = self._space_of(term, space)
        return self._postings[sp].get(term, {})

    def doc_vector(self, doc_id: str, space: str) -> dict[Term, float]:
        """tf.idf weights of one document in one vector space."""
        if doc_id not in self.doc_set:
            raise KeyError(f"unknown document {doc_id!r}")
        if space == "UNIFIED":
            vec: dict[Term, float] = {}
            for s in TERM_SPACES:
                vec.update(self.doc_vector(doc_id, s))
            return vec
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        sp = self._postings[space]
        return {t: sp[t][doc_id] * self.idf(t, space) for t in sp if doc_id in sp[t]}


def build_index(
    docs: Iterable[AnnotatedDocument],
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Iterable[str] = (),
) -> InvertedIndex:
    """Index a collection; pass the stopword set the documents were loaded with."""
    stopwords = frozenset(stopwords)
    doc_ids: list[str] = []
    raw: dict[str, dict[Term, dict[str, int]]] = {s: {} for s in STORED_SPACES}
    for doc in docs:
        doc_ids.append(doc.doc_id)
        for term, tf in document_terms(doc, kb, taxonomy).items():
            raw[term.space].setdefault(term, {})[doc.doc_id] = tf
        # The keyword baseline sees the whole text as keywords, annotated or not.
        for token, tf in Counter(tokenize(doc.text, stopwords)).items():
            raw["KW_FULL"].setdefault(keyword_term(token), {})[doc.doc_id] = tf
    return InvertedIndex(doc_ids, raw, kb, taxonomy, stopwords)


def _write_jsonl(path: Path, rows: Iterable[Mapping]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write an index directory that ``load_index`` restores exactly."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    term_rows = []
    posting_rows = []
    tid = 0
    for space in STORED_SPACES:
        for term, plist in index._postings[space].items():
            term_rows.append(
                {
                    "tid": tid,
                    "space": space,
                    "term": [term.space, term.primary, term.secondary],
                    "df": len(plist),
                }
            )
            posting_rows.append({"tid": tid, "postings": [[d, tf] for d, tf in plist.items()]})
            tid += 1
    _write_jsonl(path / "terms.jsonl", term_rows)
    _write_jsonl(path / "postings.jsonl", posting_rows)
    _write_jsonl(
        path / "taxonomy.jsonl",
        [
            {"class": c, "parents": sorted(parents)}
            for c, parents in index.taxonomy.parents.items()
        ],
    )
    _write_jsonl(
        path / "kb.jsonl",
        [
            {"id": e.identifier, "class": e.class_id, "names": list(e.names)}
            for e in index.kb.entities.values()
        ],
    )
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
        with open(path / "stats.json", encoding="utf-8") as fh:
            stats = json.load(fh)
    except FileNotFoundError:
        raise IndexFormatError(f"{path} is not an index directory (no stats.json)") from None
    except json.JSONDecodeError as exc:
        raise IndexFormatError(f"{path / 'stats.json'}: {exc}") from None
    if stats.get("format") != INDEX_FORMAT:
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
    doc_set = set(doc_ids)

    term_space: dict[int, tuple[str, Term]] = {}
    for row in read_jsonl(path / "terms.jsonl", IndexFormatError):
        try:
            term_space[row["tid"]] = (row["space"], Term(*row["term"]))
        except (KeyError, TypeError):
            raise IndexFormatError(f"{path}: malformed term row {row!r}") from None

    postings: dict[str, dict[Term, dict[str, int]]] = {s: {} for s in STORED_SPACES}
    for row in read_jsonl(path / "postings.jsonl", IndexFormatError):
        try:
            space, term = term_space[row["tid"]]
            plist = {doc: tf for doc, tf in row["postings"]}
        except (KeyError, TypeError, ValueError):
            raise IndexFormatError(f"{path}: malformed posting row {row!r}") from None
        if space not in STORED_SPACES:
            raise IndexFormatError(f"{path}: unknown term space {space!r}")
        for doc in plist:
            if doc not in doc_set:
                raise IndexFormatError(f"{path}: posting names unknown document {doc!r}")
        postings[space][term] = plist

    return InvertedIndex(doc_ids, postings, kb, taxonomy, stats.get("stopwords", ()))


def dump_index(index: InvertedIndex, out: IO[str]) -> None:
    """Human-readable listing of the five partitioned term spaces."""
    out.write(f"documents: {index.n_docs}\n")
    for space in TERM_SPACES:
        out.write(f"space {space}: {index.term_count(space)} terms\n")
        for term in index.terms(space):
            plist = index.postings(term, space)
            occurrences = " ".join(f"{doc}:{tf}" for doc, tf in plist.items())
            out.write(f"  {format_term(term)}  df={len(plist)}  {occurrences}\n")
