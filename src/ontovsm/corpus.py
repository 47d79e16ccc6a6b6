"""Document and query ingestion.

Raw text is tokenized into case-folded keyword tokens; entity mentions arrive
as annotations carrying any subset of (name, class, identifier), with missing
features left unspecified. A token inside an annotated span is an entity
occurrence, never a keyword, so ingestion partitions the text between the two.
A small gazetteer annotator is provided for corpora that ship without entity
markup.
"""
from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Mapping

from .errors import CorpusError
from .ontology import ClassTaxonomy, KnowledgeBase, read_jsonl

TOKEN_RE = re.compile(r"[^\W_]+")


def tokenize(text: str, stopwords: Collection[str] | None = None) -> list[str]:
    """Case-folded maximal runs of letters/digits, in order. No stemming."""
    tokens = [m.group(0).casefold() for m in TOKEN_RE.finditer(text)]
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def tokenize_with_spans(text: str) -> list[tuple[str, int, int]]:
    """Like ``tokenize`` but yields ``(token, start, end)`` character offsets."""
    return [(m.group(0).casefold(), m.start(), m.end()) for m in TOKEN_RE.finditer(text)]


def load_stopword_file(path: str | Path) -> frozenset[str]:
    """One stopword per line, case-folded; blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return frozenset(w.strip().casefold() for w in fh if w.strip())


@dataclass(frozen=True)
class Annotation:
    """A (name, class, identifier) mention; ``None`` marks an unspecified feature.

    Document-level annotations carry a character span ``[start, end)`` into the
    document text; query-level annotations are spanless.
    """

    name: str | None = None
    class_id: str | None = None
    identifier: str | None = None
    start: int | None = None
    end: int | None = None

    @property
    def has_span(self) -> bool:
        return self.start is not None and self.end is not None


@dataclass(frozen=True)
class AnnotatedDocument:
    doc_id: str
    text: str
    annotations: tuple[Annotation, ...]
    keyword_tokens: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    query_id: str
    keywords: tuple[str, ...]
    annotations: tuple[Annotation, ...]


def _clean_field(value) -> str | None:
    # External records may omit an unspecified feature or spell it "*".
    if value is None or value == "*":
        return None
    if not isinstance(value, str) or not value:
        raise CorpusError(f"annotation field must be a non-empty string, got {value!r}")
    return value


def annotation_from_record(rec: Mapping) -> Annotation:
    name = _clean_field(rec.get("name"))
    class_id = _clean_field(rec.get("class"))
    identifier = _clean_field(rec.get("id"))
    start = rec.get("start")
    end = rec.get("end")
    if (start is None) != (end is None):
        raise CorpusError(f"annotation span needs both start and end: {rec!r}")
    return Annotation(name=name, class_id=class_id, identifier=identifier, start=start, end=end)


def annotation_to_record(a: Annotation) -> dict:
    rec: dict = {}
    if a.has_span:
        rec["start"] = a.start
        rec["end"] = a.end
    if a.name is not None:
        rec["name"] = a.name
    if a.class_id is not None:
        rec["class"] = a.class_id
    if a.identifier is not None:
        rec["id"] = a.identifier
    return rec


def validate_annotation(
    a: Annotation,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    *,
    text_length: int | None = None,
    require_span: bool = False,
) -> None:
    """Check one annotation against the knowledge base and taxonomy."""
    if a.name is None and a.class_id is None and a.identifier is None:
        raise CorpusError("annotation specifies neither name, class, nor identifier")
    if require_span and not a.has_span:
        raise CorpusError("document annotation requires a character span")
    if a.has_span:
        if not isinstance(a.start, int) or not isinstance(a.end, int):
            raise CorpusError(f"annotation span must be integers: {a.start!r}..{a.end!r}")
        if a.start < 0 or a.start >= a.end or (text_length is not None and a.end > text_length):
            raise CorpusError(f"annotation span {a.start}..{a.end} out of bounds")
    if a.class_id is not None and a.class_id not in taxonomy:
        raise CorpusError(f"annotation names unknown class {a.class_id!r}")
    if a.identifier is not None:
        try:
            entity = kb.resolve(a.identifier)
        except KeyError:
            raise CorpusError(f"annotation names unknown entity {a.identifier!r}") from None
        if a.class_id is not None and a.class_id != entity.class_id:
            raise CorpusError(
                f"annotation class {a.class_id!r} contradicts entity "
                f"{a.identifier!r} of class {entity.class_id!r}"
            )
        if a.name is not None and a.name.casefold() not in entity.folded_names:
            raise CorpusError(
                f"annotation name {a.name!r} is not an alias of entity {a.identifier!r}"
            )


def _annotation_sort_key(a: Annotation):
    return (a.start or 0, a.end or 0, a.name or "", a.class_id or "", a.identifier or "")


def ingest_document(
    record: Mapping,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> AnnotatedDocument:
    """Validate one corpus record and compute its keyword tokens.

    Keyword tokens are the tokens of the text that do not touch any annotated
    span; tokens inside spans count only through their annotations.
    """
    doc_id = record.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        raise CorpusError(f"document record without a doc_id: {record!r}")
    text = record.get("text", "")
    if not isinstance(text, str):
        raise CorpusError(f"document {doc_id!r} has a non-string text")
    annotations = [annotation_from_record(r) for r in record.get("annotations", [])]
    for a in annotations:
        try:
            validate_annotation(a, kb, taxonomy, text_length=len(text), require_span=True)
        except CorpusError as exc:
            raise CorpusError(f"document {doc_id!r}: {exc}") from None
    annotations.sort(key=_annotation_sort_key)
    for prev, cur in zip(annotations, annotations[1:]):
        if cur.start < prev.end:
            raise CorpusError(
                f"document {doc_id!r}: overlapping annotation spans "
                f"{prev.start}..{prev.end} and {cur.start}..{cur.end}"
            )

    # Sorted disjoint spans have sorted ends: the first span ending after a
    # token's start is the only one the token can touch.
    starts = [a.start for a in annotations]
    ends = [a.end for a in annotations]
    keyword_tokens = []
    for tok, ts, te in tokenize_with_spans(text):
        i = bisect_right(ends, ts)
        if i == len(ends) or te <= starts[i]:
            keyword_tokens.append(tok)
    if stopwords:
        keyword_tokens = [t for t in keyword_tokens if t not in stopwords]
    return AnnotatedDocument(doc_id, text, tuple(annotations), tuple(keyword_tokens))


def document_to_record(doc: AnnotatedDocument) -> dict:
    """The serialized form accepted back by ``ingest_document``."""
    return {
        "doc_id": doc.doc_id,
        "text": doc.text,
        "annotations": [annotation_to_record(a) for a in doc.annotations],
    }


def query_from_record(
    record: Mapping,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> Query:
    query_id = record.get("query_id")
    if not isinstance(query_id, str) or not query_id:
        raise CorpusError(f"query record without a query_id: {record!r}")
    raw_keywords = record.get("keywords", [])
    if not isinstance(raw_keywords, list) or not all(isinstance(k, str) for k in raw_keywords):
        raise CorpusError(f"query {query_id!r} has a malformed keywords list")
    keywords = [tok for kw in raw_keywords for tok in tokenize(kw, stopwords)]
    annotations = []
    for rec in record.get("entities", []):
        a = annotation_from_record(rec)
        if a.has_span:
            raise CorpusError(f"query {query_id!r}: query annotations must not carry spans")
        try:
            validate_annotation(a, kb, taxonomy)
        except CorpusError as exc:
            raise CorpusError(f"query {query_id!r}: {exc}") from None
        annotations.append(a)
    if not keywords and not annotations:
        raise CorpusError(f"query {query_id!r} has neither keywords nor entities")
    return Query(query_id, tuple(keywords), tuple(annotations))


def load_corpus(
    path: str | Path,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> list[AnnotatedDocument]:
    """Load and validate a line-delimited JSON corpus file."""
    docs: list[AnnotatedDocument] = []
    seen: set[str] = set()
    for lineno, rec in enumerate(read_jsonl(path, CorpusError), start=1):
        try:
            doc = ingest_document(rec, kb, taxonomy, stopwords)
        except CorpusError as exc:
            raise CorpusError(f"{path}, record {lineno}: {exc}") from None
        if doc.doc_id in seen:
            raise CorpusError(f"{path}, record {lineno}: duplicate doc_id {doc.doc_id!r}")
        seen.add(doc.doc_id)
        docs.append(doc)
    return docs


def load_queries(
    path: str | Path,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> list[Query]:
    """Load and validate a line-delimited JSON query file."""
    queries: list[Query] = []
    seen: set[str] = set()
    for lineno, rec in enumerate(read_jsonl(path, CorpusError), start=1):
        try:
            q = query_from_record(rec, kb, taxonomy, stopwords)
        except CorpusError as exc:
            raise CorpusError(f"{path}, record {lineno}: {exc}") from None
        if q.query_id in seen:
            raise CorpusError(f"{path}, record {lineno}: duplicate query_id {q.query_id!r}")
        seen.add(q.query_id)
        queries.append(q)
    return queries


class GazetteerAnnotator:
    """Dictionary matcher over KB aliases.

    Scans the token stream left to right taking the longest alias match at
    each position; matches never overlap. A match whose alias belongs to
    exactly one entity is annotated with that entity's class and identifier;
    an ambiguous alias yields a name-only annotation.
    """

    def __init__(self, kb: KnowledgeBase):
        self.kb = kb
        self._aliases: dict[tuple[str, ...], tuple[str, set[str]]] = {}
        self._max_len = 0
        for entity in kb.entities.values():
            for alias in entity.names:
                key = tuple(tokenize(alias))
                if not key:
                    continue
                if key not in self._aliases:
                    self._aliases[key] = (alias, set())
                self._aliases[key][1].add(entity.identifier)
                self._max_len = max(self._max_len, len(key))

    def annotate(self, text: str) -> list[Annotation]:
        tokens = tokenize_with_spans(text)
        out: list[Annotation] = []
        i = 0
        while i < len(tokens):
            matched = False
            for length in range(min(self._max_len, len(tokens) - i), 0, -1):
                key = tuple(tok for tok, _, _ in tokens[i : i + length])
                hit = self._aliases.get(key)
                if hit is None:
                    continue
                alias, ids = hit
                start = tokens[i][1]
                end = tokens[i + length - 1][2]
                if len(ids) == 1:
                    ident = next(iter(ids))
                    entity = self.kb.resolve(ident)
                    out.append(
                        Annotation(
                            name=alias,
                            class_id=entity.class_id,
                            identifier=ident,
                            start=start,
                            end=end,
                        )
                    )
                else:
                    out.append(Annotation(name=alias, start=start, end=end))
                i += length
                matched = True
                break
            if not matched:
                i += 1
        return out


def gazetteer_annotate(text: str, kb: KnowledgeBase) -> list[Annotation]:
    """One-shot convenience wrapper around :class:`GazetteerAnnotator`."""
    return GazetteerAnnotator(kb).annotate(text)
