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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple

from .errors import CorpusError
from .ontology import ClassTaxonomy, KnowledgeBase, read_jsonl, read_lines

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
    """One single-token stopword per line, case-folded; blank lines ignored."""
    words = set()
    for lineno, line in read_lines(path, CorpusError):
        if tokenize(line) != [line.casefold()]:
            raise CorpusError(f"{path}, line {lineno}: stopword {line!r} is not a single token")
        words.add(line.casefold())
    return frozenset(words)


class Annotation(NamedTuple):
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
    # Every token of the text but stopwords, annotated or not; the keyword
    # baseline counts it.
    tokens: tuple[str, ...]


@dataclass(frozen=True)
class Query:
    query_id: str
    keywords: tuple[str, ...]
    annotations: tuple[Annotation, ...]
    # Retrieval's memo of the sorted query terms under each (knowledge base,
    # overlapped) pair; not part of the query's value.
    _terms: dict = field(default_factory=dict, init=False, compare=False, repr=False)


def is_plain_id(value) -> bool:
    """A non-empty string without whitespace, at which run and qrels lines split."""
    return isinstance(value, str) and value.split() == [value]


def _clean_field(value) -> str | None:
    # External records may omit an unspecified feature or spell it "*".
    if value is None or value == "*":
        return None
    if not isinstance(value, str) or not value:
        raise CorpusError(f"annotation field must be a non-empty string, got {value!r}")
    return value


def annotation_from_record(rec: Mapping) -> Annotation:
    """An annotation record: ``start``, ``end``, ``name``, ``class`` and ``id``,
    each optional, and no other key."""
    # A constant set in an ``in`` test is built once, when the function is compiled.
    for key in rec:
        if key not in {"start", "end", "name", "class", "id"}:
            raise CorpusError(f"annotation has unknown key {key!r}")
    name = _clean_field(rec.get("name"))
    class_id = _clean_field(rec.get("class"))
    identifier = _clean_field(rec.get("id"))
    start = rec.get("start")
    end = rec.get("end")
    if (start is None) != (end is None):
        raise CorpusError(f"annotation span needs both start and end: {rec!r}")
    return Annotation(name, class_id, identifier, start, end)


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


def validate_annotation(a: Annotation, kb: KnowledgeBase, taxonomy: ClassTaxonomy) -> None:
    """Check one annotation's features against the knowledge base and taxonomy."""
    if a.name is None and a.class_id is None and a.identifier is None:
        raise CorpusError("annotation specifies neither name, class, nor identifier")
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


def _record_id(record: Mapping, key: str, kind: str) -> str:
    value = record.get(key)
    if not isinstance(value, str) or not value:
        raise CorpusError(f"{kind} record without a {key}: {record!r}")
    if not is_plain_id(value):
        raise CorpusError(f"{key} {value!r} contains whitespace")
    return value


def _document_fields(record: Mapping) -> tuple[str, str]:
    doc_id = _record_id(record, "doc_id", "document")
    for key in record:
        if key not in {"doc_id", "text", "annotations"}:
            raise CorpusError(f"document {doc_id!r} has unknown key {key!r}")
    text = record.get("text", "")
    if not isinstance(text, str):
        raise CorpusError(f"document {doc_id!r} has a non-string text")
    return doc_id, text


def _annotations(
    record: Mapping, key: str, kb: KnowledgeBase, taxonomy: ClassTaxonomy, checked: set | None
) -> list[Annotation]:
    """Parse and validate the list of annotation objects under ``key``.

    Validation reads only a mention's (name, class, identifier), so each
    distinct mention is checked once, at its first occurrence. ``checked``
    holds the mentions found valid so far, by every record of one load;
    ``None`` stands for an empty set.
    """
    raw = record.get(key, [])
    if not isinstance(raw, list) or not all(isinstance(r, dict) for r in raw):
        raise CorpusError(f"{key} must be a list of objects")
    annotations = [annotation_from_record(r) for r in raw]
    if checked is None:
        checked = set()
    for a in annotations:
        mention = (a.name, a.class_id, a.identifier)
        if mention not in checked:
            validate_annotation(a, kb, taxonomy)
            checked.add(mention)
    return annotations


def ingest_document(
    record: Mapping,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
    checked: set[tuple] | None = None,
) -> AnnotatedDocument:
    """Validate one corpus record and tokenize its text, once.

    ``tokens`` is the whole stopword-filtered token stream. ``keyword_tokens``
    keeps those that do not touch any annotated span; tokens inside spans count
    only through their annotations.

    ``checked`` holds the mentions found valid so far, so that one load checks
    each distinct mention once; ``None`` starts an empty set. A mention already
    in the set skips its checks against ``kb`` and ``taxonomy``, so pass only a
    set that earlier calls with the same knowledge base and taxonomy filled.
    """
    doc_id, text = _document_fields(record)
    try:
        annotations = _annotations(record, "annotations", kb, taxonomy, checked)
        for a in annotations:
            if not a.has_span:
                raise CorpusError("document annotation requires a character span")
            # JSON true/false would pass isinstance(..., int) as offsets 1 and 0.
            if type(a.start) is not int or type(a.end) is not int:
                raise CorpusError(f"annotation span must be integers: {a.start!r}..{a.end!r}")
            if not 0 <= a.start < a.end <= len(text):
                raise CorpusError(f"annotation span {a.start}..{a.end} out of bounds")
        annotations.sort(key=lambda a: (a.start, a.end))
        for prev, cur in zip(annotations, annotations[1:]):
            if cur.start < prev.end:
                raise CorpusError(
                    "overlapping annotation spans "
                    f"{prev.start}..{prev.end} and {cur.start}..{cur.end}"
                )
    except CorpusError as exc:
        raise CorpusError(f"document {doc_id!r}: {exc}") from None

    # Sorted disjoint spans have sorted ends, and tokens arrive in text order,
    # so the first span ending after a token's start only moves forward; it is
    # the only span the token can touch. A sentinel span past the text ends the
    # walk.
    past_end = len(text) + 1
    starts = [a.start for a in annotations] + [past_end]
    ends = [a.end for a in annotations] + [past_end]
    stopwords = stopwords or ()
    tokens, keyword_tokens = [], []
    i = 0
    for m in TOKEN_RE.finditer(text):
        tok = m.group().casefold()
        if tok in stopwords:
            continue
        ts, te = m.span()
        while ends[i] <= ts:
            i += 1
        tokens.append(tok)
        if te <= starts[i]:
            keyword_tokens.append(tok)
    return AnnotatedDocument(
        doc_id, text, tuple(annotations), tuple(keyword_tokens), tuple(tokens)
    )


def document_record(doc_id: str, text: str, annotations: Iterable[Annotation]) -> dict:
    """The corpus record ``ingest_document`` reads a document back from."""
    records = [annotation_to_record(a) for a in annotations]
    return {"doc_id": doc_id, "text": text, "annotations": records}


def query_from_record(
    record: Mapping,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
    checked: set[tuple] | None = None,
) -> Query:
    """Validate one query record; ``checked`` is as for ``ingest_document``."""
    query_id = _record_id(record, "query_id", "query")
    for key in record:
        if key not in {"query_id", "keywords", "entities"}:
            raise CorpusError(f"query {query_id!r} has unknown key {key!r}")
    raw_keywords = record.get("keywords", [])
    if not isinstance(raw_keywords, list) or not all(isinstance(k, str) for k in raw_keywords):
        raise CorpusError(f"query {query_id!r} has a malformed keywords list")
    keywords = [tok for kw in raw_keywords for tok in tokenize(kw, stopwords)]
    try:
        annotations = _annotations(record, "entities", kb, taxonomy, checked)
        if any(a.has_span for a in annotations):
            raise CorpusError("query annotations must not carry spans")
    except CorpusError as exc:
        raise CorpusError(f"query {query_id!r}: {exc}") from None
    if not keywords and not annotations:
        raise CorpusError(f"query {query_id!r} has neither keywords nor entities")
    return Query(query_id, tuple(keywords), tuple(annotations))


def _records(path: str | Path, key: str, parse: Callable[..., object], *args) -> Iterator:
    """Parse each record of a JSON Lines file with ``parse(record, *args)``, which
    checks the id under ``key``, and yield it; no two records may share one."""
    seen: set[str] = set()
    for number, rec in enumerate(read_jsonl(path, CorpusError), start=1):
        try:
            item = parse(rec, *args)
        except CorpusError as exc:
            raise CorpusError(f"{path}, record {number}: {exc}") from None
        if rec[key] in seen:
            raise CorpusError(f"{path}, record {number}: duplicate {key} {rec[key]!r}")
        seen.add(rec[key])
        yield item


def load_corpus(
    path: str | Path,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> Iterator[AnnotatedDocument]:
    """Validate a line-delimited JSON corpus file, yielding each document, or
    raising its error, as it is read; wrap the call in ``list`` to keep them.

    Each distinct mention is validated once per call, not once per record.
    """
    checked: set[tuple] = set()
    return _records(path, "doc_id", ingest_document, kb, taxonomy, stopwords, checked)


def load_queries(
    path: str | Path,
    kb: KnowledgeBase,
    taxonomy: ClassTaxonomy,
    stopwords: Collection[str] | None = None,
) -> list[Query]:
    """Load and validate a line-delimited JSON query file.

    Each distinct mention is validated once per call, not once per record.
    """
    checked: set[tuple] = set()
    return list(_records(path, "query_id", query_from_record, kb, taxonomy, stopwords, checked))


def load_raw_corpus(path: str | Path) -> list[tuple[str, str]]:
    """Each record's ``(doc_id, text)`` under the corpus rules, ignoring annotations."""
    return list(_records(path, "doc_id", _document_fields))


class GazetteerAnnotator:
    """Dictionary matcher over KB aliases.

    Scans the token stream left to right taking the longest alias match at
    each position; matches never overlap. A match whose alias belongs to
    exactly one entity is annotated with that entity's class and identifier;
    an ambiguous alias yields a name-only annotation.
    """

    def __init__(self, kb: KnowledgeBase):
        # Each alias's token tuple maps to its annotation less the span: the
        # first spelling seen, with class and identifier while one entity
        # alone holds the alias.
        self._table: dict[tuple[str, ...], Annotation] = {}
        for entity in kb.entities.values():
            for alias in entity.names:
                key = tuple(tokenize(alias))
                if not key:
                    continue
                seen = self._table.get(key)
                if seen is None:
                    self._table[key] = Annotation(alias, entity.class_id, entity.identifier)
                elif seen.identifier != entity.identifier:
                    self._table[key] = Annotation(seen.name)
        self._max_len = max(map(len, self._table), default=0)

    def annotate(self, text: str) -> list[Annotation]:
        tokens = tokenize_with_spans(text)
        words = [tok for tok, _, _ in tokens]
        out: list[Annotation] = []
        i = 0
        while i < len(tokens):
            for length in range(min(self._max_len, len(tokens) - i), 0, -1):
                hit = self._table.get(tuple(words[i : i + length]))
                if hit is not None:
                    out.append(hit._replace(start=tokens[i][1], end=tokens[i + length - 1][2]))
                    i += length
                    break
            else:
                i += 1
        return out
