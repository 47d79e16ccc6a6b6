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

import hashlib
import json
import math
from array import array
from collections import Counter, defaultdict
from functools import partial
from itertools import accumulate, pairwise
from operator import sub
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .corpus import AnnotatedDocument, is_plain_id
from .errors import CorpusError, IndexFormatError, KnowledgeBaseError, TaxonomyError
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

INDEX_FORMAT = "ontovsm-index"
INDEX_VERSION = 5
# The files whose size and sha256 digest stats.json records.
INDEX_FILES = ("postings.jsonl", "taxonomy.jsonl", "kb.jsonl")

# One term's postings: (doc number, tf) pairs interleaved in one flat array of
# unsigned C integers, whose typecode is the narrowest that holds the list's
# largest number: 'B' (1 byte) below 256, 'H' (2 bytes) below 65,536, and
# TYPECODE otherwise. CPython fills an 'I' array without its argument parser,
# at about a third of the time per item that 'B' and 'H' take; a list built in
# one of those takes a quarter or half the bytes, for as long as it is held.
PostingList = array
Postings = Mapping[str, Mapping[Term, PostingList]]
# The widest typecode, in which build_index grows its lists.
TYPECODE = "I"
# The largest term frequency a posting list holds.
MAX_TF = 2 ** (8 * array(TYPECODE).itemsize) - 1
_NO_POSTINGS = array(TYPECODE)
_ZEROS = {typecode: array(typecode, [0]) for typecode in ("B", "H", TYPECODE)}


def idf_weight(n_docs: int, df: int) -> float:
    """ln(1 + N/df) for a collection of ``n_docs`` documents; 0 for a term in none."""
    return math.log(1.0 + n_docs / df) if df else 0.0


class InvertedIndex:
    """Per-space term statistics for a fixed document collection.

    It answers stored-space lookups only: ``posting_list``, ``postings``,
    ``terms`` and ``term_count`` raise ``ValueError`` for any other space,
    ``UNIFIED`` included, which exists only in ``norms``. A term's df in a space
    is the number of documents its posting list names; ``retrieval._read``
    decides which space a query term is read in.

    The knowledge base and taxonomy that produced the expansion travel with
    the index, as does the stopword set, so queries can be interpreted against
    exactly the vocabulary the documents were indexed with.

    Documents are numbered 0..n-1 in ascending doc-id order: ``ids[number]`` is
    a document's id, while ``doc_ids`` keeps the order the documents came in.
    Each posting list is an unsigned ``array`` of (doc number, tf) pairs,
    interleaved, in ascending doc-number order and of exactly their size, whose
    typecode is the narrowest of ``'B'``, ``'H'`` and ``'I'`` that holds its
    largest number. ``norms[space]`` is an ``array('d')`` indexed by doc
    number, 0.0 for a document with no term in that space.
    ``postings`` must hold every stored space. A posting list equal to one the
    index already holds is that list, in any space, as the expansion often
    gives many terms one list (an entity's aliases, a name's NC pairs up its
    class chain): for any two lists the index holds, ``a is b`` exactly when
    ``a == b``. The one pass that takes each space's terms in sorted order
    shares them, keyed by typecode and bytes.

    The constructor checks that each id is plain and listed once, and sorts
    them. It holds each term to the rule of a saved row's entry (a ``Term`` of
    three strings, of its space, ``KW`` in ``KW_FULL``, with a class in NC
    alone) and rebuilds each posting list through the checks ``load_index``
    makes of a saved row; it raises ``CorpusError`` naming the term, the space
    and the fault, so that an index built here saves only what loads back. A
    caller that has already done all this, as ``build_index`` and
    ``load_index`` have, passes the sorted ids as ``ids``: the index then keeps
    its lists uncopied, and they must not change afterwards.
    """

    def __init__(
        self,
        doc_ids: Iterable[str],
        postings: Postings,
        kb: KnowledgeBase,
        taxonomy: ClassTaxonomy,
        stopwords: Iterable[str] = (),
        *,
        ids: list[str] | None = None,
    ):
        self.doc_ids = list(doc_ids)
        self.ids = _sorted_ids(self.doc_ids) if ids is None else ids
        self.kb = kb
        self.taxonomy = taxonomy
        self.stopwords = frozenset(stopwords)
        # Each space's terms in sorted order, so that the build and load paths
        # sum the norms in one order. A list equal to one held before it is that
        # list: _interleaved gives equal lists one typecode, so equal bytes.
        n_docs = len(self.ids)
        held: dict[tuple[str, bytes], PostingList] = {}
        self._postings: dict[str, dict[Term, PostingList]] = {}
        for space in STORED_SPACES:
            given = postings[space]
            sp = self._postings[space] = {}
            check = None if ids is not None else partial(_checked_term, space)
            for term in sorted(given, key=check):
                plist = given[term]
                if ids is None:  # a direct caller's list: held to a saved row's rule
                    try:
                        plist = _posting_array(_gaps(plist[::2]), list(plist[1::2]), n_docs)
                    except ValueError as exc:
                        raise CorpusError(
                            f"posting list for {format_term(term)} in space {space} {exc}"
                        ) from None
                sp[term] = held.setdefault((plist.typecode, plist.tobytes()), plist)
        del held
        # Each document's tf.idf vector length per vector space. Squares sum in
        # sorted term order, UNIFIED running on through the partitioned spaces in
        # TERM_SPACES order. A space's sums are rooted into its array as soon as
        # they are complete, so at most two lists of sums are held at a time.
        unified = [0.0] * n_docs
        self.norms: dict[str, array] = {}
        for space, sp in self._postings.items():
            sumsq = [0.0] * n_docs
            partitioned = space in TERM_SPACES
            for plist in sp.values():
                idf = idf_weight(n_docs, len(plist) // 2)
                for doc, tf in _pairs(plist):
                    weight = tf * idf
                    square = weight * weight
                    sumsq[doc] += square
                    if partitioned:
                        unified[doc] += square
            self.norms[space] = array("d", map(math.sqrt, sumsq))
        self.norms["UNIFIED"] = array("d", map(math.sqrt, unified))

    @property
    def n_docs(self) -> int:
        return len(self.doc_ids)

    def _stored(self, space: str) -> dict[Term, PostingList]:
        if space not in STORED_SPACES:
            raise ValueError(f"unknown term space {space!r}")
        return self._postings[space]

    def term_count(self, space: str) -> int:
        return len(self._stored(space))

    def terms(self, space: str) -> list[Term]:
        return list(self._stored(space))

    def posting_count(self, space: str) -> int:
        """The postings stored in the space: one per (term, document) pair."""
        return sum(map(len, self._stored(space).values())) // 2

    def list_count(self) -> int:
        """The distinct posting lists held, each once whatever terms share it."""
        return len({id(plist) for sp in self._postings.values() for plist in sp.values()})

    def posting_list(self, term: Term, space: str) -> PostingList:
        """The term's (doc number, tf) pairs, interleaved; empty for an unseen term.
        The index's own array, shared by every caller: read it, do not change it."""
        # Retrieval calls this once per query term, so it skips _stored's call.
        try:
            return self._postings[space].get(term, _NO_POSTINGS)
        except KeyError:
            raise ValueError(f"unknown term space {space!r}") from None

    def postings(self, term: Term, space: str) -> dict[str, int]:
        """A fresh ``{doc_id: tf}`` map of the term's postings, in ascending doc-id order."""
        ids = self.ids
        return {ids[doc]: tf for doc, tf in _pairs(self.posting_list(term, space))}


def _checked_term(space: str, term) -> Term:
    """A direct caller's term, once it is one a saved row of the stored space
    could name: a Term of three strings, of the space (``KW`` in ``KW_FULL``),
    with a class in NC alone. Raises ``CorpusError`` naming the fault."""
    if not (isinstance(term, Term) and all(type(s) is str for s in term)):
        fault = "is not a Term of three strings"
    elif term.space != ("KW" if space == "KW_FULL" else space):
        fault = f"belongs to space {term.space!r}"
    elif term.secondary and space != "NC":
        fault = f"carries class {term.secondary!r} outside NC"
    else:
        return term
    raise CorpusError(f"term {term!r} in space {space} {fault}")


def _sorted_ids(doc_ids: list[str]) -> list[str]:
    """The ids in ascending order, which numbers the documents, once each is
    checked to be plain and listed once: save_index writes these ids, and
    load_index and load_run_file reject any other."""
    for doc_id in doc_ids:
        if not is_plain_id(doc_id):
            fault = "is empty or holds whitespace" if isinstance(doc_id, str) else "is not a string"
            raise CorpusError(f"document id {doc_id!r} {fault}")
    ids = sorted(doc_ids)
    for doc_id, following in pairwise(ids):
        if doc_id == following:
            raise CorpusError(f"document {doc_id!r} indexed twice")
    return ids


def _interleaved(docs: list[int], tfs: list[int]) -> PostingList:
    """Ascending doc numbers and their tfs, in step, interleaved into an array of
    exactly their size, of the narrowest typecode that holds the largest of them."""
    largest = max(docs[-1], max(tfs))
    typecode = "B" if largest < 256 else "H" if largest < 65536 else TYPECODE
    plist = _ZEROS[typecode] * (2 * len(docs))
    plist[::2] = array(typecode, docs)
    plist[1::2] = array(typecode, tfs)
    return plist


def _gaps(docs: Iterable) -> list:
    """Doc numbers as a saved row's ``docs`` holds them: the first, then each
    one's step from the one before. An item that is not an int, or that follows
    one, stays as it is, for ``_posting_array`` to name."""
    docs = list(docs)
    return [
        doc - previous if type(doc) is type(previous) is int else doc
        for previous, doc in zip([0, *docs], docs)
    ]


def _pairs(plist: PostingList) -> Iterator[tuple[int, int]]:
    """A posting list's (doc number, tf) pairs."""
    pairs = iter(plist)
    return zip(pairs, pairs)


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
    doc_ids: list[str] = []
    raw = {s: defaultdict(partial(array, TYPECODE)) for s in STORED_SPACES}
    # Shared by every document of this build: each distinct mention is
    # expanded, and each distinct token made a term, once, however often the
    # collection repeats it.
    expansions: dict = {}
    for number, doc in enumerate(docs):
        doc_ids.append(doc.doc_id)
        for term, tf in document_terms(doc, kb, taxonomy, expansions).items():
            plist = raw[term.space][term]
            plist.append(number)
            plist.append(tf)
        # The keyword baseline sees the whole text as keywords, annotated or not.
        for token, tf in Counter(doc.tokens).items():
            term = expansions.get(token)
            if term is None:
                term = expansions[token] = keyword_term(token)
            plist = raw["KW_FULL"][term]
            plist.append(number)
            plist.append(tf)
    # Documents were numbered as they came; renumber them by doc id, and sort each list.
    ids = _sorted_ids(doc_ids)
    rank = {doc_id: number for number, doc_id in enumerate(ids)}
    renumber = [rank[doc_id] for doc_id in doc_ids]
    for space in raw.values():
        for term, plist in space.items():
            docs = list(map(renumber.__getitem__, plist[::2]))
            tf_of = dict(zip(docs, plist[1::2]))
            docs.sort()
            space[term] = _interleaved(docs, list(map(tf_of.__getitem__, docs)))  # an existing key
    return InvertedIndex(doc_ids, raw, kb, taxonomy, stopwords, ids=ids)


def _shared_lists(index: InvertedIndex) -> dict[int, tuple[PostingList, list[list[str]]]]:
    """Each distinct posting list the index holds, by id, with the [space,
    primary, secondary] of every term that has it, in the order of the first."""
    shared: dict[int, tuple[PostingList, list[list[str]]]] = {}
    for space in STORED_SPACES:
        for term, plist in index._postings[space].items():
            shared.setdefault(id(plist), (plist, []))[1].append(
                [space, term.primary, term.secondary]
            )
    return shared


def _posting_rows(shared) -> Iterator[dict]:
    for plist, terms in shared.values():
        docs, tfs = plist[::2].tolist(), plist[1::2].tolist()
        gaps = list(map(sub, docs, [0, *docs]))  # as _gaps makes them, for ints only
        yield {"terms": terms, "docs": gaps, "tfs": tfs}


def _digest(path: Path) -> dict:
    """The size and sha256 digest that stats.json records for a file, as
    ``write_jsonl`` returns them."""
    data = path.read_bytes()
    return {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def save_index(index: InvertedIndex, path: str | Path) -> None:
    """Write an index directory that ``load_index`` restores exactly.

    Each distinct posting list is one row, which names every term that has it
    and holds the gaps between its ascending doc numbers, the first counted
    from 0, and their tfs, in two lists of one length; the rows are written
    without spaces. The files are not read back: their sizes and digests come
    from the bytes written."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)

    shared = _shared_lists(index)
    files = {
        "postings.jsonl": write_jsonl(path / "postings.jsonl", _posting_rows(shared), compact=True),
        "taxonomy.jsonl": write_jsonl(path / "taxonomy.jsonl", taxonomy_records(index.taxonomy)),
        "kb.jsonl": write_jsonl(path / "kb.jsonl", knowledge_base_records(index.kb)),
    }
    stats = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "doc_count": index.n_docs,
        "doc_ids": index.doc_ids,
        "stopwords": sorted(index.stopwords),
        "terms": {space: index.term_count(space) for space in STORED_SPACES},
        "postings": {space: index.posting_count(space) for space in STORED_SPACES},
        "lists": len(shared),
        "files": files,
    }
    with open(path / "stats.json", "w", encoding="utf-8") as fh:
        json.dump(stats, fh, ensure_ascii=False, indent=2)
        fh.write("\n")


def _check_files(path: Path, files) -> None:
    """Each of INDEX_FILES has the size and digest that stats.json records."""
    if not isinstance(files, dict):
        raise IndexFormatError(f"{path}: stats.json lacks a files map")
    for name in INDEX_FILES:
        try:
            found = _digest(path / name)
        except FileNotFoundError:
            raise IndexFormatError(f"{path}: {name} is missing") from None
        saved = files.get(name)
        if not isinstance(saved, dict):
            raise IndexFormatError(f"{path}: stats.json records no digest for {name}")
        if found["bytes"] != saved.get("bytes"):
            raise IndexFormatError(
                f"{path}: {name} holds {found['bytes']} bytes, "
                f"not the {saved.get('bytes')!r} that stats.json records"
            )
        if found["sha256"] != saved.get("sha256"):
            raise IndexFormatError(
                f"{path}: {name} does not match the sha256 digest that stats.json records"
            )


def _unknown_document(doc, n_docs: int) -> ValueError:
    return ValueError(
        f"names unknown document number {doc!r}; the index numbers its {n_docs} documents from 0"
    )


def _posting_array(gaps, tfs, n_docs: int) -> PostingList:
    """One saved row's docs column, which holds gaps as ``_gaps`` makes them, and
    its tfs column, as an array of (doc number, tf) pairs, interleaved, of exactly
    their size. Raises ``ValueError`` naming the first fault: each gap must be an
    int, each doc number the gaps sum to below ``n_docs`` and above the one
    before it, and each tf an int from 1 to ``MAX_TF``."""
    if not (type(gaps) is list and type(tfs) is list and len(gaps) == len(tfs)):
        raise ValueError("does not hold docs and tfs lists of one length")
    if not gaps:
        raise ValueError("lists no documents")
    doc = 0
    previous = -1
    for gap, tf in zip(gaps, tfs):
        # bool is an int subclass, so JSON true would pass isinstance, and sum as 1.
        if type(gap) is not int:
            raise _unknown_document(gap, n_docs)
        doc += gap
        if not previous < doc < n_docs:
            if not 0 <= doc < n_docs:
                raise _unknown_document(doc, n_docs)
            if doc == previous:
                raise ValueError(f"lists a document twice: doc number {doc}")
            raise ValueError(f"has doc numbers that do not ascend: {doc} follows {previous}")
        if type(tf) is not int or not 0 < tf <= MAX_TF:
            raise ValueError(
                f"gives doc number {doc} term frequency {tf!r}, "
                f"not an integer from 1 to {MAX_TF}"
            )
        previous = doc
    return _interleaved(list(accumulate(gaps)), tfs)


def _term_in_space(entry: tuple[int, str, Term]) -> str:
    _, space, term = entry
    return f"{format_term(term)} in space {space}"


def load_index(path: str | Path) -> InvertedIndex:
    """Read an index directory that ``save_index`` wrote, or raise
    ``IndexFormatError`` naming what is wrong with it: a file that is missing or
    differs from the size and digest stats.json records, a taxonomy or knowledge
    base record its loader refuses, a malformed row, a term named twice or one
    ``save_index`` would not write, terms or rows out of the order it writes them
    in, two rows that hold one list, or counts that do not match the rows. Each
    row's array is built once and held by every term the row names."""
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
    _check_files(path, stats.get("files"))

    try:
        taxonomy = load_taxonomy(read_jsonl(path / "taxonomy.jsonl", IndexFormatError))
        kb = load_knowledge_base(read_jsonl(path / "kb.jsonl", IndexFormatError), taxonomy)
    except (TaxonomyError, KnowledgeBaseError) as exc:
        name = "taxonomy.jsonl" if isinstance(exc, TaxonomyError) else "kb.jsonl"
        raise IndexFormatError(f"{path / name}: {exc}") from None

    doc_ids = stats.get("doc_ids")
    if not isinstance(doc_ids, list):
        raise IndexFormatError(f"{path}: stats.json lacks a doc_ids list")
    try:
        ids = _sorted_ids(doc_ids)
    except CorpusError as exc:
        raise IndexFormatError(f"{path / 'stats.json'}: {exc}") from None
    if stats.get("doc_count") != len(doc_ids):
        raise IndexFormatError(
            f"{path}: stats.json's doc_count {stats.get('doc_count')!r} "
            f"does not match its {len(doc_ids)} doc ids"
        )
    stopwords = stats.get("stopwords")
    if not (isinstance(stopwords, list) and all(isinstance(w, str) for w in stopwords)):
        raise IndexFormatError(f"{path}: stats.json's stopwords is not a list of strings")

    postings: dict[str, dict[Term, PostingList]] = {s: {} for s in STORED_SPACES}
    rows = 0
    previous = None  # the last row's first (space number, space, term)
    for row in read_jsonl(path / "postings.jsonl", IndexFormatError):
        rows += 1
        try:
            entries, gaps, tfs = row["terms"], row["docs"], row["tfs"]
        except KeyError:
            raise IndexFormatError(f"{path}: malformed posting row {row!r}") from None
        if type(entries) is not list:
            raise IndexFormatError(f"{path}: malformed posting row {row!r}")
        if not entries:
            raise IndexFormatError(f"{path}: a posting row names no term")
        named = []
        for entry in entries:
            if not (type(entry) is list and len(entry) == 3 and all(type(s) is str for s in entry)):
                raise IndexFormatError(
                    f"{path}: posting row entry {entry!r} is not three strings: "
                    "space, term and class"
                )
            space, _, secondary = entry
            if space not in STORED_SPACES:
                raise IndexFormatError(f"{path}: unknown term space {space!r}")
            if secondary and space != "NC":
                raise IndexFormatError(
                    f"{path}: posting row entry {entry!r} carries class {secondary!r} outside NC"
                )
            # A KW_FULL entry names a KW term.
            key = Term("KW" if space == "KW_FULL" else space, *entry[1:])
            named.append((STORED_SPACES.index(space), space, key))
        try:
            plist = _posting_array(gaps, tfs, len(ids))
        except ValueError as exc:
            _, space, key = named[0]
            raise IndexFormatError(
                f"{path}: posting row for {format_term(key)} in space {space} {exc}"
            ) from None
        # Every term the row names holds its one array.
        for _, space, key in named:
            if key in postings[space]:
                raise IndexFormatError(
                    f"{path}: posting rows name term {format_term(key)} in space {space} twice"
                )
            postings[space][key] = plist
        # As save_index orders them: a row's terms, and the rows by their first
        # terms, strictly ascend by space in STORED_SPACES order, then by term.
        for before, after in pairwise(named):
            if not before < after:
                raise IndexFormatError(
                    f"{path}: a posting row's terms are out of order: "
                    f"{_term_in_space(after)} follows {_term_in_space(before)}"
                )
        if previous and not previous < named[0]:
            raise IndexFormatError(
                f"{path}: posting rows are out of order: the row for {_term_in_space(named[0])} "
                f"follows the row for {_term_in_space(previous)}"
            )
        previous = named[0]

    if stats.get("lists") != rows:
        raise IndexFormatError(
            f"{path}: stats.json's lists count {stats.get('lists')!r} "
            f"does not match the {rows} posting rows"
        )
    index = InvertedIndex(doc_ids, postings, kb, taxonomy, stopwords, ids=ids)
    if index.list_count() != rows:
        raise IndexFormatError(
            f"{path}: two posting rows hold one list: the {rows} rows hold "
            f"{index.list_count()} distinct lists"
        )
    for name, count in (("term", index.term_count), ("posting", index.posting_count)):
        counts = {space: count(space) for space in STORED_SPACES}
        if stats.get(f"{name}s") != counts:
            raise IndexFormatError(
                f"{path}: stats.json's {name} counts {stats.get(f'{name}s')!r} "
                f"do not match the rows' {counts!r}"
            )
    return index


def dump_index(index: InvertedIndex, out: IO[str]) -> None:
    """Human-readable listing of the five partitioned term spaces, each term's
    postings by ascending doc id."""
    out.write(f"documents: {index.n_docs}\n")
    for space in TERM_SPACES:
        out.write(f"space {space}: {index.term_count(space)} terms\n")
        for term in index.terms(space):
            plist = index.postings(term, space)
            occurrences = " ".join(f"{doc}:{tf}" for doc, tf in plist.items())
            out.write(f"  {format_term(term)}  df={len(plist)}  {occurrences}\n")
