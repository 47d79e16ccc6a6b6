"""Shared fixtures: loaded ontologies, ingested corpora, built indexes."""
import hashlib
import json
from array import array
from itertools import accumulate, pairwise

import pytest
from hypothesis import settings

import corpusgen
from ontovsm import ontology
from ontovsm.corpus import ingest_document, query_from_record
from ontovsm.index import STORED_SPACES, build_index
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


def round_canonical(s):
    """The score canonicalisation that ``retrieval._canonical`` computes in float
    arithmetic, through ``round``: 12 decimals below 1, and 1.0 otherwise."""
    return round(s, 12) if s < 1.0 else 1.0


def narrowest_typecode(plist):
    """The narrowest of 'B', 'H' and 'I' whose items hold every number of the list."""
    return next(t for t in "BHI" if max(plist) < 2 ** (8 * array(t).itemsize))


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


def restamp(index_dir, name):
    """Record the file's present size and sha256 digest in stats.json, as a
    save would, so an edit to it reaches the check it is meant for."""
    path = index_dir / "stats.json"
    stats = json.loads(path.read_text(encoding="utf-8"))
    data = (index_dir / name).read_bytes()
    stats["files"][name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    path.write_text(json.dumps(stats), encoding="utf-8")


def _posting_rows(index_dir):
    path = index_dir / "postings.jsonl"
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def _write_posting_rows(index_dir, rows, *, stamp=True):
    # In the form save_index writes, so an edit that keeps the size keeps it here.
    ontology.write_jsonl(index_dir / "postings.jsonl", rows, compact=True)
    if stamp:
        restamp(index_dir, "postings.jsonl")


def _rewrite_posting_row(change, *, stamp=True):
    """Apply ``change`` to the first posting row that lists two documents or more."""

    def corrupt(index_dir):
        rows = _posting_rows(index_dir)
        change(next(row for row in rows if len(row["docs"]) > 1))
        _write_posting_rows(index_dir, rows, stamp=stamp)

    return corrupt


def _set_first_tf(tf):
    def change(row):
        row["tfs"][0] = tf

    return _rewrite_posting_row(change)


# A saved row's docs hold the gaps between its doc numbers: the first doc
# number, then each one's step from the one before.


def _repeat_first_doc_in_row(row):
    # A gap of 0 names the document before it again.
    row["docs"].insert(1, 0)
    row["tfs"].insert(1, row["tfs"][0])


def _reverse_row(row):
    """List the row's documents from the last to the first: every gap after
    the first is negative, and every doc number the gaps sum to is the row's own."""
    docs = list(accumulate(row["docs"]))[::-1]
    row["docs"] = [docs[0], *(doc - previous for previous, doc in pairwise(docs))]
    row["tfs"].reverse()


def _zero_last_gap(row):
    row["docs"][-1] = 0


def _first_doc_true(row):
    row["docs"][0] = True


def _second_gap_true(row):
    # Summed as the int 1, it could name a real document.
    row["docs"][1] = True


def _drop_last_tf(row):
    row["tfs"].pop()


def _empty_row(row):
    row["docs"].clear()
    row["tfs"].clear()


def _bump_first_tf(row):
    row["tfs"][0] += 5


def _append_gap(gap):
    """Append a posting with tf 1 and the gap ``gap(doc_count, the row's last doc number)``."""

    def corrupt(index_dir):
        stats = json.loads((index_dir / "stats.json").read_text(encoding="utf-8"))
        _rewrite_posting_row(
            lambda row: (
                row["docs"].append(gap(stats["doc_count"], sum(row["docs"]))),
                row["tfs"].append(1),
            )
        )(index_dir)

    return corrupt


def _repeat_first_row(index_dir):
    rows = _posting_rows(index_dir)
    _write_posting_rows(index_dir, [*rows, rows[0]])


def _name_first_term_in_second_row(index_dir):
    # The two rows hold different lists, so the term would have two.
    rows = _posting_rows(index_dir)
    rows[1]["terms"].append(rows[0]["terms"][0])
    _write_posting_rows(index_dir, rows)


def _rewrite_first_row(change):
    """Apply ``change`` to the first posting row and to its first term entry."""

    def corrupt(index_dir):
        rows = _posting_rows(index_dir)
        change(rows[0], rows[0]["terms"][0])
        _write_posting_rows(index_dir, rows)

    return corrupt


def _swap_first_rows(index_dir):
    rows = _posting_rows(index_dir)
    rows[0], rows[1] = rows[1], rows[0]
    _write_posting_rows(index_dir, rows)


def _first_row_of_two_terms(rows):
    return next(row for row in rows if len(row["terms"]) > 1)


def _reverse_a_rows_terms(index_dir):
    rows = _posting_rows(index_dir)
    _first_row_of_two_terms(rows)["terms"].reverse()
    _write_posting_rows(index_dir, rows)


def _give_a_keyword_a_class(index_dir):
    rows = _posting_rows(index_dir)
    next(entry for row in rows for entry in row["terms"] if entry[0] == "KW")[2] = "Extra"
    _write_posting_rows(index_dir, rows)


def _split_a_row(index_dir):
    """Move every term but the first of a row that names two or more into a row
    of its own, holding the same list, in first-term order; stats.json's lists
    count is stamped afresh."""
    rows = _posting_rows(index_dir)
    row = _first_row_of_two_terms(rows)
    rows.append({**row, "terms": row["terms"][1:]})
    del row["terms"][1:]
    rows.sort(key=lambda row: (STORED_SPACES.index(row["terms"][0][0]), row["terms"][0][1:]))
    _write_posting_rows(index_dir, rows)
    _rewrite_stats(lambda stats: stats.update(lists=len(rows)))(index_dir)


def _add_unknown_key(name, key):
    """Give the first record of the saved ``name`` a key no loader defines, and
    restamp it, so that the record check sees it."""

    def corrupt(index_dir):
        path = index_dir / name
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        rows[0][key] = []
        ontology.write_jsonl(path, rows)
        restamp(index_dir, name)

    return corrupt


def _rewrite_taxonomy(change):
    """Apply ``change`` to the saved taxonomy records, write them as a save
    would, and restamp the file, so that the load's comparison sees them."""

    def corrupt(index_dir):
        path = index_dir / "taxonomy.jsonl"
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        change(rows)
        ontology.write_jsonl(path, rows)
        restamp(index_dir, "taxonomy.jsonl")

    return corrupt


def _swap_first_classes(rows):
    rows[0], rows[1] = rows[1], rows[0]


def _repeat_first_parent(rows):
    parents = next(row["parents"] for row in rows if row["parents"])
    parents.append(parents[0])


def _drop_a_roots_parents(rows):
    # load_taxonomy reads a missing parents list as [], which a save writes.
    del next(row for row in rows if not row["parents"])["parents"]


def _add_a_files_entry(stats):
    stats["files"]["notes.txt"] = {"bytes": 0, "sha256": hashlib.sha256(b"").hexdigest()}


def _edit_one_byte(name):
    """Turn the file's last digit or letter into the next one, keeping its size
    and digest entry. The edited file still parses."""

    def corrupt(index_dir):
        path = index_dir / name
        data = bytearray(path.read_bytes())
        at = max(i for i, byte in enumerate(data) if chr(byte).isalnum() and byte not in b"9zZ")
        data[at] += 1
        path.write_bytes(data)

    return corrupt


def _truncate_postings(index_dir):
    path = index_dir / "postings.jsonl"
    first = path.read_text(encoding="utf-8").splitlines(keepends=True)[0]
    path.write_text(first, encoding="utf-8")


def _rows_per_term(index_dir):
    """The saved posting rows as versions 2 to 4 held them: one row per stored
    term, by space in STORED_SPACES order, then by term, each naming its space
    and its [term, class] pair, with the docs as gaps and the tfs."""
    rows = [
        {"space": space, "term": [primary, secondary], "docs": row["docs"], "tfs": row["tfs"]}
        for row in _posting_rows(index_dir)
        for space, primary, secondary in row["terms"]
    ]
    return sorted(rows, key=lambda row: (STORED_SPACES.index(row["space"]), row["term"]))


def _write_retired_version(index_dir, version, rows, **write):
    """Write ``rows`` as postings.jsonl and stamp stats.json with ``version``
    and the file's size and digest, without the lists count that version 5 added."""
    postings = ontology.write_jsonl(index_dir / "postings.jsonl", rows, **write)
    path = index_dir / "stats.json"
    stats = json.loads(path.read_text(encoding="utf-8"))
    del stats["lists"]
    stats["version"] = version
    stats["files"]["postings.jsonl"] = postings
    path.write_text(json.dumps(stats, ensure_ascii=False, indent=2) + "\n", encoding="utf-8")
    return index_dir


def _write_version_2_index(index_dir):
    """Rewrite the saved index in the retired version-2 layout: each posting a
    ``[doc_id, tf]`` pair, and no postings counts or file digests in stats.json."""
    stats = json.loads((index_dir / "stats.json").read_text(encoding="utf-8"))
    ids = sorted(stats["doc_ids"])
    rows = [
        {
            "space": row["space"],
            "term": row["term"],
            "postings": [[ids[doc], tf] for doc, tf in zip(accumulate(row["docs"]), row["tfs"])],
        }
        for row in _rows_per_term(index_dir)
    ]
    _write_posting_rows(index_dir, rows, stamp=False)
    del stats["postings"], stats["files"], stats["lists"]
    stats["version"] = 2
    (index_dir / "stats.json").write_text(json.dumps(stats, indent=2) + "\n", encoding="utf-8")


def write_version_3_index(index_dir):
    """Rewrite the saved index in the retired version-3 layout, as a version-3
    save wrote it: a row per term, whose docs held its doc numbers themselves,
    written with a space after each comma and colon."""
    rows = _rows_per_term(index_dir)
    for row in rows:
        row["docs"] = list(accumulate(row["docs"]))
    return _write_retired_version(index_dir, 3, rows)


def write_version_4_index(index_dir):
    """Rewrite the saved index in the retired version-4 layout, as a version-4
    save wrote it: a row per term, whose docs held gaps, written without spaces."""
    return _write_retired_version(index_dir, 4, _rows_per_term(index_dir), compact=True)


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


def _miscount_first_space(counts):
    def change(stats):
        space = next(iter(stats[counts]))
        stats[counts][space] += 1

    return change


def _write_non_utf8_stats(index_dir):
    (index_dir / "stats.json").write_bytes(b'{"format": "\xff"}\n')


# Damage that a saved index must be rejected for: (corrupt(index_dir), the
# phrase the IndexFormatError names it by). stats.json records each other
# file's size and digest, so an edit to one of those files is caught by the
# digest unless the edit stamps it afresh; the edits that stamp it test the
# check that would catch them if the digest matched.
INDEX_CORRUPTIONS = [
    pytest.param(_repeat_first_row, "posting rows name term", id="term-in-two-rows"),
    pytest.param(
        _name_first_term_in_second_row, "posting rows name term", id="term-named-in-two-rows"
    ),
    pytest.param(
        _rewrite_first_row(lambda row, entry: row["terms"].append(entry)),
        "posting rows name term",
        id="term-twice-in-one-row",
    ),
    pytest.param(
        _rewrite_first_row(lambda row, entry: row["terms"].clear()),
        "a posting row names no term",
        id="row-naming-no-term",
    ),
    pytest.param(
        _rewrite_first_row(lambda row, entry: entry.pop()),
        "is not three strings",
        id="entry-of-two-strings",
    ),
    pytest.param(
        _rewrite_first_row(lambda row, entry: entry.__setitem__(0, "UNIFIED")),
        "unknown term space 'UNIFIED'",
        id="entry-in-unknown-space",
    ),
    pytest.param(
        _give_a_keyword_a_class, "carries class 'Extra' outside NC", id="class-outside-nc"
    ),
    pytest.param(_swap_first_rows, "postings.jsonl, record 1: holds", id="rows-out-of-order"),
    pytest.param(
        _reverse_a_rows_terms, "postings.jsonl, record 1: holds", id="terms-out-of-order"
    ),
    pytest.param(_split_a_row, "postings.jsonl, record 1: holds", id="list-split-over-two-rows"),
    pytest.param(
        _rewrite_posting_row(_repeat_first_doc_in_row),
        "lists a document twice",
        id="doc-twice-in-row",
    ),
    pytest.param(
        _rewrite_posting_row(_zero_last_gap), "lists a document twice", id="zero-gap-mid-row"
    ),
    pytest.param(_rewrite_posting_row(_reverse_row), "do not ascend", id="docs-not-ascending"),
    pytest.param(_append_gap(lambda doc_count, last: -1), "do not ascend", id="negative-gap"),
    pytest.param(
        _rewrite_posting_row(_first_doc_true), "unknown document number True", id="doc-number-true"
    ),
    pytest.param(
        _rewrite_posting_row(_second_gap_true),
        "unknown document number True",
        id="gap-true-mid-row",
    ),
    pytest.param(
        _append_gap(lambda doc_count, last: doc_count),
        "unknown document number",
        id="doc-number-past-doc-count",
    ),
    # Every index these rows corrupt holds three documents.
    pytest.param(
        _append_gap(lambda doc_count, last: doc_count - last),
        "unknown document number 3; the index numbers its 3 documents",
        id="gaps-sum-to-doc-count",
    ),
    pytest.param(
        _rewrite_posting_row(_drop_last_tf),
        "docs and tfs lists of one length",
        id="columns-of-unequal-length",
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
        _rewrite_posting_row(_empty_row), "lists no documents", id="row-without-documents"
    ),
    *(
        pytest.param(
            _rewrite_posting_row(lambda row, key=key: row.pop(key)),
            "malformed posting row",
            id=f"row-without-{name}",
        )
        for key, name in (("tfs", "tfs"), ("terms", "term"))
    ),
    pytest.param(
        _rewrite_stats(_repeat_first_doc_id), "document 'd1' indexed twice", id="doc-id-twice"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.pop("doc_ids")), "lacks a doc_ids list", id="no-doc-ids"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.pop("stopwords")), "stopwords", id="no-stopwords"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.update(doc_count=stats["doc_count"] + 1)),
        "doc_count",
        id="doc-count-mismatch",
    ),
    pytest.param(
        _rewrite_stats(_miscount_first_space("terms")),
        "stats.json, key 'terms': holds",
        id="term-count-mismatch",
    ),
    pytest.param(
        _rewrite_stats(_miscount_first_space("postings")),
        "stats.json, key 'postings': holds",
        id="posting-count-mismatch",
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.update(lists=stats["lists"] + 1)),
        "stats.json, key 'lists': holds",
        id="lists-count-off-by-one",
    ),
    # Edits that the checks of each record's own form let through: the load
    # refuses them because a save of the index it reads would write otherwise.
    pytest.param(
        _set_stopwords(["the", "a"]),
        "stats.json, key 'stopwords': holds",
        id="stopwords-out-of-order",
    ),
    pytest.param(
        _set_stopwords(["the", "the"]),
        "stats.json, key 'stopwords': holds",
        id="stopword-twice",
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.update(comment="x")),
        "stats.json, key 'comment': holds \"x\", where a save of the loaded index writes nothing",
        id="stats-unknown-key",
    ),
    pytest.param(
        _rewrite_stats(_add_a_files_entry),
        "stats.json, key 'files': holds",
        id="files-map-extra-entry",
    ),
    pytest.param(
        _rewrite_taxonomy(_swap_first_classes),
        "taxonomy.jsonl, record 1: holds",
        id="classes-out-of-order",
    ),
    pytest.param(
        _rewrite_taxonomy(_repeat_first_parent),
        "taxonomy.jsonl, record 1: holds",
        id="parent-twice",
    ),
    pytest.param(
        _rewrite_taxonomy(_drop_a_roots_parents),
        "taxonomy.jsonl, record 4: holds",
        id="root-without-parents",
    ),
    pytest.param(
        _rewrite_posting_row(lambda row: row.update(extra=[])),
        "malformed posting row",
        id="row-with-fourth-key",
    ),
    # A misspelt key would otherwise be dropped, and with it, say, a class's parents.
    pytest.param(
        _add_unknown_key("taxonomy.jsonl", "pareGts"),
        "class 'City' has unknown key 'pareGts'",
        id="taxonomy-unknown-key",
    ),
    pytest.param(
        _add_unknown_key("kb.jsonl", "aliases"),
        "entity 'e1' has unknown key 'aliases'",
        id="kb-unknown-key",
    ),
    pytest.param(_write_non_utf8_stats, "codec can't decode", id="stats-not-utf8"),
    pytest.param(
        _rewrite_stats(lambda stats: stats["doc_ids"].append("d\ud800")),
        "surrogates not allowed",
        id="stats-lone-surrogate",
    ),
    *(
        pytest.param(
            _edit_one_byte(name),
            f"{name} does not match the sha256 digest",
            id=f"one-byte-edit-{name}",
        )
        for name in ("postings.jsonl", "taxonomy.jsonl", "kb.jsonl")
    ),
    pytest.param(
        _rewrite_posting_row(_bump_first_tf, stamp=False),
        "postings.jsonl does not match the sha256 digest",
        id="tf-bump-stale-digest",
    ),
    pytest.param(_truncate_postings, "postings.jsonl holds", id="postings-truncated"),
    pytest.param(
        lambda index_dir: (index_dir / "kb.jsonl").unlink(), "kb.jsonl is missing", id="kb-missing"
    ),
    pytest.param(
        _rewrite_stats(lambda stats: stats.pop("files")), "lacks a files map", id="no-files-map"
    ),
    pytest.param(_write_version_2_index, "unsupported index version 2", id="version-2-directory"),
    pytest.param(write_version_3_index, "unsupported index version 3", id="version-3-directory"),
    pytest.param(write_version_4_index, "unsupported index version 4", id="version-4-directory"),
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
