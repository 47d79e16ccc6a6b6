"""Peak memory of a build, a load and a compare, and the bytes a loaded index holds.

The corpus streams into the build one document at a time, compare keeps only
the ranked doc ids it evaluates, and the index holds each distinct posting list as one
array of doc numbers and term frequencies. Each peak is bounded per stored
posting, one (term, document) pair of one space, a count that neither the
file format nor the index's layout in memory changes. The corpus has
perfbench's short-document shape, at a size small enough for tier 1.
"""
import gc
import sys
import tracemalloc

import pytest

import corpusgen
from conftest import write_jsonl
from ontovsm.cli import main
from ontovsm.corpus import load_corpus
from ontovsm.index import STORED_SPACES, build_index, load_index, save_index
from ontovsm.ontology import read_kb_file, read_taxonomy_file

# Bytes per stored posting, measured on CPython 3.11.7 with 6,514 stored
# postings: the build peaks at 32.2 to 32.5 by run, a load at 20.6 and
# compare at 86.0. When equal lists were found by a hash of their bytes, with
# no bytes copy held, the build peaked at 31.7. With a row and an array for
# each term, where equal lists repeat, a load peaked at 22.1; with every
# posting array of typecode 'I' they read 35.6, 26.2 and 90.5, and with
# postings saved as [doc_id, tf] pairs a load peaked at 29.1.
# The build bound sits 11% above its reading, the load bound 17% and the
# compare bound 26%; in bytes (about 235, 156 and 704 kB) none is higher than
# the bounds once set at 3.0, 2.5 and 8.0 times the 88,924-byte
# postings.jsonl of version 2 (267, 222 and 711 kB).
BUILD_PEAK_PER_POSTING = 36
LOAD_PEAK_PER_POSTING = 24
COMPARE_PEAK_PER_POSTING = 108
# A loaded index holds 14.2 bytes per stored posting on 3.11.7, and a built
# one about 15.3; with an array for each term, where equal lists repeat, they
# held 15.5 and 16.6, with every posting array of typecode 'I' 18.9 and 19.9, and
# in dicts keyed by doc-id strings an index held 46.0. A built index held
# about 2 bytes more per posting on CPython 3.10, so its bound sits further
# above.
LOADED_BYTES_PER_POSTING = 17
BUILT_BYTES_PER_POSTING = 19


def traced(fn):
    """``fn()``'s result, the bytes it leaves allocated, and its peak bytes."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    data = corpusgen.synthetic_dataset(seed=7, n_docs=300, n_queries=20)
    directory = tmp_path_factory.mktemp("memory")
    write_jsonl(directory / "taxonomy.jsonl", data["taxonomy"])
    write_jsonl(directory / "kb.jsonl", data["kb"])
    write_jsonl(directory / "corpus.jsonl", data["docs"])
    write_jsonl(directory / "queries.jsonl", data["queries"])
    (directory / "qrels.txt").write_text("".join(corpusgen.qrels_lines(data["qrels"])))
    return directory


def spare_bytes(index):
    """Each posting array's bytes beyond those of an exact copy."""
    plists = [index.posting_list(t, s) for s in STORED_SPACES for t in index.terms(s)]
    return [sys.getsizeof(p) - sys.getsizeof(p[:]) for p in plists]


@pytest.fixture(scope="module")
def built_index(data_dir):
    """The built index, the bytes it holds and the build's peak. The index is
    saved under ``data_dir``, for the load to read."""
    taxonomy = read_taxonomy_file(data_dir / "taxonomy.jsonl")
    kb = read_kb_file(data_dir / "kb.jsonl", taxonomy)
    index, held, peak = traced(
        lambda: build_index(load_corpus(data_dir / "corpus.jsonl", kb, taxonomy), kb, taxonomy)
    )
    assert index.n_docs == 300
    save_index(index, data_dir / "index")
    return index, held, peak


@pytest.fixture(scope="module")
def built(built_index):
    """The postings the built index stores, and the build's peak."""
    index, _, peak = built_index
    return sum(index.posting_count(s) for s in STORED_SPACES), peak


def test_build_peak_stays_near_the_index(built):
    stored, peak = built
    per_posting = peak / stored
    assert per_posting < BUILD_PEAK_PER_POSTING, (
        f"build peaked at {peak} bytes, {per_posting:.1f} for each of {stored} postings"
    )


def test_load_peak_stays_near_the_index(data_dir, built):
    stored, _ = built
    index, _, peak = traced(lambda: load_index(data_dir / "index"))
    assert index.n_docs == 300
    per_posting = peak / stored
    assert per_posting < LOAD_PEAK_PER_POSTING, (
        f"load peaked at {peak} bytes, {per_posting:.1f} for each of {stored} postings"
    )


def test_loaded_index_holds_few_bytes_per_posting(data_dir, built):
    stored, _ = built
    index, held, _ = traced(lambda: load_index(data_dir / "index"))
    per_posting = held / stored
    assert per_posting < LOADED_BYTES_PER_POSTING, (
        f"a loaded index holds {held} bytes, {per_posting:.1f} for each of {stored} postings"
    )


def test_loaded_posting_arrays_have_no_spare_room(data_dir, built):
    spare = spare_bytes(load_index(data_dir / "index"))
    assert spare == [0] * len(spare), f"{sum(spare)} spare bytes in the loaded arrays"


def test_built_index_holds_few_bytes_per_posting(built_index, built):
    _, held, _ = built_index
    stored, _ = built
    per_posting = held / stored
    assert per_posting < BUILT_BYTES_PER_POSTING, (
        f"a built index holds {held} bytes, {per_posting:.1f} for each of {stored} postings"
    )


def test_built_posting_arrays_have_no_spare_room(built_index):
    spare = spare_bytes(built_index[0])
    assert spare == [0] * len(spare), f"{sum(spare)} spare bytes in the built arrays"


def test_compare_peak_stays_near_the_index(data_dir, built, capsys):
    stored, _ = built
    argv = [
        "compare",
        "--taxonomy", str(data_dir / "taxonomy.jsonl"),
        "--kb", str(data_dir / "kb.jsonl"),
        "--corpus", str(data_dir / "corpus.jsonl"),
        "--queries", str(data_dir / "queries.jsonl"),
        "--qrels", str(data_dir / "qrels.txt"),
        "--out", str(data_dir / "out"),
    ]
    status, _, peak = traced(lambda: main(argv))
    assert status == 0, capsys.readouterr().err
    per_posting = peak / stored
    assert per_posting < COMPARE_PEAK_PER_POSTING, (
        f"compare peaked at {peak} bytes, {per_posting:.1f} for each of {stored} postings"
    )
