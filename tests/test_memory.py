"""Peak memory of a build, a load and a compare, and the bytes a loaded index holds.

The corpus streams into the build one document at a time, compare keeps only
the ranked doc ids it evaluates, and the index holds each posting list as one
array of doc numbers and term frequencies. Each peak is bounded against the
size of the saved ``postings.jsonl``, which is the same whatever the index
holds in memory. The corpus has perfbench's short-document shape, at a size
small enough for tier 1.
"""
import gc
import tracemalloc

import pytest

import corpusgen
from conftest import write_jsonl
from ontovsm.cli import main
from ontovsm.corpus import load_corpus
from ontovsm.index import STORED_SPACES, build_index, load_index, save_index
from ontovsm.ontology import read_kb_file, read_taxonomy_file

# Measured on CPython 3.11.7 against the 88,924-byte postings.jsonl, with each
# posting list held as one array: the build peaks at 2.52 times that file, a
# load at 2.13 and compare at 6.91. 3.12 and 3.10 were measured outside pytest
# only: build and load read 2.40 and 2.07 on 3.12 (compare 6.83), and 2.72 and
# 2.22 on 3.10. With postings in dicts keyed by doc-id strings they peaked at
# 4.47, 4.04 and 9.09. Each bound sits 16-18% above the 3.11 reading.
BUILD_PEAK_RATIO = 3.0
LOAD_PEAK_RATIO = 2.5
COMPARE_PEAK_RATIO = 8.0
# A loaded index holds 19.3 bytes per stored posting on 3.11.7 (18.6 on 3.12,
# 19.9 on 3.10); in dicts keyed by doc-id strings it held 46.0.
LOADED_BYTES_PER_POSTING = 25


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


@pytest.fixture(scope="module")
def postings_bytes(data_dir):
    """The build's peak, and the size of the postings.jsonl of the index it
    saves under ``data_dir``, for the load to read."""
    taxonomy = read_taxonomy_file(data_dir / "taxonomy.jsonl")
    kb = read_kb_file(data_dir / "kb.jsonl", taxonomy)
    index, _, peak = traced(
        lambda: build_index(load_corpus(data_dir / "corpus.jsonl", kb, taxonomy), kb, taxonomy)
    )
    assert index.n_docs == 300
    save_index(index, data_dir / "index")
    return (data_dir / "index" / "postings.jsonl").stat().st_size, peak


def test_build_peak_stays_near_the_index(postings_bytes):
    size, peak = postings_bytes
    ratio = peak / size
    assert ratio < BUILD_PEAK_RATIO, (
        f"build peaked at {peak} bytes, {ratio:.2f} x its {size}-byte postings.jsonl"
    )


def test_load_peak_stays_near_the_index(data_dir, postings_bytes):
    size, _ = postings_bytes
    index, _, peak = traced(lambda: load_index(data_dir / "index"))
    assert index.n_docs == 300
    ratio = peak / size
    assert ratio < LOAD_PEAK_RATIO, (
        f"load peaked at {peak} bytes, {ratio:.2f} x its {size}-byte postings.jsonl"
    )


def test_loaded_index_holds_few_bytes_per_posting(data_dir, postings_bytes):
    index, held, _ = traced(lambda: load_index(data_dir / "index"))
    stored = sum(len(index.postings(t, s)) for s in STORED_SPACES for t in index.terms(s))
    per_posting = held / stored
    assert per_posting < LOADED_BYTES_PER_POSTING, (
        f"a loaded index holds {held} bytes, {per_posting:.1f} for each of {stored} postings"
    )


def test_compare_peak_stays_near_the_index(data_dir, postings_bytes, capsys):
    size, _ = postings_bytes
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
    ratio = peak / size
    assert ratio < COMPARE_PEAK_RATIO, (
        f"compare peaked at {peak} bytes, {ratio:.2f} x the {size}-byte postings.jsonl"
    )
