"""Workload inputs, generated from the seed with the test suite's corpusgen.

Every workload is a dataset (taxonomy, knowledge base, corpus, queries and
qrels as raw records) written to a directory in the formats the command line
reads. The same seed always gives the same files.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

import corpusgen

# Token lengths of the long documents. Each one doubles the last, so the
# ingest span check's growth with document length shows in one corpus.
LONG_DOC_TOKENS = (2000, 4000, 8000, 16000)
# Share of text items that are entity mentions. Aliases average about 1.7
# tokens, so this gives one annotation per 4 to 5 tokens.
LONG_DOC_MENTION_RATE = 0.3


@dataclass
class Dataset:
    taxonomy: list
    kb: list
    docs: list
    queries: list
    qrels: dict

    def subset(self, n_docs: int, queries: list) -> "Dataset":
        """The first documents and the given queries, judged only on those documents."""
        docs = self.docs[:n_docs]
        kept = {d["doc_id"] for d in docs}
        qrels = {
            q["query_id"]: {d: r for d, r in self.qrels[q["query_id"]].items() if d in kept}
            for q in queries
        }
        return Dataset(self.taxonomy, self.kb, docs, queries, qrels)


@dataclass(frozen=True)
class DatasetFiles:
    taxonomy: Path
    kb: Path
    corpus: Path
    queries: Path
    qrels: Path


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def write_dataset(data: Dataset, directory: Path) -> DatasetFiles:
    directory.mkdir(parents=True, exist_ok=True)
    files = DatasetFiles(
        taxonomy=directory / "taxonomy.jsonl",
        kb=directory / "kb.jsonl",
        corpus=directory / "corpus.jsonl",
        queries=directory / "queries.jsonl",
        qrels=directory / "qrels.txt",
    )
    _write_jsonl(files.taxonomy, data.taxonomy)
    _write_jsonl(files.kb, data.kb)
    _write_jsonl(files.corpus, data.docs)
    _write_jsonl(files.queries, data.queries)
    files.qrels.write_text("".join(corpusgen.qrels_lines(data.qrels)), encoding="utf-8")
    return files


def short_documents(seed: int, n_docs: int, n_queries: int) -> Dataset:
    """corpusgen's synthetic corpus, queries and judgments, as generated."""
    data = corpusgen.synthetic_dataset(seed=seed, n_docs=n_docs, n_queries=n_queries)
    return Dataset(data["taxonomy"], data["kb"], data["docs"], data["queries"], data["qrels"])


def judgments(rng: random.Random, queries: list, doc_ids: list[str]) -> dict:
    """Judgments made as corpusgen makes them: 3 to 6 judged documents (at
    most all of them), at least one relevant."""
    qrels = {}
    for query in queries:
        judged = rng.sample(doc_ids, min(len(doc_ids), rng.randint(3, 6)))
        flags = {d: rng.random() < 0.6 for d in judged}
        flags[judged[0]] = True
        qrels[query["query_id"]] = flags
    return qrels


def long_document(rng: random.Random, doc_id: str, n_tokens: int) -> dict:
    """One document of at least ``n_tokens`` tokens, densely annotated.

    Built like corpusgen's short documents: vocabulary words interleaved with
    entity aliases whose annotation spans are exact.
    """
    parts, annotations = [], []
    pos = tokens = 0
    while tokens < n_tokens:
        if rng.random() < LONG_DOC_MENTION_RATE:
            entity = rng.choice(corpusgen.SYNTH_ENTITY_RECORDS)
            word = rng.choice(entity["names"])
            annotations.append(corpusgen._doc_annotation(rng, entity, word, pos))
        else:
            word = rng.choice(corpusgen.VOCAB)
        parts.append(word)
        pos += len(word) + 1
        tokens += len(word.split())
    return {"doc_id": doc_id, "text": " ".join(parts), "annotations": annotations}


def long_documents(seed: int, n_queries: int, lengths=LONG_DOC_TOKENS) -> Dataset:
    """Long documents of the given token lengths with corpusgen's queries.

    The queries are those ``synthetic_dataset`` makes for the seed; it needs
    six documents to judge, so judgments on the long documents are made here.
    """
    rng = random.Random(seed)
    docs = [long_document(rng, f"long{n}", n) for n in lengths]
    queries = corpusgen.synthetic_dataset(seed=seed, n_docs=6, n_queries=n_queries)["queries"]
    qrels = judgments(rng, queries, [d["doc_id"] for d in docs])
    return Dataset(
        corpusgen.SYNTH_TAXONOMY_RECORDS, corpusgen.SYNTH_ENTITY_RECORDS, docs, queries, qrels
    )
