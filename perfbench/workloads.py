"""The workloads and the operations they time.

Every workload runs every user-facing operation on its own dataset, so each
end-to-end metric exists on each workload; what differs is which operation
is the main one and how large the data is:

* ``compare-2k``: whole ``ontovsm compare`` runs over 2k short documents.
* ``longdoc``: whole ``ontovsm build-index`` runs over a few long, densely
  annotated documents.

Untraced runs time the operations as a user runs them: ``cli.main`` for the
commands and the package functions for load and search. Traced runs replay
the same steps through the package's public functions with a span around
each call, alternating the main operation with its untraced form so the
tracing overhead is measured in the same run. Work the replay adds that the
program does not do (the separate ``document_terms`` and ``filter_documents``
passes, counts and checks) is left out of the overhead.
"""
from __future__ import annotations

import contextlib
import gc
import io
import itertools
import math
import shutil
import statistics
import tracemalloc
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from ontovsm import (
    ALL_MODELS,
    EmptyQueryError,
    build_index,
    document_terms,
    evaluate_runs,
    filter_documents,
    load_corpus,
    load_index,
    load_qrels,
    load_queries,
    load_run_file,
    read_kb_file,
    read_taxonomy_file,
    save_index,
    search,
    tokenize,
    write_report,
    write_run_file,
)
from ontovsm.cli import main as cli_main
from ontovsm.corpus import ingest_document
from ontovsm.errors import CorpusError
from ontovsm.index import STORED_SPACES
from ontovsm.ontology import read_jsonl

import checks
import inputs
from tracing import Tracer

TOP_K = 1000  # the command line's default
MODEL_NAMES = [m.value for m in ALL_MODELS]

COMPARE_DOCS, COMPARE_QUERIES = 2000, 50
LONGDOC_QUERIES = 64
# Oracle checks run on the first documents and queries of the workload's own
# generator. The oracle is brute force, so these stay small.
ORACLE_DOCS, ORACLE_QUERIES = 200, 4
ORACLE_LONG_TOKENS = (200, 400, 800)

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_index_s": "s",
    "compare_s": "s",
    "search_qps": "1/s",
    "search_p50_ms": "ms",
    "search_p90_ms": "ms",
    "index_mem_mb": "MB",
    "index_disk_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {
        "ontology.read_s": "s",
        "corpus.ingest_s": "s",
        "corpus.tokens": "count",
        "corpus.annotations": "count",
        "corpus.ingest_exp": "1",
        "corpus.load_queries_s": "s",
        "termspace.expand_s": "s",
        "index.build_s": "s",
        "index.save_s": "s",
        "index.load_s": "s",
        "index.postings": "count",
        "index.terms": "count",
    }
    for model in MODEL_NAMES:
        units[f"retrieval.{model}.filter_ms"] = "ms"
        units[f"retrieval.{model}.score_rank_ms"] = "ms"
        units[f"retrieval.{model}.candidates"] = "count"
        units[f"retrieval.{model}.kept_ratio"] = "ratio"
        units[f"retrieval.{model}.empty_queries"] = "count"
    units.update(
        {
            "retrieval.write_run_s": "s",
            "retrieval.tie_inversions": "count",
            "evaluation.load_runs_s": "s",
            "evaluation.run_lines": "count",
            "evaluation.evaluate_s": "s",
            "evaluation.write_report_s": "s",
            "trace.overhead_pct": "%",
        }
    )
    return units


class Bench:
    """One benchmark run: work directory, window length, samples and failures."""

    def __init__(self, work: Path, seconds: int, tracer: Tracer | None):
        self.work = work
        self.seconds = seconds
        self.tracer = tracer
        self.samples: dict[str, list[float]] = defaultdict(list)
        # Run-file lines of each search on a reloaded index, by (query_id,
        # model name); empty when the model cannot express the query. Kept as
        # text: the garbage collector does not scan strings, so the benchmark's
        # own heap adds no collection time to the operations it times.
        self.results: dict[tuple[str, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # Summed time of the main operation, untraced and traced.
        self.overhead = [0.0, 0.0]
        # Time the traced replay spends on work the program does not do.
        self.untimed_s = 0.0

    def record(self, problems: list[str]) -> None:
        """Count one operation, failed if its output check found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def attempt(self, label: str, fn, *args):
        """Run one operation; an exception fails it and the run goes on."""
        try:
            return fn(*args)
        except Exception as exc:  # EmptyQueryError is handled inside each operation
            self.record([f"{label}: {exc!r}"])
            return None

    def timed(self, metric: str, fn, *args):
        start = perf_counter()
        value = fn(*args)
        self.samples[metric].append(perf_counter() - start)
        return value

    def span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    @contextlib.contextmanager
    def untimed(self):
        """Replay work the program does not do, kept out of the overhead."""
        start = perf_counter()
        try:
            yield
        finally:
            self.untimed_s += perf_counter() - start


# ---------------------------------------------------------------------------
# Operations as a user runs them.


def run_cli(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = cli_main(args)
    return status, out.getvalue()


def build_index_cli(bench: Bench, files: inputs.DatasetFiles, index_dir: Path, n_docs: int):
    args = [
        "build-index",
        "--taxonomy", str(files.taxonomy),
        "--kb", str(files.kb),
        "--corpus", str(files.corpus),
        "--index", str(index_dir),
    ]
    status, out = bench.timed("build_index_s", run_cli, args)
    problems = [] if status == 0 else [f"build-index exited {status}"]
    if status == 0 and not out.startswith(f"indexed {n_docs} docs"):
        problems.append(f"build-index reported {out.strip()!r}")
    bench.record(problems)


def compare_cli(bench: Bench, files: inputs.DatasetFiles, out_dir: Path):
    shutil.rmtree(out_dir, ignore_errors=True)
    args = [
        "compare",
        "--taxonomy", str(files.taxonomy),
        "--kb", str(files.kb),
        "--corpus", str(files.corpus),
        "--queries", str(files.queries),
        "--qrels", str(files.qrels),
        "--out", str(out_dir),
    ]
    status, _ = bench.timed("compare_s", run_cli, args)
    bench.record(report_problems(out_dir) if status == 0 else [f"compare exited {status}"])


def report_problems(out_dir: Path) -> list[str]:
    problems = []
    for name in ("precision.csv", "f_measure.csv"):
        path = out_dir / name
        rows = path.read_text(encoding="utf-8").splitlines() if path.exists() else []
        if [row.split(",", 1)[0] for row in rows[1:]] != MODEL_NAMES:
            problems.append(f"{path} does not list the eight models")
    for model in MODEL_NAMES:
        if not (out_dir / "runs" / f"{model}.run").exists():
            problems.append(f"compare wrote no run file for {model}")
    return problems


def load_setup(index_dir: Path, queries_path: Path):
    index = load_index(index_dir)
    return index, load_queries(queries_path, index.kb, index.taxonomy, index.stopwords)


def compare_setup(files: inputs.DatasetFiles):
    """The calls ``compare`` makes before its first search."""
    taxonomy = read_taxonomy_file(files.taxonomy)
    kb = read_kb_file(files.kb, taxonomy)
    docs = load_corpus(files.corpus, kb, taxonomy)
    index = build_index(docs, kb, taxonomy)
    return index, load_queries(files.queries, kb, taxonomy)


def setup(bench: Bench, fn, expected_docs: int, expected_queries: int):
    index, queries = bench.timed("setup_s", fn)
    problems = []
    if index.n_docs != expected_docs or len(queries) != expected_queries:
        problems.append(f"set-up gave {index.n_docs} docs and {len(queries)} queries")
    bench.record(problems)
    return index, queries


def search_pairs(queries):
    """Every query with every model, diagonally.

    Round r pairs query j with model (j + r) mod 8, so any stretch of
    consecutive pairs spreads over many queries and all models alike.
    """
    n = len(ALL_MODELS)
    return [(q, ALL_MODELS[(j + r) % n]) for r in range(n) for j, q in enumerate(queries)]


def checked_search(bench: Bench, index, query, model) -> None:
    """One timed search, then its output checked untimed."""
    start = perf_counter()
    try:
        results = search(index, query, model, top_k=TOP_K)
    except EmptyQueryError:
        results = None
    except Exception as exc:  # any other exception fails the operation
        bench.record([f"search {query.query_id} {model.value}: {exc!r}"])
        return
    elapsed = perf_counter() - start
    problems = []
    if results is not None:
        bench.samples["search_s"].append(elapsed)
        candidates = filter_documents(index, query, model)
        problems = checks.ranking_problems(results, TOP_K, candidates)
    bench.results[(query.query_id, model.value)] = checks.run_text(
        {query.query_id: results or []}, model.value
    )
    bench.record(problems)


def index_memory_mb(index_dir: Path) -> float:
    """Bytes still allocated after ``load_index``, traced in a pass of their own."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        index = load_index(index_dir)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del index
    return held / 1e6


def index_disk_mb(index_dir: Path) -> float:
    return sum(p.stat().st_size for p in index_dir.iterdir() if p.is_file()) / 1e6


def identity_check(bench: Bench, run_dir: Path, query_ids: set[str]) -> None:
    """Run files from the fresh in-memory index against the reloaded index.

    ``compare`` writes its runs from the index it just built; every pair this
    run searched on the saved-and-reloaded index must give the same bytes.
    """
    blocks: dict[str, dict[str, str]] = {}
    for model in MODEL_NAMES:
        per_query: dict[str, str] = defaultdict(str)
        path = run_dir / f"{model}.run"
        if path.exists():
            for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
                per_query[line.split(" ", 1)[0]] += line
        blocks[model] = per_query
    for (query_id, model), expected in sorted(bench.results.items()):
        if query_id not in query_ids:
            continue
        problems = []
        if blocks[model].get(query_id, "") != expected:
            problems.append(f"{model} run for {query_id} differs between fresh and reloaded index")
        bench.record(problems)


def oracle_check(bench: Bench, data: inputs.Dataset) -> None:
    compared, problems = checks.oracle_problems(data)
    bench.attempted += compared
    bench.failed += len(problems)
    bench.problems.extend(problems)


# ---------------------------------------------------------------------------
# Traced replays: the same steps through the public functions, one span each.


def traced_corpus(bench: Bench, corpus_path: Path, kb, taxonomy):
    with bench.span("corpus.ingest"):
        records = read_jsonl(corpus_path, CorpusError)
        docs, spans = [], []
        for record in records:
            with bench.span("corpus.ingest_doc") as span:
                docs.append(ingest_document(record, kb, taxonomy))
            spans.append(span)
    with bench.untimed():
        for doc, span in zip(docs, spans):
            span["annotations"] = len(doc.annotations)
            span["tokens"] = len(tokenize(doc.text))
    return docs


def traced_index(bench: Bench, files: inputs.DatasetFiles):
    with bench.span("ontology.read"):
        taxonomy = read_taxonomy_file(files.taxonomy)
        kb = read_kb_file(files.kb, taxonomy)
    docs = traced_corpus(bench, files.corpus, kb, taxonomy)
    # build_index runs document_terms itself; this pass times that share of it.
    with bench.untimed(), bench.span("termspace.expand"):
        for doc in docs:
            document_terms(doc, kb, taxonomy)
    with bench.span("index.build") as span:
        index = build_index(docs, kb, taxonomy)
    with bench.untimed():
        span["terms"] = sum(index.term_count(s) for s in STORED_SPACES)
        span["postings"] = sum(
            len(index.postings(t, s)) for s in STORED_SPACES for t in index.terms(s)
        )
    return index


def traced_build(bench: Bench, files: inputs.DatasetFiles, index_dir: Path) -> float:
    """``build-index`` step by step; returns its time less the untimed work."""
    bench.tracer.new_op()
    start, untimed = perf_counter(), bench.untimed_s
    index = traced_index(bench, files)
    with bench.span("index.save"):
        save_index(index, index_dir)
    elapsed = perf_counter() - start - (bench.untimed_s - untimed)
    bench.record([])
    return elapsed


def traced_setup(bench: Bench, index_dir: Path, queries_path: Path):
    bench.tracer.new_op()
    with bench.span("index.load"):
        index = load_index(index_dir)
    with bench.span("corpus.load_queries"):
        queries = load_queries(queries_path, index.kb, index.taxonomy, index.stopwords)
    return index, queries


def traced_search(bench: Bench, index, query, model, keep: bool):
    """Filter and search with a span each; the output is checked untimed.

    ``keep`` stores the results for the fresh-against-reloaded check; only
    searches on a reloaded index keep them.
    """
    try:
        # search filters again itself; this call times that share of it.
        with bench.untimed(), bench.span("retrieval.filter", model=model.value, empty=False) as fspan:
            candidates = filter_documents(index, query, model)
            fspan["candidates"] = len(candidates)
    except EmptyQueryError:
        fspan["empty"] = True
        if keep:
            bench.results[(query.query_id, model.value)] = ""
        bench.record([])
        return None
    with bench.span("retrieval.search", model=model.value) as span:
        results = search(index, query, model, top_k=TOP_K)
    with bench.untimed():
        span["returned"] = len(results)
        span["inversions"] = checks.tie_inversions(results)
        span["key"] = (query.query_id, model.value)
        if keep:
            bench.results[span["key"]] = checks.run_text({query.query_id: results}, model.value)
        bench.record(checks.ranking_problems(results, TOP_K, candidates))
    return results


def traced_compare(bench: Bench, files: inputs.DatasetFiles, out_dir: Path) -> float:
    """``compare`` step by step: build, search every model, write runs, evaluate.

    Returns its time less the untimed work.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    bench.tracer.new_op()
    start, untimed = perf_counter(), bench.untimed_s
    index = traced_index(bench, files)
    with bench.span("corpus.load_queries"):
        queries = load_queries(files.queries, index.kb, index.taxonomy, index.stopwords)
    run_dir = out_dir / "runs"
    run_dir.mkdir(parents=True)
    for model in ALL_MODELS:
        runs = {}
        for query in queries:
            results = traced_search(bench, index, query, model, keep=False)
            if results is not None:
                runs[query.query_id] = results
        with bench.span("retrieval.write_run"):
            write_run_file(runs, model.value, run_dir / f"{model.value}.run")
    qrels = load_qrels(files.qrels)
    with bench.span("evaluation.load_runs") as span:
        runs_by_model = {m: load_run_file(run_dir / f"{m}.run") for m in MODEL_NAMES}
    with bench.untimed():
        span["lines"] = sum(len(r) for run in runs_by_model.values() for r in run.values())
    with bench.span("evaluation.evaluate"):
        report = evaluate_runs(runs_by_model, qrels)
    with bench.span("evaluation.write_report"):
        write_report(report, out_dir)
    elapsed = perf_counter() - start - (bench.untimed_s - untimed)
    bench.record(report_problems(out_dir))
    return elapsed


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _slope(points) -> float:
    """Least-squares slope of log(seconds) on log(tokens)."""
    xs = [math.log(t) for t, _ in points]
    ys = [math.log(s) for _, s in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    var = sum((x - mx) ** 2 for x in xs)
    if var == 0.0:
        return 0.0
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / var


def layer_metrics(bench: Bench) -> dict[str, float]:
    tr = bench.tracer
    metrics = {
        "ontology.read_s": _median(tr.per_op("ontology.read")),
        "corpus.ingest_s": _median(tr.per_op("corpus.ingest")),
        "corpus.tokens": _median(tr.per_op("corpus.ingest_doc", "tokens")),
        "corpus.annotations": _median(tr.per_op("corpus.ingest_doc", "annotations")),
        "corpus.ingest_exp": _slope(
            [
                (s["tokens"], s["end"] - s["start"])
                for s in tr.named("corpus.ingest_doc")
                if s.get("tokens", 0) > 0
            ]
        ),
        "corpus.load_queries_s": _median(tr.per_op("corpus.load_queries")),
        "termspace.expand_s": _median(tr.per_op("termspace.expand")),
        "index.build_s": _median(tr.per_op("index.build")),
        "index.save_s": _median(tr.per_op("index.save")),
        "index.load_s": _median(tr.per_op("index.load")),
        "index.postings": _median(tr.per_op("index.build", "postings")),
        "index.terms": _median(tr.per_op("index.build", "terms")),
    }
    filters = tr.named("retrieval.filter")
    # A search that raised has no counts; its failure is already recorded.
    searches = [s for s in tr.named("retrieval.search") if "returned" in s]
    # Each search span directly follows the filter span of the same pair.
    filter_of = {f["id"] + 1: f for f in filters}
    for model in MODEL_NAMES:
        mf = [f for f in filters if f["model"] == model]
        ms = [s for s in searches if s["model"] == model]
        filter_ms = [1000 * (f["end"] - f["start"]) for f in mf if not f["empty"]]
        score_rank_ms = [
            1000 * ((s["end"] - s["start"]) - (filter_of[s["id"]]["end"] - filter_of[s["id"]]["start"]))
            for s in ms
        ]
        candidates = sum(f["candidates"] for f in mf if not f["empty"])
        returned = sum(s["returned"] for s in ms)
        metrics[f"retrieval.{model}.filter_ms"] = _median(filter_ms)
        metrics[f"retrieval.{model}.score_rank_ms"] = _median(score_rank_ms)
        metrics[f"retrieval.{model}.candidates"] = candidates / len(filter_ms) if filter_ms else 0.0
        metrics[f"retrieval.{model}.kept_ratio"] = returned / candidates if candidates else 1.0
        metrics[f"retrieval.{model}.empty_queries"] = sum(1 for f in mf if f["empty"])
    # A pair searched more than once (by several compares) counts once.
    inversions = {s["key"]: s["inversions"] for s in searches}
    untraced, traced = bench.overhead
    metrics.update(
        {
            "retrieval.write_run_s": _median(tr.per_op("retrieval.write_run")),
            "retrieval.tie_inversions": sum(inversions.values()),
            "evaluation.load_runs_s": _median(tr.per_op("evaluation.load_runs")),
            "evaluation.run_lines": _median(tr.per_op("evaluation.load_runs", "lines")),
            "evaluation.evaluate_s": _median(tr.per_op("evaluation.evaluate")),
            "evaluation.write_report_s": _median(tr.per_op("evaluation.write_report")),
            "trace.overhead_pct": 100.0 * (traced - untraced) / untraced if untraced else 0.0,
        }
    )
    return metrics


def end_to_end_metrics(bench: Bench, mem_mb: float, disk_mb: float) -> dict[str, float]:
    search_s = bench.samples["search_s"]
    # Fewer than two samples happen only in a run whose operations failed.
    p90 = statistics.quantiles(search_s, n=10)[8] if len(search_s) > 1 else 0.0
    return {
        "setup_s": _median(bench.samples["setup_s"]),
        "build_index_s": _median(bench.samples["build_index_s"]),
        "compare_s": _median(bench.samples["compare_s"]),
        "search_qps": len(search_s) / sum(search_s) if search_s else 0.0,
        "search_p50_ms": 1000 * _median(search_s),
        "search_p90_ms": 1000 * p90,
        "index_mem_mb": mem_mb,
        "index_disk_mb": disk_mb,
    }


# ---------------------------------------------------------------------------
# The workloads. Each operation has an untraced form, timed for the end-to-end
# metrics, and a traced replay, used for the per-layer metrics.

# Operations per window iteration besides the main one. Set-ups and builds
# are short, so an iteration does several and their medians rest on many
# samples. compare-2k's searches go on through the diagonal order of all its
# (query, model) pairs, so a run searches a balanced sample of both; longdoc
# searches every pair each iteration.
COMPARE_BUILDS, COMPARE_SETUPS, COMPARE_SEARCHES = 5, 5, 96
LONGDOC_SETUPS = 40


def build(bench: Bench, files: inputs.DatasetFiles, index_dir: Path, n_docs: int) -> None:
    if bench.tracer is None:
        bench.attempt("build-index", build_index_cli, bench, files, index_dir, n_docs)
    else:
        bench.attempt("traced build-index", traced_build, bench, files, index_dir)


def compare(bench: Bench, files: inputs.DatasetFiles, out_dir: Path) -> None:
    if bench.tracer is None:
        bench.attempt("compare", compare_cli, bench, files, out_dir)
    else:
        bench.attempt("traced compare", traced_compare, bench, files, out_dir)


def loaded(bench: Bench, fn, n_docs: int, n_queries: int) -> None:
    bench.attempt("set-up", setup, bench, fn, n_docs, n_queries)


def search_all(bench: Bench, index, pairs) -> None:
    for query, model in pairs:
        if bench.tracer is None:
            checked_search(bench, index, query, model)
        else:
            bench.attempt("traced search", traced_search, bench, index, query, model, True)


def iterate(bench: Bench, metric: str, main, traced_main, extras) -> None:
    """Repeat the main operation, then the extra ones, until ``seconds`` have passed.

    The machine's speed changes for stretches of tens of seconds, so the
    extras are spread over the window rather than run in one block: every
    metric then sees the same stretches. Traced runs do the main operation
    in both forms and keep their summed times for the overhead.
    """
    deadline = perf_counter() + bench.seconds
    while True:
        samples = len(bench.samples[metric])
        bench.attempt(metric, main)
        if bench.tracer is not None:
            traced = bench.attempt(f"traced {metric}", traced_main)
            if traced is not None and len(bench.samples[metric]) > samples:
                bench.overhead[0] += bench.samples[metric][-1]
                bench.overhead[1] += traced
        extras()
        if perf_counter() >= deadline:
            return


def oracle_sample(data: inputs.Dataset, n_docs: int) -> inputs.Dataset:
    return data.subset(n_docs, data.queries[:ORACLE_QUERIES])


def finish(bench: Bench, index_dir: Path, compare_dir: Path, compared, oracle_data):
    """Checks shared by the workloads, then the index's size in memory and on disk."""
    identity_check(bench, compare_dir / "runs", {q["query_id"] for q in compared})
    oracle_check(bench, oracle_data)
    if bench.tracer is not None:
        return None
    return index_memory_mb(index_dir), index_disk_mb(index_dir)


def compare_2k(bench: Bench, seed: int):
    data = inputs.short_documents(seed, COMPARE_DOCS, COMPARE_QUERIES)
    files = inputs.write_dataset(data, bench.work / "data")
    index_dir, out_dir = bench.work / "index", bench.work / "compare"
    build(bench, files, index_dir, COMPARE_DOCS)
    index, queries = load_setup(index_dir, files.queries)
    pairs = itertools.cycle(search_pairs(queries))

    def extras():
        for _ in range(COMPARE_BUILDS):
            build(bench, files, index_dir, COMPARE_DOCS)
        for _ in range(COMPARE_SETUPS):
            if bench.tracer is None:
                fn = lambda: compare_setup(files)
            else:
                # The compare replay already traces these calls; index.load_s
                # comes from loading the saved index.
                fn = lambda: traced_setup(bench, index_dir, files.queries)
            loaded(bench, fn, COMPARE_DOCS, COMPARE_QUERIES)
        search_all(bench, index, itertools.islice(pairs, COMPARE_SEARCHES))

    iterate(
        bench,
        "compare_s",
        lambda: compare_cli(bench, files, out_dir),
        lambda: traced_compare(bench, files, out_dir),
        extras,
    )
    return finish(bench, index_dir, out_dir, data.queries, oracle_sample(data, ORACLE_DOCS))


def longdoc(bench: Bench, seed: int):
    data = inputs.long_documents(seed, LONGDOC_QUERIES)
    files = inputs.write_dataset(data, bench.work / "data")
    index_dir, out_dir = bench.work / "index", bench.work / "compare"
    n_docs = len(data.docs)
    build(bench, files, index_dir, n_docs)
    index, queries = load_setup(index_dir, files.queries)
    pairs = search_pairs(queries)
    if bench.tracer is None:
        load = lambda: load_setup(index_dir, files.queries)
    else:
        load = lambda: traced_setup(bench, index_dir, files.queries)

    def extras():
        for _ in range(LONGDOC_SETUPS):
            loaded(bench, load, n_docs, LONGDOC_QUERIES)
        compare(bench, files, out_dir)
        search_all(bench, index, pairs)

    iterate(
        bench,
        "build_index_s",
        lambda: build_index_cli(bench, files, index_dir, n_docs),
        lambda: traced_build(bench, files, index_dir),
        extras,
    )
    oracle_data = inputs.long_documents(seed, ORACLE_QUERIES, ORACLE_LONG_TOKENS)
    return finish(
        bench, index_dir, out_dir, data.queries,
        oracle_sample(oracle_data, len(ORACLE_LONG_TOKENS)),
    )


WORKLOADS = {"compare-2k": compare_2k, "longdoc": longdoc}
